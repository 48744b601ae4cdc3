//! One load connection to the daemon, speaking the `kizzle-serve` frame
//! protocol through its own codec.

use kizzle::ScanVerdict;
use kizzle_serve::protocol::{
    decode_scan_reply, read_frame, write_request, FrameRead, OP_METRICS, OP_SHUTDOWN, OP_STATUS,
    ST_OK,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Shortest read wait the generator asks for; the socket timeout cannot
/// be zero.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// How long a control request (`METRICS`, `STATUS`) may take.
const CONTROL_WAIT: Duration = Duration::from_secs(10);

/// The request/reply surface the load loops drive. The daemon connection
/// implements it; tests drive the loops through scripted fakes.
pub trait Wire {
    /// Queue one pre-encoded request frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Push queued frames to the peer.
    fn flush(&mut self) -> io::Result<()>;
    /// The next scan reply, waiting at most `wait`; `None` when none
    /// arrived in time.
    fn recv(&mut self, wait: Duration) -> io::Result<Option<ScanVerdict>>;
}

/// A pipelined connection: requests are answered in order, so any
/// number may be in flight.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    wait: Option<Duration>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: BufWriter::with_capacity(64 * 1024, stream.try_clone()?),
            stream,
            frame: Vec::new(),
            wait: None,
        })
    }

    fn set_wait(&mut self, wait: Duration) -> io::Result<()> {
        // Round to 50 µs so a steady loop does not reset the socket
        // option on every read.
        let wait = Duration::from_micros(wait.max(MIN_WAIT).as_micros().div_ceil(50) as u64 * 50);
        if self.wait != Some(wait) {
            self.stream.set_read_timeout(Some(wait))?;
            self.wait = Some(wait);
        }
        Ok(())
    }

    /// Read one reply frame's body, waiting at most `wait` for its first
    /// byte; `None` on timeout.
    fn read_body(&mut self, wait: Duration) -> io::Result<Option<&[u8]>> {
        if self.reader.buffer().is_empty() {
            self.set_wait(wait)?;
        }
        match read_frame(&mut self.reader, &mut self.frame)? {
            FrameRead::Frame => {}
            FrameRead::Idle => return Ok(None),
            FrameRead::Closed => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))
            }
        }
        match self.frame.split_first() {
            Some((&ST_OK, body)) => Ok(Some(body)),
            Some((_, body)) => Err(io::Error::other(format!(
                "daemon error: {}",
                String::from_utf8_lossy(body)
            ))),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "empty reply frame",
            )),
        }
    }

    fn control(&mut self, opcode: u8) -> io::Result<String> {
        write_request(&mut self.writer, opcode, &[])?;
        self.writer.flush()?;
        match self.read_body(CONTROL_WAIT)? {
            Some(body) => Ok(String::from_utf8_lossy(body).into_owned()),
            None => Err(io::Error::new(io::ErrorKind::TimedOut, "no control reply")),
        }
    }

    /// The daemon's Prometheus exposition.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.control(OP_METRICS)
    }

    /// The daemon's `key=value` status lines.
    pub fn status(&mut self) -> io::Result<String> {
        self.control(OP_STATUS)
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown_daemon(mut self) -> io::Result<()> {
        self.control(OP_SHUTDOWN).map(drop)
    }

    /// One blocking scan with nothing else in flight.
    pub fn scan_once(&mut self, frame: &[u8]) -> io::Result<ScanVerdict> {
        self.send(frame)?;
        self.flush()?;
        self.recv(CONTROL_WAIT)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no scan reply"))
    }
}

impl Wire for Conn {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv(&mut self, wait: Duration) -> io::Result<Option<ScanVerdict>> {
        match self.read_body(wait)? {
            Some(body) => decode_scan_reply(body).map(Some),
            None => Ok(None),
        }
    }
}

/// A counter or gauge value from a Prometheus exposition (unlabelled
/// series only).
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// The value of the `STATUS` line that starts with `prefix` (the key
/// and its `=`).
pub fn status_field<'a>(text: &'a str, prefix: &str) -> Option<&'a str> {
    text.lines().find_map(|line| line.strip_prefix(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_and_status_fields_parse() {
        let text = "# TYPE kizzle_scans_total counter\nkizzle_scans_total 42\n\
                    kizzle_scans_total_other 7\nkizzle_span_count{span=\"x\"} 3\n";
        assert_eq!(prom_value(text, "kizzle_scans_total"), Some(42.0));
        assert_eq!(prom_value(text, "kizzle_missing"), None);
        let status = "epoch=3\nsignatures=11\nworkers=2\n";
        assert_eq!(status_field(status, "epoch="), Some("3"));
        assert_eq!(status_field(status, "signatures="), Some("11"));
        assert_eq!(status_field(status, "draining="), None);
    }
}
