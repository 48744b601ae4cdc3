//! The `kizzle-serve` daemon as a child process, and peak-RSS readings
//! from `/proc`.

use crate::conn::Conn;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a drained daemon may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// A running `kizzle-serve` child. Dropping it kills and reaps the
/// process, so no error path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// Held open until the child exits: the daemon prints a last line
    /// when it drains, and a closed pipe would turn that into an error.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Start `bin` tailing `chain_dir` and wait for its `listening on`
    /// line.
    pub fn spawn(
        bin: &Path,
        chain_dir: &Path,
        workers: usize,
        poll_ms: u64,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--chain-dir")
            .arg(chain_dir)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string()])
            .args(["--poll-ms", &poll_ms.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not report its address ({read:?}, {line:?})"
                ))
            }
        }
    }

    /// The `host:port` the daemon listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drain the daemon over `conn` (a connection that already holds a
    /// worker — a new one would queue behind the busy workers) and wait
    /// for it to exit.
    pub fn stop(mut self, conn: Conn) -> Result<(), String> {
        let drained = conn.shutdown_daemon();
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return drained.map_err(|e| e.to_string()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after the drain request".into()),
                Err(err) => return Err(format!("waiting for the daemon: {err}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of the process whose status file is at
/// `path`, in MiB.
pub fn peak_rss_mib(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_vmhwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// The `VmHWM` value of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tkizzle-serve\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  215432 kB\nVmSize:\t  215428 kB\nVmHWM:\t    9876 kB\nVmRSS:\t    9012 kB\n\
        Threads:\t5\n";

    #[test]
    fn vmhwm_parses_from_a_status_fixture() {
        assert_eq!(parse_vmhwm_kib(STATUS), Some(9876));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = peak_rss_mib("/proc/self/status");
        assert!(matches!(mib, Ok(v) if v > 0.0));
    }
}
