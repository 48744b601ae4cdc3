//! One compiler day, timed layer by layer: pipelined ingest → seal →
//! save as a chain link → the daemon serving the new epoch.

use crate::trace::Tracer;
use kizzle::{ChainFollower, DayReport, KizzleService};
use kizzle_corpus::{Sample, SimDate};
use kizzle_telemetry::Record;
use std::path::Path;
use std::time::{Duration, Instant};

/// Samples per mini-batch handed to the pipelined session.
pub const BATCH: usize = 64;

/// How often the benchmark checks that the session applied every batch.
const INGEST_POLL: Duration = Duration::from_micros(100);

/// Longest a day may take to be served before the run fails.
const SERVE_TIMEOUT: Duration = Duration::from_secs(60);

/// Spans the program already records per day, drained through
/// `kizzle_telemetry` (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProgramSpans {
    pub winnow: Duration,
    pub siggen: Duration,
    pub dedup: Duration,
    pub publish: Duration,
}

/// Everything measured about one compiled day.
#[derive(Debug)]
pub struct DayRecord {
    /// First sample handed to the session until a wire verdict carries
    /// the new epoch; `None` when the day added no signature (nothing
    /// new to serve).
    pub served: Option<Duration>,
    /// First sample handed over until the session applied the last one.
    pub ingest: Duration,
    pub seal: Duration,
    pub save: Duration,
    /// `save` returning until the new epoch's first wire verdict.
    pub swap: Option<Duration>,
    /// `ChainFollower::poll` of the benchmark's own follower after the
    /// day was served (traced runs only).
    pub poll: Option<Duration>,
    /// Chain directory growth caused by this save (negative when it
    /// compacted).
    pub save_bytes: f64,
    /// Delta links in the chain after this save.
    pub deltas: usize,
    pub samples: usize,
    pub report: DayReport,
    pub spans: ProgramSpans,
}

/// Epoch bookkeeping the day runner needs from whoever watches the wire.
pub trait EpochWatch {
    /// The newest epoch the daemon is known to serve.
    fn current(&mut self) -> Result<u64, String>;
    /// Block until a wire verdict carries an epoch above `above`; returns
    /// when that verdict arrived and its epoch.
    fn await_above(&mut self, above: u64, timeout: Duration) -> Result<(Instant, u64), String>;
}

/// Where a compiled day goes.
pub struct Publish<'a> {
    /// The chain directory the daemon tails.
    pub chain_dir: &'a Path,
    /// Raised to the grown set's size *before* the save, so any verdict
    /// of the new epoch is bounded by it.
    pub published_len: &'a std::sync::atomic::AtomicUsize,
    /// The benchmark's own follower of the chain, polled after the day
    /// is served (traced runs).
    pub follower: Option<&'a ChainFollower>,
}

/// Compile `samples` as `date`, save them as the next chain link, and
/// wait for the daemon to serve the result.
pub fn run_day(
    service: &mut KizzleService,
    date: SimDate,
    samples: &[Sample],
    publish: &Publish<'_>,
    watch: &mut dyn EpochWatch,
    tracer: &mut Tracer,
) -> Result<DayRecord, String> {
    let Publish {
        chain_dir,
        published_len,
        follower,
    } = *publish;
    let before_len = service.signatures().len();
    let day_span = tracer.open("day", None);
    let t0 = Instant::now();
    let mut session = service.begin_day(date).map_err(|e| e.to_string())?;
    let producer = session.pipeline_auto();
    for chunk in samples.chunks(BATCH) {
        if !producer.send(chunk) {
            return Err(format!("{date}: the session refused a batch"));
        }
    }
    drop(producer);
    while session.ingested() < samples.len() {
        if t0.elapsed() > SERVE_TIMEOUT {
            return Err(format!("{date}: ingest did not finish"));
        }
        std::thread::sleep(INGEST_POLL);
    }
    let t1 = Instant::now();
    let report = session.seal();
    let t2 = Instant::now();
    let len = service.signatures().len();
    published_len.fetch_max(len, std::sync::atomic::Ordering::AcqRel);
    let epoch_before = watch.current()?;
    let bytes_before = dir_bytes(chain_dir);
    service
        .save(chain_dir)
        .map_err(|e| format!("{date}: save: {e}"))?;
    let t3 = Instant::now();
    let served_at = if len > before_len {
        Some(watch.await_above(epoch_before, SERVE_TIMEOUT)?.0)
    } else {
        None
    };
    tracer.record("core.ingest", day_span, t0, t1);
    tracer.record("core.seal", day_span, t1, t2);
    tracer.record("snapshot.save", day_span, t2, t3);
    if let Some(at) = served_at {
        tracer.record("snapshot.swap", day_span, t3, at);
    }
    tracer.close(day_span);
    let poll = match follower {
        Some(follower) => {
            let p0 = Instant::now();
            follower
                .poll()
                .map_err(|e| format!("{date}: follower poll: {e}"))?;
            let p1 = Instant::now();
            tracer.record("snapshot.poll", None, p0, p1);
            Some(p1 - p0)
        }
        None => None,
    };
    Ok(DayRecord {
        served: served_at.map(|at| at - t0),
        ingest: t1 - t0,
        seal: t2 - t1,
        save: t3 - t2,
        swap: served_at.map(|at| at - t3),
        poll,
        save_bytes: dir_bytes(chain_dir) as f64 - bytes_before as f64,
        deltas: delta_links(chain_dir),
        samples: samples.len(),
        report,
        spans: drain_program_spans(),
    })
}

/// Sum the day's program spans out of the telemetry collector (empty
/// unless telemetry is enabled).
fn drain_program_spans() -> ProgramSpans {
    let mut spans = ProgramSpans::default();
    for record in kizzle_telemetry::drain() {
        if let Record::Span { name, dur_us, .. } = record {
            let slot = match name {
                "day.winnow" => &mut spans.winnow,
                "day.siggen" => &mut spans.siggen,
                "day.dedup" => &mut spans.dedup,
                "day.publish" => &mut spans.publish,
                _ => continue,
            };
            *slot += Duration::from_micros(dur_us);
        }
    }
    spans
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn delta_links(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".delta-"))
                .count()
        })
        .unwrap_or(0)
}
