//! Load phases across the benchmark's connections: one scoped thread per
//! connection, each running a loop from [`crate::load`].

use crate::conn::{Conn, Wire};
use crate::load::{
    closed_loop, open_loop, Check, ClosedPlan, OpenOutcome, OpenPlan, Tally, Until, PUNCTUAL_TICK,
};
use kizzle::ScanVerdict;
use kizzle_corpus::KitFamily;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a document must scan to: signature index and family.
pub type Expected = (Option<u32>, Option<KitFamily>);

/// Builds each connection's verdict check from its connection index.
pub type MakeCheck<'a> = dyn Fn(usize) -> Box<Check<'a>> + Sync + 'a;

/// A check against precomputed verdicts of a quiesced chain.
pub fn exact<'a>(expected: &'a [Expected]) -> impl Fn(usize) -> Box<Check<'a>> + Sync + 'a {
    move |_| {
        Box::new(move |doc: usize, v: &ScanVerdict, _: Instant| {
            expected.get(doc) == Some(&(v.index, v.family))
        })
    }
}

/// Where connection `c` of `n` starts walking the documents.
fn first_doc(c: usize, n: usize, docs: usize) -> usize {
    c * docs / n.max(1)
}

/// Closed-loop saturation: every connection keeps `window` requests in
/// flight for `slices × slice`. Returns the combined reply rate of each
/// slice, and the tally.
pub fn saturate(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    window: usize,
    slice: Duration,
    slices: usize,
    make_check: &MakeCheck<'_>,
) -> (Vec<f64>, Tally) {
    let start = Instant::now() + Duration::from_millis(5);
    let n = conns.len();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut check = make_check(c);
                let plan = ClosedPlan {
                    window,
                    start,
                    slice,
                    slices,
                    first_doc: first_doc(c, n, frames.len()),
                };
                scope.spawn(move || closed_loop(conn, frames, &plan, &mut *check))
            })
            .collect();
        handles.into_iter().map(join_or_default).collect::<Vec<_>>()
    });
    let mut per_slice = vec![0u64; slices];
    let mut tally = Tally::default();
    for outcome in &outcomes {
        tally.merge(&outcome.tally);
        for (sum, count) in per_slice.iter_mut().zip(&outcome.per_slice) {
            *sum += count;
        }
    }
    let rates = per_slice
        .iter()
        .map(|&count| count as f64 / slice.as_secs_f64())
        .collect();
    (rates, tally)
}

/// When an open-loop phase stops sending.
pub enum Stop {
    /// Requests due before this instant are sent.
    At(Instant),
    /// Requests are sent until the caller's work returns.
    AfterWork,
}

/// An open-loop phase: `rate` requests/s in total, spread evenly over
/// the connections, until `stop`, and at least `min_requests` in total.
pub struct OpenSpec {
    pub rate: f64,
    /// Generator tick (see [`OpenPlan::tick`]).
    pub tick: Duration,
    pub stop: Stop,
    pub min_requests: u64,
}

/// Run an open-loop phase; `work` runs on the calling thread while the
/// load runs.
pub fn open_while<R>(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    spec: &OpenSpec,
    make_check: &MakeCheck<'_>,
    work: impl FnOnce() -> R,
) -> (OpenOutcome, R) {
    let n = conns.len().max(1);
    let start = Instant::now() + Duration::from_millis(5);
    let flag = AtomicBool::new(false);
    let (outcomes, result) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut check = make_check(c);
                let plan = OpenPlan {
                    rate: spec.rate / n as f64,
                    // Interleave the connections' schedules.
                    start: start + Duration::from_secs_f64(c as f64 / spec.rate.max(1e-3)),
                    until: match spec.stop {
                        Stop::At(end) => Until::Deadline(end),
                        Stop::AfterWork => Until::Flag(&flag),
                    },
                    min_requests: spec.min_requests.div_ceil(n as u64),
                    first_doc: first_doc(c, n, frames.len()),
                    tick: spec.tick,
                };
                scope.spawn(move || open_loop(conn, frames, &plan, &mut *check))
            })
            .collect();
        let result = work();
        flag.store(true, Ordering::Release);
        let outcomes: Vec<OpenOutcome> = handles.into_iter().map(join_or_default).collect();
        (outcomes, result)
    });
    let mut merged = OpenOutcome::default();
    for outcome in &outcomes {
        merged.merge(outcome);
    }
    (merged, result)
}

/// [`open_while`] with nothing to do meanwhile.
pub fn open(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    spec: &OpenSpec,
    make_check: &MakeCheck<'_>,
) -> OpenOutcome {
    open_while(conns, frames, spec, make_check, || ()).0
}

/// Latency stretches a rung is split into; the rung's p99 is their
/// median, so one scheduling hiccup does not fail a rung.
const RUNG_SEGMENTS: usize = 3;

/// One rung of the rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub requests: u64,
    pub p99_ms: f64,
    pub backlog: u64,
    pub pass: bool,
}

/// The search for the highest rate of an ascending ladder at which the
/// open-loop p99 stays within the limit and the backlog does not grow:
/// bisection, one probed rung at a time, so a caller can spread the
/// probes over its whole run. A rung that fails is probed once more
/// before the search moves below it, so one stall of the shared box does
/// not cut the search short.
pub struct Ladder<'a> {
    rates: &'a [f64],
    /// How long each probe sends, and the p99 limit a rung must meet.
    rung_time: Duration,
    limit_ms: f64,
    /// Highest rung known to pass.
    lo: Option<usize>,
    /// Lowest rung known to fail.
    hi: usize,
    /// The current rung has failed once.
    retrying: bool,
    pub rungs: Vec<Rung>,
    /// Requests of every probe.
    pub tally: Tally,
}

impl<'a> Ladder<'a> {
    pub fn new(rates: &'a [f64], rung_time: Duration, limit_ms: f64) -> Self {
        Ladder {
            rates,
            rung_time,
            limit_ms,
            lo: None,
            hi: rates.len(),
            retrying: false,
            rungs: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn mid(&self) -> Option<usize> {
        let low = self.lo.map_or(0, |l| l + 1);
        (self.hi > low).then(|| (low + self.hi) / 2)
    }

    /// The rate to probe next; `None` once the search has ended.
    pub fn next_rate(&self) -> Option<f64> {
        self.mid().map(|m| self.rates[m])
    }

    /// Record the probe of the rung [`Ladder::next_rate`] named.
    pub fn record(&mut self, rung: Rung) {
        let Some(mid) = self.mid() else { return };
        if rung.pass {
            self.lo = Some(mid);
            self.retrying = false;
        } else if self.retrying {
            self.hi = mid;
            self.retrying = false;
        } else {
            self.retrying = true;
        }
        self.rungs.push(rung);
    }

    /// Probe the next rung over `conns`; `false` once the search has
    /// ended.
    pub fn probe(
        &mut self,
        conns: &mut [Conn],
        frames: &[Vec<u8>],
        make_check: &MakeCheck<'_>,
    ) -> bool {
        let Some(rate) = self.next_rate() else {
            return false;
        };
        let (rung, tally) = run_rung(
            conns,
            frames,
            rate,
            self.rung_time,
            self.limit_ms,
            make_check,
        );
        self.tally.merge(&tally);
        self.record(rung);
        true
    }

    /// The highest passing rate, once the search has ended.
    pub fn best(&self) -> Option<f64> {
        self.lo.map(|i| self.rates[i])
    }
}

/// Probe one rung: `rate` requests/s for `rung_time`. Its p99 is the
/// median over its stretches; any failed request fails the rung.
/// Returns the rung and the tally of its requests.
fn run_rung(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    rate: f64,
    rung_time: Duration,
    limit_ms: f64,
    make_check: &MakeCheck<'_>,
) -> (Rung, Tally) {
    let spec = OpenSpec {
        rate,
        tick: PUNCTUAL_TICK,
        stop: Stop::At(Instant::now() + rung_time),
        min_requests: 0,
    };
    let outcome = open(conns, frames, &spec, make_check);
    let per_segment = outcome.latency_ms.len() / RUNG_SEGMENTS;
    let p99 = outcome
        .segmented_quantile(0.99, per_segment)
        .unwrap_or(f64::INFINITY);
    // A queue the daemon keeps up with drains within a quarter of the
    // latency limit.
    let backlog_limit = (rate * limit_ms / 4e3).max(4.0);
    let rung = Rung {
        rate,
        requests: outcome.tally.sent,
        p99_ms: p99,
        backlog: outcome.backlog,
        pass: outcome.tally.failed() == 0
            && p99 <= limit_ms
            && (outcome.backlog as f64) <= backlog_limit,
    };
    (rung, outcome.tally)
}

/// Scan every frame once, in order, through one connection with a
/// pipelined window; the verdicts come back in document order.
pub fn scan_all(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    window: usize,
) -> std::io::Result<Vec<ScanVerdict>> {
    let mut verdicts = Vec::with_capacity(frames.len());
    let mut in_flight = 0usize;
    for frame in frames {
        if in_flight == window.max(1) {
            conn.flush()?;
            verdicts.push(recv_blocking(conn)?);
            in_flight -= 1;
        }
        conn.send(frame)?;
        in_flight += 1;
    }
    conn.flush()?;
    for _ in 0..in_flight {
        verdicts.push(recv_blocking(conn)?);
    }
    Ok(verdicts)
}

fn recv_blocking(conn: &mut Conn) -> std::io::Result<ScanVerdict> {
    conn.recv(Duration::from_secs(30))?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "no scan reply"))
}

/// Verify pass: every document once through `conn`, each verdict against
/// `expected`. Failed requests and wrong verdicts are tallied.
pub fn verify(conn: &mut Conn, frames: &[Vec<u8>], expected: &[Expected]) -> Tally {
    let mut tally = Tally {
        sent: frames.len() as u64,
        ..Tally::default()
    };
    match scan_all(conn, frames, 32) {
        Ok(verdicts) => {
            tally.answered = verdicts.len() as u64;
            tally.wrong = verdicts
                .iter()
                .zip(expected)
                .filter(|(v, want)| (v.index, v.family) != **want)
                .count() as u64;
        }
        Err(err) => {
            tally.dropped = frames.len() as u64;
            tally.error = Some(err.to_string());
        }
    }
    tally
}

/// Phase outcomes that carry a [`Tally`].
trait Tallied: Default {
    fn tally_mut(&mut self) -> &mut Tally;
}

impl Tallied for crate::load::ClosedOutcome {
    fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

impl Tallied for OpenOutcome {
    fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

fn join_or_default<T: Tallied>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|_| {
        // The panic message is already on stderr; the phase counts a
        // dropped request so the run fails.
        let mut outcome = T::default();
        outcome.tally_mut().dropped = 1;
        outcome.tally_mut().error = Some("load thread panicked".into());
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, pass: bool) -> Rung {
        Rung {
            rate,
            requests: 1,
            p99_ms: 0.0,
            backlog: 0,
            pass,
        }
    }

    /// Drive a ladder against a capacity; `flaky` fails the first probe
    /// of each rung at or below capacity once.
    fn search(rates: &[f64], capacity: f64, flaky: bool) -> (Option<f64>, usize) {
        let mut ladder = Ladder::new(rates, Duration::ZERO, 0.0);
        let mut failed_once = Vec::new();
        while let Some(rate) = ladder.next_rate() {
            let stall = flaky && !failed_once.contains(&rate.to_bits());
            if stall {
                failed_once.push(rate.to_bits());
            }
            ladder.record(rung(rate, rate <= capacity && !stall));
        }
        (ladder.best(), ladder.rungs.len())
    }

    #[test]
    fn ladder_finds_the_highest_passing_rung() {
        let rates: Vec<f64> = (1..=20).map(|i| f64::from(i) * 100.0).collect();
        let (best, probes) = search(&rates, 1350.0, false);
        assert_eq!(best, Some(1300.0));
        // Failed rungs are probed twice; passing ones once.
        assert!(probes <= 2 * 5, "{probes} probes");
        assert_eq!(search(&rates, 50.0, false).0, None);
        assert_eq!(search(&rates, 5000.0, false).0, Some(2000.0));
    }

    #[test]
    fn ladder_retries_a_failed_rung_once() {
        let rates: Vec<f64> = (1..=20).map(|i| f64::from(i) * 100.0).collect();
        // Every passing rung fails its first probe; the retry keeps the
        // search on course.
        assert_eq!(search(&rates, 1350.0, true).0, Some(1300.0));
    }
}
