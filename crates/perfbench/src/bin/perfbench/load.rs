//! The two load shapes, one connection each.
//!
//! * Closed loop: a pipelined window of requests per connection; the
//!   caller sends the next request only when a reply frees a slot, so a
//!   slow daemon receives less load. Saturation throughput.
//! * Open loop: requests are due on a fixed schedule whatever the daemon
//!   does. Latency is timed from each request's *due* time, so a stall
//!   also charges the requests queued behind it, and the generator
//!   records how late it sent each request.
//!
//! Both drive a [`Wire`] from a single thread — the benchmark uses one
//! load thread per connection and no more.

use crate::conn::Wire;
use kizzle::ScanVerdict;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest single read wait of the closed loop; bounds how stale the
/// loop's clock can get.
const MAX_WAIT: Duration = Duration::from_millis(2);

/// How long replies may trail the end of sending before the requests
/// still in flight count as dropped.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Verdict check applied to every reply: `(document index, verdict,
/// arrival time) -> correct?`.
pub type Check<'a> = dyn FnMut(usize, &ScanVerdict, Instant) -> bool + Send + 'a;

/// What one connection's loop did.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub sent: u64,
    pub answered: u64,
    /// Replies whose verdict failed the check.
    pub wrong: u64,
    /// Requests that never got a reply (connection error or drain
    /// timeout).
    pub dropped: u64,
    pub error: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.wrong += other.wrong;
        self.dropped += other.dropped;
        if self.error.is_none() {
            self.error.clone_from(&other.error);
        }
    }

    /// Wrong or missing answers.
    pub fn failed(&self) -> u64 {
        self.wrong + self.dropped
    }
}

/// A closed-loop run: `window` requests in flight until `start +
/// slices × slice`, counting replies per time slice.
pub struct ClosedPlan {
    pub window: usize,
    pub start: Instant,
    pub slice: Duration,
    pub slices: usize,
    /// Where this connection starts its walk through the documents.
    pub first_doc: usize,
}

#[derive(Debug, Default, Clone)]
pub struct ClosedOutcome {
    pub tally: Tally,
    /// Replies received in each slice.
    pub per_slice: Vec<u64>,
}

pub fn closed_loop(
    wire: &mut impl Wire,
    frames: &[Vec<u8>],
    plan: &ClosedPlan,
    check: &mut Check<'_>,
) -> ClosedOutcome {
    let mut out = ClosedOutcome {
        per_slice: vec![0; plan.slices],
        ..ClosedOutcome::default()
    };
    let end = plan.start + plan.slice * plan.slices as u32;
    let mut in_flight: VecDeque<usize> = VecDeque::with_capacity(plan.window);
    let mut next = plan.first_doc;
    let result = (|| -> std::io::Result<()> {
        loop {
            if Instant::now() < end && in_flight.len() < plan.window {
                while in_flight.len() < plan.window.max(1) {
                    let doc = next % frames.len();
                    wire.send(&frames[doc])?;
                    in_flight.push_back(doc);
                    out.tally.sent += 1;
                    next += 1;
                }
                wire.flush()?;
            }
            let Some(&doc) = in_flight.front() else {
                return Ok(());
            };
            match wire.recv(MAX_WAIT)? {
                Some(verdict) => {
                    let at = Instant::now();
                    in_flight.pop_front();
                    out.tally.answered += 1;
                    if !check(doc, &verdict, at) {
                        out.tally.wrong += 1;
                    }
                    let slice = (at.saturating_duration_since(plan.start).as_secs_f64()
                        / plan.slice.as_secs_f64()) as usize;
                    if let Some(count) = out.per_slice.get_mut(slice) {
                        *count += 1;
                    }
                }
                None if Instant::now() > end + DRAIN_LIMIT => {
                    return Err(std::io::Error::other("replies stopped arriving"));
                }
                None => {}
            }
        }
    })();
    if let Err(err) = result {
        out.tally.error = Some(err.to_string());
        out.tally.dropped += in_flight.len() as u64;
    }
    out
}

/// When an open loop stops sending.
pub enum Until<'a> {
    /// Requests due before this instant are sent.
    Deadline(Instant),
    /// Requests are sent until the flag is raised.
    Flag(&'a AtomicBool),
}

/// An open-loop run at a fixed rate on one connection.
pub struct OpenPlan<'a> {
    /// Requests per second on this connection.
    pub rate: f64,
    /// Request `k` is due at `start + k / rate`.
    pub start: Instant,
    pub until: Until<'a>,
    /// Keep sending past `until` until this many requests went out.
    pub min_requests: u64,
    pub first_doc: usize,
    /// Longest single wait between checks of the schedule. A short tick
    /// keeps the generator punctual on a virtual machine, whose idle
    /// vCPUs take milliseconds to wake after long sleeps; a long one
    /// leaves the cores to the program.
    pub tick: Duration,
}

/// Tick of an open loop that must send on time at low load.
pub const PUNCTUAL_TICK: Duration = Duration::from_micros(50);
/// Tick of an open loop that shares the cores with busy program threads.
pub const RELAXED_TICK: Duration = Duration::from_millis(2);

#[derive(Debug, Default, Clone)]
pub struct OpenOutcome {
    pub tally: Tally,
    /// Per answered request: reply arrival minus due time, ms.
    pub latency_ms: Vec<f64>,
    /// Per answered request, parallel to `latency_ms`: its due time.
    pub due: Vec<Instant>,
    /// Per sent request: send time minus due time, ms.
    pub late_ms: Vec<f64>,
    /// Requests still in flight when sending stopped.
    pub backlog: u64,
}

impl OpenOutcome {
    pub fn merge(&mut self, other: &OpenOutcome) {
        self.tally.merge(&other.tally);
        self.latency_ms.extend_from_slice(&other.latency_ms);
        self.due.extend_from_slice(&other.due);
        self.late_ms.extend_from_slice(&other.late_ms);
        self.backlog += other.backlog;
    }

    /// The median, over consecutive stretches of at least `min` replies
    /// (in due-time order), of each stretch's `q`-quantile latency. One
    /// stretch when there are fewer than `2 × min` replies.
    pub fn segmented_quantile(&self, q: f64, min: usize) -> Option<f64> {
        crate::stats::median(&self.stretch_quantiles(q, min))
    }

    /// Each stretch's `q`-quantile latency, in due-time order (see
    /// [`OpenOutcome::segmented_quantile`]).
    pub fn stretch_quantiles(&self, q: f64, min: usize) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.latency_ms.len()).collect();
        order.sort_by_key(|&i| self.due[i]);
        let segments = (order.len() / min.max(1)).max(1);
        let per = order.len() / segments;
        (0..segments)
            .filter_map(|s| {
                let end = if s + 1 == segments {
                    order.len()
                } else {
                    (s + 1) * per
                };
                let chunk: Vec<f64> = order[s * per..end]
                    .iter()
                    .map(|&i| self.latency_ms[i])
                    .collect();
                crate::stats::quantile(&chunk, q)
            })
            .collect()
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn open_loop(
    wire: &mut impl Wire,
    frames: &[Vec<u8>],
    plan: &OpenPlan<'_>,
    check: &mut Check<'_>,
) -> OpenOutcome {
    let mut out = OpenOutcome::default();
    let period = 1.0 / plan.rate.max(1e-3);
    let due = |k: u64| plan.start + Duration::from_secs_f64(k as f64 * period);
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut k = 0u64;
    let mut stopped_at: Option<Instant> = None;
    let result = (|| -> std::io::Result<()> {
        loop {
            let now = Instant::now();
            if stopped_at.is_none() {
                let mut wrote = false;
                loop {
                    let done = k >= plan.min_requests
                        && match plan.until {
                            Until::Deadline(end) => due(k) >= end,
                            Until::Flag(flag) => flag.load(Ordering::Acquire),
                        };
                    if done {
                        stopped_at = Some(now);
                        out.backlog = in_flight.len() as u64;
                        break;
                    }
                    let due_k = due(k);
                    if due_k > now {
                        break;
                    }
                    let doc = (plan.first_doc + k as usize) % frames.len();
                    wire.send(&frames[doc])?;
                    in_flight.push_back((doc, due_k));
                    out.late_ms
                        .push(millis(now.saturating_duration_since(due_k)));
                    out.tally.sent += 1;
                    k += 1;
                    wrote = true;
                }
                if wrote {
                    wire.flush()?;
                }
            }
            let wait = match stopped_at {
                Some(_) => plan.tick,
                None => due(k)
                    .saturating_duration_since(Instant::now())
                    .min(plan.tick),
            };
            let Some(&(doc, due_at)) = in_flight.front() else {
                if stopped_at.is_some() {
                    return Ok(());
                }
                std::thread::sleep(wait);
                continue;
            };
            match wire.recv(wait)? {
                Some(verdict) => {
                    let at = Instant::now();
                    in_flight.pop_front();
                    out.tally.answered += 1;
                    out.latency_ms
                        .push(millis(at.saturating_duration_since(due_at)));
                    out.due.push(due_at);
                    if !check(doc, &verdict, at) {
                        out.tally.wrong += 1;
                    }
                }
                None => {
                    if stopped_at.is_some_and(|t| t.elapsed() > DRAIN_LIMIT) {
                        return Err(std::io::Error::other("replies stopped arriving"));
                    }
                }
            }
        }
    })();
    if let Err(err) = result {
        out.tally.error = Some(err.to_string());
        out.tally.dropped += in_flight.len() as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    /// Answers every request instantly; optionally stalls inside one
    /// `send`, as a descheduled generator would.
    struct FakeWire {
        queued: u64,
        sends: u64,
        stall_on: Option<(u64, Duration)>,
        max_outstanding: u64,
    }

    impl FakeWire {
        fn new(stall_on: Option<(u64, Duration)>) -> Self {
            FakeWire {
                queued: 0,
                sends: 0,
                stall_on,
                max_outstanding: 0,
            }
        }
    }

    impl Wire for FakeWire {
        fn send(&mut self, _frame: &[u8]) -> io::Result<()> {
            if self.stall_on.is_some_and(|(n, _)| n == self.sends) {
                std::thread::sleep(self.stall_on.map_or(Duration::ZERO, |(_, d)| d));
            }
            self.sends += 1;
            self.queued += 1;
            self.max_outstanding = self.max_outstanding.max(self.queued);
            Ok(())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
        fn recv(&mut self, wait: Duration) -> io::Result<Option<ScanVerdict>> {
            if self.queued == 0 {
                std::thread::sleep(wait);
                return Ok(None);
            }
            self.queued -= 1;
            Ok(Some(ScanVerdict {
                epoch: 1,
                index: None,
                family: None,
            }))
        }
    }

    fn frames() -> Vec<Vec<u8>> {
        vec![vec![0u8; 8]; 4]
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness() {
        // 1000/s for 200 requests; the 50th send stalls 40 ms, so the
        // ~40 requests due during the stall go out late in one burst.
        let stall = Duration::from_millis(40);
        let mut wire = FakeWire::new(Some((50, stall)));
        let plan = OpenPlan {
            rate: 1000.0,
            start: Instant::now(),
            until: Until::Deadline(Instant::now()),
            min_requests: 200,
            first_doc: 0,
            tick: PUNCTUAL_TICK,
        };
        let out = open_loop(&mut wire, &frames(), &plan, &mut |_, _, _| true);
        assert_eq!(out.tally.sent, 200);
        assert_eq!(out.tally.answered, 200);
        assert_eq!(out.late_ms.len(), 200);
        // The fake answers instantly, so only due-time accounting can
        // charge the stall to the requests behind it.
        let worst_late = out.late_ms.iter().copied().fold(0.0, f64::max);
        let worst_latency = out.latency_ms.iter().copied().fold(0.0, f64::max);
        assert!(
            worst_late >= 30.0,
            "lateness {worst_late} ms misses the stall"
        );
        assert!(
            worst_latency >= 30.0,
            "latency {worst_latency} ms misses the stall"
        );
        let delayed = out.latency_ms.iter().filter(|&&ms| ms >= 10.0).count();
        assert!(delayed >= 20, "only {delayed} requests carry the stall");
        // Without a stall the generator is on time.
        let mut wire = FakeWire::new(None);
        let plan = OpenPlan {
            start: Instant::now(),
            until: Until::Deadline(Instant::now()),
            ..plan
        };
        let out = open_loop(&mut wire, &frames(), &plan, &mut |_, _, _| true);
        let late = crate::stats::median(&out.late_ms).unwrap_or(f64::MAX);
        assert!(late < 5.0, "median lateness {late} ms without a stall");
    }

    #[test]
    fn segmented_quantile_takes_the_median_stretch() {
        let t0 = Instant::now();
        let mut out = OpenOutcome::default();
        // Three stretches of 100; the middle one has a 50 ms hiccup.
        for i in 0..300u64 {
            out.due.push(t0 + Duration::from_millis(i));
            out.latency_ms
                .push(if (150..160).contains(&i) { 50.0 } else { 1.0 });
        }
        assert_eq!(out.segmented_quantile(0.99, 100), Some(1.0));
        assert_eq!(
            out.segmented_quantile(0.99, 1000),
            crate::stats::quantile(&out.latency_ms, 0.99)
        );
    }

    #[test]
    fn open_loop_stops_on_the_flag_after_the_minimum() {
        let flag = AtomicBool::new(true);
        let mut wire = FakeWire::new(None);
        let plan = OpenPlan {
            rate: 5000.0,
            start: Instant::now(),
            until: Until::Flag(&flag),
            min_requests: 30,
            first_doc: 1,
            tick: RELAXED_TICK,
        };
        let mut seen = Vec::new();
        let out = open_loop(&mut wire, &frames(), &plan, &mut |doc, _, _| {
            seen.push(doc);
            true
        });
        assert_eq!(out.tally.sent, 30);
        assert_eq!(seen[..5], [1, 2, 3, 0, 1]);
    }

    #[test]
    fn closed_loop_keeps_the_window_and_counts_wrong_verdicts() {
        let mut wire = FakeWire::new(None);
        let plan = ClosedPlan {
            window: 8,
            start: Instant::now(),
            slice: Duration::from_millis(10),
            slices: 3,
            first_doc: 0,
        };
        let out = closed_loop(&mut wire, &frames(), &plan, &mut |doc, _, _| doc != 3);
        assert!(wire.max_outstanding <= 8);
        assert_eq!(out.tally.sent, out.tally.answered);
        assert_eq!(out.tally.wrong, out.tally.answered / 4);
        assert!(out.tally.answered > 0);
        assert_eq!(out.per_slice.len(), 3);
    }
}
