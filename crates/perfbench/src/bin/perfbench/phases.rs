//! Pieces every workload shares: connections, the probe-based epoch
//! watch, expected verdicts, daemon counters, the scan phases on a
//! quiesced chain, and turning day records into metrics and ledgers.

use crate::compile::{DayRecord, EpochWatch};
use crate::conn::{prom_value, Conn};
use crate::drive::{self, Expected, MakeCheck};
use crate::layers::{DocLayers, WireLayers};
use crate::load::Tally;
use crate::report::Outcome;
use crate::stats;
use kizzle::{ChainFollower, Matcher};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon chain poll interval, well below a day's compile time.
pub const POLL_MS: u64 = 10;
/// Pipelined requests per connection in closed-loop phases.
pub const WINDOW: usize = 32;
/// Open-loop tail percentile and the sample count that resolves it.
pub const TAIL_Q: f64 = 0.99;
pub const TAIL_SAMPLES: u64 = 1000;
/// A relative gap between the layer sum and the total that a ledger
/// treats as closed.
const LEDGER_TOLERANCE: f64 = 0.10;

/// Load connections and daemon workers: one each per core, at most two.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn connect_all(addr: &str, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// The request frame of an empty document: the minimal scan.
pub fn empty_frame() -> Vec<u8> {
    crate::inputs::scan_frames(&[String::new()]).remove(0)
}

/// Watches epochs by probing with minimal scans on one connection.
pub struct ProbeWatch<'a> {
    pub conn: &'a mut Conn,
    pub probe: &'a [u8],
}

impl EpochWatch for ProbeWatch<'_> {
    fn current(&mut self) -> Result<u64, String> {
        self.conn
            .scan_once(self.probe)
            .map(|v| v.epoch)
            .map_err(|e| format!("epoch probe: {e}"))
    }

    fn await_above(&mut self, above: u64, timeout: Duration) -> Result<(Instant, u64), String> {
        let started = Instant::now();
        loop {
            let epoch = self.current()?;
            if epoch > above {
                return Ok((Instant::now(), epoch));
            }
            if started.elapsed() > timeout {
                return Err(format!("epoch {above} was never superseded"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

/// The verdicts a quiesced chain must produce: an in-process matcher
/// over a follower of the same directory, as `loadgen::verify` does.
pub fn expected_verdicts(
    chain_dir: &Path,
    docs: &[String],
) -> Result<(Matcher<ChainFollower>, Vec<Expected>), String> {
    let follower = Arc::new(ChainFollower::new(chain_dir));
    follower.poll().map_err(|e| format!("follower poll: {e}"))?;
    let matcher = Matcher::over(follower);
    let expected = docs
        .iter()
        .map(|doc| {
            let v = matcher.scan_verdict(doc);
            (v.index, v.family)
        })
        .collect();
    Ok((matcher, expected))
}

/// The daemon's scan counters at one instant.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    scans: f64,
    detections: f64,
    anchor_hits: f64,
    prefilter_checked: f64,
    prefilter_rejected: f64,
    verify_confirmed: f64,
    verify_rejected: f64,
}

pub fn counters(conn: &mut Conn) -> Result<Counters, String> {
    let text = conn.metrics().map_err(|e| format!("METRICS: {e}"))?;
    let get = |name: &str| prom_value(&text, name).unwrap_or(0.0);
    Ok(Counters {
        scans: get("kizzle_serve_scans_total"),
        detections: get("kizzle_serve_detections_total"),
        anchor_hits: get("kizzle_scan_anchor_hits_total"),
        prefilter_checked: get("kizzle_scan_prefilter_checked_total"),
        prefilter_rejected: get("kizzle_scan_prefilter_rejected_total"),
        verify_confirmed: get("kizzle_scan_verify_confirmed_total"),
        verify_rejected: get("kizzle_scan_verify_rejected_total"),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Stage ratios over the load window `run` (start, end), and the
/// detection fraction over the deterministic verify window `pass`.
pub fn record_counters(out: &mut Outcome, run: (Counters, Counters), pass: (Counters, Counters)) {
    let d = |f: fn(&Counters) -> f64, w: (Counters, Counters)| f(&w.1) - f(&w.0);
    let scans = d(|c| c.scans, run);
    out.set(
        "signature.anchor_hits_per_scan",
        ratio(d(|c| c.anchor_hits, run), scans),
    );
    out.set(
        "signature.prefilter_reject_frac",
        ratio(
            d(|c| c.prefilter_rejected, run),
            d(|c| c.prefilter_checked, run),
        ),
    );
    let confirmed = d(|c| c.verify_confirmed, run);
    out.set(
        "signature.verify_confirm_frac",
        ratio(confirmed, confirmed + d(|c| c.verify_rejected, run)),
    );
    out.set(
        "signature.detect_frac",
        ratio(d(|c| c.detections, pass), d(|c| c.scans, pass)),
    );
}

/// Fold a load phase's tally into the run's attempted/failed counts.
pub fn account(out: &mut Outcome, phase: &str, tally: &Tally) {
    out.attempted += tally.sent;
    out.failed += tally.failed();
    if tally.wrong > 0 {
        out.problems
            .push(format!("{phase}: {} wrong verdicts", tally.wrong));
    }
    if let Some(err) = &tally.error {
        out.problems.push(format!("{phase}: {err}"));
    }
}

/// Open-loop, closed-loop and ladder parameters of a workload.
pub struct Shape {
    /// Fixed open-loop rate for `scan_p50_ms` / `scan_p99_ms`.
    pub fixed_rate: f64,
    /// The p99 latency limit of the rate ladder.
    pub limit_ms: f64,
    /// Rate ladder bounds and the ratio between neighbouring rungs.
    pub ladder_lo: f64,
    pub ladder_hi: f64,
    pub ladder_step: f64,
    /// Closed-loop throughput is counted per slice of this length.
    pub slice: Duration,
    /// Generator tick of the fixed-rate open loop (see
    /// [`crate::load::OpenPlan::tick`]).
    pub tick: Duration,
}

impl Shape {
    pub fn ladder(&self) -> Vec<f64> {
        let mut rungs = vec![self.ladder_lo];
        while let Some(&last) = rungs.last() {
            let next = (last * self.ladder_step).round();
            if next > self.ladder_hi {
                break;
            }
            rungs.push(next);
        }
        rungs
    }

    /// Bisection steps the ladder needs.
    pub fn ladder_probes(&self) -> u32 {
        (self.ladder().len() + 1)
            .next_power_of_two()
            .trailing_zeros()
    }
}

/// Print the settings line a reference baseline records with its run.
pub fn print_settings(workload: &str, shape: &Shape, compile_days: usize, samples_per_day: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let lanes = lanes();
    println!(
        "settings: {{\"workload\": \"{workload}\", \"nproc\": {nproc}, \"daemon_workers\": {lanes}, \
         \"load_connections\": {lanes}, \"poll_ms\": {POLL_MS}, \"window\": {WINDOW}, \
         \"fixed_rate_dps\": {}, \"ladder_dps\": [{}, {}], \"ladder_step\": {}, \
         \"p99_limit_ms\": {}, \"generator_tick_us\": {}, \"compile_days\": {compile_days}, \
         \"samples_per_day\": {samples_per_day}}}",
        shape.fixed_rate,
        shape.ladder_lo,
        shape.ladder_hi,
        shape.ladder_step,
        shape.limit_ms,
        shape.tick.as_micros()
    );
}

/// How a workload spends its measuring time on a quiesced chain.
pub struct Budget {
    /// Closed-loop saturation time.
    pub saturation: Duration,
    /// Fixed-rate open-loop time; `None` when the workload measures its
    /// open loop elsewhere.
    pub fixed: Option<Duration>,
    /// Rate-ladder time.
    pub ladder: Duration,
}

/// Saturation, fixed-rate and ladder phases, interleaved in rounds: each
/// round runs a share of the saturation and of the fixed rate, then
/// probes one ladder rung. Every figure is thus drawn from the whole
/// measuring time, and a slow spell of the shared box touches only part
/// of each.
pub fn scan_phases(
    out: &mut Outcome,
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    shape: &Shape,
    budget: &Budget,
    make_check: &MakeCheck<'_>,
) -> Result<(), String> {
    // One round per bisection step, with room for a few second attempts
    // at failed rungs.
    let rounds = shape.ladder_probes() + 2;
    let slices = ((budget.saturation.as_secs_f64() / f64::from(rounds) / shape.slice.as_secs_f64())
        .round() as usize)
        .max(2);
    let rungs = shape.ladder();
    let mut ladder = drive::Ladder::new(&rungs, budget.ladder / rounds, shape.limit_ms);
    let mut rates = Vec::new();
    let mut requests = 0;
    let mut open = crate::load::OpenOutcome::default();
    for round in 0..rounds {
        let (slice_rates, tally) =
            drive::saturate(conns, frames, WINDOW, shape.slice, slices, make_check);
        account(out, "saturation", &tally);
        requests += tally.sent;
        rates.extend(slice_rates);
        if let Some(fixed) = budget.fixed {
            // The last round tops the open loop up to a resolved p99.
            let min = if round + 1 == rounds {
                TAIL_SAMPLES.saturating_sub(open.tally.sent)
            } else {
                0
            };
            let spec = drive::OpenSpec {
                rate: shape.fixed_rate,
                tick: shape.tick,
                stop: drive::Stop::At(Instant::now() + fixed / rounds),
                min_requests: min,
            };
            open.merge(&drive::open(conns, frames, &spec, make_check));
        }
        ladder.probe(conns, frames, make_check);
    }
    // Rungs the rounds left unprobed (many failed first attempts).
    while ladder.probe(conns, frames, make_check) {}
    let dps = stats::median(&rates).unwrap_or(0.0);
    out.set("scan_dps", dps);
    println!(
        "saturation: {dps:.1} docs/s median over {} slices of {:?} in {rounds} rounds ({requests} requests)",
        rates.len(),
        shape.slice
    );
    if budget.fixed.is_some() {
        record_open(out, "fixed rate", shape.fixed_rate, &open);
    }
    account(out, "ladder", &ladder.tally);
    for rung in &ladder.rungs {
        println!(
            "ladder: {:>8.0} docs/s  {:>6} requests  p99 {:>9.3} ms  backlog {:>5}  {}",
            rung.rate,
            rung.requests,
            rung.p99_ms,
            rung.backlog,
            if rung.pass { "pass" } else { "fail" }
        );
    }
    let best = ladder.best().ok_or_else(|| {
        format!(
            "no ladder rung met the {} ms p99 limit (lowest {} docs/s)",
            shape.limit_ms, shape.ladder_lo
        )
    })?;
    out.set("scan_max_rate_dps", best);
    Ok(())
}

/// `scan_p50_ms`, `scan_p99_ms` and the generator's lateness from an
/// open-loop phase.
pub fn record_open(out: &mut Outcome, phase: &str, rate: f64, open: &crate::load::OpenOutcome) {
    account(out, phase, &open.tally);
    let n = open.latency_ms.len();
    out.check(stats::tail_is_resolved(n, TAIL_Q), || {
        format!("{phase}: {n} latency samples leave fewer than 10 beyond p99")
    });
    // Medians over stretches of TAIL_SAMPLES replies: each stretch
    // resolves its own p99, and one stalled stretch does not set the
    // run's figure.
    let stretch = TAIL_SAMPLES as usize;
    let p50 = open.segmented_quantile(0.5, stretch).unwrap_or(0.0);
    let p99 = open.segmented_quantile(TAIL_Q, stretch).unwrap_or(0.0);
    let late = stats::quantile(&open.late_ms, TAIL_Q).unwrap_or(0.0);
    out.set("scan_p50_ms", p50);
    out.set("scan_p99_ms", p99);
    out.set("serve.gen_late_p99_ms", late);
    println!(
        "{phase}: open loop {rate} docs/s, {n} replies in {} stretches, p50 {p50:.3} ms, \
         p99 {p99:.3} ms (medians over stretches), generator late p99 {late:.3} ms",
        (n / stretch).max(1)
    );
    let stretches: Vec<String> = open
        .stretch_quantiles(TAIL_Q, stretch)
        .iter()
        .map(|v| format!("{v:.2}"))
        .collect();
    println!("{phase}: p99 per stretch (ms): {}", stretches.join(" "));
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of(days: &[DayRecord], f: impl Fn(&DayRecord) -> Option<f64>) -> f64 {
    let values: Vec<f64> = days.iter().filter_map(f).collect();
    stats::median(&values).unwrap_or(0.0)
}

/// Name the largest of `layers` and, when their sum misses `total` by
/// more than the tolerance, say so with `gap`.
fn ledger_line(
    out: &mut Outcome,
    metric: &'static str,
    layers: &[(&str, f64)],
    total: f64,
    gap: &str,
) {
    let sum: f64 = layers.iter().map(|(_, v)| v).sum();
    let unaccounted = if total > 0.0 { 1.0 - sum / total } else { 0.0 };
    out.set(metric, unaccounted);
    if !kizzle_telemetry::enabled() {
        // Untraced runs lack the program spans some ledgers sum.
        return;
    }
    let largest = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(name, _)| name);
    let parts: Vec<String> = layers
        .iter()
        .map(|(name, v)| format!("{name}={:.1}%", 100.0 * ratio(*v, total)))
        .collect();
    println!(
        "{metric}: {:.1}% unaccounted; largest layer {largest}; {}",
        100.0 * unaccounted,
        parts.join(" ")
    );
    if unaccounted.abs() > LEDGER_TOLERANCE {
        println!("{metric}: the layers do not close; gap: {gap}");
    }
}

/// Day-path metrics: `day_to_served_s` always; the core, cluster,
/// winnow, siggen and snapshot layers and the day/seal ledgers too (their
/// program spans are only drained in traced runs).
pub fn record_days(out: &mut Outcome, days: &[DayRecord]) {
    let served: Vec<f64> = days
        .iter()
        .filter_map(|d| d.served)
        .map(|d| d.as_secs_f64())
        .collect();
    out.check(!served.is_empty(), || "no compiled day was served".into());
    out.set("day_to_served_s", stats::median(&served).unwrap_or(0.0));

    out.set("core.ingest_ms", median_of(days, |d| Some(ms(d.ingest))));
    let samples: usize = days.iter().map(|d| d.samples).sum();
    let ingest: f64 = days.iter().map(|d| d.ingest.as_secs_f64()).sum();
    out.set("core.ingest_sps", ratio(samples as f64, ingest));
    out.set("core.seal_ms", median_of(days, |d| Some(ms(d.seal))));
    out.set(
        "core.producer_stalls",
        days.iter()
            .map(|d| d.report.pipeline.producer_stalls as f64)
            .sum(),
    );
    out.set(
        "core.dedup_ms",
        median_of(days, |d| Some(ms(d.spans.dedup))),
    );
    let stats = |d: &DayRecord| d.report.clustering_stats.clone();
    out.set(
        "cluster.map_ms",
        median_of(days, |d| Some(ms(stats(d).map_time))),
    );
    out.set(
        "cluster.reduce_ms",
        median_of(days, |d| Some(ms(stats(d).reduce_time))),
    );
    out.set(
        "cluster.prototypes_ms",
        median_of(days, |d| Some(ms(stats(d).prototype_time))),
    );
    out.set(
        "cluster.distance_calls",
        median_of(days, |d| {
            let s = stats(d);
            Some((s.index.distance_calls + s.reduce_index.distance_calls) as f64)
        }),
    );
    let sum = |f: fn(&DayRecord) -> usize| days.iter().map(f).sum::<usize>() as f64;
    let hits = sum(|d| d.report.clustering_stats.index.cache_hits);
    let queries = sum(|d| d.report.clustering_stats.index.queries);
    out.set("cluster.cache_hit_frac", ratio(hits, hits + queries));
    out.set(
        "cluster.histogram_prune_frac",
        ratio(
            sum(|d| d.report.clustering_stats.index.pruned_by_histogram),
            sum(|d| d.report.clustering_stats.index.window_candidates),
        ),
    );
    out.set(
        "winnow.label_ms",
        median_of(days, |d| Some(ms(d.spans.winnow))),
    );
    out.set(
        "signature.siggen_ms",
        median_of(days, |d| Some(ms(d.spans.siggen))),
    );
    out.set("snapshot.save_ms", median_of(days, |d| Some(ms(d.save))));
    out.set(
        "snapshot.save_bytes",
        median_of(days, |d| Some(d.save_bytes)),
    );
    out.set(
        "snapshot.chain_deltas",
        days.iter().map(|d| d.deltas).max().unwrap_or(0) as f64,
    );
    out.set("snapshot.poll_ms", median_of(days, |d| d.poll.map(ms)));
    out.set("snapshot.swap_ms", median_of(days, |d| d.swap.map(ms)));

    let served_days: Vec<&DayRecord> = days.iter().filter(|d| d.served.is_some()).collect();
    let total =
        |f: &dyn Fn(&DayRecord) -> Duration| -> f64 { served_days.iter().map(|d| ms(f(d))).sum() };
    ledger_line(
        out,
        "ledger.day_unaccounted_frac",
        &[
            ("core.ingest", total(&|d| d.ingest)),
            ("core.seal", total(&|d| d.seal)),
            ("snapshot.save", total(&|d| d.save)),
            ("snapshot.swap", total(&|d| d.swap.unwrap_or_default())),
        ],
        total(&|d| d.served.unwrap_or_default()),
        "between the layers: begin_day and the session's frontend start, the \
         ingest-completion poll interval, and the signature-set read before save",
    );
    let all = |f: &dyn Fn(&DayRecord) -> Duration| -> f64 { days.iter().map(|d| ms(f(d))).sum() };
    ledger_line(
        out,
        "ledger.seal_unaccounted_frac",
        &[
            ("cluster", all(&|d| d.report.clustering_stats.total_time())),
            ("winnow", all(&|d| d.spans.winnow)),
            ("signature.siggen", all(&|d| d.spans.siggen)),
            ("core.publish", all(&|d| d.spans.publish)),
        ],
        all(&|d| d.seal),
        "seal work outside the cluster stats and the winnow/siggen/publish spans: \
         draining the ingest frontend, the day-view capture, cluster bookkeeping and \
         verdict assembly (map time already spent during ingest counts against it)",
    );
    println!(
        "days: {} compiled, {} served; day_to_served median {:.3} s",
        days.len(),
        served_days.len(),
        stats::median(&served).unwrap_or(0.0)
    );
}

/// Document-path layer metrics and the document ledger.
pub fn record_doc_layers(out: &mut Outcome, doc: &DocLayers, wire: &WireLayers) {
    out.set("js-lex.extract_us", doc.extract_us);
    out.set("js-lex.tokenize_us", doc.tokenize_us);
    out.set("js-lex.ns_per_byte", doc.ns_per_byte);
    out.set("js-lex.kept_token_frac", doc.kept_token_frac);
    out.set("signature.scan_stream_us", doc.scan_stream_us);
    out.set("serve.inproc_doc_us", doc.inproc_doc_us);
    out.set("serve.rtt_p50_us", wire.rtt_p50_us);
    out.set(
        "serve.wire_overhead_frac",
        1.0 - ratio(doc.inproc_doc_us, wire.doc_us),
    );
    out.set("telemetry.trace_overhead_frac", doc.trace_overhead_frac);
    out.check(doc.mismatches == 0, || {
        format!(
            "{} documents scanned differently in process",
            doc.mismatches
        )
    });
    out.attempted += wire.requests;
    out.failed += wire.mismatches as u64;
    out.check(wire.mismatches == 0, || {
        format!("{} wire verdicts at window 1 were wrong", wire.mismatches)
    });
    ledger_line(
        out,
        "ledger.doc_unaccounted_frac",
        &[
            ("js-lex.tokenize", doc.tokenize_us),
            ("signature.scan_stream", doc.scan_stream_us),
            ("serve.rtt", wire.rtt_p50_us),
        ],
        wire.doc_us,
        "moving the document's bytes through the socket and frame codec (the rtt \
         probe carries an empty document), the daemon's UTF-8 check, and contention \
         between the client and daemon threads",
    );
    println!(
        "document path: wire {:.1} us/doc at window 1, in process {:.1} us/doc",
        wire.doc_us, doc.inproc_doc_us
    );
}

/// Peak RSS of the daemon and of this process.
pub fn record_rss(out: &mut Outcome, daemon: &crate::daemon::Daemon) -> Result<(), String> {
    out.set("daemon_rss_mb", daemon.peak_rss_mib()?);
    out.set(
        "compiler_rss_mb",
        crate::daemon::peak_rss_mib("/proc/self/status")?,
    );
    Ok(())
}

/// The daemon must serve exactly the compiler's set.
pub fn check_status(out: &mut Outcome, conn: &mut Conn, signatures: usize) -> Result<(), String> {
    let status = conn.status().map_err(|e| format!("STATUS: {e}"))?;
    let served =
        crate::conn::status_field(&status, "signatures=").and_then(|v| v.parse::<usize>().ok());
    out.check(served == Some(signatures), || {
        format!("daemon serves {served:?} signatures, the compiler published {signatures}")
    });
    Ok(())
}
