//! `day_publish`: the compiler loop under the paper configuration with a
//! warm engine across days, while a low fixed-rate open-loop scan stream
//! hits the daemon that tails the chain the compiler writes.

use crate::compile::{self, DayRecord, EpochWatch};
use crate::daemon::Daemon;
use crate::drive::{self, OpenSpec, Stop};
use crate::inputs;
use crate::layers;
use crate::load::{Check, RELAXED_TICK};
use crate::phases::{self, Budget, Shape};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Args;
use kizzle::{
    ChainFollower, KizzleConfig, KizzleService, ReferenceCorpus, ScanVerdict, DEFAULT_MAX_DELTAS,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Days compiled: enough saves to compact the chain several times, and
/// a scan stream long enough that a slow spell of the shared box touches
/// only part of it.
const DAYS: usize = 4 * DEFAULT_MAX_DELTAS + 4;
/// Samples per compiled day.
const SAMPLES: usize = 1024;
/// Set-ups per run; `setup_s` is their median. A set-up here is a few
/// milliseconds, mostly spawning the daemon; with 15 of them the median
/// still spread by 0.29 of itself over ten runs, so many more.
const SETUP_REPS: usize = 45;

fn shape() -> Shape {
    Shape {
        // The scan stream beside the compiler.
        fixed_rate: 400.0,
        limit_ms: 50.0,
        ladder_lo: 1000.0,
        ladder_hi: 32000.0,
        ladder_step: 1.05,
        slice: Duration::from_millis(250),
        // The stream shares the cores with the compiler.
        tick: RELAXED_TICK,
    }
}

/// What the scan stream observed about epochs, shared by its
/// connections and the day loop.
#[derive(Default)]
struct Served {
    max_epoch: AtomicU64,
    first_seen: Mutex<BTreeMap<u64, Instant>>,
    /// Size of the largest set saved so far: every verdict's signature
    /// index must fall below it.
    published_len: AtomicUsize,
}

impl Served {
    /// The stream's check for connection-local state: epochs never go
    /// backwards and every index is within the published set.
    fn check(&self) -> Box<Check<'_>> {
        let mut last = 0u64;
        Box::new(move |_doc: usize, v: &ScanVerdict, at: Instant| {
            let monotone = v.epoch >= last;
            last = last.max(v.epoch);
            if v.epoch > self.max_epoch.load(Ordering::Acquire) {
                if let Ok(mut seen) = self.first_seen.lock() {
                    seen.entry(v.epoch).or_insert(at);
                }
                self.max_epoch.fetch_max(v.epoch, Ordering::AcqRel);
            }
            let bounded = v
                .index
                .is_none_or(|i| (i as usize) < self.published_len.load(Ordering::Acquire));
            monotone && bounded
        })
    }
}

struct StreamWatch<'a>(&'a Served);

impl EpochWatch for StreamWatch<'_> {
    fn current(&mut self) -> Result<u64, String> {
        Ok(self.0.max_epoch.load(Ordering::Acquire))
    }

    fn await_above(&mut self, above: u64, timeout: Duration) -> Result<(Instant, u64), String> {
        let started = Instant::now();
        loop {
            if let Some((&epoch, &at)) = self
                .0
                .first_seen
                .lock()
                .map_err(|_| "epoch ledger poisoned")?
                .range(above + 1..)
                .next()
            {
                return Ok((at, epoch));
            }
            if started.elapsed() > timeout {
                return Err(format!("no wire verdict moved past epoch {above}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let docs = inputs::document_mix(args.seed);
    let frames = inputs::scan_frames(&docs);
    let probe = phases::empty_frame();
    let config = KizzleConfig::paper();
    let compile_stream = inputs::compile_stream(args.seed, SAMPLES);
    let lanes = phases::lanes();
    let shape = shape();
    phases::print_settings("day_publish", &shape, DAYS, SAMPLES);

    // Set-up, several times: reference seeding, service creation, and the
    // daemon listening on an empty chain directory with the load
    // connections open — the first measured request can go out. (The
    // daemon accepts connections on a 5 ms poll, so timing the first
    // verdict too would mostly time that poll.)
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let chain_dir = args.work_dir.join(format!("chain-{rep}"));
        std::fs::create_dir_all(&chain_dir).map_err(|e| format!("{}: {e}", chain_dir.display()))?;
        let reference = ReferenceCorpus::seeded_from_models(inputs::first_compile_day(), &config);
        let service = KizzleService::new(config, reference).map_err(|e| e.to_string())?;
        let daemon = Daemon::spawn(&args.serve_bin, &chain_dir, lanes, phases::POLL_MS)?;
        let mut conns = phases::connect_all(daemon.addr(), lanes)?;
        setups.push(t0.elapsed().as_secs_f64());
        let first = conns[0]
            .scan_once(&probe)
            .map_err(|e| format!("first scan: {e}"))?;
        out.check(first.epoch == 0 && first.index.is_none(), || {
            format!("an empty chain answered {first:?}")
        });
        if rep + 1 < SETUP_REPS {
            let conn = conns.swap_remove(0);
            drop(conns);
            daemon.stop(conn)?;
            let _ = std::fs::remove_dir_all(&chain_dir);
        } else {
            kept = Some((daemon, conns, service, chain_dir));
        }
    }
    let (daemon, mut conns, mut service, chain_dir) = kept.ok_or("no set-up ran")?;
    out.set("setup_s", crate::stats::median(&setups).unwrap_or(0.0));
    println!("setup: {setups:.3?} s");

    // The day loop beside the open-loop scan stream.
    let served = Served::default();
    let own_follower = tracer.enabled().then(|| ChainFollower::new(&chain_dir));
    let before = phases::counters(&mut conns[0])?;
    let make_check = |_c: usize| served.check();
    let stream_spec = OpenSpec {
        rate: shape.fixed_rate,
        tick: shape.tick,
        stop: Stop::AfterWork,
        min_requests: phases::TAIL_SAMPLES,
    };
    let (stream, days) = drive::open_while(
        &mut conns,
        &frames,
        &stream_spec,
        &make_check,
        || -> Result<Vec<DayRecord>, String> {
            let mut records = Vec::with_capacity(DAYS);
            let mut date = inputs::first_compile_day();
            let mut watch = StreamWatch(&served);
            for _ in 0..DAYS {
                let day = compile_stream.generate_day(date);
                let publish = compile::Publish {
                    chain_dir: &chain_dir,
                    published_len: &served.published_len,
                    follower: own_follower.as_ref(),
                };
                records.push(compile::run_day(
                    &mut service,
                    date,
                    &day,
                    &publish,
                    &mut watch,
                    tracer,
                )?);
                date = date.next();
            }
            Ok(records)
        },
    );
    let days = days?;
    phases::record_open(out, "scan stream", shape.fixed_rate, &stream);
    phases::record_days(out, &days);
    let compactions = days
        .windows(2)
        .filter(|w| w[1].deltas < w[0].deltas)
        .count();
    out.check(compactions >= 1, || "the chain never compacted".into());
    println!("chain: {compactions} compactions over {} saves", days.len());

    // Quiesced: the daemon must serve the final set, verdict for verdict.
    let signatures = service.signatures().len();
    phases::check_status(out, &mut conns[0], signatures)?;
    let (matcher, expected) = phases::expected_verdicts(&chain_dir, &docs)?;
    let after_days = phases::counters(&mut conns[0])?;
    let tally = drive::verify(&mut conns[0], &frames, &expected);
    phases::account(out, "verify", &tally);
    let verified = phases::counters(&mut conns[0])?;

    // Scan capacity on the chain the days of publishing left behind.
    let s = Duration::from_secs_f64(args.seconds);
    let check = drive::exact(&expected);
    let budget = Budget {
        saturation: s * 7 / 20,
        fixed: None,
        ladder: s * 7 / 20,
    };
    phases::scan_phases(out, &mut conns, &frames, &shape, &budget, &check)?;
    phases::record_counters(out, (before, after_days), (after_days, verified));

    if tracer.enabled() {
        let doc = layers::doc_layers(&docs, &expected, &matcher, config.token_cap, s / 10, tracer);
        let wire = layers::wire_layers(&mut conns[0], &frames, &probe, &expected, s / 10, tracer)?;
        phases::record_doc_layers(out, &doc, &wire);
    }
    phases::record_rss(out, &daemon)?;
    let conn = conns.swap_remove(0);
    drop(conns);
    daemon.stop(conn)
}
