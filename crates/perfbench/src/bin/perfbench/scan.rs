//! `scan_mix` and `scan_large`: the daemon serves a fixed base chain;
//! clients measure saturation throughput, fixed-rate open-loop latency
//! and the highest rate that meets the latency limit.

use crate::compile::{self, DayRecord};
use crate::daemon::Daemon;
use crate::drive;
use crate::inputs;
use crate::layers;
use crate::load::{PUNCTUAL_TICK, RELAXED_TICK};
use crate::phases::{self, Budget, ProbeWatch, Shape};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{Args, Workload};
use kizzle::{ChainFollower, KizzleConfig, KizzleService, ReferenceCorpus};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Grayware days compiled into the base chain, and samples per day.
/// What a day costs to compile depends on its content; six days keep
/// that from moving from seed to seed.
const BASE_DAYS: usize = 6;
const BASE_SAMPLES: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

pub fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::ScanLarge => Shape {
            // About a fifth of capacity: the tail is the largest
            // documents' own service time, not the queue.
            fixed_rate: 33.0,
            // Several times the lone service time of a 1 MiB document, so
            // the limit trips where the queue starts to grow.
            limit_ms: 250.0,
            ladder_lo: 40.0,
            ladder_hi: 400.0,
            // Coarse, so each probed rung runs long enough to see the
            // queue of large documents grow.
            ladder_step: 1.15,
            slice: Duration::from_secs(1),
            // Documents take milliseconds; the workers need the cores
            // more than the generator needs sub-millisecond punctuality.
            tick: RELAXED_TICK,
        },
        _ => Shape {
            fixed_rate: 2000.0,
            limit_ms: 50.0,
            ladder_lo: 1000.0,
            ladder_hi: 32000.0,
            ladder_step: 1.05,
            slice: Duration::from_millis(250),
            tick: PUNCTUAL_TICK,
        },
    }
}

pub fn run(args: &Args, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let docs = match args.workload {
        Workload::ScanLarge => inputs::large_documents(args.seed),
        _ => inputs::document_mix(args.seed),
    };
    let frames = inputs::scan_frames(&docs);
    let probe = phases::empty_frame();
    let config = KizzleConfig::paper();
    let stream = inputs::compile_stream(args.seed, BASE_SAMPLES);
    let mut base = Vec::with_capacity(BASE_DAYS);
    let mut date = inputs::first_compile_day();
    for _ in 0..BASE_DAYS {
        base.push((date, stream.generate_day(date)));
        date = date.next();
    }
    let lanes = phases::lanes();
    let shape = shape(args.workload);
    let name = if args.workload == Workload::ScanLarge {
        "scan_large"
    } else {
        "scan_mix"
    };
    phases::print_settings(name, &shape, BASE_DAYS, BASE_SAMPLES);

    // Set-up, several times: reference seeding, service creation, the
    // daemon on an empty chain directory, then each base day compiled,
    // saved and served.
    let mut setups = Vec::new();
    let mut days: Vec<DayRecord> = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let chain_dir = args.work_dir.join(format!("chain-{rep}"));
        std::fs::create_dir_all(&chain_dir).map_err(|e| format!("{}: {e}", chain_dir.display()))?;
        let reference = ReferenceCorpus::seeded_from_models(inputs::first_compile_day(), &config);
        let mut service = KizzleService::new(config, reference).map_err(|e| e.to_string())?;
        let daemon = Daemon::spawn(&args.serve_bin, &chain_dir, lanes, phases::POLL_MS)?;
        let mut conns = phases::connect_all(daemon.addr(), lanes)?;
        let published = AtomicUsize::new(0);
        let own_follower = tracer.enabled().then(|| ChainFollower::new(&chain_dir));
        for (date, day) in &base {
            let mut watch = ProbeWatch {
                conn: &mut conns[0],
                probe: &probe,
            };
            let publish = compile::Publish {
                chain_dir: &chain_dir,
                published_len: &published,
                follower: own_follower.as_ref(),
            };
            let record = compile::run_day(&mut service, *date, day, &publish, &mut watch, tracer)?;
            days.push(record);
        }
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let conn = conns.swap_remove(0);
            drop(conns);
            daemon.stop(conn)?;
            let _ = std::fs::remove_dir_all(&chain_dir);
        } else {
            kept = Some((daemon, conns, service, chain_dir));
        }
    }
    let (daemon, mut conns, service, chain_dir) = kept.ok_or("no set-up ran")?;
    crate::progress("set-up done");
    out.set("setup_s", crate::stats::median(&setups).unwrap_or(0.0));
    println!("setup: {setups:.3?} s");
    phases::record_days(out, &days);

    let signatures = service.signatures().len();
    out.check(signatures > 0, || {
        "the base chain holds no signature".into()
    });
    phases::check_status(out, &mut conns[0], signatures)?;
    let (matcher, expected) = phases::expected_verdicts(&chain_dir, &docs)?;
    let detections = expected.iter().filter(|e| e.0.is_some()).count();
    println!(
        "{} documents, {} bytes mean, {} detected by {signatures} signatures",
        docs.len(),
        docs.iter().map(String::len).sum::<usize>() / docs.len().max(1),
        detections
    );
    let check = drive::exact(&expected);
    let s = Duration::from_secs_f64(args.seconds);

    let before = phases::counters(&mut conns[0])?;
    crate::progress("load phases");
    let budget = match args.workload {
        // One fixed-rate stretch of 1,000 large documents takes most of
        // the run.
        Workload::ScanLarge => Budget {
            saturation: s / 10,
            fixed: Some(s * 3 / 4),
            ladder: s * 3 / 20,
        },
        _ => Budget {
            saturation: s * 3 / 10,
            fixed: Some(s * 3 / 10),
            ladder: s * 3 / 10,
        },
    };
    phases::scan_phases(out, &mut conns, &frames, &shape, &budget, &check)?;
    crate::progress("load phases done");
    let after = phases::counters(&mut conns[0])?;
    let tally = drive::verify(&mut conns[0], &frames, &expected);
    phases::account(out, "verify", &tally);
    let verified = phases::counters(&mut conns[0])?;
    phases::record_counters(out, (before, after), (after, verified));

    if tracer.enabled() {
        let doc = layers::doc_layers(&docs, &expected, &matcher, config.token_cap, s / 10, tracer);
        let wire = layers::wire_layers(&mut conns[0], &frames, &probe, &expected, s / 10, tracer)?;
        phases::record_doc_layers(out, &doc, &wire);
    }
    crate::progress("measured");
    phases::record_rss(out, &daemon)?;
    let conn = conns.swap_remove(0);
    drop(conns);
    daemon.stop(conn)
}
