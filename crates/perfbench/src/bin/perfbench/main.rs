//! `perfbench`: the benchmark of both Kizzle paths against the deployed
//! two-process topology.
//!
//! A `kizzle-serve` daemon runs as a child process tailing a chain
//! directory; this process hosts the compiler (`KizzleService`) and
//! generates all load, with one load thread and one connection per
//! daemon worker. Three workloads:
//!
//! * `scan_mix` — the simulated day mix scanned against a fixed chain;
//! * `scan_large` — 64 KiB–1 MiB documents against the same chain;
//! * `day_publish` — four weeks of 1,024-sample days compiled, saved and
//!   served while a fixed-rate scan stream runs.
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) prints the per-layer metrics, the layer
//! ledgers and a span summary. The last stdout line is the JSON result;
//! the exit code is non-zero when any check failed.
//!
//! ```text
//! perfbench --workload scan_mix --seed 1 --seconds 20 --trace 0 \
//!           --serve-bin target/release/kizzle-serve
//! ```

mod compile;
mod conn;
mod daemon;
mod drive;
mod inputs;
mod layers;
mod load;
mod phases;
mod publish;
mod report;
mod scan;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;
use trace::Tracer;

static STARTED: OnceLock<Instant> = OnceLock::new();

/// A progress line on stderr, stamped with the time since start.
pub fn progress(what: &str) {
    let since = STARTED.get_or_init(Instant::now).elapsed();
    eprintln!("[{:7.2}s] {what}", since.as_secs_f64());
}

const USAGE: &str = "usage: perfbench --workload scan_mix|scan_large|day_publish --seed N \
                     --seconds S --trace 0|1 --serve-bin PATH";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanMix,
    ScanLarge,
    DayPublish,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    /// Chain directories live here, under the working directory;
    /// removed when the run ends.
    pub work_dir: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "scan_mix" => Workload::ScanMix,
                    "scan_large" => Workload::ScanLarge,
                    "day_publish" => Workload::DayPublish,
                    other => return Err(format!("unknown workload {other}\n{USAGE}")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        serve_bin: serve_bin.ok_or_else(|| missing("--serve-bin"))?,
        work_dir: PathBuf::from(".perfbench-work").join(format!("run-{}", std::process::id())),
    })
}

fn run(args: &Args) -> Result<(Outcome, Tracer), String> {
    if !args.serve_bin.is_file() {
        return Err(format!(
            "daemon binary {} not found",
            args.serve_bin.display()
        ));
    }
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    // Traced runs drain the program's own day spans through telemetry.
    kizzle_telemetry::set_enabled(args.trace);
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    match args.workload {
        Workload::ScanMix | Workload::ScanLarge => scan::run(args, &mut out, &mut tracer)?,
        Workload::DayPublish => publish::run(args, &mut out, &mut tracer)?,
    }
    Ok((out, tracer))
}

fn main() -> ExitCode {
    progress("start");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    progress("stopped");
    let _ = std::fs::remove_dir_all(&args.work_dir);
    progress("cleaned");
    let (out, tracer) = match result {
        Ok(done) => done,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    if tracer.enabled() {
        print!("{}", tracer.render());
    }
    match out.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "day_publish",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
            "--serve-bin",
            "bin/kizzle-serve",
        ]);
        let parsed = parsed.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(parsed.workload, Workload::DayPublish);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "scan_mix", "--seed", "1"]).is_err());
    }
}
