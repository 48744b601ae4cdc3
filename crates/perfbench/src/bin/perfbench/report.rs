//! Metric catalog and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("scan_dps", "docs/s"),
    ("scan_p50_ms", "ms"),
    ("scan_max_rate_dps", "docs/s"),
    ("day_to_served_s", "s"),
    ("daemon_rss_mb", "MiB"),
    ("compiler_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. Every workload reports
/// all of them. `scan_p99_ms` is an end-to-end figure reported here
/// because it has no bound: on the shared reference box it follows the
/// host's scheduling stalls more than the program.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scan_p99_ms", "ms"),
    ("js-lex.extract_us", "us"),
    ("js-lex.tokenize_us", "us"),
    ("js-lex.ns_per_byte", "ns/B"),
    ("js-lex.kept_token_frac", "frac"),
    ("signature.scan_stream_us", "us"),
    ("signature.anchor_hits_per_scan", "count"),
    ("signature.prefilter_reject_frac", "frac"),
    ("signature.verify_confirm_frac", "frac"),
    ("signature.detect_frac", "frac"),
    ("serve.inproc_doc_us", "us"),
    ("serve.rtt_p50_us", "us"),
    ("serve.wire_overhead_frac", "frac"),
    ("serve.gen_late_p99_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("core.ingest_sps", "samples/s"),
    ("core.seal_ms", "ms"),
    ("core.producer_stalls", "count"),
    ("core.dedup_ms", "ms"),
    ("cluster.map_ms", "ms"),
    ("cluster.reduce_ms", "ms"),
    ("cluster.prototypes_ms", "ms"),
    ("cluster.distance_calls", "count"),
    ("cluster.cache_hit_frac", "frac"),
    ("cluster.histogram_prune_frac", "frac"),
    ("winnow.label_ms", "ms"),
    ("signature.siggen_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.save_bytes", "B"),
    ("snapshot.chain_deltas", "count"),
    ("snapshot.poll_ms", "ms"),
    ("snapshot.swap_ms", "ms"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("ledger.doc_unaccounted_frac", "frac"),
    ("ledger.day_unaccounted_frac", "frac"),
    ("ledger.seal_unaccounted_frac", "frac"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any entry fails the run.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, and every
    /// metric of the catalog the run mode reports. A catalog metric the
    /// run did not produce, or a non-finite value, is an error.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .copied()
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_names_every_catalog_metric() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 1.5 + i as f64);
        }
        let line = outcome.result_line(false).unwrap_or_default();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(outcome.result_line(true).is_err());
        outcome.set("scan_dps", f64::NAN);
        assert!(outcome.result_line(false).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
