//! The benchmark's own spans: recorded around its calls into each
//! crate's public functions, kept in memory, and summarized (count,
//! total, self time per span name) when the run ends. A disabled tracer
//! records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Refuse spans past this many rather than grow without bound.
const MAX_SPANS: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub dur: Duration,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    /// Total minus the time covered by child spans.
    pub self_time: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record a span that ran from `start` to `end`; returns its id for
    /// children to name as parent. `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start,
            dur: end.saturating_duration_since(start),
        });
        Some(self.spans.len() - 1)
    }

    /// Open a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.dur = span.start.elapsed();
        }
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| child_time.get_mut(p)) {
                *slot += span.dur;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total += span.dur;
            entry.self_time += span.dur.saturating_sub(children);
        }
        totals
    }

    /// The summary table printed at the end of a traced run.
    pub fn render(&self) -> String {
        let mut out =
            String::from("span                             count     total_ms      self_ms\n");
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{name:<30} {:>7} {:>12.3} {:>12.3}",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let root = tracer.record("doc", None, t0, t0 + ms(10));
        tracer.record("lex", root, t0, t0 + ms(6));
        tracer.record("scan", root, t0 + ms(6), t0 + ms(9));
        let totals = tracer.totals();
        assert_eq!(totals["doc"].self_time, ms(1));
        assert_eq!(totals["lex"].total, ms(6));
        assert_eq!(totals["scan"].count, 1);
        assert!(tracer.render().contains("lex"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("x", None, now, now), None);
        assert!(tracer.totals().is_empty());
    }
}
