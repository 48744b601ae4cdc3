//! The document path layer by layer, in process (traced runs): HTML
//! extraction, capped tokenization, the staged matcher on the token
//! stream, the whole in-process document scan, and the wire's own
//! round trip.

use crate::conn::Conn;
use crate::drive::Expected;
use crate::stats;
use crate::trace::Tracer;
use kizzle::{ChainFollower, Matcher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-document means of each layer, each the median over repeated
/// passes.
#[derive(Debug, Default, Clone, Copy)]
pub struct DocLayers {
    pub extract_us: f64,
    pub tokenize_us: f64,
    pub ns_per_byte: f64,
    /// Tokens kept by the cap ÷ tokens lexed without it.
    pub kept_token_frac: f64,
    pub scan_stream_us: f64,
    pub inproc_doc_us: f64,
    /// Pass time with per-call spans ÷ pass time without, minus one.
    pub trace_overhead_frac: f64,
    /// Documents whose in-process verdicts disagreed with the expected
    /// ones.
    pub mismatches: usize,
}

/// Run alternating plain and traced passes over `docs` for about
/// `budget` (at least three of each).
pub fn doc_layers(
    docs: &[String],
    expected: &[Expected],
    matcher: &Matcher<ChainFollower>,
    cap: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> DocLayers {
    let bytes: usize = docs.iter().map(String::len).sum();
    let n = docs.len().max(1) as f64;
    let mut out = DocLayers::default();

    let mut kept = 0usize;
    let mut lexed = 0usize;
    for (doc, want) in docs.iter().zip(expected) {
        kept += kizzle_js::tokenize_document_capped(doc, cap).len();
        lexed += kizzle_js::tokenize_document(doc).len();
        let stream = kizzle_js::tokenize_document_capped(doc, cap);
        let by_stream = matcher.scan_stream_verdict(&stream);
        let by_doc = matcher.scan_verdict(doc);
        if (by_stream.index, by_stream.family) != *want || (by_doc.index, by_doc.family) != *want {
            out.mismatches += 1;
        }
    }
    out.kept_token_frac = kept as f64 / lexed.max(1) as f64;

    let (mut extract, mut tokenize, mut scan, mut inproc) = (vec![], vec![], vec![], vec![]);
    let (mut plain_pass, mut traced_pass) = (vec![], vec![]);
    let started = Instant::now();
    while plain_pass.len() < 3 || started.elapsed() < budget {
        // Plain pass: the same calls with no per-call clock reads.
        let p0 = Instant::now();
        for doc in docs {
            black_box(kizzle_js::extract_scripts(doc));
            let stream = kizzle_js::tokenize_document_capped(doc, cap);
            black_box(matcher.scan_stream_verdict(&stream));
        }
        plain_pass.push(p0.elapsed().as_secs_f64());

        // Traced pass: one span per layer call under a per-document span.
        let (mut e, mut t, mut s) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let p0 = Instant::now();
        for doc in docs {
            let parent = tracer.open("doc", None);
            let t0 = Instant::now();
            black_box(kizzle_js::extract_scripts(doc));
            let t1 = Instant::now();
            let stream = kizzle_js::tokenize_document_capped(doc, cap);
            let t2 = Instant::now();
            black_box(matcher.scan_stream_verdict(&stream));
            let t3 = Instant::now();
            tracer.record("js-lex.extract", parent, t0, t1);
            tracer.record("js-lex.tokenize", parent, t1, t2);
            tracer.record("signature.scan_stream", parent, t2, t3);
            tracer.close(parent);
            e += t1 - t0;
            t += t2 - t1;
            s += t3 - t2;
        }
        traced_pass.push(p0.elapsed().as_secs_f64());
        extract.push(e.as_secs_f64() * 1e6 / n);
        tokenize.push(t.as_secs_f64() * 1e6 / n);
        scan.push(s.as_secs_f64() * 1e6 / n);

        // The whole in-process document scan, as the daemon's worker runs it.
        let mut d = Duration::ZERO;
        for doc in docs {
            let t0 = Instant::now();
            black_box(matcher.scan_verdict(doc));
            let t1 = Instant::now();
            tracer.record("serve.inproc_doc", None, t0, t1);
            d += t1 - t0;
        }
        inproc.push(d.as_secs_f64() * 1e6 / n);
    }
    out.extract_us = stats::median(&extract).unwrap_or(0.0);
    out.tokenize_us = stats::median(&tokenize).unwrap_or(0.0);
    out.ns_per_byte = out.tokenize_us * 1e3 * n / bytes.max(1) as f64;
    out.scan_stream_us = stats::median(&scan).unwrap_or(0.0);
    out.inproc_doc_us = stats::median(&inproc).unwrap_or(0.0);
    let plain = stats::median(&plain_pass).unwrap_or(0.0);
    let traced = stats::median(&traced_pass).unwrap_or(0.0);
    out.trace_overhead_frac = if plain > 0.0 {
        traced / plain - 1.0
    } else {
        0.0
    };
    out
}

/// The wire at low load: one request in flight on one connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireLayers {
    /// Median round trip of an empty document.
    pub rtt_p50_us: f64,
    /// Mean round trip per workload document (median over passes).
    pub doc_us: f64,
    pub mismatches: usize,
    pub requests: u64,
}

pub fn wire_layers(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    empty_frame: &[u8],
    expected: &[Expected],
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<WireLayers, String> {
    let mut out = WireLayers::default();
    let mut rtts = Vec::new();
    let started = Instant::now();
    while rtts.len() < 1000 || started.elapsed() < budget / 4 {
        let t0 = Instant::now();
        conn.scan_once(empty_frame)
            .map_err(|e| format!("rtt probe: {e}"))?;
        let t1 = Instant::now();
        tracer.record("serve.rtt", None, t0, t1);
        rtts.push((t1 - t0).as_secs_f64() * 1e6);
    }
    out.rtt_p50_us = stats::median(&rtts).unwrap_or(0.0);
    out.requests += rtts.len() as u64;

    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < 3 || started.elapsed() < budget * 3 / 4 {
        let mut total = Duration::ZERO;
        for (frame, want) in frames.iter().zip(expected) {
            let t0 = Instant::now();
            let verdict = conn
                .scan_once(frame)
                .map_err(|e| format!("wire pass: {e}"))?;
            let t1 = Instant::now();
            tracer.record("serve.wire_doc", None, t0, t1);
            total += t1 - t0;
            if (verdict.index, verdict.family) != *want {
                out.mismatches += 1;
            }
        }
        out.requests += frames.len() as u64;
        passes.push(total.as_secs_f64() * 1e6 / frames.len().max(1) as f64);
    }
    out.doc_us = stats::median(&passes).unwrap_or(0.0);
    Ok(out)
}
