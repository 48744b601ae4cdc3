//! Seeded workload inputs. Everything the program under test receives is
//! generated here from `--seed`; the same seed gives byte-identical
//! inputs, another seed gives different ones.

use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Smallest `scan_large` document.
pub const LARGE_MIN_BYTES: usize = 64 * 1024;
/// Largest `scan_large` document.
pub const LARGE_MAX_BYTES: usize = 1024 * 1024;
/// Distinct `scan_large` documents; clients cycle through them.
pub const LARGE_DOCS: usize = 24;

/// Salts that keep the generators of different inputs independent.
const SALT_COMPILE: u64 = 0x6b69_7a7a_6c65_0001;
const SALT_LARGE: u64 = 0x6b69_7a7a_6c65_0002;

/// First day the compiler sees. The scanned mix is dated after the base
/// chain's days, so scans are "tomorrow's traffic" against signatures
/// compiled from earlier days.
pub fn first_compile_day() -> SimDate {
    SimDate::new(2014, 8, 2)
}

/// The grayware stream the compiler ingests on both the base chain and
/// `day_publish`, `samples` per day. Half the stream is kit traffic so
/// that every day grows the signature set. Days are generated one at a
/// time (`generate_day`), so the inputs of a long run are never all
/// resident at once.
pub fn compile_stream(seed: u64, samples: usize) -> GraywareStream {
    GraywareStream::new(StreamConfig {
        samples_per_day: samples,
        malicious_fraction: 0.5,
        seed: seed ^ SALT_COMPILE,
        ..StreamConfig::default()
    })
}

/// `loadgen::document_mix` draws per scanned mix. One draw is 256
/// documents, and its mean size moves by about a sixth from seed to seed;
/// eight draws keep the per-seed cost of a pass within a few percent.
pub const MIX_DRAWS: u64 = 8;

/// The simulated day mix clients scan: `MIX_DRAWS` draws of
/// `loadgen::document_mix` (256 documents each, half kit landing pages),
/// each under its own seed derived from `seed`.
pub fn document_mix(seed: u64) -> Vec<String> {
    (0..MIX_DRAWS)
        .flat_map(|k| {
            kizzle_serve::loadgen::document_mix(seed.wrapping_mul(MIX_DRAWS).wrapping_add(k))
        })
        .collect()
}

/// `scan_large` documents: each starts with a mix page and continues
/// with generated benign script/HTML up to its target size. The sizes
/// are the same for every seed — log-uniformly spaced from
/// `LARGE_MIN_BYTES` to `LARGE_MAX_BYTES` and interleaved small with
/// large — so the seed changes content, not how many bytes a run scans
/// or which documents meet in the daemon's two workers.
pub fn large_documents(seed: u64) -> Vec<String> {
    let mix = document_mix(seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SALT_LARGE);
    large_sizes()
        .into_iter()
        .map(|target| {
            let mut doc = mix[rng.gen_range(0..mix.len())].clone();
            // The filler cycles through the benign kinds in a fixed order,
            // so a document's token density does not depend on the seed.
            for kind in BenignKind::ALL.iter().cycle() {
                if doc.len() >= target {
                    break;
                }
                doc.push_str(&generate_benign(*kind, &mut rng));
            }
            let mut cut = target;
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc.truncate(cut);
            doc
        })
        .collect()
}

/// The `scan_large` target sizes in scan order: `LARGE_DOCS` log-uniform
/// steps over the size range, taken in bit-reversed order so every
/// stretch of the cycle mixes small and large documents.
fn large_sizes() -> Vec<usize> {
    let (lo, hi) = ((LARGE_MIN_BYTES as f64).ln(), (LARGE_MAX_BYTES as f64).ln());
    let steps: Vec<usize> = (0..LARGE_DOCS)
        .map(|i| {
            let u = i as f64 / (LARGE_DOCS - 1) as f64;
            ((lo + u * (hi - lo)).exp().round() as usize).clamp(LARGE_MIN_BYTES, LARGE_MAX_BYTES)
        })
        .collect();
    let bits = LARGE_DOCS.next_power_of_two().trailing_zeros();
    let order: Vec<usize> = (0..LARGE_DOCS.next_power_of_two())
        .map(|i| i.reverse_bits() >> (usize::BITS - bits))
        .filter(|&i| i < LARGE_DOCS)
        .collect();
    order.into_iter().map(|i| steps[i]).collect()
}

/// Pre-encoded `SCAN` request frames, so the load generator spends no
/// time copying documents into frames while it measures.
pub fn scan_frames(docs: &[String]) -> Vec<Vec<u8>> {
    docs.iter()
        .map(|doc| {
            let mut frame = Vec::with_capacity(doc.len() + 5);
            // Writing into a Vec cannot fail; the only error is a frame
            // above the protocol cap, which the documents never reach.
            let _ = kizzle_serve::protocol::write_request(
                &mut frame,
                kizzle_serve::protocol::OP_SCAN,
                doc.as_bytes(),
            );
            frame
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(document_mix(5), document_mix(5));
        assert_ne!(document_mix(5), document_mix(6));
        assert_eq!(large_documents(5), large_documents(5));
        assert_ne!(large_documents(5), large_documents(6));
        let day = |seed| -> Vec<String> {
            let stream = compile_stream(seed, 64);
            let date = first_compile_day();
            [date, date.next()]
                .into_iter()
                .flat_map(|d| stream.generate_day(d))
                .map(|s| s.html)
                .collect()
        };
        assert_eq!(day(5), day(5));
        assert_ne!(day(5), day(6));
    }

    #[test]
    fn large_documents_span_the_range_and_the_cap_binds() {
        let cap = kizzle::KizzleConfig::paper().token_cap;
        let docs = large_documents(11);
        assert_eq!(docs.len(), LARGE_DOCS);
        for doc in &docs {
            assert!((LARGE_MIN_BYTES..=LARGE_MAX_BYTES).contains(&doc.len()));
            let full = kizzle_js::tokenize_document(doc).len();
            assert!(full > cap, "{full} tokens do not exceed the {cap} cap");
            assert_eq!(kizzle_js::tokenize_document_capped(doc, cap).len(), cap);
        }
        let smallest = docs.iter().map(String::len).min().unwrap_or(0);
        let largest = docs.iter().map(String::len).max().unwrap_or(0);
        assert_eq!((smallest, largest), (LARGE_MIN_BYTES, LARGE_MAX_BYTES));
        // Log-uniform: each size is a constant factor above the next
        // smaller one.
        let mut sizes: Vec<usize> = docs.iter().map(String::len).collect();
        sizes.sort_unstable();
        let ratios: Vec<f64> = sizes
            .windows(2)
            .map(|w| w[1] as f64 / w[0] as f64)
            .collect();
        let (min, max) = ratios
            .iter()
            .fold((f64::MAX, 0.0f64), |(a, b), &r| (a.min(r), b.max(r)));
        assert!(max / min < 1.001, "size ratios {min}..{max}");
    }

    #[test]
    fn mix_pages_stay_under_the_cap() {
        let cap = kizzle::KizzleConfig::paper().token_cap;
        let docs = document_mix(3);
        let under = docs
            .iter()
            .filter(|d| kizzle_js::tokenize_document(d).len() <= cap)
            .count();
        assert_eq!(under, docs.len());
    }

    #[test]
    fn frames_decode_as_scan_requests() {
        let docs = document_mix(1);
        let frames = scan_frames(&docs[..3]);
        for (doc, frame) in docs.iter().zip(&frames) {
            let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
            assert_eq!(len, doc.len() + 1);
            assert_eq!(frame[4], kizzle_serve::protocol::OP_SCAN);
            assert_eq!(&frame[5..], doc.as_bytes());
        }
    }
}
