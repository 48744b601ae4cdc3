//! Compiler state persistence: the cron-job deployment's survival layer.
//!
//! The production daily loop is a cron job, not a long-lived process
//! (ROADMAP), so everything the compiler behind
//! [`KizzleService`](crate::KizzleService) accumulates across days —
//! the warm corpus engine, the cumulative [`SignatureSet`], the evolving
//! reference corpus, the per-family signature counters — died with each
//! run until this module existed.
//! [`KizzleService::save`](crate::KizzleService::save) writes all of it
//! as the next link of a [`kizzle_snapshot`] **base→delta chain** (a full
//! base container, then per-day deltas holding only the sections whose
//! content fingerprint changed, compacted back to a fresh base every
//! [`DEFAULT_MAX_DELTAS`] saves; the `MANIFEST` sidecar records the
//! chain). [`KizzleService::load`](crate::KizzleService::load) overlays
//! the chain latest-wins and brings a fresh process back to exactly the state the
//! previous run saved: restart-each-day runs are byte-identical to a
//! long-lived warm process (held to that by
//! `save_load_resumes_exactly_like_a_long_lived_process` below and
//! `restart_each_day_matches_the_long_lived_run` in `kizzle-eval`).
//!
//! ## Sections
//!
//! | section          | contents                                              |
//! |------------------|-------------------------------------------------------|
//! | `meta`           | config fingerprint, last processed day, sig counters  |
//! | `signatures`     | the cumulative signature set, insertion-ordered       |
//! | `reference`      | the reference corpus with its absorbed evolution      |
//! | `corpus-store`   | the engine's sample store (see `kizzle-cluster`)      |
//! | `neighbor-index` | memoized neighborhoods (see `kizzle-cluster`)         |
//!
//! The signature set's scan pipeline (anchor trie, candidate buckets,
//! prefilters; see `kizzle_signature::matcher`) is derived state and is
//! not persisted: every loader seals the set it decodes before it
//! publishes it. Chains written before this layout may still carry a
//! `scan-pipeline` section; loaders never read it, and the next
//! compaction drops it.
//!
//! ## Trust ladder
//!
//! Loading **refuses** a snapshot whose config fingerprint disagrees with
//! the loading configuration — clustering parameters shape every piece of
//! persisted state, so mixing them would silently corrupt results. The
//! damage ladder, top rung first: a broken **delta** truncates the chain
//! to its intact prefix (the run resumes the base — an older but
//! self-consistent state); within the resulting snapshot, damage degrades
//! per section: a lost index rebuilds from the store, a lost store
//! empties the engine (cold rebuild), while damage to
//! `meta`/`signatures`/`reference` fails the load as a whole — those
//! cannot be reconstructed, and a caller falls back to a fresh compiler
//! exactly as if no snapshot existed.

use crate::config::KizzleConfig;
use crate::error::KizzleError;
use crate::pipeline::KizzleCompiler;
use crate::reference::ReferenceCorpus;
use kizzle_cluster::CorpusEngine;
pub use kizzle_cluster::ResumeReport;
use kizzle_corpus::{KitFamily, SimDate};
use kizzle_signature::SignatureSet;
use kizzle_snapshot::{
    ChainWriter, ChainedSnapshot, Decoder, Encoder, SectionSource, Snapshot, SnapshotError,
    FORMAT_VERSION,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::path::Path;

/// Chain file prefix of the compiler state (base file
/// `kizzle-state.snap`, deltas `kizzle-state.delta-N.snap`).
pub const STATE_CHAIN_PREFIX: &str = "kizzle-state";
/// Name of the base binary state file inside a state directory.
pub const STATE_FILE: &str = "kizzle-state.snap";
/// Name of the human-readable manifest sidecar.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Deltas a state chain accumulates before
/// [`KizzleService::save`](crate::KizzleService::save) compacts back to a
/// full base — a weekly cadence at one save per day.
pub const DEFAULT_MAX_DELTAS: usize = 6;

pub use kizzle_snapshot::sections::{
    META_SECTION, REFERENCE_SECTION, SIGNATURES_SECTION, WINDOW_SECTION,
};

/// Stable wire code for a kit family (the paper's Fig. 2 order).
pub(crate) fn family_code(family: KitFamily) -> u8 {
    KitFamily::ALL
        .iter()
        .position(|f| *f == family)
        .map(|p| u8::try_from(p).expect("few families"))
        .expect("family listed in ALL")
}

/// Inverse of [`family_code`].
pub(crate) fn family_from_code(code: u8) -> Option<KitFamily> {
    KitFamily::ALL.get(usize::from(code)).copied()
}

/// Canonical byte encoding of every configuration field that shapes
/// persisted state, hashed with FNV-1a 64. Two configs with the same
/// fingerprint produce interchangeable snapshots; anything else is
/// refused at load.
#[must_use]
pub fn config_fingerprint(config: &KizzleConfig) -> u64 {
    let mut enc = Encoder::new();
    enc.usize(config.clustering.partitions);
    enc.f64(config.clustering.dbscan.eps);
    enc.usize(config.clustering.dbscan.min_points);
    enc.u64(config.clustering.seed);
    enc.usize(config.token_cap);
    enc.usize(config.min_cluster_size);
    enc.usize(config.retention_days);
    enc.usize(config.winnow.k);
    enc.usize(config.winnow.window);
    enc.f64(config.label_threshold);
    enc.usize(config.signature.max_tokens);
    enc.usize(config.signature.min_tokens);
    enc.usize(config.signature.max_samples);
    let bytes = enc.into_bytes();
    // FNV-1a, 64-bit: stable across platforms and Rust versions (unlike
    // the std hasher, which is only stable within one std release).
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

struct Meta {
    fingerprint: u64,
    last_day: Option<SimDate>,
    counters: HashMap<KitFamily, usize>,
}

fn encode_meta(compiler: &KizzleCompiler, enc: &mut Encoder) {
    enc.u64(config_fingerprint(&compiler.config));
    match compiler.last_day {
        None => enc.bool(false),
        Some(day) => {
            enc.bool(true);
            enc.u32(day.year);
            enc.u32(day.month);
            enc.u32(day.day);
        }
    }
    let mut counters: Vec<(u8, u64)> = compiler
        .signature_counters
        .iter()
        .map(|(family, count)| (family_code(*family), *count as u64))
        .collect();
    counters.sort_unstable();
    enc.usize(counters.len());
    for (code, count) in counters {
        enc.u8(code);
        enc.u64(count);
    }
}

fn decode_meta(dec: &mut Decoder<'_>) -> Result<Meta, SnapshotError> {
    let corrupt = |what: &str| SnapshotError::Corrupt(format!("meta: {what}"));
    let fingerprint = dec.u64()?;
    let last_day = if dec.bool()? {
        let (year, month, day) = (dec.u32()?, dec.u32()?, dec.u32()?);
        if !(1..=12).contains(&month) || day < 1 || day > SimDate::days_in_month(month) {
            return Err(corrupt("calendar day out of range"));
        }
        Some(SimDate::new(year, month, day))
    } else {
        None
    };
    let counter_count = dec.usize()?;
    let mut counters = HashMap::new();
    for _ in 0..counter_count {
        let family = family_from_code(dec.u8()?).ok_or_else(|| corrupt("unknown family code"))?;
        let count = usize::try_from(dec.u64()?).map_err(|_| corrupt("counter exceeds usize"))?;
        if counters.insert(family, count).is_some() {
            return Err(corrupt("family counter duplicated"));
        }
    }
    Ok(Meta {
        fingerprint,
        last_day,
        counters,
    })
}

impl KizzleCompiler {
    /// Serialize every compiler section. The payloads are independent,
    /// so they encode through the rayon pool — a multi-core save costs the
    /// slowest section, not the sum.
    fn encode_state_sections(&self) -> Vec<(String, Vec<u8>)> {
        type Job<'a> = (&'a str, Box<dyn Fn() -> Vec<u8> + Sync + 'a>);
        let jobs: Vec<Job<'_>> = vec![
            (
                META_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    encode_meta(self, &mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                SIGNATURES_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    self.signatures.encode_into(&mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                REFERENCE_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    self.reference.encode_into(&mut enc);
                    enc.into_bytes()
                }),
            ),
            (
                WINDOW_SECTION,
                Box::new(|| {
                    let mut enc = Encoder::new();
                    enc.varint_usize(self.day_views.len());
                    for (stamp, ids) in &self.day_views {
                        enc.varint(*stamp);
                        enc.varint_usize(ids.len());
                        for id in ids {
                            enc.varint(u64::from(id.raw()));
                        }
                    }
                    enc.into_bytes()
                }),
            ),
        ];
        // The engine owns its own section layout (names and payloads) —
        // `CorpusEngine::encode_sections` is the single producer, run
        // concurrently with the compiler-level jobs.
        let (payloads, engine_sections) = rayon::join(
            || -> Vec<Vec<u8>> { jobs.par_iter().map(|(_, job)| job()).collect() },
            || self.engine.encode_sections(),
        );
        let mut sections: Vec<(String, Vec<u8>)> = jobs
            .iter()
            .map(|(name, _)| (*name).to_string())
            .zip(payloads)
            .collect();
        sections.extend(engine_sections);
        sections
    }

    /// Persist the complete compiler state into `state_dir` with the
    /// default compaction cadence ([`DEFAULT_MAX_DELTAS`]). See
    /// [`KizzleCompiler::save_state_compacting`].
    pub fn save_state(&self, state_dir: &Path) -> Result<(), KizzleError> {
        self.save_state_compacting(state_dir, DEFAULT_MAX_DELTAS)
    }

    /// Persist the complete compiler state into `state_dir` as the next
    /// link of a base→delta snapshot chain: a full base file
    /// ([`STATE_FILE`]) on the first save, afterwards a delta holding only
    /// the sections whose content fingerprint changed since the previous
    /// save (on heavily overlapping days the reference and signature
    /// sections are usually byte-identical). Once the chain carries
    /// `max_deltas` deltas the next save **compacts**: the full base is
    /// rewritten and the stale deltas removed; `max_deltas == 0` writes a
    /// full snapshot every time (the PR 3 behavior). Every file and the
    /// [`MANIFEST_FILE`] sidecar are written atomically, so a crash
    /// mid-save leaves the previous state loadable.
    pub fn save_state_compacting(
        &self,
        state_dir: &Path,
        max_deltas: usize,
    ) -> Result<(), KizzleError> {
        let snapshot_span = kizzle_telemetry::span!("day.snapshot");
        let sections = self.encode_state_sections();
        let save = ChainWriter::new(state_dir, STATE_CHAIN_PREFIX).save(
            sections,
            max_deltas,
            |manifest, save| {
                manifest.set("snapshot_file", STATE_FILE);
                manifest.set("format_version", FORMAT_VERSION);
                manifest.set(
                    "config_fingerprint",
                    format!("{:#018x}", config_fingerprint(&self.config)),
                );
                manifest.set(
                    "last_day",
                    self.last_day
                        .map_or_else(|| "none".to_string(), |d| d.to_string()),
                );
                manifest.set("live_samples", self.engine.len());
                // Serving-side followers scan with the compile-time cap.
                manifest.set("token_cap", self.config.token_cap);
                manifest.set("cached_neighborhoods", self.engine.index().cached_count());
                manifest.set(SIGNATURES_SECTION, self.signatures.len());
                // What *this* save put on disk — the base on day 1 and
                // after compaction, otherwise a delta (or nothing on a
                // no-change day). The logical state spans the whole
                // `chain`, so a single "size of the snapshot" number no
                // longer exists.
                manifest.set(
                    "written_file",
                    save.file.as_deref().unwrap_or("none (no sections changed)"),
                );
                manifest.set("written_bytes", save.bytes);
            },
        )?;
        let snapshot_elapsed = snapshot_span.finish();
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_saves_total").incr();
            kizzle_telemetry::histogram("kizzle_snapshot_save_ns")
                .observe_duration(snapshot_elapsed);
            kizzle_telemetry::event(
                "snapshot.save",
                format!(
                    "wrote {} ({} bytes)",
                    save.file
                        .as_deref()
                        .unwrap_or("nothing (no sections changed)"),
                    save.bytes
                ),
            );
        }
        Ok(())
    }

    /// Load compiler state saved by [`KizzleCompiler::save_state`],
    /// following the base→delta chain recorded in the manifest.
    ///
    /// Refuses snapshots whose config fingerprint differs from `config`
    /// ([`KizzleError::ConfigFingerprint`]). The fallback ladder, top rung
    /// first: a broken delta truncates the chain (the run resumes the
    /// base — an older but self-consistent state); engine damage degrades
    /// per section (see [`ResumeReport`]); damage to the meta, signature
    /// or reference sections fails the load — the caller starts a fresh
    /// compiler, exactly as if no snapshot existed.
    pub fn load_state(
        state_dir: &Path,
        config: KizzleConfig,
    ) -> Result<(Self, ResumeReport), KizzleError> {
        let _load_span = kizzle_telemetry::span!("snapshot.load");
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_snapshot_loads_total").incr();
        }
        let config = config.validate()?;
        let snapshot = ChainedSnapshot::open(state_dir, STATE_CHAIN_PREFIX)?;

        let mut dec = Decoder::new(snapshot.section(META_SECTION)?);
        let meta = decode_meta(&mut dec)?;
        dec.finish()?;
        let expected = config_fingerprint(&config);
        if meta.fingerprint != expected {
            return Err(KizzleError::ConfigFingerprint {
                found: meta.fingerprint,
                expected,
            });
        }

        // Signatures decode through the one shared section reader
        // (`kizzle::source`) — the same code path the serving-side
        // `ChainFollower` and `read_signatures` use. The set stays
        // unsealed here; `KizzleService` seals it when it publishes.
        let signatures = crate::source::decode_signature_sections(&snapshot)?;

        let mut dec = Decoder::new(snapshot.section(REFERENCE_SECTION)?);
        let reference = ReferenceCorpus::decode_from(&mut dec)?;
        dec.finish()?;

        let (engine, mut report) = CorpusEngine::resume_from_sections(config.clustering, &snapshot);
        for chain_note in snapshot.notes() {
            report.note(chain_note.clone());
        }

        // Day views are only meaningful against the engine they were saved
        // with: if the engine degraded (or the section is damaged), window
        // clustering starts over rather than pointing at dead ids.
        let day_views = snapshot.section(WINDOW_SECTION).and_then(|payload| {
            let mut dec = Decoder::new(payload);
            let view_count = dec.varint_usize()?;
            let mut views = Vec::with_capacity(view_count.min(1 << 10));
            for _ in 0..view_count {
                let stamp = dec.varint()?;
                let id_count = dec.varint_usize()?;
                let mut ids = Vec::with_capacity(id_count.min(1 << 20));
                for _ in 0..id_count {
                    let raw = u32::try_from(dec.varint()?)
                        .map_err(|_| SnapshotError::Corrupt("window view id exceeds u32".into()))?;
                    let id = kizzle_cluster::SampleId::new(raw);
                    if !engine.store().contains(id) {
                        return Err(SnapshotError::Corrupt(
                            "window view names a dead sample".into(),
                        ));
                    }
                    ids.push(id);
                }
                views.push((stamp, ids));
            }
            dec.finish()?;
            Ok(views)
        });
        let day_views = match day_views {
            Ok(views) => views,
            Err(err) => {
                report.note(format!(
                    "window views lost, window clustering starts over: {err}"
                ));
                Vec::new()
            }
        };

        Ok((
            KizzleCompiler {
                config,
                reference,
                signatures: std::sync::Arc::new(signatures),
                signature_counters: meta.counters,
                engine,
                last_day: meta.last_day,
                day_views,
            },
            report,
        ))
    }

    /// Load saved state, or fall back to a fresh compiler when no usable
    /// snapshot exists. The cron-job entry point: `reference` seeds the
    /// fresh compiler on the very first run (and after unrecoverable
    /// damage) — it is a closure because seeding winnow-fingerprints every
    /// kit model, a cost the warm path must not pay; the returned report
    /// says what happened.
    #[must_use]
    pub fn load_or_new(
        state_dir: &Path,
        config: KizzleConfig,
        reference: impl FnOnce() -> ReferenceCorpus,
    ) -> (Self, ResumeReport) {
        match KizzleCompiler::load_state(state_dir, config) {
            Ok(loaded) => loaded,
            Err(err) => {
                let mut report = ResumeReport::default();
                report.note(format!("state not loadable, fresh compiler: {err}"));
                (KizzleCompiler::new(config, reference()), report)
            }
        }
    }
}

/// Read just the signature set out of a compiler state snapshot, sealed
/// and ready to scan — what `examples/signature_inspect` uses to inspect
/// deployed signatures without recompiling them.
///
/// Chain-aware: pointed at a state *directory* or at a chain's base file
/// (`kizzle-state.snap` next to its `MANIFEST`), the recorded deltas are
/// overlaid so the *newest* signature section answers; a bare snapshot
/// file without a chain reads as itself.
pub fn read_signatures(state_path: &Path) -> Result<SignatureSet, KizzleError> {
    let state_file = if state_path.is_dir() {
        state_path.join(STATE_FILE)
    } else {
        state_path.to_path_buf()
    };
    let state_file = state_file.as_path();
    let chained = state_file
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_suffix(".snap"))
        .zip(state_file.parent())
        .and_then(|(prefix, dir)| ChainedSnapshot::open(dir, prefix).ok());
    let chained = match chained {
        Some(chain) => chain,
        None => ChainedSnapshot::single(Snapshot::read(state_file)?),
    };
    // The one shared section reader (`kizzle::source`) interprets the
    // layout; sealing here keeps the returned set ready to scan.
    let set = crate::source::decode_signature_sections(&chained)?;
    set.seal();
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KizzleService;
    use kizzle_corpus::{GraywareStream, Sample, StreamConfig};
    use kizzle_signature::{CharClass, Element, Signature};
    use kizzle_snapshot::Manifest;

    fn test_day(date: SimDate, seed: u64) -> Vec<Sample> {
        let config = StreamConfig {
            samples_per_day: 48,
            malicious_fraction: 0.5,
            family_weights: vec![
                (KitFamily::Angler, 0.4),
                (KitFamily::Nuclear, 0.3),
                (KitFamily::SweetOrange, 0.3),
            ],
            seed,
        };
        GraywareStream::new(config).generate_day(date)
    }

    fn fresh_service() -> KizzleService {
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        KizzleService::new(KizzleConfig::fast(), reference).expect("fast config is valid")
    }

    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kizzle-state-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_load_resumes_exactly_like_a_long_lived_process() {
        let dir = state_dir("roundtrip");
        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 6);
        let day1 = test_day(d1, 3);
        let day2 = test_day(d2, 4);

        // Long-lived: both days through one service.
        let mut long_lived = fresh_service();
        long_lived.process_day(d1, &day1).expect("day 1");
        let want = long_lived.process_day(d2, &day2).expect("day 2");

        // Cron-style: day 1, save, drop, load, day 2.
        let mut first_run = fresh_service();
        first_run.process_day(d1, &day1).expect("day 1");
        first_run.save(&dir).expect("state saved");
        drop(first_run);
        let (mut second_run, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
        assert!(report.is_warm(), "report: {report:?}");
        assert_eq!(second_run.last_processed_day(), Some(d1));
        let got = second_run.process_day(d2, &day2).expect("day 2");

        // Byte-identical modulo wall clock.
        let mut want = want;
        let mut got = got;
        want.clustering_stats = Default::default();
        got.clustering_stats = Default::default();
        assert_eq!(want, got);
        assert_eq!(&*long_lived.signatures(), &*second_run.signatures());
        assert_eq!(long_lived.engine().len(), second_run.engine().len());
        // The multi-day window mode resumes identically too: the retained
        // day views survived the snapshot.
        let (window_live, _) = long_lived.cluster_window();
        let (window_resumed, _) = second_run.cluster_window();
        assert_eq!(window_live, window_resumed);
        assert!(window_live.cluster_count() > 0, "window found no clusters");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_config_fingerprint_is_refused() {
        let dir = state_dir("mismatch");
        let service = fresh_service();
        service.save(&dir).expect("state saved");
        let mut other = KizzleConfig::fast();
        other.retention_days += 1;
        assert!(matches!(
            KizzleService::load(&dir, other),
            Err(KizzleError::ConfigFingerprint { .. })
        ));
        // open degrades to a fresh service instead.
        let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &other);
        let (fresh, report) = KizzleService::open(&dir, other, || reference).expect("opens");
        assert!(fresh.engine().is_empty());
        assert!(!report.notes.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_damaged_snapshots_degrade_without_panicking() {
        let dir = state_dir("damage");
        // Missing directory: fresh service.
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        let open = |reference: ReferenceCorpus| {
            KizzleService::open(&dir, KizzleConfig::fast(), || reference).expect("opens")
        };
        let (fresh, report) = open(reference.clone());
        assert!(fresh.signatures().is_empty());
        assert!(!report.notes.is_empty());

        // Truncated file: load errors, open degrades.
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, &test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let path = dir.join(STATE_FILE);
        let full = std::fs::read(&path).expect("snapshot bytes");
        std::fs::write(&path, &full[..full.len() / 3]).expect("truncate");
        assert!(KizzleService::load(&dir, KizzleConfig::fast()).is_err());
        let (_, report) = open(reference.clone());
        assert!(!report.notes.is_empty());

        // Version skew: the version field is bytes 8..12.
        let mut skewed = full.clone();
        skewed[8] = 0x7F;
        std::fs::write(&path, &skewed).expect("rewrite");
        assert!(matches!(
            KizzleService::load(&dir, KizzleConfig::fast()),
            Err(KizzleError::Snapshot(SnapshotError::VersionSkew { .. }))
        ));

        // A flipped byte somewhere in the sections: either the damaged
        // section is one the engine can rebuild around, or the load fails —
        // never a panic, never a silent wrong answer.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).expect("rewrite");
        let (_, _) = open(reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_describes_the_saved_state() {
        let dir = state_dir("manifest");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, &test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).expect("manifest");
        assert_eq!(manifest.get("snapshot_file"), Some(STATE_FILE));
        assert_eq!(
            manifest.get("config_fingerprint"),
            Some(format!("{:#018x}", config_fingerprint(service.config())).as_str())
        );
        assert_eq!(manifest.get("last_day"), Some("8/5/14"));
        // Day 1 wrote the full base; `written_*` describe that save.
        assert_eq!(manifest.get("written_file"), Some(STATE_FILE));
        let bytes: usize = manifest
            .get("written_bytes")
            .unwrap()
            .parse()
            .expect("numeric");
        assert_eq!(bytes, std::fs::read(dir.join(STATE_FILE)).unwrap().len());
        // A second day's save extends the chain with a delta, and the
        // manifest must describe *that* file — not misquote the base.
        let d2 = SimDate::new(2014, 8, 6);
        service.process_day(d2, &test_day(d2, 4)).expect("day 2");
        service.save(&dir).expect("state saved");
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE)).expect("manifest");
        let written = manifest.get("written_file").expect("written_file");
        assert_ne!(written, STATE_FILE, "day 2 must be a delta");
        let bytes: usize = manifest
            .get("written_bytes")
            .unwrap()
            .parse()
            .expect("numeric");
        assert_eq!(bytes, std::fs::read(dir.join(written)).unwrap().len());
        assert_eq!(
            manifest.get(kizzle_snapshot::sections::CHAIN_KEY),
            Some(format!("{STATE_FILE} {written}").as_str())
        );
        // read_signatures follows the chain from the base file.
        let set = read_signatures(&dir.join(STATE_FILE)).expect("signatures");
        assert_eq!(&set, &*service.signatures());
        // The scan pipeline is derived at load, never saved.
        assert_eq!(manifest.get("section.scan-pipeline"), None);
        assert!(manifest.get("section.signatures").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_snapshot_resumes_warm_and_upgrades_to_v2_on_save() {
        use kizzle_cluster::{INDEX_SECTION, STORE_SECTION};
        use kizzle_snapshot::{write_atomic, SnapshotBuilder, MIN_FORMAT_VERSION};

        let dir = state_dir("v1-upgrade");
        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 6);
        let day1 = test_day(d1, 3);
        let day2 = test_day(d2, 4);

        // The reference run: both days through one long-lived service.
        let mut long_lived = fresh_service();
        long_lived.process_day(d1, &day1).expect("day 1");
        let want = long_lived.process_day(d2, &day2).expect("day 2");

        // Re-create day 1's state and write it as a **v1** base: the
        // container and section layout are identical; only the
        // store/index sections differ, carrying sorted id runs as plain
        // absolute varints (the pre-gap-encoding codec).
        let mut day1_service = fresh_service();
        day1_service.process_day(d1, &day1).expect("day 1");
        let mut sections = day1_service.lock_compiler().encode_state_sections();
        for (name, payload) in &mut sections {
            let mut enc = Encoder::new();
            match name.as_str() {
                STORE_SECTION => day1_service.engine().store().encode_into_v1(&mut enc),
                INDEX_SECTION => day1_service.engine().index().encode_into_v1(&mut enc),
                _ => continue,
            }
            *payload = enc.into_bytes();
        }
        let mut builder = SnapshotBuilder::new();
        for (name, payload) in sections {
            builder.section(&name, payload);
        }
        std::fs::create_dir_all(&dir).expect("state dir");
        let bytes = builder.to_bytes_with_version(MIN_FORMAT_VERSION);
        write_atomic(&dir.join(STATE_FILE), &bytes).expect("v1 base written");
        let on_disk = Snapshot::read(&dir.join(STATE_FILE)).expect("v1 base parses");
        assert_eq!(on_disk.version(), MIN_FORMAT_VERSION);

        // The v1 snapshot resumes warm — no cold rebuild. (It was written
        // as a bare base; the absent manifest only adds a note.)
        let (mut resumed, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("v1 state loads");
        assert!(report.is_warm(), "report: {report:?}");
        assert_eq!(resumed.engine().len(), day1_service.engine().len());
        assert_eq!(&*resumed.signatures(), &*day1_service.signatures());

        // Day 2 through the resumed service: byte-identical to the
        // long-lived run, exactly like a v2 resume.
        let mut got = resumed.process_day(d2, &day2).expect("day 2");
        let mut want = want;
        want.clustering_stats = Default::default();
        got.clustering_stats = Default::default();
        assert_eq!(want, got);
        assert_eq!(&*long_lived.signatures(), &*resumed.signatures());

        // Saving rewrites the state at the current format version, and
        // the upgraded chain loads warm again.
        resumed.save(&dir).expect("state saved");
        let upgraded_base = Snapshot::read(&dir.join(STATE_FILE)).expect("v2 base parses");
        assert_eq!(upgraded_base.version(), FORMAT_VERSION);
        let (upgraded, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("v2 state reloads");
        assert!(report.is_warm(), "report: {report:?}");
        assert_eq!(&*upgraded.signatures(), &*resumed.signatures());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_fingerprint_is_sensitive_to_every_field() {
        let base = KizzleConfig::paper();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&KizzleConfig::paper()), "stable");

        let mut c = base;
        c.retention_days += 1;
        assert_ne!(fp, config_fingerprint(&c));
        let mut c = base;
        c.clustering.dbscan.eps += 0.01;
        assert_ne!(fp, config_fingerprint(&c));
        let mut c = base;
        c.clustering.seed ^= 1;
        assert_ne!(fp, config_fingerprint(&c));
        let mut c = base;
        c.token_cap += 1;
        assert_ne!(fp, config_fingerprint(&c));
        assert_ne!(fp, config_fingerprint(&KizzleConfig::fast()));

        // max_day_advance gates ingest requests but shapes no persisted
        // state — tightening it must NOT orphan existing snapshots.
        let mut c = base;
        c.max_day_advance = 5;
        assert_eq!(fp, config_fingerprint(&c), "fingerprint must ignore it");
    }

    #[test]
    fn family_codes_roundtrip() {
        for family in KitFamily::ALL {
            assert_eq!(family_from_code(family_code(family)), Some(family));
        }
        assert_eq!(family_from_code(200), None);
    }

    #[test]
    fn resumed_state_carries_a_sealed_scan_pipeline() {
        let dir = state_dir("pipeline");
        let mut service = fresh_service();
        let d1 = SimDate::new(2014, 8, 5);
        service.process_day(d1, &test_day(d1, 3)).expect("day 1");
        service.save(&dir).expect("state saved");
        let (resumed, report) =
            KizzleService::load(&dir, KizzleConfig::fast()).expect("state loads");
        assert!(report.is_warm(), "report: {report:?}");
        // The set the service publishes was sealed from the decoded
        // signatures before any scan: no handle pays the build.
        let published = resumed.matcher().signatures();
        assert!(published.is_sealed(), "load must publish a sealed set");
        assert_eq!(&*published, &*service.signatures());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn signature_set_roundtrips_in_order() {
        let mut set = SignatureSet::new();
        set.add(
            "Nuclear",
            Signature::new(
                "NEK.sig1",
                vec![
                    Element::Literal("this".to_string()),
                    Element::Class {
                        class: CharClass::AlphaNum,
                        min_len: 3,
                        max_len: 5,
                    },
                ],
                7,
            ),
        );
        set.add(
            "RIG",
            Signature::new("RIG.sig1", vec![Element::Literal("split".to_string())], 4),
        );
        let mut enc = Encoder::new();
        set.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SignatureSet::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, set);
        assert_eq!(restored.labels(), set.labels());
    }

    /// A valid `scan-pipeline` payload, as older snapshots stored it, for
    /// a *different* one-signature set than the one saved beside it: its
    /// only signature is `unescape ( [a-z]{1,16}`, three elements anchored
    /// on `unescape`. Loaders must ignore it and derive the pipeline from
    /// the signatures they decode; trusting it pairs the leftover's
    /// candidate windows with the saved eight-element signature, which
    /// scans past the end of a three-token document.
    const LEFTOVER_PIPELINE: &[u8] = &[
        1, 0, 1, 9, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 0, 0, 0, 2, 3, 1, 0, 0, 0, 3, 4,
        1, 0, 0, 0, 4, 5, 1, 0, 0, 0, 5, 6, 1, 0, 0, 0, 6, 7, 1, 0, 0, 0, 7, 8, 0, 0, 0, 1, 8, 8,
        117, 1, 110, 2, 101, 3, 115, 4, 99, 5, 97, 6, 112, 7, 101, 8, 1, 8, 0, 0, 0, 0, 0, 0, 0,
        117, 110, 101, 115, 99, 97, 112, 101, 1, 0, 0, 3, 0, 8, 8, 237, 34, 222, 224, 0, 1, 1, 23,
        156, 12, 45, 1, 1, 16, 0, 0,
    ];

    /// `eval ( atob ( [a-zA-Z0-9]{1,32} ) ) ;` — eight elements.
    fn eval_atob_signature() -> Signature {
        let lit = |text: &str| Element::Literal(text.to_string());
        Signature::new(
            "NEK.sig1",
            vec![
                lit("eval"),
                lit("("),
                lit("atob"),
                lit("("),
                Element::Class {
                    class: CharClass::AlphaNum,
                    min_len: 1,
                    max_len: 32,
                },
                lit(")"),
                lit(")"),
                lit(";"),
            ],
            3,
        )
    }

    #[test]
    fn leftover_scan_pipeline_section_is_ignored_by_every_loader() {
        let clean = state_dir("leftover-clean");
        let dirty = state_dir("leftover-dirty");
        let service = fresh_service();
        std::sync::Arc::make_mut(&mut service.lock_compiler().signatures)
            .add("Nuclear", eval_atob_signature());
        service.save(&clean).expect("clean chain saved");

        // The same state plus the leftover section, written as a chain
        // base with its manifest.
        let mut sections = service.lock_compiler().encode_state_sections();
        sections.push(("scan-pipeline".to_string(), LEFTOVER_PIPELINE.to_vec()));
        ChainWriter::new(&dirty, STATE_CHAIN_PREFIX)
            .save(sections, DEFAULT_MAX_DELTAS, |manifest, _| {
                manifest.set("token_cap", service.config().token_cap);
            })
            .expect("leftover chain saved");
        assert!(Snapshot::read(&dirty.join(STATE_FILE))
            .expect("base reads")
            .has_section("scan-pipeline"));

        let docs = [
            "<script>eval(atob(aGVsbG8));</script>",
            // The leftover's anchor with its window filled: three tokens.
            "<script>unescape(x</script>",
            "<script>function benign() { return 1; }</script>",
        ];
        // Per document: the verdicts of `KizzleService::load`,
        // `read_signatures` and a polled `ChainFollower`.
        let verdicts = |dir: &Path| -> Vec<[Option<usize>; 3]> {
            let (loaded, _) = KizzleService::load(dir, KizzleConfig::fast()).expect("loads");
            let read = read_signatures(dir).expect("signatures read");
            let follower = std::sync::Arc::new(crate::ChainFollower::new(dir));
            assert!(follower.poll().expect("chain polls"));
            let tailing = crate::Matcher::over(follower);
            docs.iter()
                .map(|doc| {
                    let stream = kizzle_js::tokenize_document(doc);
                    [
                        loaded.matcher().scan_verdict(doc).index.map(|i| i as usize),
                        read.scan_stream_index(&stream),
                        tailing.scan_verdict(doc).index.map(|i| i as usize),
                    ]
                })
                .collect()
        };
        let want = verdicts(&clean);
        assert_eq!(want, vec![[Some(0); 3], [None; 3], [None; 3]]);
        assert_eq!(verdicts(&dirty), want);
        std::fs::remove_dir_all(&clean).ok();
        std::fs::remove_dir_all(&dirty).ok();
    }
}
