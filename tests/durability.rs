//! Durability of the run store under injected faults and arbitrary
//! on-disk damage.
//!
//! Two layers of pinning. The `persist_sweep` harness applies the
//! paper's crash-point sweep to our own store: crash at every mutating
//! IO boundary of a quick campaign and fuzz run, recover, and require
//! the transcript byte-identical to the uninterrupted run — plus
//! transient-error absorption and bit-flip classification. The proptests
//! then damage the on-disk files directly — flipping a seeded bit or
//! truncating at a seeded offset in `journal.jsonl`, `manifest.json`, or
//! `corpus.json` — and require that resume either reproduces the
//! baseline byte for byte or fails with a classified
//! [`PersistError`](acto_repro::acto::persist::PersistError), and that
//! `RecoveryPolicy::Salvage` always reconverges; a panic or a silent
//! divergence anywhere fails the test.

use std::path::PathBuf;
use std::sync::OnceLock;

use acto_repro::acto::fuzz::FuzzConfig;
use acto_repro::acto::persist::{
    load_corpus, resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, PersistErrorKind, RecoveryPolicy, StoreIo,
};
use acto_repro::acto::{persist_sweep, CampaignConfig, Mode, Strategy, SweepOptions};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::{PlatformBugs, SplitMix64};
use proptest::prelude::*;

fn config(max_ops: usize) -> CampaignConfig {
    CampaignConfig {
        operators: vec!["ZooKeeperOp".to_string()],
        mode: Mode::Whitebox,
        bugs: BugToggles::all_injected(),
        platform: PlatformBugs::none(),
        max_ops: Some(max_ops),
        differential: false,
        strategy: Strategy::Full,
        custom_oracles: Vec::new(),
        faults: Default::default(),
        crash_sweep: false,
        topology: None,
    }
}

fn fuzz_config() -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = 0xD0_5E;
    cfg.execs = 8;
    cfg.batch = 4;
    cfg.workers = 2;
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acto-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A completed run's on-disk store plus its reference outputs, captured
/// once so every damage case restores a pristine copy instead of paying
/// for a fresh campaign.
struct Pristine {
    manifest: Vec<u8>,
    journal: Vec<u8>,
    corpus: Option<Vec<u8>>,
    transcript: String,
    corpus_json: Option<String>,
}

impl Pristine {
    fn restore(&self, tag: &str) -> PathBuf {
        let dir = fresh_dir(tag);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("manifest.json"), &self.manifest).expect("manifest");
        std::fs::write(dir.join("journal.jsonl"), &self.journal).expect("journal");
        if let Some(corpus) = &self.corpus {
            std::fs::write(dir.join("corpus.json"), corpus).expect("corpus");
        }
        dir
    }
}

fn campaign_pristine() -> &'static Pristine {
    static ONCE: OnceLock<Pristine> = OnceLock::new();
    ONCE.get_or_init(|| {
        let dir = fresh_dir("campaign-pristine");
        let result = run_work_stealing_persistent_io(&config(8), 2, 4, &dir, StoreIo::clean())
            .expect("persistent campaign");
        let pristine = Pristine {
            manifest: std::fs::read(dir.join("manifest.json")).expect("manifest"),
            journal: std::fs::read(dir.join("journal.jsonl")).expect("journal"),
            corpus: None,
            transcript: result.transcript(),
            corpus_json: None,
        };
        let _ = std::fs::remove_dir_all(&dir);
        pristine
    })
}

fn fuzz_pristine() -> &'static Pristine {
    static ONCE: OnceLock<Pristine> = OnceLock::new();
    ONCE.get_or_init(|| {
        let dir = fresh_dir("fuzz-pristine");
        let result = run_fuzz_persistent_io(&fuzz_config(), &dir, false, StoreIo::clean())
            .expect("persistent fuzz");
        let pristine = Pristine {
            manifest: std::fs::read(dir.join("manifest.json")).expect("manifest"),
            journal: std::fs::read(dir.join("journal.jsonl")).expect("journal"),
            corpus: Some(std::fs::read(dir.join("corpus.json")).expect("corpus")),
            transcript: result.transcript(),
            corpus_json: Some(result.corpus.to_json_string()),
        };
        let _ = std::fs::remove_dir_all(&dir);
        pristine
    })
}

/// Seeded damage: flip one bit at a seeded offset, or truncate at a
/// seeded offset (`flip = false`).
fn damage(bytes: &[u8], seed: u64, flip: bool) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let offset = (rng.next_u64() as usize) % out.len();
    if flip {
        out[offset] ^= 1 << (rng.next_u64() % 8);
    } else {
        out.truncate(offset);
    }
    out
}

#[test]
fn persist_sweep_recovers_every_io_boundary_byte_identically() {
    let opts = SweepOptions {
        campaign: config(8),
        segment_ops: 4,
        fuzz: fuzz_config(),
        scratch: fresh_dir("sweep"),
        seed: 0xACCE55,
    };
    let sweep = persist_sweep(&opts).expect("sweep runs");
    let _ = std::fs::remove_dir_all(&opts.scratch);
    assert!(
        sweep.passed(),
        "durability sweep diverged:\n{}",
        sweep.mismatches.join("\n")
    );
    assert!(sweep.campaign_boundaries >= 7, "campaign sweep too narrow");
    assert!(sweep.fuzz_boundaries >= 7, "fuzz sweep too narrow");
    assert!(sweep.resumed_after_crash > 0);
    assert!(sweep.recreated_after_create_crash > 0);
    assert!(sweep.transient_retries > 0, "backoff never retried");
    assert_eq!(sweep.corrupt_refused, 2, "campaign + fuzz flip refusals");
    assert_eq!(sweep.corrupt_salvaged, 2, "campaign + fuzz flip salvages");
    assert!(
        sweep.recovery_classes.contains_key("torn-tail"),
        "crash sweep never produced a torn tail: {:?}",
        sweep.recovery_classes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn damaged_campaign_journal_resumes_identically_or_classifies(
        seed in 1u64..1_000_000,
        flip in any::<bool>(),
    ) {
        let pristine = campaign_pristine();
        let dir = pristine.restore(&format!("cj-{seed}-{flip}"));
        std::fs::write(
            dir.join("journal.jsonl"),
            damage(&pristine.journal, seed, flip),
        )
        .expect("damage journal");
        match resume_work_stealing_with(
            &config(8), 2, &dir, RecoveryPolicy::Refuse, StoreIo::clean(),
        ) {
            // Damage confined to the tail (or none at all after a benign
            // flip): recovery is silent and byte-identical.
            Ok(res) => prop_assert_eq!(res.transcript(), pristine.transcript.clone()),
            // Mid-file damage: refused with the classified kind, and
            // salvage must reconverge byte-identically.
            Err(e) => {
                prop_assert_eq!(e.kind, PersistErrorKind::Corrupt, "unclassified: {}", e);
                let salvaged = resume_work_stealing_with(
                    &config(8), 4, &dir, RecoveryPolicy::Salvage, StoreIo::clean(),
                );
                match salvaged {
                    Ok(res) => prop_assert_eq!(res.transcript(), pristine.transcript.clone()),
                    Err(e) => prop_assert!(false, "salvage failed: {}", e),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn damaged_fuzz_journal_resumes_identically_or_classifies(
        seed in 1u64..1_000_000,
        flip in any::<bool>(),
    ) {
        let pristine = fuzz_pristine();
        let dir = pristine.restore(&format!("fj-{seed}-{flip}"));
        std::fs::write(
            dir.join("journal.jsonl"),
            damage(&pristine.journal, seed, flip),
        )
        .expect("damage journal");
        match resume_fuzz_with(&fuzz_config(), &dir, RecoveryPolicy::Refuse, StoreIo::clean()) {
            Ok(res) => {
                prop_assert_eq!(res.transcript(), pristine.transcript.clone());
                prop_assert_eq!(
                    res.corpus.to_json_string(),
                    pristine.corpus_json.clone().unwrap()
                );
            }
            Err(e) => {
                prop_assert_eq!(e.kind, PersistErrorKind::Corrupt, "unclassified: {}", e);
                let salvaged =
                    resume_fuzz_with(&fuzz_config(), &dir, RecoveryPolicy::Salvage, StoreIo::clean());
                match salvaged {
                    Ok(res) => {
                        prop_assert_eq!(res.transcript(), pristine.transcript.clone());
                        prop_assert_eq!(
                            res.corpus.to_json_string(),
                            pristine.corpus_json.clone().unwrap()
                        );
                    }
                    Err(e) => prop_assert!(false, "salvage failed: {}", e),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn damaged_manifest_resumes_identically_or_fails_classified(
        seed in 1u64..1_000_000,
        flip in any::<bool>(),
    ) {
        let pristine = campaign_pristine();
        let dir = pristine.restore(&format!("cm-{seed}-{flip}"));
        std::fs::write(
            dir.join("manifest.json"),
            damage(&pristine.manifest, seed, flip),
        )
        .expect("damage manifest");
        match resume_work_stealing_with(
            &config(8), 1, &dir, RecoveryPolicy::Refuse, StoreIo::clean(),
        ) {
            // The flip landed somewhere non-semantic (whitespace, an
            // uncompared field): the manifest still matches and the
            // resume must be exact.
            Ok(res) => prop_assert_eq!(res.transcript(), pristine.transcript.clone()),
            // Otherwise the refusal must be a typed PersistError — the
            // match arms below are exhaustive over the kinds a damaged
            // manifest may legitimately produce; anything else (or a
            // panic) fails the case.
            Err(e) => prop_assert!(
                matches!(
                    e.kind,
                    PersistErrorKind::Format
                        | PersistErrorKind::Corrupt
                        | PersistErrorKind::Mismatch
                        | PersistErrorKind::Io
                ),
                "unclassified manifest failure: {}",
                e
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn damaged_corpus_is_rebuilt_by_resume_and_never_panics_the_reader(
        seed in 1u64..1_000_000,
        flip in any::<bool>(),
    ) {
        let pristine = fuzz_pristine();
        let dir = pristine.restore(&format!("fc-{seed}-{flip}"));
        std::fs::write(
            dir.join("corpus.json"),
            damage(pristine.corpus.as_ref().unwrap(), seed, flip),
        )
        .expect("damage corpus");
        // The checked reader classifies or succeeds — never panics.
        let _ = load_corpus(&dir);
        // The corpus is derived state: resume rebuilds it from the
        // journal, so corpus damage must be fully repaired.
        let res = resume_fuzz_with(&fuzz_config(), &dir, RecoveryPolicy::Refuse, StoreIo::clean());
        match res {
            Ok(res) => {
                prop_assert_eq!(res.transcript(), pristine.transcript.clone());
                prop_assert_eq!(
                    res.corpus.to_json_string(),
                    pristine.corpus_json.clone().unwrap()
                );
                let on_disk =
                    std::fs::read_to_string(dir.join("corpus.json")).expect("corpus rewritten");
                prop_assert_eq!(on_disk, pristine.corpus_json.clone().unwrap());
            }
            Err(e) => prop_assert!(false, "resume failed on derived-state damage: {}", e),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
