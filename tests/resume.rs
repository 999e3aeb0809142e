//! Interrupted-then-resumed runs are byte-identical to uninterrupted runs.
//!
//! The persistence contract: a campaign or fuzz run journaled through
//! `acto::persist` can be killed at any point (simulated here by
//! truncating the append-only journal mid-line, exactly what a process
//! death during an append leaves behind), then resumed — and the resumed
//! run's transcript equals an uninterrupted run's transcript at *any*
//! worker count. For fuzz runs the final corpus serialization and the
//! coverage digest are pinned too.

use std::path::PathBuf;

use acto_repro::acto::fuzz::{replay_corpus, run_fuzz, run_random, Corpus, FuzzConfig};
use acto_repro::acto::parallel::run_work_stealing_with;
use acto_repro::acto::persist::{
    resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, PersistErrorKind, RecoveryPolicy, StoreIo,
};
use acto_repro::acto::{CampaignConfig, Mode, Strategy};
use acto_repro::operators::BugToggles;
use acto_repro::simkube::PlatformBugs;

#[test]
fn a_composition_is_refused_by_the_single_operator_runners() {
    let campaign_dir = fresh_dir("composed-campaign");
    let fuzz_dir = fresh_dir("composed-fuzz");
    let mut campaign = config("ZooKeeperOp", 4);
    campaign.operators.push("RabbitMQOp".to_string());
    let mut fuzz = fuzz_config(7, 1);
    fuzz.campaign = campaign.clone();
    let corpus = Corpus {
        operator: "ZooKeeperOp".to_string(),
        entries: Vec::new(),
    };
    let in_memory = [
        run_fuzz(&fuzz).map(drop),
        run_random(&fuzz).map(drop),
        replay_corpus(&fuzz, &corpus).map(drop),
    ];
    for err in in_memory.map(|r| r.expect_err("a composition is refused")) {
        assert!(err.contains("run_composed_"), "{err}");
    }
    let stored = [
        run_fuzz_persistent_io(&fuzz, &fuzz_dir, false, StoreIo::clean()).map(drop),
        run_work_stealing_persistent_io(&campaign, 2, 4, &campaign_dir, StoreIo::clean()).map(drop),
        resume_work_stealing_with(
            &campaign,
            2,
            &campaign_dir,
            RecoveryPolicy::Refuse,
            StoreIo::clean(),
        )
        .map(drop),
    ];
    for result in stored {
        let err = result.expect_err("a composition is refused");
        assert_eq!(err.kind, PersistErrorKind::Run);
        assert!(err.detail.contains("run_composed_"), "{}", err.detail);
    }
    for dir in [&campaign_dir, &fuzz_dir] {
        assert!(!dir.exists(), "{} was created", dir.display());
    }
}

fn config(operator: &str, max_ops: usize) -> CampaignConfig {
    CampaignConfig {
        operators: vec![operator.to_string()],
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

fn fuzz_config(seed: u64, workers: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = seed;
    cfg.execs = 24;
    cfg.batch = 8;
    cfg.workers = workers;
    cfg
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acto-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Keeps the first `keep` journal lines and appends a torn partial line —
/// the on-disk state a process killed mid-append leaves behind.
fn interrupt_journal(dir: &std::path::Path, keep: usize) {
    let journal = dir.join("journal.jsonl");
    let raw = std::fs::read_to_string(&journal).expect("journal exists");
    let mut kept: String = raw.lines().take(keep).map(|l| format!("{l}\n")).collect();
    kept.push_str("{\"segment\": 99, \"tri");
    std::fs::write(&journal, kept).expect("truncate journal");
}

#[test]
fn interrupted_campaign_resumes_byte_identical_at_any_worker_count() {
    let config = config("ZooKeeperOp", 14);
    let segment_ops = 4;
    let baseline = run_work_stealing_with(&config, 2, segment_ops);
    assert!(baseline.failed_segments.is_empty());

    for workers in [1usize, 2, 4] {
        let dir = fresh_dir(&format!("campaign-w{workers}"));

        // A full persistent run is itself transcript-identical.
        let full = run_work_stealing_persistent_io(&config, 2, segment_ops, &dir, StoreIo::clean())
            .expect("persistent run");
        assert_eq!(
            baseline.transcript(),
            full.transcript(),
            "journaling must not perturb the run"
        );

        // Kill after two journaled segments (plus a torn append), then
        // resume at this worker count.
        interrupt_journal(&dir, 2);
        let resumed = resume_work_stealing_with(
            &config,
            workers,
            &dir,
            RecoveryPolicy::Refuse,
            StoreIo::clean(),
        )
        .expect("resume");
        assert!(resumed.failed_segments.is_empty());
        assert_eq!(
            baseline.transcript(),
            resumed.transcript(),
            "resume at {workers} workers diverged from the uninterrupted run"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resuming_a_complete_campaign_reexecutes_nothing_new() {
    let config = config("RabbitMQOp", 10);
    let dir = fresh_dir("campaign-complete");
    let full = run_work_stealing_persistent_io(&config, 2, 4, &dir, StoreIo::clean())
        .expect("persistent run");
    let journal_after_full =
        std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal exists");
    let resumed =
        resume_work_stealing_with(&config, 2, &dir, RecoveryPolicy::Refuse, StoreIo::clean())
            .expect("resume");
    assert_eq!(full.transcript(), resumed.transcript());
    let journal_after_resume =
        std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal exists");
    assert_eq!(
        journal_after_full, journal_after_resume,
        "a complete journal gains no lines on resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_fuzz_resumes_byte_identical_at_any_worker_count() {
    let baseline = run_fuzz(&fuzz_config(0xF5ED, 1)).expect("fuzz config");
    assert!(!baseline.corpus.entries.is_empty());

    for workers in [1usize, 2, 4] {
        let dir = fresh_dir(&format!("fuzz-w{workers}"));

        let full =
            run_fuzz_persistent_io(&fuzz_config(0xF5ED, workers), &dir, false, StoreIo::clean())
                .expect("persistent fuzz");
        assert_eq!(
            baseline.transcript(),
            full.transcript(),
            "journaling must not perturb the run ({workers} workers)"
        );

        // Kill after the first batch barrier (plus a torn append), then
        // resume: the journal fast-forwards coverage, corpus, the dedup
        // set, and the random stream, so the remaining rounds draw exactly
        // the inputs the uninterrupted run drew.
        interrupt_journal(&dir, 1);
        let resumed = resume_fuzz_with(
            &fuzz_config(0xF5ED, workers),
            &dir,
            RecoveryPolicy::Refuse,
            StoreIo::clean(),
        )
        .expect("resume fuzz");
        assert_eq!(
            baseline.transcript(),
            resumed.transcript(),
            "fuzz resume at {workers} workers diverged"
        );
        assert_eq!(
            baseline.corpus.to_json_string(),
            resumed.corpus.to_json_string(),
            "fuzz resume at {workers} workers grew a different corpus"
        );
        assert_eq!(
            baseline.coverage.digest(),
            resumed.coverage.digest(),
            "fuzz resume at {workers} workers observed different coverage"
        );

        // The store's final corpus file matches the in-memory corpus.
        let on_disk = std::fs::read_to_string(dir.join("corpus.json")).expect("corpus written");
        assert_eq!(on_disk, resumed.corpus.to_json_string());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_refuses_a_mismatched_configuration() {
    let dir = fresh_dir("fuzz-mismatch");
    let _ = run_fuzz_persistent_io(&fuzz_config(0xBEEF, 1), &dir, false, StoreIo::clean())
        .expect("persistent fuzz");
    let err = resume_fuzz_with(
        &fuzz_config(0xBEEF + 1, 1),
        &dir,
        RecoveryPolicy::Refuse,
        StoreIo::clean(),
    )
    .expect_err("seed mismatch");
    assert!(
        err.to_string().contains("does not match"),
        "error explains the mismatch: {err}"
    );
    assert!(
        err.to_string().contains("`seed`"),
        "error names the differing field: {err}"
    );
    let err = resume_work_stealing_with(
        &config("ZooKeeperOp", 10),
        1,
        &dir,
        RecoveryPolicy::Refuse,
        StoreIo::clean(),
    )
    .expect_err("kind mismatch");
    assert!(
        err.to_string().contains("fuzz"),
        "error names the stored kind: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn minimize_flag_shrinks_alarm_raising_corpus_entries_offline() {
    let dir = fresh_dir("fuzz-minimize");
    let mut cfg = fuzz_config(0xF5ED, 2);
    cfg.execs = 8;
    cfg.batch = 4;
    let result =
        run_fuzz_persistent_io(&cfg, &dir, true, StoreIo::clean()).expect("persistent fuzz");
    let minimized = std::fs::read_to_string(dir.join("minimized.json")).expect("minimized.json");
    let root = acto_repro::crdspec::json::from_str(&minimized).expect("valid json");
    let entries = root
        .get("entries")
        .and_then(|v| v.as_array().map(|a| a.len()))
        .expect("entries array");
    let alarm_raising = result
        .corpus
        .entries
        .iter()
        .filter(|e| {
            result.records[e.exec]
                .trials
                .iter()
                .any(|t| !t.alarms.is_empty())
        })
        .count();
    assert_eq!(
        entries, alarm_raising,
        "one minimized reproduction per alarm-raising corpus entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_operator_fails_before_the_store_is_created() {
    let campaign_dir = fresh_dir("unknown-campaign");
    let fuzz_dir = fresh_dir("unknown-fuzz");
    let mut fuzz = fuzz_config(7, 1);
    fuzz.campaign.operators = vec!["NoSuchOp".to_string()];
    let errors = [
        (
            &campaign_dir,
            run_work_stealing_persistent_io(
                &config("NoSuchOp", 4),
                2,
                4,
                &campaign_dir,
                StoreIo::clean(),
            )
            .map(drop),
        ),
        (
            &fuzz_dir,
            run_fuzz_persistent_io(&fuzz, &fuzz_dir, false, StoreIo::clean()).map(drop),
        ),
        (
            &campaign_dir,
            resume_work_stealing_with(
                &config("NoSuchOp", 4),
                2,
                &campaign_dir,
                RecoveryPolicy::Refuse,
                StoreIo::clean(),
            )
            .map(drop),
        ),
    ];
    for (dir, result) in errors {
        let err = result.expect_err("an unknown operator is refused");
        assert_eq!(err.kind, PersistErrorKind::Run);
        assert!(err.detail.contains("\"NoSuchOp\""), "{}", err.detail);
        assert!(
            err.detail.contains("ZooKeeperOp"),
            "lists the valid names: {}",
            err.detail
        );
        assert!(
            !dir.join("manifest.json").exists(),
            "{} left a manifest",
            dir.display()
        );
    }
}
