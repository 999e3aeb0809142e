//! Resume study: start a persistent run, kill it mid-append, resume, and
//! require the resumed transcript to be byte-identical to an
//! uninterrupted run.
//!
//! Exercises both journaled run kinds in `acto::persist`: a work-stealing
//! campaign (interrupted after two completed segments) and a
//! coverage-guided fuzz run (interrupted after the first batch barrier).
//! The interruption is simulated the way a real crash looks on disk —
//! the journal is truncated and a torn partial line is appended, exactly
//! what a process killed mid-write leaves behind. The resumed run must
//! match the uninterrupted baseline's transcript digest; the fuzz resume
//! must also reproduce the corpus serialization and coverage digest.
//! Fails on any transcript drift.

use std::path::{Path, PathBuf};

use acto::fuzz::run_fuzz;
use acto::persist::{
    resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, RecoveryPolicy, StoreIo,
};
use crdspec::Value;

use super::{journaled_campaign, ms, timed, zookeeper_fuzz};
use crate::harness::Outcome;

/// FNV-1a over the transcript bytes, as 16 hex digits: a stable,
/// dependency-free digest for the drift comparison.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acto-resume-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Keeps the first `keep` journal lines and appends a torn partial line.
fn interrupt_journal(dir: &Path, keep: usize) {
    let journal = dir.join("journal.jsonl");
    let raw = std::fs::read_to_string(&journal).expect("journal exists");
    let mut kept: String = raw.lines().take(keep).map(|l| format!("{l}\n")).collect();
    kept.push_str("{\"segment\": 99, \"tri");
    std::fs::write(&journal, kept).expect("truncate journal");
}

pub(super) fn run(quick: bool) -> Outcome {
    let max_ops = if quick { 12 } else { 24 };
    let execs = if quick { 24 } else { 64 };
    let mut failures = Vec::new();

    // Campaign: uninterrupted persistent baseline, then interrupt after
    // two journaled segments and resume at a different worker count.
    let config = journaled_campaign(max_ops);
    let base_dir = fresh_dir("campaign-base");
    let (baseline, campaign_wall) = timed(|| {
        run_work_stealing_persistent_io(&config, 2, 4, &base_dir, StoreIo::clean())
            .expect("persistent run")
    });
    let campaign_digest = digest(&baseline.transcript());
    let _ = std::fs::remove_dir_all(&base_dir);

    let dir = fresh_dir("campaign");
    let _ = run_work_stealing_persistent_io(&config, 2, 4, &dir, StoreIo::clean())
        .expect("persistent run");
    interrupt_journal(&dir, 2);
    let (resumed, resume_wall) = timed(|| {
        resume_work_stealing_with(&config, 4, &dir, RecoveryPolicy::Refuse, StoreIo::clean())
            .expect("resume")
    });
    let resumed_digest = digest(&resumed.transcript());
    if resumed_digest != campaign_digest {
        failures.push(format!(
            "campaign resume drifted: baseline {campaign_digest} vs resumed {resumed_digest}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Fuzz: the baseline is the plain in-memory runner (journaling must
    // not perturb the run); interrupt after the first batch barrier.
    let fuzz_config = zookeeper_fuzz(execs, 0x5E5E, 8, 2);
    let fuzz_baseline = run_fuzz(&fuzz_config).expect("fuzz config");
    let fuzz_digest = digest(&fuzz_baseline.transcript());

    let dir = fresh_dir("fuzz");
    let (_, fuzz_wall) = timed(|| {
        run_fuzz_persistent_io(&fuzz_config, &dir, false, StoreIo::clean())
            .expect("persistent fuzz")
    });
    interrupt_journal(&dir, 1);
    let (fuzz_resumed, fuzz_resume_wall) = timed(|| {
        resume_fuzz_with(&fuzz_config, &dir, RecoveryPolicy::Refuse, StoreIo::clean())
            .expect("resume fuzz")
    });
    let fuzz_resumed_digest = digest(&fuzz_resumed.transcript());
    if fuzz_resumed_digest != fuzz_digest {
        failures.push(format!(
            "fuzz resume drifted: baseline {fuzz_digest} vs resumed {fuzz_resumed_digest}"
        ));
    }
    if fuzz_resumed.corpus.to_json_string() != fuzz_baseline.corpus.to_json_string() {
        failures.push("fuzz resume grew a different corpus".to_string());
    }
    if fuzz_resumed.coverage.digest() != fuzz_baseline.coverage.digest() {
        failures.push("fuzz resume observed different coverage".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        artifact: Value::object([
            ("campaign_max_ops", Value::from(max_ops)),
            ("fuzz_execs", execs.into()),
            ("campaign_digest", campaign_digest.into()),
            ("campaign_resumed_digest", resumed_digest.into()),
            ("fuzz_digest", fuzz_digest.into()),
            ("fuzz_resumed_digest", fuzz_resumed_digest.into()),
            ("drift", (!failures.is_empty()).into()),
            ("campaign_wall_ms", ms(campaign_wall)),
            ("campaign_resume_wall_ms", ms(resume_wall)),
            ("fuzz_wall_ms", ms(fuzz_wall)),
            ("fuzz_resume_wall_ms", ms(fuzz_resume_wall)),
        ]),
        failures,
    }
}
