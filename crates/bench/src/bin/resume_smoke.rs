//! Resume smoke check: start a persistent run, kill it mid-append,
//! resume, and require the resumed transcript to be byte-identical to an
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
//!
//! Usage: `resume_smoke [--quick]` (or `ACTO_QUICK=1`). Writes
//! `BENCH_resume.json` into the working directory and exits nonzero on
//! any transcript drift.

use std::path::{Path, PathBuf};
use std::time::Instant;

use acto::fuzz::{run_fuzz, FuzzConfig};
use acto::persist::{
    resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, RecoveryPolicy, StoreIo,
};
use acto::{CampaignConfig, Mode, Strategy};
use acto_bench::{git_rev, nproc, quick, render_table, BENCH_SCHEMA_VERSION};
use operators::BugToggles;
use simkube::PlatformBugs;

/// FNV-1a over the transcript bytes: a stable, dependency-free digest
/// for printing and for the drift comparison in the emitted JSON.
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn campaign_config(max_ops: usize) -> CampaignConfig {
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

fn fuzz_config(execs: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig::new("ZooKeeperOp");
    cfg.seed = 0x5E5E;
    cfg.execs = execs;
    cfg.batch = 8;
    cfg.workers = 2;
    cfg
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

fn main() {
    let quick = quick();
    let max_ops = if quick { 12 } else { 24 };
    let execs = if quick { 24 } else { 64 };
    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // Campaign: uninterrupted persistent baseline, then interrupt after
    // two journaled segments and resume at a different worker count.
    let config = campaign_config(max_ops);
    let base_dir = fresh_dir("campaign-base");
    let start = Instant::now();
    let baseline = run_work_stealing_persistent_io(&config, 2, 4, &base_dir, StoreIo::clean())
        .expect("persistent run");
    let campaign_wall = start.elapsed();
    let campaign_digest = digest(&baseline.transcript());
    let _ = std::fs::remove_dir_all(&base_dir);

    let dir = fresh_dir("campaign");
    let _ = run_work_stealing_persistent_io(&config, 2, 4, &dir, StoreIo::clean())
        .expect("persistent run");
    interrupt_journal(&dir, 2);
    let start = Instant::now();
    let resumed =
        resume_work_stealing_with(&config, 4, &dir, RecoveryPolicy::Refuse, StoreIo::clean())
            .expect("resume");
    let resume_wall = start.elapsed();
    let resumed_digest = digest(&resumed.transcript());
    if resumed_digest != campaign_digest {
        failures.push(format!(
            "campaign resume drifted: baseline {campaign_digest:016x} vs resumed {resumed_digest:016x}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(vec![
        "campaign".to_string(),
        format!("{campaign_digest:016x}"),
        format!("{resumed_digest:016x}"),
        if resumed_digest == campaign_digest {
            "ok"
        } else {
            "DRIFT"
        }
        .to_string(),
        format!("{campaign_wall:.2?}"),
        format!("{resume_wall:.2?}"),
    ]);

    // Fuzz: the baseline is the plain in-memory runner (journaling must
    // not perturb the run); interrupt after the first batch barrier.
    let fuzz_baseline = run_fuzz(&fuzz_config(execs)).expect("fuzz config");
    let fuzz_digest = digest(&fuzz_baseline.transcript());

    let dir = fresh_dir("fuzz");
    let start = Instant::now();
    let _ = run_fuzz_persistent_io(&fuzz_config(execs), &dir, false, StoreIo::clean())
        .expect("persistent fuzz");
    let fuzz_wall = start.elapsed();
    interrupt_journal(&dir, 1);
    let start = Instant::now();
    let fuzz_resumed = resume_fuzz_with(
        &fuzz_config(execs),
        &dir,
        RecoveryPolicy::Refuse,
        StoreIo::clean(),
    )
    .expect("resume fuzz");
    let fuzz_resume_wall = start.elapsed();
    let fuzz_resumed_digest = digest(&fuzz_resumed.transcript());
    if fuzz_resumed_digest != fuzz_digest {
        failures.push(format!(
            "fuzz resume drifted: baseline {fuzz_digest:016x} vs resumed {fuzz_resumed_digest:016x}"
        ));
    }
    if fuzz_resumed.corpus.to_json_string() != fuzz_baseline.corpus.to_json_string() {
        failures.push("fuzz resume grew a different corpus".to_string());
    }
    if fuzz_resumed.coverage.digest() != fuzz_baseline.coverage.digest() {
        failures.push("fuzz resume observed different coverage".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(vec![
        "fuzz".to_string(),
        format!("{fuzz_digest:016x}"),
        format!("{fuzz_resumed_digest:016x}"),
        if fuzz_resumed_digest == fuzz_digest {
            "ok"
        } else {
            "DRIFT"
        }
        .to_string(),
        format!("{fuzz_wall:.2?}"),
        format!("{fuzz_resume_wall:.2?}"),
    ]);

    println!(
        "{}",
        render_table(
            "interrupt-then-resume transcript digests",
            &[
                "run",
                "baseline",
                "resumed",
                "drift",
                "full wall",
                "resume wall"
            ],
            &rows,
        )
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"resume\",\n",
            "  \"schema_version\": {},\n",
            "  \"nproc\": {},\n",
            "  \"git_rev\": \"{}\",\n",
            "  \"quick\": {},\n",
            "  \"campaign_max_ops\": {},\n",
            "  \"fuzz_execs\": {},\n",
            "  \"campaign_digest\": \"{:016x}\",\n",
            "  \"campaign_resumed_digest\": \"{:016x}\",\n",
            "  \"fuzz_digest\": \"{:016x}\",\n",
            "  \"fuzz_resumed_digest\": \"{:016x}\",\n",
            "  \"drift\": {},\n",
            "  \"campaign_wall_ms\": {},\n",
            "  \"campaign_resume_wall_ms\": {},\n",
            "  \"fuzz_wall_ms\": {},\n",
            "  \"fuzz_resume_wall_ms\": {}\n",
            "}}\n"
        ),
        BENCH_SCHEMA_VERSION,
        nproc(),
        git_rev(),
        quick,
        max_ops,
        execs,
        campaign_digest,
        resumed_digest,
        fuzz_digest,
        fuzz_resumed_digest,
        !failures.is_empty(),
        campaign_wall.as_millis(),
        resume_wall.as_millis(),
        fuzz_wall.as_millis(),
        fuzz_resume_wall.as_millis(),
    );
    let path = "BENCH_resume.json";
    if let Err(err) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {err}");
    } else {
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "resume: interrupted campaign and fuzz runs resume byte-identical to \
             uninterrupted runs"
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
