//! The persist sweep: Acto's crash-point sweep turned on its own run
//! store (paper §5, applied to ourselves).
//!
//! The paper's core claim is that systematically crashing a system at
//! every state-mutation boundary and checking reconvergence finds real
//! operation bugs. The run store in [`crate::persist`] is itself such a
//! system: its state mutations are filesystem operations, its
//! "reconvergence" is a resume that must produce a transcript
//! byte-identical to an uninterrupted run. This module enumerates every
//! mutating IO boundary of a persistent campaign and a persistent fuzz
//! run, crashes the store at each one through [`StoreIo`]'s fault
//! injector, recovers (resume when the manifest committed, re-create when
//! the crash preceded the commit point), and compares transcripts —
//! cycling the resume through 1/2/4 workers so worker count is swept too.
//!
//! Beyond crashes, the sweep proves the other two fault classes:
//! transient `EIO`-style errors must be absorbed by the bounded-backoff
//! retry loop without changing the transcript, and a seeded bit flip in a
//! mid-journal record must be *refused* with a classified
//! [`PersistErrorKind::Corrupt`] error under [`RecoveryPolicy::Refuse`]
//! and *salvaged* to a byte-identical transcript under
//! [`RecoveryPolicy::Salvage`].
//!
//! The harness returns a [`DurabilitySweep`] report; `crates/bench`'s
//! `persist_sweep` binary emits it as `BENCH_durability.json` and the
//! `durability-smoke` CI job runs the quick variant on every push.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::campaign::CampaignConfig;
use crate::fuzz::FuzzConfig;
use crate::persist::{
    resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, IoFaultPlan, PersistError, PersistErrorKind, RecoveryPolicy,
    StoreIo,
};

/// What to sweep. The configurations should be small (the sweep runs the
/// whole campaign/fuzz run once per IO boundary) and must produce at
/// least two journal appends so bit-flip corruption lands mid-file.
pub struct SweepOptions {
    /// Campaign under sweep.
    pub campaign: CampaignConfig,
    /// Campaign segment size.
    pub segment_ops: usize,
    /// Fuzz run under sweep.
    pub fuzz: FuzzConfig,
    /// Scratch directory for the per-boundary stores (created, then
    /// cleaned as the sweep advances).
    pub scratch: PathBuf,
    /// Seed for the injectors' torn-write lengths and bit-flip positions.
    pub seed: u64,
}

/// What the sweep observed; `mismatches` empty means every boundary
/// recovered byte-identically and every fault was classified.
#[derive(Debug, Default)]
pub struct DurabilitySweep {
    /// Mutating IO boundaries of the uninterrupted campaign run.
    pub campaign_boundaries: u64,
    /// Mutating IO boundaries of the uninterrupted fuzz run.
    pub fuzz_boundaries: u64,
    /// Crash points recovered by resuming an existing store.
    pub resumed_after_crash: u64,
    /// Crash points that hit before the manifest commit point and were
    /// recovered by creating the store again.
    pub recreated_after_create_crash: u64,
    /// Damaged-record classes seen across all recoveries, by
    /// [`crate::persist::RecoveryClass`] name.
    pub recovery_classes: BTreeMap<String, u64>,
    /// Backoff retries consumed absorbing injected transient errors.
    pub transient_retries: u64,
    /// Mid-file corruptions refused with a classified error.
    pub corrupt_refused: u64,
    /// Mid-file corruptions salvaged to a byte-identical transcript.
    pub corrupt_salvaged: u64,
    /// Human-readable descriptions of every divergence (empty = pass).
    pub mismatches: Vec<String>,
}

impl DurabilitySweep {
    /// Whether every boundary recovered byte-identically.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Total crash boundaries swept.
    pub fn boundaries(&self) -> u64 {
        self.campaign_boundaries + self.fuzz_boundaries
    }
}

/// Resume worker counts cycle through these as the sweep advances, so
/// every recovery worker count is exercised across the boundary
/// enumeration.
const WORKER_CYCLE: [usize; 3] = [1, 2, 4];

/// Runs the full sweep: campaign crash-point enumeration, fuzz
/// crash-point enumeration, transient-error absorption, and bit-flip
/// classification, for both run kinds.
pub fn persist_sweep(opts: &SweepOptions) -> Result<DurabilitySweep, PersistError> {
    let mut sweep = DurabilitySweep::default();
    sweep_campaign(opts, &mut sweep)?;
    sweep_fuzz(opts, &mut sweep)?;
    Ok(sweep)
}

fn fresh_dir(scratch: &Path, tag: &str) -> PathBuf {
    let dir = scratch.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Folds the quarantine classes of a store's `recovery_report.json` (if
/// one was written) into the sweep's class census.
fn collect_recovery_classes(dir: &Path, sweep: &mut DurabilitySweep) {
    let Ok(raw) = std::fs::read_to_string(dir.join("recovery_report.json")) else {
        return;
    };
    let Ok(root) = crdspec::json::from_str(&raw) else {
        return;
    };
    let Some(quarantined) = root.get("quarantined").and_then(|v| v.as_array()) else {
        return;
    };
    for q in quarantined {
        if let Some(class) = q.get("class").and_then(|c| c.as_str()) {
            *sweep.recovery_classes.entry(class.to_string()).or_insert(0) += 1;
        }
    }
}

/// Where `got` first departs from `want`, for a mismatch report: the
/// first differing line, or the line counts when one is a prefix of the
/// other.
fn first_difference(want: &str, got: &str) -> String {
    let differing = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g);
    match differing {
        Some((i, (w, g))) => format!("first differing line {}: expected {w:?}, got {g:?}", i + 1),
        None => format!(
            "expected {} lines, got {}",
            want.lines().count(),
            got.lines().count()
        ),
    }
}

fn sweep_campaign(opts: &SweepOptions, sweep: &mut DurabilitySweep) -> Result<(), PersistError> {
    // Uninterrupted baseline: fixes the boundary count N and the
    // reference transcript (worker-count-invariant by the core contract).
    let base_dir = fresh_dir(&opts.scratch, "campaign-base");
    let base_io = StoreIo::clean();
    let baseline = run_work_stealing_persistent_io(
        &opts.campaign,
        2,
        opts.segment_ops,
        &base_dir,
        base_io.clone(),
    )?;
    let reference = baseline.transcript();
    let base_stats = base_io.stats();
    sweep.campaign_boundaries = base_stats.ops;

    // Crash at every boundary, recover, compare.
    for k in 1..=base_stats.ops {
        let dir = fresh_dir(&opts.scratch, &format!("campaign-k{k}"));
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed ^ k,
            crash_at: Some(k),
            ..IoFaultPlan::default()
        });
        let _ = run_work_stealing_persistent_io(&opts.campaign, 2, opts.segment_ops, &dir, io.clone());
        if !io.stats().crashed {
            sweep
                .mismatches
                .push(format!("campaign boundary {k}: injected crash never fired"));
            continue;
        }
        let workers = WORKER_CYCLE[(k as usize) % WORKER_CYCLE.len()];
        let recovered = if dir.join("manifest.json").exists() {
            sweep.resumed_after_crash += 1;
            resume_work_stealing_with(
                &opts.campaign,
                workers,
                &dir,
                RecoveryPolicy::Refuse,
                StoreIo::clean(),
            )
        } else {
            // The crash beat the manifest commit point: the store never
            // existed, so recovery is simply creating it again.
            sweep.recreated_after_create_crash += 1;
            run_work_stealing_persistent_io(
                &opts.campaign,
                workers,
                opts.segment_ops,
                &dir,
                StoreIo::clean(),
            )
        };
        match recovered {
            Ok(res) => {
                let transcript = res.transcript();
                if transcript != reference {
                    sweep.mismatches.push(format!(
                        "campaign boundary {k}: transcript diverged after recovery at {workers} workers: {}",
                        first_difference(&reference, &transcript)
                    ));
                }
            }
            Err(e) => sweep.mismatches.push(format!(
                "campaign boundary {k}: recovery at {workers} workers failed: {e}"
            )),
        }
        collect_recovery_classes(&dir, sweep);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Transient IO errors must be absorbed by backoff, invisibly.
    let dir = fresh_dir(&opts.scratch, "campaign-transient");
    let io = StoreIo::with_plan(IoFaultPlan {
        seed: opts.seed,
        transient_at: [2u64, 5].into_iter().filter(|k| *k <= base_stats.ops).collect(),
        ..IoFaultPlan::default()
    });
    match run_work_stealing_persistent_io(&opts.campaign, 2, opts.segment_ops, &dir, io.clone()) {
        Ok(res) if res.transcript() == reference => {
            let retries = io.stats().retries;
            if retries == 0 {
                sweep
                    .mismatches
                    .push("campaign transient: no retries were taken".to_string());
            }
            sweep.transient_retries += retries;
        }
        Ok(_) => sweep
            .mismatches
            .push("campaign transient: transcript diverged".to_string()),
        Err(e) => sweep
            .mismatches
            .push(format!("campaign transient: run failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A bit flip in a mid-journal record: refused with a classified
    // error by default, salvaged byte-identically on request.
    if base_stats.appends >= 2 {
        let flip_at = base_stats
            .first_append_op
            .expect("appends >= 2 implies a first append");
        let dir = fresh_dir(&opts.scratch, "campaign-flip");
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed,
            flip_at: Some(flip_at),
            ..IoFaultPlan::default()
        });
        let _ = run_work_stealing_persistent_io(&opts.campaign, 2, opts.segment_ops, &dir, io)?;
        match resume_work_stealing_with(&opts.campaign, 1, &dir, RecoveryPolicy::Refuse, StoreIo::clean()) {
            Err(e) if e.kind == PersistErrorKind::Corrupt => sweep.corrupt_refused += 1,
            Err(e) => sweep
                .mismatches
                .push(format!("campaign flip: refusal was misclassified: {e}")),
            Ok(_) => sweep
                .mismatches
                .push("campaign flip: corruption was not refused".to_string()),
        }
        collect_recovery_classes(&dir, sweep);
        match resume_work_stealing_with(&opts.campaign, 2, &dir, RecoveryPolicy::Salvage, StoreIo::clean()) {
            Ok(res) if res.transcript() == reference => sweep.corrupt_salvaged += 1,
            Ok(_) => sweep
                .mismatches
                .push("campaign flip: salvage diverged".to_string()),
            Err(e) => sweep
                .mismatches
                .push(format!("campaign flip: salvage failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        sweep.mismatches.push(format!(
            "campaign sweep config journals only {} segments; need >= 2 for mid-file corruption",
            base_stats.appends
        ));
    }

    let _ = std::fs::remove_dir_all(&base_dir);
    Ok(())
}

fn sweep_fuzz(opts: &SweepOptions, sweep: &mut DurabilitySweep) -> Result<(), PersistError> {
    let base_dir = fresh_dir(&opts.scratch, "fuzz-base");
    let base_io = StoreIo::clean();
    let baseline = run_fuzz_persistent_io(&opts.fuzz, &base_dir, false, base_io.clone())?;
    let reference = baseline.transcript();
    let reference_corpus = baseline.corpus.to_json_string();
    let base_stats = base_io.stats();
    sweep.fuzz_boundaries = base_stats.ops;

    for k in 1..=base_stats.ops {
        let dir = fresh_dir(&opts.scratch, &format!("fuzz-k{k}"));
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed ^ k,
            crash_at: Some(k),
            ..IoFaultPlan::default()
        });
        let _ = run_fuzz_persistent_io(&opts.fuzz, &dir, false, io.clone());
        if !io.stats().crashed {
            sweep
                .mismatches
                .push(format!("fuzz boundary {k}: injected crash never fired"));
            continue;
        }
        let mut cfg = opts.fuzz.clone();
        cfg.workers = WORKER_CYCLE[(k as usize) % WORKER_CYCLE.len()];
        let workers = cfg.workers;
        let recovered = if dir.join("manifest.json").exists() {
            sweep.resumed_after_crash += 1;
            resume_fuzz_with(&cfg, &dir, RecoveryPolicy::Refuse, StoreIo::clean())
        } else {
            sweep.recreated_after_create_crash += 1;
            run_fuzz_persistent_io(&cfg, &dir, false, StoreIo::clean())
        };
        match recovered {
            Ok(res) => {
                let transcript = res.transcript();
                if transcript != reference {
                    sweep.mismatches.push(format!(
                        "fuzz boundary {k}: transcript diverged after recovery at {workers} workers: {}",
                        first_difference(&reference, &transcript)
                    ));
                }
                let corpus = res.corpus.to_json_string();
                if corpus != reference_corpus {
                    sweep.mismatches.push(format!(
                        "fuzz boundary {k}: corpus diverged after recovery at {workers} workers: {}",
                        first_difference(&reference_corpus, &corpus)
                    ));
                }
            }
            Err(e) => sweep.mismatches.push(format!(
                "fuzz boundary {k}: recovery at {workers} workers failed: {e}"
            )),
        }
        collect_recovery_classes(&dir, sweep);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Transient absorption.
    let dir = fresh_dir(&opts.scratch, "fuzz-transient");
    let io = StoreIo::with_plan(IoFaultPlan {
        seed: opts.seed,
        transient_at: [3u64, 7].into_iter().filter(|k| *k <= base_stats.ops).collect(),
        ..IoFaultPlan::default()
    });
    match run_fuzz_persistent_io(&opts.fuzz, &dir, false, io.clone()) {
        Ok(res) if res.transcript() == reference => {
            let retries = io.stats().retries;
            if retries == 0 {
                sweep
                    .mismatches
                    .push("fuzz transient: no retries were taken".to_string());
            }
            sweep.transient_retries += retries;
        }
        Ok(_) => sweep
            .mismatches
            .push("fuzz transient: transcript diverged".to_string()),
        Err(e) => sweep
            .mismatches
            .push(format!("fuzz transient: run failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Bit-flip classification: refuse, then salvage (which truncates at
    // the damaged round and re-executes forward).
    if base_stats.appends >= 2 {
        let flip_at = base_stats
            .first_append_op
            .expect("appends >= 2 implies a first append");
        let dir = fresh_dir(&opts.scratch, "fuzz-flip");
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed,
            flip_at: Some(flip_at),
            ..IoFaultPlan::default()
        });
        let _ = run_fuzz_persistent_io(&opts.fuzz, &dir, false, io)?;
        match resume_fuzz_with(&opts.fuzz, &dir, RecoveryPolicy::Refuse, StoreIo::clean()) {
            Err(e) if e.kind == PersistErrorKind::Corrupt => sweep.corrupt_refused += 1,
            Err(e) => sweep
                .mismatches
                .push(format!("fuzz flip: refusal was misclassified: {e}")),
            Ok(_) => sweep
                .mismatches
                .push("fuzz flip: corruption was not refused".to_string()),
        }
        collect_recovery_classes(&dir, sweep);
        match resume_fuzz_with(&opts.fuzz, &dir, RecoveryPolicy::Salvage, StoreIo::clean()) {
            Ok(res) if res.transcript() == reference => {
                if res.corpus.to_json_string() != reference_corpus {
                    sweep
                        .mismatches
                        .push("fuzz flip: salvage corpus diverged".to_string());
                } else {
                    sweep.corrupt_salvaged += 1;
                }
            }
            Ok(_) => sweep
                .mismatches
                .push("fuzz flip: salvage transcript diverged".to_string()),
            Err(e) => sweep
                .mismatches
                .push(format!("fuzz flip: salvage failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        sweep.mismatches.push(format!(
            "fuzz sweep config journals only {} rounds; need >= 2 for mid-file corruption",
            base_stats.appends
        ));
    }

    let _ = std::fs::remove_dir_all(&base_dir);
    Ok(())
}
