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
//! CI `smoke` job runs the quick variant on every push.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::campaign::CampaignConfig;
use crate::fuzz::{FuzzConfig, FuzzResult};
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
    sweep.campaign_boundaries = sweep_kind(
        opts,
        &mut sweep,
        SweptRun {
            label: "campaign",
            journal_unit: "segments",
            workers: 2,
            refuse_workers: 1,
            transient_at: [2, 5],
            create: &|dir, workers, io| {
                run_work_stealing_persistent_io(&opts.campaign, workers, opts.segment_ops, dir, io)
                    .map(|res| res.transcript())
            },
            resume: &|dir, workers, policy| {
                resume_work_stealing_with(&opts.campaign, workers, dir, policy, StoreIo::clean())
                    .map(|res| res.transcript())
            },
        },
    )?;
    // A fuzz run renders as its transcript followed by its corpus JSON, so
    // a divergence in either is a mismatch.
    let fuzz_at = |workers: usize| FuzzConfig {
        workers,
        ..opts.fuzz.clone()
    };
    let render = |res: FuzzResult| res.transcript() + &res.corpus.to_json_string();
    sweep.fuzz_boundaries = sweep_kind(
        opts,
        &mut sweep,
        SweptRun {
            label: "fuzz",
            journal_unit: "rounds",
            workers: opts.fuzz.workers,
            refuse_workers: opts.fuzz.workers,
            transient_at: [3, 7],
            create: &|dir, workers, io| {
                run_fuzz_persistent_io(&fuzz_at(workers), dir, false, io).map(render)
            },
            resume: &|dir, workers, policy| {
                resume_fuzz_with(&fuzz_at(workers), dir, policy, StoreIo::clean()).map(render)
            },
        },
    )?;
    Ok(sweep)
}

/// One run kind under sweep.
struct SweptRun<'a> {
    /// Prefix of the scratch directories and the mismatch reports.
    label: &'static str,
    /// What one journal record holds, for the too-short-journal report.
    journal_unit: &'static str,
    /// Workers of the baseline, transient and salvage runs.
    workers: usize,
    /// Workers of the resume that must refuse the bit flip.
    refuse_workers: usize,
    /// Mutating IO operations whose first attempt fails transiently.
    transient_at: [u64; 2],
    /// Creates a store in a directory through an IO handle, runs it with
    /// the given workers, and renders the result.
    create: &'a dyn Fn(&Path, usize, StoreIo) -> Result<String, PersistError>,
    /// Resumes the store in a directory with the given workers under a
    /// policy, and renders the result.
    resume: &'a dyn Fn(&Path, usize, RecoveryPolicy) -> Result<String, PersistError>,
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

/// Sweeps one run kind: crash at every mutating IO boundary of an
/// uninterrupted baseline and recover, absorb transient errors, then
/// refuse and salvage a mid-journal bit flip. Returns the boundary count.
fn sweep_kind(
    opts: &SweepOptions,
    sweep: &mut DurabilitySweep,
    run: SweptRun<'_>,
) -> Result<u64, PersistError> {
    let label = run.label;
    // Uninterrupted baseline: fixes the boundary count N and the
    // reference rendering (worker-count-invariant by the core contract).
    let base_dir = fresh_dir(&opts.scratch, &format!("{label}-base"));
    let base_io = StoreIo::clean();
    let reference = (run.create)(&base_dir, run.workers, base_io.clone())?;
    let base_stats = base_io.stats();

    // Crash at every boundary, recover, compare.
    for k in 1..=base_stats.ops {
        let dir = fresh_dir(&opts.scratch, &format!("{label}-k{k}"));
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed ^ k,
            crash_at: Some(k),
            ..IoFaultPlan::default()
        });
        let _ = (run.create)(&dir, run.workers, io.clone());
        if !io.stats().crashed {
            sweep
                .mismatches
                .push(format!("{label} boundary {k}: injected crash never fired"));
            continue;
        }
        let workers = WORKER_CYCLE[(k as usize) % WORKER_CYCLE.len()];
        let recovered = if dir.join("manifest.json").exists() {
            sweep.resumed_after_crash += 1;
            (run.resume)(&dir, workers, RecoveryPolicy::Refuse)
        } else {
            // The crash beat the manifest commit point: the store never
            // existed, so recovery is simply creating it again.
            sweep.recreated_after_create_crash += 1;
            (run.create)(&dir, workers, StoreIo::clean())
        };
        match recovered {
            Ok(got) if got != reference => sweep.mismatches.push(format!(
                "{label} boundary {k}: diverged after recovery at {workers} workers: {}",
                first_difference(&reference, &got)
            )),
            Ok(_) => {}
            Err(e) => sweep.mismatches.push(format!(
                "{label} boundary {k}: recovery at {workers} workers failed: {e}"
            )),
        }
        collect_recovery_classes(&dir, sweep);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Transient IO errors must be absorbed by backoff, invisibly.
    let dir = fresh_dir(&opts.scratch, &format!("{label}-transient"));
    let io = StoreIo::with_plan(IoFaultPlan {
        seed: opts.seed,
        transient_at: run
            .transient_at
            .into_iter()
            .filter(|k| *k <= base_stats.ops)
            .collect(),
        ..IoFaultPlan::default()
    });
    match (run.create)(&dir, run.workers, io.clone()) {
        Ok(got) if got == reference => {
            let retries = io.stats().retries;
            if retries == 0 {
                sweep
                    .mismatches
                    .push(format!("{label} transient: no retries were taken"));
            }
            sweep.transient_retries += retries;
        }
        Ok(_) => sweep
            .mismatches
            .push(format!("{label} transient: diverged")),
        Err(e) => sweep
            .mismatches
            .push(format!("{label} transient: run failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A bit flip in a mid-journal record: refused with a classified error
    // by default, salvaged byte-identically on request (campaigns drop the
    // damaged segment, fuzz runs truncate at the damaged round).
    if base_stats.appends >= 2 {
        let flip_at = base_stats
            .first_append_op
            .expect("appends >= 2 implies a first append");
        let dir = fresh_dir(&opts.scratch, &format!("{label}-flip"));
        let io = StoreIo::with_plan(IoFaultPlan {
            seed: opts.seed,
            flip_at: Some(flip_at),
            ..IoFaultPlan::default()
        });
        (run.create)(&dir, run.workers, io)?;
        match (run.resume)(&dir, run.refuse_workers, RecoveryPolicy::Refuse) {
            Err(e) if e.kind == PersistErrorKind::Corrupt => sweep.corrupt_refused += 1,
            Err(e) => sweep
                .mismatches
                .push(format!("{label} flip: refusal was misclassified: {e}")),
            Ok(_) => sweep
                .mismatches
                .push(format!("{label} flip: corruption was not refused")),
        }
        collect_recovery_classes(&dir, sweep);
        match (run.resume)(&dir, run.workers, RecoveryPolicy::Salvage) {
            Ok(got) if got == reference => sweep.corrupt_salvaged += 1,
            Ok(_) => sweep
                .mismatches
                .push(format!("{label} flip: salvage diverged")),
            Err(e) => sweep
                .mismatches
                .push(format!("{label} flip: salvage failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        sweep.mismatches.push(format!(
            "{label} sweep config journals only {} {}; need >= 2 for mid-file corruption",
            base_stats.appends, run.journal_unit
        ));
    }

    let _ = std::fs::remove_dir_all(&base_dir);
    Ok(base_stats.ops)
}
