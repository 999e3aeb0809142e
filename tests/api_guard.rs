//! Compile-time guard: the sixteen public run entry points (sequential,
//! work-stealing, persistent, fuzz and composed families, plus the
//! segmented core and the persist sweep) keep their public signatures, and
//! every run returns one of the three result types: `CampaignResult`,
//! `ParallelResult<T>` or `FuzzResult<T>`.
//!
//! The runners are thin wrappers over the generic execution core in
//! `acto::exec` (and the persistent store in `acto::persist`); this test
//! pins each entry point as a typed function pointer so a signature
//! change — however the internals move — fails the build, not a
//! downstream user. The composed runners are pinned against the generic
//! result types themselves, so a composed result type of its own cannot
//! come back. The assignments are the assertion; the test body only needs
//! to compile.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use acto_repro::acto::compose::{
    run_composed_campaign, run_composed_fuzz, run_composed_work_stealing_with, ComposedTrial,
};
use acto_repro::acto::durability::{persist_sweep, DurabilitySweep, SweepOptions};
use acto_repro::acto::exec::{run_segmented, Driver, SegmentSink};
use acto_repro::acto::fuzz::{replay_corpus, run_fuzz, run_random, Corpus, FuzzConfig, FuzzResult};
use acto_repro::acto::parallel::{
    run_work_stealing, run_work_stealing_with, ParallelResult, SnapshotDepot,
};
use acto_repro::acto::persist::{
    resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, PersistError, RecoveryPolicy, StoreIo,
};
use acto_repro::acto::{
    run_campaign, run_campaign_with, CampaignConfig, CampaignResult, FreshRefCache, PlannedOp,
};
use acto_repro::operators::{CompositionCheckpoint, InstanceCheckpoint};

#[test]
#[allow(clippy::type_complexity)] // spelling out the full signature IS the test
fn legacy_entry_point_signatures_still_compile() {
    // Sequential campaign family.
    let _: fn(&CampaignConfig) -> CampaignResult = run_campaign;
    let _: fn(
        &CampaignConfig,
        &[PlannedOp],
        Duration,
        Option<&InstanceCheckpoint>,
        Option<&InstanceCheckpoint>,
        Option<&FreshRefCache>,
    ) -> CampaignResult = run_campaign_with;

    // Work-stealing family, plain and persistent.
    let _: fn(&CampaignConfig, usize) -> ParallelResult = run_work_stealing;
    let _: fn(&CampaignConfig, usize, usize, &SnapshotDepot) -> ParallelResult =
        run_work_stealing_with;
    let _: fn(
        &CampaignConfig,
        usize,
        usize,
        &Path,
        StoreIo,
    ) -> Result<ParallelResult, PersistError> = run_work_stealing_persistent_io;
    let _: fn(
        &CampaignConfig,
        usize,
        &Path,
        RecoveryPolicy,
        StoreIo,
    ) -> Result<ParallelResult, PersistError> = resume_work_stealing_with;

    // Fuzz family, plain and persistent.
    let _: fn(&FuzzConfig) -> Result<FuzzResult, String> = run_fuzz;
    let _: fn(&FuzzConfig) -> Result<FuzzResult, String> = run_random;
    let _: fn(&FuzzConfig, &Corpus) -> Result<FuzzResult, String> = replay_corpus;
    let _: fn(&FuzzConfig, &Path, bool, StoreIo) -> Result<FuzzResult, PersistError> =
        run_fuzz_persistent_io;
    let _: fn(&FuzzConfig, &Path, RecoveryPolicy, StoreIo) -> Result<FuzzResult, PersistError> =
        resume_fuzz_with;

    // Composed family: the generic result types over composed trials.
    let _: fn(&CampaignConfig) -> Result<ParallelResult<ComposedTrial>, String> =
        run_composed_campaign;
    let _: fn(
        &CampaignConfig,
        usize,
        usize,
        &SnapshotDepot<CompositionCheckpoint>,
    ) -> Result<ParallelResult<ComposedTrial>, String> = run_composed_work_stealing_with;
    let _: fn(&FuzzConfig) -> Result<FuzzResult<ComposedTrial>, String> = run_composed_fuzz;

    // The persist sweep.
    let _: fn(&SweepOptions) -> Result<DurabilitySweep, PersistError> = persist_sweep;
}

/// The segmented core, pinned for every driver: type-checked without
/// being instantiated.
#[allow(dead_code, clippy::type_complexity)]
fn segmented_core_signature<D: Driver>() {
    let _: fn(
        &D,
        usize,
        usize,
        &SnapshotDepot<D::Checkpoint>,
        BTreeMap<usize, Vec<D::Trial>>,
        Option<SegmentSink<'_, D::Trial>>,
    ) -> ParallelResult<D::Trial> = run_segmented::<D>;
}

/// The typed [`PersistError`] stays compatible with the legacy
/// `Result<_, String>` boundaries: it renders through `Display` and
/// converts into a `String`, so `?` in a `Result<_, String>` function and
/// `format!`-based call sites keep compiling and produce the same
/// messages the old API did.
#[test]
fn persist_error_keeps_display_compatibility_at_legacy_boundaries() {
    let _: fn(PersistError) -> String = String::from;
    fn legacy_boundary(r: Result<(), PersistError>) -> Result<(), String> {
        r?;
        Ok(())
    }
    let _ = legacy_boundary(Ok(()));
    fn renders<T: std::fmt::Display + std::error::Error>() {}
    renders::<PersistError>();
}
