//! Compile-time guard: the twelve legacy campaign-runner entry points
//! (sequential, work-stealing, fuzz and composed families) keep their
//! public signatures.
//!
//! The runners are now thin wrappers over the generic execution core in
//! `acto::exec` (and the persistent store in `acto::persist`); this test
//! pins each old entry point as a typed function pointer so a signature
//! change — however the internals move — fails the build, not a
//! downstream user. The assignments are the assertion; the test body only
//! needs to compile.

use std::time::Duration;

use acto_repro::acto::compose::{
    run_composed_campaign, run_composed_fuzz, run_composed_work_stealing,
    run_composed_work_stealing_with, ComposedFuzzResult, ComposedParallelResult, ComposedResult,
};
use acto_repro::acto::fuzz::{
    replay_corpus, run_fuzz, run_fuzz_resumed, run_random, Corpus, FuzzConfig, FuzzResult,
};
use acto_repro::acto::parallel::{
    run_work_stealing, run_work_stealing_with, ParallelResult, SnapshotDepot,
};
use acto_repro::acto::persist::PersistError;
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

    // Work-stealing family.
    let _: fn(&CampaignConfig, usize) -> ParallelResult = run_work_stealing;
    let _: fn(&CampaignConfig, usize, usize, &SnapshotDepot) -> ParallelResult =
        run_work_stealing_with;

    // Fuzz family.
    let _: fn(&FuzzConfig) -> Result<FuzzResult, String> = run_fuzz;
    let _: fn(&FuzzConfig) -> Result<FuzzResult, String> = run_random;
    let _: fn(&FuzzConfig, &Corpus) -> Result<FuzzResult, String> = run_fuzz_resumed;
    let _: fn(&FuzzConfig, &Corpus) -> Result<FuzzResult, String> = replay_corpus;

    // Composed family.
    let _: fn(&CampaignConfig) -> Result<ComposedResult, String> = run_composed_campaign;
    let _: fn(&CampaignConfig, usize) -> Result<ComposedParallelResult, String> =
        run_composed_work_stealing;
    let _: fn(
        &CampaignConfig,
        usize,
        usize,
        &SnapshotDepot<CompositionCheckpoint>,
    ) -> Result<ComposedParallelResult, String> = run_composed_work_stealing_with;
    let _: fn(&FuzzConfig) -> Result<ComposedFuzzResult, String> = run_composed_fuzz;
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
