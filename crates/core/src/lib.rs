//! Acto: automatic end-to-end testing for operation correctness of cloud
//! system management (SOSP 2023), reproduced in Rust.
//!
//! Acto tests an operator *together with* its managed system. It models
//! operations as state transitions `(S_c, D)`: from the current system
//! state `S_c`, a declaration `D` of a new desired state is submitted, the
//! operator reconciles, and automated oracles check that the converged
//! state satisfies `D` (paper §4). A **test campaign** chains single
//! operations into sequences so later operations start from diverse,
//! non-initial states, and exercises error-state recovery through
//! rollbacks (Figure 4).
//!
//! The crate mirrors the paper's architecture:
//!
//! - [`semantics`]: property-semantics inference — name/structure matching
//!   for the blackbox mode, plus sink-based inference over the operator's
//!   reconcile IR for the whitebox mode (§5.2.2).
//! - [`gen`]: the catalogue of semantics-driven value generators (57
//!   scenario generators; Table 3) and type-based mutation for properties
//!   with unknown semantics (§5.2.3).
//! - [`deps`]: property-dependency inference — the `*enabled*`
//!   feature-toggle convention for Acto-■ and control-flow analysis over
//!   the IR for Acto-□ (§5.2.4).
//! - [`campaign`]: campaign planning (100% property coverage) and
//!   execution with reset-timer convergence, error-state rollbacks, and
//!   per-trial oracle evaluation (§5.1, §5.5).
//! - `step` (crate-private): the one trial step every executor shares —
//!   the settled-health predicate, the outcome classifier, the fault
//!   burst, the converged-trial oracle pass, and the crash-boundary
//!   replay (see DESIGN.md, "Trial step").
//! - [`oracles`]: the consistency oracle, the differential oracles for
//!   normal and rollback transitions with deterministic-field masking, and
//!   the regular error checks (§5.3).
//! - [`minimize`]: alarm reproduction — delta-debugging a failing campaign
//!   prefix into a minimal e2e test and emitting its code (§5.4).
//! - [`exec`]: the generic execution core every runner sits on — the
//!   work-stealing [`exec::Scheduler`] with its one `run` call,
//!   [`exec::run_segmented`], which every campaign runs through (both
//!   sequential runs are its one-worker, one-segment case, and
//!   [`CampaignResult`] is only the single-operator sequential view of its
//!   result) and which owns the snapshot depot, quarantine and the
//!   assembly of the one [`ParallelResult`], the [`exec::Driver`]
//!   abstraction over single-operator and composed targets (a driver
//!   supplies only its trial type, prefix build and segment body), the one
//!   [`WorkerStats`] fold (`+=`) every counter goes through, the
//!   [`exec::Memo`] behind every cross-worker cache, and the
//!   [`exec::TrialRecord`] trait that lets one result type, one report,
//!   one trial renderer and one fuzz loop carry either kind of trial.
//! - [`parallel`]: work-stealing test partitioning across workers with a
//!   shared plan and checkpoint-based jump-state reuse (§5.5).
//! - [`persist`]: the versioned, crash-hardened on-disk run store
//!   (atomic manifest + CRC-framed append-only journal, all IO behind the
//!   fault-injectable [`persist::StoreIo`]) behind persistent, kill-safe,
//!   resumable campaign and fuzz runs — one resume path for both — with
//!   byte-identical transcripts.
//! - [`durability`]: the persist sweep — the paper's crash-point sweep
//!   turned on our own store: crash at every IO boundary, resume, and
//!   prove the transcript unchanged, with one sweep routine for both run
//!   kinds.
//! - [`compose`]: multi-operator composition campaigns — 2+ operators on
//!   one shared cluster with an interleaved plan and cross-operator
//!   oracles. Its work-stealing and fuzzing runners supply a driver and an
//!   executor; results, reports, quarantine and the fuzz loop are the
//!   single-operator ones over [`ComposedTrial`].
//! - [`fuzz`]: coverage-guided greybox exploration of the campaign input
//!   space `(op-sequence, fault plan, crash point)` over snapshot forking,
//!   with a deterministic, resumable corpus.
//! - [`report`]: alarms, ground-truth attribution, and campaign summaries
//!   consumed by the evaluation benches (§6).

pub mod campaign;
pub mod compose;
pub mod deps;
pub mod durability;
pub mod exec;
pub mod fuzz;
pub mod gen;
pub mod minimize;
pub mod model;
pub mod oracles;
pub mod parallel;
pub mod persist;
pub mod report;
pub mod semantics;
mod step;

pub use campaign::{
    plan_campaign, run_campaign, run_campaign_with, CampaignConfig, CampaignResult, FreshRefCache,
    Strategy, PLAN_COMPUTATIONS,
};
pub use compose::{
    plan_composed, run_composed_campaign, run_composed_fuzz, run_composed_work_stealing_with,
    ComposedExecRecord, ComposedFuzzResult, ComposedOp, ComposedParallelResult, ComposedTrial,
};
pub use deps::{infer_dependencies, Dependency};
pub use durability::{persist_sweep, DurabilitySweep, SweepOptions};
pub use exec::{run_segmented, Driver, Scheduler, Segment, TrialRecord};
pub use fuzz::{
    replay_corpus, run_fuzz, run_random, Corpus, CorpusEntry, CoverageFeature, CoverageMap,
    ExecRecord, FuzzConfig, FuzzInput, FuzzResult,
};
pub use gen::{generator_catalog, scenarios_for, GenContext, Scenario};
pub use model::{Expectation, Mode, PlannedOp, Trial, TrialOutcome};
pub use oracles::{AlarmKind, CustomOracle, OracleContext};
pub use parallel::{
    declaration_after_prefix, run_work_stealing, run_work_stealing_with, FailedSegment,
    ParallelResult, SnapshotDepot, WorkerStats, DEFAULT_SEGMENT_OPS,
};
pub use persist::{
    load_corpus, resume_fuzz_with, resume_work_stealing_with, run_fuzz_persistent_io,
    run_work_stealing_persistent_io, IoFaultPlan, IoStats, Manifest, PersistError,
    PersistErrorKind, RecoveryClass, RecoveryPolicy, RunKind, RunStore, StoreIo,
    RECOVERY_REPORT_VERSION, STORE_VERSION,
};
pub use report::{Alarm, Attribution, CampaignSummary};
pub use semantics::infer_semantics;
