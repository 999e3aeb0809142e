//! Work-stealing test parallelization (paper §5.5).
//!
//! Acto partitions an operation sequence into segments and runs them in
//! parallel: segment `k` starts on a clean cluster with a single jump
//! operation `S_0 → S_k` (submitting the declaration the sequential
//! campaign would have reached), then executes its slice.
//!
//! The scheduling machinery — the claim-by-cursor loop, quarantine,
//! per-worker statistics and result assembly — lives in [`crate::exec`];
//! this module contributes the [`ParallelResult`], the single-operator
//! trial's [`TrialRecord`] impl and the single-operator [`Driver`]: how
//! the shared base deploys, how a segment builds its canonical prefix
//! checkpoint (restore base, submit the jump declaration, converge) and
//! how it executes from there. The entry points ([`run_work_stealing`],
//! [`run_work_stealing_with`]) are thin wrappers over
//! [`crate::exec::run_segmented`], and the sequential
//! [`crate::run_campaign`] runs the same driver at one worker over one
//! segment.
//!
//! Determinism: segment `k`'s start state is always the *canonical* prefix
//! state — restore(base), submit jump `J_k`, converge — whichever worker
//! builds it and however often, so alarms, trials, and transcripts are
//! byte-identical for every worker count.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crdspec::Value;
use operators::{operator_by_name, InstanceCheckpoint, CONVERGE_MAX, CONVERGE_RESET};

use crate::exec::{run_segmented, Driver, Segment, SegmentSink, TrialRecord};
pub use crate::exec::{CheckpointSharing, FailedSegment, WorkerStats};

use crate::campaign::{
    apply_op, capped_len, deploy_base, plan_operator, restore, run_window, CampaignConfig,
    FreshRefCache,
};
use crate::model::{Mode, PlannedOp, Trial, TrialOutcome};
use crate::oracles::AlarmKind;
use crate::report::{render_detected, summarize, Alarm, CampaignSummary};
use crate::step;

/// Planned operations per work-stealing segment. Small enough to balance
/// load across workers, large enough that the per-segment jump is
/// amortized over real trials.
pub const DEFAULT_SEGMENT_OPS: usize = 8;

/// The result of a parallel campaign, generic over the trial record it
/// carries: [`Trial`] for a single operator, or
/// [`crate::compose::ComposedTrial`] for a composition
/// ([`crate::compose::ComposedParallelResult`]).
#[derive(Debug)]
pub struct ParallelResult<T = Trial> {
    /// Target under test: the operator name, or the composed members
    /// joined with `+`.
    pub operator: String,
    /// Mode used.
    pub mode: Mode,
    /// Worker count used (clamped to the segment count).
    pub workers: usize,
    /// Planned operations per segment.
    pub segment_ops: usize,
    /// Number of segments the plan was cut into.
    pub segments: usize,
    /// Trials from all segments, in plan order — identical for any worker
    /// count.
    pub trials: Vec<T>,
    /// Total simulated machine-seconds across base deployment, jump
    /// building, and all segments (compute cost).
    pub total_sim_seconds: u64,
    /// Simulated seconds until the last worker finishes, replayed from the
    /// per-segment sim costs through the scheduler's claim rule (worker `w`
    /// runs pending segment `w` first, then the earliest-free worker takes
    /// the next, ties to the lowest index), so it is the same on every host
    /// and every repeat. Each worker's measured sum, which follows the
    /// real claim race, stays in [`WorkerStats::sim_seconds`].
    pub makespan_sim_seconds: u64,
    /// Simulated seconds spent deploying the shared base checkpoint.
    pub base_sim_seconds: u64,
    /// Wall-clock time spent planning (done once, not per worker).
    pub gen_duration: Duration,
    /// Real time the parallel run took.
    pub wall: Duration,
    /// Per-worker statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Segments whose execution panicked.
    pub failed_segments: Vec<FailedSegment>,
    /// Attributed findings over all trials.
    pub summary: CampaignSummary,
}

impl<T: TrialRecord> ParallelResult<T> {
    /// Renders everything the run observed — trials, outcomes, alarms,
    /// detected bugs — excluding scheduling-dependent quantities (worker
    /// stats, wall clock, sim totals). Two runs over the same
    /// configuration produce byte-identical transcripts for *any* worker
    /// count; the determinism check is one string comparison.
    pub fn transcript(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}: {}", T::TARGET_KEY, self.operator);
        let _ = writeln!(out, "mode: {}", self.mode.name());
        let _ = writeln!(
            out,
            "segments: {} x {} ops",
            self.segments, self.segment_ops
        );
        for trial in &self.trials {
            trial.render(&mut out);
        }
        render_detected(&mut out, &self.summary);
        out
    }
}

impl TrialRecord for Trial {
    const TARGET_KEY: &'static str = "operator";

    fn target(config: &CampaignConfig) -> String {
        config.operator().to_string()
    }

    fn summarize<'a>(
        config: &CampaignConfig,
        trials: impl IntoIterator<Item = &'a Trial>,
    ) -> CampaignSummary {
        summarize(config.operator(), trials)
    }

    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "trial #{} property={} scenario={} outcome={:?} rollback={:?} sim={}",
            self.op.index,
            self.op.property,
            self.op.scenario,
            self.outcome,
            self.rollback_recovered,
            self.sim_seconds
        );
        let _ = writeln!(
            out,
            "  declaration: {}",
            crdspec::json::to_string(&self.declaration)
        );
        if self.crash_points_swept > 0 {
            let _ = writeln!(out, "  crash-sweep: {} boundaries", self.crash_points_swept);
        }
        for event in &self.fault_events {
            let _ = writeln!(out, "  {event}");
        }
        for alarm in &self.alarms {
            let _ = writeln!(out, "  alarm {}: {}", alarm.kind.name(), alarm.detail);
        }
    }

    fn render_fuzz(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "  trial #{} property={} scenario={} outcome={:?} sim={}",
            self.op.index, self.op.property, self.op.scenario, self.outcome, self.sim_seconds
        );
        let _ = writeln!(
            out,
            "    declaration: {}",
            crdspec::json::to_string(&self.declaration)
        );
        for alarm in &self.alarms {
            let _ = writeln!(out, "    alarm {}: {}", alarm.kind.name(), alarm.detail);
        }
    }

    fn worker_panic(_config: &CampaignConfig, seg: Segment, panic: &str) -> Trial {
        let op = step::synthetic_op(seg.skip, "worker-panic", Value::Null);
        let outcome = TrialOutcome::ErrorState(format!("segment {} worker panicked", seg.index));
        let alarm = Alarm::new(
            AlarmKind::ErrorCheck,
            format!("worker panic in segment {}: {panic}", seg.index),
        );
        step::trial(op, Value::Null, outcome, vec![alarm], 0)
    }
}

/// Computes the declaration reached by folding `ops` over `initial` — the
/// jump operation for a partition, given the plan prefix it skips. Both
/// drivers build their jumps here (the composed driver once per member,
/// over that member's ops). A pure fold over the shared plan: it cannot
/// re-plan, so callers are forced to plan exactly once.
pub fn declaration_after_prefix<'a>(
    initial: &Value,
    ops: impl IntoIterator<Item = &'a PlannedOp>,
) -> Value {
    let mut working = initial.clone();
    for op in ops {
        apply_op(&mut working, op);
    }
    working
}

/// Runs a campaign across `workers` threads with work stealing and
/// [`DEFAULT_SEGMENT_OPS`]-operation segments.
pub fn run_work_stealing(config: &CampaignConfig, workers: usize) -> ParallelResult {
    run_work_stealing_with(config, workers, DEFAULT_SEGMENT_OPS)
}

/// Runs a campaign across `workers` threads, claiming `segment_ops`-sized
/// plan segments through a shared cursor; each segment builds its own
/// prefix state.
pub fn run_work_stealing_with(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: usize,
) -> ParallelResult {
    run_work_stealing_core(config, workers, segment_ops, BTreeMap::new(), None)
}

/// The single-operator [`Driver`]: plan shared immutably across workers,
/// base deployed once (or the caller's), segments executed as plan windows
/// from canonical prefix checkpoints.
pub(crate) struct CampaignDriver<'a> {
    config: &'a CampaignConfig,
    plan: &'a [PlannedOp],
    plan_len: usize,
    initial_cr: Value,
    base: Option<&'a InstanceCheckpoint>,
    /// The caller's state segment 0 starts from in place of the base.
    pub(crate) start: Option<&'a InstanceCheckpoint>,
    ref_cache: &'a FreshRefCache,
    /// Receives the §6.1.3 field counts of segment 0's start state.
    start_fields: Option<&'a OnceLock<(usize, usize)>>,
}

impl<'a> CampaignDriver<'a> {
    /// A driver over the shared `plan`, capped at `config.max_ops`
    /// operations. Applying the cap before segmentation keeps it
    /// worker-count-agnostic. `base` replaces the deployment when given;
    /// `ref_cache` serves every worker's differential references, which
    /// depend only on the declaration, like prefix checkpoints.
    /// `start_fields`, when given, receives the field counts of the state
    /// segment 0 starts from, taken while that segment restores it.
    pub(crate) fn new(
        config: &'a CampaignConfig,
        plan: &'a [PlannedOp],
        base: Option<&'a InstanceCheckpoint>,
        ref_cache: &'a FreshRefCache,
        start_fields: Option<&'a OnceLock<(usize, usize)>>,
    ) -> CampaignDriver<'a> {
        CampaignDriver {
            config,
            plan,
            plan_len: capped_len(config, plan.len()),
            initial_cr: operator_by_name(config.operator()).initial_cr(),
            base,
            start: None,
            ref_cache,
            start_fields,
        }
    }
}

impl Driver for CampaignDriver<'_> {
    type Checkpoint = InstanceCheckpoint;
    type Trial = Trial;

    fn config(&self) -> &CampaignConfig {
        self.config
    }

    fn plan_len(&self) -> usize {
        self.plan_len
    }

    fn deploy_base(&self) -> (InstanceCheckpoint, u64) {
        match self.base {
            Some(base) => (base.clone(), 0),
            None => deploy_base(self.config).expect("initial deployment"),
        }
    }

    fn build_prefix(
        &self,
        base: &InstanceCheckpoint,
        skip: usize,
        my: &mut WorkerStats,
    ) -> InstanceCheckpoint {
        let jump = declaration_after_prefix(&self.initial_cr, &self.plan[..skip]);
        let mut instance = restore(self.config, base);
        let t0 = instance.cluster.now();
        if instance.submit(jump).is_ok() {
            let _ = instance.converge(CONVERGE_RESET, CONVERGE_MAX);
            my.convergence_waits += 1;
        }
        my.sim_seconds += instance.cluster.now() - t0;
        instance.checkpoint()
    }

    fn run_segment(
        &self,
        seg: Segment,
        base: &InstanceCheckpoint,
        start: &InstanceCheckpoint,
        my: &mut WorkerStats,
    ) -> Vec<Trial> {
        let window = (seg.skip, seg.take);
        let fields = self.start_fields.filter(|_| seg.skip == 0);
        let start = self.start.filter(|_| seg.skip == 0).unwrap_or(start);
        let (trials, tally) = run_window(
            self.config,
            self.plan,
            window,
            base,
            start,
            self.ref_cache,
            fields,
        );
        *my += &tally;
        trials
    }
}

/// The work-stealing core behind both the plain entry points and the
/// persistence layer: `completed` splices in journaled segment trials
/// (resume), `sink` observes each freshly finished segment (journaling).
pub(crate) fn run_work_stealing_core(
    config: &CampaignConfig,
    workers: usize,
    segment_ops: usize,
    completed: BTreeMap<usize, Vec<Trial>>,
    sink: Option<SegmentSink<'_, Trial>>,
) -> ParallelResult {
    let start = Instant::now();
    let plan = plan_operator(&*operator_by_name(config.operator()), config.mode);
    let gen_duration = start.elapsed();

    let ref_cache = FreshRefCache::new();
    let driver = CampaignDriver::new(config, &plan, None, &ref_cache, None);
    let run = run_segmented(&driver, workers, segment_ops, completed, sink);
    ParallelResult {
        gen_duration,
        wall: start.elapsed(),
        ..run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mode;
    use operators::bugs::BugToggles;
    use operators::Instance;
    use simkube::PlatformBugs;
    use std::sync::atomic::Ordering;

    fn quick_config() -> CampaignConfig {
        CampaignConfig {
            operators: vec!["RabbitMQOp".to_string()],
            mode: Mode::Whitebox,
            bugs: BugToggles::all_injected(),
            platform: PlatformBugs::none(),
            max_ops: Some(8),
            differential: false,
            strategy: crate::campaign::Strategy::Full,
            custom_oracles: Vec::new(),
            faults: Default::default(),
            crash_sweep: false,
            topology: None,
        }
    }

    #[test]
    fn prefix_declaration_reflects_plan() {
        let op = operator_by_name("RabbitMQOp");
        let plan = plan_operator(&*op, Mode::Whitebox);
        let d0 = declaration_after_prefix(&op.initial_cr(), &plan[..0]);
        assert_eq!(d0, op.initial_cr());
        let d3 = declaration_after_prefix(&op.initial_cr(), &plan[..3]);
        assert_ne!(d3, d0);
    }

    #[test]
    fn partitioned_run_covers_all_windows() {
        let mut config = quick_config();
        config.max_ops = Some(24);
        let result = run_work_stealing(&config, 3);
        assert_eq!(result.workers, 3);
        assert!(result.total_sim_seconds >= result.makespan_sim_seconds);
        assert!(!result.trials.is_empty());
        assert!(result.failed_segments.is_empty());
    }

    #[test]
    fn no_empty_segments_and_every_worker_works() {
        // 10 ops at 4 per segment leaves a 2-op remainder: the old static
        // chunking would have spawned a zero-work worker here.
        let mut config = quick_config();
        config.max_ops = Some(10);
        let result = run_work_stealing_with(&config, 5, 4);
        assert_eq!(result.segments, 3);
        assert_eq!(result.workers, 3, "workers clamp to the segment count");
        for s in &result.worker_stats {
            assert!(
                s.segments_executed > 0,
                "worker {} deployed for zero work",
                s.worker
            );
        }
        let executed: usize = result
            .worker_stats
            .iter()
            .map(|s| s.segments_executed)
            .sum();
        assert_eq!(executed, result.segments);
    }

    #[test]
    fn trials_are_in_plan_order() {
        let mut config = quick_config();
        config.max_ops = Some(20);
        let result = run_work_stealing(&config, 4);
        let indices: Vec<usize> = result.trials.iter().map(|t| t.op.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted, "trials must be assembled in plan order");
    }

    #[test]
    fn every_run_builds_its_own_prefixes() {
        let mut config = quick_config();
        config.max_ops = Some(24);
        let first = run_work_stealing_with(&config, 2, 8);
        let second = run_work_stealing_with(&config, 2, 8);
        for run in [&first, &second] {
            assert_eq!(run.segments, 3);
            let hits: usize = run.worker_stats.iter().map(|s| s.depot_hits).sum();
            assert_eq!(hits, 1, "only segment 0 starts from the base");
        }
        assert_eq!(first.transcript(), second.transcript());
        assert_eq!(first.total_sim_seconds, second.total_sim_seconds);
    }

    #[test]
    fn worker_panics_are_captured_not_fatal() {
        #[derive(Debug)]
        struct Bomb;
        impl crate::oracles::CustomOracle for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn check(
                &self,
                _ctx: &crate::oracles::OracleContext<'_>,
                _instance: &Instance,
            ) -> Vec<Alarm> {
                panic!("oracle exploded");
            }
        }
        let mut config = quick_config();
        config.max_ops = Some(12);
        config.custom_oracles = vec![std::sync::Arc::new(Bomb)];
        let result = run_work_stealing(&config, 2);
        assert!(
            !result.failed_segments.is_empty(),
            "the panicking oracle must surface as failed segments"
        );
        for f in &result.failed_segments {
            assert!(f.panic.contains("oracle exploded"), "panic: {}", f.panic);
            assert!(
                f.quarantined,
                "a deterministic panic must fail the retry too and quarantine"
            );
        }
        // Panicked segments leave failed trials, not silent gaps.
        assert!(result
            .trials
            .iter()
            .any(|t| t.op.scenario == "worker-panic"));
        // Surviving workers still report stats.
        assert_eq!(result.worker_stats.len(), result.workers);
    }

    #[test]
    fn flaky_segment_recovers_on_retry_without_losing_trials() {
        #[derive(Debug)]
        struct FlakyBomb(std::sync::atomic::AtomicBool);
        impl crate::oracles::CustomOracle for FlakyBomb {
            fn name(&self) -> &str {
                "flaky-bomb"
            }
            fn check(
                &self,
                _ctx: &crate::oracles::OracleContext<'_>,
                _instance: &Instance,
            ) -> Vec<Alarm> {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("transient oracle failure");
                }
                Vec::new()
            }
        }
        let mut config = quick_config();
        config.max_ops = Some(8);
        config.custom_oracles = vec![std::sync::Arc::new(FlakyBomb(
            std::sync::atomic::AtomicBool::new(false),
        ))];
        let result = run_work_stealing(&config, 1);
        // The one-shot panic is recorded but not quarantined, and the
        // retry delivers the segment's real trials.
        assert_eq!(result.failed_segments.len(), 1);
        assert!(!result.failed_segments[0].quarantined);
        assert!(result.failed_segments[0]
            .panic
            .contains("transient oracle failure"));
        assert!(result
            .trials
            .iter()
            .all(|t| t.op.scenario != "worker-panic"));
        assert!(!result.trials.is_empty());
    }

    #[test]
    fn flaky_segment_after_the_base_rebuilds_its_prefix_on_retry() {
        /// Counts its calls and panics once, at call `fire_at`.
        #[derive(Debug)]
        struct CountingBomb {
            calls: std::sync::atomic::AtomicUsize,
            fire_at: Option<usize>,
        }
        impl crate::oracles::CustomOracle for CountingBomb {
            fn name(&self) -> &str {
                "counting-bomb"
            }
            fn check(
                &self,
                _ctx: &crate::oracles::OracleContext<'_>,
                _instance: &Instance,
            ) -> Vec<Alarm> {
                let call = self.calls.fetch_add(1, Ordering::SeqCst);
                if Some(call) == self.fire_at {
                    panic!("transient oracle failure");
                }
                Vec::new()
            }
        }
        let run = |max_ops, fire_at| {
            let bomb = std::sync::Arc::new(CountingBomb {
                calls: Default::default(),
                fire_at,
            });
            let mut config = quick_config();
            config.max_ops = Some(max_ops);
            config.custom_oracles = vec![bomb.clone()];
            let result = run_work_stealing_with(&config, 1, 8);
            (result, bomb.calls.load(Ordering::SeqCst))
        };
        // Segment 0 alone makes `first_of_segment_1` oracle calls, so the
        // call with that number is the first one in segment 1 (skip 8).
        let (_, first_of_segment_1) = run(8, None);
        let (clean, total_calls) = run(16, None);
        assert!(
            total_calls > first_of_segment_1,
            "segment 1 consults the oracle"
        );
        let (flaky, _) = run(16, Some(first_of_segment_1));

        assert_eq!(flaky.segments, 2);
        assert_eq!(flaky.failed_segments.len(), 1);
        let failed = &flaky.failed_segments[0];
        assert_eq!((failed.segment, failed.skip, failed.take), (1, 8, 8));
        assert!(!failed.quarantined, "the retry recovers");
        assert!(failed.panic.contains("transient oracle failure"));
        // The retry rebuilt the canonical prefix: the same trials as a run
        // that never panicked, at the cost of the jump built twice.
        assert_eq!(format!("{:?}", flaky.trials), format!("{:?}", clean.trials));
        assert_eq!(flaky.transcript(), clean.transcript());
        assert!(flaky.total_sim_seconds > clean.total_sim_seconds);
    }
}
