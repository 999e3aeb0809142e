//! The generic execution core shared by every campaign runner.
//!
//! Before this module existed the runner logic lived in six near-copies —
//! sequential, work-stealing, and fuzz runners, each with a composed twin —
//! so every new capability (crash sweeps, depot counters, quarantine) had
//! to be hand-ported six ways. `exec` collapses them onto three pieces:
//!
//! - [`Scheduler`]: one claim-by-cursor work-stealing loop. The sequential
//!   runner is the 1-worker special case; pre-assignment (worker `w`
//!   claims item `w` first) and the `catch_unwind`/retry-once/quarantine
//!   path are options of the same loop, not separate runners. There is
//!   exactly one [`WorkerStats`] fold.
//! - [`Driver`]: what differs between a single-operator campaign and a
//!   multi-operator [`operators::Composition`] — how the shared base is
//!   deployed, how the canonical prefix state of a segment is built, how
//!   the segment executes from it, and what a quarantined segment leaves
//!   behind. The segmentation, depot lookup and deposit, claim loop,
//!   retry-then-quarantine of a panicking segment, and in-order assembly
//!   in [`run_segmented`] are shared by every driver.
//! - [`TrialRecord`]: what the run-shape types need from the trial record
//!   they carry (transcript lines, summary, the worker-panic placeholder),
//!   so one `ParallelResult`, `FuzzResult` and fuzz loop serve both the
//!   single-operator and the composed trial.
//! - [`TrialSource`]: where work comes from — planned segments are a
//!   single batch, fuzz runs draw batch after batch from a corpus, crash
//!   sweeps enumerate write boundaries. [`drive`] runs any source to
//!   exhaustion through the scheduler.
//!
//! Determinism is the core's contract: results are always assembled in
//! item order (never completion order), so transcripts are byte-identical
//! for any worker count. The persistence layer ([`crate::persist`]) hooks
//! the per-segment sink to journal completed work and replays it through
//! `completed`, which is why interrupted runs resume byte-identically.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use operators::InstanceCheckpoint;

use crate::campaign::CampaignConfig;
use crate::report::CampaignSummary;

/// Per-worker execution statistics.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Segments this worker claimed and ran.
    pub segments_executed: usize,
    /// Claims outside the worker's static share — the segments it would
    /// *not* have run under even `(skip, take)` chunking.
    pub steals: usize,
    /// Segment starts served from the snapshot depot instead of being
    /// rebuilt via the jump declaration.
    pub depot_hits: usize,
    /// Simulated seconds this worker consumed (jump building plus segment
    /// execution).
    pub sim_seconds: u64,
    /// Convergence waits this worker issued.
    pub convergence_waits: usize,
    /// Differential references this worker served from the shared
    /// fresh-reference cache.
    pub ref_cache_hits: usize,
    /// Differential references this worker computed and cached.
    pub ref_cache_misses: usize,
    /// Objects in this worker's segment-start checkpoints that were shared
    /// with other snapshots (summed over segment starts) — payload the CoW
    /// store did *not* duplicate for this worker.
    pub restored_objects_shared: usize,
    /// Objects in this worker's segment-start checkpoints that were
    /// uniquely owned (summed over segment starts).
    pub restored_objects_owned: usize,
    /// Crash boundaries replayed by this worker's segments (0 with the
    /// crash-point sweep off).
    pub crash_points_swept: u64,
    /// Overdue items this worker reclaimed from stuck workers through the
    /// supervision watchdog (0 without supervision).
    pub reclaims: usize,
    /// Real time from worker start to running out of segments.
    pub wall: Duration,
}

impl WorkerStats {
    /// Zeroed statistics for a worker about to start.
    pub fn new(worker: usize) -> WorkerStats {
        WorkerStats {
            worker,
            segments_executed: 0,
            steals: 0,
            depot_hits: 0,
            sim_seconds: 0,
            convergence_waits: 0,
            ref_cache_hits: 0,
            ref_cache_misses: 0,
            restored_objects_shared: 0,
            restored_objects_owned: 0,
            crash_points_swept: 0,
            reclaims: 0,
            wall: Duration::ZERO,
        }
    }
}

/// A segment whose worker panicked. The panic is captured per segment: the
/// remaining segments (and workers) keep running. A failed segment is
/// retried once on a fresh checkpoint restore; if the retry also panics the
/// segment is *quarantined* — recorded as a failed trial instead of sinking
/// the whole run. A segment that recovered on retry is still listed here
/// (with `quarantined = false`) so the flake is visible, but its trials are
/// the normal ones.
#[derive(Debug, Clone)]
pub struct FailedSegment {
    /// Segment index, in plan order.
    pub segment: usize,
    /// Plan window of the segment.
    pub skip: usize,
    /// Plan window of the segment.
    pub take: usize,
    /// Rendered panic payload (of the last attempt).
    pub panic: String,
    /// Whether the retry also failed and the segment was quarantined.
    pub quarantined: bool,
}

/// One watchdog intervention: an in-flight item exceeded the supervision
/// deadline and an idle worker re-executed it.
///
/// Reclaims are deterministic where it matters: they only happen after the
/// claim cursor is exhausted (the batch barrier — no pending item is ever
/// skipped to serve a reclaim), and the re-execution starts from the same
/// canonical inputs as the original claim (segments restore the canonical
/// prefix checkpoint), so the result is identical whichever execution
/// finishes first — the first result wins and the transcript stays
/// byte-identical. If the stuck worker later completes, its duplicate sink
/// call is benign: the journal replay dedupes by item index. A worker that
/// is truly hung (never returns) still blocks the final thread join, but
/// its item's result has already been assembled by the reclaimer, so the
/// transcript is unaffected once it is eventually killed.
#[derive(Debug, Clone)]
pub struct SupervisionEvent {
    /// Item index — remapped to the plan segment index by
    /// [`run_segmented`].
    pub segment: usize,
    /// Worker that held the item past the deadline.
    pub stuck_worker: usize,
    /// Idle worker that reclaimed and re-executed it.
    pub reclaimed_by: usize,
    /// How long the item had been in flight when it was reclaimed.
    pub overdue: Duration,
}

/// The per-item supervision deadline: generous enough that reclaims fire
/// only for genuinely stuck workers, never for slow-but-progressing ones.
const SEGMENT_DEADLINE: Duration = Duration::from_secs(300);

/// Copy-on-write checkpoints that can report their structural-sharing
/// accounting. Implemented by the single-operator [`InstanceCheckpoint`]
/// and the composed [`operators::CompositionCheckpoint`], so one
/// [`SnapshotDepot`] serves both runner families.
pub trait CheckpointSharing {
    /// Objects shared with at least one other snapshot versus uniquely
    /// owned.
    fn sharing_stats(&self) -> (usize, usize);
}

impl CheckpointSharing for InstanceCheckpoint {
    fn sharing_stats(&self) -> (usize, usize) {
        InstanceCheckpoint::sharing_stats(self)
    }
}

impl CheckpointSharing for operators::CompositionCheckpoint {
    fn sharing_stats(&self) -> (usize, usize) {
        operators::CompositionCheckpoint::sharing_stats(self)
    }
}

/// Memoized canonical prefix checkpoints, keyed by plan prefix length.
///
/// Entries are *canonical*: always the state produced by restoring the
/// deploy-converged base and converging the jump declaration, never a
/// worker's private end state — so serving a hit cannot change any trial.
/// Share one depot across runs over the same configuration (the scaling
/// bench runs 1/2/4/8 workers) to pay each jump once.
///
/// Generic over the checkpoint type: single-operator runs store
/// [`InstanceCheckpoint`]s (the default), composed runs store whole
/// [`operators::CompositionCheckpoint`]s.
#[derive(Debug)]
pub struct SnapshotDepot<T = InstanceCheckpoint> {
    slots: Mutex<BTreeMap<usize, Arc<T>>>,
}

impl<T> Default for SnapshotDepot<T> {
    fn default() -> SnapshotDepot<T> {
        SnapshotDepot {
            slots: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<T> SnapshotDepot<T> {
    /// An empty depot.
    pub fn new() -> SnapshotDepot<T> {
        SnapshotDepot::default()
    }

    /// The memoized checkpoint for a prefix length, if deposited.
    pub fn get(&self, skip: usize) -> Option<Arc<T>> {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&skip)
            .cloned()
    }

    /// Deposits a canonical prefix checkpoint; an existing entry wins (the
    /// first deposit is already canonical).
    pub fn put(&self, skip: usize, cp: Arc<T>) {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(skip)
            .or_insert(cp);
    }

    /// Number of memoized prefix states.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the depot holds no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: CheckpointSharing> SnapshotDepot<T> {
    /// Sharing accounting over every resident snapshot: objects shared
    /// with at least one other snapshot versus uniquely owned, summed
    /// across slots. With the CoW store, resident snapshots that differ
    /// only in a few objects keep almost everything in the shared column.
    pub fn sharing_stats(&self) -> (usize, usize) {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut shared = 0;
        let mut owned = 0;
        for cp in slots.values() {
            let (s, o) = cp.sharing_stats();
            shared += s;
            owned += o;
        }
        (shared, owned)
    }
}

/// Renders a panic payload for failure records.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one claim-by-cursor work-stealing loop every runner schedules
/// through. `workers` threads claim items from a shared atomic cursor and
/// run the work closure on each; results come back in *item order*
/// regardless of which worker ran what, so callers that fold over them
/// stay deterministic for any worker count. The sequential runner is the
/// `workers == 1` special case of the same loop.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
    preassign: bool,
    deadline: Option<Duration>,
}

/// What one [`Scheduler`] pass produced.
pub struct ScheduleRun<R> {
    /// Worker count actually used (clamped to the item count).
    pub workers: usize,
    /// Per-item results, in item order.
    pub results: Vec<R>,
    /// Per-worker statistics, sorted by worker index — the single
    /// `WorkerStats` fold shared by every runner.
    pub worker_stats: Vec<WorkerStats>,
    /// Items whose execution panicked (empty unless quarantine ran).
    pub failures: Vec<FailedSegment>,
    /// Watchdog reclaims of overdue items, sorted by item index (empty
    /// without supervision).
    pub supervision: Vec<SupervisionEvent>,
}

impl Scheduler {
    /// A scheduler over `workers` threads with plain cursor claiming.
    pub fn new(workers: usize) -> Scheduler {
        Scheduler {
            workers,
            preassign: false,
            deadline: None,
        }
    }

    /// Supervises in-flight items with a per-item deadline. A worker that
    /// runs out of cursor work stays on duty until every result is in,
    /// scanning the in-flight registry and reclaiming any item another
    /// worker has held past `deadline` — re-executing it itself,
    /// escalating panics through the usual retry-once-then-quarantine
    /// path when quarantine is on. See [`SupervisionEvent`] for why this
    /// cannot change the transcript.
    pub fn supervised(mut self, deadline: Duration) -> Scheduler {
        self.deadline = Some(deadline);
        self
    }

    /// Pre-assigns worker `w` its own first item (the cursor hands out the
    /// rest), guaranteeing every spawned worker executes at least one item
    /// even when items finish faster than threads spawn. Used by the
    /// segment runners; requires the caller to accept the worker clamp.
    pub fn preassigned(mut self) -> Scheduler {
        self.preassign = true;
        self
    }

    /// Runs `f` over every item with no panic capture: a panic propagates
    /// out of the scope and aborts the run. This is the [`steal_map`]
    /// discipline used for fuzz batches, where execution is a pure
    /// function of the input and a panic is a harness bug.
    pub fn run_plain<T, R, F>(&self, items: &[T], f: F) -> ScheduleRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
    {
        self.run_inner(items, f, None::<&Quarantine<'_, T, R>>)
    }

    /// Runs `f` with the quarantine discipline: a panicking item is
    /// retried once (its closure must be restartable — segment execution
    /// always begins from the canonical prefix snapshot); a second panic
    /// quarantines the item, recording a [`FailedSegment`] and
    /// substituting the policy's placeholder result so the loss stays
    /// visible instead of sinking the whole run.
    pub fn run_quarantined<T, R, F>(
        &self,
        items: &[T],
        f: F,
        policy: &Quarantine<'_, T, R>,
    ) -> ScheduleRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
    {
        self.run_inner(items, f, Some(policy))
    }

    fn run_inner<T, R, F>(
        &self,
        items: &[T],
        f: F,
        quarantine: Option<&Quarantine<'_, T, R>>,
    ) -> ScheduleRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
    {
        let workers = self.workers.max(1).min(items.len().max(1));
        // Pre-assignment hands worker `w` item `w` before the cursor takes
        // over; the cursor therefore starts past the pre-assigned block.
        let cursor = AtomicUsize::new(if self.preassign { workers } else { 0 });
        let results: Mutex<BTreeMap<usize, R>> = Mutex::new(BTreeMap::new());
        let stats: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::new());
        let failed: Mutex<Vec<FailedSegment>> = Mutex::new(Vec::new());
        // Items currently executing, item -> (holder, claim time); the
        // supervisor scans this for overdue claims.
        let in_flight: Mutex<BTreeMap<usize, (usize, Instant)>> = Mutex::new(BTreeMap::new());
        let supervision: Mutex<Vec<SupervisionEvent>> = Mutex::new(Vec::new());
        // A worker's static share under even chunking; claims outside it
        // are counted as steals.
        let static_chunk = items.len().div_ceil(workers).max(1);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let (cursor, results, stats, failed, f) = (&cursor, &results, &stats, &failed, &f);
                let (in_flight, supervision) = (&in_flight, &supervision);
                handles.push(scope.spawn(move || {
                    let worker_start = Instant::now();
                    let mut my = WorkerStats::new(w);
                    let mut preassigned = if self.preassign { Some(w) } else { None };
                    let execute = |i: usize, my: &mut WorkerStats| {
                        in_flight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(i, (w, Instant::now()));
                        let r = match quarantine {
                            None => f(i, &items[i], my),
                            Some(policy) => self.attempt(i, &items[i], f, policy, failed, my),
                        };
                        my.segments_executed += 1;
                        // First result wins: a reclaimed item can finish
                        // twice, but both executions start from the same
                        // canonical inputs, so the results are identical
                        // and keeping the first preserves determinism.
                        results
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .entry(i)
                            .or_insert(r);
                        in_flight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .remove(&i);
                    };
                    loop {
                        let i = match preassigned.take() {
                            Some(i) => i,
                            None => cursor.fetch_add(1, Ordering::SeqCst),
                        };
                        if i >= items.len() {
                            break;
                        }
                        if i / static_chunk != w {
                            my.steals += 1;
                        }
                        execute(i, &mut my);
                    }
                    // Cursor exhausted — the batch barrier. Under
                    // supervision an idle worker stays on duty until every
                    // result is in, reclaiming items held past the
                    // deadline.
                    if let Some(deadline) = self.deadline {
                        loop {
                            if results.lock().unwrap_or_else(|e| e.into_inner()).len()
                                >= items.len()
                            {
                                break;
                            }
                            let overdue = {
                                let mut guard =
                                    in_flight.lock().unwrap_or_else(|e| e.into_inner());
                                let found = guard.iter().find_map(|(&i, &(holder, since))| {
                                    (holder != w && since.elapsed() >= deadline)
                                        .then_some((i, holder, since.elapsed()))
                                });
                                // Claim under the lock so two idle workers
                                // never reclaim the same item.
                                if let Some((i, _, _)) = found {
                                    guard.remove(&i);
                                }
                                found
                            };
                            match overdue {
                                Some((i, holder, elapsed)) => {
                                    my.reclaims += 1;
                                    supervision
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .push(SupervisionEvent {
                                            segment: i,
                                            stuck_worker: holder,
                                            reclaimed_by: w,
                                            overdue: elapsed,
                                        });
                                    execute(i, &mut my);
                                }
                                None => std::thread::sleep(Duration::from_millis(1)),
                            }
                        }
                    }
                    my.wall = worker_start.elapsed();
                    stats.lock().unwrap_or_else(|e| e.into_inner()).push(my);
                }));
            }
            if quarantine.is_some() {
                for h in handles {
                    if h.join().is_err() {
                        // Item panics are captured inside the worker loop,
                        // so a join error means the bookkeeping itself
                        // died; note it and let the remaining workers
                        // finish.
                        failed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(FailedSegment {
                                segment: usize::MAX,
                                skip: 0,
                                take: 0,
                                panic: "worker thread aborted outside segment execution"
                                    .to_string(),
                                quarantined: true,
                            });
                    }
                }
            }
        });
        let mut worker_stats = stats.into_inner().unwrap_or_else(|e| e.into_inner());
        worker_stats.sort_by_key(|s| s.worker);
        let results = results
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_values()
            .collect();
        let failures = failed.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut supervision = supervision.into_inner().unwrap_or_else(|e| e.into_inner());
        supervision.sort_by_key(|e| e.segment);
        ScheduleRun {
            workers,
            results,
            worker_stats,
            failures,
            supervision,
        }
    }

    fn attempt<T, R, F>(
        &self,
        i: usize,
        item: &T,
        f: &F,
        policy: &Quarantine<'_, T, R>,
        failed: &Mutex<Vec<FailedSegment>>,
        my: &mut WorkerStats,
    ) -> R
    where
        F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
    {
        let (skip, take) = (policy.window)(i, item);
        let mut once = || catch_unwind(AssertUnwindSafe(|| f(i, item, &mut *my)));
        match once() {
            Ok(r) => r,
            Err(payload) => {
                // Graceful degradation: retry the item once (segment
                // execution always starts from the canonical prefix
                // snapshot, so the retry sees pristine state). A second
                // panic quarantines the item.
                let first = panic_message(payload.as_ref());
                match once() {
                    Ok(r) => {
                        failed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(FailedSegment {
                                segment: i,
                                skip,
                                take,
                                panic: first,
                                quarantined: false,
                            });
                        r
                    }
                    Err(payload) => {
                        let last = panic_message(payload.as_ref());
                        failed
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(FailedSegment {
                                segment: i,
                                skip,
                                take,
                                panic: last.clone(),
                                quarantined: true,
                            });
                        (policy.placeholder)(i, item, &last)
                    }
                }
            }
        }
    }
}

/// The quarantine policy for [`Scheduler::run_quarantined`]: how to
/// describe a failed item's plan window and what result stands in for a
/// quarantined item.
pub struct Quarantine<'a, T, R> {
    /// Maps an item to its `(skip, take)` plan window for failure records.
    pub window: &'a (dyn Fn(usize, &T) -> (usize, usize) + Sync),
    /// Builds the placeholder result recorded for a quarantined item.
    pub placeholder: &'a (dyn Fn(usize, &T, &str) -> R + Sync),
}

/// Generic work-stealing executor: `workers` threads claim items from a
/// shared atomic cursor and run `f(index, item, stats)` on each. Results
/// come back in *item order* regardless of which worker ran what, so
/// callers that fold over them stay deterministic for any worker count.
///
/// `f` must not panic: unlike segment execution (which quarantines), a
/// panic here propagates out of the scope and aborts the run.
pub fn steal_map<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, Vec<WorkerStats>)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut WorkerStats) -> R + Sync,
{
    let run = Scheduler::new(workers).run_plain(items, f);
    (run.results, run.worker_stats)
}

/// Folds a batch's per-worker statistics into the run's accumulated
/// per-worker table (`acc[s.worker % acc.len()]`) — the single fold shared
/// by the fuzz runners, which re-run the scheduler once per batch and keep
/// one stats row per configured worker across all batches.
pub fn fold_batch_stats(acc: &mut [WorkerStats], batch: Vec<WorkerStats>) {
    let n = acc.len().max(1);
    for s in batch {
        let slot = &mut acc[s.worker % n];
        slot.segments_executed += s.segments_executed;
        slot.steals += s.steals;
        slot.depot_hits += s.depot_hits;
        slot.sim_seconds += s.sim_seconds;
        slot.convergence_waits += s.convergence_waits;
        slot.ref_cache_hits += s.ref_cache_hits;
        slot.ref_cache_misses += s.ref_cache_misses;
        slot.restored_objects_shared += s.restored_objects_shared;
        slot.restored_objects_owned += s.restored_objects_owned;
        slot.crash_points_swept += s.crash_points_swept;
        slot.reclaims += s.reclaims;
        slot.wall += s.wall;
    }
}

/// One fixed-size slice of the shared plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Segment index, in plan order.
    pub index: usize,
    /// Plan operations skipped before this segment.
    pub skip: usize,
    /// Plan operations this segment executes.
    pub take: usize,
}

/// Observer invoked with each freshly completed segment's output, from
/// inside the worker threads — the persistence layer journals through it.
pub type SegmentSink<'s, Out> = &'s (dyn Fn(Segment, &Out) + Sync);

/// What differs between the single-operator and composed segment runners:
/// base deployment, the canonical prefix state a segment starts from, the
/// segment body, and the placeholder a quarantined segment leaves behind.
/// Everything else — segmentation, the depot lookup and deposit, the claim
/// loop, the stats fold, in-order assembly — is [`run_segmented`].
pub trait Driver: Sync {
    /// Checkpoint type the snapshot depot stores for this target.
    type Checkpoint: CheckpointSharing + Send + Sync;
    /// Per-segment output (the segment's trials).
    type SegmentOut: Send;

    /// Planned operations the campaign will execute (after the budget
    /// cap), which fixes the segmentation.
    fn plan_len(&self) -> usize;

    /// Deploys the shared base once and returns its checkpoint plus the
    /// simulated seconds the deployment consumed.
    fn deploy_base(&self) -> (Arc<Self::Checkpoint>, u64);

    /// Builds the canonical state after the first `skip` planned
    /// operations: restore `base`, submit the single jump declaration
    /// `S_0 → S_skip`, converge, checkpoint. Called only on a depot miss;
    /// the jump's accounting is folded into `my`.
    fn build_prefix(
        &self,
        base: &Self::Checkpoint,
        skip: usize,
        my: &mut WorkerStats,
    ) -> Self::Checkpoint;

    /// Executes one segment from its canonical prefix state `start`,
    /// folding the segment's accounting into `my`.
    fn run_segment(
        &self,
        seg: Segment,
        base: &Self::Checkpoint,
        start: &Self::Checkpoint,
        my: &mut WorkerStats,
    ) -> Self::SegmentOut;

    /// The output recorded for a segment quarantined after two panics.
    fn quarantined(&self, seg: Segment, panic: &str) -> Self::SegmentOut;
}

/// What the run-shape types ([`crate::parallel::ParallelResult`],
/// [`crate::fuzz::FuzzResult`], [`crate::fuzz::ExecRecord`]) and the fuzz
/// loop need from the trial record they carry. Implemented by the
/// single-operator [`crate::model::Trial`] and the composed
/// [`crate::compose::ComposedTrial`]; everything else about a run is
/// written once.
pub trait TrialRecord: Clone + Send {
    /// Transcript key naming the target: `operator` or `operators`.
    const TARGET_KEY: &'static str;

    /// The target label a result and its corpus record: the operator's
    /// registry name, or the members joined with `+`.
    fn target(config: &CampaignConfig) -> String;

    /// Attributed findings over a run's trials.
    fn summarize(config: &CampaignConfig, trials: &[Self]) -> CampaignSummary;

    /// Appends the trial's lines to a campaign transcript.
    fn render(&self, out: &mut String);

    /// Appends the trial's lines to a fuzz transcript.
    fn render_fuzz(&self, out: &mut String) {
        self.render(out);
    }

    /// The failed trial standing in for segment `seg` after it was
    /// quarantined, so the loss stays visible in the trial stream.
    fn worker_panic(config: &CampaignConfig, seg: Segment, panic: &str) -> Self;
}

/// What one segmented run produced, before the runner-specific report
/// assembly.
pub struct SegmentedRun<O> {
    /// Worker count actually used (clamped to the segment count).
    pub workers: usize,
    /// Planned operations per segment.
    pub segment_ops: usize,
    /// Number of segments the plan was cut into.
    pub segments: usize,
    /// Per-segment outputs, in plan order (journaled splices included).
    pub outputs: Vec<O>,
    /// Per-worker statistics, sorted by worker index.
    pub worker_stats: Vec<WorkerStats>,
    /// Segments whose execution panicked.
    pub failed_segments: Vec<FailedSegment>,
    /// Watchdog reclaims of segments held past the supervision deadline,
    /// with plan segment indices.
    pub supervision_events: Vec<SupervisionEvent>,
    /// Simulated seconds spent deploying the shared base checkpoint.
    pub base_sim_seconds: u64,
    /// Prefix snapshots resident in the depot when the run finished.
    pub depot_snapshots: usize,
    /// Objects across resident depot snapshots shared with other
    /// snapshots.
    pub depot_shared_objects: usize,
    /// Objects across resident depot snapshots that are uniquely owned.
    pub depot_owned_objects: usize,
}

/// Cuts `plan_len` operations into fixed-size segments. The last segment
/// absorbs the remainder, so no segment is ever empty and no worker
/// deploys a cluster for zero work. Segmentation is independent of the
/// worker count, which is what keeps trials identical for any number of
/// workers.
pub fn segment_plan(plan_len: usize, segment_ops: usize) -> Vec<Segment> {
    let segment_ops = segment_ops.max(1);
    let mut segments = Vec::new();
    let mut cut = 0;
    while cut < plan_len {
        let take = segment_ops.min(plan_len - cut);
        segments.push(Segment {
            index: segments.len(),
            skip: cut,
            take,
        });
        cut += take;
    }
    debug_assert!(
        segments.iter().all(|s| s.take > 0),
        "segmentation must never produce an empty segment"
    );
    segments
}

/// Runs a segmented campaign through the scheduler: deploy the shared
/// base, cut the plan into fixed-size segments, claim them with
/// pre-assignment, and assemble outputs in plan order.
///
/// `completed` splices in outputs of segments already finished by an
/// earlier (interrupted) run — they are not re-executed and charge no
/// worker statistics. `sink` observes every freshly completed segment
/// (including quarantined placeholders) from inside the worker threads;
/// the persistence layer journals through it.
pub fn run_segmented<D: Driver>(
    driver: &D,
    workers: usize,
    segment_ops: usize,
    depot: &SnapshotDepot<D::Checkpoint>,
    mut completed: BTreeMap<usize, D::SegmentOut>,
    sink: Option<SegmentSink<'_, D::SegmentOut>>,
) -> SegmentedRun<D::SegmentOut> {
    let segment_ops = segment_ops.max(1);
    let segments = segment_plan(driver.plan_len(), segment_ops);
    let pending: Vec<Segment> = segments
        .iter()
        .copied()
        .filter(|s| !completed.contains_key(&s.index))
        .collect();
    let workers = workers.max(1).min(pending.len().max(1));

    // Deploy the shared base once and checkpoint it: every reset and
    // differential reference in every segment restores this snapshot
    // instead of paying for a redeployment.
    let (base, base_sim_seconds) = driver.deploy_base();
    depot.put(0, Arc::clone(&base));

    let work = |_i: usize, seg: &Segment, my: &mut WorkerStats| {
        // Segment `k` starts from the canonical prefix state, served from
        // the depot or built once and deposited for every later claim.
        let start = match depot.get(seg.skip) {
            Some(cp) => {
                my.depot_hits += 1;
                cp
            }
            None => {
                let cp = Arc::new(driver.build_prefix(&base, seg.skip, my));
                depot.put(seg.skip, Arc::clone(&cp));
                cp
            }
        };
        let (shared, owned) = start.sharing_stats();
        my.restored_objects_shared += shared;
        my.restored_objects_owned += owned;
        let out = driver.run_segment(*seg, &base, &start, my);
        if let Some(sink) = sink {
            sink(*seg, &out);
        }
        out
    };
    let placeholder = |_i: usize, seg: &Segment, panic: &str| {
        let out = driver.quarantined(*seg, panic);
        if let Some(sink) = sink {
            sink(*seg, &out);
        }
        out
    };
    let window = |_i: usize, seg: &Segment| (seg.skip, seg.take);
    let run = Scheduler::new(workers)
        .preassigned()
        .supervised(SEGMENT_DEADLINE)
        .run_quarantined(
            &pending,
            work,
            &Quarantine {
                window: &window,
                placeholder: &placeholder,
            },
        );

    // Failure records carry pending-list indices; map them back to plan
    // segment indices (join errors keep their usize::MAX marker).
    let mut failed_segments = run.failures;
    for f in &mut failed_segments {
        if f.segment != usize::MAX {
            f.segment = pending[f.segment].index;
        }
    }
    let mut supervision_events = run.supervision;
    for e in &mut supervision_events {
        e.segment = pending[e.segment].index;
    }

    // Assemble outputs in plan order, splicing journaled segments.
    for (seg, out) in pending.iter().zip(run.results) {
        completed.insert(seg.index, out);
    }
    let outputs: Vec<D::SegmentOut> = completed.into_values().collect();

    let depot_snapshots = depot.len();
    let (depot_shared_objects, depot_owned_objects) = depot.sharing_stats();
    SegmentedRun {
        workers: run.workers,
        segment_ops,
        segments: segments.len(),
        outputs,
        worker_stats: run.worker_stats,
        failed_segments,
        supervision_events,
        base_sim_seconds,
        depot_snapshots,
        depot_shared_objects,
        depot_owned_objects,
    }
}

/// Where trials come from: planned segments are a single batch, fuzz runs
/// draw batch after batch guided by their corpus, crash sweeps enumerate
/// write boundaries. The source owns all mutable campaign state (corpus,
/// coverage, RNG, records); execution itself is a pure function of the
/// input, which is what lets [`drive`] fan a batch across workers and
/// still merge deterministically in input order.
pub trait TrialSource {
    /// One unit of schedulable work.
    type Input: Send + Sync;
    /// What executing one input produces.
    type Output: Send;

    /// Draws the next batch of inputs; an empty batch ends the run.
    fn next_batch(&mut self) -> Vec<Self::Input>;

    /// Folds one finished batch back into the source's state, in input
    /// order, together with the batch's per-worker statistics.
    fn absorb(&mut self, batch: Vec<Self::Input>, outputs: Vec<Self::Output>, stats: Vec<WorkerStats>);
}

/// Runs a [`TrialSource`] to exhaustion: draw a batch, execute it across
/// `workers` through the scheduler, fold the results back, repeat until
/// the source stops producing.
pub fn drive<S, E>(source: &mut S, workers: usize, exec: E)
where
    S: TrialSource,
    E: Fn(usize, &S::Input, &mut WorkerStats) -> S::Output + Sync,
{
    loop {
        let batch = source.next_batch();
        if batch.is_empty() {
            return;
        }
        let run = Scheduler::new(workers)
            .supervised(SEGMENT_DEADLINE)
            .run_plain(&batch, &exec);
        source.absorb(batch, run.results, run.worker_stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_results_are_in_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for workers in [1, 2, 5] {
            let run = Scheduler::new(workers).run_plain(&items, |_, &x, _| x * 2);
            assert_eq!(run.results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(run.worker_stats.len(), run.workers);
            let executed: usize = run.worker_stats.iter().map(|s| s.segments_executed).sum();
            assert_eq!(executed, items.len());
        }
    }

    #[test]
    fn preassignment_gives_every_worker_work() {
        let items: Vec<usize> = (0..6).collect();
        let run = Scheduler::new(6).preassigned().run_plain(&items, |_, &x, _| {
            std::thread::sleep(Duration::from_millis(1));
            x
        });
        assert_eq!(run.workers, 6);
        for s in &run.worker_stats {
            assert!(s.segments_executed > 0, "worker {} idled", s.worker);
        }
    }

    #[test]
    fn quarantine_retries_then_substitutes() {
        let items: Vec<usize> = (0..4).collect();
        let window = |_: usize, _: &usize| (0, 1);
        let placeholder = |_: usize, &item: &usize, _: &str| item + 100;
        let run = Scheduler::new(2).preassigned().run_quarantined(
            &items,
            |_, &x, _| {
                if x == 2 {
                    panic!("boom {x}");
                }
                x
            },
            &Quarantine {
                window: &window,
                placeholder: &placeholder,
            },
        );
        assert_eq!(run.results, vec![0, 1, 102, 3]);
        assert_eq!(run.failures.len(), 1);
        assert!(run.failures[0].quarantined);
        assert!(run.failures[0].panic.contains("boom 2"));
    }

    #[test]
    fn supervisor_reclaims_overdue_items_without_changing_results() {
        let items: Vec<usize> = (0..4).collect();
        let run = Scheduler::new(2)
            .preassigned()
            .supervised(Duration::from_millis(5))
            .run_plain(&items, |_, &x, _| {
                if x == 0 {
                    // Simulate a stuck worker: held far past the deadline,
                    // but it does eventually return — the reclaimer's
                    // duplicate is identical and first-wins keeps the
                    // transcript stable.
                    std::thread::sleep(Duration::from_millis(60));
                }
                x * 10
            });
        assert_eq!(run.results, vec![0, 10, 20, 30]);
        assert!(
            !run.supervision.is_empty(),
            "the overdue item was never reclaimed"
        );
        assert_eq!(run.supervision[0].segment, 0);
        let reclaims: usize = run.worker_stats.iter().map(|s| s.reclaims).sum();
        assert_eq!(reclaims, run.supervision.len());
    }

    #[test]
    fn segment_plan_absorbs_remainder() {
        let segs = segment_plan(10, 4);
        assert_eq!(
            segs.iter().map(|s| (s.skip, s.take)).collect::<Vec<_>>(),
            vec![(0, 4), (4, 4), (8, 2)]
        );
        assert!(segment_plan(0, 4).is_empty());
    }

    #[test]
    fn resumed_run_quarantines_a_panicking_segment_by_plan_index() {
        struct NoCheckpoint;
        impl CheckpointSharing for NoCheckpoint {
            fn sharing_stats(&self) -> (usize, usize) {
                (0, 0)
            }
        }
        /// Four two-op segments; segment 2 panics on every attempt.
        struct Stub;
        impl Driver for Stub {
            type Checkpoint = NoCheckpoint;
            type SegmentOut = String;
            fn plan_len(&self) -> usize {
                8
            }
            fn deploy_base(&self) -> (Arc<NoCheckpoint>, u64) {
                (Arc::new(NoCheckpoint), 0)
            }
            fn build_prefix(
                &self,
                _: &NoCheckpoint,
                _: usize,
                _: &mut WorkerStats,
            ) -> NoCheckpoint {
                NoCheckpoint
            }
            fn run_segment(
                &self,
                seg: Segment,
                _: &NoCheckpoint,
                _: &NoCheckpoint,
                _: &mut WorkerStats,
            ) -> String {
                if seg.index == 2 {
                    panic!("segment 2 exploded");
                }
                format!("ran {}", seg.index)
            }
            fn quarantined(&self, seg: Segment, panic: &str) -> String {
                format!("quarantined {}: {panic}", seg.index)
            }
        }
        let completed = BTreeMap::from([
            (0, "journaled 0".to_string()),
            (1, "journaled 1".to_string()),
        ]);
        let sunk: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let sink = |seg: Segment, out: &String| sunk.lock().unwrap().push((seg.index, out.clone()));
        let run = run_segmented(&Stub, 2, 2, &SnapshotDepot::new(), completed, Some(&sink));

        assert_eq!(run.segments, 4);
        let placeholder = "quarantined 2: segment 2 exploded";
        assert_eq!(
            run.outputs,
            ["journaled 0", "journaled 1", placeholder, "ran 3"]
        );
        // The failure carries the plan index 2, not its pending-list index 0.
        assert_eq!(run.failed_segments.len(), 1);
        let failed = &run.failed_segments[0];
        assert_eq!((failed.segment, failed.skip, failed.take), (2, 4, 2));
        assert!(failed.quarantined);
        assert_eq!(failed.panic, "segment 2 exploded");
        // The sink saw the placeholder once and never the spliced segments.
        let mut sunk = sunk.into_inner().unwrap();
        sunk.sort();
        assert_eq!(
            sunk,
            [(2, placeholder.to_string()), (3, "ran 3".to_string())]
        );
    }

    #[test]
    fn drive_runs_source_to_exhaustion_in_order() {
        struct Doubler {
            rounds: usize,
            seen: Vec<usize>,
        }
        impl TrialSource for Doubler {
            type Input = usize;
            type Output = usize;
            fn next_batch(&mut self) -> Vec<usize> {
                if self.rounds == 0 {
                    return Vec::new();
                }
                self.rounds -= 1;
                let start = self.seen.len();
                (start..start + 5).collect()
            }
            fn absorb(&mut self, _batch: Vec<usize>, outputs: Vec<usize>, _stats: Vec<WorkerStats>) {
                self.seen.extend(outputs);
            }
        }
        let mut source = Doubler {
            rounds: 3,
            seen: Vec::new(),
        };
        drive(&mut source, 3, |_, &x, _| x);
        assert_eq!(source.seen, (0..15).collect::<Vec<_>>());
    }
}
