//! The generic execution core shared by every campaign runner.
//!
//! Before this module existed the runner logic lived in six near-copies —
//! sequential, work-stealing, and fuzz runners, each with a composed twin —
//! so every new capability (crash sweeps, depot counters, quarantine) had
//! to be hand-ported six ways. `exec` collapses them onto these pieces:
//!
//! - [`Scheduler`]: one claim-by-cursor work-stealing loop behind the
//!   work-stealing and fuzz runners, with one call, [`Scheduler::run`].
//!   Every worker runs its own first item (worker `w` claims item `w`),
//!   and every in-flight item is supervised; a panicking item is retried
//!   once and then quarantined when the caller supplies a placeholder,
//!   and aborts the run when it does not. Every campaign runs through
//!   [`run_segmented`]: the sequential runs ([`crate::run_campaign`],
//!   [`crate::run_composed_campaign`]) are its one-worker, one-segment
//!   case, and [`crate::CampaignResult`] is only the single-operator
//!   sequential view of the one [`ParallelResult`].
//! - [`WorkerStats`]: the per-worker counters, folded in one place — its
//!   `+=` ([`AddAssign`]). A window body or fuzz execution counts into a
//!   tally of its own (the trial step's ledger) and the worker adds the
//!   tally to its row; a fuzz batch's rows are added to the run's.
//! - [`Driver`]: what differs between a single-operator campaign and a
//!   multi-operator [`operators::Composition`] — the trial record, how
//!   the shared base is deployed, how the canonical prefix state of a
//!   segment is built, and how the segment executes from it. The
//!   segmentation, depot lookup and deposit, claim loop,
//!   retry-then-quarantine of a panicking segment, and in-order assembly
//!   of the [`ParallelResult`] in [`run_segmented`] are shared by every
//!   driver.
//! - [`TrialRecord`]: what the run-shape types need from the trial record
//!   they carry (transcript lines, summary, the worker-panic placeholder),
//!   so one `ParallelResult`, `FuzzResult`, trial renderer and fuzz loop
//!   serve both the single-operator and the composed trial; the
//!   sequential campaign's transcript renders its trials the same way.
//! - [`Memo`]: the one content-addressed, first-insert-wins cache shared
//!   across workers: the [`SnapshotDepot`] of prefix checkpoints, the
//!   differential oracle's [`crate::FreshRefCache`] and the fuzzer's
//!   crash-consistency references.
//!
//! Determinism is the core's contract: results are always assembled in
//! item order (never completion order), so transcripts are byte-identical
//! for any worker count. The persistence layer ([`crate::persist`]) hooks
//! the per-segment sink to journal completed work and replays it through
//! `completed`, which is why interrupted runs resume byte-identically.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use operators::InstanceCheckpoint;

use crate::campaign::CampaignConfig;
use crate::parallel::ParallelResult;
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
    /// Times this worker's segments reset onto a fresh cluster to clear an
    /// alarm or an error state.
    pub resets: usize,
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
            resets: 0,
            ref_cache_hits: 0,
            ref_cache_misses: 0,
            restored_objects_shared: 0,
            restored_objects_owned: 0,
            crash_points_swept: 0,
            reclaims: 0,
            wall: Duration::ZERO,
        }
    }

    /// Counts one start restored from `start`: its structural-sharing
    /// accounting, plus a depot hit when it was served rather than built.
    pub(crate) fn restored(&mut self, start: &impl CheckpointSharing, depot_hit: bool) {
        let (shared, owned) = start.sharing_stats();
        self.depot_hits += usize::from(depot_hit);
        self.restored_objects_shared += shared;
        self.restored_objects_owned += owned;
    }
}

/// The one counter fold: adds every counter and the wall time of `other`
/// (a batch's stats row, a run's tally) into `self`, keeping `self.worker`.
impl AddAssign<&WorkerStats> for WorkerStats {
    fn add_assign(&mut self, other: &WorkerStats) {
        self.segments_executed += other.segments_executed;
        self.steals += other.steals;
        self.depot_hits += other.depot_hits;
        self.sim_seconds += other.sim_seconds;
        self.convergence_waits += other.convergence_waits;
        self.resets += other.resets;
        self.ref_cache_hits += other.ref_cache_hits;
        self.ref_cache_misses += other.ref_cache_misses;
        self.restored_objects_shared += other.restored_objects_shared;
        self.restored_objects_owned += other.restored_objects_owned;
        self.crash_points_swept += other.crash_points_swept;
        self.reclaims += other.reclaims;
        self.wall += other.wall;
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

/// A content-addressed memo shared across workers: a mutex-guarded map
/// from key to a shared value, where the first insert of a key wins.
///
/// Every value stored under a key is the same canonical result (a prefix
/// state, a reference run), so which worker's insert wins cannot change
/// anything a run reports. A panic while the lock is held cannot leave a
/// half-written entry behind (entries go in whole), so a poisoned lock is
/// simply taken over.
#[derive(Debug)]
pub struct Memo<K, V> {
    slots: Mutex<BTreeMap<K, Arc<V>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo {
            slots: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<K: Ord, V> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Memo<K, V> {
        Memo::default()
    }

    fn slots(&self) -> MutexGuard<'_, BTreeMap<K, Arc<V>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The value memoized under `key`, if any.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
    {
        self.slots().get(key).cloned()
    }

    /// Memoizes `value` under `key`; an existing entry wins (the first
    /// insert is already canonical).
    pub fn put(&self, key: K, value: Arc<V>) {
        self.slots().entry(key).or_insert(value);
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
pub type SnapshotDepot<T = InstanceCheckpoint> = Memo<usize, T>;

impl<T: CheckpointSharing> Memo<usize, T> {
    /// Sharing accounting over every resident snapshot: objects shared
    /// with at least one other snapshot versus uniquely owned, summed
    /// across slots. With the CoW store, resident snapshots that differ
    /// only in a few objects keep almost everything in the shared column.
    pub fn sharing_stats(&self) -> (usize, usize) {
        let mut shared = 0;
        let mut owned = 0;
        for cp in self.slots().values() {
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

/// The one claim-by-cursor work-stealing loop the work-stealing and fuzz
/// runners schedule through. `workers` threads claim items from a shared
/// atomic cursor and run the work closure on each; results come back in
/// *item order* regardless of which worker ran what, so callers that fold
/// over them stay deterministic for any worker count.
///
/// Worker `w` is pre-assigned item `w` (the cursor hands out the rest), so
/// every spawned worker executes at least one item even when items finish
/// faster than threads spawn. In-flight items are supervised: a worker
/// that runs out of cursor work stays on duty until every result is in,
/// reclaiming and re-executing any item another worker has held past
/// the supervision deadline (a fixed 300 s). See [`SupervisionEvent`]
/// for why neither can change a transcript.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
    deadline: Duration,
}

/// What one [`Scheduler`] pass produced.
pub struct ScheduleRun<R> {
    /// Worker count actually used (clamped to the item count).
    pub workers: usize,
    /// Per-item results, in item order.
    pub results: Vec<R>,
    /// Per-worker statistics, sorted by worker index.
    pub worker_stats: Vec<WorkerStats>,
    /// Items whose execution panicked (empty without a placeholder). The
    /// scheduler knows no plan windows: `skip` and `take` are 0.
    pub failures: Vec<FailedSegment>,
    /// Watchdog reclaims of overdue items, sorted by item index.
    pub supervision: Vec<SupervisionEvent>,
}

/// How [`Scheduler::run`] builds the result standing in for a quarantined
/// item: from the item and the last panic message.
type Placeholder<'a, T, R> = &'a (dyn Fn(&T, &str) -> R + Sync);

impl Scheduler {
    /// A scheduler over `workers` threads.
    pub fn new(workers: usize) -> Scheduler {
        Scheduler {
            workers,
            deadline: SEGMENT_DEADLINE,
        }
    }

    /// Runs `f` over every item. Without a `placeholder` a panic
    /// propagates out of the scope and aborts the run: fuzz batches run
    /// this way, since execution is a pure function of the input and a
    /// panic is a harness bug. With one, a panicking item is retried once
    /// (its closure must be restartable — segment execution always begins
    /// from the canonical prefix snapshot); a second panic quarantines the
    /// item, recording a [`FailedSegment`] and substituting the
    /// placeholder's result so the loss stays visible instead of sinking
    /// the whole run.
    pub fn run<T, R, F>(
        &self,
        items: &[T],
        f: F,
        placeholder: Option<Placeholder<'_, T, R>>,
    ) -> ScheduleRun<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut WorkerStats) -> R + Sync,
    {
        let workers = self.workers.max(1).min(items.len().max(1));
        // Worker `w` runs item `w` first; the cursor therefore starts past
        // the pre-assigned block.
        let cursor = AtomicUsize::new(workers);
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
        // The step-engine selection is per thread; workers inherit the
        // caller's.
        let ticked = simkube::ticked_engine();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let (cursor, results, stats, failed, f) = (&cursor, &results, &stats, &failed, &f);
                let (in_flight, supervision) = (&in_flight, &supervision);
                handles.push(scope.spawn(move || {
                    simkube::set_ticked_engine(ticked);
                    let worker_start = Instant::now();
                    let mut my = WorkerStats::new(w);
                    let mut preassigned = Some(w);
                    let execute = |i: usize, my: &mut WorkerStats| {
                        in_flight
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(i, (w, Instant::now()));
                        let r = match placeholder {
                            None => f(&items[i], my),
                            Some(placeholder) => attempt(i, &items[i], f, placeholder, failed, my),
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
                    // Cursor exhausted — the batch barrier. An idle worker
                    // stays on duty until every result is in, reclaiming
                    // items held past the deadline.
                    loop {
                        if results.lock().unwrap_or_else(|e| e.into_inner()).len() >= items.len() {
                            break;
                        }
                        match claim_overdue(in_flight, w, self.deadline) {
                            Some((i, holder, elapsed)) => {
                                my.reclaims += 1;
                                supervision.lock().unwrap_or_else(|e| e.into_inner()).push(
                                    SupervisionEvent {
                                        segment: i,
                                        stuck_worker: holder,
                                        reclaimed_by: w,
                                        overdue: elapsed,
                                    },
                                );
                                execute(i, &mut my);
                            }
                            None => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    my.wall = worker_start.elapsed();
                    stats.lock().unwrap_or_else(|e| e.into_inner()).push(my);
                }));
            }
            if placeholder.is_some() {
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
}

/// Claims the first in-flight item another worker has held past
/// `deadline`: returns it with its holder and how long it was held. The
/// claim happens under the lock, so two idle workers never reclaim the
/// same item.
fn claim_overdue(
    in_flight: &Mutex<BTreeMap<usize, (usize, Instant)>>,
    w: usize,
    deadline: Duration,
) -> Option<(usize, usize, Duration)> {
    let mut guard = in_flight.lock().unwrap_or_else(|e| e.into_inner());
    let found = guard.iter().find_map(|(&i, &(holder, since))| {
        (holder != w && since.elapsed() >= deadline).then_some((i, holder, since.elapsed()))
    });
    if let Some((i, _, _)) = found {
        guard.remove(&i);
    }
    found
}

/// Runs item `i` under the quarantine discipline: one retry after a
/// panic, then the placeholder.
fn attempt<T, R, F>(
    i: usize,
    item: &T,
    f: &F,
    placeholder: Placeholder<'_, T, R>,
    failed: &Mutex<Vec<FailedSegment>>,
    my: &mut WorkerStats,
) -> R
where
    F: Fn(&T, &mut WorkerStats) -> R + Sync,
{
    let mut once = || catch_unwind(AssertUnwindSafe(|| f(item, &mut *my)));
    let fail = |panic: String, quarantined: bool| {
        failed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(FailedSegment {
                segment: i,
                skip: 0,
                take: 0,
                panic,
                quarantined,
            });
    };
    match once() {
        Ok(r) => r,
        Err(payload) => {
            // Graceful degradation: retry the item once (segment execution
            // always starts from the canonical prefix snapshot, so the
            // retry sees pristine state). A second panic quarantines it.
            let first = panic_message(payload.as_ref());
            match once() {
                Ok(r) => {
                    fail(first, false);
                    r
                }
                Err(payload) => {
                    let last = panic_message(payload.as_ref());
                    fail(last.clone(), true);
                    placeholder(item, &last)
                }
            }
        }
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

/// Observer invoked with each freshly completed segment's trials, from
/// inside the worker threads — the persistence layer journals through it.
pub type SegmentSink<'s, T> = &'s (dyn Fn(Segment, &[T]) + Sync);

/// What differs between the single-operator and composed segment runners:
/// the trial record, base deployment, the canonical prefix state a segment
/// starts from, and the segment body. Everything else — segmentation, the
/// depot lookup and deposit, the claim loop, quarantine, in-order assembly
/// of the [`ParallelResult`] — is [`run_segmented`].
pub trait Driver: Sync {
    /// Checkpoint type the snapshot depot stores for this target.
    type Checkpoint: CheckpointSharing + Send + Sync;
    /// The trial record a segment produces.
    type Trial: TrialRecord;

    /// The run's configuration.
    fn config(&self) -> &CampaignConfig;

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
    ) -> Vec<Self::Trial>;
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

    /// Attributed findings over a run's trials, in order.
    fn summarize<'a>(
        config: &CampaignConfig,
        trials: impl IntoIterator<Item = &'a Self>,
    ) -> CampaignSummary
    where
        Self: 'a;

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
/// base, cut the plan into fixed-size segments, claim them, and assemble
/// the result in plan order. The caller fills in `gen_duration` and, when
/// planning happened before this call, `wall`. An empty plan is one empty
/// segment, so the campaign-level trials of skip 0 still run.
///
/// `completed` splices in trials of segments already finished by an
/// earlier (interrupted) run — they are not re-executed and charge no
/// worker statistics. `sink` observes every freshly completed segment
/// (including quarantined placeholders) from inside the worker threads;
/// the persistence layer journals through it.
pub fn run_segmented<D: Driver>(
    driver: &D,
    workers: usize,
    segment_ops: usize,
    depot: &SnapshotDepot<D::Checkpoint>,
    mut completed: BTreeMap<usize, Vec<D::Trial>>,
    sink: Option<SegmentSink<'_, D::Trial>>,
) -> ParallelResult<D::Trial> {
    let run_start = Instant::now();
    let config = driver.config();
    let segment_ops = segment_ops.max(1);
    let mut segments = segment_plan(driver.plan_len(), segment_ops);
    if segments.is_empty() {
        // An empty plan still runs the campaign-level trials of skip 0:
        // the fault burst, a composition's deploy interference.
        segments.push(Segment {
            index: 0,
            skip: 0,
            take: 0,
        });
    }
    let pending: Vec<Segment> = segments
        .iter()
        .copied()
        .filter(|s| !completed.contains_key(&s.index))
        .collect();

    // Deploy the shared base once and checkpoint it: every reset and
    // differential reference in every segment restores this snapshot
    // instead of paying for a redeployment.
    let (base, base_sim_seconds) = driver.deploy_base();
    depot.put(0, Arc::clone(&base));

    let sunk = |seg: &Segment, trials: Vec<D::Trial>| {
        if let Some(sink) = sink {
            sink(*seg, &trials);
        }
        trials
    };
    let work = |seg: &Segment, my: &mut WorkerStats| {
        // Segment `k` starts from the canonical prefix state, served from
        // the depot or built once and deposited for every later claim.
        let (start, hit) = match depot.get(&seg.skip) {
            Some(cp) => (cp, true),
            None => {
                let cp = Arc::new(driver.build_prefix(&base, seg.skip, my));
                depot.put(seg.skip, Arc::clone(&cp));
                (cp, false)
            }
        };
        my.restored(&*start, hit);
        sunk(seg, driver.run_segment(*seg, &base, &start, my))
    };
    let placeholder =
        |seg: &Segment, panic: &str| sunk(seg, vec![D::Trial::worker_panic(config, *seg, panic)]);
    let run = Scheduler::new(workers).run(&pending, work, Some(&placeholder));

    // Failures and reclaims carry pending-list indices; map them back to
    // plan segments (join errors keep their usize::MAX marker).
    let mut failed_segments = run.failures;
    for f in &mut failed_segments {
        if let Some(seg) = pending.get(f.segment) {
            (f.segment, f.skip, f.take) = (seg.index, seg.skip, seg.take);
        }
    }
    let mut supervision_events = run.supervision;
    for e in &mut supervision_events {
        e.segment = pending[e.segment].index;
    }

    // Assemble trials in plan order, splicing journaled segments.
    for (seg, trials) in pending.iter().zip(run.results) {
        completed.insert(seg.index, trials);
    }
    let trials: Vec<D::Trial> = completed.into_values().flatten().collect();
    let worker_sim = run.worker_stats.iter().map(|s| s.sim_seconds);
    let total_sim_seconds = base_sim_seconds + worker_sim.clone().sum::<u64>();
    let makespan_sim_seconds = worker_sim.max().unwrap_or(0);
    let (depot_shared_objects, depot_owned_objects) = depot.sharing_stats();
    ParallelResult {
        operator: D::Trial::target(config),
        mode: config.mode,
        workers: run.workers,
        segment_ops,
        segments: segments.len(),
        summary: D::Trial::summarize(config, &trials),
        trials,
        total_sim_seconds,
        makespan_sim_seconds,
        base_sim_seconds,
        gen_duration: Duration::ZERO,
        wall: run_start.elapsed(),
        worker_stats: run.worker_stats,
        failed_segments,
        supervision_events,
        depot_snapshots: depot.len(),
        depot_shared_objects,
        depot_owned_objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_results_are_in_item_order() {
        let items: Vec<usize> = (0..37).collect();
        for workers in [1, 2, 5] {
            let run = Scheduler::new(workers).run(&items, |&x, _| x * 2, None);
            assert_eq!(run.results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(run.worker_stats.len(), run.workers);
            let executed: usize = run.worker_stats.iter().map(|s| s.segments_executed).sum();
            assert_eq!(executed, items.len());
        }
    }

    #[test]
    fn preassignment_gives_every_worker_work() {
        let items: Vec<usize> = (0..6).collect();
        let run = Scheduler::new(6).run(
            &items,
            |&x, _| {
                std::thread::sleep(Duration::from_millis(1));
                x
            },
            None,
        );
        assert_eq!(run.workers, 6);
        for s in &run.worker_stats {
            assert!(s.segments_executed > 0, "worker {} idled", s.worker);
        }
    }

    #[test]
    fn quarantine_retries_then_substitutes() {
        let items: Vec<usize> = (0..4).collect();
        let placeholder = |&item: &usize, _: &str| item + 100;
        let run = Scheduler::new(2).run(
            &items,
            |&x, _| {
                if x == 2 {
                    panic!("boom {x}");
                }
                x
            },
            Some(&placeholder),
        );
        assert_eq!(run.results, vec![0, 1, 102, 3]);
        assert_eq!(run.failures.len(), 1);
        assert!(run.failures[0].quarantined);
        assert!(run.failures[0].panic.contains("boom 2"));
    }

    #[test]
    fn supervisor_reclaims_overdue_items_without_changing_results() {
        let items: Vec<usize> = (0..4).collect();
        let scheduler = Scheduler {
            deadline: Duration::from_millis(5),
            ..Scheduler::new(2)
        };
        let run = scheduler.run(
            &items,
            |&x, _| {
                if x == 0 {
                    // Simulate a stuck worker: held far past the deadline,
                    // but it does eventually return — the reclaimer's
                    // duplicate is identical and first-wins keeps the
                    // transcript stable.
                    std::thread::sleep(Duration::from_millis(60));
                }
                x * 10
            },
            None,
        );
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
        use crate::model::{Mode, Trial, TrialOutcome};
        use crdspec::Value;

        struct NoCheckpoint;
        impl CheckpointSharing for NoCheckpoint {
            fn sharing_stats(&self) -> (usize, usize) {
                (0, 0)
            }
        }
        /// One trial at the segment's first op, its scenario naming where
        /// it came from.
        fn stub_trial(skip: usize, scenario: &'static str) -> Vec<Trial> {
            let op = crate::step::synthetic_op(skip, scenario, Value::Null);
            vec![crate::step::trial(
                op,
                Value::Null,
                TrialOutcome::Converged,
                Vec::new(),
                0,
            )]
        }
        /// Four two-op segments; segment 2 panics on every attempt.
        struct Stub(CampaignConfig);
        impl Driver for Stub {
            type Checkpoint = NoCheckpoint;
            type Trial = Trial;
            fn config(&self) -> &CampaignConfig {
                &self.0
            }
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
            ) -> Vec<Trial> {
                if seg.index == 2 {
                    panic!("segment 2 exploded");
                }
                stub_trial(seg.skip, "ran")
            }
        }
        let completed = BTreeMap::from([
            (0, stub_trial(0, "journaled")),
            (1, stub_trial(2, "journaled")),
        ]);
        let sunk: Mutex<Vec<(usize, &str)>> = Mutex::new(Vec::new());
        let sink = |seg: Segment, trials: &[Trial]| {
            let scenarios = trials.iter().map(|t| (seg.index, t.op.scenario));
            sunk.lock().unwrap().extend(scenarios);
        };
        let stub = Stub(CampaignConfig::fuzz("ZooKeeperOp", Mode::Whitebox));
        let run = run_segmented(&stub, 2, 2, &SnapshotDepot::new(), completed, Some(&sink));

        assert_eq!(run.segments, 4);
        let scenarios: Vec<_> = run
            .trials
            .iter()
            .map(|t| (t.op.index, t.op.scenario))
            .collect();
        // The placeholder sits at the quarantined segment's plan position.
        assert_eq!(
            scenarios,
            [
                (0, "journaled"),
                (2, "journaled"),
                (4, "worker-panic"),
                (6, "ran")
            ]
        );
        assert_eq!(
            run.trials[2].alarms[0].detail,
            "worker panic in segment 2: segment 2 exploded"
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
        assert_eq!(sunk, [(2, "worker-panic"), (3, "ran")]);
    }
}
