//! The simulated cluster: API server, scheduler, controllers, pod lifecycle,
//! simulated clock, logs, and convergence detection.
//!
//! [`SimCluster::step`] advances the world one simulated second: built-in
//! controllers reconcile, the scheduler binds pods, and pod lifecycle
//! progresses (image pulls, container starts, crash loops). Acto's
//! convergence detection ([`wait`]) implements the paper's reset timer
//! (§5.5): the timer restarts on every observed state event and
//! convergence is declared when it expires. The one wait loop serves a
//! bare cluster ([`SimCluster::run_until_converged`]), an operator
//! instance and a composition of instances alike, through [`Converge`].
//!
//! # The event-driven step engine
//!
//! By default the cluster runs an event-driven engine: controllers and the
//! scheduler only re-run when one of their input kinds changed since their
//! last run ([`crate::controllers::run_all_dirty`]), and once a tick changes
//! nothing observable ([`SimCluster::quiescence_fingerprint`]) the clock
//! jumps straight to the next timer wakeup ([`SimCluster::next_wakeup`]: pod
//! start/readiness deadlines, fault firings, node returns, blackout expiry)
//! or to the reset-timer expiry, instead of ticking through idle seconds.
//! Every skipped tick is provably a no-op, so sim timestamps, logs, and
//! watch events are byte-identical to the legacy ticked loop, which remains
//! available behind [`set_ticked_engine`] for equivalence testing.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::api::ApiServer;
use crate::controllers::ControllerCursors;
use crate::meta::ObjectMeta;
use crate::objects::{Container, Kind, Node, ObjectData, Pod, PodPhase, StoredObject};
use crate::platform::PlatformBugs;
use crate::pmap::PMap;
use crate::scheduler;
use crate::store::{ObjKey, ObjectStore};

/// Seconds a scheduled pod takes to pull its image and start containers.
pub const POD_START_DELAY: u64 = 3;

/// Seconds a running pod takes to pass readiness.
pub const POD_READY_DELAY: u64 = 2;

/// Watch events retained below the current revision before the event log is
/// compacted (event-driven mode only; far above any consumer's look-back).
pub const EVENT_LOG_KEEP: u64 = 256;

thread_local! {
    static TICKED_ENGINE: Cell<bool> = const { Cell::new(false) };
}

/// Selects the legacy ticked loop (`true`) or the event-driven engine
/// (`false`, the default) for clusters stepped on this thread. Exists for
/// the equivalence harness and the `step_engine` bench baseline.
pub fn set_ticked_engine(enabled: bool) {
    TICKED_ENGINE.with(|f| f.set(enabled));
}

/// Returns `true` when the legacy ticked loop is selected on this thread.
pub fn ticked_engine() -> bool {
    TICKED_ENGINE.with(|f| f.get())
}

static TICKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static TICKS_SKIPPED: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(ticks_executed, ticks_skipped)` across all clusters, for
/// benches. Skipped ticks are simulated seconds the engine fast-forwarded
/// over without executing.
pub fn engine_counters() -> (u64, u64) {
    (
        TICKS_EXECUTED.load(Ordering::Relaxed),
        TICKS_SKIPPED.load(Ordering::Relaxed),
    )
}

static CHECKPOINT_FORKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of clusters materialized from checkpoints
/// ([`SimCluster::from_checkpoint`] and [`SimCluster::restore`]). The fuzz
/// bench uses the delta across a run to prove fork-from-checkpoint — not
/// redeploy — is the hot path.
pub fn checkpoint_forks() -> u64 {
    CHECKPOINT_FORKS.load(Ordering::Relaxed)
}

/// Dirty-tracking state of the event-driven engine: reconcile-queue cursors,
/// tick accounting, and the maintained indexes that make steady-state step
/// cost proportional to what changed (scheduler index, pod-deadline timer
/// index, dirty-pod cursor, waiter sets). Every index is a pure function of
/// store content plus its `synced` revision, kept current by replaying the
/// store's watch-event log, so checkpointing this struct (an O(1) persistent
///-map clone) captures the whole engine and restored clusters replay
/// bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct StepEngine {
    cursors: ControllerCursors,
    ticks_executed: u64,
    ticks_skipped: u64,
    /// Incremental scheduler index (event-driven mode only).
    sched: scheduler::SchedIndex,
    /// `(deadline, pod)` timer index backing [`SimCluster::next_wakeup`]
    /// and the due-timer part of the dirty-pod set.
    timers: PodTimers,
    /// Store revision up to which [`SimCluster::advance_pods`] has already
    /// observed pod events; only pods with events past it are revisited.
    pod_cursor: u64,
    /// Pods that must be revisited regardless of store events (crash
    /// conditions toggle without a store write).
    forced_dirty: BTreeSet<ObjKey>,
    /// Pods last seen blocked on an unbound claim: revisited whenever any
    /// PVC event lands.
    vol_waiters: PMap<ObjKey, ()>,
    /// Pods last seen in ImagePullBackOff: revisited whenever the image
    /// catalog changes.
    image_waiters: PMap<ObjKey, ()>,
    /// Catalog epoch the waiter pass last observed.
    image_epoch_seen: u64,
}

/// Timer index over `(deadline, pod key)`: every pod sitting in a timed
/// phase (Pending-and-bound waiting out [`POD_START_DELAY`], Running-not-
/// ready waiting out [`POD_READY_DELAY`]) appears exactly once, keyed by
/// the absolute sim-time at which its transition fires. Synchronized from
/// the store's watch-event log (full rebuild when the log was compacted
/// past `synced`), so [`SimCluster::next_wakeup`] reads the earliest
/// deadline in O(log n) instead of scanning every pod.
#[derive(Debug, Clone, Default)]
pub struct PodTimers {
    synced: u64,
    by_deadline: PMap<(u64, ObjKey), ()>,
    per_pod: PMap<ObjKey, u64>,
}

impl PodTimers {
    /// The deadline rule. Must mirror the legacy full scan in
    /// [`SimCluster::next_wakeup`] exactly: a pod has a timer iff the scan
    /// would consider it.
    fn deadline_for(pod: &Pod) -> Option<u64> {
        match pod.phase {
            PodPhase::Pending if pod.node_name.is_some() => Some(pod.phase_since + POD_START_DELAY),
            PodPhase::Running if !pod.ready => Some(pod.phase_since + POD_READY_DELAY),
            _ => None,
        }
    }

    /// Brings the index up to the store's current revision by replaying
    /// pod events, or rebuilding from a full scan if the event log was
    /// compacted past our cursor.
    fn sync(&mut self, store: &ObjectStore) {
        if store.revision() == self.synced {
            return;
        }
        if store.events_floor() > self.synced {
            self.rebuild(store);
            return;
        }
        let events = store.events_since(self.synced);
        // Refreshing reads *current* store state, so each key needs exactly
        // one refresh no matter how often it recurs in the batch; a reverse
        // scan with a seen-set keeps that O(batch log batch) even when one
        // tick touches every pod (e.g. a 20k-pod start-delay burst).
        let mut seen: BTreeSet<&ObjKey> = BTreeSet::new();
        for event in events.iter().rev() {
            if event.key.kind != Kind::Pod {
                continue;
            }
            if !seen.insert(&event.key) {
                continue;
            }
            // The dedup keeps only each key's last event, whose payload is
            // exactly the object's current state — no store descent needed.
            self.refresh(&event.key, event.obj.as_deref());
        }
        self.synced = store.revision();
    }

    fn rebuild(&mut self, store: &ObjectStore) {
        *self = PodTimers::default();
        for (key, obj) in store.iter() {
            if let ObjectData::Pod(p) = &obj.data {
                if let Some(d) = Self::deadline_for(p) {
                    self.per_pod.insert(key.clone(), d);
                    self.by_deadline.insert((d, key.clone()), ());
                }
            }
        }
        self.synced = store.revision();
    }

    fn refresh(&mut self, key: &ObjKey, current_obj: Option<&StoredObject>) {
        let current = current_obj.and_then(|obj| match &obj.data {
            ObjectData::Pod(p) => Self::deadline_for(p),
            _ => None,
        });
        let cached = self.per_pod.get(key).copied();
        if cached == current {
            return;
        }
        if let Some(d) = cached {
            self.by_deadline.remove(&(d, key.clone()));
            self.per_pod.remove(key);
        }
        if let Some(d) = current {
            self.by_deadline.insert((d, key.clone()), ());
            self.per_pod.insert(key.clone(), d);
        }
    }

    /// Earliest deadline strictly after `now`, if any.
    fn next_after(&self, now: u64) -> Option<u64> {
        self.by_deadline
            .range_from_by(|k| {
                if k.0 <= now {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .next()
            .map(|(k, _)| k.0)
    }

    /// Pod keys whose deadline is at or before `now` (due or overdue).
    fn due_keys(&self, now: u64) -> impl Iterator<Item = &ObjKey> {
        self.by_deadline
            .iter()
            .take_while(move |(k, _)| k.0 <= now)
            .map(|(k, _)| &k.1)
    }
}

/// Crash conditions keyed `(namespace, pod name)`, stored as a sorted vec
/// so the per-pod lookup in [`SimCluster::advance_pods`] is a zero-
/// allocation binary search on borrowed strings (the old `BTreeMap<String,
/// String>` keyed `"ns/name"` allocated a fresh key per pod per tick).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CrashMap {
    entries: Vec<((String, String), String)>,
}

impl CrashMap {
    fn position(&self, namespace: &str, pod_name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|((ns, name), _)| {
            (ns.as_str(), name.as_str()).cmp(&(namespace, pod_name))
        })
    }

    fn get(&self, namespace: &str, pod_name: &str) -> Option<&str> {
        self.position(namespace, pod_name)
            .ok()
            .map(|i| self.entries[i].1.as_str())
    }

    /// Returns the previous reason, like `BTreeMap::insert`.
    fn insert(&mut self, namespace: &str, pod_name: &str, reason: &str) -> Option<String> {
        match self.position(namespace, pod_name) {
            Ok(i) => Some(std::mem::replace(
                &mut self.entries[i].1,
                reason.to_string(),
            )),
            Err(i) => {
                self.entries.insert(
                    i,
                    (
                        (namespace.to_string(), pod_name.to_string()),
                        reason.to_string(),
                    ),
                );
                None
            }
        }
    }

    fn remove(&mut self, namespace: &str, pod_name: &str) -> Option<String> {
        self.position(namespace, pod_name)
            .ok()
            .map(|i| self.entries.remove(i).1)
    }

    fn iter(&self) -> impl Iterator<Item = (&(String, String), &String)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Lifecycle transition decided for one pod by the read pass of
/// [`SimCluster::advance_pods`], applied by the mutation pass.
#[derive(Debug)]
/// How a dirty pod's current object is obtained in the decide pass:
/// `Event` carries the post-write handle from the pod's last watch event
/// (`None` when that event was a deletion); `Probe` means the pod is dirty
/// for a non-event reason (timer due, waiter refresh, forced) and must be
/// read from the store.
enum DirtySource {
    Event(Option<Arc<StoredObject>>),
    Probe,
}

enum PodAction {
    /// Enter (or stay in) a crash loop; `already` suppresses the restart
    /// counter bump and the log line.
    CrashLoop { already: bool, msg: Option<String> },
    /// Record a stuck reason (config error, unbound volume).
    SetReason(&'static str),
    /// Record ImagePullBackOff, logging on the first occurrence.
    ImagePull { log: Option<String> },
    /// Pending pod finished its start delay.
    Start,
    /// Running pod passed readiness.
    MarkReady,
    /// Failed pod with no crash condition restarts.
    Restart,
}

/// Observable-state fingerprint used by the engine's no-op detection: two
/// equal fingerprints around a tick prove the tick changed nothing any
/// oracle, transcript, or controller can see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterFingerprint {
    revision: u64,
    logs: usize,
    crash_epoch: u64,
    pending_conflicts: u32,
    faults: Option<(usize, u32, u64, usize)>,
    /// Crash-point interposer state: `(operator_writes, armed crash
    /// point)`. The write counter only advances with the store revision,
    /// so including it never blocks fast-forward; the armed countdown
    /// keeps a pending crash point from being skipped over.
    crash_points: (u64, Option<(u32, u64)>),
}

impl ClusterFingerprint {
    /// Hash of the fingerprint's *repeatable* components, for coverage
    /// bucketing in the fuzzer. Monotonic counters (store revision, log
    /// length, cumulative operator writes, fault-event count) are excluded
    /// — they grow with execution history, so hashing them would make every
    /// execution trivially "novel" and collapse coverage guidance into pure
    /// random search. What remains distinguishes genuinely different
    /// quiescent conditions: crash epoch, pending injected conflicts,
    /// fault-injector progress, and any armed crash point.
    pub fn coverage_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mut mix = |n: u64| {
            for byte in n.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.crash_epoch);
        mix(u64::from(self.pending_conflicts));
        // The fault injector's cursor and blackout deadline are excluded on
        // purpose: the cursor tracks plan length and the deadline is an
        // absolute sim-time, so hashing either would mint a "novel" bucket
        // for every distinct fault plan — trivial novelty that says nothing
        // about the observable system. Only undrained transient errors
        // (pending work the operator still owes) are territory.
        match &self.faults {
            None => mix(0),
            Some((_next, errors, _blackout, _events)) => {
                mix(1);
                mix(u64::from(*errors));
            }
        }
        match self.crash_points.1 {
            None => mix(0),
            Some((at_write, down_for)) => {
                mix(1);
                mix(u64::from(at_write));
                mix(down_for);
            }
        }
        h
    }
}

/// Log severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Informational message.
    Info,
    /// Warning.
    Warn,
    /// Error (scanned by Acto's error-log oracle).
    Error,
    /// Unrecoverable operator crash (panic).
    Panic,
}

/// One log entry from the operator or the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Simulated time of the entry.
    pub time: u64,
    /// Severity.
    pub level: LogLevel,
    /// Component that produced it (e.g. the operator name).
    pub source: String,
    /// Message text.
    pub message: String,
}

/// Generated node topology for production-sized clusters: `count` uniform
/// nodes spread round-robin across `zones` availability zones, optionally
/// pre-populated with inert background pods that load the scheduler and
/// store the way a busy shared cluster would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTopology {
    /// Number of nodes to generate (`node-00000`, `node-00001`, ...).
    pub nodes: usize,
    /// Per-node CPU capacity (e.g. `"16"`).
    pub cpu: String,
    /// Per-node memory capacity (e.g. `"64Gi"`).
    pub memory: String,
    /// Availability zones; node `i` gets label `zone=zone-{i % zones}`.
    pub zones: usize,
    /// Background pods (`bg-000000`, ... in namespace `"background"`) to
    /// seed, each requesting 50m CPU / 64Mi memory. They schedule and run
    /// like any workload but live in their own namespace, so per-namespace
    /// controller scans stay small while the scheduler, timer index, and
    /// fingerprint paths all carry the full population.
    pub background_pods: usize,
}

impl NodeTopology {
    /// A `count`-node topology with the default node shape (16 CPU / 64Gi,
    /// two zones, no background pods).
    pub fn new(count: usize) -> NodeTopology {
        NodeTopology {
            nodes: count,
            cpu: "16".to_string(),
            memory: "64Gi".to_string(),
            zones: 2,
            background_pods: 0,
        }
    }
}

/// Namespace that generated background pods live in.
pub const BACKGROUND_NAMESPACE: &str = "background";

/// Image used by generated background pods (auto-added to the catalog).
pub const BACKGROUND_IMAGE: &str = "pause:3.9";

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Nodes to create: `(name, cpu, memory)`.
    pub nodes: Vec<(String, String, String)>,
    /// Container images that can be pulled.
    pub image_catalog: Vec<String>,
    /// Platform-bug configuration.
    pub bugs: PlatformBugs,
    /// Generated large-cluster topology. When set, replaces `nodes` and may
    /// seed background pods; when `None` the explicit `nodes` list is used.
    pub topology: Option<NodeTopology>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: (0..4)
                .map(|i| (format!("node-{i}"), "16".to_string(), "64Gi".to_string()))
                .collect(),
            image_catalog: Vec::new(),
            bugs: PlatformBugs::all(),
            topology: None,
        }
    }
}

/// A deep, resumable snapshot of a [`SimCluster`] at an instant.
///
/// Built on [`crate::store::ObjectStore::snapshot`] (via
/// [`crate::api::ApiServer::snapshot`]), plus the simulated clock, the log
/// buffer, the image catalog, crash-loop conditions, any mid-flight
/// fault-injector state, and the step engine's reconcile cursors
/// ([`StepEngine`]; timer wakeups are derived from object state, so the
/// cursors are the engine's only persistent state). The scheduler and the
/// built-in controllers are otherwise stateless functions over the store:
/// restoring a checkpoint and stepping forward replays bit-for-bit what the
/// original cluster would have done.
///
/// Checkpoints power Acto's test partitioning (paper §5.5): a parallel
/// worker starting plan segment `k` restores the converged prefix state
/// instead of redeploying and re-converging from scratch.
#[derive(Debug, Clone)]
pub struct ClusterCheckpoint {
    api: ApiServer,
    time: u64,
    /// Shared with the live cluster until either side logs again.
    logs: Arc<Vec<LogEntry>>,
    image_catalog: BTreeSet<String>,
    catalog_epoch: u64,
    crashing: CrashMap,
    faults: Option<crate::faults::FaultInjector>,
    engine: StepEngine,
    crash_epoch: u64,
}

impl ClusterCheckpoint {
    /// Simulated time at which the checkpoint was taken.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Objects shared with other snapshots versus uniquely owned by this
    /// checkpoint: `(shared, uniquely_owned)`. See
    /// [`crate::store::ObjectStore::sharing_stats`].
    pub fn sharing_stats(&self) -> (usize, usize) {
        self.api.store().sharing_stats()
    }

    /// Number of objects captured by this checkpoint.
    pub fn object_count(&self) -> usize {
        self.api.store().len()
    }
}

/// The simulated cluster.
///
/// # Examples
///
/// ```
/// use simkube::{ClusterConfig, SimCluster};
///
/// let mut cluster = SimCluster::new(ClusterConfig::default());
/// cluster.step();
/// assert_eq!(cluster.now(), 1);
/// ```
#[derive(Debug)]
pub struct SimCluster {
    api: ApiServer,
    time: u64,
    /// Copy-on-write log buffer: checkpoints share it until the cluster
    /// logs again, at which point only this side pays for the copy.
    logs: Arc<Vec<LogEntry>>,
    image_catalog: BTreeSet<String>,
    /// Bumped whenever the image catalog actually changes; lets the dirty
    /// pod pass revisit ImagePullBackOff waiters only when a pull could
    /// newly succeed.
    catalog_epoch: u64,
    /// Pods forced into a crash loop by the managed-system model, with the
    /// reason, keyed `(namespace, pod name)`.
    crashing: CrashMap,
    /// Installed fault plan, if any.
    faults: Option<crate::faults::FaultInjector>,
    /// Event-driven engine state (reconcile cursors, tick accounting).
    engine: StepEngine,
    /// Bumped whenever a crash condition actually changes. Crash-map edits
    /// write no store event, so the quiescence fingerprint needs this.
    crash_epoch: u64,
}

impl SimCluster {
    /// Builds a cluster with the given configuration and registers its
    /// nodes.
    pub fn new(config: ClusterConfig) -> SimCluster {
        let mut cluster = SimCluster {
            api: ApiServer::new(config.bugs),
            time: 0,
            logs: Arc::new(Vec::new()),
            image_catalog: config.image_catalog.into_iter().collect(),
            catalog_epoch: 0,
            crashing: CrashMap::default(),
            faults: None,
            engine: StepEngine::default(),
            crash_epoch: 0,
        };
        if let Some(topology) = config.topology {
            cluster.seed_topology(&topology);
            return cluster;
        }
        for (i, (name, cpu, memory)) in config.nodes.into_iter().enumerate() {
            let mut node = Node::with_capacity(&cpu, &memory);
            // Deterministic topology labels so selector/affinity scenarios
            // have satisfiable and unsatisfiable variants.
            node.labels.insert(
                "zone".to_string(),
                if i % 2 == 0 { "zone-a" } else { "zone-b" }.to_string(),
            );
            if i < 2 {
                node.labels.insert("disk".to_string(), "ssd".to_string());
            }
            cluster
                .api
                .store_mut()
                .create(ObjectMeta::named("", &name), ObjectData::Node(node), 0)
                .expect("node creation");
        }
        cluster
    }

    /// Registers a generated [`NodeTopology`]: uniform nodes spread across
    /// zones, plus optional inert background pods in
    /// [`BACKGROUND_NAMESPACE`].
    fn seed_topology(&mut self, topology: &NodeTopology) {
        let zones = topology.zones.max(1);
        for i in 0..topology.nodes {
            let mut node = Node::with_capacity(&topology.cpu, &topology.memory);
            node.labels
                .insert("zone".to_string(), format!("zone-{}", i % zones));
            if i < 2 {
                node.labels.insert("disk".to_string(), "ssd".to_string());
            }
            self.api
                .store_mut()
                .create(
                    ObjectMeta::named("", &format!("node-{i:05}")),
                    ObjectData::Node(node),
                    0,
                )
                .expect("node creation");
        }
        if topology.background_pods > 0 {
            self.image_catalog.insert(BACKGROUND_IMAGE.to_string());
            for i in 0..topology.background_pods {
                let pod = Pod {
                    containers: vec![Container {
                        name: "bg".to_string(),
                        image: BACKGROUND_IMAGE.to_string(),
                        resources: crate::resources::ResourceRequirements::new()
                            .request("cpu", "50m")
                            .request("memory", "64Mi"),
                        ..Container::default()
                    }],
                    ..Pod::default()
                };
                self.api
                    .store_mut()
                    .create(
                        ObjectMeta::named(BACKGROUND_NAMESPACE, &format!("bg-{i:06}")),
                        ObjectData::Pod(pod),
                        0,
                    )
                    .expect("background pod creation");
            }
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Takes an O(1) copy-on-write checkpoint of the whole cluster (store,
    /// clock, logs, catalog, crash conditions, fault state, engine
    /// cursors): the store and log buffer are shared handles, only the
    /// small scalar state is copied eagerly. See [`ClusterCheckpoint`].
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        ClusterCheckpoint {
            api: self.api.snapshot(),
            time: self.time,
            logs: self.logs.clone(),
            image_catalog: self.image_catalog.clone(),
            catalog_epoch: self.catalog_epoch,
            crashing: self.crashing.clone(),
            faults: self.faults.clone(),
            engine: self.engine.clone(),
            crash_epoch: self.crash_epoch,
        }
    }

    /// Rewinds (or fast-forwards) this cluster to a checkpoint. All state —
    /// including the simulated clock — becomes exactly what
    /// [`SimCluster::checkpoint`] captured.
    pub fn restore(&mut self, cp: &ClusterCheckpoint) {
        CHECKPOINT_FORKS.fetch_add(1, Ordering::Relaxed);
        self.api = cp.api.snapshot();
        self.time = cp.time;
        self.logs = cp.logs.clone();
        self.image_catalog = cp.image_catalog.clone();
        self.catalog_epoch = cp.catalog_epoch;
        self.crashing = cp.crashing.clone();
        self.faults = cp.faults.clone();
        self.engine = cp.engine.clone();
        self.crash_epoch = cp.crash_epoch;
    }

    /// Builds a new cluster directly from a checkpoint.
    pub fn from_checkpoint(cp: &ClusterCheckpoint) -> SimCluster {
        CHECKPOINT_FORKS.fetch_add(1, Ordering::Relaxed);
        SimCluster {
            api: cp.api.snapshot(),
            time: cp.time,
            logs: cp.logs.clone(),
            image_catalog: cp.image_catalog.clone(),
            catalog_epoch: cp.catalog_epoch,
            crashing: cp.crashing.clone(),
            faults: cp.faults.clone(),
            engine: cp.engine.clone(),
            crash_epoch: cp.crash_epoch,
        }
    }

    /// The API server.
    pub fn api(&self) -> &ApiServer {
        &self.api
    }

    /// Mutable API server access.
    pub fn api_mut(&mut self) -> &mut ApiServer {
        &mut self.api
    }

    /// Registers an image as pullable.
    pub fn add_image(&mut self, image: &str) {
        if self.image_catalog.insert(image.to_string()) {
            self.catalog_epoch += 1;
        }
    }

    /// Returns `true` when the image can be pulled. Images with an explicit
    /// catalog entry always can; otherwise any syntactically valid
    /// `repo:tag` reference whose repository is known succeeds.
    pub fn image_exists(&self, image: &str) -> bool {
        if self.image_catalog.contains(image) {
            return true;
        }
        // A reference without a tag or with an unknown repository fails.
        match image.split_once(':') {
            Some((repo, tag)) if !tag.is_empty() => self
                .image_catalog
                .iter()
                .any(|known| known.split_once(':').map(|(r, _)| r) == Some(repo) && known == image),
            _ => false,
        }
    }

    /// Appends a log entry.
    pub fn log(&mut self, level: LogLevel, source: &str, message: impl Into<String>) {
        let time = self.time;
        Arc::make_mut(&mut self.logs).push(LogEntry {
            time,
            level,
            source: source.to_string(),
            message: message.into(),
        });
    }

    /// All log entries.
    pub fn logs(&self) -> &[LogEntry] {
        &self.logs
    }

    /// Log entries at `Error` severity or above after a given time.
    pub fn error_logs_since(&self, time: u64) -> Vec<&LogEntry> {
        self.logs
            .iter()
            .filter(|e| e.time >= time && matches!(e.level, LogLevel::Error | LogLevel::Panic))
            .collect()
    }

    /// Marks a pod as crash-looping for a managed-system reason (e.g. "the
    /// binlog pump cluster is missing"). Cleared with
    /// [`SimCluster::clear_crash`]. Conditions are namespace-qualified so
    /// same-named pods under different operators never share crash state.
    pub fn set_crashing(&mut self, namespace: &str, pod_name: &str, reason: &str) {
        let prev = self.crashing.insert(namespace, pod_name, reason);
        if prev.as_deref() != Some(reason) {
            self.crash_epoch += 1;
            self.engine
                .forced_dirty
                .insert(ObjKey::new(Kind::Pod, namespace, pod_name));
        }
    }

    /// Clears a crash-loop condition.
    pub fn clear_crash(&mut self, namespace: &str, pod_name: &str) {
        if self.crashing.remove(namespace, pod_name).is_some() {
            self.crash_epoch += 1;
            self.engine
                .forced_dirty
                .insert(ObjKey::new(Kind::Pod, namespace, pod_name));
        }
    }

    /// Returns crash conditions currently in force, keyed
    /// `(namespace, pod name)`.
    pub fn crashing(&self) -> impl Iterator<Item = (&(String, String), &String)> {
        self.crashing.iter()
    }

    /// Advances the world by one simulated second.
    pub fn step(&mut self) {
        let ticked = ticked_engine();
        self.time += 1;
        let time = self.time;
        // Installed faults fire before anything else reacts: the rest of
        // the tick then observes (and may start repairing) the damage.
        if let Some(injector) = &mut self.faults {
            let conflicts = injector.apply_due(&mut self.api, time);
            if conflicts > 0 {
                self.api.inject_conflicts(conflicts);
            }
        }
        let bugs = self.api.bugs();
        if !self.watch_blackout_active() {
            if ticked {
                crate::controllers::run_all(self.api.store_mut(), time, bugs);
            } else {
                crate::controllers::run_all_dirty(
                    self.api.store_mut(),
                    time,
                    bugs,
                    &mut self.engine.cursors,
                );
            }
        }
        let schedule_due = ticked
            || self
                .api
                .store()
                .kinds_dirty_since(&[Kind::Pod, Kind::Node], self.engine.cursors.scheduler);
        if schedule_due {
            if ticked {
                scheduler::schedule(self.api.store_mut(), time);
            } else {
                self.engine.cursors.scheduler = self.api.store().revision();
                scheduler::schedule_indexed(self.api.store_mut(), time, &mut self.engine.sched);
            }
        }
        self.advance_pods();
        self.engine.ticks_executed += 1;
        TICKS_EXECUTED.fetch_add(1, Ordering::Relaxed);
        if !ticked {
            // Absorb this tick's own writes into the timer index while the
            // events are still in the log, then compact; `next_wakeup` only
            // trusts a fully-synced index.
            self.engine.timers.sync(self.api.store());
            let floor = self.api.store().revision().saturating_sub(EVENT_LOG_KEEP);
            if floor > self.api.store().events_floor() {
                self.api.store_mut().compact_events(floor);
            }
        }
    }

    /// Fingerprint of everything a tick can observably change. See
    /// [`ClusterFingerprint`].
    pub fn quiescence_fingerprint(&self) -> ClusterFingerprint {
        ClusterFingerprint {
            revision: self.api.store().revision(),
            logs: self.logs.len(),
            crash_epoch: self.crash_epoch,
            pending_conflicts: self.api.pending_conflicts(),
            faults: self.faults.as_ref().map(|f| f.fingerprint()),
            crash_points: (self.api.operator_writes(), self.api.armed_operator_crash()),
        }
    }

    /// Earliest future time at which a purely time-based transition can
    /// fire: a scheduled pod finishing its start delay, a running pod
    /// passing readiness, or fault-injector timers (next firing, node
    /// return, blackout expiry). `None` when no timer is pending — any
    /// further change must come from a store event. Conservative early
    /// wakeups are safe: the woken tick is simply another no-op.
    pub fn next_wakeup(&self) -> Option<u64> {
        let now = self.time;
        let mut wake: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                wake = Some(wake.map_or(t, |w: u64| w.min(t)));
            }
        };
        if let Some(f) = &self.faults {
            if let Some(t) = f.next_wakeup(now) {
                consider(t);
            }
        }
        if !ticked_engine() && self.engine.timers.synced == self.api.store().revision() {
            // The timer index is current: the earliest future deadline is
            // one ordered lookup instead of an all-pods scan.
            if let Some(t) = self.engine.timers.next_after(now) {
                consider(t);
            }
        } else {
            for obj in self.api.store().list_all(&Kind::Pod) {
                if let ObjectData::Pod(p) = &obj.data {
                    if let Some(d) = PodTimers::deadline_for(p) {
                        consider(d);
                    }
                }
            }
        }
        wake
    }

    /// Jumps the clock to `target` without executing the intervening ticks.
    /// Only sound when every skipped tick is provably a no-op (unchanged
    /// fingerprint and no timer wakeup before `target`).
    pub fn fast_forward_to(&mut self, target: u64) {
        if target > self.time {
            let skipped = target - self.time;
            self.engine.ticks_skipped += skipped;
            TICKS_SKIPPED.fetch_add(skipped, Ordering::Relaxed);
            self.time = target;
        }
    }

    /// `(ticks_executed, ticks_skipped)` for this cluster since creation.
    pub fn engine_stats(&self) -> (u64, u64) {
        (self.engine.ticks_executed, self.engine.ticks_skipped)
    }

    /// Installs a fault plan; its offsets are relative to the current
    /// simulated time. Replaces any previously installed plan.
    pub fn install_fault_plan(&mut self, plan: crate::faults::FaultPlan) {
        self.faults = Some(crate::faults::FaultInjector::new(plan, self.time));
    }

    /// Returns `true` while an injected watch blackout suppresses the
    /// built-in controllers and operator watches.
    pub fn watch_blackout_active(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.blackout_active(self.time))
    }

    /// Consumes one injected transient reconcile error, if armed.
    pub fn take_injected_reconcile_error(&mut self) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|f| f.take_reconcile_error())
    }

    /// Returns `true` once every installed fault has fired and lapsed
    /// (vacuously true with no plan installed).
    pub fn faults_exhausted(&self) -> bool {
        self.faults.as_ref().is_none_or(|f| f.exhausted(self.time))
    }

    /// Transcript lines for every fault applied so far.
    pub fn fault_events(&self) -> Vec<String> {
        self.faults
            .as_ref()
            .map(|f| f.events().iter().map(|e| e.render()).collect())
            .unwrap_or_default()
    }

    /// Decides the lifecycle transition (if any) for one pod. Reads only
    /// the pod itself plus claims/images/crash conditions, never other
    /// pods.
    fn decide_pod(&self, obj: &StoredObject, time: u64) -> Option<PodAction> {
        let ObjectData::Pod(pod) = &obj.data else {
            return None;
        };
        let name = &obj.meta.name;
        // Crash condition set by the managed-system model wins.
        if let Some(reason) = self.crashing.get(&obj.meta.namespace, name) {
            let already = pod.phase == PodPhase::Failed && pod.reason == "CrashLoopBackOff";
            // The message is only logged on the first transition; skip the
            // allocation on the (hot) steady-state revisits.
            return Some(PodAction::CrashLoop {
                already,
                msg: (!already).then(|| format!("pod {name} crash-looping: {reason}")),
            });
        }
        let action = match pod.phase {
            PodPhase::Pending => {
                pod.node_name.as_ref()?;
                // Security context must be valid.
                let mut sec_errors = pod.security.validate();
                for c in &pod.containers {
                    sec_errors.extend(c.security.validate());
                }
                if !sec_errors.is_empty() {
                    PodAction::SetReason("CreateContainerConfigError")
                } else if pod.claims.iter().any(|cname| {
                    // All claims must be bound.
                    match self.api.store().get(&ObjKey::new(
                        Kind::PersistentVolumeClaim,
                        &obj.meta.namespace,
                        cname,
                    )) {
                        Some(c) => !matches!(
                            &c.data,
                            ObjectData::PersistentVolumeClaim(c)
                                if c.phase == crate::objects::ClaimPhase::Bound
                        ),
                        None => true,
                    }
                }) {
                    PodAction::SetReason("WaitingForVolume")
                } else {
                    // Images must exist.
                    let missing: Vec<&str> = pod
                        .containers
                        .iter()
                        .filter(|c| !self.image_exists(&c.image))
                        .map(|c| c.image.as_str())
                        .collect();
                    if !missing.is_empty() {
                        PodAction::ImagePull {
                            log: (pod.reason != "ImagePullBackOff").then(|| {
                                format!("pod {name}: failed to pull {}", missing.join(", "))
                            }),
                        }
                    } else if time.saturating_sub(pod.phase_since) >= POD_START_DELAY {
                        // Start after the pull/start delay.
                        PodAction::Start
                    } else {
                        return None;
                    }
                }
            }
            PodPhase::Running => {
                if !pod.ready && time.saturating_sub(pod.phase_since) >= POD_READY_DELAY {
                    PodAction::MarkReady
                } else {
                    return None;
                }
            }
            // Crash condition cleared: restart the container.
            PodPhase::Failed => PodAction::Restart,
            PodPhase::Succeeded => return None,
        };
        Some(action)
    }

    /// Assembles the set of pods the event engine must revisit this tick:
    /// pods with store events past the last pass, pods whose start/ready
    /// deadline is due, pods whose crash condition toggled, claim-blocked
    /// pods after any PVC event, and ImagePullBackOff pods after a catalog
    /// change. Every pod outside this set would decide `None` and (per
    /// `update_with`'s no-op suppression) leave no trace even if visited,
    /// so skipping it is unobservable. Falls back to all pods when the
    /// event log was compacted past the cursor (engine switch).
    fn dirty_pods(&mut self, time: u64) -> BTreeMap<ObjKey, DirtySource> {
        self.engine.timers.sync(self.api.store());
        let store = self.api.store();
        let mut dirty: BTreeMap<ObjKey, DirtySource> = BTreeMap::new();
        if store.events_floor() > self.engine.pod_cursor {
            for (key, obj) in store.iter() {
                if matches!(obj.data, ObjectData::Pod(_)) {
                    dirty.insert(key.clone(), DirtySource::Probe);
                }
            }
            self.engine.forced_dirty.clear();
        } else {
            let mut pvc_dirty = false;
            // Forward order: later events overwrite, so each dirty pod ends
            // up holding its *last* event's payload — exactly its current
            // object — and the decide pass needs no store descent for it.
            for event in store.events_since(self.engine.pod_cursor) {
                match event.key.kind {
                    Kind::Pod => {
                        dirty.insert(event.key.clone(), DirtySource::Event(event.obj.clone()));
                    }
                    Kind::PersistentVolumeClaim => pvc_dirty = true,
                    _ => {}
                }
            }
            // Keys dirty for non-event reasons fall back to a store probe —
            // unless an event already supplied the current object.
            if pvc_dirty {
                for (key, _) in self.engine.vol_waiters.iter() {
                    dirty.entry(key.clone()).or_insert(DirtySource::Probe);
                }
            }
            if self.engine.image_epoch_seen != self.catalog_epoch {
                for (key, _) in self.engine.image_waiters.iter() {
                    dirty.entry(key.clone()).or_insert(DirtySource::Probe);
                }
            }
            for key in self.engine.timers.due_keys(time) {
                dirty.entry(key.clone()).or_insert(DirtySource::Probe);
            }
            for key in std::mem::take(&mut self.engine.forced_dirty) {
                dirty.entry(key).or_insert(DirtySource::Probe);
            }
        }
        self.engine.pod_cursor = store.revision();
        self.engine.image_epoch_seen = self.catalog_epoch;
        dirty
    }

    /// Inserts or removes `key` without disturbing structural sharing when
    /// membership is already correct.
    fn set_membership(map: &mut PMap<ObjKey, ()>, key: &ObjKey, member: bool) {
        if member {
            if !map.contains_key(key) {
                map.insert(key.clone(), ());
            }
        } else if map.contains_key(key) {
            map.remove(key);
        }
    }

    /// Advances pod lifecycle: image pulls, container start, readiness,
    /// crash loops.
    ///
    /// Runs in two passes — a read-only pass deciding each pod's
    /// transition, then a mutation pass applying them — so no pod is ever
    /// cloned. Decisions depend only on the decided pod itself plus
    /// claims/images/crash conditions, never on other pods, so batching the
    /// reads is equivalent to the old interleaved read-mutate loop. The
    /// ticked loop visits every pod; the event engine only visits the
    /// dirty set ([`SimCluster::dirty_pods`]) — both walk pods in key
    /// order, so decisions, writes, and logs land identically.
    fn advance_pods(&mut self) {
        let time = self.time;
        let mut visited: Vec<ObjKey> = Vec::new();
        let decisions: Vec<(ObjKey, PodAction)> = if ticked_engine() {
            self.api
                .store()
                .list_all(&Kind::Pod)
                .iter()
                .filter_map(|obj| {
                    let key = ObjKey::new(Kind::Pod, &obj.meta.namespace, &obj.meta.name);
                    self.decide_pod(obj, time).map(|action| (key, action))
                })
                .collect()
        } else {
            let dirty = self.dirty_pods(time);
            let decided = dirty
                .iter()
                .filter_map(|(key, source)| {
                    let obj = match source {
                        DirtySource::Event(Some(obj)) => &**obj,
                        DirtySource::Event(None) => return None,
                        DirtySource::Probe => self.api.store().get(key)?,
                    };
                    self.decide_pod(obj, time)
                        .map(|action| (key.clone(), action))
                })
                .collect();
            visited = dirty.into_keys().collect();
            decided
        };
        if !ticked_engine() {
            // Refresh waiter membership for every visited pod: `visited`
            // and `decisions` are both in key order, so one merge walk
            // pairs each pod with its decision (if any).
            let mut di = 0;
            for key in &visited {
                let action = if di < decisions.len() && &decisions[di].0 == key {
                    di += 1;
                    Some(&decisions[di - 1].1)
                } else {
                    None
                };
                let vol =
                    matches!(action, Some(PodAction::SetReason(r)) if *r == "WaitingForVolume");
                let img = matches!(action, Some(PodAction::ImagePull { .. }));
                Self::set_membership(&mut self.engine.vol_waiters, key, vol);
                Self::set_membership(&mut self.engine.image_waiters, key, img);
            }
        }
        for (key, action) in decisions {
            match action {
                PodAction::CrashLoop { already, msg } => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.phase = PodPhase::Failed;
                            p.reason = "CrashLoopBackOff".to_string();
                            p.ready = false;
                            if !already {
                                p.restarts += 1;
                                p.phase_since = time;
                            }
                        }
                    });
                    if let Some(msg) = msg {
                        self.log(LogLevel::Error, "kubelet", msg);
                    }
                }
                PodAction::SetReason(reason) => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.reason = reason.to_string();
                        }
                    });
                }
                PodAction::ImagePull { log } => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.reason = "ImagePullBackOff".to_string();
                        }
                    });
                    if let Some(msg) = log {
                        self.log(LogLevel::Error, "kubelet", msg);
                    }
                }
                PodAction::Start => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.phase = PodPhase::Running;
                            p.reason = String::new();
                            p.phase_since = time;
                        }
                    });
                }
                PodAction::MarkReady => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.ready = true;
                        }
                    });
                }
                PodAction::Restart => {
                    let _ = self.api.store_mut().update_with(&key, time, |o| {
                        if let ObjectData::Pod(p) = &mut o.data {
                            p.phase = PodPhase::Pending;
                            p.reason = String::new();
                            p.phase_since = time;
                        }
                    });
                }
            }
        }
    }

    /// Runs until no watch event has occurred for `reset_timeout` simulated
    /// seconds (the paper's reset-timer convergence), or `max_seconds`
    /// elapse: the convergence [`wait`] over the bare cluster.
    ///
    /// Returns `true` on convergence, `false` on timeout.
    pub fn run_until_converged(&mut self, reset_timeout: u64, max_seconds: u64) -> bool {
        let cursor = WaitCursor::new(self);
        wait(self, cursor, Some(reset_timeout), max_seconds)
    }

    /// Convenience: lists pods of a namespace as `(name, phase, ready,
    /// reason)` tuples, sorted by name.
    pub fn pod_summaries(&self, namespace: &str) -> Vec<(String, PodPhase, bool, String)> {
        self.api
            .store()
            .list(&Kind::Pod, namespace)
            .iter()
            .filter_map(|o| match &o.data {
                ObjectData::Pod(p) => {
                    Some((o.meta.name.clone(), p.phase, p.ready, p.reason.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

/// Where a convergence [`wait`] stands between two ticks: everything its
/// loop carries from one tick to the next. A copy taken at a tick's start
/// resumes the same wait at that tick.
#[derive(Debug, Clone, Copy)]
pub struct WaitCursor {
    /// Simulated time the wait began.
    start: u64,
    /// Simulated time of the wait's last store event (the reset timer).
    last_event_time: u64,
    /// Store revision at that event.
    last_revision: u64,
}

impl WaitCursor {
    /// A wait beginning now on `cluster`.
    pub fn new(cluster: &SimCluster) -> WaitCursor {
        WaitCursor {
            start: cluster.time,
            last_event_time: cluster.time,
            last_revision: cluster.api.store().revision(),
        }
    }

    /// Simulated time the wait began.
    pub fn start(&self) -> u64 {
        self.start
    }
}

/// What a convergence [`wait`] drives: a bare [`SimCluster`], an operator
/// instance on one, or several instances sharing one.
pub trait Converge {
    /// Everything a tick can observably change. Equal fingerprints around
    /// an executed tick prove it a no-op, and with it every later tick up
    /// to the next timer wakeup or operator restart.
    type Fingerprint: PartialEq;

    /// Advances the world one simulated second; `cursor` is where the wait
    /// stood when the tick began.
    fn tick(&mut self, cursor: &WaitCursor);

    /// The current fingerprint.
    fn fingerprint(&self) -> Self::Fingerprint;

    /// The cluster the system runs on.
    fn cluster_mut(&mut self) -> &mut SimCluster;

    /// The earliest time a downed operator process restarts, if any. A
    /// pending restart is observable, so the wait never skips it, and a
    /// system with an operator down is not converged.
    fn restart_at(&self) -> Option<u64> {
        None
    }
}

impl Converge for SimCluster {
    type Fingerprint = ClusterFingerprint;

    fn tick(&mut self, _: &WaitCursor) {
        self.step();
    }

    fn fingerprint(&self) -> ClusterFingerprint {
        self.quiescence_fingerprint()
    }

    fn cluster_mut(&mut self) -> &mut SimCluster {
        self
    }
}

/// The convergence wait, the one loop behind every caller's: ticks `sys`
/// from `cursor` until no store event has occurred for `reset` simulated
/// seconds with no operator down (the paper's reset timer, §5.5), or until
/// `max_seconds` have passed since the wait began. With `reset` `None` it
/// runs the whole `max_seconds`, a fixed horizon. Returns `true` on
/// convergence.
///
/// In the event-driven engine, once an executed tick leaves the
/// fingerprint unchanged, the clock jumps to one second before the first
/// tick that can matter: the reset-timer expiry, the deadline, the next
/// timer wakeup ([`SimCluster::next_wakeup`]) or an operator restart,
/// whichever is earliest. Every skipped tick is provably a no-op, and the
/// tick at the target still executes, so the convergence (or timeout)
/// timestamp, the logs and the watch events are identical to the ticked
/// loop's.
pub fn wait<S: Converge>(
    sys: &mut S,
    mut cursor: WaitCursor,
    reset: Option<u64>,
    max_seconds: u64,
) -> bool {
    let deadline = cursor.start.saturating_add(max_seconds);
    let ticked = ticked_engine();
    let mut fingerprint = sys.fingerprint();
    while sys.cluster_mut().time < deadline {
        sys.tick(&cursor);
        let restart = sys.restart_at();
        let cluster = sys.cluster_mut();
        let now = cluster.time;
        let revision = cluster.api.store().revision();
        if revision != cursor.last_revision {
            cursor.last_revision = revision;
            cursor.last_event_time = now;
        } else if reset.is_some_and(|r| now - cursor.last_event_time >= r) && restart.is_none() {
            return true;
        }
        if ticked {
            continue;
        }
        let after = sys.fingerprint();
        if after != fingerprint {
            fingerprint = after;
            continue;
        }
        let expiry = reset.map_or(deadline, |r| cursor.last_event_time.saturating_add(r));
        let cluster = sys.cluster_mut();
        let target = [cluster.next_wakeup(), restart]
            .into_iter()
            .flatten()
            .fold(expiry.min(deadline), u64::min);
        if target > now + 1 {
            cluster.fast_forward_to(target - 1);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::LabelSelector;
    use crate::objects::{Container, PodTemplate, StatefulSet};

    fn test_config() -> ClusterConfig {
        ClusterConfig {
            image_catalog: vec!["zk:3.8".to_string(), "zk:3.9".to_string()],
            bugs: PlatformBugs::none(),
            ..ClusterConfig::default()
        }
    }

    fn make_sts(replicas: i32, image: &str) -> StatefulSet {
        StatefulSet {
            replicas,
            selector: LabelSelector::match_labels([("app", "zk")]),
            template: PodTemplate {
                labels: [("app".to_string(), "zk".to_string())]
                    .into_iter()
                    .collect(),
                containers: vec![Container {
                    name: "zk".to_string(),
                    image: image.to_string(),
                    ..Container::default()
                }],
                ..PodTemplate::default()
            },
            service_name: "zk".to_string(),
            ..StatefulSet::default()
        }
    }

    #[test]
    fn statefulset_converges_to_running_pods() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(3, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 600));
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods.len(), 3);
        assert!(pods
            .iter()
            .all(|(_, phase, ready, _)| *phase == PodPhase::Running && *ready));
    }

    #[test]
    fn bad_image_never_converges_to_running() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(1, "zk:missing")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 300));
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods.len(), 1);
        assert_eq!(pods[0].3, "ImagePullBackOff");
        assert!(!cluster.error_logs_since(0).is_empty());
    }

    #[test]
    fn crash_loop_and_recovery() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(1, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 300));
        cluster.set_crashing("ns", "zk-0", "missing pump cluster");
        assert!(cluster.run_until_converged(10, 300));
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods[0].1, PodPhase::Failed);
        assert_eq!(pods[0].3, "CrashLoopBackOff");
        // Clearing the condition lets the pod restart and recover.
        cluster.clear_crash("ns", "zk-0");
        assert!(cluster.run_until_converged(10, 300));
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods[0].1, PodPhase::Running);
        assert!(pods[0].2);
    }

    #[test]
    fn invalid_security_context_blocks_start() {
        let mut cluster = SimCluster::new(test_config());
        let mut sts = make_sts(1, "zk:3.8");
        sts.template.security.run_as_user = Some(0);
        sts.template.security.run_as_non_root = true;
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 300));
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods[0].1, PodPhase::Pending);
        assert_eq!(pods[0].3, "CreateContainerConfigError");
    }

    #[test]
    fn convergence_times_out_on_endless_churn() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(1, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 300));
        // A permanently crashing pod flaps between Failed and Pending,
        // producing endless events.
        cluster.set_crashing("ns", "zk-0", "flap");
        // It still "converges" in the sense that the crash state is sticky;
        // verify the reset timer actually waits for quiet.
        let t0 = cluster.now();
        cluster.run_until_converged(10, 50);
        assert!(cluster.now() > t0);
    }

    #[test]
    fn image_catalog_lookup() {
        let mut cluster = SimCluster::new(test_config());
        assert!(cluster.image_exists("zk:3.8"));
        assert!(!cluster.image_exists("zk:4.0"));
        assert!(!cluster.image_exists("zk"));
        assert!(!cluster.image_exists("zk:"));
        cluster.add_image("redis:7");
        assert!(cluster.image_exists("redis:7"));
    }
    #[test]
    fn default_nodes_carry_topology_labels() {
        let cluster = SimCluster::new(test_config());
        let nodes = cluster.api().store().list_all(&crate::objects::Kind::Node);
        assert_eq!(nodes.len(), 4);
        let mut zones = std::collections::BTreeSet::new();
        let mut ssd = 0;
        for n in nodes {
            if let ObjectData::Node(node) = &n.data {
                zones.insert(node.labels.get("zone").cloned().unwrap_or_default());
                if node.labels.get("disk").map(String::as_str) == Some("ssd") {
                    ssd += 1;
                }
            }
        }
        assert_eq!(zones.len(), 2, "two availability zones");
        assert_eq!(ssd, 2, "two ssd nodes");
    }

    #[test]
    fn checkpoint_restore_replays_bit_for_bit() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(2, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 600));
        let cp = cluster.checkpoint();
        assert_eq!(cp.time(), cluster.now());

        // Two futures from the same checkpoint must be identical.
        let mut a = SimCluster::from_checkpoint(&cp);
        let mut b = SimCluster::from_checkpoint(&cp);
        assert_eq!(a.now(), cluster.now());
        for c in [&mut a, &mut b] {
            let t = c.now();
            c.api_mut()
                .apply_object(
                    ObjectMeta::named("ns", "zk"),
                    ObjectData::StatefulSet(make_sts(4, "zk:3.8")),
                    t,
                )
                .unwrap();
            assert!(c.run_until_converged(10, 600));
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.pod_summaries("ns"), b.pod_summaries("ns"));
        assert_eq!(a.api().store().revision(), b.api().store().revision());
        assert_eq!(a.logs(), b.logs());

        // Restoring rolls the original back: the scale-up never happened.
        let t = cluster.now();
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(4, "zk:3.8")),
                t,
            )
            .unwrap();
        cluster.run_until_converged(10, 600);
        assert_eq!(cluster.pod_summaries("ns").len(), 4);
        cluster.restore(&cp);
        assert_eq!(cluster.pod_summaries("ns").len(), 2);
        assert_eq!(cluster.now(), cp.time());
    }

    #[test]
    fn checkpoint_captures_crash_conditions_and_faults() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(1, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 300));
        cluster.set_crashing("ns", "zk-0", "wedged");
        let mut plan = crate::faults::FaultPlan::new();
        plan.push(5, crate::faults::Fault::WatchBlackout { duration: 30 });
        cluster.install_fault_plan(plan);
        let cp = cluster.checkpoint();
        let mut copy = SimCluster::from_checkpoint(&cp);
        assert_eq!(
            copy.crashing().collect::<Vec<_>>(),
            cluster.crashing().collect::<Vec<_>>()
        );
        // The restored fault plan fires on schedule.
        for _ in 0..6 {
            copy.step();
        }
        assert!(copy.watch_blackout_active());
        assert!(!copy.faults_exhausted());
    }

    /// Runs the same scenario under both engines and asserts identical
    /// observable state, clock included.
    fn assert_engines_agree(scenario: impl Fn(&mut SimCluster)) {
        let run = |ticked: bool| {
            let was = ticked_engine();
            set_ticked_engine(ticked);
            let mut cluster = SimCluster::new(test_config());
            scenario(&mut cluster);
            set_ticked_engine(was);
            cluster
        };
        let ticked = run(true);
        let event = run(false);
        assert_eq!(ticked.now(), event.now(), "clocks diverged");
        assert_eq!(
            ticked.api().store().revision(),
            event.api().store().revision(),
            "revisions diverged"
        );
        assert_eq!(ticked.logs(), event.logs(), "logs diverged");
        assert_eq!(ticked.pod_summaries("ns"), event.pod_summaries("ns"));
        assert_eq!(ticked.fault_events(), event.fault_events());
    }

    #[test]
    fn event_engine_matches_ticked_loop_on_rollout_and_crash() {
        assert_engines_agree(|cluster| {
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named("ns", "zk"),
                    ObjectData::StatefulSet(make_sts(3, "zk:3.8")),
                    0,
                )
                .unwrap();
            assert!(cluster.run_until_converged(10, 600));
            cluster.set_crashing("ns", "zk-0", "wedged");
            assert!(cluster.run_until_converged(10, 300));
            cluster.clear_crash("ns", "zk-0");
            assert!(cluster.run_until_converged(10, 300));
            let t = cluster.now();
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named("ns", "zk"),
                    ObjectData::StatefulSet(make_sts(1, "zk:3.9")),
                    t,
                )
                .unwrap();
            assert!(cluster.run_until_converged(10, 600));
        });
    }

    #[test]
    fn event_engine_matches_ticked_loop_under_faults() {
        assert_engines_agree(|cluster| {
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named("ns", "zk"),
                    ObjectData::StatefulSet(make_sts(2, "zk:3.8")),
                    0,
                )
                .unwrap();
            assert!(cluster.run_until_converged(10, 600));
            let mut plan = crate::faults::FaultPlan::new();
            plan.push(
                3,
                crate::faults::Fault::PodKill {
                    namespace: "ns".to_string(),
                    pod: "zk-1".to_string(),
                },
            );
            plan.push(
                9,
                crate::faults::Fault::NodeCrash {
                    node: "node-0".to_string(),
                    down_for: 25,
                },
            );
            plan.push(17, crate::faults::Fault::WatchBlackout { duration: 12 });
            cluster.install_fault_plan(plan);
            cluster.run_until_converged(15, 300);
        });
    }

    #[test]
    fn event_engine_matches_ticked_loop_on_timeouts() {
        assert_engines_agree(|cluster| {
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named("ns", "zk"),
                    ObjectData::StatefulSet(make_sts(1, "zk:missing")),
                    0,
                )
                .unwrap();
            // Converges (stuck but quiet), then a short window that times out.
            assert!(cluster.run_until_converged(10, 300));
            assert!(!cluster.run_until_converged(10, 7));
        });
    }

    #[test]
    fn fast_forward_skips_most_idle_ticks() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(3, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(15, 600));
        let (executed, skipped) = cluster.engine_stats();
        assert_eq!(executed + skipped, cluster.now(), "accounting covers clock");
        // At minimum the 15-second reset tail collapses into one executed
        // tick plus one fast-forward (pod start/ready gaps skip more).
        assert!(
            skipped >= 14,
            "skipped only {skipped} of {} simulated seconds",
            cluster.now()
        );
    }

    #[test]
    fn checkpoint_carries_engine_state() {
        let mut cluster = SimCluster::new(test_config());
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(make_sts(2, "zk:3.8")),
                0,
            )
            .unwrap();
        assert!(cluster.run_until_converged(10, 600));
        let cp = cluster.checkpoint();
        let copy = SimCluster::from_checkpoint(&cp);
        assert_eq!(copy.engine_stats(), cluster.engine_stats());
        assert_eq!(copy.engine.cursors, cluster.engine.cursors);
        assert_eq!(copy.crash_epoch, cluster.crash_epoch);
    }

    #[test]
    fn compaction_bounds_event_log_without_changing_replay() {
        let mut cluster = SimCluster::new(test_config());
        // Scale repeatedly so the store accumulates far more than
        // EVENT_LOG_KEEP events.
        for round in 0..20 {
            for replicas in [4, 1] {
                let t = cluster.now();
                cluster
                    .api_mut()
                    .apply_object(
                        ObjectMeta::named("ns", "zk"),
                        ObjectData::StatefulSet(make_sts(replicas, "zk:3.8")),
                        t,
                    )
                    .unwrap();
                assert!(cluster.run_until_converged(10, 600), "round {round}");
            }
        }
        let store = cluster.api().store();
        assert!(store.revision() > EVENT_LOG_KEEP, "scenario too small");
        assert!(store.events_floor() > 0, "nothing was compacted");
        assert!(store.events_len() as u64 <= EVENT_LOG_KEEP + 1);
        // A checkpoint taken from the compacted cluster still replays
        // bit-for-bit against an uncompacted (ticked) twin.
        assert_engines_agree(|c| {
            for replicas in [3, 1, 4, 1, 4, 1, 4, 1, 4, 3] {
                let t = c.now();
                c.api_mut()
                    .apply_object(
                        ObjectMeta::named("ns", "zk"),
                        ObjectData::StatefulSet(make_sts(replicas, "zk:3.8")),
                        t,
                    )
                    .unwrap();
                assert!(c.run_until_converged(10, 600));
            }
            let cp = c.checkpoint();
            let restored = SimCluster::from_checkpoint(&cp);
            assert_eq!(restored.pod_summaries("ns"), c.pod_summaries("ns"));
        });
    }

    #[test]
    fn unbindable_claims_keep_pods_waiting_for_volume() {
        let mut cluster = SimCluster::new(test_config());
        let mut sts = make_sts(1, "zk:3.8");
        sts.claim_templates.push(crate::objects::ClaimTemplate {
            name: "data".to_string(),
            size: "1Gi".parse().expect("quantity"),
            storage_class: "no-such-class".to_string(),
        });
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts),
                0,
            )
            .unwrap();
        cluster.run_until_converged(10, 300);
        let pods = cluster.pod_summaries("ns");
        assert_eq!(pods.len(), 1);
        assert_eq!(pods[0].3, "WaitingForVolume");
    }
}
