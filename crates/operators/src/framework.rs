//! The operator framework: the [`Operator`] trait and the [`Instance`]
//! harness that deploys an operator with its managed system on a simulated
//! cluster.
//!
//! An [`Instance`] corresponds to what Acto's manifest input deploys
//! (paper §4 "Usage"): the operator under test, its CRD, and the managed
//! system, all running against one cluster. The harness drives the
//! level-triggered reconcile loop, records operator panics as crash loops,
//! reflects managed-system health into state objects, and implements the
//! paper's reset-timer convergence.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crdspec::{Schema, Value};
use managed::{Health, SystemModel, SystemView};
use opdsl::IrModule;
use simkube::cluster::LogLevel;
use simkube::objects::{Kind, ObjectData};
use simkube::platform::SHARED_OBJECT_PAYLOAD_LIMIT;
use simkube::store::ObjKey;
use simkube::{ApiError, ClusterConfig, Converge, PlatformBugs, SimCluster, WaitCursor};

use crate::bugs::BugToggles;

/// Failure modes of a reconcile invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperatorError {
    /// The operator process crashed (Go panic equivalent). The harness
    /// restarts it; the same declaration crashes it again.
    Panic(String),
    /// A retriable error; reconciliation continues next tick.
    Transient(String),
}

/// One generation of the desired-state declaration, as a reconcile pass
/// reads it: the CR spec, shared with the store rather than copied out of
/// it, plus its compact-JSON length and FNV-1a digest.
///
/// The [`Instance`] harness builds one per CR generation (the generation
/// moves exactly when the spec does), so a reconcile pass at an unchanged
/// generation renders nothing. Building it renders the spec once for the
/// length, which the PLAT-3 check reads on every generation. The digest
/// is taken from a render of its own the first time it is asked for: only
/// ZooKeeperOp's SEED-CRASH-1 marker asks, and hashing every declaration
/// byte by byte up front would cost the other operators for nothing. It
/// derefs to the spec [`Value`].
#[derive(Debug, Clone)]
pub struct Declaration {
    spec: Arc<Value>,
    json_len: usize,
    digest: OnceLock<u64>,
}

impl Declaration {
    /// Renders `spec` once to take its length.
    pub fn new(spec: Arc<Value>) -> Declaration {
        Declaration {
            json_len: crdspec::json::to_string(&spec).len(),
            spec,
            digest: OnceLock::new(),
        }
    }

    /// Byte length of the spec's compact JSON rendering (the payload size
    /// PLAT-3 checks).
    pub fn json_len(&self) -> usize {
        self.json_len
    }

    /// FNV-1a digest of the spec's compact JSON rendering: a stable name
    /// for the declaration, computed once.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for b in crdspec::json::to_string(&self.spec).bytes() {
                digest ^= u64::from(b);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
            digest
        })
    }
}

impl Deref for Declaration {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.spec
    }
}

/// An operator under test.
pub trait Operator: Send {
    /// Registry name (Table 4), e.g. `"ZooKeeperOp"`.
    fn name(&self) -> &'static str;

    /// The managed system's name (matches [`managed::model_for`]).
    fn system(&self) -> &'static str;

    /// The CRD kind, e.g. `"ZookeeperCluster"`.
    fn kind(&self) -> &'static str;

    /// The CRD spec schema — the operation interface Acto consumes.
    fn schema(&self) -> Schema;

    /// The property-plumbing IR analyzed by Acto's whitebox mode.
    fn ir(&self) -> IrModule;

    /// The initial desired-state declaration (the seed CR every campaign
    /// starts from).
    fn initial_cr(&self) -> Value;

    /// Images the operator deploys (registered in the cluster's catalog).
    fn images(&self) -> Vec<String>;

    /// One reconcile pass: drive the cluster toward the declared state.
    ///
    /// `health` is the managed system's current health (operators commonly
    /// gate operations on it — the double-edged practice behind the
    /// paper's recovery-failure bugs).
    ///
    /// `cr` is the declaration at the CR's current generation; it derefs
    /// to the spec [`Value`].
    ///
    /// Contract: a pass is a deterministic function of `cr`, `health`,
    /// `bugs` and the cluster state. It reads the clock only to stamp the
    /// writes it makes, and keeps no in-memory state that changes a later
    /// pass. The harness relies on this: a pass whose inputs are unchanged
    /// since a pass that changed nothing is skipped (see
    /// [`Instance::tick`]).
    fn reconcile(
        &mut self,
        cr: &Declaration,
        health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError>;

    /// Called when the operator "process" restarts after a crash-point
    /// firing, as a real process death would. Operators keep no in-memory
    /// state (see [`Operator::reconcile`]), so there is nothing to drop and
    /// the default is a no-op; an override must not change what a later
    /// pass does.
    fn restart(&mut self) {}
}

/// One crash-point firing observed by the harness: the operator process
/// died mid-pass and restarted after its downtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEvent {
    /// Simulated time the crash fired (the dying pass's tick).
    pub time: u64,
    /// Cumulative state-changing operator writes at the moment of death —
    /// the crash boundary `k` in a sweep's terms.
    pub writes_total: u64,
    /// Simulated time the process restarts.
    pub restart_at: u64,
}

/// A resumable copy-on-write snapshot of a deployed [`Instance`]: the
/// cluster checkpoint (shared handles, not a traversal) plus the harness
/// state around it (restart count, crash-loop generation, last observed
/// health).
///
/// Operators and managed-system models are stateless unit structs — all of
/// their observable behaviour is a function of the cluster state — so a
/// checkpoint plus a freshly constructed operator/model pair resumes
/// exactly where the original left off. Campaign partitioning uses this to
/// hand converged jump-prefix states between workers instead of
/// re-deploying and re-converging per partition (paper §5.5).
#[derive(Debug, Clone)]
pub struct InstanceCheckpoint {
    cluster: simkube::ClusterCheckpoint,
    namespace: String,
    name: String,
    operator_restarts: u32,
    crashed_generation: Option<u64>,
    operator_down_until: Option<u64>,
    crash_log: Vec<CrashEvent>,
    last_health: Health,
}

impl InstanceCheckpoint {
    /// Simulated time at which the checkpoint was taken.
    pub fn time(&self) -> u64 {
        self.cluster.time()
    }

    /// Objects shared with other snapshots versus uniquely owned by this
    /// checkpoint: `(shared, uniquely_owned)`. See
    /// [`simkube::ObjectStore::sharing_stats`].
    pub fn sharing_stats(&self) -> (usize, usize) {
        self.cluster.sharing_stats()
    }

    /// Number of objects captured by this checkpoint.
    pub fn object_count(&self) -> usize {
        self.cluster.object_count()
    }
}

/// One entry of a [`BoundaryLog`]: a checkpoint of the instance at the
/// start of a tick of a convergence wait, and where the wait stood then.
#[derive(Debug, Clone)]
pub struct WriteBoundary {
    checkpoint: InstanceCheckpoint,
    cursor: WaitCursor,
    writes_before: u64,
}

impl WriteBoundary {
    /// The instance at the start of the tick.
    pub fn checkpoint(&self) -> &InstanceCheckpoint {
        &self.checkpoint
    }

    /// State-changing operator writes the wait made before this tick.
    pub fn writes_before(&self) -> u64 {
        self.writes_before
    }

    /// Simulated time the recorded wait began.
    pub fn wait_start(&self) -> u64 {
        self.cursor.start()
    }
}

/// The write-boundary log of one convergence wait, recorded by
/// [`Instance::converge_logged`]: the state at the wait's start, then one
/// [`WriteBoundary`] per executed tick whose operator pass wrote.
///
/// A crash-point replay of write `k` restores the entry of the tick that
/// makes write `k` ([`BoundaryLog::at_write`]), arms the crash for the
/// writes still to go in that tick, and resumes the same loop
/// ([`Instance::resume_converge`]) — one tick re-executed instead of the
/// whole prefix. The first entry alone is a replay from the wait's start.
#[derive(Debug, Clone, Default)]
pub struct BoundaryLog {
    entries: Vec<WriteBoundary>,
}

impl BoundaryLog {
    /// The state at the wait's start.
    ///
    /// # Panics
    ///
    /// When no wait has filled the log.
    pub fn start(&self) -> &WriteBoundary {
        &self.entries[0]
    }

    /// The entry to fork the wait's `k`-th operator write (`k >= 1`) from:
    /// the last one recorded before fewer than `k` writes had landed.
    ///
    /// # Panics
    ///
    /// When no wait has filled the log.
    pub fn at_write(&self, k: u64) -> &WriteBoundary {
        let after = self.entries.partition_point(|e| e.writes_before < k);
        &self.entries[after.max(1) - 1]
    }
}

/// A deployed operator + managed system on a simulated cluster.
pub struct Instance {
    /// The simulated cluster.
    pub cluster: SimCluster,
    operator: Box<dyn Operator>,
    model: Box<dyn SystemModel>,
    bugs: BugToggles,
    /// Namespace the instance runs in.
    pub namespace: String,
    /// CR (and application) name.
    pub name: String,
    /// Times the operator process was restarted after a panic.
    pub operator_restarts: u32,
    /// Generation of the declaration that crashed the operator, while the
    /// crash loop persists.
    crashed_generation: Option<u64>,
    /// While a fired crash point keeps the operator process down: the
    /// simulated time it restarts.
    operator_down_until: Option<u64>,
    /// Crash/restart transcript: every crash-point firing observed so far.
    crash_log: Vec<CrashEvent>,
    /// Latest managed-system health.
    pub last_health: Health,
    /// The declaration at the CR generation it was built for. Pure derived
    /// state (the generation bumps exactly when the spec changes), so it
    /// is not checkpointed.
    declaration: Option<(u64, Declaration)>,
    /// The model-tick memo: the cluster fingerprint a model tick and health
    /// reflection left unchanged, and the health that tick returned. Like
    /// `declaration` it is derived state, never checkpointed, and every
    /// constructor starts it empty.
    observe_memo: Option<(simkube::ClusterFingerprint, Health)>,
    /// The reconcile memo: the inputs of the last reconcile pass that
    /// returned `Ok` without a crash point firing and left the cluster
    /// fingerprint unchanged.
    reconcile_memo: Option<(simkube::ClusterFingerprint, u64, Health)>,
}

/// Namespace every instance is deployed into.
pub const NAMESPACE: &str = "acto";

/// Name of the CR (and application) under test.
pub const INSTANCE: &str = "test-cluster";

/// Default reset-timer for convergence, in simulated seconds (the paper
/// uses three times the system restart time; pod start+ready is 5s here).
pub const CONVERGE_RESET: u64 = 15;

/// Default convergence budget, in simulated seconds.
pub const CONVERGE_MAX: u64 = 600;

impl Instance {
    /// Deploys `operator` on a fresh cluster: registers the CRD and images,
    /// creates the initial CR, and converges to the initial state.
    pub fn deploy(
        operator: Box<dyn Operator>,
        bugs: BugToggles,
        platform: PlatformBugs,
    ) -> Result<Instance, ApiError> {
        Self::deploy_on(operator, bugs, platform, None)
    }

    /// Like [`Instance::deploy`], but on a generated node topology
    /// (production-sized clusters: thousands of nodes, optional background
    /// pods). `None` keeps the default 4-node cluster.
    pub fn deploy_on(
        operator: Box<dyn Operator>,
        bugs: BugToggles,
        platform: PlatformBugs,
        topology: Option<simkube::NodeTopology>,
    ) -> Result<Instance, ApiError> {
        let mut cluster = SimCluster::new(ClusterConfig {
            bugs: platform,
            topology,
            ..ClusterConfig::default()
        });
        for image in operator.images() {
            cluster.add_image(&image);
        }
        cluster
            .api_mut()
            .register_crd(operator.kind(), operator.schema());
        let namespace = NAMESPACE.to_string();
        let name = INSTANCE.to_string();
        let model = managed::model_for(operator.system());
        cluster.api_mut().create_custom(
            &namespace,
            &name,
            operator.kind(),
            operator.initial_cr(),
            0,
        )?;
        let mut instance = Instance {
            cluster,
            operator,
            model,
            bugs,
            namespace,
            name,
            operator_restarts: 0,
            crashed_generation: None,
            operator_down_until: None,
            crash_log: Vec::new(),
            last_health: Health::Down("not yet deployed".to_string()),
            declaration: None,
            observe_memo: None,
            reconcile_memo: None,
        };
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        Ok(instance)
    }

    /// Deploys `operator` into an existing cluster under `namespace` — the
    /// multi-operator composition path. Registers the CRD and images and
    /// creates the initial CR, but does not converge: the composition
    /// converges all members together against the shared cluster.
    pub fn deploy_into(
        operator: Box<dyn Operator>,
        bugs: BugToggles,
        mut cluster: SimCluster,
        namespace: &str,
    ) -> Result<Instance, ApiError> {
        for image in operator.images() {
            cluster.add_image(&image);
        }
        cluster
            .api_mut()
            .register_crd(operator.kind(), operator.schema());
        let name = INSTANCE.to_string();
        let model = managed::model_for(operator.system());
        let time = cluster.now();
        cluster.api_mut().create_custom(
            namespace,
            &name,
            operator.kind(),
            operator.initial_cr(),
            time,
        )?;
        Ok(Instance {
            cluster,
            operator,
            model,
            bugs,
            namespace: namespace.to_string(),
            name,
            operator_restarts: 0,
            crashed_generation: None,
            operator_down_until: None,
            crash_log: Vec::new(),
            last_health: Health::Down("not yet deployed".to_string()),
            declaration: None,
            observe_memo: None,
            reconcile_memo: None,
        })
    }

    /// Takes a cheap copy-on-write checkpoint of the instance (cluster +
    /// harness state): cluster state is captured as shared handles, not a
    /// traversal. See [`simkube::SimCluster::checkpoint`].
    pub fn checkpoint(&self) -> InstanceCheckpoint {
        InstanceCheckpoint {
            cluster: self.cluster.checkpoint(),
            namespace: self.namespace.clone(),
            name: self.name.clone(),
            operator_restarts: self.operator_restarts,
            crashed_generation: self.crashed_generation,
            operator_down_until: self.operator_down_until,
            crash_log: self.crash_log.clone(),
            last_health: self.last_health.clone(),
        }
    }

    /// Rebuilds a live instance from a checkpoint, with a freshly
    /// constructed operator (operators and system models carry no state of
    /// their own). The restored instance's clock, store, logs, and health
    /// are exactly the checkpoint's; no simulated time elapses.
    pub fn from_checkpoint(
        operator: Box<dyn Operator>,
        bugs: BugToggles,
        cp: &InstanceCheckpoint,
    ) -> Instance {
        let model = managed::model_for(operator.system());
        Instance {
            cluster: SimCluster::from_checkpoint(&cp.cluster),
            operator,
            model,
            bugs,
            namespace: cp.namespace.clone(),
            name: cp.name.clone(),
            operator_restarts: cp.operator_restarts,
            crashed_generation: cp.crashed_generation,
            operator_down_until: cp.operator_down_until,
            crash_log: cp.crash_log.clone(),
            last_health: cp.last_health.clone(),
            declaration: None,
            observe_memo: None,
            reconcile_memo: None,
        }
    }

    /// The key of the CR object.
    pub fn cr_key(&self) -> ObjKey {
        ObjKey::new(
            Kind::Custom(self.operator.kind().to_string()),
            &self.namespace,
            &self.name,
        )
    }

    /// The current CR spec.
    pub fn cr_spec(&self) -> Value {
        match self.cluster.api().get(&self.cr_key()) {
            Some(obj) => obj.data.spec_value(),
            None => Value::Null,
        }
    }

    /// The current CR status.
    pub fn cr_status(&self) -> Value {
        match self.cluster.api().get(&self.cr_key()) {
            Some(obj) => obj.data.status_value(),
            None => Value::Null,
        }
    }

    /// The operator under test.
    pub fn operator(&self) -> &dyn Operator {
        self.operator.as_ref()
    }

    /// The active bug toggles.
    pub fn bugs(&self) -> &BugToggles {
        &self.bugs
    }

    /// Submits a new desired-state declaration.
    pub fn submit(&mut self, spec: Value) -> Result<(), ApiError> {
        let time = self.cluster.now();
        self.cluster.api_mut().update_custom(
            &self.namespace,
            &self.name,
            self.operator.kind(),
            spec,
            time,
        )
    }

    /// Returns `true` while the operator is in a panic crash loop.
    pub fn operator_crashed(&self) -> bool {
        self.crashed_generation.is_some()
    }

    /// Returns `true` while the operator process is down after a
    /// crash-point firing (it restarts once the downtime lapses).
    pub fn operator_down(&self) -> bool {
        self.operator_down_until.is_some()
    }

    /// The crash/restart transcript: every crash-point firing observed so
    /// far, oldest first.
    pub fn crash_transcript(&self) -> &[CrashEvent] {
        &self.crash_log
    }

    /// Cumulative state-changing writes the operator has issued across all
    /// reconcile passes (no-op writes don't count; see
    /// [`simkube::ApiServer::operator_writes`]).
    pub fn operator_writes(&self) -> u64 {
        self.cluster.api().operator_writes()
    }

    /// Advances the world one simulated second: cluster controllers, the
    /// managed-system model, and one operator reconcile pass.
    ///
    /// The event-driven engine gives the model and the operator a
    /// watch-driven work queue, as the cluster controllers already have: a
    /// model tick or reconcile pass whose inputs are unchanged since its
    /// last pass that changed nothing reuses that pass's result instead of
    /// running. The inputs are the cluster fingerprint
    /// ([`simkube::ClusterFingerprint`]: store revision, logs, crash
    /// conditions, pending conflicts, fault injector and crash-point
    /// interposer), plus the CR generation and health for a reconcile pass.
    /// Both are deterministic functions of them (see
    /// [`Operator::reconcile`] and [`SystemModel::tick`]), so the repeat
    /// would be a no-op too. The ticked engine runs every pass; it is the
    /// reference the skipping is checked against.
    pub fn tick(&mut self) {
        self.cluster.step();
        self.post_step();
    }

    /// Everything a tick does after the cluster step: the managed-system
    /// model, health reflection into the CR status, and one operator
    /// reconcile pass. Split from [`Instance::tick`] so a multi-operator
    /// composition can run one shared cluster step and then each member's
    /// post-step in deterministic order.
    ///
    /// When the instance lives in a namespace other than the default
    /// [`NAMESPACE`] (composition members beyond the first), keyed store
    /// operations naming the default namespace are aliased to the member's
    /// namespace for the duration — operators hard-code the default
    /// namespace, and the alias re-scopes their keyed reads and writes
    /// without touching raw enumeration (raw reach across namespaces is
    /// exactly what the composition oracle watches).
    pub(crate) fn post_step(&mut self) {
        let aliased = self.namespace != NAMESPACE;
        if aliased {
            let ns = self.namespace.clone();
            self.cluster
                .api_mut()
                .store_mut()
                .set_ns_alias(NAMESPACE, &ns);
        }
        self.post_step_inner();
        if aliased {
            self.cluster.api_mut().store_mut().clear_ns_alias();
        }
    }

    fn post_step_inner(&mut self) {
        let memo = !simkube::ticked_engine();
        let health = self.observe(memo);
        self.last_health = health.clone();
        let key = self.cr_key();
        let Some(cr_obj) = self.cluster.api().get(&key) else {
            return;
        };
        let generation = cr_obj.meta.generation;
        // An injected watch blackout starves the operator of events: no
        // reconcile runs until watches resume.
        if self.cluster.watch_blackout_active() {
            return;
        }
        // A fired crash point keeps the operator process dead: no reconcile
        // passes run until the downtime lapses, then the process restarts
        // with its in-memory state dropped.
        if let Some(until) = self.operator_down_until {
            if self.cluster.now() < until {
                return;
            }
            self.operator_down_until = None;
            self.operator.restart();
            self.operator_restarts += 1;
            self.declaration = None;
            self.reconcile_memo = None;
            self.cluster.log(
                LogLevel::Warn,
                "crash-point",
                "operator process restarted".to_string(),
            );
        }
        // An injected transient reconcile error aborts this pass before the
        // operator runs. Logged at warning level from a neutral source so
        // the error-check oracle doesn't attribute it to the operator.
        if self.cluster.take_injected_reconcile_error() {
            self.cluster.log(
                LogLevel::Warn,
                "fault-injector",
                "injected transient reconcile error".to_string(),
            );
            return;
        }
        // Operator crash-loop: the offending declaration keeps crashing the
        // restarted process until a new declaration arrives.
        if let Some(crashed_gen) = self.crashed_generation {
            if crashed_gen == generation {
                return;
            }
            self.crashed_generation = None;
            self.operator_restarts += 1;
        }
        // The generation bumps exactly when the spec changes, so the
        // declaration (a handle on the stored spec, rendered once for its
        // length) is built once per generation.
        if self.declaration.as_ref().map(|(g, _)| *g) != Some(generation) {
            let spec = match self.cluster.api().get(&key).map(|obj| &obj.data) {
                Some(ObjectData::Custom { spec, .. }) => Arc::clone(spec),
                _ => return,
            };
            self.declaration = Some((generation, Declaration::new(spec)));
        }
        let (_, declaration) = self.declaration.as_ref().expect("built above");
        // PLAT-3: oversized payloads crash the operator runtime itself.
        if self.cluster.api().bugs().shared_object_crash
            && declaration.json_len() > SHARED_OBJECT_PAYLOAD_LIMIT
        {
            self.record_panic(
                generation,
                "PLAT-3: declaration payload exceeds shared-object limit".to_string(),
            );
            return;
        }
        // Every gate above that reads the clock or consumes fault state has
        // run; what is left is a pure function of the memo key.
        let memo_key = memo.then(|| {
            (
                self.cluster.quiescence_fingerprint(),
                generation,
                health.clone(),
            )
        });
        if memo_key.is_some() && self.reconcile_memo == memo_key {
            return;
        }
        self.reconcile_memo = None;
        let (_, declaration) = self.declaration.as_ref().expect("built above");
        self.cluster.api_mut().begin_operator_pass();
        let result = self
            .operator
            .reconcile(declaration, &health, &mut self.cluster, &self.bugs);
        if let Some(down_for) = self.cluster.api_mut().end_operator_pass() {
            // An armed crash point fired mid-pass: the process is dead, so
            // the pass's outcome (transient error, panic) never surfaces.
            let now = self.cluster.now();
            let until = now + down_for;
            let writes = self.cluster.api().operator_writes();
            self.operator_down_until = Some(until);
            self.crash_log.push(CrashEvent {
                time: now,
                writes_total: writes,
                restart_at: until,
            });
            self.cluster.log(
                LogLevel::Warn,
                "crash-point",
                format!("operator process crashed after write {writes}; restart at t={until}"),
            );
            return;
        }
        match result {
            Ok(()) => {
                self.reconcile_memo =
                    memo_key.filter(|k| k.0 == self.cluster.quiescence_fingerprint());
            }
            Err(OperatorError::Transient(msg)) => {
                let source = self.operator.name();
                self.cluster.log(LogLevel::Error, source, msg);
            }
            Err(OperatorError::Panic(msg)) => {
                self.record_panic(generation, msg);
            }
        }
    }

    /// The managed-system model's tick plus the reflection of its health
    /// into the CR status (the monitoring path Acto's error oracle reads
    /// from state objects). With `memo`, a tick whose cluster fingerprint
    /// matches the last tick that left it unchanged returns that tick's
    /// health without running: the model would return the same health, and
    /// the CR status already holds it.
    fn observe(&mut self, memo: bool) -> Health {
        let entry = memo.then(|| self.cluster.quiescence_fingerprint());
        if let Some((fp, health)) = &self.observe_memo {
            if entry.as_ref() == Some(fp) {
                return health.clone();
            }
        }
        // The model observes and may inject crash loops.
        let health = {
            let mut view = SystemView::new(&mut self.cluster, &self.namespace, &self.name);
            self.model.tick(&mut view)
        };
        self.reflect_health(&health);
        self.observe_memo = entry
            .filter(|fp| *fp == self.cluster.quiescence_fingerprint())
            .map(|fp| (fp, health.clone()));
        health
    }

    fn reflect_health(&mut self, health: &Health) {
        let key = self.cr_key();
        let Some(cr_obj) = self.cluster.api().get(&key) else {
            return;
        };
        let health_str = match health {
            Health::Healthy => "Healthy".to_string(),
            Health::Degraded(r) => format!("Degraded: {r}"),
            Health::Down(r) => format!("Down: {r}"),
        };
        // Compare against the stored status in place; the status value is
        // only rendered (and written back) when the health actually moved.
        let stored_health = cr_obj
            .data
            .status_field("systemHealth")
            .and_then(Value::as_str);
        if stored_health != Some(health_str.as_str()) {
            let mut status = cr_obj.data.status_value();
            status.set_path(
                &"systemHealth".parse().expect("path"),
                Value::from(health_str),
            );
            let time = self.cluster.now();
            let _ = self
                .cluster
                .api_mut()
                .update_custom_status(&key, status, time);
        }
    }

    fn record_panic(&mut self, generation: u64, msg: String) {
        let first = self.crashed_generation != Some(generation);
        self.crashed_generation = Some(generation);
        if first {
            let source = self.operator.name();
            self.cluster
                .log(LogLevel::Panic, source, format!("panic: {msg}"));
        }
    }

    /// Runs [`Instance::tick`] until no state event occurs for
    /// `reset_timeout` seconds (paper §5.5), or until `max_seconds` pass:
    /// the convergence [`simkube::wait`], so in event-driven mode the clock
    /// jumps over provably idle spans and the convergence (or timeout)
    /// timestamp matches the ticked loop's exactly.
    pub fn converge(&mut self, reset_timeout: u64, max_seconds: u64) -> bool {
        self.converge_logged(reset_timeout, max_seconds, None)
    }

    /// [`Instance::converge`], recording the wait's write boundaries into
    /// `log` when one is given (see [`BoundaryLog`]). The log is refilled:
    /// its first entry is the state at the wait's start, and every
    /// executed tick whose operator pass wrote adds the checkpoint taken at
    /// its start. Recording costs one O(1) copy-on-write checkpoint per
    /// executed tick and changes nothing the wait does.
    pub fn converge_logged(
        &mut self,
        reset_timeout: u64,
        max_seconds: u64,
        log: Option<&mut BoundaryLog>,
    ) -> bool {
        let cursor = WaitCursor::new(&self.cluster);
        let Some(log) = log else {
            return simkube::wait(self, cursor, Some(reset_timeout), max_seconds);
        };
        log.entries.clear();
        log.entries.push(WriteBoundary {
            checkpoint: self.checkpoint(),
            cursor,
            writes_before: 0,
        });
        let mut recorder = Recorder {
            instance: self,
            log: Some(log),
            writes: 0,
        };
        simkube::wait(&mut recorder, cursor, Some(reset_timeout), max_seconds)
    }

    /// Continues the convergence wait `boundary` was recorded in, on an
    /// instance restored from [`WriteBoundary::checkpoint`]: the loop picks
    /// up at the boundary's tick with the wait's start time and reset
    /// timer, exactly where the recorded wait stood.
    pub fn resume_converge(
        &mut self,
        boundary: &WriteBoundary,
        reset_timeout: u64,
        max_seconds: u64,
    ) -> bool {
        simkube::wait(self, boundary.cursor, Some(reset_timeout), max_seconds)
    }

    /// Advances exactly `seconds` simulated seconds (e.g. a fault-plan
    /// horizon): the convergence [`simkube::wait`] with no reset timer, so
    /// it fast-forwards over provably idle spans in event-driven mode and
    /// ends with the clock at `now + seconds` in both engines.
    pub fn advance(&mut self, seconds: u64) {
        simkube::wait(self, WaitCursor::new(&self.cluster), None, seconds);
    }

    /// Pods of the instance's namespace that carry an explicit failure
    /// reason, as `(name, phase, ready, reason)`.
    pub fn pod_failures(&self) -> Vec<(String, simkube::objects::PodPhase, bool, String)> {
        self.cluster
            .pod_summaries(&self.namespace)
            .into_iter()
            .filter(|(_, _, _, reason)| !reason.is_empty())
            .collect()
    }

    /// Snapshot of the operator-visible state objects rendered as values,
    /// keyed by `kind/namespace/name` — the uniform system-state view
    /// Acto's oracles compare. Background scale-workload pods
    /// ([`simkube::BACKGROUND_NAMESPACE`]) are inert cluster scaffolding —
    /// no operator manages them — so the store's state index leaves them
    /// out, and the render costs O(operator-visible objects) whatever the
    /// cluster's size.
    pub fn state_snapshot(&self) -> std::collections::BTreeMap<String, Value> {
        self.state_handles()
            .iter()
            .map(|(id, entry)| {
                let obj = entry.object().expect("store index entries hold a handle");
                (id.clone(), obj.to_value())
            })
            .collect()
    }

    /// The store's state index: the objects of
    /// [`Instance::state_snapshot`] as shared handles with lazily masked,
    /// per-version memoised renders. An O(1) clone; oracles diff two of
    /// them in time proportional to the objects that differ.
    pub fn state_handles(&self) -> simkube::StateIndex {
        self.cluster.api().store().state_index().clone()
    }
}

/// The fingerprint of an [`Instance`]: the cluster's quiescence
/// fingerprint plus the operator-side state a tick can change.
pub(crate) type InstanceFingerprint = (
    simkube::ClusterFingerprint,
    Option<u64>,
    u32,
    Option<u64>,
    usize,
    Health,
);

impl Converge for Instance {
    type Fingerprint = InstanceFingerprint;

    fn tick(&mut self, _: &WaitCursor) {
        Instance::tick(self);
    }

    /// Two equal fingerprints around a tick prove it was a no-op:
    /// operators and models are deterministic functions of this state and
    /// read the clock only to stamp writes (the contract on
    /// [`Operator::reconcile`] and [`SystemModel::tick`]), so the next tick
    /// is a no-op too. `tick` skips a model tick or reconcile pass on the
    /// same argument, keyed on the cluster part.
    fn fingerprint(&self) -> InstanceFingerprint {
        (
            self.cluster.quiescence_fingerprint(),
            self.crashed_generation,
            self.operator_restarts,
            self.operator_down_until,
            self.crash_log.len(),
            self.last_health.clone(),
        )
    }

    fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }

    /// A dead operator process is not a converged system, even if nothing
    /// has moved for a full reset window, and its restart tick is
    /// observable.
    fn restart_at(&self) -> Option<u64> {
        self.operator_down_until
    }
}

/// An [`Instance`] whose convergence wait records its write boundaries
/// (see [`Instance::converge_logged`]).
struct Recorder<'a> {
    instance: &'a mut Instance,
    /// Dropped for good at the first tick that starts with a crash point
    /// armed (a fault plan's): a replay arms its own crash point, which
    /// would replace that one, so only the ticks before it fork exactly.
    log: Option<&'a mut BoundaryLog>,
    /// State-changing operator writes the wait has made so far.
    writes: u64,
}

impl Converge for Recorder<'_> {
    type Fingerprint = InstanceFingerprint;

    /// One tick, logging the checkpoint taken at its start when its
    /// operator pass wrote, and counting the writes.
    fn tick(&mut self, cursor: &WaitCursor) {
        if self.instance.cluster.api().armed_operator_crash().is_some() {
            self.log = None;
        }
        let Some(log) = self.log.as_deref_mut() else {
            return self.instance.tick();
        };
        let checkpoint = self.instance.checkpoint();
        let writes_before = self.instance.operator_writes();
        self.instance.tick();
        let wrote = self.instance.operator_writes() - writes_before;
        if wrote > 0 {
            log.entries.push(WriteBoundary {
                checkpoint,
                cursor: *cursor,
                writes_before: self.writes,
            });
            self.writes += wrote;
        }
    }

    fn fingerprint(&self) -> InstanceFingerprint {
        self.instance.fingerprint()
    }

    fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.instance.cluster
    }

    fn restart_at(&self) -> Option<u64> {
        self.instance.restart_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crdspec::Schema;
    use opdsl::IrBuilder;
    use simkube::meta::LabelSelector;
    use simkube::meta::ObjectMeta;
    use simkube::objects::{Container, ObjectData, PodTemplate, StatefulSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A minimal operator managing a fake "zookeeper" with one knob.
    struct ToyOperator;

    impl Operator for ToyOperator {
        fn name(&self) -> &'static str {
            "ToyOp"
        }
        fn system(&self) -> &'static str {
            "zookeeper"
        }
        fn kind(&self) -> &'static str {
            "ToyCluster"
        }
        fn schema(&self) -> Schema {
            Schema::object()
                .prop("replicas", Schema::integer().min(0).max(9))
                .prop("boom", Schema::boolean())
        }
        fn ir(&self) -> IrModule {
            let mut b = IrBuilder::new("toy");
            b.passthrough("replicas", "sts.replicas");
            b.ret();
            b.finish()
        }
        fn initial_cr(&self) -> Value {
            Value::object([("replicas", Value::from(2))])
        }
        fn images(&self) -> Vec<String> {
            vec!["zk:3.8".to_string()]
        }
        fn reconcile(
            &mut self,
            cr: &Declaration,
            _health: &Health,
            cluster: &mut SimCluster,
            _bugs: &BugToggles,
        ) -> Result<(), OperatorError> {
            if cr.get("boom").and_then(Value::as_bool) == Some(true) {
                return Err(OperatorError::Panic("boom requested".to_string()));
            }
            let replicas = cr.get("replicas").and_then(Value::as_i64).unwrap_or(1) as i32;
            let sts = StatefulSet {
                replicas,
                selector: LabelSelector::match_labels([("app", "test-cluster")]),
                template: PodTemplate {
                    labels: [("app".to_string(), "test-cluster".to_string())]
                        .into_iter()
                        .collect(),
                    containers: vec![Container {
                        name: "zk".to_string(),
                        image: "zk:3.8".to_string(),
                        ..Container::default()
                    }],
                    ..PodTemplate::default()
                },
                service_name: "test-cluster".to_string(),
                ..StatefulSet::default()
            };
            let time = cluster.now();
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named("acto", "test-cluster"),
                    ObjectData::StatefulSet(sts),
                    time,
                )
                .map_err(|e| OperatorError::Transient(e.to_string()))?;
            Ok(())
        }
    }

    /// Counts reconcile passes of [`ToyOperator`]; with `transient`, every
    /// pass fails with a write-free transient error.
    struct CountingOperator {
        passes: Arc<AtomicUsize>,
        transient: bool,
    }

    impl Operator for CountingOperator {
        fn name(&self) -> &'static str {
            ToyOperator.name()
        }
        fn system(&self) -> &'static str {
            ToyOperator.system()
        }
        fn kind(&self) -> &'static str {
            ToyOperator.kind()
        }
        fn schema(&self) -> Schema {
            ToyOperator.schema()
        }
        fn ir(&self) -> IrModule {
            ToyOperator.ir()
        }
        fn initial_cr(&self) -> Value {
            ToyOperator.initial_cr()
        }
        fn images(&self) -> Vec<String> {
            ToyOperator.images()
        }
        fn reconcile(
            &mut self,
            cr: &Declaration,
            health: &Health,
            cluster: &mut SimCluster,
            bugs: &BugToggles,
        ) -> Result<(), OperatorError> {
            self.passes.fetch_add(1, Ordering::Relaxed);
            if self.transient {
                return Err(OperatorError::Transient("backend unavailable".to_string()));
            }
            ToyOperator.reconcile(cr, health, cluster, bugs)
        }
    }

    /// Counts ticks of the operator's managed-system model.
    struct CountingModel {
        inner: Box<dyn SystemModel>,
        ticks: Arc<AtomicUsize>,
    }

    impl SystemModel for CountingModel {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn tick(&mut self, view: &mut SystemView<'_>) -> Health {
            self.ticks.fetch_add(1, Ordering::Relaxed);
            self.inner.tick(view)
        }
    }

    /// A deployed, converged [`ToyOperator`] instance.
    fn settled() -> InstanceCheckpoint {
        Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap()
        .checkpoint()
    }

    /// Model ticks and reconcile passes run so far.
    struct Counters {
        ticks: Arc<AtomicUsize>,
        passes: Arc<AtomicUsize>,
    }

    impl Counters {
        fn get(&self) -> (usize, usize) {
            (
                self.ticks.load(Ordering::Relaxed),
                self.passes.load(Ordering::Relaxed),
            )
        }
    }

    /// Restores `cp` with counting wrappers around the operator and model.
    fn counted(cp: &InstanceCheckpoint, transient: bool) -> (Instance, Counters) {
        let counters = Counters {
            ticks: Arc::default(),
            passes: Arc::default(),
        };
        let operator = CountingOperator {
            passes: counters.passes.clone(),
            transient,
        };
        let mut instance =
            Instance::from_checkpoint(Box::new(operator), BugToggles::all_injected(), cp);
        instance.model = Box::new(CountingModel {
            inner: managed::model_for(ToyOperator.system()),
            ticks: counters.ticks.clone(),
        });
        (instance, counters)
    }

    /// Restores the thread's engine selection even if an assertion panics.
    struct EngineGuard;

    impl Drop for EngineGuard {
        fn drop(&mut self) {
            simkube::set_ticked_engine(false);
        }
    }

    #[test]
    fn quiet_tick_runs_neither_model_nor_reconcile() {
        let (mut instance, counters) = counted(&settled(), false);
        // A fresh restore runs its first pass of each.
        instance.tick();
        assert_eq!(counters.get(), (1, 1));
        // The settled system's confirmation tick reuses both.
        instance.tick();
        instance.tick();
        assert_eq!(counters.get(), (1, 1));
        let revision = instance.cluster.api().store().revision();
        // The ticked reference engine runs both on every tick.
        let _guard = EngineGuard;
        simkube::set_ticked_engine(true);
        instance.tick();
        instance.tick();
        assert_eq!(counters.get(), (3, 3));
        assert_eq!(instance.cluster.api().store().revision(), revision);
    }

    #[test]
    fn every_pass_input_invalidates_the_memo() {
        /// What changes, how, and the (model ticks, reconcile passes) after.
        type Change = (&'static str, fn(&mut Instance), (usize, usize));
        let base = settled();
        let changes: [Change; 7] = [
            (
                "crash condition",
                |i| i.cluster.set_crashing(NAMESPACE, "test-cluster-0", "test"),
                (2, 2),
            ),
            (
                "injected conflicts",
                |i| i.cluster.api_mut().inject_conflicts(1),
                (2, 2),
            ),
            (
                "armed crash point",
                |i| i.cluster.api_mut().arm_operator_crash(3, 5),
                (2, 2),
            ),
            (
                "installed fault plan",
                |i| i.cluster.install_fault_plan(simkube::FaultPlan::default()),
                (2, 2),
            ),
            (
                "new declaration",
                |i| {
                    i.submit(Value::object([("replicas", Value::from(3))]))
                        .unwrap()
                },
                (2, 2),
            ),
            // A health change or a new generation with an unchanged cluster
            // cannot come from a model or operator that keeps the purity
            // contract; rewrite the recorded memo to isolate each key part.
            (
                "health change",
                |i| {
                    let (fp, _) = i.observe_memo.clone().expect("recorded");
                    i.observe_memo = Some((fp, Health::Degraded("test".to_string())));
                },
                (1, 2),
            ),
            (
                "generation change",
                |i| {
                    let memo = i.reconcile_memo.as_mut().expect("recorded");
                    memo.1 -= 1;
                },
                (1, 2),
            ),
        ];
        for (label, change, expected) in changes {
            let (mut instance, counters) = counted(&base, false);
            instance.post_step();
            instance.post_step();
            assert_eq!(counters.get(), (1, 1), "{label}: quiet passes reused");
            change(&mut instance);
            instance.post_step();
            assert_eq!(counters.get(), expected, "{label}: the next pass re-runs");
        }
    }

    #[test]
    fn failed_pass_is_not_memoised() {
        let (mut instance, counters) = counted(&settled(), true);
        let errors = |i: &Instance| {
            i.cluster
                .logs()
                .iter()
                .filter(|l| l.source == "ToyOp" && l.level == LogLevel::Error)
                .count()
        };
        let before = errors(&instance);
        for _ in 0..3 {
            instance.post_step();
        }
        assert_eq!(counters.get().1, 3);
        assert_eq!(errors(&instance), before + 3);
    }

    #[test]
    fn deploy_converges_to_initial_state() {
        let instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        let pods = instance.cluster.pod_summaries("acto");
        assert_eq!(pods.len(), 2);
        assert!(instance.last_health.is_healthy());
        assert_eq!(
            instance
                .cr_status()
                .get("systemHealth")
                .and_then(Value::as_str),
            Some("Healthy")
        );
    }

    #[test]
    fn submit_and_reconverge_scales() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        instance
            .submit(Value::object([("replicas", Value::from(4))]))
            .unwrap();
        assert!(instance.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert_eq!(instance.cluster.pod_summaries("acto").len(), 4);
    }

    #[test]
    fn panic_enters_crash_loop_until_new_declaration() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        instance
            .submit(Value::object([
                ("replicas", Value::from(2)),
                ("boom", Value::from(true)),
            ]))
            .unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        assert!(instance
            .cluster
            .logs()
            .iter()
            .any(|l| l.level == LogLevel::Panic));
        // A corrected declaration restarts the operator.
        instance
            .submit(Value::object([("replicas", Value::from(3))]))
            .unwrap();
        assert!(instance.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert!(!instance.operator_crashed());
        assert_eq!(instance.operator_restarts, 1);
        assert_eq!(instance.cluster.pod_summaries("acto").len(), 3);
    }

    #[test]
    fn invalid_declaration_rejected_at_api() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        let err = instance
            .submit(Value::object([("replicas", Value::from(99))]))
            .unwrap_err();
        assert!(matches!(err, ApiError::ValidationFailed(_)));
    }

    #[test]
    fn instance_checkpoint_resumes_identically() {
        let mut original = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        let cp = original.checkpoint();
        assert_eq!(cp.time(), original.cluster.now());
        let mut restored =
            Instance::from_checkpoint(Box::new(ToyOperator), BugToggles::all_injected(), &cp);
        assert_eq!(restored.cluster.now(), original.cluster.now());
        assert_eq!(restored.cr_spec(), original.cr_spec());
        // Both futures submit the same declaration and must converge to the
        // same state in the same simulated time.
        for inst in [&mut original, &mut restored] {
            inst.submit(Value::object([("replicas", Value::from(5))]))
                .unwrap();
            assert!(inst.converge(CONVERGE_RESET, CONVERGE_MAX));
        }
        assert_eq!(original.cluster.now(), restored.cluster.now());
        assert_eq!(original.state_snapshot(), restored.state_snapshot());
        assert_eq!(original.last_health, restored.last_health);
    }

    #[test]
    fn checkpoint_preserves_crash_loop_state() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        instance
            .submit(Value::object([
                ("replicas", Value::from(2)),
                ("boom", Value::from(true)),
            ]))
            .unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let cp = instance.checkpoint();
        let mut restored =
            Instance::from_checkpoint(Box::new(ToyOperator), BugToggles::all_injected(), &cp);
        assert!(restored.operator_crashed());
        // Recovery works the same way after restore.
        restored
            .submit(Value::object([("replicas", Value::from(3))]))
            .unwrap();
        assert!(restored.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert!(!restored.operator_crashed());
        assert_eq!(restored.operator_restarts, 1);
    }

    #[test]
    fn crash_point_aborts_pass_and_restarts_after_downtime() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        let restarts_before = instance.operator_restarts;
        // Kill the process at its next state-changing write, down for 5s.
        instance.cluster.api_mut().arm_operator_crash(1, 5);
        instance
            .submit(Value::object([("replicas", Value::from(4))]))
            .unwrap();
        assert!(instance.converge(CONVERGE_RESET, CONVERGE_MAX));
        // The crash fired, the process restarted, and the system still
        // reached the declared state.
        assert_eq!(instance.crash_transcript().len(), 1);
        assert!(!instance.operator_down());
        assert_eq!(instance.operator_restarts, restarts_before + 1);
        assert_eq!(instance.cluster.pod_summaries("acto").len(), 4);
        let event = &instance.crash_transcript()[0];
        assert_eq!(event.restart_at, event.time + 5);
        assert!(instance
            .cluster
            .logs()
            .iter()
            .any(|l| l.source == "crash-point" && l.message.contains("restarted")));
    }

    #[test]
    fn checkpoint_preserves_crash_point_downtime() {
        let mut instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        instance.cluster.api_mut().arm_operator_crash(1, 50);
        instance
            .submit(Value::object([("replicas", Value::from(4))]))
            .unwrap();
        // Tick until the crash fires, then checkpoint mid-downtime.
        while instance.crash_transcript().is_empty() {
            instance.tick();
        }
        assert!(instance.operator_down());
        let cp = instance.checkpoint();
        let mut restored =
            Instance::from_checkpoint(Box::new(ToyOperator), BugToggles::all_injected(), &cp);
        assert!(restored.operator_down());
        assert_eq!(restored.crash_transcript(), instance.crash_transcript());
        // Both futures ride out the downtime identically.
        for inst in [&mut instance, &mut restored] {
            assert!(inst.converge(CONVERGE_RESET, CONVERGE_MAX));
        }
        assert_eq!(instance.cluster.now(), restored.cluster.now());
        assert_eq!(instance.state_snapshot(), restored.state_snapshot());
        assert_eq!(instance.operator_restarts, restored.operator_restarts);
    }

    #[test]
    fn advance_ends_at_its_horizon_across_a_restart_in_both_engines() {
        let base = settled();
        let run = |ticked: bool| {
            let _guard = EngineGuard;
            simkube::set_ticked_engine(ticked);
            let mut instance =
                Instance::from_checkpoint(Box::new(ToyOperator), BugToggles::all_injected(), &base);
            // Kill the process at its next write, down for 20 s: the
            // restart falls inside the 120 s horizon.
            instance.cluster.api_mut().arm_operator_crash(1, 20);
            instance
                .submit(Value::object([("replicas", Value::from(4))]))
                .unwrap();
            let t0 = instance.cluster.now();
            let (_, skipped_before) = instance.cluster.engine_stats();
            instance.advance(120);
            assert_eq!(instance.cluster.now(), t0 + 120, "ticked: {ticked}");
            let [event] = instance.crash_transcript() else {
                panic!("one crash fires (ticked: {ticked})");
            };
            assert!(event.restart_at < t0 + 120, "ticked: {ticked}");
            assert!(!instance.operator_down(), "ticked: {ticked}");
            // Only the event engine skips idle ticks.
            let skipped = instance.cluster.engine_stats().1 - skipped_before;
            assert_eq!(skipped > 0, !ticked, "skipped {skipped} (ticked: {ticked})");
            (
                Converge::fingerprint(&instance),
                instance.crash_transcript().to_vec(),
                instance.state_snapshot(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn state_snapshot_is_uniform() {
        let instance = Instance::deploy(
            Box::new(ToyOperator),
            BugToggles::all_injected(),
            PlatformBugs::none(),
        )
        .unwrap();
        let snap = instance.state_snapshot();
        assert!(snap.keys().any(|k| k.starts_with("Pod/acto/")));
        assert!(snap.keys().any(|k| k.starts_with("ToyCluster/acto/")));
        for v in snap.values() {
            assert!(v.get("spec").is_some());
            assert!(v.get("metadata").is_some());
        }
    }

    #[test]
    fn declaration_digest_is_the_init_marker_fingerprint() {
        // The formula ZooKeeperOp named its SEED-CRASH-1 init markers with
        // before the digest moved into the declaration: FNV-1a over the
        // compact JSON. Marker names are part of every seeded transcript.
        fn spec_fingerprint(cr: &Value) -> u64 {
            let json = crdspec::json::to_string(cr);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in json.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h
        }
        let mut specs: Vec<Value> = crate::registry::operator_names()
            .into_iter()
            .map(|name| crate::operator_by_name(name).initial_cr())
            .collect();
        specs.extend([
            Value::Null,
            Value::empty_object(),
            Value::object([("note", Value::from("é\"\\\n\u{1}日"))]),
        ]);
        for spec in specs {
            let declaration = Declaration::new(Arc::new(spec.clone()));
            assert_eq!(declaration.digest(), spec_fingerprint(&spec), "{spec:?}");
            assert_eq!(
                declaration.json_len(),
                crdspec::json::to_string(&spec).len()
            );
            assert_eq!(*declaration, spec);
        }
        let zk = Declaration::new(Arc::new(crate::ops::zookeeper::ZooKeeperOp.initial_cr()));
        assert_eq!(format!("{:016x}", zk.digest()), "12f80c233f31688b");
    }
}
