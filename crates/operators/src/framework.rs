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

use crdspec::{Schema, Value};
use managed::{Health, SystemModel, SystemView};
use opdsl::IrModule;
use simkube::cluster::LogLevel;
use simkube::objects::Kind;
use simkube::platform::SHARED_OBJECT_PAYLOAD_LIMIT;
use simkube::store::ObjKey;
use simkube::{ApiError, ClusterConfig, PlatformBugs, SimCluster};

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
    fn reconcile(
        &mut self,
        cr: &Value,
        health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError>;

    /// Called when the operator "process" restarts after a crash-point
    /// firing: drop any in-memory state, as a real process death would.
    /// Operators in this repo are stateless unit structs rebuilt from the
    /// registry constructor, so the default is a no-op; stateful operators
    /// must override it.
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
    /// Rendered CR spec keyed by CR generation. Pure derived cache
    /// (`spec_value` is a deterministic render and the generation bumps
    /// exactly when the spec changes), so it is not checkpointed.
    spec_cache: Option<(u64, Value)>,
    /// Serialized length of the cached spec (the PLAT-3 payload check).
    payload_len_cache: usize,
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
            spec_cache: None,
            payload_len_cache: 0,
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
            spec_cache: None,
            payload_len_cache: 0,
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
            spec_cache: None,
            payload_len_cache: 0,
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

    /// Simulated time the downed operator process restarts, if any — the
    /// composition's fast-forward must never skip a member's restart tick.
    pub(crate) fn operator_down_at(&self) -> Option<u64> {
        self.operator_down_until
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
        // Managed-system model observes and may inject crash loops.
        let health = {
            let mut view = SystemView::new(&mut self.cluster, &self.namespace, &self.name);
            self.model.tick(&mut view)
        };
        self.last_health = health.clone();
        // Reflect runtime health into the CR status (the monitoring path
        // Acto's error oracle reads from state objects).
        let health_str = match &health {
            Health::Healthy => "Healthy".to_string(),
            Health::Degraded(r) => format!("Degraded: {r}"),
            Health::Down(r) => format!("Down: {r}"),
        };
        let key = self.cr_key();
        let Some(cr_obj) = self.cluster.api().get(&key) else {
            return;
        };
        let generation = cr_obj.meta.generation;
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
            self.spec_cache = None;
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
        // The rendered spec is a pure function of the CR spec, and the
        // generation bumps exactly when the spec changes — cache the render
        // (and the PLAT-3 payload length) per generation instead of
        // rebuilding the value tree every reconcile pass.
        if self.spec_cache.as_ref().map(|(g, _)| *g) != Some(generation) {
            let Some(obj) = self.cluster.api().get(&key) else {
                return;
            };
            let spec = obj.data.spec_value();
            self.payload_len_cache = crdspec::json::to_string(&spec).len();
            self.spec_cache = Some((generation, spec));
        }
        // PLAT-3: oversized payloads crash the operator runtime itself.
        if self.cluster.api().bugs().shared_object_crash
            && self.payload_len_cache > SHARED_OBJECT_PAYLOAD_LIMIT
        {
            self.record_panic(
                generation,
                "PLAT-3: declaration payload exceeds shared-object limit".to_string(),
            );
            return;
        }
        let spec = &self.spec_cache.as_ref().expect("populated above").1;
        self.cluster.api_mut().begin_operator_pass();
        let result = self
            .operator
            .reconcile(spec, &health, &mut self.cluster, &self.bugs);
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
            Ok(()) => {}
            Err(OperatorError::Transient(msg)) => {
                let source = self.operator.name();
                self.cluster.log(LogLevel::Error, source, msg);
            }
            Err(OperatorError::Panic(msg)) => {
                self.record_panic(generation, msg);
            }
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

    /// Observable fingerprint of the whole instance: the cluster's
    /// quiescence fingerprint plus operator-side state a tick can change.
    /// Two equal fingerprints around a tick prove it was a no-op (operators
    /// and models are deterministic functions of this state, never of the
    /// clock), which lets the event-driven engine fast-forward.
    pub(crate) fn fingerprint(
        &self,
    ) -> (
        simkube::ClusterFingerprint,
        Option<u64>,
        u32,
        Option<u64>,
        usize,
        Health,
    ) {
        (
            self.cluster.quiescence_fingerprint(),
            self.crashed_generation,
            self.operator_restarts,
            self.operator_down_until,
            self.crash_log.len(),
            self.last_health.clone(),
        )
    }

    /// Runs [`Instance::tick`] until no state event occurs for
    /// `reset_timeout` seconds (paper §5.5), or until `max_seconds` pass.
    ///
    /// In event-driven mode the clock jumps over provably idle spans, so
    /// the convergence (or timeout) timestamp matches the ticked loop's
    /// exactly.
    pub fn converge(&mut self, reset_timeout: u64, max_seconds: u64) -> bool {
        let start = self.cluster.now();
        let mut last_event_time = start;
        let mut last_revision = self.cluster.api().store().revision();
        let ticked = simkube::ticked_engine();
        let mut fingerprint = self.fingerprint();
        while self.cluster.now() - start < max_seconds {
            self.tick();
            let revision = self.cluster.api().store().revision();
            if revision != last_revision {
                last_revision = revision;
                last_event_time = self.cluster.now();
            } else if self.cluster.now() - last_event_time >= reset_timeout
                && self.operator_down_until.is_none()
            {
                // A dead operator process is not a converged system, even if
                // nothing has moved for a full reset window.
                return true;
            }
            if !ticked {
                let after = self.fingerprint();
                if after == fingerprint {
                    let mut target = (last_event_time + reset_timeout).min(start + max_seconds);
                    if let Some(wake) = self.cluster.next_wakeup() {
                        target = target.min(wake);
                    }
                    if let Some(down) = self.operator_down_until {
                        // The restart tick is observable; never skip it.
                        target = target.min(down);
                    }
                    if target > self.cluster.now() + 1 {
                        self.cluster.fast_forward_to(target - 1);
                    }
                } else {
                    fingerprint = after;
                }
            }
        }
        false
    }

    /// Advances exactly `seconds` simulated seconds (e.g. a fault-plan
    /// horizon), fast-forwarding over provably idle spans in event-driven
    /// mode. Ends with the clock at `now + seconds` in both engines.
    pub fn advance(&mut self, seconds: u64) {
        let end = self.cluster.now() + seconds;
        let ticked = simkube::ticked_engine();
        let mut fingerprint = self.fingerprint();
        while self.cluster.now() < end {
            self.tick();
            if ticked {
                continue;
            }
            let after = self.fingerprint();
            if after == fingerprint {
                let mut target = end;
                if let Some(wake) = self.cluster.next_wakeup() {
                    target = target.min(wake);
                }
                if let Some(down) = self.operator_down_until {
                    target = target.min(down);
                }
                if target > self.cluster.now() + 1 {
                    self.cluster.fast_forward_to(target - 1);
                }
            } else {
                fingerprint = after;
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crdspec::Schema;
    use opdsl::IrBuilder;
    use simkube::meta::LabelSelector;
    use simkube::meta::ObjectMeta;
    use simkube::objects::{Container, ObjectData, PodTemplate, StatefulSet};

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
            cr: &Value,
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
}
