//! Multi-operator composition: several operator [`Instance`]s sharing one
//! simulated cluster.
//!
//! Real clusters run many operators side by side; Acto (§3) tests one at a
//! time. A [`Composition`] deploys an ordered set of operators into a
//! single [`SimCluster`], each in its own namespace, and drives them in
//! deterministic order: one shared cluster step per tick, then every
//! member's post-step (model tick + reconcile pass). Operators hard-code
//! the conventional deployment namespace, so each non-first member's
//! post-step runs under a store namespace alias that re-scopes keyed
//! operations into the member's sandbox — while raw enumeration stays
//! unaliased, which is how one operator's overly broad garbage collection
//! can reach into a sibling's namespace. Every cross-namespace touch is
//! recorded as an [`InterferenceEvent`] for the composition oracle.

use std::mem;

use crdspec::Value;
use simkube::store::WatchEventKind;
use simkube::{ApiError, ClusterConfig, Converge, PlatformBugs, SimCluster, WaitCursor};

use crate::bugs::BugToggles;
use crate::framework::{
    Instance, InstanceCheckpoint, InstanceFingerprint, Operator, CONVERGE_MAX, CONVERGE_RESET,
    NAMESPACE,
};

/// Namespace of composition member `index`: the first member keeps the
/// conventional [`NAMESPACE`]; later members get `{NAMESPACE}{index}`.
pub fn member_namespace(index: usize) -> String {
    if index == 0 {
        NAMESPACE.to_string()
    } else {
        format!("{NAMESPACE}{index}")
    }
}

/// One observed cross-member store touch: during `actor`'s post-step, an
/// object in another member's namespace was created, modified, or deleted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterferenceEvent {
    /// Simulated time of the touch.
    pub time: u64,
    /// Operator name of the acting member.
    pub actor: String,
    /// Namespace the acting member owns.
    pub actor_namespace: String,
    /// Namespace of the object touched (another member's).
    pub victim_namespace: String,
    /// The object touched, as `Kind/namespace/name`.
    pub key: String,
    /// `true` when the touch deleted the object.
    pub deleted: bool,
}

impl InterferenceEvent {
    /// Transcript rendering.
    pub fn render(&self) -> String {
        let verb = if self.deleted { "deleted" } else { "wrote" };
        format!(
            "t={} {} ({}) {} {}",
            self.time, self.actor, self.actor_namespace, verb, self.key
        )
    }
}

/// A resumable snapshot of a whole composition: one per-member checkpoint
/// (each capturing the shared cluster copy-on-write) plus the interference
/// log. See [`Composition::checkpoint`].
#[derive(Debug, Clone)]
pub struct CompositionCheckpoint {
    members: Vec<InstanceCheckpoint>,
    interference: Vec<InterferenceEvent>,
}

impl CompositionCheckpoint {
    /// Simulated time at which the checkpoint was taken.
    pub fn time(&self) -> u64 {
        self.members[0].time()
    }

    /// Number of member instances captured.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Copy-on-write sharing accounting summed over every member
    /// checkpoint: objects shared with other snapshots versus uniquely
    /// owned (see [`InstanceCheckpoint::sharing_stats`]).
    pub fn sharing_stats(&self) -> (usize, usize) {
        let mut shared = 0;
        let mut owned = 0;
        for m in &self.members {
            let (s, o) = m.sharing_stats();
            shared += s;
            owned += o;
        }
        (shared, owned)
    }
}

/// An ordered set of operator instances sharing one simulated cluster.
///
/// The shared cluster lives here; each member [`Instance`] holds a cheap
/// placeholder that is swapped with the shared cluster for the duration of
/// that member's operations, so all of the single-operator harness code
/// (reconcile bracketing, crash points, health reflection) runs unchanged.
pub struct Composition {
    cluster: SimCluster,
    members: Vec<Instance>,
    interference: Vec<InterferenceEvent>,
}

fn placeholder_cluster() -> SimCluster {
    SimCluster::new(ClusterConfig::default())
}

impl Composition {
    /// Deploys `operators` in order into one shared cluster: the first
    /// member deploys and converges alone (exactly like a single-operator
    /// campaign), then each later member joins in `{NAMESPACE}{i}` and the
    /// whole composition converges together.
    pub fn deploy(
        operators: Vec<Box<dyn Operator>>,
        bugs: BugToggles,
        platform: PlatformBugs,
    ) -> Result<Composition, ApiError> {
        Self::deploy_on(operators, bugs, platform, None)
    }

    /// Like [`Composition::deploy`], but the shared cluster is built from a
    /// generated node topology (see [`Instance::deploy_on`]).
    pub fn deploy_on(
        operators: Vec<Box<dyn Operator>>,
        bugs: BugToggles,
        platform: PlatformBugs,
        topology: Option<simkube::NodeTopology>,
    ) -> Result<Composition, ApiError> {
        assert!(
            !operators.is_empty(),
            "composition needs at least one operator"
        );
        let mut ops = operators.into_iter();
        let first = Instance::deploy_on(
            ops.next().expect("non-empty"),
            bugs.clone(),
            platform,
            topology,
        )?;
        let mut members = vec![first];
        let mut cluster = mem::replace(&mut members[0].cluster, placeholder_cluster());
        for (i, op) in ops.enumerate() {
            let namespace = member_namespace(i + 1);
            let joined = Instance::deploy_into(op, bugs.clone(), cluster, &namespace)?;
            members.push(joined);
            cluster = mem::replace(
                &mut members.last_mut().expect("just pushed").cluster,
                placeholder_cluster(),
            );
        }
        let mut composition = Composition {
            cluster,
            members,
            interference: Vec::new(),
        };
        if composition.members.len() > 1 {
            composition.converge(CONVERGE_RESET, CONVERGE_MAX);
        }
        Ok(composition)
    }

    /// Rebuilds a live composition from a checkpoint with freshly
    /// constructed operators, one per member, in member order.
    pub fn from_checkpoint(
        operators: Vec<Box<dyn Operator>>,
        bugs: &BugToggles,
        cp: &CompositionCheckpoint,
    ) -> Composition {
        assert_eq!(
            operators.len(),
            cp.members.len(),
            "one operator per checkpointed member"
        );
        let mut members: Vec<Instance> = operators
            .into_iter()
            .zip(&cp.members)
            .map(|(op, mcp)| Instance::from_checkpoint(op, bugs.clone(), mcp))
            .collect();
        let cluster = mem::replace(&mut members[0].cluster, placeholder_cluster());
        Composition {
            cluster,
            members,
            interference: cp.interference.clone(),
        }
    }

    /// Takes a copy-on-write checkpoint of every member plus the
    /// interference log. Each member checkpoint captures the shared
    /// cluster (structural sharing makes the per-member copies cheap).
    pub fn checkpoint(&mut self) -> CompositionCheckpoint {
        let members = (0..self.members.len())
            .map(|i| self.with_member(i, |m| m.checkpoint()))
            .collect();
        CompositionCheckpoint {
            members,
            interference: self.interference.clone(),
        }
    }

    /// Runs `f` on member `index` with the shared cluster swapped in.
    ///
    /// This is the only correct way to read a member's cluster-derived
    /// state (`cr_spec`, snapshots, pod failures): while parked, members
    /// hold a placeholder cluster and those accessors see nothing. Plain
    /// struct fields (`last_health`, `namespace`) stay valid while parked.
    pub fn with_member<R>(&mut self, index: usize, f: impl FnOnce(&mut Instance) -> R) -> R {
        mem::swap(&mut self.cluster, &mut self.members[index].cluster);
        let result = f(&mut self.members[index]);
        mem::swap(&mut self.cluster, &mut self.members[index].cluster);
        result
    }

    /// The member instances, in deployment order. Note that members hold
    /// placeholder clusters while parked; read shared-cluster state via
    /// [`Composition::cluster`].
    pub fn members(&self) -> &[Instance] {
        &self.members
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The shared cluster.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.cluster.now()
    }

    /// Cross-member touches observed so far.
    pub fn interference(&self) -> &[InterferenceEvent] {
        &self.interference
    }

    /// Drains the interference log (campaigns scope it per trial).
    pub fn drain_interference(&mut self) -> Vec<InterferenceEvent> {
        mem::take(&mut self.interference)
    }

    /// Submits a new desired-state declaration to member `index`.
    pub fn submit(&mut self, index: usize, spec: Value) -> Result<(), ApiError> {
        self.with_member(index, |m| m.submit(spec))
    }

    /// Advances the world one simulated second: one shared cluster step,
    /// then every member's post-step in order, recording any
    /// cross-namespace touches each member makes.
    pub fn tick(&mut self) {
        self.cluster.step();
        for i in 0..self.members.len() {
            let before = self.cluster.api().store().revision();
            self.with_member(i, |m| m.post_step());
            self.record_interference(i, before);
        }
    }

    fn record_interference(&mut self, actor: usize, after_revision: u64) {
        let actor_ns = self.members[actor].namespace.clone();
        let member_namespaces: Vec<String> =
            self.members.iter().map(|m| m.namespace.clone()).collect();
        let mut hits = Vec::new();
        for ev in self.cluster.api().store().events_since(after_revision) {
            let ns = ev.key.namespace.as_str();
            if ns == actor_ns || ns.is_empty() {
                continue;
            }
            if !member_namespaces.iter().any(|m| m == ns) {
                continue;
            }
            hits.push(InterferenceEvent {
                time: ev.time,
                actor: self.members[actor].operator().name().to_string(),
                actor_namespace: actor_ns.clone(),
                victim_namespace: ns.to_string(),
                key: format!("{}/{}/{}", ev.key.kind.name(), ns, ev.key.name),
                deleted: ev.kind == WatchEventKind::Deleted,
            });
        }
        self.interference.extend(hits);
    }

    /// Runs [`Composition::tick`] until no state event occurs for
    /// `reset_timeout` seconds or `max_seconds` pass — the same
    /// convergence [`simkube::wait`] as [`Instance::converge`], over all
    /// members at once.
    pub fn converge(&mut self, reset_timeout: u64, max_seconds: u64) -> bool {
        let cursor = WaitCursor::new(&self.cluster);
        simkube::wait(self, cursor, Some(reset_timeout), max_seconds)
    }
}

impl Converge for Composition {
    type Fingerprint = (simkube::ClusterFingerprint, Vec<InstanceFingerprint>, usize);

    fn tick(&mut self, _: &WaitCursor) {
        Composition::tick(self);
    }

    /// The shared cluster's quiescence fingerprint, every member's harness
    /// state, and the interference count.
    fn fingerprint(&self) -> Self::Fingerprint {
        (
            self.cluster.quiescence_fingerprint(),
            self.members.iter().map(Converge::fingerprint).collect(),
            self.interference.len(),
        )
    }

    fn cluster_mut(&mut self) -> &mut SimCluster {
        &mut self.cluster
    }

    /// The earliest restart over all members.
    fn restart_at(&self) -> Option<u64> {
        self.members.iter().filter_map(Converge::restart_at).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::operator_by_name;

    fn compose(names: &[&str], bugs: BugToggles) -> Composition {
        Composition::deploy(
            names.iter().map(|n| operator_by_name(n)).collect(),
            bugs,
            simkube::PlatformBugs::none(),
        )
        .expect("deploys")
    }

    #[test]
    fn two_members_deploy_into_separate_namespaces() {
        let comp = compose(&["ZooKeeperOp", "RabbitMQOp"], BugToggles::all_injected());
        assert_eq!(comp.member_count(), 2);
        assert_eq!(comp.members()[0].namespace, "acto");
        assert_eq!(comp.members()[1].namespace, "acto1");
        // Both members converged to healthy systems on the one cluster.
        for member in comp.members() {
            assert!(
                member.last_health.is_healthy(),
                "{} unhealthy: {:?}",
                member.operator().name(),
                member.last_health
            );
        }
        assert!(!comp.cluster().pod_summaries("acto").is_empty());
        assert!(!comp.cluster().pod_summaries("acto1").is_empty());
        assert!(comp.interference().is_empty());
    }

    #[test]
    fn members_reconverge_independently() {
        let mut comp = compose(&["ZooKeeperOp", "RabbitMQOp"], BugToggles::all_injected());
        let pods_before = comp.cluster().pod_summaries("acto1").len();
        // Scale member 1 up by one replica; member 0 must be untouched.
        let mut spec = comp.members()[1].cr_spec().clone();
        let replicas = spec.get("replicas").and_then(Value::as_i64).unwrap_or(3);
        spec.set_path(
            &"replicas".parse().expect("path"),
            Value::from(replicas + 1),
        );
        let snapshot_before = comp.cluster().pod_summaries("acto");
        comp.submit(1, spec).expect("valid declaration");
        assert!(comp.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert_eq!(comp.cluster().pod_summaries("acto1").len(), pods_before + 1);
        assert_eq!(comp.cluster().pod_summaries("acto"), snapshot_before);
        assert!(comp.interference().is_empty());
    }

    #[test]
    fn checkpoint_restores_all_members() {
        let mut comp = compose(&["ZooKeeperOp", "RabbitMQOp"], BugToggles::all_injected());
        let cp = comp.checkpoint();
        assert_eq!(cp.member_count(), 2);
        let mut restored = Composition::from_checkpoint(
            vec![
                operator_by_name("ZooKeeperOp"),
                operator_by_name("RabbitMQOp"),
            ],
            &BugToggles::all_injected(),
            &cp,
        );
        assert_eq!(restored.now(), comp.now());
        // Both futures tick identically.
        for c in [&mut comp, &mut restored] {
            c.converge(CONVERGE_RESET, 30);
        }
        assert_eq!(comp.now(), restored.now());
        assert_eq!(
            comp.cluster().api().store().revision(),
            restored.cluster().api().store().revision()
        );
    }

    #[test]
    fn seeded_cross_operator_gc_interferes() {
        let mut bugs = BugToggles::all_injected();
        bugs.seed(crate::bugs::SEEDED_CROSS_OPERATOR_GC);
        // TiDB first (it owns the conventional namespace and GCs raw), a
        // victim second.
        let comp = compose(&["TiDBOp", "ZooKeeperOp"], bugs);
        let deletions: Vec<_> = comp
            .interference()
            .iter()
            .filter(|e| e.deleted && e.actor == "TiDBOp")
            .collect();
        assert!(
            !deletions.is_empty(),
            "seeded GC should delete the neighbour's config"
        );
        assert!(deletions
            .iter()
            .all(|e| e.victim_namespace == "acto1" && e.key.contains("-config")));
    }
}
