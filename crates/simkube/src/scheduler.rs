//! The pod scheduler.
//!
//! Assigns pending pods to nodes, honouring resource capacity, node
//! selectors, required node affinity, taints/tolerations, and pod
//! (anti-)affinity within the hostname topology. Misoperation scenarios in
//! the paper (unsatisfiable affinity rules, unavailable resources) manifest
//! here as permanently `Pending` pods with an `Unschedulable` reason.
//!
//! Two implementations share one placement policy:
//!
//! - [`schedule`] is the exhaustive baseline: every pass re-scans the whole
//!   store to rebuild node usage. Simple, obviously correct, O(total pods)
//!   per pass — the ticked engine uses it, and the indexed path is checked
//!   against it (debug asserts + proptests).
//! - [`schedule_indexed`] runs the same policy over a [`SchedIndex`] that is
//!   kept in sync with the store via the watch-event log, so a pass costs
//!   O(pending + events since last pass), not O(total pods). The
//!   event-driven engine uses it; this is what makes 100k-pod clusters
//!   tractable.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::objects::StoredObject;
use crate::objects::{Kind, ObjectData, Pod, PodPhase};
use crate::pmap::PMap;
use crate::quantity::Quantity;
use crate::resources::{Taint, TaintEffect};
use crate::store::{ObjKey, ObjectStore};

/// The outcome of one scheduling pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Pods bound to nodes this pass, with their node names.
    pub bound: Vec<(String, String)>,
    /// Pods that could not be placed, with the reasons.
    pub unschedulable: Vec<(String, String)>,
}

/// Runs one scheduling pass over all pending pods in the store.
pub fn schedule(store: &mut ObjectStore, time: u64) -> ScheduleOutcome {
    let mut outcome = ScheduleOutcome::default();
    // Snapshot node state.
    let nodes: Vec<(String, crate::objects::Node)> = store
        .list_all(&Kind::Node)
        .into_iter()
        .filter_map(|o| match &o.data {
            ObjectData::Node(n) => Some((o.meta.name.clone(), n.clone())),
            _ => None,
        })
        .collect();
    // Snapshot current assignments: node -> (used cpu, used memory) and
    // node -> pod labels (for pod affinity).
    let mut used: BTreeMap<String, (Quantity, Quantity)> = BTreeMap::new();
    let mut node_pod_labels: BTreeMap<String, Vec<BTreeMap<String, String>>> = BTreeMap::new();
    let mut pending: Vec<ObjKey> = Vec::new();
    for (key, obj) in store.iter() {
        if let ObjectData::Pod(pod) = &obj.data {
            match &pod.node_name {
                Some(node) if pod.phase != PodPhase::Succeeded && pod.phase != PodPhase::Failed => {
                    let entry = used
                        .entry(node.clone())
                        .or_insert((Quantity::zero(), Quantity::zero()));
                    entry.0 = entry.0 + pod.total_request("cpu");
                    entry.1 = entry.1 + pod.total_request("memory");
                    node_pod_labels
                        .entry(node.clone())
                        .or_default()
                        .push(obj.meta.labels.clone());
                }
                None if pod.phase == PodPhase::Pending => pending.push(key.clone()),
                _ => {}
            }
        }
    }
    // Deterministic order: by key.
    pending.sort();
    for key in pending {
        let (pod, labels) = match store.get(&key) {
            Some(obj) => match &obj.data {
                ObjectData::Pod(p) => (p.clone(), obj.meta.labels.clone()),
                _ => continue,
            },
            None => continue,
        };
        // Memoized per pod: `total_request` re-sums container requests, so
        // compute it once per pass instead of once per candidate node.
        let need_cpu = pod.total_request("cpu");
        let need_mem = pod.total_request("memory");
        match place(&pod, need_cpu, need_mem, &nodes, &used, &node_pod_labels) {
            Ok(node_name) => {
                let entry = used
                    .entry(node_name.clone())
                    .or_insert((Quantity::zero(), Quantity::zero()));
                entry.0 = entry.0 + need_cpu;
                entry.1 = entry.1 + need_mem;
                node_pod_labels
                    .entry(node_name.clone())
                    .or_default()
                    .push(labels);
                store
                    .update_with(&key, time, |obj| {
                        if let ObjectData::Pod(p) = &mut obj.data {
                            p.node_name = Some(node_name.clone());
                            p.reason = String::new();
                            p.phase_since = time;
                        }
                    })
                    .expect("pod exists");
                outcome.bound.push((key.name.clone(), node_name));
            }
            Err(reason) => {
                store
                    .update_with(&key, time, |obj| {
                        if let ObjectData::Pod(p) = &mut obj.data {
                            if p.reason != "Unschedulable" {
                                p.reason = "Unschedulable".to_string();
                            }
                        }
                    })
                    .expect("pod exists");
                outcome.unschedulable.push((key.name.clone(), reason));
            }
        }
    }
    outcome
}

/// Attempts to find a node for `pod`. Returns the node name or the reason
/// no node fits.
fn place(
    pod: &Pod,
    need_cpu: Quantity,
    need_mem: Quantity,
    nodes: &[(String, crate::objects::Node)],
    used: &BTreeMap<String, (Quantity, Quantity)>,
    node_pod_labels: &BTreeMap<String, Vec<BTreeMap<String, String>>>,
) -> Result<String, String> {
    let mut reasons: Vec<String> = Vec::new();
    let mut candidates: Vec<(&String, Quantity)> = Vec::new();
    for (name, node) in nodes {
        if !node.ready {
            reasons.push(format!("{name}: not ready"));
            continue;
        }
        // Node selector.
        if !pod
            .node_selector
            .iter()
            .all(|(k, v)| node.labels.get(k) == Some(v))
        {
            reasons.push(format!("{name}: node selector mismatch"));
            continue;
        }
        // Required node affinity.
        if !pod
            .affinity
            .node_required
            .iter()
            .all(|t| node.labels.get(&t.key) == Some(&t.value))
        {
            reasons.push(format!("{name}: node affinity unsatisfied"));
            continue;
        }
        // Taints.
        let intolerable = node.taints.iter().any(|taint| {
            matches!(
                taint.effect,
                TaintEffect::NoSchedule | TaintEffect::PreferNoSchedule | TaintEffect::NoExecute
            ) && !pod.tolerations.iter().any(|tol| tol.tolerates(taint))
        });
        if intolerable {
            reasons.push(format!("{name}: untolerated taint"));
            continue;
        }
        // Resources.
        let (used_cpu, used_mem) = used
            .get(name)
            .copied()
            .unwrap_or((Quantity::zero(), Quantity::zero()));
        let cap_cpu = node
            .capacity
            .get("cpu")
            .copied()
            .unwrap_or_else(Quantity::zero);
        let cap_mem = node
            .capacity
            .get("memory")
            .copied()
            .unwrap_or_else(Quantity::zero);
        if used_cpu + need_cpu > cap_cpu || used_mem + need_mem > cap_mem {
            reasons.push(format!("{name}: insufficient resources"));
            continue;
        }
        let empty = Vec::new();
        let labels_here = node_pod_labels.get(name).unwrap_or(&empty);
        // Pod anti-affinity: no pod on this node may match any term.
        let anti_violated = pod.affinity.pod_anti_affinity.iter().any(|term| {
            labels_here
                .iter()
                .any(|l| l.get(&term.key) == Some(&term.value))
        });
        if anti_violated {
            reasons.push(format!("{name}: anti-affinity conflict"));
            continue;
        }
        // Pod affinity: every term must match some pod on this node.
        let affinity_unmet = pod.affinity.pod_affinity.iter().any(|term| {
            !labels_here
                .iter()
                .any(|l| l.get(&term.key) == Some(&term.value))
        });
        if affinity_unmet {
            reasons.push(format!("{name}: pod affinity unmet"));
            continue;
        }
        candidates.push((name, cap_cpu.saturating_sub(&(used_cpu + need_cpu))));
    }
    // Most free CPU wins; ties break by name for determinism.
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    match candidates.first() {
        Some((name, _)) => Ok((*name).clone()),
        None => Err(if reasons.is_empty() {
            "no nodes registered".to_string()
        } else {
            reasons.join(", ")
        }),
    }
}

/// What a resident pod contributes to its node: resource usage plus labels
/// for (anti-)affinity. Cached per pod so unbinding can subtract exactly
/// what binding added, without re-reading a since-deleted object.
#[derive(Debug, Clone, PartialEq)]
struct PodContrib {
    node: String,
    cpu: Quantity,
    mem: Quantity,
    labels: BTreeMap<String, String>,
}

/// Per-node scheduling state maintained incrementally by [`SchedIndex`].
#[derive(Debug, Clone, PartialEq)]
struct NodeSlot {
    ready: bool,
    labels: BTreeMap<String, String>,
    taints: Vec<Taint>,
    cap_cpu: Quantity,
    cap_mem: Quantity,
    used_cpu: Quantity,
    used_mem: Quantity,
    /// label key -> value -> number of resident pods carrying it. A count
    /// above zero is exactly the baseline's "some pod on this node has this
    /// label", which is all the (anti-)affinity checks ever ask.
    pod_label_counts: BTreeMap<String, BTreeMap<String, u32>>,
}

impl NodeSlot {
    fn fresh(node: &crate::objects::Node) -> NodeSlot {
        NodeSlot {
            ready: node.ready,
            labels: node.labels.clone(),
            taints: node.taints.clone(),
            cap_cpu: node
                .capacity
                .get("cpu")
                .copied()
                .unwrap_or_else(Quantity::zero),
            cap_mem: node
                .capacity
                .get("memory")
                .copied()
                .unwrap_or_else(Quantity::zero),
            used_cpu: Quantity::zero(),
            used_mem: Quantity::zero(),
            pod_label_counts: BTreeMap::new(),
        }
    }

    /// Free CPU before the incoming pod's own request. The baseline ranks
    /// feasible nodes by `cap - (used + need)`; `need` is constant across a
    /// pod's candidates and feasibility rules out saturation, so ranking by
    /// `cap - used` (with the same name tie-break) picks the same winner.
    fn residual(&self) -> Quantity {
        self.cap_cpu.saturating_sub(&self.used_cpu)
    }

    fn has_pod_label(&self, key: &str, value: &str) -> bool {
        self.pod_label_counts
            .get(key)
            .and_then(|vals| vals.get(value))
            .is_some_and(|count| *count > 0)
    }
}

/// Incrementally-maintained scheduling state: the pending-pod set, per-node
/// residual capacity and resident-pod labels, a residual-ordered node ranking,
/// and a node-label index for selector/affinity prefiltering.
///
/// The index is a pure function of the store content it is synced to:
/// [`SchedIndex::sync`] replays the watch-event log from the last synced
/// revision (or rebuilds from a full scan when compaction swallowed the gap),
/// so a maintained index and a freshly rebuilt one are always identical.
/// That property is what lets checkpoints simply clone the index (all state
/// is `PMap`-backed, so a clone is O(1)) and lets the ticked engine ignore
/// it entirely.
#[derive(Debug, Clone, Default)]
pub struct SchedIndex {
    /// Store revision this index reflects.
    synced: u64,
    /// Pods with `phase == Pending` and no node, in scheduling order.
    pending: PMap<ObjKey, ()>,
    /// What each resident pod currently contributes to its node.
    contrib: PMap<ObjKey, PodContrib>,
    /// Per-node state, keyed by node name.
    nodes: PMap<String, NodeSlot>,
    /// Nodes ordered best-first: ascending `(Reverse(residual), name)` is
    /// residual-descending with the baseline's name tie-break, so the first
    /// feasible node in iteration order is the baseline's winner.
    by_residual: PMap<(Reverse<Quantity>, String), ()>,
    /// `(label key, label value, node name)` — candidate prefilter for pods
    /// with a node selector or required node affinity.
    node_labels: PMap<(String, String, String), ()>,
    /// Number of nodes carrying at least one taint; when zero the
    /// per-candidate toleration check is skipped wholesale.
    tainted_nodes: u32,
}

impl SchedIndex {
    /// Brings the index up to date with `store` by replaying watch events
    /// recorded after the last sync. Falls back to a full rebuild when the
    /// event log has been compacted past our cursor. Replays are keyed off
    /// the object's *current* state, so re-processing a key is idempotent.
    pub fn sync(&mut self, store: &ObjectStore) {
        if store.revision() == self.synced {
            return;
        }
        if store.events_floor() > self.synced {
            self.rebuild(store);
            return;
        }
        let events = store.events_since(self.synced);
        // The refresh reads current state, so each key needs exactly one
        // refresh no matter how often it recurs in the batch; a reverse
        // scan with a seen-set keeps the dedup O(batch log batch).
        let mut seen: std::collections::BTreeSet<&ObjKey> = std::collections::BTreeSet::new();
        for event in events.iter().rev() {
            let key = &event.key;
            if !matches!(key.kind, Kind::Pod | Kind::Node) {
                continue;
            }
            if !seen.insert(key) {
                continue;
            }
            // The dedup keeps only each key's last event, whose payload is
            // exactly the object's current state — no store descent needed.
            match key.kind {
                Kind::Pod => self.refresh_pod(event.obj.as_deref(), key),
                Kind::Node => self.refresh_node(event.obj.as_deref(), &key.name),
                _ => {}
            }
        }
        self.synced = store.revision();
    }

    fn rebuild(&mut self, store: &ObjectStore) {
        *self = SchedIndex::default();
        for obj in store.list_all(&Kind::Node) {
            if let ObjectData::Node(n) = &obj.data {
                self.install_node(&obj.meta.name, NodeSlot::fresh(n));
            }
        }
        for (key, obj) in store.iter() {
            if let ObjectData::Pod(pod) = &obj.data {
                if pod.phase == PodPhase::Pending && pod.node_name.is_none() {
                    self.pending.insert(key.clone(), ());
                }
                if let Some(c) = Self::contribution(pod, &obj.meta.labels) {
                    self.add_contrib(key.clone(), c);
                }
            }
        }
        self.synced = store.revision();
    }

    /// What `pod` contributes to a node, if it is resident on one.
    fn contribution(pod: &Pod, labels: &BTreeMap<String, String>) -> Option<PodContrib> {
        match &pod.node_name {
            Some(node) if pod.phase != PodPhase::Succeeded && pod.phase != PodPhase::Failed => {
                Some(PodContrib {
                    node: node.clone(),
                    cpu: pod.total_request("cpu"),
                    mem: pod.total_request("memory"),
                    labels: labels.clone(),
                })
            }
            _ => None,
        }
    }

    /// Re-derives one pod's index state from its current object
    /// (`None` = deleted).
    fn refresh_pod(&mut self, current: Option<&StoredObject>, key: &ObjKey) {
        let (pending_now, contrib_now) = match current {
            Some(obj) => match &obj.data {
                ObjectData::Pod(pod) => (
                    pod.phase == PodPhase::Pending && pod.node_name.is_none(),
                    Self::contribution(pod, &obj.meta.labels),
                ),
                _ => (false, None),
            },
            None => (false, None),
        };
        if pending_now {
            self.pending.insert(key.clone(), ());
        } else {
            self.pending.remove(key);
        }
        let contrib_before = self.contrib.get(key).cloned();
        if contrib_before == contrib_now {
            return;
        }
        if let Some(old) = contrib_before {
            self.contrib.remove(key);
            self.apply_contrib(&old, false);
        }
        if let Some(new) = contrib_now {
            self.add_contrib(key.clone(), new);
        }
    }

    /// Re-derives one node's index state from the store. Usage and resident
    /// labels are owned by the pod contributions, so a modified node only
    /// refreshes its own fields; a (re)created node re-accumulates existing
    /// contributions pointing at its name.
    fn refresh_node(&mut self, current: Option<&StoredObject>, name: &str) {
        let node_key = ObjKey::new(Kind::Node, "", name);
        let current = match current {
            Some(obj) => match &obj.data {
                ObjectData::Node(n) => Some(n),
                _ => None,
            },
            None => None,
        };
        let previous = self.nodes.get(&node_key.name).cloned();
        match (previous, current) {
            (None, None) => {}
            (Some(old), None) => {
                self.by_residual
                    .remove(&(Reverse(old.residual()), name.to_string()));
                for (k, v) in &old.labels {
                    self.node_labels
                        .remove(&(k.clone(), v.clone(), name.to_string()));
                }
                if !old.taints.is_empty() {
                    self.tainted_nodes -= 1;
                }
                self.nodes.remove(&node_key.name);
            }
            (None, Some(node)) => {
                let mut slot = NodeSlot::fresh(node);
                for (_, c) in self.contrib.iter() {
                    if c.node == name {
                        slot.used_cpu = slot.used_cpu + c.cpu;
                        slot.used_mem = slot.used_mem + c.mem;
                        for (k, v) in &c.labels {
                            *slot
                                .pod_label_counts
                                .entry(k.clone())
                                .or_default()
                                .entry(v.clone())
                                .or_insert(0) += 1;
                        }
                    }
                }
                self.install_node(name, slot);
            }
            (Some(old), Some(node)) => {
                let mut slot = old.clone();
                slot.ready = node.ready;
                slot.labels = node.labels.clone();
                slot.taints = node.taints.clone();
                slot.cap_cpu = node
                    .capacity
                    .get("cpu")
                    .copied()
                    .unwrap_or_else(Quantity::zero);
                slot.cap_mem = node
                    .capacity
                    .get("memory")
                    .copied()
                    .unwrap_or_else(Quantity::zero);
                if slot == old {
                    return;
                }
                self.by_residual
                    .remove(&(Reverse(old.residual()), name.to_string()));
                self.by_residual
                    .insert((Reverse(slot.residual()), name.to_string()), ());
                for (k, v) in &old.labels {
                    if slot.labels.get(k) != Some(v) {
                        self.node_labels
                            .remove(&(k.clone(), v.clone(), name.to_string()));
                    }
                }
                for (k, v) in &slot.labels {
                    if old.labels.get(k) != Some(v) {
                        self.node_labels
                            .insert((k.clone(), v.clone(), name.to_string()), ());
                    }
                }
                match (old.taints.is_empty(), slot.taints.is_empty()) {
                    (true, false) => self.tainted_nodes += 1,
                    (false, true) => self.tainted_nodes -= 1,
                    _ => {}
                }
                self.nodes.insert(name.to_string(), slot);
            }
        }
    }

    /// Registers a brand-new node slot in every index.
    fn install_node(&mut self, name: &str, slot: NodeSlot) {
        self.by_residual
            .insert((Reverse(slot.residual()), name.to_string()), ());
        for (k, v) in &slot.labels {
            self.node_labels
                .insert((k.clone(), v.clone(), name.to_string()), ());
        }
        if !slot.taints.is_empty() {
            self.tainted_nodes += 1;
        }
        self.nodes.insert(name.to_string(), slot);
    }

    fn add_contrib(&mut self, key: ObjKey, c: PodContrib) {
        self.apply_contrib(&c, true);
        self.contrib.insert(key, c);
    }

    /// Adds or subtracts one pod's contribution from its node slot,
    /// re-ranking the node in the residual order if its free CPU moved.
    fn apply_contrib(&mut self, c: &PodContrib, add: bool) {
        let (old_res, new_res) = {
            let Some(slot) = self.nodes.get_mut(&c.node) else {
                // Contribution to an unregistered node: usage is tracked
                // only through the contrib cache until the node appears.
                return;
            };
            let before = slot.residual();
            if add {
                slot.used_cpu = slot.used_cpu + c.cpu;
                slot.used_mem = slot.used_mem + c.mem;
            } else {
                slot.used_cpu = slot.used_cpu - c.cpu;
                slot.used_mem = slot.used_mem - c.mem;
            }
            for (k, v) in &c.labels {
                if add {
                    *slot
                        .pod_label_counts
                        .entry(k.clone())
                        .or_default()
                        .entry(v.clone())
                        .or_insert(0) += 1;
                } else if let Some(vals) = slot.pod_label_counts.get_mut(k) {
                    if let Some(count) = vals.get_mut(v) {
                        *count -= 1;
                        if *count == 0 {
                            vals.remove(v);
                        }
                    }
                    if vals.is_empty() {
                        slot.pod_label_counts.remove(k);
                    }
                }
            }
            (before, slot.residual())
        };
        if old_res != new_res {
            self.by_residual.remove(&(Reverse(old_res), c.node.clone()));
            self.by_residual
                .insert((Reverse(new_res), c.node.clone()), ());
        }
    }

    /// Same placement policy as the baseline [`place`], answered from the
    /// indexes: either a residual-ordered scan (first feasible node is the
    /// winner) or, for selector/affinity-constrained pods, a scan of only
    /// the nodes carrying the required label.
    fn place_indexed(
        &self,
        pod: &Pod,
        need_cpu: Quantity,
        need_mem: Quantity,
    ) -> Result<String, String> {
        if self.nodes.is_empty() {
            return Err("no nodes registered".to_string());
        }
        let prefilter = pod
            .node_selector
            .iter()
            .next()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .or_else(|| {
                pod.affinity
                    .node_required
                    .first()
                    .map(|t| (t.key.as_str(), t.value.as_str()))
            });
        let winner: Option<&String> = match prefilter {
            Some((lk, lv)) => {
                // Candidates must carry this label; rank them by the same
                // (residual desc, name asc) order as the full scan. The max
                // is order-independent, so set iteration order is free.
                let mut best: Option<(Quantity, &String)> = None;
                for ((k, v, name), _) in self.node_labels.range_from_by(|key| {
                    (key.0.as_str(), key.1.as_str(), key.2.as_str()).cmp(&(lk, lv, ""))
                }) {
                    if k != lk || v != lv {
                        break;
                    }
                    let slot = self.nodes.get(name).expect("label index points at slot");
                    if self.slot_reject(pod, need_cpu, need_mem, slot).is_some() {
                        continue;
                    }
                    let res = slot.residual();
                    let better = match &best {
                        None => true,
                        Some((best_res, best_name)) => {
                            res > *best_res || (res == *best_res && name < *best_name)
                        }
                    };
                    if better {
                        best = Some((res, name));
                    }
                }
                best.map(|(_, name)| name)
            }
            None => {
                let mut found = None;
                for ((_, name), _) in self.by_residual.iter() {
                    let slot = self.nodes.get(name).expect("residual index points at slot");
                    if self.slot_reject(pod, need_cpu, need_mem, slot).is_none() {
                        found = Some(name);
                        break;
                    }
                }
                found
            }
        };
        match winner {
            Some(name) => Ok(name.clone()),
            None => Err(self.unschedulable_reasons(pod, need_cpu, need_mem)),
        }
    }

    /// First baseline filter that rejects this node, or `None` if feasible.
    /// Check order matches [`place`] so per-node reasons are byte-identical.
    fn slot_reject(
        &self,
        pod: &Pod,
        need_cpu: Quantity,
        need_mem: Quantity,
        slot: &NodeSlot,
    ) -> Option<&'static str> {
        if !slot.ready {
            return Some("not ready");
        }
        if !pod
            .node_selector
            .iter()
            .all(|(k, v)| slot.labels.get(k) == Some(v))
        {
            return Some("node selector mismatch");
        }
        if !pod
            .affinity
            .node_required
            .iter()
            .all(|t| slot.labels.get(&t.key) == Some(&t.value))
        {
            return Some("node affinity unsatisfied");
        }
        if self.tainted_nodes > 0 {
            let intolerable = slot.taints.iter().any(|taint| {
                matches!(
                    taint.effect,
                    TaintEffect::NoSchedule
                        | TaintEffect::PreferNoSchedule
                        | TaintEffect::NoExecute
                ) && !pod.tolerations.iter().any(|tol| tol.tolerates(taint))
            });
            if intolerable {
                return Some("untolerated taint");
            }
        }
        if slot.used_cpu + need_cpu > slot.cap_cpu || slot.used_mem + need_mem > slot.cap_mem {
            return Some("insufficient resources");
        }
        if pod
            .affinity
            .pod_anti_affinity
            .iter()
            .any(|t| slot.has_pod_label(&t.key, &t.value))
        {
            return Some("anti-affinity conflict");
        }
        if pod
            .affinity
            .pod_affinity
            .iter()
            .any(|t| !slot.has_pod_label(&t.key, &t.value))
        {
            return Some("pod affinity unmet");
        }
        None
    }

    /// The baseline's unschedulable message: per-node reasons joined in
    /// node-name order. Only paid for pods that failed to place.
    fn unschedulable_reasons(&self, pod: &Pod, need_cpu: Quantity, need_mem: Quantity) -> String {
        let mut reasons: Vec<String> = Vec::new();
        for (name, slot) in self.nodes.iter() {
            if let Some(why) = self.slot_reject(pod, need_cpu, need_mem, slot) {
                reasons.push(format!("{name}: {why}"));
            }
        }
        if reasons.is_empty() {
            "no nodes registered".to_string()
        } else {
            reasons.join(", ")
        }
    }
}

/// Runs one scheduling pass using the maintained [`SchedIndex`]: identical
/// outcomes and store writes to [`schedule`], at O(pending + events since
/// the last pass) instead of O(total pods). In debug builds every pass is
/// cross-checked against the exhaustive baseline on a pre-pass snapshot.
pub fn schedule_indexed(
    store: &mut ObjectStore,
    time: u64,
    index: &mut SchedIndex,
) -> ScheduleOutcome {
    index.sync(store);
    #[cfg(debug_assertions)]
    let baseline_input = store.snapshot();
    let mut outcome = ScheduleOutcome::default();
    let pending: Vec<ObjKey> = index.pending.keys().cloned().collect();
    for key in pending {
        // A shared handle instead of a deep clone: cloning 20k pods per
        // deploy-scale pass (containers, resource maps) would dominate the
        // pass, and the handle releases the store borrow for the writes
        // below.
        let handle = match store.get_shared(&key) {
            Some(obj) => std::sync::Arc::clone(obj),
            None => continue,
        };
        let ObjectData::Pod(pod) = &handle.data else {
            continue;
        };
        let labels = handle.meta.labels.clone();
        let need_cpu = pod.total_request("cpu");
        let need_mem = pod.total_request("memory");
        match index.place_indexed(pod, need_cpu, need_mem) {
            Ok(node_name) => {
                index.pending.remove(&key);
                index.add_contrib(
                    key.clone(),
                    PodContrib {
                        node: node_name.clone(),
                        cpu: need_cpu,
                        mem: need_mem,
                        labels,
                    },
                );
                store
                    .update_with(&key, time, |obj| {
                        if let ObjectData::Pod(p) = &mut obj.data {
                            p.node_name = Some(node_name.clone());
                            p.reason = String::new();
                            p.phase_since = time;
                        }
                    })
                    .expect("pod exists");
                outcome.bound.push((key.name.clone(), node_name));
            }
            Err(reason) => {
                store
                    .update_with(&key, time, |obj| {
                        if let ObjectData::Pod(p) = &mut obj.data {
                            if p.reason != "Unschedulable" {
                                p.reason = "Unschedulable".to_string();
                            }
                        }
                    })
                    .expect("pod exists");
                outcome.unschedulable.push((key.name.clone(), reason));
            }
        }
    }
    // The pass's own writes are already reflected in the index (bindings
    // update it directly; reason strings are not index state), so the
    // cursor absorbs them instead of replaying them next sync.
    index.synced = store.revision();
    #[cfg(debug_assertions)]
    {
        let mut baseline_store = baseline_input;
        let baseline = schedule(&mut baseline_store, time);
        debug_assert_eq!(
            outcome, baseline,
            "indexed scheduler diverged from exhaustive baseline"
        );
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::objects::{Container, Node};
    use crate::resources::{
        NodeAffinityTerm, PodAffinityTerm, ResourceRequirements, Taint, TaintEffect, Toleration,
        TolerationOperator,
    };

    fn add_node(store: &mut ObjectStore, name: &str, cpu: &str, mem: &str) {
        store
            .create(
                ObjectMeta::named("", name),
                ObjectData::Node(Node::with_capacity(cpu, mem)),
                0,
            )
            .unwrap();
    }

    fn add_pod(store: &mut ObjectStore, name: &str, cpu: &str, mem: &str) -> ObjKey {
        let pod = Pod {
            containers: vec![Container {
                name: "c".to_string(),
                image: "img:1".to_string(),
                resources: ResourceRequirements::new()
                    .request("cpu", cpu)
                    .request("memory", mem),
                ..Container::default()
            }],
            ..Pod::default()
        };
        store
            .create(ObjectMeta::named("ns", name), ObjectData::Pod(pod), 0)
            .unwrap()
    }

    #[test]
    fn binds_to_node_with_most_free_cpu() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "small", "2", "4Gi");
        add_node(&mut store, "big", "8", "16Gi");
        let key = add_pod(&mut store, "p", "1", "1Gi");
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.bound.len(), 1);
        let pod = store.get(&key).unwrap();
        if let ObjectData::Pod(p) = &pod.data {
            assert_eq!(p.node_name.as_deref(), Some("big"));
        }
    }

    #[test]
    fn respects_capacity_accounting_across_pods() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "n1", "2", "4Gi");
        add_pod(&mut store, "a", "1500m", "1Gi");
        add_pod(&mut store, "b", "1500m", "1Gi");
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.bound.len(), 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        assert!(outcome.unschedulable[0].1.contains("insufficient"));
    }

    #[test]
    fn node_selector_and_affinity_filter() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "plain", "4", "8Gi");
        let key = {
            let mut pod = Pod::default();
            pod.node_selector
                .insert("disk".to_string(), "ssd".to_string());
            store
                .create(ObjectMeta::named("ns", "p"), ObjectData::Pod(pod), 0)
                .unwrap()
        };
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        if let ObjectData::Pod(p) = &store.get(&key).unwrap().data {
            assert_eq!(p.reason, "Unschedulable");
        }
        // Label the node and try again.
        let node_key = ObjKey::new(Kind::Node, "", "plain");
        store
            .update_with(&node_key, 2, |o| {
                if let ObjectData::Node(n) = &mut o.data {
                    n.labels.insert("disk".to_string(), "ssd".to_string());
                }
            })
            .unwrap();
        let outcome = schedule(&mut store, 3);
        assert_eq!(outcome.bound.len(), 1);
    }

    #[test]
    fn unsatisfiable_node_affinity_is_reported() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "n1", "4", "8Gi");
        let mut pod = Pod::default();
        pod.affinity.node_required.push(NodeAffinityTerm {
            key: "zone".to_string(),
            value: "nowhere".to_string(),
        });
        store
            .create(ObjectMeta::named("ns", "p"), ObjectData::Pod(pod), 0)
            .unwrap();
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        assert!(outcome.unschedulable[0].1.contains("affinity"));
    }

    #[test]
    fn taints_block_unless_tolerated() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "t1", "4", "8Gi");
        let node_key = ObjKey::new(Kind::Node, "", "t1");
        store
            .update_with(&node_key, 0, |o| {
                if let ObjectData::Node(n) = &mut o.data {
                    n.taints.push(Taint {
                        key: "dedicated".to_string(),
                        value: "db".to_string(),
                        effect: TaintEffect::NoSchedule,
                    });
                }
            })
            .unwrap();
        add_pod(&mut store, "p", "100m", "128Mi");
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        // Tolerating pod schedules.
        let mut pod = Pod::default();
        pod.tolerations.push(Toleration {
            key: "dedicated".to_string(),
            value: "db".to_string(),
            operator: TolerationOperator::Equal,
        });
        store
            .create(ObjectMeta::named("ns", "tolerant"), ObjectData::Pod(pod), 0)
            .unwrap();
        let outcome = schedule(&mut store, 2);
        assert!(outcome.bound.iter().any(|(p, _)| p == "tolerant"));
    }

    #[test]
    fn anti_affinity_spreads_pods() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "n1", "4", "8Gi");
        add_node(&mut store, "n2", "4", "8Gi");
        for name in ["zk-0", "zk-1", "zk-2"] {
            let mut pod = Pod::default();
            pod.affinity.pod_anti_affinity.push(PodAffinityTerm {
                key: "app".to_string(),
                value: "zk".to_string(),
            });
            let meta = ObjectMeta::named("ns", name).with_label("app", "zk");
            store.create(meta, ObjectData::Pod(pod), 0).unwrap();
        }
        let outcome = schedule(&mut store, 1);
        // Two nodes, three pods with anti-affinity: one must stay pending.
        assert_eq!(outcome.bound.len(), 2);
        assert_eq!(outcome.unschedulable.len(), 1);
        assert!(outcome.unschedulable[0].1.contains("anti-affinity"));
    }

    #[test]
    fn pod_affinity_requires_co_located_match() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "n1", "4", "8Gi");
        // The dependent pod requires a pod labelled app=primary on the node.
        let mut pod = Pod::default();
        pod.affinity.pod_affinity.push(PodAffinityTerm {
            key: "app".to_string(),
            value: "primary".to_string(),
        });
        store
            .create(ObjectMeta::named("ns", "dep"), ObjectData::Pod(pod), 0)
            .unwrap();
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        // Schedule the primary first, then the dependent fits.
        let meta = ObjectMeta::named("ns", "primary").with_label("app", "primary");
        store
            .create(meta, ObjectData::Pod(Pod::default()), 0)
            .unwrap();
        let outcome = schedule(&mut store, 2);
        assert_eq!(outcome.unschedulable.len(), 1); // dep sorted before primary
        let outcome = schedule(&mut store, 3);
        assert!(outcome.bound.iter().any(|(p, _)| p == "dep"));
        let _ = outcome;
    }

    #[test]
    fn not_ready_nodes_excluded() {
        let mut store = ObjectStore::new();
        add_node(&mut store, "down", "4", "8Gi");
        let node_key = ObjKey::new(Kind::Node, "", "down");
        store
            .update_with(&node_key, 0, |o| {
                if let ObjectData::Node(n) = &mut o.data {
                    n.ready = false;
                }
            })
            .unwrap();
        add_pod(&mut store, "p", "100m", "128Mi");
        let outcome = schedule(&mut store, 1);
        assert_eq!(outcome.unschedulable.len(), 1);
        assert!(outcome.unschedulable[0].1.contains("not ready"));
    }
}
