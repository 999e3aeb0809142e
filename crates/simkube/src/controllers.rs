//! Built-in controllers: stateful sets, deployments, services, disruption
//! budgets, volume binding, and owner-reference garbage collection.
//!
//! Each controller is a pure reconcile function over the object store; the
//! cluster event loop ([`crate::cluster::SimCluster::step`]) runs them every
//! tick until the state is quiescent, mirroring how the Kubernetes control
//! plane converges.

use std::collections::{BTreeMap, BTreeSet};

use crate::meta::ObjectMeta;
use crate::objects::StoredObject;
use crate::objects::{
    ClaimPhase, Deployment, Kind, ObjectData, PersistentVolumeClaim, PodPhase, UpdateStrategy,
};
use crate::platform::PlatformBugs;
use crate::pmap::PMap;
use crate::store::{ObjKey, ObjectStore, WatchEventKind};

/// Storage classes the simulated cluster provisions.
pub const KNOWN_STORAGE_CLASSES: &[&str] = &["standard", "fast", "local"];

/// Runs every built-in controller once. Returns `true` when any change was
/// made (the loop re-runs until a fixpoint).
pub fn run_all(store: &mut ObjectStore, time: u64, bugs: PlatformBugs) -> bool {
    let before = store.revision();
    // A throwaway memo: fingerprints are computed at most once per object
    // per tick, exactly the legacy per-tick cost. Cross-tick reuse is an
    // event-engine optimisation ([`run_all_dirty`]).
    let mut memo = TemplateFpMemo::new();
    reconcile_statefulsets(store, time, bugs, &mut memo);
    reconcile_deployments(store, time, bugs, &mut memo);
    bind_claims(store, time);
    reconcile_services(store, time);
    reconcile_pdbs(store, time);
    collect_garbage(store, time);
    store.revision() != before
}

/// Template-fingerprint memo keyed by object uid: an entry is valid while
/// the object's generation is unchanged, because generation bumps exactly
/// when the rendered spec — which contains the pod template — changes
/// ([`ObjectStore::update_with`]). Uids are never reused, so a stale entry
/// can only miss, never alias.
pub(crate) type TemplateFpMemo = BTreeMap<u64, (u64, String)>;

/// Returns the memoized fingerprint for `(uid, generation)`, computing and
/// caching it on miss.
fn memoized_fingerprint(
    memo: &mut TemplateFpMemo,
    uid: u64,
    generation: u64,
    compute: impl FnOnce() -> String,
) -> String {
    match memo.get(&uid) {
        Some((gen, fp)) if *gen == generation => fp.clone(),
        _ => {
            let fp = compute();
            memo.insert(uid, (generation, fp.clone()));
            fp
        }
    }
}

/// Store-revision cursors recording, per controller, the revision *before*
/// its last run. A controller is dirty — and re-runs — when any of its input
/// kinds changed after its cursor, which includes its own writes (matching
/// the one-change-per-tick pacing of the ticked loop). Stale-low cursors are
/// always safe: they only cause extra (no-op) runs, never missed ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControllerCursors {
    pub(crate) statefulsets: u64,
    pub(crate) deployments: u64,
    pub(crate) claims: u64,
    pub(crate) services: u64,
    pub(crate) pdbs: u64,
    pub(crate) garbage: u64,
    /// Pod/Node cursor for [`crate::scheduler::schedule`], kept here so one
    /// struct checkpoints the whole reconcile queue.
    pub(crate) scheduler: u64,
    /// Cross-tick template-fingerprint memo (see [`TemplateFpMemo`]). Pure
    /// cache: its contents never affect behaviour, only whether a
    /// fingerprint is recomputed.
    pub(crate) template_fps: TemplateFpMemo,
    /// Incremental owner-reference index so garbage collection visits only
    /// objects whose ownership could have changed (see [`GcIndex`]).
    pub(crate) garbage_index: GcIndex,
}

/// Incremental owner-reference index for garbage collection: the live-uid
/// set, each object's `(uid, owner uids)`, and the reverse `(owner uid,
/// dependent key)` edges, kept current by replaying the store's watch-event
/// log. Each sync yields the *candidate* set — evented objects carrying
/// owner references plus dependents of any uid that just died — which is a
/// superset of every new orphan, so checking candidates against the live
/// set deletes exactly what [`collect_garbage`]'s full scan would. Built on
/// persistent maps, so cloning it into a checkpoint is O(1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcIndex {
    synced: u64,
    /// Uids of every object currently in the store.
    live: PMap<u64, ()>,
    /// Per-object identity and ownership cache: key → `(uid, owner uids)`.
    meta: PMap<ObjKey, (u64, Vec<u64>)>,
    /// Reverse ownership edges: `(owner uid, dependent key)`.
    dependents: PMap<(u64, ObjKey), ()>,
    /// Keys whose cached entry carries at least one owner reference — the
    /// only keys a phase-churn `Modified` event could matter for. Kept tiny
    /// (operator-owned objects only), it powers the sync fast path that
    /// skips the big `meta` descent for ownerless steady-state writes.
    owned: PMap<ObjKey, ()>,
}

impl GcIndex {
    /// Brings the index up to the store's current revision and returns the
    /// orphan-candidate set for this pass.
    fn sync(&mut self, store: &ObjectStore) -> BTreeSet<ObjKey> {
        let mut candidates = BTreeSet::new();
        if store.revision() == self.synced {
            return candidates;
        }
        if store.events_floor() > self.synced {
            // Event log compacted past our cursor (engine switch or
            // restore): rebuild, then re-check every owner-ref'd object —
            // exactly the legacy full pass.
            self.rebuild(store);
            for (key, (_, owners)) in self.meta.iter() {
                if !owners.is_empty() {
                    candidates.insert(key.clone());
                }
            }
            return candidates;
        }
        let events = store.events_since(self.synced);
        // A batch of nothing but `Modified` events cannot create, delete,
        // or re-uid any object (updates preserve `meta.uid`), so a key
        // whose payload carries no owner references and whose cached entry
        // carries none either (it is outside `owned`) is provably
        // unchanged as far as this index cares — skip it without touching
        // the full `meta` map. Any `Added`/`Deleted` event disables the
        // shortcut for the whole batch: a delete+recreate ending in
        // `Modified` changes the uid mid-batch.
        let only_modified = events
            .iter()
            .all(|e| matches!(e.kind, WatchEventKind::Modified));
        let mut died: Vec<u64> = Vec::new();
        // Refreshing reads *current* store state, so each key needs exactly
        // one refresh no matter how often it recurs in the batch (the cache
        // diff still surfaces every intermediate uid death); a reverse scan
        // with a seen-set keeps the dedup O(batch log batch).
        let mut seen: BTreeSet<&ObjKey> = BTreeSet::new();
        for event in events.iter().rev() {
            if !seen.insert(&event.key) {
                continue;
            }
            if only_modified
                && event
                    .obj
                    .as_deref()
                    .is_some_and(|o| o.meta.owner_references.is_empty())
                && !self.owned.contains_key(&event.key)
            {
                continue;
            }
            // The dedup keeps only each key's last event, whose payload is
            // exactly the object's current state — no store descent needed.
            self.refresh(event.obj.as_deref(), &event.key, &mut candidates, &mut died);
        }
        // Everything that depended on a dead uid must be re-checked.
        for uid in died {
            let deps = self
                .dependents
                .range_from_by(|k| {
                    if k.0 < uid {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                })
                .take_while(|(k, _)| k.0 == uid)
                .map(|(k, _)| k.1.clone());
            candidates.extend(deps);
        }
        self.synced = store.revision();
        candidates
    }

    fn rebuild(&mut self, store: &ObjectStore) {
        *self = GcIndex::default();
        for (key, obj) in store.iter() {
            let owners: Vec<u64> = obj.meta.owner_references.iter().map(|r| r.uid).collect();
            self.live.insert(obj.meta.uid, ());
            for owner in &owners {
                self.dependents.insert((*owner, key.clone()), ());
            }
            if !obj.meta.owner_references.is_empty() {
                self.owned.insert(key.clone(), ());
            }
            self.meta.insert(key.clone(), (obj.meta.uid, owners));
        }
        self.synced = store.revision();
    }

    /// Reconciles one key's cache entry against current store state,
    /// recording owner-ref'd survivors as candidates and vanished uids in
    /// `died`.
    fn refresh(
        &mut self,
        current: Option<&StoredObject>,
        key: &ObjKey,
        candidates: &mut BTreeSet<ObjKey>,
        died: &mut Vec<u64>,
    ) {
        let current: Option<(u64, Vec<u64>)> = current.map(|o| {
            (
                o.meta.uid,
                o.meta.owner_references.iter().map(|r| r.uid).collect(),
            )
        });
        let cached = self.meta.get(key).cloned();
        if cached == current {
            return;
        }
        if let Some((uid, owners)) = cached {
            self.live.remove(&uid);
            self.meta.remove(key);
            for owner in owners {
                self.dependents.remove(&(owner, key.clone()));
            }
            died.push(uid);
        }
        if let Some((uid, owners)) = current {
            self.live.insert(uid, ());
            for owner in &owners {
                self.dependents.insert((*owner, key.clone()), ());
            }
            if !owners.is_empty() {
                candidates.insert(key.clone());
                if !self.owned.contains_key(key) {
                    self.owned.insert(key.clone(), ());
                }
            } else if self.owned.contains_key(key) {
                self.owned.remove(key);
            }
            self.meta.insert(key.clone(), (uid, owners));
        } else if self.owned.contains_key(key) {
            self.owned.remove(key);
        }
    }
}

/// Like [`run_all`] but skips controllers whose input kinds are unchanged
/// since their cursor. Controllers are deterministic functions of the store
/// (time is only a write timestamp) and suppress no-op writes, so a clean
/// controller would provably write nothing — skipping it is behaviour
/// preserving.
pub fn run_all_dirty(
    store: &mut ObjectStore,
    time: u64,
    bugs: PlatformBugs,
    cursors: &mut ControllerCursors,
) -> bool {
    let before = store.revision();
    // Each controller additionally skips when zero objects of its *top*
    // kind exist: a reconcile pass over an empty set provably writes
    // nothing, so a pod event in a cluster with no stateful sets (the
    // background-pod steady state at scale) costs nothing here. The cursor
    // still advances — exactly as if the no-op pass had run.
    if store.kinds_dirty_since(
        &[Kind::StatefulSet, Kind::Pod, Kind::PersistentVolumeClaim],
        cursors.statefulsets,
    ) {
        cursors.statefulsets = store.revision();
        if store.kind_count(&Kind::StatefulSet) > 0 {
            reconcile_statefulsets(store, time, bugs, &mut cursors.template_fps);
        }
    }
    if store.kinds_dirty_since(&[Kind::Deployment, Kind::Pod], cursors.deployments) {
        cursors.deployments = store.revision();
        if store.kind_count(&Kind::Deployment) > 0 {
            reconcile_deployments(store, time, bugs, &mut cursors.template_fps);
        }
    }
    if store.kinds_dirty_since(&[Kind::PersistentVolumeClaim], cursors.claims) {
        cursors.claims = store.revision();
        if store.kind_count(&Kind::PersistentVolumeClaim) > 0 {
            bind_claims(store, time);
        }
    }
    if store.kinds_dirty_since(&[Kind::Service, Kind::Pod], cursors.services) {
        cursors.services = store.revision();
        if store.kind_count(&Kind::Service) > 0 {
            reconcile_services(store, time);
        }
    }
    if store.kinds_dirty_since(&[Kind::PodDisruptionBudget, Kind::Pod], cursors.pdbs) {
        cursors.pdbs = store.revision();
        if store.kind_count(&Kind::PodDisruptionBudget) > 0 {
            reconcile_pdbs(store, time);
        }
    }
    // Garbage collection watches owner references on every kind: gate on the
    // full store revision rather than a kind set. The indexed pass deletes
    // exactly what [`collect_garbage`]'s full scan would, visiting only
    // candidates surfaced by the event log.
    if store.revision() > cursors.garbage {
        cursors.garbage = store.revision();
        collect_garbage_indexed(store, time, &mut cursors.garbage_index);
    }
    store.revision() != before
}

/// Incremental owner-reference garbage collection: candidates come from the
/// [`GcIndex`] event sync instead of a full-store scan; each is verified
/// against the live-uid set (which, like [`collect_garbage`]'s snapshot,
/// reflects the store *before* this pass's deletes) and deleted in key
/// order — the same objects, in the same order, as the full scan.
pub fn collect_garbage_indexed(store: &mut ObjectStore, time: u64, index: &mut GcIndex) {
    let candidates = index.sync(store);
    let orphans: Vec<ObjKey> = candidates
        .into_iter()
        .filter(|key| match store.get(key) {
            Some(o) => {
                !o.meta.owner_references.is_empty()
                    && o.meta
                        .owner_references
                        .iter()
                        .all(|r| !index.live.contains_key(&r.uid))
            }
            None => false,
        })
        .collect();
    for key in orphans {
        store.delete(&key, time);
    }
}

/// Reconciles every stateful set: ordered pod creation with stable names,
/// per-pod volume claims, rolling updates, and scale-down from the highest
/// ordinal.
pub fn reconcile_statefulsets(
    store: &mut ObjectStore,
    time: u64,
    bugs: PlatformBugs,
    memo: &mut TemplateFpMemo,
) {
    let sts_keys: Vec<ObjKey> = store
        .list_all(&Kind::StatefulSet)
        .iter()
        .map(|o| ObjKey::new(Kind::StatefulSet, &o.meta.namespace, &o.meta.name))
        .collect();
    for key in sts_keys {
        reconcile_one_statefulset(store, &key, time, bugs, memo);
    }
}

fn pod_name(sts: &str, ordinal: i32) -> String {
    format!("{sts}-{ordinal}")
}

fn claim_name(template: &str, sts: &str, ordinal: i32) -> String {
    format!("{template}-{sts}-{ordinal}")
}

/// A stable fingerprint of the pod-affecting parts of a stateful set.
/// Claim templates are intentionally excluded: volume claim templates are
/// immutable in Kubernetes and never roll pods.
fn sts_fingerprint(sts: &crate::objects::StatefulSet) -> String {
    crate::objects::fnv_fingerprint(&crdspec::json::to_string(&sts.template.to_value()))
}

/// Fingerprint of a deployment template (no claims).
fn template_fingerprint(tpl: &crate::objects::PodTemplate) -> String {
    crate::objects::fnv_fingerprint(&crdspec::json::to_string(&tpl.to_value()))
}

fn reconcile_one_statefulset(
    store: &mut ObjectStore,
    key: &ObjKey,
    time: u64,
    bugs: PlatformBugs,
    memo: &mut TemplateFpMemo,
) {
    let (sts, owner_uid, namespace, name, generation) = match store.get(key) {
        Some(obj) => match &obj.data {
            ObjectData::StatefulSet(s) => (
                s.clone(),
                obj.meta.uid,
                obj.meta.namespace.clone(),
                obj.meta.name.clone(),
                obj.meta.generation,
            ),
            _ => return,
        },
        None => return,
    };
    let replicas = sts.replicas.max(0);
    let fingerprint = memoized_fingerprint(memo, owner_uid, generation, || sts_fingerprint(&sts));

    // Collect existing pods of this set, by ordinal.
    let mut existing: Vec<(i32, ObjKey, PodPhase, bool, String)> = Vec::new();
    for obj in store.list(&Kind::Pod, &namespace) {
        if let ObjectData::Pod(p) = &obj.data {
            if let Some(ord) = ordinal_of(&obj.meta.name, &name) {
                if obj.meta.owner_references.iter().any(|o| o.uid == owner_uid) {
                    existing.push((
                        ord,
                        ObjKey::new(Kind::Pod, &namespace, &obj.meta.name),
                        p.phase,
                        p.ready,
                        obj.meta
                            .annotations
                            .get("template-fingerprint")
                            .cloned()
                            .unwrap_or_default(),
                    ));
                }
            }
        }
    }
    existing.sort_by_key(|(ord, ..)| *ord);

    // Scale down: delete the highest ordinal beyond the desired count.
    if let Some((ord, pod_key, ..)) = existing.last() {
        if *ord >= replicas {
            let pod_key = pod_key.clone();
            store.delete(&pod_key, time);
            update_sts_status(store, key, time, bugs, generation);
            return; // One change per tick keeps ordering faithful.
        }
    }

    // Rolling update: replace one stale pod per tick. A stale pod that is
    // not running is replaced immediately (it cannot make progress);
    // otherwise replacement waits for every pod to run and proceeds from
    // the highest ordinal.
    if sts.update_strategy == UpdateStrategy::RollingUpdate {
        if let Some((_, pod_key, ..)) = existing
            .iter()
            .find(|(_, _, phase, _, fp)| *fp != fingerprint && *phase != PodPhase::Running)
        {
            let pod_key = pod_key.clone();
            store.delete(&pod_key, time);
            update_sts_status(store, key, time, bugs, generation);
            return;
        }
        let all_running = existing
            .iter()
            .all(|(_, _, phase, ..)| *phase == PodPhase::Running);
        if all_running && existing.len() == replicas as usize {
            if let Some((_, pod_key, ..)) = existing
                .iter()
                .rev()
                .find(|(_, _, _, _, fp)| *fp != fingerprint)
            {
                let pod_key = pod_key.clone();
                store.delete(&pod_key, time);
                update_sts_status(store, key, time, bugs, generation);
                return;
            }
        }
    }

    // Scale up / replace missing: create the lowest missing ordinal, but
    // only when all lower ordinals are running and ready (OrderedReady).
    let have: BTreeSet<i32> = existing.iter().map(|(ord, ..)| *ord).collect();
    for ordinal in 0..replicas {
        if have.contains(&ordinal) {
            continue;
        }
        let lower_ready = existing
            .iter()
            .filter(|(ord, ..)| *ord < ordinal)
            .all(|(_, _, phase, ready, _)| *phase == PodPhase::Running && *ready);
        if !lower_ready {
            break;
        }
        // Create this pod's claims first.
        for tpl in &sts.claim_templates {
            let cname = claim_name(&tpl.name, &name, ordinal);
            let ckey = ObjKey::new(Kind::PersistentVolumeClaim, &namespace, &cname);
            if store.get(&ckey).is_none() {
                let claim = PersistentVolumeClaim {
                    size: tpl.size,
                    storage_class: tpl.storage_class.clone(),
                    phase: ClaimPhase::Pending,
                };
                let meta = ObjectMeta::named(&namespace, &cname).with_owner(
                    "StatefulSet",
                    &name,
                    owner_uid,
                );
                let _ = store.create(meta, ObjectData::PersistentVolumeClaim(claim), time);
            }
        }
        let mut pod = sts.template.make_pod();
        pod.claims = sts
            .claim_templates
            .iter()
            .map(|tpl| claim_name(&tpl.name, &name, ordinal))
            .collect();
        pod.phase_since = time;
        let mut meta = ObjectMeta::named(&namespace, &pod_name(&name, ordinal)).with_owner(
            "StatefulSet",
            &name,
            owner_uid,
        );
        meta.labels = sts.template.labels.clone();
        meta.annotations = sts.template.annotations.clone();
        meta.annotations
            .insert("template-fingerprint".to_string(), fingerprint.clone());
        let _ = store.create(meta, ObjectData::Pod(pod), time);
        break; // One pod per tick (OrderedReady).
    }
    update_sts_status(store, key, time, bugs, generation);
}

fn update_sts_status(
    store: &mut ObjectStore,
    key: &ObjKey,
    time: u64,
    bugs: PlatformBugs,
    generation: u64,
) {
    let (namespace, name, owner_uid, replicas) = match store.get(key) {
        Some(obj) => match &obj.data {
            ObjectData::StatefulSet(s) => (
                obj.meta.namespace.clone(),
                obj.meta.name.clone(),
                obj.meta.uid,
                s.replicas,
            ),
            _ => return,
        },
        None => return,
    };
    let mut ready = 0;
    let mut current = 0;
    for obj in store.list(&Kind::Pod, &namespace) {
        if let ObjectData::Pod(p) = &obj.data {
            if ordinal_of(&obj.meta.name, &name).is_some()
                && obj.meta.owner_references.iter().any(|o| o.uid == owner_uid)
            {
                current += 1;
                if p.phase == PodPhase::Running && p.ready {
                    ready += 1;
                }
            }
        }
    }
    // PLAT-6: observedGeneration is bumped before the rollout completes,
    // so watchers believe convergence happened early.
    let observe = bugs.premature_observed_generation || (ready == replicas && current == replicas);
    let unchanged = store.get(key).is_some_and(|obj| match &obj.data {
        ObjectData::StatefulSet(s) => {
            s.ready_replicas == ready && (!observe || s.observed_generation == generation)
        }
        _ => true,
    });
    if unchanged {
        return;
    }
    let _ = store.update_with(key, time, |obj| {
        if let ObjectData::StatefulSet(s) = &mut obj.data {
            s.ready_replicas = ready;
            if observe {
                s.observed_generation = generation;
            }
        }
    });
}

/// Extracts the ordinal from a pod name of the form `{set}-{ordinal}`.
fn ordinal_of(pod_name: &str, sts_name: &str) -> Option<i32> {
    let rest = pod_name.strip_prefix(sts_name)?.strip_prefix('-')?;
    rest.parse().ok().filter(|o| *o >= 0)
}

/// Reconciles every deployment: unordered pod management with rolling
/// replacement on template change.
pub fn reconcile_deployments(
    store: &mut ObjectStore,
    time: u64,
    bugs: PlatformBugs,
    memo: &mut TemplateFpMemo,
) {
    let keys: Vec<ObjKey> = store
        .list_all(&Kind::Deployment)
        .iter()
        .map(|o| ObjKey::new(Kind::Deployment, &o.meta.namespace, &o.meta.name))
        .collect();
    for key in keys {
        let (dep, owner_uid, namespace, name, generation) = match store.get(&key) {
            Some(obj) => match &obj.data {
                ObjectData::Deployment(d) => (
                    d.clone(),
                    obj.meta.uid,
                    obj.meta.namespace.clone(),
                    obj.meta.name.clone(),
                    obj.meta.generation,
                ),
                _ => continue,
            },
            None => continue,
        };
        let fingerprint = memoized_fingerprint(memo, owner_uid, generation, || {
            template_fingerprint(&dep.template)
        });
        let mut pods: Vec<(ObjKey, PodPhase, bool, String)> = Vec::new();
        for obj in store.list(&Kind::Pod, &namespace) {
            if obj.meta.owner_references.iter().any(|o| o.uid == owner_uid) {
                if let ObjectData::Pod(p) = &obj.data {
                    pods.push((
                        ObjKey::new(Kind::Pod, &namespace, &obj.meta.name),
                        p.phase,
                        p.ready,
                        obj.meta
                            .annotations
                            .get("template-fingerprint")
                            .cloned()
                            .unwrap_or_default(),
                    ));
                }
            }
        }
        let replicas = dep.replicas.max(0) as usize;
        if pods.len() > replicas {
            // Scale down: delete the lexically last pod.
            let victim = pods.last().expect("non-empty").0.clone();
            store.delete(&victim, time);
        } else if pods.len() < replicas {
            // Scale up: next free index.
            let mut idx = 0;
            loop {
                let pname = format!("{name}-{idx}");
                let pkey = ObjKey::new(Kind::Pod, &namespace, &pname);
                if store.get(&pkey).is_none() {
                    let mut pod = dep.template.make_pod();
                    pod.phase_since = time;
                    let mut meta = ObjectMeta::named(&namespace, &pname).with_owner(
                        "Deployment",
                        &name,
                        owner_uid,
                    );
                    meta.labels = dep.template.labels.clone();
                    meta.annotations
                        .insert("template-fingerprint".to_string(), fingerprint.clone());
                    let _ = store.create(meta, ObjectData::Pod(pod), time);
                    break;
                }
                idx += 1;
            }
        } else if let Some((stale, ..)) = pods
            .iter()
            .find(|(_, phase, _, fp)| *fp != fingerprint && *phase != PodPhase::Running)
            .or_else(|| pods.iter().find(|(_, _, _, fp)| *fp != fingerprint))
        {
            // Rolling replace one stale pod per tick; stale pods that are
            // stuck (not running) are replaced first.
            let stale = stale.clone();
            store.delete(&stale, time);
        }
        // Status.
        let mut ready = 0;
        for obj in store.list(&Kind::Pod, &namespace) {
            if obj.meta.owner_references.iter().any(|o| o.uid == owner_uid) {
                if let ObjectData::Pod(p) = &obj.data {
                    if p.phase == PodPhase::Running && p.ready {
                        ready += 1;
                    }
                }
            }
        }
        let observe = |d: &Deployment| bugs.premature_observed_generation || ready == d.replicas;
        let unchanged = store.get(&key).is_some_and(|obj| match &obj.data {
            ObjectData::Deployment(d) => {
                d.ready_replicas == ready && (!observe(d) || d.observed_generation == generation)
            }
            _ => true,
        });
        if unchanged {
            continue;
        }
        let _ = store.update_with(&key, time, |obj| {
            if let ObjectData::Deployment(d) = &mut obj.data {
                d.ready_replicas = ready;
                if observe(d) {
                    d.observed_generation = generation;
                }
            }
        });
    }
}

/// Binds pending claims whose storage class the cluster knows how to
/// provision; unknown classes stay `Pending` forever.
pub fn bind_claims(store: &mut ObjectStore, time: u64) {
    let keys: Vec<ObjKey> = store
        .list_all(&Kind::PersistentVolumeClaim)
        .iter()
        .filter(|o| {
            matches!(
                &o.data,
                ObjectData::PersistentVolumeClaim(c)
                    if c.phase == ClaimPhase::Pending
                        && KNOWN_STORAGE_CLASSES.contains(&c.storage_class.as_str())
                        && !c.size.is_negative()
            )
        })
        .map(|o| ObjKey::new(Kind::PersistentVolumeClaim, &o.meta.namespace, &o.meta.name))
        .collect();
    for key in keys {
        let _ = store.update_with(&key, time, |obj| {
            if let ObjectData::PersistentVolumeClaim(c) = &mut obj.data {
                c.phase = ClaimPhase::Bound;
            }
        });
    }
}

/// Refreshes service endpoints from ready pods matching each selector.
pub fn reconcile_services(store: &mut ObjectStore, time: u64) {
    let keys: Vec<ObjKey> = store
        .list_all(&Kind::Service)
        .iter()
        .map(|o| ObjKey::new(Kind::Service, &o.meta.namespace, &o.meta.name))
        .collect();
    for key in keys {
        let selector = match store.get(&key) {
            Some(obj) => match &obj.data {
                ObjectData::Service(s) => s.selector.clone(),
                _ => continue,
            },
            None => continue,
        };
        let mut endpoints: Vec<String> = store
            .list(&Kind::Pod, &key.namespace)
            .iter()
            .filter(|o| {
                selector.matches(&o.meta.labels)
                    && matches!(&o.data, ObjectData::Pod(p) if p.phase == PodPhase::Running && p.ready)
            })
            .map(|o| o.meta.name.clone())
            .collect();
        endpoints.sort();
        let unchanged = store.get(&key).is_some_and(|obj| match &obj.data {
            ObjectData::Service(s) => s.endpoints == endpoints,
            _ => true,
        });
        if unchanged {
            continue;
        }
        let _ = store.update_with(&key, time, |obj| {
            if let ObjectData::Service(s) = &mut obj.data {
                s.endpoints = endpoints;
            }
        });
    }
}

/// Updates disruption-budget status counts.
pub fn reconcile_pdbs(store: &mut ObjectStore, time: u64) {
    let keys: Vec<ObjKey> = store
        .list_all(&Kind::PodDisruptionBudget)
        .iter()
        .map(|o| ObjKey::new(Kind::PodDisruptionBudget, &o.meta.namespace, &o.meta.name))
        .collect();
    for key in keys {
        let selector = match store.get(&key) {
            Some(obj) => match &obj.data {
                ObjectData::PodDisruptionBudget(p) => p.selector.clone(),
                _ => continue,
            },
            None => continue,
        };
        let healthy = store
            .list(&Kind::Pod, &key.namespace)
            .iter()
            .filter(|o| {
                selector.matches(&o.meta.labels)
                    && matches!(&o.data, ObjectData::Pod(p) if p.phase == PodPhase::Running && p.ready)
            })
            .count() as i32;
        let unchanged = store.get(&key).is_some_and(|obj| match &obj.data {
            ObjectData::PodDisruptionBudget(p) => p.current_healthy == healthy,
            _ => true,
        });
        if unchanged {
            continue;
        }
        let _ = store.update_with(&key, time, |obj| {
            if let ObjectData::PodDisruptionBudget(p) = &mut obj.data {
                p.current_healthy = healthy;
            }
        });
    }
}

/// Deletes objects whose owners no longer exist (cascading deletion).
pub fn collect_garbage(store: &mut ObjectStore, time: u64) {
    let live_uids: BTreeSet<u64> = store.iter().map(|(_, o)| o.meta.uid).collect();
    let orphans: Vec<ObjKey> = store
        .iter()
        .filter(|(_, o)| {
            !o.meta.owner_references.is_empty()
                && o.meta
                    .owner_references
                    .iter()
                    .all(|r| !live_uids.contains(&r.uid))
        })
        .map(|(k, _)| k.clone())
        .collect();
    for key in orphans {
        store.delete(&key, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::LabelSelector;
    use crate::objects::{ClaimTemplate, Container, PodTemplate, StatefulSet};

    fn sts(replicas: i32) -> StatefulSet {
        StatefulSet {
            replicas,
            selector: LabelSelector::match_labels([("app", "zk")]),
            template: PodTemplate {
                labels: [("app".to_string(), "zk".to_string())]
                    .into_iter()
                    .collect(),
                containers: vec![Container {
                    name: "zk".to_string(),
                    image: "zk:3.8".to_string(),
                    ..Container::default()
                }],
                ..PodTemplate::default()
            },
            claim_templates: vec![ClaimTemplate {
                name: "data".to_string(),
                size: "1Gi".parse().unwrap(),
                storage_class: "standard".to_string(),
            }],
            service_name: "zk-headless".to_string(),
            ..StatefulSet::default()
        }
    }

    fn mark_all_running(store: &mut ObjectStore, time: u64) {
        let keys: Vec<ObjKey> = store
            .list_all(&Kind::Pod)
            .iter()
            .map(|o| ObjKey::new(Kind::Pod, &o.meta.namespace, &o.meta.name))
            .collect();
        for key in keys {
            store
                .update_with(&key, time, |o| {
                    if let ObjectData::Pod(p) = &mut o.data {
                        p.phase = PodPhase::Running;
                        p.ready = true;
                    }
                })
                .unwrap();
        }
    }

    fn converge(store: &mut ObjectStore, bugs: PlatformBugs) {
        for t in 0..100 {
            mark_all_running(store, t);
            if !run_all(store, t, bugs) {
                break;
            }
        }
    }

    #[test]
    fn statefulset_creates_pods_in_order_with_claims() {
        let mut store = ObjectStore::new();
        store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(3)),
                0,
            )
            .unwrap();
        // First tick creates only ordinal 0 (OrderedReady).
        run_all(&mut store, 1, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 1);
        assert!(store.get(&ObjKey::new(Kind::Pod, "ns", "zk-0")).is_some());
        // Pod 1 is not created while pod 0 is pending.
        run_all(&mut store, 2, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 1);
        converge(&mut store, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 3);
        assert_eq!(store.list(&Kind::PersistentVolumeClaim, "ns").len(), 3);
        assert!(store
            .get(&ObjKey::new(Kind::PersistentVolumeClaim, "ns", "data-zk-1"))
            .is_some());
    }

    #[test]
    fn statefulset_scales_down_highest_ordinal_first() {
        let mut store = ObjectStore::new();
        let key = store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(3)),
                0,
            )
            .unwrap();
        converge(&mut store, PlatformBugs::none());
        store
            .update_with(&key, 50, |o| {
                if let ObjectData::StatefulSet(s) = &mut o.data {
                    s.replicas = 1;
                }
            })
            .unwrap();
        run_all(&mut store, 51, PlatformBugs::none());
        assert!(store.get(&ObjKey::new(Kind::Pod, "ns", "zk-2")).is_none());
        assert!(store.get(&ObjKey::new(Kind::Pod, "ns", "zk-1")).is_some());
        converge(&mut store, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 1);
    }

    #[test]
    fn rolling_update_replaces_stale_pods() {
        let mut store = ObjectStore::new();
        let key = store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(2)),
                0,
            )
            .unwrap();
        converge(&mut store, PlatformBugs::none());
        // Change the image.
        store
            .update_with(&key, 60, |o| {
                if let ObjectData::StatefulSet(s) = &mut o.data {
                    s.template.containers[0].image = "zk:3.9".to_string();
                }
            })
            .unwrap();
        run_all(&mut store, 61, PlatformBugs::none());
        // Highest ordinal replaced first.
        assert!(store.get(&ObjKey::new(Kind::Pod, "ns", "zk-1")).is_none());
        converge(&mut store, PlatformBugs::none());
        for pod in store.list(&Kind::Pod, "ns") {
            if let ObjectData::Pod(p) = &pod.data {
                assert_eq!(p.containers[0].image, "zk:3.9");
            }
        }
    }

    #[test]
    fn observed_generation_premature_under_plat6() {
        let mut store = ObjectStore::new();
        store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(3)),
                0,
            )
            .unwrap();
        // One tick only: rollout far from finished.
        run_all(&mut store, 1, PlatformBugs::all());
        let obj = store
            .get(&ObjKey::new(Kind::StatefulSet, "ns", "zk"))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &obj.data {
            assert_eq!(s.observed_generation, 1, "PLAT-6 reports early");
            assert_ne!(s.ready_replicas, s.replicas);
        }
        // Fixed platform withholds observedGeneration until ready.
        let mut store = ObjectStore::new();
        store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(3)),
                0,
            )
            .unwrap();
        run_all(&mut store, 1, PlatformBugs::none());
        let obj = store
            .get(&ObjKey::new(Kind::StatefulSet, "ns", "zk"))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &obj.data {
            assert_eq!(s.observed_generation, 0);
        }
    }

    #[test]
    fn unknown_storage_class_never_binds() {
        let mut store = ObjectStore::new();
        store
            .create(
                ObjectMeta::named("ns", "claim"),
                ObjectData::PersistentVolumeClaim(PersistentVolumeClaim {
                    size: "1Gi".parse().unwrap(),
                    storage_class: "nonexistent".to_string(),
                    phase: ClaimPhase::Pending,
                }),
                0,
            )
            .unwrap();
        bind_claims(&mut store, 1);
        if let ObjectData::PersistentVolumeClaim(c) = &store
            .get(&ObjKey::new(Kind::PersistentVolumeClaim, "ns", "claim"))
            .unwrap()
            .data
        {
            assert_eq!(c.phase, ClaimPhase::Pending);
        }
    }

    #[test]
    fn garbage_collection_cascades() {
        let mut store = ObjectStore::new();
        let owner = store
            .create(
                ObjectMeta::named("ns", "zk"),
                ObjectData::StatefulSet(sts(1)),
                0,
            )
            .unwrap();
        converge(&mut store, PlatformBugs::none());
        assert!(!store.list(&Kind::Pod, "ns").is_empty());
        store.delete(&owner, 99);
        collect_garbage(&mut store, 100);
        assert!(store.list(&Kind::Pod, "ns").is_empty());
        assert!(store.list(&Kind::PersistentVolumeClaim, "ns").is_empty());
    }

    #[test]
    fn deployment_scales_and_reports_status() {
        let mut store = ObjectStore::new();
        let dep = crate::objects::Deployment {
            replicas: 2,
            selector: LabelSelector::match_labels([("app", "web")]),
            template: PodTemplate {
                labels: [("app".to_string(), "web".to_string())]
                    .into_iter()
                    .collect(),
                containers: vec![Container {
                    name: "web".to_string(),
                    image: "web:1".to_string(),
                    ..Container::default()
                }],
                ..PodTemplate::default()
            },
            ..crate::objects::Deployment::default()
        };
        let key = store
            .create(
                ObjectMeta::named("ns", "web"),
                ObjectData::Deployment(dep),
                0,
            )
            .unwrap();
        converge(&mut store, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 2);
        if let ObjectData::Deployment(d) = &store.get(&key).unwrap().data {
            assert_eq!(d.ready_replicas, 2);
        }
        // Scale down.
        store
            .update_with(&key, 50, |o| {
                if let ObjectData::Deployment(d) = &mut o.data {
                    d.replicas = 0;
                }
            })
            .unwrap();
        converge(&mut store, PlatformBugs::none());
        assert_eq!(store.list(&Kind::Pod, "ns").len(), 0);
    }

    #[test]
    fn services_track_ready_endpoints() {
        let mut store = ObjectStore::new();
        let svc = crate::objects::Service {
            selector: LabelSelector::match_labels([("app", "zk")]),
            ports: vec![2181],
            ..crate::objects::Service::default()
        };
        let skey = store
            .create(
                ObjectMeta::named("ns", "zk-svc"),
                ObjectData::Service(svc),
                0,
            )
            .unwrap();
        store
            .create(
                ObjectMeta::named("ns", "zk-0").with_label("app", "zk"),
                ObjectData::Pod(crate::objects::Pod::default()),
                0,
            )
            .unwrap();
        reconcile_services(&mut store, 1);
        if let ObjectData::Service(s) = &store.get(&skey).unwrap().data {
            assert!(s.endpoints.is_empty(), "pending pod is not an endpoint");
        }
        mark_all_running(&mut store, 2);
        reconcile_services(&mut store, 3);
        if let ObjectData::Service(s) = &store.get(&skey).unwrap().data {
            assert_eq!(s.endpoints, vec!["zk-0".to_string()]);
        }
    }
}
