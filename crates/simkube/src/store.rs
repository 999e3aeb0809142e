//! The versioned object store (the simulated `etcd`).
//!
//! All state objects live here, keyed by kind/namespace/name, with monotonic
//! resource versions and an append-only watch-event log. Acto's convergence
//! detection consumes the event log: the reset timer restarts whenever a new
//! event appears (paper §5.5).
//!
//! Storage is copy-on-write: objects are held as `Arc<StoredObject>` inside a
//! persistent [`PMap`], so [`ObjectStore::snapshot`] is an O(1) handle copy
//! and a snapshot shares every object and every tree node with its parent
//! until one of them writes. A write copies only the touched root-to-leaf
//! path plus the single object payload being changed.
//!
//! Beside the object map the store keeps the operator-visible
//! [`StateIndex`], written on the same three paths (create, changed update,
//! delete), so oracle snapshots are O(1) clones of it too.

use std::collections::BTreeMap;
use std::sync::Arc;

use crdspec::Value;

use crate::meta::ObjectMeta;
use crate::objects::{Kind, ObjectData, StoredObject};
use crate::pmap::PMap;
use crate::state::{self, SnapEntry, StateIndex};

/// Key identifying a stored object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjKey {
    /// Object kind.
    pub kind: Kind,
    /// Namespace.
    pub namespace: String,
    /// Name.
    pub name: String,
}

impl ObjKey {
    /// Builds a key.
    pub fn new(kind: Kind, namespace: &str, name: &str) -> ObjKey {
        ObjKey {
            kind,
            namespace: namespace.to_string(),
            name: name.to_string(),
        }
    }

    /// Compares against borrowed parts in the same order as the derived
    /// `Ord` (kind, then namespace, then name), so range scans need no
    /// throwaway `ObjKey` allocation.
    pub fn cmp_parts(&self, kind: &Kind, namespace: &str, name: &str) -> std::cmp::Ordering {
        self.kind
            .cmp(kind)
            .then_with(|| self.namespace.as_str().cmp(namespace))
            .then_with(|| self.name.as_str().cmp(name))
    }
}

/// What happened to an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// Object created.
    Added,
    /// Object updated (spec or status).
    Modified,
    /// Object removed.
    Deleted,
}

/// One entry of the watch-event log.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Store revision at which the event happened.
    pub revision: u64,
    /// Simulated time of the event.
    pub time: u64,
    /// What happened.
    pub kind: WatchEventKind,
    /// The object affected.
    pub key: ObjKey,
    /// Shared handle to the object as of this event (`None` for
    /// deletions). Because events record every write in order, the *last*
    /// event for a key in any batch carries exactly the object's current
    /// state — index synchronization reads it instead of paying a fresh
    /// tree descent per touched key.
    pub obj: Option<Arc<StoredObject>>,
}

/// The versioned object store.
///
/// # Examples
///
/// ```
/// use simkube::{ObjectStore, ObjectData, ConfigMap, Kind};
/// use simkube::meta::ObjectMeta;
///
/// let mut store = ObjectStore::new();
/// store.create(
///     ObjectMeta::named("default", "conf"),
///     ObjectData::ConfigMap(ConfigMap::default()),
///     0,
/// ).unwrap();
/// assert_eq!(store.list(&Kind::ConfigMap, "default").len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    /// Persistent map: clones share structure, writes copy the touched path.
    /// The map's (kind, namespace, name) key order doubles as the per-kind
    /// index — `list`/`list_all` are contiguous range scans.
    objects: PMap<ObjKey, Arc<StoredObject>>,
    /// The operator-visible objects by id, one entry per object version.
    index: StateIndex,
    revision: u64,
    next_uid: u64,
    /// Watch-event log, shared between snapshots until one side appends.
    events: Arc<Vec<WatchEvent>>,
    /// Highest revision at which each kind last changed. Drives the
    /// event-driven engine's dirty checks (`kinds_dirty_since`).
    kind_revision: BTreeMap<Kind, u64>,
    /// Live object count per kind. Lets controllers skip a reconcile pass
    /// outright when no object of their kind exists ([`ObjectStore::kind_count`]).
    kind_counts: BTreeMap<Kind, usize>,
    /// Events at or below this revision have been compacted away.
    events_floor: u64,
    /// Namespace alias `(from, to)`: while set, *keyed* operations naming
    /// the `from` namespace are transparently redirected to `to`. The
    /// composition harness brackets each member operator's reconcile pass
    /// with an alias from the conventional deployment namespace to the
    /// member's own, so operator code with the namespace baked in lands in
    /// its member sandbox instead of a sibling's. Raw enumeration
    /// ([`ObjectStore::iter`], [`ObjectStore::list_all`]) is deliberately
    /// not aliased — cross-namespace reach through those is exactly what
    /// the composition oracle watches for.
    ns_alias: Option<(String, String)>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> ObjectStore {
        ObjectStore {
            objects: PMap::new(),
            index: PMap::new(),
            revision: 0,
            next_uid: 1,
            events: Arc::new(Vec::new()),
            kind_revision: BTreeMap::new(),
            kind_counts: BTreeMap::new(),
            events_floor: 0,
            ns_alias: None,
        }
    }

    /// Installs a namespace alias: keyed operations naming `from` are
    /// redirected to `to` until [`ObjectStore::clear_ns_alias`].
    pub fn set_ns_alias(&mut self, from: &str, to: &str) {
        self.ns_alias = Some((from.to_string(), to.to_string()));
    }

    /// Removes the namespace alias.
    pub fn clear_ns_alias(&mut self) {
        self.ns_alias = None;
    }

    /// Resolves a namespace through the alias (identity when unset).
    fn resolve_ns<'n>(&'n self, namespace: &'n str) -> &'n str {
        match &self.ns_alias {
            Some((from, to)) if namespace == from => to,
            _ => namespace,
        }
    }

    /// Resolves a key through the alias. Borrows on the (overwhelmingly
    /// common) unaliased path; allocates only when a redirect applies.
    fn resolve_key<'k>(&self, key: &'k ObjKey) -> std::borrow::Cow<'k, ObjKey> {
        match &self.ns_alias {
            Some((from, to)) if key.namespace == *from => {
                std::borrow::Cow::Owned(ObjKey::new(key.kind.clone(), to, &key.name))
            }
            _ => std::borrow::Cow::Borrowed(key),
        }
    }

    /// Current store revision (advances on every write).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Records a write: advances the revision, marks the kind dirty, and
    /// appends a watch event. The key is moved into the event (no clone);
    /// the kind is cloned only the first time that kind is ever written.
    fn bump(
        &mut self,
        kind: WatchEventKind,
        key: ObjKey,
        time: u64,
        obj: Option<Arc<StoredObject>>,
    ) {
        self.revision += 1;
        match self.kind_revision.get_mut(&key.kind) {
            Some(rev) => *rev = self.revision,
            None => {
                self.kind_revision.insert(key.kind.clone(), self.revision);
            }
        }
        Arc::make_mut(&mut self.events).push(WatchEvent {
            revision: self.revision,
            time,
            kind,
            key,
            obj,
        });
    }

    /// Returns `true` when any of `kinds` changed after revision `cursor`.
    pub fn kinds_dirty_since(&self, kinds: &[Kind], cursor: u64) -> bool {
        kinds
            .iter()
            .any(|k| self.kind_revision.get(k).is_some_and(|r| *r > cursor))
    }

    /// Number of live objects of `kind`. O(log kinds); controllers use it
    /// to skip reconcile passes that provably have nothing to do.
    pub fn kind_count(&self, kind: &Kind) -> usize {
        self.kind_counts.get(kind).copied().unwrap_or(0)
    }

    /// Creates an object, assigning uid and resource version.
    ///
    /// Fails if an object with the same key already exists.
    pub fn create(
        &mut self,
        mut meta: ObjectMeta,
        data: ObjectData,
        time: u64,
    ) -> Result<ObjKey, String> {
        if let Some((from, to)) = &self.ns_alias {
            if meta.namespace == *from {
                meta.namespace = to.clone();
            }
        }
        let key = ObjKey::new(data.kind(), &meta.namespace, &meta.name);
        if self.objects.contains_key(&key) {
            return Err(format!(
                "{} {}/{} already exists",
                key.kind.name(),
                key.namespace,
                key.name
            ));
        }
        meta.uid = self.next_uid;
        self.next_uid += 1;
        meta.resource_version = self.revision + 1;
        meta.generation = 1;
        meta.creation_timestamp = time;
        let obj = Arc::new(StoredObject { meta, data });
        self.objects.insert(key.clone(), Arc::clone(&obj));
        self.index_put(&key, &obj);
        *self.kind_counts.entry(key.kind.clone()).or_insert(0) += 1;
        self.bump(WatchEventKind::Added, key.clone(), time, Some(obj));
        Ok(key)
    }

    /// Fetches an object by key.
    pub fn get(&self, key: &ObjKey) -> Option<&StoredObject> {
        self.objects.get(&*self.resolve_key(key)).map(|obj| &**obj)
    }

    /// Fetches the shared handle for an object by key.
    pub fn get_shared(&self, key: &ObjKey) -> Option<&Arc<StoredObject>> {
        self.objects.get(&*self.resolve_key(key))
    }

    /// Mutates an object through a closure applied to a copy of it: the
    /// store's one write primitive for existing objects.
    ///
    /// The closure may change the payload and the caller-owned metadata;
    /// `uid`, `resource_version`, `generation` and `creation_timestamp` are
    /// restored afterwards. A closure that leaves the object unchanged
    /// records no event and touches neither map, so a no-op keeps every
    /// tree node and handle shared with snapshots (`Arc::ptr_eq`-based
    /// pruning stays exact). "Unchanged" also asks [`ObjectData::spec_eq`]:
    /// the derived `==` compares quantities by amount, so a write that only
    /// moves a quantity's suffix family (`1Gi` to `1073741824`) changes the
    /// rendered spec although `==` holds. A changing write takes the next
    /// resource version, and bumps `generation` exactly when the rendered
    /// spec changed, decided by [`ObjectData::spec_eq`] without rendering.
    ///
    /// The copy the closure edits is shallow where the store shares: a
    /// custom resource's spec is an `Arc`, so a status write copies the
    /// handle and leaves the declaration where it is.
    pub fn update_with<F: FnOnce(&mut StoredObject)>(
        &mut self,
        key: &ObjKey,
        time: u64,
        f: F,
    ) -> Result<(), String> {
        let resolved = self.resolve_key(key);
        let key = &*resolved;
        let before = self.objects.get(key).ok_or_else(|| {
            format!(
                "{} {}/{} not found",
                key.kind.name(),
                key.namespace,
                key.name
            )
        })?;
        let mut obj = StoredObject::clone(before);
        f(&mut obj);
        // Restore store-managed metadata the closure must not forge.
        obj.meta.uid = before.meta.uid;
        obj.meta.resource_version = before.meta.resource_version;
        obj.meta.generation = before.meta.generation;
        obj.meta.creation_timestamp = before.meta.creation_timestamp;
        if obj.data == before.data && obj.meta == before.meta && obj.data.spec_eq(&before.data) {
            return Ok(());
        }
        obj.meta.resource_version = self.revision + 1;
        if !obj.data.spec_eq(&before.data) {
            obj.meta.generation += 1;
        }
        self.replace(key.clone(), Arc::new(obj), time);
        Ok(())
    }

    /// Installs a changed version of an existing object in both maps and
    /// records the write.
    fn replace(&mut self, key: ObjKey, obj: Arc<StoredObject>, time: u64) {
        *self.objects.get_mut(&key).expect("replace: key exists") = Arc::clone(&obj);
        self.index_put(&key, &obj);
        self.bump(WatchEventKind::Modified, key, time, Some(obj));
    }

    /// Points the state index at `obj`'s current version.
    fn index_put(&mut self, key: &ObjKey, obj: &Arc<StoredObject>) {
        if state::visible(key) {
            self.index.insert(
                state::object_id(key),
                Arc::new(SnapEntry::from_handle(Arc::clone(obj))),
            );
        }
    }

    /// Deletes an object, returning its shared handle.
    pub fn delete(&mut self, key: &ObjKey, time: u64) -> Option<Arc<StoredObject>> {
        let resolved = self.resolve_key(key);
        let key = &*resolved;
        let removed = self.objects.remove(key)?;
        if state::visible(key) {
            self.index.remove(&state::object_id(key));
        }
        if let Some(count) = self.kind_counts.get_mut(&key.kind) {
            *count = count.saturating_sub(1);
        }
        self.bump(WatchEventKind::Deleted, key.clone(), time, None);
        Some(removed)
    }

    /// Lists objects of a kind within a namespace, sorted by name.
    pub fn list(&self, kind: &Kind, namespace: &str) -> Vec<&StoredObject> {
        self.list_shared(kind, namespace)
            .map(|obj| &**obj)
            .collect()
    }

    /// [`ObjectStore::list`] as shared handles, which a caller may clone to
    /// keep an object past its borrow of the store without copying it.
    /// The namespace resolves through the alias as for every keyed
    /// operation.
    pub fn list_shared<'s: 'q, 'q>(
        &'s self,
        kind: &'q Kind,
        namespace: &'q str,
    ) -> impl Iterator<Item = &'s Arc<StoredObject>> + 'q {
        let namespace = self.resolve_ns(namespace);
        self.objects
            .range_from_by(move |k| k.cmp_parts(kind, namespace, ""))
            .take_while(move |(k, _)| &k.kind == kind && k.namespace == namespace)
            .map(|(_, obj)| obj)
    }

    /// Lists objects of a kind across all namespaces.
    pub fn list_all(&self, kind: &Kind) -> Vec<&StoredObject> {
        self.objects
            .range_from_by(|k| k.cmp_parts(kind, "", ""))
            .take_while(|(k, _)| &k.kind == kind)
            .map(|(_, obj)| &**obj)
            .collect()
    }

    /// Iterates over every stored object.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjKey, &StoredObject)> {
        self.objects.iter().map(|(k, obj)| (k, &**obj))
    }

    /// Iterates over every stored object as a shared handle.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&ObjKey, &Arc<StoredObject>)> {
        self.objects.iter()
    }

    /// The operator-visible objects (everything outside
    /// [`crate::BACKGROUND_NAMESPACE`]) by `kind/namespace/name`. Cloning
    /// it is the O(1) state snapshot the oracles take.
    pub fn state_index(&self) -> &StateIndex {
        &self.index
    }

    /// Commutative digest over every stored object, computed incrementally.
    ///
    /// Delegates to [`PMap::digest_sum`]: per-subtree sums are cached inside
    /// the tree nodes, so after k writes only the k copied root-to-leaf
    /// paths are re-hashed — the rest of the store digests for free. All
    /// callers must pass the same (pure) `entry_digest` function for the
    /// lifetime of a store and its snapshots; see `PMap::digest_sum`.
    pub fn digest_sum<F: Fn(&ObjKey, &Arc<StoredObject>) -> u64>(&self, entry_digest: &F) -> u64 {
        self.objects.digest_sum(entry_digest)
    }

    /// Counts objects shared with at least one snapshot versus uniquely
    /// owned by this store: `(shared, uniquely_owned)`. An object counts as
    /// shared when it sits under a tree node still referenced by another
    /// snapshot, or when its payload `Arc` itself is multiply referenced.
    pub fn sharing_stats(&self) -> (usize, usize) {
        // The store's own event log holds a handle per recorded write (how
        // index sync avoids per-key store descents), and its state index
        // one per visible object; those references are part of this store,
        // not divergence, so discount them.
        let mut event_refs: BTreeMap<usize, usize> = BTreeMap::new();
        for event in self.events.iter() {
            if let Some(obj) = &event.obj {
                *event_refs.entry(Arc::as_ptr(obj) as usize).or_insert(0) += 1;
            }
        }
        self.objects.sharing_stats(|key, obj| {
            let own = 1
                + usize::from(state::visible(key))
                + event_refs
                    .get(&(Arc::as_ptr(obj) as usize))
                    .copied()
                    .unwrap_or(0);
            Arc::strong_count(obj) > own
        })
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Returns watch events with revision greater than `after_revision`.
    ///
    /// Events at or below [`ObjectStore::events_floor`] may have been
    /// compacted away; asking for them returns only what survives.
    pub fn events_since(&self, after_revision: u64) -> &[WatchEvent] {
        let start = self
            .events
            .partition_point(|e| e.revision <= after_revision);
        &self.events[start..]
    }

    /// Drops watch events with revision at or below `below_revision`,
    /// returning how many were dropped. Object state, revisions, and uid
    /// assignment are untouched — only the log shrinks. Snapshots holding
    /// the shared log are unaffected (the log is copy-on-write).
    pub fn compact_events(&mut self, below_revision: u64) -> usize {
        let cut = self
            .events
            .partition_point(|e| e.revision <= below_revision);
        if cut == 0 {
            return 0;
        }
        self.events_floor = self.events[cut - 1].revision;
        Arc::make_mut(&mut self.events).drain(..cut);
        cut
    }

    /// Highest revision whose event has been compacted away (0 = none).
    pub fn events_floor(&self) -> u64 {
        self.events_floor
    }

    /// Number of events currently retained in the log.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// Takes an O(1) copy-on-write snapshot of the store. The snapshot and
    /// the live store share every object payload, tree node, and the event
    /// log; either side pays for a copy only along the paths it later
    /// writes. Used by the differential oracle, checkpoints, and
    /// error-state rollback bookkeeping.
    pub fn snapshot(&self) -> ObjectStore {
        self.clone()
    }

    /// Materializes a fully independent deep copy: every object payload
    /// (a custom resource's shared spec included) and the event log are
    /// re-allocated, sharing nothing with `self`. Only used as the pre-CoW
    /// baseline in benchmarks.
    pub fn deep_clone(&self) -> ObjectStore {
        // `StoredObject::clone` shares a custom resource's spec handle; the
        // baseline must copy that tree too.
        fn unshared(obj: &StoredObject) -> Arc<StoredObject> {
            let mut copy = obj.clone();
            if let ObjectData::Custom { spec, .. } = &mut copy.data {
                *spec = Arc::new(Value::clone(spec));
            }
            Arc::new(copy)
        }
        let mut objects = PMap::new();
        let mut index = PMap::new();
        for (key, obj) in self.objects.iter() {
            let obj = unshared(obj);
            if state::visible(key) {
                index.insert(
                    state::object_id(key),
                    Arc::new(SnapEntry::from_handle(Arc::clone(&obj))),
                );
            }
            objects.insert(key.clone(), obj);
        }
        // Event payloads must reference the clone's objects, not the
        // original's: current versions map to the fresh handle, stale
        // versions (superseded mid-log) get their own deep copy.
        let events: Vec<WatchEvent> = self
            .events
            .iter()
            .map(|event| {
                let obj = event
                    .obj
                    .as_ref()
                    .map(|o| match self.objects.get(&event.key) {
                        Some(cur) if Arc::ptr_eq(cur, o) => {
                            Arc::clone(objects.get(&event.key).expect("key is live"))
                        }
                        _ => unshared(o),
                    });
                WatchEvent {
                    revision: event.revision,
                    time: event.time,
                    kind: event.kind,
                    key: event.key.clone(),
                    obj,
                }
            })
            .collect();
        ObjectStore {
            objects,
            index,
            revision: self.revision,
            next_uid: self.next_uid,
            events: Arc::new(events),
            kind_revision: self.kind_revision.clone(),
            kind_counts: self.kind_counts.clone(),
            events_floor: self.events_floor,
            ns_alias: self.ns_alias.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::{ConfigMap, Pod};

    fn cm(name: &str) -> (ObjectMeta, ObjectData) {
        (
            ObjectMeta::named("ns", name),
            ObjectData::ConfigMap(ConfigMap::default()),
        )
    }

    #[test]
    fn create_assigns_uid_and_version() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 5).unwrap();
        let obj = store.get(&key).unwrap();
        assert_eq!(obj.meta.uid, 1);
        assert_eq!(obj.meta.resource_version, 1);
        assert_eq!(obj.meta.generation, 1);
        assert_eq!(obj.meta.creation_timestamp, 5);
        let (meta2, data2) = cm("b");
        let key2 = store.create(meta2, data2, 6).unwrap();
        assert_eq!(store.get(&key2).unwrap().meta.uid, 2);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        store.create(meta.clone(), data.clone(), 0).unwrap();
        assert!(store.create(meta, data, 0).is_err());
    }

    #[test]
    fn update_bumps_generation_only_on_spec_change() {
        let mut store = ObjectStore::new();
        let key = store
            .create(
                ObjectMeta::named("ns", "p"),
                ObjectData::Pod(Pod::default()),
                0,
            )
            .unwrap();
        // Status-only change: phase.
        store
            .update_with(&key, 1, |o| {
                if let ObjectData::Pod(p) = &mut o.data {
                    p.phase = crate::objects::PodPhase::Running;
                }
            })
            .unwrap();
        assert_eq!(store.get(&key).unwrap().meta.generation, 1);
        // Spec change: new container.
        store
            .update_with(&key, 2, |o| {
                if let ObjectData::Pod(p) = &mut o.data {
                    p.containers.push(crate::objects::Container::default());
                }
            })
            .unwrap();
        assert_eq!(store.get(&key).unwrap().meta.generation, 2);
    }

    #[test]
    fn statefulset_and_custom_generation_moves_only_with_spec() {
        use crate::objects::StatefulSet;
        use crdspec::Value;
        let mut store = ObjectStore::new();
        let sts = store
            .create(
                ObjectMeta::named("ns", "s"),
                ObjectData::StatefulSet(StatefulSet::default()),
                0,
            )
            .unwrap();
        let cr = store
            .create(
                ObjectMeta::named("ns", "c"),
                ObjectData::Custom {
                    kind: "Demo".to_string(),
                    spec: Arc::new(Value::object([("replicas", Value::from(1))])),
                    status: Value::empty_object(),
                },
                0,
            )
            .unwrap();
        let generation =
            |store: &ObjectStore, key: &ObjKey| store.get(key).unwrap().meta.generation;
        let version =
            |store: &ObjectStore, key: &ObjKey| store.get(key).unwrap().meta.resource_version;

        // Status-only writes (and the unrendered selector) keep generation.
        let before = version(&store, &sts);
        store
            .update_with(&sts, 1, |o| {
                if let ObjectData::StatefulSet(s) = &mut o.data {
                    s.ready_replicas = 2;
                    s.observed_generation = 1;
                    s.selector.match_labels.insert("app".into(), "s".into());
                }
            })
            .unwrap();
        assert!(version(&store, &sts) > before);
        assert_eq!(generation(&store, &sts), 1);
        let before = version(&store, &cr);
        store
            .update_with(&cr, 2, |o| {
                if let ObjectData::Custom { status, .. } = &mut o.data {
                    status.set_path(&"ready".parse().unwrap(), Value::from(true));
                }
            })
            .unwrap();
        assert!(version(&store, &cr) > before);
        assert_eq!(generation(&store, &cr), 1);

        // A template or spec change bumps it.
        store
            .update_with(&sts, 3, |o| {
                if let ObjectData::StatefulSet(s) = &mut o.data {
                    s.template.labels.insert("app".into(), "s".into());
                }
            })
            .unwrap();
        assert_eq!(generation(&store, &sts), 2);
        store
            .update_with(&cr, 4, |o| {
                if let ObjectData::Custom { spec, .. } = &mut o.data {
                    Arc::make_mut(spec).set_path(&"replicas".parse().unwrap(), Value::from(3));
                }
            })
            .unwrap();
        assert_eq!(generation(&store, &cr), 2);
    }

    #[test]
    fn a_suffix_family_change_alone_is_a_write() {
        use crate::objects::{ClaimPhase, PersistentVolumeClaim};
        let mut store = ObjectStore::new();
        let key = store
            .create(
                ObjectMeta::named("ns", "data"),
                ObjectData::PersistentVolumeClaim(PersistentVolumeClaim {
                    size: "1Gi".parse().unwrap(),
                    storage_class: "standard".to_string(),
                    phase: ClaimPhase::Pending,
                }),
                0,
            )
            .unwrap();
        let before = store.revision();
        // Same amount, other suffix family: `==` holds, the render moves.
        store
            .update_with(&key, 1, |o| {
                if let ObjectData::PersistentVolumeClaim(p) = &mut o.data {
                    p.size = "1073741824".parse().unwrap();
                }
            })
            .unwrap();
        let obj = store.get(&key).unwrap();
        assert_eq!(store.revision(), before + 1);
        assert_eq!(obj.meta.generation, 2);
        assert_eq!(
            obj.data.spec_value().get("size"),
            Some(&crdspec::Value::from("1073741824"))
        );
    }

    #[test]
    fn noop_update_records_no_event() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        let before = store.events_since(0).len();
        store.update_with(&key, 1, |_| {}).unwrap();
        assert_eq!(store.events_since(0).len(), before);
    }

    #[test]
    fn noop_update_preserves_shared_handle() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        let snap = store.snapshot();
        store.update_with(&key, 1, |_| {}).unwrap();
        // The no-op kept the original Arc: snapshot and store still share
        // the payload, which is what makes ptr_eq pruning sound.
        assert!(Arc::ptr_eq(
            store.get_shared(&key).unwrap(),
            snap.get_shared(&key).unwrap()
        ));
        // ...and it copied no tree node: both maps still share their roots.
        let mut walk = store.objects.diff(&snap.objects);
        assert_eq!(walk.by_ref().count(), 0);
        assert_eq!(walk.visited(), 2);
        let mut walk = store.index.diff(&snap.index);
        assert_eq!(walk.by_ref().count(), 0);
        assert_eq!(walk.visited(), 2);
        // A real change replaces the handle in the store only.
        store
            .update_with(&key, 2, |o| {
                if let ObjectData::ConfigMap(c) = &mut o.data {
                    c.data.insert("k".into(), "v".into());
                }
            })
            .unwrap();
        assert!(!Arc::ptr_eq(
            store.get_shared(&key).unwrap(),
            snap.get_shared(&key).unwrap()
        ));
    }

    #[test]
    fn sharing_stats_tracks_divergence() {
        let mut store = ObjectStore::new();
        for name in ["a", "b", "c"] {
            let (meta, data) = cm(name);
            store.create(meta, data, 0).unwrap();
        }
        assert_eq!(store.sharing_stats(), (0, 3));
        let snap = store.snapshot();
        assert_eq!(store.sharing_stats(), (3, 0));
        let key = ObjKey::new(Kind::ConfigMap, "ns", "b");
        store
            .update_with(&key, 1, |o| {
                if let ObjectData::ConfigMap(c) = &mut o.data {
                    c.data.insert("k".into(), "v".into());
                }
            })
            .unwrap();
        assert_eq!(store.sharing_stats(), (2, 1));
        drop(snap);
        assert_eq!(store.sharing_stats(), (0, 3));
    }

    #[test]
    fn delete_emits_event() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        assert!(store.delete(&key, 3).is_some());
        assert!(store.get(&key).is_none());
        let events = store.events_since(0);
        assert_eq!(events.last().unwrap().kind, WatchEventKind::Deleted);
        assert!(store.delete(&key, 3).is_none());
    }

    #[test]
    fn events_since_filters_by_revision() {
        let mut store = ObjectStore::new();
        for name in ["a", "b", "c"] {
            let (meta, data) = cm(name);
            store.create(meta, data, 0).unwrap();
        }
        assert_eq!(store.events_since(0).len(), 3);
        assert_eq!(store.events_since(2).len(), 1);
        assert_eq!(store.events_since(3).len(), 0);
    }

    #[test]
    fn list_is_scoped_and_sorted() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("b");
        store.create(meta, data, 0).unwrap();
        let (meta, data) = cm("a");
        store.create(meta, data, 0).unwrap();
        store
            .create(
                ObjectMeta::named("other", "c"),
                ObjectData::ConfigMap(ConfigMap::default()),
                0,
            )
            .unwrap();
        let names: Vec<&str> = store
            .list(&Kind::ConfigMap, "ns")
            .iter()
            .map(|o| o.meta.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(store.list_all(&Kind::ConfigMap).len(), 3);
    }

    #[test]
    fn kind_index_survives_create_delete_snapshot() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        store
            .create(
                ObjectMeta::named("ns", "p"),
                ObjectData::Pod(Pod::default()),
                0,
            )
            .unwrap();
        assert_eq!(store.list_all(&Kind::ConfigMap).len(), 1);
        assert_eq!(store.list_all(&Kind::Pod).len(), 1);
        let snap = store.snapshot();
        store.delete(&key, 1);
        assert!(store.list_all(&Kind::ConfigMap).is_empty());
        assert!(store.list(&Kind::ConfigMap, "ns").is_empty());
        assert_eq!(snap.list_all(&Kind::ConfigMap).len(), 1);
        // Recreating after delete re-registers the key.
        let (meta, data) = cm("a");
        store.create(meta, data, 2).unwrap();
        assert_eq!(store.list(&Kind::ConfigMap, "ns").len(), 1);
    }

    #[test]
    fn kinds_dirty_since_tracks_per_kind_revisions() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap(); // rev 1, ConfigMap
        store
            .create(
                ObjectMeta::named("ns", "p"),
                ObjectData::Pod(Pod::default()),
                0,
            )
            .unwrap(); // rev 2, Pod
        assert!(store.kinds_dirty_since(&[Kind::ConfigMap], 0));
        assert!(!store.kinds_dirty_since(&[Kind::ConfigMap], 1));
        assert!(store.kinds_dirty_since(&[Kind::Pod], 1));
        assert!(!store.kinds_dirty_since(&[Kind::Pod, Kind::ConfigMap], 2));
        assert!(!store.kinds_dirty_since(&[Kind::Node], 0));
        store.delete(&key, 1); // rev 3, ConfigMap
        assert!(store.kinds_dirty_since(&[Kind::ConfigMap], 2));
    }

    #[test]
    fn compaction_drops_old_events_only() {
        let mut store = ObjectStore::new();
        for name in ["a", "b", "c", "d"] {
            let (meta, data) = cm(name);
            store.create(meta, data, 0).unwrap();
        }
        assert_eq!(store.compact_events(2), 2);
        assert_eq!(store.events_floor(), 2);
        assert_eq!(store.events_len(), 2);
        // Consumers above the floor see exactly what they saw before.
        assert_eq!(store.events_since(2).len(), 2);
        assert_eq!(store.events_since(3).len(), 1);
        // Revision and object state are untouched.
        assert_eq!(store.revision(), 4);
        assert_eq!(store.len(), 4);
        // Compacting below the floor is a no-op.
        assert_eq!(store.compact_events(1), 0);
        assert_eq!(store.events_floor(), 2);
    }

    #[test]
    fn compaction_does_not_leak_into_snapshots() {
        let mut store = ObjectStore::new();
        for name in ["a", "b", "c", "d"] {
            let (meta, data) = cm(name);
            store.create(meta, data, 0).unwrap();
        }
        let snap = store.snapshot();
        store.compact_events(3);
        // The snapshot still owns the uncompacted log.
        assert_eq!(snap.events_len(), 4);
        assert_eq!(snap.events_floor(), 0);
        assert_eq!(snap.events_since(0).len(), 4);
        assert_eq!(store.events_len(), 1);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        let snap = store.snapshot();
        store.delete(&key, 1);
        assert!(snap.get(&key).is_some());
        assert!(store.get(&key).is_none());
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut store = ObjectStore::new();
        let (meta, data) = cm("a");
        let key = store.create(meta, data, 0).unwrap();
        let cr = store
            .create(
                ObjectMeta::named("ns", "c"),
                ObjectData::Custom {
                    kind: "Demo".to_string(),
                    spec: Arc::new(Value::object([("replicas", Value::from(1))])),
                    status: Value::empty_object(),
                },
                0,
            )
            .unwrap();
        // A status write leaves the spec shared between the two versions,
        // one of which only the event log still holds.
        store
            .update_with(&cr, 1, |o| {
                if let ObjectData::Custom { status, .. } = &mut o.data {
                    status.set_path(&"ready".parse().unwrap(), Value::from(true));
                }
            })
            .unwrap();
        let deep = store.deep_clone();
        for key in [&key, &cr] {
            assert!(!Arc::ptr_eq(
                store.get_shared(key).unwrap(),
                deep.get_shared(key).unwrap()
            ));
        }
        let spec = |obj: &StoredObject| match &obj.data {
            ObjectData::Custom { spec, .. } => Arc::clone(spec),
            other => panic!("unexpected payload {other:?}"),
        };
        let ours = spec(store.get(&cr).unwrap());
        let theirs = spec(deep.get(&cr).unwrap());
        assert_eq!(ours, theirs);
        assert!(!Arc::ptr_eq(&ours, &theirs), "the clone shares a CR spec");
        // The superseded version in the clone's event log has its own spec.
        for event in deep.events_since(0) {
            if let Some(obj) = event.obj.as_deref().filter(|_| event.key == cr) {
                assert!(!Arc::ptr_eq(&spec(obj), &ours));
            }
        }
        assert_eq!(deep.revision(), store.revision());
        assert_eq!(deep.events_len(), store.events_len());
        assert_eq!(store.sharing_stats(), (0, 2));
    }
}
