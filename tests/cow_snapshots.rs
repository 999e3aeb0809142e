//! Copy-on-write snapshot isolation tests.
//!
//! The object store's `snapshot()` is an O(1) handle copy with structural
//! sharing: the snapshot and its parent share every object payload, tree
//! node, and the watch-event log until one side writes. These tests pin
//! the two user-visible guarantees that sharing must never weaken:
//!
//! 1. Interleaved mutations on a snapshot and its parent never bleed into
//!    each other — each side diverges exactly as if it held a deep copy
//!    (checked against independent `BTreeMap` models under generated op
//!    sequences).
//! 2. `compact_events` on a restored checkpoint is local to that clone:
//!    watch consumers keep their cursors on the restored side, and the
//!    original cluster's shared event log is untouched.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simkube::{
    ClusterConfig, ConfigMap, Kind, ObjKey, ObjectData, ObjectMeta, ObjectStore, SimCluster,
};

/// A one-entry config map payload carrying `value` under the key `"k"`.
fn cm(value: &str) -> ObjectData {
    let mut data = BTreeMap::new();
    data.insert("k".to_string(), value.to_string());
    ObjectData::ConfigMap(ConfigMap { data })
}

/// Renders a store as `name -> value` for comparison against the model.
fn contents(store: &ObjectStore) -> BTreeMap<String, String> {
    store
        .iter()
        .map(|(key, obj)| {
            let ObjectData::ConfigMap(c) = &obj.data else {
                panic!("unexpected kind in test store: {:?}", key.kind);
            };
            (
                key.name.clone(),
                c.data.get("k").cloned().unwrap_or_default(),
            )
        })
        .collect()
}

/// Applies one generated op to a (store, model) pair, keeping both in
/// lockstep. `action`: 0 = create, 1 = update, 2 = delete.
fn apply(
    store: &mut ObjectStore,
    model: &mut BTreeMap<String, String>,
    action: u8,
    name: &str,
    value: &str,
    time: u64,
) {
    let key = ObjKey::new(Kind::ConfigMap, "ns", name);
    match action {
        0 if !model.contains_key(name) => {
            store
                .create(ObjectMeta::named("ns", name), cm(value), time)
                .expect("create of absent object");
            model.insert(name.to_string(), value.to_string());
        }
        1 if model.contains_key(name) => {
            store
                .update_with(&key, time, |obj| obj.data = cm(value))
                .expect("update of present object");
            model.insert(name.to_string(), value.to_string());
        }
        2 if model.contains_key(name) => {
            assert!(
                store.delete(&key, time).is_some(),
                "delete of present object"
            );
            model.remove(name);
        }
        _ => {} // op does not apply to the current state; skip
    }
}

proptest! {
    /// Interleaved mutations on a parent store and a snapshot taken from
    /// it diverge independently: after any op sequence, each side matches
    /// its own deep-copy model exactly.
    #[test]
    fn snapshot_and_parent_never_bleed(
        ops in prop::collection::vec(
            (any::<bool>(), 0u8..3, "[a-e]", "[a-z]{1,6}"),
            1..60,
        )
    ) {
        let mut parent = ObjectStore::new();
        let mut parent_model = BTreeMap::new();
        // Seed shared state so the snapshot starts non-empty.
        for name in ["a", "b", "c"] {
            apply(&mut parent, &mut parent_model, 0, name, "seed", 0);
        }
        let mut snap = parent.snapshot();
        let mut snap_model = parent_model.clone();

        for (i, (on_parent, action, name, value)) in ops.iter().enumerate() {
            let time = 1 + i as u64;
            if *on_parent {
                apply(&mut parent, &mut parent_model, *action, name, value, time);
            } else {
                apply(&mut snap, &mut snap_model, *action, name, value, time);
            }
        }

        prop_assert_eq!(contents(&parent), parent_model);
        prop_assert_eq!(contents(&snap), snap_model);
    }

    /// The event logs diverge independently too: ops on one side never
    /// append to (or drop from) the other side's shared log.
    #[test]
    fn event_logs_diverge_independently(extra in 1usize..8) {
        let mut parent = ObjectStore::new();
        for name in ["a", "b", "c"] {
            parent
                .create(ObjectMeta::named("ns", name), cm("seed"), 0)
                .expect("seed create");
        }
        let snap = parent.snapshot();
        let snap_events = snap.events_len();
        for i in 0..extra {
            parent
                .create(ObjectMeta::named("ns", &format!("extra-{i}")), cm("v"), 1)
                .expect("parent create");
        }
        prop_assert_eq!(parent.events_len(), snap_events + extra);
        prop_assert_eq!(snap.events_len(), snap_events);
    }
}

/// Compacting the event log on a restored checkpoint preserves watch
/// cursors on the restored side and leaves the original cluster's shared
/// log untouched.
#[test]
fn compaction_on_restored_checkpoint_preserves_watch_cursors() {
    let mut cluster = SimCluster::new(ClusterConfig::default());
    for i in 0..6 {
        let time = cluster.now();
        cluster
            .api_mut()
            .store_mut()
            .create(ObjectMeta::named("ns", &format!("cm-{i}")), cm("v"), time)
            .expect("create");
    }
    // A watch consumer partway through the log.
    let cursor = cluster.api().store().revision() - 3;
    let tail: Vec<u64> = cluster
        .api()
        .store()
        .events_since(cursor)
        .iter()
        .map(|e| e.revision)
        .collect();
    assert_eq!(tail.len(), 3, "consumer has a non-empty tail to protect");

    let cp = cluster.checkpoint();
    let mut restored = SimCluster::from_checkpoint(&cp);
    let original_events = cluster.api().store().events_len();

    // Compact everything the consumer has already seen — on the clone.
    let dropped = restored.api_mut().store_mut().compact_events(cursor);
    assert!(dropped > 0, "compaction must drop the consumed prefix");

    // The consumer's cursor still yields the identical tail on the clone.
    let restored_tail: Vec<u64> = restored
        .api()
        .store()
        .events_since(cursor)
        .iter()
        .map(|e| e.revision)
        .collect();
    assert_eq!(tail, restored_tail);
    assert_eq!(restored.api().store().events_floor(), cursor);

    // The original cluster's log is untouched: the shared buffer was
    // copied on write, not drained in place.
    assert_eq!(cluster.api().store().events_len(), original_events);
    let original_tail: Vec<u64> = cluster
        .api()
        .store()
        .events_since(cursor)
        .iter()
        .map(|e| e.revision)
        .collect();
    assert_eq!(tail, original_tail);

    // And the checkpoint itself still replays its full log.
    let from_cp = SimCluster::from_checkpoint(&cp);
    assert_eq!(from_cp.api().store().events_len(), original_events);
}
