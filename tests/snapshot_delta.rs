//! The store's state index and the snapshot diff walk, checked against
//! naive full comparisons.
//!
//! An oracle snapshot is an O(1) clone of the store's operator-visible
//! state index, and two snapshots are compared by a merge walk that skips
//! the subtrees they share. These tests generate store histories —
//! creates, changed and no-op updates and deletes across the `acto`
//! namespace, a namespace reached through an alias and the background
//! namespace, with checkpoint forks — and check that:
//!
//! 1. the index always equals a rebuild from a full store scan;
//! 2. the walk reports exactly the differences a full comparison finds, in
//!    the same order;
//! 3. every comparing oracle returns the alarms of a naive reference loop
//!    over full maps;
//! 4. after k writes to a 20k-pod store the walk visits O(k · log n)
//!    entries (a count, not a timing).

use std::collections::BTreeMap;
use std::sync::Arc;

use acto::oracles::{
    crash_consistency_check, differential_normal, differential_rollback, recovery_check,
    transition_occurred, OracleContext, SnapDelta, SnapEntry, StateSnapshot,
};
use acto::{Alarm, AlarmKind};
use crdspec::{diff, DiffKind, Path, Value};
use simkube::objects::Pod;
use simkube::{
    object_id, ConfigMap, Kind, ObjKey, ObjectData, ObjectMeta, ObjectStore, PersistentVolumeClaim,
    BACKGROUND_NAMESPACE,
};

/// xorshift64: a deterministic stream for generated histories.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The namespace an op names; `acto` lands in `member-b` while the alias
/// is on.
const NAMESPACES: [&str; 3] = ["acto", "member-b", BACKGROUND_NAMESPACE];

fn payload(kind: u64, value: u64) -> ObjectData {
    if kind == 0 {
        let mut data = BTreeMap::new();
        data.insert("k".to_string(), format!("v{value}"));
        ObjectData::ConfigMap(ConfigMap { data })
    } else {
        ObjectData::PersistentVolumeClaim(PersistentVolumeClaim {
            size: "1Gi".parse().expect("quantity"),
            storage_class: format!("class-{value}"),
            phase: Default::default(),
        })
    }
}

/// Applies one generated op; ops that do not fit the current state are
/// skipped. Values come from a small range so changed updates sometimes
/// write what is already stored.
fn step(store: &mut ObjectStore, rng: &mut Rng, time: u64) {
    match rng.below(16) {
        0 => store.set_ns_alias("acto", "member-b"),
        1 => store.clear_ns_alias(),
        _ => {}
    }
    let kind = rng.below(2);
    let namespace = NAMESPACES[rng.below(3) as usize];
    let name = format!("obj-{}", rng.below(12));
    let value = rng.below(4);
    let key = ObjKey::new(
        if kind == 0 {
            Kind::ConfigMap
        } else {
            Kind::PersistentVolumeClaim
        },
        namespace,
        &name,
    );
    match rng.below(5) {
        0 => {
            let _ = store.create(
                ObjectMeta::named(namespace, &name),
                payload(kind, value),
                time,
            );
        }
        1 | 2 => {
            let _ = store.update_with(&key, time, |obj| obj.data = payload(kind, value));
        }
        3 => {
            let _ = store.update_with(&key, time, |_| {});
        }
        _ => {
            store.delete(&key, time);
        }
    }
}

/// Snapshot entries by id in a plain ordered map.
type Full = BTreeMap<String, SnapEntry>;

/// The operator-visible objects from a full store scan, keyed like the
/// index.
fn full_scan(store: &ObjectStore) -> Full {
    store
        .iter_shared()
        .filter(|(key, _)| key.namespace != BACKGROUND_NAMESPACE)
        .map(|(key, obj)| (object_id(key), SnapEntry::from_handle(Arc::clone(obj))))
        .collect()
}

fn snapshot(store: &ObjectStore) -> StateSnapshot {
    store.state_index().clone().into()
}

/// A delta as `(tag, id)`, for comparing walks.
fn tagged(delta: SnapDelta<'_>) -> (char, String) {
    match delta {
        SnapDelta::Left(id, _) => ('<', id.to_string()),
        SnapDelta::Right(id, _) => ('>', id.to_string()),
        SnapDelta::Both(id, ..) => ('=', id.to_string()),
    }
}

/// A full merge of two scans: ids on one side only, and ids held by
/// different store objects.
fn naive_deltas(left: &Full, right: &Full) -> Vec<(char, String)> {
    let mut ids: Vec<&String> = left.keys().chain(right.keys()).collect();
    ids.sort();
    ids.dedup();
    ids.into_iter()
        .filter_map(|id| match (left.get(id), right.get(id)) {
            (Some(_), None) => Some(('<', id.clone())),
            (None, Some(_)) => Some(('>', id.clone())),
            (Some(l), Some(r)) if !l.same_object(r) => Some(('=', id.clone())),
            _ => None,
        })
        .collect()
}

fn is_pvc(id: &str) -> bool {
    id.starts_with("PersistentVolumeClaim/")
}

/// The comparing oracles as full-map loops: every left id in order, then
/// every right-only id in order.
fn naive_compare(
    kind: AlarmKind,
    left: &Full,
    right: &Full,
    changed: &dyn Fn(&str, &crdspec::DiffEntry) -> String,
    lost: &dyn Fn(&str) -> String,
    appeared: Option<&dyn Fn(&str) -> String>,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();
    for (id, l) in left.iter().filter(|(id, _)| !is_pvc(id)) {
        match right.get(id) {
            Some(r) if l.same_object(r) => {}
            Some(r) => {
                for entry in diff(l.masked(), r.masked()) {
                    alarms.push(Alarm::new(kind, changed(id, &entry)));
                }
            }
            None => alarms.push(Alarm::new(kind, lost(id))),
        }
    }
    if let Some(appeared) = appeared {
        for id in right.keys() {
            if !left.contains_key(id) && !is_pvc(id) {
                alarms.push(Alarm::new(kind, appeared(id)));
            }
        }
    }
    alarms
}

/// Every comparing oracle on `(a, b)` against its naive loop; returns the
/// differential oracle's alarm count.
fn check_oracles(a: &ObjectStore, b: &ObjectStore, what: &str) -> usize {
    let (sa, sb) = (snapshot(a), snapshot(b));
    let (fa, fb) = (full_scan(a), full_scan(b));

    // Differential (normal): field text mirrors the oracle's.
    let got = differential_normal(&sa, &rebuilt(&fb));
    let want = naive_compare(
        AlarmKind::DifferentialNormal,
        &fa,
        &fb,
        &|id, e| match &e.kind {
            DiffKind::Changed { left, right } => format!(
                "{id} {}: history-reached {} vs fresh {}",
                e.path, left, right
            ),
            DiffKind::OnlyLeft(v) => format!("{id} {}: only after history = {v}", e.path),
            DiffKind::OnlyRight(v) => format!("{id} {}: only in fresh deployment = {v}", e.path),
        },
        &|id| format!("{id} exists after history but not in a fresh deployment"),
        Some(&|id| format!("{id} missing after history (fresh deployment has it)")),
    );
    assert_eq!(got, want, "differential_normal, {what}");
    let raised = got.len();
    // The store-built snapshot on both sides must agree with itself.
    assert_eq!(
        differential_normal(&sa, &sb),
        want,
        "differential_normal index, {what}"
    );

    let got = differential_rollback(&sa, &sb, true);
    let want = naive_compare(
        AlarmKind::DifferentialRollback,
        &fa,
        &fb,
        &|id, e| format!("{id} {}: not restored by rollback", e.path),
        &|id| format!("{id} lost across rollback"),
        None,
    );
    assert_eq!(got, want, "differential_rollback, {what}");

    let got = recovery_check(&sa, &sb, true, true);
    let want = naive_compare(
        AlarmKind::Recovery,
        &fa,
        &fb,
        &|id, e| format!("{id} {}: not restored after faults", e.path),
        &|id| format!("{id} lost across fault recovery"),
        Some(&|id| format!("{id} appeared during fault recovery")),
    );
    assert_eq!(got, want, "recovery_check, {what}");

    let got = crash_consistency_check(3, &sa, &sb, true, true);
    let want = naive_compare(
        AlarmKind::CrashConsistency,
        &fa,
        &fb,
        &|id, e| match &e.kind {
            DiffKind::Changed { left, right } => format!(
                "crash at write 3: {id} {} diverged: reference {} vs after restart {}",
                e.path, left, right
            ),
            DiffKind::OnlyLeft(v) => format!(
                "crash at write 3: {id} {} missing after restart (reference has {v})",
                e.path
            ),
            DiffKind::OnlyRight(v) => {
                format!("crash at write 3: {id} {} only after restart = {v}", e.path)
            }
        },
        &|id| format!("crash at write 3: {id} lost across crash/restart"),
        Some(&|id| format!("crash at write 3: {id} appeared only in the crashed run")),
    );
    assert_eq!(got, want, "crash_consistency_check, {what}");

    // Transition detection outside one object's id prefix.
    let property: Path = "x".parse().expect("path");
    let declared = Value::from(1);
    for cr_id in ["ConfigMap/acto/obj-1", "Zzz/none"] {
        let ctx = OracleContext {
            property: &property,
            declared: &declared,
            declaration: &declared,
            pre_state: &sa,
            post_state: &sb,
            cr_id,
        };
        let naive = fa
            .iter()
            .filter(|(id, _)| !id.starts_with(cr_id))
            .ne(fb.iter().filter(|(id, _)| !id.starts_with(cr_id)));
        assert_eq!(
            transition_occurred(&ctx),
            naive,
            "transition_occurred, {what}"
        );
    }
    raised
}

/// The same objects as a snapshot built entry by entry, sharing no tree
/// node with the store's index: the walk must fall back to per-entry
/// comparison and still agree.
fn rebuilt(full: &Full) -> StateSnapshot {
    full.iter().map(|(id, e)| (id.clone(), e.clone())).collect()
}

/// Checks the index, the walk and the oracles on one pair of stores;
/// returns the differential oracle's alarm count.
fn check_pair(a: &ObjectStore, b: &ObjectStore, what: &str) -> usize {
    for store in [a, b] {
        let (index, scan) = (snapshot(store), full_scan(store));
        assert!(index.keys().eq(scan.keys()), "index ids, {what}");
        assert!(
            scan.iter()
                .all(|(id, e)| index.get(id).is_some_and(|i| i.same_object(e))),
            "index handles, {what}"
        );
    }
    let walk: Vec<_> = snapshot(a).diff(&snapshot(b)).map(tagged).collect();
    assert_eq!(
        walk,
        naive_deltas(&full_scan(a), &full_scan(b)),
        "walk, {what}"
    );
    check_oracles(a, b, what)
}

#[test]
fn diff_walk_and_oracles_match_full_comparison_on_generated_histories() {
    let mut raised = 0;
    for seed in 1..=48u64 {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut store = ObjectStore::new();
        let mut time = 0;
        for _ in 0..rng.below(120) {
            time += 1;
            step(&mut store, &mut rng, time);
        }
        // A checkpoint, then two forks that diverge from it.
        let checkpoint = store.snapshot();
        let mut fork = checkpoint.snapshot();
        for _ in 0..rng.below(40) {
            time += 1;
            step(&mut store, &mut rng, time);
        }
        for _ in 0..rng.below(40) {
            time += 1;
            step(&mut fork, &mut rng, time);
        }
        raised += check_pair(
            &checkpoint,
            &store,
            &format!("seed {seed} checkpoint→store"),
        );
        raised += check_pair(&store, &fork, &format!("seed {seed} store vs fork"));
        raised += check_pair(&fork, &checkpoint, &format!("seed {seed} fork→checkpoint"));
        assert_eq!(check_pair(&store, &store, &format!("seed {seed} self")), 0);
    }
    // The histories must give the oracles something to report.
    assert!(raised > 100, "only {raised} alarms across all histories");
}

#[test]
fn background_objects_stay_out_of_the_index() {
    let mut store = ObjectStore::new();
    for i in 0..50 {
        store
            .create(
                ObjectMeta::named(BACKGROUND_NAMESPACE, &format!("bg-{i}")),
                ObjectData::Pod(Pod::default()),
                0,
            )
            .expect("create");
    }
    store
        .create(
            ObjectMeta::named("acto", "zk"),
            ObjectData::Pod(Pod::default()),
            0,
        )
        .expect("create");
    assert_eq!(store.len(), 51);
    let ids: Vec<&String> = store.state_index().keys().collect();
    assert_eq!(ids, ["Pod/acto/zk"]);
}

/// A store holding `n` operator-visible pods.
fn pod_store(n: usize) -> ObjectStore {
    let mut store = ObjectStore::new();
    for i in 0..n {
        store
            .create(
                ObjectMeta::named("acto", &format!("pod-{i:05}")),
                ObjectData::Pod(Pod::default()),
                0,
            )
            .expect("create");
    }
    store
}

/// `k` changed writes (label updates, creates and deletes) after a
/// snapshot of a store holding `n` operator-visible pods: the walk's
/// visits, the deltas it found, and the index size.
fn writes_after_snapshot(n: usize, k: usize) -> (usize, usize, usize) {
    let mut store = pod_store(n);
    let before = store.state_index().clone();
    let mut rng = Rng(0x5eed ^ k as u64);
    for w in 0..k {
        let name = format!("pod-{:05}", rng.below(n as u64));
        let key = ObjKey::new(Kind::Pod, "acto", &name);
        match w % 4 {
            0 => {
                store.delete(&key, 1);
            }
            1 => {
                let _ = store.create(
                    ObjectMeta::named("acto", &format!("{name}-new")),
                    ObjectData::Pod(Pod::default()),
                    1,
                );
            }
            _ => {
                let _ = store.update_with(&key, 1, |o| {
                    o.meta.labels.insert("write".into(), w.to_string());
                });
            }
        }
    }
    let after = store.state_index();
    let mut walk = before.diff(after);
    let differing = walk
        .by_ref()
        .filter(|item| match item {
            simkube::pmap::DiffItem::Both(_, l, r) => !Arc::ptr_eq(l, r),
            _ => true,
        })
        .count();
    (walk.visited(), differing, after.len())
}

#[test]
fn diff_visits_scale_with_writes_not_with_cluster_size() {
    let n = 20_000;
    let log_n = (n as f64).log2();
    for k in [1usize, 4, 16, 64] {
        let (visited, differing, len) = writes_after_snapshot(n, k);
        assert!(differing <= k && differing > 0, "k={k}: {differing} deltas");
        // Each write diverges one root-to-leaf path; the walk opens the
        // nodes on it and steps over their (at most 17) children.
        let bound = 8.0 * k as f64 * log_n;
        assert!(
            (visited as f64) <= bound,
            "k={k}: visited {visited} > {bound:.0} (n = {len})"
        );
    }
    // For contrast, two equal maps that share no node cost a full scan.
    let store = pod_store(n);
    let rebuilt: simkube::StateIndex = store
        .state_index()
        .iter()
        .map(|(id, e)| (id.clone(), Arc::clone(e)))
        .fold(simkube::pmap::PMap::new(), |mut m, (id, e)| {
            m.insert(id, e);
            m
        });
    let mut walk = store.state_index().diff(&rebuilt);
    assert_eq!(walk.by_ref().count(), n);
    assert!(walk.visited() >= 2 * n);
}
