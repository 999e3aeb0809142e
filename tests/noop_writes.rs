//! A write that changes nothing copies nothing.
//!
//! The steady state of a reconcile loop is made of writes that find the
//! store already as they want it: the API server re-applies an unchanged
//! object, an operator rewrites the custom-resource status it wrote last
//! pass, a controller pass finds every status current. Each must leave the
//! stored `Arc`, the store revision and the watch-event log as they were,
//! and must not copy the object to find that out.
//!
//! Copies are counted by this binary's global allocator, per thread: every
//! object under test carries a marker string of a length nothing else here
//! allocates, so a copy of the object is an allocation of exactly that
//! size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use crdspec::{Schema, Value};
use simkube::controllers::run_all;
use simkube::objects::{Pdb, PodTemplate};
use simkube::{
    ApiServer, Container, Deployment, Kind, LabelSelector, ObjKey, ObjectData, ObjectMeta,
    ObjectStore, PlatformBugs, Service, StatefulSet, StoredObject,
};

/// Length of the marker string; no other allocation in these tests has it.
const MARKER_LEN: usize = 7919;

thread_local! {
    static MARKER_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts, per thread, the allocations of exactly [`MARKER_LEN`] bytes.
struct MarkerCounting;

fn note(size: usize) {
    if size == MARKER_LEN {
        let _ = MARKER_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for MarkerCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: MarkerCounting = MarkerCounting;

fn marker() -> String {
    "m".repeat(MARKER_LEN)
}

/// Runs `f`, returning its result and the object copies it made on this
/// thread.
fn copies_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = MARKER_ALLOCS.with(Cell::get);
    let result = f();
    (result, MARKER_ALLOCS.with(Cell::get) - before)
}

/// What a write that changes nothing must leave alone.
struct Untouched {
    handles: Vec<Arc<StoredObject>>,
    revision: u64,
    events: usize,
}

impl Untouched {
    fn of(store: &ObjectStore, keys: &[ObjKey]) -> Untouched {
        Untouched {
            handles: keys
                .iter()
                .map(|k| Arc::clone(store.get_shared(k).expect("object exists")))
                .collect(),
            revision: store.revision(),
            events: store.events_len(),
        }
    }

    fn check(&self, store: &ObjectStore, keys: &[ObjKey]) {
        for (key, handle) in keys.iter().zip(&self.handles) {
            let now = store.get_shared(key).expect("object exists");
            assert!(Arc::ptr_eq(now, handle), "{key:?} was replaced");
        }
        assert_eq!(store.revision(), self.revision, "the revision moved");
        assert_eq!(store.events_len(), self.events, "an event was logged");
    }
}

fn marked_meta(name: &str) -> ObjectMeta {
    let mut meta = ObjectMeta::named("acto", name);
    meta.annotations.insert("marker".to_string(), marker());
    meta
}

fn template(app: &str) -> PodTemplate {
    PodTemplate {
        labels: [("app".to_string(), app.to_string())].into_iter().collect(),
        containers: vec![Container {
            name: app.to_string(),
            image: format!("{app}:1"),
            ..Container::default()
        }],
        ..PodTemplate::default()
    }
}

fn statefulset(replicas: i32) -> ObjectData {
    ObjectData::StatefulSet(StatefulSet {
        replicas,
        selector: LabelSelector::match_labels([("app", "web")]),
        template: template("web"),
        service_name: "web".to_string(),
        ..StatefulSet::default()
    })
}

#[test]
fn reapplying_an_unchanged_object_copies_nothing() {
    let mut api = ApiServer::new(PlatformBugs::none());
    let mut meta = marked_meta("web");
    meta.labels.insert("app".to_string(), "web".to_string());
    let key = api.apply_object(meta.clone(), statefulset(3), 1).unwrap();
    // Controller-owned status the apply does not name, and an annotation
    // another writer stamped; re-applying must keep both without a write.
    api.store_mut()
        .update_with(&key, 2, |o| {
            o.meta
                .annotations
                .insert("stamped".to_string(), "yes".to_string());
            if let ObjectData::StatefulSet(s) = &mut o.data {
                s.ready_replicas = 2;
                s.observed_generation = 1;
            }
        })
        .unwrap();
    let keys = [key.clone()];
    let seen = Untouched::of(api.store(), &keys);

    let (again_meta, again_data) = (meta.clone(), statefulset(3));
    let (result, copies) = copies_during(|| api.apply_object(again_meta, again_data, 3));
    assert_eq!(result.unwrap(), key);
    assert_eq!(copies, 0, "re-applying an unchanged object copied it");
    seen.check(api.store(), &keys);

    // The count does see a copy: an apply that changes the spec writes.
    let (changed_meta, changed_data) = (meta.clone(), statefulset(4));
    let (result, copies) = copies_during(|| api.apply_object(changed_meta, changed_data, 4));
    result.unwrap();
    assert!(copies >= 1, "a real write went uncounted");
    assert_eq!(api.store().revision(), seen.revision + 1);
    let stored = api.get(&key).unwrap();
    assert_eq!(stored.meta.annotations.get("stamped").unwrap(), "yes");
    match &stored.data {
        ObjectData::StatefulSet(s) => assert_eq!((s.replicas, s.ready_replicas), (4, 2)),
        other => panic!("unexpected payload {other:?}"),
    }
}

#[test]
fn rewriting_an_unchanged_custom_status_copies_nothing() {
    let mut api = ApiServer::new(PlatformBugs::none());
    api.register_crd("Widget", Schema::object().prop("size", Schema::integer()));
    let spec = Value::object([("size", Value::from(3i64))]);
    let key = api.create_custom("acto", "w", "Widget", spec, 1).unwrap();
    let status = || {
        Value::object([
            ("phase", Value::from("Ready")),
            ("note", Value::from(marker())),
        ])
    };
    api.update_custom_status(&key, status(), 2).unwrap();
    let keys = [key.clone()];
    let seen = Untouched::of(api.store(), &keys);

    let again = status();
    let (result, copies) = copies_during(|| api.update_custom_status(&key, again, 3));
    result.unwrap();
    assert_eq!(copies, 0, "rewriting an unchanged status copied the object");
    seen.check(api.store(), &keys);

    // A missing object is still an error, not a silent no-op.
    let missing = ObjKey::new(Kind::Custom("Widget".to_string()), "acto", "gone");
    assert!(api.update_custom_status(&missing, status(), 4).is_err());
}

#[test]
fn a_controller_pass_with_nothing_to_change_copies_nothing() {
    let bugs = PlatformBugs::none();
    let mut store = ObjectStore::new();
    let web = LabelSelector::match_labels([("app", "web")]);
    let objects = [
        statefulset(2),
        ObjectData::Deployment(Deployment {
            replicas: 1,
            selector: LabelSelector::match_labels([("app", "api")]),
            template: template("api"),
            ..Deployment::default()
        }),
        ObjectData::Service(Service {
            selector: web.clone(),
            ports: vec![80],
            ..Service::default()
        }),
        ObjectData::PodDisruptionBudget(Pdb {
            selector: web,
            min_available: 1,
            ..Pdb::default()
        }),
    ];
    let names = ["web", "api", "web", "web"];
    let keys: Vec<ObjKey> = objects
        .into_iter()
        .zip(names)
        .map(|(data, name)| store.create(marked_meta(name), data, 0).unwrap())
        .collect();

    // Drive the controllers to their fixed point, standing in for the
    // kubelet by starting every pod they create.
    let mut time = 0;
    loop {
        time += 1;
        let changed = run_all(&mut store, time, bugs);
        let pending: Vec<ObjKey> = store
            .list(&Kind::Pod, "acto")
            .iter()
            .filter(|o| matches!(&o.data, ObjectData::Pod(p) if !p.ready))
            .map(|o| ObjKey::new(Kind::Pod, "acto", &o.meta.name))
            .collect();
        for pod in &pending {
            store
                .update_with(pod, time, |o| {
                    if let ObjectData::Pod(p) = &mut o.data {
                        p.phase = simkube::PodPhase::Running;
                        p.ready = true;
                    }
                })
                .unwrap();
        }
        if !changed && pending.is_empty() {
            break;
        }
        assert!(time < 50, "controllers did not settle");
    }
    assert_eq!(store.list(&Kind::Pod, "acto").len(), 3);
    match &store.get(&keys[2]).unwrap().data {
        ObjectData::Service(s) => assert_eq!(s.endpoints, ["web-0", "web-1"]),
        other => panic!("unexpected payload {other:?}"),
    }

    let seen = Untouched::of(&store, &keys);
    let (changed, copies) = copies_during(|| run_all(&mut store, time + 1, bugs));
    assert!(!changed);
    assert_eq!(copies, 0, "a pass with nothing to change copied an object");
    seen.check(&store, &keys);
}
