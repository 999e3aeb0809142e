//! The operator-visible state view that Acto's oracles compare.
//!
//! The object store keeps a [`StateIndex`] beside its object map: one
//! [`SnapEntry`] per object outside [`BACKGROUND_NAMESPACE`], keyed
//! `kind/namespace/name`. Every store write path keeps it current, so a
//! state snapshot is a clone of the index (O(1)), and two snapshots are
//! compared with [`PMap::diff`] in time proportional to what changed
//! between them, not to the cluster's size.

use std::sync::{Arc, OnceLock};

use crdspec::Value;

use crate::cluster::BACKGROUND_NAMESPACE;
use crate::objects::StoredObject;
use crate::pmap::PMap;
use crate::store::ObjKey;

/// Operator-visible objects by id (`kind/namespace/name`), in id order.
/// Clones share every entry, so a masked rendering computed through one
/// snapshot serves every snapshot holding that object version.
pub type StateIndex = PMap<String, Arc<SnapEntry>>;

/// Field names masked as nondeterministic before state comparison. The
/// remaining fields are the "deterministic fields" of §6.1.3.
pub const MASKED_FIELDS: &[&str] = &[
    "uid",
    "resourceVersion",
    "generation",
    "creationTimestamp",
    "deletionTimestamp",
    "restarts",
    "nodeName",
    "observedGeneration",
    // Claim wiring is platform bookkeeping: volume claim templates are
    // immutable and retained claims outlive pods, so pod claim references
    // depend on creation order, not on the declaration.
    "claims",
];

/// Removes nondeterministic fields recursively.
pub fn mask_value(v: &Value) -> Value {
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !MASKED_FIELDS.contains(&k.as_str()))
                .map(|(k, val)| (k.clone(), mask_value(val)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(mask_value).collect()),
        other => other.clone(),
    }
}

/// The index id of a store key: `kind/namespace/name`.
pub fn object_id(key: &ObjKey) -> String {
    format!("{}/{}/{}", key.kind.name(), key.namespace, key.name)
}

/// Whether objects under `key` belong in the [`StateIndex`]. Background
/// scale-workload pods are inert cluster scaffolding no operator manages.
pub(crate) fn visible(key: &ObjKey) -> bool {
    key.namespace != BACKGROUND_NAMESPACE
}

/// One object in a state snapshot: the shared store handle plus a lazily
/// rendered masked value.
///
/// Two entries holding the same `Arc` are *known identical* without
/// rendering anything — the store never mutates a shared object in place
/// (writes allocate a fresh `Arc`, and no-op updates keep the original
/// handle), so pointer equality implies value equality. That makes
/// [`SnapEntry::same_object`] a sound fast path for the differential
/// oracles.
///
/// The converse does not hold — distinct handles may still render equal —
/// so every comparison falls back to the masked values on pointer
/// inequality.
#[derive(Debug, Clone)]
pub struct SnapEntry {
    /// The store handle; `None` for entries built directly from values
    /// (tests, replay tooling).
    handle: Option<Arc<StoredObject>>,
    /// Masked rendering, computed on first use.
    masked: OnceLock<Value>,
}

impl SnapEntry {
    /// Wraps a shared store handle; the masked value renders lazily.
    pub fn from_handle(handle: Arc<StoredObject>) -> SnapEntry {
        SnapEntry {
            handle: Some(handle),
            masked: OnceLock::new(),
        }
    }

    /// Wraps an already-rendered value verbatim (no masking is applied).
    pub fn from_value(value: Value) -> SnapEntry {
        SnapEntry {
            handle: None,
            masked: OnceLock::from(value),
        }
    }

    /// The store object, when the entry was built from a handle.
    pub fn object(&self) -> Option<&StoredObject> {
        self.handle.as_deref()
    }

    /// The masked rendering of this object.
    pub fn masked(&self) -> &Value {
        self.masked.get_or_init(|| {
            let obj = self
                .handle
                .as_ref()
                .expect("SnapEntry has neither handle nor value");
            mask_value(&obj.to_value())
        })
    }

    /// `true` when both entries hold the same store object by pointer
    /// identity — a proof of equality that skips rendering and diffing.
    pub fn same_object(&self, other: &SnapEntry) -> bool {
        match (&self.handle, &other.handle) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for SnapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.same_object(other) || self.masked() == other.masked()
    }
}
