//! The API server: validated, versioned access to the object store.
//!
//! Operators and Acto interact with the cluster exclusively through this
//! layer, which enforces name rules, CRD schema validation and selector
//! immutability — and hosts two of the simulated platform bugs (PLAT-2
//! validation mismatch, PLAT-5 selector mutation).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crdspec::{Schema, SchemaKind, Value};

use crate::meta::{validate_name, ObjectMeta};
use crate::objects::{Kind, ObjectData, StoredObject};
use crate::platform::{PlatformBugs, ANNOTATION_TRUNCATION_LIMIT};
use crate::quantity::Quantity;
use crate::store::{ObjKey, ObjectStore, WatchEvent};

/// Errors surfaced by API operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The object name violates DNS-1123 rules.
    InvalidName(String),
    /// The declaration failed schema validation.
    ValidationFailed(Vec<String>),
    /// The target object does not exist.
    NotFound(String),
    /// An object with the same key already exists.
    AlreadyExists(String),
    /// The CRD kind is not registered.
    UnknownKind(String),
    /// An immutable field was modified.
    Immutable(String),
    /// The write lost an optimistic-concurrency race (or a fault plan
    /// injected a synthetic conflict). Retryable.
    Conflict(String),
    /// The operator process died at an armed crash point earlier in this
    /// reconcile pass; the write (and every later write of the pass) is
    /// rejected.
    OperatorCrashed(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::InvalidName(m) => write!(f, "invalid name: {m}"),
            ApiError::ValidationFailed(errs) => {
                write!(f, "validation failed: {}", errs.join("; "))
            }
            ApiError::NotFound(m) => write!(f, "not found: {m}"),
            ApiError::AlreadyExists(m) => write!(f, "already exists: {m}"),
            ApiError::UnknownKind(m) => write!(f, "unknown kind: {m}"),
            ApiError::Immutable(m) => write!(f, "field is immutable: {m}"),
            ApiError::Conflict(m) => write!(f, "write conflict: {m}"),
            ApiError::OperatorCrashed(m) => write!(f, "operator crashed: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// The API server.
///
/// # Examples
///
/// ```
/// use simkube::{ApiServer, PlatformBugs};
/// use crdspec::{Schema, Value};
///
/// let mut api = ApiServer::new(PlatformBugs::none());
/// api.register_crd("Widget", Schema::object().prop("size", Schema::integer().min(0)));
/// api.create_custom("default", "w", "Widget", Value::object([("size", Value::from(2))]), 0)
///     .unwrap();
/// assert!(api
///     .create_custom("default", "w2", "Widget", Value::object([("size", Value::from(-1))]), 0)
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ApiServer {
    store: ObjectStore,
    /// Registered CRD schemas; shared between snapshots (registration after
    /// deployment is rare, so the whole map is copy-on-write).
    crds: Arc<BTreeMap<String, Schema>>,
    bugs: PlatformBugs,
    /// Writes remaining that will fail with [`ApiError::Conflict`]
    /// (armed by fault injection).
    injected_conflicts: u32,
    /// True while an operator reconcile pass is in flight (bracketed by
    /// [`ApiServer::begin_operator_pass`]/[`ApiServer::end_operator_pass`]);
    /// only writes inside the bracket are subject to crash points.
    in_operator_pass: bool,
    /// Cumulative state-changing writes issued by operator passes. Only
    /// writes that advance the store revision count, which keeps the
    /// counter identical between the ticked and event-driven engines: a
    /// no-op pass the event engine fast-forwards over would not have
    /// moved it anyway.
    operator_writes: u64,
    /// Armed crash point: state-changing operator writes remaining until
    /// the process "dies", and how long it then stays down.
    crash_armed: Option<(u32, u64)>,
    /// A crash point fired during the current pass: the down duration,
    /// consumed by [`ApiServer::end_operator_pass`].
    crash_fired: Option<u64>,
}

impl ApiServer {
    /// Creates an API server over an empty store.
    pub fn new(bugs: PlatformBugs) -> ApiServer {
        ApiServer {
            store: ObjectStore::new(),
            crds: Arc::new(BTreeMap::new()),
            bugs,
            injected_conflicts: 0,
            in_operator_pass: false,
            operator_writes: 0,
            crash_armed: None,
            crash_fired: None,
        }
    }

    /// Arms `count` synthetic write conflicts: the next `count` calls to
    /// [`ApiServer::apply_object`] fail with [`ApiError::Conflict`].
    pub fn inject_conflicts(&mut self, count: u32) {
        self.injected_conflicts += count;
    }

    /// Synthetic write conflicts still armed.
    pub fn pending_conflicts(&self) -> u32 {
        self.injected_conflicts
    }

    /// Arms a crash point: the operator process dies immediately after
    /// its `at_write`-th state-changing write (counted from now, across
    /// passes), then stays down for `down_for` simulated seconds. Writes
    /// the dying pass issues after the firing fail with
    /// [`ApiError::OperatorCrashed`].
    pub fn arm_operator_crash(&mut self, at_write: u32, down_for: u64) {
        self.crash_armed = Some((at_write.max(1), down_for));
    }

    /// The armed crash point, if any: `(writes remaining, down duration)`.
    pub fn armed_operator_crash(&self) -> Option<(u32, u64)> {
        self.crash_armed
    }

    /// Cumulative state-changing writes issued by operator passes.
    pub fn operator_writes(&self) -> u64 {
        self.operator_writes
    }

    /// Opens an operator reconcile pass: writes until the matching
    /// [`ApiServer::end_operator_pass`] count toward armed crash points.
    pub fn begin_operator_pass(&mut self) {
        self.in_operator_pass = true;
    }

    /// Closes the current operator pass, returning the down duration when
    /// a crash point fired inside it.
    pub fn end_operator_pass(&mut self) -> Option<u64> {
        self.in_operator_pass = false;
        self.crash_fired.take()
    }

    /// Write-interposition head: rejects writes of a pass whose process
    /// already died at a crash point. The message closure only runs on
    /// rejection, keeping the healthy path allocation-free.
    fn check_pass_alive(&self, what: impl FnOnce() -> String) -> Result<(), ApiError> {
        if self.in_operator_pass && self.crash_fired.is_some() {
            return Err(ApiError::OperatorCrashed(what()));
        }
        Ok(())
    }

    /// Write-interposition tail: counts the write if it advanced the
    /// store revision and fires an armed crash point when the countdown
    /// reaches zero — so crash-at-`k` means writes `1..=k` landed and
    /// everything after is rejected. Counting only revision-advancing
    /// writes keeps the counter identical between the ticked and
    /// event-driven engines: a no-op pass the event engine fast-forwards
    /// over would not have moved it anyway.
    fn note_operator_write(&mut self, rev_before: u64) {
        if self.in_operator_pass && self.store.revision() != rev_before {
            self.operator_writes += 1;
            if let Some((remaining, down_for)) = self.crash_armed {
                if remaining <= 1 {
                    self.crash_armed = None;
                    self.crash_fired = Some(down_for);
                } else {
                    self.crash_armed = Some((remaining - 1, down_for));
                }
            }
        }
    }

    /// The active platform-bug configuration.
    pub fn bugs(&self) -> PlatformBugs {
        self.bugs
    }

    /// Copy-on-write snapshot of the API server, built on
    /// [`ObjectStore::snapshot`]: the versioned store plus registered CRDs,
    /// bug configuration, pending injected conflicts, and
    /// the crash-point interposer state. All of it is shared handles or
    /// scalars — the snapshot costs a few refcount bumps, not a traversal
    /// of cluster state.
    pub fn snapshot(&self) -> ApiServer {
        ApiServer {
            store: self.store.snapshot(),
            crds: Arc::clone(&self.crds),
            bugs: self.bugs,
            injected_conflicts: self.injected_conflicts,
            in_operator_pass: self.in_operator_pass,
            operator_writes: self.operator_writes,
            crash_armed: self.crash_armed,
            crash_fired: self.crash_fired,
        }
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable access to the store for controllers (which bypass admission,
    /// as Kubernetes built-in controllers do).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// Registers a CRD kind with its spec schema.
    pub fn register_crd(&mut self, kind: &str, schema: Schema) {
        Arc::make_mut(&mut self.crds).insert(kind.to_string(), schema);
    }

    /// Validates a CR spec against the registered schema, including
    /// format-specific checks (quantities, durations).
    fn validate_cr(&self, kind: &str, spec: &Value) -> Result<(), ApiError> {
        let schema = self
            .crds
            .get(kind)
            .ok_or_else(|| ApiError::UnknownKind(kind.to_string()))?;
        let mut errors: Vec<String> = crdspec::validate(schema, spec)
            .into_iter()
            .map(|e| e.to_string())
            .collect();
        // Format checks on string leaves. Under PLAT-2, the declaration
        // validation uses a looser regex than the unmarshaller, so malformed
        // quantities pass admission and reach operator code.
        let mut visit_errors = Vec::new();
        schema.walk(&crdspec::Path::root(), &mut |path, node| {
            if let SchemaKind::String {
                format: Some(f), ..
            } = &node.kind
            {
                if f == "quantity" {
                    // Check every concrete value reachable at this schema
                    // path (maps/arrays may hold several).
                    for (vpath, v) in values_at(spec, path) {
                        if let Some(s) = v.as_str() {
                            let ok = if self.bugs.quantity_validation_mismatch {
                                loose_quantity_regex(s)
                            } else {
                                s.parse::<Quantity>().is_ok()
                            };
                            if !ok {
                                visit_errors
                                    .push(format!("{vpath}: {s:?} is not a valid quantity"));
                            }
                        }
                    }
                }
            }
        });
        errors.extend(visit_errors);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(ApiError::ValidationFailed(errors))
        }
    }

    /// Creates a custom resource.
    pub fn create_custom(
        &mut self,
        namespace: &str,
        name: &str,
        kind: &str,
        spec: Value,
        time: u64,
    ) -> Result<ObjKey, ApiError> {
        self.check_pass_alive(|| format!("create {kind} {namespace}/{name}"))?;
        let rev = self.store.revision();
        let result = (|| {
            validate_name(name).map_err(ApiError::InvalidName)?;
            self.validate_cr(kind, &spec)?;
            self.store
                .create(
                    ObjectMeta::named(namespace, name),
                    ObjectData::Custom {
                        kind: kind.to_string(),
                        spec: Arc::new(spec),
                        status: Value::empty_object(),
                    },
                    time,
                )
                .map_err(ApiError::AlreadyExists)
        })();
        self.note_operator_write(rev);
        result
    }

    /// Replaces the spec of an existing custom resource (a new desired-state
    /// declaration).
    pub fn update_custom(
        &mut self,
        namespace: &str,
        name: &str,
        kind: &str,
        spec: Value,
        time: u64,
    ) -> Result<(), ApiError> {
        self.check_pass_alive(|| format!("update {kind} {namespace}/{name}"))?;
        let rev = self.store.revision();
        let result = (|| {
            self.validate_cr(kind, &spec)?;
            let key = ObjKey::new(Kind::Custom(kind.to_string()), namespace, name);
            if self.store.get(&key).is_none() {
                return Err(ApiError::NotFound(format!("{kind} {namespace}/{name}")));
            }
            self.store
                .update_with(&key, time, |obj| {
                    if let ObjectData::Custom { spec: s, .. } = &mut obj.data {
                        *s = Arc::new(spec);
                    }
                })
                .map_err(ApiError::NotFound)
        })();
        self.note_operator_write(rev);
        result
    }

    /// Writes the status subresource of a custom resource.
    pub fn update_custom_status(
        &mut self,
        key: &ObjKey,
        status: Value,
        time: u64,
    ) -> Result<(), ApiError> {
        self.check_pass_alive(|| format!("status {}/{}", key.namespace, key.name))?;
        let rev = self.store.revision();
        // Rewriting the status it already has is decided on the borrowed
        // object: `update_with` would copy it only to throw the copy away.
        let unchanged = self.store.get(key).is_some_and(|obj| match &obj.data {
            ObjectData::Custom { status: s, .. } => *s == status,
            _ => true,
        });
        let result = if unchanged {
            Ok(())
        } else {
            self.store
                .update_with(key, time, |obj| {
                    if let ObjectData::Custom { status: s, .. } = &mut obj.data {
                        *s = status;
                    }
                })
                .map_err(ApiError::NotFound)
        };
        self.note_operator_write(rev);
        result
    }

    /// Creates a typed (built-in) object, applying metadata hygiene.
    pub fn create_object(
        &mut self,
        meta: ObjectMeta,
        data: ObjectData,
        time: u64,
    ) -> Result<ObjKey, ApiError> {
        self.check_pass_alive(|| {
            format!(
                "create {} {}/{}",
                data.kind().name(),
                meta.namespace,
                meta.name
            )
        })?;
        let rev = self.store.revision();
        let result = self.create_object_inner(meta, data, time);
        self.note_operator_write(rev);
        result
    }

    /// [`ApiServer::create_object`] without write interposition, for
    /// internal reuse ([`ApiServer::apply_object`]'s create path, which is
    /// already interposed) — a single upsert must count as one write.
    fn create_object_inner(
        &mut self,
        mut meta: ObjectMeta,
        data: ObjectData,
        time: u64,
    ) -> Result<ObjKey, ApiError> {
        validate_name(&meta.name).map_err(ApiError::InvalidName)?;
        self.truncate_annotations(&mut meta);
        self.store
            .create(meta, data, time)
            .map_err(ApiError::AlreadyExists)
    }

    /// Upserts a typed object: creates it when missing, otherwise replaces
    /// its payload (enforcing selector immutability on workloads unless
    /// PLAT-5 is active). Labels and annotations in `meta` are applied on
    /// update as well.
    pub fn apply_object(
        &mut self,
        meta: ObjectMeta,
        data: ObjectData,
        time: u64,
    ) -> Result<ObjKey, ApiError> {
        let key = ObjKey::new(data.kind(), &meta.namespace, &meta.name);
        self.check_pass_alive(|| {
            format!("apply {} {}/{}", key.kind.name(), key.namespace, key.name)
        })?;
        let rev = self.store.revision();
        let result = self.apply_object_inner(key, meta, data, time);
        self.note_operator_write(rev);
        result
    }

    fn apply_object_inner(
        &mut self,
        key: ObjKey,
        mut meta: ObjectMeta,
        data: ObjectData,
        time: u64,
    ) -> Result<ObjKey, ApiError> {
        if self.injected_conflicts > 0 {
            self.injected_conflicts -= 1;
            return Err(ApiError::Conflict(format!(
                "{} {}/{}: resource version changed",
                key.kind.name(),
                key.namespace,
                key.name
            )));
        }
        self.truncate_annotations(&mut meta);
        let Some(existing) = self.store.get(&key) else {
            // Already interposed by the caller: a create-through-apply is
            // one upsert, so it must count as one write, not two.
            return self.create_object_inner(meta, data, time);
        };
        if !self.bugs.selector_mutation_allowed {
            let old_sel = selector_of(&existing.data);
            let new_sel = selector_of(&data);
            if let (Some(old), Some(new)) = (old_sel, new_sel) {
                if old != new {
                    return Err(ApiError::Immutable(format!(
                        "{} {}/{} selector",
                        key.kind.name(),
                        key.namespace,
                        key.name
                    )));
                }
            }
        }
        let mut data = data;
        preserve_status(&existing.data, &mut data);
        // Re-applying what is stored (the steady state of every reconcile
        // loop) is decided on the borrowed object, before `update_with`
        // would copy it only to find the copy unchanged. `spec_eq` joins
        // `==`, which compares quantities by amount only: a change of
        // suffix family alone still renders differently, so it writes.
        if existing.data == data
            && existing.data.spec_eq(&data)
            && merge_is_noop(&existing.meta, &meta)
        {
            return Ok(key);
        }
        self.store
            .update_with(&key, time, |obj| {
                obj.data = data;
                // Merge semantics for identifying metadata: apply adds or
                // overwrites the keys it names and leaves others (e.g.
                // controller-stamped annotations) in place.
                for (k, v) in &meta.labels {
                    obj.meta.labels.insert(k.clone(), v.clone());
                }
                for (k, v) in &meta.annotations {
                    obj.meta.annotations.insert(k.clone(), v.clone());
                }
                if !meta.owner_references.is_empty() {
                    obj.meta.owner_references = meta.owner_references.clone();
                }
            })
            .map_err(ApiError::NotFound)?;
        Ok(key)
    }

    fn truncate_annotations(&self, meta: &mut ObjectMeta) {
        if self.bugs.annotation_truncation {
            for v in meta.annotations.values_mut() {
                if v.len() > ANNOTATION_TRUNCATION_LIMIT {
                    // PLAT-4: silent truncation at the limit.
                    v.truncate(ANNOTATION_TRUNCATION_LIMIT);
                }
            }
        }
    }

    /// Deletes an object.
    pub fn delete_object(&mut self, key: &ObjKey, time: u64) -> Result<StoredObject, ApiError> {
        self.check_pass_alive(|| {
            format!("delete {} {}/{}", key.kind.name(), key.namespace, key.name)
        })?;
        let rev = self.store.revision();
        let result = self
            .store
            .delete(key, time)
            // The handle is usually unique once removed from the map; a
            // clone only happens when a snapshot still shares the object.
            .map(|obj| Arc::try_unwrap(obj).unwrap_or_else(|shared| (*shared).clone()))
            .ok_or_else(|| ApiError::NotFound(format!("{:?}", key)));
        self.note_operator_write(rev);
        result
    }

    /// Fetches an object.
    pub fn get(&self, key: &ObjKey) -> Option<&StoredObject> {
        self.store.get(key)
    }

    /// Lists objects of a kind in a namespace.
    pub fn list(&self, kind: &Kind, namespace: &str) -> Vec<&StoredObject> {
        self.store.list(kind, namespace)
    }

    /// Watch events after a given revision.
    pub fn events_since(&self, revision: u64) -> &[WatchEvent] {
        self.store.events_since(revision)
    }
}

/// Whether [`ApiServer::apply_object`]'s metadata merge of `applied` into
/// `stored` leaves `stored` as it is: every named label and annotation
/// already holds its value, and the owner references are absent or equal.
fn merge_is_noop(stored: &ObjectMeta, applied: &ObjectMeta) -> bool {
    let holds = |have: &BTreeMap<String, String>, want: &BTreeMap<String, String>| {
        want.iter().all(|(k, v)| have.get(k) == Some(v))
    };
    holds(&stored.labels, &applied.labels)
        && holds(&stored.annotations, &applied.annotations)
        && (applied.owner_references.is_empty()
            || applied.owner_references == stored.owner_references)
}

/// Copies controller-owned status fields from the stored object into a
/// replacement payload, emulating the status subresource: writers of the
/// spec cannot clobber status.
fn preserve_status(old: &ObjectData, new: &mut ObjectData) {
    match (old, new) {
        (ObjectData::StatefulSet(o), ObjectData::StatefulSet(n)) => {
            n.ready_replicas = o.ready_replicas;
            n.observed_generation = o.observed_generation;
        }
        (ObjectData::Deployment(o), ObjectData::Deployment(n)) => {
            n.ready_replicas = o.ready_replicas;
            n.observed_generation = o.observed_generation;
        }
        (ObjectData::Service(o), ObjectData::Service(n)) => {
            n.endpoints = o.endpoints.clone();
        }
        (ObjectData::PersistentVolumeClaim(o), ObjectData::PersistentVolumeClaim(n)) => {
            n.phase = o.phase;
        }
        (ObjectData::PodDisruptionBudget(o), ObjectData::PodDisruptionBudget(n)) => {
            n.current_healthy = o.current_healthy;
        }
        (ObjectData::Pod(o), ObjectData::Pod(n)) => {
            n.phase = o.phase;
            n.ready = o.ready;
            n.node_name = o.node_name.clone();
            n.reason = o.reason.clone();
            n.restarts = o.restarts;
            n.phase_since = o.phase_since;
        }
        (ObjectData::Custom { status: o, .. }, ObjectData::Custom { status: n, .. }) => {
            *n = o.clone();
        }
        _ => {}
    }
}

/// Extracts the selector of workload objects for immutability enforcement.
fn selector_of(data: &ObjectData) -> Option<&crate::meta::LabelSelector> {
    match data {
        ObjectData::StatefulSet(s) => Some(&s.selector),
        ObjectData::Deployment(d) => Some(&d.selector),
        _ => None,
    }
}

/// The loose validation regex of PLAT-2: accepts any sign/digit/dot/exponent
/// soup with an optional suffix, including strings the parser rejects
/// (`"1e"`, `"1.2.3Mi"`).
fn loose_quantity_regex(s: &str) -> bool {
    if s.is_empty() {
        return false;
    }
    let mut chars = s.chars().peekable();
    let mut saw_digit = false;
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() {
            saw_digit = true;
            chars.next();
        } else if c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
            chars.next();
        } else {
            break;
        }
    }
    let suffix: String = chars.collect();
    saw_digit
        && (suffix.is_empty()
            || matches!(
                suffix.as_str(),
                "m" | "k" | "M" | "G" | "T" | "P" | "E" | "Ki" | "Mi" | "Gi" | "Ti" | "Pi" | "Ei"
            ))
}

/// Returns all concrete values in `root` whose path corresponds to the
/// schema path `schema_path` (expanding `@items` over array elements and
/// `@values` over map members).
fn values_at<'v>(root: &'v Value, schema_path: &crdspec::Path) -> Vec<(crdspec::Path, &'v Value)> {
    let mut frontier: Vec<(crdspec::Path, &Value)> = vec![(crdspec::Path::root(), root)];
    for step in schema_path.steps() {
        let key = match step {
            crdspec::Step::Key(k) => k.clone(),
            crdspec::Step::Index(i) => {
                let mut next = Vec::new();
                for (p, v) in frontier {
                    if let Some(arr) = v.as_array() {
                        if let Some(item) = arr.get(*i) {
                            next.push((p.child_index(*i), item));
                        }
                    }
                }
                frontier = next;
                continue;
            }
        };
        let mut next = Vec::new();
        for (p, v) in frontier {
            match key.as_str() {
                "@items" => {
                    if let Some(arr) = v.as_array() {
                        for (i, item) in arr.iter().enumerate() {
                            next.push((p.child_index(i), item));
                        }
                    }
                }
                "@values" => {
                    if let Some(map) = v.as_object() {
                        for (k, item) in map {
                            next.push((p.child_key(k), item));
                        }
                    }
                }
                k => {
                    if let Some(child) = v.get(k) {
                        next.push((p.child_key(k), child));
                    }
                }
            }
        }
        frontier = next;
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::LabelSelector;
    use crate::objects::StatefulSet;

    fn widget_schema() -> Schema {
        Schema::object()
            .prop("size", Schema::integer().min(0).max(10))
            .prop("memory", Schema::string().format("quantity"))
            .prop("limits", Schema::map(Schema::string().format("quantity")))
    }

    #[test]
    fn applying_a_suffix_family_change_alone_writes() {
        use crate::objects::{ClaimPhase, PersistentVolumeClaim};
        let mut api = ApiServer::new(PlatformBugs::none());
        let pvc = |size: &str| {
            ObjectData::PersistentVolumeClaim(PersistentVolumeClaim {
                size: size.parse().unwrap(),
                storage_class: "standard".to_string(),
                phase: ClaimPhase::Pending,
            })
        };
        let meta = ObjectMeta::named("ns", "data");
        let key = api.apply_object(meta.clone(), pvc("1Gi"), 0).unwrap();
        let before = api.store().revision();
        api.apply_object(meta.clone(), pvc("1Gi"), 1).unwrap();
        assert_eq!(api.store().revision(), before, "a re-apply wrote");
        // Same amount, other suffix family: `==` holds, the render moves.
        api.apply_object(meta, pvc("1073741824"), 2).unwrap();
        let obj = api.get(&key).unwrap();
        assert_eq!(api.store().revision(), before + 1);
        assert_eq!(obj.meta.generation, 2);
        assert_eq!(
            obj.data.spec_value().get("size"),
            Some(&Value::from("1073741824"))
        );
    }

    #[test]
    fn create_and_update_custom() {
        let mut api = ApiServer::new(PlatformBugs::none());
        api.register_crd("Widget", widget_schema());
        let key = api
            .create_custom(
                "ns",
                "w",
                "Widget",
                Value::object([("size", Value::from(3))]),
                0,
            )
            .unwrap();
        api.update_custom(
            "ns",
            "w",
            "Widget",
            Value::object([("size", Value::from(5))]),
            1,
        )
        .unwrap();
        let obj = api.get(&key).unwrap();
        assert_eq!(obj.data.spec_value().get("size"), Some(&Value::Integer(5)));
        assert_eq!(obj.meta.generation, 2);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut api = ApiServer::new(PlatformBugs::none());
        api.register_crd("Widget", widget_schema());
        let err = api
            .create_custom(
                "ns",
                "w",
                "Widget",
                Value::object([("size", Value::from(99))]),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::ValidationFailed(_)));
        assert!(matches!(
            api.create_custom("ns", "Bad_Name", "Widget", Value::empty_object(), 0),
            Err(ApiError::InvalidName(_))
        ));
        assert!(matches!(
            api.create_custom("ns", "w", "Nope", Value::empty_object(), 0),
            Err(ApiError::UnknownKind(_))
        ));
    }

    #[test]
    fn quantity_format_strict_vs_buggy() {
        // Fixed platform rejects malformed quantities.
        let mut fixed = ApiServer::new(PlatformBugs::none());
        fixed.register_crd("Widget", widget_schema());
        let err = fixed
            .create_custom(
                "ns",
                "w",
                "Widget",
                Value::object([("memory", Value::from("1e"))]),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::ValidationFailed(_)));
        // Buggy platform (PLAT-2) lets the same string through.
        let mut buggy = ApiServer::new(PlatformBugs::all());
        buggy.register_crd("Widget", widget_schema());
        assert!(buggy
            .create_custom(
                "ns",
                "w",
                "Widget",
                Value::object([("memory", Value::from("1e"))]),
                0,
            )
            .is_ok());
        // Both reject clearly non-numeric strings.
        assert!(buggy
            .create_custom(
                "ns",
                "w2",
                "Widget",
                Value::object([("memory", Value::from("lots"))]),
                0,
            )
            .is_err());
    }

    #[test]
    fn quantity_format_checked_inside_maps() {
        let mut api = ApiServer::new(PlatformBugs::none());
        api.register_crd("Widget", widget_schema());
        let err = api
            .create_custom(
                "ns",
                "w",
                "Widget",
                Value::object([("limits", Value::object([("cpu", Value::from("abc"))]))]),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::ValidationFailed(_)));
    }

    #[test]
    fn selector_immutability_enforced_when_fixed() {
        let mut api = ApiServer::new(PlatformBugs::none());
        let sts = StatefulSet {
            selector: LabelSelector::match_labels([("app", "a")]),
            ..StatefulSet::default()
        };
        api.apply_object(
            ObjectMeta::named("ns", "sts"),
            ObjectData::StatefulSet(sts.clone()),
            0,
        )
        .unwrap();
        let changed = StatefulSet {
            selector: LabelSelector::match_labels([("app", "b")]),
            ..sts
        };
        assert!(matches!(
            api.apply_object(
                ObjectMeta::named("ns", "sts"),
                ObjectData::StatefulSet(changed.clone()),
                1
            ),
            Err(ApiError::Immutable(_))
        ));
        // Buggy platform allows it (PLAT-5).
        let mut buggy = ApiServer::new(PlatformBugs::all());
        buggy
            .apply_object(
                ObjectMeta::named("ns", "sts"),
                ObjectData::StatefulSet(StatefulSet {
                    selector: LabelSelector::match_labels([("app", "a")]),
                    ..StatefulSet::default()
                }),
                0,
            )
            .unwrap();
        assert!(buggy
            .apply_object(
                ObjectMeta::named("ns", "sts"),
                ObjectData::StatefulSet(changed),
                1
            )
            .is_ok());
    }

    #[test]
    fn crash_point_fires_at_exact_write_boundary() {
        let mut api = ApiServer::new(PlatformBugs::none());
        // Writes outside an operator pass never count.
        api.create_object(
            ObjectMeta::named("ns", "outside"),
            ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
            0,
        )
        .unwrap();
        assert_eq!(api.operator_writes(), 0);

        api.arm_operator_crash(2, 7);
        api.begin_operator_pass();
        api.create_object(
            ObjectMeta::named("ns", "a"),
            ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
            1,
        )
        .unwrap();
        // A no-op apply does not advance the revision, so it is not a
        // write boundary and cannot fire the crash point.
        api.apply_object(
            ObjectMeta::named("ns", "a"),
            ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
            1,
        )
        .unwrap();
        assert_eq!(api.operator_writes(), 1);
        // Write 2 lands, then the process dies: write 3 is rejected.
        api.create_object(
            ObjectMeta::named("ns", "b"),
            ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
            1,
        )
        .unwrap();
        let err = api
            .create_object(
                ObjectMeta::named("ns", "c"),
                ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
                1,
            )
            .unwrap_err();
        assert!(matches!(err, ApiError::OperatorCrashed(_)));
        assert_eq!(api.end_operator_pass(), Some(7));
        assert_eq!(api.operator_writes(), 2);
        assert!(api.get(&ObjKey::new(Kind::ConfigMap, "ns", "b")).is_some());
        assert!(api.get(&ObjKey::new(Kind::ConfigMap, "ns", "c")).is_none());
        // The crash state rides snapshots byte-for-byte.
        let snap = api.snapshot();
        assert_eq!(snap.operator_writes(), 2);
        assert_eq!(snap.armed_operator_crash(), None);
    }

    #[test]
    fn annotations_truncate_under_plat4() {
        let mut buggy = ApiServer::new(PlatformBugs::all());
        let huge = "x".repeat(ANNOTATION_TRUNCATION_LIMIT + 10);
        let meta = ObjectMeta::named("ns", "cm").with_annotation("blob", &huge);
        let key = buggy
            .create_object(
                meta.clone(),
                ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
                0,
            )
            .unwrap();
        assert_eq!(
            buggy.get(&key).unwrap().meta.annotations["blob"].len(),
            ANNOTATION_TRUNCATION_LIMIT
        );
        let mut fixed = ApiServer::new(PlatformBugs::none());
        let key = fixed
            .create_object(
                meta,
                ObjectData::ConfigMap(crate::objects::ConfigMap::default()),
                0,
            )
            .unwrap();
        assert_eq!(
            fixed.get(&key).unwrap().meta.annotations["blob"].len(),
            huge.len()
        );
    }
}
