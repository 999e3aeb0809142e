//! Shared reconcile helpers: parsing standard CRD fragments into cluster
//! objects and applying workloads.

use std::collections::BTreeMap;

use crdspec::Value;
use simkube::meta::{LabelSelector, ObjectMeta};
use simkube::objects::{
    ClaimTemplate, ConfigMap, Container, Ingress, Kind, ObjectData, Pdb, PodTemplate, Service,
    ServiceType, StatefulSet,
};
use simkube::resources::{
    Affinity, NodeAffinityTerm, PodAffinityTerm, ResourceRequirements, SecurityContext, Toleration,
    TolerationOperator,
};
use simkube::store::ObjKey;
use simkube::{Quantity, SimCluster};

use crate::framework::OperatorError;

/// Borrowed lookup of a dotted path (with optional `[i]` indices), walking
/// the value directly instead of allocating a parsed `crdspec::Path`.
/// These helpers run on every reconcile pass of every operator, so the
/// parse would dominate the lookup. Matches `path.parse::<Path>()` +
/// `Value::get_path` on well-formed paths and returns `None` on
/// malformed ones.
fn lookup<'v>(cr: &'v Value, path: &str) -> Option<&'v Value> {
    let mut cur = cr;
    if path.is_empty() {
        return Some(cur);
    }
    for seg in path.split('.') {
        let (key, mut rest) = match seg.find('[') {
            Some(pos) => (&seg[..pos], &seg[pos..]),
            None => (seg, ""),
        };
        if key.is_empty() && rest.is_empty() {
            return None; // empty segment: leading/trailing/double dot
        }
        if !key.is_empty() {
            cur = cur.get(key)?;
        }
        while let Some(inner) = rest.strip_prefix('[') {
            let end = inner.find(']')?;
            let idx: usize = inner[..end].parse().ok()?;
            cur = cur.as_array()?.get(idx)?;
            rest = &inner[end + 1..];
        }
        if !rest.is_empty() {
            return None;
        }
    }
    Some(cur)
}

/// Borrowed read of the value at a dotted path (see [`str_at`] for the
/// path grammar).
pub fn value_at<'v>(cr: &'v Value, path: &str) -> Option<&'v Value> {
    lookup(cr, path)
}

/// Reads a string at a dotted path of the CR spec.
pub fn str_at(cr: &Value, path: &str) -> Option<String> {
    lookup(cr, path).and_then(Value::as_str).map(str::to_string)
}

/// Reads an integer at a dotted path.
pub fn i64_at(cr: &Value, path: &str) -> Option<i64> {
    lookup(cr, path).and_then(Value::as_i64)
}

/// Reads a boolean at a dotted path.
pub fn bool_at(cr: &Value, path: &str) -> Option<bool> {
    lookup(cr, path).and_then(Value::as_bool)
}

/// Reads a string map at a dotted path.
pub fn map_at(cr: &Value, path: &str) -> BTreeMap<String, String> {
    match lookup(cr, path) {
        Some(Value::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Parses a quantity string, turning failure into an operator panic — the
/// `unwrap`-style parse sites where several injected bugs live.
pub fn quantity_or_panic(s: &str, context: &str) -> Result<Quantity, OperatorError> {
    s.parse()
        .map_err(|e| OperatorError::Panic(format!("{context}: {e}")))
}

/// Validates a cron expression: `@hourly`/`@daily`/`@weekly`, or five
/// whitespace-separated fields.
pub fn cron_is_valid(expr: &str) -> bool {
    matches!(expr, "@hourly" | "@daily" | "@weekly") || expr.split_whitespace().count() == 5
}

/// Parses the standard resources fragment at `base` into requirements.
pub fn resources_at(cr: &Value, base: &str) -> ResourceRequirements {
    let mut out = ResourceRequirements::default();
    let root = lookup(cr, base);
    for (section, target) in [("requests", 0usize), ("limits", 1usize)] {
        for resource in ["cpu", "memory"] {
            let s = root
                .and_then(|r| r.get(section))
                .and_then(|r| r.get(resource))
                .and_then(Value::as_str);
            if let Some(s) = s {
                if let Ok(q) = s.parse::<Quantity>() {
                    if target == 0 {
                        out.requests.insert(resource.to_string(), q);
                    } else {
                        out.limits.insert(resource.to_string(), q);
                    }
                }
            }
        }
    }
    out
}

/// Parses the standard affinity fragment at `base`.
pub fn affinity_at(cr: &Value, base: &str) -> Affinity {
    let terms = |section: &str| -> Vec<(String, String)> {
        match lookup(cr, base).and_then(|r| r.get(section)) {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|t| {
                    Some((
                        t.get("key")?.as_str()?.to_string(),
                        t.get("value")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    Affinity {
        node_required: terms("nodeRequired")
            .into_iter()
            .map(|(key, value)| NodeAffinityTerm { key, value })
            .collect(),
        pod_affinity: terms("podAffinity")
            .into_iter()
            .map(|(key, value)| PodAffinityTerm { key, value })
            .collect(),
        pod_anti_affinity: terms("podAntiAffinity")
            .into_iter()
            .map(|(key, value)| PodAffinityTerm { key, value })
            .collect(),
    }
}

/// Parses the tolerations fragment at `base`.
pub fn tolerations_at(cr: &Value, base: &str) -> Vec<Toleration> {
    match lookup(cr, base) {
        Some(Value::Array(items)) => items
            .iter()
            .filter_map(|t| {
                Some(Toleration {
                    key: t.get("key")?.as_str()?.to_string(),
                    value: t
                        .get("value")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    operator: match t.get("operator").and_then(Value::as_str) {
                        Some("Exists") => TolerationOperator::Exists,
                        _ => TolerationOperator::Equal,
                    },
                })
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Parses the security-context fragment at `base`.
pub fn security_at(cr: &Value, base: &str) -> SecurityContext {
    SecurityContext {
        run_as_user: i64_at(cr, &format!("{base}.runAsUser")),
        run_as_non_root: bool_at(cr, &format!("{base}.runAsNonRoot")).unwrap_or(false),
        read_only_root_filesystem: bool_at(cr, &format!("{base}.readOnlyRootFilesystem"))
            .unwrap_or(false),
        fs_group: i64_at(cr, &format!("{base}.fsGroup")),
    }
}

/// Builds the pod template from the standard fragment at `base`, with the
/// given app identity, image, and configuration hash.
pub fn pod_template_at(
    cr: &Value,
    base: &str,
    app: &str,
    component: Option<&str>,
    image: &str,
    config_hash: &str,
) -> PodTemplate {
    let mut labels = map_at(cr, &format!("{base}.labels"));
    labels.insert("app".to_string(), app.to_string());
    if let Some(c) = component {
        labels.insert("component".to_string(), c.to_string());
    }
    let mut env = map_at(cr, &format!("{base}.env"));
    // Probe knobs travel as container settings so probe changes are visible
    // in state objects and roll pods.
    for (probe, prefix) in [
        ("livenessProbe", "LIVENESS"),
        ("readinessProbe", "READINESS"),
    ] {
        for (field, suffix) in [
            ("initialDelaySeconds", "DELAY"),
            ("periodSeconds", "PERIOD"),
            ("failureThreshold", "THRESHOLD"),
        ] {
            if let Some(v) = i64_at(cr, &format!("{base}.{probe}.{field}")) {
                env.insert(format!("PROBE_{prefix}_{suffix}"), v.to_string());
            }
        }
    }
    PodTemplate {
        labels,
        annotations: map_at(cr, &format!("{base}.annotations")),
        containers: vec![Container {
            name: component.unwrap_or("main").to_string(),
            image: image.to_string(),
            resources: resources_at(cr, &format!("{base}.resources")),
            env,
            ports: Vec::new(),
            security: security_at(cr, &format!("{base}.securityContext")),
            config_hash: config_hash.to_string(),
            volume_mounts: Vec::new(),
        }],
        affinity: affinity_at(cr, &format!("{base}.affinity")),
        tolerations: tolerations_at(cr, &format!("{base}.tolerations")),
        node_selector: map_at(cr, &format!("{base}.nodeSelector")),
        security: security_at(cr, &format!("{base}.securityContext")),
        service_account: str_at(cr, &format!("{base}.serviceAccountName")).unwrap_or_default(),
        priority_class: str_at(cr, &format!("{base}.priorityClassName")).unwrap_or_default(),
    }
}

/// A compact fingerprint of a config map's content, stamped into container
/// specs so config changes roll pods.
pub fn config_hash(entries: &BTreeMap<String, String>) -> String {
    let mut rendered = String::new();
    for (k, v) in entries {
        rendered.push_str(k);
        rendered.push('\0');
        rendered.push_str(v);
        rendered.push('\0');
    }
    simkube::objects::fnv_fingerprint(&rendered)
}

/// Upserts a stateful set owned by the CR.
pub fn apply_statefulset(
    cluster: &mut SimCluster,
    namespace: &str,
    name: &str,
    replicas: i32,
    template: PodTemplate,
    claims: Vec<ClaimTemplate>,
) -> Result<(), OperatorError> {
    // The selector is the stable identity (app/component), never the full
    // label set: free-form labels may change, selectors must not.
    let mut match_labels = std::collections::BTreeMap::new();
    for key in ["app", "component"] {
        if let Some(v) = template.labels.get(key) {
            match_labels.insert(key.to_string(), v.clone());
        }
    }
    if match_labels.is_empty() {
        match_labels = template.labels.clone();
    }
    let selector = LabelSelector { match_labels };
    let sts = StatefulSet {
        replicas,
        selector,
        template,
        claim_templates: claims,
        service_name: name.to_string(),
        ..StatefulSet::default()
    };
    let time = cluster.now();
    cluster
        .api_mut()
        .apply_object(
            ObjectMeta::named(namespace, name),
            ObjectData::StatefulSet(sts),
            time,
        )
        .map(|_| ())
        .map_err(|e| OperatorError::Transient(e.to_string()))
}

/// Upserts the instance config map `{app}-config`.
pub fn apply_config(
    cluster: &mut SimCluster,
    namespace: &str,
    app: &str,
    entries: BTreeMap<String, String>,
) -> Result<(), OperatorError> {
    let time = cluster.now();
    cluster
        .api_mut()
        .apply_object(
            ObjectMeta::named(namespace, &format!("{app}-config")),
            ObjectData::ConfigMap(ConfigMap { data: entries }),
            time,
        )
        .map(|_| ())
        .map_err(|e| OperatorError::Transient(e.to_string()))
}

/// Upserts a client service.
pub fn apply_service(
    cluster: &mut SimCluster,
    namespace: &str,
    name: &str,
    app: &str,
    port: u16,
    service_type: ServiceType,
) -> Result<(), OperatorError> {
    let svc = Service {
        selector: LabelSelector::match_labels([("app", app)]),
        ports: vec![port],
        service_type,
        endpoints: Vec::new(),
    };
    let time = cluster.now();
    cluster
        .api_mut()
        .apply_object(
            ObjectMeta::named(namespace, name),
            ObjectData::Service(svc),
            time,
        )
        .map(|_| ())
        .map_err(|e| OperatorError::Transient(e.to_string()))
}

/// Upserts a disruption budget.
pub fn apply_pdb(
    cluster: &mut SimCluster,
    namespace: &str,
    name: &str,
    app: &str,
    min_available: i32,
) -> Result<(), OperatorError> {
    let pdb = Pdb {
        selector: LabelSelector::match_labels([("app", app)]),
        min_available,
        current_healthy: 0,
    };
    let time = cluster.now();
    cluster
        .api_mut()
        .apply_object(
            ObjectMeta::named(namespace, name),
            ObjectData::PodDisruptionBudget(pdb),
            time,
        )
        .map(|_| ())
        .map_err(|e| OperatorError::Transient(e.to_string()))
}

/// Upserts an ingress.
pub fn apply_ingress(
    cluster: &mut SimCluster,
    namespace: &str,
    name: &str,
    host: &str,
    service_name: &str,
    tls_secret: &str,
) -> Result<(), OperatorError> {
    let ing = Ingress {
        host: host.to_string(),
        service_name: service_name.to_string(),
        tls_secret: tls_secret.to_string(),
    };
    let time = cluster.now();
    cluster
        .api_mut()
        .apply_object(
            ObjectMeta::named(namespace, name),
            ObjectData::Ingress(ing),
            time,
        )
        .map(|_| ())
        .map_err(|e| OperatorError::Transient(e.to_string()))
}

/// Merges a secondary label map over template labels with bookkeeping: the
/// previously applied set is remembered in a workload annotation so the
/// injected "deletion swallowed" label bugs can replay exactly the keys
/// they once applied (and only those).
///
/// Returns the effective labels to extend the template with; the caller
/// stamps the record with [`stamp_label_record`] after applying the
/// workload.
pub fn merge_labels_tracked(
    cluster: &SimCluster,
    key: &ObjKey,
    annotation: &str,
    declared: BTreeMap<String, String>,
    swallow_deletions: bool,
) -> BTreeMap<String, String> {
    let previous: BTreeMap<String, String> = cluster
        .api()
        .get(key)
        .and_then(|o| o.meta.annotations.get(annotation).cloned())
        .and_then(|s| crdspec::json::from_str(&s).ok())
        .and_then(|v| {
            v.as_object().map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect()
            })
        })
        .unwrap_or_default();
    let mut effective = declared;
    if swallow_deletions {
        for (k, v) in previous {
            effective.entry(k).or_insert(v);
        }
    }
    effective
}

/// Records the label set applied by [`merge_labels_tracked`].
pub fn stamp_label_record(
    cluster: &mut SimCluster,
    key: &ObjKey,
    annotation: &str,
    effective: &BTreeMap<String, String>,
) {
    let rendered = crdspec::json::to_string(&Value::Object(
        effective
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.clone())))
            .collect(),
    ));
    // A record that is already current is left alone without copying the
    // object.
    match cluster.api().get(key) {
        None => return,
        Some(o) if o.meta.annotations.get(annotation) == Some(&rendered) => return,
        Some(_) => {}
    }
    let time = cluster.now();
    let _ = cluster.api_mut().store_mut().update_with(key, time, |o| {
        o.meta.annotations.insert(annotation.to_string(), rendered);
    });
}

/// Stamps an annotation onto a stateful set (controller-style metadata the
/// operator owns, e.g. the volume reclaim policy).
pub fn stamp_sts_annotation(
    cluster: &mut SimCluster,
    namespace: &str,
    name: &str,
    key: &str,
    value: &str,
) {
    let sts_key = ObjKey::new(Kind::StatefulSet, namespace, name);
    match cluster.api().get(&sts_key) {
        None => return,
        Some(o) if o.meta.annotations.get(key).map(String::as_str) == Some(value) => return,
        Some(_) => {}
    }
    let time = cluster.now();
    let _ = cluster
        .api_mut()
        .store_mut()
        .update_with(&sts_key, time, |o| {
            o.meta
                .annotations
                .insert(key.to_string(), value.to_string());
        });
}

/// Deletes an object when present (idempotent disable path).
pub fn delete_if_exists(cluster: &mut SimCluster, kind: Kind, namespace: &str, name: &str) {
    let key = ObjKey::new(kind, namespace, name);
    if cluster.api().get(&key).is_some() {
        let time = cluster.now();
        let _ = cluster.api_mut().delete_object(&key, time);
    }
}

/// Writes the conventional CR status: ready replicas, phase, and the
/// observed generation.
pub fn write_cr_status(
    cluster: &mut SimCluster,
    cr_key: &ObjKey,
    ready_replicas: i32,
    desired_replicas: i32,
) {
    let Some(obj) = cluster.api().get(cr_key) else {
        return;
    };
    let generation = obj.meta.generation;
    let mut status = obj.data.status_value();
    status.set_path(
        &"readyReplicas".parse().expect("path"),
        Value::from(i64::from(ready_replicas)),
    );
    status.set_path(
        &"phase".parse().expect("path"),
        Value::from(if ready_replicas >= desired_replicas {
            "Ready"
        } else {
            "Reconciling"
        }),
    );
    status.set_path(
        &"observedGeneration".parse().expect("path"),
        Value::from(generation as i64),
    );
    let time = cluster.now();
    let _ = cluster.api_mut().update_custom_status(cr_key, status, time);
}

/// Counts ready pods labelled `app={app}` in a namespace.
pub fn ready_pods(cluster: &SimCluster, namespace: &str, app: &str) -> i32 {
    cluster
        .api()
        .store()
        .list(&Kind::Pod, namespace)
        .iter()
        .filter(|o| {
            o.meta.labels.get("app").map(String::as_str) == Some(app)
                && matches!(&o.data, ObjectData::Pod(p) if p.ready)
        })
        .count() as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_readers_handle_missing_paths() {
        let cr = Value::object([("a", Value::object([("b", Value::from(3))]))]);
        assert_eq!(i64_at(&cr, "a.b"), Some(3));
        assert_eq!(i64_at(&cr, "a.c"), None);
        assert_eq!(str_at(&cr, "a.b"), None);
        assert!(map_at(&cr, "nope").is_empty());
    }

    #[test]
    fn resources_fragment_parses() {
        let cr = Value::object([(
            "resources",
            Value::object([
                (
                    "requests",
                    Value::object([("cpu", Value::from("500m")), ("memory", Value::from("1Gi"))]),
                ),
                ("limits", Value::object([("cpu", Value::from("2"))])),
            ]),
        )]);
        let r = resources_at(&cr, "resources");
        assert_eq!(r.requests["cpu"], "500m".parse().unwrap());
        assert_eq!(r.requests["memory"], "1Gi".parse().unwrap());
        assert_eq!(r.limits["cpu"], "2".parse().unwrap());
    }

    #[test]
    fn affinity_and_tolerations_parse() {
        let cr = Value::object([
            (
                "affinity",
                Value::object([(
                    "podAntiAffinity",
                    Value::array([Value::object([
                        ("key", Value::from("app")),
                        ("value", Value::from("zk")),
                    ])]),
                )]),
            ),
            (
                "tolerations",
                Value::array([Value::object([
                    ("key", Value::from("dedicated")),
                    ("operator", Value::from("Exists")),
                ])]),
            ),
        ]);
        let a = affinity_at(&cr, "affinity");
        assert_eq!(a.pod_anti_affinity.len(), 1);
        let t = tolerations_at(&cr, "tolerations");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].operator, TolerationOperator::Exists);
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let mut a = BTreeMap::new();
        a.insert("k".to_string(), "v".to_string());
        let h1 = config_hash(&a);
        assert_eq!(h1, config_hash(&a.clone()));
        a.insert("k2".to_string(), "v2".to_string());
        assert_ne!(h1, config_hash(&a));
    }

    #[test]
    fn cron_validation() {
        assert!(cron_is_valid("@daily"));
        assert!(cron_is_valid("0 3 * * *"));
        assert!(!cron_is_valid("every day"));
        assert!(!cron_is_valid("0 3 * *"));
    }

    #[test]
    fn quantity_or_panic_reports_context() {
        assert!(quantity_or_panic("1Gi", "storage").is_ok());
        match quantity_or_panic("garbage", "storage size") {
            Err(OperatorError::Panic(msg)) => assert!(msg.contains("storage size")),
            other => panic!("expected panic, got {other:?}"),
        }
    }
}
