//! CockroachOp: the official CockroachDB operator (Table 4).
//!
//! Injected bugs: CRDB-1 (ingress TLS secret name frozen after creation),
//! CRDB-2 (resource updates never roll pods), CRDB-3 (TLS rotation leaves
//! nodes on the old secret generation), CRDB-4 (image without a colon
//! panics the parser and crash-loops the operator, taking its webhook
//! down), CRDB-5 (an empty additional argument panics argument parsing).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule};
use simkube::cluster::LogLevel;
use simkube::meta::ObjectMeta;
use simkube::objects::{ClaimTemplate, Kind, ObjectData, Secret};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The official CockroachDB operator.
#[derive(Debug, Default)]
pub struct CockroachOp;

impl Operator for CockroachOp {
    fn name(&self) -> &'static str {
        "CockroachOp"
    }

    fn system(&self) -> &'static str {
        "cockroachdb"
    }

    fn kind(&self) -> &'static str {
        "CrdbCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "nodes",
                Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
            )
            .prop(
                "image",
                image_schema().default_value(Value::from("cockroach:v23.1")),
            )
            .prop("resources", resources_schema())
            .prop("additionalArgs", Schema::array(Schema::string()))
            .prop(
                "tls",
                Schema::object().prop(
                    "enabled",
                    Schema::boolean()
                        .semantic(Semantic::Toggle)
                        .default_value(Value::Bool(true)),
                ),
            )
            // Bumping this counter requests a certificate rotation.
            .prop("certRotation", Schema::integer().min(0).max(1000))
            .prop(
                "ingress",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(false)),
                    )
                    .prop("host", Schema::string().semantic(Semantic::ServiceName))
                    .prop(
                        "tls",
                        Schema::object()
                            .prop("secretName", Schema::string().semantic(Semantic::SecretRef)),
                    )
                    .semantic(Semantic::Ingress),
            )
            .prop(
                "config",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop("persistence", persistence_schema())
            .prop("pod", pod_template_schema_without(&["resources"]))
            // Obscurely named SQL port; whitebox learns Port semantics via
            // the `service.port` sink.
            .prop("sqlAccess", Schema::integer().min(1).max(65535))
            .require("nodes")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("cockroach-op");
        b.passthrough("nodes", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.passthrough("sqlAccess", "service.port");
        b.passthrough("resources.requests.cpu", "pod.resources.requests.cpu");
        b.guarded_passthrough("tls.enabled", &[("certRotation", "tls.generation")]);
        b.guarded_passthrough(
            "ingress.enabled",
            &[
                ("ingress.host", "ingress.host"),
                ("ingress.tls.secretName", "ingress.secretName"),
            ],
        );
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("nodes", Value::from(3)),
            ("image", Value::from("cockroach:v23.1")),
            ("sqlAccess", Value::from(26257)),
            ("tls", Value::object([("enabled", Value::from(true))])),
            ("certRotation", Value::from(0)),
            (
                "ingress",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("host", Value::from("db.example.com")),
                    (
                        "tls",
                        Value::object([("secretName", Value::from("sql-tls-v1"))]),
                    ),
                ]),
            ),
            ("config", Value::object([("cache", Value::from("25%"))])),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("100Gi")),
                    ("storageClass", Value::from("fast")),
                ]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec!["cockroach:v23.1".to_string(), "cockroach:v23.2".to_string()]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let deployed = cluster.api().get(&sts_key).is_some();

        // Image parsing. CRDB-4: splitting on ':' without checking panics
        // on a tagless reference.
        let image = str_at(cr, "image").unwrap_or_else(|| "cockroach:v23.1".to_string());
        if !image.contains(':') {
            if bugs.injected("CRDB-4") {
                return Err(OperatorError::Panic(format!(
                    "index out of range parsing image {image:?}"
                )));
            }
            cluster.log(
                LogLevel::Error,
                self.name(),
                format!("invalid image reference {image:?}; keeping current"),
            );
        }
        let image = if image.contains(':') {
            image
        } else {
            "cockroach:v23.1".to_string()
        };

        // Additional arguments. CRDB-5: an empty element panics.
        let args: Vec<String> = cr
            .get("additionalArgs")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let mut arg_list: Vec<String> = Vec::new();
        for arg in &args {
            if arg.is_empty() {
                if bugs.injected("CRDB-5") {
                    return Err(OperatorError::Panic(
                        "slice bounds out of range parsing empty argument".to_string(),
                    ));
                }
                cluster.log(LogLevel::Error, self.name(), "skipping empty argument");
                continue;
            }
            arg_list.push(arg.clone());
        }

        // TLS secret rotation. The secret object is rotated on every bump
        // of `tls.rotate`, but CRDB-3 never updates the version the nodes
        // run with.
        let tls_enabled = bool_at(cr, "tls.enabled").unwrap_or(true);
        let rotate = i64_at(cr, "certRotation").unwrap_or(0);
        let secret_key = ObjKey::new(Kind::Secret, NAMESPACE, &format!("{INSTANCE}-tls"));
        if tls_enabled {
            let mut data = BTreeMap::new();
            data.insert("tls.crt".to_string(), format!("cert-gen-{rotate}"));
            data.insert("serial".to_string(), rotate.to_string());
            let time = cluster.now();
            cluster
                .api_mut()
                .apply_object(
                    ObjectMeta::named(NAMESPACE, &format!("{INSTANCE}-tls")),
                    ObjectData::Secret(Secret { data }),
                    time,
                )
                .map_err(|e| OperatorError::Transient(e.to_string()))?;
        }
        if !tls_enabled {
            delete_if_exists(cluster, Kind::Secret, NAMESPACE, &format!("{INSTANCE}-tls"));
        }
        let _ = &secret_key;

        // Configuration.
        let mut entries: BTreeMap<String, String> = map_at(cr, "config");
        entries.insert(
            "sqlPort".to_string(),
            i64_at(cr, "sqlAccess").unwrap_or(26257).to_string(),
        );
        if !arg_list.is_empty() {
            entries.insert("extraArgs".to_string(), arg_list.join(" "));
        }
        if tls_enabled {
            let running_version = if bugs.injected("CRDB-3") {
                // Only stamped at first deployment: nodes keep serving with
                // the serial they started with.
                let cm_key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &format!("{INSTANCE}-config"));
                match cluster.api().get(&cm_key) {
                    Some(obj) => match &obj.data {
                        ObjectData::ConfigMap(c) => c
                            .data
                            .get("tlsSecretVersion")
                            .cloned()
                            .unwrap_or_else(|| rotate.to_string()),
                        _ => rotate.to_string(),
                    },
                    None => rotate.to_string(),
                }
            } else {
                rotate.to_string()
            };
            entries.insert("tlsSecretVersion".to_string(), running_version);
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Stateful set. CRDB-2: the template keeps the creation-time
        // resources (updates are written to an annotation the rollout never
        // reads).
        let nodes = i64_at(cr, "nodes").unwrap_or(3).clamp(1, 9) as i32;
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &hash);
        let declared_resources = resources_at(cr, "resources");
        if bugs.injected("CRDB-2") && deployed {
            if let Some(obj) = cluster.api().get(&sts_key) {
                if let ObjectData::StatefulSet(s) = &obj.data {
                    template.containers[0].resources = s.template.containers[0].resources.clone();
                }
            }
        } else {
            template.containers[0].resources = declared_resources;
        }
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "100Gi".parse().expect("literal")),
                storage_class: str_at(cr, "persistence.storageClass")
                    .unwrap_or_else(|| "fast".to_string()),
            }]
        } else {
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, nodes, template, claims)?;
        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            stamp_sts_annotation(cluster, NAMESPACE, INSTANCE, "reclaimPolicy", &reclaim);
        }

        // Ingress. CRDB-1: the TLS secret name is only written at creation.
        let ingress_name = format!("{INSTANCE}-sql");
        let ingress_key = ObjKey::new(Kind::Ingress, NAMESPACE, &ingress_name);
        if bool_at(cr, "ingress.enabled").unwrap_or(false) {
            let host = str_at(cr, "ingress.host").unwrap_or_default();
            let declared_secret = str_at(cr, "ingress.tls.secretName").unwrap_or_default();
            let secret = if bugs.injected("CRDB-1") {
                match cluster.api().get(&ingress_key) {
                    Some(obj) => match &obj.data {
                        ObjectData::Ingress(i) => i.tls_secret.clone(),
                        _ => declared_secret,
                    },
                    None => declared_secret,
                }
            } else {
                declared_secret
            };
            apply_ingress(cluster, NAMESPACE, &ingress_name, &host, INSTANCE, &secret)?;
        } else {
            delete_if_exists(cluster, Kind::Ingress, NAMESPACE, &ingress_name);
        }

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, nodes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(CockroachOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn cluster_deploys_with_ingress_and_tls() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Ingress, NAMESPACE, "test-cluster-sql"))
            .is_some());
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Secret, NAMESPACE, "test-cluster-tls"))
            .is_some());
    }

    #[test]
    fn crdb1_ingress_secret_frozen_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"ingress.tls.secretName".parse().unwrap(),
            Value::from("sql-tls-v2"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let ing = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Ingress, NAMESPACE, "test-cluster-sql"))
            .unwrap();
        if let ObjectData::Ingress(i) = &ing.data {
            assert_eq!(i.tls_secret, "sql-tls-v1", "update ignored");
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CRDB-1");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let ing = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Ingress, NAMESPACE, "test-cluster-sql"))
            .unwrap();
        if let ObjectData::Ingress(i) = &ing.data {
            assert_eq!(i.tls_secret, "sql-tls-v2");
        }
    }

    #[test]
    fn crdb3_rotation_leaves_outdated_secrets_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"certRotation".parse().unwrap(), Value::from(1));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        match &instance.last_health {
            Health::Degraded(r) => assert!(r.contains("outdated")),
            other => panic!("expected degraded on outdated secrets, got {other:?}"),
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CRDB-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn crdb4_tagless_image_crashes_operator_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"image".parse().unwrap(), Value::from("cockroach"));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CRDB-4");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn crdb5_empty_argument_crashes_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"additionalArgs".parse().unwrap(),
            Value::array([Value::from("--log=v2"), Value::from("")]),
        );
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
    }

    #[test]
    fn crdb2_resources_not_rolled_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"resources.requests.cpu".parse().unwrap(), Value::from("2"));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(
                s.template.containers[0].resources.requests.is_empty(),
                "template keeps the creation-time (empty) resources"
            );
        }
    }
}
