//! OCK/RedisOp: the OT-CONTAINER-KIT-style Redis operator (Table 4).
//!
//! Injected bugs: RED-OCK-1 (resources never applied), RED-OCK-2 (follower
//! PDB has no effect), RED-OCK-3 (security context not propagated),
//! RED-OCK-4 (node-selector removal ignored), RED-OCK-5 (panic on
//! unparsable storage quantity admitted under PLAT-2), RED-OCK-6 (panic on
//! TLS without a secret name), RED-OCK-7 (panic on an empty `save`
//! directive), RED-OCK-8 (stability gate blocks rollback).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule};
use simkube::cluster::LogLevel;
use simkube::objects::{ClaimTemplate, Kind, ObjectData, PodPhase};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The OT-CONTAINER-KIT-style Redis operator.
#[derive(Debug, Default)]
pub struct RedisOckOp;

impl RedisOckOp {
    fn has_failed_pod(cluster: &SimCluster) -> bool {
        cluster
            .api()
            .store()
            .list(&Kind::Pod, NAMESPACE)
            .iter()
            .any(|o| {
                o.meta.labels.get("app").map(String::as_str) == Some(INSTANCE)
                    && matches!(&o.data, ObjectData::Pod(p) if p.phase == PodPhase::Failed)
            })
    }
}

impl Operator for RedisOckOp {
    fn name(&self) -> &'static str {
        "OCK/RedisOp"
    }

    fn system(&self) -> &'static str {
        "redis"
    }

    fn kind(&self) -> &'static str {
        "RedisCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "image",
                image_schema().default_value(Value::from("redis:7.0")),
            )
            .prop(
                "follower",
                Schema::object()
                    .prop(
                        "replicas",
                        Schema::integer().min(0).max(9).semantic(Semantic::Replicas),
                    )
                    .prop("pdb", pdb_schema()),
            )
            .prop("resources", resources_schema())
            .prop("securityContext", security_context_schema())
            .prop("nodeSelector", node_selector_schema())
            .prop("tolerations", tolerations_schema())
            .prop(
                "storage",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(true)),
                    )
                    .prop(
                        "size",
                        Schema::string()
                            .format("quantity")
                            .semantic(Semantic::StorageSize),
                    )
                    .prop(
                        "storageClass",
                        Schema::string().semantic(Semantic::StorageClass),
                    ),
            )
            .prop("tls", tls_schema())
            .prop(
                "config",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop("service", service_schema())
            .prop(
                "pod",
                pod_template_schema_without(&[
                    "resources",
                    "securityContext",
                    "nodeSelector",
                    "tolerations",
                ]),
            )
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("redis-ock-op");
        b.passthrough("follower.replicas", "sts.followers");
        b.passthrough("image", "pod.image");
        b.passthrough("resources.requests.cpu", "pod.resources.requests.cpu");
        b.passthrough("resources.requests.memory", "pod.resources.requests.memory");
        b.guarded_passthrough(
            "storage.enabled",
            &[
                ("storage.size", "pvc.size"),
                ("storage.storageClass", "pvc.storageClass"),
            ],
        );
        b.guarded_passthrough("tls.enabled", &[("tls.secretName", "tls.secretName")]);
        b.guarded_passthrough(
            "follower.pdb.enabled",
            &[("follower.pdb.minAvailable", "pdb.minAvailable")],
        );
        b.passthrough("service.port", "service.port");
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("image", Value::from("redis:7.0")),
            (
                "follower",
                Value::object([
                    ("replicas", Value::from(2)),
                    (
                        "pdb",
                        Value::object([
                            ("enabled", Value::from(false)),
                            ("minAvailable", Value::from(1)),
                        ]),
                    ),
                ]),
            ),
            (
                "resources",
                Value::object([(
                    "requests",
                    Value::object([
                        ("cpu", Value::from("100m")),
                        ("memory", Value::from("128Mi")),
                    ]),
                )]),
            ),
            (
                "storage",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("8Gi")),
                    ("storageClass", Value::from("standard")),
                ]),
            ),
            (
                "config",
                Value::object([
                    ("maxmemory", Value::from("256Mi")),
                    ("save", Value::from("900 1")),
                ]),
            ),
            ("service", Value::object([("port", Value::from(6379))])),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "redis:7.0".to_string(),
            "redis:7.2".to_string(),
            "redis:6.2".to_string(),
        ]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        // RED-OCK-8: the stability gate.
        let leader_name = format!("{INSTANCE}-leader");
        let follower_name = format!("{INSTANCE}-follower");
        let deployed = cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, &leader_name))
            .is_some();
        if bugs.injected("RED-OCK-8") && deployed && Self::has_failed_pod(cluster) {
            return Ok(());
        }
        let followers = i64_at(cr, "follower.replicas").unwrap_or(2).clamp(0, 9) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "redis:7.0".to_string());

        // Storage. RED-OCK-5: the quantity is parsed with an unwrap; a
        // malformed value (admitted under PLAT-2) panics the operator.
        let storage_enabled = bool_at(cr, "storage.enabled").unwrap_or(true);
        let claims = if storage_enabled {
            let size_str = str_at(cr, "storage.size").unwrap_or_else(|| "8Gi".to_string());
            let size = if bugs.injected("RED-OCK-5") {
                quantity_or_panic(&size_str, "storage size")?
            } else {
                match size_str.parse() {
                    Ok(q) => q,
                    Err(e) => {
                        cluster.log(
                            LogLevel::Error,
                            self.name(),
                            format!("invalid storage size {size_str:?}: {e}; keeping default"),
                        );
                        "8Gi".parse().expect("literal")
                    }
                }
            };
            vec![ClaimTemplate {
                name: "data".to_string(),
                size,
                storage_class: str_at(cr, "storage.storageClass")
                    .unwrap_or_else(|| "standard".to_string()),
            }]
        } else {
            Vec::new()
        };

        // TLS. RED-OCK-6: enabling TLS without a secret name dereferences
        // nil.
        let mut tls_secret = String::new();
        if bool_at(cr, "tls.enabled").unwrap_or(false) {
            match str_at(cr, "tls.secretName") {
                Some(name) if !name.is_empty() => tls_secret = name,
                _ => {
                    if bugs.injected("RED-OCK-6") {
                        return Err(OperatorError::Panic(
                            "nil pointer: tls.secretName".to_string(),
                        ));
                    }
                    cluster.log(
                        LogLevel::Error,
                        self.name(),
                        "tls enabled without secretName; ignoring",
                    );
                }
            }
        }

        // Configuration. RED-OCK-7: an empty `save` directive panics the
        // renderer.
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for (k, v) in map_at(cr, "config") {
            if k == "save" && v.trim().is_empty() {
                if bugs.injected("RED-OCK-7") {
                    return Err(OperatorError::Panic(
                        "index out of range rendering save directive".to_string(),
                    ));
                }
                cluster.log(
                    LogLevel::Error,
                    self.name(),
                    "ignoring empty save directive",
                );
                continue;
            }
            entries.insert(k, v);
        }
        entries.insert("followers".to_string(), followers.to_string());
        if !tls_secret.is_empty() {
            entries.insert("tlsSecret".to_string(), tls_secret);
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Pod template. RED-OCK-1 drops resources; RED-OCK-3 drops the
        // security context; RED-OCK-4 merges (never removes) the node
        // selector.
        let mut template = pod_template_at(cr, "pod", INSTANCE, Some("leader"), &image, &hash);
        if bugs.injected("RED-OCK-1") {
            template.containers[0].resources = Default::default();
        } else {
            template.containers[0].resources = resources_at(cr, "resources");
        }
        if bugs.injected("RED-OCK-3") {
            template.security = Default::default();
            template.containers[0].security = Default::default();
        } else {
            template.security = security_at(cr, "securityContext");
            template.containers[0].security = security_at(cr, "securityContext");
        }
        let declared_selector = map_at(cr, "nodeSelector");
        if bugs.injected("RED-OCK-4") {
            if let Some(obj) =
                cluster
                    .api()
                    .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, &leader_name))
            {
                if let ObjectData::StatefulSet(existing) = &obj.data {
                    let mut merged = existing.template.node_selector.clone();
                    merged.extend(declared_selector.clone());
                    template.node_selector = merged;
                }
            }
            if template.node_selector.is_empty() {
                template.node_selector = declared_selector;
            }
        } else {
            template.node_selector = declared_selector;
        }
        template.tolerations = tolerations_at(cr, "tolerations");
        // The leader and follower tiers run as separate stateful sets, as
        // the real operator deploys them.
        let mut follower_template = template.clone();
        follower_template
            .labels
            .insert("component".to_string(), "follower".to_string());
        follower_template.containers[0].name = "follower".to_string();
        apply_statefulset(
            cluster,
            NAMESPACE,
            &leader_name,
            1,
            template,
            claims.clone(),
        )?;
        apply_statefulset(
            cluster,
            NAMESPACE,
            &follower_name,
            followers,
            follower_template,
            claims,
        )?;

        // Follower PDB. RED-OCK-2: the field has no effect at all.
        if !bugs.injected("RED-OCK-2") {
            if bool_at(cr, "follower.pdb.enabled").unwrap_or(false) {
                let min = i64_at(cr, "follower.pdb.minAvailable").unwrap_or(1) as i32;
                apply_pdb(
                    cluster,
                    NAMESPACE,
                    &format!("{INSTANCE}-pdb"),
                    INSTANCE,
                    min,
                )?;
            } else {
                delete_if_exists(
                    cluster,
                    Kind::PodDisruptionBudget,
                    NAMESPACE,
                    &format!("{INSTANCE}-pdb"),
                );
            }
        }

        // Client service.
        let port = i64_at(cr, "service.port").unwrap_or(6379).clamp(1, 65535) as u16;
        let service_type = match str_at(cr, "service.type").as_deref() {
            Some("NodePort") => simkube::objects::ServiceType::NodePort,
            Some("LoadBalancer") => simkube::objects::ServiceType::LoadBalancer,
            _ => simkube::objects::ServiceType::ClusterIp,
        };
        apply_service(cluster, NAMESPACE, INSTANCE, INSTANCE, port, service_type)?;

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, 1 + followers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(RedisOckOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn deploys_leader_and_followers() {
        let instance = deploy(BugToggles::all_injected());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 3);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn ock1_resources_dropped_when_injected() {
        let instance = deploy(BugToggles::all_injected());
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-leader",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(s.template.containers[0].resources.requests.is_empty());
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-1");
        let instance = deploy(fixed);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-leader",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(!s.template.containers[0].resources.requests.is_empty());
        }
    }

    #[test]
    fn ock2_pdb_has_no_effect_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"follower.pdb.enabled".parse().unwrap(), Value::from(true));
        spec.set_path(
            &"follower.pdb.minAvailable".parse().unwrap(),
            Value::from(2),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::PodDisruptionBudget,
                NAMESPACE,
                "test-cluster-pdb"
            ))
            .is_none());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-2");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::PodDisruptionBudget,
                NAMESPACE,
                "test-cluster-pdb"
            ))
            .is_some());
    }

    #[test]
    fn ock5_bad_quantity_panics_under_buggy_platform() {
        // The malformed quantity "1e" passes the loose PLAT-2 validation
        // and reaches the unwrap site.
        let mut instance = Instance::deploy(
            Box::new(RedisOckOp),
            BugToggles::all_injected(),
            PlatformBugs::all(),
        )
        .unwrap();
        let mut spec = instance.cr_spec();
        spec.set_path(&"storage.size".parse().unwrap(), Value::from("1e"));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
    }

    #[test]
    fn ock6_tls_without_secret_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"tls.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-6");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
    }

    #[test]
    fn ock8_gate_blocks_config_rollback() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"config".parse().unwrap(),
            Value::object([("maxmemory", Value::from("garbage"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "gate blocks rollback");
        // With the gate fixed the rollback recovers the system.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-8");
        let mut instance = deploy(fixed);
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"config".parse().unwrap(),
            Value::object([("maxmemory", Value::from("garbage"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }
    #[test]
    fn ock3_security_context_dropped_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"securityContext.runAsUser".parse().unwrap(),
            Value::from(1000),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-leader",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(s.template.security.run_as_user, None, "dropped");
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-leader",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(s.template.security.run_as_user, Some(1000));
        }
    }

    #[test]
    fn ock4_node_selector_removal_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"nodeSelector".parse().unwrap(),
            Value::object([("disk", Value::from("ssd"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"nodeSelector".parse().unwrap(), Value::empty_object());
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-leader",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.node_selector.get("disk").map(String::as_str),
                Some("ssd"),
                "removal swallowed by the injected bug"
            );
        }
    }

    #[test]
    fn ock7_empty_save_directive_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"config.save".parse().unwrap(), Value::from("  "));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-OCK-7");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
    }
}
