//! RabbitMQOp: the official RabbitMQ cluster operator (Table 4).
//!
//! Injected bugs: RMQ-1 (config-map updates never roll broker pods),
//! RMQ-2 (backend migration silently ignored — the untested operation the
//! paper's motivating study calls out), RMQ-3 (service-type overrides not
//! applied to the client service).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule};
use simkube::objects::{ClaimTemplate, Kind, ObjectData, ServiceType};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The official RabbitMQ cluster operator.
#[derive(Debug, Default)]
pub struct RabbitMqOp;

fn service_type_of(name: &str) -> ServiceType {
    match name {
        "NodePort" => ServiceType::NodePort,
        "LoadBalancer" => ServiceType::LoadBalancer,
        _ => ServiceType::ClusterIp,
    }
}

impl Operator for RabbitMqOp {
    fn name(&self) -> &'static str {
        "RabbitMQOp"
    }

    fn system(&self) -> &'static str {
        "rabbitmq"
    }

    fn kind(&self) -> &'static str {
        "RabbitmqCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "replicas",
                Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
            )
            .prop(
                "image",
                image_schema().default_value(Value::from("rabbitmq:3.12")),
            )
            .prop(
                "persistence",
                persistence_schema().prop(
                    "backend",
                    Schema::string_enum(["classic", "quorum", "stream"]),
                ),
            )
            .prop(
                "additionalConfig",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop(
                "override",
                Schema::object().prop(
                    "serviceType",
                    Schema::string_enum(["ClusterIP", "NodePort", "LoadBalancer"])
                        .semantic(Semantic::ServiceType),
                ),
            )
            .prop("mirroring", Schema::boolean())
            .prop("resources", resources_schema())
            .prop("pod", pod_template_schema_without(&["resources"]))
            // Obscurely named AMQP listener port; whitebox learns Port
            // semantics from the sink.
            .prop("clientListener", Schema::integer().min(1).max(65535))
            .require("replicas")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("rabbitmq-op");
        b.passthrough("replicas", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.passthrough("persistence.backend", "config.backend");
        b.passthrough("override.serviceType", "service.type");
        b.passthrough("clientListener", "service.port");
        b.passthrough("mirroring", "config.mirroring");
        b.guarded_passthrough(
            "persistence.enabled",
            &[
                ("persistence.size", "pvc.size"),
                ("persistence.storageClass", "pvc.storageClass"),
            ],
        );
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("replicas", Value::from(3)),
            ("image", Value::from("rabbitmq:3.12")),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("10Gi")),
                    ("storageClass", Value::from("standard")),
                    ("backend", Value::from("classic")),
                ]),
            ),
            (
                "additionalConfig",
                Value::object([("vm_memory_high_watermark", Value::from("0.4"))]),
            ),
            (
                "override",
                Value::object([("serviceType", Value::from("ClusterIP"))]),
            ),
            ("mirroring", Value::from(false)),
            ("clientListener", Value::from(5672)),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec!["rabbitmq:3.12".to_string(), "rabbitmq:3.13".to_string()]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let replicas = i64_at(cr, "replicas").unwrap_or(3).clamp(1, 9) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "rabbitmq:3.12".to_string());
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let deployed = cluster.api().get(&sts_key).is_some();
        let cm_key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &format!("{INSTANCE}-config"));

        // Configuration. RMQ-2: the backend is captured at creation and
        // never migrated.
        let declared_backend =
            str_at(cr, "persistence.backend").unwrap_or_else(|| "classic".to_string());
        let backend = if bugs.injected("RMQ-2") && deployed {
            match cluster.api().get(&cm_key) {
                Some(obj) => match &obj.data {
                    ObjectData::ConfigMap(c) => {
                        c.data.get("backend").cloned().unwrap_or(declared_backend)
                    }
                    _ => declared_backend,
                },
                None => declared_backend,
            }
        } else {
            declared_backend
        };
        let mut entries: BTreeMap<String, String> = map_at(cr, "additionalConfig");
        entries.insert("backend".to_string(), backend);
        entries.insert(
            "mirroring".to_string(),
            bool_at(cr, "mirroring").unwrap_or(false).to_string(),
        );
        entries.insert(
            "amqpPort".to_string(),
            i64_at(cr, "clientListener").unwrap_or(5672).to_string(),
        );
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Broker pods. RMQ-1: the config hash is stamped only at creation,
        // so config changes never roll the brokers.
        let effective_hash = if bugs.injected("RMQ-1") && deployed {
            match cluster.api().get(&sts_key) {
                Some(obj) => match &obj.data {
                    ObjectData::StatefulSet(s) => s.template.containers[0].config_hash.clone(),
                    _ => hash,
                },
                None => hash,
            }
        } else {
            hash
        };
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &effective_hash);
        template.containers[0].resources = resources_at(cr, "resources");
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "10Gi".parse().expect("literal")),
                storage_class: str_at(cr, "persistence.storageClass")
                    .unwrap_or_else(|| "standard".to_string()),
            }]
        } else {
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, replicas, template, claims)?;
        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            stamp_sts_annotation(cluster, NAMESPACE, INSTANCE, "reclaimPolicy", &reclaim);
        }

        // Client service. RMQ-3: the declared type override is ignored on
        // updates.
        let declared_type =
            str_at(cr, "override.serviceType").unwrap_or_else(|| "ClusterIP".to_string());
        let svc_key = ObjKey::new(Kind::Service, NAMESPACE, INSTANCE);
        let effective_type = if bugs.injected("RMQ-3") {
            match cluster.api().get(&svc_key) {
                Some(obj) => match &obj.data {
                    ObjectData::Service(s) => s.service_type,
                    _ => service_type_of(&declared_type),
                },
                None => service_type_of(&declared_type),
            }
        } else {
            service_type_of(&declared_type)
        };
        let port = i64_at(cr, "clientListener").unwrap_or(5672).clamp(1, 65535) as u16;
        apply_service(cluster, NAMESPACE, INSTANCE, INSTANCE, port, effective_type)?;

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, replicas);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(RabbitMqOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn broker_cluster_deploys() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 3);
    }

    #[test]
    fn rmq2_backend_migration_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"persistence.backend".parse().unwrap(),
            Value::from("quorum"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let cm = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::ConfigMap,
                NAMESPACE,
                "test-cluster-config",
            ))
            .unwrap();
        if let ObjectData::ConfigMap(c) = &cm.data {
            assert_eq!(c.data.get("backend").map(String::as_str), Some("classic"));
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RMQ-2");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let cm = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::ConfigMap,
                NAMESPACE,
                "test-cluster-config",
            ))
            .unwrap();
        if let ObjectData::ConfigMap(c) = &cm.data {
            assert_eq!(c.data.get("backend").map(String::as_str), Some("quorum"));
        }
    }

    #[test]
    fn rmq3_service_type_override_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"override.serviceType".parse().unwrap(),
            Value::from("LoadBalancer"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let svc = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Service, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::Service(s) = &svc.data {
            assert_eq!(s.service_type, ServiceType::ClusterIp);
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RMQ-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let svc = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Service, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::Service(s) = &svc.data {
            assert_eq!(s.service_type, ServiceType::LoadBalancer);
        }
    }

    #[test]
    fn rmq1_config_change_does_not_roll_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let before = match &instance.cluster.api().get(&sts_key).unwrap().data {
            ObjectData::StatefulSet(s) => s.template.containers[0].config_hash.clone(),
            _ => unreachable!(),
        };
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"additionalConfig.channel_max".parse().unwrap(),
            Value::from("2048"),
        );
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let after = match &instance.cluster.api().get(&sts_key).unwrap().data {
            ObjectData::StatefulSet(s) => s.template.containers[0].config_hash.clone(),
            _ => unreachable!(),
        };
        assert_eq!(before, after);
    }
}
