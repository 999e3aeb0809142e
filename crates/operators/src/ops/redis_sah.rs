//! SAH/RedisOp: the Spotahome-style Redis failover operator (Table 4).
//!
//! Injected bugs: RED-SAH-1 (sentinel replica changes ignored after the
//! initial deployment), RED-SAH-2 (disabling the exporter leaves the
//! sidecar), RED-SAH-3 (scaling Redis to zero is accepted and takes the
//! system down), RED-SAH-4 (no operation is performed while the master is
//! down — including the rollback). The `storage.keepAfterDelete` property
//! depends on the non-toggle boolean `storage.persistent`, one of the four
//! blackbox false-positive sites.

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule, Operand};
use simkube::cluster::LogLevel;
use simkube::meta::{LabelSelector, ObjectMeta};
use simkube::objects::{
    ClaimTemplate, Container, Deployment, Kind, ObjectData, PodPhase, PodTemplate,
};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The Spotahome-style Redis failover operator.
#[derive(Debug, Default)]
pub struct RedisSahOp;

impl RedisSahOp {
    fn master_failed(cluster: &SimCluster) -> bool {
        let key = ObjKey::new(Kind::Pod, NAMESPACE, &format!("{INSTANCE}-0"));
        match cluster.api().get(&key) {
            Some(obj) => matches!(&obj.data, ObjectData::Pod(p) if p.phase == PodPhase::Failed),
            // A missing master (scaled to zero) also counts as down.
            None => cluster
                .api()
                .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
                .is_some(),
        }
    }
}

impl Operator for RedisSahOp {
    fn name(&self) -> &'static str {
        "SAH/RedisOp"
    }

    fn system(&self) -> &'static str {
        "redis"
    }

    fn kind(&self) -> &'static str {
        "RedisFailover"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "redis",
                Schema::object()
                    .prop(
                        "replicas",
                        Schema::integer().min(0).max(9).semantic(Semantic::Replicas),
                    )
                    .prop(
                        "image",
                        image_schema().default_value(Value::from("redis:7.0")),
                    )
                    .prop("resources", resources_schema())
                    .prop(
                        "config",
                        Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
                    ),
            )
            .prop(
                "sentinel",
                Schema::object()
                    .prop(
                        "replicas",
                        Schema::integer().min(1).max(7).semantic(Semantic::Replicas),
                    )
                    .prop("resources", resources_schema()),
            )
            .prop(
                "exporter",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(false)),
                    )
                    .prop("image", image_schema()),
            )
            .prop(
                "storage",
                Schema::object()
                    // A non-toggle boolean guard: the blackbox FP site.
                    .prop("persistent", Schema::boolean())
                    .prop("keepAfterDelete", Schema::boolean())
                    .prop(
                        "size",
                        Schema::string()
                            .format("quantity")
                            .semantic(Semantic::StorageSize),
                    ),
            )
            .prop("pod", pod_template_schema_without(&["resources"]))
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("redis-sah-op");
        b.passthrough("redis.replicas", "sts.replicas");
        b.passthrough("redis.image", "pod.image");
        b.passthrough("sentinel.replicas", "sentinel.replicas");
        b.guarded_passthrough("exporter.enabled", &[("exporter.image", "exporter.image")]);
        // keepAfterDelete is consumed only when storage.persistent is true
        // (a truthy predicate on a non-"enabled" boolean).
        let persistent = b.load("storage.persistent");
        let then_b = b.new_block();
        let join = b.new_block();
        b.branch(Operand::Var(persistent), then_b, join);
        b.switch_to(then_b);
        b.passthrough("storage.keepAfterDelete", "pvc.keepAfterDelete");
        b.jump(join);
        b.switch_to(join);
        b.passthrough("storage.size", "storage.size");
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            (
                "redis",
                Value::object([
                    ("replicas", Value::from(3)),
                    ("image", Value::from("redis:7.0")),
                    (
                        "config",
                        Value::object([("maxmemory", Value::from("128Mi"))]),
                    ),
                ]),
            ),
            ("sentinel", Value::object([("replicas", Value::from(3))])),
            ("exporter", Value::object([("enabled", Value::from(false))])),
            (
                "storage",
                Value::object([
                    ("persistent", Value::from(false)),
                    ("keepAfterDelete", Value::from(false)),
                    ("size", Value::from("4Gi")),
                ]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "redis:7.0".to_string(),
            "redis:7.2".to_string(),
            "redis-exporter:1.55".to_string(),
        ]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let deployed = cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .is_some();
        // RED-SAH-4: no operation while the master is down.
        if bugs.injected("RED-SAH-4") && deployed && Self::master_failed(cluster) {
            return Ok(());
        }
        let mut replicas = i64_at(cr, "redis.replicas").unwrap_or(3).clamp(0, 9) as i32;
        // RED-SAH-3 (fixed path): reject scaling the data tier to zero.
        if replicas == 0 && !bugs.injected("RED-SAH-3") {
            cluster.log(
                LogLevel::Error,
                self.name(),
                "rejecting redis.replicas=0: at least one data node required",
            );
            replicas = 1;
        }
        let image = str_at(cr, "redis.image").unwrap_or_else(|| "redis:7.0".to_string());

        // Configuration.
        let mut entries: BTreeMap<String, String> = map_at(cr, "redis.config");
        entries.insert(
            "followers".to_string(),
            replicas.saturating_sub(1).to_string(),
        );
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Redis stateful set with optional exporter sidecar.
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &hash);
        template.containers[0].resources = resources_at(cr, "redis.resources");
        let exporter_on = bool_at(cr, "exporter.enabled").unwrap_or(false);
        let had_exporter =
            match cluster
                .api()
                .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            {
                Some(obj) => match &obj.data {
                    ObjectData::StatefulSet(s) => {
                        s.template.containers.iter().any(|c| c.name == "exporter")
                    }
                    _ => false,
                },
                None => false,
            };
        // RED-SAH-2: once added, the exporter sidecar is never removed.
        if exporter_on || (bugs.injected("RED-SAH-2") && had_exporter) {
            template.containers.push(Container {
                name: "exporter".to_string(),
                image: str_at(cr, "exporter.image")
                    .unwrap_or_else(|| "redis-exporter:1.55".to_string()),
                ..Container::default()
            });
        }
        let persistent = bool_at(cr, "storage.persistent").unwrap_or(false);
        let claims = if persistent {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "storage.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "4Gi".parse().expect("literal")),
                storage_class: "standard".to_string(),
            }]
        } else {
            // Ephemeral mode sizes the in-memory scratch volume instead.
            if let Some(size) = str_at(cr, "storage.size") {
                template.containers[0]
                    .env
                    .insert("EMPTYDIR_SIZE".to_string(), size);
            }
            Vec::new()
        };
        {
            // keepAfterDelete is only honoured in persistent mode; the
            // annotation is removed otherwise.
            let keep = bool_at(cr, "storage.keepAfterDelete").unwrap_or(false);
            let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
            let stale = cluster.api().get(&sts_key).is_some_and(|o| {
                let recorded = o.meta.annotations.get("keepAfterDelete");
                if persistent {
                    recorded.map(String::as_str) != Some(if keep { "true" } else { "false" })
                } else {
                    recorded.is_some()
                }
            });
            if stale {
                let time = cluster.now();
                let _ = cluster
                    .api_mut()
                    .store_mut()
                    .update_with(&sts_key, time, |o| {
                        if persistent {
                            o.meta
                                .annotations
                                .insert("keepAfterDelete".to_string(), keep.to_string());
                        } else {
                            o.meta.annotations.remove("keepAfterDelete");
                        }
                    });
            }
        }
        apply_statefulset(cluster, NAMESPACE, INSTANCE, replicas, template, claims)?;

        // Sentinel deployment. RED-SAH-1: replica changes after the initial
        // deployment are ignored.
        let sentinel_name = format!("{INSTANCE}-sentinel");
        let sentinel_key = ObjKey::new(Kind::Deployment, NAMESPACE, &sentinel_name);
        let declared_sentinels = i64_at(cr, "sentinel.replicas").unwrap_or(3).clamp(1, 7) as i32;
        let sentinels = match cluster.api().get(&sentinel_key) {
            Some(obj) if bugs.injected("RED-SAH-1") => match &obj.data {
                ObjectData::Deployment(d) => d.replicas,
                _ => declared_sentinels,
            },
            _ => declared_sentinels,
        };
        let sentinel_app = format!("{INSTANCE}-sentinel");
        let dep = Deployment {
            replicas: sentinels,
            selector: LabelSelector::match_labels([("app", sentinel_app.as_str())]),
            template: PodTemplate {
                labels: [
                    ("app".to_string(), sentinel_app.clone()),
                    ("component".to_string(), "sentinel".to_string()),
                ]
                .into_iter()
                .collect(),
                containers: vec![Container {
                    name: "sentinel".to_string(),
                    image: image.clone(),
                    resources: resources_at(cr, "sentinel.resources"),
                    ..Container::default()
                }],
                ..PodTemplate::default()
            },
            ..Deployment::default()
        };
        let time = cluster.now();
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named(NAMESPACE, &sentinel_name),
                ObjectData::Deployment(dep),
                time,
            )
            .map_err(|e| OperatorError::Transient(e.to_string()))?;

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
        Instance::deploy(Box::new(RedisSahOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn deploys_redis_and_sentinels() {
        let instance = deploy(BugToggles::all_injected());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 6);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn sah1_sentinel_scaling_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"sentinel.replicas".parse().unwrap(), Value::from(5));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let dep = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-sentinel",
            ))
            .unwrap();
        if let ObjectData::Deployment(d) = &dep.data {
            assert_eq!(d.replicas, 3, "injected bug keeps the old count");
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-SAH-1");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let dep = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-sentinel",
            ))
            .unwrap();
        if let ObjectData::Deployment(d) = &dep.data {
            assert_eq!(d.replicas, 5);
        }
    }

    #[test]
    fn sah2_exporter_not_removed_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"exporter.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"exporter.enabled".parse().unwrap(), Value::from(false));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(
                s.template.containers.iter().any(|c| c.name == "exporter"),
                "sidecar should linger under the injected bug"
            );
        }
    }

    #[test]
    fn sah3_zero_replicas_takes_system_down_only_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"redis.replicas".parse().unwrap(), Value::from(0));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("RED-SAH-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn whitebox_ir_reveals_persistent_dependency() {
        let deps = opdsl::control_dependencies(&RedisSahOp.ir());
        assert!(deps.iter().any(|d| {
            d.controller.to_string() == "storage.persistent"
                && d.dependent.to_string() == "storage.keepAfterDelete"
        }));
    }
    #[test]
    fn sah4_no_operation_while_master_down_when_injected() {
        // Take the master down via a bad config, then try a follower
        // scale: the gated operator ignores it.
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"redis.config".parse().unwrap(),
            Value::object([("maxmemory", Value::from("junk"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        let mut scaled = good.clone();
        scaled.set_path(&"redis.replicas".parse().unwrap(), Value::from(5));
        instance.submit(scaled).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let redis_pods = instance
            .cluster
            .pod_summaries(NAMESPACE)
            .iter()
            .filter(|(n, ..)| !n.contains("sentinel"))
            .count();
        assert!(
            redis_pods < 5,
            "gated operator must not apply the scale ({redis_pods} pods)"
        );
        assert!(
            !instance.last_health.is_healthy(),
            "gated operator cannot recover either"
        );
    }
}
