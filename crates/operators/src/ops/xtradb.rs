//! XtraDBOp: the Percona XtraDB cluster operator (Table 4).
//!
//! Injected bugs: PXC-1 (pxc label deletion ignored), PXC-2 (disabling
//! ProxySQL leaves the proxy pods), PXC-3 (backup-storage removal
//! ignored), PXC-4 (resources honoured only at creation), PXC-5 (invalid
//! cron panics schedule parsing), PXC-6 (stability gate blocks rollback).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule};
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

/// The Percona XtraDB cluster operator.
#[derive(Debug, Default)]
pub struct XtraDbOp;

impl XtraDbOp {
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

impl Operator for XtraDbOp {
    fn name(&self) -> &'static str {
        "XtraDBOp"
    }

    fn system(&self) -> &'static str {
        "xtradb"
    }

    fn kind(&self) -> &'static str {
        "PerconaXtraDBCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "pxc",
                Schema::object()
                    .prop(
                        "size",
                        Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
                    )
                    .prop(
                        "image",
                        image_schema().default_value(Value::from("pxc:8.0")),
                    )
                    .prop(
                        "labels",
                        Schema::map(Schema::string()).semantic(Semantic::Labels),
                    )
                    .prop("resources", resources_schema())
                    .prop(
                        "configuration",
                        Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
                    ),
            )
            .prop(
                "proxysql",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(false)),
                    )
                    .prop(
                        "size",
                        Schema::integer().min(1).max(5).semantic(Semantic::Replicas),
                    )
                    .prop("image", image_schema()),
            )
            .prop(
                "backup",
                backup_schema().prop(
                    "storages",
                    Schema::map(
                        Schema::object()
                            .prop("type", Schema::string_enum(["s3", "filesystem"]))
                            .prop("bucket", Schema::string()),
                    ),
                ),
            )
            // Obscurely named gcache size; whitebox learns StorageSize
            // semantics from the `pvc.size` sink.
            .prop("sstWindow", Schema::string().format("quantity"))
            .prop("persistence", persistence_schema())
            .prop("pod", pod_template_schema_without(&["resources"]))
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("xtradb-op");
        b.passthrough("pxc.size", "sts.replicas");
        b.passthrough("pxc.image", "pod.image");
        b.passthrough("sstWindow", "pvc.size");
        b.guarded_passthrough(
            "proxysql.enabled",
            &[
                ("proxysql.size", "proxy.replicas"),
                ("proxysql.image", "proxy.image"),
            ],
        );
        b.guarded_passthrough(
            "backup.enabled",
            &[("backup.schedule", "config.backupSchedule")],
        );
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
            (
                "pxc",
                Value::object([
                    ("size", Value::from(3)),
                    ("image", Value::from("pxc:8.0")),
                    (
                        "configuration",
                        Value::object([("sql_mode", Value::from("STRICT_TRANS_TABLES"))]),
                    ),
                ]),
            ),
            (
                "proxysql",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from(2)),
                    ("image", Value::from("proxysql:2.5")),
                ]),
            ),
            (
                "backup",
                Value::object([
                    ("enabled", Value::from(false)),
                    ("schedule", Value::from("@daily")),
                    (
                        "storages",
                        Value::object([(
                            "primary",
                            Value::object([
                                ("type", Value::from("s3")),
                                ("bucket", Value::from("backups")),
                            ]),
                        )]),
                    ),
                ]),
            ),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("50Gi")),
                    ("storageClass", Value::from("standard")),
                ]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "pxc:8.0".to_string(),
            "pxc:8.1".to_string(),
            "proxysql:2.5".to_string(),
        ]
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
        // PXC-6: the stability gate.
        if bugs.injected("PXC-6") && deployed && Self::has_failed_pod(cluster) {
            return Ok(());
        }
        let size = i64_at(cr, "pxc.size").unwrap_or(3).clamp(1, 9) as i32;
        let image = str_at(cr, "pxc.image").unwrap_or_else(|| "pxc:8.0".to_string());

        // Backup schedule. PXC-5: invalid cron panics.
        let backup_on = bool_at(cr, "backup.enabled").unwrap_or(false);
        let mut schedule = String::new();
        if backup_on {
            let declared = str_at(cr, "backup.schedule").unwrap_or_else(|| "@daily".to_string());
            if !cron_is_valid(&declared) {
                if bugs.injected("PXC-5") {
                    return Err(OperatorError::Panic(format!(
                        "failed to parse cron expression {declared:?}"
                    )));
                }
                cluster.log(
                    LogLevel::Error,
                    self.name(),
                    format!("invalid backup schedule {declared:?}; backups suspended"),
                );
            } else {
                schedule = declared;
            }
        }

        // Configuration. PXC-3: removed backup storages linger.
        let cm_key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &format!("{INSTANCE}-config"));
        let existing_cm: BTreeMap<String, String> = match cluster.api().get(&cm_key) {
            Some(obj) => match &obj.data {
                ObjectData::ConfigMap(c) => c.data.clone(),
                _ => BTreeMap::new(),
            },
            None => BTreeMap::new(),
        };
        let mut entries: BTreeMap<String, String> = map_at(cr, "pxc.configuration");
        if !schedule.is_empty() {
            entries.insert("backupSchedule".to_string(), schedule);
        }
        if backup_on {
            if let Some(dest) = str_at(cr, "backup.destination") {
                entries.insert("backupDestination".to_string(), dest);
            }
        }
        if let Some(Value::Object(storages)) = value_at(cr, "backup.storages") {
            for (name, st) in storages {
                let ty = st.get("type").and_then(Value::as_str).unwrap_or("s3");
                let bucket = st.get("bucket").and_then(Value::as_str).unwrap_or("");
                entries.insert(format!("backupStorage.{name}"), format!("{ty}:{bucket}"));
            }
        }
        if bugs.injected("PXC-3") {
            for (k, v) in &existing_cm {
                if k.starts_with("backupStorage.") && !entries.contains_key(k) {
                    entries.insert(k.clone(), v.clone());
                }
            }
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Database pods. PXC-1 swallows pxc-label deletions (tracked per
        // applied set); PXC-4 keeps creation-time resources.
        let mut template = pod_template_at(cr, "pod", INSTANCE, Some("pxc"), &image, &hash);
        let mut declared = map_at(cr, "pxc.labels");
        declared.insert("app".to_string(), INSTANCE.to_string());
        declared.insert("component".to_string(), "pxc".to_string());
        let effective = merge_labels_tracked(
            cluster,
            &sts_key,
            "applied-pxc-labels",
            declared,
            bugs.injected("PXC-1"),
        );
        template.labels.extend(effective.clone());
        if bugs.injected("PXC-4") && deployed {
            if let Some(obj) = cluster.api().get(&sts_key) {
                if let ObjectData::StatefulSet(s) = &obj.data {
                    template.containers[0].resources = s.template.containers[0].resources.clone();
                }
            }
        } else {
            template.containers[0].resources = resources_at(cr, "pxc.resources");
        }
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            let storage_class =
                str_at(cr, "persistence.storageClass").unwrap_or_else(|| "standard".to_string());
            let mut claims = vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "50Gi".parse().expect("literal")),
                storage_class: storage_class.clone(),
            }];
            // The (obscurely named) galera cache window gets its own
            // volume when declared.
            if let Some(gcache) = str_at(cr, "sstWindow").and_then(|s| s.parse().ok()) {
                claims.push(ClaimTemplate {
                    name: "gcache".to_string(),
                    size: gcache,
                    storage_class,
                });
            }
            claims
        } else {
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, size, template, claims)?;
        stamp_label_record(cluster, &sts_key, "applied-pxc-labels", &effective);
        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            stamp_sts_annotation(cluster, NAMESPACE, INSTANCE, "reclaimPolicy", &reclaim);
        }

        // ProxySQL. PXC-2: disabling leaves the deployment in place.
        let proxy_name = format!("{INSTANCE}-proxysql");
        if bool_at(cr, "proxysql.enabled").unwrap_or(false) {
            let proxy_size = i64_at(cr, "proxysql.size").unwrap_or(2).clamp(1, 5) as i32;
            let dep = Deployment {
                replicas: proxy_size,
                selector: LabelSelector::match_labels([
                    ("app", INSTANCE),
                    ("component", "proxysql"),
                ]),
                template: PodTemplate {
                    labels: [
                        ("app".to_string(), INSTANCE.to_string()),
                        ("component".to_string(), "proxysql".to_string()),
                    ]
                    .into_iter()
                    .collect(),
                    containers: vec![Container {
                        name: "proxysql".to_string(),
                        image: str_at(cr, "proxysql.image")
                            .unwrap_or_else(|| "proxysql:2.5".to_string()),
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
                    ObjectMeta::named(NAMESPACE, &proxy_name),
                    ObjectData::Deployment(dep),
                    time,
                )
                .map_err(|e| OperatorError::Transient(e.to_string()))?;
        } else if !bugs.injected("PXC-2") {
            delete_if_exists(cluster, Kind::Deployment, NAMESPACE, &proxy_name);
        }

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, size);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(XtraDbOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn galera_with_proxysql_deploys() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        // 3 pxc + 2 proxysql pods.
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 5);
    }

    #[test]
    fn pxc2_proxysql_lingers_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"proxysql.enabled".parse().unwrap(), Value::from(false));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-proxysql"
            ))
            .is_some());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("PXC-2");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-proxysql"
            ))
            .is_none());
    }

    #[test]
    fn pxc3_storage_removal_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"backup.storages".parse().unwrap(), Value::empty_object());
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
            assert!(c.data.contains_key("backupStorage.primary"), "lingers");
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("PXC-3");
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
            assert!(!c.data.contains_key("backupStorage.primary"));
        }
    }

    #[test]
    fn pxc5_invalid_cron_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"backup.enabled".parse().unwrap(), Value::from(true));
        spec.set_path(&"backup.schedule".parse().unwrap(), Value::from("whenever"));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("PXC-5");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
    }

    #[test]
    fn pxc6_gate_blocks_sql_mode_rollback() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"pxc.configuration".parse().unwrap(),
            Value::object([("sql_mode", Value::from("NOT_A_MODE"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "gate blocks rollback");
    }
    #[test]
    fn pxc1_label_removal_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"pxc.labels".parse().unwrap(),
            Value::object([("tier", Value::from("gold"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"pxc.labels".parse().unwrap(), Value::empty_object());
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.labels.get("tier").map(String::as_str),
                Some("gold"),
                "removal swallowed"
            );
        }
    }

    #[test]
    fn pxc4_resources_frozen_after_creation_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"pxc.resources.limits.memory".parse().unwrap(),
            Value::from("4Gi"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(s.template.containers[0].resources.limits.is_empty());
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("PXC-4");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.containers[0].resources.limits["memory"],
                "4Gi".parse().unwrap()
            );
        }
    }
}
