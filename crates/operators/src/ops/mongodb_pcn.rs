//! PCN/MongoOp: the Percona-style MongoDB operator (Table 4).
//!
//! Injected bugs: MG-PCN-1 (backup schedule only read when backup is first
//! enabled), MG-PCN-2 (disabling monitoring leaves the PMM sidecar),
//! MG-PCN-3 (users-secret rotation ignored), MG-PCN-4 (disruption budget
//! created once, never updated), MG-PCN-5 (stability gate blocks the
//! rollback of a bad configuration).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule};
use simkube::objects::{ClaimTemplate, Container, Kind, ObjectData, PodPhase};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The Percona-style MongoDB operator.
#[derive(Debug, Default)]
pub struct MongoPcnOp;

impl MongoPcnOp {
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

impl Operator for MongoPcnOp {
    fn name(&self) -> &'static str {
        "PCN/MongoOp"
    }

    fn system(&self) -> &'static str {
        "mongodb"
    }

    fn kind(&self) -> &'static str {
        "PerconaServerMongoDB"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "replsetSize",
                Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
            )
            .prop(
                "image",
                image_schema().default_value(Value::from("percona-mongo:6.0")),
            )
            .prop(
                "configuration",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop("backup", backup_schema())
            .prop(
                "pmm",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(false)),
                    )
                    .prop("image", image_schema())
                    .prop(
                        "serverHost",
                        Schema::string().semantic(Semantic::ServiceName),
                    ),
            )
            .prop(
                "secrets",
                Schema::object()
                    .prop("users", Schema::string().semantic(Semantic::SecretRef))
                    .prop(
                        "encryptionKey",
                        Schema::string().semantic(Semantic::SecretRef),
                    ),
            )
            .prop("pdb", pdb_schema())
            .prop("pod", pod_template_schema())
            .prop("persistence", persistence_schema())
            .require("replsetSize")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("mongo-pcn-op");
        b.passthrough("replsetSize", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.passthrough("secrets.users", "config.usersSecret");
        b.guarded_passthrough(
            "backup.enabled",
            &[
                ("backup.schedule", "config.backupSchedule"),
                ("backup.destination", "config.backupDestination"),
            ],
        );
        b.guarded_passthrough(
            "pmm.enabled",
            &[
                ("pmm.image", "sidecar.image"),
                ("pmm.serverHost", "config.pmmServer"),
            ],
        );
        b.guarded_passthrough("pdb.enabled", &[("pdb.minAvailable", "pdb.minAvailable")]);
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
            ("replsetSize", Value::from(3)),
            ("image", Value::from("percona-mongo:6.0")),
            (
                "configuration",
                Value::object([("storageEngine", Value::from("wiredTiger"))]),
            ),
            (
                "backup",
                Value::object([
                    ("enabled", Value::from(false)),
                    ("schedule", Value::from("@daily")),
                    ("destination", Value::from("s3://bucket")),
                ]),
            ),
            ("pmm", Value::object([("enabled", Value::from(false))])),
            (
                "secrets",
                Value::object([("users", Value::from("users-secret"))]),
            ),
            (
                "pdb",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("minAvailable", Value::from(2)),
                ]),
            ),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("20Gi")),
                    ("storageClass", Value::from("standard")),
                ]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "percona-mongo:6.0".to_string(),
            "percona-mongo:5.0".to_string(),
            "pmm-client:2.41".to_string(),
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
        // MG-PCN-5: the stability gate.
        if bugs.injected("MG-PCN-5") && deployed && Self::has_failed_pod(cluster) {
            return Ok(());
        }
        let replicas = i64_at(cr, "replsetSize").unwrap_or(3).clamp(1, 9) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "percona-mongo:6.0".to_string());

        let cm_key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &format!("{INSTANCE}-config"));
        let existing_cm: BTreeMap<String, String> = match cluster.api().get(&cm_key) {
            Some(obj) => match &obj.data {
                ObjectData::ConfigMap(c) => c.data.clone(),
                _ => BTreeMap::new(),
            },
            None => BTreeMap::new(),
        };

        let mut entries: BTreeMap<String, String> = map_at(cr, "configuration");
        // MG-PCN-3: the users secret is baked in at creation only.
        let declared_secret = str_at(cr, "secrets.users").unwrap_or_default();
        let users_secret = if bugs.injected("MG-PCN-3") {
            existing_cm
                .get("usersSecret")
                .cloned()
                .unwrap_or(declared_secret)
        } else {
            declared_secret
        };
        if !users_secret.is_empty() {
            entries.insert("usersSecret".to_string(), users_secret);
        }
        if let Some(key) = str_at(cr, "secrets.encryptionKey") {
            entries.insert("encryptionKeySecret".to_string(), key);
        }
        // Backup. MG-PCN-1: the schedule is captured when backup is first
        // enabled and never refreshed.
        if bool_at(cr, "backup.enabled").unwrap_or(false) {
            let declared_schedule = str_at(cr, "backup.schedule").unwrap_or_default();
            let schedule = if bugs.injected("MG-PCN-1") {
                existing_cm
                    .get("backupSchedule")
                    .cloned()
                    .unwrap_or(declared_schedule)
            } else {
                declared_schedule
            };
            entries.insert("backupSchedule".to_string(), schedule);
            if let Some(dest) = str_at(cr, "backup.destination") {
                entries.insert("backupDestination".to_string(), dest);
            }
        }
        let pmm_on = bool_at(cr, "pmm.enabled").unwrap_or(false);
        if pmm_on {
            if let Some(host) = str_at(cr, "pmm.serverHost") {
                entries.insert("pmmServer".to_string(), host);
            }
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Pod template with optional PMM sidecar. MG-PCN-2: the sidecar is
        // never removed once added.
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &hash);
        let had_pmm = match cluster.api().get(&sts_key) {
            Some(obj) => match &obj.data {
                ObjectData::StatefulSet(s) => s.template.containers.iter().any(|c| c.name == "pmm"),
                _ => false,
            },
            None => false,
        };
        if pmm_on || (bugs.injected("MG-PCN-2") && had_pmm) {
            template.containers.push(Container {
                name: "pmm".to_string(),
                image: str_at(cr, "pmm.image").unwrap_or_else(|| "pmm-client:2.41".to_string()),
                ..Container::default()
            });
        }
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "20Gi".parse().expect("literal")),
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

        // Disruption budget. MG-PCN-4: create-only.
        let pdb_name = format!("{INSTANCE}-pdb");
        let pdb_key = ObjKey::new(Kind::PodDisruptionBudget, NAMESPACE, &pdb_name);
        if bool_at(cr, "pdb.enabled").unwrap_or(false) {
            let min = i64_at(cr, "pdb.minAvailable").unwrap_or(1) as i32;
            let exists = cluster.api().get(&pdb_key).is_some();
            if !exists || !bugs.injected("MG-PCN-4") {
                apply_pdb(cluster, NAMESPACE, &pdb_name, INSTANCE, min)?;
            }
        } else if !bugs.injected("MG-PCN-4") {
            delete_if_exists(cluster, Kind::PodDisruptionBudget, NAMESPACE, &pdb_name);
        }

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
        Instance::deploy(Box::new(MongoPcnOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn deploys_with_pdb() {
        let instance = deploy(BugToggles::all_injected());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 3);
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
    fn pcn1_schedule_frozen_after_enable_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"backup.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"backup.schedule".parse().unwrap(), Value::from("@hourly"));
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
            assert_eq!(
                c.data.get("backupSchedule").map(String::as_str),
                Some("@daily"),
                "schedule should stay frozen under the injected bug"
            );
        }
    }

    #[test]
    fn pcn4_pdb_update_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"pdb.minAvailable".parse().unwrap(), Value::from(1));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let pdb = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::PodDisruptionBudget,
                NAMESPACE,
                "test-cluster-pdb",
            ))
            .unwrap();
        if let ObjectData::PodDisruptionBudget(p) = &pdb.data {
            assert_eq!(p.min_available, 2, "update ignored");
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("MG-PCN-4");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let pdb = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::PodDisruptionBudget,
                NAMESPACE,
                "test-cluster-pdb",
            ))
            .unwrap();
        if let ObjectData::PodDisruptionBudget(p) = &pdb.data {
            assert_eq!(p.min_available, 1);
        }
    }

    #[test]
    fn pcn5_gate_blocks_rollback_of_bad_storage_engine() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"configuration".parse().unwrap(),
            Value::object([("storageEngine", Value::from("bogusEngine"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "gate blocks rollback");
    }

    #[test]
    fn pcn2_pmm_sidecar_persists_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"pmm.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"pmm.enabled".parse().unwrap(), Value::from(false));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(s.template.containers.iter().any(|c| c.name == "pmm"));
        }
    }
    #[test]
    fn pcn3_users_secret_rotation_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"secrets.users".parse().unwrap(), Value::from("users-v2"));
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
            assert_eq!(
                c.data.get("usersSecret").map(String::as_str),
                Some("users-secret"),
                "rotation ignored"
            );
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("MG-PCN-3");
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
            assert_eq!(
                c.data.get("usersSecret").map(String::as_str),
                Some("users-v2")
            );
        }
    }
}
