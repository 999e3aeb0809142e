//! OFC/MongoOp: the official MongoDB community operator (Table 4).
//!
//! Injected bugs: MG-OFC-1 (config updated without member restarts),
//! MG-OFC-2 (arbiter scaling ignored on a running set), MG-OFC-3 (pod-label
//! removal ignored), MG-OFC-4 (invalid `featureCompatibilityVersion` passed
//! through; the system goes down), MG-OFC-5 (auth with an empty users list
//! panics), MG-OFC-6 (non-semver version panics), MG-OFC-7 (the corrected
//! FCV is never applied while the system is down — unrecoverable),
//! MG-OFC-8 (scale-down while unhealthy wedges the rollout).

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::mongodb::VALID_FCV;
use managed::Health;
use opdsl::{IrBuilder, IrModule};
use simkube::cluster::LogLevel;
use simkube::objects::{ClaimTemplate, Kind, ObjectData};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The official MongoDB community operator.
#[derive(Debug, Default)]
pub struct MongoOfcOp;

fn semver_ok(v: &str) -> bool {
    let parts: Vec<&str> = v.split('.').collect();
    parts.len() == 3 && parts.iter().all(|p| p.parse::<u32>().is_ok())
}

impl Operator for MongoOfcOp {
    fn name(&self) -> &'static str {
        "OFC/MongoOp"
    }

    fn system(&self) -> &'static str {
        "mongodb"
    }

    fn kind(&self) -> &'static str {
        "MongoDBCommunity"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "members",
                Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
            )
            .prop("arbiters", Schema::integer().min(0).max(5))
            .prop("version", Schema::string().semantic(Semantic::Version))
            .prop("featureCompatibilityVersion", Schema::string())
            .prop(
                "security",
                Schema::object()
                    .prop(
                        "auth",
                        Schema::object()
                            .prop("enabled", Schema::boolean().semantic(Semantic::Toggle))
                            .prop(
                                "users",
                                Schema::array(
                                    Schema::object()
                                        .prop("name", Schema::string())
                                        .prop("db", Schema::string())
                                        .require("name"),
                                ),
                            ),
                    )
                    .prop("tls", tls_schema()),
            )
            .prop(
                "additionalMongodConfig",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop(
                "podLabels",
                Schema::map(Schema::string()).semantic(Semantic::Labels),
            )
            .prop("pod", pod_template_schema())
            .prop("persistence", persistence_schema())
            // Obscurely named storage window; the whitebox mode learns
            // StorageSize semantics from the `pvc.size` sink.
            .prop("oplogWindow", Schema::string().format("quantity"))
            .require("members")
            .require("version")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("mongo-ofc-op");
        b.passthrough("members", "sts.replicas");
        b.passthrough("arbiters", "sts.arbiters");
        b.passthrough("version", "pod.image");
        b.passthrough(
            "featureCompatibilityVersion",
            "config.featureCompatibilityVersion",
        );
        b.passthrough("oplogWindow", "pvc.size");
        b.guarded_passthrough(
            "security.auth.enabled",
            &[("security.auth.users[0].name", "config.adminUser")],
        );
        b.guarded_passthrough(
            "security.tls.enabled",
            &[("security.tls.secretName", "tls.secretName")],
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
            ("members", Value::from(3)),
            ("arbiters", Value::from(0)),
            ("version", Value::from("6.0.5")),
            ("featureCompatibilityVersion", Value::from("6.0")),
            (
                "security",
                Value::object([(
                    "auth",
                    Value::object([
                        ("enabled", Value::from(false)),
                        (
                            "users",
                            Value::array([Value::object([
                                ("name", Value::from("admin")),
                                ("db", Value::from("admin")),
                            ])]),
                        ),
                    ]),
                )]),
            ),
            (
                "additionalMongodConfig",
                Value::object([("storageEngine", Value::from("wiredTiger"))]),
            ),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("10Gi")),
                    ("storageClass", Value::from("standard")),
                ]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "mongo:6.0.5".to_string(),
            "mongo:6.0.6".to_string(),
            "mongo:5.0.15".to_string(),
        ]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let deployed = cluster.api().get(&sts_key).is_some();
        // MG-OFC-8: the stability gate — while any member crash-loops, the
        // operator performs no operation at all, blocking the rollback of a
        // corrupted mongod configuration.
        if bugs.injected("MG-OFC-8") && deployed {
            let any_failed = cluster
                .api()
                .store()
                .list(&simkube::objects::Kind::Pod, NAMESPACE)
                .iter()
                .any(|o| {
                    o.meta.labels.get("app").map(String::as_str) == Some(INSTANCE)
                        && matches!(
                            &o.data,
                            ObjectData::Pod(p) if p.phase == simkube::objects::PodPhase::Failed
                        )
                });
            if any_failed {
                return Ok(());
            }
        }

        // Version parsing. MG-OFC-6: a non-semver string panics.
        let version = str_at(cr, "version").unwrap_or_else(|| "6.0.5".to_string());
        if !semver_ok(&version) {
            if bugs.injected("MG-OFC-6") {
                return Err(OperatorError::Panic(format!(
                    "failed to parse version {version:?}"
                )));
            }
            cluster.log(
                LogLevel::Error,
                self.name(),
                format!("invalid version {version:?}; keeping current"),
            );
        }
        let image = if semver_ok(&version) {
            format!("mongo:{version}")
        } else {
            "mongo:6.0.5".to_string()
        };

        // Auth. MG-OFC-5: users[0] is indexed unconditionally.
        let mut admin_user = String::new();
        let mut user_names: Vec<String> = Vec::new();
        if bool_at(cr, "security.auth.enabled").unwrap_or(false) {
            let users = value_at(cr, "security.auth.users")
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            user_names = users
                .iter()
                .filter_map(|u| u.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect();
            match users
                .first()
                .and_then(|u| u.get("name"))
                .and_then(Value::as_str)
            {
                Some(name) => admin_user = name.to_string(),
                None => {
                    if bugs.injected("MG-OFC-5") {
                        return Err(OperatorError::Panic(
                            "index out of range: users[0]".to_string(),
                        ));
                    }
                    cluster.log(
                        LogLevel::Error,
                        self.name(),
                        "auth enabled but no users declared",
                    );
                }
            }
        }

        // FCV. MG-OFC-4 (fixed path validates), MG-OFC-7 (config is not
        // re-applied while the system is down).
        let declared_fcv = str_at(cr, "featureCompatibilityVersion").unwrap_or_default();
        let cm_key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &format!("{INSTANCE}-config"));
        let fcv = if !bugs.injected("MG-OFC-4")
            && !declared_fcv.is_empty()
            && !VALID_FCV.contains(&declared_fcv.as_str())
        {
            cluster.log(
                LogLevel::Error,
                self.name(),
                format!("rejecting invalid featureCompatibilityVersion {declared_fcv:?}"),
            );
            // Keep whatever the members currently run with.
            match cluster.api().get(&cm_key) {
                Some(obj) => match &obj.data {
                    ObjectData::ConfigMap(c) => c
                        .data
                        .get("featureCompatibilityVersion")
                        .cloned()
                        .unwrap_or_default(),
                    _ => String::new(),
                },
                None => String::new(),
            }
        } else {
            declared_fcv
        };
        let system_down = matches!(health, Health::Down(_));
        let skip_config = bugs.injected("MG-OFC-7") && deployed && system_down;
        let mut entries: BTreeMap<String, String> = map_at(cr, "additionalMongodConfig");
        if !fcv.is_empty() {
            entries.insert("featureCompatibilityVersion".to_string(), fcv);
        }
        // Arbiter scaling. MG-OFC-2: the arbiter count is baked in at
        // creation; later declarations keep whatever the config map holds.
        let declared_arbiters = i64_at(cr, "arbiters").unwrap_or(0).clamp(0, 5).to_string();
        let arbiters = if bugs.injected("MG-OFC-2") && deployed {
            match cluster.api().get(&cm_key) {
                Some(obj) => match &obj.data {
                    ObjectData::ConfigMap(c) => {
                        c.data.get("arbiters").cloned().unwrap_or(declared_arbiters)
                    }
                    _ => declared_arbiters,
                },
                None => declared_arbiters,
            }
        } else {
            declared_arbiters
        };
        entries.insert("arbiters".to_string(), arbiters);
        if !admin_user.is_empty() {
            entries.insert("adminUser".to_string(), admin_user);
        }
        if !user_names.is_empty() {
            entries.insert("users".to_string(), user_names.join(","));
        }
        if bool_at(cr, "security.tls.enabled").unwrap_or(false) {
            if let Some(secret) = str_at(cr, "security.tls.secretName") {
                entries.insert("tlsSecret".to_string(), secret);
            }
        }
        let hash = config_hash(&entries);
        if !skip_config {
            apply_config(cluster, NAMESPACE, INSTANCE, entries)?;
        }

        let members = i64_at(cr, "members").unwrap_or(3).clamp(1, 9) as i32;

        // Pod template. MG-OFC-1 keeps the old config hash (no restart);
        // MG-OFC-3 merges pod labels instead of replacing them.
        let effective_hash = if bugs.injected("MG-OFC-1") && deployed {
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
        let mut declared_labels = map_at(cr, "podLabels");
        declared_labels.insert("app".to_string(), INSTANCE.to_string());
        let effective_labels = merge_labels_tracked(
            cluster,
            &sts_key,
            "applied-pod-labels",
            declared_labels,
            bugs.injected("MG-OFC-3"),
        );
        template.labels.extend(effective_labels.clone());

        // Storage: the data volume plus an optional oplog volume sized by
        // the (obscurely named) oplog window.
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            let storage_class =
                str_at(cr, "persistence.storageClass").unwrap_or_else(|| "standard".to_string());
            let mut claims = vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "10Gi".parse().expect("literal")),
                storage_class: storage_class.clone(),
            }];
            if let Some(oplog) = str_at(cr, "oplogWindow").and_then(|s| s.parse().ok()) {
                claims.push(ClaimTemplate {
                    name: "oplog".to_string(),
                    size: oplog,
                    storage_class,
                });
            }
            claims
        } else {
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, members, template, claims)?;
        stamp_label_record(cluster, &sts_key, "applied-pod-labels", &effective_labels);
        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            stamp_sts_annotation(cluster, NAMESPACE, INSTANCE, "reclaimPolicy", &reclaim);
        }

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, members);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(MongoOfcOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn replica_set_deploys_healthy() {
        let instance = deploy(BugToggles::all_injected());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 3);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn ofc4_invalid_fcv_takes_system_down_and_ofc7_blocks_recovery() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"featureCompatibilityVersion".parse().unwrap(),
            Value::from("9.9"),
        );
        instance.submit(bad.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "system goes down");
        // Rollback the FCV: MG-OFC-7 never re-applies the config.
        instance.submit(good.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "unrecoverable");
        // With both fixed, the invalid value is rejected outright.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("MG-OFC-4");
        fixed.fix("MG-OFC-7");
        let mut instance = deploy(fixed);
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
        assert!(instance
            .cluster
            .logs()
            .iter()
            .any(|l| l.message.contains("featureCompatibilityVersion")));
    }

    #[test]
    fn ofc5_auth_with_no_users_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"security.auth.enabled".parse().unwrap(), Value::from(true));
        spec.set_path(&"security.auth.users".parse().unwrap(), Value::array([]));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("MG-OFC-5");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
    }

    #[test]
    fn ofc6_bad_version_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"version".parse().unwrap(), Value::from("latest"));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
    }

    #[test]
    fn ofc1_config_change_does_not_roll_pods_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let before = match &instance.cluster.api().get(&sts_key).unwrap().data {
            ObjectData::StatefulSet(s) => s.template.containers[0].config_hash.clone(),
            _ => unreachable!(),
        };
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"additionalMongodConfig.journalCommitInterval"
                .parse()
                .unwrap(),
            Value::from("200"),
        );
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let after = match &instance.cluster.api().get(&sts_key).unwrap().data {
            ObjectData::StatefulSet(s) => s.template.containers[0].config_hash.clone(),
            _ => unreachable!(),
        };
        assert_eq!(before, after, "stale hash: pods never restart");
        // The config map itself did change.
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
                c.data.get("journalCommitInterval").map(String::as_str),
                Some("200")
            );
        }
    }

    #[test]
    fn ofc2_arbiter_scaling_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"arbiters".parse().unwrap(), Value::from(2));
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
            assert_eq!(c.data.get("arbiters").map(String::as_str), Some("0"));
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("MG-OFC-2");
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
            assert_eq!(c.data.get("arbiters").map(String::as_str), Some("2"));
        }
    }
    #[test]
    fn ofc3_pod_label_removal_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"podLabels".parse().unwrap(),
            Value::object([("team", Value::from("db"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"podLabels".parse().unwrap(), Value::empty_object());
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.labels.get("team").map(String::as_str),
                Some("db"),
                "removal swallowed"
            );
        }
    }

    #[test]
    fn ofc8_gate_blocks_config_rollback_when_injected() {
        let mut fixed7 = BugToggles::all_injected();
        fixed7.fix("MG-OFC-7"); // Isolate the OFC-8 stability gate.
        let mut instance = deploy(fixed7.clone());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"additionalMongodConfig".parse().unwrap(),
            Value::object([("storageEngine", Value::from("bogus"))]),
        );
        instance.submit(bad.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "OFC-8 gate blocks it");
        // With OFC-8 also fixed the rollback recovers.
        fixed7.fix("MG-OFC-8");
        let mut instance = deploy(fixed7);
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }
}
