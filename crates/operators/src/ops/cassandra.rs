//! CassOp: the K8ssandra-style Cassandra operator (Table 4).
//!
//! Injected bugs: CASS-1 (pod-label deletion ignored), CASS-2 (seed-label
//! changes not propagated to existing seed pods), CASS-3 (stability gate
//! blocks all reconciliation while any pod is unhealthy), CASS-4 (a wrong
//! pod name in `replaceNodes` wedges the operator; reverting the field
//! does not clear the wedge).

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
use crate::framework::{Operator, OperatorError, INSTANCE, NAMESPACE};

/// The K8ssandra-style Cassandra operator.
#[derive(Debug, Default)]
pub struct CassOp;

impl CassOp {
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

    fn pod_exists(cluster: &SimCluster, name: &str) -> bool {
        cluster
            .api()
            .get(&ObjKey::new(Kind::Pod, NAMESPACE, name))
            .is_some()
    }
}

impl Operator for CassOp {
    fn name(&self) -> &'static str {
        "CassOp"
    }

    fn system(&self) -> &'static str {
        "cassandra"
    }

    fn kind(&self) -> &'static str {
        "CassandraDatacenter"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "size",
                Schema::integer().min(1).max(9).semantic(Semantic::Replicas),
            )
            .prop(
                "image",
                image_schema().default_value(Value::from("cassandra:4.1")),
            )
            .prop("seedCount", Schema::integer().min(1).max(5))
            .prop(
                "podLabels",
                Schema::map(Schema::string()).semantic(Semantic::Labels),
            )
            .prop(
                "seedLabels",
                Schema::map(Schema::string()).semantic(Semantic::Labels),
            )
            .prop("replaceNodes", Schema::array(Schema::string()))
            .prop(
                "config",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop("resources", resources_schema())
            .prop("persistence", persistence_schema())
            .prop("pod", pod_template_schema_without(&["resources"]))
            // Obscurely named native-protocol port: whitebox learns Port
            // semantics from the `service.port` sink.
            .prop("cqlAccess", Schema::integer().min(1).max(65535))
            .require("size")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("cass-op");
        b.passthrough("size", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.passthrough("seedCount", "seed.count");
        b.passthrough("cqlAccess", "service.port");
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
            ("size", Value::from(3)),
            ("image", Value::from("cassandra:4.1")),
            ("seedCount", Value::from(1)),
            ("cqlAccess", Value::from(9042)),
            (
                "config",
                Value::object([("num_tokens", Value::from("256"))]),
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
        vec!["cassandra:4.1".to_string(), "cassandra:4.0".to_string()]
    }

    fn reconcile(
        &mut self,
        cr: &Value,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let deployed = cluster.api().get(&sts_key).is_some();

        // CASS-4: a replaceNodes entry naming a nonexistent pod wedges the
        // operator behind a sticky annotation; the injected bug never
        // clears it, even after the field is reverted.
        let replace_nodes: Vec<String> = cr
            .get("replaceNodes")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let wedged = cluster
            .api()
            .get(&sts_key)
            .map(|o| o.meta.annotations.contains_key("replace-wedged"))
            .unwrap_or(false);
        if wedged && bugs.injected("CASS-4") {
            return Ok(());
        }
        if deployed {
            let bad: Vec<&String> = replace_nodes
                .iter()
                .filter(|n| !Self::pod_exists(cluster, n))
                .collect();
            if !bad.is_empty() {
                if bugs.injected("CASS-4") {
                    let time = cluster.now();
                    let _ = cluster
                        .api_mut()
                        .store_mut()
                        .update_with(&sts_key, time, |o| {
                            o.meta
                                .annotations
                                .insert("replace-wedged".to_string(), "true".to_string());
                        });
                    return Ok(());
                }
                cluster.log(
                    LogLevel::Error,
                    self.name(),
                    format!("ignoring replaceNodes entries with unknown pods: {bad:?}"),
                );
            }
        }
        if wedged && !bugs.injected("CASS-4") {
            let time = cluster.now();
            let _ = cluster
                .api_mut()
                .store_mut()
                .update_with(&sts_key, time, |o| {
                    o.meta.annotations.remove("replace-wedged");
                });
        }

        // CASS-3: the stability gate.
        if bugs.injected("CASS-3") && deployed && Self::has_failed_pod(cluster) {
            return Ok(());
        }

        let size = i64_at(cr, "size").unwrap_or(3).clamp(1, 9) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "cassandra:4.1".to_string());
        let seed_count = i64_at(cr, "seedCount").unwrap_or(1).clamp(1, 5) as i32;

        // Configuration.
        let mut entries: BTreeMap<String, String> = map_at(cr, "config");
        entries.insert(
            "nativePort".to_string(),
            i64_at(cr, "cqlAccess").unwrap_or(9042).to_string(),
        );
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Pod template. CASS-1: deleted podLabels linger (tracked per
        // applied set).
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &hash);
        let mut declared = map_at(cr, "podLabels");
        declared.insert("app".to_string(), INSTANCE.to_string());
        let effective = merge_labels_tracked(
            cluster,
            &sts_key,
            "applied-pod-labels",
            declared,
            bugs.injected("CASS-1"),
        );
        template.labels.extend(effective.clone());
        template.containers[0].resources = resources_at(cr, "resources");
        let claims = if bool_at(cr, "persistence.enabled").unwrap_or(true) {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| "50Gi".parse().expect("literal")),
                storage_class: str_at(cr, "persistence.storageClass")
                    .unwrap_or_else(|| "standard".to_string()),
            }]
        } else {
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, size, template, claims)?;
        stamp_label_record(cluster, &sts_key, "applied-pod-labels", &effective);
        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            stamp_sts_annotation(cluster, NAMESPACE, INSTANCE, "reclaimPolicy", &reclaim);
        }

        // Seed labelling: the first `seedCount` ordinals carry `seed=true`
        // plus the declared seed labels. CASS-2: existing seed pods keep
        // whatever seed labels they were born with.
        let seed_labels = map_at(cr, "seedLabels");
        for ordinal in 0..size {
            let pod_name = format!("{INSTANCE}-{ordinal}");
            let pod_key = ObjKey::new(Kind::Pod, NAMESPACE, &pod_name);
            let Some(pod) = cluster.api().get(&pod_key) else {
                continue;
            };
            let labels = &pod.meta.labels;
            let is_seed = ordinal < seed_count;
            let already_seed = labels.get("seed").map(String::as_str) == Some("true");
            let skip_refresh = bugs.injected("CASS-2") && already_seed && is_seed;
            // A pod already labelled as this pass would leave it is not
            // copied: the check runs on the borrowed labels.
            let seed_prefixed = || labels.iter().filter(|(k, _)| k.starts_with("seed/"));
            let current = if is_seed {
                already_seed
                    && (skip_refresh
                        || seed_prefixed()
                            .map(|(k, v)| (&k["seed/".len()..], v))
                            .eq(seed_labels.iter().map(|(k, v)| (k.as_str(), v))))
            } else {
                !labels.contains_key("seed") && seed_prefixed().next().is_none()
            };
            if current {
                continue;
            }
            let time = cluster.now();
            let _ = cluster
                .api_mut()
                .store_mut()
                .update_with(&pod_key, time, |o| {
                    if is_seed {
                        o.meta.labels.insert("seed".to_string(), "true".to_string());
                        if !skip_refresh {
                            // Drop stale seed-prefixed labels, then apply.
                            o.meta.labels.retain(|k, _| !k.starts_with("seed/"));
                            for (k, v) in &seed_labels {
                                o.meta.labels.insert(format!("seed/{k}"), v.clone());
                            }
                        }
                    } else {
                        o.meta.labels.remove("seed");
                        o.meta.labels.retain(|k, _| !k.starts_with("seed/"));
                    }
                });
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
        Instance::deploy(Box::new(CassOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn ring_deploys_with_seed() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        let seed = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Pod, NAMESPACE, "test-cluster-0"))
            .unwrap();
        assert_eq!(
            seed.meta.labels.get("seed").map(String::as_str),
            Some("true")
        );
    }

    #[test]
    fn cass2_seed_label_change_not_propagated_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"seedLabels".parse().unwrap(),
            Value::object([("rack", Value::from("r1"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let seed = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Pod, NAMESPACE, "test-cluster-0"))
            .unwrap();
        assert_eq!(seed.meta.labels.get("seed/rack"), None, "not propagated");
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CASS-2");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let seed = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Pod, NAMESPACE, "test-cluster-0"))
            .unwrap();
        assert_eq!(
            seed.meta.labels.get("seed/rack").map(String::as_str),
            Some("r1")
        );
    }

    #[test]
    fn cass4_bad_replace_node_wedges_operator_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"replaceNodes".parse().unwrap(),
            Value::array([Value::from("no-such-pod")]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        // Revert, then try a scale operation: it is silently ignored.
        let mut scaled = good.clone();
        scaled.set_path(&"size".parse().unwrap(), Value::from(5));
        instance.submit(scaled.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert_eq!(
            instance.cluster.pod_summaries(NAMESPACE).len(),
            3,
            "wedged operator ignores the scale"
        );
        // Fixed operator logs and continues.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CASS-4");
        let mut instance = deploy(fixed);
        let mut bad = instance.cr_spec();
        bad.set_path(
            &"replaceNodes".parse().unwrap(),
            Value::array([Value::from("no-such-pod")]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        instance.submit(scaled).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 5);
    }

    #[test]
    fn cass3_gate_blocks_config_rollback() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"config".parse().unwrap(),
            Value::object([("num_tokens", Value::from("0"))]),
        );
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "gate blocks rollback");
    }
    #[test]
    fn cass1_pod_label_removal_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"podLabels".parse().unwrap(),
            Value::object([("ring", Value::from("a"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"podLabels".parse().unwrap(), Value::empty_object());
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.labels.get("ring").map(String::as_str),
                Some("a"),
                "removal swallowed"
            );
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("CASS-1");
        let mut instance = deploy(fixed);
        let mut add = instance.cr_spec();
        add.set_path(
            &"podLabels".parse().unwrap(),
            Value::object([("ring", Value::from("a"))]),
        );
        instance.submit(add).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(s.template.labels.get("ring"), None);
        }
    }
}
