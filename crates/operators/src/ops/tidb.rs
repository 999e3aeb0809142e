//! TiDBOp: the official TiDB operator (Table 4).
//!
//! Injected bugs: TIDB-1 (TiKV resource updates dropped), TIDB-2 (PD
//! placement configuration not propagated), TIDB-3 (binlog enabled without
//! a pump cluster restarts TiDB into a crash loop — the paper's §6.1.1
//! example), TIDB-4 (the unhealthy cluster cannot be recovered even with a
//! manual revert). The `monitor.retentionDays` property is guarded by the
//! non-toggle boolean `monitor.deploy`, one of the blackbox FP sites.

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{IrBuilder, IrModule, Operand};
use simkube::cluster::LogLevel;
use simkube::objects::{ClaimTemplate, Kind};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The official TiDB operator.
#[derive(Debug, Default)]
pub struct TiDbOp;

fn component_schema(max: i64) -> Schema {
    Schema::object()
        .prop(
            "replicas",
            Schema::integer()
                .min(0)
                .max(max)
                .semantic(Semantic::Replicas),
        )
        .prop("resources", resources_schema())
}

impl TiDbOp {
    #[allow(clippy::too_many_arguments)]
    fn apply_component(
        &self,
        cluster: &mut SimCluster,
        cr: &Value,
        component: &str,
        image: &str,
        hash: &str,
        replicas: i32,
        drop_resources: bool,
        claims: Vec<ClaimTemplate>,
    ) -> Result<(), OperatorError> {
        let name = format!("{INSTANCE}-{component}");
        let mut template = pod_template_at(cr, "pod", INSTANCE, Some(component), image, hash);
        if drop_resources {
            template.containers[0].resources = Default::default();
        } else {
            template.containers[0].resources = resources_at(cr, &format!("{component}.resources"));
        }
        apply_statefulset(cluster, NAMESPACE, &name, replicas, template, claims)
    }
}

impl Operator for TiDbOp {
    fn name(&self) -> &'static str {
        "TiDBOp"
    }

    fn system(&self) -> &'static str {
        "tidb"
    }

    fn kind(&self) -> &'static str {
        "TidbCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop("version", Schema::string().semantic(Semantic::Version))
            .prop(
                "pd",
                component_schema(7).prop("maxReplicas", Schema::integer().min(1).max(9)),
            )
            .prop("tikv", component_schema(9))
            .prop("tidb", component_schema(9))
            .prop(
                "pump",
                Schema::object().prop(
                    "replicas",
                    Schema::integer().min(0).max(5).semantic(Semantic::Replicas),
                ),
            )
            .prop(
                "binlog",
                Schema::object().prop(
                    "enabled",
                    Schema::boolean()
                        .semantic(Semantic::Toggle)
                        .default_value(Value::Bool(false)),
                ),
            )
            .prop(
                "monitor",
                Schema::object()
                    // A non-toggle boolean guard: blackbox FP site.
                    .prop("deploy", Schema::boolean())
                    .prop("retentionDays", Schema::integer().min(1).max(365))
                    .prop("scrapeIntervalSeconds", Schema::integer().min(5).max(3600)),
            )
            .prop(
                "config",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop("persistence", persistence_schema())
            .prop("pod", pod_template_schema_without(&["resources"]))
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("tidb-op");
        b.passthrough("pd.replicas", "pd.replicas");
        b.passthrough("tikv.replicas", "tikv.replicas");
        b.passthrough("tidb.replicas", "tidb.replicas");
        b.passthrough("pump.replicas", "pump.replicas");
        b.passthrough("version", "pod.image");
        b.passthrough("pd.maxReplicas", "config.maxReplicas");
        b.guarded_passthrough("binlog.enabled", &[("pump.replicas", "config.pumpCount")]);
        // monitor.retentionDays only matters when monitor.deploy is true.
        let deploy = b.load("monitor.deploy");
        let then_b = b.new_block();
        let join = b.new_block();
        b.branch(Operand::Var(deploy), then_b, join);
        b.switch_to(then_b);
        b.passthrough("monitor.retentionDays", "monitor.retention");
        b.passthrough("monitor.scrapeIntervalSeconds", "monitor.scrapeInterval");
        b.jump(join);
        b.switch_to(join);
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("version", Value::from("v7.1.0")),
            (
                "pd",
                Value::object([
                    ("replicas", Value::from(3)),
                    ("maxReplicas", Value::from(3)),
                ]),
            ),
            ("tikv", Value::object([("replicas", Value::from(3))])),
            ("tidb", Value::object([("replicas", Value::from(2))])),
            ("pump", Value::object([("replicas", Value::from(0))])),
            ("binlog", Value::object([("enabled", Value::from(false))])),
            (
                "monitor",
                Value::object([
                    ("deploy", Value::from(false)),
                    ("retentionDays", Value::from(7)),
                    ("scrapeIntervalSeconds", Value::from(15)),
                ]),
            ),
            ("config", Value::object([("level", Value::from("info"))])),
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
        vec!["tidb:v7.1.0".to_string(), "tidb:v7.5.0".to_string()]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let deployed = cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                &format!("{INSTANCE}-pd"),
            ))
            .is_some();
        // TIDB-4: while the system is down, the operator refuses every
        // operation — including the revert of the offending declaration.
        if bugs.injected("TIDB-4") && deployed && matches!(health, Health::Down(_)) {
            return Ok(());
        }

        let version = str_at(cr, "version").unwrap_or_else(|| "v7.1.0".to_string());
        let image = format!("tidb:{version}");
        let pd = i64_at(cr, "pd.replicas").unwrap_or(3).clamp(0, 7) as i32;
        let tikv = i64_at(cr, "tikv.replicas").unwrap_or(3).clamp(0, 9) as i32;
        let tidb = i64_at(cr, "tidb.replicas").unwrap_or(2).clamp(0, 9) as i32;
        let pump = i64_at(cr, "pump.replicas").unwrap_or(0).clamp(0, 5) as i32;

        // Binlog. TIDB-3 (fixed path): refuse to enable binlog unless a
        // pump cluster is configured.
        let mut binlog = bool_at(cr, "binlog.enabled").unwrap_or(false);
        if binlog && pump == 0 && !bugs.injected("TIDB-3") {
            cluster.log(
                LogLevel::Error,
                self.name(),
                "refusing to enable binlog without a pump cluster",
            );
            binlog = false;
        }

        // Configuration. TIDB-2: pd.maxReplicas is never propagated.
        let mut entries: BTreeMap<String, String> = map_at(cr, "config");
        entries.insert("binlog.enabled".to_string(), binlog.to_string());
        if !bugs.injected("TIDB-2") {
            entries.insert(
                "maxReplicas".to_string(),
                i64_at(cr, "pd.maxReplicas").unwrap_or(3).to_string(),
            );
        }
        if bool_at(cr, "monitor.deploy").unwrap_or(false) {
            entries.insert(
                "monitorRetention".to_string(),
                i64_at(cr, "monitor.retentionDays").unwrap_or(7).to_string(),
            );
            entries.insert(
                "monitorScrape".to_string(),
                i64_at(cr, "monitor.scrapeIntervalSeconds")
                    .unwrap_or(15)
                    .to_string(),
            );
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Components. The declared volume size applies to the data-bearing
        // stores; PD uses a fixed small volume.
        let persistence_on = bool_at(cr, "persistence.enabled").unwrap_or(true);
        let declared_size = str_at(cr, "persistence.size").unwrap_or_else(|| "100Gi".to_string());
        let claim = |sz: &str| -> Vec<ClaimTemplate> {
            if !persistence_on {
                return Vec::new();
            }
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: sz
                    .parse()
                    .unwrap_or_else(|_| "100Gi".parse().expect("literal")),
                storage_class: str_at(cr, "persistence.storageClass")
                    .unwrap_or_else(|| "fast".to_string()),
            }]
        };
        self.apply_component(cluster, cr, "pd", &image, &hash, pd, false, claim("10Gi"))?;
        // TIDB-1: tikv resources are dropped.
        self.apply_component(
            cluster,
            cr,
            "tikv",
            &image,
            &hash,
            tikv,
            bugs.injected("TIDB-1"),
            claim(&declared_size),
        )?;
        self.apply_component(cluster, cr, "tidb", &image, &hash, tidb, false, Vec::new())?;
        if pump > 0 {
            self.apply_component(cluster, cr, "pump", &image, &hash, pump, false, Vec::new())?;
        } else {
            delete_if_exists(
                cluster,
                Kind::StatefulSet,
                NAMESPACE,
                &format!("{INSTANCE}-pump"),
            );
            // SEED-COMPOSE-1 (seeded, default off): with no pump cluster
            // the operator "cleans up" binlog bookkeeping by enumerating
            // every ConfigMap on the cluster and deleting any `*-config`
            // outside its own namespace. Alone on a cluster this is dead
            // code; composed with another operator it garbage-collects the
            // neighbour's live configuration.
            if bugs.seeded(crate::bugs::SEEDED_CROSS_OPERATOR_GC) {
                let victims: Vec<ObjKey> = cluster
                    .api()
                    .store()
                    .iter()
                    .filter(|(k, _)| {
                        matches!(k.kind, Kind::ConfigMap)
                            && k.namespace != NAMESPACE
                            && !k.namespace.is_empty()
                            && k.name.ends_with("-config")
                    })
                    .map(|(k, _)| k.clone())
                    .collect();
                let time = cluster.now();
                for key in victims {
                    let _ = cluster.api_mut().delete_object(&key, time);
                }
            }
        }

        if let Some(reclaim) = str_at(cr, "persistence.reclaimPolicy") {
            for component in ["pd", "tikv", "tidb"] {
                stamp_sts_annotation(
                    cluster,
                    NAMESPACE,
                    &format!("{INSTANCE}-{component}"),
                    "reclaimPolicy",
                    &reclaim,
                );
            }
        }

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let total = pd + tikv + tidb + pump;
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::objects::ObjectData;
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(TiDbOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn full_stack_deploys_healthy() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 8);
    }

    #[test]
    fn tidb3_binlog_without_pump_crash_loops_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"binlog.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        match &instance.last_health {
            Health::Down(reason) => assert!(reason.contains("pump")),
            other => panic!("expected down, got {other:?}"),
        }
        // Fixed operator refuses the transition and stays healthy.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("TIDB-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn tidb4_revert_cannot_recover_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(&"binlog.enabled".parse().unwrap(), Value::from(true));
        instance.submit(bad.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy(), "revert is blocked");
        // With TIDB-4 fixed the revert recovers the cluster.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("TIDB-4");
        let mut instance = deploy(fixed);
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn tidb2_max_replicas_not_propagated_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"pd.maxReplicas".parse().unwrap(), Value::from(5));
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
            assert!(!c.data.contains_key("maxReplicas"));
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("TIDB-2");
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
            assert_eq!(c.data.get("maxReplicas").map(String::as_str), Some("5"));
        }
    }

    #[test]
    fn binlog_with_pump_works() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"pump.replicas".parse().unwrap(), Value::from(1));
        spec.set_path(&"binlog.enabled".parse().unwrap(), Value::from(true));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn whitebox_ir_reveals_monitor_dependency() {
        let deps = opdsl::control_dependencies(&TiDbOp.ir());
        assert!(deps.iter().any(|d| {
            d.controller.to_string() == "monitor.deploy"
                && d.dependent.to_string() == "monitor.retentionDays"
        }));
    }
    #[test]
    fn tidb1_tikv_resources_dropped_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"tikv.resources.requests.cpu".parse().unwrap(),
            Value::from("2"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-tikv",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(s.template.containers[0].resources.requests.is_empty());
        }
        let mut fixed = BugToggles::all_injected();
        fixed.fix("TIDB-1");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::StatefulSet,
                NAMESPACE,
                "test-cluster-tikv",
            ))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.containers[0].resources.requests["cpu"],
                "2".parse().unwrap()
            );
        }
    }
}
