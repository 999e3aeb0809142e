//! ZooKeeperOp: the Pravega-style ZooKeeper operator (Table 4).
//!
//! Injected bugs: ZK-1 (label deletion ignored), ZK-2
//! (`quorumListenOnAllIPs` never written), ZK-3 (domain name only applied
//! at creation), ZK-4 (reclaim policy frozen after creation), ZK-5
//! (privileged client port crashes the ensemble; the Acto-blackbox miss),
//! ZK-6 (stability gate blocks rollback). The `ephemeral.emptyDirSize`
//! property depends on `storageType == "ephemeral"` — the paper's
//! false-positive example for Acto-blackbox.

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{Cmp, IrBuilder, IrModule, Operand};
use simkube::cluster::LogLevel;
use simkube::meta::{LabelSelector, ObjectMeta};
use simkube::objects::{
    ClaimTemplate, ConfigMap, Kind, ObjectData, PodPhase, Service, ServiceType,
};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::{BugToggles, SEEDED_NONIDEMPOTENT_CREATE};
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Operator, OperatorError, INSTANCE, NAMESPACE};

/// The ZooKeeper operator.
#[derive(Debug, Default)]
pub struct ZooKeeperOp;

impl ZooKeeperOp {
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

    fn sts_exists(cluster: &SimCluster) -> bool {
        cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .is_some()
    }

    /// Deterministic FNV-1a fingerprint of the canonical spec rendering,
    /// naming the per-declaration init marker.
    fn spec_fingerprint(cr: &Value) -> u64 {
        let json = crdspec::json::to_string(cr);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    /// SEED-CRASH-1 ([`SEEDED_NONIDEMPOTENT_CREATE`]): per-declaration
    /// initialization modeled as a bare create followed by a separate
    /// completion stamp. The sequence is neither atomic nor idempotent: if
    /// the process dies between the two writes, the retry after restart
    /// blindly re-creates the marker, wedges on `AlreadyExists` forever, and
    /// the declared change behind it is never applied.
    fn seeded_init_marker(
        &self,
        cr: &Value,
        cluster: &mut SimCluster,
    ) -> Result<(), OperatorError> {
        let marker = format!("zk-init-{:016x}", Self::spec_fingerprint(cr));
        let key = ObjKey::new(Kind::ConfigMap, NAMESPACE, &marker);
        let done = cluster
            .api()
            .get(&key)
            .map(|o| o.meta.annotations.contains_key("complete"))
            .unwrap_or(false);
        if done {
            return Ok(());
        }
        let time = cluster.now();
        cluster
            .api_mut()
            .create_object(
                ObjectMeta::named(NAMESPACE, &marker),
                ObjectData::ConfigMap(ConfigMap {
                    data: BTreeMap::new(),
                }),
                time,
            )
            .map_err(|e| OperatorError::Transient(format!("init marker: {e}")))?;
        let time = cluster.now();
        cluster
            .api_mut()
            .apply_object(
                ObjectMeta::named(NAMESPACE, &marker).with_annotation("complete", "true"),
                ObjectData::ConfigMap(ConfigMap {
                    data: BTreeMap::new(),
                }),
                time,
            )
            .map_err(|e| OperatorError::Transient(format!("init marker stamp: {e}")))?;
        Ok(())
    }
}

impl Operator for ZooKeeperOp {
    fn name(&self) -> &'static str {
        "ZooKeeperOp"
    }

    fn system(&self) -> &'static str {
        "zookeeper"
    }

    fn kind(&self) -> &'static str {
        "ZookeeperCluster"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "replicas",
                Schema::integer()
                    .min(0)
                    .max(7)
                    .semantic(Semantic::Replicas)
                    .default_value(Value::from(3)),
            )
            .prop(
                "image",
                image_schema().default_value(Value::from("zookeeper:3.8")),
            )
            .prop(
                "domainName",
                Schema::string().semantic(Semantic::ServiceName),
            )
            // Deliberately non-suggestive name: the blackbox mode cannot
            // infer port semantics here; the whitebox mode learns it from
            // the `service.port` sink.
            .prop("clientAccess", Schema::integer().min(1).max(65535))
            .prop(
                "storageType",
                Schema::string_enum(["persistent", "ephemeral"])
                    .semantic(Semantic::StorageType)
                    .default_value(Value::from("persistent")),
            )
            .prop(
                "ephemeral",
                Schema::object().prop(
                    "emptyDirSize",
                    Schema::string()
                        .format("quantity")
                        .semantic(Semantic::StorageSize),
                ),
            )
            .prop("persistence", persistence_schema())
            .prop("pod", pod_template_schema())
            .prop(
                "config",
                Schema::object()
                    .prop("initLimit", Schema::integer().min(1).max(100))
                    .prop("syncLimit", Schema::integer().min(1).max(100))
                    .prop("tickTime", Schema::integer().min(100).max(10000))
                    .prop("quorumListenOnAllIPs", Schema::boolean()),
            )
            .prop(
                "extraConfig",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop(
                "adminServer",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(false)),
                    )
                    .prop(
                        "port",
                        Schema::integer().min(1).max(65535).semantic(Semantic::Port),
                    ),
            )
            .require("replicas")
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("zookeeper-op");
        b.passthrough("replicas", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.passthrough("clientAccess", "service.port");
        b.passthrough("domainName", "service.hostname");
        b.passthrough("config.initLimit", "config.initLimit");
        b.passthrough("config.syncLimit", "config.syncLimit");
        b.passthrough("config.tickTime", "config.tickTime");
        b.passthrough("config.quorumListenOnAllIPs", "config.quorumListenOnAllIPs");
        // ephemeral.emptyDirSize is consumed only when storageType is
        // "ephemeral" (a non-toggle predicate: the blackbox FP site).
        let st = b.load("storageType");
        let is_ephemeral = b.compare(
            Cmp::Eq,
            Operand::Var(st),
            Operand::Const(Value::from("ephemeral")),
        );
        let eph_block = b.new_block();
        let persist_block = b.new_block();
        let join = b.new_block();
        b.branch(Operand::Var(is_ephemeral), eph_block, persist_block);
        b.switch_to(eph_block);
        b.passthrough("ephemeral.emptyDirSize", "pod.emptydir.size");
        b.jump(join);
        b.switch_to(persist_block);
        b.passthrough("persistence.size", "pvc.size");
        b.passthrough("persistence.storageClass", "pvc.storageClass");
        b.passthrough("persistence.reclaimPolicy", "pvc.reclaimPolicy");
        b.jump(join);
        b.switch_to(join);
        b.guarded_passthrough("adminServer.enabled", &[("adminServer.port", "admin.port")]);
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("replicas", Value::from(3)),
            ("image", Value::from("zookeeper:3.8")),
            ("clientAccess", Value::from(2181)),
            ("storageType", Value::from("persistent")),
            (
                "persistence",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("size", Value::from("10Gi")),
                    ("storageClass", Value::from("standard")),
                    ("reclaimPolicy", Value::from("Retain")),
                ]),
            ),
            (
                "config",
                Value::object([
                    ("initLimit", Value::from(10)),
                    ("syncLimit", Value::from(5)),
                    ("tickTime", Value::from(2000)),
                    ("quorumListenOnAllIPs", Value::from(false)),
                ]),
            ),
            (
                "extraConfig",
                Value::object([("snapCount", Value::from("10000"))]),
            ),
            ("domainName", Value::from("zk.example.com")),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "zookeeper:3.8".to_string(),
            "zookeeper:3.9".to_string(),
            "zookeeper:3.7".to_string(),
        ]
    }

    fn reconcile(
        &mut self,
        cr: &Value,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        // ZK-6: the stability gate — perform no operation (including the
        // rollback Acto issues) while any member is in a failed state.
        if bugs.injected("ZK-6") && Self::sts_exists(cluster) && Self::has_failed_pod(cluster) {
            return Ok(());
        }
        // The seeded crash-consistency bug runs before the main writes, so a
        // wedged init marker blocks the declared change from ever landing.
        if bugs.seeded(SEEDED_NONIDEMPOTENT_CREATE) {
            self.seeded_init_marker(cr, cluster)?;
        }
        let replicas = i64_at(cr, "replicas").unwrap_or(3).clamp(0, 7) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "zookeeper:3.8".to_string());
        let requested_port = i64_at(cr, "clientAccess").unwrap_or(2181);
        // ZK-5 (fixed path): validate that the port is unprivileged before
        // applying; the injected bug applies it blindly and the ensemble
        // crashes on bind.
        let client_port = if !bugs.injected("ZK-5") && requested_port < 1024 {
            cluster.log(
                LogLevel::Error,
                self.name(),
                format!("rejecting privileged client port {requested_port}"),
            );
            2181
        } else {
            requested_port
        };

        // Configuration entries.
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        entries.insert("clientPort".to_string(), client_port.to_string());
        entries.insert("ensembleSize".to_string(), replicas.to_string());
        entries.insert(
            "initLimit".to_string(),
            i64_at(cr, "config.initLimit").unwrap_or(10).to_string(),
        );
        entries.insert(
            "syncLimit".to_string(),
            i64_at(cr, "config.syncLimit").unwrap_or(5).to_string(),
        );
        entries.insert(
            "tickTime".to_string(),
            i64_at(cr, "config.tickTime").unwrap_or(2000).to_string(),
        );
        // ZK-2: the toggle is simply never written.
        if !bugs.injected("ZK-2") {
            entries.insert(
                "quorumListenOnAllIPs".to_string(),
                bool_at(cr, "config.quorumListenOnAllIPs")
                    .unwrap_or(false)
                    .to_string(),
            );
        }
        for (k, v) in map_at(cr, "extraConfig") {
            entries.insert(k, v);
        }
        for ordinal in 0..replicas {
            entries.insert(format!("myid.{INSTANCE}-{ordinal}"), ordinal.to_string());
        }
        if bool_at(cr, "adminServer.enabled").unwrap_or(false) {
            entries.insert(
                "adminPort".to_string(),
                i64_at(cr, "adminServer.port").unwrap_or(8080).to_string(),
            );
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Pod template.
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, &hash);
        // ZK-1: label deletions are ignored — the operator merges declared
        // labels over whatever the existing template already carries.
        if bugs.injected("ZK-1") {
            if let Some(obj) =
                cluster
                    .api()
                    .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            {
                if let ObjectData::StatefulSet(existing) = &obj.data {
                    let mut merged = existing.template.labels.clone();
                    merged.extend(template.labels.clone());
                    template.labels = merged;
                }
            }
        }

        // Storage.
        let storage_type = str_at(cr, "storageType").unwrap_or_else(|| "persistent".to_string());
        let persistence_on = bool_at(cr, "persistence.enabled").unwrap_or(true);
        let claims = if storage_type == "persistent" && persistence_on {
            vec![ClaimTemplate {
                name: "data".to_string(),
                size: str_at(cr, "persistence.size")
                    .unwrap_or_else(|| "10Gi".to_string())
                    .parse()
                    .unwrap_or_else(|_| "10Gi".parse().expect("literal")),
                storage_class: str_at(cr, "persistence.storageClass")
                    .unwrap_or_else(|| "standard".to_string()),
            }]
        } else {
            // The ephemeral empty-dir size only applies in ephemeral mode.
            if let Some(size) = str_at(cr, "ephemeral.emptyDirSize") {
                template.containers[0]
                    .env
                    .insert("EMPTYDIR_SIZE".to_string(), size);
            }
            Vec::new()
        };
        apply_statefulset(cluster, NAMESPACE, INSTANCE, replicas, template, claims)?;

        // ZK-4: the reclaim policy is recorded on the stateful set only at
        // creation time; later declarations never update it.
        let reclaim =
            str_at(cr, "persistence.reclaimPolicy").unwrap_or_else(|| "Retain".to_string());
        let sts_key = ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE);
        let time = cluster.now();
        let zk4 = bugs.injected("ZK-4");
        let stale = cluster.api().get(&sts_key).is_some_and(|o| {
            o.meta
                .annotations
                .get("reclaimPolicy")
                .is_none_or(|v| !zk4 && *v != reclaim)
        });
        if stale {
            let _ = cluster
                .api_mut()
                .store_mut()
                .update_with(&sts_key, time, |o| {
                    let slot = o.meta.annotations.entry("reclaimPolicy".to_string());
                    match slot {
                        std::collections::btree_map::Entry::Vacant(v) => {
                            v.insert(reclaim);
                        }
                        std::collections::btree_map::Entry::Occupied(mut occ) => {
                            if !zk4 {
                                occ.insert(reclaim);
                            }
                        }
                    }
                });
        }

        // Client service. ZK-3: the domain annotation is only stamped when
        // the service is first created.
        let svc_key = ObjKey::new(Kind::Service, NAMESPACE, INSTANCE);
        let domain = str_at(cr, "domainName").unwrap_or_default();
        let svc_exists = cluster.api().get(&svc_key).is_some();
        let svc = Service {
            selector: LabelSelector::match_labels([("app", INSTANCE)]),
            ports: vec![client_port.clamp(1, 65535) as u16],
            service_type: ServiceType::ClusterIp,
            endpoints: Vec::new(),
        };
        let mut meta = ObjectMeta::named(NAMESPACE, INSTANCE);
        if !svc_exists || !bugs.injected("ZK-3") {
            meta = meta.with_annotation("hostname", &domain);
        } else if let Some(existing) = cluster.api().get(&svc_key) {
            if let Some(old) = existing.meta.annotations.get("hostname") {
                meta = meta.with_annotation("hostname", old);
            }
        }
        let time = cluster.now();
        cluster
            .api_mut()
            .apply_object(meta, ObjectData::Service(svc), time)
            .map_err(|e| OperatorError::Transient(e.to_string()))?;

        // Status.
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
        Instance::deploy(Box::new(ZooKeeperOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn initial_deploy_is_healthy() {
        let instance = deploy(BugToggles::all_injected());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 3);
        assert!(instance.last_health.is_healthy());
        assert_eq!(
            instance.cr_status().get("phase").and_then(Value::as_str),
            Some("Ready")
        );
    }

    #[test]
    fn scale_up_and_down() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"replicas".parse().unwrap(), Value::from(5));
        instance.submit(spec.clone()).unwrap();
        assert!(instance.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 5);
        spec.set_path(&"replicas".parse().unwrap(), Value::from(2));
        instance.submit(spec).unwrap();
        assert!(instance.converge(CONVERGE_RESET, CONVERGE_MAX));
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 2);
    }

    #[test]
    fn zk1_label_deletion_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"pod.labels".parse().unwrap(),
            Value::object([("team", Value::from("infra"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        // Now delete the label.
        spec.set_path(&"pod.labels".parse().unwrap(), Value::empty_object());
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
                Some("infra"),
                "injected bug keeps the deleted label"
            );
        }
        // Fixed operator removes it.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("ZK-1");
        let mut instance = deploy(fixed);
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"pod.labels".parse().unwrap(),
            Value::object([("team", Value::from("infra"))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        spec.set_path(&"pod.labels".parse().unwrap(), Value::empty_object());
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(s.template.labels.get("team"), None);
        }
    }

    #[test]
    fn zk2_quorum_toggle_never_written() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"config.quorumListenOnAllIPs".parse().unwrap(),
            Value::from(true),
        );
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
            assert!(!c.data.contains_key("quorumListenOnAllIPs"));
        }
    }

    #[test]
    fn zk5_privileged_port_crashes_system_only_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"clientAccess".parse().unwrap(), Value::from(80));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(
            !instance.last_health.is_healthy(),
            "ensemble should crash on privileged port"
        );
        // Fixed operator rejects the port and stays healthy.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("ZK-5");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy());
        assert!(instance
            .cluster
            .logs()
            .iter()
            .any(|l| l.message.contains("privileged client port")));
    }

    #[test]
    fn zk6_gate_blocks_rollback_recovery() {
        // Drive the system into an error state via a bad snapCount, then
        // roll back; the injected gate never recovers, the fixed one does.
        let mut instance = deploy(BugToggles::all_injected());
        let good = instance.cr_spec();
        let mut bad = good.clone();
        bad.set_path(
            &"extraConfig".parse().unwrap(),
            Value::object([("snapCount", Value::from("garbage"))]),
        );
        instance.submit(bad.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(
            !instance.last_health.is_healthy(),
            "gated operator cannot roll back"
        );
        // Fixed gate recovers.
        let mut fixed = BugToggles::all_injected();
        fixed.fix("ZK-6");
        let mut instance = deploy(fixed);
        instance.submit(bad).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.last_health.is_healthy());
        instance.submit(good).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.last_health.is_healthy(), "fixed operator recovers");
    }

    #[test]
    fn ephemeral_size_only_applies_with_matching_storage_type() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"ephemeral.emptyDirSize".parse().unwrap(),
            Value::from("1Gi"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        // storageType is persistent: the property has no effect.
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert!(!s.template.containers[0].env.contains_key("EMPTYDIR_SIZE"));
        }
        // Switching to ephemeral activates it.
        spec.set_path(&"storageType".parse().unwrap(), Value::from("ephemeral"));
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        if let ObjectData::StatefulSet(s) = &sts.data {
            assert_eq!(
                s.template.containers[0]
                    .env
                    .get("EMPTYDIR_SIZE")
                    .map(String::as_str),
                Some("1Gi")
            );
        }
    }

    #[test]
    fn whitebox_ir_reveals_storage_type_dependency() {
        let deps = opdsl::control_dependencies(&ZooKeeperOp.ir());
        assert!(deps.iter().any(|d| {
            d.controller.to_string() == "storageType"
                && d.dependent.to_string() == "ephemeral.emptyDirSize"
                && d.constant == Value::from("ephemeral")
        }));
        // The admin-server port is toggle-guarded.
        assert!(deps.iter().any(|d| {
            d.controller.to_string() == "adminServer.enabled"
                && d.dependent.to_string() == "adminServer.port"
        }));
    }
    #[test]
    fn zk3_domain_change_ignored_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"domainName".parse().unwrap(),
            Value::from("zk.new.example"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let svc = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Service, NAMESPACE, INSTANCE))
            .unwrap();
        assert_eq!(
            svc.meta.annotations.get("hostname").map(String::as_str),
            Some("zk.example.com"),
            "injected bug keeps the creation-time domain"
        );
        let mut fixed = BugToggles::all_injected();
        fixed.fix("ZK-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let svc = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::Service, NAMESPACE, INSTANCE))
            .unwrap();
        assert_eq!(
            svc.meta.annotations.get("hostname").map(String::as_str),
            Some("zk.new.example")
        );
    }

    #[test]
    fn zk4_reclaim_policy_frozen_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"persistence.reclaimPolicy".parse().unwrap(),
            Value::from("Delete"),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        assert_eq!(
            sts.meta
                .annotations
                .get("reclaimPolicy")
                .map(String::as_str),
            Some("Retain"),
            "injected bug keeps the creation-time policy"
        );
        let mut fixed = BugToggles::all_injected();
        fixed.fix("ZK-4");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        let sts = instance
            .cluster
            .api()
            .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            .unwrap();
        assert_eq!(
            sts.meta
                .annotations
                .get("reclaimPolicy")
                .map(String::as_str),
            Some("Delete")
        );
    }
}
