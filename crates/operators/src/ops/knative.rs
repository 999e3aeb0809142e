//! KnativeOp: the official Knative serving operator (Table 4).
//!
//! Injected bugs: KN-1 (disabling the ingress does not delete the Contour
//! deployment — the paper's knative/operator#1176), KN-2 (an empty config
//! value panics), KN-3 (zero high-availability replicas divide by zero).
//! The `ingress.contourClass` property depends on `ingress.class ==
//! "contour"`, one of the blackbox FP sites.

use std::collections::BTreeMap;

use crdspec::{Schema, Semantic, Value};
use managed::Health;
use opdsl::{Cmp, IrBuilder, IrModule, Operand};
use simkube::cluster::LogLevel;
use simkube::meta::{LabelSelector, ObjectMeta};
use simkube::objects::{Container, Deployment, Kind, ObjectData, PodTemplate};
use simkube::store::ObjKey;
use simkube::SimCluster;

use crate::bugs::BugToggles;
use crate::common::*;
use crate::crd_parts::*;
use crate::framework::{Declaration, Operator, OperatorError, INSTANCE, NAMESPACE};

/// The official Knative serving operator.
#[derive(Debug, Default)]
pub struct KnativeOp;

const COMPONENTS: &[&str] = &["controller", "webhook", "activator"];

impl KnativeOp {
    #[allow(clippy::too_many_arguments)]
    fn apply_component(
        &self,
        cluster: &mut SimCluster,
        component: &str,
        image: &str,
        replicas: i32,
        hash: &str,
        resources: simkube::resources::ResourceRequirements,
    ) -> Result<(), OperatorError> {
        let name = format!("{INSTANCE}-{component}");
        let dep = Deployment {
            replicas,
            selector: LabelSelector::match_labels([("app", INSTANCE), ("component", component)]),
            template: PodTemplate {
                labels: [
                    ("app".to_string(), INSTANCE.to_string()),
                    ("component".to_string(), component.to_string()),
                ]
                .into_iter()
                .collect(),
                containers: vec![Container {
                    name: component.to_string(),
                    image: image.to_string(),
                    config_hash: hash.to_string(),
                    resources,
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
                ObjectMeta::named(NAMESPACE, &name),
                ObjectData::Deployment(dep),
                time,
            )
            .map(|_| ())
            .map_err(|e| OperatorError::Transient(e.to_string()))
    }
}

impl Operator for KnativeOp {
    fn name(&self) -> &'static str {
        "KnativeOp"
    }

    fn system(&self) -> &'static str {
        "knative"
    }

    fn kind(&self) -> &'static str {
        "KnativeServing"
    }

    fn schema(&self) -> Schema {
        Schema::object()
            .prop("version", Schema::string().semantic(Semantic::Version))
            .prop(
                "highAvailability",
                Schema::object().prop(
                    "replicas",
                    Schema::integer().min(0).max(5).semantic(Semantic::Replicas),
                ),
            )
            .prop(
                "ingress",
                Schema::object()
                    .prop(
                        "enabled",
                        Schema::boolean()
                            .semantic(Semantic::Toggle)
                            .default_value(Value::Bool(true)),
                    )
                    .prop(
                        "class",
                        Schema::string_enum(["istio", "contour", "kourier"]),
                    )
                    // Only consumed when class == "contour": blackbox FP
                    // site.
                    .prop("contourClass", Schema::string())
                    .semantic(Semantic::Ingress),
            )
            .prop(
                "config",
                Schema::map(Schema::string()).semantic(Semantic::SystemConfig),
            )
            .prop(
                "registry",
                Schema::map(Schema::string()).semantic(Semantic::Image),
            )
            .prop("domain", Schema::string().semantic(Semantic::ServiceName))
            .prop(
                "logLevel",
                Schema::string_enum(["debug", "info", "warn", "error"]),
            )
            .prop("resources", resources_schema())
            .prop(
                "gc",
                Schema::object()
                    .prop(
                        "retainSinceCreateSeconds",
                        Schema::integer().min(0).max(86400),
                    )
                    .prop(
                        "retainSinceLastActiveSeconds",
                        Schema::integer().min(0).max(86400),
                    ),
            )
            .prop(
                "defaults",
                Schema::object()
                    .prop("revisionTimeoutSeconds", Schema::integer().min(1).max(3600))
                    .prop(
                        "maxRevisionTimeoutSeconds",
                        Schema::integer().min(1).max(7200),
                    ),
            )
    }

    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("knative-op");
        b.passthrough("version", "pod.image");
        b.passthrough("highAvailability.replicas", "deployment.replicas");
        b.guarded_passthrough("ingress.enabled", &[("ingress.class", "ingress.class")]);
        // contourClass is consumed only for the contour ingress class.
        let class = b.load("ingress.class");
        let is_contour = b.compare(
            Cmp::Eq,
            Operand::Var(class),
            Operand::Const(Value::from("contour")),
        );
        let then_b = b.new_block();
        let join = b.new_block();
        b.branch(Operand::Var(is_contour), then_b, join);
        b.switch_to(then_b);
        b.passthrough("ingress.contourClass", "ingress.contourClass");
        b.jump(join);
        b.switch_to(join);
        b.ret();
        b.finish()
    }

    fn initial_cr(&self) -> Value {
        Value::object([
            ("version", Value::from("1.11.0")),
            (
                "highAvailability",
                Value::object([("replicas", Value::from(1))]),
            ),
            (
                "ingress",
                Value::object([
                    ("enabled", Value::from(true)),
                    ("class", Value::from("istio")),
                    ("contourClass", Value::from("default")),
                ]),
            ),
            (
                "config",
                Value::object([("scale-to-zero-grace-period", Value::from("30s"))]),
            ),
        ])
    }

    fn images(&self) -> Vec<String> {
        vec![
            "knative:1.11.0".to_string(),
            "knative:1.12.0".to_string(),
            "contour:1.27".to_string(),
        ]
    }

    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let version = str_at(cr, "version").unwrap_or_else(|| "1.11.0".to_string());
        let image = format!("knative:{version}");
        let ha = i64_at(cr, "highAvailability.replicas").unwrap_or(1);
        // KN-3: spreading components divides by the replica count.
        let replicas = if ha == 0 {
            if bugs.injected("KN-3") {
                return Err(OperatorError::Panic(
                    "integer divide by zero spreading components".to_string(),
                ));
            }
            cluster.log(
                LogLevel::Error,
                self.name(),
                "highAvailability.replicas=0 is invalid; using 1",
            );
            1
        } else {
            ha.clamp(1, 5) as i32
        };

        // Configuration. KN-2: empty config values panic the renderer.
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for (k, v) in map_at(cr, "config") {
            if v.is_empty() {
                if bugs.injected("KN-2") {
                    return Err(OperatorError::Panic(format!(
                        "nil map entry rendering config key {k:?}"
                    )));
                }
                cluster.log(
                    LogLevel::Error,
                    self.name(),
                    format!("dropping empty config value for {k:?}"),
                );
                continue;
            }
            entries.insert(k, v);
        }
        let ingress_enabled = bool_at(cr, "ingress.enabled").unwrap_or(true);
        entries.insert("ingress.enabled".to_string(), ingress_enabled.to_string());
        let class = str_at(cr, "ingress.class").unwrap_or_else(|| "istio".to_string());
        if ingress_enabled {
            entries.insert("ingress.class".to_string(), class.clone());
            if class == "contour" {
                if let Some(cc) = str_at(cr, "ingress.contourClass") {
                    entries.insert("contourClass".to_string(), cc);
                }
            }
        }
        for (k, v) in map_at(cr, "registry") {
            entries.insert(format!("registry.{k}"), v);
        }
        if let Some(domain) = str_at(cr, "domain") {
            entries.insert("domain".to_string(), domain);
        }
        if let Some(level) = str_at(cr, "logLevel") {
            entries.insert("logLevel".to_string(), level);
        }
        for (k, field) in [
            ("gc.retainSinceCreate", "gc.retainSinceCreateSeconds"),
            (
                "gc.retainSinceLastActive",
                "gc.retainSinceLastActiveSeconds",
            ),
            (
                "defaults.revisionTimeout",
                "defaults.revisionTimeoutSeconds",
            ),
            (
                "defaults.maxRevisionTimeout",
                "defaults.maxRevisionTimeoutSeconds",
            ),
        ] {
            if let Some(v) = i64_at(cr, field) {
                entries.insert(k.to_string(), v.to_string());
            }
        }
        let hash = config_hash(&entries);
        apply_config(cluster, NAMESPACE, INSTANCE, entries)?;

        // Control-plane components, with per-component image overrides and
        // shared resources.
        let registry = map_at(cr, "registry");
        let resources = resources_at(cr, "resources");
        for component in COMPONENTS {
            let component_image = registry
                .get(*component)
                .cloned()
                .unwrap_or_else(|| image.clone());
            self.apply_component(
                cluster,
                component,
                &component_image,
                replicas,
                &hash,
                resources.clone(),
            )?;
        }

        // Ingress controller. KN-1: disabling never deletes it.
        let contour_name = format!("{INSTANCE}-contour");
        if ingress_enabled && class == "contour" {
            self.apply_component(
                cluster,
                "contour",
                "contour:1.27",
                replicas,
                &hash,
                resources.clone(),
            )?;
        } else if ingress_enabled {
            // Other classes are modelled as contour-compatible shims so the
            // managed-system model sees an ingress component.
            self.apply_component(
                cluster,
                "contour",
                "contour:1.27",
                replicas,
                &hash,
                resources.clone(),
            )?;
        } else if !bugs.injected("KN-1") {
            delete_if_exists(cluster, Kind::Deployment, NAMESPACE, &contour_name);
        }

        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let total = replicas * (COMPONENTS.len() as i32 + i32::from(ingress_enabled));
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Instance, CONVERGE_MAX, CONVERGE_RESET};
    use simkube::PlatformBugs;

    fn deploy(bugs: BugToggles) -> Instance {
        Instance::deploy(Box::new(KnativeOp), bugs, PlatformBugs::none()).unwrap()
    }

    #[test]
    fn control_plane_deploys_healthy() {
        let instance = deploy(BugToggles::all_injected());
        assert!(instance.last_health.is_healthy());
        assert_eq!(instance.cluster.pod_summaries(NAMESPACE).len(), 4);
    }

    #[test]
    fn kn1_contour_lingers_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(&"ingress.enabled".parse().unwrap(), Value::from(false));
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-contour"
            ))
            .is_some());
        // The managed system reports the stale component.
        assert!(!instance.last_health.is_healthy());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("KN-1");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance
            .cluster
            .api()
            .get(&ObjKey::new(
                Kind::Deployment,
                NAMESPACE,
                "test-cluster-contour"
            ))
            .is_none());
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn kn2_empty_config_value_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"config".parse().unwrap(),
            Value::object([("autoscaler-window", Value::from(""))]),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("KN-2");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
    }

    #[test]
    fn kn3_zero_replicas_panics_when_injected() {
        let mut instance = deploy(BugToggles::all_injected());
        let mut spec = instance.cr_spec();
        spec.set_path(
            &"highAvailability.replicas".parse().unwrap(),
            Value::from(0),
        );
        instance.submit(spec.clone()).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(instance.operator_crashed());
        let mut fixed = BugToggles::all_injected();
        fixed.fix("KN-3");
        let mut instance = deploy(fixed);
        instance.submit(spec).unwrap();
        instance.converge(CONVERGE_RESET, CONVERGE_MAX);
        assert!(!instance.operator_crashed());
        assert!(instance.last_health.is_healthy());
    }

    #[test]
    fn whitebox_ir_reveals_contour_class_dependency() {
        let deps = opdsl::control_dependencies(&KnativeOp.ir());
        assert!(deps.iter().any(|d| {
            d.controller.to_string() == "ingress.class"
                && d.dependent.to_string() == "ingress.contourClass"
                && d.constant == Value::from("contour")
        }));
    }
}
