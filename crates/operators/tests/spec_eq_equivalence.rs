//! `ObjectData::spec_eq` decides exactly like comparing rendered specs.
//!
//! The store bumps `generation` on a changing write when `spec_eq` says
//! the spec moved, and oracles read the rendered spec. The two must never
//! disagree. This test checks `spec_eq(a, b) == (a.spec_value() ==
//! b.spec_value())` over every object every operator stores, with all of
//! its bugs injected, after deploy and after each of the first five
//! planned operations. Each object is paired with its previous version,
//! with the other stored objects of its kind and with single-field
//! perturbations of every field: rendered ones, unrendered ones (a stateful
//! set's `selector`, a container's `security`, status fields) and
//! quantities moved to the other suffix family at the same amount.
//!
//! Debug builds also check every store write against the rendering inside
//! `spec_eq`; release builds have only this test.

use std::collections::{BTreeMap, BTreeSet};

use acto::campaign::{apply_op, plan_campaign};
use acto::Mode;
use crdspec::Value;
use operators::registry::all_operators;
use operators::{operator_by_name, BugToggles, Instance, CONVERGE_MAX, CONVERGE_RESET, INSTANCE};
use simkube::objects::{
    ClaimPhase, Container, ObjectData, PodPhase, PodTemplate, ServiceType, UpdateStrategy,
};
use simkube::{
    NodeAffinityTerm, PlatformBugs, Quantity, SecurityContext, Taint, TaintEffect, Toleration,
    TolerationOperator,
};

/// Planned operations applied after deploy.
const OPS: usize = 5;

/// Pushes a copy of `base` with `edit` applied.
fn edit<T: Clone>(out: &mut Vec<T>, base: &T, edit: impl FnOnce(&mut T)) {
    let mut copy = base.clone();
    edit(&mut copy);
    out.push(copy);
}

/// `q` at the same amount in the decimal and in the binary suffix family,
/// and at a different amount.
fn quantity_variants(q: Quantity) -> [Quantity; 3] {
    let binary_zero: Quantity = "0Ki".parse().expect("quantity");
    [
        Quantity::zero() + q,
        binary_zero + q,
        q + Quantity::from_millis(1),
    ]
}

fn quantity_map_variants(map: &BTreeMap<String, Quantity>) -> Vec<BTreeMap<String, Quantity>> {
    let mut out = Vec::new();
    for (key, q) in map {
        for v in quantity_variants(*q) {
            edit(&mut out, map, |m| {
                m.insert(key.clone(), v);
            });
        }
        edit(&mut out, map, |m| {
            m.remove(key);
        });
    }
    edit(&mut out, map, |m| {
        m.insert("ephemeral-storage".into(), "1Gi".parse().expect("quantity"));
    });
    out
}

fn string_map_variants(map: &BTreeMap<String, String>) -> Vec<BTreeMap<String, String>> {
    let mut out = Vec::new();
    for key in map.keys() {
        edit(&mut out, map, |m| {
            m.insert(key.clone(), "perturbed".into());
        });
        edit(&mut out, map, |m| {
            m.remove(key);
        });
    }
    edit(&mut out, map, |m| {
        m.insert("perturbed".into(), "x".into());
    });
    out
}

fn security_variants(s: &SecurityContext) -> Vec<SecurityContext> {
    let mut out = Vec::new();
    edit(&mut out, s, |s| {
        s.run_as_user = Some(s.run_as_user.unwrap_or(0) + 1)
    });
    edit(&mut out, s, |s| s.run_as_user = None);
    edit(&mut out, s, |s| s.run_as_non_root = !s.run_as_non_root);
    edit(&mut out, s, |s| {
        s.read_only_root_filesystem = !s.read_only_root_filesystem
    });
    edit(&mut out, s, |s| {
        s.fs_group = Some(s.fs_group.unwrap_or(0) + 1)
    });
    edit(&mut out, s, |s| s.fs_group = None);
    out
}

fn container_variants(c: &Container) -> Vec<Container> {
    let mut out = Vec::new();
    edit(&mut out, c, |c| c.name.push('x'));
    edit(&mut out, c, |c| c.image.push('x'));
    for requests in quantity_map_variants(&c.resources.requests) {
        edit(&mut out, c, |c| c.resources.requests = requests);
    }
    for limits in quantity_map_variants(&c.resources.limits) {
        edit(&mut out, c, |c| c.resources.limits = limits);
    }
    for env in string_map_variants(&c.env) {
        edit(&mut out, c, |c| c.env = env);
    }
    edit(&mut out, c, |c| c.ports.push(9999));
    edit(&mut out, c, |c| {
        c.ports.pop();
    });
    for security in security_variants(&c.security) {
        edit(&mut out, c, |c| c.security = security);
    }
    edit(&mut out, c, |c| c.config_hash.push('x'));
    edit(&mut out, c, |c| c.volume_mounts.push("perturbed".into()));
    edit(&mut out, c, |c| {
        c.volume_mounts.pop();
    });
    out
}

fn containers_variants(containers: &[Container]) -> Vec<Vec<Container>> {
    let base = containers.to_vec();
    let mut out = Vec::new();
    for (i, c) in containers.iter().enumerate() {
        for variant in container_variants(c) {
            edit(&mut out, &base, |cs| cs[i] = variant);
        }
    }
    edit(&mut out, &base, |cs| cs.push(Container::default()));
    edit(&mut out, &base, |cs| {
        cs.pop();
    });
    out
}

/// Perturbations of the fields pods and pod templates share.
macro_rules! pod_field_variants {
    ($out:expr, $base:expr) => {{
        let base = $base;
        for containers in containers_variants(&base.containers) {
            edit($out, base, |p| p.containers = containers);
        }
        edit($out, base, |p| {
            p.affinity.node_required.push(NodeAffinityTerm {
                key: "zone".into(),
                value: "a".into(),
            })
        });
        edit($out, base, |p| p.affinity.pod_anti_affinity.clear());
        edit($out, base, |p| {
            p.tolerations.push(Toleration {
                key: "dedicated".into(),
                value: "db".into(),
                operator: TolerationOperator::Equal,
            })
        });
        edit($out, base, |p| p.tolerations.clear());
        for node_selector in string_map_variants(&base.node_selector) {
            edit($out, base, |p| p.node_selector = node_selector);
        }
        for security in security_variants(&base.security) {
            edit($out, base, |p| p.security = security);
        }
        edit($out, base, |p| p.service_account.push('x'));
        edit($out, base, |p| p.service_account.clear());
        edit($out, base, |p| p.priority_class.push('x'));
    }};
}

fn template_variants(t: &PodTemplate) -> Vec<PodTemplate> {
    let mut out = Vec::new();
    pod_field_variants!(&mut out, t);
    for labels in string_map_variants(&t.labels) {
        edit(&mut out, t, |t| t.labels = labels);
    }
    for annotations in string_map_variants(&t.annotations) {
        edit(&mut out, t, |t| t.annotations = annotations);
    }
    out
}

fn value_variants(v: &Value) -> Vec<Value> {
    let mut out = vec![Value::Null, Value::from("perturbed")];
    if let Value::Object(map) = v {
        for key in map.keys() {
            edit(&mut out, v, |v| {
                v.as_object_mut().expect("object").remove(key);
            });
            edit(&mut out, v, |v| {
                v.as_object_mut()
                    .expect("object")
                    .insert(key.clone(), Value::from("perturbed"));
            });
        }
        edit(&mut out, v, |v| {
            v.as_object_mut()
                .expect("object")
                .insert("perturbed".into(), Value::from(1));
        });
    }
    out
}

/// Every single-field perturbation of `data`, rendered and unrendered.
fn perturbations(data: &ObjectData) -> Vec<ObjectData> {
    let mut out = Vec::new();
    match data {
        ObjectData::Pod(p) => {
            let mut pods = Vec::new();
            pod_field_variants!(&mut pods, p);
            edit(&mut pods, p, |p| p.claims.push("perturbed".into()));
            edit(&mut pods, p, |p| p.claims.clear());
            edit(&mut pods, p, |p| p.node_name = Some("perturbed".into()));
            edit(&mut pods, p, |p| p.phase = PodPhase::Failed);
            edit(&mut pods, p, |p| p.reason.push('x'));
            edit(&mut pods, p, |p| p.restarts += 1);
            edit(&mut pods, p, |p| p.ready = !p.ready);
            edit(&mut pods, p, |p| p.phase_since += 1);
            out.extend(pods.into_iter().map(ObjectData::Pod));
        }
        ObjectData::StatefulSet(s) => {
            let mut sets = Vec::new();
            edit(&mut sets, s, |s| s.replicas += 1);
            edit(&mut sets, s, |s| s.service_name.push('x'));
            for template in template_variants(&s.template) {
                edit(&mut sets, s, |s| s.template = template);
            }
            for (i, claim) in s.claim_templates.iter().enumerate() {
                for size in quantity_variants(claim.size) {
                    edit(&mut sets, s, |s| s.claim_templates[i].size = size);
                }
                edit(&mut sets, s, |s| s.claim_templates[i].name.push('x'));
                edit(&mut sets, s, |s| {
                    s.claim_templates[i].storage_class.push('x')
                });
            }
            edit(&mut sets, s, |s| {
                s.claim_templates.pop();
            });
            edit(&mut sets, s, |s| {
                s.update_strategy = match s.update_strategy {
                    UpdateStrategy::RollingUpdate => UpdateStrategy::OnDelete,
                    UpdateStrategy::OnDelete => UpdateStrategy::RollingUpdate,
                }
            });
            for labels in string_map_variants(&s.selector.match_labels) {
                edit(&mut sets, s, |s| s.selector.match_labels = labels);
            }
            edit(&mut sets, s, |s| s.observed_generation += 1);
            edit(&mut sets, s, |s| s.ready_replicas += 1);
            out.extend(sets.into_iter().map(ObjectData::StatefulSet));
        }
        ObjectData::Deployment(d) => {
            let mut deployments = Vec::new();
            edit(&mut deployments, d, |d| d.replicas += 1);
            for template in template_variants(&d.template) {
                edit(&mut deployments, d, |d| d.template = template);
            }
            for labels in string_map_variants(&d.selector.match_labels) {
                edit(&mut deployments, d, |d| d.selector.match_labels = labels);
            }
            edit(&mut deployments, d, |d| d.ready_replicas += 1);
            edit(&mut deployments, d, |d| d.observed_generation += 1);
            out.extend(deployments.into_iter().map(ObjectData::Deployment));
        }
        ObjectData::Service(s) => {
            let mut services = Vec::new();
            for t in [
                ServiceType::ClusterIp,
                ServiceType::Headless,
                ServiceType::NodePort,
                ServiceType::LoadBalancer,
            ] {
                edit(&mut services, s, |s| s.service_type = t);
            }
            edit(&mut services, s, |s| s.ports.push(9999));
            edit(&mut services, s, |s| s.ports.clear());
            for labels in string_map_variants(&s.selector.match_labels) {
                edit(&mut services, s, |s| s.selector.match_labels = labels);
            }
            edit(&mut services, s, |s| s.endpoints.push("perturbed".into()));
            out.extend(services.into_iter().map(ObjectData::Service));
        }
        ObjectData::PersistentVolumeClaim(c) => {
            let mut claims = Vec::new();
            for size in quantity_variants(c.size) {
                edit(&mut claims, c, |c| c.size = size);
            }
            edit(&mut claims, c, |c| c.storage_class.push('x'));
            edit(&mut claims, c, |c| {
                c.phase = match c.phase {
                    ClaimPhase::Pending => ClaimPhase::Bound,
                    ClaimPhase::Bound => ClaimPhase::Pending,
                }
            });
            out.extend(claims.into_iter().map(ObjectData::PersistentVolumeClaim));
        }
        ObjectData::ConfigMap(c) => {
            let mut maps = Vec::new();
            for data in string_map_variants(&c.data) {
                edit(&mut maps, c, |c| c.data = data);
            }
            out.extend(maps.into_iter().map(ObjectData::ConfigMap));
        }
        ObjectData::Secret(s) => {
            let mut secrets = Vec::new();
            for data in string_map_variants(&s.data) {
                edit(&mut secrets, s, |s| s.data = data);
            }
            out.extend(secrets.into_iter().map(ObjectData::Secret));
        }
        ObjectData::PodDisruptionBudget(p) => {
            let mut budgets = Vec::new();
            edit(&mut budgets, p, |p| p.min_available += 1);
            for labels in string_map_variants(&p.selector.match_labels) {
                edit(&mut budgets, p, |p| p.selector.match_labels = labels);
            }
            edit(&mut budgets, p, |p| p.current_healthy += 1);
            out.extend(budgets.into_iter().map(ObjectData::PodDisruptionBudget));
        }
        ObjectData::Ingress(i) => {
            let mut ingresses = Vec::new();
            edit(&mut ingresses, i, |i| i.host.push('x'));
            edit(&mut ingresses, i, |i| i.service_name.push('x'));
            edit(&mut ingresses, i, |i| i.tls_secret.push('x'));
            out.extend(ingresses.into_iter().map(ObjectData::Ingress));
        }
        ObjectData::Node(n) => {
            let mut nodes = Vec::new();
            for capacity in quantity_map_variants(&n.capacity) {
                edit(&mut nodes, n, |n| n.capacity = capacity);
            }
            edit(&mut nodes, n, |n| n.ready = !n.ready);
            for labels in string_map_variants(&n.labels) {
                edit(&mut nodes, n, |n| n.labels = labels);
            }
            edit(&mut nodes, n, |n| {
                n.taints.push(Taint {
                    key: "dedicated".into(),
                    value: "db".into(),
                    effect: TaintEffect::NoSchedule,
                })
            });
            out.extend(nodes.into_iter().map(ObjectData::Node));
        }
        ObjectData::Custom { kind, spec, status } => {
            for v in value_variants(spec) {
                out.push(ObjectData::Custom {
                    kind: kind.clone(),
                    spec: v,
                    status: status.clone(),
                });
            }
            for v in value_variants(status) {
                out.push(ObjectData::Custom {
                    kind: kind.clone(),
                    spec: spec.clone(),
                    status: v,
                });
            }
        }
    }
    out
}

/// What the comparisons covered.
#[derive(Default)]
struct Tally {
    pairs: usize,
    /// Pairs whose rendered specs are equal although the payloads differ:
    /// an unrendered field moved.
    unrendered_only: usize,
    /// Pairs whose rendered specs differ although the payloads compare
    /// equal: a quantity changed suffix family only.
    family_only: usize,
    kinds: BTreeSet<String>,
}

impl Tally {
    fn check(&mut self, a: &ObjectData, b: &ObjectData, context: &str) {
        let rendered = a.spec_value() == b.spec_value();
        assert_eq!(a.spec_eq(b), rendered, "{context}: {a:?} vs {b:?}");
        assert_eq!(b.spec_eq(a), rendered, "{context}: {b:?} vs {a:?}");
        self.pairs += 1;
        self.unrendered_only += usize::from(rendered && a != b);
        self.family_only += usize::from(!rendered && a == b);
    }
}

fn stored(instance: &Instance) -> BTreeMap<String, ObjectData> {
    instance
        .cluster
        .api()
        .store()
        .iter()
        .map(|(key, obj)| {
            (
                format!("{}/{}/{}", key.kind.name(), key.namespace, key.name),
                obj.data.clone(),
            )
        })
        .collect()
}

fn check_state(
    tally: &mut Tally,
    state: &BTreeMap<String, ObjectData>,
    previous: &BTreeMap<String, ObjectData>,
    context: &str,
) {
    for (id, data) in state {
        tally.kinds.insert(data.kind().name().to_string());
        let context = format!("{context} {id}");
        tally.check(data, data, &context);
        if let Some(before) = previous.get(id) {
            tally.check(data, before, &context);
        }
        for (other_id, other) in state {
            if other_id != id && other.kind() == data.kind() {
                tally.check(data, other, &context);
            }
        }
        for variant in perturbations(data) {
            tally.check(data, &variant, &context);
        }
    }
}

#[test]
fn spec_eq_matches_rendered_specs_across_all_operators() {
    let mut tally = Tally::default();
    for info in all_operators() {
        let operator = operator_by_name(info.name);
        let plan = plan_campaign(
            &operator.schema(),
            Some(&operator.ir()),
            Mode::Whitebox,
            &operator.initial_cr(),
            &operator.images(),
            INSTANCE,
        );
        let mut instance =
            Instance::deploy(operator, BugToggles::all_injected(), PlatformBugs::none())
                .unwrap_or_else(|e| panic!("{}: deploy failed: {e}", info.name));
        let mut previous = stored(&instance);
        check_state(&mut tally, &previous, &BTreeMap::new(), info.name);
        for op in plan.iter().take(OPS) {
            let mut spec = instance.cr_spec();
            apply_op(&mut spec, op);
            if instance.submit(spec).is_ok() {
                instance.converge(CONVERGE_RESET, CONVERGE_MAX);
            }
            let state = stored(&instance);
            let context = format!("{} op {} ({})", info.name, op.index, op.property);
            check_state(&mut tally, &state, &previous, &context);
            previous = state;
        }
    }
    assert!(tally.pairs > 10_000, "only {} pairs compared", tally.pairs);
    assert!(tally.unrendered_only > 0, "no unrendered-field pair");
    assert!(tally.family_only > 0, "no suffix-family-only pair");
    // Every typed kind and every operator's custom resource was stored.
    let typed = [
        "Pod",
        "StatefulSet",
        "Deployment",
        "Service",
        "PersistentVolumeClaim",
        "ConfigMap",
        "Secret",
        "PodDisruptionBudget",
        "Ingress",
        "Node",
    ];
    for kind in typed {
        assert!(
            tally.kinds.contains(kind),
            "no stored {kind}: {:?}",
            tally.kinds
        );
    }
    assert_eq!(
        tally.kinds.len(),
        typed.len() + all_operators().len(),
        "{:?}",
        tally.kinds
    );
}
