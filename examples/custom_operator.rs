//! Testing your own operator with Acto.
//!
//! This example builds a small "key-value store" operator from scratch —
//! CRD schema, reconcile IR, reconcile logic — deploys it on the simulated
//! control plane, and runs an Acto campaign against it. The operator has a
//! deliberate bug (it never removes the debug sidecar once enabled) for
//! Acto to find.
//!
//! ```sh
//! cargo run --release --example custom_operator
//! ```

use acto_repro::acto::{self, Mode};
use acto_repro::crdspec::{Schema, Semantic, Value};
use acto_repro::managed::Health;
use acto_repro::opdsl::{IrBuilder, IrModule};
use acto_repro::operators::common::{
    apply_config, apply_statefulset, bool_at, i64_at, pod_template_at, ready_pods, str_at,
    write_cr_status,
};
use acto_repro::operators::{
    BugToggles, Declaration, Instance, Operator, OperatorError, CONVERGE_MAX, CONVERGE_RESET,
    INSTANCE, NAMESPACE,
};
use acto_repro::simkube::objects::{Container, Kind, ObjectData};
use acto_repro::simkube::store::ObjKey;
use acto_repro::simkube::{PlatformBugs, SimCluster};

/// A toy key-value-store operator.
///
/// It meets the [`Operator::reconcile`] contract the harness relies on to
/// skip repeated passes: a unit struct with no in-memory state, whose pass
/// depends only on the declaration, health, bug toggles and cluster state,
/// and which reads the clock only through helpers that stamp its writes.
struct KvOperator;

impl Operator for KvOperator {
    fn name(&self) -> &'static str {
        "KvOp"
    }
    fn system(&self) -> &'static str {
        // Reuse the redis behavioural model: primary + followers.
        "redis"
    }
    fn kind(&self) -> &'static str {
        "KvCluster"
    }
    fn schema(&self) -> Schema {
        Schema::object()
            .prop(
                "replicas",
                Schema::integer().min(1).max(5).semantic(Semantic::Replicas),
            )
            .prop(
                "image",
                Schema::string()
                    .semantic(Semantic::Image)
                    .default_value(Value::from("kv:1.0")),
            )
            .prop(
                "debug",
                Schema::object().prop("enabled", Schema::boolean().semantic(Semantic::Toggle)),
            )
            .prop(
                "pod",
                acto_repro::operators::crd_parts::pod_template_schema(),
            )
            .require("replicas")
    }
    fn ir(&self) -> IrModule {
        let mut b = IrBuilder::new("kv-op");
        b.passthrough("replicas", "sts.replicas");
        b.passthrough("image", "pod.image");
        b.ret();
        b.finish()
    }
    fn initial_cr(&self) -> Value {
        Value::object([
            ("replicas", Value::from(2)),
            ("image", Value::from("kv:1.0")),
            ("debug", Value::object([("enabled", Value::from(false))])),
        ])
    }
    fn images(&self) -> Vec<String> {
        vec![
            "kv:1.0".to_string(),
            "kv:1.1".to_string(),
            "debug:1".to_string(),
        ]
    }
    fn reconcile(
        &mut self,
        cr: &Declaration,
        _health: &Health,
        cluster: &mut SimCluster,
        _bugs: &BugToggles,
    ) -> Result<(), OperatorError> {
        let replicas = i64_at(cr, "replicas").unwrap_or(2).clamp(1, 5) as i32;
        let image = str_at(cr, "image").unwrap_or_else(|| "kv:1.0".to_string());
        apply_config(cluster, NAMESPACE, INSTANCE, Default::default())?;
        let mut template = pod_template_at(cr, "pod", INSTANCE, None, &image, "static");
        // THE BUG: once the debug sidecar was added it is never removed.
        let had_debug =
            match cluster
                .api()
                .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
            {
                Some(obj) => match &obj.data {
                    ObjectData::StatefulSet(s) => {
                        s.template.containers.iter().any(|c| c.name == "debug")
                    }
                    _ => false,
                },
                None => false,
            };
        if bool_at(cr, "debug.enabled").unwrap_or(false) || had_debug {
            template.containers.push(Container {
                name: "debug".to_string(),
                image: "debug:1".to_string(),
                ..Container::default()
            });
        }
        apply_statefulset(cluster, NAMESPACE, INSTANCE, replicas, template, Vec::new())?;
        let ready = ready_pods(cluster, NAMESPACE, INSTANCE);
        let cr_key = ObjKey::new(Kind::Custom(self.kind().to_string()), NAMESPACE, INSTANCE);
        write_cr_status(cluster, &cr_key, ready, replicas);
        Ok(())
    }
}

fn main() {
    // 1. Sanity-check the operator deploys and serves.
    let instance = Instance::deploy(
        Box::new(KvOperator),
        BugToggles::all_injected(),
        PlatformBugs::none(),
    )
    .expect("deploy");
    println!(
        "KvOp deployed: {} pods, health = {:?}\n",
        instance.cluster.pod_summaries(NAMESPACE).len(),
        instance.last_health
    );

    // 2. Drive the bug manually: enable, then disable the debug sidecar.
    let mut instance = instance;
    let mut spec = instance.cr_spec();
    spec.set_path(&"debug.enabled".parse().unwrap(), Value::from(true));
    instance.submit(spec.clone()).expect("submit");
    instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    spec.set_path(&"debug.enabled".parse().unwrap(), Value::from(false));
    instance.submit(spec).expect("submit");
    instance.converge(CONVERGE_RESET, CONVERGE_MAX);
    let sts = instance
        .cluster
        .api()
        .get(&ObjKey::new(Kind::StatefulSet, NAMESPACE, INSTANCE))
        .expect("sts");
    if let ObjectData::StatefulSet(s) = &sts.data {
        println!(
            "After enable→disable, the debug sidecar {} present (the bug).\n",
            if s.template.containers.iter().any(|c| c.name == "debug") {
                "is still"
            } else {
                "is not"
            }
        );
    }

    // 3. Let Acto find it automatically: plan a campaign over the custom
    //    schema and exercise it through the differential oracle.
    let op = KvOperator;
    let plan = acto::plan_campaign(
        &op.schema(),
        Some(&op.ir()),
        Mode::Whitebox,
        &op.initial_cr(),
        &op.images(),
        INSTANCE,
    );
    println!("Acto plans {} operations for KvOp, e.g.:", plan.len());
    for p in plan.iter().take(6) {
        println!(
            "  #{:<2} {} [{}] = {}",
            p.index, p.property, p.scenario, p.value
        );
    }
    println!(
        "\n(Full campaigns for registry operators run via \
         `cargo run -p acto-bench --bin campaign <name>`.)"
    );
}
