//! Typed state objects and their uniform [`Value`] rendering.
//!
//! Every entity in the simulated cluster — pods, stateful sets, volumes,
//! services, custom resources — is a [`StoredObject`]: metadata plus a typed
//! [`ObjectData`] payload. Objects render to a uniform
//! `{kind, metadata, spec, status}` [`Value`] tree, which is exactly the
//! "highly interpretable state objects" property of Kubernetes that Acto's
//! oracles exploit (paper §2, §5.3).

use std::collections::BTreeMap;

use crdspec::Value;

use crate::meta::{LabelSelector, ObjectMeta};
use crate::quantity::Quantity;
use crate::resources::{Affinity, ResourceRequirements, SecurityContext, Taint, Toleration};

/// The kind of a state object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A pod.
    Pod,
    /// A stateful set.
    StatefulSet,
    /// A deployment.
    Deployment,
    /// A service.
    Service,
    /// A persistent volume claim.
    PersistentVolumeClaim,
    /// A config map.
    ConfigMap,
    /// A secret.
    Secret,
    /// A pod disruption budget.
    PodDisruptionBudget,
    /// An ingress.
    Ingress,
    /// A cluster node.
    Node,
    /// A custom resource of the named CRD kind.
    Custom(String),
}

impl Kind {
    /// Returns the kind's display name (the CRD kind for custom resources).
    pub fn name(&self) -> &str {
        match self {
            Kind::Pod => "Pod",
            Kind::StatefulSet => "StatefulSet",
            Kind::Deployment => "Deployment",
            Kind::Service => "Service",
            Kind::PersistentVolumeClaim => "PersistentVolumeClaim",
            Kind::ConfigMap => "ConfigMap",
            Kind::Secret => "Secret",
            Kind::PodDisruptionBudget => "PodDisruptionBudget",
            Kind::Ingress => "Ingress",
            Kind::Node => "Node",
            Kind::Custom(name) => name,
        }
    }
}

/// A container within a pod or pod template.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Container {
    /// Container name.
    pub name: String,
    /// Image reference (`repo/name:tag`).
    pub image: String,
    /// Compute resources.
    pub resources: ResourceRequirements,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Exposed container ports.
    pub ports: Vec<u16>,
    /// Container-level security context.
    pub security: SecurityContext,
    /// Hash of the configuration the container was started with; a change
    /// requires a restart to take effect.
    pub config_hash: String,
    /// Names of volumes mounted into the container.
    pub volume_mounts: Vec<String>,
}

impl Container {
    /// Renders as a [`Value`].
    pub fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.clone())),
            ("image", Value::from(self.image.clone())),
            ("resources", self.resources.to_value()),
            (
                "env",
                Value::Object(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            (
                "ports",
                Value::array(self.ports.iter().map(|p| Value::from(i64::from(*p)))),
            ),
            ("configHash", Value::from(self.config_hash.clone())),
            (
                "volumeMounts",
                Value::array(self.volume_mounts.iter().map(|v| Value::from(v.clone()))),
            ),
        ])
    }

    /// Compares exactly the fields [`Container::to_value`] renders: every
    /// field but `security`, with quantities compared as they render.
    fn renders_eq(&self, other: &Container) -> bool {
        self.name == other.name
            && self.image == other.image
            && quantities_render_eq(&self.resources.requests, &other.resources.requests)
            && quantities_render_eq(&self.resources.limits, &other.resources.limits)
            && self.env == other.env
            && self.ports == other.ports
            && self.config_hash == other.config_hash
            && self.volume_mounts == other.volume_mounts
    }
}

/// Compares two container lists as [`Container::to_value`] renders them.
fn containers_render_eq(a: &[Container], b: &[Container]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.renders_eq(y))
}

/// Compares two quantity maps as they render (see [`Quantity::renders_eq`]).
fn quantities_render_eq(a: &BTreeMap<String, Quantity>, b: &BTreeMap<String, Quantity>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, qa), (kb, qb))| ka == kb && qa.renders_eq(qb))
}

/// Pod lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodPhase {
    /// Accepted but not yet scheduled or started.
    Pending,
    /// All containers running.
    Running,
    /// Containers terminated with failure.
    Failed,
    /// Containers terminated successfully.
    Succeeded,
}

impl PodPhase {
    /// Display name used in status objects.
    pub fn name(&self) -> &'static str {
        match self {
            PodPhase::Pending => "Pending",
            PodPhase::Running => "Running",
            PodPhase::Failed => "Failed",
            PodPhase::Succeeded => "Succeeded",
        }
    }
}

/// A pod: the scheduling unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Pod {
    /// Containers to run.
    pub containers: Vec<Container>,
    /// Scheduling affinity rules.
    pub affinity: Affinity,
    /// Node taint tolerations.
    pub tolerations: Vec<Toleration>,
    /// Required node labels.
    pub node_selector: BTreeMap<String, String>,
    /// Pod-level security context.
    pub security: SecurityContext,
    /// Service account the pod runs as.
    pub service_account: String,
    /// Scheduling priority class.
    pub priority_class: String,
    /// Persistent volume claims the pod mounts (claim names).
    pub claims: Vec<String>,
    /// Node the pod is bound to, once scheduled.
    pub node_name: Option<String>,
    /// Lifecycle phase.
    pub phase: PodPhase,
    /// Human-readable reason when not `Running` (e.g. `ImagePullBackOff`).
    pub reason: String,
    /// Restart count across all containers.
    pub restarts: u32,
    /// Whether the readiness gate passed.
    pub ready: bool,
    /// Simulated time the pod entered its current phase.
    pub phase_since: u64,
}

impl Default for Pod {
    fn default() -> Self {
        Pod {
            containers: Vec::new(),
            affinity: Affinity::default(),
            tolerations: Vec::new(),
            node_selector: BTreeMap::new(),
            security: SecurityContext::default(),
            service_account: "default".to_string(),
            priority_class: String::new(),
            claims: Vec::new(),
            node_name: None,
            phase: PodPhase::Pending,
            reason: String::new(),
            restarts: 0,
            ready: false,
            phase_since: 0,
        }
    }
}

impl Pod {
    /// Sums effective requests for `resource` across containers.
    pub fn total_request(&self, resource: &str) -> Quantity {
        self.containers
            .iter()
            .map(|c| c.resources.effective_request(resource))
            .fold(Quantity::zero(), |acc, q| acc + q)
    }

    /// Renders the pod spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            (
                "containers",
                Value::array(self.containers.iter().map(Container::to_value)),
            ),
            ("affinity", self.affinity.to_value()),
            (
                "nodeSelector",
                Value::Object(
                    self.node_selector
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            ("tolerations", tolerations_value(&self.tolerations)),
            ("serviceAccount", Value::from(self.service_account.clone())),
            ("priorityClass", Value::from(self.priority_class.clone())),
            (
                "claims",
                Value::array(self.claims.iter().map(|c| Value::from(c.clone()))),
            ),
            ("securityContext", security_value(&self.security)),
        ])
    }

    /// Renders the pod status section.
    pub fn status_value(&self) -> Value {
        Value::object([
            ("phase", Value::from(self.phase.name())),
            ("reason", Value::from(self.reason.clone())),
            (
                "nodeName",
                self.node_name
                    .as_ref()
                    .map(|n| Value::from(n.clone()))
                    .unwrap_or(Value::Null),
            ),
            ("restarts", Value::from(i64::from(self.restarts))),
            ("ready", Value::from(self.ready)),
        ])
    }
}

/// A pod template embedded in workload objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PodTemplate {
    /// Labels stamped onto created pods.
    pub labels: BTreeMap<String, String>,
    /// Annotations stamped onto created pods.
    pub annotations: BTreeMap<String, String>,
    /// Containers of each pod.
    pub containers: Vec<Container>,
    /// Affinity of each pod.
    pub affinity: Affinity,
    /// Tolerations of each pod.
    pub tolerations: Vec<Toleration>,
    /// Node selector of each pod.
    pub node_selector: BTreeMap<String, String>,
    /// Pod security context.
    pub security: SecurityContext,
    /// Service account.
    pub service_account: String,
    /// Priority class.
    pub priority_class: String,
}

impl PodTemplate {
    /// Instantiates a [`Pod`] from the template.
    pub fn make_pod(&self) -> Pod {
        Pod {
            containers: self.containers.clone(),
            affinity: self.affinity.clone(),
            tolerations: self.tolerations.clone(),
            node_selector: self.node_selector.clone(),
            security: self.security.clone(),
            service_account: if self.service_account.is_empty() {
                "default".to_string()
            } else {
                self.service_account.clone()
            },
            priority_class: self.priority_class.clone(),
            ..Pod::default()
        }
    }

    /// Renders as a [`Value`] (used in workload spec sections).
    pub fn to_value(&self) -> Value {
        Value::object([
            (
                "labels",
                Value::Object(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            (
                "annotations",
                Value::Object(
                    self.annotations
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            (
                "containers",
                Value::array(self.containers.iter().map(Container::to_value)),
            ),
            ("affinity", self.affinity.to_value()),
            (
                "nodeSelector",
                Value::Object(
                    self.node_selector
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
            ("tolerations", tolerations_value(&self.tolerations)),
            ("securityContext", security_value(&self.security)),
            ("serviceAccount", Value::from(self.service_account.clone())),
            ("priorityClass", Value::from(self.priority_class.clone())),
        ])
    }

    /// Compares exactly the fields [`PodTemplate::to_value`] renders.
    fn renders_eq(&self, other: &PodTemplate) -> bool {
        self.labels == other.labels
            && self.annotations == other.annotations
            && containers_render_eq(&self.containers, &other.containers)
            && self.affinity == other.affinity
            && self.node_selector == other.node_selector
            && self.tolerations == other.tolerations
            && self.security == other.security
            && self.service_account == other.service_account
            && self.priority_class == other.priority_class
    }
}

/// FNV-1a fingerprint of a string, used for template and configuration
/// fingerprints stamped into pod specs.
pub fn fnv_fingerprint(input: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in input.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Renders a toleration list as a [`Value`].
fn tolerations_value(tolerations: &[Toleration]) -> Value {
    Value::array(tolerations.iter().map(|t| {
        Value::object([
            ("key", Value::from(t.key.clone())),
            ("value", Value::from(t.value.clone())),
            (
                "operator",
                Value::from(match t.operator {
                    crate::resources::TolerationOperator::Equal => "Equal",
                    crate::resources::TolerationOperator::Exists => "Exists",
                }),
            ),
        ])
    }))
}

/// Renders a security context as a [`Value`].
fn security_value(security: &SecurityContext) -> Value {
    Value::object([
        (
            "runAsUser",
            security.run_as_user.map(Value::from).unwrap_or(Value::Null),
        ),
        ("runAsNonRoot", Value::from(security.run_as_non_root)),
        (
            "readOnlyRootFilesystem",
            Value::from(security.read_only_root_filesystem),
        ),
        (
            "fsGroup",
            security.fs_group.map(Value::from).unwrap_or(Value::Null),
        ),
    ])
}

/// A persistent volume claim template within a stateful set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimTemplate {
    /// Claim name prefix.
    pub name: String,
    /// Requested storage size.
    pub size: Quantity,
    /// Storage class name.
    pub storage_class: String,
}

/// Update strategy for stateful sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// Pods are replaced one at a time, highest ordinal first.
    #[default]
    RollingUpdate,
    /// Pods are only replaced when deleted manually.
    OnDelete,
}

/// A stateful set managing an ordered group of pods with stable identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatefulSet {
    /// Desired replica count.
    pub replicas: i32,
    /// Pod selector (must match template labels).
    pub selector: LabelSelector,
    /// Template for created pods.
    pub template: PodTemplate,
    /// Volume claim templates (one claim per template per pod).
    pub claim_templates: Vec<ClaimTemplate>,
    /// Headless service governing network identity.
    pub service_name: String,
    /// Update strategy.
    pub update_strategy: UpdateStrategy,
    /// Observed CR generation (status).
    pub observed_generation: u64,
    /// Ready replica count (status).
    pub ready_replicas: i32,
}

impl StatefulSet {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("replicas", Value::from(i64::from(self.replicas))),
            ("serviceName", Value::from(self.service_name.clone())),
            ("template", self.template.to_value()),
            (
                "claimTemplates",
                Value::array(self.claim_templates.iter().map(|c| {
                    Value::object([
                        ("name", Value::from(c.name.clone())),
                        ("size", Value::from(c.size.to_string())),
                        ("storageClass", Value::from(c.storage_class.clone())),
                    ])
                })),
            ),
            (
                "updateStrategy",
                Value::from(match self.update_strategy {
                    UpdateStrategy::RollingUpdate => "RollingUpdate",
                    UpdateStrategy::OnDelete => "OnDelete",
                }),
            ),
        ])
    }

    /// Renders the status section.
    pub fn status_value(&self) -> Value {
        Value::object([
            ("readyReplicas", Value::from(i64::from(self.ready_replicas))),
            (
                "observedGeneration",
                Value::from(self.observed_generation as i64),
            ),
        ])
    }
}

/// A deployment managing interchangeable pods.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Deployment {
    /// Desired replica count.
    pub replicas: i32,
    /// Pod selector.
    pub selector: LabelSelector,
    /// Template for created pods.
    pub template: PodTemplate,
    /// Ready replica count (status).
    pub ready_replicas: i32,
    /// Observed generation (status).
    pub observed_generation: u64,
}

impl Deployment {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("replicas", Value::from(i64::from(self.replicas))),
            ("template", self.template.to_value()),
        ])
    }

    /// Renders the status section.
    pub fn status_value(&self) -> Value {
        Value::object([
            ("readyReplicas", Value::from(i64::from(self.ready_replicas))),
            (
                "observedGeneration",
                Value::from(self.observed_generation as i64),
            ),
        ])
    }
}

/// Service exposure type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceType {
    /// Internal cluster IP (default).
    #[default]
    ClusterIp,
    /// Headless service (no virtual IP; used by stateful sets).
    Headless,
    /// Exposed on every node's port.
    NodePort,
    /// Exposed via an external load balancer.
    LoadBalancer,
}

impl ServiceType {
    /// Display name used in spec sections.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceType::ClusterIp => "ClusterIP",
            ServiceType::Headless => "Headless",
            ServiceType::NodePort => "NodePort",
            ServiceType::LoadBalancer => "LoadBalancer",
        }
    }
}

/// A service routing traffic to selected pods.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Service {
    /// Pod selector.
    pub selector: LabelSelector,
    /// Exposed ports.
    pub ports: Vec<u16>,
    /// Exposure type.
    pub service_type: ServiceType,
    /// Names of ready pods currently backing the service (status).
    pub endpoints: Vec<String>,
}

impl Service {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("type", Value::from(self.service_type.name())),
            (
                "ports",
                Value::array(self.ports.iter().map(|p| Value::from(i64::from(*p)))),
            ),
            (
                "selector",
                Value::Object(
                    self.selector
                        .match_labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the status section.
    pub fn status_value(&self) -> Value {
        Value::object([(
            "endpoints",
            Value::array(self.endpoints.iter().map(|e| Value::from(e.clone()))),
        )])
    }
}

/// Binding phase of a persistent volume claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClaimPhase {
    /// Awaiting a matching volume.
    #[default]
    Pending,
    /// Bound to a volume.
    Bound,
}

/// A persistent volume claim.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentVolumeClaim {
    /// Requested size.
    pub size: Quantity,
    /// Storage class.
    pub storage_class: String,
    /// Binding phase (status).
    pub phase: ClaimPhase,
}

impl PersistentVolumeClaim {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("size", Value::from(self.size.to_string())),
            ("storageClass", Value::from(self.storage_class.clone())),
        ])
    }

    /// Renders the status section.
    pub fn status_value(&self) -> Value {
        Value::object([(
            "phase",
            Value::from(match self.phase {
                ClaimPhase::Pending => "Pending",
                ClaimPhase::Bound => "Bound",
            }),
        )])
    }
}

/// A config map of plain key/value data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigMap {
    /// Configuration entries.
    pub data: BTreeMap<String, String>,
}

/// A secret of sensitive key/value data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Secret {
    /// Secret entries (values stored plainly in the simulation).
    pub data: BTreeMap<String, String>,
}

/// A pod disruption budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pdb {
    /// Pod selector.
    pub selector: LabelSelector,
    /// Minimum pods that must stay available.
    pub min_available: i32,
    /// Currently available matching pods (status).
    pub current_healthy: i32,
}

impl Pdb {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("minAvailable", Value::from(i64::from(self.min_available))),
            (
                "selector",
                Value::Object(
                    self.selector
                        .match_labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the status section.
    pub fn status_value(&self) -> Value {
        Value::object([(
            "currentHealthy",
            Value::from(i64::from(self.current_healthy)),
        )])
    }
}

/// An ingress exposing a service externally.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ingress {
    /// External hostname.
    pub host: String,
    /// Backing service name.
    pub service_name: String,
    /// TLS secret name (empty when TLS is off).
    pub tls_secret: String,
}

impl Ingress {
    /// Renders the spec section.
    pub fn spec_value(&self) -> Value {
        Value::object([
            ("host", Value::from(self.host.clone())),
            ("serviceName", Value::from(self.service_name.clone())),
            (
                "tls",
                Value::object([("secretName", Value::from(self.tls_secret.clone()))]),
            ),
        ])
    }
}

/// A cluster node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Allocatable capacity by resource name.
    pub capacity: BTreeMap<String, Quantity>,
    /// Node labels (for selectors and affinity).
    pub labels: BTreeMap<String, String>,
    /// Node taints.
    pub taints: Vec<Taint>,
    /// Whether the node accepts pods.
    pub ready: bool,
}

impl Node {
    /// Creates a ready node with the given cpu/memory capacity.
    ///
    /// # Panics
    ///
    /// Panics if the quantity literals are malformed.
    pub fn with_capacity(cpu: &str, memory: &str) -> Node {
        let mut capacity = BTreeMap::new();
        capacity.insert("cpu".to_string(), cpu.parse().expect("cpu quantity"));
        capacity.insert(
            "memory".to_string(),
            memory.parse().expect("memory quantity"),
        );
        Node {
            capacity,
            labels: BTreeMap::new(),
            taints: Vec::new(),
            ready: true,
        }
    }
}

/// The typed payload of a stored object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectData {
    /// A pod.
    Pod(Pod),
    /// A stateful set.
    StatefulSet(StatefulSet),
    /// A deployment.
    Deployment(Deployment),
    /// A service.
    Service(Service),
    /// A persistent volume claim.
    PersistentVolumeClaim(PersistentVolumeClaim),
    /// A config map.
    ConfigMap(ConfigMap),
    /// A secret.
    Secret(Secret),
    /// A pod disruption budget.
    PodDisruptionBudget(Pdb),
    /// An ingress.
    Ingress(Ingress),
    /// A node.
    Node(Node),
    /// A custom resource: declared spec and controller-written status.
    Custom {
        /// CRD kind name.
        kind: String,
        /// Declared desired state.
        spec: Value,
        /// Controller-reported status.
        status: Value,
    },
}

impl ObjectData {
    /// Returns the object's [`Kind`].
    pub fn kind(&self) -> Kind {
        match self {
            ObjectData::Pod(_) => Kind::Pod,
            ObjectData::StatefulSet(_) => Kind::StatefulSet,
            ObjectData::Deployment(_) => Kind::Deployment,
            ObjectData::Service(_) => Kind::Service,
            ObjectData::PersistentVolumeClaim(_) => Kind::PersistentVolumeClaim,
            ObjectData::ConfigMap(_) => Kind::ConfigMap,
            ObjectData::Secret(_) => Kind::Secret,
            ObjectData::PodDisruptionBudget(_) => Kind::PodDisruptionBudget,
            ObjectData::Ingress(_) => Kind::Ingress,
            ObjectData::Node(_) => Kind::Node,
            ObjectData::Custom { kind, .. } => Kind::Custom(kind.clone()),
        }
    }

    /// Returns `self.spec_value() == other.spec_value()` without rendering
    /// either side.
    ///
    /// [`ObjectStore::update_with`](crate::store::ObjectStore::update_with)
    /// asks this on every changing write to decide whether `generation`
    /// moves, so it compares in place and must agree with the rendering
    /// exactly. Each arm compares exactly the fields its kind's `spec_value`
    /// projects: fields the rendering leaves out (a stateful set's
    /// `selector`, a container's `security`, every status field) are not
    /// compared, and quantities are compared as they render
    /// (`Quantity::renders_eq`), suffix family included. A custom
    /// resource compares its spec in place. Only a pair of different kinds,
    /// which never share a store key, is rendered. A debug assertion pins
    /// every answer to the rendered comparison.
    pub fn spec_eq(&self, other: &ObjectData) -> bool {
        let eq = match (self, other) {
            (ObjectData::Pod(a), ObjectData::Pod(b)) => {
                containers_render_eq(&a.containers, &b.containers)
                    && a.affinity == b.affinity
                    && a.tolerations == b.tolerations
                    && a.node_selector == b.node_selector
                    && a.security == b.security
                    && a.service_account == b.service_account
                    && a.priority_class == b.priority_class
                    && a.claims == b.claims
            }
            (ObjectData::StatefulSet(a), ObjectData::StatefulSet(b)) => {
                a.replicas == b.replicas
                    && a.service_name == b.service_name
                    && a.template.renders_eq(&b.template)
                    && a.claim_templates.len() == b.claim_templates.len()
                    && a.claim_templates
                        .iter()
                        .zip(&b.claim_templates)
                        .all(|(x, y)| {
                            x.name == y.name
                                && x.size.renders_eq(&y.size)
                                && x.storage_class == y.storage_class
                        })
                    && a.update_strategy == b.update_strategy
            }
            (ObjectData::Deployment(a), ObjectData::Deployment(b)) => {
                a.replicas == b.replicas && a.template.renders_eq(&b.template)
            }
            (ObjectData::Service(a), ObjectData::Service(b)) => {
                a.service_type == b.service_type
                    && a.ports == b.ports
                    && a.selector.match_labels == b.selector.match_labels
            }
            (ObjectData::PersistentVolumeClaim(a), ObjectData::PersistentVolumeClaim(b)) => {
                a.size.renders_eq(&b.size) && a.storage_class == b.storage_class
            }
            (ObjectData::ConfigMap(a), ObjectData::ConfigMap(b)) => a.data == b.data,
            (ObjectData::Secret(a), ObjectData::Secret(b)) => a.data == b.data,
            (ObjectData::PodDisruptionBudget(a), ObjectData::PodDisruptionBudget(b)) => {
                a.min_available == b.min_available
                    && a.selector.match_labels == b.selector.match_labels
            }
            (ObjectData::Ingress(a), ObjectData::Ingress(b)) => {
                a.host == b.host && a.service_name == b.service_name && a.tls_secret == b.tls_secret
            }
            (ObjectData::Node(a), ObjectData::Node(b)) => {
                quantities_render_eq(&a.capacity, &b.capacity) && a.ready == b.ready
            }
            (ObjectData::Custom { spec: a, .. }, ObjectData::Custom { spec: b, .. }) => a == b,
            _ => return self.spec_value() == other.spec_value(),
        };
        debug_assert_eq!(
            eq,
            self.spec_value() == other.spec_value(),
            "ObjectData::spec_eq diverged from the rendered {} spec",
            self.kind().name()
        );
        eq
    }

    /// Renders the spec section as a [`Value`].
    pub fn spec_value(&self) -> Value {
        match self {
            ObjectData::Pod(p) => p.spec_value(),
            ObjectData::StatefulSet(s) => s.spec_value(),
            ObjectData::Deployment(d) => d.spec_value(),
            ObjectData::Service(s) => s.spec_value(),
            ObjectData::PersistentVolumeClaim(p) => p.spec_value(),
            ObjectData::ConfigMap(c) => Value::object([(
                "data",
                Value::Object(
                    c.data
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            )]),
            ObjectData::Secret(s) => Value::object([(
                "data",
                Value::Object(
                    s.data
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(v.clone())))
                        .collect(),
                ),
            )]),
            ObjectData::PodDisruptionBudget(p) => p.spec_value(),
            ObjectData::Ingress(i) => i.spec_value(),
            ObjectData::Node(n) => Value::object([
                (
                    "capacity",
                    Value::Object(
                        n.capacity
                            .iter()
                            .map(|(k, q)| (k.clone(), Value::from(q.to_string())))
                            .collect(),
                    ),
                ),
                ("ready", Value::from(n.ready)),
            ]),
            ObjectData::Custom { spec, .. } => spec.clone(),
        }
    }

    /// Renders the status section as a [`Value`].
    pub fn status_value(&self) -> Value {
        match self {
            ObjectData::Pod(p) => p.status_value(),
            ObjectData::StatefulSet(s) => s.status_value(),
            ObjectData::Deployment(d) => d.status_value(),
            ObjectData::Service(s) => s.status_value(),
            ObjectData::PersistentVolumeClaim(p) => p.status_value(),
            ObjectData::PodDisruptionBudget(p) => p.status_value(),
            ObjectData::Custom { status, .. } => status.clone(),
            _ => Value::empty_object(),
        }
    }

    /// Borrowed access to one field of a custom object's status, avoiding
    /// the full [`ObjectData::status_value`] render. `None` for typed
    /// objects: their rendered statuses carry no free-form fields.
    pub fn status_field(&self, field: &str) -> Option<&Value> {
        match self {
            ObjectData::Custom { status, .. } => status.get(field),
            _ => None,
        }
    }
}

/// A stored object: metadata plus typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    /// Object metadata.
    pub meta: ObjectMeta,
    /// Typed payload.
    pub data: ObjectData,
}

impl StoredObject {
    /// Renders the full object as a uniform `{kind, metadata, spec, status}`
    /// value for oracle consumption.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("kind", Value::from(self.data.kind().name())),
            ("metadata", self.meta.to_value()),
            ("spec", self.data.spec_value()),
            ("status", self.data.status_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pod() -> Pod {
        Pod {
            containers: vec![Container {
                name: "main".to_string(),
                image: "repo/zk:3.8".to_string(),
                resources: ResourceRequirements::new()
                    .request("cpu", "500m")
                    .request("memory", "1Gi"),
                ..Container::default()
            }],
            ..Pod::default()
        }
    }

    #[test]
    fn pod_total_request_sums_containers() {
        let mut pod = sample_pod();
        pod.containers.push(Container {
            name: "sidecar".to_string(),
            image: "repo/agent:1".to_string(),
            resources: ResourceRequirements::new().request("cpu", "250m"),
            ..Container::default()
        });
        assert_eq!(pod.total_request("cpu"), "750m".parse().unwrap());
        assert_eq!(pod.total_request("memory"), "1Gi".parse().unwrap());
    }

    #[test]
    fn stored_object_value_has_uniform_sections() {
        let obj = StoredObject {
            meta: ObjectMeta::named("default", "zk-0"),
            data: ObjectData::Pod(sample_pod()),
        };
        let v = obj.to_value();
        assert_eq!(v.get("kind"), Some(&Value::from("Pod")));
        assert!(v.get("metadata").is_some());
        assert!(v.get("spec").is_some());
        assert!(v.get("status").is_some());
        assert_eq!(
            v.get_path(&"status.phase".parse().unwrap()),
            Some(&Value::from("Pending"))
        );
    }

    #[test]
    fn template_instantiates_pods() {
        let tpl = PodTemplate {
            containers: sample_pod().containers,
            service_account: String::new(),
            ..PodTemplate::default()
        };
        let pod = tpl.make_pod();
        assert_eq!(pod.service_account, "default");
        assert_eq!(pod.phase, PodPhase::Pending);
        assert_eq!(pod.containers.len(), 1);
    }

    #[test]
    fn custom_resource_values_pass_through() {
        let spec = Value::object([("replicas", Value::from(3))]);
        let data = ObjectData::Custom {
            kind: "ZookeeperCluster".to_string(),
            spec: spec.clone(),
            status: Value::empty_object(),
        };
        assert_eq!(data.kind().name(), "ZookeeperCluster");
        assert_eq!(data.spec_value(), spec);
    }

    /// Asserts that `spec_eq` decides `a` vs `b` like the rendered specs,
    /// and that the rendering says `rendered_eq`.
    fn assert_decides_like_render(a: &ObjectData, b: &ObjectData, rendered_eq: bool) {
        assert_eq!(
            a.spec_value() == b.spec_value(),
            rendered_eq,
            "{a:?} vs {b:?}"
        );
        assert_eq!(a.spec_eq(b), rendered_eq, "{a:?} vs {b:?}");
        assert_eq!(b.spec_eq(a), rendered_eq, "{b:?} vs {a:?}");
    }

    #[test]
    fn pod_spec_eq_ignores_container_security_and_keeps_quantity_family() {
        let base = sample_pod();
        let mut secured = base.clone();
        secured.containers[0].security.run_as_user = Some(1000);
        assert_decides_like_render(
            &ObjectData::Pod(base.clone()),
            &ObjectData::Pod(secured),
            true,
        );
        let mut bytes = base.clone();
        bytes.containers[0].resources = ResourceRequirements::new()
            .request("cpu", "500m")
            .request("memory", "1073741824");
        assert_eq!(bytes.containers, base.containers);
        assert_decides_like_render(&ObjectData::Pod(base), &ObjectData::Pod(bytes), false);
    }

    #[test]
    fn template_and_claim_spec_eq_keep_quantity_family() {
        let mut sts = StatefulSet {
            replicas: 3,
            template: PodTemplate {
                containers: sample_pod().containers,
                ..PodTemplate::default()
            },
            claim_templates: vec![ClaimTemplate {
                name: "data".to_string(),
                size: "1Gi".parse().unwrap(),
                storage_class: "standard".to_string(),
            }],
            ..StatefulSet::default()
        };
        let base = ObjectData::StatefulSet(sts.clone());
        sts.claim_templates[0].size = "1073741824".parse().unwrap();
        assert_decides_like_render(&base, &ObjectData::StatefulSet(sts.clone()), false);
        sts.claim_templates[0].size = "1024Mi".parse().unwrap();
        sts.template.containers[0].security.run_as_non_root = true;
        sts.selector = LabelSelector::match_labels([("app", "zk")]);
        sts.ready_replicas = 3;
        assert_decides_like_render(&base, &ObjectData::StatefulSet(sts), true);
        let pvc = |size: &str| {
            ObjectData::PersistentVolumeClaim(PersistentVolumeClaim {
                size: size.parse().unwrap(),
                storage_class: "standard".to_string(),
                phase: ClaimPhase::Pending,
            })
        };
        assert_decides_like_render(&pvc("1Gi"), &pvc("1073741824"), false);
        assert_decides_like_render(&pvc("1Gi"), &pvc("1024Mi"), true);
    }

    #[test]
    fn spec_eq_across_kinds_follows_the_render() {
        let cm = ObjectData::ConfigMap(ConfigMap::default());
        let secret = ObjectData::Secret(Secret::default());
        assert_decides_like_render(&cm, &secret, true);
        let pod = ObjectData::Pod(sample_pod());
        assert_decides_like_render(&cm, &pod, false);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(Kind::Pod.name(), "Pod");
        assert_eq!(Kind::Custom("X".to_string()).name(), "X");
        assert_eq!(Kind::PodDisruptionBudget.name(), "PodDisruptionBudget");
    }
}
