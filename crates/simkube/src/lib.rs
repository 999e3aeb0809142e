//! A simulated Kubernetes control plane for the Acto reproduction.
//!
//! The paper runs operators against virtualized Kubernetes clusters
//! (Kind/Minikube/K3d). This crate substitutes a deterministic, in-process
//! control plane that preserves the behaviours Acto observes:
//!
//! - Uniform, interpretable **state objects** with `metadata`/`spec`/`status`
//!   sections, resource versions, and owner references ([`objects`],
//!   [`store`]), plus the operator-visible state index whose O(1) clones
//!   are the oracles' snapshots ([`state`]).
//! - An **API server** with validation, optimistic-concurrency conflicts, and
//!   admission webhooks ([`api`]).
//! - A **scheduler** honouring resources, node selectors, affinity rules, and
//!   taints/tolerations ([`scheduler`]).
//! - Built-in **controllers** for stateful sets, deployments, services,
//!   disruption budgets, and owner-reference garbage collection
//!   ([`controllers`]).
//! - A **simulated clock** and a discrete event loop with convergence
//!   detection matching Acto's reset-timer approach ([`cluster`]).
//! - Six injectable **platform bugs** mirroring the Kubernetes/Go-runtime
//!   bugs the paper reports ([`platform`]).
//! - Deterministic, seed-driven **fault injection** — node crashes, pod
//!   kills/evictions, write conflicts, watch blackouts, transient reconcile
//!   errors — scheduled from explicit plans ([`faults`]).

pub mod api;
pub mod cluster;
pub mod controllers;
pub mod faults;
pub mod meta;
pub mod objects;
pub mod platform;
pub mod pmap;
pub mod quantity;
pub mod resources;
pub mod scheduler;
pub mod state;
pub mod store;

pub use api::{ApiError, ApiServer};
pub use cluster::{
    checkpoint_forks, engine_counters, set_ticked_engine, ticked_engine, wait, ClusterCheckpoint,
    ClusterConfig, ClusterFingerprint, Converge, NodeTopology, SimCluster, StepEngine, WaitCursor,
    BACKGROUND_NAMESPACE,
};
pub use controllers::ControllerCursors;
pub use faults::{
    Fault, FaultEvent, FaultInjector, FaultPlan, FaultProfile, SplitMix64, TimedFault,
};
pub use meta::{LabelSelector, ObjectMeta, OwnerReference};
pub use objects::{
    ConfigMap, Container, Deployment, Ingress, Kind, Node, ObjectData, Pdb, PersistentVolumeClaim,
    Pod, PodPhase, Secret, Service, StatefulSet, StoredObject,
};
pub use platform::PlatformBugs;
pub use quantity::{Quantity, QuantityError};
pub use resources::{
    Affinity, NodeAffinityTerm, PodAffinityTerm, ResourceRequirements, SecurityContext, Taint,
    TaintEffect, Toleration, TolerationOperator,
};
pub use state::{mask_value, object_id, SnapEntry, StateIndex, MASKED_FIELDS};
pub use store::{ObjKey, ObjectStore, WatchEvent, WatchEventKind};
