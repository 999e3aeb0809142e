//! The eleven Kubernetes-style operators the Acto reproduction evaluates.
//!
//! Each operator mirrors one row of the paper's Table 4: a realistic CRD
//! built from shared Kubernetes-resource fragments, a reconcile loop
//! against the simulated control plane, a registered reconcile IR for the
//! whitebox analysis, and a set of individually toggleable injected bugs
//! whose population matches Tables 5–6 exactly ([`bugs`]). The crate also
//! carries the operators' pre-existing manual e2e suites as data
//! ([`existing_tests`]) for the motivating-study tables.

pub mod bugs;
pub mod common;
pub mod compose;
pub mod crd_parts;
pub mod existing_tests;
pub mod framework;
pub mod ops;
pub mod registry;

pub use bugs::{all_bugs, bug, bugs_of, BugCategory, BugSpec, BugToggles, Consequence};
pub use compose::{member_namespace, Composition, CompositionCheckpoint, InterferenceEvent};
pub use framework::{
    BoundaryLog, CrashEvent, Declaration, Instance, InstanceCheckpoint, Operator, OperatorError,
    WriteBoundary, CONVERGE_MAX, CONVERGE_RESET, INSTANCE, NAMESPACE,
};
pub use registry::{operator_by_name, operator_names, try_operator_by_name, OperatorInfo};
