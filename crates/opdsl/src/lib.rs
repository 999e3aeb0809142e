//! A reconcile IR for operators, and the static analyses Acto's whitebox
//! mode runs over it.
//!
//! The paper's Acto-□ analyzes operator Go code with `golang.org/x/tools`
//! SSA and pointer analysis to find control dependencies among CR
//! properties (§5.2.4). Go static analysis is not available here, so this
//! crate provides the substitution: operators describe their property
//! plumbing in a small SSA-style IR ([`IrModule`]), which [`analysis`]
//! analyzes: CFG construction, iterative dominator and postdominator
//! trees, and the paper's control-dependency rule — *(p1, φ, c) ←dep p2
//! iff a predicate φ comparing p1 with c dominates every sink of p2 and is
//! not postdominated by it* — feeding Acto's semantics and dependency
//! inference.
//!
//! Nothing executes the IR. Operators' reconcile is hand-written Rust, so
//! a module describes its operator's plumbing rather than driving it, and
//! Acto-□'s inference is faithful only as far as each module matches its
//! operator's code.

pub mod analysis;
pub mod builder;
pub mod ir;

pub use analysis::{control_dependencies, ControlDependency, DomTree};
pub use builder::IrBuilder;
pub use ir::{BlockId, Cmp, Inst, IrModule, Operand, Terminator, VarId};
