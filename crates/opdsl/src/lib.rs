//! A reconcile IR for operators, and the static analyses Acto's whitebox
//! mode runs over it.
//!
//! The paper's Acto-□ analyzes operator Go code with `golang.org/x/tools`
//! SSA and pointer analysis to find control dependencies among CR
//! properties (§5.2.4). Go static analysis is not available here, so this
//! crate provides the substitution: operators describe their property
//! plumbing in a small SSA-style IR ([`IrModule`]), which is
//!
//! 1. **analyzed** by [`analysis`]: CFG construction, iterative dominator
//!    and postdominator trees, and the paper's control-dependency rule —
//!    *(p1, φ, c) ←dep p2 iff a predicate φ comparing p1 with c dominates
//!    every sink of p2 and is not postdominated by it* — feeding Acto's
//!    semantics and dependency inference, and
//! 2. **executable** by the [`interp`] interpreter. Operators do not run
//!    it: their reconcile is hand-written Rust, so the IR describes their
//!    plumbing rather than driving it. The interpreter runs only in this
//!    crate's property tests and the micro bench, and stays for an
//!    IR-driven reconcile.

pub mod analysis;
pub mod builder;
pub mod interp;
pub mod ir;

pub use analysis::{control_dependencies, ControlDependency, DomTree};
pub use builder::IrBuilder;
pub use interp::{run, ExecError, ExecOutput};
pub use ir::{BlockId, Cmp, Inst, IrModule, Operand, Terminator, VarId};
