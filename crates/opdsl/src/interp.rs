//! The IR interpreter.
//!
//! Executes a module against a CR spec and returns its sink writes. The
//! operators do not call it: their reconcile is hand-written Rust, and
//! their IR modules feed only semantics and dependency inference, so
//! Acto-□'s inference is faithful only as far as each module matches its
//! operator's code. The interpreter runs in this crate's property tests
//! and the micro bench, and is kept for an IR-driven reconcile, which
//! would make the analyzed IR the code that runs.

use std::collections::BTreeMap;
use std::fmt;

use crdspec::Value;

use crate::ir::{BinOp, Cmp, Inst, IrModule, Operand, Terminator, VarId};

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// The result of executing a module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecOutput {
    /// Sink writes, in execution order: `(sink name, value)`. The same sink
    /// may be written several times; the last write wins for consumers that
    /// want a map.
    pub writes: Vec<(String, Value)>,
}

impl ExecOutput {
    /// Returns the final value written to `sink`, if any.
    pub fn last(&self, sink: &str) -> Option<&Value> {
        self.writes
            .iter()
            .rev()
            .find(|(s, _)| s == sink)
            .map(|(_, v)| v)
    }

    /// Collapses writes into a last-write-wins map.
    pub fn as_map(&self) -> BTreeMap<String, Value> {
        let mut map = BTreeMap::new();
        for (s, v) in &self.writes {
            map.insert(s.clone(), v.clone());
        }
        map
    }
}

/// Budget of executed blocks before the interpreter aborts (guards against
/// accidental loops in hand-written IR).
const BLOCK_BUDGET: usize = 10_000;

/// Truthiness used by branches and [`Cmp::Truthy`].
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Null => false,
        Value::Bool(b) => *b,
        Value::Integer(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::String(s) => !s.is_empty(),
        Value::Array(a) => !a.is_empty(),
        Value::Object(o) => !o.is_empty(),
    }
}

/// Executes `module` against the CR `spec`, producing sink writes.
///
/// Missing properties load as `Null`; undefined variables read as `Null`
/// (paths through the CFG may skip a definition).
pub fn run(module: &IrModule, spec: &Value) -> Result<ExecOutput, ExecError> {
    let mut vars: BTreeMap<VarId, Value> = BTreeMap::new();
    let mut out = ExecOutput::default();
    let mut block = module.entry;
    let mut budget = BLOCK_BUDGET;
    let read = |vars: &BTreeMap<VarId, Value>, op: &Operand| -> Value {
        match op {
            Operand::Const(v) => v.clone(),
            Operand::Var(v) => vars.get(v).cloned().unwrap_or(Value::Null),
        }
    };
    loop {
        if budget == 0 {
            return Err(ExecError {
                message: format!("block budget exhausted in {}", module.name),
            });
        }
        budget -= 1;
        let b = module.block(block);
        for inst in &b.insts {
            match inst {
                Inst::LoadProp { dst, path } => {
                    let v = spec.get_path(path).cloned().unwrap_or(Value::Null);
                    vars.insert(*dst, v);
                }
                Inst::Const { dst, value } => {
                    vars.insert(*dst, value.clone());
                }
                Inst::Compare { dst, op, lhs, rhs } => {
                    let l = read(&vars, lhs);
                    let r = read(&vars, rhs);
                    let res = eval_cmp(*op, &l, &r);
                    vars.insert(*dst, Value::Bool(res));
                }
                Inst::Binary { dst, op, lhs, rhs } => {
                    let l = read(&vars, lhs);
                    let r = read(&vars, rhs);
                    vars.insert(*dst, eval_bin(*op, &l, &r)?);
                }
                Inst::Sink { sink, value } => {
                    out.writes.push((sink.clone(), read(&vars, value)));
                }
            }
        }
        match &b.term {
            Terminator::Branch {
                cond,
                then_block,
                else_block,
            } => {
                block = if truthy(&read(&vars, cond)) {
                    *then_block
                } else {
                    *else_block
                };
            }
            Terminator::Jump { target } => block = *target,
            Terminator::Return => return Ok(out),
        }
    }
}

fn eval_cmp(op: Cmp, l: &Value, r: &Value) -> bool {
    match op {
        Cmp::Truthy => truthy(l),
        Cmp::Eq => values_eq(l, r),
        Cmp::Ne => !values_eq(l, r),
        Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return false;
            };
            match op {
                Cmp::Lt => a < b,
                Cmp::Le => a <= b,
                Cmp::Gt => a > b,
                Cmp::Ge => a >= b,
                _ => unreachable!(),
            }
        }
    }
}

fn values_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Integer(_) | Value::Float(_), Value::Integer(_) | Value::Float(_)) => {
            l.as_f64() == r.as_f64()
        }
        _ => l == r,
    }
}

fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value, ExecError> {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            let (Some(a), Some(b)) = (l.as_i64().or(num_as_i64(l)), r.as_i64().or(num_as_i64(r)))
            else {
                return Err(ExecError {
                    message: format!("arithmetic on non-integers: {l} {op:?} {r}"),
                });
            };
            let v = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                _ => unreachable!(),
            };
            Ok(Value::Integer(v))
        }
        BinOp::Concat => {
            let mut s = l.as_str().unwrap_or_default().to_string();
            s.push_str(r.as_str().unwrap_or_default());
            Ok(Value::String(s))
        }
        BinOp::And => Ok(Value::Bool(truthy(l) && truthy(r))),
        BinOp::Or => Ok(Value::Bool(truthy(l) || truthy(r))),
    }
}

fn num_as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::ir::BinOp;

    #[test]
    fn passthrough_executes() {
        let mut b = IrBuilder::new("t");
        b.passthrough("replicas", "sts.replicas");
        b.ret();
        let m = b.finish();
        let spec = Value::object([("replicas", Value::from(3))]);
        let out = run(&m, &spec).unwrap();
        assert_eq!(out.last("sts.replicas"), Some(&Value::Integer(3)));
    }

    #[test]
    fn missing_property_loads_null() {
        let mut b = IrBuilder::new("t");
        b.passthrough("missing", "out");
        b.ret();
        let m = b.finish();
        let out = run(&m, &Value::empty_object()).unwrap();
        assert_eq!(out.last("out"), Some(&Value::Null));
    }

    #[test]
    fn guarded_passthrough_respects_toggle() {
        let mut b = IrBuilder::new("t");
        b.guarded_passthrough("backup.enabled", &[("backup.schedule", "backup.schedule")]);
        b.ret();
        let m = b.finish();
        let on = Value::object([(
            "backup",
            Value::object([
                ("enabled", Value::from(true)),
                ("schedule", Value::from("@daily")),
            ]),
        )]);
        let out = run(&m, &on).unwrap();
        assert_eq!(out.last("backup.schedule"), Some(&Value::from("@daily")));
        let off = Value::object([(
            "backup",
            Value::object([
                ("enabled", Value::from(false)),
                ("schedule", Value::from("@daily")),
            ]),
        )]);
        let out = run(&m, &off).unwrap();
        assert_eq!(out.last("backup.schedule"), None);
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let mut b = IrBuilder::new("t");
        let r = b.load("replicas");
        let doubled = b.binary(BinOp::Mul, Operand::Var(r), Operand::Const(Value::from(2)));
        let big = b.compare(
            Cmp::Ge,
            Operand::Var(doubled),
            Operand::Const(Value::from(6)),
        );
        b.sink("doubled", Operand::Var(doubled));
        b.sink("big", Operand::Var(big));
        b.ret();
        let m = b.finish();
        let out = run(&m, &Value::object([("replicas", Value::from(3))])).unwrap();
        assert_eq!(out.last("doubled"), Some(&Value::Integer(6)));
        assert_eq!(out.last("big"), Some(&Value::Bool(true)));
    }

    #[test]
    fn numeric_eq_across_kinds() {
        assert!(eval_cmp(Cmp::Eq, &Value::Integer(1), &Value::Float(1.0)));
        assert!(!eval_cmp(Cmp::Eq, &Value::from("1"), &Value::Integer(1)));
        assert!(eval_cmp(Cmp::Ne, &Value::from("a"), &Value::from("b")));
    }

    #[test]
    fn arithmetic_type_error_reported() {
        let mut b = IrBuilder::new("t");
        let x = b.load("name");
        let bad = b.binary(BinOp::Add, Operand::Var(x), Operand::Const(Value::from(1)));
        b.sink("out", Operand::Var(bad));
        b.ret();
        let m = b.finish();
        let err = run(&m, &Value::object([("name", Value::from("zk"))])).unwrap_err();
        assert!(err.message.contains("arithmetic"));
    }

    #[test]
    fn loop_in_ir_hits_budget() {
        use crate::ir::{Block, BlockId, IrModule, Terminator};
        let m = IrModule {
            name: "loop".to_string(),
            blocks: vec![Block {
                insts: vec![],
                term: Terminator::Jump { target: BlockId(0) },
            }],
            entry: BlockId(0),
            var_count: 0,
        };
        assert!(run(&m, &Value::empty_object()).is_err());
    }

    #[test]
    fn last_write_wins_in_map() {
        let mut b = IrBuilder::new("t");
        b.sink("x", Operand::Const(Value::from(1)));
        b.sink("x", Operand::Const(Value::from(2)));
        b.ret();
        let m = b.finish();
        let out = run(&m, &Value::empty_object()).unwrap();
        assert_eq!(out.writes.len(), 2);
        assert_eq!(out.as_map()["x"], Value::Integer(2));
    }
}
