//! IR data types: variables, instructions, basic blocks, modules.

use std::fmt;

use crdspec::{Path, Value};

/// An SSA variable (assigned exactly once by the builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A basic-block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An instruction operand: a constant or a variable reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal value.
    Const(Value),
    /// A variable.
    Var(VarId),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Var(v) => write!(f, "{v}"),
        }
    }
}

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than (numeric).
    Lt,
    /// Less than or equal (numeric).
    Le,
    /// Greater than (numeric).
    Gt,
    /// Greater than or equal (numeric).
    Ge,
    /// Truthiness of the left operand alone: non-null, non-false, non-zero,
    /// non-empty. The right operand is ignored.
    Truthy,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Truthy => "truthy",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic/string operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// String concatenation.
    Concat,
    /// Boolean and.
    And,
    /// Boolean or.
    Or,
}

/// One (non-terminator) instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Loads a CR property into a variable (`Null` when absent).
    LoadProp {
        /// Destination variable.
        dst: VarId,
        /// Property path within the CR spec.
        path: Path,
    },
    /// Assigns a constant.
    Const {
        /// Destination variable.
        dst: VarId,
        /// The constant.
        value: Value,
    },
    /// Compares two operands into a boolean variable.
    Compare {
        /// Destination variable.
        dst: VarId,
        /// Comparison operator.
        op: Cmp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Applies a binary operation.
    Binary {
        /// Destination variable.
        dst: VarId,
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Consumes a value into a named sink — the point where a property
    /// value leaves the operator and reaches the managed system (e.g. a
    /// stateful-set field, a config entry, an external API call).
    Sink {
        /// Sink name (stable identifier, e.g. `"statefulset.replicas"`).
        sink: String,
        /// The value written.
        value: Operand,
    },
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Conditional branch on a boolean operand.
    Branch {
        /// Condition (interpreted truthily).
        cond: Operand,
        /// Successor when true.
        then_block: BlockId,
        /// Successor when false.
        else_block: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Successor block.
        target: BlockId,
    },
    /// Function return.
    Return,
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// A reconcile IR module: the property-plumbing portion of one operator's
/// reconcile function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrModule {
    /// Module name (usually the operator name).
    pub name: String,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Number of variables (ids are dense).
    pub var_count: u32,
}

impl IrModule {
    /// Returns the block for an id.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id; ids are produced by the builder.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Successor blocks of a block.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        match &self.block(id).term {
            Terminator::Branch {
                then_block,
                else_block,
                ..
            } => {
                if then_block == else_block {
                    vec![*then_block]
                } else {
                    vec![*then_block, *else_block]
                }
            }
            Terminator::Jump { target } => vec![*target],
            Terminator::Return => vec![],
        }
    }

    /// All block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Every sink name in the module, deduplicated and sorted.
    pub fn sink_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                Inst::Sink { sink, .. } => Some(sink.clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Finds the defining instruction of a variable, if any.
    pub fn def_of(&self, var: VarId) -> Option<&Inst> {
        self.blocks.iter().flat_map(|b| &b.insts).find(|i| match i {
            Inst::LoadProp { dst, .. }
            | Inst::Const { dst, .. }
            | Inst::Compare { dst, .. }
            | Inst::Binary { dst, .. } => *dst == var,
            Inst::Sink { .. } => false,
        })
    }

    /// Transitively collects the CR property paths an operand derives from.
    pub fn source_props(&self, operand: &Operand) -> Vec<Path> {
        let mut out = Vec::new();
        let mut stack: Vec<Operand> = vec![operand.clone()];
        let mut seen: Vec<VarId> = Vec::new();
        while let Some(op) = stack.pop() {
            let var = match op {
                Operand::Var(v) => v,
                Operand::Const(_) => continue,
            };
            if seen.contains(&var) {
                continue;
            }
            seen.push(var);
            match self.def_of(var) {
                Some(Inst::LoadProp { path, .. }) => out.push(path.clone()),
                Some(Inst::Compare { lhs, rhs, .. }) | Some(Inst::Binary { lhs, rhs, .. }) => {
                    stack.push(lhs.clone());
                    stack.push(rhs.clone());
                }
                _ => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Basic structural validation: terminator targets in range and single
    /// assignment are checked; definition before use along every path is
    /// not (a path through the CFG may skip a definition).
    pub fn validate(&self) -> Result<(), String> {
        if self.entry.0 as usize >= self.blocks.len() {
            return Err("entry block out of range".to_string());
        }
        let mut defined: Vec<VarId> = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Inst::LoadProp { dst, .. }
                | Inst::Const { dst, .. }
                | Inst::Compare { dst, .. }
                | Inst::Binary { dst, .. } = inst
                {
                    if defined.contains(dst) {
                        return Err(format!("variable {dst} assigned twice"));
                    }
                    defined.push(*dst);
                }
            }
            for succ in self.successors(BlockId(i as u32)) {
                if succ.0 as usize >= self.blocks.len() {
                    return Err(format!("bb{i} jumps to out-of-range {succ}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;

    #[test]
    fn successors_reflect_terminators() {
        let mut b = IrBuilder::new("m");
        let flag = b.load("spec.enabled");
        let then_b = b.new_block();
        let else_b = b.new_block();
        b.branch(Operand::Var(flag), then_b, else_b);
        b.switch_to(then_b);
        b.ret();
        b.switch_to(else_b);
        b.ret();
        let m = b.finish();
        assert_eq!(m.successors(m.entry), vec![then_b, else_b]);
        assert!(m.successors(then_b).is_empty());
        m.validate().unwrap();
    }

    #[test]
    fn source_props_traces_through_compares_and_binops() {
        let mut b = IrBuilder::new("m");
        let a = b.load("spec.a");
        let c = b.load("spec.c");
        let sum = b.binary(BinOp::Add, Operand::Var(a), Operand::Var(c));
        let cmp = b.compare(Cmp::Gt, Operand::Var(sum), Operand::Const(Value::from(3)));
        b.sink("out", Operand::Var(cmp));
        b.ret();
        let m = b.finish();
        let props = m.source_props(&Operand::Var(cmp));
        let names: Vec<String> = props.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["spec.a", "spec.c"]);
    }

    #[test]
    fn sink_names_dedup() {
        let mut b = IrBuilder::new("m");
        let a = b.load("spec.a");
        b.sink("x", Operand::Var(a));
        b.sink("x", Operand::Const(Value::from(1)));
        b.sink("y", Operand::Const(Value::from(2)));
        b.ret();
        let m = b.finish();
        assert_eq!(m.sink_names(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(VarId(3).to_string(), "%3");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(Cmp::Le.to_string(), "<=");
        assert_eq!(Operand::Const(Value::from("x")).to_string(), "\"x\"");
    }
}
