//! Property-based tests for the CFG analyses on randomly generated IR.

use crdspec::Value;
use opdsl::{analysis, Cmp, IrBuilder, Operand};
use proptest::prelude::*;

/// Builds a random structured module: a chain of `n` guarded passthroughs
/// with random toggles, ending in a return. Structured generation keeps
/// modules valid by construction while still varying CFG shape.
fn arb_module(guards: Vec<(bool, u8)>) -> opdsl::IrModule {
    let mut b = IrBuilder::new("random");
    for (i, (use_eq, depth)) in guards.iter().enumerate() {
        let prop = format!("p{i}");
        let sink = format!("s{i}");
        if *use_eq {
            let v = b.load(&format!("guard{i}"));
            let c = b.compare(
                Cmp::Eq,
                Operand::Var(v),
                Operand::Const(Value::from(i64::from(*depth))),
            );
            let then_b = b.new_block();
            let join = b.new_block();
            b.branch(Operand::Var(c), then_b, join);
            b.switch_to(then_b);
            b.passthrough(&prop, &sink);
            b.jump(join);
            b.switch_to(join);
        } else {
            b.passthrough(&prop, &sink);
        }
    }
    b.ret();
    b.finish()
}

proptest! {
    #[test]
    fn entry_dominates_every_reachable_block(guards in prop::collection::vec((any::<bool>(), any::<u8>()), 0..8)) {
        let m = arb_module(guards);
        m.validate().expect("structured modules are valid");
        let dom = analysis::dominators(&m);
        // Walk reachability from the entry.
        let mut reachable = vec![m.entry];
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(m.entry);
        while let Some(b) = reachable.pop() {
            for s in m.successors(b) {
                if seen.insert(s) {
                    reachable.push(s);
                }
            }
        }
        for b in seen {
            prop_assert!(dom.dominates(m.entry, b), "entry must dominate {b}");
            prop_assert!(dom.dominates(b, b), "dominance is reflexive");
        }
    }

    #[test]
    fn guarded_sinks_yield_exactly_their_dependencies(guards in prop::collection::vec((any::<bool>(), any::<u8>()), 0..8)) {
        let m = arb_module(guards.clone());
        let deps = analysis::control_dependencies(&m);
        let expected: usize = guards.iter().filter(|(eq, _)| *eq).count();
        prop_assert_eq!(deps.len(), expected, "one dependency per guarded sink");
        for d in &deps {
            prop_assert!(!d.negated, "then-arm sinks are positive dependencies");
            prop_assert_eq!(d.predicate, Cmp::Eq);
        }
    }
}
