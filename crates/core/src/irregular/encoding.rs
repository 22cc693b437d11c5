//! §5.4 — instruction-encoding irregularities.
//!
//! The x86's encoding makes some register choices cheaper than others:
//!
//! * §5.4.1 — ALU instructions with an immediate operand are one byte
//!   shorter when the register operand is AL/AX/EAX;
//! * §5.4.2 — ESP as an addressing-mode base costs one extra byte, and a
//!   bare `[EBP]` reference costs one extra byte;
//! * §5.4.3 — ESP cannot appear as a *scaled* index register at all.
//!
//! The machine model exposes all three through
//! [`Machine::use_constraints`]: exclusions arrive as a restricted
//! `allowed` set (the variable for an excluded register is simply never
//! created, dropping it from the must-allocate constraint exactly as in
//! Fig. 5 of the paper), and size differences arrive as non-negative
//! per-register byte penalties (relative to the cheapest register, so the
//! §5.4.1 discount is expressed as a penalty on every *other* register —
//! the same optimum with costs kept non-negative).
//!
//! This module prices those penalties with the §4 cost model.
//!
//! [`Machine::use_constraints`]: regalloc_machine::Machine::use_constraints

use regalloc_ir::PhysReg;
use regalloc_machine::OperandConstraint;

use crate::cost::CostModel;

/// The eq. (1) cost of holding an operand in `r`, given the operand's
/// constraint: `B ×` the per-register byte penalty. (The cycle component
/// of register choice is zero — only encoding size varies.)
pub fn use_cost(cost: &CostModel, c: &OperandConstraint, r: PhysReg) -> i64 {
    cost.action_cost(0, 0, c.penalty(r), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalties_scale_with_b() {
        let c = OperandConstraint {
            allowed: None,
            size_penalty: vec![(PhysReg(3), 1), (PhysReg(4), 2)],
        };
        let m = CostModel::paper();
        assert_eq!(use_cost(&m, &c, PhysReg(3)), 1000);
        assert_eq!(use_cost(&m, &c, PhysReg(4)), 2000);
        assert_eq!(use_cost(&m, &c, PhysReg(0)), 0);
        let s = CostModel::size_only();
        assert_eq!(use_cost(&s, &c, PhysReg(3)), 1);
    }
}
