//! §5.2 — memory operands.
//!
//! Non-load/store architectures let instructions read operands directly
//! from memory, and sometimes read-modify-write one memory location
//! through a *combined* source/destination memory specifier. Under the
//! classical unique-spill-location assumption, the combined form applies
//! exactly when the same symbolic register is both a source and the
//! destination (`S = S op X`).
//!
//! The builder creates:
//!
//! * a `memuse[ρ]` variable per memory-capable use position
//!   ([`Machine::mem_use_ok`]), with `memuse[ρ] ≤ xm[pre]` (the value must
//!   be in its slot just prior) — entering the position's must-allocate
//!   constraint alongside the register-use variables;
//! * a `combined` variable per eligible read-modify-write definition
//!   ([`Machine::mem_combined_ok`] and the `S = S op X` shape), with
//!   `combined ≤ xm[pre]`, entering both the lhs-use must-allocate
//!   constraint and the must-define constraint — so definition and use are
//!   "optimally allocated both to registers, to a register and to memory
//!   using a separate memory specifier, or both to memory using a combined
//!   specifier" (§5.2);
//! * one *exclusivity* row per instruction, `Σ memuse + combined ≤ 1`,
//!   since the x86 encodes at most one memory operand per instruction.
//!
//! [`Machine::mem_use_ok`]: regalloc_machine::Machine::mem_use_ok
//! [`Machine::mem_combined_ok`]: regalloc_machine::Machine::mem_combined_ok

use regalloc_ir::{Dst, Inst, Loc, Operand, SymId};

/// True if `inst` has the `S = S op X` / `S = op S` shape (the same
/// symbolic as destination and combined source) that a combined memory
/// specifier can implement.
pub fn combined_mem_shape(inst: &Inst) -> Option<SymId> {
    match inst {
        Inst::Bin {
            dst: Dst::Loc(Loc::Sym(d)),
            lhs: Operand::Loc(Loc::Sym(l)),
            ..
        } if d == l => Some(*d),
        Inst::Un {
            dst: Dst::Loc(Loc::Sym(d)),
            src: Operand::Loc(Loc::Sym(s)),
            ..
        } if d == s => Some(*d),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::{BinOp, UnOp, Width};

    #[test]
    fn detects_read_modify_write_shape() {
        let s = SymId(4);
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Dst::sym(s),
            lhs: Operand::sym(s),
            rhs: Operand::Imm(1),
            width: Width::B32,
        };
        assert_eq!(combined_mem_shape(&i), Some(s));
        let j = Inst::Bin {
            op: BinOp::Add,
            dst: Dst::sym(SymId(5)),
            lhs: Operand::sym(s),
            rhs: Operand::Imm(1),
            width: Width::B32,
        };
        assert_eq!(combined_mem_shape(&j), None, "distinct dst and lhs");
    }

    #[test]
    fn unary_shape() {
        let s = SymId(2);
        let i = Inst::Un {
            op: UnOp::Not,
            dst: Dst::sym(s),
            src: Operand::sym(s),
            width: Width::B8,
        };
        assert_eq!(combined_mem_shape(&i), Some(s));
    }

    #[test]
    fn rhs_position_does_not_qualify() {
        let s = SymId(1);
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Dst::sym(s),
            lhs: Operand::Imm(1),
            rhs: Operand::sym(s),
            width: Width::B32,
        };
        assert_eq!(combined_mem_shape(&i), None);
    }
}
