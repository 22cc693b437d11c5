//! Instructions, operands and addressing modes.
//!
//! The IR is three-address over symbolic registers before allocation; the
//! register allocators rewrite it in place into a form where every
//! [`Loc`] is a physical register, spill code ([`Inst::SpillLoad`],
//! [`Inst::SpillStore`]) references spill slots, and — on machines that
//! support it — arithmetic may take a memory operand directly
//! ([`Operand::Slot`], §5.2 of the paper).

use crate::ids::{BlockId, PhysReg, SlotId, SymId, Width};

/// Index of a global memory slot in a [`Function`](crate::Function)'s
/// globals table. Globals model statically-addressed memory: function
/// parameters (which arrive on the stack in the x86 calling convention) and
/// global variables. They are the *predefined memory values* of §5.5.
pub type GlobalId = u32;

/// A register operand: symbolic before allocation, physical after.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Loc {
    /// A symbolic (virtual) register.
    Sym(SymId),
    /// A physical register assigned by an allocator.
    Real(PhysReg),
}

impl Loc {
    /// The symbolic register, if this operand has not been allocated yet.
    pub fn as_sym(self) -> Option<SymId> {
        match self {
            Loc::Sym(s) => Some(s),
            Loc::Real(_) => None,
        }
    }
}

/// A source operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register (symbolic or physical).
    Loc(Loc),
    /// An immediate constant.
    Imm(i64),
    /// A spill-slot memory operand (post-allocation only; §5.2).
    Slot(SlotId),
}

impl Operand {
    /// Shorthand for a symbolic-register operand.
    pub fn sym(s: SymId) -> Operand {
        Operand::Loc(Loc::Sym(s))
    }

    /// Shorthand for a physical-register operand.
    pub fn real(r: PhysReg) -> Operand {
        Operand::Loc(Loc::Real(r))
    }

    /// The register operand, if any.
    pub fn as_loc(self) -> Option<Loc> {
        match self {
            Operand::Loc(l) => Some(l),
            _ => None,
        }
    }
}

/// A destination operand: a register, or (post-allocation, on machines with
/// memory destinations) a spill slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dst {
    /// A register destination.
    Loc(Loc),
    /// A spill-slot memory destination (post-allocation only; §5.2).
    Slot(SlotId),
}

impl Dst {
    /// Shorthand for a symbolic-register destination.
    pub fn sym(s: SymId) -> Dst {
        Dst::Loc(Loc::Sym(s))
    }

    /// The register destination, if any.
    pub fn as_loc(self) -> Option<Loc> {
        match self {
            Dst::Loc(l) => Some(l),
            Dst::Slot(_) => None,
        }
    }
}

/// Index-register scale factor in an x86-style effective address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// ×1
    S1,
    /// ×2
    S2,
    /// ×4
    S4,
    /// ×8
    S8,
}

impl Scale {
    /// The numeric multiplier.
    pub fn factor(self) -> u64 {
        match self {
            Scale::S1 => 1,
            Scale::S2 => 2,
            Scale::S4 => 4,
            Scale::S8 => 8,
        }
    }

    /// True if the scale is greater than one. The x86 forbids ESP as the
    /// index register of a *scaled* index (§5.4.3); the machine model uses
    /// this predicate to decide when the exclusion applies.
    pub fn is_scaled(self) -> bool {
        !matches!(self, Scale::S1)
    }
}

/// A memory reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Address {
    /// A statically-addressed global slot (a *predefined memory value*).
    Global(GlobalId),
    /// A register-relative effective address `disp + base + index×scale`,
    /// into the function's anonymous heap.
    Indirect {
        /// Base register, if any.
        base: Option<Loc>,
        /// Index register and scale, if any.
        index: Option<(Loc, Scale)>,
        /// Constant displacement.
        disp: i32,
    },
}

/// Binary operation codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping multiplication (two-operand `IMUL` form — no implicit EDX).
    Mul,
    /// Left shift (count taken modulo the width; on x86 the register form
    /// implicitly uses CL, §3.2).
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl BinOp {
    /// True if the operands may be exchanged without changing the result —
    /// the case for which the paper's optimal copy-insertion treatment of
    /// combined source/destination specifiers applies (§5.1).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Mul
        )
    }

    /// True for shift/rotate-family operations, whose register-held count
    /// is implicitly pinned to CL on the x86 (§3.2).
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::Shr | BinOp::Sar)
    }

    /// Evaluate the operation on `width`-sized values.
    pub fn eval(self, width: Width, a: u64, b: u64) -> u64 {
        let m = width.mask();
        let (a, b) = (a & m, b & m);
        let bits = width.bits();
        let r = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Shl => a.wrapping_shl(b as u32 % bits),
            BinOp::Shr => a.wrapping_shr(b as u32 % bits),
            BinOp::Sar => {
                let sh = b as u32 % bits;
                let sign = 64 - bits;
                (((a << sign) as i64) >> sign >> sh) as u64
            }
        };
        r & m
    }
}

/// Unary operation codes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
}

impl UnOp {
    /// Evaluate the operation on a `width`-sized value.
    pub fn eval(self, width: Width, a: u64) -> u64 {
        let m = width.mask();
        let r = match self {
            UnOp::Neg => (a & m).wrapping_neg(),
            UnOp::Not => !(a & m),
        };
        r & m
    }
}

/// Branch conditions (signed comparisons).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluate the condition on `width`-sized values (interpreted signed).
    pub fn eval(self, width: Width, a: u64, b: u64) -> bool {
        let sign = 64 - width.bits();
        let a = ((a << sign) as i64) >> sign;
        let b = ((b << sign) as i64) >> sign;
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// The syntactic position in which a register is used. The machine model
/// maps roles to register restrictions and per-register costs: address
/// bases/indices engage the ESP/EBP encoding penalties (§5.4.2) and the
/// scaled-index exclusion (§5.4.3); shift counts are pinned to CL (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UseRole {
    /// First source of a binary operation (the combined source/destination
    /// position on two-address machines, §5.1).
    Src1,
    /// Second source of a binary operation.
    Src2,
    /// Source of a unary operation or copy.
    Src,
    /// Base register of an effective address.
    AddrBase,
    /// Index register of an effective address; the payload records whether
    /// the index is scaled (×2/×4/×8).
    AddrIndex {
        /// True when the scale factor exceeds one.
        scaled: bool,
    },
    /// Value stored by a `Store`.
    StoreVal,
    /// Argument of a `Call`.
    CallArg,
    /// Value returned by `Ret` (pinned to EAX on the x86).
    RetVal,
    /// Left comparison operand of a `Branch`.
    BranchLhs,
    /// Right comparison operand of a `Branch`.
    BranchRhs,
    /// Register spilled by a `SpillStore`.
    SpillVal,
}

/// An IR instruction.
///
/// Every instruction defines at most one register. Terminators
/// ([`Inst::Jump`], [`Inst::Branch`], [`Inst::Ret`]) appear only as the last
/// instruction of a block.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = imm` — a rematerialisable constant definition.
    LoadImm {
        /// Destination register.
        dst: Loc,
        /// Constant value.
        imm: i64,
        /// Operation width.
        width: Width,
    },
    /// `dst = src` — register copy. Existing copies may be *deleted* by the
    /// allocators when source and destination land in the same register;
    /// the IP allocator may also *insert* copies before commutative
    /// two-address instructions (§5.1).
    Copy {
        /// Destination register.
        dst: Loc,
        /// Source register.
        src: Loc,
        /// Operation width.
        width: Width,
    },
    /// `dst = load addr`.
    Load {
        /// Destination register.
        dst: Loc,
        /// Address to read.
        addr: Address,
        /// Access width.
        width: Width,
    },
    /// `store addr, src`.
    Store {
        /// Address to write.
        addr: Address,
        /// Value stored.
        src: Operand,
        /// Access width.
        width: Width,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operation code.
        op: BinOp,
        /// Destination (register; or spill slot post-allocation for the
        /// combined memory use/def form of §5.2).
        dst: Dst,
        /// First source.
        lhs: Operand,
        /// Second source.
        rhs: Operand,
        /// Operation width.
        width: Width,
    },
    /// `dst = op src`.
    Un {
        /// Operation code.
        op: UnOp,
        /// Destination.
        dst: Dst,
        /// Source.
        src: Operand,
        /// Operation width.
        width: Width,
    },
    /// `ret = call callee(args…)`; clobbers the machine's caller-saved
    /// registers.
    Call {
        /// Opaque callee identifier (drives the interpreter's deterministic
        /// pseudo-random callee behaviour).
        callee: u32,
        /// Return-value register, if the callee returns a value.
        ret: Option<Loc>,
        /// Argument operands.
        args: Vec<Operand>,
        /// Width of the return value.
        width: Width,
    },
    /// `dst = slot` — spill reload (post-allocation only).
    SpillLoad {
        /// Destination register.
        dst: Loc,
        /// Slot read.
        slot: SlotId,
        /// Access width.
        width: Width,
    },
    /// `slot = src` — spill store (post-allocation only).
    SpillStore {
        /// Slot written.
        slot: SlotId,
        /// Register stored.
        src: Loc,
        /// Access width.
        width: Width,
    },
    /// Unconditional jump. Terminator.
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Conditional branch `if lhs cond rhs then then_blk else else_blk`.
    /// Terminator.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left comparison operand.
        lhs: Operand,
        /// Right comparison operand.
        rhs: Operand,
        /// Comparison width.
        width: Width,
        /// Target when the condition holds.
        then_blk: BlockId,
        /// Target when the condition does not hold.
        else_blk: BlockId,
    },
    /// Function return. Terminator.
    Ret {
        /// Returned value, if any (pinned to EAX on the x86).
        val: Option<Operand>,
    },
}

impl Inst {
    /// True if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. }
        )
    }

    /// Successor blocks of a terminator (empty for non-terminators and
    /// `Ret`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Jump { target } => vec![*target],
            Inst::Branch {
                then_blk, else_blk, ..
            } => {
                if then_blk == else_blk {
                    vec![*then_blk]
                } else {
                    vec![*then_blk, *else_blk]
                }
            }
            _ => Vec::new(),
        }
    }

    /// The register this instruction defines, with its width, if any.
    pub fn def(&self) -> Option<(Loc, Width)> {
        match self {
            Inst::LoadImm { dst, width, .. }
            | Inst::Copy { dst, width, .. }
            | Inst::Load { dst, width, .. }
            | Inst::SpillLoad { dst, width, .. } => Some((*dst, *width)),
            Inst::Bin { dst, width, .. } | Inst::Un { dst, width, .. } => {
                dst.as_loc().map(|l| (l, *width))
            }
            Inst::Call { ret, width, .. } => ret.map(|l| (l, *width)),
            _ => None,
        }
    }

    /// Visit every register use together with its syntactic role.
    pub fn visit_uses(&self, f: &mut dyn FnMut(Loc, UseRole)) {
        fn op(o: &Operand, role: UseRole, f: &mut dyn FnMut(Loc, UseRole)) {
            if let Operand::Loc(l) = o {
                f(*l, role);
            }
        }
        fn addr(a: &Address, f: &mut dyn FnMut(Loc, UseRole)) {
            if let Address::Indirect { base, index, .. } = a {
                if let Some(b) = base {
                    f(*b, UseRole::AddrBase);
                }
                if let Some((i, s)) = index {
                    f(
                        *i,
                        UseRole::AddrIndex {
                            scaled: s.is_scaled(),
                        },
                    );
                }
            }
        }
        match self {
            Inst::LoadImm { .. } | Inst::Jump { .. } | Inst::SpillLoad { .. } => {}
            Inst::Copy { src, .. } => f(*src, UseRole::Src),
            Inst::Load { addr: a, .. } => addr(a, f),
            Inst::Store { addr: a, src, .. } => {
                addr(a, f);
                op(src, UseRole::StoreVal, f);
            }
            Inst::Bin { lhs, rhs, .. } => {
                op(lhs, UseRole::Src1, f);
                op(rhs, UseRole::Src2, f);
            }
            Inst::Un { src, .. } => op(src, UseRole::Src, f),
            Inst::Call { args, .. } => {
                for a in args {
                    op(a, UseRole::CallArg, f);
                }
            }
            Inst::SpillStore { src, .. } => f(*src, UseRole::SpillVal),
            Inst::Branch { lhs, rhs, .. } => {
                op(lhs, UseRole::BranchLhs, f);
                op(rhs, UseRole::BranchRhs, f);
            }
            Inst::Ret { val } => {
                if let Some(v) = val {
                    op(v, UseRole::RetVal, f);
                }
            }
        }
    }

    /// Collect the symbolic registers this instruction uses (helper over
    /// [`Inst::visit_uses`] for pre-allocation code).
    pub fn sym_uses(&self) -> Vec<(SymId, UseRole)> {
        let mut out = Vec::new();
        self.visit_uses(&mut |l, role| {
            if let Loc::Sym(s) = l {
                out.push((s, role));
            }
        });
        out
    }

    /// The symbolic register this instruction defines, if any.
    pub fn sym_def(&self) -> Option<SymId> {
        self.def().and_then(|(l, _)| l.as_sym())
    }

    /// Visit every register slot (uses and defs) mutably; used by the
    /// rewrite modules to substitute physical registers for symbolics.
    pub fn visit_locs_mut(&mut self, f: &mut dyn FnMut(&mut Loc)) {
        fn op(o: &mut Operand, f: &mut dyn FnMut(&mut Loc)) {
            if let Operand::Loc(l) = o {
                f(l);
            }
        }
        fn dst(d: &mut Dst, f: &mut dyn FnMut(&mut Loc)) {
            if let Dst::Loc(l) = d {
                f(l);
            }
        }
        fn addr(a: &mut Address, f: &mut dyn FnMut(&mut Loc)) {
            if let Address::Indirect { base, index, .. } = a {
                if let Some(b) = base {
                    f(b);
                }
                if let Some((i, _)) = index {
                    f(i);
                }
            }
        }
        match self {
            Inst::LoadImm { dst: d, .. } => f(d),
            Inst::Copy { dst: d, src, .. } => {
                f(src);
                f(d);
            }
            Inst::Load {
                dst: d, addr: a, ..
            } => {
                addr(a, f);
                f(d);
            }
            Inst::Store { addr: a, src, .. } => {
                addr(a, f);
                op(src, f);
            }
            Inst::Bin {
                dst: d, lhs, rhs, ..
            } => {
                op(lhs, f);
                op(rhs, f);
                dst(d, f);
            }
            Inst::Un { dst: d, src, .. } => {
                op(src, f);
                dst(d, f);
            }
            Inst::Call { ret, args, .. } => {
                for a in args {
                    op(a, f);
                }
                if let Some(r) = ret {
                    f(r);
                }
            }
            Inst::SpillLoad { dst: d, .. } => f(d),
            Inst::SpillStore { src, .. } => f(src),
            Inst::Jump { .. } => {}
            Inst::Branch { lhs, rhs, .. } => {
                op(lhs, f);
                op(rhs, f);
            }
            Inst::Ret { val } => {
                if let Some(v) = val {
                    op(v, f);
                }
            }
        }
    }

    /// True if this instruction is spill code inserted by an allocator.
    pub fn is_spill(&self) -> bool {
        matches!(self, Inst::SpillLoad { .. } | Inst::SpillStore { .. })
    }

    /// The operation width, if the instruction has one.
    pub fn width(&self) -> Option<Width> {
        match self {
            Inst::LoadImm { width, .. }
            | Inst::Copy { width, .. }
            | Inst::Load { width, .. }
            | Inst::Store { width, .. }
            | Inst::Bin { width, .. }
            | Inst::Un { width, .. }
            | Inst::Call { width, .. }
            | Inst::SpillLoad { width, .. }
            | Inst::SpillStore { width, .. }
            | Inst::Branch { width, .. } => Some(*width),
            Inst::Jump { .. } | Inst::Ret { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_masks_to_width() {
        assert_eq!(BinOp::Add.eval(Width::B8, 0xff, 1), 0);
        assert_eq!(BinOp::Add.eval(Width::B16, 0xffff, 2), 1);
        assert_eq!(BinOp::Sub.eval(Width::B32, 0, 1), 0xffff_ffff);
        assert_eq!(BinOp::Mul.eval(Width::B8, 16, 16), 0);
    }

    #[test]
    fn binop_shifts_mod_width() {
        assert_eq!(BinOp::Shl.eval(Width::B8, 1, 8), 1); // 8 % 8 == 0
        assert_eq!(BinOp::Shl.eval(Width::B8, 1, 3), 8);
        assert_eq!(BinOp::Shr.eval(Width::B16, 0x8000, 15), 1);
        assert_eq!(BinOp::Sar.eval(Width::B8, 0x80, 7), 0xff);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(Width::B8, 1), 0xff);
        assert_eq!(UnOp::Not.eval(Width::B16, 0), 0xffff);
    }

    #[test]
    fn cond_eval_is_signed() {
        assert!(Cond::Lt.eval(Width::B8, 0xff, 0)); // -1 < 0
        assert!(!Cond::Lt.eval(Width::B32, 1, 0));
        assert!(Cond::Ge.eval(Width::B16, 5, 5));
        assert!(Cond::Ne.eval(Width::B8, 1, 2));
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Xor.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::Shr.is_shift());
    }

    #[test]
    fn uses_and_defs_of_bin() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Dst::sym(SymId(0)),
            lhs: Operand::sym(SymId(1)),
            rhs: Operand::Imm(3),
            width: Width::B32,
        };
        assert_eq!(i.sym_def(), Some(SymId(0)));
        let uses = i.sym_uses();
        assert_eq!(uses, vec![(SymId(1), UseRole::Src1)]);
    }

    #[test]
    fn uses_of_indirect_address() {
        let i = Inst::Load {
            dst: Loc::Sym(SymId(9)),
            addr: Address::Indirect {
                base: Some(Loc::Sym(SymId(1))),
                index: Some((Loc::Sym(SymId(2)), Scale::S4)),
                disp: 8,
            },
            width: Width::B32,
        };
        let uses = i.sym_uses();
        assert_eq!(uses.len(), 2);
        assert_eq!(uses[0], (SymId(1), UseRole::AddrBase));
        assert_eq!(uses[1], (SymId(2), UseRole::AddrIndex { scaled: true }));
    }

    #[test]
    fn successors_dedup_same_target() {
        let b = Inst::Branch {
            cond: Cond::Eq,
            lhs: Operand::Imm(0),
            rhs: Operand::Imm(0),
            width: Width::B32,
            then_blk: BlockId(1),
            else_blk: BlockId(1),
        };
        assert_eq!(b.successors(), vec![BlockId(1)]);
    }

    #[test]
    fn visit_locs_mut_rewrites_everything() {
        let mut i = Inst::Bin {
            op: BinOp::Sub,
            dst: Dst::sym(SymId(0)),
            lhs: Operand::sym(SymId(1)),
            rhs: Operand::sym(SymId(2)),
            width: Width::B32,
        };
        i.visit_locs_mut(&mut |l| *l = Loc::Real(PhysReg(7)));
        let mut n = 0;
        i.visit_uses(&mut |l, _| {
            assert_eq!(l, Loc::Real(PhysReg(7)));
            n += 1;
        });
        assert_eq!(n, 2);
        assert_eq!(i.def().unwrap().0, Loc::Real(PhysReg(7)));
    }

    #[test]
    fn terminators() {
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(Inst::Jump { target: BlockId(0) }.is_terminator());
        assert!(!Inst::LoadImm {
            dst: Loc::Sym(SymId(0)),
            imm: 0,
            width: Width::B32
        }
        .is_terminator());
    }
}
