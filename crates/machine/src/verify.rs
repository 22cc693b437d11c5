//! Machine-aware static verification of allocated functions.
//!
//! The IR crate's [`verify_allocated`](regalloc_ir::verify_allocated)
//! checks machine-independent structure; this module checks the *machine*
//! invariants an allocator must establish:
//!
//! * every physical register holding a value of width *w* belongs to the
//!   machine's width-*w* class;
//! * two-address instructions have their destination equal to their first
//!   source register (§5.1);
//! * pinned operands sit in an admitted register (shift counts in the CL
//!   family, return values in the accumulator — §3.2);
//! * memory operands appear only in positions the machine supports, at
//!   most one per instruction (§5.2) — definitions into memory count
//!   toward that limit just like uses.
//!
//! Together with interpreter equivalence this gives belt-and-braces
//! coverage: the interpreter proves behaviour on sampled inputs, the
//! static check proves encodability on every path.
//!
//! The checks are written against the [`Machine`] trait only, so they
//! apply unchanged to every registered target; the tests live with the
//! concrete machines (`crates/x86/tests/verify_machine.rs`).

use std::fmt;

use regalloc_ir::{Dst, Function, Inst, Loc, Operand, PhysReg, UseRole, Width};

use crate::machine::Machine;

/// Which machine invariant a [`MachineError`] violates. Each kind maps
/// to one stable diagnostic code in the lint engine (M001–M005).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MachineErrorKind {
    /// A register holds a value outside its width class.
    WidthClass,
    /// A pinned operand position holds a register it does not admit.
    Pinning,
    /// A memory operand in a position the machine cannot encode.
    MemoryForm,
    /// A two-address destination differs from its combined source.
    TwoAddress,
    /// More than one memory operand in a single instruction.
    MemOperandCount,
}

/// A machine-invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineError {
    /// Block index.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: usize,
    /// Which invariant was violated.
    pub kind: MachineErrorKind,
    /// Description.
    pub message: String,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}:{}: {}", self.block, self.inst, self.message)
    }
}

impl std::error::Error for MachineError {}

fn width_ok<M: Machine + ?Sized>(m: &M, r: PhysReg, w: Width) -> bool {
    m.regs_for_width(w).contains(&r)
}

/// Check every machine invariant of an allocated function.
///
/// # Errors
///
/// Returns all violations found.
pub fn verify_machine<M: Machine + ?Sized>(m: &M, f: &Function) -> Result<(), Vec<MachineError>> {
    use MachineErrorKind::*;
    let mut errs = Vec::new();
    for b in f.block_ids() {
        for (ii, inst) in f.block(b).insts.iter().enumerate() {
            let mut err = |kind: MachineErrorKind, msg: String| {
                errs.push(MachineError {
                    block: b.0,
                    inst: ii,
                    kind,
                    message: msg,
                })
            };

            // Width classes, pinning and per-position memory rules for
            // every use.
            let mut mem_operands = 0usize;
            inst.visit_uses(&mut |l, role| {
                if let Loc::Real(r) = l {
                    let w = match role {
                        // Addresses live in the machine's pointer-width
                        // class (32-bit on x86/risc24, 16-bit on the MCU).
                        UseRole::AddrBase | UseRole::AddrIndex { .. } => m.addr_width(),
                        // A return's width is the returned register's own
                        // class (8-bit values come back in AL). So is a
                        // call argument's: `Call`'s width is its return
                        // value's, and the IR records no argument width.
                        UseRole::RetVal | UseRole::CallArg => m.reg_width(r),
                        _ => inst.width().unwrap_or(Width::B32),
                    };
                    if !width_ok(m, r, w) {
                        err(
                            WidthClass,
                            format!(
                                "{} is not a width-{} register in `{inst}`",
                                m.reg_name(r),
                                w.bits()
                            ),
                        );
                    }
                    let c = m.use_constraints(inst, role, w);
                    if !c.admits(r) {
                        err(
                            Pinning,
                            format!("{} not admitted for {role:?} in `{inst}`", m.reg_name(r)),
                        );
                    }
                }
            });
            match inst {
                Inst::Bin { dst, lhs, rhs, .. } => {
                    for (o, role) in [(lhs, UseRole::Src1), (rhs, UseRole::Src2)] {
                        if matches!(o, Operand::Slot(_)) {
                            mem_operands += 1;
                            let combined = matches!(dst, Dst::Slot(_)) && role == UseRole::Src1;
                            if combined {
                                if !m.mem_combined_ok(inst) {
                                    err(
                                        MemoryForm,
                                        format!("no combined memory form for `{inst}`"),
                                    );
                                }
                            } else if !m.mem_use_ok(inst, role) {
                                err(
                                    MemoryForm,
                                    format!("no memory operand allowed at {role:?} in `{inst}`"),
                                );
                            }
                        }
                    }
                    if let Dst::Slot(s) = dst {
                        match lhs {
                            // Combined use/def: one memory operand, already
                            // counted at the Src1 position above.
                            Operand::Slot(s2) if s2 == s => {}
                            _ => {
                                mem_operands += 1;
                                err(
                                    MemoryForm,
                                    format!(
                                        "memory destination without combined source in `{inst}`"
                                    ),
                                );
                            }
                        }
                    }
                }
                Inst::Un { dst, src, .. } => {
                    if matches!(src, Operand::Slot(_)) {
                        mem_operands += 1;
                        if !(matches!(dst, Dst::Slot(_)) && m.mem_combined_ok(inst)) {
                            err(MemoryForm, format!("bad memory operand in `{inst}`"));
                        }
                    }
                    if let Dst::Slot(s) = dst {
                        match src {
                            // Combined use/def, counted once above.
                            Operand::Slot(s2) if s2 == s => {}
                            _ => {
                                mem_operands += 1;
                                err(
                                    MemoryForm,
                                    format!(
                                        "memory destination without combined source in `{inst}`"
                                    ),
                                );
                            }
                        }
                    }
                }
                Inst::Branch { lhs, rhs, .. } => {
                    for (o, role) in [(lhs, UseRole::BranchLhs), (rhs, UseRole::BranchRhs)] {
                        if matches!(o, Operand::Slot(_)) {
                            mem_operands += 1;
                            if !m.mem_use_ok(inst, role) {
                                err(
                                    MemoryForm,
                                    format!("no memory operand at {role:?} in `{inst}`"),
                                );
                            }
                        }
                    }
                }
                Inst::Call { args, .. } => {
                    for a in args {
                        if matches!(a, Operand::Slot(_)) {
                            mem_operands += 1;
                            if !m.mem_use_ok(inst, UseRole::CallArg) {
                                err(
                                    MemoryForm,
                                    format!("no memory argument allowed in `{inst}`"),
                                );
                            }
                        }
                    }
                }
                Inst::Store { src, .. } => {
                    if matches!(src, Operand::Slot(_)) {
                        err(MemoryForm, format!("memory-to-memory store `{inst}`"));
                    }
                }
                _ => {}
            }
            if mem_operands > 1 {
                err(
                    MemOperandCount,
                    format!("{mem_operands} memory operands in one instruction `{inst}`"),
                );
            }

            // Definition width class + pinning.
            if let Some((Loc::Real(r), w)) = inst.def() {
                if !width_ok(m, r, w) {
                    err(
                        WidthClass,
                        format!(
                            "definition register {} outside width-{} class",
                            m.reg_name(r),
                            w.bits()
                        ),
                    );
                }
                let dc = m.def_constraints(inst, w);
                if !dc.admits(r) {
                    err(
                        Pinning,
                        format!(
                            "definition register {} not admitted in `{inst}`",
                            m.reg_name(r)
                        ),
                    );
                }
            }

            // Two-address form (§5.1): dst register equals the combined
            // source register.
            if m.is_two_address(inst) {
                let pair = match inst {
                    Inst::Bin { dst, lhs, .. } => Some((dst, lhs)),
                    Inst::Un { dst, src, .. } => Some((dst, src)),
                    _ => None,
                };
                if let Some((dst, lhs)) = pair {
                    match (dst, lhs) {
                        (Dst::Loc(Loc::Real(d)), Operand::Loc(Loc::Real(l))) if d != l => {
                            err(TwoAddress, format!("two-address violation in `{inst}`"));
                        }
                        (Dst::Slot(s), Operand::Slot(s2)) if s != s2 => {
                            err(
                                TwoAddress,
                                format!("combined memory specifier mismatch in `{inst}`"),
                            );
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}
