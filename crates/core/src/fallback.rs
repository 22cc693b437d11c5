//! The spill-everything fallback allocation.
//!
//! Functions whose integer program cannot be solved within the budget
//! still need runnable code (in the paper they fall back to the default
//! allocator). This module produces the simplest correct allocation:
//! every symbolic register lives in its spill slot; each instruction
//! loads its operands into scratch registers chosen to satisfy the
//! machine's operand constraints (width classes, pinned registers,
//! two-address form, overlap), and stores its result back.
//!
//! The fallback is also a useful worst-case baseline: its overhead is what
//! a register allocator exists to remove.

use std::collections::HashMap;

use regalloc_ir::{Dst, Function, Inst, Loc, Operand, PhysReg, Profile, SlotId, SymId};
use regalloc_machine::Machine;

use crate::stats::SpillStats;

/// Why the spill-everything fallback could not allocate a function.
///
/// The fallback is the last rung of every degradation ladder, so it must
/// never panic: when an instruction's operand pinnings cannot be
/// satisfied with the machine's scratch registers it reports *which*
/// symbolic register failed and lets the caller surface the error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FallbackError {
    /// No scratch register satisfied a use occurrence's constraints
    /// without overlapping the registers already handed to the other
    /// operands of the same instruction.
    NoScratchRegister { sym: SymId },
    /// No register was admitted by the definition constraints of the
    /// instruction defining `sym`.
    NoDefRegister { sym: SymId },
}

impl std::fmt::Display for FallbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackError::NoScratchRegister { sym } => write!(
                f,
                "spill-everything fallback: ran out of scratch registers for {sym}"
            ),
            FallbackError::NoDefRegister { sym } => write!(
                f,
                "spill-everything fallback: no definition register admitted for {sym}"
            ),
        }
    }
}

impl std::error::Error for FallbackError {}

/// Allocate `f` by spilling every symbolic register.
///
/// # Errors
///
/// Returns a [`FallbackError`] if an instruction's operand pinnings
/// cannot be satisfied with the machine's scratch registers — impossible
/// for the instruction shapes the IR builder produces on the provided
/// machine models, but a machine model with too few registers in a width
/// class can trigger it.
pub fn spill_everything<M: Machine + ?Sized>(
    f: &Function,
    profile: &Profile,
    machine: &M,
) -> Result<(Function, SpillStats), FallbackError> {
    let mut nf = f.clone();
    let mut slots: HashMap<SymId, SlotId> = HashMap::new();
    let mut slot_of = |s: SymId, nf: &mut Function| -> SlotId {
        *slots
            .entry(s)
            .or_insert_with(|| nf.add_slot(f.sym_width(s), None))
    };

    for b in f.block_ids() {
        let mut out: Vec<Inst> = Vec::new();
        for inst in &f.block(b).insts {
            let mut new = inst.clone();
            // Swap a commutative immediate lhs so a register source sits
            // in the combined (two-address) position.
            if let Inst::Bin { op, lhs, rhs, .. } = &mut new {
                if machine.is_two_address(inst)
                    && op.is_commutative()
                    && !matches!(lhs, Operand::Loc(Loc::Sym(_)))
                    && matches!(rhs, Operand::Loc(Loc::Sym(_)))
                {
                    std::mem::swap(lhs, rhs);
                }
            }

            // Choose a register per use occurrence, in visit order,
            // respecting pinnings and avoiding overlap between distinct
            // symbolics. The same symbolic reuses its register when the
            // occurrence's constraint admits it.
            let mut taken: Vec<(SymId, PhysReg)> = Vec::new();
            let mut role_regs: Vec<(SymId, PhysReg)> = Vec::new();
            let mut use_err: Option<FallbackError> = None;
            {
                let probe = new.clone();
                probe.visit_uses(&mut |l, role| {
                    if use_err.is_some() {
                        return;
                    }
                    if let Loc::Sym(s) = l {
                        let w = f.sym_width(s);
                        let c = machine.use_constraints(&probe, role, w);
                        let reuse = taken
                            .iter()
                            .find(|(ts, tr)| *ts == s && c.admits(*tr))
                            .map(|(_, tr)| *tr);
                        let fresh = reuse.or_else(|| {
                            machine.regs_for_width(w).iter().copied().find(|r| {
                                c.admits(*r)
                                    && !taken.iter().any(|(ts, tr)| {
                                        *ts != s && machine.aliases(*tr).contains(r)
                                    })
                            })
                        });
                        let r = match fresh {
                            Some(r) => r,
                            None => {
                                use_err = Some(FallbackError::NoScratchRegister { sym: s });
                                return;
                            }
                        };
                        if reuse.is_none() {
                            taken.push((s, r));
                        }
                        role_regs.push((s, r));
                    }
                });
            }
            if let Some(e) = use_err {
                return Err(e);
            }

            // Definition register: the lhs-position register for
            // two-address instructions, else the first admitted register.
            let def_reg: Option<PhysReg> = match new.sym_def() {
                None => None,
                Some(d) => {
                    let w = f.sym_width(d);
                    // lhs/src is visited first for Bin/Un, so two-address
                    // instructions reuse the lhs-position register.
                    let two_addr = if machine.is_two_address(&new) {
                        role_regs.first().map(|&(_, r)| r)
                    } else {
                        None
                    };
                    let r = match two_addr {
                        Some(r) => r,
                        None => {
                            let c = machine.def_constraints(&new, w);
                            machine
                                .regs_for_width(w)
                                .iter()
                                .copied()
                                .find(|r| c.admits(*r))
                                .ok_or(FallbackError::NoDefRegister { sym: d })?
                        }
                    };
                    Some(r)
                }
            };

            // Emit the loads (one per distinct (symbolic, register) pair).
            let mut emitted: Vec<(SymId, PhysReg)> = Vec::new();
            for &(s, r) in &role_regs {
                if emitted.contains(&(s, r)) {
                    continue;
                }
                emitted.push((s, r));
                let slot = slot_of(s, &mut nf);
                out.push(Inst::SpillLoad {
                    dst: Loc::Real(r),
                    slot,
                    width: f.sym_width(s),
                });
            }

            // Apply: use occurrences in visit order, then the definition.
            let n_uses = role_regs.len();
            let mut k = 0;
            new.visit_locs_mut(&mut |l| {
                if matches!(l, Loc::Sym(_)) {
                    if k < n_uses {
                        *l = Loc::Real(role_regs[k].1);
                        k += 1;
                    } else {
                        *l = Loc::Real(def_reg.expect("definition register"));
                    }
                }
            });
            // Two-address: the dst equals the lhs-position register by
            // construction of `def_reg`.
            if let (true, Some(dr)) = (machine.is_two_address(inst), def_reg) {
                match &mut new {
                    Inst::Bin { dst, .. } | Inst::Un { dst, .. } => *dst = Dst::Loc(Loc::Real(dr)),
                    _ => {}
                }
            }
            out.push(new);

            // Store the result.
            if let Some(d) = inst.sym_def() {
                let slot = slot_of(d, &mut nf);
                out.push(Inst::SpillStore {
                    slot,
                    src: Loc::Real(def_reg.unwrap()),
                    width: f.sym_width(d),
                });
            }
        }
        nf.block_mut(b).insts = out;
    }
    let stats = SpillStats::measure(f, &nf, profile, machine);
    Ok((nf, stats))
}
