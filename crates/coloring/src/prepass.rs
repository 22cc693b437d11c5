//! The traditional pre-allocation lowering pass.
//!
//! Two jobs, both done *before* and therefore outside the context of
//! register allocation — which is precisely the imprecision the paper's
//! IP formulation removes:
//!
//! 1. **Combined source/destination specifiers (§5.1, traditional).**
//!    `S1 = S2 op S3` on a two-address machine becomes
//!    `Copy S1 ← chosen; S1 = S1 op other`. The heuristic prefers a
//!    source that dies at the instruction (its register can then be
//!    reused and the copy coalesced away); otherwise it takes the left
//!    operand. The decision is made per-instruction with no knowledge of
//!    the eventual assignment.
//!
//! 2. **Pinned operands.** Uses restricted to specific registers (shift
//!    counts in CL, return values in EAX) and pinned definitions (call
//!    results in EAX) are isolated behind single-register temporaries via
//!    pin-copies, the classical way to feed precolored constraints into a
//!    graph coloring allocator.

use std::collections::HashMap;

use regalloc_ir::{Function, Inst, Liveness, Loc, Operand, PhysReg, SymId, UseRole};
use regalloc_machine::Machine;

/// Run the pre-pass over `work` in place, recording register pins for new
/// temporaries.
pub fn run<M: Machine + ?Sized>(
    work: &mut Function,
    machine: &M,
    pins: &mut HashMap<SymId, Vec<PhysReg>>,
) {
    let cfg = regalloc_ir::Cfg::new(work);
    let live = Liveness::new(work, &cfg);
    // Symbols created below (pin-copy and shelter temporaries) postdate
    // the liveness solve; they are single-use by construction and die at
    // the instruction that consumes them.
    let n_live = work.num_syms();

    for b in work.block_ids() {
        let live_before = live.live_before_insts(work, b);
        let live_out = live.live_out(b).clone();
        let insts = std::mem::take(&mut work.block_mut(b).insts);
        let mut out: Vec<Inst> = Vec::with_capacity(insts.len());

        for (ii, inst) in insts.into_iter().enumerate() {
            let live_after: &regalloc_ir::BitSet = if ii + 1 < live_before.len() {
                &live_before[ii + 1]
            } else {
                &live_out
            };
            let mut inst = inst;

            // --- Pin-copies for restricted uses -------------------------
            // Collect (sym, role) uses whose constraint names an explicit
            // register list.
            let mut pinned_uses: Vec<(SymId, UseRole, Vec<PhysReg>)> = Vec::new();
            inst.visit_uses(&mut |l, role| {
                if let Loc::Sym(s) = l {
                    let w = work.sym_width(s);
                    if let Some(allowed) = machine.use_constraints(&inst, role, w).allowed {
                        pinned_uses.push((s, role, allowed));
                    }
                }
            });
            for (s, role, allowed) in pinned_uses {
                let w = work.sym_width(s);
                let t = work.add_sym(w);
                pins.insert(t, allowed);
                out.push(Inst::Copy {
                    dst: Loc::Sym(t),
                    src: Loc::Sym(s),
                    width: w,
                });
                // Replace exactly the pinned occurrence.
                let mut k = 0;
                let target = role;
                let mut replaced = false;
                let uses_order: Vec<(Loc, UseRole)> = {
                    let mut v = Vec::new();
                    inst.visit_uses(&mut |l, r| v.push((l, r)));
                    v
                };
                let n_uses = uses_order.len();
                inst.visit_locs_mut(&mut |l| {
                    if k < n_uses {
                        let (ol, or) = uses_order[k];
                        k += 1;
                        if !replaced && ol == Loc::Sym(s) && or == target {
                            *l = Loc::Sym(t);
                            replaced = true;
                        }
                    }
                });
            }

            // --- Pinned definitions (call results) ----------------------
            if let Inst::Call {
                ret: Some(Loc::Sym(d)),
                width,
                ..
            } = inst
            {
                let dc = machine.def_constraints(&inst, width);
                if let Some(allowed) = dc.allowed {
                    let t = work.add_sym(width);
                    pins.insert(t, allowed);
                    if let Inst::Call { ret, .. } = &mut inst {
                        *ret = Some(Loc::Sym(t));
                    }
                    out.push(inst);
                    out.push(Inst::Copy {
                        dst: Loc::Sym(d),
                        src: Loc::Sym(t),
                        width,
                    });
                    continue;
                }
            }

            // --- Traditional two-address lowering ------------------------
            if machine.is_two_address(&inst) {
                match &mut inst {
                    Inst::Bin {
                        op,
                        dst: regalloc_ir::Dst::Loc(Loc::Sym(d)),
                        lhs,
                        rhs,
                        width,
                    } => {
                        let d = *d;
                        // Commutative immediate-lhs: put the register
                        // source in the combined position first.
                        if op.is_commutative()
                            && !matches!(lhs, Operand::Loc(Loc::Sym(_)))
                            && matches!(rhs, Operand::Loc(Loc::Sym(_)))
                        {
                            std::mem::swap(lhs, rhs);
                        }
                        let lhs_sym = match lhs {
                            Operand::Loc(Loc::Sym(s)) => Some(*s),
                            _ => None,
                        };
                        let rhs_sym = match rhs {
                            Operand::Loc(Loc::Sym(s)) => Some(*s),
                            _ => None,
                        };
                        // The destination in the *other* source position
                        // (d = x op d) would be clobbered by the combining
                        // copy: swap it into the combined position, or
                        // shelter it behind a temporary.
                        if rhs_sym == Some(d) && lhs_sym != Some(d) {
                            if op.is_commutative() {
                                std::mem::swap(lhs, rhs);
                            } else {
                                let t = work.add_sym(*width);
                                out.push(Inst::Copy {
                                    dst: Loc::Sym(t),
                                    src: Loc::Sym(d),
                                    width: *width,
                                });
                                *rhs = Operand::sym(t);
                            }
                        }
                        let lhs_sym = match lhs {
                            Operand::Loc(Loc::Sym(s)) => Some(*s),
                            _ => None,
                        };
                        let rhs_sym = match rhs {
                            Operand::Loc(Loc::Sym(s)) => Some(*s),
                            _ => None,
                        };
                        // Heuristic: prefer a dying source (commutative
                        // only for the rhs), else the lhs. Never swap the
                        // destination itself out of the combined position:
                        // `d = d op x` needs no copy at all, and a copy
                        // `d ← x` would clobber the rhs reference to d.
                        let dies = |s: Option<SymId>| {
                            s.is_some_and(|s| {
                                s.index() >= n_live || !live_after.contains(s.index())
                            })
                        };
                        if op.is_commutative()
                            && lhs_sym != Some(d)
                            && !dies(lhs_sym)
                            && dies(rhs_sym)
                            && rhs_sym.is_some()
                        {
                            std::mem::swap(lhs, rhs);
                        }
                        let lhs_sym = match lhs {
                            Operand::Loc(Loc::Sym(s)) => Some(*s),
                            _ => None,
                        };
                        match lhs_sym {
                            Some(s) if s == d => {} // already combined
                            Some(s) => {
                                out.push(Inst::Copy {
                                    dst: Loc::Sym(d),
                                    src: Loc::Sym(s),
                                    width: *width,
                                });
                                *lhs = Operand::sym(d);
                            }
                            None => {
                                // Non-commutative immediate lhs: load the
                                // constant into the destination first.
                                if let Operand::Imm(v) = *lhs {
                                    out.push(Inst::LoadImm {
                                        dst: Loc::Sym(d),
                                        imm: v,
                                        width: *width,
                                    });
                                    *lhs = Operand::sym(d);
                                }
                            }
                        }
                    }
                    Inst::Un {
                        dst: regalloc_ir::Dst::Loc(Loc::Sym(d)),
                        src,
                        width,
                        ..
                    } => {
                        let d = *d;
                        if let Operand::Loc(Loc::Sym(s)) = src {
                            if *s != d {
                                out.push(Inst::Copy {
                                    dst: Loc::Sym(d),
                                    src: Loc::Sym(*s),
                                    width: *width,
                                });
                                *src = Operand::sym(d);
                            }
                        }
                    }
                    _ => {}
                }
            }
            out.push(inst);
        }
        work.block_mut(b).insts = out;
    }
}
