//! Warm-start construction: a feasible variable assignment corresponding
//! to the spill-everything allocation.
//!
//! Branch-and-bound benefits enormously from starting with *some*
//! incumbent: it can prune against it immediately and always has a usable
//! answer when the time budget expires (the paper's Table 2 "solved"
//! column counts exactly the functions for which the solver produced an
//! allocation). This module mirrors [`fallback`](crate::fallback) in the
//! decision domain: every symbolic lives in its slot (`xm = 1` on every
//! segment), each use is fed by a fresh reload into a scratch register
//! chosen exactly as the fallback chooses it, every definition goes to a
//! register and is stored back, and no copies or memory operands are used.
//!
//! The construction happens in *symbolic coordinates*
//! ([`SymbolicSolution`]) and is then lowered onto the model's variable
//! space, which keeps it usable as a projection base for cross-function
//! warm starts. Both entry points return `None` instead of panicking when
//! the machine model admits no scratch or definition register for some
//! instruction shape: the solver simply runs without a warm start, so a
//! gap here degrades solution availability, not correctness.

use regalloc_ir::{Function, PhysReg, SymId};
use regalloc_machine::Machine;

use crate::analysis::Analysis;
use crate::build::BuiltModel;
use crate::irregular::two_address;
use crate::symbolic::{EventDecision, RoleDecision, SymbolicSolution};

/// Build the spill-everything allocation as a [`SymbolicSolution`] over
/// `built`'s event keys.
///
/// Returns `None` when no admissible scratch or definition register
/// exists for some event (a machine model gap); callers skip the warm
/// start in that case.
pub fn spill_everything_solution<M: Machine + ?Sized>(
    f: &Function,
    a: &Analysis,
    built: &BuiltModel,
    machine: &M,
) -> Option<SymbolicSolution> {
    let mut ds: Vec<EventDecision> = built
        .events
        .iter()
        .map(|ev| EventDecision {
            roles: vec![RoleDecision::default(); ev.roles.len()],
            ..EventDecision::default()
        })
        .collect();

    // Every segment's slot holds the value, recorded at the event whose
    // `gout` creates the segment (each segment has exactly one creator);
    // no register residence anywhere.
    for (ei, g) in built.event_gout.iter().enumerate() {
        if g.is_some() {
            ds[ei].out_mem = true;
        }
    }

    for block in f.block_ids() {
        for group in &a.block_groups[block.index()] {
            match group.inst {
                None => {
                    // Entry joins: memory flows in from every predecessor.
                    for &ei in &group.events {
                        if let Some(j) = &built.events[ei].join {
                            if j.jm.is_some() {
                                ds[ei].join_mem = true;
                            }
                        }
                    }
                }
                Some(ii) => {
                    let inst = &f.block(block).insts[ii];
                    // Choose scratch registers per use occurrence exactly
                    // like the fallback: reuse a symbolic's register when
                    // admitted, avoid overlap between distinct symbolics.
                    let mut taken: Vec<(SymId, PhysReg)> = Vec::new();
                    for &ei in &group.events {
                        let e = &a.events[ei];
                        let ev = &built.events[ei];
                        let regs = &built.event_regs[ei];
                        let mut my_reg: Option<usize> = None;
                        for (ri, rv) in ev.roles.iter().enumerate() {
                            let role = e.roles[ri];
                            let c = machine.use_constraints(inst, role, f.sym_width(e.sym));
                            // Reuse if the previous pick is admitted.
                            let reuse = my_reg.filter(|&i| c.admits(regs[i]));
                            let i = match reuse {
                                Some(i) => i,
                                None => (0..regs.len()).find(|&i| {
                                    c.admits(regs[i])
                                        && rv.use_r[i].is_some()
                                        && !taken.iter().any(|(ts, tr)| {
                                            *ts != e.sym && machine.aliases(*tr).contains(&regs[i])
                                        })
                                })?,
                            };
                            if reuse.is_none() {
                                taken.push((e.sym, regs[i]));
                                if ev.load[i].is_some() {
                                    ds[ei].loads.push(regs[i]);
                                }
                            }
                            my_reg = Some(i);
                            if rv.use_r[i].is_some() {
                                ds[ei].roles[ri].regs.push(regs[i]);
                            }
                            if rv.use_end[i].is_some() {
                                ds[ei].roles[ri].ends.push(regs[i]);
                            }
                        }
                    }
                    // Definitions: two-address reuses the combined source's
                    // register; otherwise the first admitted register.
                    for &ei in &group.events {
                        let e = &a.events[ei];
                        let ev = &built.events[ei];
                        if !e.defines || e.predef_def {
                            continue;
                        }
                        let regs = &built.event_regs[ei];
                        let di = if machine.is_two_address(inst) {
                            // The lhs (or commutative rhs) symbolic's chosen
                            // register: the use-end we recorded above.
                            let (l, r) = two_address::two_addr_parts(inst);
                            let src = l.or(r);
                            src.and_then(|s| {
                                let sei = group
                                    .events
                                    .iter()
                                    .copied()
                                    .find(|&x| a.events[x].sym == s)?;
                                ds[sei]
                                    .roles
                                    .iter()
                                    .find_map(|rd| rd.ends.first().copied())
                                    .and_then(|r| regs.iter().position(|x| *x == r))
                            })
                        } else {
                            None
                        };
                        let di = match di {
                            // Two-address source register not admitted for
                            // the def (cannot happen on provided machines):
                            // fall back to the first admitted register.
                            Some(i) if ev.def[i].is_some() => i,
                            _ => ev.def.iter().position(Option::is_some)?,
                        };
                        ds[ei].def = Some(regs[di]);
                        if e.gout.is_some() && ev.store.is_some() {
                            ds[ei].store = true;
                        }
                    }
                }
            }
        }
    }
    Some(SymbolicSolution::from_decisions(
        built.keys.iter().copied().zip(ds).collect(),
    ))
}

/// Build the spill-everything assignment for `built` as a dense decision
/// vector ([`spill_everything_solution`] lowered onto the model).
///
/// The result is guaranteed feasible for correctly-built models; the
/// solver re-validates it and silently ignores an infeasible warm start,
/// so a bug here degrades solution availability, not correctness.
pub fn spill_everything_assignment<M: Machine + ?Sized>(
    f: &Function,
    a: &Analysis,
    built: &BuiltModel,
    machine: &M,
) -> Option<Vec<bool>> {
    let sol = spill_everything_solution(f, a, built, machine)?;
    built.lower(&sol)
}
