//! A Chaitin–Briggs graph-coloring register allocator — the baseline the
//! paper's IP allocator is compared against ("GCC's graph-coloring
//! register allocator", §6).
//!
//! The allocator is deliberately *traditional*: every irregularity that
//! the IP allocator models precisely is handled here with the local,
//! context-free transformations compilers of the era used —
//!
//! * combined source/destination specifiers are lowered **before**
//!   allocation by the classical copy-insertion pre-pass (§5.1's
//!   "traditional approach": a heuristic picks the source to combine,
//!   "outside the context of register allocation, and thus may often be
//!   a poor decision");
//! * pinned operands (shift counts in CL, return values in EAX) get
//!   dedicated pin-copies to single-register temporaries;
//! * values live across calls are simply restricted to callee-saved
//!   registers;
//! * spilling is spill-everywhere (store after each definition, reload
//!   before each use), with rematerialisation for constant definitions;
//! * copies are removed by conservative (Briggs) coalescing plus
//!   same-register deletion at rewrite time;
//! * encoding irregularities (§5.4) are ignored entirely — register
//!   choice follows a fixed preference order.
//!
//! The output is checked by the same machinery as the IP allocator's, and
//! its [`SpillStats`] are counted from the emitted code by the same
//! [`SpillStats::measure`] that counts the IP allocator's for Table 3.

use std::collections::HashMap;

use regalloc_core::fallback;
pub use regalloc_core::{AllocError, SpillStats};
use regalloc_ir::{Cfg, Function, Inst, Liveness, Loc, LoopInfo, PhysReg, Profile, SymId};
use regalloc_machine::Machine;

mod igraph;
mod prepass;

use igraph::Graph;

/// The result of a graph-coloring allocation.
#[derive(Clone, Debug)]
pub struct ColoringOutcome {
    /// The rewritten function.
    pub func: Function,
    /// Spill accounting (Table 3).
    pub stats: SpillStats,
    /// Build/spill/color rounds used.
    pub rounds: usize,
}

/// The graph-coloring allocator.
#[derive(Clone, Debug)]
pub struct ColoringAllocator<'m, M: ?Sized> {
    machine: &'m M,
    max_rounds: usize,
}

impl<'m, M: Machine + ?Sized> ColoringAllocator<'m, M> {
    /// A new allocator over the given machine model.
    pub fn new(machine: &'m M) -> ColoringAllocator<'m, M> {
        ColoringAllocator {
            machine,
            max_rounds: 16,
        }
    }

    /// Allocate registers for `f`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::WidthRefused`] for functions using widths the
    /// target's register classes refuse, exactly like the IP allocator, so
    /// Table 2's "attempted" column is identical for both.
    pub fn allocate(&self, f: &Function) -> Result<ColoringOutcome, AllocError> {
        if regalloc_machine::refuses(self.machine, f) {
            return Err(AllocError::WidthRefused);
        }
        let cfg = Cfg::new(f);
        let loops = LoopInfo::new(f, &cfg);
        let profile = Profile::estimate(f, &cfg, &loops);
        self.allocate_with_profile(f, &profile)
    }

    /// Allocate with an externally supplied profile.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::Fallback`] if coloring degenerated to the
    /// spill-everything fallback and the fallback itself could not
    /// satisfy the machine's operand constraints.
    pub fn allocate_with_profile(
        &self,
        f: &Function,
        profile: &Profile,
    ) -> Result<ColoringOutcome, AllocError> {
        let mut work = f.clone();

        // Phase 0: the traditional lowering pre-pass.
        let mut pins: HashMap<SymId, Vec<PhysReg>> = HashMap::new();
        prepass::run(&mut work, self.machine, &mut pins);

        let mut no_respill: Vec<bool> = vec![false; work.num_syms()];
        for r in 0..self.max_rounds {
            let cfg = Cfg::new(&work);
            let live = Liveness::new(&work, &cfg);
            let graph = Graph::build(&work, &cfg, &live, self.machine, &pins);
            match graph.color(self.machine, &work, profile) {
                Ok(assignment) => {
                    let func = rewrite(&work, &assignment, &graph);
                    return Ok(ColoringOutcome {
                        stats: SpillStats::measure(f, &func, profile, self.machine),
                        func,
                        rounds: r + 1,
                    });
                }
                Err(spills) => {
                    let spillable: Vec<SymId> = spills
                        .into_iter()
                        .filter(|s| !no_respill[s.index()])
                        .collect();
                    if spillable.is_empty() {
                        break; // only unspillable temporaries failed
                    }
                    spill(&mut work, &spillable, &mut no_respill, &mut pins);
                    no_respill.resize(work.num_syms(), true);
                }
            }
        }
        // Pathological fallback (mirrors GCC's last-resort reload pass).
        let (func, stats) =
            fallback::spill_everything(f, profile, self.machine).map_err(AllocError::Fallback)?;
        Ok(ColoringOutcome {
            func,
            stats,
            rounds: self.max_rounds,
        })
    }
}

impl<'m, M: Machine + ?Sized> regalloc_core::BaselineAllocator for ColoringAllocator<'m, M> {
    fn allocate_baseline(
        &self,
        f: &Function,
        profile: &Profile,
    ) -> Result<(Function, SpillStats), String> {
        self.allocate_with_profile(f, profile)
            .map(|o| (o.func, o.stats))
            .map_err(|e| e.to_string())
    }
}

/// Insert spill-everywhere code for the chosen symbolics.
fn spill(
    work: &mut Function,
    spills: &[SymId],
    no_respill: &mut Vec<bool>,
    pins: &mut HashMap<SymId, Vec<PhysReg>>,
) {
    // Rematerialisation candidates: single constant definition.
    let mut def_count: HashMap<SymId, u32> = HashMap::new();
    let mut remat_val: HashMap<SymId, i64> = HashMap::new();
    for (_, _, inst) in work.insts() {
        if let Some(d) = inst.sym_def() {
            *def_count.entry(d).or_default() += 1;
            if let Inst::LoadImm { imm, .. } = inst {
                remat_val.insert(d, *imm);
            } else {
                remat_val.remove(&d);
            }
        }
    }

    for &s in spills {
        let width = work.sym_width(s);
        let remat = (def_count.get(&s) == Some(&1))
            .then(|| remat_val.get(&s).copied())
            .flatten();
        let slot = (remat.is_none()).then(|| work.add_slot(width, None));
        for b in work.block_ids() {
            let insts = std::mem::take(&mut work.block_mut(b).insts);
            let mut out = Vec::with_capacity(insts.len() + 4);
            for inst in insts {
                let uses_s = inst.sym_uses().iter().any(|(u, _)| *u == s);
                let defs_s = inst.sym_def() == Some(s);
                if remat.is_some() && defs_s && !uses_s {
                    // Delete the rematerialisable definition entirely.
                    continue;
                }
                if !uses_s && !defs_s {
                    out.push(inst);
                    continue;
                }
                // A fresh, short-lived temporary per instruction.
                let t = work.add_sym(width);
                no_respill.resize(work.num_syms(), false);
                no_respill[t.index()] = true;
                if let Some(p) = pins.get(&s).cloned() {
                    pins.insert(t, p);
                }
                if uses_s {
                    match remat {
                        Some(imm) => {
                            out.push(Inst::LoadImm {
                                dst: Loc::Sym(t),
                                imm,
                                width,
                            });
                        }
                        None => {
                            out.push(Inst::SpillLoad {
                                dst: Loc::Sym(t),
                                slot: slot.unwrap(),
                                width,
                            });
                        }
                    }
                }
                let mut inst = inst;
                inst.visit_locs_mut(&mut |l| {
                    if *l == Loc::Sym(s) {
                        *l = Loc::Sym(t);
                    }
                });
                out.push(inst);
                if defs_s {
                    match slot {
                        Some(sl) => {
                            out.push(Inst::SpillStore {
                                slot: sl,
                                src: Loc::Sym(t),
                                width,
                            });
                        }
                        None => {
                            // Rematerialisable value defined and used by
                            // the same instruction: value dies into the
                            // temp; later uses rematerialise.
                        }
                    }
                }
            }
            work.block_mut(b).insts = out;
        }
    }
}

/// Apply the coloring: substitute registers, delete same-register copies.
fn rewrite(work: &Function, assignment: &HashMap<SymId, PhysReg>, graph: &Graph) -> Function {
    let mut nf = work.clone();
    for b in work.block_ids() {
        let insts = std::mem::take(&mut nf.block_mut(b).insts);
        let mut out = Vec::with_capacity(insts.len());
        for mut inst in insts {
            inst.visit_locs_mut(&mut |l| {
                if let Loc::Sym(s) = *l {
                    let rep = graph.find(s);
                    *l = Loc::Real(
                        *assignment
                            .get(&rep)
                            .unwrap_or_else(|| panic!("no color for {s} (rep {rep})")),
                    );
                }
            });
            if let Inst::Copy { dst, src, .. } = &inst {
                if dst == src {
                    continue;
                }
            }
            out.push(inst);
        }
        nf.block_mut(b).insts = out;
    }
    nf
}

/// Convenience re-exports used by the experiments.
pub mod costs {
    pub use regalloc_core::CostModel;
}
