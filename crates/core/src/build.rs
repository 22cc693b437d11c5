//! The ORA solver module, part 1: constructing the 0-1 integer program.
//!
//! One binary variable is created per possible allocation action, priced by
//! the §4 cost model:
//!
//! * residence: `x[S,g,r]` (symbolic S occupies register r over segment g)
//!   and `xm[S,g]` (S's spill slot holds S's value over g) — cost 0;
//! * actions at events: `load`, `remat`, `store`, `copy` (§5.1), register
//!   `def`s, memory-operand uses and combined memory use/defs (§5.2), and
//!   per-role register `use`s carrying the §5.4 encoding penalties;
//! * at calls, separate post-call `load`/`remat` variables (values cannot
//!   survive the call in caller-saved registers, so reloads after the call
//!   are distinct actions from reloads feeding the call's own operands).
//!
//! Constraint families:
//!
//! * *chain* constraints: residence must be justified by an incoming
//!   residence or an action (`x[out] ≤ x[in] + load + remat + copy`,
//!   `x[out] ≤ def`, `xm[out] ≤ xm[in] + store`, `load ≤ xm[in]`, …);
//! * *must-allocate* per use (`Σ_r use[r] + memuse (+ combined) ≥ 1`) and
//!   *must-define* per definition (`Σ_r def[r] (+ combined) = 1`);
//! * the §5.1 combined-specifier constraints
//!   (`def[r] ≤ useEnd_lhs[r] + useEnd_rhs[r]`) with copy insertion, and
//!   copy deletion via negatively-costed conjunction variables;
//! * the §5.2 per-instruction memory-operand exclusivity row;
//! * the §5.3 generalised single-symbolic occupancy rows;
//! * CFG joins: block-entry residence is bounded by every predecessor's
//!   exit residence.

use std::collections::HashMap;

use regalloc_ilp::{Model, VarId};
use regalloc_ir::{Cfg, Function, Inst, PhysReg, Profile, SymId, UseRole};
use regalloc_machine::Machine;

use crate::analysis::{Analysis, Event, SegId};
use crate::cost::CostModel;
use crate::irregular::{encoding, mem_operand, overlap, predefined, two_address};
use crate::symbolic::{EventDecision, EventKey, RoleDecision, SymbolicSolution};

/// A pending constraint row: (coefficients, is-≥, right-hand side).
type PendingRow = (Vec<(VarId, f64)>, bool, f64);

/// Decision variables for one use position (role) of one event.
#[derive(Clone, Debug, Default)]
pub struct RoleVars {
    /// The syntactic role.
    pub role: Option<UseRole>,
    /// Per candidate register (indexed like the width class), the
    /// register-use variable.
    pub use_r: Vec<Option<VarId>>,
    /// Memory-operand use (§5.2).
    pub mem: Option<VarId>,
    /// Use-end variables (§5.1), where applicable.
    pub use_end: Vec<Option<VarId>>,
}

/// Join information for a block-entry event.
#[derive(Clone, Debug)]
pub struct JoinVars {
    /// Exit segments of the predecessors carrying the value.
    pub preds: Vec<SegId>,
    /// Join residence variables (`None` when a single predecessor's exit
    /// variables are used directly).
    pub j: Option<Vec<VarId>>,
    /// Join slot-validity variable (`None` for a single predecessor).
    pub jm: Option<VarId>,
}

/// All decision variables of one event.
#[derive(Clone, Debug, Default)]
pub struct EventVars {
    /// Reload into r before the instruction (after it for block entries).
    pub load: Vec<Option<VarId>>,
    /// Rematerialise into r before the instruction.
    pub remat: Vec<Option<VarId>>,
    /// Reload into r *after* a call.
    pub load_post: Vec<Option<VarId>>,
    /// Rematerialise into r after a call.
    pub remat_post: Vec<Option<VarId>>,
    /// Store to the spill slot.
    pub store: Option<VarId>,
    /// Register definition into r.
    pub def: Vec<Option<VarId>>,
    /// Combined memory use/def (§5.2).
    pub combined: Option<VarId>,
    /// §5.1 copy insertion: copy the symbolic into r just before the
    /// instruction.
    pub copy_to: Vec<Option<VarId>>,
    /// Per-role use variables.
    pub roles: Vec<RoleVars>,
    /// Entry-join bookkeeping.
    pub join: Option<JoinVars>,
    /// Copy-deletion conjunction variables (`dz[r] ≤ def[r]`,
    /// `dz[r] ≤ useEnd_src[r]`), negative cost.
    pub dz: Vec<Option<VarId>>,
}

/// A constructed integer program plus the decision-variable table the
/// rewrite module reads back.
#[derive(Clone, Debug)]
pub struct BuiltModel {
    /// The 0-1 program.
    pub model: Model,
    /// Residence variables per segment per candidate register.
    pub seg_x: Vec<Vec<VarId>>,
    /// Slot-validity variable per segment.
    pub seg_xm: Vec<VarId>,
    /// Per-event variables, parallel to [`Analysis::events`].
    pub events: Vec<EventVars>,
    /// Stable IR coordinate of each event, parallel to `events` — the
    /// key space of [`SymbolicSolution`]s lifted from or lowered onto
    /// this model.
    pub keys: Vec<EventKey>,
    /// Candidate registers of each event (the width class of its
    /// symbolic), parallel to `events`.
    pub event_regs: Vec<Vec<PhysReg>>,
    /// Outgoing segment of each event, parallel to `events`. Every
    /// segment is created by exactly one event's `gout`, which is what
    /// makes segment residence expressible in event coordinates.
    pub event_gout: Vec<Option<SegId>>,
}

/// Position of `r` in the width class `regs`.
fn ridx(regs: &[PhysReg], r: PhysReg) -> Option<usize> {
    regs.iter().position(|x| *x == r)
}

impl BuiltModel {
    /// Every decision variable touched by event `ei`, including the
    /// residence variables of the segment the event creates.
    fn event_var_ids(&self, ei: usize) -> Vec<VarId> {
        let ev = &self.events[ei];
        let mut out: Vec<VarId> = Vec::new();
        let mut opt = |vars: &[Option<VarId>]| out.extend(vars.iter().flatten());
        opt(&ev.load);
        opt(&ev.remat);
        opt(&ev.load_post);
        opt(&ev.remat_post);
        opt(&ev.def);
        opt(&ev.copy_to);
        opt(&ev.dz);
        out.extend(ev.store);
        out.extend(ev.combined);
        for rv in &ev.roles {
            out.extend(rv.use_r.iter().flatten());
            out.extend(rv.mem);
            out.extend(rv.use_end.iter().flatten());
        }
        if let Some(j) = &ev.join {
            if let Some(js) = &j.j {
                out.extend(js);
            }
            out.extend(j.jm);
        }
        if let Some(g) = self.event_gout[ei] {
            out.extend(&self.seg_x[g.index()]);
            out.push(self.seg_xm[g.index()]);
        }
        out
    }

    /// Lift a decision vector into stable IR coordinates. The inverse of
    /// [`BuiltModel::lower`] on this model: `lower(lift(v)) == v` for any
    /// vector over this model's variables.
    pub fn lift(&self, values: &[bool]) -> SymbolicSolution {
        let tv = |v: VarId| values.get(v.index()).copied().unwrap_or(false);
        let ov = |v: Option<VarId>| v.is_some_and(tv);
        let pick = |vars: &[Option<VarId>], regs: &[PhysReg]| -> Vec<PhysReg> {
            vars.iter()
                .enumerate()
                .filter(|(_, v)| v.is_some_and(tv))
                .map(|(i, _)| regs[i])
                .collect()
        };
        let mut decisions = Vec::with_capacity(self.events.len());
        for (ei, ev) in self.events.iter().enumerate() {
            let regs = &self.event_regs[ei];
            let mut d = EventDecision::default();
            if let Some(j) = &ev.join {
                if let Some(js) = &j.j {
                    d.join_regs = js
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| tv(**v))
                        .map(|(i, _)| regs[i])
                        .collect();
                }
                d.join_mem = ov(j.jm);
            }
            d.loads = pick(&ev.load, regs);
            d.remats = pick(&ev.remat, regs);
            d.loads_post = pick(&ev.load_post, regs);
            d.remats_post = pick(&ev.remat_post, regs);
            d.store = ov(ev.store);
            d.def = ev
                .def
                .iter()
                .enumerate()
                .find(|(_, v)| v.is_some_and(tv))
                .map(|(i, _)| regs[i]);
            d.combined = ov(ev.combined);
            d.copies = pick(&ev.copy_to, regs);
            d.deletes = pick(&ev.dz, regs);
            for rv in &ev.roles {
                d.roles.push(RoleDecision {
                    regs: pick(&rv.use_r, regs),
                    mem: ov(rv.mem),
                    ends: pick(&rv.use_end, regs),
                });
            }
            if let Some(g) = self.event_gout[ei] {
                d.out_regs = self.seg_x[g.index()]
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| tv(**v))
                    .map(|(i, _)| regs[i])
                    .collect();
                d.out_mem = tv(self.seg_xm[g.index()]);
            }
            decisions.push((self.keys[ei], d));
        }
        SymbolicSolution::from_decisions(decisions)
    }

    /// Write one event's decision into `v`. `None` when any recorded
    /// choice names a variable this model does not have (inadmissible
    /// register, missing action, role-count mismatch).
    fn apply_decision(&self, ei: usize, d: &EventDecision, v: &mut [bool]) -> Option<()> {
        let ev = &self.events[ei];
        let regs = &self.event_regs[ei];
        fn set_list(
            vars: &[Option<VarId>],
            list: &[PhysReg],
            regs: &[PhysReg],
            v: &mut [bool],
        ) -> Option<()> {
            for &r in list {
                // A foreign decision can name an admissible register at
                // an event whose action list is shorter (or absent) on
                // this model — reject, never index out of bounds.
                let var = (*vars.get(ridx(regs, r)?)?)?;
                v[var.index()] = true;
            }
            Some(())
        }
        if !d.join_regs.is_empty() || d.join_mem {
            let j = ev.join.as_ref()?;
            if !d.join_regs.is_empty() {
                let js = j.j.as_ref()?;
                for &r in &d.join_regs {
                    v[js.get(ridx(regs, r)?)?.index()] = true;
                }
            }
            if d.join_mem {
                v[j.jm?.index()] = true;
            }
        }
        set_list(&ev.load, &d.loads, regs, v)?;
        set_list(&ev.remat, &d.remats, regs, v)?;
        set_list(&ev.load_post, &d.loads_post, regs, v)?;
        set_list(&ev.remat_post, &d.remats_post, regs, v)?;
        set_list(&ev.copy_to, &d.copies, regs, v)?;
        set_list(&ev.dz, &d.deletes, regs, v)?;
        if d.store {
            v[ev.store?.index()] = true;
        }
        if d.combined {
            v[ev.combined?.index()] = true;
        }
        if let Some(r) = d.def {
            let var = (*ev.def.get(ridx(regs, r)?)?)?;
            v[var.index()] = true;
        }
        if d.roles.len() != ev.roles.len() {
            return None;
        }
        for (rd, rv) in d.roles.iter().zip(&ev.roles) {
            set_list(&rv.use_r, &rd.regs, regs, v)?;
            set_list(&rv.use_end, &rd.ends, regs, v)?;
            if rd.mem {
                v[rv.mem?.index()] = true;
            }
        }
        if !d.out_regs.is_empty() || d.out_mem {
            let g = self.event_gout[ei]?;
            for &r in &d.out_regs {
                v[self.seg_x[g.index()].get(ridx(regs, r)?)?.index()] = true;
            }
            if d.out_mem {
                v[self.seg_xm[g.index()].index()] = true;
            }
        }
        Some(())
    }

    /// Lower a symbolic solution onto this model's variable space.
    /// Strict: every recorded choice must name an existing variable, or
    /// the whole lowering is refused. Events absent from `sol` get an
    /// all-false assignment. The result is *not* feasibility-checked —
    /// callers gate it through `model.is_feasible` (or full validation).
    pub fn lower(&self, sol: &SymbolicSolution) -> Option<Vec<bool>> {
        let mut v = vec![false; self.model.num_vars()];
        for ei in 0..self.events.len() {
            if let Some(d) = sol.get(&self.keys[ei]) {
                self.apply_decision(ei, d, &mut v)?;
            }
        }
        Some(v)
    }

    /// Project a (possibly foreign) symbolic solution onto this model,
    /// event by event: where a decision maps cleanly by coordinate, it
    /// replaces the `base` assignment for that event's variables; where
    /// it does not (no such event, inadmissible register, mismatched
    /// shape), the event keeps `base` — typically the spill-everything
    /// choice. The result may still be globally inconsistent, so callers
    /// must gate it through `model.is_feasible` and drop failures.
    pub fn project(&self, sol: &SymbolicSolution, base: &[bool]) -> Vec<bool> {
        let n = self.model.num_vars();
        let mut v = if base.len() == n {
            base.to_vec()
        } else {
            vec![false; n]
        };
        for ei in 0..self.events.len() {
            let Some(d) = sol.get(&self.keys[ei]) else {
                continue;
            };
            let vars = self.event_var_ids(ei);
            let saved: Vec<bool> = vars.iter().map(|x| v[x.index()]).collect();
            for x in &vars {
                v[x.index()] = false;
            }
            if self.apply_decision(ei, d, &mut v).is_none() {
                for (x, old) in vars.iter().zip(saved) {
                    v[x.index()] = old;
                }
            }
        }
        v
    }
}

/// All model costs are scaled by this factor, leaving room for tiny
/// per-register *symmetry-breaking* epsilons on action variables.
/// Interchangeable registers otherwise make the LP relaxation split
/// fractionally across permutations and branch-and-bound explores
/// factorially many equivalent subtrees; the paper observes the same
/// effect in reverse ("irregular costs break up the symmetry of the
/// integer program, decreasing the time spent by the solver"). The
/// epsilons (≤ 8 per chosen action) distort the true objective by
/// `#actions/8` cost units at most — around one percent of typical
/// totals. A larger scale would give a stronger exactness guarantee but
/// stretches the LP's numerical range (costs already span 1…10⁵ from the
/// profile weights); 64 balances tie-breaking power against the f64
/// conditioning of the simplex.
pub const COST_SCALE: i64 = 64;

struct Builder<'a, M: ?Sized> {
    f: &'a Function,
    cfg: &'a Cfg,
    profile: &'a Profile,
    a: &'a Analysis,
    machine: &'a M,
    cost: &'a CostModel,
    model: Model,
    seg_x: Vec<Vec<VarId>>,
    seg_xm: Vec<VarId>,
    events: Vec<EventVars>,
}

impl<'a, M: Machine + ?Sized> Builder<'a, M> {
    fn regs(&self, s: SymId) -> &'a [PhysReg] {
        self.machine.regs_for_width(self.f.sym_width(s))
    }

    fn freq(&self, e: &Event) -> u64 {
        self.profile.freq(e.block)
    }

    /// Scaled cost with a per-register symmetry-breaking epsilon.
    fn cs(&self, c: i64, reg_idx: usize) -> f64 {
        (c * COST_SCALE + (reg_idx as i64 % 8) + 1) as f64
    }

    /// Scaled cost without perturbation.
    fn c0(&self, c: i64) -> f64 {
        (c * COST_SCALE) as f64
    }

    fn inst(&self, e: &Event) -> &'a Inst {
        &self.f.block(e.block).insts[e.inst.expect("instruction event")]
    }

    /// The incoming residence variable of event `e` for candidate index
    /// `i` (entry events read their join).
    fn in_x(&self, e: &Event, ev: &EventVars, i: usize) -> Option<VarId> {
        if let Some(g) = e.gin {
            return Some(self.seg_x[g.index()][i]);
        }
        match &ev.join {
            Some(j) => match &j.j {
                Some(js) => Some(js[i]),
                None => j.preds.first().map(|p| self.seg_x[p.index()][i]),
            },
            None => None,
        }
    }

    /// The incoming slot-validity variable of event `e`.
    fn in_xm(&self, e: &Event, ev: &EventVars) -> Option<VarId> {
        if let Some(g) = e.gin {
            return Some(self.seg_xm[g.index()]);
        }
        match &ev.join {
            Some(j) => match j.jm {
                Some(jm) => Some(jm),
                None => j.preds.first().map(|p| self.seg_xm[p.index()]),
            },
            None => None,
        }
    }

    /// Create the residence variables of every segment.
    fn make_segments(&mut self) {
        for (gi, &s) in self.a.seg_sym.iter().enumerate() {
            let regs = self.regs(s);
            let xs: Vec<VarId> = regs
                .iter()
                .map(|r| self.model.add_var(0.0, format!("x_s{}_g{gi}_{r}", s.0)))
                .collect();
            let xm = self.model.add_var(0.0, format!("xm_s{}_g{gi}", s.0));
            // A live, non-rematerialisable value must exist *somewhere* —
            // a register or its spill slot — on every segment; losing it
            // would make later uses unsatisfiable. Redundant for the
            // integer program but a significant strengthening of the LP
            // relaxation (it blocks fractional "evaporate and regrow"
            // solutions).
            if self.a.remat[s.index()].is_none() {
                let mut row: Vec<(VarId, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
                row.push((xm, 1.0));
                self.model.add_ge(row, 1.0);
            }
            self.seg_x.push(xs);
            self.seg_xm.push(xm);
        }
    }

    /// Create the variables of one event (constraints follow in
    /// [`Builder::constrain_event`], once the whole group's variables
    /// exist).
    fn make_event_vars(&mut self, ei: usize) {
        let e = &self.a.events[ei];
        let s = e.sym;
        let w = self.f.sym_width(s);
        let regs = self.regs(s);
        let n = regs.len();
        let freq = self.freq(e);
        let sc = *self.machine.spill_costs();
        let mut ev = EventVars::default();

        // Entry join.
        if e.inst.is_none() {
            let preds: Vec<SegId> = self
                .cfg
                .preds(e.block)
                .iter()
                .filter_map(|p| self.a.exit_seg.get(&(*p, s)).copied())
                .collect();
            if preds.len() <= 1 {
                ev.join = Some(JoinVars {
                    preds,
                    j: None,
                    jm: None,
                });
            } else {
                let js: Vec<VarId> = regs
                    .iter()
                    .map(|r| self.model.add_var(0.0, format!("j_s{}_{r}", s.0)))
                    .collect();
                let jm = self.model.add_var(0.0, format!("jm_s{}", s.0));
                for &p in &preds {
                    for (i, &j) in js.iter().enumerate() {
                        let px = self.seg_x[p.index()][i];
                        self.model.add_le(vec![(j, 1.0), (px, -1.0)], 0.0);
                    }
                    let pm = self.seg_xm[p.index()];
                    self.model.add_le(vec![(jm, 1.0), (pm, -1.0)], 0.0);
                }
                ev.join = Some(JoinVars {
                    preds,
                    j: Some(js),
                    jm: Some(jm),
                });
            }
        }

        let is_entry = e.inst.is_none();
        let has_in = e.gin.is_some() || is_entry;

        // Pre loads and remats: feed uses and (through callee-saved
        // registers) the outgoing segment. Pure call-crossing events use
        // only the post-call variants.
        let wants_pre = has_in && (is_entry || !e.roles.is_empty() || !e.call);
        if wants_pre {
            let lc = self
                .cost
                .action_cost(freq, sc.load_cycles, sc.load_bytes, w.bytes() as u64);
            ev.load = regs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    Some(
                        self.model
                            .add_var(self.cs(lc, i), format!("ld_s{}_{r}", s.0)),
                    )
                })
                .collect();
            if self.a.remat[s.index()].is_some() {
                let rc = self
                    .cost
                    .action_cost(freq, sc.remat_cycles, sc.remat_bytes, 0);
                ev.remat = regs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        Some(
                            self.model
                                .add_var(self.cs(rc, i), format!("rm_s{}_{r}", s.0)),
                        )
                    })
                    .collect();
            }
        }
        if ev.load.is_empty() {
            ev.load = vec![None; n];
        }
        if ev.remat.is_empty() {
            ev.remat = vec![None; n];
        }

        // Post-call loads/remats.
        if e.call && e.gout.is_some() && has_in {
            let lc = self
                .cost
                .action_cost(freq, sc.load_cycles, sc.load_bytes, w.bytes() as u64);
            ev.load_post = regs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    Some(
                        self.model
                            .add_var(self.cs(lc, i), format!("lp_s{}_{r}", s.0)),
                    )
                })
                .collect();
            if self.a.remat[s.index()].is_some() {
                let rc = self
                    .cost
                    .action_cost(freq, sc.remat_cycles, sc.remat_bytes, 0);
                ev.remat_post = regs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        Some(
                            self.model
                                .add_var(self.cs(rc, i), format!("rp_s{}_{r}", s.0)),
                        )
                    })
                    .collect();
            }
        }
        if ev.load_post.is_empty() {
            ev.load_post = vec![None; n];
        }
        if ev.remat_post.is_empty() {
            ev.remat_post = vec![None; n];
        }

        // Register definitions.
        ev.def = vec![None; n];
        if e.defines && !e.predef_def {
            let inst = self.inst(e);
            let dc = self.machine.def_constraints(inst, w);
            for (i, &r) in regs.iter().enumerate() {
                if dc.admits(r) {
                    let c = self.cost.action_cost(0, 0, dc.penalty(r), 0);
                    ev.def[i] = Some(
                        self.model
                            .add_var(self.cs(c, i), format!("def_s{}_{r}", s.0)),
                    );
                }
            }
            // Combined memory use/def (§5.2): requires the S = S op X
            // shape, machine support, and S in memory just prior.
            if e.gin.is_some()
                && mem_operand::combined_mem_shape(inst) == Some(s)
                && self.machine.mem_combined_ok(inst)
            {
                let c = self.cost.action_cost(
                    freq,
                    sc.mem_combined_extra_cycles,
                    sc.mem_combined_extra_bytes,
                    2 * w.bytes() as u64,
                );
                ev.combined = Some(self.model.add_var(self.c0(c), format!("cmb_s{}", s.0)));
            }
        }

        // §5.1 copy insertion.
        if !is_entry {
            let inst = self.inst(e);
            if self.machine.is_two_address(inst)
                && two_address::is_combinable_source(inst, s)
                && e.gin.is_some()
            {
                let cc = self
                    .cost
                    .action_cost(freq, sc.copy_cycles, sc.copy_bytes, 0);
                ev.copy_to = regs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        Some(
                            self.model
                                .add_var(self.cs(cc, i), format!("cp_s{}_{r}", s.0)),
                        )
                    })
                    .collect();
            }
        }
        if ev.copy_to.is_empty() {
            ev.copy_to = vec![None; n];
        }

        // Per-role use variables.
        if !is_entry {
            let inst = self.inst(e).clone();
            for role in &e.roles {
                let c = self.machine.use_constraints(&inst, *role, w);
                let mut rv = RoleVars {
                    role: Some(*role),
                    use_r: vec![None; n],
                    mem: None,
                    use_end: vec![None; n],
                };
                for (i, &r) in regs.iter().enumerate() {
                    if c.admits(r) {
                        let uc = encoding::use_cost(self.cost, &c, r);
                        rv.use_r[i] =
                            Some(self.model.add_var(self.c0(uc), format!("u_s{}_{r}", s.0)));
                    }
                }
                if self.machine.mem_use_ok(&inst, *role) {
                    let mc = self.cost.action_cost(
                        freq,
                        sc.mem_use_extra_cycles,
                        sc.mem_use_extra_bytes,
                        w.bytes() as u64,
                    );
                    rv.mem = Some(self.model.add_var(self.c0(mc), format!("mu_s{}", s.0)));
                }
                // Use-end variables where the §5.1 machinery needs them.
                let needs_end = (self.machine.is_two_address(&inst)
                    && match role {
                        UseRole::Src1 | UseRole::Src => {
                            two_address::two_addr_parts(&inst).0 == Some(s)
                        }
                        UseRole::Src2 => two_address::two_addr_parts(&inst).1 == Some(s),
                        _ => false,
                    })
                    || (matches!(inst, Inst::Copy { .. }) && *role == UseRole::Src);
                if needs_end {
                    for (i, &r) in regs.iter().enumerate() {
                        if rv.use_r[i].is_some() {
                            rv.use_end[i] =
                                Some(self.model.add_var(0.0, format!("ue_s{}_{r}", s.0)));
                        }
                    }
                }
                ev.roles.push(rv);
            }
        }

        // Store to the slot.
        let store_possible = if e.defines {
            !e.predef_def && ev.def.iter().any(Option::is_some)
        } else {
            has_in
        };
        if store_possible && e.gout.is_some() {
            let stc =
                self.cost
                    .action_cost(freq, sc.store_cycles, sc.store_bytes, w.bytes() as u64);
            ev.store = Some(self.model.add_var(self.c0(stc), format!("st_s{}", s.0)));
        }

        self.events[ei] = ev;
    }

    /// Add the constraints of one event. `group_events` maps symbolics to
    /// their event index within the same group (for cross-operand §5.1
    /// constraints).
    fn constrain_event(&mut self, ei: usize, group_events: &HashMap<SymId, usize>) {
        let e = &self.a.events[ei];
        let s = e.sym;
        let regs = self.regs(s);
        let n = regs.len();
        let freq = self.freq(e);
        let sc = *self.machine.spill_costs();
        let ev = self.events[ei].clone();
        let in_xm = self.in_xm(e, &ev);
        let mut rows: Vec<PendingRow> = Vec::new();

        // Pre-load feasibility, per register: load[r] ≤ xm_in. (A single
        // aggregated row would be smaller but lets a fractional slot
        // validity support a whole reload in the relaxation.)
        for l in ev.load.iter().flatten() {
            match in_xm {
                Some(xm) => rows.push((vec![(*l, 1.0), (xm, -1.0)], false, 0.0)),
                None => self.model.fix(*l, false),
            }
        }
        // Post-call reloads may also be fed by a store earlier in the
        // same event (the classic store-before/reload-after-call pair).
        for l in ev.load_post.iter().flatten() {
            let mut row = vec![(*l, 1.0)];
            if let Some(xm) = in_xm {
                row.push((xm, -1.0));
            }
            if let Some(st) = ev.store {
                row.push((st, -1.0));
            }
            rows.push((row, false, 0.0));
        }

        // Copy insertion feasibility: Σ copy ≤ Σ x_in (§5.1).
        let copies: Vec<VarId> = ev.copy_to.iter().flatten().copied().collect();
        if !copies.is_empty() {
            let mut row: Vec<(VarId, f64)> = copies.iter().map(|&v| (v, 1.0)).collect();
            let mut any = false;
            for i in 0..n {
                if let Some(x) = self.in_x(e, &ev, i) {
                    row.push((x, -1.0));
                    any = true;
                }
            }
            if any {
                rows.push((row, false, 0.0));
            } else {
                for &c in &copies {
                    self.model.fix(c, false);
                }
            }
        }

        // Store feasibility.
        if let Some(st) = ev.store {
            let mut row = vec![(st, 1.0)];
            if e.defines {
                for d in ev.def.iter().flatten() {
                    row.push((*d, -1.0));
                }
            } else {
                for i in 0..n {
                    if let Some(x) = self.in_x(e, &ev, i) {
                        row.push((x, -1.0));
                    }
                }
            }
            if row.len() == 1 {
                self.model.fix(st, false);
            } else {
                rows.push((row, false, 0.0));
            }
        }

        // Per-role rows.
        for rv in &ev.roles {
            // Presence: use[r] ≤ x_in[r] + load[r] + remat[r] + copy[r].
            for i in 0..n {
                if let Some(u) = rv.use_r[i] {
                    let mut row = vec![(u, 1.0)];
                    if let Some(x) = self.in_x(e, &ev, i) {
                        row.push((x, -1.0));
                    }
                    for v in [ev.load[i], ev.remat[i], ev.copy_to[i]]
                        .into_iter()
                        .flatten()
                    {
                        row.push((v, -1.0));
                    }
                    if row.len() == 1 {
                        self.model.fix(u, false);
                    } else {
                        rows.push((row, false, 0.0));
                    }
                }
            }
            // Memory-operand feasibility: mem ≤ xm_in.
            if let Some(m) = rv.mem {
                match in_xm {
                    Some(xm) => rows.push((vec![(m, 1.0), (xm, -1.0)], false, 0.0)),
                    None => self.model.fix(m, false),
                }
            }
            // Must-allocate: Σ use + mem (+ combined when this role is the
            // combined source position) ≥ 1.
            let mut row: Vec<(VarId, f64)> = rv.use_r.iter().flatten().map(|&v| (v, 1.0)).collect();
            if let Some(m) = rv.mem {
                row.push((m, 1.0));
            }
            if let Some(cmb) = ev.combined {
                let is_lhs_role = matches!(rv.role, Some(UseRole::Src1) | Some(UseRole::Src));
                if is_lhs_role {
                    row.push((cmb, 1.0));
                }
            }
            rows.push((row, true, 1.0));
            // Use-end: ue ≤ use; ue + x_out ≤ 1 when the value lives on.
            for i in 0..n {
                if let Some(ue) = rv.use_end[i] {
                    let u = rv.use_r[i].expect("use-end implies use var");
                    rows.push((vec![(ue, 1.0), (u, -1.0)], false, 0.0));
                    if !e.defines {
                        if let Some(gout) = e.gout {
                            let xo = self.seg_x[gout.index()][i];
                            rows.push((vec![(ue, 1.0), (xo, 1.0)], false, 1.0));
                        }
                    }
                }
            }
        }

        // Combined memory use/def feasibility (§5.2): combined ≤ xm_in.
        if let Some(cmb) = ev.combined {
            match in_xm {
                Some(xm) => rows.push((vec![(cmb, 1.0), (xm, -1.0)], false, 0.0)),
                None => self.model.fix(cmb, false),
            }
        }

        // Must-define (exactly once) and the §5.1 combined-specifier
        // constraint.
        if e.defines && !e.predef_def {
            let mut row: Vec<(VarId, f64)> = ev.def.iter().flatten().map(|&v| (v, 1.0)).collect();
            if let Some(cmb) = ev.combined {
                row.push((cmb, 1.0));
            }
            rows.push((row, true, 1.0)); // ≥ 1; uniqueness via occupancy? No: equality.
            let mut row: Vec<(VarId, f64)> = ev.def.iter().flatten().map(|&v| (v, 1.0)).collect();
            if let Some(cmb) = ev.combined {
                row.push((cmb, 1.0));
            }
            rows.push((row, false, 1.0)); // ≤ 1 — together: = 1.

            let inst = self.inst(e);
            if self.machine.is_two_address(inst) {
                let (lsym, rsym) = two_address::two_addr_parts(inst);
                // Locate the use-end variables of the source events.
                let end_vars =
                    |sym: Option<SymId>, b: &Builder<'a, M>| -> Vec<Vec<Option<VarId>>> {
                        let mut out = Vec::new();
                        if let Some(sy) = sym {
                            if let Some(&oei) = group_events.get(&sy) {
                                for rv in &b.events[oei].roles {
                                    if rv.use_end.iter().any(Option::is_some) {
                                        let matches_pos = match rv.role {
                                            Some(UseRole::Src1) | Some(UseRole::Src) => {
                                                lsym == Some(sy)
                                            }
                                            Some(UseRole::Src2) => rsym == Some(sy),
                                            _ => false,
                                        };
                                        if matches_pos {
                                            out.push(rv.use_end.clone());
                                        }
                                    }
                                }
                            }
                        }
                        out
                    };
                let lends = end_vars(lsym, self);
                let rends = if rsym == lsym {
                    Vec::new()
                } else {
                    end_vars(rsym, self)
                };
                if !(lends.is_empty() && rends.is_empty()) {
                    for i in 0..n {
                        if let Some(d) = ev.def[i] {
                            let mut row = vec![(d, 1.0)];
                            for ends in lends.iter().chain(&rends) {
                                // Source and destination share a width
                                // class (verifier-checked), so candidate
                                // index i denotes the same register.
                                if let Some(Some(ue)) = ends.get(i) {
                                    row.push((*ue, -1.0));
                                }
                            }
                            if row.len() == 1 {
                                self.model.fix(d, false);
                            } else {
                                rows.push((row, false, 0.0));
                            }
                        }
                    }
                }
            }

            // Copy deletion (§5.1): dz[r] ≤ def[r], dz[r] ≤ useEnd_src[r].
            if let Inst::Copy {
                src: regalloc_ir::Loc::Sym(src),
                ..
            } = self.inst(e)
            {
                let src = *src;
                if src != s {
                    if let Some(&sei) = group_events.get(&src) {
                        let src_ends: Option<Vec<Option<VarId>>> = self.events[sei]
                            .roles
                            .iter()
                            .find(|rv| rv.role == Some(UseRole::Src))
                            .map(|rv| rv.use_end.clone());
                        if let Some(ends) = src_ends {
                            let cc = self
                                .cost
                                .action_cost(freq, sc.copy_cycles, sc.copy_bytes, 0);
                            let mut dz = vec![None; n];
                            let mut sum: Vec<(VarId, f64)> = Vec::new();
                            for (i, dzi) in dz.iter_mut().enumerate() {
                                if let (Some(d), Some(Some(ue))) = (ev.def[i], ends.get(i)) {
                                    let z = self.model.add_var(
                                        -self.c0(cc) + ((i % 8) as f64 + 1.0),
                                        format!("dz_s{}", s.0),
                                    );
                                    self.model.add_le(vec![(z, 1.0), (d, -1.0)], 0.0);
                                    self.model.add_le(vec![(z, 1.0), (*ue, -1.0)], 0.0);
                                    sum.push((z, 1.0));
                                    *dzi = Some(z);
                                }
                            }
                            if !sum.is_empty() {
                                self.model.add_le(sum, 1.0);
                                self.events[ei].dz = dz;
                            }
                        }
                    }
                }
            }
        }

        // Outgoing continuity.
        if let Some(gout) = e.gout {
            let gi = gout.index();
            if e.defines {
                if e.predef_def {
                    // §5.5: the value exists only in memory after its
                    // deleted definition; register residence is fixed off
                    // and xm is free.
                    let xs: Vec<Option<VarId>> = self.seg_x[gi].iter().map(|v| Some(*v)).collect();
                    predefined::fix_predef_def_registers(&mut self.model, &xs);
                } else {
                    for i in 0..n {
                        let xo = self.seg_x[gi][i];
                        match ev.def[i] {
                            Some(d) => rows.push((vec![(xo, 1.0), (d, -1.0)], false, 0.0)),
                            None => self.model.fix(xo, false),
                        }
                    }
                    let xmo = self.seg_xm[gi];
                    let mut row = vec![(xmo, 1.0)];
                    if let Some(st) = ev.store {
                        row.push((st, -1.0));
                    }
                    if let Some(cmb) = ev.combined {
                        row.push((cmb, -1.0));
                    }
                    if row.len() == 1 {
                        self.model.fix(xmo, false);
                    } else {
                        rows.push((row, false, 0.0));
                    }
                }
            } else {
                for (i, &reg) in regs.iter().enumerate() {
                    let xo = self.seg_x[gi][i];
                    let mut row = vec![(xo, 1.0)];
                    let survives_call = !e.call || !self.machine.is_caller_saved(reg);
                    if survives_call {
                        if let Some(x) = self.in_x(e, &ev, i) {
                            row.push((x, -1.0));
                        }
                        for v in [ev.load[i], ev.remat[i], ev.copy_to[i]]
                            .into_iter()
                            .flatten()
                        {
                            row.push((v, -1.0));
                        }
                    }
                    for v in [ev.load_post[i], ev.remat_post[i]].into_iter().flatten() {
                        row.push((v, -1.0));
                    }
                    if row.len() == 1 {
                        self.model.fix(xo, false);
                    } else {
                        rows.push((row, false, 0.0));
                    }
                }
                let xmo = self.seg_xm[gout.index()];
                let mut row = vec![(xmo, 1.0)];
                if let Some(xm) = in_xm {
                    row.push((xm, -1.0));
                }
                if let Some(st) = ev.store {
                    row.push((st, -1.0));
                }
                if row.len() == 1 {
                    self.model.fix(xmo, false);
                } else {
                    rows.push((row, false, 0.0));
                }
            }
        }

        for (coeffs, ge, rhs) in rows {
            if ge {
                self.model.add_ge(coeffs, rhs);
            } else {
                self.model.add_le(coeffs, rhs);
            }
        }
    }

    /// Group-level rows: memory-operand exclusivity (§5.2) and the
    /// generalised single-symbolic occupancy rows (§5.3).
    fn constrain_group(&mut self, group: &crate::analysis::EventGroup) {
        // At most one memory operand per instruction.
        let mut mems: Vec<VarId> = Vec::new();
        for &ei in &group.events {
            let ev = &self.events[ei];
            for rv in &ev.roles {
                if let Some(m) = rv.mem {
                    mems.push(m);
                }
            }
            if let Some(cmb) = ev.combined {
                mems.push(cmb);
            }
        }
        if mems.len() >= 2 {
            self.model
                .add_le(mems.into_iter().map(|v| (v, 1.0)).collect(), 1.0);
        }

        // Occupancy rows per overlap group.
        let groups = self.machine.overlap_groups().to_vec();
        let mut pre_rows: Vec<Vec<VarId>> = Vec::new();
        let mut post_rows: Vec<Vec<VarId>> = Vec::new();
        let mut any_def = false;
        let mut any_call = false;
        for g in &groups {
            let mut pre: Vec<VarId> = Vec::new();
            let mut post: Vec<VarId> = Vec::new();
            for &ei in &group.events {
                let e = &self.a.events[ei];
                let ev = &self.events[ei];
                let regs = self.regs(e.sym);
                any_def |= e.defines;
                any_call |= e.call;
                for &r in g {
                    if let Some(i) = ridx(regs, r) {
                        if let Some(x) = self.in_x(e, ev, i) {
                            pre.push(x);
                        }
                        for v in [ev.load[i], ev.remat[i], ev.copy_to[i]]
                            .into_iter()
                            .flatten()
                        {
                            pre.push(v);
                        }
                        if e.defines {
                            if let Some(d) = ev.def[i] {
                                post.push(d);
                            }
                        } else if let Some(gout) = e.gout {
                            post.push(self.seg_x[gout.index()][i]);
                        }
                    }
                }
            }
            for &(sy, seg) in &group.through {
                let regs = self.regs(sy);
                for &r in g {
                    if let Some(i) = ridx(regs, r) {
                        let x = self.seg_x[seg.index()][i];
                        pre.push(x);
                        post.push(x);
                    }
                }
            }
            pre_rows.push(pre);
            post_rows.push(post);
        }
        overlap::emit_occupancy_rows(&mut self.model, pre_rows);
        if any_def || any_call {
            overlap::emit_occupancy_rows(&mut self.model, post_rows);
        }
    }
}

/// Build the integer program for `f`.
pub fn build_model<M: Machine + ?Sized>(
    f: &Function,
    cfg: &Cfg,
    profile: &Profile,
    a: &Analysis,
    machine: &M,
    cost: &CostModel,
) -> BuiltModel {
    let mut b = Builder {
        f,
        cfg,
        profile,
        a,
        machine,
        cost,
        model: Model::new(),
        seg_x: Vec::new(),
        seg_xm: Vec::new(),
        events: vec![EventVars::default(); a.events.len()],
    };
    b.make_segments();
    for block in f.block_ids() {
        for group in &a.block_groups[block.index()] {
            for &ei in &group.events {
                b.make_event_vars(ei);
            }
            let map: HashMap<SymId, usize> = group
                .events
                .iter()
                .map(|&ei| (a.events[ei].sym, ei))
                .collect();
            for &ei in &group.events {
                b.constrain_event(ei, &map);
            }
            b.constrain_group(group);
        }
    }
    let keys = a
        .events
        .iter()
        .map(|e| EventKey {
            sym: e.sym.0,
            block: e.block.0,
            inst: e.inst.map(|i| i as u32),
        })
        .collect();
    let event_regs = a
        .events
        .iter()
        .map(|e| machine.regs_for_width(f.sym_width(e.sym)).to_vec())
        .collect();
    let event_gout = a.events.iter().map(|e| e.gout).collect();
    BuiltModel {
        model: b.model,
        seg_x: b.seg_x,
        seg_xm: b.seg_xm,
        events: b.events,
        keys,
        event_regs,
        event_gout,
    }
}

/// A cheap, analysis-free estimate of the number of constraint rows
/// [`build_model`] would emit for `f`.
///
/// The driver's deadline-aware scheduler orders its queue
/// cheapest-model-first so that, when a global wall-clock budget starts
/// to bind, the functions sacrificed to shrunken deadlines are the
/// expensive tail — the same shape as the paper's Table 2, where the
/// handful of unsolved functions are the largest ones. Building the real
/// model (liveness, analysis, variable creation) just to *order* the
/// queue would cost a noticeable fraction of the solve itself, so this
/// estimate works from structural counts alone:
///
/// * every operand reference (use or def) spawns an event, and each
///   event contributes a bounded batch of chain / must-allocate /
///   exclusivity rows — the dominant term;
/// * every block boundary contributes join and occupancy rows for the
///   symbolic registers live across it, approximated by the total
///   symbolic-register count.
///
/// The estimate correlates with `BuiltModel::model.num_rows()` but does
/// not equal it; it is monotone enough for scheduling, which is all the
/// driver needs.
pub fn estimate_constraints(f: &Function) -> usize {
    let mut refs = 0usize;
    for (_, _, inst) in f.insts() {
        inst.visit_uses(&mut |_, _| refs += 1);
        if inst.def().is_some() {
            refs += 1;
        }
    }
    3 * refs + 2 * f.num_blocks() + f.num_syms() + 1
}

#[cfg(test)]
mod estimate_tests {
    use super::*;
    use regalloc_ir::{BinOp, FunctionBuilder, Operand, Width};

    fn chain(n: usize) -> Function {
        let mut b = FunctionBuilder::new("chain");
        let mut x = b.new_sym(Width::B32);
        b.load_imm(x, 1);
        for _ in 0..n {
            let y = b.new_sym(Width::B32);
            b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1));
            x = y;
        }
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn estimate_is_positive_and_monotone_in_size() {
        let small = estimate_constraints(&chain(4));
        let large = estimate_constraints(&chain(40));
        assert!(small > 0);
        assert!(
            large > small,
            "larger function must estimate larger: {small} vs {large}"
        );
    }
}
