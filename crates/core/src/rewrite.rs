//! The ORA rewrite module (§2): reads solved decision variables back out
//! of the table and rewrites the function.
//!
//! Every symbolic register is replaced by the physical register its
//! chosen use/def variables name; spill loads, stores, rematerialisations
//! and §5.1 copies are inserted at the event points whose action
//! variables are 1; deletable copies and the defining loads of §5.5
//! predefined memory symbolic registers are removed; §5.2 memory operands
//! are folded into their instructions.

use std::collections::HashMap;

use regalloc_ilp::VarId;
use regalloc_ir::{Dst, Function, Inst, Loc, Operand, PhysReg, Profile, SlotId, SymId};
use regalloc_machine::Machine;

use crate::analysis::{Analysis, Event};
use crate::build::{BuiltModel, EventVars};
use crate::stats::SpillStats;

/// Apply the solver's assignment to `f`, producing the allocated function
/// and its spill accounting ([`SpillStats::measure`]).
///
/// # Panics
///
/// Panics if the assignment violates the model's own invariants (e.g. no
/// definition register chosen) — such a violation is a solver or builder
/// bug, caught loudly rather than silently miscompiled.
pub fn apply<M: Machine + ?Sized>(
    f: &Function,
    profile: &Profile,
    a: &Analysis,
    built: &BuiltModel,
    values: &[bool],
    machine: &M,
) -> (Function, SpillStats) {
    let nf = Rewriter {
        f,
        a,
        built,
        values,
        machine,
        slots: HashMap::new(),
    }
    .run();
    let stats = SpillStats::measure(f, &nf, profile, machine);
    (nf, stats)
}

struct Rewriter<'a, M: ?Sized> {
    f: &'a Function,
    a: &'a Analysis,
    built: &'a BuiltModel,
    values: &'a [bool],
    machine: &'a M,
    slots: HashMap<SymId, SlotId>,
}

impl<'a, M: Machine + ?Sized> Rewriter<'a, M> {
    fn tv(&self, v: VarId) -> bool {
        self.values[v.index()]
    }

    fn ov(&self, v: Option<VarId>) -> bool {
        v.is_some_and(|v| self.tv(v))
    }

    fn regs(&self, s: SymId) -> &'a [PhysReg] {
        self.machine.regs_for_width(self.f.sym_width(s))
    }

    /// Incoming residence register of an event (first candidate whose
    /// residence variable is 1).
    fn in_reg(&self, e: &Event, ev: &EventVars) -> Option<PhysReg> {
        let regs = self.regs(e.sym);
        let lookup = |xs: &[VarId]| -> Option<PhysReg> {
            xs.iter().position(|&x| self.tv(x)).map(|i| regs[i])
        };
        if let Some(g) = e.gin {
            return lookup(&self.built.seg_x[g.index()]);
        }
        if let Some(j) = &ev.join {
            return match &j.j {
                Some(js) => js.iter().position(|&x| self.tv(x)).map(|i| regs[i]),
                None => j
                    .preds
                    .first()
                    .and_then(|p| lookup(&self.built.seg_x[p.index()])),
            };
        }
        None
    }

    fn slot(&mut self, s: SymId, nf: &mut Function) -> SlotId {
        if let Some(&sl) = self.slots.get(&s) {
            return sl;
        }
        let home = self.a.predefined[s.index()];
        let sl = nf.add_slot(self.f.sym_width(s), home);
        self.slots.insert(s, sl);
        sl
    }

    fn run(mut self) -> Function {
        let mut nf = self.f.clone();

        for b in self.f.block_ids() {
            let mut out: Vec<Inst> = Vec::new();
            let groups = &self.a.block_groups[b.index()];
            let mut gi = 0;

            // Block-entry actions.
            if groups.first().is_some_and(|g| g.inst.is_none()) {
                let group = &groups[0];
                gi = 1;
                // Stores first (they read predecessor state), then
                // reloads and rematerialisations.
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    if self.ov(ev.store) {
                        let src = self
                            .in_reg(e, ev)
                            .expect("entry store needs an incoming register");
                        let slot = self.slot(e.sym, &mut nf);
                        out.push(Inst::SpillStore {
                            slot,
                            src: Loc::Real(src),
                            width: self.f.sym_width(e.sym),
                        });
                    }
                }
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    self.emit_loads(e, ev, &mut nf, &mut out);
                }
            }

            for (ii, inst) in self.f.block(b).insts.iter().enumerate() {
                let group = groups.get(gi).filter(|g| g.inst == Some(ii));
                let group = match group {
                    Some(g) => {
                        gi += 1;
                        g
                    }
                    None => {
                        out.push(inst.clone());
                        continue;
                    }
                };

                let by_sym: HashMap<SymId, usize> = group
                    .events
                    .iter()
                    .map(|&ei| (self.a.events[ei].sym, ei))
                    .collect();

                // Pre-instruction actions: stores, copies, loads, remats.
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    if !e.defines && self.ov(ev.store) {
                        let src = self
                            .in_reg(e, ev)
                            .expect("store needs an incoming register");
                        let slot = self.slot(e.sym, &mut nf);
                        out.push(Inst::SpillStore {
                            slot,
                            src: Loc::Real(src),
                            width: self.f.sym_width(e.sym),
                        });
                    }
                }
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    let regs = self.regs(e.sym);
                    for (i, c) in ev.copy_to.iter().enumerate() {
                        if self.ov(*c) {
                            let src = self.in_reg(e, ev).expect("copy needs an incoming register");
                            out.push(Inst::Copy {
                                dst: Loc::Real(regs[i]),
                                src: Loc::Real(src),
                                width: self.f.sym_width(e.sym),
                            });
                        }
                    }
                }
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    self.emit_loads(e, ev, &mut nf, &mut out);
                }

                // The instruction itself.
                let def_event = group
                    .events
                    .iter()
                    .copied()
                    .find(|&ei| self.a.events[ei].defines);
                // Removed: the defining load of a §5.5 predefined memory
                // symbolic (the value already lives in its home location)
                // and a copy whose §5.1 deletion variable is 1.
                let deleted = def_event.is_some_and(|ei| {
                    self.a.events[ei].predef_def
                        || self.built.events[ei].dz.iter().any(|z| self.ov(*z))
                });
                if !deleted {
                    let rewritten = self.rewrite_inst(inst, &by_sym, &mut nf);
                    out.push(rewritten);
                }

                // Post-instruction actions: definition stores, post-call
                // reloads/rematerialisations.
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    if e.defines && self.ov(ev.store) {
                        let regs = self.regs(e.sym);
                        let d = ev
                            .def
                            .iter()
                            .position(|d| self.ov(*d))
                            .expect("definition store needs a defined register");
                        let slot = self.slot(e.sym, &mut nf);
                        out.push(Inst::SpillStore {
                            slot,
                            src: Loc::Real(regs[d]),
                            width: self.f.sym_width(e.sym),
                        });
                    }
                }
                for &ei in &group.events {
                    let (e, ev) = (&self.a.events[ei], &self.built.events[ei]);
                    let regs = self.regs(e.sym);
                    for (i, l) in ev.load_post.iter().enumerate() {
                        if self.ov(*l) {
                            let slot = self.slot(e.sym, &mut nf);
                            out.push(Inst::SpillLoad {
                                dst: Loc::Real(regs[i]),
                                slot,
                                width: self.f.sym_width(e.sym),
                            });
                        }
                    }
                    for (i, r) in ev.remat_post.iter().enumerate() {
                        if self.ov(*r) {
                            let imm = self.a.remat[e.sym.index()].expect("remat value");
                            out.push(Inst::LoadImm {
                                dst: Loc::Real(regs[i]),
                                imm,
                                width: self.f.sym_width(e.sym),
                            });
                        }
                    }
                }
            }
            nf.block_mut(b).insts = out;
        }
        nf
    }

    fn emit_loads(&mut self, e: &Event, ev: &EventVars, nf: &mut Function, out: &mut Vec<Inst>) {
        let regs = self.regs(e.sym);
        for (i, l) in ev.load.iter().enumerate() {
            if self.ov(*l) {
                let slot = self.slot(e.sym, nf);
                out.push(Inst::SpillLoad {
                    dst: Loc::Real(regs[i]),
                    slot,
                    width: self.f.sym_width(e.sym),
                });
            }
        }
        for (i, r) in ev.remat.iter().enumerate() {
            if self.ov(*r) {
                let imm = self.a.remat[e.sym.index()].expect("remat value");
                out.push(Inst::LoadImm {
                    dst: Loc::Real(regs[i]),
                    imm,
                    width: self.f.sym_width(e.sym),
                });
            }
        }
    }

    /// Choose the register (or memory) for the next role of `sym`'s event.
    /// `prefer` nudges register selection (two-address matching).
    fn role_choice(
        &mut self,
        by_sym: &HashMap<SymId, usize>,
        cursors: &mut HashMap<SymId, usize>,
        sym: SymId,
        prefer: Option<PhysReg>,
    ) -> OperandChoice {
        let ei = by_sym[&sym];
        let ev = &self.built.events[ei];
        let cur = cursors.entry(sym).or_insert(0);
        let rv = &ev.roles[*cur];
        *cur += 1;
        if self.ov(rv.mem) {
            return OperandChoice::Mem;
        }
        let regs = self.regs(sym);
        if let Some(p) = prefer {
            if let Some(i) = regs.iter().position(|r| *r == p) {
                if self.ov(rv.use_r[i]) {
                    return OperandChoice::Reg(p);
                }
            }
        }
        let i = rv
            .use_r
            .iter()
            .position(|u| self.ov(*u))
            .expect("a use variable must be chosen (must-allocate)");
        OperandChoice::Reg(regs[i])
    }

    /// Rewrite one instruction's operands per the solved variables.
    fn rewrite_inst(
        &mut self,
        inst: &Inst,
        by_sym: &HashMap<SymId, usize>,
        nf: &mut Function,
    ) -> Inst {
        let mut cursors: HashMap<SymId, usize> = HashMap::new();

        // The definition register, if this instruction defines one.
        let def_info: Option<(SymId, Option<PhysReg>, bool)> = inst.sym_def().map(|d| {
            let ev = &self.built.events[by_sym[&d]];
            if self.ov(ev.combined) {
                (d, None, true)
            } else {
                let regs = self.regs(d);
                let i = ev
                    .def
                    .iter()
                    .position(|v| self.ov(*v))
                    .expect("must-define picks a register");
                (d, Some(regs[i]), false)
            }
        });

        fn loc<M2: Machine + ?Sized>(
            s: &mut Rewriter<'_, M2>,
            by_sym: &HashMap<SymId, usize>,
            cursors: &mut HashMap<SymId, usize>,
            l: Loc,
            prefer: Option<PhysReg>,
        ) -> Loc {
            match l {
                Loc::Sym(sym) => match s.role_choice(by_sym, cursors, sym, prefer) {
                    OperandChoice::Reg(r) => Loc::Real(r),
                    OperandChoice::Mem => unreachable!("register positions never fold to memory"),
                },
                real => real,
            }
        }
        fn op<M2: Machine + ?Sized>(
            s: &mut Rewriter<'_, M2>,
            by_sym: &HashMap<SymId, usize>,
            cursors: &mut HashMap<SymId, usize>,
            nf: &mut Function,
            o: &Operand,
            prefer: Option<PhysReg>,
        ) -> Operand {
            match o {
                Operand::Loc(Loc::Sym(sym)) => match s.role_choice(by_sym, cursors, *sym, prefer) {
                    OperandChoice::Reg(r) => Operand::real(r),
                    OperandChoice::Mem => {
                        let slot = s.slot(*sym, nf);
                        Operand::Slot(slot)
                    }
                },
                o => *o,
            }
        }

        match inst {
            Inst::LoadImm { dst: _, imm, width } => Inst::LoadImm {
                dst: Loc::Real(def_info.unwrap().1.unwrap()),
                imm: *imm,
                width: *width,
            },
            Inst::Copy { src, width, .. } => {
                let src = loc(self, by_sym, &mut cursors, *src, def_info.and_then(|d| d.1));
                Inst::Copy {
                    dst: Loc::Real(def_info.unwrap().1.unwrap()),
                    src,
                    width: *width,
                }
            }
            Inst::Load { addr, width, .. } => {
                let addr = self.rewrite_addr(addr, by_sym, &mut cursors);
                Inst::Load {
                    dst: Loc::Real(def_info.unwrap().1.unwrap()),
                    addr,
                    width: *width,
                }
            }
            Inst::Store { addr, src, width } => {
                let addr = self.rewrite_addr(addr, by_sym, &mut cursors);
                let src = op(self, by_sym, &mut cursors, nf, src, None);
                Inst::Store {
                    addr,
                    src,
                    width: *width,
                }
            }
            Inst::Bin {
                op: bop,
                lhs,
                rhs,
                width,
                ..
            } => {
                let (dsym, dreg, combined) = def_info.unwrap();
                if combined {
                    // §5.2 combined memory use/def: dst and lhs share the
                    // slot; the lhs role's cursor still advances (no use
                    // variable is set — the combined variable covers it).
                    *cursors.entry(dsym).or_insert(0) += 1;
                    let slot = self.slot(dsym, nf);
                    let rhs = op(self, by_sym, &mut cursors, nf, rhs, None);
                    return Inst::Bin {
                        op: *bop,
                        dst: Dst::Slot(slot),
                        lhs: Operand::Slot(slot),
                        rhs,
                        width: *width,
                    };
                }
                let dreg = dreg.unwrap();
                let two_addr = self.machine.is_two_address(inst);
                let (mut lhs, mut rhs) = (*lhs, *rhs);
                let lhs_sym = match lhs {
                    Operand::Loc(Loc::Sym(s)) => Some(s),
                    _ => None,
                };
                let rhs_sym = match rhs {
                    Operand::Loc(Loc::Sym(s)) => Some(s),
                    _ => None,
                };
                if let Some(s) = lhs_sym.filter(|_| two_addr && lhs_sym == rhs_sym) {
                    // Same symbolic in both positions: either role's use
                    // of the definition register justifies the combined
                    // specifier (def ≤ useEnd_ρ1 + useEnd_ρ2).
                    let c0 = self.role_choice(by_sym, &mut cursors, s, Some(dreg));
                    let c1 = self.role_choice(by_sym, &mut cursors, s, Some(dreg));
                    let (l, r) = match (&c0, &c1) {
                        (OperandChoice::Reg(r0), _) if *r0 == dreg => (c0, c1),
                        (_, OperandChoice::Reg(r1)) if *r1 == dreg => (c1, c0),
                        _ => panic!("two-address: no role of {s} holds {dreg}"),
                    };
                    let to_op = |c: OperandChoice, me: &mut Self, nf: &mut Function| match c {
                        OperandChoice::Reg(r) => Operand::real(r),
                        OperandChoice::Mem => Operand::Slot(me.slot(s, nf)),
                    };
                    let rhs = to_op(r, self, nf);
                    return Inst::Bin {
                        op: *bop,
                        dst: Dst::Loc(Loc::Real(dreg)),
                        lhs: to_op(l, self, nf),
                        rhs,
                        width: *width,
                    };
                }
                if two_addr {
                    // Swap commutative operands when the rhs carries the
                    // definition register (§5.1: either source may be the
                    // combined specifier).
                    let lhs_can = lhs_sym.is_some_and(|s| self.role_holds(by_sym, s, 0, dreg));
                    if !lhs_can && bop.is_commutative() {
                        std::mem::swap(&mut lhs, &mut rhs);
                    }
                }
                let had_reg_lhs = matches!(lhs, Operand::Loc(_));
                let lhs = op(self, by_sym, &mut cursors, nf, &lhs, Some(dreg));
                let rhs = op(self, by_sym, &mut cursors, nf, &rhs, None);
                if two_addr && had_reg_lhs {
                    // With an immediate in the combined position there is
                    // no register to match (the §5.1 constraint is absent
                    // from the model in that case too).
                    assert_eq!(
                        lhs,
                        Operand::real(dreg),
                        "two-address: lhs must match the definition register"
                    );
                }
                Inst::Bin {
                    op: *bop,
                    dst: Dst::Loc(Loc::Real(dreg)),
                    lhs,
                    rhs,
                    width: *width,
                }
            }
            Inst::Un {
                op: uop,
                src,
                width,
                ..
            } => {
                let (dsym, dreg, combined) = def_info.unwrap();
                if combined {
                    *cursors.entry(dsym).or_insert(0) += 1;
                    let slot = self.slot(dsym, nf);
                    return Inst::Un {
                        op: *uop,
                        dst: Dst::Slot(slot),
                        src: Operand::Slot(slot),
                        width: *width,
                    };
                }
                let dreg = dreg.unwrap();
                let src = op(self, by_sym, &mut cursors, nf, src, Some(dreg));
                Inst::Un {
                    op: *uop,
                    dst: Dst::Loc(Loc::Real(dreg)),
                    src,
                    width: *width,
                }
            }
            Inst::Call {
                callee,
                args,
                width,
                ..
            } => {
                let args = args
                    .iter()
                    .map(|a| op(self, by_sym, &mut cursors, nf, a, None))
                    .collect();
                Inst::Call {
                    callee: *callee,
                    ret: def_info.map(|d| Loc::Real(d.1.unwrap())),
                    args,
                    width: *width,
                }
            }
            Inst::Branch {
                cond,
                lhs,
                rhs,
                width,
                then_blk,
                else_blk,
            } => {
                let lhs = op(self, by_sym, &mut cursors, nf, lhs, None);
                let rhs = op(self, by_sym, &mut cursors, nf, rhs, None);
                Inst::Branch {
                    cond: *cond,
                    lhs,
                    rhs,
                    width: *width,
                    then_blk: *then_blk,
                    else_blk: *else_blk,
                }
            }
            Inst::Ret { val } => Inst::Ret {
                val: val
                    .as_ref()
                    .map(|v| op(self, by_sym, &mut cursors, nf, v, None)),
            },
            Inst::Jump { .. } | Inst::SpillLoad { .. } | Inst::SpillStore { .. } => inst.clone(),
        }
    }

    /// True if the `cursor`-th role of `sym`'s event can use register `r`
    /// (without advancing the cursor).
    fn role_holds(
        &self,
        by_sym: &HashMap<SymId, usize>,
        sym: SymId,
        cursor: usize,
        r: PhysReg,
    ) -> bool {
        let ev = &self.built.events[by_sym[&sym]];
        let regs = self.regs(sym);
        let Some(rv) = ev.roles.get(cursor) else {
            return false;
        };
        if self.ov(rv.mem) {
            return false;
        }
        regs.iter()
            .position(|x| *x == r)
            .is_some_and(|i| self.ov(rv.use_r[i]))
    }

    fn rewrite_addr(
        &mut self,
        addr: &regalloc_ir::Address,
        by_sym: &HashMap<SymId, usize>,
        cursors: &mut HashMap<SymId, usize>,
    ) -> regalloc_ir::Address {
        use regalloc_ir::Address;
        match addr {
            Address::Global(g) => Address::Global(*g),
            Address::Indirect { base, index, disp } => {
                let base = base.map(|b| match b {
                    Loc::Sym(s) => match self.role_choice(by_sym, cursors, s, None) {
                        OperandChoice::Reg(r) => Loc::Real(r),
                        OperandChoice::Mem => unreachable!("addresses never fold to memory"),
                    },
                    real => real,
                });
                let index = index.map(|(i, sc)| {
                    let l = match i {
                        Loc::Sym(s) => match self.role_choice(by_sym, cursors, s, None) {
                            OperandChoice::Reg(r) => Loc::Real(r),
                            OperandChoice::Mem => unreachable!("addresses never fold to memory"),
                        },
                        real => real,
                    };
                    (l, sc)
                });
                Address::Indirect {
                    base,
                    index,
                    disp: *disp,
                }
            }
        }
    }
}

enum OperandChoice {
    Reg(PhysReg),
    Mem,
}
