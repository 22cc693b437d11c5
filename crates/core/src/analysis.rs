//! The ORA analysis module (§2): finds every point where a register-
//! allocation decision must be made.
//!
//! For each symbolic register the analysis produces a chain of *events* —
//! definitions, uses (with their syntactic roles), call crossings and
//! block entries — connected by *segments*, the maximal intervals over
//! which an allocation cannot usefully change. The model builder creates
//! decision variables per (segment × candidate register) and per event
//! action, so segments are exactly the granularity of the paper's
//! symbolic-register networks.
//!
//! The analysis also classifies symbolic registers:
//!
//! * *rematerialisable* — single definition by a constant load, eligible
//!   for rematerialisation instead of reload;
//! * *predefined memory* (§5.5) — single definition by a load of a
//!   non-aliased parameter slot that is accessed nowhere else, eligible
//!   for home-location coalescing (the defining load is deleted, the
//!   symbolic starts life in memory, and its spill slot is the
//!   parameter's home location).

use std::collections::HashMap;

use regalloc_ir::{BlockId, Cfg, Function, GlobalId, Inst, Liveness, Loc, SymId, UseRole, Width};
use regalloc_machine::Machine;

/// A segment identifier: one maximal interval of one symbolic register's
/// live range over which allocation is constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SegId(pub u32);

impl SegId {
    /// Index into dense per-segment arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One register-allocation event of one symbolic register.
#[derive(Clone, Debug)]
pub struct Event {
    /// The symbolic register.
    pub sym: SymId,
    /// Containing block.
    pub block: BlockId,
    /// Instruction index within the block (`None` for block-entry events).
    pub inst: Option<usize>,
    /// Use roles of `sym` at this instruction (may be several).
    pub roles: Vec<UseRole>,
    /// True if the instruction defines `sym`.
    pub defines: bool,
    /// True if the instruction is a call (caller-saved registers die
    /// across it).
    pub call: bool,
    /// True for the deleted definition of a predefined memory symbolic
    /// (§5.5): no register definition happens; the value simply exists in
    /// its home memory location.
    pub predef_def: bool,
    /// Incoming segment (`None` at a chain start).
    pub gin: Option<SegId>,
    /// Outgoing segment (`None` when the value is dead afterwards).
    pub gout: Option<SegId>,
}

/// Events at one program point, plus the symbolics that are live across
/// the point without an event (needed by the single-symbolic occupancy
/// constraints of §5.3).
#[derive(Clone, Debug, Default)]
pub struct EventGroup {
    /// Instruction index (`None` for the block-entry group).
    pub inst: Option<usize>,
    /// Indices into [`Analysis::events`].
    pub events: Vec<usize>,
    /// `(sym, segment)` for live symbolics with no event here.
    pub through: Vec<(SymId, SegId)>,
}

/// Output of the analysis module.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All events.
    pub events: Vec<Event>,
    /// Event groups per block, in program order (entry group first when
    /// present).
    pub block_groups: Vec<Vec<EventGroup>>,
    /// Segment live at each block's exit, per symbolic.
    pub exit_seg: HashMap<(BlockId, SymId), SegId>,
    /// Owning symbolic of each segment.
    pub seg_sym: Vec<SymId>,
    /// Rematerialisation value per symbolic (`Some(imm)` when the single
    /// definition is `LoadImm imm`).
    pub remat: Vec<Option<i64>>,
    /// §5.5 home-coalescing target per symbolic.
    pub predefined: Vec<Option<GlobalId>>,
}

/// Classify symbolics: definition counts, rematerialisable constants,
/// predefined-memory candidates.
fn classify<M: Machine + ?Sized>(
    f: &Function,
    _machine: &M,
) -> (Vec<Option<i64>>, Vec<Option<GlobalId>>) {
    let ns = f.num_syms();
    let mut def_count = vec![0u32; ns];
    let mut def_inst: Vec<Option<Inst>> = vec![None; ns];
    let mut global_access = vec![0u32; f.globals().len()];
    for (_, _, inst) in f.insts() {
        if let Some(s) = inst.sym_def() {
            def_count[s.index()] += 1;
            def_inst[s.index()] = Some(inst.clone());
        }
        match inst {
            Inst::Load {
                addr: regalloc_ir::Address::Global(g),
                ..
            }
            | Inst::Store {
                addr: regalloc_ir::Address::Global(g),
                ..
            } => global_access[*g as usize] += 1,
            _ => {}
        }
    }

    let mut remat = vec![None; ns];
    let mut predefined = vec![None; ns];
    for s in f.sym_ids() {
        if def_count[s.index()] != 1 {
            continue;
        }
        match &def_inst[s.index()] {
            Some(Inst::LoadImm { imm, .. }) => remat[s.index()] = Some(*imm),
            Some(Inst::Load {
                addr: regalloc_ir::Address::Global(g),
                ..
            }) => {
                let slot = f.global(*g);
                // §5.5 conditions, conservatively: (1) defined by a load of
                // the value; (2) no interference — guaranteed by requiring
                // the defining load to be the global's only access; (3)
                // not aliased. Restricted to parameter slots because a
                // parameter's home is caller-dead after return, so writing
                // spills into it is invisible; a true global's final value
                // is observable.
                if slot.is_param && !slot.aliased && global_access[*g as usize] == 1 {
                    predefined[s.index()] = Some(*g);
                }
            }
            _ => {}
        }
    }
    (remat, predefined)
}

/// Run the analysis for `f`.
pub fn analyze<M: Machine + ?Sized>(
    f: &Function,
    cfg: &Cfg,
    live: &Liveness,
    machine: &M,
) -> Analysis {
    let (remat, predefined) = classify(f, machine);
    let mut a = Analysis {
        block_groups: vec![Vec::new(); f.num_blocks()],
        remat,
        predefined,
        ..Default::default()
    };

    let new_seg = |a: &mut Analysis, s: SymId| -> SegId {
        let id = SegId(a.seg_sym.len() as u32);
        a.seg_sym.push(s);
        id
    };

    for &b in cfg.rpo() {
        let live_before = live.live_before_insts(f, b);
        let live_out = live.live_out(b);
        let insts = &f.block(b).insts;
        // Current segment per live symbolic.
        let mut cur: HashMap<SymId, SegId> = HashMap::new();
        let mut groups: Vec<EventGroup> = Vec::new();

        // Block-entry events for live-in symbolics.
        let live_in: Vec<SymId> = live.live_in(b).iter().map(|i| SymId(i as u32)).collect();
        if !live_in.is_empty() {
            let mut g = EventGroup {
                inst: None,
                ..Default::default()
            };
            for &s in &live_in {
                let seg = new_seg(&mut a, s);
                cur.insert(s, seg);
                g.events.push(a.events.len());
                a.events.push(Event {
                    sym: s,
                    block: b,
                    inst: None,
                    roles: Vec::new(),
                    defines: false,
                    call: false,
                    predef_def: false,
                    gin: None, // resolved against predecessor exits by the builder
                    gout: Some(seg),
                });
            }
            groups.push(g);
        }

        for (i, inst) in insts.iter().enumerate() {
            // Gather uses by symbolic.
            let mut roles: HashMap<SymId, Vec<UseRole>> = HashMap::new();
            let mut order: Vec<SymId> = Vec::new();
            inst.visit_uses(&mut |l, role| {
                if let Loc::Sym(s) = l {
                    let e = roles.entry(s).or_default();
                    if e.is_empty() {
                        order.push(s);
                    }
                    e.push(role);
                }
            });
            let def = inst.sym_def();
            let is_call = matches!(inst, Inst::Call { .. });

            let live_after: &regalloc_ir::BitSet = if i + 1 < insts.len() {
                &live_before[i + 1]
            } else {
                live_out
            };

            // Symbolics needing an event here: used, defined, or live
            // across a call.
            let mut event_syms: Vec<SymId> = order.clone();
            if let Some(d) = def {
                if !event_syms.contains(&d) {
                    event_syms.push(d);
                }
            }
            if is_call {
                for sidx in live_after.iter() {
                    let s = SymId(sidx as u32);
                    if Some(s) != def && !event_syms.contains(&s) {
                        event_syms.push(s);
                    }
                }
            }
            if event_syms.is_empty() {
                continue;
            }

            let mut g = EventGroup {
                inst: Some(i),
                ..Default::default()
            };
            for &s in &event_syms {
                let defines = def == Some(s);
                let gin = cur.get(&s).copied();
                let lives_on = live_after.contains(s.index());
                let gout = if lives_on {
                    let seg = new_seg(&mut a, s);
                    cur.insert(s, seg);
                    Some(seg)
                } else {
                    cur.remove(&s);
                    None
                };
                let predef_def = defines && a.predefined[s.index()].is_some();
                g.events.push(a.events.len());
                a.events.push(Event {
                    sym: s,
                    block: b,
                    inst: Some(i),
                    roles: roles.get(&s).cloned().unwrap_or_default(),
                    defines,
                    call: is_call,
                    predef_def,
                    gin,
                    gout,
                });
            }
            // Live-through symbolics (no event at this instruction).
            for (&s, &seg) in &cur {
                if !event_syms.contains(&s) {
                    g.through.push((s, seg));
                }
            }
            g.through.sort_by_key(|(s, _)| *s);
            groups.push(g);
        }

        for sidx in live_out.iter() {
            let s = SymId(sidx as u32);
            if let Some(&seg) = cur.get(&s) {
                a.exit_seg.insert((b, s), seg);
            }
        }
        a.block_groups[b.index()] = groups;
    }
    a
}

/// The width class a symbolic register allocates in.
pub fn sym_width(f: &Function, s: SymId) -> Width {
    f.sym_width(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::{BinOp, Cond, FunctionBuilder, Operand};
    use regalloc_x86::X86Machine;

    fn analyze_fn(f: &Function) -> Analysis {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        analyze(f, &cfg, &live, &X86Machine::pentium())
    }

    #[test]
    fn straightline_events() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        b.load_imm(x, 3);
        b.bin(BinOp::Add, y, Operand::sym(x), Operand::sym(x));
        b.ret(Some(y));
        let f = b.finish();
        let a = analyze_fn(&f);
        // Events: def x, (use x ×2 + def y), use y at ret.
        assert_eq!(a.events.len(), 4);
        let def_x = &a.events[0];
        assert!(def_x.defines && def_x.gin.is_none() && def_x.gout.is_some());
        let use_x = a
            .events
            .iter()
            .find(|e| e.sym == x && !e.defines && !e.roles.is_empty())
            .unwrap();
        assert_eq!(use_x.roles.len(), 2, "both operand positions recorded");
        assert!(use_x.gout.is_none(), "x dies at the add");
        let use_y = a.events.iter().find(|e| e.sym == y && !e.defines).unwrap();
        assert_eq!(use_y.roles, vec![UseRole::RetVal]);
    }

    #[test]
    fn remat_classification() {
        let mut b = FunctionBuilder::new("f");
        let k = b.new_sym(Width::B32);
        let v = b.new_sym(Width::B32);
        b.load_imm(k, 7);
        b.bin(BinOp::Add, v, Operand::sym(k), Operand::Imm(1));
        b.bin(BinOp::Add, k, Operand::sym(v), Operand::sym(k)); // redefines k
        b.ret(Some(k));
        let f = b.finish();
        let a = analyze_fn(&f);
        assert_eq!(a.remat[k.index()], None, "redefined: not rematerialisable");
        assert_eq!(a.remat[v.index()], None, "not constant-defined");
        // A single-def constant is rematerialisable.
        let mut b2 = FunctionBuilder::new("g");
        let c = b2.new_sym(Width::B32);
        b2.load_imm(c, 42);
        b2.ret(Some(c));
        let a2 = analyze_fn(&b2.finish());
        assert_eq!(a2.remat[c.index()], Some(42));
    }

    #[test]
    fn predefined_memory_classification() {
        let mut b = FunctionBuilder::new("f");
        let p = b.new_param("p", Width::B32);
        let q = b.new_param("q", Width::B32);
        let g = b.new_global("G", Width::B32, 0);
        let a1 = b.new_sym(Width::B32);
        let a2 = b.new_sym(Width::B32);
        let a3 = b.new_sym(Width::B32);
        let t = b.new_sym(Width::B32);
        b.load_global(a1, p); // unique access to param p: candidate
        b.load_global(a2, q);
        b.load_global(t, q); // second access to q: not a candidate
        b.load_global(a3, g); // non-param global: not a candidate
        b.bin(BinOp::Add, t, Operand::sym(a1), Operand::sym(a2));
        b.bin(BinOp::Add, t, Operand::sym(t), Operand::sym(a3));
        b.ret(Some(t));
        let f = b.finish();
        let a = analyze_fn(&f);
        assert_eq!(a.predefined[a1.index()], Some(p));
        assert_eq!(a.predefined[a2.index()], None);
        assert_eq!(a.predefined[a3.index()], None);
    }

    #[test]
    fn aliased_param_not_predefined() {
        let mut b = FunctionBuilder::new("f");
        let p = b.new_param("p", Width::B32);
        b.mark_aliased(p);
        let x = b.new_sym(Width::B32);
        b.load_global(x, p);
        b.ret(Some(x));
        let f = b.finish();
        let a = analyze_fn(&f);
        assert_eq!(a.predefined[x.index()], None, "§5.5 condition 3");
        // The load event is therefore a normal definition.
        assert!(!a.events[0].predef_def);
    }

    #[test]
    fn call_crossing_creates_event() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_sym(Width::B32);
        let r = b.new_sym(Width::B32);
        b.load_imm(x, 5);
        b.call(1, Some(r), vec![]);
        b.bin(BinOp::Add, r, Operand::sym(r), Operand::sym(x));
        b.ret(Some(r));
        let f = b.finish();
        let a = analyze_fn(&f);
        let cross = a
            .events
            .iter()
            .find(|e| e.sym == x && e.call)
            .expect("x live across the call");
        assert!(!cross.defines && cross.roles.is_empty());
        assert!(cross.gin.is_some() && cross.gout.is_some());
        // r is defined by the call, not crossing it.
        let rdef = a.events.iter().find(|e| e.sym == r && e.defines).unwrap();
        assert!(rdef.call);
        assert!(rdef.gin.is_none());
    }

    #[test]
    fn loop_liveness_produces_entry_events_and_exit_segs() {
        let mut b = FunctionBuilder::new("loop");
        let i = b.new_sym(Width::B32);
        let head = b.block();
        let body = b.block();
        let exit = b.block();
        b.load_imm(i, 0);
        b.jump(head);
        b.switch_to(head);
        b.branch(
            Cond::Lt,
            Operand::sym(i),
            Operand::Imm(10),
            Width::B32,
            body,
            exit,
        );
        b.switch_to(body);
        b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let f = b.finish();
        let a = analyze_fn(&f);
        // Entry events in head, body, exit.
        for blk in [head, body, exit] {
            let groups = &a.block_groups[blk.index()];
            assert!(
                groups
                    .first()
                    .is_some_and(|g| g.inst.is_none() && !g.events.is_empty()),
                "block {blk} should start with an entry group"
            );
        }
        // Exit segments exist wherever i is live-out.
        assert!(a.exit_seg.contains_key(&(regalloc_ir::BlockId(0), i)));
        assert!(a.exit_seg.contains_key(&(head, i)));
        assert!(a.exit_seg.contains_key(&(body, i)));
        assert!(!a.exit_seg.contains_key(&(exit, i)));
    }

    #[test]
    fn through_symbolics_recorded() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        let z = b.new_sym(Width::B32);
        b.load_imm(x, 1); // x defined
        b.load_imm(y, 2); // x live through this instruction
        b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
        b.ret(Some(z));
        let f = b.finish();
        let a = analyze_fn(&f);
        let g1 = &a.block_groups[0][1]; // def y group
        assert_eq!(g1.through.len(), 1);
        assert_eq!(g1.through[0].0, x);
    }
}
