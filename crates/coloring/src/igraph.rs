//! Interference graph, conservative coalescing and optimistic coloring.

use std::collections::{HashMap, HashSet};

use regalloc_ir::{Cfg, Function, Inst, Liveness, Loc, PhysReg, Profile, SymId};
use regalloc_machine::Machine;

/// The interference graph over symbolic registers, with a union-find
/// overlay for coalesced copies.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    adj: Vec<HashSet<u32>>,
    /// Union-find parent (coalescing).
    parent: Vec<u32>,
    /// Allowed registers per representative.
    allowed: Vec<Vec<PhysReg>>,
    /// Spill priority: estimated dynamic reference count.
    refs: Vec<u64>,
    /// True for symbolics that are referenced at all.
    present: Vec<bool>,
}

impl Graph {
    /// Build the graph for `work`: interference edges, per-symbolic
    /// allowed-register sets (width class ∩ pins ∩ callee-saved when live
    /// across a call), and conservative copy coalescing.
    pub fn build<M: Machine + ?Sized>(
        work: &Function,
        cfg: &Cfg,
        live: &Liveness,
        machine: &M,
        pins: &HashMap<SymId, Vec<PhysReg>>,
    ) -> Graph {
        let n = work.num_syms();
        let mut g = Graph {
            n,
            adj: vec![HashSet::new(); n],
            parent: (0..n as u32).collect(),
            allowed: Vec::with_capacity(n),
            refs: vec![0; n],
            present: vec![false; n],
        };
        for s in work.sym_ids() {
            let mut a: Vec<PhysReg> = machine.regs_for_width(work.sym_width(s)).to_vec();
            if let Some(p) = pins.get(&s) {
                a.retain(|r| p.contains(r));
            }
            g.allowed.push(a);
        }

        // Interference edges and reference counts.
        let mut copies: Vec<(SymId, SymId)> = Vec::new();
        for b in work.block_ids() {
            let freq = profile_weight(cfg, b);
            let live_before = live.live_before_insts(work, b);
            let live_out = live.live_out(b);
            let insts = &work.block(b).insts;
            for (i, inst) in insts.iter().enumerate() {
                let live_after: &regalloc_ir::BitSet = if i + 1 < insts.len() {
                    &live_before[i + 1]
                } else {
                    live_out
                };
                inst.visit_uses(&mut |l, _| {
                    if let Loc::Sym(s) = l {
                        g.present[s.index()] = true;
                        g.refs[s.index()] += freq;
                    }
                });
                if let Some(d) = inst.sym_def() {
                    g.present[d.index()] = true;
                    g.refs[d.index()] += freq;
                    let copy_src = match inst {
                        Inst::Copy {
                            src: Loc::Sym(s), ..
                        } => Some(*s),
                        _ => None,
                    };
                    for li in live_after.iter() {
                        let l = SymId(li as u32);
                        if l != d && copy_src != Some(l) {
                            g.add_edge(d, l);
                        }
                    }
                    if let Some(s) = copy_src {
                        if s != d {
                            copies.push((d, s));
                        }
                    }
                    // A call definition interferes with everything live
                    // across the call even in the copy case.
                }
                // Values live across a call lose the caller-saved half of
                // their allowed set.
                if matches!(inst, Inst::Call { .. }) {
                    for li in live_after.iter() {
                        let l = SymId(li as u32);
                        if inst.sym_def() != Some(l) {
                            g.allowed[li].retain(|r| !machine.is_caller_saved(*r));
                        }
                    }
                }
            }
        }

        // Conservative (Briggs) coalescing of copy-related nodes.
        for (d, s) in copies {
            let (rd, rs) = (g.find(d), g.find(s));
            if rd == rs || g.interferes(rd, rs) {
                continue;
            }
            let inter: Vec<PhysReg> = g.allowed[rd.index()]
                .iter()
                .copied()
                .filter(|r| g.allowed[rs.index()].contains(r))
                .collect();
            if inter.is_empty() {
                continue;
            }
            let k = inter.len();
            // Briggs test: the merged node must have fewer than k
            // significant-degree neighbours.
            let merged: HashSet<u32> = g.adj[rd.index()]
                .union(&g.adj[rs.index()])
                .copied()
                .collect();
            let significant = merged
                .iter()
                .filter(|&&x| g.adj[x as usize].len() >= k)
                .count();
            if significant < k {
                g.union(rd, rs, inter);
            }
        }
        g
    }

    fn add_edge(&mut self, a: SymId, b: SymId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.adj[ra.index()].insert(rb.0);
            self.adj[rb.index()].insert(ra.0);
        }
    }

    /// The coalescing representative of `s`.
    pub fn find(&self, s: SymId) -> SymId {
        let mut x = s.0;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        SymId(x)
    }

    fn interferes(&self, a: SymId, b: SymId) -> bool {
        self.adj[a.index()].contains(&b.0)
    }

    fn union(&mut self, keep: SymId, merge: SymId, allowed: Vec<PhysReg>) {
        self.parent[merge.index()] = keep.0;
        let medges: Vec<u32> = self.adj[merge.index()].iter().copied().collect();
        for e in medges {
            self.adj[e as usize].remove(&merge.0);
            if e != keep.0 {
                self.adj[e as usize].insert(keep.0);
                self.adj[keep.index()].insert(e);
            }
        }
        self.adj[merge.index()].clear();
        self.refs[keep.index()] += self.refs[merge.index()];
        self.allowed[keep.index()] = allowed;
    }

    /// Optimistic Briggs coloring.
    ///
    /// # Errors
    ///
    /// Returns the representatives that failed to receive a register,
    /// ordered cheapest-to-spill first.
    pub fn color<M: Machine + ?Sized>(
        &self,
        machine: &M,
        work: &Function,
        _profile: &Profile,
    ) -> Result<HashMap<SymId, PhysReg>, Vec<SymId>> {
        let _ = work;
        // Representatives that actually appear.
        let reps: Vec<SymId> = (0..self.n as u32)
            .map(SymId)
            .filter(|s| self.find(*s) == *s && self.present[s.index()])
            .collect();

        // Simplify: repeatedly remove the node of minimal
        // (degree / allowed) pressure; push all (optimistic).
        let mut removed: Vec<bool> = vec![false; self.n];
        let mut degree: Vec<usize> = (0..self.n)
            .map(|i| {
                self.adj[i]
                    .iter()
                    .filter(|&&x| self.present[x as usize])
                    .count()
            })
            .collect();
        let mut stack: Vec<SymId> = Vec::with_capacity(reps.len());
        let mut remaining: Vec<SymId> = reps.clone();
        while !remaining.is_empty() {
            // Prefer guaranteed-colorable nodes (degree < k); otherwise
            // the cheapest spill candidate (low refs / high degree).
            let pick = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| {
                    let k = self.allowed[s.index()].len().max(1);
                    let safe = degree[s.index()] < k;
                    let cost = self.refs[s.index()] / (degree[s.index()] as u64 + 1);
                    (!safe as u64, cost)
                })
                .map(|(i, _)| i)
                .unwrap();
            let s = remaining.swap_remove(pick);
            removed[s.index()] = true;
            for &x in &self.adj[s.index()] {
                degree[x as usize] = degree[x as usize].saturating_sub(1);
            }
            stack.push(s);
        }

        // Select phase.
        let mut assignment: HashMap<SymId, PhysReg> = HashMap::new();
        let mut failed: Vec<SymId> = Vec::new();
        while let Some(s) = stack.pop() {
            let mut chosen = None;
            'regs: for &r in &self.allowed[s.index()] {
                for &nb in &self.adj[s.index()] {
                    if let Some(&nr) = assignment.get(&SymId(nb)) {
                        if machine.aliases(nr).contains(&r) || machine.aliases(r).contains(&nr) {
                            continue 'regs;
                        }
                    }
                }
                chosen = Some(r);
                break;
            }
            match chosen {
                Some(r) => {
                    assignment.insert(s, r);
                }
                None => failed.push(s),
            }
        }
        if failed.is_empty() {
            Ok(assignment)
        } else {
            failed.sort_by_key(|s| self.refs[s.index()]);
            Err(failed)
        }
    }
}

/// Loop-depth weight for spill priorities (mirrors the profile estimate
/// without re-deriving the full profile).
fn profile_weight(cfg: &Cfg, b: regalloc_ir::BlockId) -> u64 {
    // The caller has a real Profile; using reachability-only weights here
    // keeps the graph build independent. Spill ordering only needs a
    // rough priority; exact Table 3 numbers come from `SpillStats::measure`.
    if cfg.is_reachable(b) {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::{BinOp, FunctionBuilder, Operand, Width};
    use regalloc_x86::X86Machine;

    fn graph_for(f: &Function) -> Graph {
        let cfg = Cfg::new(f);
        let live = Liveness::new(f, &cfg);
        Graph::build(f, &cfg, &live, &X86Machine::pentium(), &HashMap::new())
    }

    #[test]
    fn simultaneously_live_values_interfere() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        let z = b.new_sym(Width::B32);
        b.load_imm(x, 1);
        b.load_imm(y, 2);
        b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
        b.ret(Some(z));
        let f = b.finish();
        let g = graph_for(&f);
        assert!(g.interferes(g.find(x), g.find(y)));
        assert!(!g.interferes(g.find(x), g.find(z)));
    }

    #[test]
    fn copy_source_does_not_interfere_and_coalesces() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        b.load_imm(x, 1);
        b.copy(y, x); // x dies
        b.ret(Some(y));
        let f = b.finish();
        let g = graph_for(&f);
        assert_eq!(g.find(x), g.find(y), "copy-related nodes coalesce");
    }

    #[test]
    fn coloring_small_graph_succeeds() {
        let mut b = FunctionBuilder::new("f");
        let syms: Vec<_> = (0..4).map(|_| b.new_sym(Width::B32)).collect();
        for (i, &s) in syms.iter().enumerate() {
            b.load_imm(s, i as i64);
        }
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(syms[0]), Operand::sym(syms[1]));
        b.bin(BinOp::Add, t, Operand::sym(t), Operand::sym(syms[2]));
        b.bin(BinOp::Add, t, Operand::sym(t), Operand::sym(syms[3]));
        b.ret(Some(t));
        let f = b.finish();
        let g = graph_for(&f);
        let m = X86Machine::pentium();
        let cfg = Cfg::new(&f);
        let loops = regalloc_ir::LoopInfo::new(&f, &cfg);
        let p = Profile::estimate(&f, &cfg, &loops);
        let colors = g.color(&m, &f, &p).expect("colorable");
        // Check pairwise consistency.
        for s1 in f.sym_ids() {
            for s2 in f.sym_ids() {
                let (r1, r2) = (g.find(s1), g.find(s2));
                if r1 != r2 && g.interferes(r1, r2) {
                    let c1 = colors[&r1];
                    let c2 = colors[&r2];
                    assert!(!m.aliases(c1).contains(&c2), "{s1}:{c1} vs {s2}:{c2}");
                }
            }
        }
    }

    #[test]
    fn pressure_overflow_reports_spills() {
        let mut b = FunctionBuilder::new("f");
        let syms: Vec<_> = (0..9).map(|_| b.new_sym(Width::B32)).collect();
        for (i, &s) in syms.iter().enumerate() {
            b.load_imm(s, i as i64);
        }
        let mut acc = b.new_sym(Width::B32);
        b.load_imm(acc, 0);
        for &s in &syms {
            let t = b.new_sym(Width::B32);
            b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
            acc = t;
        }
        b.ret(Some(acc));
        let f = b.finish();
        let g = graph_for(&f);
        let m = X86Machine::pentium();
        let cfg = Cfg::new(&f);
        let loops = regalloc_ir::LoopInfo::new(&f, &cfg);
        let p = Profile::estimate(&f, &cfg, &loops);
        assert!(g.color(&m, &f, &p).is_err(), "9 live values need spills");
    }
}
