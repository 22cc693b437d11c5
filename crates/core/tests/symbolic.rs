//! Property tests of the portable symbolic-solution representation:
//! `lower ∘ lift` is the identity on feasible assignments, serialization
//! round-trips, self-projection reproduces the original vector, and
//! projecting onto a mutated or entirely foreign function either yields
//! a feasible incumbent or is cleanly rejected — never a panic.
//!
//! Functions are generated with a seeded local builder rather than the
//! `regalloc-workloads` suites (workloads depends on core, so core's
//! tests cannot depend on workloads).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regalloc_core::build::BuiltModel;
use regalloc_core::warm::spill_everything_solution;
use regalloc_core::{analysis, build, CostModel, EventDecision, RoleDecision, SymbolicSolution};
use regalloc_ilp::{solve_seeded, Deadline, Incumbent, SolverConfig, Status};
use regalloc_ir::{
    BinOp, Cfg, Cond, Function, FunctionBuilder, Liveness, LoopInfo, Operand, Profile, SymId, UnOp,
    Width,
};
use regalloc_x86::X86Machine;

/// Build the full model (plus its analysis) the way the allocator does.
fn model(f: &Function, m: &X86Machine) -> (analysis::Analysis, BuiltModel) {
    let cfg = Cfg::new(f);
    let loops = LoopInfo::new(f, &cfg);
    let profile = Profile::estimate(f, &cfg, &loops);
    let live = Liveness::new(f, &cfg);
    let a = analysis::analyze(f, &cfg, &live, m);
    let built = build::build_model(f, &cfg, &profile, &a, m, &CostModel::paper());
    (a, built)
}

/// A small random 32-bit function: a handful of symbolics, a parameter,
/// a run of random arithmetic, an optional diamond, a store and a return.
fn random_function(seed: u64) -> Function {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = FunctionBuilder::new("prop");
    let n = rng.gen_range(2..6usize);
    let syms: Vec<SymId> = (0..n).map(|_| b.new_sym(Width::B32)).collect();
    let p = b.new_param("p", Width::B32);
    b.load_global(syms[0], p);
    for &s in &syms[1..] {
        b.load_imm(s, rng.gen_range(1..50));
    }
    let ops = |b: &mut FunctionBuilder, rng: &mut SmallRng, count: usize| {
        for _ in 0..count {
            let d = syms[rng.gen_range(0..n)];
            let l = syms[rng.gen_range(0..n)];
            match rng.gen_range(0..4) {
                0 => b.bin(
                    BinOp::Add,
                    d,
                    Operand::sym(l),
                    Operand::Imm(rng.gen_range(1..20)),
                ),
                1 => b.bin(
                    BinOp::Mul,
                    d,
                    Operand::sym(l),
                    Operand::sym(syms[rng.gen_range(0..n)]),
                ),
                2 => b.un(UnOp::Neg, d, Operand::sym(l)),
                _ => b.bin(
                    BinOp::Sub,
                    d,
                    Operand::sym(l),
                    Operand::Imm(rng.gen_range(1..9)),
                ),
            }
        }
    };
    let k = rng.gen_range(2..8);
    ops(&mut b, &mut rng, k);
    if rng.gen_bool(0.5) {
        let then_blk = b.block();
        let else_blk = b.block();
        let join = b.block();
        b.branch(
            Cond::Lt,
            Operand::sym(syms[0]),
            Operand::Imm(10),
            Width::B32,
            then_blk,
            else_blk,
        );
        b.switch_to(then_blk);
        let k = rng.gen_range(1..4);
        ops(&mut b, &mut rng, k);
        b.jump(join);
        b.switch_to(else_blk);
        let k = rng.gen_range(1..4);
        ops(&mut b, &mut rng, k);
        b.jump(join);
        b.switch_to(join);
    }
    b.store_global(p, Operand::sym(syms[0]));
    b.ret(Some(syms[rng.gen_range(0..n)]));
    b.finish()
}

/// Change every non-zero `LoadImm` constant, leaving the shape intact —
/// the same mutation the driver's `--perturb` applies to whole suites.
fn mutate_immediates(f: &Function) -> Function {
    let mut out = f.clone();
    let blocks: Vec<_> = out.block_ids().collect();
    for bid in blocks {
        for inst in &mut out.block_mut(bid).insts {
            if let regalloc_ir::Inst::LoadImm { imm, .. } = inst {
                if *imm != 0 {
                    *imm = (*imm % 97) + 1;
                }
            }
        }
    }
    out
}

/// Feasible assignments worth testing: the spill-everything warm start
/// and, when the solver produces one, its own (optimal or incumbent)
/// solution.
fn feasible_assignments(f: &Function, m: &X86Machine, built: &BuiltModel) -> Vec<Vec<bool>> {
    let (a, _) = model(f, m);
    let mut out = Vec::new();
    let warm = spill_everything_solution(f, &a, built, m)
        .and_then(|s| built.lower(&s))
        .expect("x86 admits the spill-everything allocation");
    // Tight limits keep the whole property suite fast; an incumbent cut
    // off early is still feasible, which is all these tests need.
    let cfg = SolverConfig {
        time_limit: std::time::Duration::from_secs(1),
        lp_iter_limit: 10_000,
        node_limit: 300,
        max_rows: 6_000,
        ..SolverConfig::default()
    };
    let seed = Incumbent {
        source: "spill",
        values: warm.clone(),
    };
    let sol = solve_seeded(&built.model, &cfg, &[seed], Deadline::unlimited());
    if matches!(sol.status, Status::Optimal | Status::Feasible) {
        out.push(sol.values);
    }
    out.push(warm);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `lower(lift(v)) == v` for every feasible assignment, and the
    /// serialized text round-trips to the same symbolic solution.
    #[test]
    fn lift_lower_identity_and_serde_round_trip(seed in 0u64..10_000) {
        let m = X86Machine::pentium();
        let f = random_function(seed);
        let (_, built) = model(&f, &m);
        for v in feasible_assignments(&f, &m, &built) {
            prop_assert!(built.model.is_feasible(&v), "assignment under test is feasible");
            let sym = built.lift(&v);
            let lowered = built.lower(&sym);
            prop_assert_eq!(lowered.as_deref(), Some(v.as_slice()), "lower ∘ lift != id");

            let text = sym.serialize();
            let back = SymbolicSolution::deserialize(&text);
            prop_assert_eq!(back.as_ref(), Some(&sym), "serialize round-trip");
        }
    }

    /// Projecting a function's own lifted solution back onto its own
    /// model reproduces the original vector regardless of the base.
    #[test]
    fn self_projection_is_identity(seed in 0u64..10_000) {
        let m = X86Machine::pentium();
        let f = random_function(seed);
        let (_, built) = model(&f, &m);
        let all_false = vec![false; built.model.num_vars()];
        for v in feasible_assignments(&f, &m, &built) {
            let sym = built.lift(&v);
            prop_assert_eq!(&built.project(&sym, &all_false), &v);
        }
    }

    /// Projection onto a mutated copy (immediates changed, shape kept)
    /// maps every event and yields an accepted incumbent; projection
    /// onto an unrelated function never panics and is either feasible or
    /// cleanly gated out by the feasibility check.
    #[test]
    fn projection_is_total_and_gated(seed in 0u64..10_000) {
        let m = X86Machine::pentium();
        let f = random_function(seed);
        let (_, built) = model(&f, &m);
        let donor = built.lift(&feasible_assignments(&f, &m, &built).remove(0));

        // Same shape: the projection lands exactly where the donor was.
        let mutated = mutate_immediates(&f);
        let (ma, mbuilt) = model(&mutated, &m);
        let base = spill_everything_solution(&mutated, &ma, &mbuilt, &m)
            .and_then(|s| mbuilt.lower(&s))
            .expect("spill-everything base");
        let proj = mbuilt.project(&donor, &base);
        prop_assert_eq!(proj.len(), mbuilt.model.num_vars());
        prop_assert!(
            mbuilt.model.is_feasible(&proj),
            "an immediate-only mutation keeps the donor solution feasible"
        );

        // Foreign function: tolerance, not correctness, is the contract.
        let other = random_function(seed.wrapping_add(7_919));
        let (oa, obuilt) = model(&other, &m);
        let obase = spill_everything_solution(&other, &oa, &obuilt, &m)
            .and_then(|s| obuilt.lower(&s))
            .expect("spill-everything base");
        let oproj = obuilt.project(&donor, &obase);
        prop_assert_eq!(oproj.len(), obuilt.model.num_vars());
        // Either outcome is legal; the call must simply never panic and
        // the gate must be decidable.
        let _ = obuilt.model.is_feasible(&oproj);
    }

    /// The worst donor imaginable: every admissible register claimed for
    /// every action at every event. Any action list the target model
    /// does not carry at that event (empty `load`, shorter `def`, …)
    /// must reject the decision — never index out of bounds. This is the
    /// exact shape that crashed projection against a real suite cache
    /// before the bounds were checked.
    #[test]
    fn adversarial_donor_decisions_never_panic(seed in 0u64..10_000) {
        let m = X86Machine::pentium();
        let f = random_function(seed);
        let (a, built) = model(&f, &m);
        let decisions: Vec<_> = built
            .keys
            .iter()
            .enumerate()
            .map(|(ei, &k)| {
                let regs = built.event_regs[ei].clone();
                let role = RoleDecision {
                    regs: regs.clone(),
                    mem: true,
                    ends: regs.clone(),
                };
                let d = EventDecision {
                    join_regs: regs.clone(),
                    join_mem: true,
                    loads: regs.clone(),
                    remats: regs.clone(),
                    loads_post: regs.clone(),
                    remats_post: regs.clone(),
                    store: true,
                    def: regs.first().copied(),
                    combined: true,
                    copies: regs.clone(),
                    deletes: regs.clone(),
                    roles: vec![role; built.events[ei].roles.len()],
                    out_regs: regs.clone(),
                    out_mem: true,
                };
                (k, d)
            })
            .collect();
        let donor = SymbolicSolution::from_decisions(decisions);
        let base = spill_everything_solution(&f, &a, &built, &m)
            .and_then(|s| built.lower(&s))
            .expect("spill-everything base");
        // Same model, foreign model: totality is the whole contract.
        let proj = built.project(&donor, &base);
        prop_assert_eq!(proj.len(), built.model.num_vars());
        let _ = built.model.is_feasible(&proj);
        let _ = built.lower(&donor);
        let other = random_function(seed.wrapping_add(31));
        let (_, obuilt) = model(&other, &m);
        let oproj = obuilt.project(&donor, &vec![false; obuilt.model.num_vars()]);
        prop_assert_eq!(oproj.len(), obuilt.model.num_vars());
        let _ = obuilt.model.is_feasible(&oproj);
    }
}
