//! Property-based guarantees for proof-carrying solves, over arbitrary
//! seeded workloads:
//!
//! 1. every proof the solver emits survives the exact-rational audit;
//! 2. every seeded perturbation of such a proof is rejected;
//! 3. switching auditing on never changes the allocation, and the
//!    deterministic event stream differs only by the audit's own
//!    events;
//!
//! plus a fixed check that a proof closed at the root, whose one leaf
//! carries the dive's first relaxation's duals, verifies.

use proptest::prelude::*;

use regalloc_core::pipeline::RobustAllocator;
use regalloc_core::IpAllocator;
use regalloc_fuzz::perturb_certificate;
use regalloc_ilp::cert::Claim;
use regalloc_ilp::{solve_seeded, solve_seeded_traced, Deadline, Incumbent, SolverConfig, Status};
use regalloc_obs::{Event, Phase, Tracer};
use regalloc_workloads::{fuzz_function, GenConfig};
use regalloc_x86::X86Machine;

/// A solved model with an emitted certificate, or `None` when the seed's
/// function is refused (64-bit) or the deterministic limits close no
/// proof — both outcomes claim nothing and there is nothing to audit.
/// Small functions keep the proof rate high (roughly 40% of seeds at
/// 4-6 instructions close within the deterministic node limit), so the
/// properties engage on real certificates most runs.
fn proof_for(
    machine: &X86Machine,
    seed: u64,
    size: usize,
) -> Option<(regalloc_ilp::model::Model, regalloc_ilp::Solution)> {
    let f = fuzz_function(
        "pt",
        seed,
        &GenConfig {
            target_insts: size,
            ..Default::default()
        },
    );
    let built = IpAllocator::new(machine).build_only(&f).ok()?;
    let cfg = SolverConfig {
        emit_certificates: true,
        ..SolverConfig::deterministic()
    };
    let sol = solve_seeded(&built.model, &cfg, &[], Deadline::unlimited());
    matches!(sol.status, Status::Optimal | Status::Infeasible).then_some((built.model, sol))
}

/// A search that closes at its root emits a one-leaf proof whose
/// multipliers are the dive's first relaxation's, handed to the root node
/// rather than recomputed there; that proof must verify like any other.
#[test]
fn root_leaf_proofs_verify() {
    // Odd-cycle packing on 7 vertices: the root relaxation is fractional
    // (-3.5), and its bound rounds up to the seeded optimum (-3).
    let mut seeded = regalloc_ilp::Model::new();
    let v: Vec<_> = (0..7)
        .map(|i| seeded.add_var(-1.0, format!("x{i}")))
        .collect();
    for i in 0..7 {
        seeded.add_le(vec![(v[i], 1.0), (v[(i + 1) % 7], 1.0)], 1.0);
    }
    let optimum = Incumbent {
        source: "exact",
        values: (0..7).map(|i| i % 2 == 0 && i < 6).collect(),
    };
    // Exactly one of three: the root relaxation is integral, so the dive
    // lands on the optimum and the root's bound meets it.
    let mut integral = regalloc_ilp::Model::new();
    let w: Vec<_> = [5.0, 1.0, 3.0]
        .iter()
        .map(|&c| integral.add_var(c, "w"))
        .collect();
    integral.add_eq(w.iter().map(|&x| (x, 1.0)).collect(), 1.0);

    let cfg = SolverConfig {
        emit_certificates: true,
        ..SolverConfig::deterministic()
    };
    for (name, model, seeds) in [
        ("seeded optimum", &seeded, vec![optimum]),
        ("integral root", &integral, vec![]),
    ] {
        let tracer = Tracer::on();
        let sol = solve_seeded_traced(model, &cfg, &seeds, Deadline::unlimited(), &tracer);
        let trace = tracer.finish("root");
        assert_eq!(sol.status, Status::Optimal, "{name}");
        assert_eq!(sol.nodes, 1, "{name}: the root closes the search");
        assert!(
            trace.events.iter().any(|e| matches!(
                e,
                Event::Node {
                    index: 1,
                    lp_iters: 0,
                    outcome: "pruned",
                    ..
                }
            )),
            "{name}: the root is a pruned leaf relaxed by the dive"
        );
        let cert = sol
            .certificate
            .as_ref()
            .expect("a closed search is certified");
        assert_eq!(cert.leaves.len(), 1, "{name}");
        assert!(
            matches!(&cert.leaves[0].claim, Claim::Bound { duals } if duals.len() == model.num_rows()),
            "{name}: the root leaf carries the dive's duals"
        );
        let out = regalloc_audit::audit_solution(model, &sol);
        assert_eq!(
            out.verdict,
            regalloc_audit::Verdict::Verified,
            "{name}: {:?}",
            out.diagnostics
        );
    }
}

/// Audit span markers and certificate events — the only trace difference
/// auditing is allowed to introduce.
fn is_audit_event(e: &Event) -> bool {
    matches!(
        e,
        Event::SpanStart {
            phase: Phase::Audit
        } | Event::SpanEnd {
            phase: Phase::Audit
        } | Event::CertificateChecked { .. }
            | Event::CertificateRejected { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1) Soundness of emission: a proof claimed is a proof checked.
    #[test]
    fn emitted_proofs_always_verify(seed in any::<u64>(), size in 3usize..8) {
        let machine = X86Machine::pentium();
        if let Some((model, sol)) = proof_for(&machine, seed, size) {
            let out = regalloc_audit::audit_solution(&model, &sol);
            prop_assert_eq!(
                out.verdict,
                regalloc_audit::Verdict::Verified,
                "seed {:#x}: {:?}", seed, out.diagnostics
            );
        }
    }

    /// (2) Sensitivity: one seeded perturbation is enough to sink the
    /// proof.
    #[test]
    fn any_perturbation_is_rejected(seed in any::<u64>(), pseed in any::<u64>(), size in 3usize..8) {
        let machine = X86Machine::pentium();
        if let Some((model, sol)) = proof_for(&machine, seed, size) {
            let cert = sol.certificate.as_ref().expect("proof claims carry certificates");
            if let Some((forged, kind)) = perturb_certificate(&model, cert, pseed) {
                let out = regalloc_audit::audit_certificate(&model, &forged);
                prop_assert_eq!(
                    out.verdict,
                    regalloc_audit::Verdict::Rejected,
                    "seed {:#x} perturbation {:#x} ({}) survived", seed, pseed, kind
                );
            }
        }
    }

    /// (3) Observation only: auditing changes neither the allocation nor
    /// any non-audit trace event.
    #[test]
    fn auditing_never_changes_the_allocation(seed in any::<u64>()) {
        let machine = X86Machine::pentium();
        let f = fuzz_function("pt", seed, &GenConfig::fuzz());
        let run = |audit: bool| {
            let tracer = Tracer::on();
            let out = RobustAllocator::new(&machine)
                .with_solver_config(SolverConfig::deterministic())
                .with_budget(SolverConfig::deterministic().time_limit)
                .with_equivalence(0, 0)
                .with_audit(audit)
                .allocate_traced(&f, &tracer);
            (out, tracer.finish("pt"))
        };
        let (plain, plain_trace) = run(false);
        let (audited, audited_trace) = run(true);
        match (plain, audited) {
            (Ok(p), Ok(a)) => {
                prop_assert_eq!(p.report.rung, a.report.rung, "seed {:#x}", seed);
                prop_assert_eq!(&p.func, &a.func, "seed {:#x}", seed);
                prop_assert!(p.report.audit.is_none());
                prop_assert!(p.certificate.is_none());
                let strip = |t: &regalloc_obs::FunctionTrace| {
                    t.events.iter().filter(|e| !is_audit_event(e)).cloned().collect::<Vec<_>>()
                };
                prop_assert_eq!(
                    strip(&plain_trace),
                    strip(&audited_trace),
                    "seed {:#x}: non-audit event streams diverged", seed
                );
            }
            (Err(_), Err(_)) => {} // refused both ways (64-bit)
            (p, a) => prop_assert!(false, "seed {seed:#x}: audit changed the verdict: plain {:?} vs audited {:?}", p.is_ok(), a.is_ok()),
        }
    }
}
