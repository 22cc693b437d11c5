//! Property-based guarantees for proof-carrying solves, over arbitrary
//! seeded workloads:
//!
//! 1. every proof the solver emits survives the exact-rational audit;
//! 2. every seeded perturbation of such a proof is rejected;
//! 3. switching auditing on never changes the allocation, and the
//!    deterministic event stream differs only by the audit's own
//!    events.

use proptest::prelude::*;

use regalloc_core::pipeline::RobustAllocator;
use regalloc_core::IpAllocator;
use regalloc_fuzz::perturb_certificate;
use regalloc_ilp::{solve_seeded, Deadline, SolverConfig, Status};
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
