//! The certificate-forgery drill: every optimality proof the fuzzer's
//! independent solver produces must verify, and every seeded
//! perturbation of such a proof must be *rejected* by the auditor. A
//! drill finding would mean a forged proof survived — an auditor blind
//! spot — so the expected campaign outcome here is silence.

use regalloc_fuzz::{
    case_functions, check_certificate, perturb_certificate, run_campaign, CaseKind, FuzzConfig,
};
use regalloc_ilp::{solve_seeded, Deadline, SolverConfig, Status};
use regalloc_x86::X86Machine;

fn drill_config(kind: CaseKind) -> FuzzConfig {
    FuzzConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        cases: 10,
        seed: 7,
        kind,
        fault: None,
        fault_cert: Some(3),
        equiv_runs: 2,
    }
}

/// Clean functions: proofs verify, and every perturbed proof is caught.
/// Only the IR generator is guaranteed to produce functions the
/// deterministic limits can prove optimal; C programs are larger and
/// may close no proof, which the oracle correctly treats as "nothing
/// claimed".
#[test]
fn perturbed_certificates_never_survive_the_auditor() {
    for kind in [CaseKind::Ir, CaseKind::C] {
        let report = run_campaign(&drill_config(kind));
        assert!(
            kind == CaseKind::C || report.proofs > 0,
            "{kind:?} drill audited no proofs — the oracle never engaged"
        );
        assert!(
            report.violations.is_empty(),
            "{kind:?} drill found auditor blind spots: {:?}",
            report
                .violations
                .iter()
                .map(|v| (&v.oracle, &v.detail))
                .collect::<Vec<_>>()
        );
    }
}

/// Each perturbation kind is exercised across seeds, and each one is
/// individually rejected — not just the mix the campaign happened to
/// pick.
#[test]
fn every_perturbation_kind_is_rejected() {
    let machine = X86Machine::pentium();
    let cfg = drill_config(CaseKind::Ir);
    let mut kinds_seen = std::collections::BTreeSet::new();
    for i in 0..cfg.cases {
        for f in case_functions(&cfg, i) {
            let Ok(built) = regalloc_core::IpAllocator::new(&machine).build_only(&f) else {
                continue;
            };
            let scfg = SolverConfig {
                emit_certificates: true,
                ..SolverConfig::deterministic()
            };
            let sol = solve_seeded(&built.model, &scfg, &[], Deadline::unlimited());
            if sol.status != Status::Optimal {
                continue;
            }
            let cert = sol
                .certificate
                .as_ref()
                .expect("optimal claim emits a proof");
            for seed in 0..8u64 {
                let Some((forged, kind)) = perturb_certificate(&built.model, cert, seed) else {
                    continue;
                };
                kinds_seen.insert(kind);
                let out = regalloc_audit::audit_certificate(&built.model, &forged);
                assert_eq!(
                    out.verdict,
                    regalloc_audit::Verdict::Rejected,
                    "{} fn {}: perturbation `{kind}` survived the audit",
                    i,
                    f.name()
                );
            }
        }
    }
    assert!(
        kinds_seen.len() >= 3,
        "drill exercised too few perturbation kinds: {kinds_seen:?}"
    );
}

/// Genuine proofs keep verifying when the drill is off — the oracle adds
/// no false findings of its own.
#[test]
fn undrilled_proofs_all_verify() {
    let machine = X86Machine::pentium();
    let cfg = drill_config(CaseKind::Ir);
    let mut proved = 0;
    for i in 0..cfg.cases {
        for f in case_functions(&cfg, i) {
            let out = check_certificate(&machine, &f, None);
            proved += out.proved as u64;
            assert!(
                out.viols.is_empty(),
                "fn {}: genuine proof failed the audit: {:?}",
                f.name(),
                out.viols
            );
        }
    }
    assert!(proved > 0, "no function produced a proof to audit");
}
