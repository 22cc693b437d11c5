//! `regalloc-fuzz`: a seeded, deterministic differential fuzzer for the
//! allocation ladder.
//!
//! Each case is an IR function — generated directly via
//! [`regalloc_workloads::fuzz_function`] or compiled from a random
//! C-subset program via `regalloc-cc` — pushed through three independent
//! allocation rungs:
//!
//! 1. the IP ladder ([`RobustAllocator`]) with its *internal* semantic
//!    gates disabled, so the fuzzer's own oracles do the catching;
//! 2. the graph-coloring baseline ([`ColoringAllocator`]);
//! 3. the spill-everything fallback ([`fallback::spill_everything`]).
//!
//! Every produced allocation is cross-checked by four oracles:
//!
//! * **interp-equivalence** — the allocated code behaves exactly like
//!   the original on seeded pseudo-random inputs
//!   ([`check::equivalent`]);
//! * **static-validator** — `regalloc_lint::validate` proves the
//!   dataflow translation, no execution needed;
//! * **agreement** — all allocators' outputs produce identical
//!   observable outcomes on shared inputs, and either every rung
//!   allocates a function or every rung refuses it (functions of a
//!   width the target refuses are refused ladder-wide, as in the
//!   paper's Table 2);
//! * **cross-target agreement** — the same function allocated
//!   independently on every registered target that accepts it (x86 and
//!   risc24 share every 32-bit case; the MCU joins on portable 16-bit
//!   cases) must produce identical observable outcomes;
//! * **certificate-audit** — an independent solve with proof emission
//!   on: every `Optimal` claim must carry a certificate that survives
//!   the exact-rational auditor (`regalloc_audit`), and — under the
//!   `--fault-cert` drill — a seeded, provably-invalidating
//!   perturbation of that certificate must be *rejected*; a perturbed
//!   proof that still verifies is an auditor blind spot and fails the
//!   campaign.
//!
//! Failures are auto-minimized ([`shrink::minimize`]) and written as
//! replayable corpus files ([`corpus`]). Everything is seeded: the same
//! `--cases`/`--seed` pair explores the same programs and reaches the
//! same verdicts on every run.

use std::collections::BTreeMap;

use regalloc_coloring::ColoringAllocator;
use regalloc_core::pipeline::{FaultPlan, RobustAllocator, Rung};
use regalloc_core::{check, fallback, AllocError, IpAllocator};
use regalloc_ilp::cert::{Certificate, Claim, Step};
use regalloc_ilp::model::{Model, Sense};
use regalloc_ilp::{Deadline, SolverConfig, Status};
use regalloc_ir::interp::mix64;
use regalloc_ir::{Cfg, ExecOutcome, Function, Interp, InterpConfig, LoopInfo, Profile};
use regalloc_machine::{refuses, Machine, TargetId};
use regalloc_workloads::{fuzz_function, GenConfig};

pub mod cgen;
pub mod corpus;
pub mod shrink;

/// Which generator feeds a case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CaseKind {
    /// Random IR functions (wide immediates, exotic addressing).
    Ir,
    /// Random C-subset programs through `regalloc-cc`.
    C,
    /// Alternate between the two (even cases IR, odd cases C).
    Mixed,
}

impl CaseKind {
    pub fn parse(s: &str) -> Option<CaseKind> {
        match s {
            "ir" => Some(CaseKind::Ir),
            "c" => Some(CaseKind::C),
            "mixed" => Some(CaseKind::Mixed),
            _ => None,
        }
    }
}

/// Campaign configuration. Fully deterministic: no wall-clock limits
/// participate in any verdict.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The target machine the campaign allocates for. The MCU campaign
    /// generates portable 16-bit cases (and MCU-lowered C); the others
    /// use the classic 32-bit fuzz mix.
    pub target: TargetId,
    /// Number of cases to run.
    pub cases: u64,
    /// Master seed; case `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// Generator mix.
    pub kind: CaseKind,
    /// Optional solver-fault injection: seeds
    /// [`FaultPlan::corrupt_solution`] with `mix64(fault ^ case)`, so
    /// each case corrupts differently but reproducibly.
    pub fault: Option<u64>,
    /// Optional certificate-perturbation drill: for every audited
    /// optimality proof, apply a seeded invalidating perturbation
    /// ([`perturb_certificate`]) and require the auditor to reject it.
    /// Unlike [`FuzzConfig::fault`], findings under this drill are real
    /// auditor blind spots and fail the campaign.
    pub fault_cert: Option<u64>,
    /// Interpreter-equivalence runs per produced allocation.
    pub equiv_runs: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            target: TargetId::X86Pentium,
            cases: 100,
            seed: 7,
            kind: CaseKind::Mixed,
            fault: None,
            fault_cert: None,
            equiv_runs: 3,
        }
    }
}

/// One oracle violation, carrying the (minimized) offending function.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The target the campaign allocated for.
    pub target: TargetId,
    /// Case index within the campaign.
    pub case: u64,
    /// The case's derived seed.
    pub seed: u64,
    /// Which oracle fired: `interp-equivalence`, `static-validator`,
    /// `agreement`, `cross-target` or `certificate-audit`.
    pub oracle: String,
    /// Which rung produced the offending allocation (`ip`, `coloring`,
    /// `spill-all`, or `-` for cross-rung disagreements).
    pub rung: String,
    /// Human-readable detail.
    pub detail: String,
    /// The original (pre-allocation) function, minimized when the
    /// campaign ran with minimization.
    pub func: Function,
    /// The fault seed armed when the violation fired.
    pub fault: Option<u64>,
    /// The certificate-perturbation seed armed when the violation fired.
    pub fault_cert: Option<u64>,
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases: u64,
    /// Functions checked (C cases contribute several per case).
    pub functions: u64,
    /// Functions refused ladder-wide (refused widths).
    pub refused: u64,
    /// Optimality/infeasibility proofs audited by the certificate
    /// oracle (perturbed as well when the drill was armed).
    pub proofs: u64,
    /// Accepted IP-ladder rung histogram, by rung name.
    pub rungs: BTreeMap<String, u64>,
    /// Violations found (minimized).
    pub violations: Vec<Violation>,
}

/// The three allocations of one function, `None` where a rung refused
/// (functions of a width the target refuses).
pub struct RungOutputs {
    /// IP ladder output and the accepted rung.
    pub ip: Option<(Function, Rung)>,
    /// Graph-coloring baseline output.
    pub coloring: Option<Function>,
    /// Spill-everything output.
    pub spill: Option<Function>,
}

impl RungOutputs {
    /// `(rung-name, allocated)` pairs for the rungs that produced code.
    pub fn produced(&self) -> Vec<(&'static str, &Function)> {
        let mut v = Vec::new();
        if let Some((f, _)) = &self.ip {
            v.push(("ip", f));
        }
        if let Some(f) = &self.coloring {
            v.push(("coloring", f));
        }
        if let Some(f) = &self.spill {
            v.push(("spill-all", f));
        }
        v
    }
}

/// Run one function through all three rungs.
///
/// The IP ladder runs with its interpreter-equivalence and
/// static-validation gates *off* and without an injected baseline: a
/// corrupted-but-structurally-valid solution is accepted by the ladder
/// and must be caught by this crate's oracles instead.
///
/// # Errors
///
/// Returns a description if a rung fails outright (ladder exhausted,
/// fallback error) — itself a finding, reported as an `agreement`
/// violation by [`check_function`]'s callers.
pub fn run_rungs<M: Machine + ?Sized>(
    machine: &M,
    f: &Function,
    fault: Option<u64>,
) -> Result<RungOutputs, String> {
    let faults = match fault {
        Some(seed) => FaultPlan {
            corrupt_solution: Some(seed),
            ..FaultPlan::none()
        },
        None => FaultPlan::none(),
    };
    let robust = RobustAllocator::new(machine)
        .with_solver_config(SolverConfig::deterministic())
        .with_budget(SolverConfig::deterministic().time_limit)
        .with_equivalence(0, 0)
        .with_static_validation(false)
        .with_faults(faults);
    let ip = match robust.allocate(f) {
        Ok(out) => Some((out.func, out.report.rung)),
        Err(AllocError::WidthRefused) => None,
        Err(e) => return Err(format!("ip ladder failed: {e}")),
    };
    let coloring = match ColoringAllocator::new(machine).allocate(f) {
        Ok(out) => Some(out.func),
        Err(AllocError::WidthRefused) => None,
        Err(e) => return Err(format!("coloring failed: {e}")),
    };
    let spill = if refuses(machine, f) {
        // The paper's pipeline never attempts refused-width functions;
        // keep the refusal ladder-wide so the agreement oracle can
        // check it.
        None
    } else {
        let cfg = Cfg::new(f);
        let loops = LoopInfo::new(f, &cfg);
        let profile = Profile::estimate(f, &cfg, &loops);
        match fallback::spill_everything(f, &profile, machine) {
            Ok((sf, _)) => Some(sf),
            Err(e) => return Err(format!("spill-all failed: {e:?}")),
        }
    };
    Ok(RungOutputs {
        ip,
        coloring,
        spill,
    })
}

fn outcome_key(o: &ExecOutcome) -> (u8, Option<u64>, u64, u64, Vec<u64>, u64) {
    let status = match o.status {
        regalloc_ir::ExecStatus::Returned => 0u8,
        regalloc_ir::ExecStatus::OutOfFuel => 1,
    };
    (
        status,
        o.ret,
        o.trace_hash,
        o.stores,
        o.globals.clone(),
        o.blocks_executed,
    )
}

/// Apply all three oracles to one function's rung outputs. Returns every
/// violation found (without minimization).
pub fn check_function<M: Machine + ?Sized>(
    machine: &M,
    f: &Function,
    outs: &RungOutputs,
    equiv_runs: usize,
    seed: u64,
) -> Vec<(String, String, String)> {
    let mut viols = Vec::new();
    // Oracle 3a: refusal consistency — allocate everywhere or nowhere.
    let produced = outs.produced();
    let refusals = 3 - produced.len();
    if refusals != 0 && refusals != 3 {
        let names: Vec<_> = produced.iter().map(|(n, _)| *n).collect();
        viols.push((
            "agreement".to_string(),
            "-".to_string(),
            format!("only {names:?} allocated; expected all rungs or none (refused width)"),
        ));
        return viols;
    }
    // Oracle 2: static dataflow translation validator.
    for (name, alloc) in &produced {
        let errs = regalloc_lint::validate(machine, f, alloc);
        if !errs.is_empty() {
            viols.push((
                "static-validator".to_string(),
                (*name).to_string(),
                format!("{} diagnostics, first: {}", errs.len(), errs[0]),
            ));
        }
    }
    // Oracle 1: interpreter equivalence against the original.
    for (name, alloc) in &produced {
        if let Err(e) = check::equivalent_with(f, alloc, equiv_runs, seed, || machine.new_regfile())
        {
            viols.push(("interp-equivalence".to_string(), (*name).to_string(), e));
        }
    }
    // Oracle 3b: inter-allocator agreement on shared inputs.
    if produced.len() >= 2 {
        let nargs = f.globals().iter().filter(|g| g.is_param).count();
        for run in 0..equiv_runs.max(1) {
            let base = mix64(seed ^ 0xa9ee ^ ((run as u64) << 21));
            let args: Vec<u64> = (0..nargs).map(|i| mix64(base ^ i as u64) % 1000).collect();
            let cfg = InterpConfig {
                seed: base,
                ..Default::default()
            };
            let outcomes: Vec<_> = produced
                .iter()
                .map(|(n, alloc)| {
                    (
                        *n,
                        outcome_key(&Interp::new(alloc, machine.new_regfile(), cfg, &args).run()),
                    )
                })
                .collect();
            if let Some(w) = outcomes.iter().find(|(_, k)| *k != outcomes[0].1) {
                viols.push((
                    "agreement".to_string(),
                    "-".to_string(),
                    format!(
                        "run {run} (args {args:?}): {} and {} disagree",
                        outcomes[0].0, w.0
                    ),
                ));
                break;
            }
        }
    }
    viols
}

/// Result of the certificate-audit oracle on one function.
pub struct CertOracle {
    /// Whether the independent solve produced a proof claim to audit.
    pub proved: bool,
    /// Violations found, in `(oracle, rung, detail)` form.
    pub viols: Vec<(String, String, String)>,
}

/// Oracle 4: independent proof-carrying solve plus exact-rational audit.
///
/// The function's 0-1 model is rebuilt from scratch and solved under the
/// same deterministic limits with certificate emission on. A resulting
/// `Optimal` or `Infeasible` claim must carry a certificate that the
/// auditor verifies; with `fault_cert` armed, a seeded invalidating
/// perturbation of that certificate must additionally be *rejected* — a
/// perturbed proof that still verifies is an auditor blind spot.
pub fn check_certificate<M: Machine + ?Sized>(
    machine: &M,
    f: &Function,
    fault_cert: Option<u64>,
) -> CertOracle {
    let mut out = CertOracle {
        proved: false,
        viols: Vec::new(),
    };
    // Refused-width functions allocate nowhere; nothing is claimed.
    let Ok(built) = IpAllocator::new(machine).build_only(f) else {
        return out;
    };
    let cfg = SolverConfig {
        emit_certificates: true,
        ..SolverConfig::deterministic()
    };
    let sol = regalloc_ilp::solve_seeded(&built.model, &cfg, &[], Deadline::unlimited());
    if !matches!(sol.status, Status::Optimal | Status::Infeasible) {
        return out; // no proof claimed within the deterministic limits
    }
    out.proved = true;
    let audit = regalloc_audit::audit_solution(&built.model, &sol);
    if audit.verdict != regalloc_audit::Verdict::Verified {
        out.viols.push((
            "certificate-audit".to_string(),
            "ip".to_string(),
            format!(
                "{:?} claim failed the audit ({})",
                sol.status,
                audit.primary_code().unwrap_or("missing-certificate")
            ),
        ));
        return out;
    }
    if let (Some(seed), Some(cert)) = (fault_cert, &sol.certificate) {
        if let Some((forged, kind)) = perturb_certificate(&built.model, cert, seed) {
            let verdict = regalloc_audit::audit_certificate(&built.model, &forged).verdict;
            if verdict == regalloc_audit::Verdict::Verified {
                out.viols.push((
                    "certificate-audit".to_string(),
                    "ip".to_string(),
                    format!("perturbed certificate ({kind}) still verified — auditor blind spot"),
                ));
            }
        }
    }
    out
}

/// Apply one seeded, provably-invalidating perturbation to a verified
/// certificate. The seed picks among four forgeries — a better claimed
/// objective, a dropped leaf, a flipped branching decision, a
/// wrong-signed dual multiplier — falling through to the next kind when
/// the chosen one does not apply (e.g. no incumbent to forge on an
/// infeasibility proof). `None` only when no kind applies at all.
pub fn perturb_certificate(
    model: &Model,
    cert: &Certificate,
    seed: u64,
) -> Option<(Certificate, &'static str)> {
    // The leaf with the longest decision trail: removing or rerouting it
    // always breaks the partition (or empties the proof outright).
    let deepest = (0..cert.leaves.len()).max_by_key(|&i| {
        cert.leaves[i]
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Decision { .. }))
            .count()
    });
    let start = mix64(seed ^ 0xce47);
    for off in 0..4 {
        let forged = match (start + off) % 4 {
            0 => cert.incumbent.as_ref().and_then(|&(_, obj)| {
                // Claim one better than the proved optimum. Guard the
                // float actually changing (it always does at allocation
                // scale, where objectives are small integers).
                if obj - 1.0 == obj {
                    return None;
                }
                let mut c = cert.clone();
                if let Some(i) = c.incumbent.as_mut() {
                    i.1 = obj - 1.0;
                }
                Some((c, "forged-objective"))
            }),
            1 => deepest.map(|i| {
                let mut c = cert.clone();
                c.leaves.remove(i);
                (c, "dropped-leaf")
            }),
            2 => deepest.and_then(|i| {
                let mut c = cert.clone();
                let flipped = c.leaves[i].steps.iter_mut().find_map(|s| match s {
                    Step::Decision { value, .. } => {
                        *value = !*value;
                        Some(())
                    }
                    Step::Deduce { .. } => None,
                });
                flipped.map(|()| (c, "flipped-decision"))
            }),
            _ => {
                // A sign-violating multiplier on an inequality row of a
                // bound/Farkas claim (such leaves replay to non-empty
                // boxes, so the claim is never checked vacuously).
                model
                    .rows()
                    .iter()
                    .position(|r| matches!(r.sense, Sense::Le | Sense::Ge))
                    .and_then(|ri| {
                        let mut c = cert.clone();
                        let hit = {
                            let duals = c.leaves.iter_mut().find_map(|l| match &mut l.claim {
                                Claim::Bound { duals } | Claim::Farkas { duals } => Some(duals),
                                Claim::PropInfeasible { .. } => None,
                            })?;
                            duals[ri] = match model.rows()[ri].sense {
                                Sense::Le => 1000.0,
                                _ => -1000.0,
                            };
                            true
                        };
                        hit.then_some((c, "wrong-signed-dual"))
                    })
            }
        };
        if forged.is_some() {
            return forged;
        }
    }
    None
}

/// True when `f` still trips an oracle named `oracle` under `fault` —
/// the minimizer's predicate. For `certificate-audit` the predicate is
/// the independent proof-carrying solve, perturbed by `fault_cert`.
pub fn still_fails<M: Machine + ?Sized>(
    machine: &M,
    f: &Function,
    oracle: &str,
    fault: Option<u64>,
    fault_cert: Option<u64>,
    equiv_runs: usize,
    seed: u64,
) -> bool {
    if oracle == "cross-target" {
        return check_cross_target(f, equiv_runs, seed)
            .iter()
            .any(|(o, _, _)| o == oracle);
    }
    if oracle == "certificate-audit" {
        return check_certificate(machine, f, fault_cert)
            .viols
            .iter()
            .any(|(o, _, _)| o == oracle);
    }
    match run_rungs(machine, f, fault) {
        Ok(outs) => check_function(machine, f, &outs, equiv_runs, seed)
            .iter()
            .any(|(o, _, _)| o == oracle),
        Err(_) => false,
    }
}

/// The functions of case `i`: one generated IR function or every
/// function of a generated C program.
pub fn case_functions(cfg: &FuzzConfig, i: u64) -> Vec<Function> {
    let case_seed = mix64(cfg.seed ^ (i << 32 | 0x0ca5e));
    let use_c = match cfg.kind {
        CaseKind::Ir => false,
        CaseKind::C => true,
        CaseKind::Mixed => i % 2 == 1,
    };
    if use_c {
        let src = cgen::generate_program(case_seed, &cgen::CGenConfig::default());
        // The generator emits subset-correct programs by construction;
        // lowering options track the campaign target (the MCU narrows
        // the word and avoids scaled addressing).
        regalloc_cc::compile_for(&src, cfg.target).unwrap_or_else(|e| {
            panic!("cgen produced an uncompilable program (seed {case_seed:#x}): {e}\n{src}")
        })
    } else {
        let gen_cfg = match cfg.target {
            TargetId::Mcu => GenConfig::portable16(),
            _ => GenConfig::fuzz(),
        };
        vec![fuzz_function(&format!("fz{i}"), case_seed, &gen_cfg)]
    }
}

/// Oracle 5: cross-target agreement.
///
/// The same function is allocated independently (full IP ladder,
/// deterministic limits) on every registered target whose register
/// classes accept its widths, and every allocation is executed on shared
/// inputs under its own target's register file. The interpreter's
/// observable outcome is machine-independent, so any divergence is a
/// target-model or allocator bug. x86 and risc24 share every 32-bit
/// case; the MCU joins on portable 16-bit cases.
pub fn check_cross_target(
    f: &Function,
    equiv_runs: usize,
    seed: u64,
) -> Vec<(String, String, String)> {
    let mut viols = Vec::new();
    let mut allocs: Vec<(TargetId, Function)> = Vec::new();
    for (t, m) in regalloc_core::targets::all() {
        if refuses(m.as_ref(), f) {
            continue;
        }
        let robust = RobustAllocator::new(m.as_ref())
            .with_solver_config(SolverConfig::deterministic())
            .with_budget(SolverConfig::deterministic().time_limit)
            .with_equivalence(0, 0)
            .with_static_validation(false);
        // A ladder that degrades to exhaustion on one target is not a
        // cross-target disagreement; the per-target oracles own it.
        if let Ok(out) = robust.allocate(f) {
            allocs.push((t, out.func));
        }
    }
    if allocs.len() < 2 {
        return viols;
    }
    let nargs = f.globals().iter().filter(|g| g.is_param).count();
    for run in 0..equiv_runs.max(1) {
        let base = mix64(seed ^ 0xc705 ^ ((run as u64) << 17));
        let args: Vec<u64> = (0..nargs).map(|i| mix64(base ^ i as u64) % 1000).collect();
        let icfg = InterpConfig {
            seed: base,
            ..Default::default()
        };
        let outcomes: Vec<_> = allocs
            .iter()
            .map(|(t, alloc)| {
                let m = regalloc_core::targets::machine_for(*t);
                (
                    *t,
                    outcome_key(&Interp::new(alloc, m.new_regfile(), icfg, &args).run()),
                )
            })
            .collect();
        if let Some(w) = outcomes.iter().find(|(_, k)| *k != outcomes[0].1) {
            viols.push((
                "cross-target".to_string(),
                "-".to_string(),
                format!(
                    "run {run} (args {args:?}): {} and {} disagree",
                    outcomes[0].0, w.0
                ),
            ));
            break;
        }
    }
    viols
}

/// Run a whole campaign; violations come back minimized.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let boxed = regalloc_core::targets::machine_for(cfg.target);
    let machine = boxed.as_ref();
    let mut report = CampaignReport::default();
    for i in 0..cfg.cases {
        let case_seed = mix64(cfg.seed ^ (i << 32 | 0x0ca5e));
        let fault = cfg.fault.map(|fs| mix64(fs ^ i) | 1);
        let fault_cert = cfg.fault_cert.map(|fs| mix64(fs ^ i));
        for f in case_functions(cfg, i) {
            report.functions += 1;
            let outs = match run_rungs(machine, &f, fault) {
                Ok(outs) => outs,
                Err(e) => {
                    report.violations.push(Violation {
                        target: cfg.target,
                        case: i,
                        seed: case_seed,
                        oracle: "agreement".to_string(),
                        rung: "-".to_string(),
                        detail: e,
                        func: f,
                        fault,
                        fault_cert,
                    });
                    continue;
                }
            };
            match &outs.ip {
                Some((_, rung)) => {
                    *report.rungs.entry(rung.name().to_string()).or_insert(0) += 1;
                }
                None => report.refused += 1,
            }
            let mut found = check_function(machine, &f, &outs, cfg.equiv_runs, case_seed);
            let cert = check_certificate(machine, &f, fault_cert);
            report.proofs += cert.proved as u64;
            found.extend(cert.viols);
            // Faults corrupt this target's ladder only; comparing against
            // other targets would re-detect the same injection.
            if fault.is_none() && fault_cert.is_none() {
                found.extend(check_cross_target(&f, cfg.equiv_runs, case_seed));
            }
            for (oracle, rung, detail) in found {
                let minimized = shrink::minimize(&f, 600, |cand| {
                    still_fails(
                        machine,
                        cand,
                        &oracle,
                        fault,
                        fault_cert,
                        cfg.equiv_runs,
                        case_seed,
                    )
                });
                report.violations.push(Violation {
                    target: cfg.target,
                    case: i,
                    seed: case_seed,
                    oracle,
                    rung,
                    detail,
                    func: minimized,
                    fault,
                    fault_cert,
                });
            }
        }
        report.cases += 1;
    }
    report
}
