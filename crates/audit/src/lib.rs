//! Independent exact-arithmetic auditor for solver proof certificates.
//!
//! The branch-and-bound solver in `regalloc-ilp` can attach a
//! [`Certificate`] to a completed solve: per leaf of the search tree, a
//! replayable path (branching decisions interleaved with presolve
//! deductions) and a claim — Lagrangian multipliers bounding the leaf's
//! box below the incumbent, Farkas multipliers refuting the box, or a
//! propagation witness. This crate re-checks the whole proof without
//! trusting any part of the solver:
//!
//! 1. **Structure** — every index in range, every multiplier vector the
//!    right length, every float convertible to an exact rational
//!    ([`rat::Rat`], `i128`-backed; `A009` on any damage or overflow).
//! 2. **Incumbent** — the claimed assignment satisfies every row and
//!    fixing exactly (`A004`) and its exact objective equals the claimed
//!    value (`A005`).
//! 3. **Coverage** — the leaves' decision trails form a complete binary
//!    tree, so the leaf boxes cover the whole 0-1 cube (`A006`).
//! 4. **Replay** — each leaf's box is rebuilt from the model alone;
//!    every recorded deduction must be forced by the bounds current at
//!    that point (`A007`).
//! 5. **Claims** — dual signs (`A001`), the rounded exact dual bound
//!    against the incumbent (`A002`), strict Farkas positivity (`A003`),
//!    and propagation witnesses (`A007`), all in exact rationals. A
//!    claim over an empty replayed box is vacuously valid.
//!
//! Together these imply the audited solve's headline claim: `Optimal`
//! means *no integer point anywhere in the cube beats the incumbent*,
//! and `Infeasible` means *no integer point exists*. Findings are
//! ordinary [`Diagnostic`]s (the `A0xx` family) so they flow through the
//! existing text/JSON/SARIF reporting; the anchor coordinate is reused
//! as `b0:<leaf index>`.

mod rat;

pub use rat::Rat;

use regalloc_ilp::cert::{Certificate, Claim, Step, Witness};
use regalloc_ilp::model::{Model, Sense, VarId};
use regalloc_ilp::{Solution, Status};
use regalloc_lint::diag::{
    Diagnostic, A_COVERAGE_GAP, A_DEDUCTION_UNJUSTIFIED, A_DUAL_SIGN, A_FARKAS_NOT_POSITIVE,
    A_INCUMBENT_INFEASIBLE, A_MALFORMED_CERTIFICATE, A_MISSING_CERTIFICATE, A_OBJECTIVE_MISMATCH,
    A_WEAK_BOUND,
};
use std::cmp::Ordering;

/// The auditor's conclusion about one solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every claim checked out; the solve's status is proved.
    Verified,
    /// At least one claim failed; the certificate proves nothing.
    Rejected,
    /// The solve claimed a proved status but attached no certificate.
    Missing,
}

/// The result of auditing one solve or certificate.
#[derive(Clone, Debug)]
pub struct AuditOutcome {
    /// Overall conclusion.
    pub verdict: Verdict,
    /// Findings (empty exactly when [`Verdict::Verified`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Leaves whose claim was checked (including vacuously).
    pub leaves_checked: u64,
}

impl AuditOutcome {
    /// Slug of the first finding, for event streams and metrics.
    pub fn primary_code(&self) -> Option<&'static str> {
        self.diagnostics.first().map(|d| d.code.slug)
    }

    fn verified(leaves_checked: u64) -> AuditOutcome {
        AuditOutcome {
            verdict: Verdict::Verified,
            diagnostics: Vec::new(),
            leaves_checked,
        }
    }
}

/// Stop piling up findings past the point of usefulness.
const MAX_FINDINGS: usize = 32;

/// Audit the certificate attached to a solve against the model it
/// claims to prove.
///
/// [`Status::Optimal`] and [`Status::Infeasible`] are proof claims and
/// require a certificate whose incumbent matches the reported solution
/// ([`Verdict::Missing`] / `A008` otherwise). Other statuses claim no
/// proof and are vacuously verified.
pub fn audit_solution(model: &Model, sol: &Solution) -> AuditOutcome {
    let cert = match (sol.status, &sol.certificate) {
        (Status::Optimal | Status::Infeasible, None) => {
            return AuditOutcome {
                verdict: Verdict::Missing,
                diagnostics: vec![Diagnostic::error(
                    A_MISSING_CERTIFICATE,
                    0,
                    0,
                    format!("{:?} claim has no certificate attached", sol.status),
                )],
                leaves_checked: 0,
            };
        }
        (Status::Optimal | Status::Infeasible, Some(cert)) => cert,
        _ => return AuditOutcome::verified(0),
    };
    // The certificate must prove the *reported* solution, not merely
    // some solution: a mismatch means the proof is about something else.
    let consistent = match (sol.status, &cert.incumbent) {
        (Status::Optimal, Some((values, obj))) => values == &sol.values && *obj == sol.objective,
        (Status::Infeasible, None) => true,
        _ => false,
    };
    if !consistent {
        return AuditOutcome {
            verdict: Verdict::Rejected,
            diagnostics: vec![Diagnostic::error(
                A_OBJECTIVE_MISMATCH,
                0,
                0,
                "certificate incumbent does not match the reported solution",
            )],
            leaves_checked: 0,
        };
    }
    audit_certificate(model, cert)
}

/// Audit a bare certificate against a model.
pub fn audit_certificate(model: &Model, cert: &Certificate) -> AuditOutcome {
    let mut diags = Vec::new();
    let exact = match ExactModel::convert(model) {
        Some(e) => e,
        None => {
            return AuditOutcome {
                verdict: Verdict::Rejected,
                diagnostics: vec![Diagnostic::error(
                    A_MALFORMED_CERTIFICATE,
                    0,
                    0,
                    "model data is not exactly representable; cannot audit",
                )],
                leaves_checked: 0,
            };
        }
    };
    check_structure(model, cert, &mut diags);
    if diags.is_empty() {
        check_incumbent(model, &exact, cert, &mut diags);
        check_coverage(model, cert, &mut diags);
    }
    let mut leaves_checked = 0u64;
    if diags.is_empty() {
        let incumbent_obj = cert
            .incumbent
            .as_ref()
            .and_then(|(values, _)| exact.objective_int(values));
        for (li, leaf) in cert.leaves.iter().enumerate() {
            check_leaf(model, &exact, li, leaf, incumbent_obj, &mut diags);
            leaves_checked += 1;
            if diags.len() >= MAX_FINDINGS {
                break;
            }
        }
    }
    AuditOutcome {
        verdict: if diags.is_empty() {
            Verdict::Verified
        } else {
            Verdict::Rejected
        },
        diagnostics: diags,
        leaves_checked,
    }
}

/// One constraint row in exact arithmetic: (coeffs as (var index, a),
/// sense, rhs).
type ExactRow = (Vec<(usize, Rat)>, Sense, Rat);

/// Model data converted to exact rationals once, up front.
struct ExactModel {
    costs: Vec<Rat>,
    rows: Vec<ExactRow>,
    integral_costs: bool,
}

impl ExactModel {
    fn convert(model: &Model) -> Option<ExactModel> {
        let costs = model
            .costs()
            .iter()
            .map(|&c| Rat::from_f64(c))
            .collect::<Option<Vec<_>>>()?;
        let rows = model
            .rows()
            .iter()
            .map(|row| {
                let coeffs = row
                    .coeffs
                    .iter()
                    .map(|&(v, c)| Some((v.index(), Rat::from_f64(c)?)))
                    .collect::<Option<Vec<_>>>()?;
                Some((coeffs, row.sense, Rat::from_f64(row.rhs)?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ExactModel {
            costs,
            rows,
            integral_costs: model.has_integral_costs(),
        })
    }

    /// Exact integral objective of an assignment; `None` when a cost is
    /// fractional or the sum overflows.
    fn objective_int(&self, values: &[bool]) -> Option<i128> {
        let mut sum = Rat::ZERO;
        for (c, &v) in self.costs.iter().zip(values) {
            if v {
                sum = sum.checked_add(*c)?;
            }
        }
        sum.to_integer()
    }
}

fn check_structure(model: &Model, cert: &Certificate, diags: &mut Vec<Diagnostic>) {
    let n = model.num_vars();
    let m = model.num_rows();
    if let Some((values, obj)) = &cert.incumbent {
        if values.len() != n {
            diags.push(Diagnostic::error(
                A_MALFORMED_CERTIFICATE,
                0,
                0,
                format!(
                    "incumbent has {} values, model has {n} variables",
                    values.len()
                ),
            ));
        }
        if !obj.is_finite() {
            diags.push(Diagnostic::error(
                A_MALFORMED_CERTIFICATE,
                0,
                0,
                "incumbent objective is not finite",
            ));
        }
    }
    if cert.leaves.is_empty() {
        diags.push(Diagnostic::error(
            A_MALFORMED_CERTIFICATE,
            0,
            0,
            "certificate has no leaves",
        ));
    }
    for (li, leaf) in cert.leaves.iter().enumerate() {
        if diags.len() >= MAX_FINDINGS {
            return;
        }
        let bad = |msg: String| Diagnostic::error(A_MALFORMED_CERTIFICATE, 0, li, msg);
        for st in &leaf.steps {
            let (row, var) = match *st {
                Step::Decision { var, .. } => (None, var),
                Step::Deduce { row, var, .. } => (Some(row), var),
            };
            if var as usize >= n {
                diags.push(bad(format!("step references variable {var} out of range")));
            }
            if let Some(r) = row {
                if r as usize >= m {
                    diags.push(bad(format!("step references row {r} out of range")));
                }
            }
        }
        match &leaf.claim {
            Claim::Bound { duals } => {
                if cert.incumbent.is_none() {
                    diags.push(bad("bound claim in a certificate with no incumbent".into()));
                }
                check_dual_vector(duals, m, li, diags);
            }
            Claim::Farkas { duals } => check_dual_vector(duals, m, li, diags),
            Claim::PropInfeasible { witness } => match *witness {
                Witness::Row(r) => {
                    if r as usize >= m {
                        diags.push(bad(format!("witness row {r} out of range")));
                    }
                }
                Witness::Fix(v) => {
                    if v as usize >= n {
                        diags.push(bad(format!("witness variable {v} out of range")));
                    } else if model.fixed(VarId(v)).is_none() {
                        diags.push(bad(format!("witness variable {v} has no declared fixing")));
                    }
                }
            },
        }
    }
}

fn check_dual_vector(duals: &[f64], m: usize, li: usize, diags: &mut Vec<Diagnostic>) {
    if duals.len() != m {
        diags.push(Diagnostic::error(
            A_MALFORMED_CERTIFICATE,
            0,
            li,
            format!("claim has {} multipliers, model has {m} rows", duals.len()),
        ));
        return;
    }
    if let Some((ri, d)) = duals
        .iter()
        .enumerate()
        .find(|(_, d)| Rat::from_f64(**d).is_none())
    {
        diags.push(Diagnostic::error(
            A_MALFORMED_CERTIFICATE,
            0,
            li,
            format!("multiplier for row {ri} ({d}) is not exactly representable"),
        ));
    }
}

fn check_incumbent(
    model: &Model,
    exact: &ExactModel,
    cert: &Certificate,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((values, claimed_obj)) = &cert.incumbent else {
        return;
    };
    // Exact row satisfaction: activity of the 0-1 assignment is a plain
    // rational sum, compared against the rhs without tolerance.
    for (ri, (coeffs, sense, rhs)) in exact.rows.iter().enumerate() {
        let mut act = Rat::ZERO;
        let mut ok = true;
        for &(j, a) in coeffs {
            if values[j] {
                act = match act.checked_add(a) {
                    Some(s) => s,
                    None => {
                        ok = false;
                        break;
                    }
                };
            }
        }
        let sat = ok
            && match (act.try_cmp(*rhs), sense) {
                (Some(c), Sense::Le) => c != Ordering::Greater,
                (Some(c), Sense::Ge) => c != Ordering::Less,
                (Some(c), Sense::Eq) => c == Ordering::Equal,
                (None, _) => false,
            };
        if !sat {
            diags.push(Diagnostic::error(
                A_INCUMBENT_INFEASIBLE,
                0,
                0,
                format!("incumbent violates row {ri} ({})", sense_str(*sense)),
            ));
            if diags.len() >= MAX_FINDINGS {
                return;
            }
        }
    }
    for (j, &v) in values.iter().enumerate().take(model.num_vars()) {
        if let Some(f) = model.fixed(VarId(j as u32)) {
            if v != f {
                diags.push(Diagnostic::error(
                    A_INCUMBENT_INFEASIBLE,
                    0,
                    0,
                    format!("incumbent violates the declared fixing of variable {j}"),
                ));
                if diags.len() >= MAX_FINDINGS {
                    return;
                }
            }
        }
    }
    // Exact objective vs the claimed value.
    let mut sum = Rat::ZERO;
    let mut ok = true;
    for (c, &v) in exact.costs.iter().zip(values.iter()) {
        if v {
            sum = match sum.checked_add(*c) {
                Some(s) => s,
                None => {
                    ok = false;
                    break;
                }
            };
        }
    }
    let claimed = Rat::from_f64(*claimed_obj);
    let matches = ok && claimed.is_some_and(|cl| sum.try_cmp(cl) == Some(Ordering::Equal));
    if !matches {
        diags.push(Diagnostic::error(
            A_OBJECTIVE_MISMATCH,
            0,
            0,
            format!("incumbent's exact objective {sum} differs from the claimed {claimed_obj}"),
        ));
    }
}

fn sense_str(s: Sense) -> &'static str {
    match s {
        Sense::Le => "<=",
        Sense::Ge => ">=",
        Sense::Eq => "=",
    }
}

/// Decision subsequence of a leaf's trail.
fn decisions(leaf_steps: &[Step]) -> Vec<(u32, bool)> {
    leaf_steps
        .iter()
        .filter_map(|st| match *st {
            Step::Decision { var, value } => Some((var, value)),
            Step::Deduce { .. } => None,
        })
        .collect()
}

/// The leaves' decision trails must form a complete binary tree: at
/// every interior trie node all leaves branch on the same variable and
/// both values are present. A leaf whose decisions are exhausted at a
/// node covers that node's whole region by itself.
fn check_coverage(model: &Model, cert: &Certificate, diags: &mut Vec<Diagnostic>) {
    let decs: Vec<Vec<(u32, bool)>> = cert.leaves.iter().map(|l| decisions(&l.steps)).collect();
    let idxs: Vec<usize> = (0..decs.len()).collect();
    if let Err((leaf, msg)) = coverage_rec(&decs, idxs, 0, model.num_vars()) {
        diags.push(Diagnostic::error(A_COVERAGE_GAP, 0, leaf, msg));
    }
}

fn coverage_rec(
    decs: &[Vec<(u32, bool)>],
    idxs: Vec<usize>,
    depth: usize,
    max_depth: usize,
) -> Result<(), (usize, String)> {
    let Some(&first) = idxs.first() else {
        return Err((0, "no leaf covers a branch region".into()));
    };
    // An exhausted leaf's box contains the whole region: its claim
    // closes it regardless of what the sibling leaves say.
    if idxs.iter().any(|&i| decs[i].len() == depth) {
        return Ok(());
    }
    if depth >= max_depth {
        return Err((
            first,
            "decision trail longer than the variable count".into(),
        ));
    }
    let var = decs[first][depth].0;
    if let Some(&other) = idxs.iter().find(|&&i| decs[i][depth].0 != var) {
        return Err((
            other,
            format!(
                "leaves branch on different variables ({} vs {var}) at depth {depth}",
                decs[other][depth].0
            ),
        ));
    }
    let (ones, zeros): (Vec<usize>, Vec<usize>) = idxs.into_iter().partition(|&i| decs[i][depth].1);
    for (side, group) in [("1", &ones), ("0", &zeros)] {
        if group.is_empty() {
            return Err((
                first,
                format!("no leaf covers the x{var} = {side} side at depth {depth}"),
            ));
        }
    }
    coverage_rec(decs, ones, depth + 1, max_depth)?;
    coverage_rec(decs, zeros, depth + 1, max_depth)
}

/// Replay one leaf's trail and check its claim.
fn check_leaf(
    model: &Model,
    exact: &ExactModel,
    li: usize,
    leaf: &regalloc_ilp::cert::NodeCert,
    incumbent_obj: Option<i128>,
    diags: &mut Vec<Diagnostic>,
) {
    let n = model.num_vars();
    // The leaf box, rebuilt from the model alone: start at [0,1]^n,
    // apply the declared fixings, then replay the trail. Intersection
    // semantics throughout — bounds only ever tighten, and a crossed
    // pair (lb > ub) marks the box empty, making every later step and
    // the claim itself vacuously valid.
    let mut lb = vec![0u8; n];
    let mut ub = vec![1u8; n];
    for j in 0..n {
        if let Some(f) = model.fixed(VarId(j as u32)) {
            let v = f as u8;
            lb[j] = lb[j].max(v);
            ub[j] = ub[j].min(v);
        }
    }
    let empty = |lb: &[u8], ub: &[u8]| lb.iter().zip(ub).any(|(l, u)| l > u);
    for st in &leaf.steps {
        if empty(&lb, &ub) {
            return; // vacuous: the region holds no integer point
        }
        match *st {
            Step::Decision { var, value } => {
                let j = var as usize;
                let v = value as u8;
                lb[j] = lb[j].max(v);
                ub[j] = ub[j].min(v);
            }
            Step::Deduce { row, var, value } => {
                let j = var as usize;
                let pinned = !value as u8;
                // Justified iff pinning the variable at the opposite
                // value makes the row exactly unsatisfiable over the
                // current box (trivially so when the box already
                // excludes that value).
                if pinned >= lb[j] && pinned <= ub[j] {
                    match row_refuted(exact, row as usize, &lb, &ub, Some((j, pinned))) {
                        Some(true) => {}
                        Some(false) => {
                            diags.push(Diagnostic::error(
                                A_DEDUCTION_UNJUSTIFIED,
                                0,
                                li,
                                format!(
                                    "deduction x{var} = {} is not forced by row {row}",
                                    value as u8
                                ),
                            ));
                            return;
                        }
                        None => {
                            diags.push(overflow_diag(li));
                            return;
                        }
                    }
                }
                let v = value as u8;
                lb[j] = lb[j].max(v);
                ub[j] = ub[j].min(v);
            }
        }
    }
    if empty(&lb, &ub) {
        return;
    }
    match &leaf.claim {
        Claim::Bound { duals } => {
            if !exact.integral_costs {
                diags.push(
                    Diagnostic::error(
                        A_MALFORMED_CERTIFICATE,
                        0,
                        li,
                        "bound claim requires integral costs",
                    )
                    .with_note("the rounded dual bound is only sound for integer objectives"),
                );
                return;
            }
            let Some(inc) = incumbent_obj else {
                diags.push(overflow_diag(li));
                return;
            };
            match dual_bound(exact, duals, &lb, &ub, true, li, diags) {
                Some(Some(bound)) => {
                    let Some(ceil) = bound.ceil() else {
                        diags.push(overflow_diag(li));
                        return;
                    };
                    if ceil < inc {
                        diags.push(Diagnostic::error(
                            A_WEAK_BOUND,
                            0,
                            li,
                            format!("exact dual bound {bound} rounds to {ceil}, below the incumbent {inc}"),
                        ));
                    }
                }
                Some(None) => {} // sign violation already reported
                None => diags.push(overflow_diag(li)),
            }
        }
        Claim::Farkas { duals } => match dual_bound(exact, duals, &lb, &ub, false, li, diags) {
            Some(Some(bound)) => {
                if bound.sign() != Ordering::Greater {
                    diags.push(Diagnostic::error(
                        A_FARKAS_NOT_POSITIVE,
                        0,
                        li,
                        format!("Farkas bound {bound} is not strictly positive"),
                    ));
                }
            }
            Some(None) => {}
            None => diags.push(overflow_diag(li)),
        },
        Claim::PropInfeasible { witness } => match *witness {
            Witness::Row(r) => match row_refuted(exact, r as usize, &lb, &ub, None) {
                Some(true) => {}
                Some(false) => diags.push(Diagnostic::error(
                    A_DEDUCTION_UNJUSTIFIED,
                    0,
                    li,
                    format!("witness row {r} is satisfiable over the leaf box"),
                )),
                None => diags.push(overflow_diag(li)),
            },
            Witness::Fix(v) => {
                // A genuine fixing conflict empties the replayed box (the
                // fixing was applied first), so reaching here with a
                // non-empty box refutes the witness.
                diags.push(Diagnostic::error(
                    A_DEDUCTION_UNJUSTIFIED,
                    0,
                    li,
                    format!("the fixing of x{v} does not conflict with the leaf box"),
                ));
            }
        },
    }
}

fn overflow_diag(li: usize) -> Diagnostic {
    Diagnostic::error(
        A_MALFORMED_CERTIFICATE,
        0,
        li,
        "rational arithmetic overflowed while checking the claim",
    )
}

/// Exact min/max activity of a row over the box, with an optional
/// variable pinned. `Some(true)` when the row cannot be satisfied.
fn row_refuted(
    exact: &ExactModel,
    ri: usize,
    lb: &[u8],
    ub: &[u8],
    pin: Option<(usize, u8)>,
) -> Option<bool> {
    let (coeffs, sense, rhs) = &exact.rows[ri];
    let mut min_act = Rat::ZERO;
    let mut max_act = Rat::ZERO;
    for &(j, a) in coeffs {
        let (l, u) = match pin {
            Some((pj, pv)) if pj == j => (pv, pv),
            _ => (lb[j], ub[j]),
        };
        let (lo, hi) = if a.sign() == Ordering::Less {
            (u, l)
        } else {
            (l, u)
        };
        min_act = min_act.checked_add(a.checked_mul(Rat::from_int(lo as i128))?)?;
        max_act = max_act.checked_add(a.checked_mul(Rat::from_int(hi as i128))?)?;
    }
    let need_le = matches!(sense, Sense::Le | Sense::Eq);
    let need_ge = matches!(sense, Sense::Ge | Sense::Eq);
    Some(
        (need_le && min_act.try_cmp(*rhs)? == Ordering::Greater)
            || (need_ge && max_act.try_cmp(*rhs)? == Ordering::Less),
    )
}

/// The exact Lagrangian dual bound of the multipliers over the box:
///
/// `L(y) = Σᵢ yᵢ·bᵢ + Σⱼ min over the box of dⱼ·xⱼ`, `dⱼ = cⱼ − Σᵢ yᵢ·aᵢⱼ`
///
/// (costs dropped when `with_costs` is false — the Farkas form). Any `y`
/// respecting the sign conditions (`yᵢ ≤ 0` for `≤` rows, `yᵢ ≥ 0` for
/// `≥` rows, free for `=`) makes `L(y)` a true lower bound on the
/// objective of every feasible point in the box.
///
/// Returns `None` on overflow, `Some(None)` after reporting a sign
/// violation, `Some(Some(bound))` otherwise.
#[allow(clippy::too_many_arguments)]
fn dual_bound(
    exact: &ExactModel,
    duals: &[f64],
    lb: &[u8],
    ub: &[u8],
    with_costs: bool,
    li: usize,
    diags: &mut Vec<Diagnostic>,
) -> Option<Option<Rat>> {
    let y: Vec<Rat> = duals
        .iter()
        .map(|&d| Rat::from_f64(d))
        .collect::<Option<Vec<_>>>()?;
    for (ri, (_, sense, _)) in exact.rows.iter().enumerate() {
        let bad = match sense {
            Sense::Le => y[ri].sign() == Ordering::Greater,
            Sense::Ge => y[ri].sign() == Ordering::Less,
            Sense::Eq => false,
        };
        if bad {
            diags.push(Diagnostic::error(
                A_DUAL_SIGN,
                0,
                li,
                format!(
                    "multiplier {} for row {ri} ({}) violates its sign condition",
                    y[ri],
                    sense_str(*sense)
                ),
            ));
            return Some(None);
        }
    }
    // Reduced costs d = c − Aᵀy, accumulated sparsely.
    let n = lb.len();
    let mut d: Vec<Rat> = if with_costs {
        exact.costs.clone()
    } else {
        vec![Rat::ZERO; n]
    };
    let mut bound = Rat::ZERO;
    for (ri, (coeffs, _, rhs)) in exact.rows.iter().enumerate() {
        bound = bound.checked_add(y[ri].checked_mul(*rhs)?)?;
        if y[ri].sign() == Ordering::Equal {
            continue;
        }
        for &(j, a) in coeffs {
            d[j] = d[j].checked_sub(y[ri].checked_mul(a)?)?;
        }
    }
    for j in 0..n {
        let contrib = if lb[j] == ub[j] {
            if lb[j] == 1 {
                d[j]
            } else {
                Rat::ZERO
            }
        } else if d[j].sign() == Ordering::Less {
            d[j] // min(0, d) for a free 0-1 variable
        } else {
            Rat::ZERO
        };
        bound = bound.checked_add(contrib)?;
    }
    Some(Some(bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ilp::cert::NodeCert;
    use regalloc_ilp::{solve_seeded, Deadline, SolverConfig};
    use regalloc_lint::diag::Code;

    fn cert_cfg() -> SolverConfig {
        SolverConfig {
            emit_certificates: true,
            ..SolverConfig::default()
        }
    }

    /// Odd-cycle packing with cost -2 per vertex: branches for real.
    fn cycle_model(n: usize) -> Model {
        let mut m = Model::new();
        let v: Vec<_> = (0..n).map(|i| m.add_var(-2.0, format!("x{i}"))).collect();
        for i in 0..n {
            m.add_le(vec![(v[i], 1.0), (v[(i + 1) % n], 1.0)], 1.0);
        }
        m
    }

    fn solved_cert(m: &Model) -> (Solution, Certificate) {
        let sol = solve_seeded(m, &cert_cfg(), &[], Deadline::unlimited());
        let cert = sol.certificate.clone().expect("certificate");
        (sol, cert)
    }

    fn codes(out: &AuditOutcome) -> Vec<Code> {
        out.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn honest_optimal_certificate_verifies() {
        let m = cycle_model(3);
        let (sol, _) = solved_cert(&m);
        let out = audit_solution(&m, &sol);
        assert_eq!(out.verdict, Verdict::Verified, "{:?}", out.diagnostics);
        assert!(out.leaves_checked > 0);
    }

    #[test]
    fn honest_infeasible_certificate_verifies() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 2.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let (sol, _) = solved_cert(&m);
        assert_eq!(sol.status, Status::Infeasible);
        let out = audit_solution(&m, &sol);
        assert_eq!(out.verdict, Verdict::Verified, "{:?}", out.diagnostics);
    }

    #[test]
    fn missing_certificate_flagged() {
        let m = cycle_model(3);
        let mut sol = solve_seeded(&m, &SolverConfig::default(), &[], Deadline::unlimited());
        assert!(sol.certificate.is_none());
        let out = audit_solution(&m, &sol);
        assert_eq!(out.verdict, Verdict::Missing);
        // Non-proof statuses claim nothing.
        sol.status = Status::Feasible;
        assert_eq!(audit_solution(&m, &sol).verdict, Verdict::Verified);
    }

    #[test]
    fn forged_objective_rejected() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        // Claim one better than the true optimum.
        let (_, obj) = cert.incumbent.as_mut().unwrap();
        *obj -= 1.0;
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        // The forged objective no longer matches the incumbent's exact
        // value, and the bound leaves no longer dominate it.
        assert!(codes(&out).contains(&regalloc_lint::diag::A_OBJECTIVE_MISMATCH));
    }

    #[test]
    fn forged_incumbent_value_rejected() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        let (values, _) = cert.incumbent.as_mut().unwrap();
        // Flip the selected vertex's neighbour on: violates an edge row.
        let on = values.iter().position(|&b| b).unwrap();
        values[(on + 1) % 3] = true;
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_INCUMBENT_INFEASIBLE));
    }

    #[test]
    fn dropped_leaf_is_a_coverage_gap() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        let with_decision = cert
            .leaves
            .iter()
            .position(|l| decisions(&l.steps).len() == 1)
            .expect("the root branch produces depth-1 leaves");
        cert.leaves.remove(with_decision);
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_COVERAGE_GAP));
    }

    #[test]
    fn wrong_signed_dual_rejected() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        let bound_leaf = cert
            .leaves
            .iter_mut()
            .find_map(|l| match &mut l.claim {
                Claim::Bound { duals } => Some(duals),
                _ => None,
            })
            .expect("a bound leaf");
        // Rows are all <=: a large positive multiplier breaks the sign
        // condition (and would otherwise inflate the bound arbitrarily).
        bound_leaf[0] = 1000.0;
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_DUAL_SIGN));
    }

    #[test]
    fn zeroed_duals_give_weak_bound() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        for l in &mut cert.leaves {
            if let Claim::Bound { duals } = &mut l.claim {
                for d in duals.iter_mut() {
                    *d = 0.0;
                }
            }
        }
        // With y = 0 the bound is Σ min(0, c_j) = -6 < incumbent -4.
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_WEAK_BOUND));
    }

    #[test]
    fn bogus_deduction_rejected() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        // Claim row 0 forces x2 = 1 at the root: it does not.
        cert.leaves[0].steps.insert(
            0,
            Step::Deduce {
                row: 0,
                var: 2,
                value: true,
            },
        );
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_DEDUCTION_UNJUSTIFIED));
    }

    #[test]
    fn unsatisfiable_farkas_rejected() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 2.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let (_, mut cert) = solved_cert(&m);
        for l in &mut cert.leaves {
            if let Claim::Farkas { duals } = &mut l.claim {
                for d in duals.iter_mut() {
                    *d = 0.0; // L(0) = 0, not strictly positive
                }
            } else {
                l.claim = Claim::Farkas {
                    duals: vec![0.0; 2],
                };
            }
        }
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_FARKAS_NOT_POSITIVE));
    }

    #[test]
    fn structural_damage_rejected() {
        let m = cycle_model(3);
        let (_, cert) = solved_cert(&m);

        let mut short = cert.clone();
        if let Claim::Bound { duals } | Claim::Farkas { duals } = &mut short.leaves[0].claim {
            duals.pop();
        }
        assert_eq!(audit_certificate(&m, &short).verdict, Verdict::Rejected);

        let mut oob = cert.clone();
        oob.leaves[0].steps.push(Step::Decision {
            var: 99,
            value: true,
        });
        assert_eq!(audit_certificate(&m, &oob).verdict, Verdict::Rejected);

        let mut bare = cert.clone();
        bare.leaves.clear();
        assert_eq!(audit_certificate(&m, &bare).verdict, Verdict::Rejected);

        let mut nan = cert;
        if let Claim::Bound { duals } | Claim::Farkas { duals } = &mut nan.leaves[0].claim {
            duals[0] = f64::NAN;
        }
        let out = audit_certificate(&m, &nan);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_MALFORMED_CERTIFICATE));
    }

    #[test]
    fn bound_claim_without_incumbent_rejected() {
        let m = cycle_model(3);
        let (_, mut cert) = solved_cert(&m);
        cert.incumbent = None;
        let out = audit_certificate(&m, &cert);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert!(codes(&out).contains(&regalloc_lint::diag::A_MALFORMED_CERTIFICATE));
    }

    #[test]
    fn incumbent_mismatch_with_solution_rejected() {
        let m = cycle_model(3);
        let (mut sol, _) = solved_cert(&m);
        sol.objective += 2.0; // reported solution no longer matches cert
        let out = audit_solution(&m, &sol);
        assert_eq!(out.verdict, Verdict::Rejected);
        assert_eq!(out.primary_code(), Some("objective-mismatch"));
    }

    #[test]
    fn empty_leaf_boxes_are_vacuous_but_coverage_still_binds() {
        // A certificate may contain leaves whose replayed box is empty
        // (decisions crossing a fixing); their claims are vacuous, and
        // verification hinges on coverage plus the remaining leaves.
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.fix(a, true);
        let forged = Certificate {
            incumbent: Some((vec![true], 1.0)),
            leaves: vec![
                NodeCert {
                    steps: vec![Step::Decision {
                        var: 0,
                        value: false,
                    }],
                    claim: Claim::PropInfeasible {
                        witness: Witness::Fix(0),
                    },
                },
                NodeCert {
                    steps: vec![Step::Decision {
                        var: 0,
                        value: true,
                    }],
                    claim: Claim::Bound { duals: vec![] },
                },
            ],
        };
        assert_eq!(audit_certificate(&m, &forged).verdict, Verdict::Verified);
    }

    #[test]
    fn five_cycle_stress_verifies() {
        let m = cycle_model(5);
        let (sol, _) = solved_cert(&m);
        assert_eq!(sol.status, Status::Optimal);
        let out = audit_solution(&m, &sol);
        assert_eq!(out.verdict, Verdict::Verified, "{:?}", out.diagnostics);
    }
}
