//! Light presolve: bound propagation over 0-1 variables.
//!
//! Run before the root LP and (cheaply) at every branch-and-bound node,
//! the presolve repeatedly
//!
//! * applies the model's [`fix`](crate::Model::fix)ings,
//! * computes each row's minimum/maximum activity under current bounds,
//! * detects rows that can never be satisfied (node infeasible), and
//! * fixes variables whose value is forced (e.g. when a `≥` row can only
//!   reach its rhs with every positive-coefficient variable at one).
//!
//! Register-allocation models respond well to this: must-allocate rows over
//! a single remaining candidate register pin that candidate immediately,
//! and implication chains (`use ≤ x ≤ def`) collapse when an endpoint is
//! branched on.

use crate::cert::{Step, Witness};
use crate::model::{Model, Sense};

/// Result of bound propagation.
#[derive(Clone, Debug, PartialEq)]
pub enum Propagation {
    /// Bounds were tightened (possibly unchanged).
    Ok,
    /// Some constraint is unsatisfiable under the given bounds.
    Infeasible,
}

/// Deduction journal filled by [`propagate_recorded_counted`]: every
/// bound tightening as a replayable [`Step::Deduce`], and — on an
/// infeasible outcome — the row or fixing that was contradicted.
#[derive(Clone, Debug, Default)]
pub struct PropRecorder {
    /// Deductions in application order (appended; callers seed this with
    /// the node's inherited trail).
    pub steps: Vec<Step>,
    /// The contradicted object when propagation returned
    /// [`Propagation::Infeasible`].
    pub conflict: Option<Witness>,
}

/// Tighten `lb`/`ub` in place (binary semantics: bounds only ever move to
/// 0 or 1) and report how many variable domains were narrowed (fixings
/// applied plus min/max-activity deductions) — the flight recorder's
/// `presolve_eliminations` counter.
pub fn propagate_counted(model: &Model, lb: &mut [f64], ub: &mut [f64]) -> (Propagation, u64) {
    let mut elims = 0;
    let p = propagate_impl(model, lb, ub, None, &mut elims);
    (p, elims)
}

/// [`propagate_counted`] with a deduction journal for certificate
/// emission. The bound tightening and the count are bit-identical to the
/// unrecorded path, so certified and uncertified searches feed the flight
/// recorder the same numbers; only the journal is extra.
pub fn propagate_recorded_counted(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    rec: &mut PropRecorder,
) -> (Propagation, u64) {
    let mut elims = 0;
    let p = propagate_impl(model, lb, ub, Some(rec), &mut elims);
    (p, elims)
}

fn propagate_impl(
    model: &Model,
    lb: &mut [f64],
    ub: &mut [f64],
    mut rec: Option<&mut PropRecorder>,
    elims: &mut u64,
) -> Propagation {
    // Apply declared fixings first.
    for j in 0..model.num_vars() {
        if let Some(v) = model.fixed(crate::model::VarId(j as u32)) {
            let v = if v { 1.0 } else { 0.0 };
            if v < lb[j] - 1e-9 || v > ub[j] + 1e-9 {
                if let Some(r) = rec.as_deref_mut() {
                    r.conflict = Some(Witness::Fix(j as u32));
                }
                return Propagation::Infeasible;
            }
            if lb[j] < ub[j] {
                *elims += 1; // the fixing actually narrowed a domain
            }
            lb[j] = v;
            ub[j] = v;
        }
    }

    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 20 {
        changed = false;
        rounds += 1;
        for (ri, row) in model.rows().iter().enumerate() {
            // Min/max activity under current bounds.
            let mut min_act = 0.0;
            let mut max_act = 0.0;
            for (v, c) in &row.coeffs {
                let (l, u) = (lb[v.index()], ub[v.index()]);
                if *c >= 0.0 {
                    min_act += c * l;
                    max_act += c * u;
                } else {
                    min_act += c * u;
                    max_act += c * l;
                }
            }
            let need_le = matches!(row.sense, Sense::Le | Sense::Eq);
            let need_ge = matches!(row.sense, Sense::Ge | Sense::Eq);
            if need_le && min_act > row.rhs + 1e-7 {
                if let Some(r) = rec.as_deref_mut() {
                    r.conflict = Some(Witness::Row(ri as u32));
                }
                return Propagation::Infeasible;
            }
            if need_ge && max_act < row.rhs - 1e-7 {
                if let Some(r) = rec.as_deref_mut() {
                    r.conflict = Some(Witness::Row(ri as u32));
                }
                return Propagation::Infeasible;
            }
            // Per-variable implied bounds (binary rounding). Each
            // deduction is journalled with its justifying row: the
            // checker re-verifies that the opposite value makes the row
            // unsatisfiable under the bounds current at that point.
            for (v, c) in &row.coeffs {
                let j = v.index();
                if lb[j] >= ub[j] {
                    continue; // already fixed
                }
                if need_le {
                    // Setting x_j to its max-increasing bound must keep
                    // min activity ≤ rhs.
                    let others_min = min_act - if *c >= 0.0 { c * lb[j] } else { c * ub[j] };
                    if *c > 0.0 && others_min + c > row.rhs + 1e-7 {
                        ub[j] = 0.0;
                        changed = true;
                        *elims += 1;
                        if let Some(r) = rec.as_deref_mut() {
                            r.steps.push(Step::Deduce {
                                row: ri as u32,
                                var: j as u32,
                                value: false,
                            });
                        }
                    } else if *c < 0.0 && others_min > row.rhs + 1e-7 {
                        // x_j must contribute: x_j = 1.
                        lb[j] = 1.0;
                        changed = true;
                        *elims += 1;
                        if let Some(r) = rec.as_deref_mut() {
                            r.steps.push(Step::Deduce {
                                row: ri as u32,
                                var: j as u32,
                                value: true,
                            });
                        }
                    }
                }
                if need_ge && lb[j] < ub[j] {
                    let others_max = max_act - if *c >= 0.0 { c * ub[j] } else { c * lb[j] };
                    if *c > 0.0 && others_max < row.rhs - 1e-7 {
                        // x_j must be 1 for the row to be satisfiable.
                        lb[j] = 1.0;
                        changed = true;
                        *elims += 1;
                        if let Some(r) = rec.as_deref_mut() {
                            r.steps.push(Step::Deduce {
                                row: ri as u32,
                                var: j as u32,
                                value: true,
                            });
                        }
                    } else if *c < 0.0 && others_max + c < row.rhs - 1e-7 {
                        ub[j] = 0.0;
                        changed = true;
                        *elims += 1;
                        if let Some(r) = rec.as_deref_mut() {
                            r.steps.push(Step::Deduce {
                                row: ri as u32,
                                var: j as u32,
                                value: false,
                            });
                        }
                    }
                }
                if lb[j] > ub[j] + 1e-9 {
                    // The same row has forced x_j both ways: its min/max
                    // activity test over the tightened box fails, so the
                    // row itself is the replayable witness.
                    if let Some(r) = rec.as_deref_mut() {
                        r.conflict = Some(Witness::Row(ri as u32));
                    }
                    return Propagation::Infeasible;
                }
            }
        }
    }
    Propagation::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn free(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; n], vec![1.0; n])
    }

    #[test]
    fn fixings_apply() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.fix(a, true);
        let (mut lb, mut ub) = free(1);
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!((lb[0], ub[0]), (1.0, 1.0));
    }

    #[test]
    fn conflicting_fixing_detected() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.fix(a, true);
        let mut lb = vec![0.0];
        let mut ub = vec![0.0]; // branched to 0
        assert_eq!(
            propagate_counted(&m, &mut lb, &mut ub).0,
            Propagation::Infeasible
        );
    }

    #[test]
    fn singleton_ge_forces_one() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        let (mut lb, mut ub) = free(1);
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!(lb[0], 1.0);
    }

    #[test]
    fn singleton_le_forces_zero() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.add_le(vec![(a, 1.0)], 0.0);
        let (mut lb, mut ub) = free(1);
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!(ub[0], 0.0);
    }

    #[test]
    fn must_allocate_with_one_candidate_pins_it() {
        // a + b >= 1 with b fixed to 0 -> a forced to 1.
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.fix(b, false);
        let (mut lb, mut ub) = free(2);
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!(lb[0], 1.0);
        assert_eq!(ub[1], 0.0);
    }

    #[test]
    fn implication_chain_collapses() {
        // u <= x, x <= d; branch u = 1 -> x = 1 -> d = 1.
        let mut m = Model::new();
        let u = m.add_var(0.0, "u");
        let x = m.add_var(0.0, "x");
        let d = m.add_var(0.0, "d");
        m.add_le(vec![(u, 1.0), (x, -1.0)], 0.0);
        m.add_le(vec![(x, 1.0), (d, -1.0)], 0.0);
        let mut lb = vec![1.0, 0.0, 0.0];
        let mut ub = vec![1.0, 1.0, 1.0];
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!(lb, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn infeasible_ge_detected() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 2.0);
        m.fix(a, false);
        let (mut lb, mut ub) = free(2);
        assert_eq!(
            propagate_counted(&m, &mut lb, &mut ub).0,
            Propagation::Infeasible
        );
    }

    #[test]
    fn counted_propagation_reports_deductions() {
        // a + b >= 1 with b fixed to 0: one fixing + one forced bound.
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.fix(b, false);
        let (mut lb, mut ub) = free(2);
        let (p, elims) = propagate_counted(&m, &mut lb, &mut ub);
        assert_eq!(p, Propagation::Ok);
        assert_eq!(elims, 2, "fixing b plus deducing a");
        // Re-running on the tightened box deduces nothing new.
        let (p, elims) = propagate_counted(&m, &mut lb, &mut ub);
        assert_eq!(p, Propagation::Ok);
        assert_eq!(elims, 0);
    }

    #[test]
    fn recorded_matches_unrecorded_tightening() {
        let mut m = Model::new();
        let u = m.add_var(0.0, "u");
        let x = m.add_var(0.0, "x");
        let d = m.add_var(0.0, "d");
        m.add_le(vec![(u, 1.0), (x, -1.0)], 0.0);
        m.add_le(vec![(x, 1.0), (d, -1.0)], 0.0);
        let mut lb1 = vec![1.0, 0.0, 0.0];
        let mut ub1 = vec![1.0, 1.0, 1.0];
        let mut lb2 = lb1.clone();
        let mut ub2 = ub1.clone();
        let (p1, elims1) = propagate_counted(&m, &mut lb1, &mut ub1);
        let mut rec = PropRecorder::default();
        let (p2, elims2) = propagate_recorded_counted(&m, &mut lb2, &mut ub2, &mut rec);
        assert_eq!(p1, p2);
        assert_eq!((lb1, ub1), (lb2, ub2), "recording never changes bounds");
        assert_eq!((elims1, elims2), (2, 2), "x then d forced to 1");
        assert_eq!(rec.steps.len(), 2, "one journal step per deduction");
    }

    #[test]
    fn equality_propagates_both_directions() {
        // a + b = 1, a fixed 1 -> b must be 0.
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_eq(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.fix(a, true);
        let (mut lb, mut ub) = free(2);
        assert_eq!(propagate_counted(&m, &mut lb, &mut ub).0, Propagation::Ok);
        assert_eq!(ub[1], 0.0);
    }
}
