//! Solver health guards: NaN contamination, deadlines, and the
//! numerical-trouble outcome.

use std::time::Duration;

use regalloc_ilp::{solve_seeded, Deadline, Incumbent, Model, SolverConfig, Status};

fn tiny_model() -> Model {
    // max x0 + 2 x1 s.t. x0 + x1 <= 1  (min form)
    let mut m = Model::new();
    let x0 = m.add_var(-1.0, "x0");
    let x1 = m.add_var(-2.0, "x1");
    m.add_le(vec![(x0, 1.0), (x1, 1.0)], 1.0);
    m
}

#[test]
fn nan_cost_reports_numerical_trouble() {
    let mut m = Model::new();
    let x0 = m.add_var(f64::NAN, "x0");
    let x1 = m.add_var(-1.0, "x1");
    m.add_le(vec![(x0, 1.0), (x1, 1.0)], 1.0);
    let sol = solve_seeded(&m, &SolverConfig::default(), &[], Deadline::unlimited());
    assert_eq!(sol.status, Status::NumericalTrouble, "{:?}", sol.health);
    assert!(
        sol.health.nan_events > 0 || sol.health.lp_aborts > 0,
        "{:?}",
        sol.health
    );
}

#[test]
fn nan_constraint_coefficient_is_contained() {
    let mut m = Model::new();
    let x0 = m.add_var(-1.0, "x0");
    m.add_le(vec![(x0, f64::NAN)], 1.0);
    // The guard must turn the contamination into a structured status, not
    // a hang or a bogus "optimal" answer.
    let sol = solve_seeded(&m, &SolverConfig::default(), &[], Deadline::unlimited());
    assert_ne!(sol.status, Status::Optimal, "{:?}", sol.health);
}

#[test]
fn expired_deadline_with_warm_start_returns_it() {
    let m = tiny_model();
    let warm = vec![false, false];
    let seed = Incumbent {
        source: "warm",
        values: warm.clone(),
    };
    let sol = solve_seeded(
        &m,
        &SolverConfig::default(),
        &[seed],
        Deadline::after(Duration::ZERO),
    );
    assert_eq!(sol.status, Status::Feasible);
    assert!(sol.warm_start_only);
    assert_eq!(sol.values, warm);
}

#[test]
fn expired_deadline_without_warm_start_is_unknown() {
    let m = tiny_model();
    let sol = solve_seeded(
        &m,
        &SolverConfig::default(),
        &[],
        Deadline::after(Duration::ZERO),
    );
    assert_eq!(sol.status, Status::Unknown);
    assert!(!sol.has_solution());
}

#[test]
fn generous_deadline_does_not_perturb_the_answer() {
    let m = tiny_model();
    let sol = solve_seeded(
        &m,
        &SolverConfig::default(),
        &[],
        Deadline::after(Duration::from_secs(60)),
    );
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.objective.round() as i64, -2);
    assert!(!sol.health.numerical_trouble(), "{:?}", sol.health);
}
