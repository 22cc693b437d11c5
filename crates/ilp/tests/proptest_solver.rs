//! Property-based testing of the 0-1 IP solver against brute-force
//! enumeration on small random models.

use proptest::prelude::*;
use regalloc_ilp::{solve_seeded, Deadline, Incumbent, Model, SolverConfig, VarId};

/// A random constraint row: (coefficients, sense 0/1/2, rhs).
type RandomRow = (Vec<(usize, i32)>, u8, i32);

#[derive(Debug, Clone)]
struct SmallModel {
    costs: Vec<i32>,
    rows: Vec<RandomRow>,
}

fn small_model() -> impl Strategy<Value = SmallModel> {
    let nvars = 2..7usize;
    nvars.prop_flat_map(|n| {
        let costs = proptest::collection::vec(-9i32..10, n);
        let row = (
            proptest::collection::vec((0..n, -3i32..4), 1..=n),
            0u8..3,
            -3i32..5,
        );
        let rows = proptest::collection::vec(row, 1..5);
        (costs, rows).prop_map(|(costs, rows)| SmallModel { costs, rows })
    })
}

fn build(m: &SmallModel) -> Model {
    let mut model = Model::new();
    let vars: Vec<VarId> = m
        .costs
        .iter()
        .enumerate()
        .map(|(i, c)| model.add_var(*c as f64, format!("v{i}")))
        .collect();
    for (coeffs, sense, rhs) in &m.rows {
        let cs: Vec<(VarId, f64)> = coeffs.iter().map(|(i, c)| (vars[*i], *c as f64)).collect();
        match sense {
            0 => model.add_le(cs, *rhs as f64),
            1 => model.add_ge(cs, *rhs as f64),
            _ => model.add_eq(cs, *rhs as f64),
        }
    }
    model
}

fn brute_force(model: &Model) -> Option<f64> {
    let n = model.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let assign: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if model.is_feasible(&assign) {
            let o = model.objective(&assign);
            if best.is_none_or(|b| o < b) {
                best = Some(o);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The solver's verdict and objective agree with brute force.
    #[test]
    fn solver_matches_brute_force(m in small_model()) {
        let model = build(&m);
        let truth = brute_force(&model);
        let sol = solve_seeded(&model, &SolverConfig::default(), &[], Deadline::unlimited());
        match truth {
            Some(obj) => {
                prop_assert_eq!(sol.status, regalloc_ilp::Status::Optimal);
                prop_assert!((sol.objective - obj).abs() < 1e-6,
                    "solver {} vs brute {}", sol.objective, obj);
                prop_assert!(model.is_feasible(&sol.values));
            }
            None => {
                prop_assert_eq!(sol.status, regalloc_ilp::Status::Infeasible);
            }
        }
    }

    /// A feasible warm start is never lost, whatever the budget.
    #[test]
    fn warm_start_is_never_lost(m in small_model()) {
        let model = build(&m);
        if brute_force(&model).is_some() {
            // Find any feasible point to use as warm start.
            let n = model.num_vars();
            let warm = (0u32..(1 << n)).find_map(|mask| {
                let a: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                model.is_feasible(&a).then_some(a)
            }).unwrap();
            let cfg = SolverConfig {
                time_limit: std::time::Duration::from_millis(0),
                ..Default::default()
            };
            let seed = Incumbent { source: "warm", values: warm.clone() };
            let sol = solve_seeded(&model, &cfg, &[seed], Deadline::unlimited());
            prop_assert!(sol.has_solution());
            prop_assert!(model.is_feasible(&sol.values));
            prop_assert!(sol.objective <= model.objective(&warm) + 1e-9);
        }
    }
}
