//! Trace-event integration tests: per-node iteration attribution and the
//! event stream's consistency with the returned `Solution`.

use std::time::Duration;

use regalloc_ilp::{
    solve_seeded, solve_seeded_traced, Deadline, Incumbent, Model, SolverConfig, Status,
};
use regalloc_obs::{Event, Tracer};

/// Odd-cycle vertex packing: the LP optimum is fractional, so the search
/// must branch — several nodes with real simplex work.
fn odd_cycle(k: usize) -> Model {
    let mut m = Model::new();
    let v: Vec<_> = (0..k).map(|i| m.add_var(-1.0, format!("x{i}"))).collect();
    for i in 0..k {
        m.add_le(vec![(v[i], 1.0), (v[(i + 1) % k], 1.0)], 1.0);
    }
    m
}

fn node_and_dive_iters(events: &[Event]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            Event::Node { lp_iters, .. } | Event::Dive { lp_iters, .. } => *lp_iters,
            _ => 0,
        })
        .sum()
}

#[test]
fn per_node_iterations_sum_to_solution_total() {
    let m = odd_cycle(7);
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &[],
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("odd7");
    assert_eq!(sol.status, Status::Optimal);
    assert!(sol.lp_iters > 0);
    assert_eq!(
        node_and_dive_iters(&trace.events),
        sol.lp_iters,
        "event-attributed iterations must equal Solution::lp_iters"
    );
    let node_count = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::Node { .. }))
        .count() as u64;
    assert_eq!(node_count, sol.nodes, "one Node event per counted node");
    assert_eq!(
        trace.solve_done(),
        Some(("optimal", sol.nodes, sol.lp_iters))
    );
}

#[test]
fn root_node_reuses_the_dive_relaxation() {
    // The dive's first relaxation is the root box after the root's own
    // propagation: the root node takes that answer instead of solving the
    // same LP again, and its iterations are counted once, in the dive.
    let m = odd_cycle(7);
    for emit_certificates in [false, true] {
        let cfg = SolverConfig {
            emit_certificates,
            ..SolverConfig::default()
        };
        let tracer = Tracer::on();
        let sol = solve_seeded_traced(&m, &cfg, &[], Deadline::unlimited(), &tracer);
        let trace = tracer.finish("odd7");
        let dive_iters = trace.events.iter().find_map(|e| match e {
            Event::Dive { lp_iters, .. } => Some(*lp_iters),
            _ => None,
        });
        assert!(dive_iters > Some(0), "the dive relaxed the root box");
        let nodes: Vec<(u64, u64)> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Node {
                    index, lp_iters, ..
                } => Some((*index, *lp_iters)),
                _ => None,
            })
            .collect();
        assert_eq!(nodes[0], (1, 0), "the root solved no LP of its own");
        assert!(
            nodes[1..].iter().all(|&(_, iters)| iters > 0),
            "every other node relaxes its own box: {nodes:?}"
        );
        assert_eq!(node_and_dive_iters(&trace.events), sol.lp_iters);
        assert_eq!(sol.status, Status::Optimal);
    }
}

#[test]
fn abandoned_node_iterations_are_not_lost() {
    // A tiny per-LP iteration budget forces every node relaxation to be
    // abandoned at the limit. The iterations it burned must still appear
    // in the totals — before the accounting fix they vanished (only
    // `LpOutcome::Optimal` carried an iteration count).
    let m = odd_cycle(9);
    let cfg = SolverConfig {
        lp_iter_limit: 3,
        node_limit: 8,
        time_limit: Duration::from_secs(300),
        ..SolverConfig::default()
    };
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(&m, &cfg, &[], Deadline::unlimited(), &tracer);
    let trace = tracer.finish("starved");
    assert!(
        sol.lp_iters > 0,
        "iterations spent on abandoned nodes must be attributed"
    );
    assert_eq!(node_and_dive_iters(&trace.events), sol.lp_iters);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::Node {
            outcome: "abandoned",
            ..
        }
    )));
}

#[test]
fn pruned_node_iterations_are_attributed() {
    // Seed with the known optimum so every explored node is bound-pruned
    // against it; the pruned nodes' LP work still lands in the totals.
    let m = odd_cycle(5);
    let seeds = vec![Incumbent {
        source: "exact",
        values: vec![true, false, true, false, false],
    }];
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &seeds,
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("seeded");
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(node_and_dive_iters(&trace.events), sol.lp_iters);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedAccepted {
            source: "exact",
            ..
        }
    )));
}

#[test]
fn infeasible_seed_is_rejected_in_trace() {
    let mut m = Model::new();
    let a = m.add_var(-1.0, "a");
    m.add_ge(vec![(a, 1.0)], 1.0);
    let seeds = vec![
        Incumbent {
            source: "bad",
            values: vec![false],
        },
        Incumbent {
            source: "short",
            values: vec![],
        },
    ];
    let tracer = Tracer::on();
    let sol = solve_seeded_traced(
        &m,
        &SolverConfig::default(),
        &seeds,
        Deadline::unlimited(),
        &tracer,
    );
    let trace = tracer.finish("rejects");
    assert_eq!(sol.status, Status::Optimal);
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedRejected {
            source: "bad",
            reason: "infeasible",
        }
    )));
    assert!(trace.events.iter().any(|e| matches!(
        e,
        Event::SeedRejected {
            source: "short",
            reason: "wrong-size",
        }
    )));
}

#[test]
fn tracing_does_not_change_the_solution() {
    let m = odd_cycle(7);
    let cfg = SolverConfig::default();
    let cold = solve_seeded(&m, &cfg, &[], Deadline::unlimited());
    let tracer = Tracer::on();
    let traced = solve_seeded_traced(&m, &cfg, &[], Deadline::unlimited(), &tracer);
    assert_eq!(cold.status, traced.status);
    assert_eq!(cold.values, traced.values);
    assert_eq!(cold.objective, traced.objective);
    assert_eq!(cold.nodes, traced.nodes);
    assert_eq!(cold.lp_iters, traced.lp_iters);
}
