//! Budget-governor edge cases at the `run_suite` level: the governor
//! must degrade gracefully (demote, never refuse or underflow) when the
//! global budget is absurdly small, empty, or smaller than a single
//! function's ask.

use std::time::Duration;

use regalloc_driver::{run_suite, CacheMode, DriverConfig};
use regalloc_ilp::SolverConfig;
use regalloc_workloads::{Benchmark, Suite};

fn tight_cfg() -> DriverConfig {
    DriverConfig {
        jobs: 2,
        solver: SolverConfig::deterministic(),
        function_budget: Duration::from_secs(2),
        cache: CacheMode::Off,
        equiv_runs: 0,
        warm_starts: false,
        ..DriverConfig::default()
    }
}

fn workload(n: usize) -> Vec<regalloc_ir::Function> {
    let mut funcs = Suite::generate(Benchmark::Eqntott, 77).functions;
    funcs.truncate(n);
    funcs
}

#[test]
fn zero_function_suite_is_a_clean_noop() {
    let cfg = DriverConfig {
        global_budget: Some(Duration::from_secs(1)),
        ..tight_cfg()
    };
    let out = run_suite(&[], &cfg);
    assert!(out.results.is_empty());
    assert_eq!(out.stats.attempted, 0);
    assert_eq!(out.stats.cache_hits, 0);
}

#[test]
fn budget_exhausted_mid_suite_still_answers_every_function() {
    let funcs = workload(12);
    let cfg = DriverConfig {
        // A suite budget no real solve fits in: the governor must hand
        // out shrinking (eventually zero) grants, and every function
        // must still come back with a result from the fallback rungs.
        global_budget: Some(Duration::from_millis(1)),
        ..tight_cfg()
    };
    let out = run_suite(&funcs, &cfg);
    assert_eq!(out.results.len(), funcs.len());
    for r in &out.results {
        assert!(
            r.func.is_some() || !r.reasons.is_empty(),
            "{}: budget exhaustion must demote (or explain), not vanish",
            r.name
        );
    }
    // The run as a whole must not have been silently un-budgeted: with a
    // 1 ms suite budget at least one function is forced off the optimal
    // rung that an unbudgeted run reaches.
    let unbudgeted = run_suite(&funcs, &tight_cfg());
    let degraded = out
        .results
        .iter()
        .zip(&unbudgeted.results)
        .filter(|(a, b)| a.rung != b.rung || a.reasons.len() > b.reasons.len())
        .count();
    assert!(
        degraded > 0,
        "a 1 ms suite budget should visibly degrade at least one function"
    );
}

#[test]
fn single_function_larger_than_whole_budget_demotes_not_underflows() {
    let funcs = workload(1);
    let cfg = DriverConfig {
        // One function, and the whole suite's budget is far below the
        // per-function ceiling. The grant arithmetic must clamp (not
        // underflow) and the function must still be answered.
        function_budget: Duration::from_secs(8),
        global_budget: Some(Duration::from_nanos(1)),
        ..tight_cfg()
    };
    let out = run_suite(&funcs, &cfg);
    assert_eq!(out.results.len(), 1);
    let r = &out.results[0];
    assert!(
        r.func.is_some() || !r.reasons.is_empty(),
        "an oversized function must demote to a fallback, not disappear"
    );
}
