//! The structured trace and the metrics registry are part of the
//! determinism guarantee: with tracing on, a suite run at `--jobs 1` and
//! `--jobs 8` must produce a byte-identical event stream (timing records
//! excluded — they are quarantined on their own JSONL lines) and a
//! byte-identical Prometheus exposition.

use regalloc_driver::{run_suite, trace_jsonl, CacheMode, DriverConfig, SuiteOutcome};
use regalloc_ilp::SolverConfig;
use regalloc_ir::Function;
use regalloc_workloads::{Benchmark, Suite};

fn suite50() -> Vec<Function> {
    let s = Suite::generate_scaled(Benchmark::Xlisp, 42, 0.14);
    assert!(s.functions.len() >= 40, "got {}", s.functions.len());
    s.functions
}

/// Same regime as `driver.rs::fast_config`: tight node/iteration limits
/// with generous wall-clock limits, so time never decides an outcome.
/// Tracing is on and the cache off (a populated cache changes the event
/// stream between runs by design).
fn traced_config(jobs: usize) -> DriverConfig {
    DriverConfig {
        jobs,
        solver: SolverConfig::deterministic(),
        function_budget: SolverConfig::deterministic().time_limit,
        cache: CacheMode::Off,
        equiv_runs: 1,
        equiv_seed: 7,
        lint: true,
        warm_starts: false,
        trace: true,
        ..DriverConfig::default()
    }
}

/// The deterministic part of the trace: every JSONL line except the
/// timing records.
fn deterministic_lines(out: &SuiteOutcome) -> String {
    trace_jsonl(out)
        .lines()
        .filter(|l| !l.contains("\"type\":\"timing\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn trace_stream_is_identical_across_worker_counts() {
    let funcs = suite50();
    let base = run_suite(&funcs, &traced_config(1));
    let par = run_suite(&funcs, &traced_config(8));

    let base_events = deterministic_lines(&base);
    assert!(
        base_events.contains("\"type\":\"span-start\""),
        "traces actually recorded events"
    );
    assert_eq!(
        base_events,
        deterministic_lines(&par),
        "jobs=1 and jobs=8 must emit byte-identical trace events"
    );

    // The merged metrics registry is deterministic too — shards are
    // merged in suite order, independent of which worker ran what. The
    // wall-clock-dependent families are excluded: the phase-time
    // histogram and the task-seconds sketch measure real elapsed time,
    // the pool telemetry depends on scheduling, and the jobs gauge
    // reports the (deliberately different) configuration.
    let deterministic_metrics = |out: &SuiteOutcome| {
        out.metrics
            .to_prometheus()
            .lines()
            .filter(|l| {
                !l.contains("regalloc_phase_seconds")
                    && !l.contains("regalloc_jobs")
                    && !l.contains("regalloc_pool_")
                    && !l.contains("regalloc_task_seconds_dist")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        deterministic_metrics(&base),
        deterministic_metrics(&par),
        "jobs=1 and jobs=8 must produce byte-identical deterministic metrics"
    );
}

/// The observatory snapshot (the performance-regression baseline) obeys
/// the same guarantee as the trace stream: with timing stripped it is
/// byte-identical across worker counts and across repeat runs.
#[test]
fn observatory_snapshot_is_identical_across_jobs_and_runs() {
    use regalloc_driver::observatory::{snapshot, SuiteSpec};

    let suites = vec![SuiteSpec {
        name: "seeded/xlisp".to_string(),
        functions: suite50(),
    }];
    let targets = [regalloc_machine::TargetId::X86Pentium];
    let serial = snapshot(&suites, &targets, 1, false);
    let parallel = snapshot(&suites, &targets, 8, false);
    assert_eq!(
        serial, parallel,
        "jobs=1 and jobs=8 must produce byte-identical timing-stripped snapshots"
    );
    let again = snapshot(&suites, &targets, 8, false);
    assert_eq!(parallel, again, "repeat runs must reproduce the snapshot");
    assert!(
        serial.contains("\"pivots\""),
        "snapshot carries solver counters"
    );
}

#[test]
fn trace_agrees_with_results_and_metrics() {
    let funcs = suite50();
    let out = run_suite(&funcs, &traced_config(4));

    let mut nodes = 0u64;
    let mut iters = 0u64;
    for r in &out.results {
        let t = r.trace.as_ref().expect("tracing was on");
        assert_eq!(t.function, r.name);
        if let Some((_, n, li)) = t.solve_done() {
            assert_eq!(n, r.solver_nodes, "{}: trace nodes", r.name);
            assert_eq!(li, r.lp_iters, "{}: trace lp iterations", r.name);
            nodes += n;
            iters += li;
        }
        if let Some((insts, vars, cons)) = t.model_built() {
            assert_eq!(insts, r.num_insts as u64, "{}: trace insts", r.name);
            assert_eq!(vars, r.num_vars as u64, "{}: trace vars", r.name);
            assert_eq!(
                cons, r.num_constraints as u64,
                "{}: trace constraints",
                r.name
            );
        }
        if let Some(rung) = r.rung {
            assert_eq!(
                t.accepted_rung(),
                Some(rung.name()),
                "{}: trace rung",
                r.name
            );
        }
    }
    assert!(nodes > 0, "the suite exercised the solver");
    assert_eq!(
        out.metrics.counter("regalloc_solver_nodes_total", &[]),
        nodes
    );
    assert_eq!(
        out.metrics.counter("regalloc_solver_lp_iters_total", &[]),
        iters
    );
    assert_eq!(
        out.metrics.counter("regalloc_functions_total", &[]),
        funcs.len() as u64
    );
}
