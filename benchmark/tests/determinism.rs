//! Determinism self-test: a tiny instance of every workload, run at one
//! and at two workers, twice each, must reproduce its deterministic
//! metrics exactly — and every run must emit exactly the metric names
//! `BENCHMARK.json` declares.

use std::time::Duration;

use regalloc_benchmark::metrics::{per_layer, END_TO_END};
use regalloc_benchmark::sys::Json;
use regalloc_benchmark::{run, Outcome, Size, Spec, Workload};

/// Metrics the regime fixes exactly: the quality metrics and the solver's
/// counts.
fn deterministic(out: &Outcome) -> Vec<(String, f64)> {
    out.values
        .0
        .iter()
        .filter(|(name, _)| {
            matches!(
                name.as_str(),
                "solved_frac" | "optimal_frac" | "spill_cycles" | "code_bytes" | "ok_frac"
            ) || (name.starts_with("ilp.") && !name.ends_with("_ms") && *name != "ilp.us_per_pivot")
                || name.starts_with("core.demote.")
                || name.starts_with("core.model_")
                || *name == "audit.leaves"
        })
        .map(|(n, v)| (n.clone(), *v))
        .collect()
}

fn tiny(workload: Workload, jobs: usize) -> Outcome {
    let out = run(&Spec {
        workload,
        seed: 7,
        seconds: Duration::ZERO,
        trace: true,
        jobs,
        size: Size::Tiny,
    });
    assert!(out.correct(), "{}: {:?}", workload.name(), out.problems);
    out
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_worker_counts() {
    for w in Workload::ALL {
        let first = tiny(w, 1);
        let want = deterministic(&first);
        assert!(
            want.iter().any(|(n, v)| n == "ilp.pivots" && *v > 0.0),
            "{}: the tiny instance never reached the simplex",
            w.name()
        );
        for jobs in [2, 1, 2] {
            assert_eq!(
                deterministic(&tiny(w, jobs)),
                want,
                "{} at {jobs} workers",
                w.name()
            );
        }
    }
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .expect("metric list present")
        .as_array()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named metric")
                .to_string()
        })
        .collect()
}

/// Metric names in a result line.
fn emitted(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("the result line is JSON");
    match doc.get("metrics") {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn emitted_metric_names_are_exactly_the_declared_ones() {
    let mut e2e = declared("end_to_end");
    let mut layers = declared("per_layer");
    let mut ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(ours, e2e, "END_TO_END order");
    let ours_layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(ours_layers, layers, "per-layer order");
    e2e.sort();
    layers.sort();
    ours.sort();
    let out = tiny(Workload::SeededX86, 2);
    assert_eq!(emitted(&out.json(false)), e2e);
    assert_eq!(emitted(&out.json(true)), layers);
    for name in &ours {
        assert!(out.values.0.contains_key(name), "{name} was never measured");
    }
}
