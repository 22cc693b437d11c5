//! Observatory snapshots — the performance-regression baseline format.
//!
//! A snapshot runs a set of suites under a *deterministic* solver regime
//! (tight node/iteration limits, generous wall-clock limits, cache off,
//! warm starts off — the same regime the trace-determinism tests pin)
//! and renders one schema-versioned JSON document. Every field is either
//!
//! * **deterministic** — solver effort (nodes, LP iterations, pivots,
//!   presolve eliminations), model sizes, outcome counts and exact
//!   nearest-rank quantiles, byte-identical across `--jobs` values and
//!   repeat runs; or
//! * **timing** — wall-clock measurements, quarantined under each
//!   suite's `"timing"` key (and the whole document's key order is
//!   canonical), so consumers strip or zero them with one predicate.
//!
//! `scripts/bench_diff.py` compares two snapshots: deterministic fields
//! exactly (any drift is a hard failure), timing fields advisorily.

use std::fmt::Write as _;

use regalloc_ilp::SolverConfig;
use regalloc_ir::Function;
use regalloc_machine::TargetId;
use regalloc_obs::push_json_str;
use regalloc_workloads::{Benchmark, Suite};

use crate::{run_suite, CacheMode, DriverConfig, SuiteOutcome};

/// Version of the snapshot document layout. Bump on any key change so
/// `bench_diff.py` refuses to compare incompatible snapshots.
pub const SNAPSHOT_SCHEMA: u32 = 1;

/// One named batch of functions the observatory measures.
pub struct SuiteSpec {
    /// Stable name recorded in the snapshot (e.g. `seeded/compress` or
    /// `cc/fib`).
    pub name: String,
    pub functions: Vec<Function>,
}

/// The deterministic solver regime snapshots run under
/// ([`SolverConfig::deterministic`]): the limits that normally end a
/// solve (nodes, LP iterations, rows) are deterministic, and the
/// wall-clock limits are generous enough never to bind.
pub fn observatory_config(target: TargetId, jobs: usize) -> DriverConfig {
    DriverConfig {
        target,
        jobs,
        solver: SolverConfig::deterministic(),
        function_budget: SolverConfig::deterministic().time_limit,
        global_budget: None,
        cache: CacheMode::Off,
        warm_starts: false,
        trace: false,
        ..DriverConfig::default()
    }
}

/// The seeded workload suites, one [`SuiteSpec`] per paper benchmark.
pub fn seeded_suites(seed: u64, scale: f64) -> Vec<SuiteSpec> {
    Benchmark::all()
        .iter()
        .map(|&b| {
            let s = Suite::generate_scaled(b, seed, scale);
            SuiteSpec {
                name: format!("seeded/{}", b.name()),
                functions: s.functions,
            }
        })
        .collect()
}

/// Run every suite against every target and render the snapshot
/// document. With `include_timing` off, every `"timing"` value is
/// `null` and the document is byte-identical across `jobs` values and
/// repeat runs.
pub fn snapshot(
    suites: &[SuiteSpec],
    targets: &[TargetId],
    jobs: usize,
    include_timing: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {SNAPSHOT_SCHEMA},");
    s.push_str("  \"suites\": [\n");
    let mut first = true;
    for spec in suites {
        for &target in targets {
            let cfg = observatory_config(target, jobs);
            let out = run_suite(&spec.functions, &cfg);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            suite_section(&mut s, &spec.name, target, &out, include_timing);
        }
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn suite_section(
    s: &mut String,
    name: &str,
    target: TargetId,
    out: &SuiteOutcome,
    include_timing: bool,
) {
    let st = &out.stats;
    let m = &out.metrics;
    let solved = m.counter("regalloc_functions_solved_total", &[]);
    let optimal = m.counter("regalloc_functions_optimal_total", &[]);
    let max_dive = out
        .results
        .iter()
        .map(|r| r.health.max_dive_depth)
        .max()
        .unwrap_or(0);
    let model_vars: u64 = out.results.iter().map(|r| r.num_vars as u64).sum();
    let model_constraints: u64 = out.results.iter().map(|r| r.num_constraints as u64).sum();
    let ip_bytes: u64 = out.results.iter().map(|r| r.ip_bytes).sum();

    s.push_str("    {\n");
    s.push_str("      \"suite\": ");
    push_json_str(s, name);
    s.push_str(",\n      \"target\": ");
    push_json_str(s, target.name());
    s.push_str(",\n");
    let _ = writeln!(s, "      \"functions\": {},", st.functions);
    let _ = writeln!(s, "      \"attempted\": {},", st.attempted);
    let _ = writeln!(s, "      \"solved\": {solved},");
    let _ = writeln!(s, "      \"optimal\": {optimal},");
    let _ = writeln!(
        s,
        "      \"nodes\": {},",
        m.counter("regalloc_solver_nodes_total", &[])
    );
    let _ = writeln!(
        s,
        "      \"lp_iters\": {},",
        m.counter("regalloc_solver_lp_iters_total", &[])
    );
    let _ = writeln!(
        s,
        "      \"pivots\": {},",
        m.counter("regalloc_solver_pivots_total", &[])
    );
    let _ = writeln!(
        s,
        "      \"degenerate_pivots\": {},",
        m.counter("regalloc_solver_degenerate_pivots_total", &[])
    );
    let _ = writeln!(
        s,
        "      \"ratio_test_ties\": {},",
        m.counter("regalloc_solver_ratio_ties_total", &[])
    );
    let _ = writeln!(
        s,
        "      \"presolve_eliminations\": {},",
        m.counter("regalloc_presolve_eliminations_total", &[])
    );
    let _ = writeln!(s, "      \"max_dive_depth\": {max_dive},");
    let _ = writeln!(s, "      \"model_vars\": {model_vars},");
    let _ = writeln!(s, "      \"model_constraints\": {model_constraints},");
    let _ = writeln!(s, "      \"ip_bytes\": {ip_bytes},");
    s.push_str("      \"rungs\": {");
    let rungs: Vec<String> = st
        .rungs
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("\"{}\": {n}", r.name()))
        .collect();
    s.push_str(&rungs.join(", "));
    s.push_str("},\n");
    s.push_str("      \"quantiles\": {");
    let fams = [
        ("nodes", "regalloc_solver_nodes_dist"),
        ("lp_iters", "regalloc_solver_lp_iters_dist"),
        ("pivots", "regalloc_solver_pivots_dist"),
        ("constraints", "regalloc_model_constraints_dist"),
    ];
    let quants: Vec<String> = fams
        .iter()
        .map(|(label, fam)| {
            let q = |p: f64| m.quantile(fam, &[], p).map_or("null".into(), fnum);
            format!("\"{label}\": [{}, {}, {}]", q(0.5), q(0.95), q(0.99))
        })
        .collect();
    s.push_str(&quants.join(", "));
    s.push_str("},\n");
    if include_timing {
        let solve: f64 = out.results.iter().map(|r| r.solve_time.as_secs_f64()).sum();
        let build: f64 = out.results.iter().map(|r| r.build_time.as_secs_f64()).sum();
        let validate: f64 = out
            .results
            .iter()
            .map(|r| r.validate_time.as_secs_f64())
            .sum();
        s.push_str("      \"timing\": {");
        let _ = write!(
            s,
            "\"wall_seconds\": {}, \"cpu_seconds\": {}, \"build_seconds\": {}, \"solve_seconds\": {}, \"validate_seconds\": {}",
            fnum(st.wall_time.as_secs_f64()),
            fnum(st.cpu_time.as_secs_f64()),
            fnum(build),
            fnum(solve),
            fnum(validate),
        );
        s.push_str("}\n");
    } else {
        s.push_str("      \"timing\": null\n");
    }
    s.push_str("    }");
}

/// Shortest-roundtrip float rendering; integral values print without a
/// fraction, exactly as Rust's `Display` for `f64` does — stable and
/// valid JSON for every finite value.
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suites() -> Vec<SuiteSpec> {
        let s = Suite::generate_scaled(Benchmark::Compress, 7, 0.05);
        vec![SuiteSpec {
            name: "seeded/compress".to_string(),
            functions: s.functions,
        }]
    }

    #[test]
    fn snapshot_has_schema_and_deterministic_fields() {
        let suites = tiny_suites();
        let doc = snapshot(&suites, &[TargetId::X86Pentium], 2, false);
        assert!(doc.starts_with("{\n  \"schema\": 1,"));
        assert!(doc.contains("\"suite\": \"seeded/compress\""));
        assert!(doc.contains("\"target\": \"x86-pentium\""));
        assert!(doc.contains("\"timing\": null"));
        assert!(doc.contains("\"quantiles\""));
    }

    #[test]
    fn snapshot_without_timing_is_reproducible() {
        let suites = tiny_suites();
        let a = snapshot(&suites, &[TargetId::X86Pentium], 1, false);
        let b = snapshot(&suites, &[TargetId::X86Pentium], 2, false);
        assert_eq!(a, b, "snapshots must not depend on worker count");
    }

    #[test]
    fn timing_is_present_when_requested() {
        let suites = tiny_suites();
        let doc = snapshot(&suites, &[TargetId::X86Pentium], 1, true);
        assert!(doc.contains("\"wall_seconds\""));
        assert!(!doc.contains("\"timing\": null"));
    }
}
