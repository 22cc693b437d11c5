//! Shared experiment machinery for the paper-reproduction binaries.
//!
//! Each binary regenerates one table or figure of Kong & Wilken (MICRO
//! 1998); see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — spill-code cost constants |
//! | `table2` | Table 2 — functions total/attempted/solved/optimal |
//! | `table3` | Table 3 — dynamic spill-overhead components, IP vs GCC |
//! | `fig9` | Fig. 9 — IP constraints vs intermediate instructions |
//! | `fig10` | Fig. 10 — optimal solution time vs constraints |
//! | `targets` | §6 — IP model size per target, incl. x86 vs the 24-register RISC |
//!
//! All binaries accept `--scale <f>` (fraction of each benchmark's
//! function count, default 0.2), `--seed <n>` (default 1998) and
//! `--time-limit <seconds>` (per-function solver budget, default 4; the
//! paper allowed CPLEX 1024 seconds per function on 1998 hardware).
//! Experiments now run through the `regalloc-driver` batch service, so
//! they also accept `--jobs <n>` (worker threads), `--budget-secs <s>`
//! (global wall-clock budget), `--cache-dir <dir>` (solution-cache
//! directory, default `results/cache`), `--no-cache` (in-memory
//! dedup only) and `--warm-starts on|off` (cross-function incumbent
//! warm starts from cached symbolic solutions, default on).

use std::path::PathBuf;
use std::time::Duration;

use regalloc_core::{ReasonCode, Rung};
use regalloc_driver::{
    parse_secs, run_suite, CacheMode, DriverConfig, FunctionResult, SuiteOutcome,
};
use regalloc_machine::TargetId;
use regalloc_obs::{Metrics, Phase};
use regalloc_workloads::{Benchmark, Suite};

/// Command-line options shared by the experiment binaries: the driver
/// configuration every run uses, plus the workload to generate.
#[derive(Clone, Debug)]
pub struct Options {
    /// The batch driver's configuration (target, solver limits, workers,
    /// budgets, cache, warm starts, audit).
    pub driver: DriverConfig,
    /// Fraction of each benchmark's paper function count to generate.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Options {
    /// The harness regime over the driver's defaults: the baseline runs
    /// beside the IP pipeline (Table 3), accepted code is linted, every
    /// function is traced (Figs. 9/10 read the trace events, cross-checked
    /// against the results), and the equivalence runs draw from the
    /// workload seed. The cache stays in memory, so library callers never
    /// touch the filesystem unasked.
    fn default() -> Options {
        let seed = 1998;
        Options {
            driver: DriverConfig {
                equiv_seed: seed,
                compare_baseline: true,
                lint: true,
                trace: true,
                ..DriverConfig::default()
            },
            scale: 0.2,
            seed,
        }
    }
}

impl Options {
    /// Parse `--target`, `--scale`, `--seed`, `--time-limit`, `--jobs`,
    /// `--budget-secs`, `--cache-dir`, `--no-cache`, `--warm-starts` and
    /// `--audit` from `std::env::args`. Unlike [`Options::default`], the
    /// CLI persists the solution cache under `results/cache`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Options {
        let mut o = Options::default();
        o.driver.cache = CacheMode::Disk(PathBuf::from("results/cache"));
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let need = |i: usize| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {}", args[i]))
            };
            match args[i].as_str() {
                "--target" => {
                    let t = need(i);
                    o.driver.target =
                        TargetId::parse(t).unwrap_or_else(|| panic!("unknown target `{t}`"));
                    i += 2;
                }
                "--scale" => {
                    o.scale = need(i).parse().expect("--scale takes a float");
                    i += 2;
                }
                "--seed" => {
                    o.seed = need(i).parse().expect("--seed takes an integer");
                    i += 2;
                }
                "--time-limit" => {
                    let limit =
                        parse_secs("--time-limit", need(i)).unwrap_or_else(|e| panic!("{e}"));
                    o.set_time_limit(limit);
                    i += 2;
                }
                "--jobs" => {
                    o.driver.jobs = need(i).parse().expect("--jobs takes an integer");
                    i += 2;
                }
                "--budget-secs" => {
                    let budget =
                        parse_secs("--budget-secs", need(i)).unwrap_or_else(|e| panic!("{e}"));
                    o.driver.global_budget = Some(budget);
                    i += 2;
                }
                "--cache-dir" => {
                    o.driver.cache = CacheMode::Disk(PathBuf::from(need(i)));
                    i += 2;
                }
                "--no-cache" => {
                    o.driver.cache = CacheMode::Memory;
                    i += 1;
                }
                "--warm-starts" => {
                    o.driver.warm_starts = match need(i).as_str() {
                        "on" => true,
                        "off" => false,
                        v => panic!("--warm-starts takes on|off, got {v}"),
                    };
                    i += 2;
                }
                "--audit" => {
                    o.driver.audit = true;
                    i += 1;
                }
                other => panic!(
                    "unknown argument {other}; supported: --target --scale --seed \
                     --time-limit --jobs --budget-secs --cache-dir --no-cache \
                     --warm-starts --audit"
                ),
            }
        }
        o.driver.equiv_seed = o.seed;
        o
    }

    /// Set the solver's per-solve time limit, and with it the
    /// per-function budget across all ladder rungs: 4× the limit, at
    /// least 8 s.
    pub fn set_time_limit(&mut self, limit: Duration) {
        self.driver.solver.time_limit = limit;
        self.driver.function_budget = limit.saturating_mul(4).max(Duration::from_secs(8));
    }
}

/// Run both allocators over every generated benchmark through the
/// `regalloc-driver` batch service, as one flat suite so the driver's
/// scheduler and workers see the full mix. Returns the driver's outcome
/// and, for each of its results, the benchmark the function came from.
///
/// The IP side runs through the fault-tolerant `RobustAllocator`
/// pipeline (with the graph-coloring baseline injected as its fourth
/// rung), so a solver failure on any function degrades that function
/// instead of aborting the whole experiment.
pub fn run_all(o: &Options) -> (SuiteOutcome, Vec<Benchmark>) {
    let mut funcs = Vec::new();
    let mut owners = Vec::new();
    for b in Benchmark::all() {
        let suite = Suite::generate_scaled(b, o.seed, o.scale);
        owners.extend(std::iter::repeat_n(b, suite.functions.len()));
        funcs.extend(suite.functions);
    }
    (run_suite(&funcs, &o.driver), owners)
}

/// One Fig. 9 point, read from a result's `ModelBuilt` trace event and
/// cross-checked against the result fields.
#[derive(Clone, Debug)]
pub struct Fig9Point {
    pub benchmark: Benchmark,
    pub function: String,
    /// Intermediate instructions (x-axis).
    pub insts: u64,
    /// IP decision variables.
    pub vars: u64,
    /// IP constraints (y-axis).
    pub constraints: u64,
}

/// Extract the Fig. 9 scatter from the trace events of attempted
/// functions whose model built. `benchmarks` names each result's
/// benchmark, as [`run_all`] returns it.
///
/// # Panics
///
/// Panics if a trace's `ModelBuilt` payload disagrees with the result it
/// rides on — the instrumentation would be lying about the experiment.
pub fn fig9_points(results: &[FunctionResult], benchmarks: &[Benchmark]) -> Vec<Fig9Point> {
    let mut pts = Vec::new();
    for (r, &benchmark) in results.iter().zip(benchmarks).filter(|(r, _)| r.attempted) {
        let Some((insts, vars, constraints)) = r.trace.as_ref().and_then(|t| t.model_built())
        else {
            continue;
        };
        assert_eq!(
            (insts, vars, constraints),
            (
                r.num_insts as u64,
                r.num_vars as u64,
                r.num_constraints as u64
            ),
            "{}: ModelBuilt trace event disagrees with the driver result",
            r.name
        );
        pts.push(Fig9Point {
            benchmark,
            function: r.name.clone(),
            insts,
            vars,
            constraints,
        });
    }
    pts
}

/// One Fig. 10 point, read from a result's `SolveDone` trace event and the
/// trace's solve-phase wall time.
#[derive(Clone, Debug)]
pub struct Fig10Point {
    pub benchmark: Benchmark,
    pub function: String,
    /// IP constraints (x-axis).
    pub constraints: u64,
    /// IP solve wall time in seconds (y-axis; the trace's solve phase
    /// equals `Solution::solve_time` exactly).
    pub solve_seconds: f64,
    /// Branch-and-bound nodes the solve expanded.
    pub nodes: u64,
    /// Simplex iterations across every LP relaxation.
    pub lp_iters: u64,
}

/// Extract the Fig. 10 scatter from trace events: optimally-solved,
/// freshly-solved functions only (cache hits replay a stored allocation,
/// so their solve time is not a measurement). `benchmarks` names each
/// result's benchmark, as [`run_all`] returns it.
///
/// # Panics
///
/// Panics if a trace's `SolveDone` payload disagrees with the result it
/// rides on.
pub fn fig10_points(results: &[FunctionResult], benchmarks: &[Benchmark]) -> Vec<Fig10Point> {
    let mut pts = Vec::new();
    for (r, &benchmark) in results
        .iter()
        .zip(benchmarks)
        .filter(|(r, _)| r.solved_optimally() && !r.cache_hit)
    {
        let Some(t) = &r.trace else { continue };
        let Some((status, nodes, lp_iters)) = t.solve_done() else {
            continue;
        };
        assert_eq!(
            status, "optimal",
            "{}: rung says optimal, trace says {status}",
            r.name
        );
        assert_eq!(
            (nodes, lp_iters),
            (r.solver_nodes, r.lp_iters),
            "{}: SolveDone trace event disagrees with the driver result",
            r.name
        );
        pts.push(Fig10Point {
            benchmark,
            function: r.name.clone(),
            constraints: r.num_constraints as u64,
            solve_seconds: t.phase_seconds(Phase::Solve),
            nodes,
            lp_iters,
        });
    }
    pts
}

/// One row of Table 2, read from a metrics registry: the function counts
/// and the degradation ladder.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Functions in the registry's share of the suite.
    pub total: u64,
    /// Functions attempted (no 64-bit values).
    pub attempted: u64,
    /// Functions an IP rung served.
    pub solved: u64,
    /// Functions served with proved optimality.
    pub optimal: u64,
    /// Rungs and demotion reasons.
    pub ladder: DegradationSummary,
}

impl Table2Row {
    /// Read a row from `m`.
    pub fn from_metrics(m: &Metrics) -> Table2Row {
        Table2Row {
            total: m.counter("regalloc_functions_total", &[]),
            attempted: m.counter("regalloc_functions_attempted_total", &[]),
            solved: m.counter("regalloc_functions_solved_total", &[]),
            optimal: m.counter("regalloc_functions_optimal_total", &[]),
            ladder: DegradationSummary::from_metrics(m),
        }
    }
}

/// Table 2's rows: one per benchmark, read from the merge of that
/// benchmark's per-task metrics shards, then `Total`, read from the
/// suite's merged registry. `benchmarks` names each result's benchmark,
/// as [`run_all`] returns it.
pub fn table2_rows(out: &SuiteOutcome, benchmarks: &[Benchmark]) -> Vec<(&'static str, Table2Row)> {
    let mut rows: Vec<(&'static str, Table2Row)> = Benchmark::all()
        .into_iter()
        .map(|b| {
            let mut m = Metrics::new();
            for (r, _) in out.results.iter().zip(benchmarks).filter(|(_, &o)| o == b) {
                m.merge(&r.metrics);
            }
            (b.name(), Table2Row::from_metrics(&m))
        })
        .collect();
    rows.push(("Total", Table2Row::from_metrics(&out.metrics)));
    rows
}

/// Degradation-ladder accounting read from a metrics registry, printed
/// under the Table 2/Table 3 reports.
#[derive(Clone, Debug, Default)]
pub struct DegradationSummary {
    /// Functions served per rung, in ladder order.
    pub rungs: Vec<(Rung, usize)>,
    /// Demotion reasons recorded, with counts, in [`ReasonCode::ALL`]
    /// order.
    pub reasons: Vec<(ReasonCode, usize)>,
}

impl DegradationSummary {
    /// Tally rungs and demotion reasons from a metrics registry
    /// (`regalloc_rung_functions_total{rung=..}` and
    /// `regalloc_demotions_total{reason=..}`).
    pub fn from_metrics(m: &Metrics) -> DegradationSummary {
        let by_rung = m.counter_by_label("regalloc_rung_functions_total", "rung");
        let rungs = Rung::ALL
            .iter()
            .map(|&r| {
                let n = by_rung
                    .iter()
                    .find(|(name, _)| Rung::from_name(name) == Some(r))
                    .map_or(0, |(_, n)| *n as usize);
                (r, n)
            })
            .collect();
        let by_reason = m.counter_by_label("regalloc_demotions_total", "reason");
        let reasons = ReasonCode::ALL
            .iter()
            .filter_map(|&rc| {
                by_reason
                    .iter()
                    .find(|(name, _)| ReasonCode::from_name(name) == Some(rc))
                    .map(|(_, n)| (rc, *n as usize))
            })
            .collect();
        DegradationSummary { rungs, reasons }
    }

    /// Functions that degraded below the IP rungs.
    pub fn degraded(&self) -> usize {
        self.rungs
            .iter()
            .filter(|(r, _)| *r > Rung::IpIncumbent)
            .map(|(_, n)| n)
            .sum()
    }
}

impl std::fmt::Display for DegradationSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rungs:")?;
        for (r, n) in &self.rungs {
            write!(f, " {r} {n}")?;
        }
        if self.reasons.is_empty() {
            write!(f, "; no demotions")?;
        } else {
            write!(f, "; demotions:")?;
            for (r, n) in &self.reasons {
                write!(f, " {r} {n}")?;
            }
        }
        Ok(())
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the growth exponent
/// quoted for Figs. 9 and 10 (the paper reports roughly `O(n^2.5)` for
/// solve time vs constraints).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Render a ratio like the paper's Table 3 (`IP/GCC` column): two decimal
/// places, with the sign conventions of net counts preserved.
pub fn ratio(a: i64, b: i64) -> String {
    if b == 0 {
        return "—".to_string();
    }
    format!("{:.2}", a as f64 / b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_power_law() {
        let pts: Vec<(f64, f64)> = (1..50)
            .map(|i| (i as f64, (i as f64).powf(2.5) * 3.0))
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.5).abs() < 1e-6, "slope {s}");
    }

    #[test]
    fn slope_handles_degenerate_input() {
        assert!(loglog_slope(&[]).is_nan());
        assert!(loglog_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(36, 100), "0.36");
        assert_eq!(ratio(-331, -53), "6.25");
        assert_eq!(ratio(1, 0), "—");
    }

    /// A run small enough that no solve stops on the clock.
    fn tiny() -> Options {
        let mut o = Options {
            scale: 0.004,
            seed: 3,
            ..Options::default()
        };
        o.driver.equiv_seed = o.seed;
        o.set_time_limit(Duration::from_millis(100));
        o
    }

    #[test]
    fn tiny_run_produces_records() {
        let o = tiny();
        let (out, benchmarks) = run_all(&o);
        let results = &out.results;
        assert_eq!(benchmarks.len(), results.len());
        assert!(results.len() >= 6, "at least one function per benchmark");
        assert!(
            results.iter().any(|r| !r.attempted),
            "64-bit functions remain"
        );
        for r in results.iter().filter(|r| r.attempted) {
            assert!(r.num_constraints > 0);
            assert!(r.rung.is_some(), "attempted functions report their rung");
            assert!(r.baseline.is_some(), "the harness compares the baseline");
        }
        let summary = DegradationSummary::from_metrics(&out.metrics);
        let served: usize = summary.rungs.iter().map(|(_, n)| n).sum();
        let attempted = results.iter().filter(|r| r.attempted).count();
        assert_eq!(
            served, attempted,
            "every attempted function was served by exactly one rung"
        );
        let stats = &out.stats;
        assert_eq!(stats.attempted, attempted);
        assert_eq!(stats.functions, results.len());
        assert_eq!(stats.cache_hits + stats.cache_misses, attempted);
    }

    /// The figure extractors and the metrics registry must agree with the
    /// per-function results and the driver's own totals — the traces are
    /// an independent account of the same run.
    #[test]
    fn trace_totals_match_driver_totals() {
        let o = tiny();
        let (out, benchmarks) = run_all(&o);
        let (results, metrics) = (&out.results, &out.metrics);
        let attempted: Vec<_> = results.iter().filter(|r| r.attempted).collect();
        assert!(!attempted.is_empty());
        for r in &attempted {
            assert!(r.trace.is_some(), "{}: harness runs always trace", r.name);
        }

        // Fig. 9: one point per attempted function whose model built; the
        // extractor itself asserts each point equals the result fields.
        let f9 = fig9_points(results, &benchmarks);
        let built = attempted
            .iter()
            .filter(|r| r.trace.as_ref().unwrap().model_built().is_some())
            .count();
        assert_eq!(f9.len(), built);
        assert!(built > 0, "some models must build at this scale");

        // Fig. 10: the trace-derived node/iteration totals are the same
        // numbers the driver reports on the results.
        let f10 = fig10_points(results, &benchmarks);
        let fresh_optimal: Vec<_> = results
            .iter()
            .filter(|r| r.solved_optimally() && !r.cache_hit)
            .collect();
        assert_eq!(f10.len(), fresh_optimal.len());
        let trace_nodes: u64 = f10.iter().map(|p| p.nodes).sum();
        let trace_iters: u64 = f10.iter().map(|p| p.lp_iters).sum();
        assert_eq!(
            trace_nodes,
            fresh_optimal.iter().map(|r| r.solver_nodes).sum::<u64>()
        );
        assert_eq!(
            trace_iters,
            fresh_optimal.iter().map(|r| r.lp_iters).sum::<u64>()
        );
        for p in &f10 {
            assert!(
                p.solve_seconds > 0.0,
                "{}: solve phase was timed",
                p.function
            );
        }

        // Metrics registry vs results and DriverStats.
        assert_eq!(
            metrics.counter("regalloc_functions_total", &[]),
            results.len() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_attempted_total", &[]),
            attempted.len() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_solved_total", &[]),
            results.iter().filter(|r| r.solved()).count() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_optimal_total", &[]),
            results.iter().filter(|r| r.solved_optimally()).count() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_solver_nodes_total", &[]),
            results.iter().map(|r| r.solver_nodes).sum::<u64>()
        );
        assert_eq!(
            out.stats.attempted as u64,
            metrics.counter("regalloc_functions_attempted_total", &[])
        );

        // The registry's degradation summary matches a count over the
        // results.
        let summary = DegradationSummary::from_metrics(metrics);
        for (rung, n) in &summary.rungs {
            let counted = results.iter().filter(|r| r.rung == Some(*rung)).count();
            assert_eq!(*n, counted, "rung {rung}");
        }
        for rc in ReasonCode::ALL {
            let counted: usize = results
                .iter()
                .map(|r| r.reasons.iter().filter(|&&x| x == rc).count())
                .sum();
            let n = summary
                .reasons
                .iter()
                .find(|(x, _)| *x == rc)
                .map_or(0, |(_, n)| *n);
            assert_eq!(n, counted, "reason {rc}");
        }

        // Table 2's per-benchmark rows, each read from its benchmark's
        // merged shards, sum to its Total row, read from the suite's
        // registry.
        let rows = table2_rows(&out, &benchmarks);
        let (total_name, total) = rows.last().unwrap();
        assert_eq!(*total_name, "Total");
        let per_bench = &rows[..rows.len() - 1];
        assert_eq!(per_bench.len(), Benchmark::all().len());
        let sum = |f: fn(&Table2Row) -> u64| per_bench.iter().map(|(_, row)| f(row)).sum::<u64>();
        assert_eq!(sum(|r| r.total), total.total);
        assert_eq!(sum(|r| r.attempted), total.attempted);
        assert_eq!(sum(|r| r.solved), total.solved);
        assert_eq!(sum(|r| r.optimal), total.optimal);
        for (i, (rung, n)) in total.ladder.rungs.iter().enumerate() {
            let per: usize = per_bench.iter().map(|(_, row)| row.ladder.rungs[i].1).sum();
            assert_eq!(per, *n, "rung {rung}");
        }
        for (rc, n) in &total.ladder.reasons {
            let per: usize = per_bench
                .iter()
                .flat_map(|(_, row)| &row.ladder.reasons)
                .filter(|(x, _)| x == rc)
                .map(|(_, k)| k)
                .sum();
            assert_eq!(per, *n, "reason {rc}");
        }
        let per_reasons: usize = per_bench
            .iter()
            .flat_map(|(_, row)| &row.ladder.reasons)
            .map(|(_, k)| k)
            .sum();
        let total_reasons: usize = total.ladder.reasons.iter().map(|(_, k)| k).sum();
        assert_eq!(per_reasons, total_reasons);
    }
}
