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

use regalloc_core::{ReasonCode, Rung, SpillStats, WarmStartKind};
use regalloc_driver::{run_suite, CacheMode, DriverConfig, DriverStats};
use regalloc_ilp::SolverConfig;
use regalloc_machine::TargetId;
use regalloc_obs::{FunctionTrace, Metrics, Phase};
use regalloc_workloads::{Benchmark, Suite};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Target machine the driver allocates for (the paper's tables are
    /// measured on the default x86 Pentium model).
    pub target: TargetId,
    /// Fraction of each benchmark's paper function count to generate.
    pub scale: f64,
    /// Workload seed.
    pub seed: u64,
    /// Per-function solver budget.
    pub time_limit: Duration,
    /// Driver worker threads.
    pub jobs: usize,
    /// Optional global wall-clock budget for the whole run.
    pub global_budget: Option<Duration>,
    /// Solution-cache directory (`None` = in-memory dedup only).
    pub cache_dir: Option<PathBuf>,
    /// Seed cache misses with projected cached symbolic solutions.
    pub warm_starts: bool,
    /// Audit every optimality claim with the exact-rational certificate
    /// checker before counting it in the Table 2 "optimal" column.
    pub audit: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            target: TargetId::X86Pentium,
            scale: 0.2,
            seed: 1998,
            time_limit: Duration::from_secs(4),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            global_budget: None,
            cache_dir: None,
            warm_starts: true,
            audit: false,
        }
    }
}

impl Options {
    /// Parse `--scale`, `--seed`, `--time-limit`, `--jobs`,
    /// `--budget-secs`, `--cache-dir` and `--no-cache` from
    /// `std::env::args`. Unlike [`Options::default`] (memory-only cache,
    /// so library callers never touch the filesystem unasked), the CLI
    /// defaults to persisting the solution cache under `results/cache`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Options {
        let mut o = Options {
            cache_dir: Some(PathBuf::from("results/cache")),
            ..Options::default()
        };
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
                    o.target = TargetId::parse(t).unwrap_or_else(|| panic!("unknown target `{t}`"));
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
                    let secs: f64 = need(i).parse().expect("--time-limit takes seconds");
                    o.time_limit = Duration::from_secs_f64(secs);
                    i += 2;
                }
                "--jobs" => {
                    o.jobs = need(i).parse().expect("--jobs takes an integer");
                    i += 2;
                }
                "--budget-secs" => {
                    let secs: f64 = need(i).parse().expect("--budget-secs takes seconds");
                    o.global_budget = Some(Duration::from_secs_f64(secs));
                    i += 2;
                }
                "--cache-dir" => {
                    o.cache_dir = Some(PathBuf::from(need(i)));
                    i += 2;
                }
                "--no-cache" => {
                    o.cache_dir = None;
                    i += 1;
                }
                "--warm-starts" => {
                    o.warm_starts = match need(i).as_str() {
                        "on" => true,
                        "off" => false,
                        v => panic!("--warm-starts takes on|off, got {v}"),
                    };
                    i += 2;
                }
                "--audit" => {
                    o.audit = true;
                    i += 1;
                }
                other => panic!(
                    "unknown argument {other}; supported: --target --scale --seed \
                     --time-limit --jobs --budget-secs --cache-dir --no-cache \
                     --warm-starts --audit"
                ),
            }
        }
        o
    }

    /// The solver configuration the options describe. The driver applies
    /// this configuration to every function and every IP rung (it is also
    /// part of the solution-cache key), and each [`Record`] carries a copy
    /// so downstream analysis knows exactly which limits produced it.
    pub fn solver(&self) -> SolverConfig {
        SolverConfig {
            time_limit: self.time_limit,
            ..Default::default()
        }
    }

    /// The driver configuration the options describe.
    pub fn driver(&self) -> DriverConfig {
        DriverConfig {
            target: self.target,
            jobs: self.jobs,
            solver: self.solver(),
            function_budget: self
                .time_limit
                .saturating_mul(4)
                .max(Duration::from_secs(8)),
            global_budget: self.global_budget,
            cache: match &self.cache_dir {
                Some(d) => CacheMode::Disk(d.clone()),
                None => CacheMode::Memory,
            },
            cache_limits: regalloc_driver::cache::CacheLimits::unlimited(),
            equiv_runs: 2,
            equiv_seed: self.seed,
            compare_baseline: true,
            lint: true,
            warm_starts: self.warm_starts,
            warm_start_distance: 0.25,
            audit: self.audit,
            // The experiment harness always records traces: Figs. 9/10
            // are produced from the trace events, cross-checked against
            // the result fields.
            trace: true,
        }
    }
}

/// Per-function measurement record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Source benchmark.
    pub benchmark: Benchmark,
    /// Function name.
    pub name: String,
    /// Intermediate instructions (Fig. 9 x-axis).
    pub insts: usize,
    /// True when the function was handed to the allocators (no 64-bit
    /// values).
    pub attempted: bool,
    /// IP constraints (Fig. 9 y-axis, Fig. 10 x-axis).
    pub constraints: usize,
    /// IP decision variables.
    pub variables: usize,
    /// Solver produced an allocation (Table 2 "solved").
    pub solved: bool,
    /// Solver proved optimality (Table 2 "optimal").
    pub optimal: bool,
    /// IP solve time (Fig. 10 y-axis).
    pub solve_time: Duration,
    /// IP allocator spill accounting.
    pub ip: SpillStats,
    /// Graph-coloring baseline spill accounting.
    pub gc: SpillStats,
    /// Encoded size of the IP pipeline's output, in bytes.
    pub ip_bytes: u64,
    /// Encoded size of the baseline's output, in bytes.
    pub gc_bytes: u64,
    /// Degradation-ladder rung that served the function (`None` when not
    /// attempted).
    pub rung: Option<Rung>,
    /// Demotion reasons the robust pipeline recorded on the way down.
    pub reasons: Vec<ReasonCode>,
    /// The solver configuration this function was allocated under (the
    /// same limits apply to every IP rung the ladder tried).
    pub solver: SolverConfig,
    /// Whether the driver's solution cache served this function.
    pub cache_hit: bool,
    /// Which incumbent seed the branch-and-bound search pruned against
    /// (`None`, or an exact/projected cached symbolic solution).
    pub warm_start: WarmStartKind,
    /// Branch-and-bound nodes the solve expanded.
    pub solver_nodes: u64,
    /// Simplex iterations across every LP relaxation, including pruned
    /// and abandoned nodes.
    pub lp_iters: u64,
    /// `regalloc-lint` quality findings over the accepted allocation.
    pub lints: usize,
    /// The structured solve trace (the harness always enables tracing).
    pub trace: Option<FunctionTrace>,
}

/// Run both allocators over every generated benchmark.
///
/// Since the driver rewire this is [`run_all_stats`] without the
/// aggregate statistics.
pub fn run_all(o: &Options) -> Vec<Record> {
    run_all_stats(o).0
}

/// Run both allocators over every generated benchmark through the
/// `regalloc-driver` batch service, returning per-function records plus
/// the driver's aggregate statistics (wall-clock, speedup, cache
/// traffic, per-rung counts).
///
/// The IP side runs through the fault-tolerant `RobustAllocator`
/// pipeline (with the graph-coloring baseline injected as its fourth
/// rung), so a solver failure on any function degrades that function
/// instead of aborting the whole experiment; each record carries the rung
/// that served it, any demotion reasons, and the solver configuration it
/// was allocated under.
pub fn run_all_stats(o: &Options) -> (Vec<Record>, DriverStats) {
    let (recs, stats, _) = run_all_metrics(o);
    (recs, stats)
}

/// [`run_all_stats`] plus the driver's merged metrics registry — the
/// authoritative source for suite-level aggregates (the Table 2 report
/// derives its solved/optimal/degradation counts from it).
pub fn run_all_metrics(o: &Options) -> (Vec<Record>, DriverStats, Metrics) {
    // One flat suite across all benchmarks, so the driver's scheduler and
    // workers see the full mix; map results back by index afterwards.
    let mut funcs = Vec::new();
    let mut owner = Vec::new();
    for b in Benchmark::all() {
        let suite = Suite::generate_scaled(b, o.seed, o.scale);
        owner.extend(std::iter::repeat_n(b, suite.functions.len()));
        funcs.extend(suite.functions);
    }
    let solver = o.solver();
    let outcome = run_suite(&funcs, &o.driver());

    let records = outcome
        .results
        .into_iter()
        .zip(owner)
        .map(|(r, benchmark)| {
            let base = r.baseline.as_ref();
            let (gc_stats, gc_bytes) =
                base.map_or((SpillStats::default(), 0), |c| (c.stats, c.bytes));
            // Paper pipeline: a function the IP solver does not solve
            // keeps the compiler's default (graph-coloring) allocation,
            // so its IP-side overhead equals the baseline's.
            let solved = r.solved();
            let optimal = r.solved_optimally();
            Record {
                benchmark,
                name: r.name,
                insts: r.num_insts,
                attempted: r.attempted,
                constraints: r.num_constraints,
                variables: r.num_vars,
                solved,
                optimal,
                solve_time: r.solve_time,
                ip: if solved { r.stats } else { gc_stats },
                gc: gc_stats,
                ip_bytes: if r.attempted {
                    if solved {
                        r.ip_bytes
                    } else {
                        gc_bytes
                    }
                } else {
                    0
                },
                gc_bytes: if r.attempted { gc_bytes } else { 0 },
                rung: r.rung,
                reasons: r.reasons,
                solver: solver.clone(),
                cache_hit: r.cache_hit,
                warm_start: r.warm_start,
                solver_nodes: r.solver_nodes,
                lp_iters: r.lp_iters,
                lints: r.lints.len(),
                trace: r.trace,
            }
        })
        .collect();
    (records, outcome.stats, outcome.metrics)
}

/// One Fig. 9 point, read from a record's `ModelBuilt` trace event and
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
/// functions whose model built.
///
/// # Panics
///
/// Panics if a trace's `ModelBuilt` payload disagrees with the record it
/// rides on — the instrumentation would be lying about the experiment.
pub fn fig9_points(recs: &[Record]) -> Vec<Fig9Point> {
    let mut pts = Vec::new();
    for r in recs.iter().filter(|r| r.attempted) {
        let Some((insts, vars, constraints)) = r.trace.as_ref().and_then(|t| t.model_built())
        else {
            continue;
        };
        assert_eq!(
            (insts, vars, constraints),
            (r.insts as u64, r.variables as u64, r.constraints as u64),
            "{}: ModelBuilt trace event disagrees with the driver result",
            r.name
        );
        pts.push(Fig9Point {
            benchmark: r.benchmark,
            function: r.name.clone(),
            insts,
            vars,
            constraints,
        });
    }
    pts
}

/// One Fig. 10 point, read from a record's `SolveDone` trace event and the
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
/// so their solve time is not a measurement).
///
/// # Panics
///
/// Panics if a trace's `SolveDone` payload disagrees with the record it
/// rides on.
pub fn fig10_points(recs: &[Record]) -> Vec<Fig10Point> {
    let mut pts = Vec::new();
    for r in recs.iter().filter(|r| r.optimal && !r.cache_hit) {
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
            benchmark: r.benchmark,
            function: r.name.clone(),
            constraints: r.constraints as u64,
            solve_seconds: t.phase_seconds(Phase::Solve),
            nodes,
            lp_iters,
        });
    }
    pts
}

/// Aggregated degradation-ladder accounting for a set of records,
/// printed under the Table 2/Table 3 reports.
#[derive(Clone, Debug, Default)]
pub struct DegradationSummary {
    /// Functions served per rung, in ladder order.
    pub rungs: Vec<(Rung, usize)>,
    /// Demotion reasons recorded, with counts.
    pub reasons: Vec<(ReasonCode, usize)>,
}

impl DegradationSummary {
    /// Tally rungs and demotion reasons over `recs`.
    pub fn collect<'r>(recs: impl IntoIterator<Item = &'r Record>) -> DegradationSummary {
        let mut rungs: Vec<(Rung, usize)> = Rung::ALL.iter().map(|&r| (r, 0)).collect();
        let mut reasons: Vec<(ReasonCode, usize)> = Vec::new();
        for r in recs {
            if let Some(rung) = r.rung {
                rungs.iter_mut().find(|(x, _)| *x == rung).unwrap().1 += 1;
            }
            for &rc in &r.reasons {
                match reasons.iter_mut().find(|(x, _)| *x == rc) {
                    Some(e) => e.1 += 1,
                    None => reasons.push((rc, 1)),
                }
            }
        }
        DegradationSummary { rungs, reasons }
    }

    /// Tally rungs and demotion reasons from the driver's metrics
    /// registry (`regalloc_rung_functions_total{rung=..}` and
    /// `regalloc_demotions_total{reason=..}`) instead of re-counting
    /// per-function results. Reasons come out in canonical
    /// [`ReasonCode::ALL`] order.
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

    #[test]
    fn tiny_run_produces_records() {
        let o = Options {
            scale: 0.004,
            seed: 3,
            time_limit: Duration::from_millis(100),
            ..Options::default()
        };
        let (recs, stats) = run_all_stats(&o);
        assert!(recs.len() >= 6, "at least one function per benchmark");
        assert!(recs.iter().any(|r| !r.attempted), "64-bit functions remain");
        for r in recs.iter().filter(|r| r.attempted) {
            assert!(r.constraints > 0);
            assert!(r.rung.is_some(), "attempted functions report their rung");
            assert_eq!(
                r.solver.time_limit,
                Duration::from_millis(100),
                "records carry the solver configuration they ran under"
            );
        }
        let summary = DegradationSummary::collect(recs.iter().filter(|r| r.attempted));
        let served: usize = summary.rungs.iter().map(|(_, n)| n).sum();
        let attempted = recs.iter().filter(|r| r.attempted).count();
        assert_eq!(
            served, attempted,
            "every attempted function was served by exactly one rung"
        );
        assert_eq!(stats.attempted, attempted);
        assert_eq!(stats.functions, recs.len());
        assert_eq!(stats.cache_hits + stats.cache_misses, attempted);
    }

    /// The figure extractors and the metrics registry must agree with the
    /// per-function records and the driver's own totals — the traces are
    /// an independent account of the same run.
    #[test]
    fn trace_totals_match_driver_totals() {
        let o = Options {
            scale: 0.004,
            seed: 3,
            time_limit: Duration::from_millis(100),
            ..Options::default()
        };
        let (recs, stats, metrics) = run_all_metrics(&o);
        let attempted: Vec<_> = recs.iter().filter(|r| r.attempted).collect();
        assert!(!attempted.is_empty());
        for r in &attempted {
            assert!(r.trace.is_some(), "{}: harness runs always trace", r.name);
        }

        // Fig. 9: one point per attempted function whose model built; the
        // extractor itself asserts each point equals the record fields.
        let f9 = fig9_points(&recs);
        let built = attempted
            .iter()
            .filter(|r| r.trace.as_ref().unwrap().model_built().is_some())
            .count();
        assert_eq!(f9.len(), built);
        assert!(built > 0, "some models must build at this scale");

        // Fig. 10: the trace-derived node/iteration totals are the same
        // numbers the driver reports on the records.
        let f10 = fig10_points(&recs);
        let fresh_optimal: Vec<_> = recs.iter().filter(|r| r.optimal && !r.cache_hit).collect();
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

        // Metrics registry vs records and DriverStats.
        assert_eq!(
            metrics.counter("regalloc_functions_total", &[]),
            recs.len() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_attempted_total", &[]),
            attempted.len() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_solved_total", &[]),
            recs.iter().filter(|r| r.solved).count() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_functions_optimal_total", &[]),
            recs.iter().filter(|r| r.optimal).count() as u64
        );
        assert_eq!(
            metrics.counter("regalloc_solver_nodes_total", &[]),
            recs.iter().map(|r| r.solver_nodes).sum::<u64>()
        );
        assert_eq!(
            stats.attempted as u64,
            metrics.counter("regalloc_functions_attempted_total", &[])
        );

        // The metrics-sourced degradation summary matches the one counted
        // from the records.
        let from_recs = DegradationSummary::collect(recs.iter().filter(|r| r.attempted));
        let from_metrics = DegradationSummary::from_metrics(&metrics);
        assert_eq!(from_recs.rungs, from_metrics.rungs);
        let total_reasons: usize = from_recs.reasons.iter().map(|(_, n)| n).sum();
        let metric_reasons: usize = from_metrics.reasons.iter().map(|(_, n)| n).sum();
        assert_eq!(total_reasons, metric_reasons);
    }
}
