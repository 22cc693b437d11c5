//! Batch allocation CLI.
//!
//! ```console
//! $ cargo run --release -p regalloc-driver -- --jobs 8 --budget-secs 60 xlisp
//! ```
//!
//! Suite arguments are benchmark names (`compress`, `eqntott`, `xlisp`,
//! `sc`, `espresso`, `cc1`), `all` for the whole Table 2 line-up, or
//! paths to textual-IR files (one or more functions per file, as emitted
//! by `gen_workload`). With no suite argument the tool runs `compress`.
//!
//! Output is split into a *deterministic* section (per-function table and
//! allocation summary — byte-identical for any `--jobs` value and for
//! warm vs cold caches) and an *operational* section (timing, throughput,
//! cache traffic) suppressed by `--no-timing` so runs can be diffed.

use std::path::PathBuf;
use std::process::ExitCode;

use regalloc_driver::{
    parse_secs, parse_shared_flag, profile_report, run_suite, trace_jsonl, CacheMode, DriverConfig,
    SuiteOutcome, SHARED_FLAGS_USAGE,
};
use regalloc_ir::Function;
use regalloc_lint::{code_by_name, Code, Report};
use regalloc_workloads::{Benchmark, Suite};

fn usage() -> String {
    format!(
        "usage: regalloc-driver [options] [suite...]

suite:        benchmark names (compress eqntott xlisp sc espresso cc1),
              `all`, or paths to textual-IR files; default `compress`

options:
{SHARED_FLAGS_USAGE}
  --no-cache           in-memory dedup only, nothing persisted (without
                       it or --cache-dir, the cache is results/cache)
  --budget-secs S      global wall-clock budget for the whole run
  --scale F            workload scale factor (default 0.1)
  --seed N             workload generator seed (default 1998)
  --warm-distance F    max shape distance for a warm-start donor, 0..1
                       (default 0.25)
  --perturb SEED       deterministically perturb immediates in the loaded
                       suite (same shapes, different bodies)
  --dump-allocs FILE   write every accepted allocation to FILE
  --lint               run allocation-quality lints over accepted code
  --lint-format FMT    lint output format: text (default), json, sarif
  --lint-out FILE      write the lint report to FILE instead of stdout
  --deny CODE          exit nonzero if lint CODE fires (id like L001 or
                       slug like dead-spill-store; repeatable)
  --audit              audit every optimality claim with the exact-rational
                       certificate checker; rejected claims are demoted to
                       ip-incumbent, and ip-optimal cache hits are only
                       trusted after their stored certificate re-verifies
  --audit-deny         --audit, and exit nonzero if any certificate is
                       rejected or missing
  --trace-out FILE     write the structured solve trace as JSONL (event
                       records first, then `\"type\":\"timing\"` records)
  --metrics-out FILE   write the merged metrics registry in Prometheus
                       text exposition format
  --profile            print a self-profiling report (per-phase time,
                       cache/warm-start traffic, degradation ladder)
  --no-timing          suppress the non-deterministic timing section
  --help               this text"
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
    Sarif,
}

struct Cli {
    cfg: DriverConfig,
    scale: f64,
    seed: u64,
    perturb: Option<u64>,
    suite_args: Vec<String>,
    dump_allocs: Option<PathBuf>,
    timing: bool,
    lint_format: LintFormat,
    lint_out: Option<PathBuf>,
    deny: Vec<Code>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    profile: bool,
    audit_deny: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        cfg: DriverConfig {
            cache: CacheMode::Disk(PathBuf::from("results/cache")),
            ..DriverConfig::default()
        },
        scale: 0.1,
        seed: 1998,
        perturb: None,
        suite_args: Vec::new(),
        dump_allocs: None,
        timing: true,
        lint_format: LintFormat::Text,
        lint_out: None,
        deny: Vec::new(),
        trace_out: None,
        metrics_out: None,
        profile: false,
        audit_deny: false,
    };
    cli.cfg.compare_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_shared_flag(&mut cli.cfg, a, &mut it)? {
            continue;
        }
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Err(usage()),
            "--budget-secs" => {
                cli.cfg.global_budget = Some(parse_secs("--budget-secs", &value("--budget-secs")?)?)
            }
            "--scale" => {
                cli.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--no-cache" => cli.cfg.cache = CacheMode::Memory,
            "--warm-distance" => {
                cli.cfg.warm_start_distance = value("--warm-distance")?
                    .parse()
                    .map_err(|e| format!("--warm-distance: {e}"))?
            }
            "--perturb" => {
                cli.perturb = Some(
                    value("--perturb")?
                        .parse()
                        .map_err(|e| format!("--perturb: {e}"))?,
                )
            }
            "--dump-allocs" => cli.dump_allocs = Some(PathBuf::from(value("--dump-allocs")?)),
            "--lint" => cli.cfg.lint = true,
            "--lint-format" => {
                cli.cfg.lint = true;
                cli.lint_format = match value("--lint-format")?.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    "sarif" => LintFormat::Sarif,
                    other => return Err(format!("--lint-format: unknown format `{other}`")),
                };
            }
            "--lint-out" => {
                cli.cfg.lint = true;
                cli.lint_out = Some(PathBuf::from(value("--lint-out")?));
            }
            "--deny" => {
                cli.cfg.lint = true;
                let name = value("--deny")?;
                cli.deny.push(
                    code_by_name(&name)
                        .ok_or_else(|| format!("--deny: unknown diagnostic code `{name}`"))?,
                );
            }
            "--audit" => cli.cfg.audit = true,
            "--audit-deny" => {
                cli.cfg.audit = true;
                cli.audit_deny = true;
            }
            "--trace-out" => {
                cli.cfg.trace = true;
                cli.trace_out = Some(PathBuf::from(value("--trace-out")?));
            }
            "--metrics-out" => {
                cli.cfg.trace = true;
                cli.metrics_out = Some(PathBuf::from(value("--metrics-out")?));
            }
            "--profile" => {
                cli.cfg.trace = true;
                cli.profile = true;
            }
            "--no-timing" => cli.timing = false,
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}\n\n{}", usage()))
            }
            other => cli.suite_args.push(other.to_string()),
        }
    }
    if cli.suite_args.is_empty() {
        cli.suite_args.push("compress".to_string());
    }
    Ok(cli)
}

fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

/// Split a textual-IR file into functions (`fn ...` through the closing
/// `}` at column zero) and parse each.
fn parse_ir_file(path: &str) -> Result<Vec<Function>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    regalloc_driver::parse_functions(path, &text)
}

fn load_suite(cli: &Cli) -> Result<Vec<Function>, String> {
    let mut funcs = Vec::new();
    for arg in &cli.suite_args {
        if arg == "all" {
            for b in Benchmark::all() {
                funcs.extend(Suite::generate_scaled(b, cli.seed, cli.scale).functions);
            }
        } else if let Some(b) = benchmark_by_name(arg) {
            funcs.extend(Suite::generate_scaled(b, cli.seed, cli.scale).functions);
        } else if std::path::Path::new(arg).exists() {
            funcs.extend(parse_ir_file(arg)?);
        } else {
            return Err(format!(
                "`{arg}` is neither a benchmark name nor a file\n\n{}",
                usage()
            ));
        }
    }
    if let Some(seed) = cli.perturb {
        funcs = funcs
            .iter()
            .enumerate()
            .map(|(i, f)| regalloc_workloads::perturb_immediates(f, seed.wrapping_add(i as u64)))
            .collect();
    }
    Ok(funcs)
}

fn print_deterministic(out: &SuiteOutcome) {
    println!(
        "{:<18} {:>6} {:>8} {:>7} {:<11} {:>7} {:>7}",
        "function", "insts", "constrs", "vars", "rung", "spills", "bytes"
    );
    for r in &out.results {
        if !r.attempted {
            println!(
                "{:<18} {:>6} {:>8} {:>7} {:<11}",
                r.name, r.num_insts, "-", "-", "skip64"
            );
            continue;
        }
        let spills = r.stats.loads + r.stats.stores + r.stats.remats;
        println!(
            "{:<18} {:>6} {:>8} {:>7} {:<11} {:>7} {:>7}",
            r.name,
            r.num_insts,
            r.num_constraints,
            r.num_vars,
            r.rung.map_or("error", |x| x.name()),
            spills,
            r.ip_bytes,
        );
    }
    println!();
    let m = &out.metrics;
    println!(
        "functions {}  attempted {}  ip-solved {}  optimal {}",
        out.stats.functions,
        out.stats.attempted,
        m.counter("regalloc_functions_solved_total", &[]),
        m.counter("regalloc_functions_optimal_total", &[])
    );
    let rungs: Vec<String> = out
        .stats
        .rungs
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{} {}", r.name(), n))
        .collect();
    println!("rungs: {}", rungs.join("  "));
    println!(
        "warm-starts: exact {}  projected {}",
        out.stats.warm_exact, out.stats.warm_projected
    );
    // One audit per optimality claim (fresh solve or re-audited hit), so
    // the counts are deterministic across `--jobs` values.
    let checked = m.counter("regalloc_certificates_checked_total", &[]);
    if checked > 0 {
        let rejected = m.counter("regalloc_certificates_rejected_total", &[]);
        println!(
            "certificates: {} verified  {rejected} rejected",
            checked - rejected
        );
    }
    // One aggregate cost line so warm-on vs warm-off runs can be compared
    // with a single grep: warm starts may only prune the search, never
    // change what is accepted.
    let attempted = out.results.iter().filter(|r| r.attempted);
    let (mut loads, mut stores, mut remats, mut copies, mut bytes) = (0i64, 0i64, 0i64, 0i64, 0u64);
    for r in attempted {
        loads += r.stats.loads;
        stores += r.stats.stores;
        remats += r.stats.remats;
        copies += r.stats.copies;
        bytes += r.ip_bytes;
    }
    println!(
        "totals: loads {loads}  stores {stores}  remats {remats}  copies {copies}  bytes {bytes}"
    );
}

fn print_timing(out: &SuiteOutcome) {
    let s = &out.stats;
    println!();
    println!(
        "wall {:.3}s  cpu {:.3}s  speedup {:.2}x  jobs {}  utilization {:.0}%",
        s.wall_time.as_secs_f64(),
        s.cpu_time.as_secs_f64(),
        s.speedup(),
        s.jobs,
        s.utilization() * 100.0
    );
    println!(
        "throughput {:.1} fn/s  cache: {} hits / {} misses ({:.0}% hit rate), {} rejected",
        s.throughput(),
        s.cache_hits,
        s.cache_misses,
        s.hit_rate() * 100.0,
        s.cache_rejected
    );
}

/// Assemble the suite's lint report in suite order (results already come
/// back in suite order, so this is deterministic across `--jobs` values).
fn lint_report(out: &SuiteOutcome) -> Report {
    let mut report = Report::default();
    for r in &out.results {
        if !r.lints.is_empty() {
            report.push(r.name.clone(), r.lints.clone());
        }
    }
    report
}

fn emit_lints(cli: &Cli, out: &SuiteOutcome) -> Result<usize, String> {
    let report = lint_report(out);
    let text = match cli.lint_format {
        LintFormat::Text => {
            let mut t = report.to_text();
            if report.is_empty() {
                t.push_str("lint: clean\n");
            } else {
                t.push_str(&format!("lint: {} finding(s)\n", report.len()));
            }
            t
        }
        LintFormat::Json => report.to_json(),
        LintFormat::Sarif => report.to_sarif(),
    };
    match &cli.lint_out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?,
        None => print!("{text}"),
    }
    let denied: usize = cli.deny.iter().map(|c| report.count_of(*c)).sum();
    for c in &cli.deny {
        let n = report.count_of(*c);
        if n > 0 {
            eprintln!("error: denied lint {c} fired {n} time(s)");
        }
    }
    Ok(denied)
}

fn dump_allocs(path: &PathBuf, out: &SuiteOutcome) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::new();
    for r in &out.results {
        if let Some(f) = &r.func {
            let _ = writeln!(text, "{f}\n");
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the M1xx structural self-check over every registered target
/// model. A diagnostic here means the machine description itself is
/// inconsistent — refusing to allocate anything is the only safe answer.
fn self_check_targets() -> Result<(), String> {
    use std::fmt::Write as _;
    let mut msg = String::new();
    for (id, m) in regalloc_core::targets::all() {
        for d in regalloc_machine::check_machine(m.as_ref()) {
            let diag = regalloc_lint::Diagnostic::from(&d);
            let _ = writeln!(msg, "target {id}: [{}] {}", diag.code.id, d.message);
        }
    }
    if msg.is_empty() {
        Ok(())
    } else {
        Err(format!("target model self-check failed:\n{msg}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(msg) = self_check_targets() {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    let funcs = match load_suite(&cli) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let out = run_suite(&funcs, &cli.cfg);
    print_deterministic(&out);
    let mut denied = 0;
    if cli.cfg.lint {
        match emit_lints(&cli, &out) {
            Ok(n) => denied = n,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if cli.timing {
        print_timing(&out);
    }
    if cli.profile {
        println!();
        print!("{}", profile_report(&out));
    }
    if let Some(path) = &cli.trace_out {
        if let Err(e) = std::fs::write(path, trace_jsonl(&out)) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.metrics_out {
        if let Err(e) = std::fs::write(path, out.metrics.to_prometheus()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.dump_allocs {
        if let Err(msg) = dump_allocs(path, &out) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    let mut audit_denied = 0usize;
    if cli.audit_deny {
        for r in &out.results {
            if let Some(a) = &r.audit {
                if a.verdict != regalloc_audit::Verdict::Verified {
                    audit_denied += 1;
                    eprintln!(
                        "error: {}: certificate audit failed ({})",
                        r.name,
                        a.code.unwrap_or("missing")
                    );
                }
            }
        }
    }
    if out.results.iter().any(|r| r.error.is_some()) || denied > 0 || audit_denied > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn budget_secs_takes_finite_non_negative_seconds() {
        let cli = parse(&["--budget-secs", "2.5"]).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            cli.cfg.global_budget,
            Some(std::time::Duration::from_millis(2500))
        );
        for bad in ["-1", "NaN", "inf"] {
            let err = parse(&["--budget-secs", bad]).err().expect(bad);
            assert!(err.starts_with("--budget-secs: "), "{err}");
        }
    }
}
