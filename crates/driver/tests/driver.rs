//! End-to-end tests for the batch allocation service: determinism across
//! worker counts, warm-cache behaviour, cache poisoning, and global
//! budget exhaustion.

use std::path::PathBuf;
use std::time::Duration;

use regalloc_audit::Verdict;
use regalloc_core::{Rung, WarmStartKind};
use regalloc_driver::{
    profile_report, run_suite, CacheMode, DriverConfig, FunctionResult, SuiteOutcome,
};
use regalloc_ilp::SolverConfig;
use regalloc_ir::Function;
use regalloc_obs::Phase;
use regalloc_workloads::{Benchmark, Suite};

/// A seeded ~50-function suite (xlisp has the most functions, so a small
/// scale still yields a broad size mix).
fn suite50() -> Vec<Function> {
    let s = Suite::generate_scaled(Benchmark::Xlisp, 42, 0.14);
    assert!(
        s.functions.len() >= 40,
        "expected a broad suite, got {}",
        s.functions.len()
    );
    s.functions
}

/// A config cheap enough for CI: tight node/iteration limits and a low
/// `max_rows` (declining big models is instant and deterministic)
/// terminate every solve long before the wall-clock limits bind, which
/// is exactly the regime the determinism guarantee covers.
fn fast_config() -> DriverConfig {
    DriverConfig {
        jobs: 1,
        solver: SolverConfig::deterministic(),
        function_budget: SolverConfig::deterministic().time_limit,
        cache: CacheMode::Off,
        equiv_runs: 1,
        equiv_seed: 7,
        // These tests compare node-for-node observables across runs with
        // differently-populated caches; donor incumbents legitimately
        // change the nodes a bounded search explores, so cross-function
        // warm starts get their own test file (`warm_start.rs`).
        warm_starts: false,
        ..DriverConfig::default()
    }
}

/// Everything about a result that the determinism guarantee covers
/// (i.e. all fields except wall-clock timings).
type Observable = (
    String,
    bool,
    Option<String>,
    String,
    Vec<String>,
    [usize; 3],
    u64,
    u64,
);

fn observable(r: &FunctionResult) -> Observable {
    (
        r.name.clone(),
        r.attempted,
        r.func.as_ref().map(|f| f.to_string()),
        format!("{:?}/{:?}", r.rung, r.stats),
        r.reasons.iter().map(|c| c.name().to_string()).collect(),
        [r.num_constraints, r.num_vars, r.num_insts],
        r.solver_nodes,
        r.ip_bytes,
    )
}

fn observables(out: &SuiteOutcome) -> Vec<Observable> {
    out.results.iter().map(observable).collect()
}

#[test]
fn determinism_across_worker_counts() {
    let funcs = suite50();
    let cfg1 = fast_config();
    let base = run_suite(&funcs, &cfg1);
    for jobs in [4, 8] {
        let cfg = DriverConfig {
            target: regalloc_machine::TargetId::X86Pentium,
            jobs,
            ..fast_config()
        };
        let par = run_suite(&funcs, &cfg);
        assert_eq!(
            observables(&base),
            observables(&par),
            "jobs=1 and jobs={jobs} must produce byte-identical results"
        );
    }
    // The run did real work on real functions.
    assert!(base.results.iter().any(|r| r.attempted && r.func.is_some()));
}

#[test]
fn warm_disk_cache_hits_and_matches_cold() {
    let dir = tempdir("warm");
    let funcs = suite50();
    let cfg = DriverConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        jobs: 4,
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config()
    };
    let cold = run_suite(&funcs, &cfg);
    assert_eq!(cold.stats.cache_rejected, 0);
    let warm = run_suite(&funcs, &cfg);
    assert!(
        warm.stats.hit_rate() >= 0.9,
        "warm rerun should be >=90% cache hits, got {:.2} ({} hits / {} misses)",
        warm.stats.hit_rate(),
        warm.stats.cache_hits,
        warm.stats.cache_misses
    );
    assert_eq!(
        observables(&cold),
        observables(&warm),
        "warm results must be identical to cold"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_cache_entry_is_detected_and_resolved() {
    let dir = tempdir("poison");
    let funcs = suite50();
    let cfg = DriverConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        jobs: 2,
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config()
    };
    let cold = run_suite(&funcs, &cfg);

    // Tamper with every persisted entry: un-allocate the body by
    // rewriting physical registers back to symbolic ones, then re-stamp
    // the checksum so only semantic verification can catch it.
    let mut tampered = 0;
    for e in std::fs::read_dir(&dir).unwrap() {
        let path = e.unwrap().path();
        if path.extension().is_none_or(|x| x != "alloc") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let poisoned = text.replace("r0", "s990").replace("r1", "s991");
        if poisoned == text {
            continue;
        }
        write_restamped(&path, &poisoned);
        tampered += 1;
    }
    assert!(tampered > 0, "expected to tamper at least one cache entry");

    let rerun = run_suite(&funcs, &cfg);
    assert!(
        rerun.stats.cache_rejected >= 1,
        "verification must reject tampered entries"
    );
    assert_eq!(
        observables(&cold),
        observables(&rerun),
        "rejected entries must be re-solved to the same allocations"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Write a tampered cache entry with its checksum recomputed over the
/// payload (everything after the `check` line) exactly as the cache
/// does, so only the checks that follow the checksum can catch it.
fn write_restamped(path: &std::path::Path, text: &str) {
    let mut lines: Vec<&str> = text.lines().collect();
    let payload = lines[2..].join("\n") + "\n";
    let stamp = format!("check {:016x}", regalloc_driver::cache::checksum(&payload));
    lines[1] = &stamp;
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

/// The stored entry with the first immediate source operand of its
/// allocated code incremented, and the entry's body fingerprint; `None`
/// when the code has no immediate operand.
fn bump_first_immediate(entry: &str) -> Option<(String, String)> {
    let fp = entry
        .lines()
        .find_map(|l| l.strip_prefix("fp "))?
        .to_string();
    let code = entry.find("\nfunc ")?;
    let at = code + entry[code..].find(", #")? + ", #".len();
    let len = entry[at..]
        .find(|c: char| c != '-' && !c.is_ascii_digit())
        .unwrap_or(entry.len() - at);
    let imm: i64 = entry[at..at + len].parse().ok()?;
    let bumped = format!("{}{}{}", &entry[..at], imm + 1, &entry[at + len..]);
    Some((bumped, fp))
}

#[test]
fn a_semantically_wrong_cache_hit_is_rejected_and_resolved() {
    let dir = tempdir("wrong-imm");
    let funcs = suite50();
    let cfg = DriverConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        jobs: 2,
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config()
    };
    let cold = run_suite(&funcs, &cfg);

    // Change one immediate operand of one stored allocation. The entry
    // still parses and passes `verify_allocated` and `verify_machine`;
    // only the static translation validator can tell that it computes a
    // different value.
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "alloc"))
        .collect();
    paths.sort();
    let tampered_fp = paths
        .iter()
        .find_map(|path| {
            let (wrong, fp) = bump_first_immediate(&std::fs::read_to_string(path).unwrap())?;
            write_restamped(path, &wrong);
            Some(fp)
        })
        .expect("some stored allocation has an immediate operand");

    let warm = run_suite(&funcs, &cfg);
    assert!(
        warm.stats.cache_rejected >= 1,
        "the gate must reject the wrong entry"
    );
    assert!(
        funcs
            .iter()
            .zip(&warm.results)
            .any(|(f, r)| { regalloc_ir::fingerprint_hex(f) == tampered_fp && !r.cache_hit }),
        "the function of the wrong entry must be re-solved"
    );
    assert_eq!(
        observables(&cold),
        observables(&warm),
        "the re-solve must reproduce the cold run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lints_match_on_fresh_solves_and_cache_hits() {
    let dir = tempdir("lints");
    let funcs = suite50();
    let cfg = DriverConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        jobs: 2,
        cache: CacheMode::Disk(dir.clone()),
        lint: true,
        ..fast_config()
    };
    let cold = run_suite(&funcs, &cfg);
    let warm = run_suite(&funcs, &cfg);
    assert_eq!(
        warm.stats.cache_hits, warm.stats.attempted,
        "the warm run serves every function from the cache"
    );
    let machine = regalloc_core::targets::machine_for(cfg.target);
    for ((f, fresh), hit) in funcs.iter().zip(&cold.results).zip(&warm.results) {
        assert_eq!(
            fresh.lints,
            hit.lints,
            "{}: lints of fresh solve and hit",
            f.name()
        );
        if let Some(func) = &fresh.func {
            let direct = regalloc_lint::lint_allocation(machine.as_ref(), f, func);
            assert_eq!(fresh.lints, direct, "{}: served lints", f.name());
        }
    }
    assert!(
        cold.results.iter().any(|r| !r.lints.is_empty()),
        "the suite must produce some lints"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_global_budget_demotes_but_completes() {
    let funcs = suite50();
    let cfg = DriverConfig {
        target: regalloc_machine::TargetId::X86Pentium,
        jobs: 4,
        global_budget: Some(Duration::ZERO),
        ..fast_config()
    };
    let out = run_suite(&funcs, &cfg);
    assert_eq!(out.results.len(), funcs.len(), "every function completes");
    for r in out.results.iter().filter(|r| r.attempted) {
        assert!(
            r.func.is_some(),
            "{}: fallback rungs always produce code",
            r.name
        );
        assert_eq!(
            r.granted_budget,
            Duration::ZERO,
            "{}: no budget left",
            r.name
        );
        let rung = r.rung.expect("allocated");
        assert!(
            !matches!(rung, regalloc_core::Rung::IpOptimal),
            "{}: a zero deadline cannot prove optimality, got {:?}",
            r.name,
            rung
        );
    }
}

/// `DriverStats` and the `--profile` report read their counts from the
/// merged metrics registry; counted directly over the results, the same
/// run must give the same numbers. The suite runs twice over one memory
/// cache (every body appears twice, one worker), so both cache hits and
/// misses occur, and audit is on, so certificates are counted too.
#[test]
fn stats_and_profile_report_match_counts_over_results() {
    let once = Suite::generate_scaled(Benchmark::Xlisp, 42, 0.05).functions;
    let funcs: Vec<Function> = once.iter().chain(&once).cloned().collect();
    let cfg = DriverConfig {
        cache: CacheMode::Memory,
        audit: true,
        trace: true,
        ..fast_config()
    };
    let out = run_suite(&funcs, &cfg);
    let results = &out.results;
    let st = &out.stats;

    let attempted = results.iter().filter(|r| r.attempted).count();
    let hits = results.iter().filter(|r| r.cache_hit).count();
    let misses = attempted - hits;
    assert!(hits > 0 && misses > 0, "{hits} hits / {misses} misses");
    let fresh = |kind: WarmStartKind| {
        results
            .iter()
            .filter(|r| !r.cache_hit && r.warm_start == kind)
            .count()
    };
    let (exact, projected) = (fresh(WarmStartKind::Exact), fresh(WarmStartKind::Projected));
    let rungs: Vec<(Rung, usize)> = Rung::ALL
        .iter()
        .map(|&rung| {
            (
                rung,
                results.iter().filter(|r| r.rung == Some(rung)).count(),
            )
        })
        .collect();
    assert_eq!(st.attempted, attempted);
    assert_eq!(st.cache_hits, hits);
    assert_eq!(st.cache_misses, misses);
    assert_eq!(st.warm_exact, exact);
    assert_eq!(st.warm_projected, projected);
    assert_eq!(st.rungs, rungs);

    let report = profile_report(&out);
    let line = |prefix: &str| {
        report
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{report}"))
            .to_string()
    };
    assert_eq!(
        line("cache:"),
        format!(
            "cache: {hits} hits / {misses} misses ({:.0}% hit rate), {} rejected",
            hits as f64 / attempted as f64 * 100.0,
            st.cache_rejected
        )
    );
    assert_eq!(
        line("warm starts:"),
        format!(
            "warm starts: {exact} exact / {projected} projected / {} cold",
            misses - exact - projected
        )
    );
    let served: Vec<String> = rungs
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{} {n}", r.name()))
        .collect();
    assert_eq!(line("rungs:"), format!("rungs: {}", served.join("  ")));

    let audits: Vec<_> = results.iter().filter_map(|r| r.audit.as_ref()).collect();
    assert!(!audits.is_empty(), "some optimality claims were audited");
    let rejected = audits
        .iter()
        .filter(|a| a.verdict != Verdict::Verified)
        .count();
    let traces: Vec<_> = results.iter().filter_map(|r| r.trace.as_ref()).collect();
    let audit_secs: f64 = traces.iter().map(|t| t.phase_seconds(Phase::Audit)).sum();
    assert_eq!(
        line("audit:"),
        format!(
            "audit: {} certificates checked / {rejected} rejected, {audit_secs:.3}s",
            audits.len()
        )
    );

    let mut reasons: std::collections::BTreeMap<&str, usize> = Default::default();
    for rc in results.iter().flat_map(|r| &r.reasons) {
        *reasons.entry(rc.name()).or_default() += 1;
    }
    assert!(!reasons.is_empty(), "some functions were demoted");
    let want: Vec<String> = std::iter::once("demotions by reason:".to_string())
        .chain(reasons.iter().map(|(rc, n)| format!("  {rc:<26} {n}")))
        .collect();
    let at = report
        .lines()
        .position(|l| l == "demotions by reason:")
        .expect("demotions section");
    let got: Vec<&str> = report.lines().skip(at).take(want.len()).collect();
    assert_eq!(got, want);

    // The phase table's `fns` column: functions whose trace timed the
    // phase.
    let mut phases = 0;
    for p in Phase::ALL {
        let fns = traces
            .iter()
            .filter(|t| t.phase_times.iter().any(|(x, _)| *x == p))
            .count();
        let row = report
            .lines()
            .find(|l| l.split_whitespace().next() == Some(p.name()));
        match row {
            Some(l) => {
                assert_eq!(l.split_whitespace().nth(3), Some(fns.to_string().as_str()));
                phases += 1;
            }
            None => assert_eq!(fns, 0, "phase {} missing from:\n{report}", p.name()),
        }
    }
    assert!(phases > 0, "a phase table in:\n{report}");
}

/// Unique-enough temp dir under the target directory (no external
/// tempfile crate in the offline workspace).
fn tempdir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("regalloc-driver-test-{tag}-{pid}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
