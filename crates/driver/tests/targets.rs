//! Multi-target driver behaviour: the v5 cache format against stale v4
//! entries, per-target cache keying, and the MCU running the full stack.

use std::path::PathBuf;

use regalloc_driver::{run_suite, CacheMode, DriverConfig, FunctionResult};
use regalloc_ilp::SolverConfig;
use regalloc_ir::Function;
use regalloc_machine::TargetId;
use regalloc_workloads::{fuzz_function, GenConfig};

fn fast_config(target: TargetId) -> DriverConfig {
    DriverConfig {
        target,
        jobs: 2,
        solver: SolverConfig::deterministic(),
        function_budget: SolverConfig::deterministic().time_limit,
        cache: CacheMode::Off,
        equiv_runs: 1,
        equiv_seed: 7,
        warm_starts: false,
        ..DriverConfig::default()
    }
}

/// A pool every registered target accepts: 16-bit words, no symbolic
/// addressing.
fn portable_pool(n: usize) -> Vec<Function> {
    (0..n)
        .map(|i| {
            fuzz_function(
                &format!("pt{i}"),
                0xbeef + i as u64,
                &GenConfig::portable16(),
            )
        })
        .collect()
}

fn observable(r: &FunctionResult) -> (String, bool, Option<String>) {
    (
        r.name.clone(),
        r.attempted,
        r.func.as_ref().map(|f| f.to_string()),
    )
}

fn alloc_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "alloc"))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

/// A stale v4-format entry (wrong magic) is a rejected miss, never a
/// crash: the function is re-solved and the result is unchanged.
#[test]
fn stale_v4_cache_entry_is_rejected_and_resolved() {
    let dir = tempdir("v4-stale");
    let funcs = portable_pool(12);
    let cfg = DriverConfig {
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config(TargetId::X86Pentium)
    };
    let cold = run_suite(&funcs, &cfg);
    let files = alloc_files(&dir);
    assert!(!files.is_empty(), "cold run persisted entries");

    // Downgrade every entry's magic to the previous format version,
    // keeping the payload (and its checksum) intact — exactly what a
    // cache directory left behind by an older build looks like.
    let mut downgraded = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.starts_with("regalloc-cache v5\n"),
            "{}",
            path.display()
        );
        let old = text.replacen("regalloc-cache v5\n", "regalloc-cache v4\n", 1);
        std::fs::write(path, old).unwrap();
        downgraded += 1;
    }
    assert!(downgraded > 0);

    let rerun = run_suite(&funcs, &cfg);
    assert!(
        rerun.stats.cache_rejected >= 1,
        "stale-format entries must be rejected, got {} rejections",
        rerun.stats.cache_rejected
    );
    assert_eq!(
        cold.results.iter().map(observable).collect::<Vec<_>>(),
        rerun.results.iter().map(observable).collect::<Vec<_>>(),
        "rejected entries must be re-solved to the same allocations"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same function allocated for two targets occupies two distinct
/// cache entries; re-running either target stays a cache hit.
#[test]
fn same_function_under_two_targets_gets_two_entries() {
    let dir = tempdir("two-targets");
    let funcs = portable_pool(8);

    let x86_cfg = DriverConfig {
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config(TargetId::X86Pentium)
    };
    let x86 = run_suite(&funcs, &x86_cfg);
    let after_x86 = alloc_files(&dir).len();
    assert!(after_x86 > 0, "x86 run persisted entries");

    let mcu_cfg = DriverConfig {
        cache: CacheMode::Disk(dir.clone()),
        ..fast_config(TargetId::Mcu)
    };
    let mcu = run_suite(&funcs, &mcu_cfg);
    let after_mcu = alloc_files(&dir).len();
    assert!(
        after_mcu > after_x86,
        "the MCU run must add its own entries ({after_x86} -> {after_mcu})"
    );
    assert_eq!(mcu.stats.cache_hits, 0, "no cross-target cache hits");

    // Both runs replay warm from their own entries.
    let x86_warm = run_suite(&funcs, &x86_cfg);
    assert!(
        x86_warm.stats.hit_rate() >= 0.9,
        "{}",
        x86_warm.stats.hit_rate()
    );
    assert_eq!(
        x86.results.iter().map(observable).collect::<Vec<_>>(),
        x86_warm.results.iter().map(observable).collect::<Vec<_>>(),
    );
    let mcu_warm = run_suite(&funcs, &mcu_cfg);
    assert!(
        mcu_warm.stats.hit_rate() >= 0.9,
        "{}",
        mcu_warm.stats.hit_rate()
    );
    assert_eq!(
        mcu.results.iter().map(observable).collect::<Vec<_>>(),
        mcu_warm.results.iter().map(observable).collect::<Vec<_>>(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The MCU runs the full stack: portable functions are attempted,
/// allocated, verified and served by a rung; classic 32-bit functions
/// are refused rather than miscompiled.
#[test]
fn mcu_runs_full_stack_and_refuses_wide_functions() {
    let portable = portable_pool(10);
    let cfg = fast_config(TargetId::Mcu);
    let out = run_suite(&portable, &cfg);
    assert_eq!(out.results.len(), portable.len());
    let attempted = out.results.iter().filter(|r| r.attempted).count();
    assert!(
        attempted >= portable.len() / 2,
        "most portable functions are attempted on the MCU, got {attempted}"
    );
    for r in out.results.iter().filter(|r| r.attempted) {
        assert!(r.func.is_some(), "{}: allocated code", r.name);
        assert!(r.rung.is_some(), "{}: served by a rung", r.name);
    }

    // The classic 32-bit mix is refused wholesale (no 32-bit registers).
    let wide: Vec<Function> = (0..6)
        .map(|i| fuzz_function(&format!("w32_{i}"), 0xfeed + i as u64, &GenConfig::fuzz()))
        .collect();
    let wide_out = run_suite(&wide, &cfg);
    assert!(
        wide_out.results.iter().all(|r| !r.attempted),
        "32-bit functions must be refused on the MCU"
    );
}

fn tempdir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("regalloc-driver-targets-{tag}-{pid}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
