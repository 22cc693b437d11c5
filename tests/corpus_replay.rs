//! The checked-in fuzzing corpus, replayed on every `cargo test`:
//!
//! * every C program under `tests/corpus/c/` compiles with
//!   `regalloc-cc`, allocates on every rung of the ladder, and passes
//!   all three differential oracles clean;
//! * every reproducer under `tests/corpus/ir/` still trips the oracle
//!   it was minimized for, under its recorded fault plan;
//! * the batch driver's report over the compiled corpus is
//!   byte-identical between `--jobs 1` and `--jobs 8`.

use std::path::{Path, PathBuf};

use precise_regalloc::cc;
use precise_regalloc::driver::{run_suite, CacheMode, DriverConfig};
use precise_regalloc::fuzz::{check_function, corpus, run_rungs};
use precise_regalloc::ilp::SolverConfig;
use precise_regalloc::ir::Function;
use precise_regalloc::lint::{sort_diagnostics, Report};
use precise_regalloc::x86::X86Machine;

fn corpus_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(kind)
}

fn c_programs() -> Vec<(String, String)> {
    let dir = corpus_dir("c");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()));
            (name, src)
        })
        .collect()
}

fn compile_corpus() -> Vec<Function> {
    let mut funcs = Vec::new();
    for (name, src) in c_programs() {
        let fs = cc::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!fs.is_empty(), "{name}: compiled to no functions");
        funcs.extend(fs);
    }
    funcs
}

/// Every corpus program compiles, allocates on *all three* rungs (the
/// corpus is deliberately 32-bit-only) and passes every oracle.
#[test]
fn c_corpus_allocates_clean_on_every_rung() {
    let programs = c_programs();
    assert!(
        programs.len() >= 10,
        "corpus shrank to {} programs; keep at least 10",
        programs.len()
    );
    let machine = X86Machine::pentium();
    for (name, src) in &programs {
        let funcs = cc::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for f in &funcs {
            assert!(
                !f.uses_64bit(),
                "{name}/{}: corpus programs must stay 32-bit so every rung runs",
                f.name()
            );
            let outs =
                run_rungs(&machine, f, None).unwrap_or_else(|e| panic!("{name}/{}: {e}", f.name()));
            assert_eq!(
                outs.produced().len(),
                3,
                "{name}/{}: some rung refused a 32-bit function",
                f.name()
            );
            let viols = check_function(&machine, f, &outs, 3, 0xc0de);
            assert!(
                viols.is_empty(),
                "{name}/{}: oracle violations on clean corpus: {viols:?}",
                f.name()
            );
        }
    }
}

/// Every checked-in reproducer still reproduces: the recorded fault
/// plan re-trips the recorded oracle.
#[test]
fn ir_reproducers_still_fire_their_oracle() {
    let files = corpus::corpus_files(&corpus_dir("ir"));
    assert!(
        !files.is_empty(),
        "tests/corpus/ir is empty; regenerate with \
         `regalloc-fuzz --cases 60 --seed 7 --fault 3 --corpus tests/corpus/ir`"
    );
    for path in &files {
        let r = corpus::read_reproducer(path).unwrap_or_else(|e| panic!("{e}"));
        corpus::replay(&r, 3)
            .unwrap_or_else(|e| panic!("{}: stale reproducer: {e}", path.display()));
    }
}

/// The driver's report over the compiled C corpus is byte-identical
/// across worker counts.
#[test]
fn driver_output_over_corpus_is_deterministic_across_jobs() {
    let funcs = compile_corpus();
    let report_for = |jobs: usize| {
        let cfg = DriverConfig {
            jobs,
            solver: SolverConfig::deterministic(),
            function_budget: SolverConfig::deterministic().time_limit,
            cache: CacheMode::Off,
            equiv_runs: 1,
            equiv_seed: 7,
            lint: true,
            warm_starts: false,
            ..DriverConfig::default()
        };
        let out = run_suite(&funcs, &cfg);
        let mut report = Report::default();
        for r in &out.results {
            if !r.lints.is_empty() {
                let mut lints = r.lints.clone();
                sort_diagnostics(&mut lints);
                report.push(r.name.clone(), lints);
            }
        }
        let statuses: Vec<String> = out
            .results
            .iter()
            .map(|r| format!("{} {:?}", r.name, r.rung))
            .collect();
        (report.to_text(), report.to_json(), statuses)
    };
    let one = report_for(1);
    let eight = report_for(8);
    assert_eq!(
        one.0, eight.0,
        "lint text differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        one.1, eight.1,
        "lint json differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        one.2, eight.2,
        "per-function outcomes differ between jobs=1 and jobs=8"
    );
}
