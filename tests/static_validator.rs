//! End-to-end properties of the static dataflow translation validator
//! (`regalloc-lint`) inside the robust pipeline and the batch driver:
//!
//! * corrupted solution vectors are caught *statically* even with the
//!   interpreter-equivalence check disabled — whatever the ladder then
//!   accepts is still interpreter-equivalent to the original (soundness);
//! * the validator never rejects what the clean ladder accepts today
//!   (no false positives over the seeded workload corpus);
//! * the driver's lint report is byte-identical across worker counts;
//! * code the target cannot encode is demoted even when it computes the
//!   right values.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use precise_regalloc::cc::compile_for;
use precise_regalloc::coloring::ColoringAllocator;
use precise_regalloc::core::{check, FaultPlan, ReasonCode, RobustAllocator, Rung};
use precise_regalloc::driver::{run_suite, CacheMode, DriverConfig};
use precise_regalloc::ilp::SolverConfig;
use precise_regalloc::lint::{lint_allocation, sort_diagnostics, validate, Report};
use precise_regalloc::workloads::{generate_function, Benchmark, GenConfig, Suite};
use precise_regalloc::x86::{X86Machine, X86RegFile};
use regalloc_machine::{verify_machine, TargetId};
use regalloc_mcu::McuMachine;

fn quick_solver() -> SolverConfig {
    SolverConfig {
        time_limit: Duration::from_millis(200),
        ..Default::default()
    }
}

/// The acceptance gate: with the interpreter-equivalence check *off*,
/// seeded bit-flips of the IP solution must still be demoted — and when
/// the damage is semantic (the code reads the wrong register but is
/// structurally fine, which `verify_allocated` cannot see), the catch
/// must come from the static validator. The accepted output must then be
/// interpreter-equivalent to the original.
#[test]
fn corrupted_solutions_are_caught_statically() {
    let machine = X86Machine::pentium();
    let gc = ColoringAllocator::new(&machine);
    // A suite small enough that the IP solver produces real incumbent
    // solutions for the corruption to damage (larger functions just time
    // out before any solver vector exists to corrupt).
    let suite = Suite::generate_scaled(Benchmark::Compress, 1998, 0.05);
    let mut static_demotions = 0;
    for f in suite.functions.iter().filter(|f| !f.uses_64bit()) {
        for corrupt_seed in 1u64..=10 {
            let robust = RobustAllocator::new(&machine)
                .with_solver_config(SolverConfig {
                    time_limit: Duration::from_secs(3),
                    ..Default::default()
                })
                .with_budget(Duration::from_secs(30))
                .with_equivalence(0, 0) // interpreter check OFF
                .with_faults(FaultPlan {
                    corrupt_solution: Some(corrupt_seed),
                    ..FaultPlan::none()
                })
                .with_baseline(&gc);
            let out = robust.allocate(f).expect("ladder always emits code");
            // A StaticValidationFailed demotion means the candidate had
            // already *passed* structural verification (it runs first):
            // the dataflow check alone caught the damage.
            static_demotions += out
                .report
                .demotions
                .iter()
                .filter(|d| d.reason == ReasonCode::StaticValidationFailed)
                .count();
            // Soundness: whatever was accepted without any interpreter
            // runs must still be interpreter-equivalent.
            check::equivalent::<X86RegFile>(f, &out.func, 4, 0xacce97ed)
                .unwrap_or_else(|e| panic!("{}: statically accepted code diverges: {e}", f.name()));
            // And the validator agrees with itself on the final output.
            assert!(
                validate(&machine, f, &out.func).is_empty(),
                "{}: accepted output fails re-validation",
                f.name()
            );
        }
    }
    assert!(
        static_demotions > 0,
        "no corruption was caught by the static validator alone — \
         the gate is not exercising the dataflow check"
    );
}

/// With faults disabled the static validator must never reject what the
/// ladder accepts (no false positives), and its lints must be computable
/// on every accepted allocation.
#[test]
fn no_false_positives_on_clean_pipeline() {
    let machine = X86Machine::pentium();
    let gc = ColoringAllocator::new(&machine);
    for b in [Benchmark::Compress, Benchmark::Eqntott] {
        let suite = Suite::generate_scaled(b, 1998, 0.05);
        for f in suite.functions.iter().filter(|f| !f.uses_64bit()) {
            let robust = RobustAllocator::new(&machine)
                .with_solver_config(quick_solver())
                .with_budget(Duration::from_secs(10))
                .with_equivalence(2, 7)
                .with_baseline(&gc);
            let out = robust.allocate(f).expect("clean ladder emits code");
            let errs = validate(&machine, f, &out.func);
            assert!(
                errs.is_empty(),
                "{}: false positive on accepted allocation: {:?}",
                f.name(),
                errs
            );
            let _ = lint_allocation(&machine, f, &out.func);
        }
    }
}

/// The graph-coloring baseline ignores the MCU's accumulator pinning, so
/// its code for `gcd` sources arithmetic outside the accumulator. With the
/// IP and warm-start rungs taken down by a build panic, the machine
/// invariants must demote that code and the ladder must fall through to
/// spill-everything.
#[test]
fn unencodable_coloring_output_is_demoted_on_the_mcu() {
    let machine = McuMachine::new();
    let gc = ColoringAllocator::new(&machine);
    let funcs = compile_for(include_str!("corpus/c/gcd.c"), TargetId::Mcu).expect("compiles");
    let f = funcs.iter().find(|f| f.name() == "gcd").expect("gcd");
    let out = RobustAllocator::new(&machine)
        .with_budget(Duration::from_secs(10))
        .with_equivalence(2, 7)
        .with_faults(FaultPlan {
            panic_in_build: true,
            ..FaultPlan::none()
        })
        .with_baseline(&gc)
        .allocate(f)
        .expect("spill-everything always emits code");
    let coloring = out
        .report
        .demotions
        .iter()
        .find(|d| d.from == Rung::Coloring)
        .expect("the coloring rung is demoted");
    assert_eq!(
        coloring.reason,
        ReasonCode::ValidationFailed,
        "{}",
        coloring.detail
    );
    assert_eq!(out.report.rung, Rung::SpillAll);
    assert_eq!(verify_machine(&machine, &out.func), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workload functions through the clean ladder: the static
    /// validator accepts every accepted allocation (soundness of the
    /// acceptance gate is covered by the corruption test above).
    #[test]
    fn validator_accepts_random_clean_allocations(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x57a71c);
        let f = generate_function(
            "prop_static",
            &mut rng,
            &GenConfig { target_insts: 16, ..Default::default() },
        );
        if f.uses_64bit() {
            return Ok(());
        }
        let machine = X86Machine::pentium();
        let gc = ColoringAllocator::new(&machine);
        let robust = RobustAllocator::new(&machine)
            .with_solver_config(quick_solver())
            .with_budget(Duration::from_secs(10))
            .with_equivalence(2, seed)
            .with_baseline(&gc);
        let out = robust.allocate(&f);
        prop_assert!(out.is_ok(), "{:?}", out.err());
        let out = out.unwrap();
        let errs = validate(&machine, &f, &out.func);
        prop_assert!(errs.is_empty(), "false positive: {errs:?}");
    }
}

/// The driver's lint report must be byte-identical across worker counts
/// (results come back in suite order and diagnostics are sorted).
#[test]
fn lint_report_is_deterministic_across_jobs() {
    let suite = Suite::generate_scaled(Benchmark::Compress, 1998, 0.05);
    let report_for = |jobs: usize| {
        let cfg = DriverConfig {
            jobs,
            solver: SolverConfig::deterministic(),
            function_budget: SolverConfig::deterministic().time_limit,
            cache: CacheMode::Off,
            equiv_runs: 1,
            equiv_seed: 7,
            lint: true,
            // No cache, so no donor snapshot exists to warm-start from.
            warm_starts: false,
            ..DriverConfig::default()
        };
        let out = run_suite(&suite.functions, &cfg);
        let mut report = Report::default();
        for r in &out.results {
            if !r.lints.is_empty() {
                let mut lints = r.lints.clone();
                sort_diagnostics(&mut lints);
                report.push(r.name.clone(), lints);
            }
        }
        (report.to_text(), report.to_json(), report.to_sarif())
    };
    let one = report_for(1);
    let eight = report_for(8);
    assert_eq!(
        one.0, eight.0,
        "text report differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        one.1, eight.1,
        "json report differs between jobs=1 and jobs=8"
    );
    assert_eq!(
        one.2, eight.2,
        "sarif report differs between jobs=1 and jobs=8"
    );
}
