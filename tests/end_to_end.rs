//! Cross-crate integration: generated workloads through both allocators,
//! every allocation verified structurally and by execution.
//!
//! This is the repository's strongest correctness evidence: hundreds of
//! randomly structured functions (loops, diamonds, calls, memory traffic,
//! mixed widths) are allocated by the IP allocator and the graph-coloring
//! baseline, and each result must behave *identically* to the symbolic
//! original on multiple inputs, executed on the bit-accurate x86 register
//! file.

use precise_regalloc::coloring::ColoringAllocator;
use precise_regalloc::core::{check, AllocReport, ReasonCode, RobustAllocator};
use precise_regalloc::ir::verify_allocated;
use precise_regalloc::workloads::{Benchmark, Suite};
use precise_regalloc::x86::{X86Machine, X86RegFile};

fn regalloc_ilp_config(millis: u64) -> precise_regalloc::ilp::SolverConfig {
    precise_regalloc::ilp::SolverConfig {
        time_limit: std::time::Duration::from_millis(millis),
        ..Default::default()
    }
}

/// Fail on a demotion that means a candidate was wrong: a panic or a
/// failed validator. The pipeline emits a lower rung's code in its place,
/// which the checks below would accept, so the defect would otherwise go
/// unseen.
fn assert_no_defect(report: &AllocReport) {
    let defects: Vec<_> = report
        .demotions
        .iter()
        .filter(|d| {
            matches!(
                d.reason,
                ReasonCode::Panic
                    | ReasonCode::ValidationFailed
                    | ReasonCode::EquivalenceFailed
                    | ReasonCode::StaticValidationFailed
            )
        })
        .collect();
    assert!(defects.is_empty(), "{}: {defects:?}", report.name);
}

fn check_suite(benchmark: Benchmark, scale: f64, seed: u64) {
    let machine = X86Machine::pentium();
    // A small solver budget keeps the test suite fast; the warm start
    // guarantees an allocation regardless, and correctness is what these
    // tests check (the experiment harness uses the real budget).
    let ip = RobustAllocator::new(&machine).with_solver_config(regalloc_ilp_config(300));
    let gc = ColoringAllocator::new(&machine);
    let suite = Suite::generate_scaled(benchmark, seed, scale);
    let mut attempted = 0;
    for f in &suite.functions {
        if f.uses_64bit() {
            assert!(ip.allocate(f).is_err());
            assert!(gc.allocate(f).is_err());
            continue;
        }
        attempted += 1;
        let out = ip
            .allocate(f)
            .unwrap_or_else(|e| panic!("{}: {e}", f.name()));
        assert_no_defect(&out.report);
        verify_allocated(&out.func).unwrap_or_else(|e| panic!("{}: {e:?}", f.name()));
        regalloc_machine::verify_machine(&machine, &out.func)
            .unwrap_or_else(|e| panic!("IP machine verify {}: {e:?}\n{}", f.name(), out.func));
        check::equivalent::<X86RegFile>(f, &out.func, 3, seed).unwrap_or_else(|e| {
            panic!(
                "IP {}: {e}\n-- original:\n{f}\n-- allocated:\n{}",
                f.name(),
                out.func
            )
        });

        let cout = gc.allocate(f).unwrap();
        verify_allocated(&cout.func).unwrap_or_else(|e| panic!("{}: {e:?}", f.name()));
        regalloc_machine::verify_machine(&machine, &cout.func)
            .unwrap_or_else(|e| panic!("GC machine verify {}: {e:?}\n{}", f.name(), cout.func));
        check::equivalent::<X86RegFile>(f, &cout.func, 3, seed).unwrap_or_else(|e| {
            panic!(
                "coloring {}: {e}\n-- original:\n{f}\n-- allocated:\n{}",
                f.name(),
                cout.func
            )
        });
    }
    assert!(attempted > 0);
}

#[test]
fn compress_suite_end_to_end() {
    check_suite(Benchmark::Compress, 1.0, 11);
}

#[test]
fn xlisp_sample_end_to_end() {
    check_suite(Benchmark::Xlisp, 0.12, 12);
}

#[test]
fn sc_sample_includes_64bit_rejections() {
    check_suite(Benchmark::Sc, 0.15, 13);
}

#[test]
fn cc1_sample_end_to_end() {
    check_suite(Benchmark::Cc1, 0.02, 14);
}

#[test]
fn espresso_sample_end_to_end() {
    check_suite(Benchmark::Espresso, 0.06, 15);
}

#[test]
fn eqntott_sample_end_to_end() {
    check_suite(Benchmark::Eqntott, 0.25, 16);
}

#[test]
fn risc_machine_end_to_end_sample() {
    use precise_regalloc::x86::{RiscMachine, RiscRegFile};
    let machine = RiscMachine::new();
    let ip = RobustAllocator::new(&machine).with_solver_config(regalloc_ilp_config(300));
    let suite = Suite::generate_scaled(Benchmark::Compress, 21, 0.5);
    for f in &suite.functions {
        if f.uses_64bit() {
            continue;
        }
        let out = ip.allocate(f).unwrap();
        assert_no_defect(&out.report);
        verify_allocated(&out.func).unwrap();
        check::equivalent::<RiscRegFile>(f, &out.func, 3, 21)
            .unwrap_or_else(|e| panic!("RISC {}: {e}", f.name()));
    }
}

#[test]
fn ip_beats_or_ties_coloring_in_aggregate() {
    // The headline result's direction: over a sample suite, total IP
    // overhead must be below the baseline's (the paper reports 36% of
    // the spill instructions, 61% less overhead).
    let machine = X86Machine::pentium();
    let ip = RobustAllocator::new(&machine).with_solver_config(regalloc_ilp_config(500));
    let gc = ColoringAllocator::new(&machine);
    let suite = Suite::generate_scaled(Benchmark::Espresso, 31, 0.08);
    let mut ip_cycles = 0i64;
    let mut gc_cycles = 0i64;
    for f in &suite.functions {
        if f.uses_64bit() {
            continue;
        }
        let a = ip.allocate(f).unwrap();
        assert_no_defect(&a.report);
        let c = gc.allocate(f).unwrap();
        // Paper pipeline: unsolved functions keep the compiler's default
        // allocation (see DESIGN.md / EXPERIMENTS.md).
        ip_cycles += if a.report.solved() { a.stats } else { c.stats }.overhead_cycles();
        gc_cycles += c.stats.overhead_cycles();
    }
    assert!(
        ip_cycles <= 2 * gc_cycles,
        "IP pipeline {ip_cycles} wildly exceeds baseline {gc_cycles}"
    );
}
