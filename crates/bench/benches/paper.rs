//! Criterion benchmarks over the paper's moving parts: model building,
//! LP relaxation, full validated IP allocation, the coloring baseline,
//! and the x86-vs-RISC model-size effect (the timing counterpart of the
//! `table*`/`fig*` report binaries).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use regalloc_coloring::ColoringAllocator;
use regalloc_core::{IpAllocator, RobustAllocator};
use regalloc_ilp::simplex::solve_lp;
use regalloc_ilp::SolverConfig;
use regalloc_ir::Function;
use regalloc_workloads::{generate_function, GenConfig};
use regalloc_x86::{RiscMachine, X86Machine};

fn sample_function(insts: usize, seed: u64) -> Function {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate_function(
        &format!("bench_{insts}"),
        &mut rng,
        &GenConfig {
            target_insts: insts,
            ..Default::default()
        },
    )
}

fn quick_solver() -> SolverConfig {
    SolverConfig {
        time_limit: Duration::from_millis(300),
        ..Default::default()
    }
}

fn bench_model_build(c: &mut Criterion) {
    let machine = X86Machine::pentium();
    let ip = IpAllocator::new(&machine);
    let mut g = c.benchmark_group("model_build");
    for insts in [10usize, 20, 40] {
        let f = sample_function(insts, 42);
        g.bench_with_input(BenchmarkId::from_parameter(insts), &f, |b, f| {
            b.iter(|| ip.build_only(f).unwrap().model.num_rows())
        });
    }
    g.finish();
}

fn bench_lp_relaxation(c: &mut Criterion) {
    let machine = X86Machine::pentium();
    let ip = IpAllocator::new(&machine);
    let mut g = c.benchmark_group("lp_relaxation");
    g.sample_size(10);
    for insts in [10usize, 20] {
        let f = sample_function(insts, 43);
        let built = ip.build_only(&f).unwrap();
        let n = built.model.num_vars();
        g.bench_with_input(
            BenchmarkId::from_parameter(built.model.num_rows()),
            &built,
            |b, built| {
                b.iter(|| {
                    solve_lp(
                        &built.model,
                        &vec![0.0; n],
                        &vec![1.0; n],
                        1_000_000,
                        regalloc_ilp::Deadline::unlimited(),
                        &mut regalloc_ilp::SolverHealth::default(),
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_ip_allocation(c: &mut Criterion) {
    let machine = X86Machine::pentium();
    let ip = RobustAllocator::new(&machine).with_solver_config(quick_solver());
    let mut g = c.benchmark_group("ip_allocate");
    g.sample_size(10);
    for insts in [10usize, 25] {
        let f = sample_function(insts, 44);
        g.bench_with_input(BenchmarkId::from_parameter(insts), &f, |b, f| {
            b.iter(|| ip.allocate(f).unwrap().stats)
        });
    }
    g.finish();
}

fn bench_coloring_allocation(c: &mut Criterion) {
    let machine = X86Machine::pentium();
    let gc = ColoringAllocator::new(&machine);
    let mut g = c.benchmark_group("coloring_allocate");
    for insts in [10usize, 25, 50] {
        let f = sample_function(insts, 44);
        g.bench_with_input(BenchmarkId::from_parameter(insts), &f, |b, f| {
            b.iter(|| gc.allocate(f).unwrap().stats)
        });
    }
    g.finish();
}

fn bench_x86_vs_risc_build(c: &mut Criterion) {
    let x86 = X86Machine::pentium();
    let risc = RiscMachine::new();
    let f = sample_function(20, 45);
    let ipx = IpAllocator::new(&x86);
    let ipr = IpAllocator::new(&risc);
    let mut g = c.benchmark_group("x86_vs_risc_build");
    g.bench_function("x86_6_regs", |b| {
        b.iter(|| ipx.build_only(&f).unwrap().model.num_rows())
    });
    g.bench_function("risc_24_regs", |b| {
        b.iter(|| ipr.build_only(&f).unwrap().model.num_rows())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_model_build,
    bench_lp_relaxation,
    bench_ip_allocation,
    bench_coloring_allocation,
    bench_x86_vs_risc_build
);
criterion_main!(benches);
