//! Head-to-head: the IP allocator vs the Chaitin–Briggs baseline on a
//! generated workload sample — a miniature of the paper's Table 3.
//!
//! Run with `cargo run --release --example compare_allocators -- [scale]`.

use precise_regalloc::coloring::ColoringAllocator;
use precise_regalloc::core::{check, RobustAllocator};
use precise_regalloc::workloads::{Benchmark, Suite};
use precise_regalloc::x86::{X86Machine, X86RegFile};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let machine = X86Machine::pentium();
    let ip = RobustAllocator::new(&machine);
    let gc = ColoringAllocator::new(&machine);

    let mut total_ip = precise_regalloc::core::SpillStats::default();
    let mut total_gc = precise_regalloc::core::SpillStats::default();
    let (mut n, mut optimal, mut wins, mut ties) = (0, 0, 0, 0);
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>8}",
        "function", "insts", "IP cycles", "GCC cycles", "optimal"
    );
    for bench in [Benchmark::Xlisp, Benchmark::Compress] {
        let suite = Suite::generate_scaled(bench, 2024, scale);
        for f in suite.functions.iter().filter(|f| !f.uses_64bit()) {
            let a = ip.allocate(f).expect("attempted");
            let c = gc.allocate(f).expect("attempted");
            check::equivalent::<X86RegFile>(f, &a.func, 3, 5).expect("IP correct");
            check::equivalent::<X86RegFile>(f, &c.func, 3, 5).expect("GC correct");
            println!(
                "{:<16} {:>6} {:>10} {:>10} {:>8}",
                f.name(),
                f.num_insts(),
                a.stats.overhead_cycles(),
                c.stats.overhead_cycles(),
                a.report.solved_optimally()
            );
            n += 1;
            optimal += a.report.solved_optimally() as u32;
            match a.stats.overhead_cycles().cmp(&c.stats.overhead_cycles()) {
                std::cmp::Ordering::Less => wins += 1,
                std::cmp::Ordering::Equal => ties += 1,
                std::cmp::Ordering::Greater => {}
            }
            total_ip += a.stats;
            total_gc += c.stats;
        }
    }
    println!();
    println!("{n} functions: IP optimal on {optimal}, cheaper on {wins}, tied on {ties}");
    println!(
        "aggregate overhead: IP {} cycles vs GCC {} cycles",
        total_ip.overhead_cycles(),
        total_gc.overhead_cycles()
    );
    println!(
        "aggregate net spill instructions: IP {} vs GCC {}",
        total_ip.total_insts(),
        total_gc.total_insts()
    );
}
