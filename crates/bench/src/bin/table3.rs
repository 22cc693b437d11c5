//! Table 3 — components of dynamic spill-code overhead, IP vs the
//! graph-coloring baseline ("GCC").
//!
//! Counts are profile-weighted net instruction counts (inserted −
//! deleted), exactly as in the paper: rematerialisation can go negative
//! for the baseline (deleted constant definitions), copies go negative
//! for the IP allocator (§5.1 copy deletion beats insertion).
//!
//! Two aggregations are reported:
//!  * over every attempted function (the paper's setting — its solver
//!    solved 98% of functions optimally, ours cannot). As in the paper's
//!    compiler, which kept GCC's allocation for any function the solver
//!    did not solve, such a function is charged at the baseline's cost,
//!    which dilutes the IP side;
//!  * over the optimally-solved subset, where the reproduction's IP
//!    allocations are provably the cost-model minimum.

use regalloc_bench::{ratio, run_all, DegradationSummary, Options};
use regalloc_core::{CostModel, SpillStats};
use regalloc_driver::FunctionResult;

fn print_block(title: &str, rows: &[&FunctionResult]) {
    let mut ip = SpillStats::default();
    let mut gc = SpillStats::default();
    let (mut ipb, mut gcb) = (0u64, 0u64);
    for r in rows {
        let (gc_stats, gc_bytes) = r
            .baseline
            .as_ref()
            .map_or((SpillStats::default(), 0), |b| (b.stats, b.bytes));
        // The paper's compiler kept the graph-coloring allocation for a
        // function the IP solver did not solve, so the table charges such
        // a function at the baseline's cost.
        let (ip_stats, ip_bytes) = if r.solved() {
            (r.stats, r.ip_bytes)
        } else {
            (gc_stats, gc_bytes)
        };
        ip += ip_stats;
        gc += gc_stats;
        ipb += ip_bytes;
        gcb += gc_bytes;
    }
    println!("{title} ({} functions)", rows.len());
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "Overhead Type", "IP", "GCC", "IP/GCC"
    );
    let lines = [
        ("Spill Load", ip.loads, gc.loads),
        ("Spill Store", ip.stores, gc.stores),
        ("Rematerialization", ip.remats, gc.remats),
        ("Copy", ip.copies, gc.copies),
    ];
    for (name, a, b) in lines {
        println!("{:<18} {:>12} {:>12} {:>9}", name, a, b, ratio(a, b));
    }
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "Total",
        ip.total_insts(),
        gc.total_insts(),
        ratio(ip.total_insts(), gc.total_insts())
    );
    let (ic, gcx) = (ip.overhead_cycles(), gc.overhead_cycles());
    println!("dynamic overhead: IP {ic} cycles, GCC {gcx} cycles");
    println!(
        "spill code size: IP {} bytes, GCC {} bytes (whole functions: {ipb} vs {gcb})",
        ip.code_bytes, gc.code_bytes
    );
    // eq. (1) exactly as the paper computes it, with the IP model's
    // weights: Table 3's dynamic counts weighted by Table 1's cycle costs,
    // plus B × the static spill-code bytes.
    let w = CostModel::paper();
    let e1_ip = w.cycle_weight * ic + w.b * ip.code_bytes;
    let e1_gc = w.cycle_weight * gcx + w.b * gc.code_bytes;
    println!("eq.(1) overhead (B = {}): IP {e1_ip}, GCC {e1_gc}", w.b);
    if e1_gc > 0 {
        println!(
            "the IP allocator changes register-allocation overhead by {:+.0}%",
            100.0 * (e1_ip - e1_gc) as f64 / e1_gc as f64
        );
    }
    println!();
}

fn main() {
    let o = Options::from_args();
    eprintln!(
        "generating suites at scale {} (seed {}), solver limit {:?} per function, {} worker(s)…",
        o.scale, o.seed, o.driver.solver.time_limit, o.driver.jobs
    );
    let (out, _) = run_all(&o);
    let attempted: Vec<&FunctionResult> = out.results.iter().filter(|r| r.attempted).collect();
    let optimal: Vec<&FunctionResult> = out
        .results
        .iter()
        .filter(|r| r.solved_optimally())
        .collect();

    println!("Table 3. Components of dynamic spill code overhead.");
    println!();
    print_block("All attempted functions", &attempted);
    print_block("Optimally solved subset", &optimal);
    let sum = DegradationSummary::from_metrics(&out.metrics);
    println!("degradation ladder: {sum}");
    let lints = out
        .metrics
        .counter_family_sum("regalloc_lint_findings_total");
    println!("lint: {lints} finding(s) over accepted allocations");
    println!();
    println!("paper: loads 0.41, stores 0.56, remat -29, copy 6.3, total 0.36;");
    println!("       551M vs 1410M cycles — a 61% overhead reduction.");
    println!();
    let stats = &out.stats;
    println!(
        "driver: wall {:.1}s, speedup {:.2}x over sequential ({} worker(s)); cache {:.0}% hit rate",
        stats.wall_time.as_secs_f64(),
        stats.speedup(),
        stats.jobs,
        stats.hit_rate() * 100.0
    );
}
