//! Fig. 10 — optimal solution time vs number of IP constraints (log-log
//! scatter over the functions solved optimally).
//!
//! The paper fits roughly `O(n^2.5)`. Absolute times are incomparable
//! (CPLEX 6.0 on a 1998 PA-8000 vs this from-scratch solver), but the
//! growth exponent is the figure's point. CSV on stdout, fit and ASCII
//! scatter on stderr.

use regalloc_bench::{fig10_points, loglog_slope, run_all, Options};

fn main() {
    let o = Options::from_args();
    eprintln!(
        "generating suites at scale {} (seed {}), solver limit {:?}…",
        o.scale, o.seed, o.driver.solver.time_limit
    );
    let (out, benchmarks) = run_all(&o);

    // The fit is produced from the `SolveDone` trace events and the
    // trace's solve-phase wall time; the extractor cross-checks every
    // point against the driver's result and drops cache hits (a replayed
    // allocation's solve time is not a measurement).
    println!("constraints,solve_seconds,nodes,lp_iters,benchmark,function");
    let mut pts = Vec::new();
    for p in fig10_points(&out.results, &benchmarks) {
        println!(
            "{},{:.6},{},{},{},{}",
            p.constraints,
            p.solve_seconds,
            p.nodes,
            p.lp_iters,
            p.benchmark.name(),
            p.function
        );
        pts.push((p.constraints as f64, p.solve_seconds));
    }
    let slope = loglog_slope(&pts);
    eprintln!();
    eprintln!(
        "Fig. 10: optimal solve time ~ constraints^{slope:.2} over {} optimally-solved functions",
        pts.len()
    );
    eprintln!("paper: \"roughly O(n^2.5) with respect to the number of constraints\"");

    let (w, h) = (64usize, 20usize);
    let (min_x, max_x) = (10.0_f64.ln(), 10000.0_f64.ln());
    let (min_y, max_y) = (1e-4_f64.ln(), 10.0_f64.ln());
    let mut grid = vec![vec![b' '; w]; h];
    for (x, y) in &pts {
        if *y <= 0.0 {
            continue;
        }
        let gx = ((x.ln() - min_x) / (max_x - min_x) * (w - 1) as f64).clamp(0.0, (w - 1) as f64)
            as usize;
        let gy = ((y.ln() - min_y) / (max_y - min_y) * (h - 1) as f64).clamp(0.0, (h - 1) as f64)
            as usize;
        grid[h - 1 - gy][gx] = b'o';
    }
    eprintln!("solve time (log) ^");
    for row in grid {
        eprintln!("  |{}", String::from_utf8_lossy(&row));
    }
    eprintln!("  +{}> constraints (log)", "-".repeat(w));
}
