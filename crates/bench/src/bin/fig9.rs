//! Fig. 9 — number of IP constraints vs number of intermediate
//! instructions (log-log scatter).
//!
//! The paper observes slightly super-linear growth. This binary emits the
//! scatter as CSV on stdout plus the fitted log-log growth exponent, and
//! an ASCII rendition of the log-log scatter on stderr.

use regalloc_bench::{fig9_points, loglog_slope, run_all, Options};

fn main() {
    let mut o = Options::from_args();
    eprintln!("generating suites at scale {} (seed {})…", o.scale, o.seed);
    // Model construction only depends on the function, not on solving; a
    // tiny solver budget keeps this figure cheap.
    o.set_time_limit(std::time::Duration::from_millis(1));
    let (out, benchmarks) = run_all(&o);

    // The scatter is read from the `ModelBuilt` trace events; the
    // extractor cross-checks each point against the driver's result.
    println!("instructions,variables,constraints,benchmark,function");
    let mut pts = Vec::new();
    for p in fig9_points(&out.results, &benchmarks) {
        println!(
            "{},{},{},{},{}",
            p.insts,
            p.vars,
            p.constraints,
            p.benchmark.name(),
            p.function
        );
        pts.push((p.insts as f64, p.constraints as f64));
    }
    let slope = loglog_slope(&pts);
    eprintln!();
    eprintln!(
        "Fig. 9: constraints ~ instructions^{slope:.2} over {} functions",
        pts.len()
    );
    eprintln!("paper: growth \"only slightly higher than linear\"");

    // ASCII log-log scatter.
    let (w, h) = (64usize, 20usize);
    let (min_x, max_x) = (1.0_f64.ln(), 200.0_f64.ln());
    let (min_y, max_y) = (10.0_f64.ln(), 20000.0_f64.ln());
    let mut grid = vec![vec![b' '; w]; h];
    for (x, y) in &pts {
        let gx = ((x.ln() - min_x) / (max_x - min_x) * (w - 1) as f64).clamp(0.0, (w - 1) as f64)
            as usize;
        let gy = ((y.ln() - min_y) / (max_y - min_y) * (h - 1) as f64).clamp(0.0, (h - 1) as f64)
            as usize;
        grid[h - 1 - gy][gx] = b'o';
    }
    eprintln!("constraints (log) ^");
    for row in grid {
        eprintln!("  |{}", String::from_utf8_lossy(&row));
    }
    eprintln!("  +{}> instructions (log)", "-".repeat(w));
}
