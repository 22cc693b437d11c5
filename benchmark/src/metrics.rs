//! Metric names and units — the list `BENCHMARK.json` declares.

use regalloc_core::ReasonCode;

/// End-to-end metrics: what a user of the allocator sees. Every workload
/// reports every one (see `README.md` for what each means per workload).
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("fn_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("solved_frac", "fraction"),
    ("optimal_frac", "fraction"),
    ("spill_cycles", "cycles"),
    ("code_bytes", "bytes"),
    ("ok_frac", "fraction"),
];

/// Model-size buckets of the solved/optimal curves (Table 2, Fig. 10).
pub const ROW_BUCKETS: [(&str, usize, usize); 5] = [
    ("rows_lt500", 0, 500),
    ("rows_500_1k", 500, 1_000),
    ("rows_1k_2k", 1_000, 2_000),
    ("rows_2k_4k", 2_000, 4_000),
    ("rows_ge4k", 4_000, usize::MAX),
];

/// Per-layer metrics, in report order, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("ilp.presolve_ms", "ms");
    add("ilp.presolve_elims", "count");
    add("ilp.root_lp_ms", "ms");
    add("ilp.root_lp_iters", "count");
    add("ilp.solve_ms", "ms");
    add("ilp.nodes", "count");
    add("ilp.lp_iters", "count");
    add("ilp.pivots", "count");
    add("ilp.us_per_pivot", "us");
    add("ilp.degenerate_frac", "fraction");
    add("ilp.ties_per_pivot", "count");
    add("ilp.reached_simplex_frac", "fraction");
    add("ilp.declined_rows", "count");
    for kind in ["solved_frac", "optimal_frac"] {
        for (bucket, _, _) in ROW_BUCKETS {
            add(&format!("ilp.{kind}.{bucket}"), "fraction");
        }
    }
    add("core.analyze_ms", "ms");
    add("core.build_ms", "ms");
    add("core.model_rows", "count");
    add("core.model_vars", "count");
    add("core.warm_seed_ms", "ms");
    add("core.rewrite_ms", "ms");
    add("core.equiv_ms", "ms");
    add("core.ip_accept_frac", "fraction");
    for r in ReasonCode::ALL {
        add(&format!("core.demote.{}", r.name()), "count");
    }
    add("audit.ms", "ms");
    add("audit.leaves", "count");
    add("audit.verified_frac", "fraction");
    add("lint.validate_ms", "ms");
    add("driver.cache_lookup_ms", "ms");
    add("driver.cache_store_ms", "ms");
    add("driver.cache_hit_frac", "fraction");
    add("driver.queue_wait_ms", "ms");
    add("driver.utilization", "fraction");
    add("ir.parse_ms", "ms");
    add("ir.liveness_ms", "ms");
    add("ir.verify_ms", "ms");
    add("cc.compile_ms", "ms");
    add("serve.server_ms", "ms");
    add("serve.wire_ms", "ms");
    add("serve.busy", "count");
    add("trace.untraced_wall_s", "s");
    add("trace.traced_wall_s", "s");
    add("trace.overhead_frac", "fraction");
    add("trace.span_coverage", "fraction");
    v
}

/// Collected metric values of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Values(pub std::collections::BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
