//! The repository benchmark: named workloads against the public APIs of
//! `regalloc-driver`, `regalloc-serve`, `regalloc-cc` and
//! `regalloc-workloads`, each output checked from outside, every metric
//! printed with its unit. `README.md` beside this crate explains the
//! workloads, the metrics and how the layers map onto them.

pub mod batch;
pub mod check;
pub mod inputs;
pub mod metrics;
pub mod regime;
pub mod replay;
pub mod serve;
pub mod sys;

use std::time::Duration;

use metrics::Values;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The six seeded paper suites on `x86-pentium`, cache and warm
    /// starts off: simplex- and branch-and-bound-bound.
    SeededX86,
    /// The C corpus plus a `portable16` suite on all three targets, audit
    /// and lint on: certificates, the exact audit and the machine models.
    CorpusProofs,
    /// An in-process daemon over a warmed disk cache: the hit path
    /// (parse, lookup, replay, revalidation, re-audit) and the protocol.
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SeededX86,
        Workload::CorpusProofs,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeededX86 => "seeded-x86",
            Workload::CorpusProofs => "corpus-proofs",
            Workload::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark proper, or a tiny instance for the
/// determinism self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured part runs (at least one unit of work).
    pub seconds: Duration,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    pub jobs: usize,
    pub size: Size,
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (function allocations or requests).
    pub attempted: u64,
    /// Operations that failed: a ladder error, an `ERR`/`BUSY` response,
    /// or an output the outside check rejected.
    pub failed: u64,
    /// Run-level problems: failed operations, regime-guard and
    /// trace-fidelity violations. Any problem makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end values (always) and per-layer values (traced runs).
    pub values: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Record a failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// The result line: exactly the metrics the mode declares, each with
    /// its unit.
    pub fn json(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            metrics::per_layer()
        } else {
            metrics::END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let body: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = self.values.get(n);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                    sys::json_str(n),
                    sys::json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Run one workload.
pub fn run(spec: &Spec) -> Outcome {
    let mut out = match spec.workload {
        Workload::SeededX86 | Workload::CorpusProofs => batch::run(spec),
        Workload::ServeWarm => serve::run(spec),
    };
    out.values.set("peak_rss_mb", sys::peak_rss_mb());
    let attempted = out.attempted.max(1) as f64;
    out.values
        .set("ok_frac", (attempted - out.failed as f64) / attempted);
    out
}

/// Per-layer metrics derived from a traced run.
pub fn layer_values(v: &mut Values, tr: &replay::Trace) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let s = &tr.spans;
    let c = &tr.counts;
    v.set("ilp.presolve_ms", ms(s.presolve));
    v.set("ilp.presolve_elims", c.presolve_elims as f64);
    v.set("ilp.root_lp_ms", ms(s.root_lp));
    v.set("ilp.root_lp_iters", c.root_lp_iters as f64);
    v.set("ilp.solve_ms", ms(s.solve));
    v.set("ilp.nodes", c.nodes as f64);
    v.set("ilp.lp_iters", c.lp_iters as f64);
    v.set("ilp.pivots", c.pivots as f64);
    v.set(
        "ilp.us_per_pivot",
        sys::ratio(ms(s.solve) * 1e3, c.pivots as f64),
    );
    v.set(
        "ilp.degenerate_frac",
        sys::ratio(c.degenerate as f64, c.pivots as f64),
    );
    v.set(
        "ilp.ties_per_pivot",
        sys::ratio(c.ties as f64, c.pivots as f64),
    );
    v.set("core.analyze_ms", ms(s.analyze));
    v.set("core.build_ms", ms(s.build));
    v.set("core.model_rows", c.model_rows as f64);
    v.set("core.model_vars", c.model_vars as f64);
    v.set("core.warm_seed_ms", ms(s.warm_seed));
    v.set("core.rewrite_ms", ms(s.rewrite));
    v.set("core.equiv_ms", ms(s.equiv));
    v.set(
        "core.ip_accept_frac",
        sys::ratio(c.ip_accepted as f64, c.ip_candidates as f64),
    );
    v.set("audit.ms", ms(s.audit));
    v.set("audit.leaves", c.audit_leaves as f64);
    v.set(
        "audit.verified_frac",
        sys::ratio(c.audit_verified as f64, c.audits as f64),
    );
    v.set("lint.validate_ms", ms(s.validate));
    v.set("driver.cache_lookup_ms", ms(s.cache_lookup));
    v.set("driver.cache_store_ms", ms(s.cache_store));
    v.set("ir.parse_ms", ms(s.parse));
    v.set("ir.liveness_ms", ms(s.liveness));
    v.set("ir.verify_ms", ms(s.verify));
    v.set(
        "trace.span_coverage",
        sys::ratio(s.total().as_secs_f64(), tr.task.as_secs_f64()),
    );
}
