//! The per-function allocation service — the single code path behind
//! both the batch CLI ([`crate::run_suite`]) and the `regalloc-serve`
//! daemon.
//!
//! Extracting this out of `run_suite` is what makes the daemon's
//! byte-identity guarantee cheap to state: a request served over the
//! wire runs *exactly* the code a batch run would, down to the cache
//! lookup ordering and the warm-start donor selection. One service holds
//! the model of every registered target, so the daemon serves any mix of
//! targets from one cache and one donor snapshot. The two callers differ
//! only in where the target and the wall-clock grant come from; the
//! grant is abstracted behind [`BudgetSource`]:
//!
//! * the batch driver passes its [`BudgetGovernor`] (fair share of a
//!   global budget, shrinking as it drains);
//! * the daemon pre-charges a per-client token bucket
//!   ([`crate::schedule::ClientBudgets`]) at admission and passes the
//!   reserved grant as a [`FixedGrant`], settling the refund after the
//!   solve.
//!
//! Fault injection ([`FaultPlan`]) is a per-request option so the chaos
//! soak can hammer the daemon, but a faulted request **never touches the
//! shared cache** — neither lookup nor store — so injected corruption
//! cannot poison results served to well-behaved clients.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use regalloc_coloring::ColoringAllocator;
use regalloc_core::{
    AuditSummary, DonorSolution, FaultPlan, ReasonCode, RobustAllocator, Rung, WarmStartKind,
};
use regalloc_ir::{fingerprint, shape_vector, Function};
use regalloc_machine::{function_size, refuses, Machine, TargetId};
use regalloc_obs::{Event, Metrics, Phase, Tracer, SIZE_BUCKETS, TIME_BUCKETS};

use crate::cache::{cache_key, CacheEntry, DonorEntry, SolutionCache};
use crate::schedule::BudgetGovernor;
use crate::{BaselineResult, CacheMode, DriverConfig, FunctionResult};

/// Where a task's wall-clock grant comes from.
///
/// `grant` is called once per fresh solve (never on a cache hit or a
/// skipped function — those call `skip`, which lets fair-share
/// implementations return the unused share to the pool).
pub trait BudgetSource: Sync {
    /// Reserve and return the wall-clock budget for one fresh solve.
    fn grant(&self) -> Duration;
    /// Note that a task completed without solving (hit / not attempted).
    fn skip(&self);
}

impl BudgetSource for BudgetGovernor {
    fn grant(&self) -> Duration {
        BudgetGovernor::grant(self)
    }
    fn skip(&self) {
        BudgetGovernor::skip(self)
    }
}

/// A pre-reserved grant: the daemon charges the client's token bucket at
/// admission and hands the reservation here. During drain the daemon
/// substitutes [`Duration::ZERO`], which drops in-flight work straight to
/// the ladder's always-terminating fallback rungs.
pub struct FixedGrant(pub Duration);

impl BudgetSource for FixedGrant {
    fn grant(&self) -> Duration {
        self.0
    }
    fn skip(&self) {}
}

/// Per-request overrides layered over the service's [`DriverConfig`].
#[derive(Clone, Debug, Default)]
pub struct RequestOptions {
    /// Override [`DriverConfig::lint`] for this request.
    pub lint: Option<bool>,
    /// Inject faults into this request's pipeline (chaos testing). A
    /// faulted request always bypasses the cache.
    pub faults: Option<FaultPlan>,
}

/// The long-lived allocation service: the model of every registered
/// target, one solution cache and one frozen donor snapshot, shared by
/// every worker.
///
/// Donors are frozen at construction — exactly the batch driver's
/// "cold run" semantics — so warm-start selection is independent of
/// request arrival order and the byte-identity guarantee holds for any
/// interleaving of clients. The snapshot holds every donor-eligible
/// entry in the cache, whatever its target.
pub struct AllocationService {
    cfg: DriverConfig,
    machines: BTreeMap<TargetId, Box<dyn Machine + Send + Sync>>,
    cache: Option<SolutionCache>,
    donors: Vec<DonorEntry>,
}

impl AllocationService {
    /// Build the service from a driver configuration. `cfg.target`,
    /// `cfg.jobs` and `cfg.global_budget` are carried but not consulted
    /// here — each call names its target, and the rest belongs to the
    /// caller's scheduling layer.
    pub fn new(cfg: DriverConfig) -> AllocationService {
        let cache = match &cfg.cache {
            CacheMode::Off => None,
            CacheMode::Memory => Some(SolutionCache::with_limits(None, cfg.cache_limits)),
            CacheMode::Disk(dir) => Some(SolutionCache::with_limits(
                Some(dir.clone()),
                cfg.cache_limits,
            )),
        };
        let donors: Vec<DonorEntry> = match (&cache, cfg.warm_starts) {
            (Some(c), true) => c.donor_snapshot(),
            _ => Vec::new(),
        };
        AllocationService {
            cfg,
            machines: regalloc_core::targets::all().collect(),
            cache,
            donors,
        }
    }

    /// The solution cache, if one is configured.
    pub fn cache(&self) -> Option<&SolutionCache> {
        self.cache.as_ref()
    }

    /// The analysis-free cost estimate the admission layer sizes
    /// requests with.
    pub fn estimate(&self, f: &Function) -> usize {
        regalloc_core::build::estimate_constraints(f)
    }

    /// Allocate one function for `target`: the sealed task the batch pool
    /// and the daemon workers both run. Returns the finished
    /// [`FunctionResult`] with its trace (when tracing) and metrics shard
    /// attached.
    pub fn allocate_one(
        &self,
        target: TargetId,
        f: &Function,
        estimate: usize,
        budget: &dyn BudgetSource,
        opts: &RequestOptions,
    ) -> FunctionResult {
        let tracing = self.cfg.trace;
        let tracer = if tracing { Tracer::on() } else { Tracer::off() };
        let (mut r, cache_outcome) =
            self.allocate_inner(target, f, estimate, budget, opts, &tracer);
        if tracing {
            r.trace = Some(tracer.finish(&r.name));
        }
        r.metrics = task_metrics(&r, cache_outcome);
        r
    }

    fn allocate_inner(
        &self,
        target: TargetId,
        f: &Function,
        estimate: usize,
        budget: &dyn BudgetSource,
        opts: &RequestOptions,
        tracer: &Tracer,
    ) -> (FunctionResult, Option<&'static str>) {
        let t0 = Instant::now();
        let cfg = &self.cfg;
        let machine: &(dyn Machine + Send + Sync) = self.machines[&target].as_ref();
        let lint_on = opts.lint.unwrap_or(cfg.lint);
        // A faulted request must not read or write shared state: its
        // degraded (or corrupted-then-caught) outcome would otherwise be
        // served to healthy clients and break byte-identity with batch.
        let use_cache = opts.faults.is_none();
        if refuses(machine, f) {
            budget.skip();
            return (FunctionResult::new(f, estimate), None);
        }
        let gc = ColoringAllocator::new(machine);
        let baseline = cfg.compare_baseline.then(|| {
            let c = gc
                .allocate(f)
                .expect("baseline allocates attempted functions");
            let bytes = function_size(machine, &c.func);
            BaselineResult {
                func: c.func,
                stats: c.stats,
                bytes,
            }
        });

        let key = cache_key(f, target, &cfg.solver);
        let cache = if use_cache { self.cache.as_ref() } else { None };
        let mut cache_outcome = cache.map(|_| "miss");
        if let Some(cache) = cache {
            // Pin across lookup + revalidation: a concurrent store from
            // another worker may trigger LRU eviction, and an entry must
            // never be evicted while it is being verified.
            let _pin = cache.pin(key);
            let hit = {
                let _c = tracer.time(Phase::Cache);
                cache.lookup(key)
            };
            if let Some(hit) = hit {
                // An entry that degraded below the IP-optimal rung under a
                // smaller budget than the one now configured can plausibly
                // do better today: treat it as a miss and re-solve (the
                // key deliberately ignores the governed deadline so this
                // judgment happens here). The entry stays in place — it
                // may still donate its symbolic solution.
                let stale_deadline = hit.entry.rung != Rung::IpOptimal
                    && hit.entry.effective_deadline < cfg.function_budget;
                // The cache's own parse and structural check have passed.
                // The ladder's acceptance gate, without interpreter runs and
                // without spans (revalidation is timed as cache work),
                // proves the stored code encodable on this target and
                // computing *this* function's values; its analysis yields
                // the hit's lints. A failure means the entry was stale or
                // corrupt: evict and resolve.
                let revalidated = {
                    let _c = tracer.time(Phase::Cache);
                    RobustAllocator::new(machine)
                        .with_equivalence(0, 0)
                        .validate(f, &hit.func, &Tracer::off())
                        .ok()
                };
                // Under auditing an ip-optimal hit is only as good as its
                // proof: re-audit the persisted certificate against a
                // freshly rebuilt model. No certificate (an entry stored
                // without auditing) is stale — re-solve and store one; a
                // failing one is poison — evict and re-solve. Either way
                // the optimality claim is never served unproven.
                let mut hit_audit: Option<AuditSummary> = None;
                let mut audit_stale = false;
                let mut audit_rejected = false;
                if revalidated.is_some()
                    && !stale_deadline
                    && cfg.audit
                    && hit.entry.rung == Rung::IpOptimal
                {
                    let _a = tracer.span(Phase::Audit);
                    let cert = hit
                        .entry
                        .cert
                        .as_deref()
                        .and_then(regalloc_ilp::Certificate::from_text);
                    match cert {
                        None => audit_stale = true,
                        Some(cert) => {
                            match regalloc_core::IpAllocator::new(machine).build_only(f) {
                                Ok(built) => {
                                    let outcome =
                                        regalloc_audit::audit_certificate(&built.model, &cert);
                                    let audit = AuditSummary::record(outcome, tracer);
                                    if audit.code.is_none() {
                                        hit_audit = Some(audit);
                                    } else {
                                        audit_rejected = true;
                                    }
                                }
                                Err(_) => audit_stale = true,
                            }
                        }
                    }
                }
                if revalidated.is_none() || audit_rejected {
                    cache.reject(key);
                    cache_outcome = Some("rejected");
                } else if stale_deadline || audit_stale {
                    cache_outcome = Some("stale");
                } else {
                    budget.skip();
                    tracer.event(|| Event::CacheLookup { outcome: "hit" });
                    let lints = revalidated.filter(|_| lint_on).unwrap_or_default();
                    note_lints(tracer, &lints);
                    let result = FunctionResult {
                        attempted: true,
                        func: Some(hit.func),
                        stats: hit.entry.stats,
                        rung: Some(hit.entry.rung),
                        reasons: hit.entry.reasons,
                        num_constraints: hit.entry.num_constraints,
                        num_vars: hit.entry.num_vars,
                        num_insts: hit.entry.num_insts,
                        solver_nodes: hit.entry.solver_nodes,
                        lp_iters: hit.entry.lp_iters,
                        ip_bytes: hit.entry.ip_bytes,
                        cache_hit: true,
                        warm_start: hit.entry.warm_start,
                        granted_budget: cfg.function_budget,
                        task_time: t0.elapsed(),
                        lints,
                        audit: hit_audit,
                        baseline,
                        ..FunctionResult::new(f, estimate)
                    };
                    return (result, Some("hit"));
                }
            }
        }
        if let Some(outcome) = cache_outcome {
            tracer.event(|| Event::CacheLookup { outcome });
        }

        // Nearest-neighbour donor lookup: the frozen snapshot's closest
        // shape within the distance threshold, ties broken by fingerprint
        // for determinism. An exact fingerprint match means the donor
        // solved this very body (under a different solver configuration
        // or before a stale-deadline re-solve) and lowers rather than
        // projects.
        let fp = fingerprint(f);
        let shape = shape_vector(f);
        let donor = if use_cache {
            self.donors
                .iter()
                .map(|d| (d.shape.distance(&shape), d))
                .filter(|(dist, _)| *dist <= cfg.warm_start_distance)
                .min_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then_with(|| a.1.fingerprint.cmp(&b.1.fingerprint))
                })
                .map(|(_, d)| DonorSolution {
                    exact: d.fingerprint == fp,
                    solution: d.solution.clone(),
                })
        } else {
            None
        };

        let granted = budget.grant();
        let mut robust = RobustAllocator::new(machine)
            .with_solver_config(cfg.solver.clone())
            .with_budget(granted)
            .with_equivalence(cfg.equiv_runs, cfg.equiv_seed)
            .with_audit(cfg.audit)
            .with_baseline(&gc)
            .with_donor(donor);
        if let Some(faults) = &opts.faults {
            robust = robust.with_faults(*faults);
        }
        let outcome = match robust.allocate_traced(f, tracer) {
            Ok(out) => {
                let ip_bytes = {
                    let _e = tracer.time(Phase::Encode);
                    function_size(machine, &out.func)
                };
                let lints = if lint_on { out.lints } else { Vec::new() };
                note_lints(tracer, &lints);
                let reasons: Vec<ReasonCode> =
                    out.report.demotions.iter().map(|d| d.reason).collect();
                if let Some(cache) = cache {
                    let _c = tracer.time(Phase::Cache);
                    cache.store(
                        key,
                        CacheEntry {
                            target,
                            rung: out.report.rung,
                            reasons: reasons.clone(),
                            stats: out.stats,
                            num_constraints: out.report.num_constraints,
                            num_vars: out.report.num_vars,
                            num_insts: out.report.num_insts,
                            solver_nodes: out.report.solver_nodes,
                            lp_iters: out.report.lp_iters,
                            ip_bytes,
                            effective_deadline: granted,
                            fingerprint: fp,
                            shape,
                            warm_start: out.report.warm_start,
                            symbolic: out.symbolic.clone(),
                            cert: out.certificate.as_ref().map(|c| c.to_text()),
                            slots: out.func.slots().to_vec(),
                            func_text: format!("{}\n", out.func),
                        },
                    );
                }
                FunctionResult {
                    attempted: true,
                    func: Some(out.func),
                    stats: out.stats,
                    rung: Some(out.report.rung),
                    reasons,
                    num_constraints: out.report.num_constraints,
                    num_vars: out.report.num_vars,
                    num_insts: out.report.num_insts,
                    solver_nodes: out.report.solver_nodes,
                    lp_iters: out.report.lp_iters,
                    solve_time: out.report.solve_time,
                    build_time: out.report.build_time,
                    validate_time: out.report.validate_time,
                    health: out.report.health,
                    ip_bytes,
                    warm_start: out.report.warm_start,
                    granted_budget: granted,
                    task_time: t0.elapsed(),
                    lints,
                    audit: out.report.audit.clone(),
                    baseline,
                    ..FunctionResult::new(f, estimate)
                }
            }
            Err(e) => FunctionResult {
                attempted: true,
                granted_budget: granted,
                task_time: t0.elapsed(),
                baseline,
                error: Some(e.to_string()),
                ..FunctionResult::new(f, estimate)
            },
        };
        (outcome, cache_outcome)
    }
}

/// Split textual IR into functions (`fn ...` through the closing `}` at
/// column zero) and parse each. `label` names the source in errors (a
/// file path, or a request id on the wire).
pub fn parse_functions(label: &str, text: &str) -> Result<Vec<Function>, String> {
    let mut funcs = Vec::new();
    let mut chunk = String::new();
    for line in text.lines() {
        if line.starts_with("fn ") && !chunk.is_empty() {
            return Err(format!("{label}: `fn` before previous function closed"));
        }
        if line.starts_with(';') || (line.trim().is_empty() && chunk.is_empty()) {
            continue;
        }
        chunk.push_str(line);
        chunk.push('\n');
        if line == "}" {
            funcs.push(regalloc_ir::parse_function(&chunk).map_err(|e| format!("{label}: {e}"))?);
            chunk.clear();
        }
    }
    if !chunk.trim().is_empty() {
        return Err(format!("{label}: unterminated function at end of file"));
    }
    Ok(funcs)
}

/// Emit one `LintFindings` event per diagnostic code (sorted by slug).
fn note_lints(tracer: &Tracer, lints: &[regalloc_lint::Diagnostic]) {
    if !tracer.is_on() || lints.is_empty() {
        return;
    }
    let mut counts: BTreeMap<&'static str, u64> = Default::default();
    for d in lints {
        *counts.entry(d.code.slug).or_insert(0) += 1;
    }
    for (code, count) in counts {
        tracer.event(|| Event::LintFindings { code, count });
    }
}

/// Build one task's metrics shard from its finished result.
/// `cache_outcome` is the lookup disposition (`hit` / `miss` / `stale` /
/// `rejected`), absent when the cache is off or bypassed.
fn task_metrics(r: &FunctionResult, cache_outcome: Option<&'static str>) -> Metrics {
    let mut m = Metrics::new();
    m.inc("regalloc_functions_total", &[], 1);
    m.observe(
        "regalloc_function_insts",
        &[],
        SIZE_BUCKETS,
        r.num_insts as f64,
    );
    if let Some(outcome) = cache_outcome {
        m.inc("regalloc_cache_events_total", &[("outcome", outcome)], 1);
    }
    if !r.attempted {
        return m;
    }
    m.inc("regalloc_functions_attempted_total", &[], 1);
    if r.solved() {
        m.inc("regalloc_functions_solved_total", &[], 1);
    }
    if r.solved_optimally() {
        m.inc("regalloc_functions_optimal_total", &[], 1);
    }
    if let Some(rung) = r.rung {
        m.inc("regalloc_rung_functions_total", &[("rung", rung.name())], 1);
    }
    for reason in &r.reasons {
        m.inc("regalloc_demotions_total", &[("reason", reason.name())], 1);
    }
    if !r.cache_hit && r.warm_start != WarmStartKind::None {
        m.inc(
            "regalloc_warm_starts_total",
            &[("kind", r.warm_start.name())],
            1,
        );
    }
    m.inc("regalloc_solver_nodes_total", &[], r.solver_nodes);
    m.inc("regalloc_solver_lp_iters_total", &[], r.lp_iters);
    // Flight-recorder counters from the solver internals. Deterministic:
    // pure observations of the (already deterministic) pivot sequence.
    m.inc("regalloc_solver_pivots_total", &[], r.health.pivots);
    m.inc(
        "regalloc_solver_degenerate_pivots_total",
        &[],
        r.health.degenerate_pivots,
    );
    m.inc(
        "regalloc_solver_ratio_ties_total",
        &[],
        r.health.ratio_test_ties,
    );
    m.inc(
        "regalloc_presolve_eliminations_total",
        &[],
        r.health.presolve_eliminations,
    );
    // Exact quantile sketches, one observation per function. Solver and
    // model families are deterministic; the task-seconds family is
    // wall-clock (timing-class, excluded from determinism diffs).
    m.observe_quantile("regalloc_solver_nodes_dist", &[], r.solver_nodes as f64);
    m.observe_quantile("regalloc_solver_lp_iters_dist", &[], r.lp_iters as f64);
    m.observe_quantile("regalloc_solver_pivots_dist", &[], r.health.pivots as f64);
    m.observe_quantile("regalloc_task_seconds_dist", &[], r.task_time.as_secs_f64());
    for d in &r.lints {
        m.inc("regalloc_lint_findings_total", &[("code", d.code.slug)], 1);
    }
    if let Some(a) = &r.audit {
        m.inc("regalloc_certificates_checked_total", &[], 1);
        if a.verdict != regalloc_audit::Verdict::Verified {
            m.inc("regalloc_certificates_rejected_total", &[], 1);
        }
    }
    if r.num_vars > 0 {
        m.observe("regalloc_model_vars", &[], SIZE_BUCKETS, r.num_vars as f64);
        m.observe(
            "regalloc_model_constraints",
            &[],
            SIZE_BUCKETS,
            r.num_constraints as f64,
        );
        m.observe_quantile(
            "regalloc_model_constraints_dist",
            &[],
            r.num_constraints as f64,
        );
    }
    if let Some(t) = &r.trace {
        for (phase, d) in &t.phase_times {
            m.observe(
                "regalloc_phase_seconds",
                &[("phase", phase.name())],
                TIME_BUCKETS,
                d.as_secs_f64(),
            );
        }
    }
    m
}
