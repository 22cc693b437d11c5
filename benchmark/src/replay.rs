//! The traced run: replays functions through each layer's public entry
//! points, in pipeline order, and times every call from outside.
//!
//! Nothing here reaches into the program's own tracer: the spans are the
//! benchmark's, recorded around calls it makes itself. The replay issues
//! the same calls with the same seeds and solver configuration as the
//! degradation ladder, so its solver effort must equal the untraced
//! run's exactly (the trace-fidelity check in `batch.rs`); the root
//! presolve and root LP are the only extra calls, made to time those two
//! stages on their own.

use std::time::{Duration, Instant};

use regalloc_core::{analysis, build, check, rewrite, warm, CostModel, DonorSolution, Rung};
use regalloc_driver::cache::{cache_key, DonorEntry, SolutionCache};
use regalloc_ilp::{
    propagate_counted, solve_lp, solve_seeded, Deadline, Incumbent, Propagation, SolverConfig,
    SolverHealth, Status,
};
use regalloc_ir::{
    fingerprint, shape_vector, verify_allocated, Cfg, Function, Liveness, LoopInfo, Profile,
};
use regalloc_machine::{Machine, TargetId};

use crate::regime::TIME_LIMIT;

/// Named layer spans, summed over every replayed call.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    pub parse: Duration,
    pub liveness: Duration,
    pub analyze: Duration,
    pub build: Duration,
    pub warm_seed: Duration,
    pub presolve: Duration,
    pub root_lp: Duration,
    pub solve: Duration,
    pub rewrite: Duration,
    pub verify: Duration,
    pub validate: Duration,
    pub equiv: Duration,
    pub audit: Duration,
    pub cache_lookup: Duration,
    pub cache_store: Duration,
}

impl Spans {
    /// Time covered by the named spans.
    pub fn total(&self) -> Duration {
        [
            self.parse,
            self.liveness,
            self.analyze,
            self.build,
            self.warm_seed,
            self.presolve,
            self.root_lp,
            self.solve,
            self.rewrite,
            self.verify,
            self.validate,
            self.equiv,
            self.audit,
            self.cache_lookup,
            self.cache_store,
        ]
        .iter()
        .sum()
    }
}

/// Work counters recorded at the same call boundaries.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub presolve_elims: u64,
    pub root_lp_iters: u64,
    pub nodes: u64,
    pub lp_iters: u64,
    pub pivots: u64,
    pub degenerate: u64,
    pub ties: u64,
    pub model_rows: u64,
    pub model_vars: u64,
    /// IP-rung candidates the solver offered to validation.
    pub ip_candidates: u64,
    /// IP-rung candidates validation accepted.
    pub ip_accepted: u64,
    pub audits: u64,
    pub audit_verified: u64,
    pub audit_leaves: u64,
}

/// The spans and counters of one traced run, plus the summed wall time of
/// every replayed task (the base the span coverage is measured against).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub spans: Spans,
    pub counts: Counts,
    pub task: Duration,
}

impl Trace {
    pub fn merge(&mut self, o: &Trace) {
        let s = &mut self.spans;
        let t = &o.spans;
        s.parse += t.parse;
        s.liveness += t.liveness;
        s.analyze += t.analyze;
        s.build += t.build;
        s.warm_seed += t.warm_seed;
        s.presolve += t.presolve;
        s.root_lp += t.root_lp;
        s.solve += t.solve;
        s.rewrite += t.rewrite;
        s.verify += t.verify;
        s.validate += t.validate;
        s.equiv += t.equiv;
        s.audit += t.audit;
        s.cache_lookup += t.cache_lookup;
        s.cache_store += t.cache_store;
        let c = &mut self.counts;
        let d = &o.counts;
        c.presolve_elims += d.presolve_elims;
        c.root_lp_iters += d.root_lp_iters;
        c.nodes += d.nodes;
        c.lp_iters += d.lp_iters;
        c.pivots += d.pivots;
        c.degenerate += d.degenerate;
        c.ties += d.ties;
        c.model_rows += d.model_rows;
        c.model_vars += d.model_vars;
        c.ip_candidates += d.ip_candidates;
        c.ip_accepted += d.ip_accepted;
        c.audits += d.audits;
        c.audit_verified += d.audit_verified;
        c.audit_leaves += d.audit_leaves;
        self.task += o.task;
    }
}

/// Time one call into a layer, adding its duration to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// What the pipeline settings of one replay are.
pub struct Pipeline<'a> {
    pub machine: &'a (dyn Machine + Send + Sync),
    pub solver: SolverConfig,
    pub audit: bool,
    pub lint: bool,
    pub equiv_runs: usize,
    pub equiv_seed: u64,
}

/// The solver-facing outcome of one replayed function, compared against
/// the untraced run by the fidelity check.
#[derive(Clone, Debug)]
pub struct Replayed {
    pub nodes: u64,
    pub lp_iters: u64,
    pub health: SolverHealth,
    pub rung: Option<Rung>,
}

/// Replay one function through the allocation pipeline's layers.
pub fn function(
    p: &Pipeline<'_>,
    f: &Function,
    donor: Option<&DonorSolution>,
    tr: &mut Trace,
) -> Replayed {
    let task = Instant::now();
    let s = &mut tr.spans;
    let c = &mut tr.counts;
    let m = p.machine;
    let cfg = Cfg::new(f);
    let loops = LoopInfo::new(f, &cfg);
    let profile = Profile::estimate(f, &cfg, &loops);
    let live = timed(&mut s.liveness, || Liveness::new(f, &cfg));
    let a = timed(&mut s.analyze, || analysis::analyze(f, &cfg, &live, m));
    let built = timed(&mut s.build, || {
        build::build_model(f, &cfg, &profile, &a, m, &CostModel::paper())
    });
    c.model_rows += built.model.num_rows() as u64;
    c.model_vars += built.model.num_vars() as u64;
    let warm = timed(&mut s.warm_seed, || {
        warm::spill_everything_assignment(f, &a, &built, m)
    });
    let mut seeds: Vec<Incumbent> = Vec::new();
    if let Some(w) = &warm {
        seeds.push(Incumbent {
            source: "spill",
            values: w.clone(),
        });
    }
    if let Some(d) = donor {
        let base: &[bool] = warm.as_deref().unwrap_or(&[]);
        let proj = timed(&mut s.warm_seed, || {
            let proj = built.project(&d.solution, base);
            built.model.is_feasible(&proj).then_some(proj)
        });
        if let Some(values) = proj {
            seeds.push(Incumbent {
                source: if d.exact { "exact" } else { "projected" },
                values,
            });
        }
    }

    // The root box, presolved and relaxed on its own: the first thing
    // both the dive and the root node of the search do.
    let n = built.model.num_vars();
    let (mut lb, mut ub) = (vec![0.0; n], vec![1.0; n]);
    let (prop, _) = timed(&mut s.presolve, || {
        propagate_counted(&built.model, &mut lb, &mut ub)
    });
    if prop == Propagation::Ok {
        let mut h = SolverHealth::default();
        let lp = timed(&mut s.root_lp, || {
            solve_lp(
                &built.model,
                &lb,
                &ub,
                p.solver.lp_iter_limit,
                Deadline::unlimited(),
                &mut h,
            )
        });
        c.root_lp_iters += lp.iters();
    }

    let solver = SolverConfig {
        emit_certificates: p.audit,
        ..p.solver.clone()
    };
    let sol = timed(&mut s.solve, || {
        solve_seeded(&built.model, &solver, &seeds, Deadline::after(TIME_LIMIT))
    });
    c.nodes += sol.nodes;
    c.lp_iters += sol.lp_iters;
    c.pivots += sol.health.pivots;
    c.degenerate += sol.health.degenerate_pivots;
    c.ties += sol.health.ratio_test_ties;
    c.presolve_elims += sol.health.presolve_eliminations;

    // The ladder's solver-derived candidates, best first.
    let mut candidates: Vec<(Rung, Vec<bool>)> = Vec::new();
    match sol.status {
        Status::Optimal if p.audit => {
            let out = timed(&mut s.audit, || {
                regalloc_audit::audit_solution(&built.model, &sol)
            });
            c.audits += 1;
            c.audit_leaves += out.leaves_checked;
            if out.verdict == regalloc_audit::Verdict::Verified {
                c.audit_verified += 1;
                candidates.push((Rung::IpOptimal, sol.values.clone()));
            } else {
                candidates.push((Rung::IpIncumbent, sol.values.clone()));
            }
        }
        Status::Optimal => candidates.push((Rung::IpOptimal, sol.values.clone())),
        Status::Feasible if !sol.warm_start_only || sol.incumbent_source != Some("spill") => {
            candidates.push((Rung::IpIncumbent, sol.values.clone()))
        }
        _ => {}
    }
    c.ip_candidates += candidates.len() as u64;
    if let Some(w) = warm {
        candidates.push((Rung::WarmStart, w));
    }

    let mut rung = None;
    for (cand_rung, values) in candidates {
        let (func, _) = timed(&mut s.rewrite, || {
            rewrite::apply(f, &profile, &a, &built, &values, m)
        });
        let ok = timed(&mut s.verify, || verify_allocated(&func).is_ok())
            && timed(&mut s.validate, || {
                regalloc_lint::validate(m, f, &func).is_empty()
            })
            && (p.equiv_runs == 0
                || timed(&mut s.equiv, || {
                    check::equivalent_with(f, &func, p.equiv_runs, p.equiv_seed, || m.new_regfile())
                        .is_ok()
                }));
        if ok {
            if cand_rung != Rung::WarmStart {
                c.ip_accepted += 1;
            }
            if p.lint {
                timed(&mut s.validate, || {
                    regalloc_lint::lint_allocation(m, f, &func)
                });
            }
            rung = Some(cand_rung);
            break;
        }
    }
    tr.task += task.elapsed();
    Replayed {
        nodes: sol.nodes,
        lp_iters: sol.lp_iters,
        health: sol.health,
        rung,
    }
}

/// The donor the allocation service would pick for `f` from its frozen
/// snapshot: the nearest shape within `max_distance`, ties broken by
/// fingerprint.
pub fn pick_donor(donors: &[DonorEntry], f: &Function, max_distance: f64) -> Option<DonorSolution> {
    let fp = fingerprint(f);
    let shape = shape_vector(f);
    donors
        .iter()
        .map(|d| (d.shape.distance(&shape), d))
        .filter(|(dist, _)| *dist <= max_distance)
        .min_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.fingerprint.cmp(&b.1.fingerprint))
        })
        .map(|(_, d)| DonorSolution {
            exact: d.fingerprint == fp,
            solution: d.solution.clone(),
        })
}

/// Replay the serve daemon's cache-hit path for one request: parse the
/// wire text, look the entry up (which realizes and structurally verifies
/// it), replay `verify_allocated`, revalidate statically and re-audit an
/// optimality certificate.
///
/// # Errors
///
/// Reports a request that does not hit, or a hit that fails a check the
/// daemon would have rejected it on.
pub fn hit(
    p: &Pipeline<'_>,
    cache: &SolutionCache,
    target: TargetId,
    text: &str,
    tr: &mut Trace,
) -> Result<(), String> {
    let task = Instant::now();
    let s = &mut tr.spans;
    let funcs = timed(&mut s.parse, || {
        regalloc_driver::parse_functions("replay", text)
    })?;
    let f = funcs.first().ok_or("empty request")?;
    let key = cache_key(f, target, &p.solver);
    let hit = timed(&mut s.cache_lookup, || cache.lookup(key))
        .ok_or_else(|| format!("{}: not cached", f.name()))?;
    if timed(&mut s.verify, || verify_allocated(&hit.func)).is_err() {
        return Err(format!(
            "{}: cached allocation fails verification",
            f.name()
        ));
    }
    if !timed(&mut s.validate, || {
        regalloc_lint::validate(p.machine, f, &hit.func)
    })
    .is_empty()
    {
        return Err(format!(
            "{}: cached allocation fails static validation",
            f.name()
        ));
    }
    if p.audit && hit.entry.rung == Rung::IpOptimal {
        let verdict = timed(&mut s.audit, || {
            let cert = hit
                .entry
                .cert
                .as_deref()
                .and_then(regalloc_ilp::Certificate::from_text)?;
            let built = regalloc_core::IpAllocator::new(p.machine)
                .build_only(f)
                .ok()?;
            Some(regalloc_audit::audit_certificate(&built.model, &cert))
        });
        tr.counts.audits += 1;
        match verdict {
            Some(a) if a.verdict == regalloc_audit::Verdict::Verified => {
                tr.counts.audit_verified += 1;
                tr.counts.audit_leaves += a.leaves_checked;
            }
            _ => return Err(format!("{}: certificate does not re-audit", f.name())),
        }
    }
    tr.task += task.elapsed();
    Ok(())
}

/// Time storing `key`'s entry, read from `from`, into `to`: the cache
/// write a miss pays.
pub fn store(
    from: &SolutionCache,
    to: &SolutionCache,
    key: u64,
    tr: &mut Trace,
) -> Result<(), String> {
    let task = Instant::now();
    let entry = from.lookup(key).ok_or("miss was not stored")?.entry;
    timed(&mut tr.spans.cache_store, || to.store(key, entry));
    tr.task += task.elapsed();
    Ok(())
}
