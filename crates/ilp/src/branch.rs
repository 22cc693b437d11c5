//! Depth-first branch-and-bound over the LP relaxation.

use std::time::{Duration, Instant};

use regalloc_obs::{Event, Phase, Tracer};

use crate::cert::{Certificate, Claim, NodeCert, Step};
use crate::health::{Deadline, HealthState, SolverHealth};
use crate::model::Model;
use crate::presolve::{propagate_counted, propagate_recorded_counted, PropRecorder, Propagation};
use crate::simplex::{solve_lp_with_duals, DualInfo, LpOutcome};

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Wall-clock limit for the whole solve. The paper allowed CPLEX 1024
    /// seconds per function on 1998 hardware; the experiment harness uses
    /// a scaled-down default.
    pub time_limit: Duration,
    /// Simplex iteration limit per LP relaxation.
    pub lp_iter_limit: u64,
    /// Node limit for the branch-and-bound search.
    pub node_limit: u64,
    /// Models with more rows than this are declined with
    /// [`Status::Unknown`] — the analogue of the memory limits that left a
    /// few of the paper's functions unsolved. The simplex's basis inverse
    /// grows with the pivots, by `8·rows` bytes for each row that has
    /// been a pivot row, but the refactorization that bounds its drift is
    /// dense: it holds two `rows × rows` matrices (`16·rows²` bytes),
    /// costs `O(rows³)`, and leaves a `rows × rows` inverse behind. The
    /// deterministic regime's 600 rows also decline most compiled
    /// functions before the simplex starts (ROADMAP item 1).
    pub max_rows: usize,
    /// Attach a [`Certificate`] to completed solves (proved
    /// [`Status::Optimal`] or [`Status::Infeasible`]) of integral-cost
    /// models. Emission is pure observation — the search path, events and
    /// returned solution are bit-identical either way; it only costs one
    /// extra dual extraction per node plus the recorded trails.
    pub emit_certificates: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            time_limit: Duration::from_secs(4),
            lp_iter_limit: 400_000,
            node_limit: 200_000,
            max_rows: 6_000,
            emit_certificates: false,
        }
    }
}

impl SolverConfig {
    /// The deterministic regime the observatory, the fuzzer and the
    /// determinism tests run under: tight node and LP-iteration limits
    /// end every solve, and the wall clock is generous enough never to
    /// bind, so every machine and every `--jobs` value takes the same
    /// path through the search and the degradation ladder. The
    /// allocation pipeline caps the solver at the smaller of its
    /// per-function budget and `time_limit`, so callers give it a budget
    /// of this regime's `time_limit` too.
    pub fn deterministic() -> SolverConfig {
        SolverConfig {
            time_limit: Duration::from_secs(300),
            lp_iter_limit: 2_000,
            node_limit: 16,
            max_rows: 600,
            ..SolverConfig::default()
        }
    }
}

/// Solve outcome classification, matching the taxonomy of the paper's
/// Table 2 (plus the health-guard outcome).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// An optimal solution was found and proved optimal.
    Optimal,
    /// A feasible solution was found, but optimality was not proved within
    /// the limits.
    Feasible,
    /// The model was proved infeasible.
    Infeasible,
    /// No conclusion within the limits.
    Unknown,
    /// No conclusion, and the search was dominated by numerical trouble
    /// (NaN/Inf contamination or unusable pivots in the simplex) rather
    /// than by resource exhaustion. The caller should not retry with a
    /// bigger budget; it should degrade to a non-IP allocation.
    NumericalTrouble,
}

impl Status {
    /// Stable name used in trace events and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Status::Optimal => "optimal",
            Status::Feasible => "feasible",
            Status::Infeasible => "infeasible",
            Status::Unknown => "unknown",
            Status::NumericalTrouble => "numerical-trouble",
        }
    }
}

/// A candidate incumbent handed to the solver before the search starts.
#[derive(Clone, Debug)]
pub struct Incumbent {
    /// Where the candidate came from (`"spill"`, `"exact"`,
    /// `"projected"`, …). The accepted seed's tag is reported back in
    /// [`Solution::incumbent_source`].
    pub source: &'static str,
    /// Candidate assignment over the model's variables. Mis-sized or
    /// infeasible candidates are silently ignored.
    pub values: Vec<bool>,
}

/// The result of a solve.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Outcome classification.
    pub status: Status,
    /// The best assignment found (empty when none exists).
    pub values: Vec<bool>,
    /// Objective of `values` (meaningless unless a solution exists).
    pub objective: f64,
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// True when the best assignment is exactly the caller-supplied warm
    /// start and the search never found anything on its own (the paper's
    /// Table 2 counts such functions as *unsolved* — the solver produced
    /// nothing — even though a usable allocation exists).
    pub warm_start_only: bool,
    /// Source tag of the accepted (feasible, best-objective) seed
    /// incumbent, `None` when the solve started cold. Records which seed
    /// the search pruned against, even when a better solution was found
    /// later.
    pub incumbent_source: Option<&'static str>,
    /// Total simplex iterations across every LP relaxation touched by
    /// the solve — including the dive heuristic and nodes whose
    /// relaxation was abandoned or proved infeasible (their iterations
    /// used to be dropped from the accounting).
    pub lp_iters: u64,
    /// Wall-clock time spent.
    pub solve_time: Duration,
    /// Numerical-health counters accumulated across every LP relaxation.
    pub health: SolverHealth,
    /// The composed proof of a completed search, present only when
    /// [`SolverConfig::emit_certificates`] was set, the model has
    /// integral costs, the search ran to completion
    /// ([`Status::Optimal`] or [`Status::Infeasible`]), and every leaf
    /// yielded a usable claim within the emission memory cap.
    pub certificate: Option<Certificate>,
}

impl Solution {
    /// Value of a variable in the best assignment.
    ///
    /// # Panics
    ///
    /// Panics if no solution was found.
    pub fn value(&self, v: crate::model::VarId) -> bool {
        self.values[v.index()]
    }

    /// True if a usable assignment is present.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, Status::Optimal | Status::Feasible)
    }
}

struct Node {
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Path from the root (decisions + presolve deductions), populated
    /// only while certificate emission is active.
    steps: Vec<Step>,
    /// Branching decisions from the root to this node (always tracked,
    /// unlike `steps`): the flight recorder reports it on `Node` events.
    depth: u64,
}

/// Round an LP point to the nearest 0-1 assignment.
fn round_point(x: &[f64]) -> Vec<bool> {
    x.iter().map(|v| *v >= 0.5).collect()
}

/// Emit a `Health` transition event when the coarse health state moved
/// since the last observation. Checked between LP relaxations (not inside
/// the simplex loop) so the hot path stays untouched.
fn note_health(tracer: &Tracer, prev: &mut HealthState, health: &SolverHealth) {
    let now = health.state();
    if now != *prev {
        let from = prev.name();
        tracer.event(|| Event::Health {
            from,
            to: now.name(),
        });
        *prev = now;
    }
}

/// What a dive found and spent.
struct DiveOutcome {
    /// The integral candidate reached, with its objective.
    found: Option<(Vec<bool>, f64)>,
    /// Simplex iterations consumed, the first relaxation's included.
    iters: u64,
    /// Deepest fix depth reached.
    depth: u64,
    /// The first relaxation — the root box after the root's propagation —
    /// for the root node to reuse instead of solving the same LP again.
    /// `None` when the dive solved no relaxation or its first one stopped
    /// on the clock.
    root: Option<(LpOutcome, DualInfo)>,
}

/// LP-guided diving: repeatedly solve the relaxation, freeze the
/// (nearly-)integral variables, and fix the least-fractional remaining
/// variable to its nearest bound, until the point is integral or the
/// dive dead-ends. A strong primal heuristic for these network-like
/// models, whose LP optima are close to integral.
///
/// Returns the candidate (if any) plus the simplex iterations the dive
/// consumed and the deepest fix depth it reached, so the caller can
/// attribute them to the solve totals and the flight recorder, and the
/// first relaxation, solved with duals when `root_duals` is set.
fn dive(
    model: &Model,
    cfg: &SolverConfig,
    deadline: Deadline,
    root_duals: bool,
    health: &mut SolverHealth,
    tracer: &Tracer,
) -> DiveOutcome {
    let n = model.num_vars();
    let mut lb = vec![0.0; n];
    let mut ub = vec![1.0; n];
    // `depth` counts the variables explicitly fixed by the dive so far
    // (backtracks re-fix at the same depth rather than deepening it).
    let mut out = DiveOutcome {
        found: None,
        iters: 0,
        depth: 0,
        root: None,
    };
    // When a fix dead-ends, retry once with the opposite value before
    // giving up (fractional action variables often round down onto an
    // unsatisfiable must-allocate row).
    let mut retry: Option<(Vec<f64>, Vec<f64>, usize, f64)> = None;
    let mut backtracks = 0u32;
    for round in 0..(2 * n).max(16) {
        if deadline.expired() {
            return out;
        }
        let feasible = {
            let _t = tracer.time(Phase::Presolve);
            let (p, elims) = propagate_counted(model, &mut lb, &mut ub);
            health.presolve_eliminations += elims;
            matches!(p, Propagation::Ok)
        };
        let lp = if feasible {
            let _t = tracer.time(Phase::Simplex);
            let mut duals = DualInfo::default();
            let lp = solve_lp_with_duals(
                model,
                &lb,
                &ub,
                cfg.lp_iter_limit,
                deadline,
                health,
                (round == 0 && root_duals).then_some(&mut duals),
            );
            // Any outcome but a clock stop is what the root node would
            // compute on this box, pivot for pivot.
            let clock_stop = matches!(lp, LpOutcome::Limit { iters } if iters < cfg.lp_iter_limit);
            if round == 0 && !clock_stop {
                out.root = Some((lp.clone(), duals));
            }
            lp
        } else {
            LpOutcome::Infeasible { iters: 0 }
        };
        out.iters += lp.iters();
        let x = match lp {
            LpOutcome::Optimal { x, .. } => x,
            LpOutcome::Infeasible { .. } => {
                // One-level backtrack: flip the last dive fix.
                match retry.take() {
                    Some((plb, pub_, j, r)) if backtracks < 32 => {
                        backtracks += 1;
                        lb = plb;
                        ub = pub_;
                        lb[j] = 1.0 - r;
                        ub[j] = 1.0 - r;
                        continue;
                    }
                    _ => return out,
                }
            }
            LpOutcome::Limit { .. } | LpOutcome::Numerical { .. } => return out,
        };
        // Freeze everything already integral.
        let mut best: Option<(usize, f64)> = None; // least fractional
        let mut any_frac = false;
        for (j, v) in x.iter().enumerate() {
            let f = v.fract().min(1.0 - v.fract());
            if f <= 1e-6 {
                let r = if *v >= 0.5 { 1.0 } else { 0.0 };
                lb[j] = r;
                ub[j] = r;
            } else {
                any_frac = true;
                if best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                    best = Some((j, f));
                }
            }
        }
        if !any_frac {
            let cand = round_point(&x);
            if model.is_feasible(&cand) {
                let obj = model.objective(&cand);
                out.found = Some((cand, obj));
            }
            return out;
        }
        let (j, _) = best.unwrap();
        let r = if x[j] >= 0.5 { 1.0 } else { 0.0 };
        retry = Some((lb.clone(), ub.clone(), j, r));
        lb[j] = r;
        ub[j] = r;
        out.depth += 1;
    }
    out
}

/// Solve the 0-1 program `model`, seeded with candidate incumbents.
///
/// The best feasible seed (by objective) becomes the starting incumbent —
/// the register allocator passes its spill-everything assignment here, so
/// a usable allocation exists even when the search stops early — and its
/// source tag is reported in [`Solution::incumbent_source`]. Every seed is
/// re-validated against the model: a mis-sized or infeasible one is
/// ignored, so a bad seed can only fail to speed the solve up.
///
/// The search stops at `deadline` or [`SolverConfig::time_limit`],
/// whichever is earlier; the allocation pipeline passes one per-function
/// deadline here so the IP attempt can never starve the degradation
/// rungs that follow it.
pub fn solve_seeded(
    model: &Model,
    cfg: &SolverConfig,
    seeds: &[Incumbent],
    deadline: Deadline,
) -> Solution {
    solve_seeded_traced(model, cfg, seeds, deadline, &Tracer::off())
}

/// [`solve_seeded`] with a trace recorder. When the tracer is enabled the
/// search emits seed acceptance/rejection, dive, per-node (with the
/// simplex iterations each node consumed, pruned or not), incumbent
/// improvement, health transition and final `SolveDone` events, and
/// attributes presolve/simplex/solve wall-clock time to the tracer's
/// phase accumulators. A disabled tracer ([`Tracer::off`]) costs one
/// branch per hook and the search behaves identically.
pub fn solve_seeded_traced(
    model: &Model,
    cfg: &SolverConfig,
    seeds: &[Incumbent],
    deadline: Deadline,
    tracer: &Tracer,
) -> Solution {
    let start = Instant::now();
    let deadline = deadline.earliest(Deadline::after(cfg.time_limit));
    let mut health = SolverHealth::default();
    let mut hstate = HealthState::Healthy;
    let n = model.num_vars();
    tracer.event(|| Event::SpanStart {
        phase: Phase::Solve,
    });

    let mut best: Option<(Vec<bool>, f64)> = None;
    let mut incumbent_source: Option<&'static str> = None;
    for inc in seeds {
        if inc.values.len() != n {
            tracer.event(|| Event::SeedRejected {
                source: inc.source,
                reason: "wrong-size",
            });
            continue;
        }
        if !model.is_feasible(&inc.values) {
            tracer.event(|| Event::SeedRejected {
                source: inc.source,
                reason: "infeasible",
            });
            continue;
        }
        let obj = model.objective(&inc.values);
        if best.as_ref().is_none_or(|(_, b)| obj < *b - 1e-9) {
            tracer.event(|| Event::SeedAccepted {
                source: inc.source,
                objective: obj,
            });
            best = Some((inc.values.clone(), obj));
            incumbent_source = Some(inc.source);
        } else {
            tracer.event(|| Event::SeedRejected {
                source: inc.source,
                reason: "dominated",
            });
        }
    }
    let mut warm_start_only = best.is_some();

    let mut nodes = 0u64;
    let mut lp_iters = 0u64;
    let integral = model.has_integral_costs();
    let finish = |status: Status,
                  best: Option<(Vec<bool>, f64)>,
                  nodes: u64,
                  lp_iters: u64,
                  warm_start_only: bool,
                  health: SolverHealth,
                  certificate: Option<Certificate>| {
        let solve_time = start.elapsed();
        tracer.add_time(Phase::Solve, solve_time);
        // Flight-recorder rollup: the always-on effort counters, emitted
        // once per solve just before the outcome event.
        tracer.event(|| Event::SolverCounters {
            pivots: health.pivots,
            degenerate_pivots: health.degenerate_pivots,
            ratio_test_ties: health.ratio_test_ties,
            presolve_eliminations: health.presolve_eliminations,
            max_dive_depth: health.max_dive_depth,
        });
        tracer.event(|| Event::SolveDone {
            status: status.name(),
            nodes,
            lp_iters,
            warm_start_only,
        });
        tracer.event(|| Event::SpanEnd {
            phase: Phase::Solve,
        });
        let (values, objective) = best.unwrap_or((Vec::new(), f64::INFINITY));
        Solution {
            status,
            values,
            objective,
            nodes,
            lp_iters,
            warm_start_only,
            incumbent_source,
            solve_time,
            health,
            certificate,
        }
    };

    if model.num_rows() > cfg.max_rows {
        let status = if best.is_some() {
            Status::Feasible
        } else {
            Status::Unknown
        };
        return finish(status, best, 0, 0, warm_start_only, health, None);
    }

    // Certificate emission: per-leaf claims with their root paths. Any
    // leaf that cannot be certified (or blowing the memory cap) drops the
    // whole certificate — never the solve.
    let mut cert_ok = cfg.emit_certificates && integral;

    // Primal dive from the root for a strong initial incumbent (the warm
    // start, when provided, is typically a weak spill-everything bound).
    // Its first relaxation is the root node's, solved once.
    let mut root_lp = {
        let dive_deadline = deadline.earliest(Deadline::after(cfg.time_limit.mul_f64(0.8)));
        let DiveOutcome {
            found: dived,
            iters: dive_iters,
            depth: dive_depth,
            root: root_relaxation,
        } = dive(model, cfg, dive_deadline, cert_ok, &mut health, tracer);
        lp_iters += dive_iters;
        health.max_dive_depth = health.max_dive_depth.max(dive_depth);
        note_health(tracer, &mut hstate, &health);
        let mut improved = false;
        if let Some((cand, obj)) = dived {
            if best.as_ref().is_none_or(|(_, inc)| obj < *inc - 1e-9) {
                best = Some((cand, obj));
                improved = true;
            }
            warm_start_only = false;
        }
        tracer.event(|| Event::Dive {
            lp_iters: dive_iters,
            depth: dive_depth,
            improved,
        });
        if improved {
            let obj = best.as_ref().unwrap().1;
            tracer.event(|| Event::Incumbent {
                nodes: 0,
                objective: obj,
                source: "dive",
            });
        }
        root_relaxation
    };

    // Root node with declared fixings applied.
    let root = Node {
        lb: vec![0.0; n],
        ub: vec![1.0; n],
        steps: Vec::new(),
        depth: 0,
    };
    let mut stack = vec![root];
    // True once any node had to be abandoned (LP limit/numerical): the
    // optimality proof is lost but incumbents remain valid.
    let mut proof_lost = false;
    let mut cert_leaves: Vec<NodeCert> = Vec::new();
    let mut cert_mem: usize = 0;
    const CERT_MEM_CAP: usize = 4_000_000;

    // Record `node`'s box as a certificate leaf with the given claim.
    macro_rules! cert_leaf {
        ($node:expr, $claim:expr) => {{
            if cert_ok {
                let claim: Claim = $claim;
                cert_mem += $node.steps.len()
                    + match &claim {
                        Claim::Bound { duals } | Claim::Farkas { duals } => duals.len(),
                        Claim::PropInfeasible { .. } => 0,
                    };
                if cert_mem > CERT_MEM_CAP {
                    cert_ok = false;
                    cert_leaves = Vec::new();
                } else {
                    cert_leaves.push(NodeCert {
                        steps: $node.steps.clone(),
                        claim,
                    });
                }
            }
        }};
    }

    while let Some(mut node) = stack.pop() {
        if deadline.expired() || nodes >= cfg.node_limit {
            proof_lost = true;
            break;
        }
        nodes += 1;
        let node_depth = node.depth;
        // Only the first node popped, the root, finds the dive's answer.
        let shared = root_lp.take();

        let prop = if cert_ok {
            let mut rec = PropRecorder {
                steps: std::mem::take(&mut node.steps),
                conflict: None,
            };
            let (p, elims) = {
                let _t = tracer.time(Phase::Presolve);
                propagate_recorded_counted(model, &mut node.lb, &mut node.ub, &mut rec)
            };
            health.presolve_eliminations += elims;
            node.steps = rec.steps;
            if p == Propagation::Infeasible {
                match rec.conflict {
                    Some(witness) => cert_leaf!(node, Claim::PropInfeasible { witness }),
                    None => cert_ok = false,
                }
            }
            p
        } else {
            let _t = tracer.time(Phase::Presolve);
            let (p, elims) = propagate_counted(model, &mut node.lb, &mut node.ub);
            health.presolve_eliminations += elims;
            p
        };
        match prop {
            Propagation::Infeasible => {
                tracer.event(|| Event::Node {
                    index: nodes,
                    depth: node_depth,
                    lp_iters: 0,
                    outcome: "infeasible",
                });
                continue;
            }
            Propagation::Ok => {}
        }

        let mut dual = DualInfo::default();
        // Attribute this node's simplex work whether or not the
        // relaxation produced a usable point — pruned and abandoned
        // nodes cost real iterations too. The root's relaxation was the
        // dive's, whose iterations the dive already counted.
        let (lp, node_iters) = match shared {
            Some((lp, duals)) => {
                dual = duals;
                (lp, 0)
            }
            None => {
                let _t = tracer.time(Phase::Simplex);
                let lp = solve_lp_with_duals(
                    model,
                    &node.lb,
                    &node.ub,
                    cfg.lp_iter_limit,
                    deadline,
                    &mut health,
                    cert_ok.then_some(&mut dual),
                );
                let iters = lp.iters();
                (lp, iters)
            }
        };
        lp_iters += node_iters;
        note_health(tracer, &mut hstate, &health);
        let (x, obj) = match lp {
            LpOutcome::Optimal { x, obj, .. } => (x, obj),
            LpOutcome::Infeasible { .. } => {
                if cert_ok {
                    if dual.farkas && dual.y.len() == model.num_rows() {
                        let duals = std::mem::take(&mut dual.y);
                        cert_leaf!(node, Claim::Farkas { duals });
                    } else {
                        cert_ok = false;
                    }
                }
                tracer.event(|| Event::Node {
                    index: nodes,
                    depth: node_depth,
                    lp_iters: node_iters,
                    outcome: "lp-infeasible",
                });
                continue;
            }
            LpOutcome::Limit { .. } | LpOutcome::Numerical { .. } => {
                // Abandoning the node loses the optimality proof; the
                // incumbent (if any) stays valid. Numerical trouble is
                // already counted in `health` by the simplex layer.
                proof_lost = true;
                tracer.event(|| Event::Node {
                    index: nodes,
                    depth: node_depth,
                    lp_iters: node_iters,
                    outcome: "abandoned",
                });
                continue;
            }
        };
        let have_duals = cert_ok && !dual.farkas && dual.y.len() == model.num_rows();

        // Bound pruning (round up for integral costs, with slack scaled to
        // the objective magnitude to absorb LP round-off).
        let slack = 1e-6_f64.max(obj.abs() * 1e-9);
        let bound = if integral { (obj - slack).ceil() } else { obj };
        if let Some((_, inc)) = &best {
            if bound >= *inc - 1e-9 {
                if cert_ok {
                    if have_duals {
                        let duals = std::mem::take(&mut dual.y);
                        cert_leaf!(node, Claim::Bound { duals });
                    } else {
                        cert_ok = false;
                    }
                }
                tracer.event(|| Event::Node {
                    index: nodes,
                    depth: node_depth,
                    lp_iters: node_iters,
                    outcome: "pruned",
                });
                continue;
            }
        }

        // Integral solution? Otherwise pick the branching variable:
        // most costly first (driving the objective bound apart quickly),
        // most fractional among equals.
        let frac = x
            .iter()
            .enumerate()
            .filter(|(_, v)| v.fract().min(1.0 - v.fract()) > 1e-6)
            .max_by(|(i, a), (j, b)| {
                let ca = model.costs()[*i].abs();
                let cb = model.costs()[*j].abs();
                let fa = 0.5 - (a.fract() - 0.5).abs();
                let fb = 0.5 - (b.fract() - 0.5).abs();
                (ca, fa).partial_cmp(&(cb, fb)).unwrap()
            });
        match frac {
            None => {
                let cand = round_point(&x);
                if model.is_feasible(&cand) {
                    let co = model.objective(&cand);
                    if best.as_ref().is_none_or(|(_, inc)| co < *inc - 1e-9) {
                        best = Some((cand, co));
                        tracer.event(|| Event::Incumbent {
                            nodes,
                            objective: co,
                            source: "node",
                        });
                    }
                    warm_start_only = false;
                    // An integral leaf closes its box with the same dual
                    // bound a prune would: the LP optimum here equals the
                    // candidate's objective, which the final incumbent
                    // (monotonically non-increasing) cannot exceed.
                    if cert_ok {
                        if have_duals {
                            let duals = std::mem::take(&mut dual.y);
                            cert_leaf!(node, Claim::Bound { duals });
                        } else {
                            cert_ok = false;
                        }
                    }
                    tracer.event(|| Event::Node {
                        index: nodes,
                        depth: node_depth,
                        lp_iters: node_iters,
                        outcome: "integral",
                    });
                } else {
                    // Numerically integral LP point that fails the exact
                    // check: abandon the subtree's optimality claim.
                    proof_lost = true;
                    cert_ok = false;
                    tracer.event(|| Event::Node {
                        index: nodes,
                        depth: node_depth,
                        lp_iters: node_iters,
                        outcome: "integral-invalid",
                    });
                }
            }
            Some((j, xj)) => {
                // Also try cheap rounding for an early incumbent.
                if best.is_none() {
                    let cand = round_point(&x);
                    if model.is_feasible(&cand) {
                        let co = model.objective(&cand);
                        best = Some((cand, co));
                        warm_start_only = false;
                        tracer.event(|| Event::Incumbent {
                            nodes,
                            objective: co,
                            source: "rounding",
                        });
                    }
                }
                // Branch: explore the rounded side first (pushed last).
                let mut hi_side = Node {
                    lb: node.lb.clone(),
                    ub: node.ub.clone(),
                    steps: Vec::new(),
                    depth: node_depth + 1,
                };
                hi_side.lb[j] = 1.0;
                let mut lo_side = node;
                lo_side.ub[j] = 0.0;
                lo_side.depth = node_depth + 1;
                if cert_ok {
                    hi_side.steps = lo_side.steps.clone();
                    hi_side.steps.push(Step::Decision {
                        var: j as u32,
                        value: true,
                    });
                    lo_side.steps.push(Step::Decision {
                        var: j as u32,
                        value: false,
                    });
                }
                if *xj >= 0.5 {
                    stack.push(lo_side);
                    stack.push(hi_side);
                } else {
                    stack.push(hi_side);
                    stack.push(lo_side);
                }
                tracer.event(|| Event::Node {
                    index: nodes,
                    depth: node_depth,
                    lp_iters: node_iters,
                    outcome: "branched",
                });
            }
        }
    }

    let status = match (&best, proof_lost || !stack.is_empty()) {
        (Some(_), false) => Status::Optimal,
        (Some(_), true) => Status::Feasible,
        (None, false) => Status::Infeasible,
        // Nothing concluded: distinguish "ran out of budget" from "the
        // numerics collapsed" so the caller degrades instead of retrying.
        (None, true) if health.numerical_trouble() => Status::NumericalTrouble,
        (None, true) => Status::Unknown,
    };
    // Only a *completed* search composes a proof: every subtree was
    // closed by a recorded claim, so the leaves cover the whole cube.
    let certificate = (cert_ok
        && !proof_lost
        && stack.is_empty()
        && matches!(status, Status::Optimal | Status::Infeasible))
    .then(|| Certificate {
        incumbent: best.clone(),
        leaves: std::mem::take(&mut cert_leaves),
    });
    // A completed search that never replaced the warm start has *proved*
    // it optimal; that counts as the solver's own result.
    let wso = warm_start_only && status != Status::Optimal;
    finish(status, best, nodes, lp_iters, wso, health, certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    /// A single warm-start seed.
    fn warm(values: &[bool]) -> [Incumbent; 1] {
        [Incumbent {
            source: "warm",
            values: values.to_vec(),
        }]
    }

    #[test]
    fn trivial_empty_model() {
        let m = Model::new();
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn knapsack_forces_integrality() {
        // min -(2a + 3b + 4c) s.t. a + b + c <= 2 -> pick b and c: -7.
        let mut m = Model::new();
        let a = m.add_var(-2.0, "a");
        let b = m.add_var(-3.0, "b");
        let c = m.add_var(-4.0, "c");
        m.add_le(vec![(a, 1.0), (b, 1.0), (c, 1.0)], 2.0);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round() as i64, -7);
        assert!(!s.value(a));
        assert!(s.value(b));
        assert!(s.value(c));
    }

    #[test]
    fn fractional_lp_branches_to_integer() {
        // Odd-cycle vertex packing: max x0+x1+x2 s.t. pairwise sums <= 1.
        // LP optimum is 1.5 (all at 0.5); IP optimum is 1.
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|i| m.add_var(-1.0, format!("x{i}"))).collect();
        for i in 0..3 {
            m.add_le(vec![(v[i], 1.0), (v[(i + 1) % 3], 1.0)], 1.0);
        }
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round() as i64, -1);
        assert_eq!(s.values.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn infeasible_model() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 2.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Infeasible);
        assert!(!s.has_solution());
    }

    #[test]
    fn respects_fixings() {
        let mut m = Model::new();
        let a = m.add_var(-5.0, "a");
        m.fix(a, false);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(!s.value(a));
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn warm_start_survives_row_cap() {
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        for _ in 0..10 {
            m.add_ge(vec![(a, 1.0)], 1.0);
        }
        let small = SolverConfig {
            max_rows: 5,
            ..cfg()
        };
        let s = solve_seeded(&m, &small, &warm(&[true]), Deadline::unlimited());
        assert_eq!(s.status, Status::Feasible);
        assert!(s.value(a));
        // Without a warm start the capped model is Unknown.
        let s2 = solve_seeded(&m, &small, &[], Deadline::unlimited());
        assert_eq!(s2.status, Status::Unknown);
    }

    #[test]
    fn infeasible_warm_start_is_rejected() {
        let mut m = Model::new();
        let a = m.add_var(-1.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        // warm start violates the >= row
        let s = solve_seeded(&m, &cfg(), &warm(&[false]), Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(s.value(a));
    }

    #[test]
    fn timeout_returns_feasible_with_warm_start() {
        // An easy model but a zero time budget: the warm start must be
        // returned as Feasible.
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        let tiny = SolverConfig {
            time_limit: Duration::from_secs(0),
            ..cfg()
        };
        let s = solve_seeded(&m, &tiny, &warm(&[true]), Deadline::unlimited());
        assert_eq!(s.status, Status::Feasible);
    }

    #[test]
    fn negative_cost_chain_is_taken() {
        // Deleting a copy (negative cost) requires its support vars.
        let mut m = Model::new();
        let d = m.add_var(-7.0, "delete");
        let s1 = m.add_var(2.0, "support1");
        let s2 = m.add_var(3.0, "support2");
        m.add_le(vec![(d, 1.0), (s1, -1.0)], 0.0);
        m.add_le(vec![(d, 1.0), (s2, -1.0)], 0.0);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round() as i64, -2);
        assert!(s.value(d) && s.value(s1) && s.value(s2));
    }

    #[test]
    fn equality_partition() {
        // Exactly one of three, minimise cost.
        let mut m = Model::new();
        let v: Vec<_> = [5.0, 1.0, 3.0].iter().map(|c| m.add_var(*c, "v")).collect();
        m.add_eq(v.iter().map(|&x| (x, 1.0)).collect(), 1.0);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective.round() as i64, 1);
        assert!(s.value(v[1]));
    }

    #[test]
    fn warm_start_proved_optimal_counts_as_solved() {
        // The warm start is already optimal; a completed search proves it
        // and the result is not "warm start only".
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        let s = solve_seeded(&m, &cfg(), &warm(&[true]), Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(!s.warm_start_only);
    }

    #[test]
    fn zero_budget_warm_start_is_flagged() {
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        let tiny = SolverConfig {
            time_limit: Duration::from_millis(0),
            ..cfg()
        };
        let s = solve_seeded(&m, &tiny, &warm(&[true]), Deadline::unlimited());
        assert_eq!(s.status, Status::Feasible);
        assert!(s.warm_start_only, "nothing was found by the search itself");
    }

    fn cert_cfg() -> SolverConfig {
        SolverConfig {
            emit_certificates: true,
            ..cfg()
        }
    }

    #[test]
    fn certificates_off_by_default() {
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(s.certificate.is_none());
    }

    #[test]
    fn optimal_solve_carries_certificate() {
        // Odd-cycle packing with cost 2 per vertex: the LP bound (-3)
        // stays below the incumbent (-2) even after integral rounding, so
        // the search must branch and the certificate has decision trails.
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|i| m.add_var(-2.0, format!("x{i}"))).collect();
        for i in 0..3 {
            m.add_le(vec![(v[i], 1.0), (v[(i + 1) % 3], 1.0)], 1.0);
        }
        let s = solve_seeded(&m, &cert_cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        let cert = s.certificate.expect("optimal completed solve emits cert");
        let (values, obj) = cert.incumbent.as_ref().expect("optimal has incumbent");
        assert_eq!(values, &s.values);
        assert_eq!(*obj, s.objective);
        assert!(!cert.leaves.is_empty());
        // Every bound/farkas leaf carries one multiplier per row.
        for leaf in &cert.leaves {
            match &leaf.claim {
                crate::cert::Claim::Bound { duals } | crate::cert::Claim::Farkas { duals } => {
                    assert_eq!(duals.len(), m.num_rows());
                }
                crate::cert::Claim::PropInfeasible { .. } => {}
            }
        }
        // Some leaf branched: at least one decision step recorded.
        assert!(cert.leaves.iter().any(|l| l
            .steps
            .iter()
            .any(|st| matches!(st, crate::cert::Step::Decision { .. }))));
    }

    #[test]
    fn infeasible_solve_carries_refutation_certificate() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 2.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        let s = solve_seeded(&m, &cert_cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Infeasible);
        let cert = s.certificate.expect("proved infeasibility emits cert");
        assert!(cert.incumbent.is_none());
        assert!(!cert.leaves.is_empty());
    }

    #[test]
    fn fractional_costs_suppress_certificate() {
        // Bound claims round up to the next integer, which is only sound
        // for integral costs; the solver declines to certify otherwise.
        let mut m = Model::new();
        let a = m.add_var(-1.5, "a");
        m.add_le(vec![(a, 1.0)], 1.0);
        let s = solve_seeded(&m, &cert_cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(s.certificate.is_none());
    }

    #[test]
    fn emission_does_not_change_solution() {
        let mut m = Model::new();
        let v: Vec<_> = (0..5).map(|i| m.add_var(-1.0, format!("x{i}"))).collect();
        for i in 0..5 {
            m.add_le(vec![(v[i], 1.0), (v[(i + 1) % 5], 1.0)], 1.0);
        }
        let plain = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        let certed = solve_seeded(&m, &cert_cfg(), &[], Deadline::unlimited());
        assert_eq!(plain.status, certed.status);
        assert_eq!(plain.values, certed.values);
        assert_eq!(plain.objective, certed.objective);
        assert_eq!(plain.nodes, certed.nodes);
        assert_eq!(plain.lp_iters, certed.lp_iters);
        assert_eq!(
            plain.health, certed.health,
            "flight-recorder counters are identical with certification on"
        );
        assert!(certed.certificate.is_some());
    }

    #[test]
    fn flight_recorder_counters_populate() {
        // Odd-cycle packing forces real simplex work: the always-on
        // counters must reflect it and stay within the iteration total.
        let mut m = Model::new();
        let v: Vec<_> = (0..5).map(|i| m.add_var(-1.0, format!("x{i}"))).collect();
        for i in 0..5 {
            m.add_le(vec![(v[i], 1.0), (v[(i + 1) % 5], 1.0)], 1.0);
        }
        let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
        assert_eq!(s.status, Status::Optimal);
        assert!(s.health.pivots > 0, "basis changes were counted");
        assert!(
            s.health.pivots <= s.lp_iters,
            "pivots ({}) are a subset of simplex iterations ({})",
            s.health.pivots,
            s.lp_iters
        );
    }

    /// Exhaustive cross-check on small random models.
    #[test]
    fn matches_brute_force_on_small_models() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..200 {
            let n = 2 + (rnd() % 7) as usize; // 2..8 vars
            let rows = 1 + (rnd() % 5) as usize;
            let mut m = Model::new();
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_var((rnd() % 21) as f64 - 10.0, format!("v{i}")))
                .collect();
            for _ in 0..rows {
                let mut coeffs = Vec::new();
                for &v in &vars {
                    if rnd() % 2 == 0 {
                        coeffs.push((v, (rnd() % 7) as f64 - 3.0));
                    }
                }
                let rhs = (rnd() % 5) as f64 - 2.0;
                match rnd() % 3 {
                    0 => m.add_le(coeffs, rhs),
                    1 => m.add_ge(coeffs, rhs),
                    _ => m.add_eq(coeffs, rhs),
                }
            }
            // Brute force.
            let mut best: Option<f64> = None;
            for mask in 0..(1u32 << n) {
                let assign: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                if m.is_feasible(&assign) {
                    let o = m.objective(&assign);
                    if best.is_none_or(|b| o < b) {
                        best = Some(o);
                    }
                }
            }
            let s = solve_seeded(&m, &cfg(), &[], Deadline::unlimited());
            match best {
                Some(bo) => {
                    assert_eq!(
                        s.status,
                        Status::Optimal,
                        "trial {trial}: expected optimal, got {:?}\n{}",
                        s.status,
                        m.to_lp_string()
                    );
                    assert!(
                        (s.objective - bo).abs() < 1e-6,
                        "trial {trial}: obj {} vs brute {bo}\n{}",
                        s.objective,
                        m.to_lp_string()
                    );
                    assert!(m.is_feasible(&s.values));
                }
                None => {
                    assert_eq!(
                        s.status,
                        Status::Infeasible,
                        "trial {trial}: expected infeasible\n{}",
                        m.to_lp_string()
                    );
                }
            }
        }
    }
}
