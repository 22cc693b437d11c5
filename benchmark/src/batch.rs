//! The batch workloads, `seeded-x86` and `corpus-proofs`: whole suites
//! through `regalloc_driver::run_suite`, measured in passes.
//!
//! One pass is one unit of work — every function of the workload once
//! (for `corpus-proofs`, compiling the C corpus included) — and the run
//! repeats passes until its time is up. Throughput and CPU time are
//! averaged over the passes, and a request's latency is one pass's wall
//! time. Quality metrics come from the first pass, and every later pass
//! must reproduce it allocation for allocation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use regalloc_core::Rung;
use regalloc_driver::{run_suite, CacheMode, FunctionResult, SuiteOutcome};
use regalloc_ir::Function;
use regalloc_machine::{refuses, TargetId};

use crate::metrics::{Values, ROW_BUCKETS};
use crate::regime::{regime, Regime, MAX_ROWS, TIME_LIMIT};
use crate::replay::{self, Pipeline, Replayed, Trace};
use crate::{check, inputs, layer_values, sys, Outcome, Size, Spec, Workload};

/// Set-ups before every pass. `setup_s` is the median over the whole
/// run, so its samples spread over the run's time instead of sharing one
/// sub-millisecond window (and whatever else the machine did then).
pub const SETUPS_PER_PASS: usize = 5;

/// What set-up prepares: the inputs a pass allocates.
enum Inputs {
    /// Ready-made functions (`seeded-x86`).
    Functions(Vec<Function>),
    /// C programs compiled inside each pass, plus generated functions
    /// (`corpus-proofs`).
    Corpus {
        programs: Vec<(&'static str, &'static str)>,
        portable: Vec<Function>,
    },
}

impl Inputs {
    fn build(workload: Workload, size: Size, seed: u64) -> Inputs {
        match workload {
            Workload::SeededX86 => {
                let mut funcs = inputs::seeded_suites(size);
                inputs::shuffle(&mut funcs, seed);
                Inputs::Functions(funcs)
            }
            _ => Inputs::Corpus {
                programs: inputs::corpus(size),
                portable: inputs::portable16(size),
            },
        }
    }

    fn targets(&self) -> Vec<TargetId> {
        match self {
            Inputs::Functions(_) => vec![TargetId::X86Pentium],
            Inputs::Corpus { .. } => TargetId::ALL.to_vec(),
        }
    }

    /// The functions one pass allocates for `target` (compiling, for the
    /// corpus), in a seeded order.
    fn functions(&self, target: TargetId, seed: u64) -> Vec<Function> {
        match self {
            Inputs::Functions(funcs) => funcs.clone(),
            Inputs::Corpus { programs, portable } => {
                let mut funcs = inputs::compile_corpus(programs, target);
                funcs.extend(portable.iter().cloned());
                inputs::shuffle(&mut funcs, seed ^ target as u64);
                funcs
            }
        }
    }
}

/// One target's share of a pass.
struct SetRun {
    target: TargetId,
    funcs: Vec<Function>,
    out: SuiteOutcome,
}

/// Prepare the inputs `SETUPS_PER_PASS` times, timing each.
fn set_up(spec: &Spec, setups: &mut Vec<f64>) -> Inputs {
    let mut prepared = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        prepared = Some(Inputs::build(spec.workload, spec.size, spec.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    prepared.expect("at least one set-up")
}

fn pass(inputs: &Inputs, reg: &Regime, spec: &Spec) -> (Vec<SetRun>, f64, f64) {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let mut sets = Vec::new();
    for target in inputs.targets() {
        let funcs = inputs.functions(target, spec.seed);
        let out = run_suite(&funcs, &reg.driver(target, spec.jobs, CacheMode::Off));
        sets.push(SetRun { target, funcs, out });
    }
    (sets, t0.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0)
}

pub fn run(spec: &Spec) -> Outcome {
    let reg = regime(spec.workload);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = set_up(spec, &mut setups);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut queue_wait_ms = Vec::new();
    let mut utilization = Vec::new();
    let mut reference: Option<Vec<SetRun>> = None;
    loop {
        let (sets, wall, cpu) = pass(&inputs, &reg, spec);
        walls.push(wall);
        cpus.push(cpu);
        let (mut busy, mut suite_wall, mut wait) = (0.0, 0.0, 0.0);
        for s in &sets {
            busy += s
                .out
                .stats
                .worker_busy
                .iter()
                .map(Duration::as_secs_f64)
                .sum::<f64>();
            suite_wall += s.out.stats.wall_time.as_secs_f64() * s.out.stats.jobs as f64;
            wait += s
                .out
                .metrics
                .gauge("regalloc_pool_queue_wait_seconds", &[])
                .unwrap_or(0.0);
        }
        utilization.push(sys::ratio(busy, suite_wall));
        queue_wait_ms.push(wait * 1e3);
        match &reference {
            None => {
                check_reference(&sets, spec.seed, &mut out);
                reference = Some(sets);
            }
            Some(first) => check_repeat(first, &sets, &mut out),
        }
        if start.elapsed() >= spec.seconds {
            break;
        }
        inputs = set_up(spec, &mut setups);
    }
    let reference = reference.expect("at least one pass");
    let v = &mut out.values;
    v.set("setup_s", sys::median(&setups));
    let per_pass = reference.iter().map(|s| s.funcs.len()).sum::<usize>() as f64;
    // Throughput over all passes: with a few multi-second passes per run,
    // the whole run averages out more interference than any one pass.
    let passes = walls.len() as f64;
    let passes_per_s = passes / walls.iter().sum::<f64>();
    let untraced_wall = sys::median(&walls);
    v.set("fn_per_s", per_pass * passes_per_s);
    v.set("cpu_s", cpus.iter().sum::<f64>() / passes);
    // A batch workload's request is one pass: its functions submitted
    // together, answered when the last one is allocated. Single task
    // times make a poor latency here: interference from the rest of a
    // shared machine slows the ~40 ms mid-size `corpus-proofs` tasks about
    // four times as much as whole passes, so their median spread by up to
    // 29% between identical runs, even taking each function's fastest
    // pass.
    v.set("req_per_s", passes_per_s);
    v.set("req_p50_ms", sys::quantile(&walls, 0.5) * 1e3);
    v.set("req_p99_ms", sys::quantile(&walls, 0.99) * 1e3);
    let results: Vec<&FunctionResult> = reference.iter().flat_map(|s| &s.out.results).collect();
    quality_values(v, &results);
    solver_values(v, &results);
    v.set("driver.queue_wait_ms", sys::median(&queue_wait_ms));
    v.set("driver.utilization", sys::median(&utilization));
    v.set("driver.cache_hit_frac", 0.0);

    if spec.trace {
        traced(&inputs, &reg, spec, &reference, untraced_wall, &mut out);
    }
    out
}

/// The outside check, the regime guard and the bookkeeping of the first
/// pass.
fn check_reference(sets: &[SetRun], seed: u64, out: &mut Outcome) {
    for s in sets {
        let machine = regalloc_core::targets::machine_for(s.target);
        for (i, (f, r)) in s.funcs.iter().zip(&s.out.results).enumerate() {
            out.attempted += 1;
            if let Some(e) = &r.error {
                out.fail(format!(
                    "{} on {}: ladder error: {e}",
                    f.name(),
                    s.target.name()
                ));
                continue;
            }
            if !r.attempted {
                continue;
            }
            let Some(alloc) = &r.func else {
                out.fail(format!(
                    "{} on {}: no allocation",
                    f.name(),
                    s.target.name()
                ));
                continue;
            };
            if let Err(e) = check::allocation(machine.as_ref(), f, alloc, seed ^ i as u64) {
                out.fail(format!("outside check on {}: {e}", s.target.name()));
            }
            guard(r, s.target, out);
        }
    }
}

/// The regime guard: no outcome may depend on the clock, and no model
/// may be declined for its size.
pub fn guard(r: &FunctionResult, target: TargetId, out: &mut Outcome) {
    if r.solve_time >= TIME_LIMIT / 2 {
        out.problems.push(format!(
            "regime guard: {} on {} solved for {:?}, within half of the {:?} limit",
            r.name,
            target.name(),
            r.solve_time,
            TIME_LIMIT
        ));
    }
    if r.num_constraints > MAX_ROWS {
        out.problems.push(format!(
            "regime guard: {} on {} has {} rows, above the {MAX_ROWS}-row cap",
            r.name,
            target.name(),
            r.num_constraints
        ));
    }
}

/// Later passes must reproduce the first one exactly.
fn check_repeat(first: &[SetRun], sets: &[SetRun], out: &mut Outcome) {
    for (a, b) in first.iter().zip(sets) {
        for (ra, rb) in a.out.results.iter().zip(&b.out.results) {
            out.attempted += 1;
            if rb.error.is_some() || ra.func != rb.func || ra.rung != rb.rung {
                out.fail(format!(
                    "{} on {}: a repeat pass produced a different allocation",
                    rb.name,
                    b.target.name()
                ));
            }
        }
    }
}

/// Table 2 and Table 3 figures over the attempted functions.
pub fn quality_values(v: &mut Values, results: &[&FunctionResult]) {
    let attempted: Vec<&&FunctionResult> = results.iter().filter(|r| r.attempted).collect();
    let n = attempted.len() as f64;
    let solved = attempted.iter().filter(|r| r.solved()).count() as f64;
    let optimal = attempted.iter().filter(|r| r.solved_optimally()).count() as f64;
    v.set("solved_frac", sys::ratio(solved, n));
    v.set("optimal_frac", sys::ratio(optimal, n));
    v.set(
        "spill_cycles",
        attempted
            .iter()
            .map(|r| r.stats.overhead_cycles())
            .sum::<i64>() as f64,
    );
    v.set(
        "code_bytes",
        attempted.iter().map(|r| r.ip_bytes).sum::<u64>() as f64,
    );
}

/// Deterministic solver-outcome metrics of the untraced run: simplex
/// reach, declined models, the solved/optimal size curve and demotions.
pub fn solver_values(v: &mut Values, results: &[&FunctionResult]) {
    let attempted: Vec<&&FunctionResult> = results.iter().filter(|r| r.attempted).collect();
    let reached = attempted.iter().filter(|r| r.health.pivots > 0).count();
    v.set(
        "ilp.reached_simplex_frac",
        sys::ratio(reached as f64, attempted.len() as f64),
    );
    v.set(
        "ilp.declined_rows",
        attempted
            .iter()
            .filter(|r| r.num_constraints > MAX_ROWS)
            .count() as f64,
    );
    for (bucket, lo, hi) in ROW_BUCKETS {
        let inside: Vec<&&&FunctionResult> = attempted
            .iter()
            .filter(|r| (lo..hi).contains(&r.num_constraints))
            .collect();
        let n = inside.len() as f64;
        let solved = inside.iter().filter(|r| r.solved()).count() as f64;
        let optimal = inside.iter().filter(|r| r.solved_optimally()).count() as f64;
        v.set(&format!("ilp.solved_frac.{bucket}"), sys::ratio(solved, n));
        v.set(
            &format!("ilp.optimal_frac.{bucket}"),
            sys::ratio(optimal, n),
        );
    }
    for reason in regalloc_core::ReasonCode::ALL {
        let n = attempted
            .iter()
            .flat_map(|r| &r.reasons)
            .filter(|x| **x == reason)
            .count();
        v.set(&format!("core.demote.{}", reason.name()), n as f64);
    }
}

/// Replay `funcs` through the layers on `jobs` threads, cheapest model
/// first like the driver's pool. Refused functions are skipped.
pub fn replay_all(
    p: &Pipeline<'_>,
    funcs: &[Function],
    jobs: usize,
) -> (Vec<Option<Replayed>>, Trace) {
    let order = regalloc_driver::schedule::plan(funcs).order;
    let next = AtomicUsize::new(0);
    let mut replayed: Vec<Option<Replayed>> = vec![None; funcs.len()];
    let mut trace = Trace::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Trace::default();
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(k) else { break };
                        if !refuses(p.machine, &funcs[i]) {
                            mine.push((i, replay::function(p, &funcs[i], None, &mut tr)));
                        }
                    }
                    (tr, mine)
                })
            })
            .collect();
        for w in workers {
            let (tr, mine) = w.join().expect("replay worker panicked");
            trace.merge(&tr);
            for (i, r) in mine {
                replayed[i] = Some(r);
            }
        }
    });
    (replayed, trace)
}

/// Does the replay match the untraced result of the same function?
pub fn fidelity(r: &FunctionResult, rep: &Replayed) -> Result<(), String> {
    if rep.nodes != r.solver_nodes
        || rep.lp_iters != r.lp_iters
        || format!("{:?}", rep.health) != format!("{:?}", r.health)
    {
        return Err(format!(
            "trace fidelity: {} replayed {} nodes / {} LP iterations / {} pivots, the run took {} / {} / {}",
            r.name, rep.nodes, rep.lp_iters, rep.health.pivots, r.solver_nodes, r.lp_iters, r.health.pivots
        ));
    }
    if rep.rung != r.rung && r.rung.is_some_and(|x| x <= Rung::WarmStart) {
        return Err(format!(
            "trace fidelity: {} replayed to rung {:?}, the run accepted {:?}",
            r.name, rep.rung, r.rung
        ));
    }
    Ok(())
}

/// The traced run: one more pass, replayed call by call.
fn traced(
    inputs: &Inputs,
    reg: &Regime,
    spec: &Spec,
    reference: &[SetRun],
    untraced_wall: f64,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let mut trace = Trace::default();
    let mut compile = Duration::ZERO;
    for s in reference {
        let t = Instant::now();
        let funcs = inputs.functions(s.target, spec.seed);
        if matches!(inputs, Inputs::Corpus { .. }) {
            compile += t.elapsed();
        }
        let machine = regalloc_core::targets::machine_for(s.target);
        let cfg = reg.driver(s.target, spec.jobs, CacheMode::Off);
        let p = Pipeline {
            machine: machine.as_ref(),
            solver: cfg.solver.clone(),
            audit: cfg.audit,
            lint: cfg.lint,
            equiv_runs: cfg.equiv_runs,
            equiv_seed: cfg.equiv_seed,
        };
        let (replayed, tr) = replay_all(&p, &funcs, spec.jobs);
        trace.merge(&tr);
        for (r, rep) in s.out.results.iter().zip(&replayed) {
            match rep {
                Some(rep) => {
                    if let Err(e) = fidelity(r, rep) {
                        out.problems.push(e);
                    }
                }
                None if r.attempted => out
                    .problems
                    .push(format!("trace fidelity: {} was not replayed", r.name)),
                None => {}
            }
        }
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    let v = &mut out.values;
    layer_values(v, &trace);
    v.set("cc.compile_ms", compile.as_secs_f64() * 1e3);
    v.set("trace.untraced_wall_s", untraced_wall);
    v.set("trace.traced_wall_s", traced_wall);
    v.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    let coverage = v.get("trace.span_coverage");
    if coverage < 0.9 {
        out.problems.push(format!(
            "trace coverage: named layer spans account for {:.1}% of task time (< 90%)",
            coverage * 100.0
        ));
    }
}
