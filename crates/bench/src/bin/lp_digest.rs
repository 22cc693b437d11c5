//! `lp_digest` — pin the simplex's pivot path on the benchmark's models.
//!
//! Builds the IP models of the benchmark's two batch inputs the way the
//! allocation ladder builds them, and solves each one twice over:
//!
//! * its **root LP** — the presolved 0-1 box, solved with duals, as the
//!   root of every search solves it; and
//! * its **full search** — `solve_seeded` from the spill-everything seed,
//!   with certificates on and the benchmark's node limit.
//!
//! One line per model reports the row count, the outcome, the LP
//! iterations, the pivots and a 64-bit FNV-1a hash of the bits of
//! everything the solve returns: the point, the objective, the duals,
//! every `SolverHealth` counter and, for a search, the certificate text.
//! A change to the simplex that claims "same pivots" must leave every
//! line as it was; `tests/golden/lp-digest.txt` is the default run.
//! Floats hash with `-0.0` read as `+0.0`: a skipped product with an
//! exact zero may flip the sign of an exact zero, which no decision
//! reads.
//!
//! The inputs are the benchmark's (`benchmark/src/inputs.rs`): the six
//! seeded paper suites at seed 6, scale 0.02 on `x86-pentium` (node
//! limit 16), and the C corpus compiled for every target plus the
//! `portable16` functions of seeds 1998–2001 (node limit 8). Functions a
//! target refuses are skipped. The clock never decides an outcome.
//!
//! ```text
//! lp_digest [--roots N]... [--searches N]... [--timing]
//! ```
//!
//! Each `--roots N` / `--searches N` prints one section at an LP cap of
//! `N` iterations per relaxation, in the order given. Without either it
//! prints the golden's sections: `--roots 300 --searches 300 --roots
//! 2000`. `--timing` adds, on stderr, each section's solve time per input
//! and per constraint-count bucket (the benchmark's `rows_*` buckets).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use regalloc_core::build::BuiltModel;
use regalloc_core::{analysis, build, targets, warm, CostModel};
use regalloc_ilp::{
    propagate_counted, solve_lp_with_duals, solve_seeded, Deadline, DualInfo, Incumbent, LpOutcome,
    Propagation, SolverConfig, SolverHealth,
};
use regalloc_ir::{Cfg, Function, Liveness, LoopInfo, Profile};
use regalloc_machine::{refuses, Machine, TargetId};
use regalloc_workloads::{fuzz_function, Benchmark, GenConfig, Suite};

/// A section of the report: root LPs or full searches at one LP cap.
#[derive(Clone, Copy)]
enum Section {
    Roots(u64),
    Searches(u64),
}

/// One model and where it came from.
struct Case {
    input: &'static str,
    target: TargetId,
    name: String,
    built: BuiltModel,
    /// The spill-everything assignment the ladder seeds the search with.
    seed: Option<Vec<bool>>,
    node_limit: u64,
}

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.word(if v == 0.0 { 0 } else { v.to_bits() });
    }

    fn floats(&mut self, vs: &[f64]) {
        self.word(vs.len() as u64);
        vs.iter().for_each(|&v| self.float(v));
    }

    fn health(&mut self, h: &SolverHealth) {
        for c in [
            h.nan_events,
            h.cycling_events,
            h.cycling_recoveries,
            h.degenerate_pivots,
            h.unstable_pivots,
            h.lp_aborts,
            h.pivots,
            h.ratio_test_ties,
            h.presolve_eliminations,
            h.max_dive_depth,
        ] {
            self.word(c);
        }
    }
}

/// The model and spill seed of `f`, built as the allocation ladder
/// builds them (paper cost weights).
fn build_case<M: Machine + ?Sized>(f: &Function, machine: &M) -> (BuiltModel, Option<Vec<bool>>) {
    let cfg = Cfg::new(f);
    let loops = LoopInfo::new(f, &cfg);
    let profile = Profile::estimate(f, &cfg, &loops);
    let live = Liveness::new(f, &cfg);
    let a = analysis::analyze(f, &cfg, &live, machine);
    let built = build::build_model(f, &cfg, &profile, &a, machine, &CostModel::paper());
    let seed = warm::spill_everything_assignment(f, &a, &built, machine);
    (built, seed)
}

/// The checked-in C corpus.
const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/c");

fn cases() -> Vec<Case> {
    let mut inputs: Vec<(&'static str, TargetId, Vec<Function>, u64)> = Vec::new();
    let seeded = Benchmark::all()
        .into_iter()
        .flat_map(|b| Suite::generate_scaled(b, 6, 0.02).functions)
        .collect();
    inputs.push(("seeded-x86", TargetId::X86Pentium, seeded, 16));
    let mut programs: Vec<PathBuf> = std::fs::read_dir(CORPUS)
        .unwrap_or_else(|e| panic!("corpus {CORPUS}: {e}"))
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    programs.sort();
    let portable: Vec<Function> = (0..4)
        .map(|i| fuzz_function(&format!("p16_{i:02}"), 1998 + i, &GenConfig::portable16()))
        .collect();
    for target in TargetId::ALL {
        let mut funcs = Vec::new();
        for p in &programs {
            let src = std::fs::read_to_string(p).expect("read corpus program");
            funcs.extend(
                regalloc_cc::compile_for(&src, target)
                    .unwrap_or_else(|e| panic!("{} does not compile: {e}", p.display())),
            );
        }
        funcs.extend(portable.iter().cloned());
        inputs.push(("corpus-proofs", target, funcs, 8));
    }
    let mut out = Vec::new();
    for (input, target, funcs, node_limit) in inputs {
        let machine = targets::machine_for(target);
        for f in funcs.iter().filter(|f| !refuses(machine.as_ref(), f)) {
            let (built, seed) = build_case(f, machine.as_ref());
            out.push(Case {
                input,
                target,
                name: f.name().to_string(),
                built,
                seed,
                node_limit,
            });
        }
    }
    out
}

/// The root LP's line: presolve the 0-1 box, then solve with duals.
/// Returns it with the time the solve took.
fn root_line(case: &Case, cap: u64) -> (String, Duration) {
    let model = &case.built.model;
    let n = model.num_vars();
    let (mut lb, mut ub) = (vec![0.0; n], vec![1.0; n]);
    let t = Instant::now();
    let (p, _) = propagate_counted(model, &mut lb, &mut ub);
    if !matches!(p, Propagation::Ok) {
        return ("presolve-infeasible".to_string(), t.elapsed());
    }
    let mut health = SolverHealth::default();
    let mut duals = DualInfo::default();
    let lp = solve_lp_with_duals(
        model,
        &lb,
        &ub,
        cap,
        Deadline::unlimited(),
        &mut health,
        Some(&mut duals),
    );
    let time = t.elapsed();
    let mut h = Fnv::new();
    let outcome = match &lp {
        LpOutcome::Optimal { x, obj, .. } => {
            h.floats(x);
            h.float(*obj);
            "optimal"
        }
        LpOutcome::Infeasible { .. } => "infeasible",
        LpOutcome::Limit { .. } => "limit",
        LpOutcome::Numerical { .. } => "numerical",
    };
    h.floats(&duals.y);
    h.word(u64::from(duals.farkas));
    h.health(&health);
    let line = format!(
        "{outcome} iters={} pivots={} hash={:016x}",
        lp.iters(),
        health.pivots,
        h.0
    );
    (line, time)
}

/// The full search's line: spill seed, certificates on. Returns it with
/// the time the search took.
fn search_line(case: &Case, cap: u64) -> (String, Duration) {
    let cfg = SolverConfig {
        time_limit: Duration::from_secs(24 * 3600),
        lp_iter_limit: cap,
        node_limit: case.node_limit,
        max_rows: usize::MAX,
        emit_certificates: true,
    };
    let seeds: Vec<Incumbent> = case
        .seed
        .iter()
        .map(|values| Incumbent {
            source: "spill",
            values: values.clone(),
        })
        .collect();
    let t = Instant::now();
    let sol = solve_seeded(&case.built.model, &cfg, &seeds, Deadline::unlimited());
    let time = t.elapsed();
    let mut h = Fnv::new();
    h.word(sol.values.len() as u64);
    sol.values.iter().for_each(|&v| h.word(u64::from(v)));
    h.float(sol.objective);
    h.word(sol.nodes);
    h.health(&sol.health);
    let cert = sol.certificate.as_ref().map(|c| c.to_text());
    h.bytes(cert.as_deref().unwrap_or("no certificate").as_bytes());
    let line = format!(
        "{} nodes={} iters={} pivots={} cert={} hash={:016x}",
        sol.status.name(),
        sol.nodes,
        sol.lp_iters,
        sol.health.pivots,
        if cert.is_some() { "yes" } else { "no" },
        h.0
    );
    (line, time)
}

/// The benchmark's constraint-count bucket of a `rows`-row model.
fn bucket(rows: usize) -> &'static str {
    match rows {
        0..500 => "rows_lt500",
        500..1000 => "rows_500_1k",
        1000..2000 => "rows_1k_2k",
        2000..4000 => "rows_2k_4k",
        _ => "rows_ge4k",
    }
}

/// Print, on stderr, a section's solve time per input and per bucket.
fn print_times(kind: &str, cap: u64, times: &[(&str, usize, Duration)]) {
    let mut groups: Vec<(String, Duration)> = Vec::new();
    for &(input, rows, t) in times {
        for key in [input.to_string(), format!("{input} {}", bucket(rows))] {
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, sum)) => *sum += t,
                None => groups.push((key, t)),
            }
        }
    }
    groups.sort();
    for (key, t) in groups {
        eprintln!("time {kind} at {cap}: {key} {:.3} s", t.as_secs_f64());
    }
}

fn main() {
    let mut sections = Vec::new();
    let mut timing = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut cap = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} requires an iteration count"))
        };
        match a.as_str() {
            "--roots" => sections.push(Section::Roots(cap("--roots"))),
            "--searches" => sections.push(Section::Searches(cap("--searches"))),
            "--timing" => timing = true,
            other => {
                panic!("unknown argument {other:?}; supported: --roots N, --searches N, --timing")
            }
        }
    }
    if sections.is_empty() {
        sections = vec![
            Section::Roots(300),
            Section::Searches(300),
            Section::Roots(2000),
        ];
    }
    let cases = cases();
    for section in sections {
        let (kind, cap) = match section {
            Section::Roots(cap) => ("root LPs", cap),
            Section::Searches(cap) => ("full searches", cap),
        };
        println!("# {kind} at {cap} LP iterations per relaxation");
        let mut times = Vec::new();
        for case in &cases {
            let (line, time) = match section {
                Section::Roots(_) => root_line(case, cap),
                Section::Searches(_) => search_line(case, cap),
            };
            let rows = case.built.model.num_rows();
            println!(
                "{} {} {} rows={rows} {line}",
                case.input,
                case.target.name(),
                case.name,
            );
            times.push((case.input, rows, time));
        }
        if timing {
            print_times(kind, cap, &times);
        }
    }
}
