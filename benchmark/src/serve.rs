//! The `serve-warm` workload: an in-process `regalloc-serve` daemon over
//! a warmed disk cache, driven by a closed loop on one connection with
//! two requests in flight at a time.
//!
//! Set-up pre-solves the corpus and `portable16` functions for
//! `x86-pentium` and `mcu` into a fresh cache with `run_suite`, then binds
//! the daemon on it, so its frozen donor snapshot holds every pre-solved
//! function. The seeded schedule sends repeats of those functions (cache
//! hits, each compared byte for byte with its pre-solve) and, at fixed
//! positions, never-seen `perturb_immediates` variants of the functions
//! whose search finished (misses: projected warm start, solve, store).
//! Each variant is sent once, so the hit share is fixed by the schedule.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use regalloc_core::Rung;
use regalloc_driver::cache::{cache_key, DonorEntry, SolutionCache};
use regalloc_driver::{run_suite, CacheMode, FunctionResult};
use regalloc_ir::interp::mix64;
use regalloc_ir::{fingerprint, Function};
use regalloc_machine::TargetId;
use regalloc_serve::{proto::ok_payload, AllocOptions, Client, ServeConfig, Server};
use regalloc_workloads::perturb_immediates;

use crate::batch::{guard, quality_values, solver_values};
use crate::regime::{regime, Regime, TIME_LIMIT};
use crate::replay::{self, Pipeline, Trace};
use crate::sys::{self, Json, ScratchDir};
use crate::{check, inputs, layer_values, Outcome, Size, Spec, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Requests in flight on the one connection, sent together: the next
/// pair goes out once both have answered. Keeping the pair in step keeps
/// the daemon's Nagle/delayed-ACK stall (see `README.md`) the same on
/// every request; with free-running pipelining the two requests drift in
/// phase, and some runs finish 15% of requests without the stall and
/// others none, so throughput swings by a sixth between runs.
pub const IN_FLIGHT: usize = 2;
/// Every `MISS_EVERY`-th request is a never-seen variant (a 4% miss
/// share); the rest repeat pre-solved functions.
pub const MISS_EVERY: u64 = 25;
/// Requests per unit of work (`cpu_s` is CPU seconds per block).
pub const CPU_BLOCK: usize = 1_000;
/// The targets the cache is warmed for.
pub const TARGETS: [TargetId; 2] = [TargetId::X86Pentium, TargetId::Mcu];

/// A pre-solved function the schedule repeats.
struct Warm {
    target: TargetId,
    text: String,
    /// The `OK` payload a hit must reproduce byte for byte.
    payload: Vec<u8>,
}

/// A running daemon over its warmed cache.
struct Daemon {
    dir: ScratchDir,
    addr: String,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<regalloc_serve::ServeReport>>,
    /// The pre-solve results, per target, in input order.
    warmed: Vec<(TargetId, Vec<Function>, Vec<FunctionResult>)>,
    /// The donor snapshot the daemon froze at bind.
    donors: Vec<DonorEntry>,
    compile: Duration,
    queue_wait_ms: f64,
    utilization: f64,
}

impl Daemon {
    fn stop(self) -> ScratchDir {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join().expect("daemon thread panicked");
        self.dir
    }
}

fn set_up(reg: &Regime, spec: &Spec, k: usize) -> Daemon {
    let dir = ScratchDir::new(&format!("serve-warm-{k}"));
    let cache = CacheMode::Disk(dir.0.join("cache"));
    let programs = inputs::corpus(spec.size);
    let portable = inputs::portable16(spec.size);
    let mut warmed = Vec::new();
    let mut compile = Duration::ZERO;
    let (mut busy, mut wall, mut wait) = (0.0, 0.0, 0.0);
    for target in TARGETS {
        let t = Instant::now();
        let mut funcs = inputs::compile_corpus(&programs, target);
        compile += t.elapsed();
        funcs.extend(portable.iter().cloned());
        let out = run_suite(&funcs, &reg.driver(target, spec.jobs, cache.clone()));
        busy += out
            .stats
            .worker_busy
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>();
        wall += out.stats.wall_time.as_secs_f64() * out.stats.jobs as f64;
        wait += out
            .metrics
            .gauge("regalloc_pool_queue_wait_seconds", &[])
            .unwrap_or(0.0);
        warmed.push((target, funcs, out.results));
    }
    let CacheMode::Disk(cache_dir) = &cache else {
        unreachable!("serve-warm caches on disk")
    };
    let donors = SolutionCache::new(Some(cache_dir.clone())).donor_snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        driver: reg.driver(TargetId::X86Pentium, spec.jobs, cache.clone()),
        // Grants never shrink: every miss gets the regime's full budget.
        client_capacity: TIME_LIMIT * 1_000,
        log_path: Some(dir.0.join("requests.jsonl")),
        stop: Some(Arc::clone(&stop)),
        ..ServeConfig::default()
    })
    .expect("the daemon binds a loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        dir,
        addr,
        stop,
        thread,
        warmed,
        donors,
        compile,
        queue_wait_ms: wait * 1e3,
        utilization: sys::ratio(busy, wall),
    }
}

/// One scheduled request.
#[derive(Clone)]
enum Request {
    /// Index into the warm pool.
    Hit(usize),
    /// A never-seen variant.
    Miss { target: TargetId, func: Function },
}

/// The seeded request schedule. Misses sit at fixed positions; their
/// variants are generated on demand and each is distinct from every
/// function the daemon has seen.
struct Schedule {
    seed: u64,
    hits: usize,
    bases: Vec<(TargetId, Function)>,
    seen: HashSet<u64>,
    variant: u64,
}

impl Schedule {
    fn request(&mut self, i: u64) -> Request {
        if i % MISS_EVERY != MISS_EVERY - 1 {
            return Request::Hit((mix64(self.seed ^ i) % self.hits as u64) as usize);
        }
        for _ in 0..100_000 {
            self.variant += 1;
            let h = mix64(self.seed ^ mix64(self.variant));
            let (target, base) = &self.bases[(h % self.bases.len() as u64) as usize];
            let func = perturb_immediates(base, h);
            if self.seen.insert(fingerprint(&func)) {
                return Request::Miss {
                    target: *target,
                    func,
                };
            }
        }
        panic!("the miss bases ran out of distinct variants");
    }
}

/// Does perturbing `f` change its body? (Functions without data
/// immediates cannot produce a never-seen variant.)
fn perturbable(f: &Function) -> bool {
    fingerprint(&perturb_immediates(f, 1)) != fingerprint(f)
}

/// A completed request, as the client saw it.
struct Done {
    id: String,
    request: Request,
    latency: Duration,
    /// The daemon answered from its cache.
    hit: bool,
    /// For misses: the `.report` fields and the allocation text.
    report: BTreeMap<String, String>,
    func_text: Option<String>,
}

pub fn run(spec: &Spec) -> Outcome {
    let reg = regime(Workload::ServeWarm);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let t = Instant::now();
        daemon = Some(set_up(&reg, spec, k));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up");
    let v = &mut out.values;
    v.set("setup_s", sys::median(&setups));
    v.set("driver.queue_wait_ms", daemon.queue_wait_ms);
    v.set("driver.utilization", daemon.utilization);
    v.set("cc.compile_ms", daemon.compile.as_secs_f64() * 1e3);
    let donors = std::mem::take(&mut daemon.donors);

    // The hit pool and the miss bases, from the pre-solve.
    let mut pool: Vec<Warm> = Vec::new();
    let mut bases = Vec::new();
    let mut seen = HashSet::new();
    let mut keys = HashSet::new();
    for (target, funcs, results) in &daemon.warmed {
        for (f, r) in funcs.iter().zip(results) {
            seen.insert(fingerprint(f));
            if !r.attempted || !keys.insert(cache_key(f, *target, &reg.solver())) {
                continue;
            }
            pool.push(Warm {
                target: *target,
                text: format!("{f}\n"),
                payload: ok_payload(r),
            });
            if r.rung == Some(Rung::IpOptimal) && perturbable(f) {
                bases.push((*target, f.clone()));
            }
        }
    }
    let warm_results: Vec<&FunctionResult> = daemon.warmed.iter().flat_map(|(_, _, r)| r).collect();
    for (target, _, results) in &daemon.warmed {
        for r in results {
            guard(r, *target, &mut out);
        }
    }
    quality_values(&mut out.values, &warm_results);
    solver_values(&mut out.values, &warm_results);
    assert!(
        !bases.is_empty(),
        "no pre-solved function is both ip-optimal and perturbable"
    );
    let mut schedule = Schedule {
        seed: spec.seed,
        hits: pool.len(),
        bases,
        seen,
        variant: 0,
    };

    let min_requests = match spec.size {
        Size::Full => 1_000,
        Size::Tiny => 100,
    };
    let (done, wall, cpu_s, first_wall, busy) = closed_loop(
        &daemon.addr,
        &pool,
        &mut schedule,
        spec,
        min_requests,
        &mut out,
    );
    let dir = daemon.stop();

    let v = &mut out.values;
    let n = done.len() as f64;
    let latencies: Vec<f64> = done.iter().map(|d| d.latency.as_secs_f64() * 1e3).collect();
    v.set("req_p50_ms", sys::quantile(&latencies, 0.5));
    v.set("req_p99_ms", sys::quantile(&latencies, 0.99));
    v.set("req_per_s", n / wall);
    v.set("fn_per_s", n / wall);
    v.set("cpu_s", cpu_s);
    v.set("serve.busy", busy as f64);
    let hits = done.iter().filter(|d| d.hit).count();
    v.set("driver.cache_hit_frac", sys::ratio(hits as f64, n));

    let log = server_log(&dir.0.join("requests.jsonl"));
    let cache = SolutionCache::new(Some(dir.0.join("cache")));
    check_misses(&done, &cache, &reg, &log, spec.seed, &mut out);
    let server_ms: Vec<f64> = done
        .iter()
        .filter_map(|d| log.get(&d.id).map(|e| e.0))
        .collect();
    let wire_ms: Vec<f64> = done
        .iter()
        .filter_map(|d| log.get(&d.id).map(|e| d.latency.as_secs_f64() * 1e3 - e.0))
        .collect();
    out.values.set("serve.server_ms", sys::median(&server_ms));
    out.values.set("serve.wire_ms", sys::median(&wire_ms));

    if spec.trace {
        let first = &done[..done.len().min(min_requests)];
        let ctx = Traced {
            reg: &reg,
            spec,
            pool: &pool,
            donors: &donors,
            cache: &cache,
            dir: &dir,
        };
        traced(&ctx, first, first_wall, &mut out);
    }
    drop(cache);
    drop(dir);
    out
}

type Looped = (Vec<Done>, f64, f64, f64, u64);

/// The closed loop: pairs of requests on one connection until the time
/// is up and at least `min_requests` have completed.
fn closed_loop(
    addr: &str,
    pool: &[Warm],
    schedule: &mut Schedule,
    spec: &Spec,
    min_requests: usize,
    out: &mut Outcome,
) -> Looped {
    let mut client = Client::connect(addr, "bench").expect("connect to the daemon");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("set a read timeout");
    let mut pending: HashMap<String, (Instant, Request)> = HashMap::new();
    let mut done: Vec<Done> = Vec::new();
    let mut sent = 0u64;
    let mut busy = 0u64;
    let mut first_wall = 0.0;
    let start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    while start.elapsed() < spec.seconds || done.len() < min_requests {
        for _ in 0..IN_FLIGHT {
            let r = schedule.request(sent);
            sent += 1;
            let (target, text) = match &r {
                Request::Hit(i) => (pool[*i].target, pool[*i].text.clone()),
                Request::Miss { target, func } => (*target, format!("{func}\n")),
            };
            let opts = AllocOptions {
                target: Some(target.name().to_string()),
                ..AllocOptions::default()
            };
            let id = client.send_alloc(&text, &opts).expect("send a request");
            pending.insert(id, (Instant::now(), r));
        }
        while !pending.is_empty() {
            let resp = client.recv().expect("a response from the daemon");
            let Some((t0, request)) = pending.remove(resp.id()) else {
                out.fail(format!("response to unknown request {}", resp.id()));
                continue;
            };
            let latency = t0.elapsed();
            out.attempted += 1;
            let verb = resp.frame.verb.as_str();
            if verb == "BUSY" {
                busy += 1;
            }
            let miss = matches!(request, Request::Miss { .. });
            if verb != "OK" {
                out.fail(format!("request {}: {verb} {}", resp.id(), resp.message()));
            } else if let Request::Hit(i) = &request {
                if resp.frame.get("cache") != Some("hit") || resp.frame.payload != pool[*i].payload
                {
                    out.fail(format!(
                        "request {}: hit does not reproduce its pre-solve byte for byte",
                        resp.id()
                    ));
                }
            } else if resp.frame.get("cache") != Some("miss") {
                out.fail(format!("request {}: a never-seen variant hit", resp.id()));
            }
            done.push(Done {
                id: resp.id().to_string(),
                latency,
                hit: resp.frame.get("cache") == Some("hit"),
                report: if miss { resp.report } else { BTreeMap::new() },
                func_text: resp.func_text.filter(|_| miss),
                request,
            });
            if done.len() == min_requests {
                first_wall = start.elapsed().as_secs_f64();
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_per_block = (sys::cpu_seconds() - cpu0) * CPU_BLOCK as f64 / done.len().max(1) as f64;
    drop(client);
    (done, wall, cpu_per_block, first_wall, busy)
}

/// `id -> (duration_ms, solve_ms)` from the daemon's JSONL request log.
fn server_log(path: &std::path::Path) -> HashMap<String, (f64, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut map = HashMap::new();
    for line in text.lines() {
        let Ok(j) = Json::parse(line) else { continue };
        let field = |k: &str| j.get(k).and_then(Json::as_str);
        if field("event") != Some("response") {
            continue;
        }
        let num = |k: &str| field(k).and_then(|s| s.parse::<f64>().ok());
        if let (Some(id), Some(d)) = (field("id"), num("duration_ms")) {
            map.insert(id.to_string(), (d, num("solve_ms").unwrap_or(0.0)));
        }
    }
    map
}

/// Misses are checked after the loop: the stored entry (which carries
/// the slot table the wire text lacks) must reproduce the response text,
/// and pass the outside check against the variant; the regime guard
/// reads the daemon's solve time.
fn check_misses(
    done: &[Done],
    cache: &SolutionCache,
    reg: &Regime,
    log: &HashMap<String, (f64, f64)>,
    seed: u64,
    out: &mut Outcome,
) {
    for (i, d) in done.iter().enumerate() {
        let Request::Miss { target, func } = &d.request else {
            continue;
        };
        let machine = regalloc_core::targets::machine_for(*target);
        let stored = cache.lookup(cache_key(func, *target, &reg.solver()));
        match (stored, &d.func_text) {
            (Some(hit), Some(text)) if format!("{}\n", hit.func) == *text => {
                if let Err(e) =
                    check::allocation(machine.as_ref(), func, &hit.func, seed ^ i as u64)
                {
                    out.fail(format!("outside check on {}: {e}", target.name()));
                }
            }
            _ => out.fail(format!("request {}: miss was not stored as served", d.id)),
        }
        if log
            .get(&d.id)
            .is_some_and(|e| e.1 >= TIME_LIMIT.as_secs_f64() * 500.0)
        {
            out.problems.push(format!(
                "regime guard: request {} solved within half of the limit",
                d.id
            ));
        }
    }
}

/// What the traced run replays against.
#[derive(Clone, Copy)]
struct Traced<'a> {
    reg: &'a Regime,
    spec: &'a Spec,
    pool: &'a [Warm],
    /// The donor snapshot the daemon froze at bind.
    donors: &'a [DonorEntry],
    /// The daemon's cache, with every miss it stored.
    cache: &'a SolutionCache,
    dir: &'a ScratchDir,
}

/// The traced run: the first requests of the schedule replayed through
/// the layers on `jobs` threads — hits through the cache-hit path,
/// misses through the pipeline with the donor the daemon picked.
fn traced(ctx: &Traced<'_>, done: &[Done], untraced_wall: f64, out: &mut Outcome) {
    let Traced {
        reg,
        spec,
        pool,
        donors,
        cache,
        dir,
    } = *ctx;
    let machines: Vec<_> = TARGETS
        .iter()
        .map(|&t| (t, regalloc_core::targets::machine_for(t)))
        .collect();
    let cfg = reg.driver(
        TargetId::X86Pentium,
        spec.jobs,
        CacheMode::Disk(dir.0.join("cache")),
    );
    let pipelines: Vec<(TargetId, Pipeline<'_>)> = machines
        .iter()
        .map(|(t, m)| {
            (
                *t,
                Pipeline {
                    machine: m.as_ref(),
                    solver: cfg.solver.clone(),
                    audit: cfg.audit,
                    lint: cfg.lint,
                    equiv_runs: cfg.equiv_runs,
                    equiv_seed: cfg.equiv_seed,
                },
            )
        })
        .collect();
    let pipeline = |t: TargetId| {
        &pipelines
            .iter()
            .find(|(x, _)| *x == t)
            .expect("warmed target")
            .1
    };
    let sink = SolutionCache::new(Some(dir.0.join("store-replay")));
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut trace = Trace::default();
    let mut problems = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.jobs.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Trace::default();
                    let mut errs = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(d) = done.get(k) else { break };
                        match &d.request {
                            Request::Hit(i) => {
                                let w = &pool[*i];
                                if let Err(e) = replay::hit(pipeline(w.target), cache, w.target, &w.text, &mut tr) {
                                    errs.push(format!("traced hit: {e}"));
                                }
                            }
                            Request::Miss { target, func } => {
                                let p = pipeline(*target);
                                let donor = replay::pick_donor(donors, func, cfg.warm_start_distance);
                                let rep = replay::function(p, func, donor.as_ref(), &mut tr);
                                let num = |k: &str| d.report.get(k).and_then(|v| v.parse::<u64>().ok());
                                if num("solver_nodes") != Some(rep.nodes) || num("lp_iters") != Some(rep.lp_iters) {
                                    errs.push(format!(
                                        "trace fidelity: miss {} replayed {} nodes / {} LP iterations, the daemon reported {:?} / {:?}",
                                        d.id, rep.nodes, rep.lp_iters, num("solver_nodes"), num("lp_iters")
                                    ));
                                }
                                let key = cache_key(func, *target, &p.solver);
                                if let Err(e) = replay::store(cache, &sink, key, &mut tr) {
                                    errs.push(format!("traced store: {e}"));
                                }
                            }
                        }
                    }
                    (tr, errs)
                })
            })
            .collect();
        for w in workers {
            let (tr, errs) = w.join().expect("replay worker panicked");
            trace.merge(&tr);
            problems.extend(errs);
        }
    });
    let traced_wall = t0.elapsed().as_secs_f64();
    out.problems.extend(problems);
    let v = &mut out.values;
    layer_values(v, &trace);
    v.set("trace.untraced_wall_s", untraced_wall);
    v.set("trace.traced_wall_s", traced_wall);
    v.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
}
