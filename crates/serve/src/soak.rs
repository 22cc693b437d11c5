//! Seeded chaos soak: N concurrent clients hammer an in-process daemon
//! with M functions while faults and disconnects are injected, then the
//! server drains. The invariants checked are the daemon's contract:
//!
//! 1. every request a client sends gets exactly one terminal response
//!    (`OK` / `ERR` / `BUSY` / `DRAINING`) — tracked client-side per id;
//! 2. every `OK` body served to a well-behaved client is byte-identical
//!    to what the batch `regalloc-driver` produces for the same function
//!    and configuration — checked against a [`run_suite`] oracle;
//! 3. drain loses nothing: the server's `accepted` equals its
//!    `responded` when [`Server::run`] returns;
//! 4. the server survives it all — panicking solves and mid-stream
//!    disconnects show up as per-request errors, never as a dead daemon.
//!
//! Everything is driven by one seed: client schedules, fault plans and
//! disconnect points derive from it via [`mix64`], so a failing run
//! replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use regalloc_driver::{run_suite, CacheMode, DriverConfig};
use regalloc_ilp::SolverConfig;
use regalloc_ir::interp::mix64;
use regalloc_workloads::{Benchmark, Suite};

use crate::client::{AllocOptions, Client};
use crate::server::{ServeConfig, ServeReport, Server};

/// Soak parameters. Defaults are CI-sized: bounded well under a minute.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed for workload, fault plans and disconnect points.
    pub seed: u64,
    /// Byte-identity checker clients.
    pub checkers: usize,
    /// Pipelining flooder clients (budget exhaustion + BUSY pressure).
    pub flooders: usize,
    /// Fault-injecting, randomly-disconnecting clients.
    pub chaos: usize,
    /// Functions in the workload.
    pub functions: usize,
    /// Server worker threads.
    pub jobs: usize,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 1998,
            checkers: 2,
            flooders: 2,
            chaos: 2,
            functions: 24,
            jobs: 4,
        }
    }
}

/// What the soak observed; `violations` is empty on a clean run.
#[derive(Debug, Default)]
pub struct SoakOutcome {
    /// The server's own exit accounting.
    pub report: Option<ServeReport>,
    /// OK responses byte-compared against the batch oracle.
    pub checked: u64,
    /// `BUSY` responses observed (admission control exercised).
    pub busy_seen: u64,
    /// `ERR` responses observed (faults surfaced per-request).
    pub errors_seen: u64,
    /// Shrunk/exhausted grants observed (budgets exercised).
    pub degraded_grants: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl SoakOutcome {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The deterministic solver regime ([`SolverConfig::deterministic`]):
/// node and iteration limits terminate every solve long before wall
/// clocks bind, so the oracle comparison is exact.
fn soak_driver_config(jobs: usize) -> DriverConfig {
    DriverConfig {
        jobs,
        solver: SolverConfig::deterministic(),
        function_budget: Duration::from_secs(2),
        cache: CacheMode::Memory,
        equiv_runs: 1,
        equiv_seed: 7,
        warm_starts: false,
        ..DriverConfig::default()
    }
}

/// Run the soak; see the module docs for the invariants.
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let mut out = SoakOutcome::default();

    // Workload + oracle: what the batch driver says each function's
    // allocation is, under the identical configuration.
    // Eqntott: 62 small functions — enough to truncate to any CI-sized
    // workload while keeping every solve in the milliseconds.
    let suite = Suite::generate(Benchmark::Eqntott, cfg.seed);
    let mut funcs = suite.functions;
    funcs.truncate(cfg.functions.max(1));
    let oracle = run_suite(&funcs, &soak_driver_config(cfg.jobs));
    let expected: Vec<(String, Option<String>)> = oracle
        .results
        .iter()
        .map(|r| (r.name.clone(), r.func.as_ref().map(|f| format!("{f}\n"))))
        .collect();
    let ir_texts: Vec<String> = funcs.iter().map(|f| format!("{f}\n")).collect();

    let server = match Server::bind(ServeConfig {
        driver: soak_driver_config(cfg.jobs),
        // Small watermark so flooders actually trip BUSY.
        max_queue: (cfg.jobs * 4).max(8),
        // Burst allowance of ~5 requests, slow refill: flooders pipeline
        // straight into shrunk/exhausted grants.
        client_capacity: Duration::from_secs(10),
        client_refill: 2.0,
        drain_grace: Duration::from_secs(20),
        ..ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            out.violations.push(format!("bind failed: {e}"));
            return out;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            out.violations.push(format!("local_addr failed: {e}"));
            return out;
        }
    };
    let server = std::thread::spawn(move || server.run());

    let checked = Arc::new(AtomicU64::new(0));
    let busy_seen = Arc::new(AtomicU64::new(0));
    let errors_seen = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicU64::new(0));
    let violations: Arc<std::sync::Mutex<Vec<String>>> = Arc::default();
    let note = |v: &Arc<std::sync::Mutex<Vec<String>>>, msg: String| {
        v.lock().unwrap().push(msg);
    };

    std::thread::scope(|scope| {
        // Checkers: sequential solves, BUSY-retry, byte-compare each OK.
        for c in 0..cfg.checkers {
            let (addr, ir_texts, expected) = (addr.clone(), &ir_texts, &expected);
            let (checked, busy_seen, degraded, violations) = (
                Arc::clone(&checked),
                Arc::clone(&busy_seen),
                Arc::clone(&degraded),
                Arc::clone(&violations),
            );
            scope.spawn(move || {
                let mut client = match Client::connect(&addr, &format!("checker-{c}")) {
                    Ok(cl) => cl,
                    Err(e) => return note(&violations, format!("checker-{c} connect: {e}")),
                };
                client.set_timeout(Some(Duration::from_secs(30))).ok();
                for (i, ir) in ir_texts.iter().enumerate() {
                    if i % cfg.checkers.max(1) != c {
                        continue;
                    }
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        let resp = match client.alloc(ir, &AllocOptions::default()) {
                            Ok(r) => r,
                            Err(e) => return note(&violations, format!("checker-{c} fn{i}: {e}")),
                        };
                        match resp.frame.verb.as_str() {
                            "BUSY" => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                if attempts > 500 {
                                    return note(
                                        &violations,
                                        format!("checker-{c} fn{i}: BUSY-looped"),
                                    );
                                }
                                let ms = resp.frame.get_u64("retry_ms").unwrap_or(50);
                                std::thread::sleep(Duration::from_millis(ms.min(200)));
                            }
                            "OK" => {
                                if resp.frame.get("budget") != Some("full") {
                                    degraded.fetch_add(1, Ordering::Relaxed);
                                }
                                let got = resp.func_text.as_deref().unwrap_or("");
                                let want = expected[i].1.as_deref().unwrap_or("");
                                if got.trim_end() != want.trim_end() {
                                    note(
                                        &violations,
                                        format!(
                                            "checker-{c} fn{i} ({}): daemon result differs \
                                             from batch oracle",
                                            expected[i].0
                                        ),
                                    );
                                }
                                checked.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            other => {
                                return note(
                                    &violations,
                                    format!(
                                        "checker-{c} fn{i}: unexpected {other}: {}",
                                        resp.message()
                                    ),
                                )
                            }
                        }
                    }
                }
            });
        }

        // Flooders: pipeline everything at once, then collect. Exercises
        // admission BUSY and shrunk/exhausted grants; checks only the
        // one-terminal-response-per-request contract.
        for fl in 0..cfg.flooders {
            let (addr, ir_texts) = (addr.clone(), &ir_texts);
            let (busy_seen, degraded, errors_seen, violations) = (
                Arc::clone(&busy_seen),
                Arc::clone(&degraded),
                Arc::clone(&errors_seen),
                Arc::clone(&violations),
            );
            scope.spawn(move || {
                let mut client = match Client::connect(&addr, &format!("flooder-{fl}")) {
                    Ok(cl) => cl,
                    Err(e) => return note(&violations, format!("flooder-{fl} connect: {e}")),
                };
                client.set_timeout(Some(Duration::from_secs(30))).ok();
                let mut pending = std::collections::BTreeSet::new();
                for ir in ir_texts.iter() {
                    match client.send_alloc(ir, &AllocOptions::default()) {
                        Ok(id) => {
                            pending.insert(id);
                        }
                        Err(e) => return note(&violations, format!("flooder-{fl} send: {e}")),
                    }
                }
                while !pending.is_empty() {
                    let resp = match client.recv() {
                        Ok(r) => r,
                        Err(e) => {
                            return note(
                                &violations,
                                format!("flooder-{fl}: lost {} responses: {e}", pending.len()),
                            )
                        }
                    };
                    if !pending.remove(resp.id()) {
                        return note(
                            &violations,
                            format!("flooder-{fl}: duplicate response id {}", resp.id()),
                        );
                    }
                    match resp.frame.verb.as_str() {
                        "BUSY" => {
                            busy_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        "OK" => {
                            if resp.frame.get("budget") != Some("full") {
                                degraded.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        "ERR" => {
                            errors_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        other => note(&violations, format!("flooder-{fl}: {other}?")),
                    }
                }
            });
        }

        // Chaos: inject seeded fault plans, disconnect mid-stream at
        // seeded points, reconnect, keep going. The daemon must answer
        // (or outlive) every one of them.
        for ch in 0..cfg.chaos {
            let (addr, ir_texts) = (addr.clone(), &ir_texts);
            let (errors_seen, busy_seen, violations) = (
                Arc::clone(&errors_seen),
                Arc::clone(&busy_seen),
                Arc::clone(&violations),
            );
            let seed = mix64(cfg.seed ^ (0xc4a05 + ch as u64));
            scope.spawn(move || {
                let mut rng = seed;
                let mut client: Option<Client> = None;
                for (i, ir) in ir_texts.iter().enumerate() {
                    rng = mix64(rng.wrapping_add(i as u64));
                    if client.is_none() {
                        match Client::connect(&addr, &format!("chaos-{ch}")) {
                            Ok(mut cl) => {
                                cl.set_timeout(Some(Duration::from_secs(30))).ok();
                                client = Some(cl);
                            }
                            Err(e) => return note(&violations, format!("chaos-{ch} connect: {e}")),
                        }
                    }
                    let cl = client.as_mut().unwrap();
                    let opts = AllocOptions {
                        fault_seed: (!rng.is_multiple_of(4)).then_some(mix64(rng)),
                        ..AllocOptions::default()
                    };
                    match cl.alloc(ir, &opts) {
                        Ok(resp) => match resp.frame.verb.as_str() {
                            "OK" => {}
                            "ERR" => {
                                errors_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            "BUSY" => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            other => note(&violations, format!("chaos-{ch}: {other}?")),
                        },
                        Err(e) => {
                            return note(&violations, format!("chaos-{ch} fn{i}: {e}"));
                        }
                    }
                    // Seeded mid-stream disconnect: drop the socket (the
                    // server's reader must shrug this off) and reconnect
                    // on the next iteration.
                    if rng.is_multiple_of(5) {
                        client = None;
                    }
                }
            });
        }
    });

    // Everyone is done: drain. A post-drain ALLOC must be refused with
    // DRAINING, and the server must exit with accepted == responded.
    match Client::connect(&addr, "control") {
        Ok(mut control) => {
            control.set_timeout(Some(Duration::from_secs(30))).ok();
            match control.drain() {
                Ok(resp) if resp.frame.verb == "OK" => {}
                Ok(resp) => out
                    .violations
                    .push(format!("DRAIN answered {}", resp.frame.verb)),
                Err(e) => out.violations.push(format!("DRAIN failed: {e}")),
            }
            match control.alloc(&ir_texts[0], &AllocOptions::default()) {
                Ok(resp) if resp.frame.verb == "DRAINING" => {}
                Ok(resp) => out
                    .violations
                    .push(format!("post-drain ALLOC answered {}", resp.frame.verb)),
                Err(e) => out.violations.push(format!("post-drain ALLOC: {e}")),
            }
        }
        Err(e) => out.violations.push(format!("control connect: {e}")),
    }

    match server.join() {
        Ok(Ok(report)) => {
            if report.accepted != report.responded {
                out.violations.push(format!(
                    "drain lost requests: accepted {} != responded {}",
                    report.accepted, report.responded
                ));
            }
            out.report = Some(report);
        }
        Ok(Err(e)) => out.violations.push(format!("server io error: {e}")),
        Err(_) => out.violations.push("server thread panicked".to_string()),
    }

    out.checked = checked.load(Ordering::Relaxed);
    out.busy_seen = busy_seen.load(Ordering::Relaxed);
    out.errors_seen = errors_seen.load(Ordering::Relaxed);
    out.degraded_grants = degraded.load(Ordering::Relaxed);
    out.violations.extend(violations.lock().unwrap().drain(..));
    if out.checked == 0 {
        out.violations
            .push("soak checked nothing: no checker OK responses".to_string());
    }
    out
}
