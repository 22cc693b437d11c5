//! `regalloc-serve` CLI: the daemon, a client, and the chaos soak.
//!
//! ```console
//! $ regalloc-serve serve --addr 127.0.0.1:7199 &
//! LISTENING 127.0.0.1:7199
//! $ regalloc-serve client --addr 127.0.0.1:7199 solve fn.ir
//! $ regalloc-serve client --addr 127.0.0.1:7199 metrics | head
//! $ regalloc-serve client --addr 127.0.0.1:7199 drain
//! $ regalloc-serve soak --seed 1998
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use regalloc_driver::{parse_secs, parse_shared_flag, SHARED_FLAGS_USAGE};
use regalloc_serve::{
    run_soak, scrape_metrics, AllocOptions, Client, ServeConfig, Server, SoakConfig,
};

fn usage() -> String {
    format!(
        "usage: regalloc-serve <serve|client|soak> [options]

serve — run the allocation daemon until drained (SIGTERM or DRAIN):
  --addr A:P           bind address (default 127.0.0.1:0, prints LISTENING)
{SHARED_FLAGS_USAGE}
  --max-queue N        BUSY above N queued+active requests (default 64)
  --max-estimate N     BUSY above N summed model-constraint estimates
  --max-payload N      per-request payload cap, bytes (default 1 MiB)
  --client-capacity S  per-client budget bucket, solver-seconds (default 60)
  --client-refill R    bucket refill, solver-seconds per second (default 1)
  --drain-grace S      drain deadline before demoting the backlog (default 5)
  --log FILE           JSONL request log
  Requests without target= get the --target above. Without --cache-dir
  the daemon caches in memory only.

client — talk to a daemon:
  --addr A:P           daemon address (required)
  --client ID          budget tenant id (default: cli)
  solve FILE           allocate every function in a textual-IR file
  ping                 liveness probe
  status               live counters + recent-request phase timings
  drain                ask the daemon to drain and exit
  metrics              scrape /metrics (Prometheus text)
  --target NAME        allocate for this target (x86-pentium, risc24, mcu;
                       default: the daemon's configured target)
  --budget-ms N        per-request deadline request
  --lint               include lint diagnostics in responses

soak — seeded chaos soak against an in-process daemon:
  --seed N             master seed (default 1998)
  --functions N        workload size (default 24)
  --checkers N / --flooders N / --chaos N   client mix (default 2/2/2)
  --jobs N             server worker threads (default 4)"
    )
}

static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: a single atomic store, observed by the accept
    // loop's poll.
    SIGTERM_SEEN.store(true, Ordering::SeqCst);
}

fn install_sigterm() {
    // No libc crate in this offline build; declare the one symbol we
    // need. SIG_ERR (-1) is ignored: worst case the daemon only drains
    // via DRAIN.
    const SIGTERM: i32 = 15;
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

fn next_val(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse the `serve` subcommand's flags.
fn parse_serve_args(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_shared_flag(&mut cfg.driver, a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--addr" => cfg.addr = next_val(&mut it, "--addr")?,
            "--max-queue" => {
                cfg.max_queue = next_val(&mut it, "--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?
            }
            "--max-estimate" => {
                cfg.max_estimate = next_val(&mut it, "--max-estimate")?
                    .parse()
                    .map_err(|e| format!("--max-estimate: {e}"))?
            }
            "--max-payload" => {
                cfg.max_payload = next_val(&mut it, "--max-payload")?
                    .parse()
                    .map_err(|e| format!("--max-payload: {e}"))?
            }
            "--client-capacity" => {
                cfg.client_capacity = parse_secs(
                    "--client-capacity",
                    &next_val(&mut it, "--client-capacity")?,
                )?
            }
            "--client-refill" => {
                cfg.client_refill = next_val(&mut it, "--client-refill")?
                    .parse()
                    .map_err(|e| format!("--client-refill: {e}"))?
            }
            "--drain-grace" => {
                cfg.drain_grace = parse_secs("--drain-grace", &next_val(&mut it, "--drain-grace")?)?
            }
            "--log" => cfg.log_path = Some(PathBuf::from(next_val(&mut it, "--log")?)),
            other => return Err(format!("serve: unknown option {other}\n\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = parse_serve_args(args)?;
    install_sigterm();
    cfg.stop = Some(Arc::new(AtomicBool::new(false)));
    let stop = Arc::clone(cfg.stop.as_ref().unwrap());
    // Bridge the C handler's static onto the config's flag.
    std::thread::spawn(move || loop {
        if SIGTERM_SEEN.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // The LISTENING line is the readiness contract: tests and scripts
    // block on it before connecting.
    println!("LISTENING {addr}");
    let report = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "drained: accepted {} responded {} busy {} errors {} panics {}",
        report.accepted, report.responded, report.busy, report.errors, report.panics
    );
    if report.accepted == report.responded {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = None;
    let mut client_id = "cli".to_string();
    let mut action: Option<(String, Option<String>)> = None;
    let mut opts = AllocOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(next_val(&mut it, "--addr")?),
            "--client" => client_id = next_val(&mut it, "--client")?,
            "--target" => opts.target = Some(next_val(&mut it, "--target")?),
            "--budget-ms" => {
                opts.budget_ms = Some(
                    next_val(&mut it, "--budget-ms")?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?,
                )
            }
            "--lint" => opts.lint = true,
            "solve" => action = Some(("solve".into(), Some(next_val(&mut it, "solve")?))),
            "ping" | "status" | "drain" | "metrics" => action = Some((a.clone(), None)),
            other => return Err(format!("client: unknown argument {other}\n\n{}", usage())),
        }
    }
    let addr = addr.ok_or("client: --addr is required")?;
    let (verb, arg) = action.ok_or("client: need one of solve|ping|status|drain|metrics")?;
    if verb == "metrics" {
        let body = scrape_metrics(&addr).map_err(|e| format!("metrics: {e}"))?;
        print!("{body}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut client =
        Client::connect(&addr, &client_id).map_err(|e| format!("connect {addr}: {e}"))?;
    match verb.as_str() {
        "ping" => {
            let r = client.ping().map_err(|e| e.to_string())?;
            println!("{}", r.frame.verb);
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            let r = client.status().map_err(|e| e.to_string())?;
            for key in [
                "status",
                "uptime_ms",
                "accepted",
                "responded",
                "busy",
                "errors",
                "queued",
                "active",
            ] {
                if let Some(v) = r.frame.get(key) {
                    println!("{key}={v}");
                }
            }
            let recent = r.message();
            if !recent.is_empty() {
                print!("{recent}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "drain" => {
            let r = client.drain().map_err(|e| e.to_string())?;
            println!("{}", r.frame.verb);
            Ok(ExitCode::SUCCESS)
        }
        "solve" => {
            let path = arg.unwrap();
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let funcs =
                regalloc_driver::parse_functions(&path, &text).map_err(|e| e.to_string())?;
            let mut failed = false;
            for f in &funcs {
                let one = format!("{f}\n");
                let resp = client.alloc(&one, &opts).map_err(|e| e.to_string())?;
                match resp.frame.verb.as_str() {
                    "OK" => {
                        if let Some(t) = &resp.func_text {
                            print!("{t}");
                            println!();
                        }
                        eprintln!(
                            "# {} rung={} cache={} budget={}",
                            resp.report.get("name").map_or("?", |s| s),
                            resp.frame.get("rung").unwrap_or("?"),
                            resp.frame.get("cache").unwrap_or("?"),
                            resp.frame.get("budget").unwrap_or("?"),
                        );
                    }
                    other => {
                        failed = true;
                        eprintln!("{other}: {}", resp.message());
                    }
                }
            }
            Ok(if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => unreachable!(),
    }
}

fn cmd_soak(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = SoakConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parse = |v: String, flag: &str| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match a.as_str() {
            "--seed" => {
                cfg.seed = next_val(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--functions" => {
                cfg.functions = parse(next_val(&mut it, "--functions")?, "--functions")?
            }
            "--checkers" => cfg.checkers = parse(next_val(&mut it, "--checkers")?, "--checkers")?,
            "--flooders" => cfg.flooders = parse(next_val(&mut it, "--flooders")?, "--flooders")?,
            "--chaos" => cfg.chaos = parse(next_val(&mut it, "--chaos")?, "--chaos")?,
            "--jobs" => cfg.jobs = parse(next_val(&mut it, "--jobs")?, "--jobs")?,
            other => return Err(format!("soak: unknown option {other}\n\n{}", usage())),
        }
    }
    let out = run_soak(&cfg);
    println!(
        "soak: checked {} busy {} errors {} degraded-grants {}",
        out.checked, out.busy_seen, out.errors_seen, out.degraded_grants
    );
    if let Some(r) = &out.report {
        println!(
            "server: accepted {} responded {} busy {} errors {} panics {}",
            r.accepted, r.responded, r.busy, r.errors, r.panics
        );
    }
    if out.passed() {
        println!("soak: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &out.violations {
            eprintln!("violation: {v}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("--help") | Some("-h") | None => Err(usage()),
        Some(other) => Err(format!("unknown subcommand {other}\n\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeConfig, String> {
        parse_serve_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn seconds_flags_take_finite_non_negative_seconds() {
        let cfg = parse(&["--client-capacity", "1.5", "--drain-grace", "0.25"])
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cfg.client_capacity, Duration::from_millis(1500));
        assert_eq!(cfg.drain_grace, Duration::from_millis(250));
        for flag in ["--client-capacity", "--drain-grace"] {
            for bad in ["-1", "NaN", "inf"] {
                let err = parse(&[flag, bad]).err().expect(bad);
                assert!(err.starts_with(&format!("{flag}: ")), "{err}");
            }
        }
    }
}
