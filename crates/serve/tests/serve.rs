//! Integration tests for the daemon: protocol round-trips against a live
//! server, byte-identity with the batch driver, admission backpressure,
//! per-client budgets, drain semantics and the `/metrics` endpoint.

use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::Duration;

use regalloc_driver::{run_suite, CacheMode, DriverConfig};
use regalloc_ilp::SolverConfig;
use regalloc_machine::TargetId;
use regalloc_serve::{scrape_metrics, AllocOptions, Client, ServeConfig, ServeReport, Server};
use regalloc_workloads::{fuzz_function, Benchmark, GenConfig, Suite};

fn test_driver_cfg(jobs: usize) -> DriverConfig {
    DriverConfig {
        target: TargetId::X86Pentium,
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

fn workload(n: usize) -> Vec<String> {
    let mut funcs = Suite::generate(Benchmark::Eqntott, 1998).functions;
    funcs.truncate(n);
    funcs.iter().map(|f| format!("{f}\n")).collect()
}

/// Start a daemon on an ephemeral port; returns its address and the
/// join handle yielding the exit report.
fn start(cfg: ServeConfig) -> (String, JoinHandle<std::io::Result<ServeReport>>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("local_addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn drain_and_join(addr: &str, server: JoinHandle<std::io::Result<ServeReport>>) -> ServeReport {
    let mut control = Client::connect(addr, "control").expect("control connect");
    control.set_timeout(Some(Duration::from_secs(30))).ok();
    let resp = control.drain().expect("drain");
    assert_eq!(resp.frame.verb, "OK", "DRAIN must be acknowledged");
    let report = server.join().expect("join").expect("serve io");
    assert_eq!(
        report.accepted, report.responded,
        "drain must not lose accepted requests"
    );
    report
}

#[test]
fn daemon_results_are_byte_identical_to_the_batch_driver() {
    let mut funcs = Suite::generate(Benchmark::Eqntott, 1998).functions;
    funcs.truncate(4);
    let oracle = run_suite(&funcs, &test_driver_cfg(2));

    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(2),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "itest").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();

    let pong = client.ping().expect("ping");
    assert_eq!(pong.frame.verb, "PONG");

    for (f, want) in funcs.iter().zip(&oracle.results) {
        let resp = client
            .alloc(&format!("{f}\n"), &AllocOptions::default())
            .expect("alloc");
        assert_eq!(resp.frame.verb, "OK", "{}: {}", want.name, resp.message());
        assert_eq!(resp.frame.get("budget"), Some("full"));
        let got = resp
            .func_text
            .as_deref()
            .unwrap_or("")
            .trim_end()
            .to_string();
        let expect = want.func.as_ref().map_or(String::new(), |f| format!("{f}"));
        assert_eq!(
            got,
            expect.trim_end(),
            "{}: daemon and batch driver disagree",
            want.name
        );
        assert_eq!(resp.report.get("name"), Some(&want.name));
        assert!(resp.report.contains_key("rung"));
        assert!(resp.report.contains_key("spills"));
    }
    drain_and_join(&addr, server);
}

#[test]
fn malformed_payloads_get_err_and_the_connection_survives() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "bad").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();

    let resp = client
        .alloc("this is not ir\n", &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "ERR");
    assert_eq!(resp.frame.get("code"), Some("parse"));

    // The connection (and the daemon) must still serve good requests.
    let good = &workload(1)[0];
    let resp = client.alloc(good, &AllocOptions::default()).expect("alloc");
    assert_eq!(resp.frame.verb, "OK", "{}", resp.message());
    drain_and_join(&addr, server);
}

#[test]
fn admission_control_sheds_load_with_busy_and_a_retry_hint() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        max_queue: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "flood").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();

    let texts = workload(12);
    let mut pending = std::collections::BTreeSet::new();
    for t in &texts {
        pending.insert(
            client
                .send_alloc(t, &AllocOptions::default())
                .expect("send"),
        );
    }
    let (mut ok, mut busy) = (0u32, 0u32);
    while !pending.is_empty() {
        let resp = client.recv().expect("every request gets a response");
        assert!(
            pending.remove(resp.id()),
            "duplicate response {}",
            resp.id()
        );
        match resp.frame.verb.as_str() {
            "OK" => ok += 1,
            "BUSY" => {
                busy += 1;
                assert!(
                    resp.frame.get_u64("retry_ms").is_some(),
                    "BUSY must carry a retry hint"
                );
            }
            other => panic!("unexpected {other}: {}", resp.message()),
        }
    }
    assert!(ok > 0, "some requests must be served");
    assert!(
        busy > 0,
        "a 2-deep queue fed 12 pipelined requests must shed"
    );
    let report = drain_and_join(&addr, server);
    assert_eq!(
        report.busy,
        u64::from(busy),
        "the report counts every BUSY reply"
    );
}

#[test]
fn per_client_budgets_shrink_then_exhaust_but_never_refuse() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        // Room for one full 2 s grant, refilling glacially. Sequential
        // requests settle-refund their unused time, so the bucket only
        // drains under *pipelined* charges — which is exactly the abuse
        // fair-share budgets exist for.
        client_capacity: Duration::from_secs(3),
        client_refill: 0.001,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "greedy").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();

    let texts = workload(6);
    let mut pending = std::collections::BTreeSet::new();
    for t in &texts {
        pending.insert(
            client
                .send_alloc(t, &AllocOptions::default())
                .expect("send"),
        );
    }
    let mut dispositions = Vec::new();
    while !pending.is_empty() {
        let resp = client.recv().expect("recv");
        assert!(pending.remove(resp.id()));
        assert_eq!(
            resp.frame.verb,
            "OK",
            "budget pressure must demote, not refuse: {}",
            resp.message()
        );
        dispositions.push(resp.frame.get("budget").unwrap_or("?").to_string());
    }
    assert!(
        dispositions
            .iter()
            .any(|d| d == "shrunk" || d == "exhausted"),
        "tiny bucket must degrade some grants, got {dispositions:?}"
    );
    // A different client has its own untouched bucket.
    let mut fresh = Client::connect(&addr, "fresh").expect("connect");
    fresh.set_timeout(Some(Duration::from_secs(30))).ok();
    let resp = fresh
        .alloc(&texts[0], &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.get("budget"), Some("full"));
    drain_and_join(&addr, server);
}

#[test]
fn oversized_payloads_are_refused_before_allocation() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        max_payload: 64,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "big").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();
    let huge = "x".repeat(1024);
    let resp = client
        .alloc(&huge, &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "ERR");
    drain_and_join(&addr, server);
}

#[test]
fn drain_stops_admission_and_a_stop_flag_drains_too() {
    // DRAIN path: post-drain ALLOCs answer DRAINING.
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        ..ServeConfig::default()
    });
    let texts = workload(1);
    let mut client = Client::connect(&addr, "draintest").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();
    let resp = client
        .alloc(&texts[0], &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "OK", "{}", resp.message());
    let resp = client.drain().expect("drain");
    assert_eq!(resp.frame.verb, "OK");
    let resp = client
        .alloc(&texts[0], &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "DRAINING");
    let report = server.join().expect("join").expect("serve io");
    assert_eq!(report.accepted, report.responded);
    assert!(report.drained_away >= 1);

    // External stop flag (the SIGTERM bridge): flipping it drains the
    // accept loop without any client involvement.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (addr2, server2) = start(ServeConfig {
        driver: test_driver_cfg(1),
        stop: Some(std::sync::Arc::clone(&stop)),
        ..ServeConfig::default()
    });
    let mut c2 = Client::connect(&addr2, "sigtest").expect("connect");
    c2.set_timeout(Some(Duration::from_secs(30))).ok();
    let resp = c2
        .alloc(&texts[0], &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "OK");
    drop(c2);
    stop.store(true, Ordering::SeqCst);
    let report = server2.join().expect("join").expect("serve io");
    assert_eq!(report.accepted, report.responded);
}

#[test]
fn status_reports_counters_and_recent_request_timings() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "stest").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();

    // Fresh daemon: counters present, ring empty.
    let empty = client.status().expect("status");
    assert_eq!(empty.frame.verb, "OK");
    assert_eq!(empty.frame.get("status"), Some("1"));
    assert_eq!(empty.frame.get("accepted"), Some("0"));
    assert!(empty.frame.get_u64("uptime_ms").is_some());
    assert!(empty.frame.payload.is_empty(), "ring starts empty");

    for f in workload(2) {
        let resp = client.alloc(&f, &AllocOptions::default()).expect("alloc");
        assert_eq!(resp.frame.verb, "OK", "{}", resp.message());
    }

    let full = client.status().expect("status");
    assert_eq!(full.frame.verb, "OK");
    assert_eq!(full.frame.get("accepted"), Some("2"));
    assert_eq!(full.frame.get("responded"), Some("2"));
    let body = full.message();
    let req_lines: Vec<&str> = body.lines().filter(|l| l.starts_with("req ")).collect();
    assert_eq!(
        req_lines.len(),
        2,
        "two recent requests in the ring:\n{body}"
    );
    for line in req_lines {
        for field in [
            "id=",
            "client=",
            "rung=",
            "cache=",
            "total_ms=",
            "build_ms=",
            "solve_ms=",
            "validate_ms=",
        ] {
            assert!(line.contains(field), "missing `{field}` in `{line}`");
        }
    }
    drain_and_join(&addr, server);
}

/// A client that has read its `OK` must find it counted in the very next
/// `STATUS`. Several daemons run at once, each with one client doing
/// alloc→`STATUS` rounds, so workers are often preempted right after
/// writing a response: a counter bumped only after the write would then
/// lag behind what the client has already read.
#[test]
fn status_counts_every_response_the_client_has_read() {
    const DAEMONS: usize = 4;
    const ROUNDS: u64 = 150;
    let func = workload(1).remove(0);
    std::thread::scope(|s| {
        for d in 0..DAEMONS {
            let func = &func;
            s.spawn(move || {
                let (addr, server) = start(ServeConfig {
                    driver: test_driver_cfg(1),
                    ..ServeConfig::default()
                });
                let mut client = Client::connect(&addr, &format!("race{d}")).expect("connect");
                client.set_timeout(Some(Duration::from_secs(30))).ok();
                let mut lagging = 0;
                for round in 1..=ROUNDS {
                    let resp = client.alloc(func, &AllocOptions::default()).expect("alloc");
                    assert_eq!(resp.frame.verb, "OK", "{}", resp.message());
                    let status = client.status().expect("status");
                    assert_eq!(status.frame.get_u64("accepted"), Some(round));
                    if status.frame.get_u64("responded") != Some(round) {
                        lagging += 1;
                    }
                }
                drain_and_join(&addr, server);
                assert_eq!(
                    lagging, 0,
                    "daemon {d}: STATUS lagged the client's own OK in {lagging} of {ROUNDS} rounds"
                );
            });
        }
    });
}

#[test]
fn metrics_endpoint_serves_prometheus_text_on_the_same_port() {
    let (addr, server) = start(ServeConfig {
        driver: test_driver_cfg(1),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "mtest").expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).ok();
    let resp = client
        .alloc(&workload(1)[0], &AllocOptions::default())
        .expect("alloc");
    assert_eq!(resp.frame.verb, "OK", "{}", resp.message());

    let body = scrape_metrics(&addr).expect("scrape");
    assert!(
        body.contains("serve_responses_total"),
        "metrics body missing serve counters:\n{body}"
    );
    assert!(
        body.contains("serve_queue_depth"),
        "metrics body missing gauges:\n{body}"
    );
    drain_and_join(&addr, server);
}

/// One cache serves every target, so its limits bound the whole
/// directory: two targets' requests against a two-entry bound leave at
/// most two entries on disk, not two per target.
#[test]
fn cache_limits_bound_the_directory_across_targets() {
    let dir =
        std::env::temp_dir().join(format!("regalloc-serve-bound-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut driver = test_driver_cfg(2);
    driver.cache = CacheMode::Disk(dir.clone());
    driver.cache_limits.max_entries = Some(2);
    let (addr, server) = start(ServeConfig {
        driver,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr, "bound").expect("connect");
    client.set_timeout(Some(Duration::from_secs(60))).ok();
    // Portable 16-bit bodies, which every registered target accepts.
    let funcs: Vec<String> = (0..4)
        .map(|i| {
            let f = fuzz_function(&format!("pt{i}"), 0xbeef + i, &GenConfig::portable16());
            format!("{f}\n")
        })
        .collect();
    for target in [TargetId::X86Pentium, TargetId::Mcu] {
        let opts = AllocOptions {
            target: Some(target.name().to_string()),
            ..AllocOptions::default()
        };
        for f in &funcs {
            let resp = client.alloc(f, &opts).expect("alloc");
            assert_eq!(resp.frame.verb, "OK", "{target}: {}", resp.message());
            assert_eq!(resp.frame.get("target"), Some(target.name()));
        }
    }
    drop(client);
    drain_and_join(&addr, server);
    let entries = std::fs::read_dir(&dir)
        .expect("the cache directory exists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "alloc"))
        .count();
    std::fs::remove_dir_all(&dir).ok();
    assert!(entries <= 2, "{entries} cache entries on disk, bound is 2");
}
