//! The allocation daemon: a thin TCP front end over the batch driver's
//! [`AllocationService`], multiplexing framed allocation requests onto
//! one FIFO [`ServicePool`].
//!
//! Robustness model, in the order a request meets it:
//!
//! 1. **Framing** — hostile headers are rejected before any payload
//!    buffer is allocated ([`Frame::read_payload`] caps `bytes=`).
//! 2. **Admission control** — a request is refused with `BUSY` (plus a
//!    `retry_ms` hint) when either watermark is hit: queued+active jobs
//!    ([`ServeConfig::max_queue`]) or the sum of queued model-size
//!    estimates ([`ServeConfig::max_estimate`]). The server sheds load
//!    explicitly; it never queues without bound.
//! 3. **Per-client budgets** — admission charges the client's token
//!    bucket ([`ClientBudgets`]); the granted deadline rides on the `OK`
//!    frame as `budget=full|shrunk|exhausted`, and a shrunk grant demotes
//!    the solve down the degradation ladder instead of failing it.
//! 4. **Fault isolation** — a panicking solve (or a poisoned cache lock)
//!    is caught in the worker and surfaced as `ERR code=panic` for *that
//!    request only*; the worker thread survives.
//! 5. **Graceful drain** — `DRAIN`, SIGTERM, or an external stop flag
//!    stops accepting; queued work finishes (after
//!    [`ServeConfig::drain_grace`] it is demoted to zero-budget fallback
//!    rungs instead); every accepted request still gets its one terminal
//!    response; then the listener exits cleanly.
//!
//! The serving path runs [`AllocationService::allocate_one`] — literally
//! the batch driver's code — so responses are byte-identical to
//! `regalloc-driver` output for the same input and configuration. One
//! service serves every registered target from one cache, so the cache
//! limits bound the daemon's whole cache directory.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use regalloc_core::FaultPlan;
use regalloc_driver::pool::ServicePool;
use regalloc_driver::schedule::ClientBudgets;
use regalloc_driver::{AllocationService, DriverConfig, FixedGrant, RequestOptions};
use regalloc_machine::TargetId;
use regalloc_obs::{push_json_str, SharedMetrics};

use crate::proto::{ok_payload, Frame, ERR_ALLOC, ERR_PANIC, ERR_PARSE, ERR_PROTOCOL, ERR_TARGET};

/// Daemon configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The allocation pipeline configuration shared by every request;
    /// `driver.jobs` sizes the worker pool, and `driver.target` serves
    /// requests that carry no `target=` field.
    pub driver: DriverConfig,
    /// Admission watermark: maximum queued+active jobs before `BUSY`.
    pub max_queue: usize,
    /// Admission watermark: maximum summed constraint-count estimate of
    /// admitted-but-unfinished work before `BUSY` (the in-flight
    /// model-size bound that keeps memory use flat).
    pub max_estimate: usize,
    /// Hard cap on a single request payload, in bytes.
    pub max_payload: usize,
    /// Per-client token-bucket capacity (burst solver-time allowance).
    pub client_capacity: Duration,
    /// Bucket refill, in solver-seconds per wall-clock second.
    pub client_refill: f64,
    /// How long a drain waits for in-flight work before demoting the
    /// backlog to zero-budget grants.
    pub drain_grace: Duration,
    /// JSONL request-log path (one line per terminal response).
    pub log_path: Option<PathBuf>,
    /// External stop flag (SIGTERM sets this from `main`); polled by the
    /// accept loop.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            driver: DriverConfig::default(),
            max_queue: 64,
            max_estimate: 200_000,
            max_payload: 1 << 20,
            client_capacity: Duration::from_secs(60),
            client_refill: 1.0,
            drain_grace: Duration::from_secs(5),
            log_path: None,
            stop: None,
        }
    }
}

/// Counters reported when the server exits.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Requests admitted to the pool.
    pub accepted: u64,
    /// Terminal responses written (or attempted) for admitted requests.
    pub responded: u64,
    /// Requests refused with `BUSY`.
    pub busy: u64,
    /// Requests refused with `DRAINING`.
    pub drained_away: u64,
    /// Requests answered `ERR`.
    pub errors: u64,
    /// Solve panics surfaced as per-request errors.
    pub panics: u64,
}

/// How many completed requests the `STATUS` ring remembers.
const RECENT_CAP: usize = 32;

/// One completed allocation request's phase breakdown, kept in the
/// bounded in-memory ring the `STATUS` verb reports.
#[derive(Clone)]
struct RecentRequest {
    id: String,
    client: String,
    rung: String,
    cache: &'static str,
    total: Duration,
    build: Duration,
    solve: Duration,
    validate: Duration,
}

struct State {
    /// The one long-lived service: every registered target's model, the
    /// cache and the donor snapshot frozen at bind.
    svc: AllocationService,
    /// The target served when a request carries no `target=` field (the
    /// daemon's configured driver target).
    default_target: TargetId,
    pool: ServicePool,
    budgets: ClientBudgets,
    metrics: SharedMetrics,
    cfg_max_queue: usize,
    cfg_max_estimate: usize,
    cfg_max_payload: usize,
    drain_grace: Duration,
    function_budget: Duration,
    draining: AtomicBool,
    /// Set once the drain grace expires: queued jobs run with zero grant.
    zero_grants: AtomicBool,
    accepted: AtomicU64,
    responded: AtomicU64,
    drained_away: AtomicU64,
    errors: AtomicU64,
    inflight_estimate: AtomicUsize,
    connections: AtomicUsize,
    log: Option<Mutex<std::fs::File>>,
    /// When the daemon bound its listener (`STATUS` reports uptime
    /// against it).
    started: Instant,
    /// Bounded ring of recently completed requests, newest first.
    recent: Mutex<VecDeque<RecentRequest>>,
}

impl State {
    /// All accepted requests have been answered.
    fn settled(&self) -> bool {
        self.accepted.load(Ordering::SeqCst) == self.responded.load(Ordering::SeqCst)
    }

    fn log_line(&self, fields: &[(&str, String)]) {
        let Some(log) = &self.log else { return };
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut line = format!("{{\"ts_ms\":{ts}");
        for (k, v) in fields {
            line.push_str(&format!(",\"{k}\":"));
            push_json_str(&mut line, v);
        }
        line.push_str("}\n");
        let mut f = log.lock().unwrap();
        let _ = f.write_all(line.as_bytes());
    }

    /// Record a completed request in the `STATUS` ring (newest first,
    /// bounded at [`RECENT_CAP`]).
    fn note_recent(&self, r: RecentRequest) {
        let mut ring = self.recent.lock().unwrap();
        if ring.len() == RECENT_CAP {
            ring.pop_back();
        }
        ring.push_front(r);
    }

    fn log_response(&self, frame: &Frame, client: &str, extra: &[(&str, String)]) {
        let mut fields: Vec<(&str, String)> = vec![
            ("event", "response".to_string()),
            ("verb", frame.verb.clone()),
            ("id", frame.id().to_string()),
            ("client", client.to_string()),
        ];
        for (k, v) in ["rung", "cache", "budget", "granted_ms", "code", "retry_ms"]
            .iter()
            .filter_map(|k| frame.get(k).map(|v| (*k, v.to_string())))
        {
            fields.push((k, v));
        }
        fields.extend(extra.iter().cloned());
        self.log_line(&fields);
    }
}

/// A bound-but-not-yet-serving daemon, so callers can learn the port
/// before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    stop: Option<Arc<AtomicBool>>,
}

impl Server {
    /// Bind the listener and build the shared state (worker pool,
    /// allocation service, budgets). The donor snapshot is frozen here,
    /// exactly like a batch run's cold start.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let log = match &cfg.log_path {
            None => None,
            Some(p) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?,
            )),
        };
        let jobs = cfg.driver.jobs.max(1);
        let state = Arc::new(State {
            default_target: cfg.driver.target,
            pool: ServicePool::new(jobs),
            budgets: ClientBudgets::new(cfg.client_capacity, cfg.client_refill),
            metrics: SharedMetrics::new(),
            cfg_max_queue: cfg.max_queue.max(1),
            cfg_max_estimate: cfg.max_estimate.max(1),
            cfg_max_payload: cfg.max_payload,
            drain_grace: cfg.drain_grace,
            function_budget: cfg.driver.function_budget,
            svc: AllocationService::new(cfg.driver),
            draining: AtomicBool::new(false),
            zero_grants: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            responded: AtomicU64::new(0),
            drained_away: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            inflight_estimate: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            log,
            started: Instant::now(),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
        });
        state.log_line(&[
            ("event", "listening".to_string()),
            ("addr", listener.local_addr()?.to_string()),
            ("jobs", jobs.to_string()),
        ]);
        Ok(Server {
            listener,
            state,
            stop: cfg.stop,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until drained (by a `DRAIN` frame or the external stop
    /// flag), then shut the pool down and report. A clean return means
    /// every accepted request received a terminal response.
    pub fn run(self) -> std::io::Result<ServeReport> {
        let state = &self.state;
        while !state.draining.load(Ordering::SeqCst) {
            if let Some(stop) = &self.stop {
                if stop.load(Ordering::SeqCst) {
                    state.draining.store(true, Ordering::SeqCst);
                    state.log_line(&[
                        ("event", "drain".to_string()),
                        ("source", "signal".to_string()),
                    ]);
                    break;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(state);
                    std::thread::spawn(move || serve_connection(state, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    refresh_gauges(state);
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        drop(self.listener); // stop accepting immediately
        let drain_start = Instant::now();
        // Phase 1: let in-flight and queued work finish under its grants.
        while !(state.settled() && state.pool.is_idle()) {
            if drain_start.elapsed() >= state.drain_grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Phase 2: grace expired — demote everything still queued to
        // zero-budget grants (instant fallback rungs) and wait them out.
        // A request already inside the solver is bounded by its granted
        // deadline, so this loop terminates.
        if !(state.settled() && state.pool.is_idle()) {
            state.zero_grants.store(true, Ordering::SeqCst);
            state.log_line(&[("event", "drain_demote".to_string())]);
            while !(state.settled() && state.pool.is_idle()) {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Phase 3: wait (briefly) for readers to notice and hang up.
        let hangup = Instant::now();
        while state.connections.load(Ordering::SeqCst) > 0
            && hangup.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        state.pool.shutdown();
        let report = ServeReport {
            accepted: state.accepted.load(Ordering::SeqCst),
            responded: state.responded.load(Ordering::SeqCst),
            busy: state.metrics.counter("serve_busy_total", &[]),
            drained_away: state.drained_away.load(Ordering::SeqCst),
            errors: state.errors.load(Ordering::SeqCst),
            panics: state.metrics.counter("serve_panics_total", &[]),
        };
        state.log_line(&[
            ("event", "drained".to_string()),
            ("accepted", report.accepted.to_string()),
            ("responded", report.responded.to_string()),
            ("busy", report.busy.to_string()),
            ("errors", report.errors.to_string()),
        ]);
        Ok(report)
    }
}

fn refresh_gauges(state: &State) {
    let m = &state.metrics;
    m.set_gauge(
        "serve_queue_depth",
        &[],
        (state.pool.queued() + state.pool.active()) as f64,
    );
    m.set_gauge(
        "serve_inflight_estimate",
        &[],
        state.inflight_estimate.load(Ordering::SeqCst) as f64,
    );
    m.set_gauge(
        "serve_connections",
        &[],
        state.connections.load(Ordering::SeqCst) as f64,
    );
    if let Some(rss) = rss_bytes() {
        m.set_gauge("serve_rss_bytes", &[], rss as f64);
    }
}

/// Resident set size from `/proc/self/statm` (Linux; `None` elsewhere).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Shared, mutex-serialized response writer: worker threads and the
/// reader interleave whole frames, never partial ones.
type ConnWriter = Arc<Mutex<TcpStream>>;

fn send(state: &State, w: &ConnWriter, frame: &Frame, client: &str, count_response: bool) {
    send_logged(state, w, frame, client, count_response, &[]);
}

fn send_logged(
    state: &State,
    w: &ConnWriter,
    frame: &Frame,
    client: &str,
    count_response: bool,
    extra: &[(&str, String)],
) {
    // Count before writing: a client that reads this frame and then asks
    // for `STATUS` must see it counted. Drain stays correct because it
    // also waits for the pool to go idle, which happens only after the
    // job's write returns.
    if count_response {
        state.responded.fetch_add(1, Ordering::SeqCst);
    }
    // A dead peer is not an error: the response is still "written" for
    // accounting (exactly-one-terminal-response is about the server
    // side; a client that hangs up forfeits delivery).
    let _ = frame.write_to(&mut *w.lock().unwrap());
    state.log_response(frame, client, extra);
    state.metrics.inc(
        "serve_responses_total",
        &[("verb", verb_label(&frame.verb))],
        1,
    );
}

/// Answer a request refused before admission: count the error and send
/// an `ERR` frame carrying `code` and `message`. Nothing was admitted, so
/// no response is counted.
fn refuse(
    state: &State,
    w: &ConnWriter,
    id: &str,
    client: &str,
    code: &str,
    message: impl Into<Vec<u8>>,
) {
    state.errors.fetch_add(1, Ordering::SeqCst);
    let resp = Frame::new("ERR")
        .field("id", id)
        .field("code", code)
        .with_payload(message.into());
    send(state, w, &resp, client, false);
}

fn verb_label(verb: &str) -> &'static str {
    match verb {
        "OK" => "ok",
        "ERR" => "err",
        "BUSY" => "busy",
        "DRAINING" => "draining",
        "PONG" => "pong",
        _ => "other",
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `read_exact` that rides out read timeouts (the per-connection 100 ms
/// timeout exists so *idle* readers notice a drain; mid-frame, a slow
/// sender must not corrupt the stream). Returns `Ok(false)` on EOF.
fn read_exact_patient(r: &mut impl BufRead, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve_connection(state: Arc<State>, stream: TcpStream) {
    state.connections.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // Responses are whole frames written at once: Nagle's algorithm would
    // only hold a small response back until the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let writer: ConnWriter = match stream.try_clone() {
        Ok(s) => Arc::new(Mutex::new(s)),
        Err(_) => {
            state.connections.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    // Requests this connection has admitted but not yet answered; the
    // reader only hangs up during drain once they are all settled.
    let outstanding = Arc::new(AtomicUsize::new(0));
    // Persistent across timeouts: a header split over several reads
    // accumulates here instead of being dropped.
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if !line.ends_with('\n') => break, // EOF mid-line
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if state.draining.load(Ordering::SeqCst)
                    && outstanding.load(Ordering::SeqCst) == 0
                    && line.is_empty()
                {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.starts_with("GET ") {
            serve_http(&state, &mut reader, &writer, trimmed);
            break; // HTTP is one-shot: respond and close
        }
        let frame = match Frame::parse_header(trimmed) {
            Ok(f) => f,
            Err(e) => {
                refuse(&state, &writer, "?", "?", ERR_PROTOCOL, e);
                break; // framing is lost; close the connection
            }
        };
        line.clear();
        let mut frame = frame;
        if let Some(n) = frame.get("bytes") {
            let n: usize = match n.parse() {
                Ok(n) if n <= state.cfg_max_payload => n,
                _ => {
                    // Reject before allocating: a hostile `bytes=` cannot
                    // OOM the server. The payload boundary is unknown now,
                    // so the connection closes after the error.
                    refuse(
                        &state,
                        &writer,
                        frame.id(),
                        frame.get("client").unwrap_or("?"),
                        ERR_PROTOCOL,
                        format!(
                            "bad or oversized payload length (cap {} bytes)",
                            state.cfg_max_payload
                        ),
                    );
                    break;
                }
            };
            let mut payload = vec![0u8; n];
            match read_exact_patient(&mut reader, &mut payload) {
                Ok(true) => frame.payload = payload,
                _ => break, // peer died mid-payload
            }
        }
        handle_frame(&state, &writer, frame, &outstanding);
    }
    state.connections.fetch_sub(1, Ordering::SeqCst);
}

fn serve_http(state: &State, reader: &mut impl BufRead, writer: &ConnWriter, request: &str) {
    // Swallow the rest of the HTTP request head.
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(_) => return,
        }
    }
    refresh_gauges(state);
    let (status, body) = if request.starts_with("GET /metrics") {
        ("200 OK", state.metrics.to_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut w = writer.lock().unwrap();
    let _ = w.write_all(resp.as_bytes());
    let _ = w.flush();
    state.log_line(&[
        ("event", "http".to_string()),
        ("path", request.split(' ').nth(1).unwrap_or("?").to_string()),
    ]);
}

fn handle_frame(
    state: &Arc<State>,
    writer: &ConnWriter,
    frame: Frame,
    outstanding: &Arc<AtomicUsize>,
) {
    match frame.verb.as_str() {
        "PING" => {
            let resp = Frame::new("PONG").field("id", frame.id());
            send(
                state,
                writer,
                &resp,
                frame.get("client").unwrap_or("?"),
                false,
            );
        }
        "DRAIN" => {
            state.draining.store(true, Ordering::SeqCst);
            state.log_line(&[
                ("event", "drain".to_string()),
                ("source", "command".to_string()),
            ]);
            let resp = Frame::new("OK")
                .field("id", frame.id())
                .field("draining", 1);
            send(
                state,
                writer,
                &resp,
                frame.get("client").unwrap_or("?"),
                false,
            );
        }
        "STATUS" => {
            state
                .metrics
                .inc("serve_requests_total", &[("verb", "status")], 1);
            refresh_gauges(state);
            let mut payload = String::new();
            {
                let ring = state.recent.lock().unwrap();
                for r in ring.iter() {
                    use std::fmt::Write as _;
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    let _ = writeln!(
                        payload,
                        "req id={} client={} rung={} cache={} total_ms={:.3} build_ms={:.3} solve_ms={:.3} validate_ms={:.3}",
                        r.id,
                        r.client,
                        r.rung,
                        r.cache,
                        ms(r.total),
                        ms(r.build),
                        ms(r.solve),
                        ms(r.validate),
                    );
                }
            }
            let resp = Frame::new("OK")
                .field("id", frame.id())
                .field("status", 1)
                .field("uptime_ms", state.started.elapsed().as_millis() as u64)
                .field("accepted", state.accepted.load(Ordering::SeqCst))
                .field("responded", state.responded.load(Ordering::SeqCst))
                .field("busy", state.metrics.counter("serve_busy_total", &[]))
                .field("errors", state.errors.load(Ordering::SeqCst))
                .field("queued", state.pool.queued() as u64)
                .field("active", state.pool.active() as u64)
                .with_payload(payload.into_bytes());
            send(
                state,
                writer,
                &resp,
                frame.get("client").unwrap_or("?"),
                false,
            );
        }
        "ALLOC" => handle_alloc(state, writer, frame, outstanding),
        other => refuse(
            state,
            writer,
            frame.id(),
            frame.get("client").unwrap_or("?"),
            ERR_PROTOCOL,
            format!("unknown verb `{other}`"),
        ),
    }
}

fn handle_alloc(
    state: &Arc<State>,
    writer: &ConnWriter,
    frame: Frame,
    outstanding: &Arc<AtomicUsize>,
) {
    let id = frame.id().to_string();
    let client = frame.get("client").unwrap_or("anon").to_string();
    state
        .metrics
        .inc("serve_requests_total", &[("verb", "alloc")], 1);
    if state.draining.load(Ordering::SeqCst) {
        state.drained_away.fetch_add(1, Ordering::SeqCst);
        let resp = Frame::new("DRAINING").field("id", &id);
        send(state, writer, &resp, &client, false);
        return;
    }
    // Parse before admission: a garbage payload must not consume queue
    // space or client budget.
    let err = |code: &str, message: String| refuse(state, writer, &id, &client, code, message);
    let text = match std::str::from_utf8(&frame.payload) {
        Ok(t) => t,
        Err(e) => return err(ERR_PARSE, e.to_string()),
    };
    let mut funcs = match regalloc_driver::parse_functions(&id, text) {
        Ok(f) => f,
        Err(e) => return err(ERR_PARSE, e),
    };
    if funcs.len() != 1 {
        return err(
            ERR_PARSE,
            format!(
                "expected exactly 1 function per request, got {}",
                funcs.len()
            ),
        );
    }
    let func = funcs.remove(0);
    // Target selection: an absent field serves the daemon's default; an
    // unregistered name is the client's error, refused before admission.
    let target = match frame.get("target") {
        None => state.default_target,
        Some(name) => match TargetId::parse(name) {
            Some(t) => t,
            None => {
                let known: Vec<&str> = TargetId::ALL.iter().map(|t| t.name()).collect();
                return err(
                    ERR_TARGET,
                    format!(
                        "unknown target `{name}` (registered targets: {})",
                        known.join(", ")
                    ),
                );
            }
        },
    };
    let estimate = state.svc.estimate(&func);

    // Admission control: shed load with an explicit BUSY before anything
    // is queued, so memory stays bounded by the watermarks.
    let pending = state.pool.queued() + state.pool.active();
    let est_inflight = state.inflight_estimate.load(Ordering::SeqCst);
    if pending >= state.cfg_max_queue
        || est_inflight.saturating_add(estimate) > state.cfg_max_estimate
    {
        state.metrics.inc("serve_busy_total", &[], 1);
        // Hint scales with the backlog: deeper queue, longer back-off.
        let retry_ms = 25u64.saturating_mul(pending.max(1) as u64).min(2_000);
        let resp = Frame::new("BUSY")
            .field("id", &id)
            .field("retry_ms", retry_ms);
        send(state, writer, &resp, &client, false);
        return;
    }

    // Charge the client's bucket with the requested deadline (capped at
    // the server's per-function ceiling).
    let want = frame
        .get_u64("budget_ms")
        .map(Duration::from_millis)
        .unwrap_or(state.function_budget)
        .min(state.function_budget);
    let (granted, disposition) = state.budgets.charge(&client, want);
    state.metrics.inc(
        "serve_grants_total",
        &[("disposition", disposition.name())],
        1,
    );

    let opts = RequestOptions {
        lint: frame.get("lint").map(|v| v == "1"),
        faults: frame.get_u64("fault_seed").map(FaultPlan::seeded),
    };

    state
        .inflight_estimate
        .fetch_add(estimate, Ordering::SeqCst);
    state.accepted.fetch_add(1, Ordering::SeqCst);
    outstanding.fetch_add(1, Ordering::SeqCst);
    let state2 = Arc::clone(state);
    let writer2 = Arc::clone(writer);
    let outstanding2 = Arc::clone(outstanding);
    state.pool.submit(move || {
        run_alloc_job(
            &state2,
            &writer2,
            &outstanding2,
            &id,
            &client,
            target,
            &func,
            estimate,
            granted,
            want,
            disposition,
            &opts,
        );
    });
}

#[allow(clippy::too_many_arguments)]
fn run_alloc_job(
    state: &State,
    writer: &ConnWriter,
    outstanding: &AtomicUsize,
    id: &str,
    client: &str,
    target: TargetId,
    func: &regalloc_ir::Function,
    estimate: usize,
    granted: Duration,
    want: Duration,
    disposition: regalloc_driver::schedule::GrantDisposition,
    opts: &RequestOptions,
) {
    let t0 = Instant::now();
    // Drain past its grace demotes queued work: zero grant, instant
    // fallback rungs, the request still gets its OK (with
    // budget=exhausted so the client knows why the rung is low).
    let (granted, disposition) = if state.zero_grants.load(Ordering::SeqCst) {
        (
            Duration::ZERO,
            regalloc_driver::schedule::GrantDisposition::Exhausted,
        )
    } else {
        (granted, disposition)
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        state
            .svc
            .allocate_one(target, func, estimate, &FixedGrant(granted), opts)
    }));
    state
        .budgets
        .settle(client, granted, t0.elapsed().min(granted));
    state
        .inflight_estimate
        .fetch_sub(estimate, Ordering::SeqCst);
    let total = t0.elapsed();
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    let mut extra: Vec<(&str, String)> = vec![("duration_ms", ms(total))];
    let resp = match outcome {
        Ok(r) => {
            state.metrics.merge(&r.metrics);
            extra.push(("build_ms", ms(r.build_time)));
            extra.push(("solve_ms", ms(r.solve_time)));
            extra.push(("validate_ms", ms(r.validate_time)));
            state.note_recent(RecentRequest {
                id: id.to_string(),
                client: client.to_string(),
                rung: r.rung.map_or("none", |x| x.name()).to_string(),
                cache: if r.cache_hit { "hit" } else { "miss" },
                total,
                build: r.build_time,
                solve: r.solve_time,
                validate: r.validate_time,
            });
            match &r.error {
                None => Frame::new("OK")
                    .field("id", id)
                    .field("target", target.name())
                    .field("rung", r.rung.map_or("none", |x| x.name()))
                    .field("cache", if r.cache_hit { "hit" } else { "miss" })
                    .field("budget", disposition.name())
                    .field("granted_ms", granted.as_millis() as u64)
                    .field("want_ms", want.as_millis() as u64)
                    .with_payload(ok_payload(&r)),
                Some(e) => {
                    state.errors.fetch_add(1, Ordering::SeqCst);
                    Frame::new("ERR")
                        .field("id", id)
                        .field("code", ERR_ALLOC)
                        .with_payload(e.clone().into_bytes())
                }
            }
        }
        Err(panic) => {
            state.errors.fetch_add(1, Ordering::SeqCst);
            state.metrics.inc("serve_panics_total", &[], 1);
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solve panicked".to_string());
            Frame::new("ERR")
                .field("id", id)
                .field("code", ERR_PANIC)
                .with_payload(msg.into_bytes())
        }
    };
    send_logged(state, writer, &resp, client, true, &extra);
    outstanding.fetch_sub(1, Ordering::SeqCst);
}
