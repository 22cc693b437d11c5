//! Span/event tracing with timing quarantined away from deterministic output.
//!
//! A [`Tracer`] lives for the duration of one function's trip through the
//! pipeline (one task on one worker — it is intentionally not `Sync`). Stages
//! record typed [`Event`]s and phase spans; [`Tracer::finish`] drains the
//! recorder into a [`FunctionTrace`] whose `events` are a pure function of the
//! input (bit-identical across thread counts and machines) and whose
//! `phase_times` hold everything wall-clock.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Pipeline phases that accumulate wall-clock time.
///
/// `Presolve` and `Simplex` are sub-phases of `Solve` (time spent in bound
/// propagation and in LP pivoting inside the branch-and-bound loop), so the
/// per-phase totals deliberately overlap: `Solve >= Presolve + Simplex`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// IR → 0-1 IP model construction.
    Build,
    /// Whole branch-and-bound solver call (matches `Solution::solve_time`).
    Solve,
    /// Bound propagation inside the search (sub-phase of `Solve`).
    Presolve,
    /// LP pivoting inside the search (sub-phase of `Solve`).
    Simplex,
    /// Solution → rewritten machine function.
    Rewrite,
    /// Structural machine-function verification.
    Verify,
    /// Static dataflow translation validation (lint crate).
    StaticValidate,
    /// Interpreter equivalence check.
    InterpCheck,
    /// Baseline (coloring) allocator attempt.
    Baseline,
    /// Spill-everything fallback.
    Fallback,
    /// Machine-code size estimation.
    Encode,
    /// Solution-cache lookup and revalidation.
    Cache,
    /// Certificate auditing (exact-rational proof checking).
    Audit,
}

impl Phase {
    pub const ALL: [Phase; 13] = [
        Phase::Build,
        Phase::Solve,
        Phase::Presolve,
        Phase::Simplex,
        Phase::Rewrite,
        Phase::Verify,
        Phase::StaticValidate,
        Phase::InterpCheck,
        Phase::Baseline,
        Phase::Fallback,
        Phase::Encode,
        Phase::Cache,
        Phase::Audit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Solve => "solve",
            Phase::Presolve => "presolve",
            Phase::Simplex => "simplex",
            Phase::Rewrite => "rewrite",
            Phase::Verify => "verify",
            Phase::StaticValidate => "static-validate",
            Phase::InterpCheck => "interp-check",
            Phase::Baseline => "baseline",
            Phase::Fallback => "fallback",
            Phase::Encode => "encode",
            Phase::Cache => "cache",
            Phase::Audit => "audit",
        }
    }

    fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }
}

/// A deterministic trace event. All payload fields are derived from the input
/// problem, never from clocks, addresses or scheduling order.
///
/// String fields are `&'static str` on purpose: producers pass stable names
/// (`Rung::name()`, `Status` names, reason codes) and the crate stays
/// allocation-light and dependency-free.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A phase span opened.
    SpanStart { phase: Phase },
    /// A phase span closed (duration lives in the timing section only).
    SpanEnd { phase: Phase },
    /// The 0-1 IP model for the function was built.
    ModelBuilt {
        insts: u64,
        vars: u64,
        constraints: u64,
    },
    /// A warm-start seed was feasible and entered the incumbent pool.
    SeedAccepted {
        source: &'static str,
        objective: f64,
    },
    /// A warm-start seed was rejected before the search began.
    SeedRejected {
        source: &'static str,
        reason: &'static str,
    },
    /// The LP-guided diving heuristic finished. `depth` is the number of
    /// variables the dive explicitly fixed before it stopped.
    Dive {
        lp_iters: u64,
        depth: u64,
        improved: bool,
    },
    /// One branch-and-bound node was processed. `lp_iters` counts the simplex
    /// iterations spent on this node even when it is pruned or abandoned;
    /// it is 0 on the root when the root took the dive's first relaxation
    /// (the same box), whose iterations the `Dive` event carries. `depth`
    /// is the number of branching decisions from the root.
    Node {
        index: u64,
        depth: u64,
        lp_iters: u64,
        outcome: &'static str,
    },
    /// The incumbent improved.
    Incumbent {
        nodes: u64,
        objective: f64,
        source: &'static str,
    },
    /// Solver numerical health crossed a state boundary.
    Health {
        from: &'static str,
        to: &'static str,
    },
    /// The branch-and-bound call returned.
    SolveDone {
        status: &'static str,
        nodes: u64,
        lp_iters: u64,
        warm_start_only: bool,
    },
    /// The degradation ladder demoted the function off a rung.
    Demoted {
        rung: &'static str,
        reason: &'static str,
    },
    /// A candidate was accepted at the given rung.
    Accepted {
        rung: &'static str,
        warm_start: &'static str,
    },
    /// Solution-cache lookup outcome (hit / miss / stale / rejected).
    CacheLookup { outcome: &'static str },
    /// Lint findings for this function, one event per diagnostic code.
    LintFindings { code: &'static str, count: u64 },
    /// A solver proof certificate passed the exact-rational audit.
    CertificateChecked { leaves: u64 },
    /// A certificate was rejected (or missing); `code` is the slug of the
    /// first audit finding (e.g. `weak-bound`, `missing-certificate`).
    CertificateRejected { code: &'static str },
    /// Flight-recorder rollup of the solver's always-on effort counters,
    /// emitted once per solve just before `SolveDone`. Every field is a
    /// pure function of the input model and solver configuration.
    SolverCounters {
        pivots: u64,
        degenerate_pivots: u64,
        ratio_test_ties: u64,
        presolve_eliminations: u64,
        max_dive_depth: u64,
    },
}

impl Event {
    /// Stable snake-case record type used in the JSONL sink.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanStart { .. } => "span-start",
            Event::SpanEnd { .. } => "span-end",
            Event::ModelBuilt { .. } => "model",
            Event::SeedAccepted { .. } => "seed-accepted",
            Event::SeedRejected { .. } => "seed-rejected",
            Event::Dive { .. } => "dive",
            Event::Node { .. } => "node",
            Event::Incumbent { .. } => "incumbent",
            Event::Health { .. } => "health",
            Event::SolveDone { .. } => "solve-done",
            Event::Demoted { .. } => "demoted",
            Event::Accepted { .. } => "accepted",
            Event::CacheLookup { .. } => "cache",
            Event::LintFindings { .. } => "lint",
            Event::CertificateChecked { .. } => "certificate-checked",
            Event::CertificateRejected { .. } => "certificate-rejected",
            Event::SolverCounters { .. } => "solver-counters",
        }
    }
}

/// The drained recording for one function: deterministic `events` plus
/// quarantined wall-clock `phase_times` (only phases that accumulated time,
/// in `Phase::ALL` order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FunctionTrace {
    pub function: String,
    pub events: Vec<Event>,
    pub phase_times: Vec<(Phase, Duration)>,
}

impl FunctionTrace {
    pub fn phase_seconds(&self, phase: Phase) -> f64 {
        self.phase_times
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0.0, |(_, d)| d.as_secs_f64())
    }

    /// `(insts, vars, constraints)` from the `ModelBuilt` event, if any.
    pub fn model_built(&self) -> Option<(u64, u64, u64)> {
        self.events.iter().find_map(|e| match e {
            Event::ModelBuilt {
                insts,
                vars,
                constraints,
            } => Some((*insts, *vars, *constraints)),
            _ => None,
        })
    }

    /// `(status, nodes, lp_iters)` from the last `SolveDone` event, if any.
    pub fn solve_done(&self) -> Option<(&'static str, u64, u64)> {
        self.events.iter().rev().find_map(|e| match e {
            Event::SolveDone {
                status,
                nodes,
                lp_iters,
                ..
            } => Some((*status, *nodes, *lp_iters)),
            _ => None,
        })
    }

    /// Sum of per-node and dive simplex iterations recorded in the events.
    pub fn node_lp_iters(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Node { lp_iters, .. } | Event::Dive { lp_iters, .. } => *lp_iters,
                _ => 0,
            })
            .sum()
    }

    /// Rung of the final `Accepted` event, if any.
    pub fn accepted_rung(&self) -> Option<&'static str> {
        self.events.iter().rev().find_map(|e| match e {
            Event::Accepted { rung, .. } => Some(*rung),
            _ => None,
        })
    }
}

#[derive(Default)]
struct Inner {
    events: Vec<Event>,
    times: [Duration; Phase::ALL.len()],
}

/// Per-task trace recorder. Cheap to construct disabled ([`Tracer::off`]);
/// every recording method is a no-op gated on one bool in that case.
///
/// Interior mutability (`RefCell`) keeps the producer-side API `&self`, so a
/// single `&Tracer` threads through the pipeline, solver and validators
/// without infecting their signatures with `&mut`.
pub struct Tracer {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A disabled tracer: records nothing, costs a branch per call site.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Record an event. The closure only runs when tracing is enabled, so
    /// callers can build payloads without cost on the disabled path.
    pub fn event(&self, make: impl FnOnce() -> Event) {
        if self.enabled {
            self.inner.borrow_mut().events.push(make());
        }
    }

    /// Open a span: emits `SpanStart` now, `SpanEnd` plus accumulated
    /// wall-clock time on drop.
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        self.event(|| Event::SpanStart { phase });
        SpanGuard {
            tracer: self,
            phase,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Accumulate wall-clock time for `phase` without emitting span events.
    /// Used inside hot loops (per-node propagate / LP calls) where span
    /// events would drown the stream but timing attribution still matters.
    pub fn time(&self, phase: Phase) -> TimeGuard<'_> {
        TimeGuard {
            tracer: self,
            phase,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Add an externally measured duration to a phase (e.g. the solver's own
    /// `solve_time` so trace totals match `Solution` exactly).
    pub fn add_time(&self, phase: Phase, d: Duration) {
        if self.enabled {
            self.inner.borrow_mut().times[phase.index()] += d;
        }
    }

    /// Drain the recorder into a [`FunctionTrace`] for `function`.
    pub fn finish(&self, function: &str) -> FunctionTrace {
        let mut inner = self.inner.borrow_mut();
        let events = std::mem::take(&mut inner.events);
        let mut phase_times = Vec::new();
        for phase in Phase::ALL {
            let d = std::mem::take(&mut inner.times[phase.index()]);
            if d != Duration::ZERO {
                phase_times.push((phase, d));
            }
        }
        FunctionTrace {
            function: function.to_string(),
            events,
            phase_times,
        }
    }
}

/// Guard returned by [`Tracer::span`].
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer.add_time(self.phase, start.elapsed());
            self.tracer.event(|| Event::SpanEnd { phase: self.phase });
        }
    }
}

/// Guard returned by [`Tracer::time`]: timing only, no events.
pub struct TimeGuard<'a> {
    tracer: &'a Tracer,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for TimeGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer.add_time(self.phase, start.elapsed());
        }
    }
}

/// Append `s` to `out` as a quoted JSON string literal. Quotes,
/// backslashes, `\n`, `\r` and `\t` get their short escapes; every other
/// control character is written as `\u00XX`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // JSON has no NaN/Inf; clamp to null which every consumer treats as
    // "absent". Finite values print via Rust's shortest round-trip format,
    // which is deterministic across platforms.
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `{}` omits the decimal point for integral floats; keep it a JSON
        // number either way (5 and 5.0 are both valid), nothing to fix up.
    } else {
        out.push_str("null");
    }
}

/// Append the deterministic event records for one function, one JSON object
/// per line. Line grammar is checked by `scripts/check_trace_schema.py`.
pub fn jsonl_events(out: &mut String, trace: &FunctionTrace) {
    for event in &trace.events {
        out.push_str("{\"type\":");
        push_json_str(out, event.kind());
        out.push_str(",\"fn\":");
        push_json_str(out, &trace.function);
        match event {
            Event::SpanStart { phase } | Event::SpanEnd { phase } => {
                out.push_str(",\"phase\":");
                push_json_str(out, phase.name());
            }
            Event::ModelBuilt {
                insts,
                vars,
                constraints,
            } => {
                let _ = write!(
                    out,
                    ",\"insts\":{insts},\"vars\":{vars},\"constraints\":{constraints}"
                );
            }
            Event::SeedAccepted { source, objective } => {
                out.push_str(",\"source\":");
                push_json_str(out, source);
                out.push_str(",\"objective\":");
                push_f64(out, *objective);
            }
            Event::SeedRejected { source, reason } => {
                out.push_str(",\"source\":");
                push_json_str(out, source);
                out.push_str(",\"reason\":");
                push_json_str(out, reason);
            }
            Event::Dive {
                lp_iters,
                depth,
                improved,
            } => {
                let _ = write!(
                    out,
                    ",\"lp_iters\":{lp_iters},\"depth\":{depth},\"improved\":{improved}"
                );
            }
            Event::Node {
                index,
                depth,
                lp_iters,
                outcome,
            } => {
                let _ = write!(
                    out,
                    ",\"index\":{index},\"depth\":{depth},\"lp_iters\":{lp_iters}"
                );
                out.push_str(",\"outcome\":");
                push_json_str(out, outcome);
            }
            Event::Incumbent {
                nodes,
                objective,
                source,
            } => {
                let _ = write!(out, ",\"nodes\":{nodes}");
                out.push_str(",\"objective\":");
                push_f64(out, *objective);
                out.push_str(",\"source\":");
                push_json_str(out, source);
            }
            Event::Health { from, to } => {
                out.push_str(",\"from\":");
                push_json_str(out, from);
                out.push_str(",\"to\":");
                push_json_str(out, to);
            }
            Event::SolveDone {
                status,
                nodes,
                lp_iters,
                warm_start_only,
            } => {
                out.push_str(",\"status\":");
                push_json_str(out, status);
                let _ = write!(
                    out,
                    ",\"nodes\":{nodes},\"lp_iters\":{lp_iters},\"warm_start_only\":{warm_start_only}"
                );
            }
            Event::Demoted { rung, reason } => {
                out.push_str(",\"rung\":");
                push_json_str(out, rung);
                out.push_str(",\"reason\":");
                push_json_str(out, reason);
            }
            Event::Accepted { rung, warm_start } => {
                out.push_str(",\"rung\":");
                push_json_str(out, rung);
                out.push_str(",\"warm_start\":");
                push_json_str(out, warm_start);
            }
            Event::CacheLookup { outcome } => {
                out.push_str(",\"outcome\":");
                push_json_str(out, outcome);
            }
            Event::LintFindings { code, count } => {
                out.push_str(",\"code\":");
                push_json_str(out, code);
                let _ = write!(out, ",\"count\":{count}");
            }
            Event::CertificateChecked { leaves } => {
                let _ = write!(out, ",\"leaves\":{leaves}");
            }
            Event::CertificateRejected { code } => {
                out.push_str(",\"code\":");
                push_json_str(out, code);
            }
            Event::SolverCounters {
                pivots,
                degenerate_pivots,
                ratio_test_ties,
                presolve_eliminations,
                max_dive_depth,
            } => {
                let _ = write!(
                    out,
                    ",\"pivots\":{pivots},\"degenerate_pivots\":{degenerate_pivots},\"ratio_test_ties\":{ratio_test_ties},\"presolve_eliminations\":{presolve_eliminations},\"max_dive_depth\":{max_dive_depth}"
                );
            }
        }
        out.push_str("}\n");
    }
}

/// Append the quarantined timing records for one function. Timing records
/// always use `"type":"timing"` so consumers (and the determinism test) can
/// strip them with a single predicate.
pub fn jsonl_timings(out: &mut String, trace: &FunctionTrace) {
    for (phase, d) in &trace.phase_times {
        out.push_str("{\"type\":\"timing\",\"fn\":");
        push_json_str(out, &trace.function);
        out.push_str(",\"phase\":");
        push_json_str(out, phase.name());
        let _ = writeln!(out, ",\"seconds\":{:.9}}}", d.as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        {
            let _s = t.span(Phase::Build);
            t.event(|| panic!("payload closure must not run when disabled"));
        }
        let trace = t.finish("f");
        assert!(trace.events.is_empty());
        assert!(trace.phase_times.is_empty());
    }

    #[test]
    fn span_emits_paired_events_and_time() {
        let t = Tracer::on();
        {
            let _s = t.span(Phase::Build);
            std::thread::sleep(Duration::from_millis(2));
        }
        let trace = t.finish("f");
        assert_eq!(
            trace.events,
            vec![
                Event::SpanStart {
                    phase: Phase::Build
                },
                Event::SpanEnd {
                    phase: Phase::Build
                },
            ]
        );
        assert!(trace.phase_seconds(Phase::Build) > 0.0);
        assert_eq!(trace.phase_seconds(Phase::Solve), 0.0);
    }

    #[test]
    fn time_guard_accumulates_without_events() {
        let t = Tracer::on();
        t.add_time(Phase::Simplex, Duration::from_millis(3));
        {
            let _g = t.time(Phase::Simplex);
        }
        let trace = t.finish("f");
        assert!(trace.events.is_empty());
        assert!(trace.phase_seconds(Phase::Simplex) >= 0.003);
    }

    #[test]
    fn finish_drains_the_recorder() {
        let t = Tracer::on();
        t.event(|| Event::CacheLookup { outcome: "miss" });
        let first = t.finish("f");
        assert_eq!(first.events.len(), 1);
        let second = t.finish("f");
        assert!(second.events.is_empty());
    }

    #[test]
    fn jsonl_escapes_and_separates_timing() {
        let trace = FunctionTrace {
            function: "odd\"name\\".to_string(),
            events: vec![
                Event::ModelBuilt {
                    insts: 3,
                    vars: 10,
                    constraints: 7,
                },
                Event::SolveDone {
                    status: "optimal",
                    nodes: 1,
                    lp_iters: 12,
                    warm_start_only: false,
                },
            ],
            phase_times: vec![(Phase::Build, Duration::from_micros(1500))],
        };
        let mut det = String::new();
        jsonl_events(&mut det, &trace);
        assert!(det.contains("\"fn\":\"odd\\\"name\\\\\""));
        assert!(det.contains("\"constraints\":7"));
        assert!(!det.contains("\"type\":\"timing\""));
        let mut timing = String::new();
        jsonl_timings(&mut timing, &trace);
        assert!(timing.starts_with("{\"type\":\"timing\""));
        assert!(timing.contains("\"phase\":\"build\""));
    }

    #[test]
    fn solver_counters_serialize_deterministically() {
        let trace = FunctionTrace {
            function: "f".into(),
            events: vec![Event::SolverCounters {
                pivots: 42,
                degenerate_pivots: 3,
                ratio_test_ties: 7,
                presolve_eliminations: 11,
                max_dive_depth: 5,
            }],
            phase_times: vec![],
        };
        let mut out = String::new();
        jsonl_events(&mut out, &trace);
        assert_eq!(
            out,
            "{\"type\":\"solver-counters\",\"fn\":\"f\",\"pivots\":42,\
             \"degenerate_pivots\":3,\"ratio_test_ties\":7,\
             \"presolve_eliminations\":11,\"max_dive_depth\":5}\n"
        );
    }

    #[test]
    fn trace_helpers_find_events() {
        let trace = FunctionTrace {
            function: "f".into(),
            events: vec![
                Event::ModelBuilt {
                    insts: 4,
                    vars: 8,
                    constraints: 6,
                },
                Event::Dive {
                    lp_iters: 5,
                    depth: 2,
                    improved: true,
                },
                Event::Node {
                    index: 1,
                    depth: 0,
                    lp_iters: 7,
                    outcome: "pruned",
                },
                Event::SolveDone {
                    status: "optimal",
                    nodes: 1,
                    lp_iters: 12,
                    warm_start_only: false,
                },
                Event::Accepted {
                    rung: "ip-optimal",
                    warm_start: "none",
                },
            ],
            phase_times: vec![],
        };
        assert_eq!(trace.model_built(), Some((4, 8, 6)));
        assert_eq!(trace.solve_done(), Some(("optimal", 1, 12)));
        assert_eq!(trace.node_lp_iters(), 12);
        assert_eq!(trace.accepted_rung(), Some("ip-optimal"));
    }

    #[test]
    fn phase_index_is_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
