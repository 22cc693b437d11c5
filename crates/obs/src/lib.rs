//! Deterministic structured tracing and metrics for the allocation pipeline.
//!
//! This crate is deliberately dependency-free. It provides two small layers:
//!
//! * [`trace`] — a per-task span/event recorder ([`Tracer`]) producing a
//!   [`FunctionTrace`] per allocated function. Events are fully deterministic
//!   (no clocks, no addresses); wall-clock timing is accumulated separately
//!   per [`Phase`] and quarantined so deterministic output never depends on
//!   it.
//! * [`metrics`] — a [`Metrics`] registry of counters, gauges and fixed-bucket
//!   histograms with deterministic (sorted) iteration order, mergeable across
//!   worker shards, with a Prometheus-style text exposition writer.
//!
//! The tracer is default-off: every recording entry point is gated on a bool
//! checked before any allocation or formatting happens, so threading a
//! disabled `Tracer` through the hot solver loops costs a branch.

pub mod metrics;
pub mod trace;

pub use metrics::{
    BucketMismatch, Histogram, Metrics, QuantileSketch, SharedMetrics, QUANTILES, SIZE_BUCKETS,
    TIME_BUCKETS,
};
pub use trace::{
    jsonl_events, jsonl_timings, push_json_str, Event, FunctionTrace, Phase, SpanGuard, TimeGuard,
    Tracer,
};
