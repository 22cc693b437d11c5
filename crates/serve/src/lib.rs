//! `regalloc-serve` — allocation as a service.
//!
//! The paper's allocator is a batch tool: functions in, allocations out,
//! process exits. This crate wraps the same pipeline (literally the same
//! code — [`regalloc_driver::AllocationService`]) in a hardened,
//! long-running TCP daemon:
//!
//! * [`proto`] — the line-oriented framed wire protocol (requests carry
//!   ids, client ids and per-request options; every request gets exactly
//!   one terminal response);
//! * [`server`] — the daemon: admission control with explicit `BUSY`
//!   backpressure, per-client token-bucket budgets, panic isolation,
//!   SIGTERM/`DRAIN` graceful drain, and a Prometheus `/metrics`
//!   endpoint multiplexed on the same port;
//! * [`client`] — a blocking pipelining-capable client;
//! * [`soak`] — the seeded chaos soak that gates all of it.
//!
//! [`proto`] states the wire grammar; `DESIGN.md` ("Allocation as a
//! service") covers the drain and backpressure semantics.

pub mod client;
pub mod proto;
pub mod server;
pub mod soak;

pub use client::{scrape_metrics, AllocOptions, Client, Response};
pub use proto::Frame;
pub use server::{ServeConfig, ServeReport, Server};
pub use soak::{run_soak, SoakConfig, SoakOutcome};
