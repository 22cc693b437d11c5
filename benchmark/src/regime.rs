//! The benchmark's solver regime — the one place its limits live.
//!
//! The regime is deliberately *not* `regalloc_driver::observatory::
//! observatory_config`: that function belongs to the regression snapshot
//! and may change with it, while the benchmark must keep measuring the
//! same program until it is edited on purpose.
//!
//! Every solve ends on a deterministic node or LP-iteration limit. The
//! wall-clock limits are far above any solve the workloads contain (the
//! regime guard in `lib.rs` fails a run whose slowest solve gets within
//! half of them), and the row cap is above the largest model of any
//! workload, so no model is declined for its size.

use std::time::Duration;

use regalloc_driver::{CacheMode, DriverConfig};
use regalloc_ilp::SolverConfig;
use regalloc_machine::TargetId;

use crate::Workload;

/// Wall-clock ceiling for one solve and for one function's whole ladder.
pub const TIME_LIMIT: Duration = Duration::from_secs(120);

/// Row cap: far above the largest model any workload builds (~8,500
/// rows), so the solver never declines a model for its size.
pub const MAX_ROWS: usize = 1_000_000;

/// Worker threads: the benchmark is sized for a two-core machine.
pub const JOBS: usize = 2;

/// The per-workload settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Regime {
    /// Simplex iterations per LP relaxation.
    pub lp_iter_limit: u64,
    /// Branch-and-bound nodes per solve.
    pub node_limit: u64,
    /// Solution cache on (the serve daemon's disk cache) or off.
    pub cache: bool,
    /// Cross-function warm starts from cached donors.
    pub warm_starts: bool,
    /// Certificate emission plus the exact audit of every optimality claim.
    pub audit: bool,
    /// Quality lints over every accepted allocation.
    pub lint: bool,
}

/// The regime each workload runs under.
///
/// The LP-iteration cap is what sizes the work: under the dense-inverse
/// simplex a pivot costs O(rows²), so the cap bounds the largest models
/// (2 × cap pivots: the root dive and the root node) while models of a
/// few hundred rows finish their search.
pub fn regime(w: Workload) -> Regime {
    match w {
        Workload::SeededX86 => Regime {
            lp_iter_limit: 300,
            node_limit: 16,
            cache: false,
            warm_starts: false,
            audit: false,
            lint: false,
        },
        Workload::CorpusProofs => Regime {
            lp_iter_limit: 300,
            node_limit: 8,
            cache: false,
            warm_starts: false,
            audit: true,
            lint: true,
        },
        Workload::ServeWarm => Regime {
            lp_iter_limit: 300,
            node_limit: 8,
            cache: true,
            warm_starts: true,
            audit: true,
            lint: false,
        },
    }
}

impl Regime {
    /// The solver configuration (also part of every cache key).
    pub fn solver(&self) -> SolverConfig {
        SolverConfig {
            time_limit: TIME_LIMIT,
            lp_iter_limit: self.lp_iter_limit,
            node_limit: self.node_limit,
            max_rows: MAX_ROWS,
            emit_certificates: false,
        }
    }

    /// The driver configuration for one target. `cache` must be a disk
    /// directory when the regime has the cache on.
    pub fn driver(&self, target: TargetId, jobs: usize, cache: CacheMode) -> DriverConfig {
        assert_eq!(
            self.cache,
            cache != CacheMode::Off,
            "cache placement must match the regime"
        );
        DriverConfig {
            target,
            jobs,
            solver: self.solver(),
            function_budget: TIME_LIMIT,
            global_budget: None,
            cache,
            warm_starts: self.warm_starts,
            audit: self.audit,
            lint: self.lint,
            trace: false,
            ..DriverConfig::default()
        }
    }
}
