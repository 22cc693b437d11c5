//! A from-scratch 0-1 integer-programming solver.
//!
//! The paper sends its register-allocation integer programs to the
//! commercial CPLEX 6.0 solver. This crate is the reproduction's
//! substitute: a complete, self-contained 0-1 IP solver consisting of
//!
//! * a [`model`] layer for building 0-1 programs (binary variables with
//!   costs, `≤`/`≥`/`=` linear constraints),
//! * a light [`presolve`] pass (empty/redundant row elimination, forced
//!   variable fixing),
//! * a bounded-variable two-phase primal [`simplex`] solver for the LP
//!   relaxation, and
//! * a depth-first [`branch`]-and-bound search with most-fractional
//!   branching, integral-cost bound rounding, a warm-start incumbent
//!   channel and a wall-clock time limit (the paper's per-function
//!   1024-second limit maps onto [`SolverConfig::time_limit`]), and
//! * an optional proof [`cert`]ificate attached to completed searches
//!   ([`SolverConfig::emit_certificates`]), independently re-checkable in
//!   exact rational arithmetic by the `regalloc-audit` crate.
//!
//! The solver reports the same outcome taxonomy the paper's Table 2 uses:
//! [`Status::Optimal`] (proved), [`Status::Feasible`] (incumbent found but
//! optimality not proved within the limit), [`Status::Infeasible`], and
//! [`Status::Unknown`] (nothing found within the limit).
//!
//! # Example
//!
//! ```
//! use regalloc_ilp::{solve_seeded, Deadline, Model, SolverConfig, Status};
//!
//! // max x0 + 2 x1 s.t. x0 + x1 <= 1  (i.e. min -x0 - 2 x1)
//! let mut m = Model::new();
//! let x0 = m.add_var(-1.0, "x0");
//! let x1 = m.add_var(-2.0, "x1");
//! m.add_le(vec![(x0, 1.0), (x1, 1.0)], 1.0);
//! // No seed incumbents; the config's own time limit bounds the search.
//! let sol = solve_seeded(&m, &SolverConfig::default(), &[], Deadline::unlimited());
//! assert_eq!(sol.status, Status::Optimal);
//! assert_eq!(sol.objective.round() as i64, -2);
//! assert!(sol.value(x1));
//! ```

pub mod branch;
pub mod cert;
pub mod health;
pub mod model;
pub mod presolve;
pub mod simplex;

pub use branch::{solve_seeded, solve_seeded_traced, Incumbent, Solution, SolverConfig, Status};
pub use cert::{Certificate, Claim, NodeCert, Step, Witness};
pub use health::{Deadline, HealthState, SolverHealth};
pub use model::{Model, Sense, VarId};
pub use presolve::{propagate_counted, propagate_recorded_counted, PropRecorder, Propagation};
pub use simplex::{solve_lp, solve_lp_with_duals, DualInfo, LpOutcome};
