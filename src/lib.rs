//! # precise-regalloc
//!
//! A full reproduction of **Kong & Wilken, *Precise Register Allocation for
//! Irregular Architectures*, MICRO-31, 1998**: global register allocation
//! formulated as a 0-1 integer program, extended with precise models of the
//! x86's register irregularities, and compared against a graph-coloring
//! baseline.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ir`] — the compiler IR substrate (CFG, liveness, profiles, an
//!   executable interpreter),
//! * [`ilp`] — a from-scratch 0-1 integer-programming solver (the CPLEX
//!   substitute),
//! * [`x86`] — the irregular machine model (overlapping registers, encoding
//!   size rules, Pentium cycle costs) plus a uniform RISC model,
//! * [`core`] — the paper's contribution: the ORA-style IP allocator with
//!   every §5 irregularity extension,
//! * [`coloring`] — the Chaitin–Briggs graph-coloring baseline ("GCC"),
//! * [`workloads`] — a seeded synthetic SPECint92 workload generator,
//! * [`driver`] — the parallel batch allocation service (work-stealing
//!   workers, content-addressed solution cache, deadline-aware
//!   scheduling),
//! * [`lint`] — the static dataflow translation validator and
//!   allocation-quality lint engine,
//! * [`cc`] — a C-subset front end lowering real code to the textual IR,
//! * [`fuzz`] — a seeded differential fuzzer cross-checking every
//!   allocator against three oracles, with auto-minimized, replayable
//!   reproducers.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use precise_regalloc::prelude::*;
//!
//! // Build a tiny function: return a*a + b.
//! let mut b = FunctionBuilder::new("quick");
//! let pa = b.new_param("a", Width::B32);
//! let pb = b.new_param("b", Width::B32);
//! let a = b.new_sym(Width::B32);
//! let t = b.new_sym(Width::B32);
//! let bb = b.new_sym(Width::B32);
//! let r = b.new_sym(Width::B32);
//! b.load_global(a, pa);
//! b.bin(BinOp::Mul, t, Operand::sym(a), Operand::sym(a));
//! b.load_global(bb, pb);
//! b.bin(BinOp::Add, r, Operand::sym(t), Operand::sym(bb));
//! b.ret(Some(r));
//! let f = b.finish();
//!
//! // Allocate with the IP allocator for the x86: build, solve, rewrite,
//! // and validate the result before accepting it.
//! let machine = X86Machine::pentium();
//! let result = RobustAllocator::new(&machine)
//!     .allocate(&f)
//!     .expect("allocation succeeds");
//! assert!(result.report.solved_optimally());
//! ```

pub use regalloc_cc as cc;
pub use regalloc_coloring as coloring;
pub use regalloc_core as core;
pub use regalloc_driver as driver;
pub use regalloc_fuzz as fuzz;
pub use regalloc_ilp as ilp;
pub use regalloc_ir as ir;
pub use regalloc_lint as lint;
pub use regalloc_workloads as workloads;
pub use regalloc_x86 as x86;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use regalloc_coloring::ColoringAllocator;
    pub use regalloc_core::{RobustAllocator, RobustOutcome};
    pub use regalloc_ir::{Address, BinOp, Cond, Function, FunctionBuilder, Operand, SymId, Width};
    pub use regalloc_workloads::{Benchmark, Suite};
    pub use regalloc_x86::X86Machine;
}
