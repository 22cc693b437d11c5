//! The ORA-style 0-1 integer-programming register allocator with precise
//! models of irregular-architecture features — the primary contribution of
//! Kong & Wilken, *Precise Register Allocation for Irregular
//! Architectures* (MICRO 1998).
//!
//! # Architecture
//!
//! The allocator follows the three-module ORA structure of §2 / Fig. 1 of
//! the paper:
//!
//! 1. **Analysis** ([`analysis`]): walks the function, liveness and profile
//!    to find every point where a register-allocation decision must be
//!    made, producing symbolic-register *events* (definitions, uses, calls
//!    crossed, block boundaries) and the segments between them.
//! 2. **Solver** ([`build`] + the `regalloc-ilp` crate): turns the decision
//!    table into a 0-1 integer program — one binary variable per possible
//!    allocation action, costed by the §4 model
//!    `cost(x) = A·cycle(x) + B·size(x) + C·data(x)` — and solves it.
//!    The irregular-architecture extensions of §5 are all here:
//!    * combined source/destination specifiers with optimal copy insertion
//!      ([`irregular::two_address`], §5.1),
//!    * separate and combined source/destination *memory* operands
//!      ([`irregular::mem_operand`], §5.2),
//!    * overlapping registers via generalised single-symbolic constraints
//!      ([`irregular::overlap`], §5.3),
//!    * per-register encoding costs and exclusions — short AL/AX/EAX
//!      opcodes, ESP/EBP addressing penalties, scaled-index exclusion —
//!      supplied by the machine model and priced into use/def variables
//!      (§5.4),
//!    * predefined memory symbolic registers with home-location coalescing
//!      ([`irregular::predefined`], §5.5).
//! 3. **Rewrite** ([`rewrite`]): reads the solved decision variables back
//!    out of the table and rewrites the function — real registers
//!    substituted, spill loads/stores/rematerialisations/copies inserted,
//!    deletable copies removed.
//!
//! [`RobustAllocator`] runs the three modules as one validated pipeline:
//! every candidate allocation passes structural verification, the static
//! translation validator and interpreter equivalence before it is
//! accepted. Functions the solver cannot finish within its budget
//! receive the spill-everything warm start or the [`fallback`] allocation
//! (as unsolved functions fell back to GCC's allocator in the paper), so
//! [`RobustAllocator::allocate`] always returns runnable code;
//! [`AllocReport::solved`] and [`AllocReport::solved_optimally`] carry the
//! Table 2 taxonomy. [`IpAllocator`] builds the integer program alone.
//!
//! # Example
//!
//! ```
//! use regalloc_ir::{FunctionBuilder, Width, BinOp, Operand};
//! use regalloc_x86::X86Machine;
//! use regalloc_core::RobustAllocator;
//!
//! let mut b = FunctionBuilder::new("f");
//! let p = b.new_param("p", Width::B32);
//! let x = b.new_sym(Width::B32);
//! let y = b.new_sym(Width::B32);
//! b.load_global(x, p);
//! b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1));
//! b.ret(Some(y));
//! let f = b.finish();
//!
//! let machine = X86Machine::pentium();
//! let out = RobustAllocator::new(&machine).allocate(&f).unwrap();
//! assert!(out.report.solved_optimally());
//! assert!(regalloc_ir::verify_allocated(&out.func).is_ok());
//! ```

pub mod analysis;
pub mod build;
pub mod check;
pub mod cost;
pub mod fallback;
pub mod irregular;
pub mod pipeline;
pub mod rewrite;
pub mod stats;
pub mod symbolic;
pub mod targets;
pub mod warm;

use regalloc_ir::{Cfg, Function, Liveness, LoopInfo, Profile};
use regalloc_machine::{refuses, Machine};

pub use cost::CostModel;
pub use pipeline::{
    AllocReport, AuditSummary, BaselineAllocator, Demotion, DonorSolution, FaultPlan, ReasonCode,
    RobustAllocator, RobustOutcome, Rung, WarmStartKind,
};
pub use stats::SpillStats;
pub use symbolic::{EventDecision, EventKey, RoleDecision, SymbolicSolution};

/// Why a function could not be allocated at all.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocError {
    /// The function manipulates values of a width whose register class is
    /// empty on the target machine, so it is not attempted (the paper's
    /// "not attempted" 64-bit rule of Table 2, generalised: the MCU model
    /// additionally refuses 32-bit values).
    WidthRefused,
    /// The spill-everything fallback failed (a machine model without
    /// enough scratch registers for some instruction shape).
    Fallback(fallback::FallbackError),
    /// Every rung of the [`pipeline::RobustAllocator`] degradation
    /// ladder failed to produce a validated allocation — including the
    /// spill-everything rung of last resort.
    LadderExhausted,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::WidthRefused => {
                write!(f, "function uses values of a width the target refuses")
            }
            AllocError::Fallback(e) => write!(f, "fallback allocation failed: {e}"),
            AllocError::LadderExhausted => {
                write!(f, "every rung of the degradation ladder failed validation")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The integer-programming model builder: analysis plus model
/// construction with the paper's cost weights, without solving. The
/// model-size experiments (Figs. 9/10) and certificate re-audits use it;
/// allocation goes through [`RobustAllocator`].
#[derive(Clone, Debug)]
pub struct IpAllocator<'m, M: ?Sized> {
    machine: &'m M,
}

impl<'m, M: Machine + ?Sized> IpAllocator<'m, M> {
    /// A model builder for `machine` with the paper's experimental cost
    /// weights (`B = 1000`, `C = 0`).
    pub fn new(machine: &'m M) -> IpAllocator<'m, M> {
        IpAllocator { machine }
    }

    /// Build the integer program without solving it.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::WidthRefused`] for functions the allocator
    /// does not attempt on this machine.
    pub fn build_only(&self, f: &Function) -> Result<build::BuiltModel, AllocError> {
        if refuses(self.machine, f) {
            return Err(AllocError::WidthRefused);
        }
        let cfg = Cfg::new(f);
        let loops = LoopInfo::new(f, &cfg);
        let profile = Profile::estimate(f, &cfg, &loops);
        let live = Liveness::new(f, &cfg);
        let analysis = analysis::analyze(f, &cfg, &live, self.machine);
        Ok(build::build_model(
            f,
            &cfg,
            &profile,
            &analysis,
            self.machine,
            &CostModel::paper(),
        ))
    }
}
