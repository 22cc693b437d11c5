//! Machine models for the `precise-regalloc` register allocators.
//!
//! The paper studies the Intel x86 as a representative *irregular-register*
//! architecture (§3): registers partitioned by width, bit-field sharing
//! between AL/AX/EAX-style register families, combined source/destination
//! operand specifiers, implicit register operands (shift counts in CL),
//! memory operands, and instruction-encoding irregularities that make some
//! register choices cheaper than others.
//!
//! This crate captures all of that behind the [`Machine`](regalloc_machine::Machine) trait:
//!
//! * [`X86Machine`] — the irregular model: 6 allocatable 32-bit registers
//!   (optionally 7 with the frame pointer freed, and 8 with ESP), the full
//!   overlap structure of Fig. 3, the two-address constraint, memory
//!   operands, the §5.4.1 short-opcode discount for AL/AX/EAX, the §5.4.2
//!   ESP/EBP addressing-mode penalties and the §5.4.3 scaled-index
//!   exclusion, with Pentium spill costs (Table 1);
//! * [`RiscMachine`] — the uniform 24-register three-address load/store
//!   model of the prior ORA work, used by the §6 comparison that shows the
//!   x86 IP model is about four times smaller.
//!
//! The crate also provides bit-accurate [`RegFile`](regalloc_ir::RegFile)
//! implementations for both machines so allocated code can be executed and
//! checked: writing `AX` through [`X86RegFile`] really does change the low
//! 16 bits of `EAX`.

pub mod encoding;
pub mod regs;
pub mod risc;
pub mod x86;

pub use risc::{RiscMachine, RiscRegFile};
pub use x86::{X86Machine, X86RegFile};
