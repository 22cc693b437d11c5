//! A uniform RISC machine model.
//!
//! This reproduces the register architecture assumed by the prior ORA work
//! the paper compares against in §6: 24 allocatable, fully interchangeable
//! 32-bit registers, a three-address load/store instruction set, fixed
//! 4-byte instructions, and no encoding irregularities of any kind. The
//! `targets` experiment builds the same functions' IP models for this
//! machine and for [`X86Machine`](crate::X86Machine) to reproduce the
//! paper's observation that the x86 model has roughly a quarter of the
//! constraints.

use regalloc_ir::{Inst, PhysReg, RegFile, UseRole, Width};

use regalloc_machine::{Machine, OperandConstraint, SpillCosts};

/// Number of allocatable registers (matching the RISC target of the prior
/// ORA paper).
pub const NUM_RISC_REGS: usize = 24;

/// Uniform RISC spill costs: single-cycle loads/stores/copies, fixed
/// 4-byte encodings, no memory operands (load/store architecture).
pub const RISC_COSTS: SpillCosts = SpillCosts {
    load_cycles: 1,
    load_bytes: 4,
    store_cycles: 1,
    store_bytes: 4,
    remat_cycles: 1,
    remat_bytes: 4,
    copy_cycles: 1,
    copy_bytes: 4,
    mem_use_extra_cycles: 0,
    mem_use_extra_bytes: 0,
    mem_combined_extra_cycles: 0,
    mem_combined_extra_bytes: 0,
};

/// The uniform RISC machine.
#[derive(Clone, Debug)]
pub struct RiscMachine {
    regs: Vec<PhysReg>,
    groups: Vec<Vec<PhysReg>>,
    aliases: Vec<Vec<PhysReg>>,
    names: Vec<&'static str>,
}

impl Default for RiscMachine {
    fn default() -> RiscMachine {
        RiscMachine::new()
    }
}

const RISC_NAMES: [&str; NUM_RISC_REGS] = [
    "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12", "r13", "r14",
    "r15", "r16", "r17", "r18", "r19", "r20", "r21", "r22", "r23",
];

impl RiscMachine {
    /// A 24-register uniform machine.
    pub fn new() -> RiscMachine {
        let regs: Vec<PhysReg> = (0..NUM_RISC_REGS as u16).map(PhysReg).collect();
        RiscMachine {
            groups: regs.iter().map(|r| vec![*r]).collect(),
            aliases: regs.iter().map(|r| vec![*r]).collect(),
            names: RISC_NAMES.to_vec(),
            regs,
        }
    }
}

impl Machine for RiscMachine {
    fn name(&self) -> &str {
        "RISC (uniform, 24 registers)"
    }

    fn regs_for_width(&self, w: Width) -> &[PhysReg] {
        // Every register holds every sub-word width; 64-bit values remain
        // unsupported, as in the x86 model, so function filtering matches.
        match w {
            Width::B64 => &[],
            _ => &self.regs,
        }
    }

    fn overlap_groups(&self) -> &[Vec<PhysReg>] {
        &self.groups
    }

    fn aliases(&self, r: PhysReg) -> &[PhysReg] {
        &self.aliases[r.index()]
    }

    fn is_caller_saved(&self, r: PhysReg) -> bool {
        // Half the file is caller-saved, as in common RISC conventions.
        r.index() < NUM_RISC_REGS / 2
    }

    fn reg_width(&self, _r: PhysReg) -> Width {
        Width::B32
    }

    fn reg_name(&self, r: PhysReg) -> &'static str {
        self.names[r.index()]
    }

    fn is_two_address(&self, _inst: &Inst) -> bool {
        false // three-specifier format throughout
    }

    fn use_constraints(&self, _inst: &Inst, role: UseRole, _width: Width) -> OperandConstraint {
        match role {
            // Return values still travel in a conventional register.
            UseRole::RetVal => OperandConstraint {
                allowed: Some(vec![PhysReg(0)]),
                size_penalty: Vec::new(),
            },
            _ => OperandConstraint::any(),
        }
    }

    fn def_constraints(&self, inst: &Inst, _width: Width) -> OperandConstraint {
        if matches!(inst, Inst::Call { .. }) {
            OperandConstraint {
                allowed: Some(vec![PhysReg(0)]),
                size_penalty: Vec::new(),
            }
        } else {
            OperandConstraint::any()
        }
    }

    fn mem_use_ok(&self, _inst: &Inst, _role: UseRole) -> bool {
        false // load/store architecture
    }

    fn mem_combined_ok(&self, _inst: &Inst) -> bool {
        false
    }

    fn spill_costs(&self) -> &SpillCosts {
        &RISC_COSTS
    }

    fn inst_size(&self, _inst: &Inst) -> u64 {
        4 // fixed-width encoding
    }

    fn new_regfile(&self) -> Box<dyn RegFile> {
        Box::new(RiscRegFile::new())
    }
}

/// Register file for the RISC machine: 24 independent 32-bit registers.
#[derive(Clone, Debug, Default)]
pub struct RiscRegFile {
    regs: [u32; NUM_RISC_REGS],
}

impl RiscRegFile {
    /// A zeroed register file.
    pub fn new() -> RiscRegFile {
        RiscRegFile::default()
    }
}

impl RegFile for RiscRegFile {
    fn read(&self, r: PhysReg) -> u64 {
        self.regs[r.index()] as u64
    }

    fn write(&mut self, r: PhysReg, v: u64) {
        self.regs[r.index()] = v as u32;
    }

    fn reset(&mut self) {
        self.regs = [0; NUM_RISC_REGS];
    }

    fn clobber_for_call(&mut self, seed: u64) {
        for i in 0..NUM_RISC_REGS / 2 {
            self.regs[i] = regalloc_ir::interp::mix64(seed ^ i as u64) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_register_file() {
        let m = RiscMachine::new();
        assert_eq!(m.regs_for_width(Width::B32).len(), 24);
        assert_eq!(m.regs_for_width(Width::B8).len(), 24);
        assert!(m.regs_for_width(Width::B64).is_empty());
        // All overlap groups are singletons: no bit-field sharing.
        assert!(m.overlap_groups().iter().all(|g| g.len() == 1));
        assert_eq!(m.aliases(PhysReg(3)), &[PhysReg(3)]);
    }

    #[test]
    fn three_address_and_no_memory_operands() {
        let m = RiscMachine::new();
        let i = Inst::Ret { val: None };
        assert!(!m.is_two_address(&i));
        assert!(!m.mem_combined_ok(&i));
        assert_eq!(m.inst_size(&i), 4);
    }

    #[test]
    fn regfile_independent_registers() {
        let mut rf = RiscRegFile::new();
        rf.write(PhysReg(0), 0xFFFF_FFFF);
        rf.write(PhysReg(1), 1);
        assert_eq!(rf.read(PhysReg(0)), 0xFFFF_FFFF);
        assert_eq!(rf.read(PhysReg(1)), 1);
        rf.clobber_for_call(9);
        assert_ne!(rf.read(PhysReg(0)), 0xFFFF_FFFF, "caller-saved trashed");
        assert_eq!(rf.read(PhysReg(23)), 0, "callee-saved preserved");
    }

    #[test]
    fn caller_saved_split() {
        let m = RiscMachine::new();
        assert!(m.is_caller_saved(PhysReg(0)));
        assert!(!m.is_caller_saved(PhysReg(12)));
    }
}
