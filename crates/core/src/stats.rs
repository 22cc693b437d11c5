//! Spill-code accounting — the data behind the paper's Table 3.

use std::ops::AddAssign;

use regalloc_ir::{Address, Dst, Function, GlobalId, Inst, Operand, Profile, Width};
use regalloc_machine::Machine;

/// Dynamic (profile-weighted) spill-code overhead of one allocation.
///
/// Counts are *net*: instructions inserted count positively, instructions
/// deleted (coalesced copies, the original defining loads of predefined
/// memory symbolic registers) count negatively — which is how the paper's
/// Table 3 arrives at negative rematerialisation (GCC) and copy (IP) rows.
/// Every allocator's stats are counted from its code by [`SpillStats::measure`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpillStats {
    /// Net dynamic spill loads.
    pub loads: i64,
    /// Net dynamic spill stores.
    pub stores: i64,
    /// Net dynamic rematerialisations.
    pub remats: i64,
    /// Net dynamic copies (inserted − deleted).
    pub copies: i64,
    /// Extra dynamic cycles from memory operands (§5.2) — folded accesses
    /// that are not separate instructions and therefore excluded from the
    /// instruction counts above, but part of the cycle overhead.
    pub mem_operand_cycles: i64,
    /// Static code-size change in bytes.
    pub code_bytes: i64,
}

impl SpillStats {
    /// Count the spill code of `alloc`, an allocation of `orig`, from the
    /// allocated code. Allocators keep the block structure, so the count
    /// runs block by block; with `f` the block's profile frequency:
    ///
    /// * `loads` = f × (spill loads − original loads of a global that
    ///   `alloc` no longer has, matched by address and width: the §5.5
    ///   deleted defining loads of predefined memory symbolics);
    /// * `stores` = f × spill stores;
    /// * `remats`, `copies` = f × (constant loads, copies in `alloc` −
    ///   those in `orig`);
    /// * `mem_operand_cycles` = f × (`mem_use_extra_cycles` per memory
    ///   operand outside a combined destination + `mem_combined_extra_cycles`
    ///   per combined destination), the §5.2 extras;
    /// * `code_bytes`: the same counts, unweighted, times the matching
    ///   [`SpillCosts`](regalloc_machine::SpillCosts) byte field (every
    ///   spill load at `load_bytes`), less each deleted load's own
    ///   [`inst_size`](Machine::inst_size).
    pub fn measure<M: Machine + ?Sized>(
        orig: &Function,
        alloc: &Function,
        profile: &Profile,
        machine: &M,
    ) -> SpillStats {
        let sc = machine.spill_costs();
        let w = |cost: u64| cost as i64;
        let count =
            |insts: &[Inst], p: fn(&Inst) -> bool| insts.iter().filter(|&i| p(i)).count() as i64;
        let is_imm: fn(&Inst) -> bool = |i| matches!(i, Inst::LoadImm { .. });
        let is_copy: fn(&Inst) -> bool = |i| matches!(i, Inst::Copy { .. });
        let mut total = SpillStats::default();
        for b in orig.block_ids() {
            let (was, now) = (&orig.block(b).insts, &alloc.block(b).insts);
            let deleted = deleted_global_loads(was, now);
            let spill_loads = count(now, |i| matches!(i, Inst::SpillLoad { .. }));
            let stores = count(now, |i| matches!(i, Inst::SpillStore { .. }));
            let remats = count(now, is_imm) - count(was, is_imm);
            let copies = count(now, is_copy) - count(was, is_copy);
            let (mem_uses, mem_dsts) = now
                .iter()
                .map(mem_operands)
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));

            let f = profile.freq(b) as i64;
            total += SpillStats {
                loads: f * (spill_loads - deleted.len() as i64),
                stores: f * stores,
                remats: f * remats,
                copies: f * copies,
                mem_operand_cycles: f
                    * (mem_uses * w(sc.mem_use_extra_cycles)
                        + mem_dsts * w(sc.mem_combined_extra_cycles)),
                code_bytes: spill_loads * w(sc.load_bytes)
                    + stores * w(sc.store_bytes)
                    + remats * w(sc.remat_bytes)
                    + copies * w(sc.copy_bytes)
                    + mem_uses * w(sc.mem_use_extra_bytes)
                    + mem_dsts * w(sc.mem_combined_extra_bytes)
                    - deleted.iter().map(|i| w(machine.inst_size(i))).sum::<i64>(),
            };
        }
        total
    }

    /// Total net dynamic spill instructions (the paper's Table 3 "total").
    pub fn total_insts(&self) -> i64 {
        self.loads + self.stores + self.remats + self.copies
    }

    /// Total dynamic cycle overhead per eq. (1) with unit spill-code cycle
    /// costs (Table 1: every spill instruction is one cycle) plus memory-
    /// operand extras.
    pub fn overhead_cycles(&self) -> i64 {
        self.total_insts() + self.mem_operand_cycles
    }
}

/// The loads of a global in `was` that `now` no longer has, matched by
/// address and width.
fn deleted_global_loads<'a>(was: &'a [Inst], now: &[Inst]) -> Vec<&'a Inst> {
    fn key(i: &Inst) -> Option<(GlobalId, Width)> {
        match i {
            Inst::Load {
                addr: Address::Global(g),
                width,
                ..
            } => Some((*g, *width)),
            _ => None,
        }
    }
    let mut kept: Vec<_> = now.iter().filter_map(key).collect();
    let mut unmatched = |k| match kept.iter().position(|x| *x == k) {
        Some(p) => {
            kept.swap_remove(p);
            false
        }
        None => true,
    };
    was.iter()
        .filter(|&i| key(i).is_some_and(&mut unmatched))
        .collect()
}

/// The §5.2 memory operands of `inst`: separate memory uses, and combined
/// memory destinations, whose source half (`lhs`, `src`) is part of them.
fn mem_operands(inst: &Inst) -> (i64, i64) {
    let slot = |o: &Operand| i64::from(matches!(o, Operand::Slot(_)));
    let (slots, dst) = match inst {
        Inst::Bin { dst, lhs, rhs, .. } => (slot(lhs) + slot(rhs), Some(dst)),
        Inst::Un { dst, src, .. } => (slot(src), Some(dst)),
        Inst::Branch { lhs, rhs, .. } => (slot(lhs) + slot(rhs), None),
        Inst::Store { src, .. } => (slot(src), None),
        Inst::Call { args, .. } => (args.iter().map(slot).sum(), None),
        Inst::Ret { val } => (val.as_ref().map_or(0, slot), None),
        _ => (0, None),
    };
    let combined = i64::from(matches!(dst, Some(Dst::Slot(_))));
    (slots - combined, combined)
}

impl AddAssign for SpillStats {
    fn add_assign(&mut self, o: SpillStats) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.remats += o.remats;
        self.copies += o.copies;
        self.mem_operand_cycles += o.mem_operand_cycles;
        self.code_bytes += o.code_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::parse_function;
    use regalloc_mcu::McuMachine;
    use regalloc_x86::X86Machine;

    /// Measure `alloc` against `orig`, two-block functions whose blocks
    /// run once (`b0`) and ten times (`b1`).
    fn measure(m: &dyn Machine, orig: &str, alloc: &str) -> SpillStats {
        let orig = parse_function(orig).expect("orig parses");
        let alloc = parse_function(alloc).expect("alloc parses");
        SpillStats::measure(&orig, &alloc, &Profile::from_freqs(vec![1, 10]), m)
    }

    #[test]
    fn measure_counts_spill_loads_and_stores() {
        let orig = "fn t() {
b0:
  s0 = imm32 1
  jump b1
b1:
  s1 = Add32 s0, #2
  ret s1
}";
        let alloc = "fn t() {
b0:
  r0 = imm32 1
  spill_store32 slot0, r0
  jump b1
b1:
  r0 = spill_load32 slot0
  r0 = Add32 r0, #2
  ret r0
}";
        let s = measure(&X86Machine::pentium(), orig, alloc);
        assert_eq!(
            s,
            SpillStats {
                loads: 10,
                stores: 1,
                code_bytes: 3 + 3,
                ..SpillStats::default()
            }
        );
    }

    #[test]
    fn measure_takes_byte_costs_from_the_machine() {
        let orig = "fn t() {
b0:
  s0 = imm16 1
  jump b1
b1:
  s1 = Add16 s0, #2
  ret s1
}";
        let alloc = "fn t() {
b0:
  r0 = imm16 1
  spill_store16 slot0, r0
  jump b1
b1:
  r0 = spill_load16 slot0
  r0 = Add16 r0, #2
  ret r0
}";
        let s = measure(&McuMachine::new(), orig, alloc);
        // The MCU's spill load and store are two bytes each, the x86's
        // three.
        assert_eq!((s.loads, s.stores, s.code_bytes), (10, 1, 2 + 2));
    }

    #[test]
    fn measure_nets_inserted_against_deleted_constant_loads() {
        // The constant definition in b0 is deleted; b1 rematerialises the
        // constant before each of its two uses.
        let orig = "fn t() {
b0:
  s0 = imm32 7
  jump b1
b1:
  s1 = Add32 s0, #1
  s2 = Add32 s1, s0
  ret s2
}";
        let alloc = "fn t() {
b0:
  jump b1
b1:
  r0 = imm32 7
  r0 = Add32 r0, #1
  r1 = imm32 7
  r0 = Add32 r0, r1
  ret r0
}";
        let s = measure(&X86Machine::pentium(), orig, alloc);
        assert_eq!(
            s,
            SpillStats {
                remats: -1 + 2 * 10,
                code_bytes: -3 + 2 * 3,
                ..SpillStats::default()
            }
        );
    }

    #[test]
    fn measure_nets_inserted_against_deleted_copies() {
        // Both copies of b0 coalesce away; b1 gains one copy.
        let orig = "fn t() {
b0:
  s0 = imm32 1
  s1 = copy32 s0
  s2 = copy32 s1
  jump b1
b1:
  s3 = Add32 s2, s0
  ret s3
}";
        let alloc = "fn t() {
b0:
  r0 = imm32 1
  jump b1
b1:
  r1 = copy32 r0
  r1 = Add32 r1, r0
  ret r1
}";
        let s = measure(&X86Machine::pentium(), orig, alloc);
        assert_eq!(
            s,
            SpillStats {
                copies: -2 + 10,
                code_bytes: -2 * 2 + 2,
                ..SpillStats::default()
            }
        );
    }

    #[test]
    fn measure_charges_a_deleted_parameter_load_its_own_size() {
        // `s0`'s defining load is deleted (§5.5); the load of `g1` stays
        // and matches its original by address and width.
        let orig = "fn t() {
  global g0: 32 \"x\" param
  global g1: 32 \"y\" param
b0:
  jump b1
b1:
  s0 = load32 @g0
  s1 = load32 @g1
  ret s1
}";
        let alloc = "fn t() {
  global g0: 32 \"x\" param
  global g1: 32 \"y\" param
b0:
  jump b1
b1:
  r0 = load32 @g1
  ret r0
}";
        let m = X86Machine::pentium();
        let f = parse_function(orig).unwrap();
        let deleted = &f.block(regalloc_ir::BlockId(1)).insts[0];
        assert_eq!(
            m.inst_size(deleted),
            6,
            "opcode, ModRM and an absolute disp32"
        );
        let s = measure(&m, orig, alloc);
        assert_eq!(
            s,
            SpillStats {
                loads: -10,
                code_bytes: -6,
                ..SpillStats::default()
            }
        );

        // A spill load in the same block nets against the deleted load
        // but is still charged its own bytes.
        let reloaded = alloc.replace("  ret r0", "  r1 = spill_load32 slot0\n  ret r0");
        let s = measure(&m, orig, &reloaded);
        assert_eq!((s.loads, s.code_bytes), (0, 3 - 6));
    }

    #[test]
    fn measure_prices_memory_operands() {
        // `[slot0] = Add32 [slot0], r1` is a combined memory destination;
        // `r1 = Sub32 r1, [slot0]` a separate memory use.
        let orig = "fn t() {
b0:
  s0 = imm32 1
  s1 = imm32 2
  jump b1
b1:
  s0 = Add32 s0, s1
  s2 = Sub32 s1, s0
  ret s2
}";
        let alloc = "fn t() {
b0:
  r0 = imm32 1
  spill_store32 slot0, r0
  r1 = imm32 2
  jump b1
b1:
  [slot0] = Add32 [slot0], r1
  r1 = Sub32 r1, [slot0]
  ret r1
}";
        let s = measure(&X86Machine::pentium(), orig, alloc);
        assert_eq!(
            s,
            SpillStats {
                stores: 1,
                mem_operand_cycles: 10 * (1 + 2),
                code_bytes: 3 + 2 + 2,
                ..SpillStats::default()
            }
        );
    }

    #[test]
    fn totals() {
        let s = SpillStats {
            loads: 10,
            stores: 5,
            remats: 2,
            copies: -3,
            mem_operand_cycles: 4,
            code_bytes: 42,
        };
        assert_eq!(s.total_insts(), 14);
        assert_eq!(s.overhead_cycles(), 18);
    }

    #[test]
    fn accumulation() {
        let mut a = SpillStats::default();
        a += SpillStats {
            loads: 1,
            stores: 2,
            remats: 3,
            copies: -1,
            mem_operand_cycles: 0,
            code_bytes: 7,
        };
        a += SpillStats {
            loads: 1,
            ..Default::default()
        };
        assert_eq!(a.loads, 2);
        assert_eq!(a.total_insts(), 6);
        assert_eq!(a.code_bytes, 7);
    }
}
