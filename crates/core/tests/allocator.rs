//! End-to-end tests of the IP allocator: every function is allocated,
//! structurally verified, and executed against its symbolic original on
//! multiple inputs through the bit-accurate x86 register file.

use regalloc_core::{
    check, fallback, AllocError, CostModel, IpAllocator, RobustAllocator, RobustOutcome,
};
use regalloc_ir::{
    verify_allocated, Address, BinOp, Cond, Function, FunctionBuilder, Loc, Operand, Scale, UnOp,
    Width,
};
use regalloc_x86::{RiscMachine, RiscRegFile, X86Machine, X86RegFile};

mod common;

fn alloc_x86(f: &Function) -> RobustOutcome {
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m).allocate(f).expect("attempted");
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap_or_else(|e| panic!("verify: {e:?}\n{}", out.func));
    regalloc_machine::verify_machine(&m, &out.func)
        .unwrap_or_else(|e| panic!("machine verify: {e:?}\n{}", out.func));
    check::equivalent::<X86RegFile>(f, &out.func, 6, 0xfeed)
        .unwrap_or_else(|e| panic!("equivalence: {e}\noriginal:\n{f}\nallocated:\n{}", out.func));
    out
}

fn alloc_risc(f: &Function) -> RobustOutcome {
    let m = RiscMachine::new();
    let out = RobustAllocator::new(&m).allocate(f).expect("attempted");
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap_or_else(|e| panic!("verify: {e:?}\n{}", out.func));
    check::equivalent::<RiscRegFile>(f, &out.func, 6, 0xfeed)
        .unwrap_or_else(|e| panic!("equivalence: {e}\noriginal:\n{f}\nallocated:\n{}", out.func));
    out
}

#[test]
fn straightline_no_spills_needed() {
    let mut b = FunctionBuilder::new("simple");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 6);
    b.load_imm(y, 7);
    b.bin(BinOp::Mul, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.loads, 0);
    assert_eq!(out.stats.stores, 0);
    assert_eq!(out.stats.total_insts(), 0, "6 registers suffice: no spills");
}

#[test]
fn two_address_constraint_is_respected() {
    // z = x + y with x live afterwards: the combined specifier must pick
    // y's register or insert a copy — never silently clobber x.
    let mut b = FunctionBuilder::new("twoaddr");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    let w = b.new_sym(Width::B32);
    b.load_imm(x, 100);
    b.load_imm(y, 23);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
    // x still live: use it again.
    b.bin(BinOp::Sub, w, Operand::sym(z), Operand::sym(x));
    b.ret(Some(w)); // (100+23) - 100 == 23
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved());
    // The two-address form must hold in the rewritten code.
    for (_, _, inst) in out.func.insts() {
        if let regalloc_ir::Inst::Bin { dst, lhs, .. } = inst {
            if let (regalloc_ir::Dst::Loc(Loc::Real(d)), Operand::Loc(Loc::Real(l))) = (dst, lhs) {
                assert_eq!(d, l, "x86 ALU must be two-address: {inst}");
            }
        }
    }
}

#[test]
fn commutative_swap_avoids_copy() {
    // z = x + y where y dies and x lives on: allocating z to y's register
    // (via the commutative swap) avoids any copy.
    let mut b = FunctionBuilder::new("swap");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    let w = b.new_sym(Width::B32);
    b.load_imm(x, 5);
    b.load_imm(y, 9);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y)); // y dies
    b.bin(BinOp::Add, w, Operand::sym(z), Operand::sym(x)); // x dies
    b.ret(Some(w));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.copies, 0, "swap makes the copy unnecessary");
    assert_eq!(out.stats.total_insts(), 0);
}

#[test]
fn non_commutative_with_live_lhs_inserts_copy() {
    // w = x - y with x used afterwards: x cannot end at the subtract, so
    // the allocator must pay for a copy (§5.1) — and nothing else.
    let mut b = FunctionBuilder::new("subcopy");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let w = b.new_sym(Width::B32);
    let v = b.new_sym(Width::B32);
    b.load_imm(x, 50);
    b.load_imm(y, 8);
    b.bin(BinOp::Sub, w, Operand::sym(x), Operand::sym(y));
    b.bin(BinOp::Add, v, Operand::sym(w), Operand::sym(x));
    b.ret(Some(v)); // (50-8) + 50 == 92
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.copies, 1, "one §5.1 copy insertion expected");
    assert_eq!(out.stats.loads + out.stats.stores, 0);
}

#[test]
fn copy_deletion() {
    // An input copy whose source dies at the copy is deleted by assigning
    // both symbolics the same register.
    let mut b = FunctionBuilder::new("coalesce");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 11);
    b.copy(y, x); // x dies here: deletable
    b.bin(BinOp::Add, z, Operand::sym(y), Operand::Imm(1));
    b.ret(Some(z));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.copies, -1, "the input copy is deleted");
    let copies_left = out
        .func
        .insts()
        .filter(|(_, _, i)| matches!(i, regalloc_ir::Inst::Copy { .. }))
        .count();
    assert_eq!(copies_left, 0);
}

#[test]
fn spills_under_pressure() {
    // Nine simultaneously-live 32-bit values cannot fit in six registers.
    let mut b = FunctionBuilder::new("pressure");
    let syms: Vec<_> = (0..9).map(|_| b.new_sym(Width::B32)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64 + 1);
    }
    // Sum them up pairwise so all stay live until used.
    let mut acc = b.new_sym(Width::B32);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    b.ret(Some(acc));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved());
    assert!(
        out.stats.total_insts() > 0,
        "pressure must force spill code or rematerialisation"
    );
}

#[test]
fn rematerialisation_beats_reload() {
    // A constant spilled across high pressure should be rematerialised
    // (1 cycle + 3 bytes at the use) rather than stored + loaded.
    let mut b = FunctionBuilder::new("remat");
    let k = b.new_sym(Width::B32);
    b.load_imm(k, 777);
    let syms: Vec<_> = (0..7).map(|_| b.new_sym(Width::B32)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64);
    }
    let mut acc = b.new_sym(Width::B32);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    let r = b.new_sym(Width::B32);
    b.bin(BinOp::Add, r, Operand::sym(acc), Operand::sym(k));
    b.ret(Some(r));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved());
    assert_eq!(out.stats.stores, 0, "a constant never needs a store");
    assert!(out.stats.remats > 0 || out.stats.total_insts() == 0);
}

#[test]
fn call_forces_callee_saved_or_spill() {
    let mut b = FunctionBuilder::new("call");
    let x = b.new_sym(Width::B32);
    let r = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 41);
    b.call(7, Some(r), vec![Operand::Imm(1)]);
    b.bin(BinOp::Add, z, Operand::sym(r), Operand::sym(x));
    b.ret(Some(z));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    // x survives in a callee-saved register at zero cost.
    assert_eq!(out.stats.total_insts(), 0);
}

#[test]
fn return_value_lands_in_eax() {
    let mut b = FunctionBuilder::new("reteax");
    let x = b.new_sym(Width::B32);
    b.load_imm(x, 3);
    b.ret(Some(x));
    let f = b.finish();
    let out = alloc_x86(&f);
    let last = out.func.block(out.func.entry()).insts.last().unwrap();
    match last {
        regalloc_ir::Inst::Ret {
            val: Some(Operand::Loc(Loc::Real(r))),
        } => {
            assert_eq!(*r, regalloc_x86::regs::EAX, "return pinned to EAX");
        }
        other => panic!("unexpected terminator {other}"),
    }
}

#[test]
fn shift_count_lands_in_ecx() {
    let mut b = FunctionBuilder::new("shift");
    let x = b.new_sym(Width::B32);
    let c = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.load_imm(c, 4);
    b.bin(BinOp::Shl, y, Operand::sym(x), Operand::sym(c));
    b.ret(Some(y)); // 1 << 4 == 16
    let f = b.finish();
    let out = alloc_x86(&f);
    let shl = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            regalloc_ir::Inst::Bin {
                op: BinOp::Shl,
                rhs: Operand::Loc(Loc::Real(r)),
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("shift with register count");
    assert_eq!(shl, regalloc_x86::regs::ECX, "count implicitly uses ECX");
}

#[test]
fn loop_allocation() {
    // Classic loop: i and sum in registers throughout, no spill code.
    let mut b = FunctionBuilder::new("loop");
    let i = b.new_sym(Width::B32);
    let sum = b.new_sym(Width::B32);
    let head = b.block();
    let body = b.block();
    let exit = b.block();
    b.load_imm(i, 0);
    b.load_imm(sum, 0);
    b.jump(head);
    b.switch_to(head);
    b.branch(
        Cond::Lt,
        Operand::sym(i),
        Operand::Imm(10),
        Width::B32,
        body,
        exit,
    );
    b.switch_to(body);
    b.bin(BinOp::Add, sum, Operand::sym(sum), Operand::sym(i));
    b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
    b.jump(head);
    b.switch_to(exit);
    b.ret(Some(sum)); // 45
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(
        out.stats.total_insts(),
        0,
        "no spills in a two-variable loop"
    );
}

#[test]
fn predefined_memory_param_load_is_deleted() {
    let mut b = FunctionBuilder::new("predef");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1));
    b.ret(Some(y));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    // §5.5: the defining load is deleted; the value is reloaded (or used
    // as a memory operand) at its use instead.
    let global_loads = out
        .func
        .insts()
        .filter(|(_, _, i)| {
            matches!(
                i,
                regalloc_ir::Inst::Load {
                    addr: Address::Global(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(global_loads, 0, "original param load must be gone");
    // Its slot is coalesced with the parameter's home location.
    assert!(out.func.slots().iter().any(|s| s.home == Some(p)));
}

#[test]
fn memory_operand_used_under_pressure() {
    // A §5.2 separate memory operand: a predefined param used once as the
    // second source can be folded instead of loaded.
    let mut b = FunctionBuilder::new("memop");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.load_imm(y, 5);
    b.bin(BinOp::Add, z, Operand::sym(y), Operand::sym(x));
    b.ret(Some(z));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    // Either a fold (slot operand) or a reload happened; the model picks
    // the cheaper. Verify the function still computes p + 5.
    let has_slot_operand = out.func.insts().any(|(_, _, i)| {
        matches!(
            i,
            regalloc_ir::Inst::Bin {
                rhs: Operand::Slot(_),
                ..
            }
        )
    });
    let has_spill_load = out.func.insts().any(|(_, _, i)| i.is_spill());
    assert!(
        has_slot_operand || has_spill_load,
        "the param value must come from memory somehow:\n{}",
        out.func
    );
}

#[test]
fn combined_memory_use_def() {
    // x = x + 1 where x is a predefined memory param used under register
    // pressure: the combined read-modify-write form (§5.2) is available.
    // At minimum the allocation must stay correct.
    let mut b = FunctionBuilder::new("rmw");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.bin(BinOp::Add, x, Operand::sym(x), Operand::Imm(1));
    b.ret(Some(x));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
}

#[test]
fn overlapping_widths_8_and_32() {
    // An 8-bit and a 32-bit value interleaved: AL conflicts with EAX but
    // BL does not conflict with EAX.
    let mut b = FunctionBuilder::new("widths");
    let a8 = b.new_sym(Width::B8);
    let c8 = b.new_sym(Width::B8);
    let x32 = b.new_sym(Width::B32);
    let y32 = b.new_sym(Width::B32);
    b.load_imm(a8, 200);
    b.load_imm(x32, 1_000_000);
    b.un(UnOp::Not, c8, Operand::sym(a8));
    b.bin(BinOp::Add, y32, Operand::sym(x32), Operand::Imm(7));
    b.ret(Some(y32));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.total_insts(), 0);
}

#[test]
fn eight_bit_pressure_uses_high_bytes() {
    // Six live 8-bit values plus the accumulator fit in AL..DH without
    // spills — provided the overlap constraints are per-byte, not
    // per-family (only four 32-bit families carry byte registers).
    let mut b = FunctionBuilder::new("bytes");
    let syms: Vec<_> = (0..6).map(|_| b.new_sym(Width::B8)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64 + 1);
    }
    let mut acc = b.new_sym(Width::B8);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B8);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    b.ret(Some(acc));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved());
    assert_eq!(
        out.stats.loads + out.stats.stores,
        0,
        "8 byte-registers exist: {:?}",
        out.stats
    );
}

#[test]
fn risc_machine_allocates_three_address() {
    let mut b = FunctionBuilder::new("risc");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 30);
    b.load_imm(y, 12);
    b.bin(BinOp::Sub, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let f = b.finish();
    let out = alloc_risc(&f);
    assert!(out.report.solved_optimally());
    assert_eq!(out.stats.total_insts(), 0);
}

#[test]
fn risc_model_is_larger_than_x86_model() {
    // §6: the x86 IP model has far fewer constraints (6 vs 24 registers).
    let mut b = FunctionBuilder::new("cmp");
    let syms: Vec<_> = (0..4).map(|_| b.new_sym(Width::B32)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64);
    }
    let mut acc = b.new_sym(Width::B32);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    b.ret(Some(acc));
    let f = b.finish();
    let x86 = X86Machine::pentium();
    let risc = RiscMachine::new();
    let bx = IpAllocator::new(&x86).build_only(&f).unwrap();
    let br = IpAllocator::new(&risc).build_only(&f).unwrap();
    assert!(
        br.model.num_rows() > 2 * bx.model.num_rows(),
        "RISC {} rows vs x86 {} rows",
        br.model.num_rows(),
        bx.model.num_rows()
    );
}

#[test]
fn refused_width_functions_are_not_attempted() {
    let mut b = FunctionBuilder::new("w64");
    let x = b.new_sym(Width::B64);
    b.load_imm(x, 1);
    b.ret(None);
    let f = b.finish();
    let m = X86Machine::pentium();
    assert_eq!(
        RobustAllocator::new(&m).allocate(&f).unwrap_err(),
        AllocError::WidthRefused
    );
}

#[test]
fn size_only_cost_model_allocates_correctly() {
    let mut b = FunctionBuilder::new("size");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 2);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(40));
    b.ret(Some(y));
    let f = b.finish();
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m)
        .with_cost_model(CostModel::size_only())
        .allocate(&f)
        .unwrap();
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap();
    check::equivalent::<X86RegFile>(&f, &out.func, 4, 3).unwrap();
    assert!(out.report.solved_optimally());
}

#[test]
fn short_opcode_steers_to_eax() {
    // add-with-immediate is one byte shorter via EAX (§5.4.1); with B=1000
    // the size term dominates, so the accumulator should be chosen.
    let mut b = FunctionBuilder::new("shortop");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1000));
    b.ret(Some(y));
    let f = b.finish();
    let out = alloc_x86(&f);
    let add_reg = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            regalloc_ir::Inst::Bin {
                op: BinOp::Add,
                lhs: Operand::Loc(Loc::Real(r)),
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("rewritten add");
    assert_eq!(add_reg, regalloc_x86::regs::EAX, "§5.4.1 discount");
}

#[test]
fn indirect_addressing_allocates_base_and_index() {
    let mut b = FunctionBuilder::new("addr");
    let base = b.new_sym(Width::B32);
    let idx = b.new_sym(Width::B32);
    let v = b.new_sym(Width::B32);
    b.load_imm(base, 0x2000);
    b.load_imm(idx, 3);
    b.store(
        Address::Indirect {
            base: Some(Loc::Sym(base)),
            index: Some((Loc::Sym(idx), Scale::S4)),
            disp: 8,
        },
        Operand::Imm(99),
        Width::B32,
    );
    b.load(
        v,
        Address::Indirect {
            base: Some(Loc::Sym(base)),
            index: Some((Loc::Sym(idx), Scale::S4)),
            disp: 8,
        },
    );
    b.ret(Some(v));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved_optimally());
}

#[test]
fn fallback_spill_everything_is_correct() {
    let mut b = FunctionBuilder::new("fb");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.load_imm(y, 3);
    b.bin(BinOp::Mul, z, Operand::sym(x), Operand::sym(y));
    b.bin(BinOp::Add, z, Operand::sym(z), Operand::sym(x));
    b.ret(Some(z));
    let f = b.finish();
    let m = X86Machine::pentium();
    let cfg = regalloc_ir::Cfg::new(&f);
    let loops = regalloc_ir::LoopInfo::new(&f, &cfg);
    let profile = regalloc_ir::Profile::estimate(&f, &cfg, &loops);
    let (nf, stats) = fallback::spill_everything(&f, &profile, &m).expect("fallback allocates");
    verify_allocated(&nf).unwrap_or_else(|e| panic!("{e:?}\n{nf}"));
    check::equivalent::<X86RegFile>(&f, &nf, 6, 42)
        .unwrap_or_else(|e| panic!("fallback equivalence: {e}\n{nf}"));
    assert!(stats.loads > 0 && stats.stores > 0);
}

#[test]
fn diamond_control_flow_joins() {
    // A value defined before a diamond and used after it must be in a
    // consistent location at the join.
    let mut b = FunctionBuilder::new("diamond");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let t = b.new_sym(Width::B32);
    let then_b = b.block();
    let else_b = b.block();
    let join = b.block();
    b.load_global(x, p);
    b.branch(
        Cond::Gt,
        Operand::sym(x),
        Operand::Imm(10),
        Width::B32,
        then_b,
        else_b,
    );
    b.switch_to(then_b);
    b.bin(BinOp::Add, t, Operand::sym(x), Operand::Imm(1));
    b.jump(join);
    b.switch_to(else_b);
    b.bin(BinOp::Sub, t, Operand::sym(x), Operand::Imm(1));
    b.jump(join);
    b.switch_to(join);
    let r = b.new_sym(Width::B32);
    b.bin(BinOp::Add, r, Operand::sym(t), Operand::sym(x));
    b.ret(Some(r));
    let f = b.finish();
    let out = alloc_x86(&f);
    assert!(out.report.solved());
}

#[test]
fn zero_budget_still_solves_via_warm_start() {
    use regalloc_ilp::SolverConfig;
    use std::time::Duration;
    let mut b = FunctionBuilder::new("fbk");
    let syms: Vec<_> = (0..8).map(|_| b.new_sym(Width::B32)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64);
    }
    let mut acc = b.new_sym(Width::B32);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    b.ret(Some(acc));
    let f = b.finish();
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m)
        .with_solver_config(SolverConfig {
            time_limit: Duration::from_millis(0),
            ..Default::default()
        })
        .allocate(&f)
        .unwrap();
    common::assert_no_defect(&out.report);
    // The warm start guarantees *an* allocation is emitted even with no
    // search budget, but the solver found nothing itself: Table 2 counts
    // this as unsolved.
    assert!(!out.report.solved(), "zero budget finds nothing of its own");
    assert!(!out.report.solved_optimally());
    verify_allocated(&out.func).unwrap();
    check::equivalent::<X86RegFile>(&f, &out.func, 4, 5).unwrap();
}

#[test]
fn model_size_grows_roughly_linearly() {
    // Fig. 9's shape: constraints grow slightly super-linearly with
    // instruction count.
    let make = |n: usize| {
        let mut b = FunctionBuilder::new("grow");
        let mut prev = b.new_sym(Width::B32);
        b.load_imm(prev, 1);
        for i in 0..n {
            let t = b.new_sym(Width::B32);
            b.bin(BinOp::Add, t, Operand::sym(prev), Operand::Imm(i as i64));
            prev = t;
        }
        b.ret(Some(prev));
        b.finish()
    };
    let m = X86Machine::pentium();
    let small = IpAllocator::new(&m).build_only(&make(10)).unwrap();
    let large = IpAllocator::new(&m).build_only(&make(40)).unwrap();
    let ratio = large.model.num_rows() as f64 / small.model.num_rows() as f64;
    assert!(
        (2.0..12.0).contains(&ratio),
        "4x instructions -> {ratio:.1}x constraints"
    );
}
