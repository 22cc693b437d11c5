//! Mixed-width end-to-end allocations: 16-bit values engage the SI/DI and
//! AX–DX classes and the §5.3 overlap sets.

use regalloc_core::{check, RobustAllocator};
use regalloc_ir::{verify_allocated, BinOp, FunctionBuilder, Operand, UnOp, Width};
use regalloc_x86::{X86Machine, X86RegFile};

mod common;

#[test]
fn sixteen_bit_arithmetic() {
    let mut b = FunctionBuilder::new("w16");
    let a = b.new_sym(Width::B16);
    let c = b.new_sym(Width::B16);
    let d = b.new_sym(Width::B16);
    let r32 = b.new_sym(Width::B32);
    b.load_imm(a, 0x7000);
    b.load_imm(c, 0x2000);
    b.bin(BinOp::Add, d, Operand::sym(a), Operand::sym(c)); // 0x9000
    b.load_imm(r32, 1);
    b.ret(Some(r32));
    let f = b.finish();
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap();
    check::equivalent::<X86RegFile>(&f, &out.func, 6, 21).unwrap();
    assert!(out.report.solved_optimally());
}

#[test]
fn mixed_widths_share_families_without_conflict() {
    // A 16-bit value in AX and an 8-bit value may not share the A family;
    // the solver must distribute them. Six 16-bit + four 8-bit values is
    // feasible only with careful packing.
    let mut b = FunctionBuilder::new("mix");
    let w16: Vec<_> = (0..4).map(|_| b.new_sym(Width::B16)).collect();
    let w8: Vec<_> = (0..4).map(|_| b.new_sym(Width::B8)).collect();
    for (i, &s) in w16.iter().enumerate() {
        b.load_imm(s, 100 * (i as i64 + 1));
    }
    for (i, &s) in w8.iter().enumerate() {
        b.load_imm(s, 10 * (i as i64 + 1));
    }
    let mut acc16 = b.new_sym(Width::B16);
    b.load_imm(acc16, 0);
    for &s in &w16 {
        let t = b.new_sym(Width::B16);
        b.bin(BinOp::Add, t, Operand::sym(acc16), Operand::sym(s));
        acc16 = t;
    }
    let mut acc8 = b.new_sym(Width::B8);
    b.load_imm(acc8, 0);
    for &s in &w8 {
        let t = b.new_sym(Width::B8);
        b.bin(BinOp::Xor, t, Operand::sym(acc8), Operand::sym(s));
        acc8 = t;
    }
    let out8 = b.new_sym(Width::B8);
    b.un(UnOp::Not, out8, Operand::sym(acc8));
    let r = b.new_sym(Width::B32);
    b.load_imm(r, 7);
    b.ret(Some(r));
    let f = b.finish();
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap();
    check::equivalent::<X86RegFile>(&f, &out.func, 6, 22).unwrap();
    assert!(out.report.solved(), "mixed-width packing is feasible");
}

#[test]
fn shift_count_for_narrow_widths_uses_cl_family() {
    let mut b = FunctionBuilder::new("shl16");
    let x = b.new_sym(Width::B16);
    let c = b.new_sym(Width::B16);
    let y = b.new_sym(Width::B16);
    let r = b.new_sym(Width::B32);
    b.load_imm(x, 3);
    b.load_imm(c, 4);
    b.bin(BinOp::Shl, y, Operand::sym(x), Operand::sym(c)); // 48
    b.load_imm(r, 1);
    b.ret(Some(r));
    let f = b.finish();
    let m = X86Machine::pentium();
    let out = RobustAllocator::new(&m).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    check::equivalent::<X86RegFile>(&f, &out.func, 6, 23).unwrap();
    let count = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            regalloc_ir::Inst::Bin {
                op: BinOp::Shl,
                rhs: Operand::Loc(regalloc_ir::Loc::Real(rr)),
                ..
            } => Some(*rr),
            _ => None,
        })
        .expect("shift remains");
    assert_eq!(count, regalloc_x86::regs::CX, "16-bit counts use CX");
}
