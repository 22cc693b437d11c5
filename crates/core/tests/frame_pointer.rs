//! Tests of the EBP-allocatable configuration (§5.4.2): the frame pointer
//! joins the pool and its bare `[EBP]` addressing-mode penalty enters the
//! model.

use regalloc_core::{check, RobustAllocator};
use regalloc_ir::{verify_allocated, Address, BinOp, FunctionBuilder, Loc, Operand, Width};
use regalloc_machine::Machine;
use regalloc_x86::{regs, X86Machine, X86RegFile};

mod common;

#[test]
fn seventh_register_absorbs_pressure() {
    // Seven simultaneously-live values: six registers must spill, seven
    // need not.
    let build = || {
        let mut b = FunctionBuilder::new("seven");
        let syms: Vec<_> = (0..7).map(|_| b.new_sym(Width::B32)).collect();
        for (i, &s) in syms.iter().enumerate() {
            b.load_imm(s, i as i64 * 3 + 1);
        }
        let mut acc = b.new_sym(Width::B32);
        b.load_imm(acc, 0);
        for &s in &syms {
            let t = b.new_sym(Width::B32);
            b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
            acc = t;
        }
        b.ret(Some(acc));
        b.finish()
    };
    let f = build();
    let m7 = X86Machine::with_frame_pointer_free();
    let out = RobustAllocator::new(&m7).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    verify_allocated(&out.func).unwrap();
    check::equivalent::<X86RegFile>(&f, &out.func, 4, 11).unwrap();
    if out.report.solved_optimally() {
        assert_eq!(
            out.stats.loads + out.stats.stores,
            0,
            "7+accumulator fits in 7 registers with ends: {:?}",
            out.stats
        );
    }
    // EBP must actually be usable.
    assert!(m7.regs_for_width(Width::B32).contains(&regs::EBP));
}

#[test]
fn bare_ebp_addressing_penalty_steers_base_choice() {
    // A hot bare `[base]` dereference: with B = 1000 the one-byte §5.4.2
    // penalty makes EBP the *last* choice for the base register.
    let mut b = FunctionBuilder::new("ebp");
    let base = b.new_sym(Width::B32);
    let v = b.new_sym(Width::B32);
    b.load_imm(base, 0x4000);
    b.load(
        v,
        Address::Indirect {
            base: Some(Loc::Sym(base)),
            index: None,
            disp: 0, // the penalised, displacement-free form
        },
    );
    b.ret(Some(v));
    let f = b.finish();
    let m7 = X86Machine::with_frame_pointer_free();
    let out = RobustAllocator::new(&m7).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    assert!(out.report.solved_optimally());
    check::equivalent::<X86RegFile>(&f, &out.func, 4, 12).unwrap();
    let base_reg = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            regalloc_ir::Inst::Load {
                addr:
                    Address::Indirect {
                        base: Some(Loc::Real(r)),
                        ..
                    },
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("load remains");
    assert_ne!(base_reg, regs::EBP, "§5.4.2: [EBP] costs an extra byte");
}

#[test]
fn esp_never_chosen_as_scaled_index() {
    // With ESP allocatable, the §5.4.3 exclusion keeps it out of scaled
    // index positions even under pressure.
    let mut b = FunctionBuilder::new("esp");
    let idx = b.new_sym(Width::B32);
    let v = b.new_sym(Width::B32);
    b.load_imm(idx, 4);
    b.load(
        v,
        Address::Indirect {
            base: None,
            index: Some((Loc::Sym(idx), regalloc_ir::Scale::S4)),
            disp: 0x100,
        },
    );
    b.ret(Some(v));
    let f = b.finish();
    let m8 = X86Machine::with_esp();
    let out = RobustAllocator::new(&m8).allocate(&f).unwrap();
    common::assert_no_defect(&out.report);
    check::equivalent::<X86RegFile>(&f, &out.func, 4, 13).unwrap();
    let idx_reg = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            regalloc_ir::Inst::Load {
                addr:
                    Address::Indirect {
                        index: Some((Loc::Real(r), _)),
                        ..
                    },
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("load remains");
    assert_ne!(idx_reg, regs::ESP, "§5.4.3 exclusion");
}
