//! Machine-invariant verification (`regalloc_machine::verify_machine`)
//! exercised against the concrete x86 model. These tests lived alongside
//! the verifier before it was hoisted into `regalloc-machine`; they stay
//! with the x86 crate because the generic crate cannot depend on a
//! backend.

use regalloc_ir::{
    BinOp, Dst, Function, FunctionBuilder, Inst, Loc, Operand, PhysReg, SlotId, UnOp, Width,
};
use regalloc_machine::{verify_machine, MachineErrorKind};
use regalloc_x86::regs::{AL, EAX, EBX, ECX};
use regalloc_x86::X86Machine;

fn real(r: PhysReg) -> Operand {
    Operand::Loc(Loc::Real(r))
}

fn wrap(insts: Vec<Inst>) -> Function {
    let mut b = FunctionBuilder::new("mv");
    let _ = b.new_sym(Width::B32);
    for i in insts {
        b.push(i);
    }
    b.ret(None);
    b.finish()
}

#[test]
fn accepts_valid_two_address() {
    let m = X86Machine::pentium();
    let f = wrap(vec![
        Inst::LoadImm {
            dst: Loc::Real(EAX),
            imm: 1,
            width: Width::B32,
        },
        Inst::Bin {
            op: BinOp::Add,
            dst: Dst::Loc(Loc::Real(EAX)),
            lhs: real(EAX),
            rhs: real(EBX),
            width: Width::B32,
        },
    ]);
    assert!(verify_machine(&m, &f).is_ok());
}

#[test]
fn rejects_three_address_form() {
    let m = X86Machine::pentium();
    let f = wrap(vec![Inst::Bin {
        op: BinOp::Add,
        dst: Dst::Loc(Loc::Real(ECX)),
        lhs: real(EAX),
        rhs: real(EBX),
        width: Width::B32,
    }]);
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs[0].message.contains("two-address"));
    assert_eq!(errs[0].kind, MachineErrorKind::TwoAddress);
}

#[test]
fn rejects_wrong_width_class() {
    let m = X86Machine::pentium();
    let f = wrap(vec![Inst::LoadImm {
        dst: Loc::Real(AL),
        imm: 1,
        width: Width::B32, // 32-bit value into an 8-bit register
    }]);
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs[0].message.contains("width-32"));
    assert_eq!(errs[0].kind, MachineErrorKind::WidthClass);
}

#[test]
fn rejects_unpinned_shift_count() {
    let m = X86Machine::pentium();
    let f = wrap(vec![Inst::Bin {
        op: BinOp::Shl,
        dst: Dst::Loc(Loc::Real(EAX)),
        lhs: real(EAX),
        rhs: real(EBX), // must be ECX
        width: Width::B32,
    }]);
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs
        .iter()
        .any(|e| e.kind == MachineErrorKind::Pinning && e.message.contains("not admitted")));
}

#[test]
fn accepts_pinned_shift_count() {
    let m = X86Machine::pentium();
    let f = wrap(vec![Inst::Bin {
        op: BinOp::Shl,
        dst: Dst::Loc(Loc::Real(EAX)),
        lhs: real(EAX),
        rhs: real(ECX),
        width: Width::B32,
    }]);
    assert!(verify_machine(&m, &f).is_ok());
}

#[test]
fn rejects_ret_val_outside_accumulator() {
    let m = X86Machine::pentium();
    let mut b = FunctionBuilder::new("rv");
    let _ = b.new_sym(Width::B32);
    b.push(Inst::Ret {
        val: Some(real(EBX)), // must be EAX
    });
    let f = b.finish();
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs
        .iter()
        .any(|e| e.kind == MachineErrorKind::Pinning && e.message.contains("RetVal")));
}

#[test]
fn accepts_ret_val_in_accumulator() {
    let m = X86Machine::pentium();
    let mut b = FunctionBuilder::new("rv");
    let _ = b.new_sym(Width::B32);
    b.push(Inst::Ret {
        val: Some(real(EAX)),
    });
    let f = b.finish();
    assert!(verify_machine(&m, &f).is_ok());
}

#[test]
fn rejects_double_memory_operand() {
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let s1 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Bin {
            op: BinOp::Add,
            dst: Dst::Slot(s0),
            lhs: Operand::Slot(s0),
            rhs: Operand::Slot(s1),
            width: Width::B32,
        },
    );
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs
        .iter()
        .any(|e| e.kind == MachineErrorKind::MemOperandCount));
    let _ = SlotId(0);
}

#[test]
fn rejects_memory_mul_destination() {
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Bin {
            op: BinOp::Mul,
            dst: Dst::Slot(s0),
            lhs: Operand::Slot(s0),
            rhs: real(EAX),
            width: Width::B32,
        },
    );
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs.iter().any(|e| e.message.contains("combined")));
}

#[test]
fn rejects_un_memory_destination_without_combined_source() {
    // neg [slot] with a *register* source is unencodable: the memory
    // destination must also be the combined source.
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Un {
            op: UnOp::Neg,
            dst: Dst::Slot(s0),
            src: real(EAX),
            width: Width::B32,
        },
    );
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs.iter().any(|e| e.kind == MachineErrorKind::MemoryForm
        && e.message
            .contains("memory destination without combined source")));
}

#[test]
fn accepts_combined_un_memory_form() {
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Un {
            op: UnOp::Neg,
            dst: Dst::Slot(s0),
            src: Operand::Slot(s0),
            width: Width::B32,
        },
    );
    assert!(verify_machine(&m, &f).is_ok());
}

#[test]
fn counts_memory_def_toward_operand_limit() {
    // `[s0] = eax + [s1]` — the memory *definition* plus the memory
    // rhs makes two memory operands even though only one is a use.
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let s1 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Bin {
            op: BinOp::Add,
            dst: Dst::Slot(s0),
            lhs: real(EAX),
            rhs: Operand::Slot(s1),
            width: Width::B32,
        },
    );
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs
        .iter()
        .any(|e| e.kind == MachineErrorKind::MemOperandCount));
    assert!(errs.iter().any(|e| e
        .message
        .contains("memory destination without combined source")));
}

#[test]
fn rejects_combined_specifier_mismatch() {
    // `[s0] = [s1] + eax` — combined destination names a different
    // slot than the combined source.
    let m = X86Machine::pentium();
    let mut f = wrap(vec![]);
    let s0 = f.add_slot(Width::B32, None);
    let s1 = f.add_slot(Width::B32, None);
    let e = f.entry();
    f.block_mut(e).insts.insert(
        0,
        Inst::Bin {
            op: BinOp::Add,
            dst: Dst::Slot(s0),
            lhs: Operand::Slot(s1),
            rhs: real(EAX),
            width: Width::B32,
        },
    );
    let errs = verify_machine(&m, &f).unwrap_err();
    assert!(errs.iter().any(|e| e.kind == MachineErrorKind::TwoAddress
        && e.message.contains("combined memory specifier mismatch")));
    assert!(errs
        .iter()
        .any(|e| e.kind == MachineErrorKind::MemOperandCount));
}

#[test]
fn x86_model_self_check_is_clean() {
    for m in [
        X86Machine::pentium(),
        X86Machine::with_frame_pointer_free(),
        X86Machine::with_esp(),
    ] {
        let diags = regalloc_machine::check_machine(&m);
        assert!(
            diags.is_empty(),
            "{}: {diags:?}",
            regalloc_machine::Machine::name(&m)
        );
    }
    assert!(regalloc_machine::check_machine(&regalloc_x86::RiscMachine::new()).is_empty());
}
