//! Machine-invariant verification (`regalloc_machine::verify_machine`)
//! against the MCU model.

use regalloc_ir::{FunctionBuilder, Inst, Loc, Operand, Width};
use regalloc_machine::verify_machine;
use regalloc_mcu::{McuMachine, P1};

/// A void call passing a 16-bit value in a register pair is encodable.
/// `Call`'s width is its return value's, which a void call leaves at the
/// builder's 32-bit default, so an argument is checked against its own
/// register's class instead.
#[test]
fn void_call_with_a_pair_argument_passes() {
    let m = McuMachine::new();
    let mut b = FunctionBuilder::new("vcall");
    let _ = b.new_sym(Width::B16);
    b.push(Inst::LoadImm {
        dst: Loc::Real(P1),
        imm: 7,
        width: Width::B16,
    });
    b.push(Inst::Call {
        callee: 1,
        ret: None,
        args: vec![Operand::Loc(Loc::Real(P1))],
        width: Width::B32,
    });
    b.ret(None);
    let f = b.finish();
    assert_eq!(verify_machine(&m, &f), Ok(()), "{f}");
}
