//! A tour of the paper's §5 irregular-architecture features, one by one,
//! showing how the IP allocator handles each precisely.
//!
//! Run with `cargo run --release --example irregular_x86`.

use precise_regalloc::core::{check, RobustAllocator, RobustOutcome};
use precise_regalloc::ir::{BinOp, Function, FunctionBuilder, Inst, Loc, Operand, UnOp, Width};
use precise_regalloc::x86::{regs, X86Machine, X86RegFile};

fn allocate(f: &Function) -> RobustOutcome {
    let machine = X86Machine::pentium();
    let out = RobustAllocator::new(&machine)
        .allocate(f)
        .expect("attempted");
    check::equivalent::<X86RegFile>(f, &out.func, 5, 7).expect("correct");
    out
}

/// §5.1 — combined source/destination specifiers: the allocator chooses
/// which commutative source to overwrite, or pays for a copy, inside the
/// optimisation rather than in a pre-pass.
fn combined_specifier() {
    println!("== §5.1 combined source/destination specifiers ==");
    let mut b = FunctionBuilder::new("s51");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    let w = b.new_sym(Width::B32);
    b.load_imm(x, 7);
    b.load_imm(y, 35);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y)); // y dies here
    b.bin(BinOp::Mul, w, Operand::sym(z), Operand::sym(x)); // x dies here
    b.ret(Some(w));
    let f = b.finish();
    let out = allocate(&f);
    println!("{}", out.func);
    println!(
        "copies inserted (net): {} — the commutative swap avoids them entirely\n",
        out.stats.copies
    );
}

/// §5.3 — overlapping registers: an 8-bit value in AL conflicts with a
/// 32-bit value in EAX but not with one in EBX.
fn overlapping_registers() {
    println!("== §5.3 overlapping registers ==");
    let mut b = FunctionBuilder::new("s53");
    let byte = b.new_sym(Width::B8);
    let byte2 = b.new_sym(Width::B8);
    let word = b.new_sym(Width::B32);
    b.load_imm(byte, 0x5A);
    b.load_imm(word, 100_000);
    b.un(UnOp::Not, byte2, Operand::sym(byte));
    b.ret(Some(word));
    let f = b.finish();
    let out = allocate(&f);
    println!("{}", out.func);
    let mut used = Vec::new();
    for (_, _, inst) in out.func.insts() {
        if let Some((Loc::Real(r), _)) = inst.def() {
            used.push(regs::name_of(r));
        }
    }
    println!("definition registers: {used:?} — byte values live in 8-bit fields\n");
}

/// §5.4.1 — the short immediate opcode steers allocation toward EAX.
fn short_opcode() {
    println!("== §5.4.1 AL/AX/EAX short opcodes ==");
    let mut b = FunctionBuilder::new("s541");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(12345));
    b.ret(Some(y));
    let f = b.finish();
    let out = allocate(&f);
    for (_, _, inst) in out.func.insts() {
        if let Inst::Bin {
            lhs: Operand::Loc(Loc::Real(r)),
            ..
        } = inst
        {
            println!(
                "add-with-immediate lives in {} (one byte shorter than any other register)\n",
                regs::name_of(*r)
            );
        }
    }
}

/// §5.5 — predefined memory symbolic registers: the parameter load
/// disappears and the parameter's stack slot doubles as the spill slot.
fn predefined_memory() {
    println!("== §5.5 predefined memory symbolic registers ==");
    let mut b = FunctionBuilder::new("s55");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1));
    b.ret(Some(y));
    let f = b.finish();
    let out = allocate(&f);
    println!("{}", out.func);
    let coalesced = out.func.slots().iter().any(|s| s.home.is_some());
    println!("the defining load is deleted; home-coalesced slot present: {coalesced}\n",);
}

/// §3.2 — implicit registers: a register shift count must live in ECX.
fn implicit_registers() {
    println!("== §3.2 implicit registers (shift count in CL) ==");
    let mut b = FunctionBuilder::new("s32");
    let x = b.new_sym(Width::B32);
    let c = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.load_imm(c, 10);
    b.bin(BinOp::Shl, y, Operand::sym(x), Operand::sym(c));
    b.ret(Some(y));
    let f = b.finish();
    let out = allocate(&f);
    for (_, _, inst) in out.func.insts() {
        if let Inst::Bin {
            op: BinOp::Shl,
            rhs: Operand::Loc(Loc::Real(r)),
            ..
        } = inst
        {
            println!("shift count allocated to {}\n", regs::name_of(*r));
        }
    }
}

fn main() {
    combined_specifier();
    overlapping_registers();
    short_opcode();
    predefined_memory();
    implicit_registers();
    println!("all §5 features exercised and verified by execution.");
}
