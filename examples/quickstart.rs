//! Quickstart: build a tiny function, allocate it with the IP allocator
//! and inspect the result. The allocator accepts an allocation only after
//! it passes structural verification, the static translation validator
//! and interpreter-equivalence runs against the original, so the code it
//! returns is already checked.
//!
//! Run with `cargo run --release --example quickstart`.

use precise_regalloc::core::RobustAllocator;
use precise_regalloc::ir::{BinOp, FunctionBuilder, Operand, Width};
use precise_regalloc::x86::X86Machine;

fn main() {
    // return (a * a) + b;  — a and b arrive on the stack, x86-style.
    let mut b = FunctionBuilder::new("square_plus");
    let pa = b.new_param("a", Width::B32);
    let pb = b.new_param("b", Width::B32);
    let a = b.new_sym(Width::B32);
    let t = b.new_sym(Width::B32);
    let bb = b.new_sym(Width::B32);
    let r = b.new_sym(Width::B32);
    b.load_global(a, pa);
    b.bin(BinOp::Mul, t, Operand::sym(a), Operand::sym(a));
    b.load_global(bb, pb);
    b.bin(BinOp::Add, r, Operand::sym(t), Operand::sym(bb));
    b.ret(Some(r));
    let f = b.finish();

    println!("== symbolic input ==\n{f}\n");

    let machine = X86Machine::pentium();
    let out = RobustAllocator::new(&machine)
        .allocate(&f)
        .expect("32-bit function is attempted");
    let report = &out.report;

    println!("== allocated output ==\n{}\n", out.func);
    println!(
        "model: {} constraints, {} variables; solved={}, optimal={}, {} B&B nodes in {:?}",
        report.num_constraints,
        report.num_vars,
        report.solved(),
        report.solved_optimally(),
        report.solver_nodes,
        report.solve_time
    );
    println!(
        "spill overhead: {} loads, {} stores, {} remats, {} copies (net)",
        out.stats.loads, out.stats.stores, out.stats.remats, out.stats.copies
    );
    println!(
        "\naccepted on rung {} after {:?} of validation \
         (structural, static and 4 interpreter-equivalence runs).",
        report.rung, report.validate_time
    );
}
