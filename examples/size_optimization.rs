//! §4 — optimising purely for program size.
//!
//! The paper's cost model `A·cycle + B·size + C·data` supports an
//! embedded-systems mode where the cycle and data components are dropped
//! entirely (`CostModel::size_only`). This example allocates the same
//! function under both cost models and compares encoded code size and
//! estimated dynamic overhead.
//!
//! Run with `cargo run --release --example size_optimization`.

use precise_regalloc::core::{check, CostModel, RobustAllocator};
use precise_regalloc::ir::{BinOp, Cond, FunctionBuilder, Operand, Width};
use precise_regalloc::x86::{encoding, X86Machine, X86RegFile};

fn main() {
    // A small loop with an immediate-heavy body: size-mode loves the
    // EAX short forms and remats; speed-mode cares about the loop body.
    let mut b = FunctionBuilder::new("embedded");
    let p = b.new_param("n", Width::B32);
    let n = b.new_sym(Width::B32);
    let i = b.new_sym(Width::B32);
    let acc = b.new_sym(Width::B32);
    let head = b.block();
    let body = b.block();
    let exit = b.block();
    b.load_global(n, p);
    b.load_imm(i, 0);
    b.load_imm(acc, 0);
    b.jump(head);
    b.switch_to(head);
    b.branch(
        Cond::Lt,
        Operand::sym(i),
        Operand::sym(n),
        Width::B32,
        body,
        exit,
    );
    b.switch_to(body);
    b.bin(BinOp::Add, acc, Operand::sym(acc), Operand::Imm(1000));
    b.bin(BinOp::Xor, acc, Operand::sym(acc), Operand::sym(i));
    b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
    b.jump(head);
    b.switch_to(exit);
    b.ret(Some(acc));
    let f = b.finish();

    let machine = X86Machine::pentium();
    for (label, cost) in [
        ("speed (paper weights: A, B=1000)", CostModel::paper()),
        ("size-only (§4 embedded mode)", CostModel::size_only()),
    ] {
        let out = RobustAllocator::new(&machine)
            .with_cost_model(cost)
            .allocate(&f)
            .expect("attempted");
        check::equivalent::<X86RegFile>(&f, &out.func, 5, 99).expect("correct");
        let bytes = encoding::function_size(&machine, &out.func);
        println!("== {label} ==");
        println!(
            "encoded size {bytes} bytes; dynamic overhead {} cycles; solved optimally: {}",
            out.stats.overhead_cycles(),
            out.report.solved_optimally()
        );
        println!("{}\n", out.func);
    }
}
