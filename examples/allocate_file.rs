//! Allocate textual IR from a file (or stdin): a command-line front end
//! to the IP allocator, useful for experimenting with hand-written
//! functions.
//!
//! ```console
//! $ cargo run --release --example allocate_file -- my_func.ir
//! $ cargo run --release --example allocate_file            # reads stdin
//! ```
//!
//! The input format is exactly what the IR printer emits (see
//! `regalloc_ir::parse_function`); try piping a dump from another example
//! back in.

use std::io::Read;

use precise_regalloc::core::{check, RobustAllocator};
use precise_regalloc::ir::{parse_function, verify_function};
use precise_regalloc::x86::{X86Machine, X86RegFile};
use regalloc_machine::verify_machine;

fn main() {
    let mut text = String::new();
    match std::env::args().nth(1) {
        Some(path) => {
            text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        }
        None => {
            std::io::stdin()
                .read_to_string(&mut text)
                .expect("cannot read stdin");
        }
    }
    let f = parse_function(&text).unwrap_or_else(|e| panic!("parse error: {e}"));
    verify_function(&f).unwrap_or_else(|e| panic!("ill-formed input: {e:?}"));

    let machine = X86Machine::pentium();
    let out = RobustAllocator::new(&machine)
        .allocate(&f)
        .expect("function uses 64-bit values");
    println!("{}", out.func);
    let report = &out.report;
    eprintln!(
        "; {} constraints, {} vars; solved={}, optimal={}, {:?}",
        report.num_constraints,
        report.num_vars,
        report.solved(),
        report.solved_optimally(),
        report.solve_time
    );
    eprintln!(
        "; spill overhead: {} loads, {} stores, {} remats, {} copies (net, profile-weighted)",
        out.stats.loads, out.stats.stores, out.stats.remats, out.stats.copies
    );
    verify_machine(&machine, &out.func).expect("machine invariants");
    check::equivalent::<X86RegFile>(&f, &out.func, 6, 0xF11E)
        .expect("allocated code must behave identically");
    eprintln!("; verified: machine invariants + execution equivalence");
}
