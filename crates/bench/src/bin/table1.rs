//! Table 1 — spill-code costs (cycle count and instruction bytes).
//!
//! These are machine-model constants (Pentium timings), printed from
//! `regalloc-x86` exactly as the paper lists them.

use regalloc_machine::Machine;
use regalloc_x86::X86Machine;

fn main() {
    let m = X86Machine::pentium();
    let c = m.spill_costs();
    println!("Table 1. Spill code cost ({}).", m.name());
    println!(
        "{:<18} {:>10} {:>12}",
        "instruction", "cycle cost", "memory cost"
    );
    println!("{:<18} {:>10} {:>12}", "load", c.load_cycles, c.load_bytes);
    println!(
        "{:<18} {:>10} {:>12}",
        "store", c.store_cycles, c.store_bytes
    );
    println!(
        "{:<18} {:>10} {:>12}",
        "rematerialization", c.remat_cycles, c.remat_bytes
    );
    println!("{:<18} {:>10} {:>12}", "copy", c.copy_cycles, c.copy_bytes);
    println!();
    println!("paper: load 1/3, store 1/3, rematerialization 1/3, copy 1/2");
}
