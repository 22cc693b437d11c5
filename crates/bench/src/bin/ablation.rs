//! Ablation: how much does each irregularity model matter?
//!
//! Three machine configurations allocate the same workload sample:
//!
//!  * `x86-6` — the paper's configuration (EAX…EDI allocatable);
//!  * `x86-7 (EBP free)` — the frame pointer joins the pool, engaging the
//!    §5.4.2 `[EBP]` addressing penalty and growing every register class;
//!  * `x86-8 (ESP too)` — additionally ESP, engaging its base-register
//!    penalty and the §5.4.3 scaled-index exclusion.
//!
//! More registers mean less spill but a bigger IP; the table quantifies
//! both directions, an ablation of the design choice the paper fixes at
//! six registers.

use regalloc_bench::Options;
use regalloc_core::RobustAllocator;
use regalloc_workloads::{Benchmark, Suite};
use regalloc_x86::X86Machine;

fn main() {
    let o = Options::from_args();
    let configs = [
        ("x86-6 (paper)", X86Machine::pentium()),
        ("x86-7 (EBP free)", X86Machine::with_frame_pointer_free()),
        ("x86-8 (ESP too)", X86Machine::with_esp()),
    ];
    println!(
        "{:<18} {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "config", "funcs", "rows", "vars", "optimal", "overhead", "bytes"
    );
    for (name, machine) in configs {
        let ip = RobustAllocator::new(&machine).with_solver_config(o.driver.solver.clone());
        let (mut rows, mut vars, mut optimal, mut overhead, mut bytes, mut n) =
            (0usize, 0usize, 0usize, 0i64, 0i64, 0usize);
        for b in [Benchmark::Xlisp, Benchmark::Compress] {
            let suite = Suite::generate_scaled(b, o.seed, (o.scale * 0.5).max(0.01));
            for f in suite.functions.iter().filter(|f| !f.uses_64bit()) {
                let out = ip.allocate(f).expect("attempted");
                rows += out.report.num_constraints;
                vars += out.report.num_vars;
                optimal += out.report.solved_optimally() as usize;
                overhead += out.stats.overhead_cycles();
                bytes += out.stats.code_bytes;
                n += 1;
            }
        }
        println!(
            "{:<18} {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}",
            name, n, rows, vars, optimal, overhead, bytes
        );
    }
    println!();
    println!("more allocatable registers → larger IPs (slower proofs) but less spill;");
    println!("the §5.4.2/§5.4.3 penalties only exist in the 7- and 8-register rows.");
}
