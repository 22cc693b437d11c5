//! The outside correctness check: every accepted allocation is
//! re-verified here, independently of the pipeline's own gates.
//!
//! Structural verification replays `regalloc_ir::verify_allocated`; the
//! semantic check runs the pre-allocation function and the allocation
//! side by side under the IR interpreter on argument vectors drawn from
//! the benchmark's own seed (not the pipeline's equivalence seed), and
//! compares every observable the interpreter reports.

use regalloc_ir::interp::mix64;
use regalloc_ir::{verify_allocated, ExecOutcome, Function, Interp, InterpConfig, SymRegFile};
use regalloc_machine::Machine;

/// Argument vectors per checked allocation.
pub const RUNS: u64 = 3;

/// Check `alloc` against the pre-allocation `orig` on `machine`.
///
/// # Errors
///
/// Describes the first structural error or observable divergence.
pub fn allocation(
    machine: &(dyn Machine + Send + Sync),
    orig: &Function,
    alloc: &Function,
    seed: u64,
) -> Result<(), String> {
    if let Err(errs) = verify_allocated(alloc) {
        return Err(format!(
            "{}: {} structural errors, first: {:?}",
            orig.name(),
            errs.len(),
            errs.first()
        ));
    }
    let nargs = orig.globals().iter().filter(|g| g.is_param).count();
    for run in 0..RUNS {
        let base = mix64(seed ^ mix64(run + 1));
        let args: Vec<u64> = (0..nargs as u64).map(|i| mix64(base ^ i) % 4096).collect();
        let cfg = InterpConfig {
            seed: base,
            ..InterpConfig::default()
        };
        let want = Interp::new(orig, SymRegFile, cfg, &args).run();
        let got = Interp::new(alloc, machine.new_regfile(), cfg, &args).run();
        compare(orig, &want, &got)
            .map_err(|e| format!("{}: run {run} (args {args:?}): {e}", orig.name()))?;
    }
    Ok(())
}

/// Every observable must agree, except the final contents of parameter
/// slots, which home-location coalescing may legitimately reuse.
fn compare(f: &Function, want: &ExecOutcome, got: &ExecOutcome) -> Result<(), String> {
    if want.status != got.status || want.ret != got.ret {
        return Err(format!(
            "returned {:?}/{:?}, expected {:?}/{:?}",
            got.status, got.ret, want.status, want.ret
        ));
    }
    if want.trace_hash != got.trace_hash || want.stores != got.stores {
        return Err(format!(
            "store trace differs ({} vs {} stores)",
            got.stores, want.stores
        ));
    }
    if want.blocks_executed != got.blocks_executed {
        return Err(format!(
            "{} blocks executed, expected {}",
            got.blocks_executed, want.blocks_executed
        ));
    }
    for (i, g) in f.globals().iter().enumerate() {
        if !g.is_param && want.globals[i] != got.globals[i] {
            return Err(format!("global {} differs", g.name));
        }
    }
    Ok(())
}
