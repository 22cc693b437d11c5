//! §5.3 — overlapping registers.
//!
//! Registers that share bit fields (AL/AX/EAX…) can together hold at most
//! one value. The machine model groups such registers into maximal
//! *register sets* sharing one underlying bit field
//! ([`Machine::overlap_groups`](regalloc_machine::Machine::overlap_groups)),
//! and the builder emits a **generalised single-symbolic constraint** per
//! set at every program point where occupancy can change:
//!
//! * a *pre* row at each event point sums, over every live symbolic and
//!   every set member it could occupy, the incoming-residence variables
//!   plus the actions that put a value into a register there (loads,
//!   rematerialisations, inserted copies, entry joins) — `Σ ≤ 1`;
//! * a *post* row (emitted when the point defines a register) sums the
//!   definition variables of the defining symbolics with the outgoing
//!   residence of everything else — `Σ ≤ 1`, which is what lets a
//!   definition reuse the register of a use that *ends* at the
//!   instruction (the two-address pattern) while still excluding every
//!   live value.
//!
//! Registers a symbolic cannot hold contribute no term, so the constraint
//! "shrinks" exactly as in the paper's example where the AX term
//! disappears when no 16-bit symbolic is live.

use regalloc_ilp::{Model, VarId};
use std::collections::HashSet;

/// Emit one `Σ terms ≤ 1` row per distinct non-trivial term set.
///
/// `rows` holds, per overlap group, the collected occupancy variables.
/// Groups whose term sets are identical (e.g. the {EAX,AX,AL} and
/// {EAX,AX,AH} sets in a function with no 8-bit values) produce a single
/// row; rows with fewer than two terms are trivially satisfied and
/// dropped.
pub fn emit_occupancy_rows(model: &mut Model, rows: Vec<Vec<VarId>>) {
    let mut seen: HashSet<Vec<VarId>> = HashSet::new();
    for mut terms in rows {
        if terms.len() < 2 {
            continue;
        }
        terms.sort();
        terms.dedup();
        if terms.len() < 2 || !seen.insert(terms.clone()) {
            continue;
        }
        model.add_le(terms.into_iter().map(|v| (v, 1.0)).collect(), 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_identical_groups_and_drops_trivial() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        let c = m.add_var(0.0, "c");
        emit_occupancy_rows(
            &mut m,
            vec![
                vec![a, b],
                vec![b, a], // duplicate after sorting
                vec![c],    // trivial
                vec![a, c],
                vec![],
            ],
        );
        assert_eq!(m.num_rows(), 2);
    }
}
