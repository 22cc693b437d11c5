//! Shared by the allocation tests.

use regalloc_core::{AllocReport, ReasonCode};

/// Fail on a demotion that means a candidate was wrong: a panic or a
/// failed validator. The pipeline emits a lower rung's code in its place,
/// which a test's own checks would accept, so the defect would otherwise
/// go unseen.
pub fn assert_no_defect(report: &AllocReport) {
    let defects: Vec<_> = report
        .demotions
        .iter()
        .filter(|d| {
            matches!(
                d.reason,
                ReasonCode::Panic
                    | ReasonCode::ValidationFailed
                    | ReasonCode::EquivalenceFailed
                    | ReasonCode::StaticValidationFailed
            )
        })
        .collect();
    assert!(defects.is_empty(), "{}: {defects:?}", report.name);
}
