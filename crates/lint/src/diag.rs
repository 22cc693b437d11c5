//! The shared diagnostics engine: one structured [`Diagnostic`] type with
//! stable codes, deterministic ordering and text/JSON/SARIF emitters.
//!
//! Every static checker in the workspace reports through this type:
//!
//! * `V…` — machine-independent structural errors
//!   ([`regalloc_ir::VerifyError`]),
//! * `M0…` — machine-invariant errors ([`regalloc_machine::MachineError`]),
//! * `M1…` — target-model self-check findings
//!   ([`regalloc_machine::ModelDiagnostic`]),
//! * `T…` — translation-validation errors (this crate's
//!   [`validate`](crate::validate::validate)),
//! * `L…` — allocation-quality lints (this crate's
//!   [`lint_allocation`](crate::validate::lint_allocation)),
//! * `A…` — solver-certificate audit findings (`regalloc-audit`).
//!
//! Codes are append-only: a code's meaning never changes once released,
//! so `--deny <code>` pins stay valid across versions.

use std::fmt;

use regalloc_ir::VerifyError;
use regalloc_machine::{MachineError, MachineErrorKind, ModelCheckKind, ModelDiagnostic};

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// The allocation is wrong (or unencodable) and must not be emitted.
    Error,
    /// The allocation is correct but leaves quality on the table.
    Warning,
}

impl Severity {
    /// Stable lowercase name (`error` / `warning`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }

    /// The SARIF `level` for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A stable diagnostic code: a short id (`T002`) plus a human slug
/// (`wrong-value`). `--deny` accepts either spelling.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Code {
    /// Short stable identifier, e.g. `L001`.
    pub id: &'static str,
    /// Kebab-case slug, e.g. `dead-spill-store`.
    pub slug: &'static str,
}

impl Code {
    /// True if `name` names this code (by id or slug, case-sensitive).
    pub fn matches(&self, name: &str) -> bool {
        self.id == name || self.slug == name
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.slug)
    }
}

macro_rules! codes {
    ($($(#[$doc:meta])* $name:ident = $id:literal, $slug:literal;)*) => {
        $($(#[$doc])* pub const $name: Code = Code { id: $id, slug: $slug };)*

        /// Every code the engine can emit, in id order.
        pub const ALL_CODES: &[Code] = &[$($name),*];
    };
}

codes! {
    // V-codes mirror `regalloc_ir::VerifyError`, variant for variant.
    /// A block has no instructions.
    V_EMPTY_BLOCK = "V001", "empty-block";
    /// A block's last instruction is not a terminator.
    V_MISSING_TERMINATOR = "V002", "missing-terminator";
    /// A terminator appears before the end of a block.
    V_EARLY_TERMINATOR = "V003", "early-terminator";
    /// A branch or jump targets a block outside the function.
    V_BAD_TARGET = "V004", "bad-target";
    /// An instruction references a symbolic register out of range.
    V_BAD_SYM = "V005", "bad-sym";
    /// A symbolic register is used at the wrong width.
    V_WIDTH_MISMATCH = "V006", "width-mismatch";
    /// A physical register appears in a symbolic-form function.
    V_UNEXPECTED_REAL = "V007", "unexpected-real";
    /// A spill slot appears in a symbolic-form function.
    V_UNEXPECTED_SLOT = "V008", "unexpected-slot";
    /// A symbolic register survives allocation.
    V_UNALLOCATED_SYM = "V009", "unallocated-sym";
    /// A spill-slot reference is out of range.
    V_BAD_SLOT = "V010", "bad-slot";

    // M0xx codes mirror `regalloc_machine::MachineErrorKind`.
    /// A register holds a value outside its width class.
    M_WIDTH_CLASS = "M001", "width-class";
    /// A pinned operand sits in a register the position does not admit.
    M_PINNING = "M002", "pinning";
    /// A memory operand appears in a position the machine cannot encode.
    M_MEMORY_FORM = "M003", "memory-form";
    /// A two-address instruction's destination differs from its source.
    M_TWO_ADDRESS = "M004", "two-address";
    /// More than one memory operand in a single instruction.
    M_MEM_OPERAND_COUNT = "M005", "mem-operand-count";

    // M1xx codes mirror `regalloc_machine::ModelCheckKind`: findings of
    // the target-model self-check, anchored at b0:0 (they describe the
    // machine description itself, not any program point).
    /// The alias relation is not reflexive/symmetric over allocatable
    /// registers.
    M_ALIAS_ASYMMETRY = "M101", "alias-asymmetry";
    /// Overlap groups do not cover the allocatable set, or group sharing
    /// disagrees with the alias relation.
    M_OVERLAP_PARTITION = "M102", "overlap-partition";
    /// A width class names a register outside every overlap group.
    M_WIDTH_CLASS_ESCAPE = "M103", "width-class-escape";
    /// A size-penalty entry names a register its constraint never admits.
    M_PENALTY_NOT_ADMITTED = "M104", "penalty-not-admitted";

    // T-codes: translation validation (all-paths dataflow proof).
    /// Allocated code cannot be aligned with the original instruction
    /// stream (missing, extra or reshaped instructions).
    T_SHAPE_MISMATCH = "T001", "shape-mismatch";
    /// A location read by an instruction does not hold the required
    /// original value on every path.
    T_WRONG_VALUE = "T002", "wrong-value";
    /// An original constant operand is not proven to be reproduced.
    T_CONSTANT_MISMATCH = "T003", "constant-mismatch";
    /// A load observes a global whose home location was clobbered.
    T_CLOBBERED_GLOBAL = "T004", "clobbered-global";

    // L-codes: allocation-quality lints.
    /// A spill store whose slot is never reloaded on any path.
    L_DEAD_SPILL_STORE = "L001", "dead-spill-store";
    /// A reload of a value that is still live in a register.
    L_REDUNDANT_RELOAD = "L002", "redundant-reload";
    /// A copy whose source and destination are the same register.
    L_SELF_MOVE = "L003", "self-move";
    /// A slot both stored and reloaded inside the same loop.
    L_SPILL_PING_PONG = "L004", "spill-ping-pong";
    /// A definition register outside the machine's class for its width.
    L_UNALLOCATABLE_WIDTH = "L005", "unallocatable-width";

    // A-codes: certificate-audit findings (`regalloc-audit`). The anchor
    // coordinate is reused as `b0:<leaf index>` — certificates have no
    // program point, only branch-and-bound leaves.
    /// A dual multiplier violates its row's sign condition.
    A_DUAL_SIGN = "A001", "dual-sign-violation";
    /// A prune claim's exact dual bound does not dominate the incumbent.
    A_WEAK_BOUND = "A002", "weak-bound";
    /// A Farkas claim's exact dual objective is not strictly positive.
    A_FARKAS_NOT_POSITIVE = "A003", "farkas-not-positive";
    /// The incumbent assignment violates a model constraint or fixing.
    A_INCUMBENT_INFEASIBLE = "A004", "incumbent-infeasible";
    /// The incumbent's exact objective differs from the claimed value.
    A_OBJECTIVE_MISMATCH = "A005", "objective-mismatch";
    /// The leaves do not cover the branch tree (a subtree has no claim).
    A_COVERAGE_GAP = "A006", "coverage-gap";
    /// A recorded propagation step is not implied by the current bounds.
    A_DEDUCTION_UNJUSTIFIED = "A007", "deduction-unjustified";
    /// An optimality claim arrived with no certificate attached.
    A_MISSING_CERTIFICATE = "A008", "missing-certificate";
    /// The certificate is structurally broken (bad index, wrong length,
    /// or rational arithmetic overflowed i128 while checking it).
    A_MALFORMED_CERTIFICATE = "A009", "malformed-certificate";
}

/// Look a code up by id or slug.
pub fn code_by_name(name: &str) -> Option<Code> {
    ALL_CODES.iter().copied().find(|c| c.matches(name))
}

/// One structured finding, anchored to a `b<block>:<inst>` coordinate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Block index of the anchor instruction.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: usize,
    /// What went wrong (or could be better).
    pub message: String,
    /// Extra context (may be empty).
    pub note: String,
}

impl Diagnostic {
    /// An error diagnostic with an empty note.
    pub fn error(code: Code, block: u32, inst: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            block,
            inst,
            message: message.into(),
            note: String::new(),
        }
    }

    /// A warning diagnostic with an empty note.
    pub fn warning(code: Code, block: u32, inst: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            block,
            inst,
            message: message.into(),
            note: String::new(),
        }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.note = note.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{}:{}: {} [{}] {}",
            self.block,
            self.inst,
            self.severity.name(),
            self.code.id,
            self.message
        )?;
        if !self.note.is_empty() {
            write!(f, " ({})", self.note)?;
        }
        Ok(())
    }
}

/// Sort diagnostics into the engine's canonical deterministic order:
/// program point, then severity (errors first), then code, then message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.block, a.inst, a.severity, a.code, &a.message, &a.note)
            .cmp(&(b.block, b.inst, b.severity, b.code, &b.message, &b.note))
    });
}

impl From<&VerifyError> for Diagnostic {
    fn from(e: &VerifyError) -> Diagnostic {
        let (code, block, inst) = match e {
            VerifyError::EmptyBlock(b) => (V_EMPTY_BLOCK, b.0, 0),
            VerifyError::MissingTerminator(b) => (V_MISSING_TERMINATOR, b.0, 0),
            VerifyError::EarlyTerminator(b, i) => (V_EARLY_TERMINATOR, b.0, *i),
            VerifyError::BadTarget(b, _) => (V_BAD_TARGET, b.0, 0),
            VerifyError::BadSym(b, i) => (V_BAD_SYM, b.0, *i),
            VerifyError::WidthMismatch(b, i, _) => (V_WIDTH_MISMATCH, b.0, *i),
            VerifyError::UnexpectedReal(b, i) => (V_UNEXPECTED_REAL, b.0, *i),
            VerifyError::UnexpectedSlot(b, i) => (V_UNEXPECTED_SLOT, b.0, *i),
            VerifyError::UnallocatedSym(b, i) => (V_UNALLOCATED_SYM, b.0, *i),
            VerifyError::BadSlot(b, i) => (V_BAD_SLOT, b.0, *i),
        };
        Diagnostic::error(code, block, inst, e.to_string())
    }
}

impl From<VerifyError> for Diagnostic {
    fn from(e: VerifyError) -> Diagnostic {
        Diagnostic::from(&e)
    }
}

impl From<&MachineError> for Diagnostic {
    fn from(e: &MachineError) -> Diagnostic {
        let code = match e.kind {
            MachineErrorKind::WidthClass => M_WIDTH_CLASS,
            MachineErrorKind::Pinning => M_PINNING,
            MachineErrorKind::MemoryForm => M_MEMORY_FORM,
            MachineErrorKind::TwoAddress => M_TWO_ADDRESS,
            MachineErrorKind::MemOperandCount => M_MEM_OPERAND_COUNT,
        };
        Diagnostic::error(code, e.block, e.inst, e.message.clone())
    }
}

impl From<MachineError> for Diagnostic {
    fn from(e: MachineError) -> Diagnostic {
        Diagnostic::from(&e)
    }
}

impl From<&ModelDiagnostic> for Diagnostic {
    fn from(d: &ModelDiagnostic) -> Diagnostic {
        let code = match d.kind {
            ModelCheckKind::AliasAsymmetry => M_ALIAS_ASYMMETRY,
            ModelCheckKind::OverlapPartition => M_OVERLAP_PARTITION,
            ModelCheckKind::WidthClassEscape => M_WIDTH_CLASS_ESCAPE,
            ModelCheckKind::PenaltyNotAdmitted => M_PENALTY_NOT_ADMITTED,
        };
        Diagnostic::error(code, 0, 0, d.message.clone())
    }
}

impl From<ModelDiagnostic> for Diagnostic {
    fn from(d: ModelDiagnostic) -> Diagnostic {
        Diagnostic::from(&d)
    }
}

/// `s` as a quoted JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    regalloc_obs::push_json_str(&mut out, s);
    out
}

/// A set of diagnostics attributed to one function, ready to render.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// `(function name, its sorted diagnostics)` pairs, in suite order.
    pub functions: Vec<(String, Vec<Diagnostic>)>,
}

impl Report {
    /// Append one function's findings (sorted canonically on insert).
    pub fn push(&mut self, name: impl Into<String>, mut diags: Vec<Diagnostic>) {
        sort_diagnostics(&mut diags);
        self.functions.push((name.into(), diags));
    }

    /// Total findings across all functions.
    pub fn len(&self) -> usize {
        self.functions.iter().map(|(_, d)| d.len()).sum()
    }

    /// True if no function has any finding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over every finding with its function name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Diagnostic)> {
        self.functions
            .iter()
            .flat_map(|(n, ds)| ds.iter().map(move |d| (n.as_str(), d)))
    }

    /// Count findings carrying `code`.
    pub fn count_of(&self, code: Code) -> usize {
        self.iter().filter(|(_, d)| d.code == code).count()
    }

    /// Render as human-readable text, one line per finding.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, diags) in &self.functions {
            for d in diags {
                let _ = writeln!(out, "{name}: {d}");
            }
        }
        out
    }

    /// Render as a JSON array of finding objects.
    pub fn to_json(&self) -> String {
        let mut items = Vec::new();
        for (name, d) in self.iter() {
            items.push(format!(
                "  {{\"function\": {}, \"code\": \"{}\", \"slug\": \"{}\", \
                 \"severity\": \"{}\", \"block\": {}, \"inst\": {}, \
                 \"message\": {}, \"note\": {}}}",
                json_str(name),
                d.code.id,
                d.code.slug,
                d.severity.name(),
                d.block,
                d.inst,
                json_str(&d.message),
                json_str(&d.note)
            ));
        }
        format!("[\n{}\n]\n", items.join(",\n"))
    }

    /// Render as a minimal SARIF 2.1.0 log (one run, one result per
    /// finding, rules populated from the codes actually emitted).
    pub fn to_sarif(&self) -> String {
        use std::fmt::Write as _;
        let mut rules: Vec<Code> = Vec::new();
        for (_, d) in self.iter() {
            if !rules.contains(&d.code) {
                rules.push(d.code);
            }
        }
        rules.sort();
        let rules_json: Vec<String> = rules
            .iter()
            .map(|c| {
                format!(
                    "          {{\"id\": \"{}\", \"name\": \"{}\"}}",
                    c.id, c.slug
                )
            })
            .collect();
        let mut results = Vec::new();
        for (name, d) in self.iter() {
            let mut r = String::new();
            let _ = write!(
                r,
                "      {{\"ruleId\": \"{}\", \"level\": \"{}\", \
                 \"message\": {{\"text\": {}}}, \"locations\": [{{\
                 \"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
                 \"region\": {{\"startLine\": {}}}}}, \
                 \"logicalLocations\": [{{\"name\": {}, \
                 \"fullyQualifiedName\": {}}}]}}]}}",
                d.code.id,
                d.severity.sarif_level(),
                json_str(&if d.note.is_empty() {
                    d.message.clone()
                } else {
                    format!("{} ({})", d.message, d.note)
                }),
                json_str(&format!("functions/{name}.ir")),
                d.block as usize + 1,
                json_str(name),
                json_str(&format!("{name}:b{}:{}", d.block, d.inst)),
            );
            results.push(r);
        }
        format!(
            "{{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
             \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [{{\n    \
             \"tool\": {{\n      \"driver\": {{\n        \"name\": \"regalloc-lint\",\n        \
             \"rules\": [\n{}\n        ]\n      }}\n    }},\n    \"results\": [\n{}\n    ]\n  }}]\n}}\n",
            rules_json.join(",\n"),
            results.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::BlockId;

    #[test]
    fn codes_are_unique_and_resolvable() {
        for (i, a) in ALL_CODES.iter().enumerate() {
            for b in &ALL_CODES[i + 1..] {
                assert_ne!(a.id, b.id);
                assert_ne!(a.slug, b.slug);
            }
            assert_eq!(code_by_name(a.id), Some(*a));
            assert_eq!(code_by_name(a.slug), Some(*a));
        }
        assert_eq!(code_by_name("nope"), None);
    }

    #[test]
    fn verify_error_maps_to_stable_code() {
        let d = Diagnostic::from(VerifyError::UnallocatedSym(BlockId(3), 7));
        assert_eq!(d.code, V_UNALLOCATED_SYM);
        assert_eq!((d.block, d.inst), (3, 7));
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn machine_error_maps_to_stable_code() {
        let e = MachineError {
            block: 1,
            inst: 2,
            kind: MachineErrorKind::TwoAddress,
            message: "two-address violation".to_string(),
        };
        let d = Diagnostic::from(&e);
        assert_eq!(d.code, M_TWO_ADDRESS);
        assert_eq!((d.block, d.inst), (1, 2));
    }

    #[test]
    fn model_diagnostic_maps_to_stable_code() {
        let d = Diagnostic::from(ModelDiagnostic {
            kind: ModelCheckKind::OverlapPartition,
            message: "r7 appears in no overlap group".to_string(),
        });
        assert_eq!(d.code, M_OVERLAP_PARTITION);
        assert_eq!((d.block, d.inst), (0, 0));
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn deterministic_ordering() {
        let mut ds = vec![
            Diagnostic::warning(L_SELF_MOVE, 1, 0, "b"),
            Diagnostic::error(T_WRONG_VALUE, 0, 5, "a"),
            Diagnostic::warning(L_REDUNDANT_RELOAD, 0, 5, "c"),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(ds[0].code, T_WRONG_VALUE);
        assert_eq!(ds[1].code, L_REDUNDANT_RELOAD);
        assert_eq!(ds[2].code, L_SELF_MOVE);
    }

    #[test]
    fn emitters_render_and_escape() {
        let mut rep = Report::default();
        rep.push(
            "f\"1",
            vec![Diagnostic::error(
                T_WRONG_VALUE,
                0,
                1,
                "reg \"eax\" is\nwrong",
            )],
        );
        let text = rep.to_text();
        assert!(text.contains("b0:1: error [T002]"));
        let json = rep.to_json();
        assert!(json.contains("\\\"eax\\\""));
        assert!(json.contains("\\n"));
        let sarif = rep.to_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"T002\""));
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.count_of(T_WRONG_VALUE), 1);
    }
}
