//! The bug taxonomy of Table I of the AssertSolver paper.
//!
//! Every injected bug carries three orthogonal labels:
//!
//! * [`BugKind`] — *what* was changed: a variable, a value, or an operator;
//! * [`Structural`] — *where* it was changed: inside a conditional statement
//!   (`Cond`) or not (`Non_cond`);
//! * [`Visibility`] — *how the assertion sees it*: the bug writes a signal that
//!   appears directly in the failing assertion (`Direct`) or only reaches it through
//!   the fan-in cone (`Indirect`).
//!
//! The paper's Table II tabulates dataset counts along each of these three axes; the
//! reproduction mirrors that structure exactly.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of edit the bug is (Table I rows *Var*, *Value*, *Op*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BugKind {
    /// Incorrect variable name (`out = in;` → `out = other;`).
    Var,
    /// Incorrect constant, value or bit width (`out = 4'b1010;` → `out = 4'b1110;`).
    Value,
    /// Misused operator (`out = a | b;` → `out = a & b;`), including flipped
    /// conditions.
    Op,
}

impl BugKind {
    /// All kinds, in the order Table II reports them.
    pub fn all() -> [BugKind; 3] {
        [BugKind::Var, BugKind::Value, BugKind::Op]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            BugKind::Var => "Var",
            BugKind::Value => "Value",
            BugKind::Op => "Op",
        }
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether the bug sits in a conditional statement (Table I rows *Cond*, *Non_cond*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Structural {
    /// The edited expression is the condition of an `if`/`case`.
    Cond,
    /// The edit is anywhere else (right-hand sides, continuous assigns, …).
    NonCond,
}

impl Structural {
    /// Both variants, in table order.
    pub fn all() -> [Structural; 2] {
        [Structural::Cond, Structural::NonCond]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Structural::Cond => "Cond",
            Structural::NonCond => "Non_cond",
        }
    }
}

impl fmt::Display for Structural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the failing assertion observes the bug (Table I rows *Direct*, *Indirect*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Visibility {
    /// A signal written by the buggy statement appears in the failing assertion.
    Direct,
    /// The bug only reaches the assertion through intermediate signals.
    Indirect,
}

impl Visibility {
    /// Both variants, in table order.
    pub fn all() -> [Visibility; 2] {
        [Visibility::Direct, Visibility::Indirect]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Visibility::Direct => "Direct",
            Visibility::Indirect => "Indirect",
        }
    }
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The complete Table-I profile of one bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BugProfile {
    /// What was edited.
    pub kind: BugKind,
    /// Whether the edit is inside a conditional.
    pub structural: Structural,
    /// Whether the failing assertion sees the edited signal directly.
    pub visibility: Visibility,
}

impl BugProfile {
    /// Creates a profile.
    pub fn new(kind: BugKind, structural: Structural, visibility: Visibility) -> Self {
        Self {
            kind,
            structural,
            visibility,
        }
    }

    /// All seven Table-I labels that apply to this bug, in table order.
    pub fn labels(&self) -> Vec<&'static str> {
        vec![
            self.visibility.label(),
            self.kind.label(),
            self.structural.label(),
        ]
    }
}

impl fmt::Display for BugProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}",
            self.visibility.label(),
            self.kind.label(),
            self.structural.label()
        )
    }
}

/// One row of Table I: a bug type with its description and example forms.
///
/// Serializable but not deserializable: the row text is `&'static str` borrowed from
/// the paper's verbatim table, which an owned JSON tree cannot provide.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TaxonomyRow {
    /// Type label (`Direct`, `Indirect`, `Var`, `Value`, `Op`, `Cond`, `Non_cond`).
    pub label: &'static str,
    /// Prose description from the paper.
    pub description: &'static str,
    /// Expected (golden) form.
    pub expected: &'static str,
    /// Unexpected (buggy) form.
    pub unexpected: &'static str,
    /// Example assertion, when the row's example shows one.
    pub assertion: Option<&'static str>,
}

/// The seven Table I labels, in the paper's row order.
pub const TABLE1_LABELS: [&str; 7] = [
    "Direct", "Indirect", "Var", "Value", "Op", "Cond", "Non_cond",
];

/// The seven rows of Table I, verbatim from the paper.
pub fn table1_rows() -> Vec<TaxonomyRow> {
    vec![
        TaxonomyRow {
            label: "Direct",
            description: "Bug signal appears directly in the assertion.",
            expected: "out <= in;",
            unexpected: "out <= in + 1;",
            assertion: Some("assert(out == in)"),
        },
        TaxonomyRow {
            label: "Indirect",
            description: "Bug signal does not appear directly in the assertion.",
            expected: "temp <= in; out <= temp;",
            unexpected: "temp <= in + 1; out <= temp;",
            assertion: Some("assert(out == in)"),
        },
        TaxonomyRow {
            label: "Var",
            description: "Incorrect variable name or type.",
            expected: "out = in;",
            unexpected: "out = in_b;",
            assertion: None,
        },
        TaxonomyRow {
            label: "Value",
            description: "Incorrect variable values, constants, or signal bit widths.",
            expected: "out = 4'b1010;",
            unexpected: "out = 4'b1110;",
            assertion: None,
        },
        TaxonomyRow {
            label: "Op",
            description: "Misuse of operators.",
            expected: "out = a | b;",
            unexpected: "out = a & b;",
            assertion: None,
        },
        TaxonomyRow {
            label: "Cond",
            description: "Bug in conditional statement (e.g., if, always).",
            expected: "if (valid) out <= in;",
            unexpected: "if (!valid) out <= in;",
            assertion: None,
        },
        TaxonomyRow {
            label: "Non_cond",
            description: "Bug unrelated to conditional statements.",
            expected: "if (valid) out <= in;",
            unexpected: "if (valid) out <= in_b;",
            assertion: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows_in_paper_order() {
        let rows = table1_rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.label).collect();
        assert_eq!(
            labels,
            vec!["Direct", "Indirect", "Var", "Value", "Op", "Cond", "Non_cond"]
        );
        assert_eq!(labels, TABLE1_LABELS);
    }

    #[test]
    fn profile_labels_cover_three_axes() {
        let profile = BugProfile::new(BugKind::Op, Structural::Cond, Visibility::Direct);
        assert_eq!(profile.labels(), vec!["Direct", "Op", "Cond"]);
        assert_eq!(profile.to_string(), "Direct/Op/Cond");
    }

    #[test]
    fn axis_enumerations() {
        assert_eq!(BugKind::all().len(), 3);
        assert_eq!(Structural::all().len(), 2);
        assert_eq!(Visibility::all().len(), 2);
        assert_eq!(BugKind::Value.to_string(), "Value");
        assert_eq!(Structural::NonCond.to_string(), "Non_cond");
        assert_eq!(Visibility::Indirect.to_string(), "Indirect");
    }
}
