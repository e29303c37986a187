//! Conservation-invariant auditing primitives.
//!
//! The most dangerous bugs in a full-system simulator are *silent accounting
//! drift*: a refactor changes the numbers without failing a single
//! shape-asserting test. The audit machinery turns "do the numbers even
//! conserve?" into a mechanically checked question: each layer's counters are
//! tied together by **named invariants** (e.g. every classified request plus
//! every squashed access must equal the raw SSD access count), and a run that
//! violates one fails loudly with the invariant's name.
//!
//! This module only defines the report type; the invariants themselves live
//! next to the metrics they check (`skybyte_sim::audit`).
//!
//! # Example
//!
//! ```
//! use skybyte_types::AuditReport;
//! let mut report = AuditReport::new();
//! report.check("apples-conserved", 2 + 2 == 4, || "unreachable".into());
//! report.check("oranges-conserved", 1 + 1 == 3, || {
//!     "1 picked + 1 bought != 3 in the basket".into()
//! });
//! assert!(!report.is_clean());
//! assert_eq!(report.checked(), 2);
//! assert!(report.to_string().contains("[oranges-conserved] 1 picked"));
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// One violated invariant: its stable name plus a human-readable account of
/// the numbers that failed to conserve.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The stable, kebab-case name of the invariant (what tests and CI grep
    /// for).
    pub invariant: String,
    /// The concrete numbers that violated it.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The outcome of evaluating a set of named conservation invariants.
///
/// A clean report means every checked invariant held; a dirty one lists each
/// violation by name. [`AuditReport::assert_clean`] is the loud-failure entry
/// point used by tests and the audited runner.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Names of every invariant evaluated, in evaluation order.
    checked: Vec<String>,
    /// The invariants that did not hold.
    violations: Vec<Violation>,
}

impl AuditReport {
    /// Creates an empty report (no invariants checked yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates one named invariant: records the check, and records a
    /// violation (with the lazily built detail message) when `holds` is
    /// false.
    pub fn check(&mut self, invariant: &str, holds: bool, detail: impl FnOnce() -> String) {
        self.checked.push(invariant.to_string());
        if !holds {
            self.violations.push(Violation {
                invariant: invariant.to_string(),
                detail: detail(),
            });
        }
    }

    /// Number of invariants evaluated.
    pub fn checked(&self) -> usize {
        self.checked.len()
    }

    /// Whether every checked invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violated invariant's name and detail if the report
    /// is dirty. `context` identifies the audited run in the panic message.
    ///
    /// # Panics
    ///
    /// Panics if any checked invariant was violated.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "conservation audit failed for {context}:\n{self}"
        );
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} invariants checked)", self.checked());
        }
        writeln!(
            f,
            "audit violated {} of {} invariants:",
            self.violations.len(),
            self.checked()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_renders_and_asserts() {
        let mut r = AuditReport::new();
        r.check("a", true, || unreachable!("detail must be lazy"));
        assert!(r.is_clean());
        assert_eq!(r.checked(), 1);
        assert_eq!(r.checked, vec!["a"]);
        assert!(r.violations.is_empty());
        r.assert_clean("test run");
        assert!(r.to_string().contains("audit clean (1 invariants checked)"));
    }

    #[test]
    fn violations_carry_name_and_detail() {
        let mut r = AuditReport::new();
        r.check("pages-conserved", false, || "3 + 4 != 8".to_string());
        r.check("time-monotone", true, || unreachable!());
        assert!(!r.is_clean());
        let violated: Vec<&str> = r.violations.iter().map(|v| v.invariant.as_str()).collect();
        assert_eq!(violated, vec!["pages-conserved"]);
        let rendered = r.to_string();
        assert!(rendered.contains("[pages-conserved] 3 + 4 != 8"));
        assert!(rendered.contains("1 of 2"));
    }

    #[test]
    #[should_panic(expected = "pages-conserved")]
    fn assert_clean_panics_with_the_invariant_name() {
        let mut r = AuditReport::new();
        r.check("pages-conserved", false, || "counts diverged".to_string());
        r.assert_clean("unit test");
    }

    #[test]
    fn report_serialises() {
        let mut r = AuditReport::new();
        r.check("z", false, || "1 != 2".to_string());
        let json = serde_json::to_string(&r).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
