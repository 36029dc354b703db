//! Paper-vs-measured checks.
//!
//! Each regenerator finishes with a list of the paper's quantitative claims
//! next to the reproduction's measurements, with a pass/deviation verdict.
//! Deviations are first-class outcomes — they are recorded, not hidden (see
//! EXPERIMENTS.md for the discussion of each).

use serde::{Deserialize, Serialize};

use crate::Table;

/// One paper claim with the measured counterpart.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    /// What is being checked.
    pub name: String,
    /// The paper's number/statement.
    pub paper: String,
    /// The reproduction's measurement.
    pub measured: String,
    /// Whether the reproduction matches (by whatever tolerance the
    /// experiment deems appropriate).
    pub pass: bool,
}

/// Collects checks and renders a verdict block.
#[derive(Debug, Clone, Default)]
pub struct CheckList {
    checks: Vec<Check>,
    notes: String,
}

impl CheckList {
    /// Creates an empty check list.
    pub fn new() -> Self {
        CheckList::default()
    }

    /// Records a check.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) {
        self.checks.push(Check {
            name: name.into(),
            paper: paper.into(),
            measured: measured.into(),
            pass,
        });
    }

    /// Appends text that the verdict block renders, verbatim, after its
    /// tally line: an interpretation of the verdicts above it.
    pub fn note(&mut self, text: &str) {
        self.notes.push_str(text);
    }

    /// The recorded checks.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Number of passing checks.
    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.pass).count()
    }

    /// Renders the verdict block.
    pub fn render(&self) -> String {
        let mut out = String::from("\npaper vs measured\n");
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: paper {} | measured {}\n",
                if c.pass { "ok" } else { "DEVIATION" },
                c.name,
                c.paper,
                c.measured
            ));
        }
        out.push_str(&format!("  => {}/{} checks match\n", self.passed(), self.checks.len()));
        out.push_str(&self.notes);
        out
    }
}

/// Renders the reproduction scorecard over every regenerator's checks:
/// one row per regenerator in name order, the total tally, and each
/// deviation.
pub fn scorecard(results: &[(&str, CheckList)]) -> String {
    let mut entries: Vec<&(&str, CheckList)> = results.iter().collect();
    entries.sort_by_key(|(name, _)| *name);
    let mut table = Table::new(vec!["experiment", "checks", "deviations"]);
    let mut total = 0;
    let mut passed = 0;
    let mut deviations = String::new();
    for (name, checks) in entries {
        let ok = checks.passed();
        let all = checks.checks().len();
        table.row(vec![name.to_string(), format!("{ok}/{all}"), format!("{}", all - ok)]);
        total += all;
        passed += ok;
        for c in checks.checks().iter().filter(|c| !c.pass) {
            deviations.push_str(&format!(
                "  - [{name}] {}: paper {} | measured {}\n",
                c.name, c.paper, c.measured
            ));
        }
    }
    let mut out = format!("== Reproduction scorecard ==\n\n{}", table.render());
    out.push_str(&format!("\ntotal: {passed}/{total} paper-vs-measured checks match\n"));
    if !deviations.is_empty() {
        out.push_str("\ndocumented deviations (see EXPERIMENTS.md):\n");
        out.push_str(&deviations);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_passes() {
        let mut c = CheckList::new();
        c.add("a", "1", "1", true);
        c.add("b", "2", "3", false);
        assert_eq!(c.passed(), 1);
        assert_eq!(c.checks().len(), 2);
    }

    #[test]
    fn render_flags_deviations() {
        let mut c = CheckList::new();
        c.add("x", "10x", "9.4x", true);
        c.add("y", "G4 wins", "P3 wins", false);
        let r = c.render();
        assert!(r.contains("[ok] x"));
        assert!(r.contains("[DEVIATION] y"));
        assert!(r.contains("1/2 checks match"));
    }

    #[test]
    fn notes_follow_the_tally() {
        let mut c = CheckList::new();
        c.add("x", "1", "1", true);
        c.note("note: first\n");
        c.note("second\n");
        assert!(c.render().ends_with("  => 1/1 checks match\nnote: first\nsecond\n"));
    }

    #[test]
    fn scorecard_sorts_by_name_and_lists_deviations() {
        let mut a = CheckList::new();
        a.add("good", "1", "1", true);
        let mut b = CheckList::new();
        b.add("bad", "G4 wins", "P3 wins", false);
        b.add("fine", "2", "2", true);
        let card = scorecard(&[("fig2_op_times", a), ("fig10_total_budget", b)]);
        let fig10 = card.find("fig10_total_budget").expect("row");
        assert!(fig10 < card.find("fig2_op_times").expect("row"));
        assert!(card.contains("total: 2/3 paper-vs-measured checks match\n"));
        assert!(card.ends_with("  - [fig10_total_budget] bad: paper G4 wins | measured P3 wins\n"));
    }
}
