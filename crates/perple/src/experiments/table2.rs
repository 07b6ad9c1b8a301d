//! Table II: the perpetual litmus suite with `[T, T_L]` and
//! allowed/forbidden classification, re-derived mechanically.

use std::fmt::Write as _;

use perple_model::suite;

use crate::classify;

/// One row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Test name.
    pub name: String,
    /// Thread count `T`.
    pub threads: usize,
    /// Load-performing thread count `T_L`.
    pub load_threads: usize,
    /// Allowed under x86-TSO ([`crate::condition_allowed`]).
    pub tso_allowed: bool,
    /// Allowed under SC (targets are always SC-forbidden).
    pub sc_allowed: bool,
    /// Matches the paper's Table II entry.
    pub matches_paper: bool,
}

/// Regenerates Table II by classifying every convertible test
/// ([`classify`]).
pub fn table2() -> Vec<Table2Row> {
    suite::convertible()
        .iter()
        .zip(suite::TABLE_II)
        .map(|(test, entry)| {
            let c = classify(test);
            Table2Row {
                name: test.name().to_owned(),
                threads: test.thread_count(),
                load_threads: test.load_thread_count(),
                tso_allowed: c.tso_allowed,
                sc_allowed: c.sc_allowed,
                matches_paper: c.tso_allowed == entry.allowed
                    && test.thread_count() == entry.threads
                    && test.load_thread_count() == entry.load_threads,
            }
        })
        .collect()
}

/// Renders the regenerated table in the paper's two-group layout.
pub fn render(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table II: perpetual litmus suite for x86-TSO");
    for (header, allowed) in [
        ("-- target outcome ALLOWED by x86-TSO --", true),
        ("-- target outcome FORBIDDEN by x86-TSO --", false),
    ] {
        let _ = writeln!(s, "{header}");
        for r in rows.iter().filter(|r| r.tso_allowed == allowed) {
            let _ = writeln!(
                s,
                "  {:<14} [{},{}]  sc_allowed={:<5} {}",
                r.name,
                r.threads,
                r.load_threads,
                r.sc_allowed,
                if r.matches_paper {
                    "✓paper"
                } else {
                    "✗MISMATCH"
                }
            );
        }
    }
    let ok = rows.iter().filter(|r| r.matches_paper).count();
    let _ = writeln!(s, "{ok}/{} rows match the paper's Table II", rows.len());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_34_rows_match_the_paper() {
        let rows = table2();
        assert_eq!(rows.len(), 34);
        for r in &rows {
            assert!(r.matches_paper, "{}", r.name);
            assert!(!r.sc_allowed, "{}: targets are SC-forbidden", r.name);
        }
        assert_eq!(rows.iter().filter(|r| r.tso_allowed).count(), 12);
    }

    #[test]
    fn render_contains_both_groups() {
        let rows = table2();
        let text = render(&rows);
        assert!(text.contains("ALLOWED"));
        assert!(text.contains("FORBIDDEN"));
        assert!(text.contains("sb"));
        assert!(text.contains("34/34"));
    }
}
