//! Figure 11: relative target-outcome detection-rate improvement over
//! litmus7 `user` mode, across iteration counts.
//!
//! Each bar is the arithmetic mean, over the x86-TSO-**allowed** suite
//! tests, of `rate(tool) / rate(user)`; tests where the baseline detected
//! nothing are conservatively omitted (§VII-C).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use perple_analysis::metrics::relative_improvement;
use perple_analysis::stats::arithmetic_mean;
use perple_harness::baseline::SyncMode;
use perple_model::suite;

use super::{baseline_detection, perple_detection, ExperimentConfig};
use crate::Conversion;

/// Tools compared against the `user` baseline.
pub const TOOLS: [&str; 5] = ["perple-heur", "userfence", "pthread", "timebase", "none"];

/// One iteration count's mean relative improvements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Point {
    /// The sweep's iteration count.
    pub iterations: u64,
    /// Mean relative improvement per tool (`None` when the baseline found
    /// nothing on every test — nothing to compare, as at very low `N`).
    pub improvement: BTreeMap<&'static str, Option<f64>>,
    /// Tests (of the allowed group) where the `user` baseline found
    /// nothing and were omitted from the means.
    pub omitted: usize,
    /// Tests where PerpLE-heuristic found at least one target.
    pub perple_nonzero: usize,
}

/// Runs the Figure 11 sweep for the given iteration counts.
pub fn fig11(iteration_counts: &[u64], base: &ExperimentConfig) -> Vec<Fig11Point> {
    let tests = suite::allowed_targets();
    let convs: Vec<Conversion> = tests
        .iter()
        // Invariant: `allowed_targets()` is a subset of the convertible
        // suite, so conversion cannot fail.
        .map(|t| Conversion::convert(t).expect("allowed test converts"))
        .collect();

    iteration_counts
        .iter()
        .map(|&n| {
            let cfg = base.clone().with_iterations(n);
            let mut per_tool: BTreeMap<&'static str, Vec<f64>> =
                TOOLS.iter().map(|&t| (t, Vec::new())).collect();
            let mut omitted = 0usize;
            let mut perple_nonzero = 0usize;

            for (test, conv) in tests.iter().zip(&convs) {
                let user = baseline_detection(test, SyncMode::User, &cfg);
                let perple = perple_detection(test, conv, &cfg);
                if perple.occurrences > 0 {
                    perple_nonzero += 1;
                }
                if user.occurrences == 0 {
                    omitted += 1;
                    continue;
                }
                let mut push = |tool: &'static str, d| {
                    if let Some(r) = relative_improvement(d, user) {
                        // Invariant: every tool key was inserted when
                        // `per_tool` was built above.
                        per_tool.get_mut(tool).expect("tool registered").push(r);
                    }
                };
                push("perple-heur", perple);
                push(
                    "userfence",
                    baseline_detection(test, SyncMode::UserFence, &cfg),
                );
                push("pthread", baseline_detection(test, SyncMode::Pthread, &cfg));
                push(
                    "timebase",
                    baseline_detection(test, SyncMode::Timebase, &cfg),
                );
                push("none", baseline_detection(test, SyncMode::NoSync, &cfg));
            }

            Fig11Point {
                iterations: n,
                improvement: per_tool
                    .into_iter()
                    .map(|(t, v)| (t, arithmetic_mean(&v)))
                    .collect(),
                omitted,
                perple_nonzero,
            }
        })
        .collect()
}

/// Renders the sweep as a table.
pub fn render(points: &[Fig11Point]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 11: mean relative target detection-rate improvement over litmus7 user"
    );
    let _ = write!(s, "{:>12}", "iterations");
    for t in TOOLS {
        let _ = write!(s, " {t:>14}");
    }
    let _ = writeln!(s, " {:>8} {:>14}", "omitted", "perple-nonzero");
    for p in points {
        let _ = write!(s, "{:>12}", p.iterations);
        for t in TOOLS {
            match p.improvement[t] {
                Some(v) => {
                    let _ = write!(s, " {v:>13.1}x");
                }
                None => {
                    let _ = write!(s, " {:>14}", "-");
                }
            }
        }
        let _ = writeln!(s, " {:>8} {:>14}", p.omitted, p.perple_nonzero);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perple_improvement_dominates_where_defined() {
        let base = ExperimentConfig::default().with_seed(0xF11);
        let points = fig11(&[100, 2_000], &base);
        assert_eq!(points.len(), 2);

        // At 100 iterations the user baseline finds (nearly) nothing:
        // most allowed tests are omitted, while PerpLE already detects.
        let low = &points[0];
        assert!(low.omitted >= 8, "user should be blind at 100 iters");
        assert!(low.perple_nonzero >= 8, "PerpLE should detect at 100 iters");

        // Where a comparison exists, PerpLE's improvement exceeds every
        // baseline mode's.
        let high = &points[1];
        if let Some(p) = high.improvement["perple-heur"] {
            for tool in ["userfence", "pthread", "none"] {
                if let Some(b) = high.improvement[tool] {
                    assert!(p > b, "perple {p} <= {tool} {b}");
                }
            }
            assert!(p > 1.0);
        }
    }

    #[test]
    fn render_handles_missing_means() {
        let base = ExperimentConfig::default().with_seed(0xF11);
        let points = fig11(&[100], &base);
        let text = render(&points);
        assert!(text.contains("iterations"));
        assert!(text.contains("perple-heur"));
    }
}
