//! §VII-G: overall impact on the full 88-test suite.
//!
//! Strategy comparison at a fixed iteration count:
//!
//! * **baseline**: litmus7 `user` mode for all 88 tests;
//! * **hybrid (PerpLE)**: PerpLE-heuristic for the 34 convertible tests,
//!   litmus7 `user` for the 54 non-convertible ones.
//!
//! The paper reports the hybrid being 1.47x faster overall plus a >20000x
//! mean relative detection-rate improvement on the convertible tests with
//! allowed targets.

use std::fmt::Write as _;

use perple_analysis::metrics::relative_improvement;
use perple_analysis::stats::arithmetic_mean;
use perple_harness::baseline::SyncMode;
use perple_model::suite;

use super::{baseline_detection, perple_detection, pool, ExperimentConfig};
use crate::Conversion;

/// The overall-impact summary.
#[derive(Debug, Clone, PartialEq)]
pub struct OverallImpact {
    /// Total model cycles: litmus7 `user` across all 88 tests.
    pub baseline_cycles: u64,
    /// Total model cycles: PerpLE for convertible + litmus7 for the rest.
    pub hybrid_cycles: u64,
    /// `baseline_cycles / hybrid_cycles` (paper: 1.47x).
    pub speedup: f64,
    /// Mean relative detection-rate improvement on allowed convertible
    /// tests (paper: >20000x); `None` if no baseline comparisons exist.
    pub detection_improvement: Option<f64>,
    /// Number of convertible tests (34).
    pub convertible: usize,
    /// Number of non-convertible tests (54).
    pub non_convertible: usize,
}

/// Per-test measurement, computed concurrently on the suite pool and
/// reduced in suite order (so `improvements` is deterministic).
struct TestImpact {
    baseline_cycles: u64,
    hybrid_cycles: u64,
    convertible: bool,
    improvement: Option<f64>,
}

/// Runs the overall-impact experiment. The 88 suite tests run concurrently
/// on `cfg.workers` threads; each test's seeds derive
/// from its name, so the summary matches the serial run exactly.
pub fn overall(cfg: &ExperimentConfig) -> OverallImpact {
    let allowed: Vec<&str> = suite::TABLE_II
        .iter()
        .filter(|e| e.allowed)
        .map(|e| e.name)
        .collect();

    let tests = suite::full();
    let impacts = pool::map_parallel(&tests, cfg.workers, |_, test| {
        let user = baseline_detection(test, SyncMode::User, cfg);
        match Conversion::convert(test) {
            Ok(conv) => {
                let perple = perple_detection(test, &conv, cfg);
                let improvement = if allowed.contains(&test.name()) {
                    relative_improvement(perple, user)
                } else {
                    None
                };
                TestImpact {
                    baseline_cycles: user.time.total(),
                    hybrid_cycles: perple.time.total(),
                    convertible: true,
                    improvement,
                }
            }
            Err(_) => {
                // Non-convertible: the user is notified and litmus7 keeps
                // running the test (§VII-G).
                TestImpact {
                    baseline_cycles: user.time.total(),
                    hybrid_cycles: user.time.total(),
                    convertible: false,
                    improvement: None,
                }
            }
        }
    });

    let mut baseline_cycles = 0u64;
    let mut hybrid_cycles = 0u64;
    let mut convertible = 0usize;
    let mut non_convertible = 0usize;
    let mut improvements = Vec::new();
    for i in impacts {
        baseline_cycles += i.baseline_cycles;
        hybrid_cycles += i.hybrid_cycles;
        if i.convertible {
            convertible += 1;
        } else {
            non_convertible += 1;
        }
        improvements.extend(i.improvement);
    }

    OverallImpact {
        baseline_cycles,
        hybrid_cycles,
        speedup: baseline_cycles as f64 / hybrid_cycles.max(1) as f64,
        detection_improvement: arithmetic_mean(&improvements),
        convertible,
        non_convertible,
    }
}

/// Renders the summary.
pub fn render(impact: &OverallImpact, cfg: &ExperimentConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Overall impact (§VII-G), {} iterations per test:",
        cfg.iterations
    );
    let _ = writeln!(
        s,
        "  suite: {} tests = {} convertible + {} non-convertible",
        impact.convertible + impact.non_convertible,
        impact.convertible,
        impact.non_convertible
    );
    let _ = writeln!(
        s,
        "  litmus7-user everywhere : {:>14} cycles",
        impact.baseline_cycles
    );
    let _ = writeln!(
        s,
        "  PerpLE hybrid strategy  : {:>14} cycles",
        impact.hybrid_cycles
    );
    let _ = writeln!(
        s,
        "  overall speedup         : {:>11.2}x   (paper: 1.47x)",
        impact.speedup
    );
    match impact.detection_improvement {
        Some(v) => {
            let _ = writeln!(
                s,
                "  mean detection-rate improvement on allowed convertible tests: {v:.0}x (paper: >20000x)"
            );
        }
        None => {
            let _ = writeln!(
                s,
                "  detection-rate improvement: baseline found no targets at this scale"
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_strategy_is_faster_overall() {
        let cfg = ExperimentConfig::default()
            .with_iterations(300)
            .with_seed(0x77);
        let impact = overall(&cfg);
        assert_eq!(impact.convertible, 34);
        assert_eq!(impact.non_convertible, 54);
        assert!(
            impact.speedup > 1.0,
            "hybrid should beat all-litmus7 (got {:.2}x)",
            impact.speedup
        );
        if let Some(v) = impact.detection_improvement {
            assert!(v > 1.0);
        }
    }

    #[test]
    fn pool_width_does_not_change_the_summary() {
        let base = ExperimentConfig::default()
            .with_iterations(120)
            .with_seed(0x79);
        let serial = overall(&base.clone().with_workers(1));
        let par = overall(&base.with_workers(4));
        assert_eq!(serial, par);
    }

    #[test]
    fn render_reports_the_split() {
        let cfg = ExperimentConfig::default()
            .with_iterations(100)
            .with_seed(0x78);
        let text = render(&overall(&cfg), &cfg);
        assert!(text.contains("34 convertible"));
        assert!(text.contains("54 non-convertible"));
        assert!(text.contains("1.47x"));
    }
}
