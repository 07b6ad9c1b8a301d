//! Figure 10: runtime speedups relative to litmus7 `user` mode (runtime =
//! test execution + outcome counting), plus the §VII-B geometric-mean
//! summaries.

use std::fmt::Write as _;

use perple_analysis::metrics::{speedup, ModelTime};
use perple_analysis::stats::geometric_mean;
use perple_harness::baseline::SyncMode;
use perple_model::suite;

use super::{baseline_detection, ExperimentConfig};
use crate::Conversion;

/// One test's runtimes (model cycles) across tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig10Row {
    /// Test name.
    pub name: String,
    /// `T_L` (drives the exhaustive counter's blow-up).
    pub load_threads: usize,
    /// PerpLE runtime with the exhaustive counter.
    pub perple_exhaustive: ModelTime,
    /// PerpLE runtime with the heuristic counter.
    pub perple_heuristic: ModelTime,
    /// litmus7 runtime per mode, in [`SyncMode::ALL`] order.
    pub litmus7: [ModelTime; 5],
}

impl Fig10Row {
    /// Speedup of a tool time over litmus7 `user` (index 0).
    pub fn speedup_over_user(&self, tool: ModelTime) -> f64 {
        speedup(self.litmus7[0], tool).unwrap_or(0.0)
    }
}

/// Geometric-mean summary (the §VII-B headline numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Summary {
    /// Heuristic PerpLE speedup over litmus7 `user` (paper: 8.89x).
    pub heur_over_user: f64,
    /// ... over `timebase` (paper: 17.56x).
    pub heur_over_timebase: f64,
    /// ... over `userfence` (paper: 8.85x).
    pub heur_over_userfence: f64,
    /// ... over `none` (paper: 2.52x).
    pub heur_over_none: f64,
    /// ... over `pthread` (paper: 161.35x).
    pub heur_over_pthread: f64,
    /// Heuristic counter speedup over the exhaustive counter (paper: 305x).
    pub heur_over_exhaustive: f64,
}

/// Regenerates Figure 10's runtimes for the whole convertible suite.
pub fn fig10(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    suite::convertible()
        .iter()
        .map(|test| {
            let conv = Conversion::convert(test).expect("suite test converts");
            let (h, x, _) = super::perple_detection_both_timed(test, &conv, cfg);
            let (ph, px) = (h.time, x.time);
            let mut litmus7 = [ModelTime::default(); 5];
            for (i, mode) in SyncMode::ALL.iter().enumerate() {
                litmus7[i] = baseline_detection(test, *mode, cfg).time;
            }
            Fig10Row {
                name: test.name().to_owned(),
                load_threads: test.load_thread_count(),
                perple_exhaustive: px,
                perple_heuristic: ph,
                litmus7,
            }
        })
        .collect()
}

/// Computes the geometric-mean summary over all rows.
pub fn summarize(rows: &[Fig10Row]) -> Fig10Summary {
    let ratios = |f: &dyn Fn(&Fig10Row) -> (ModelTime, ModelTime)| -> f64 {
        let rs: Vec<f64> = rows
            .iter()
            .filter_map(|r| {
                let (base, tool) = f(r);
                speedup(base, tool)
            })
            .collect();
        geometric_mean(&rs).unwrap_or(0.0)
    };
    Fig10Summary {
        heur_over_user: ratios(&|r| (r.litmus7[0], r.perple_heuristic)),
        heur_over_userfence: ratios(&|r| (r.litmus7[1], r.perple_heuristic)),
        heur_over_pthread: ratios(&|r| (r.litmus7[2], r.perple_heuristic)),
        heur_over_timebase: ratios(&|r| (r.litmus7[3], r.perple_heuristic)),
        heur_over_none: ratios(&|r| (r.litmus7[4], r.perple_heuristic)),
        heur_over_exhaustive: ratios(&|r| (r.perple_exhaustive, r.perple_heuristic)),
    }
}

/// Renders the rows plus summary.
pub fn render(rows: &[Fig10Row], cfg: &ExperimentConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 10: speedup over litmus7 user mode ({} iterations; runtime = execution + counting; model cycles)",
        cfg.iterations
    );
    let _ = writeln!(
        s,
        "{:<16} {:>3} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "test", "T_L", "perple-exh", "perple-heur", "userfence", "pthread", "timebase", "none"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<16} {:>3} {:>12.3} {:>12.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.name,
            r.load_threads,
            r.speedup_over_user(r.perple_exhaustive),
            r.speedup_over_user(r.perple_heuristic),
            r.speedup_over_user(r.litmus7[1]),
            r.speedup_over_user(r.litmus7[2]),
            r.speedup_over_user(r.litmus7[3]),
            r.speedup_over_user(r.litmus7[4]),
        );
    }
    let sum = summarize(rows);
    let _ = writeln!(
        s,
        "geomean speedups of PerpLE-heuristic (paper values in parens):"
    );
    let _ = writeln!(s, "  over user      {:>9.2}x   (8.89x)", sum.heur_over_user);
    let _ = writeln!(
        s,
        "  over userfence {:>9.2}x   (8.85x)",
        sum.heur_over_userfence
    );
    let _ = writeln!(
        s,
        "  over pthread   {:>9.2}x   (161.35x)",
        sum.heur_over_pthread
    );
    let _ = writeln!(
        s,
        "  over timebase  {:>9.2}x   (17.56x)",
        sum.heur_over_timebase
    );
    let _ = writeln!(s, "  over none      {:>9.2}x   (2.52x)", sum.heur_over_none);
    let _ = writeln!(
        s,
        "  over exhaustive{:>9.2}x   (305x)",
        sum.heur_over_exhaustive
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig {
            iterations: 400,
            seed: 0xF10,
            exhaustive_frame_cap: Some(1_000_000),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn heuristic_perple_is_fastest_everywhere() {
        // The paper: "PerpLE heuristic is always fastest" (Figure 10).
        let rows = fig10(&small_cfg());
        for r in &rows {
            let heur = r.perple_heuristic.total();
            assert!(
                heur <= r.perple_exhaustive.total(),
                "{} vs exhaustive",
                r.name
            );
            for (i, t) in r.litmus7.iter().enumerate() {
                assert!(heur <= t.total(), "{}: mode {i}", r.name);
            }
        }
    }

    #[test]
    fn summary_ordering_matches_paper() {
        // pthread is the slowest baseline; none the closest to PerpLE.
        let rows = fig10(&small_cfg());
        let s = summarize(&rows);
        assert!(s.heur_over_pthread > s.heur_over_user);
        assert!(s.heur_over_user > s.heur_over_none);
        assert!(s.heur_over_none > 1.0);
        assert!(s.heur_over_exhaustive > 1.0);
    }

    #[test]
    fn exhaustive_blowup_grows_with_load_threads() {
        let rows = fig10(&small_cfg());
        let tl2 = rows.iter().find(|r| r.name == "sb").unwrap();
        let tl3 = rows.iter().find(|r| r.name == "podwr001").unwrap();
        let ratio2 = tl2.perple_exhaustive.count_cycles as f64
            / tl2.perple_heuristic.count_cycles.max(1) as f64;
        let ratio3 = tl3.perple_exhaustive.count_cycles as f64
            / tl3.perple_heuristic.count_cycles.max(1) as f64;
        assert!(ratio3 > ratio2, "N^3 must out-blow N^2");
    }

    #[test]
    fn render_includes_summary() {
        let rows = fig10(&small_cfg());
        let text = render(&rows, &small_cfg());
        assert!(text.contains("geomean"));
        assert!(text.contains("8.89x"));
    }
}
