//! Figure 9: target-outcome occurrences per suite test — PerpLE with both
//! counters vs litmus7 in all five synchronization modes.

use std::fmt::Write as _;
use std::time::Instant;

use perple_analysis::metrics::StageTimings;
use perple_harness::baseline::SyncMode;
use perple_model::suite;

use super::{baseline_detection, pool, ExperimentConfig};
use crate::Conversion;

/// One test's occurrence counts across tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig9Row {
    /// Test name.
    pub name: String,
    /// True if x86-TSO allows the target (forbidden tests carry the red X
    /// of the figure and must read 0 everywhere).
    pub allowed: bool,
    /// PerpLE with the exhaustive counter.
    pub perple_exhaustive: u64,
    /// True if the exhaustive scan was frame-capped (`T_L = 3` tests at
    /// large `N`), making its count a lower bound on a prefix of frames.
    pub exhaustive_truncated: bool,
    /// PerpLE with the heuristic counter.
    pub perple_heuristic: u64,
    /// litmus7 occurrences per mode, in [`SyncMode::ALL`] order.
    pub litmus7: [u64; 5],
    /// Wall-clock stage timings of the PerpLE pipeline on this test.
    pub timings: StageTimings,
}

/// Regenerates Figure 9's data for the whole convertible suite. Suite
/// tests run concurrently on `cfg.workers` threads; each
/// test derives its own seed, so results match the serial run exactly.
pub fn fig9(cfg: &ExperimentConfig) -> Vec<Fig9Row> {
    let tests = suite::convertible();
    let entries: Vec<_> = tests.iter().zip(suite::TABLE_II).collect();
    pool::map_parallel(&entries, cfg.workers, |_, (test, entry)| {
        let t_convert = Instant::now();
        // Invariant: `suite::convertible()` pre-filters by
        // `is_convertible`, so conversion cannot fail here.
        let conv = Conversion::convert(test).expect("suite test converts");
        let convert_wall = t_convert.elapsed();
        let (heur, exh, mut timings) = super::perple_detection_both_timed(test, &conv, cfg);
        timings.add_convert(convert_wall);
        let (perple_heuristic, perple_exhaustive) = (heur.occurrences, exh.occurrences);
        let total_frames = (cfg.iterations as u128).pow(test.load_thread_count() as u32);
        let exhaustive_truncated = cfg
            .exhaustive_frame_cap
            .is_some_and(|cap| (cap as u128) < total_frames);
        let mut litmus7 = [0u64; 5];
        for (i, mode) in SyncMode::ALL.iter().enumerate() {
            litmus7[i] = baseline_detection(test, *mode, cfg).occurrences;
        }
        Fig9Row {
            name: test.name().to_owned(),
            allowed: entry.allowed,
            perple_exhaustive,
            exhaustive_truncated,
            perple_heuristic,
            litmus7,
            timings,
        }
    })
}

/// Renders the figure's data as a table.
pub fn render(rows: &[Fig9Row], cfg: &ExperimentConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 9: target outcome occurrences ({} iterations)",
        cfg.iterations
    );
    let _ = writeln!(
        s,
        "{:<16} {:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "test",
        "tso",
        "perple-exh",
        "perple-heur",
        "user",
        "userfence",
        "pthread",
        "timebase",
        "none"
    );
    for r in rows {
        let exh = if r.exhaustive_truncated {
            format!("{}cap", r.perple_exhaustive)
        } else {
            r.perple_exhaustive.to_string()
        };
        let _ = writeln!(
            s,
            "{:<16} {:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            r.name,
            if r.allowed { "ok" } else { "X" },
            exh,
            r.perple_heuristic,
            r.litmus7[0],
            r.litmus7[1],
            r.litmus7[2],
            r.litmus7[3],
            r.litmus7[4],
        );
    }
    let total: StageTimings = rows.iter().fold(StageTimings::default(), |mut acc, r| {
        acc.accumulate(&r.timings);
        acc
    });
    let _ = writeln!(
        s,
        "stage wall time (sum over tests): convert {:?}, run {:?}, count {:?}",
        total.convert, total.run, total.count,
    );
    s
}

/// Paper-shape checks for a Figure 9 dataset: no false positives on
/// forbidden tests; PerpLE exposes every allowed target; the exhaustive
/// counter dominates the heuristic. Returns human-readable violations.
pub fn shape_violations(rows: &[Fig9Row]) -> Vec<String> {
    let mut v = Vec::new();
    for r in rows {
        if !r.allowed {
            let total = r.perple_exhaustive + r.perple_heuristic + r.litmus7.iter().sum::<u64>();
            if total != 0 {
                v.push(format!("{}: forbidden target observed ({total})", r.name));
            }
        } else {
            if r.perple_exhaustive == 0 && r.perple_heuristic == 0 {
                v.push(format!("{}: PerpLE missed an allowed target", r.name));
            }
            // A frame-capped exhaustive scan only covers a prefix; the
            // dominance check is meaningful only for complete scans.
            if !r.exhaustive_truncated && r.perple_exhaustive < r.perple_heuristic {
                v.push(format!("{}: heuristic exceeded exhaustive", r.name));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig::default()
            .with_iterations(600)
            .with_seed(0xF19)
    }

    #[test]
    fn fig9_shape_holds_at_reduced_scale() {
        let cfg = small_cfg();
        let rows = fig9(&cfg);
        assert_eq!(rows.len(), 34);
        let violations = shape_violations(&rows);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn perple_beats_user_mode_on_allowed_tests() {
        let cfg = small_cfg();
        let rows = fig9(&cfg);
        let (mut wins, mut total) = (0, 0);
        for r in rows.iter().filter(|r| r.allowed) {
            total += 1;
            if r.perple_exhaustive >= r.litmus7[0] {
                wins += 1;
            }
        }
        assert_eq!(wins, total, "PerpLE-exhaustive must dominate user mode");
    }

    #[test]
    fn suite_parallelism_does_not_change_results() {
        let serial_cfg = ExperimentConfig::default()
            .with_iterations(200)
            .with_seed(0xF19)
            .with_workers(1);
        let par_cfg = serial_cfg.clone().with_workers(3);
        let serial = fig9(&serial_cfg);
        let par = fig9(&par_cfg);
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.perple_exhaustive, b.perple_exhaustive, "{}", a.name);
            assert_eq!(a.perple_heuristic, b.perple_heuristic, "{}", a.name);
            assert_eq!(a.litmus7, b.litmus7, "{}", a.name);
            assert_eq!(a.exhaustive_truncated, b.exhaustive_truncated);
        }
    }

    #[test]
    fn render_mentions_all_modes() {
        let cfg = small_cfg();
        let rows = fig9(&cfg);
        let text = render(&rows, &cfg);
        for m in ["user", "userfence", "pthread", "timebase", "none"] {
            assert!(text.contains(m));
        }
        assert!(text.contains("sb"));
    }
}
