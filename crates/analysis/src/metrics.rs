//! Composite evaluation metrics: model time, detection rate, speedups
//! (§VI-B, Figures 10 and 11).
//!
//! Runtimes combine two components in one unit ("model cycles"): the
//! simulated execution span of the run and the counting work (one cycle per
//! `p_out` evaluation). Both tools pay execution; litmus7 additionally pays
//! per-iteration synchronization (folded into its execution cycles by the
//! harness), while PerpLE pays the counter scan.

/// Wall-clock timings of one test's pipeline stages (convert → run →
/// count), recorded by the experiment drivers so the cost of each stage
/// is observable in experiment output.
///
/// Serialized with the hand-rolled [`StageTimings::to_json`] (the external
/// `serde` dependency is unavailable in the offline build environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Wall time of the Converter (litmus test → perpetual artifacts).
    pub convert: std::time::Duration,
    /// Wall time of the harness run (simulated execution).
    pub run: std::time::Duration,
    /// Wall time of outcome counting.
    pub count: std::time::Duration,
}

impl StageTimings {
    /// Total wall time across the three stages.
    pub fn total(&self) -> std::time::Duration {
        self.convert + self.run + self.count
    }

    /// Adds wall time to the convert stage (re-runs accumulate; they must
    /// not clobber the previous measurement).
    pub fn add_convert(&mut self, wall: std::time::Duration) {
        self.convert += wall;
    }

    /// Adds wall time to the run stage.
    pub fn add_run(&mut self, wall: std::time::Duration) {
        self.run += wall;
    }

    /// Adds wall time to the count stage. A pipeline that counts twice
    /// (heuristic then exhaustive) calls this once per scan.
    pub fn add_count(&mut self, wall: std::time::Duration) {
        self.count += wall;
    }

    /// Folds another timing record into this one: stage walls add.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.convert += other.convert;
        self.run += other.run;
        self.count += other.count;
    }

    /// The timings as a [`crate::jsonout::Json`] object (micro-second
    /// integral fields), for embedding in larger documents.
    pub fn to_json_value(&self) -> crate::jsonout::Json {
        use crate::jsonout::Json;
        Json::obj(vec![
            ("convert_us", Json::from(self.convert.as_micros())),
            ("run_us", Json::from(self.run.as_micros())),
            ("count_us", Json::from(self.count.as_micros())),
        ])
    }

    /// Compact JSON object rendering, e.g.
    /// `{"convert_us":12,"run_us":3400,"count_us":170}`,
    /// emitted through the shared [`crate::jsonout`] writer.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// A runtime in model cycles, split into execution and counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelTime {
    /// Simulated cycles of test execution (including any synchronization).
    pub exec_cycles: u64,
    /// Counting cost: one cycle per outcome-condition evaluation.
    pub count_cycles: u64,
}

impl ModelTime {
    /// Creates a model time from its components.
    pub fn new(exec_cycles: u64, count_cycles: u64) -> Self {
        Self {
            exec_cycles,
            count_cycles,
        }
    }

    /// Total model cycles (the paper's "runtime includes test execution and
    /// outcome counting").
    pub fn total(&self) -> u64 {
        self.exec_cycles + self.count_cycles
    }
}

/// Target-outcome detection performance of one tool on one test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Times the target outcome was observed.
    pub occurrences: u64,
    /// Runtime spent producing and counting them.
    pub time: ModelTime,
}

impl Detection {
    /// Detection rate: occurrences per million model cycles (§VI-B3).
    /// Returns 0 for a zero-duration run with no occurrences.
    pub fn rate(&self) -> f64 {
        let total = self.time.total();
        if total == 0 {
            return 0.0;
        }
        self.occurrences as f64 * 1e6 / total as f64
    }
}

/// Relative detection-rate improvement of `tool` over `baseline`.
///
/// Returns `None` when the baseline detected nothing — the paper
/// conservatively omits such test cases from the averages (§VII-C).
pub fn relative_improvement(tool: Detection, baseline: Detection) -> Option<f64> {
    if baseline.occurrences == 0 || baseline.rate() == 0.0 {
        return None;
    }
    Some(tool.rate() / baseline.rate())
}

/// Runtime speedup of `tool` over `baseline` (>1 means faster).
///
/// Returns `None` if the tool's runtime is zero (degenerate run).
pub fn speedup(baseline: ModelTime, tool: ModelTime) -> Option<f64> {
    if tool.total() == 0 {
        return None;
    }
    Some(baseline.total() as f64 / tool.total() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_total_and_json() {
        use std::time::Duration;
        let t = StageTimings {
            convert: Duration::from_micros(12),
            run: Duration::from_micros(3_400),
            count: Duration::from_micros(170),
        };
        assert_eq!(t.total(), Duration::from_micros(3_582));
        assert_eq!(
            t.to_json(),
            "{\"convert_us\":12,\"run_us\":3400,\"count_us\":170}"
        );
        assert_eq!(StageTimings::default().total(), Duration::ZERO);
    }

    #[test]
    fn stage_additions_accumulate_instead_of_clobbering() {
        use std::time::Duration;
        let mut t = StageTimings::default();
        t.add_convert(Duration::from_micros(5));
        t.add_convert(Duration::from_micros(7));
        t.add_run(Duration::from_micros(100));
        t.add_count(Duration::from_micros(30));
        t.add_count(Duration::from_micros(40));
        assert_eq!(t.convert, Duration::from_micros(12));
        assert_eq!(t.run, Duration::from_micros(100));
        assert_eq!(t.count, Duration::from_micros(70));
    }

    #[test]
    fn accumulate_sums_stages() {
        use std::time::Duration;
        let mut total = StageTimings::default();
        let a = StageTimings {
            convert: Duration::from_micros(1),
            run: Duration::from_micros(10),
            count: Duration::from_micros(100),
        };
        let b = StageTimings {
            convert: Duration::from_micros(2),
            run: Duration::from_micros(20),
            count: Duration::from_micros(200),
        };
        total.accumulate(&a);
        total.accumulate(&b);
        assert_eq!(total.convert, Duration::from_micros(3));
        assert_eq!(total.run, Duration::from_micros(30));
        assert_eq!(total.count, Duration::from_micros(300));
    }

    #[test]
    fn model_time_totals() {
        let t = ModelTime::new(100, 50);
        assert_eq!(t.total(), 150);
        assert_eq!(ModelTime::default().total(), 0);
    }

    #[test]
    fn detection_rate_per_million() {
        let d = Detection {
            occurrences: 5,
            time: ModelTime::new(1_000_000, 0),
        };
        assert!((d.rate() - 5.0).abs() < 1e-12);
        let zero = Detection {
            occurrences: 0,
            time: ModelTime::default(),
        };
        assert_eq!(zero.rate(), 0.0);
    }

    #[test]
    fn relative_improvement_omits_zero_baselines() {
        let tool = Detection {
            occurrences: 100,
            time: ModelTime::new(1000, 0),
        };
        let base = Detection {
            occurrences: 1,
            time: ModelTime::new(1000, 0),
        };
        assert!((relative_improvement(tool, base).unwrap() - 100.0).abs() < 1e-9);
        let dead = Detection {
            occurrences: 0,
            time: ModelTime::new(1000, 0),
        };
        assert_eq!(relative_improvement(tool, dead), None);
    }

    #[test]
    fn speedup_ratios() {
        let base = ModelTime::new(1000, 0);
        let fast = ModelTime::new(100, 0);
        assert!((speedup(base, fast).unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(speedup(base, ModelTime::default()), None);
        // Slower tool → speedup below 1.
        let slow = ModelTime::new(4000, 0);
        assert!(speedup(base, slow).unwrap() < 1.0);
    }
}
