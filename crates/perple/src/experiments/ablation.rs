//! Design-choice ablations (extension experiments).
//!
//! Three knobs the reproduction's DESIGN calls out are isolated here:
//!
//! * **Heuristic pivot selection** — the paper's step-5 substitution only
//!   works when partner indices are derivable from the pivot's loads; tests
//!   like `n1` resolve only from their *last* reader. We compare detection
//!   with the naive first-thread pivot against the selected pivot.
//! * **Store-buffer drain latency** — how the probability of a buffered
//!   store draining per cycle drives the weak-outcome rate.
//! * **Scheduler dynamics** — how preemption/stall noise (the thread-skew
//!   source, §VII-E) drives outcome variety.

use std::fmt::Write as _;

use perple_analysis::count::{CountRequest, Counter, HeuristicCounter};
use perple_convert::HeuristicOutcome;
use perple_harness::perpetual::PerpleRunner;
use perple_model::suite;
use perple_sim::SimConfig;

use super::ExperimentConfig;
use crate::Conversion;

/// Pivot-selection ablation result for one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PivotAblation {
    /// Test name.
    pub name: String,
    /// Pivot the selector chose.
    pub chosen_pivot: usize,
    /// Target hits with the chosen pivot.
    pub with_selection: u64,
    /// Target hits when pivoting naively on frame position 0.
    pub naive_pivot0: u64,
}

/// Runs the pivot ablation over the allowed suite tests.
pub fn pivot_ablation(cfg: &ExperimentConfig) -> Vec<PivotAblation> {
    suite::allowed_targets()
        .iter()
        .map(|test| {
            // Invariant: `allowed_targets()` is a subset of the
            // convertible suite, so conversion cannot fail.
            let conv = Conversion::convert(test).expect("converts");
            let frame_len = conv.perpetual.load_thread_count();
            let naive =
                HeuristicOutcome::from_perpetual_with_pivot(&conv.target_exhaustive, frame_len, 0);
            let mut runner = PerpleRunner::new(SimConfig::default().with_seed(cfg.seed ^ 0xAB1));
            let run = runner.run(&conv.perpetual, cfg.iterations);
            let bufs = run.bufs();
            let req = CountRequest::new(&bufs, cfg.iterations);
            let selected = HeuristicCounter::single(&conv.target_heuristic).count(&req);
            let naive_count = HeuristicCounter::single(&naive).count(&req);
            PivotAblation {
                name: test.name().to_owned(),
                chosen_pivot: conv.target_heuristic.pivot(),
                with_selection: selected.counts[0],
                naive_pivot0: naive_count.counts[0],
            }
        })
        .collect()
}

/// Drain-probability sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainSweepPoint {
    /// Per-cycle drain probability.
    pub drain_prob: f64,
    /// sb target hits (heuristic) at this latency.
    pub target_hits: u64,
}

/// Sweeps the store-buffer drain probability on the sb test.
pub fn drain_sweep(cfg: &ExperimentConfig) -> Vec<DrainSweepPoint> {
    let test = suite::sb();
    // Invariant: sb is the paper's canonical convertible test.
    let conv = Conversion::convert(&test).expect("converts");
    [0.05, 0.15, 0.35, 0.6, 0.9]
        .iter()
        .map(|&p| {
            let config = SimConfig::default()
                .with_seed(cfg.seed ^ 0xD7A)
                .with_drain_prob(p);
            let mut runner = PerpleRunner::new(config);
            let run = runner.run(&conv.perpetual, cfg.iterations);
            let bufs = run.bufs();
            let count = HeuristicCounter::single(&conv.target_heuristic)
                .count(&CountRequest::new(&bufs, cfg.iterations));
            DrainSweepPoint {
                drain_prob: p,
                target_hits: count.counts[0],
            }
        })
        .collect()
}

/// Scheduler-dynamics sweep result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSweepPoint {
    /// Configuration label.
    pub label: &'static str,
    /// Distinct sb outcomes observed (max 4).
    pub distinct_outcomes: usize,
    /// Total outcome occurrences across per-outcome sampling.
    pub total_hits: u64,
}

/// Sweeps scheduler noise on the sb test and measures outcome variety.
pub fn scheduler_sweep(cfg: &ExperimentConfig) -> Vec<SchedulerSweepPoint> {
    let test = suite::sb();
    // Invariant: sb is the paper's canonical convertible test.
    let conv = Conversion::convert(&test).expect("converts");
    let all = conv.all_outcomes(&test);
    let configs: [(&'static str, SimConfig); 3] = [
        (
            "quiet (no noise)",
            SimConfig::default()
                .with_seed(cfg.seed)
                .with_preemption(0.0, 0)
                .with_stalls(0.0, 0),
        ),
        ("default", SimConfig::default().with_seed(cfg.seed)),
        (
            "noisy (heavy preemption)",
            SimConfig::default()
                .with_seed(cfg.seed)
                .with_preemption(2e-3, 1_000),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, mut config)| {
            if label == "quiet (no noise)" {
                config.micro_preempt_prob = 0.0;
            }
            let mut runner = PerpleRunner::new(config);
            let run = runner.run(&conv.perpetual, cfg.iterations);
            let bufs = run.bufs();
            let req = CountRequest::new(&bufs, cfg.iterations);
            let counts: Vec<u64> = all
                .iter()
                .map(|(_, h)| HeuristicCounter::single(h).count(&req).counts[0])
                .collect();
            SchedulerSweepPoint {
                label,
                distinct_outcomes: counts.iter().filter(|&&c| c > 0).count(),
                total_hits: counts.iter().sum(),
            }
        })
        .collect()
}

/// Renders all three ablations.
pub fn render(
    pivots: &[PivotAblation],
    drains: &[DrainSweepPoint],
    scheds: &[SchedulerSweepPoint],
    cfg: &ExperimentConfig,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Ablations ({} iterations)", cfg.iterations);
    let _ = writeln!(s, "-- heuristic pivot selection --");
    let _ = writeln!(
        s,
        "{:<16} {:>6} {:>14} {:>14}",
        "test", "pivot", "selected", "naive-pivot0"
    );
    for p in pivots {
        let _ = writeln!(
            s,
            "{:<16} {:>6} {:>14} {:>14}",
            p.name, p.chosen_pivot, p.with_selection, p.naive_pivot0
        );
    }
    let _ = writeln!(s, "-- store-buffer drain probability (sb target rate) --");
    for d in drains {
        let _ = writeln!(s, "  p={:<5} hits={}", d.drain_prob, d.target_hits);
    }
    let _ = writeln!(s, "-- scheduler noise (sb outcome variety) --");
    for p in scheds {
        let _ = writeln!(
            s,
            "  {:<26} distinct={} total={}",
            p.label, p.distinct_outcomes, p.total_hits
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::default()
            .with_iterations(2_000)
            .with_seed(0xAB)
    }

    #[test]
    fn pivot_selection_never_hurts_and_rescues_n1() {
        let pivots = pivot_ablation(&cfg());
        for p in &pivots {
            if p.chosen_pivot == 0 {
                assert_eq!(p.with_selection, p.naive_pivot0, "{}", p.name);
            }
        }
        let n1 = pivots.iter().find(|p| p.name == "n1").unwrap();
        assert_ne!(n1.chosen_pivot, 0, "n1 must pivot on its final reader");
        assert!(n1.with_selection > 0, "selected pivot must detect n1");
        assert!(
            n1.with_selection > n1.naive_pivot0,
            "selection must beat the lockstep fallback on n1"
        );
    }

    #[test]
    fn slower_drains_expose_more_store_buffering() {
        let sweep = drain_sweep(&cfg());
        assert_eq!(sweep.len(), 5);
        let slow = sweep.first().unwrap().target_hits;
        let fast = sweep.last().unwrap().target_hits;
        assert!(
            slow > fast,
            "p=0.05 ({slow}) should beat p=0.9 ({fast}): longer buffer residency"
        );
    }

    #[test]
    fn noise_increases_outcome_variety() {
        let sweep = scheduler_sweep(&cfg());
        let quiet = &sweep[0];
        let default = &sweep[1];
        assert!(default.distinct_outcomes >= quiet.distinct_outcomes);
        assert!(default.distinct_outcomes >= 3);
    }

    #[test]
    fn render_mentions_all_three() {
        let c = cfg();
        let text = render(
            &pivot_ablation(&c),
            &drain_sweep(&c),
            &scheduler_sweep(&c),
            &c,
        );
        assert!(text.contains("pivot selection"));
        assert!(text.contains("drain probability"));
        assert!(text.contains("scheduler noise"));
    }
}
