//! # PerpLE — the Perpetual Litmus Engine
//!
//! A Rust reproduction of *"PerpLE: Improving the Speed and Effectiveness
//! of Memory Consistency Testing"* (Melissaris, Markakis, Shaw, Martonosi —
//! MICRO 2020).
//!
//! PerpLE replaces per-iteration thread synchronization in empirical memory
//! consistency testing with **perpetual litmus tests**: threads synchronize
//! once at launch and then free-run, storing unique arithmetic-sequence
//! values (`k_mem * n_t + a`) so that every loaded value identifies the
//! iteration that produced it. After the run, an exhaustive counter scans
//! all `N^{T_L}` *frames* for outcomes of interest, or a linear heuristic
//! derives one promising frame per iteration.
//!
//! This facade crate wires the pieces together:
//!
//! | concern | crate |
//! |---|---|
//! | litmus AST, parser, suite, model identity | [`perple_model`] |
//! | SC/TSO/PSO/relaxed outcome classification (herd substitute) | [`perple_enumerate`] |
//! | simulated x86-TSO machine | [`perple_sim`] |
//! | Converter (perpetual tests + outcomes + codegen) | [`perple_convert`] |
//! | Harness (perpetual + litmus7 baseline + native) | [`perple_harness`] |
//! | counters, skew, variety, metrics | [`perple_analysis`] |
//!
//! # Quickstart
//!
//! ```
//! use perple::{Perple, SimConfig};
//! use perple_model::suite;
//!
//! // Convert and run the store-buffering test for 2000 iterations.
//! let mut engine = Perple::with_config(
//!     &suite::sb(), SimConfig::default().with_seed(42))?;
//! let result = engine.run(2_000);
//!
//! // The weak (target) outcome is observable without per-iteration
//! // synchronization, and the heuristic counter finds it in linear time.
//! assert!(result.target_heuristic.counts[0] > 0);
//! assert_eq!(result.target_heuristic.frames_examined, 2_000);
//! # Ok::<(), perple::ConvertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiments;
pub mod servehost;

pub use error::{parse_fault_plan, PerpleError};
pub use perple_analysis::count::{
    CountRequest, CountResult, Counter, CounterKind, ExhaustiveCounter, HeuristicCounter,
};
pub use perple_analysis::rf::RfCounter;
pub use perple_analysis::{jsonout, metrics, modelmine, skew, stats, variety};
pub use perple_campaign as campaign;
pub use perple_convert::{
    Conversion, ConvertError, HeuristicOutcome, PerpetualOutcome, PerpetualTest,
};
pub use perple_enumerate::{classify, enumerate, Classification};
pub use perple_harness::baseline::{BaselineRun, BaselineRunner, SyncMode};
pub use perple_harness::native;
pub use perple_harness::perpetual::{PerpleRun, PerpleRunner};
pub use perple_lint as lint;
pub use perple_model::{suite, LitmusTest, ModelError, ModelId, Outcome};
pub use perple_obs as obs;
pub use perple_serve as serve;
pub use perple_sim::{Budget, FaultKind, FaultPlan, FaultSpec, SimConfig};
pub use perple_solve as solve;
pub use servehost::{summary_json, validate_store_root, CampaignRunner};

pub use experiments::pool::default_workers;
pub use perple_analysis::metrics::StageTimings;

/// The solver's verdict on whether `model` forbids the test's condition:
/// `Some(true)` when no outcome matching a register-only `exists`
/// condition is feasible, `Some(false)` when one is, and `None` when the
/// solver abstains (a memory-inspecting, universal, or unsatisfiable
/// condition, or an outcome shape outside its fragment — the same scope
/// as lint L008).
pub fn solver_forbidden(test: &LitmusTest, model: ModelId) -> Option<bool> {
    let cond = test.target();
    if cond.quantifier() != perple_model::Quantifier::Exists || cond.inspects_memory() {
        return None;
    }
    let matching = test.outcomes_matching_condition();
    if matching.is_empty() {
        return None;
    }
    for o in &matching {
        if perple_solve::feasible(test, o, model).ok()? {
            return Some(false);
        }
    }
    Some(true)
}

/// Whether `model` forbids the test's condition: the solver verdict, with
/// the operational enumeration under that one model only where the solver
/// abstains. Equal to `!classify(test).allowed_under(model)` at a fraction
/// of the cost (microseconds instead of a four-model enumeration).
pub fn forbidden_under(test: &LitmusTest, model: ModelId) -> bool {
    solver_forbidden(test, model).unwrap_or_else(|| !perple_enumerate::classify_under(test, model))
}

/// One-stop engine: conversion plus harness plus counters for one test.
#[derive(Debug, Clone)]
pub struct Perple {
    test: LitmusTest,
    conversion: Conversion,
    runner: PerpleRunner,
    exhaustive_frame_cap: Option<u64>,
}

/// Everything one perpetual run produces: buffers, timing, and target
/// counts from both counters.
#[derive(Debug, Clone)]
pub struct PerpleResult {
    /// The raw run (buffers + execution cycles).
    pub run: PerpleRun,
    /// Target-outcome count from the linear heuristic counter.
    pub target_heuristic: CountResult,
    /// Target-outcome count from the exhaustive counter (possibly
    /// frame-capped; see [`Perple::set_exhaustive_frame_cap`]).
    pub target_exhaustive: CountResult,
}

impl Perple {
    /// Converts `test` and prepares a runner with default configuration.
    ///
    /// # Errors
    /// Returns [`ConvertError`] for non-convertible tests (§V-C).
    pub fn new(test: &LitmusTest) -> Result<Self, ConvertError> {
        Self::with_config(test, SimConfig::default())
    }

    /// Converts `test` with an explicit simulator configuration.
    ///
    /// # Errors
    /// Returns [`ConvertError`] for non-convertible tests (§V-C).
    pub fn with_config(test: &LitmusTest, config: SimConfig) -> Result<Self, ConvertError> {
        let conversion = Conversion::convert(test)?;
        Ok(Self {
            test: test.clone(),
            conversion,
            runner: PerpleRunner::new(config),
            exhaustive_frame_cap: None,
        })
    }

    /// The original test.
    pub fn test(&self) -> &LitmusTest {
        &self.test
    }

    /// The conversion artifacts (perpetual program, target conditions).
    pub fn conversion(&self) -> &Conversion {
        &self.conversion
    }

    /// Caps the exhaustive counter's frame scan (`T_L = 3` tests examine
    /// `N^3` frames; the cap keeps them tractable, reported as truncated).
    pub fn set_exhaustive_frame_cap(&mut self, cap: Option<u64>) {
        self.exhaustive_frame_cap = cap;
    }

    /// Runs `n` perpetual iterations and applies both target counters.
    pub fn run(&mut self, n: u64) -> PerpleResult {
        let run = self.runner.run(&self.conversion.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let target_heuristic =
            HeuristicCounter::single(&self.conversion.target_heuristic).count(&req);
        let target_exhaustive = ExhaustiveCounter::single(&self.conversion.target_exhaustive)
            .count(&req.with_frame_cap(self.exhaustive_frame_cap));
        PerpleResult {
            run,
            target_heuristic,
            target_exhaustive,
        }
    }

    /// Runs `n` iterations and applies only the heuristic counter (the
    /// practical configuration the paper recommends after §VII-B).
    pub fn run_heuristic_only(&mut self, n: u64) -> (PerpleRun, CountResult) {
        let run = self.runner.run(&self.conversion.perpetual, n);
        let bufs = run.bufs();
        let count = HeuristicCounter::single(&self.conversion.target_heuristic)
            .count(&CountRequest::new(&bufs, n));
        (run, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_finds_sb_target_with_both_counters() {
        let mut p = Perple::with_config(&suite::sb(), SimConfig::default().with_seed(1)).unwrap();
        let r = p.run(2_000);
        assert!(r.target_heuristic.counts[0] > 0);
        assert!(r.target_exhaustive.counts[0] >= r.target_heuristic.counts[0]);
        assert_eq!(r.target_exhaustive.frames_examined, 2_000 * 2_000);
    }

    #[test]
    fn heuristic_never_finds_what_exhaustive_misses() {
        for name in ["sb", "amd3", "iwp24", "mp", "amd5"] {
            let t = suite::by_name(name).unwrap();
            let mut p = Perple::with_config(&t, SimConfig::default().with_seed(3)).unwrap();
            let r = p.run(400);
            assert!(
                r.target_heuristic.counts[0] <= r.target_exhaustive.counts[0],
                "{name}"
            );
        }
    }

    #[test]
    fn heuristic_accuracy_found_iff_exhaustive_found() {
        // §VII-D: whenever the exhaustive counter finds the target, the
        // heuristic must find it too (not necessarily as often).
        for (i, t) in suite::allowed_targets().into_iter().enumerate() {
            let mut p =
                Perple::with_config(&t, SimConfig::default().with_seed(100 + i as u64)).unwrap();
            p.set_exhaustive_frame_cap(Some(2_000_000));
            let r = p.run(600);
            if r.target_exhaustive.counts[0] > 0 {
                assert!(
                    r.target_heuristic.counts[0] > 0,
                    "{}: exhaustive found {} but heuristic found none",
                    t.name(),
                    r.target_exhaustive.counts[0]
                );
            }
        }
    }

    #[test]
    fn forbidden_targets_are_never_counted() {
        // No false positives (§VII-A): the simulator is TSO, so forbidden
        // targets must stay at zero under both counters.
        for name in ["mp", "lb", "amd5", "amd10", "iriw", "wrc", "n4", "n5"] {
            let t = suite::by_name(name).unwrap();
            let mut p = Perple::with_config(&t, SimConfig::default().with_seed(7)).unwrap();
            p.set_exhaustive_frame_cap(Some(1_000_000));
            let r = p.run(300);
            assert_eq!(r.target_heuristic.counts[0], 0, "{name} (heuristic)");
            assert_eq!(r.target_exhaustive.counts[0], 0, "{name} (exhaustive)");
        }
    }

    #[test]
    fn same_seed_engines_produce_identical_results() {
        let mut a = Perple::with_config(&suite::sb(), SimConfig::default().with_seed(9)).unwrap();
        let mut b = Perple::with_config(&suite::sb(), SimConfig::default().with_seed(9)).unwrap();
        let a = a.run(800);
        let b = b.run(800);
        assert_eq!(a.target_heuristic.counts, b.target_heuristic.counts);
        assert_eq!(a.target_exhaustive.counts, b.target_exhaustive.counts);
        assert_eq!(
            a.target_exhaustive.frames_examined,
            b.target_exhaustive.frames_examined
        );
    }

    #[test]
    fn non_convertible_tests_are_rejected_by_the_engine() {
        let co = suite::by_name("2+2w").unwrap();
        assert_eq!(Perple::new(&co).unwrap_err(), ConvertError::MemoryCondition);
    }

    #[test]
    fn frame_cap_reports_truncation() {
        let mut p = Perple::with_config(&suite::sb(), SimConfig::default()).unwrap();
        p.set_exhaustive_frame_cap(Some(100));
        let r = p.run(50);
        assert!(r.target_exhaustive.truncated);
        assert_eq!(r.target_exhaustive.frames_examined, 100);
    }

    #[test]
    fn run_heuristic_only_skips_the_quadratic_scan() {
        let mut p = Perple::with_config(&suite::sb(), SimConfig::default()).unwrap();
        let (run, count) = p.run_heuristic_only(500);
        assert_eq!(run.iterations, 500);
        assert_eq!(count.frames_examined, 500);
    }
}
