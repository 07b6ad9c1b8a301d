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
//! | SC/TSO/PSO/relaxed condition verdicts (herd substitute) | [`perple_solve`], [`perple_enumerate`] for the solver's out-of-fragment shapes |
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
pub use perple_analysis::{jsonout, metrics, skew, stats, variety};
pub use perple_campaign as campaign;
pub use perple_convert::{
    Conversion, ConvertError, HeuristicOutcome, PerpetualOutcome, PerpetualTest,
};
pub use perple_enumerate::Classification;
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

/// Whether some execution under `model` satisfies the test's condition
/// body (its quantifier aside): the one allowed/forbidden verdict every
/// caller uses. The solver decides it
/// ([`perple_solve::condition_feasible`], final-memory atoms included);
/// the operational enumerator runs, under that one model, only for the
/// two shapes outside the solver's fragment — a reloaded register or a
/// value stored twice.
pub fn condition_allowed(test: &LitmusTest, model: ModelId) -> bool {
    perple_solve::condition_feasible(test, model)
        .unwrap_or_else(|_| perple_enumerate::classify_under(test, model))
}

/// The test's [`condition_allowed`] verdict under every supported model.
pub fn classify(test: &LitmusTest) -> Classification {
    Classification {
        sc_allowed: condition_allowed(test, ModelId::Sc),
        tso_allowed: condition_allowed(test, ModelId::Tso),
        pso_allowed: condition_allowed(test, ModelId::Pso),
        relaxed_allowed: condition_allowed(test, ModelId::Relaxed),
    }
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
    fn out_of_fragment_conditions_fall_back_to_the_enumerator() {
        // A reloaded register, then a value stored twice: the solver
        // abstains and the one-model enumeration decides.
        let mut b = perple_model::TestBuilder::new("reload");
        b.thread().store("x", 1);
        b.thread().load("EAX", "x").mfence().load("EAX", "x");
        b.reg_cond(1, "EAX", 0);
        let reload = b.build().unwrap();
        let mut b = perple_model::TestBuilder::new("twice");
        b.thread().store("x", 1).store("y", 1);
        b.thread().store("y", 2).store("x", 1);
        b.mem_cond("x", 1).mem_cond("y", 2);
        let twice = b.build().unwrap();
        for t in [reload, twice] {
            for m in ModelId::ALL {
                assert!(
                    perple_solve::condition_feasible(&t, m).is_err(),
                    "{}",
                    t.name()
                );
                assert_eq!(
                    condition_allowed(&t, m),
                    perple_enumerate::classify_under(&t, m),
                    "{} under {m}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn non_convertible_tests_are_rejected_by_the_engine() {
        let co = suite::by_name("2+2w").unwrap();
        assert!(matches!(
            Perple::new(&co).unwrap_err(),
            ConvertError::MemoryClause { .. }
        ));
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
