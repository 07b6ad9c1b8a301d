//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§VI–§VII). Each submodule computes one artifact's data and
//! renders it as a text table; the `perple-bench` binaries are thin
//! wrappers around these drivers.
//!
//! | paper artifact | driver |
//! |---|---|
//! | Table II (suite + classification) | [`table2`] |
//! | Figure 9 (target occurrences, 10k iters) | [`fig9`] |
//! | Figure 10 (runtime speedups vs `user`) | [`fig10`] |
//! | Figure 11 (detection-rate improvement vs iterations) | [`fig11`] |
//! | Figure 12 (thread-skew PDF) | [`fig12`] |
//! | Figure 13 (outcome variety) | [`fig13`] |
//! | §VII-G (overall impact on the 88-test suite) | [`overall`] |
//! | extension: bug hunt on a faulty machine | [`bugfinder`] |
//! | extension: design-choice ablations | [`ablation`] |
//! | extension: model inference (§II-B1) | [`infer`] |

pub mod ablation;
pub mod bugfinder;
pub mod campaign;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod infer;
pub mod overall;
pub mod pool;
pub mod resilient;
pub mod table2;

use std::time::Instant;

use perple_analysis::count::{
    CountRequest, Counter, CounterKind, ExhaustiveCounter, HeuristicCounter,
};
use perple_analysis::metrics::{Detection, ModelTime, StageTimings};
use perple_harness::baseline::{BaselineRunner, SyncMode};
use perple_harness::perpetual::PerpleRunner;
use perple_model::{LitmusTest, ModelId};
use perple_sim::{Budget, FaultPlan, SimConfig};

use crate::error::PerpleError;
use crate::Conversion;

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Iterations per test run.
    pub iterations: u64,
    /// Base PRNG seed (varied deterministically per test/tool).
    pub seed: u64,
    /// Frame cap for the exhaustive counter (`None` scans all `N^{T_L}`
    /// frames; `T_L = 3` tests need a cap at large `N`).
    pub exhaustive_frame_cap: Option<u64>,
    /// Width of the suite-level worker pool: how many per-test pipelines
    /// run concurrently. Results are identical at every width (suite tests
    /// derive their own seeds, see `derive_seed`); only wall time changes.
    pub workers: usize,
    /// Per-stage wall-clock watchdog in milliseconds (`--timeout-ms`);
    /// `None` runs unbudgeted. Each stage (run, count) gets a fresh budget
    /// and returns a partial, flagged result when it expires.
    pub timeout_ms: Option<u64>,
    /// How many times a failed (panicked / timed-out) suite item is retried
    /// with a deterministically perturbed seed (`--retries`).
    pub retries: u32,
    /// Machine-level fault-injection plan (`--inject`), applied to every
    /// PerpLE run. Empty by default (bit-identical to no injection).
    pub fault_plan: FaultPlan,
    /// Run the deliberately TSO-violating weak-store-order machine
    /// (conformance-audit drivers hunt violations on it).
    pub weak_machine: bool,
    /// Which backend produces the exact (non-heuristic) target counts in
    /// audit-style drivers (`--counter`). [`CounterKind::Rf`] — the default
    /// — walks observed reads-from partners in polynomial time and is
    /// bit-identical to [`CounterKind::Exhaustive`]; outside the rf
    /// fragment it falls back to the exhaustive scan with the downgrade
    /// recorded. [`CounterKind::Heuristic`] skips the exact pass entirely
    /// and lets the linear heuristic stand in.
    pub counter: CounterKind,
    /// Memory model the simulated machine executes (`--model`). Defaults
    /// to TSO, under which every run is bit-identical to the pre-model
    /// configuration.
    pub model: ModelId,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            seed: 0x9E37,
            exhaustive_frame_cap: Some(100_000_000),
            workers: pool::default_workers(),
            timeout_ms: None,
            retries: 0,
            fault_plan: FaultPlan::none(),
            weak_machine: false,
            counter: CounterKind::Rf,
            model: ModelId::Tso,
        }
    }
}

impl ExperimentConfig {
    /// Starts a validating builder seeded with the defaults. Unlike the
    /// `with_*` combinators (which trust their inputs), [`build`] rejects
    /// nonsensical configurations — zero iterations, zero workers, a zero
    /// watchdog or frame cap — as [`PerpleError::Config`].
    ///
    /// [`build`]: ExperimentConfigBuilder::build
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::default(),
        }
    }

    /// Returns the config with a different iteration count.
    pub fn with_iterations(mut self, n: u64) -> Self {
        self.iterations = n;
        self
    }

    /// Returns the config with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with an `n`-wide suite pool (clamped to at
    /// least 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Returns the config with a per-stage wall-clock watchdog.
    pub fn with_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.timeout_ms = ms;
        self
    }

    /// Returns the config retrying failed items up to `retries` times.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Returns the config with a machine fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns the config targeting the weak-store-order machine.
    pub fn with_weak_machine(mut self, weak: bool) -> Self {
        self.weak_machine = weak;
        self
    }

    /// Returns the config with a different exact-counter backend.
    pub fn with_counter(mut self, counter: CounterKind) -> Self {
        self.counter = counter;
        self
    }

    /// Returns the config with a different memory model.
    pub fn with_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// Simulator configuration for one derived seed, carrying the
    /// experiment's fault plan, memory model, and machine choice.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig::default()
            .with_seed(seed)
            .with_weak_store_order(self.weak_machine)
            .with_fault_plan(self.fault_plan.clone())
            .with_model(self.model)
    }

    /// A fresh per-stage watchdog honoring [`ExperimentConfig::timeout_ms`].
    pub fn stage_budget(&self) -> Budget {
        match self.timeout_ms {
            Some(ms) => Budget::with_timeout_ms(ms),
            None => Budget::unlimited(),
        }
    }
}

/// Validating builder for [`ExperimentConfig`] (see
/// [`ExperimentConfig::builder`]). Setters stage values; [`build`] checks
/// them all at once and reports the first violation as
/// [`PerpleError::Config`], naming the offending field.
///
/// [`build`]: ExperimentConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Iterations per test run (must be at least 1).
    pub fn iterations(mut self, n: u64) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Base PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Frame cap for the exhaustive counter (`Some(0)` is rejected; use
    /// `None` to scan everything).
    pub fn exhaustive_frame_cap(mut self, cap: Option<u64>) -> Self {
        self.cfg.exhaustive_frame_cap = cap;
        self
    }

    /// Width of the suite-level worker pool (must be at least 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Per-stage watchdog in milliseconds (`Some(0)` is rejected; use
    /// `None` to run unbudgeted).
    pub fn timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.cfg.timeout_ms = ms;
        self
    }

    /// Retries for failed suite items.
    pub fn retries(mut self, retries: u32) -> Self {
        self.cfg.retries = retries;
        self
    }

    /// Machine fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Target the weak-store-order (deliberately TSO-violating) machine.
    pub fn weak_machine(mut self, weak: bool) -> Self {
        self.cfg.weak_machine = weak;
        self
    }

    /// Exact-counter backend for audit-style drivers.
    pub fn counter(mut self, counter: CounterKind) -> Self {
        self.cfg.counter = counter;
        self
    }

    /// Memory model the simulated machine executes.
    pub fn model(mut self, model: ModelId) -> Self {
        self.cfg.model = model;
        self
    }

    /// Validates the staged configuration.
    ///
    /// # Errors
    /// [`PerpleError::Config`] naming the first invalid field.
    pub fn build(self) -> Result<ExperimentConfig, PerpleError> {
        if self.cfg.iterations == 0 {
            return Err(PerpleError::Config("iterations must be at least 1".into()));
        }
        if self.cfg.timeout_ms == Some(0) {
            return Err(PerpleError::Config(
                "timeout_ms must be at least 1 (use None for unbudgeted)".into(),
            ));
        }
        if self.cfg.exhaustive_frame_cap == Some(0) {
            return Err(PerpleError::Config(
                "exhaustive_frame_cap must be at least 1 (use None to scan everything)".into(),
            ));
        }
        if self.cfg.workers == 0 {
            return Err(PerpleError::Config("workers must be at least 1".into()));
        }
        Ok(self.cfg)
    }
}

/// Derives a per-(test, tool) seed so tools see decorrelated but
/// reproducible schedules.
fn derive_seed(base: u64, test_name: &str, tool: &str) -> u64 {
    let mut h = base ^ 0xDEAD_BEEF_CAFE_F00D;
    for b in test_name.bytes().chain(tool.bytes()) {
        h = h.rotate_left(7) ^ b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Runs the perpetual test under the config's budgets: unbudgeted when no
/// watchdog is armed (the historical path, bit-identical to before budgets
/// existed), budgeted with a fresh per-stage [`Budget`] otherwise.
fn run_stage(
    runner: &mut PerpleRunner,
    conv: &Conversion,
    cfg: &ExperimentConfig,
) -> perple_harness::perpetual::PerpleRun {
    match cfg.timeout_ms {
        None => runner.run(&conv.perpetual, cfg.iterations),
        Some(_) => runner.run_budgeted(&conv.perpetual, cfg.iterations, &cfg.stage_budget()),
    }
}

/// Runs PerpLE on one test and measures target detection with the chosen
/// counter. Returns the detection plus the raw occurrence count.
///
/// Honors [`ExperimentConfig::timeout_ms`] (each stage watchdogged,
/// partial results on expiry) and [`ExperimentConfig::fault_plan`].
pub fn perple_detection(
    test: &LitmusTest,
    conv: &Conversion,
    cfg: &ExperimentConfig,
    heuristic: bool,
) -> Detection {
    let seed = derive_seed(
        cfg.seed,
        test.name(),
        if heuristic { "perple-h" } else { "perple-x" },
    );
    let mut runner = PerpleRunner::new(cfg.sim_config(seed));
    let run = run_stage(&mut runner, conv, cfg);
    let n = run.iterations;
    let bufs = run.bufs();
    let budget = cfg.timeout_ms.map(|_| cfg.stage_budget());
    let mut req = CountRequest::new(&bufs, n);
    if let Some(b) = budget.as_ref() {
        req = req.with_budget(b);
    }
    let count = if heuristic {
        HeuristicCounter::single(&conv.target_heuristic).count(&req)
    } else {
        ExhaustiveCounter::single(&conv.target_exhaustive)
            .count(&req.with_frame_cap(cfg.exhaustive_frame_cap))
    };
    Detection {
        occurrences: count.counts[0],
        time: ModelTime::new(run.exec_cycles, count.frames_examined),
    }
}

/// Runs PerpLE **once** and measures target detection under both counters
/// (the paper's runtime comparisons share the execution and differ only in
/// counting). Returns `(heuristic, exhaustive)`.
pub fn perple_detection_both(
    test: &LitmusTest,
    conv: &Conversion,
    cfg: &ExperimentConfig,
) -> (Detection, Detection) {
    let (heur, exh, _) = perple_detection_both_timed(test, conv, cfg);
    (heur, exh)
}

/// [`perple_detection_both`] plus per-stage wall-clock timings (the run
/// stage and the combined counting stage; the caller supplies conversion
/// time, which happens once per test outside this function).
pub fn perple_detection_both_timed(
    test: &LitmusTest,
    conv: &Conversion,
    cfg: &ExperimentConfig,
) -> (Detection, Detection, StageTimings) {
    let seed = derive_seed(cfg.seed, test.name(), "perple");
    let mut runner = PerpleRunner::new(cfg.sim_config(seed));
    let t_run = Instant::now();
    let run = run_stage(&mut runner, conv, cfg);
    let run_wall = t_run.elapsed();
    let n = run.iterations;
    let bufs = run.bufs();
    let req = CountRequest::new(&bufs, n);
    let heur = HeuristicCounter::single(&conv.target_heuristic).count(&req);
    let exh = ExhaustiveCounter::single(&conv.target_exhaustive)
        .count(&req.with_frame_cap(cfg.exhaustive_frame_cap));
    let mut timings = StageTimings::default();
    timings.add_run(run_wall);
    timings.add_count(heur.wall);
    timings.add_count(exh.wall);
    (
        Detection {
            occurrences: heur.counts[0],
            time: ModelTime::new(run.exec_cycles, heur.frames_examined),
        },
        Detection {
            occurrences: exh.counts[0],
            time: ModelTime::new(run.exec_cycles, exh.frames_examined),
        },
        timings,
    )
}

/// Runs the litmus7 baseline in one mode and measures target detection.
/// litmus7's counting is one outcome check per iteration.
pub fn baseline_detection(test: &LitmusTest, mode: SyncMode, cfg: &ExperimentConfig) -> Detection {
    let seed = derive_seed(cfg.seed, test.name(), mode.as_str());
    let mut runner = BaselineRunner::new(cfg.sim_config(seed), mode);
    let run = runner.run(test, cfg.iterations);
    Detection {
        occurrences: run.target_count,
        time: ModelTime::new(run.exec_cycles, cfg.iterations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    #[test]
    fn derive_seed_varies_by_inputs() {
        let a = derive_seed(1, "sb", "user");
        let b = derive_seed(1, "sb", "pthread");
        let c = derive_seed(1, "lb", "user");
        let d = derive_seed(2, "sb", "user");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, derive_seed(1, "sb", "user"));
    }

    #[test]
    fn perple_detects_sb_target_where_user_mode_struggles() {
        let t = suite::sb();
        let conv = Conversion::convert(&t).unwrap();
        let cfg = ExperimentConfig::default().with_iterations(2_000);
        let perple = perple_detection(&t, &conv, &cfg, true);
        let user = baseline_detection(&t, SyncMode::User, &cfg);
        assert!(perple.occurrences > 0);
        assert!(
            perple.occurrences >= user.occurrences,
            "perple {} vs user {}",
            perple.occurrences,
            user.occurrences
        );
    }

    #[test]
    fn config_builders() {
        let c = ExperimentConfig::default().with_iterations(5).with_seed(9);
        assert_eq!(c.iterations, 5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validating_builder_accepts_whole_configurations() {
        let c = ExperimentConfig::builder()
            .iterations(5)
            .seed(9)
            .workers(3)
            .timeout_ms(Some(250))
            .retries(2)
            .weak_machine(true)
            .counter(CounterKind::Exhaustive)
            .model(ModelId::Relaxed)
            .exhaustive_frame_cap(None)
            .build()
            .unwrap();
        assert_eq!(c.iterations, 5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.workers, 3);
        assert_eq!(c.timeout_ms, Some(250));
        assert_eq!(c.retries, 2);
        assert!(c.weak_machine);
        assert_eq!(c.counter, CounterKind::Exhaustive);
        assert_eq!(c.model, ModelId::Relaxed);
        assert_eq!(c.exhaustive_frame_cap, None);
    }

    #[test]
    fn validating_builder_defaults_equal_the_default_config() {
        let built = ExperimentConfig::builder().build().unwrap();
        let default = ExperimentConfig::default();
        assert_eq!(built.iterations, default.iterations);
        assert_eq!(built.seed, default.seed);
        assert_eq!(built.exhaustive_frame_cap, default.exhaustive_frame_cap);
        assert_eq!(built.workers, default.workers);
        assert_eq!(built.timeout_ms, default.timeout_ms);
        assert_eq!(built.retries, default.retries);
        assert_eq!(built.weak_machine, default.weak_machine);
        assert_eq!(built.counter, CounterKind::Rf);
        assert_eq!(built.model, ModelId::Tso);
    }

    #[test]
    fn validating_builder_rejects_degenerate_values() {
        for (builder, needle) in [
            (ExperimentConfig::builder().iterations(0), "iterations"),
            (ExperimentConfig::builder().workers(0), "workers"),
            (
                ExperimentConfig::builder().timeout_ms(Some(0)),
                "timeout_ms",
            ),
            (
                ExperimentConfig::builder().exhaustive_frame_cap(Some(0)),
                "frame_cap",
            ),
        ] {
            match builder.build() {
                Err(PerpleError::Config(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} should name {needle}")
                }
                other => panic!("expected Config error for {needle}, got {other:?}"),
            }
        }
    }
}
