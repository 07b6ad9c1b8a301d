//! Simulator configuration.

use perple_model::ModelId;

use crate::fault::FaultPlan;

/// Tunable parameters of the simulated x86-TSO machine.
///
/// Defaults are calibrated so that (a) weak outcomes of unfenced tests occur
/// at observable rates, (b) thread skew grows to thousands of iterations
/// over long runs (paper Figure 12), and (c) fenced tests never exhibit
/// forbidden outcomes (guaranteed by construction, not calibration).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// PRNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Per-cycle probability that a non-empty store buffer drains its oldest
    /// entry to memory.
    pub drain_prob: f64,
    /// Store-buffer capacity; a store stalls while the buffer is full.
    pub buffer_capacity: usize,
    /// Per-cycle probability that a running thread is preempted by the OS.
    pub preempt_prob: f64,
    /// Mean preemption duration in cycles (uniform in `[1, 2*mean]`).
    pub mean_preempt: u64,
    /// Per-cycle probability of a short interruption (timer tick, minor
    /// fault): long enough to flip which thread reads "fresh" values,
    /// short enough not to desynchronize the run.
    pub micro_preempt_prob: f64,
    /// Mean micro-interruption duration in cycles.
    pub mean_micro_preempt: u64,
    /// Per-cycle probability of a short pipeline/cache stall.
    pub stall_prob: f64,
    /// **Fault injection**: when true, store buffers drain out of order
    /// across locations (per-location FIFO only) — a PSO-like machine that
    /// deliberately violates x86-TSO, used to demonstrate conformance-bug
    /// hunting.
    pub weak_store_order: bool,
    /// Mean short-stall duration in cycles.
    pub mean_stall: u64,
    /// **Fault injection**: scheduled machine-level faults (dropped or
    /// corrupted stores, stuck threads, reordering bursts), deterministic
    /// under [`SimConfig::seed`]. The default plan is empty and leaves the
    /// machine bit-identical to a fault-free build.
    pub fault_plan: FaultPlan,
    /// Memory consistency model the machine executes (default
    /// [`ModelId::Tso`], the paper's x86-TSO machine — bit-identical to
    /// the historical hard-coded behaviour).
    pub model: ModelId,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FF_EE00,
            drain_prob: 0.35,
            buffer_capacity: 8,
            preempt_prob: 2e-4,
            mean_preempt: 400,
            micro_preempt_prob: 4e-3,
            mean_micro_preempt: 30,
            stall_prob: 0.12,
            mean_stall: 5,
            weak_store_order: false,
            fault_plan: FaultPlan::none(),
            model: ModelId::Tso,
        }
    }
}

impl SimConfig {
    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different drain probability.
    ///
    /// # Panics
    /// Panics if `p` is not within `(0, 1]` — a zero drain probability would
    /// deadlock fences.
    pub fn with_drain_prob(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "drain_prob must be in (0, 1]");
        self.drain_prob = p;
        self
    }

    /// Returns the config with different preemption behaviour; controls how
    /// wide the thread-skew distribution grows.
    pub fn with_preemption(mut self, prob: f64, mean_cycles: u64) -> Self {
        self.preempt_prob = prob;
        self.mean_preempt = mean_cycles;
        self
    }

    /// Returns the config with different short-stall behaviour.
    pub fn with_stalls(mut self, prob: f64, mean_cycles: u64) -> Self {
        self.stall_prob = prob;
        self.mean_stall = mean_cycles;
        self
    }

    /// Returns the config with out-of-order store-buffer drains enabled
    /// (the deliberately TSO-violating machine).
    pub fn with_weak_store_order(mut self, weak: bool) -> Self {
        self.weak_store_order = weak;
        self
    }

    /// Returns the config with the given fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns the config executing under the given memory model.
    pub fn with_model(mut self, model: ModelId) -> Self {
        self.model = model;
        self
    }

    /// A stable, human-readable descriptor of every behaviour-relevant
    /// field, used as a **cache-key input** by the campaign layer: two
    /// configs produce identical runs iff their descriptors (plus the
    /// program) are identical. Floats print in Rust's shortest round-trip
    /// form and the fault plan in its canonical grammar, so the string is
    /// a pure function of the config — byte-identical across processes.
    ///
    /// The default model (TSO) contributes no `model=` component, so every
    /// descriptor — and thus every campaign cache key — produced before
    /// models became configurable is still emitted byte-for-byte; non-TSO
    /// models append `;model=<name>` and land in their own cache partition.
    pub fn cache_descriptor(&self) -> String {
        let mut d = format!(
            "seed={:#x};drain={};cap={};preempt={}/{};micro={}/{};stall={}/{};weak={};faults={}",
            self.seed,
            self.drain_prob,
            self.buffer_capacity,
            self.preempt_prob,
            self.mean_preempt,
            self.micro_preempt_prob,
            self.mean_micro_preempt,
            self.stall_prob,
            self.mean_stall,
            self.weak_store_order,
            if self.fault_plan.is_empty() {
                "none".to_owned()
            } else {
                self.fault_plan.to_string()
            },
        );
        if self.model != ModelId::Tso {
            d.push_str(";model=");
            d.push_str(self.model.name());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SimConfig::default();
        assert!(c.drain_prob > 0.0 && c.drain_prob <= 1.0);
        assert!(c.buffer_capacity > 0);
        assert!(c.preempt_prob < 0.01);
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::default()
            .with_seed(1)
            .with_drain_prob(0.5)
            .with_preemption(0.001, 100)
            .with_stalls(0.1, 2);
        assert_eq!(c.seed, 1);
        assert_eq!(c.drain_prob, 0.5);
        assert_eq!(c.preempt_prob, 0.001);
        assert_eq!(c.mean_preempt, 100);
        assert_eq!(c.stall_prob, 0.1);
        assert_eq!(c.mean_stall, 2);
    }

    #[test]
    #[should_panic(expected = "drain_prob")]
    fn zero_drain_prob_rejected() {
        let _ = SimConfig::default().with_drain_prob(0.0);
    }

    #[test]
    fn cache_descriptor_is_stable_and_sensitive() {
        let a = SimConfig::default().with_seed(7);
        assert_eq!(a.cache_descriptor(), a.clone().cache_descriptor());
        assert_ne!(
            a.cache_descriptor(),
            a.clone().with_seed(8).cache_descriptor()
        );
        assert_ne!(
            a.cache_descriptor(),
            a.clone().with_weak_store_order(true).cache_descriptor()
        );
        let plan = FaultPlan::parse("drop@t0:0..5:p0.5").unwrap();
        let b = a.clone().with_fault_plan(plan);
        assert_ne!(a.cache_descriptor(), b.cache_descriptor());
        assert!(b.cache_descriptor().contains("drop@t0:0..5:p0.5"));
        assert!(a.cache_descriptor().contains("faults=none"));
    }

    #[test]
    fn model_partitions_the_descriptor_but_tso_stays_silent() {
        // TSO (the default) must not change descriptor bytes — existing
        // campaign cache entries key off the historical string.
        let tso = SimConfig::default().with_model(ModelId::Tso);
        assert_eq!(
            tso.cache_descriptor(),
            SimConfig::default().cache_descriptor()
        );
        assert!(!tso.cache_descriptor().contains("model="));
        // Every non-TSO model gets its own partition.
        let mut seen = std::collections::HashSet::new();
        for m in ModelId::ALL {
            let d = SimConfig::default().with_model(m).cache_descriptor();
            assert!(seen.insert(d.clone()), "descriptor collision for {m}");
            if m != ModelId::Tso {
                assert!(d.ends_with(&format!(";model={}", m.name())), "{d}");
            }
        }
    }
}
