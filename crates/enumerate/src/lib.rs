//! # perple-enumerate
//!
//! Exhaustive operational enumeration of litmus-test executions under every
//! supported memory model — **SC**, **x86-TSO**, **PSO**, and an
//! ARM/Power-style **relaxed** model — playing the role the `herd`
//! memory-model simulator plays in the PerpLE paper: classifying each
//! test's target outcome as *allowed* or *forbidden* (Table II).
//!
//! The TSO machine is the operational x86-TSO model of Owens, Sarkar and
//! Sewell: each hardware thread owns a FIFO store buffer; stores enter the
//! buffer, drain to shared memory in order at nondeterministic times, loads
//! forward from the newest buffered store to the same address, `MFENCE` and
//! locked instructions wait for an empty buffer. SC is the same machine with
//! stores applied directly to memory; PSO drains the buffer
//! oldest-per-location; the relaxed model additionally issues instructions
//! out of program order. Models are named by [`ModelId`] (promoted into
//! `perple-model` so the simulator shares the same identifier).
//!
//! Enumeration is a depth-first search over all interleavings of
//! instruction execution and buffer drains, memoizing visited machine states
//! so the search is exact and terminates quickly for litmus-scale programs.
//!
//! # Example
//!
//! ```
//! use perple_enumerate::{classify, enumerate, ModelId};
//! use perple_model::suite;
//!
//! let sb = suite::sb();
//! let c = classify(&sb);
//! // The sb target (both loads 0) needs store buffering:
//! assert!(c.tso_allowed && !c.sc_allowed);
//! assert!(c.allowed_under(ModelId::Relaxed));
//!
//! // Each model's executions include the stronger models' executions.
//! let sc = enumerate(&sb, ModelId::Sc);
//! let tso = enumerate(&sb, ModelId::Tso);
//! assert!(sc.register_outcomes().is_subset(&tso.register_outcomes()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;

pub use explore::{enumerate, ExecutionSet};
pub use perple_model::ModelId;

use perple_model::LitmusTest;

/// Whether each memory model can realize a test's condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// The condition is reachable under sequential consistency.
    pub sc_allowed: bool,
    /// The condition is reachable under x86-TSO.
    pub tso_allowed: bool,
    /// The condition is reachable under PSO.
    pub pso_allowed: bool,
    /// The condition is reachable under the relaxed model.
    pub relaxed_allowed: bool,
}

impl Classification {
    /// True if the condition distinguishes TSO from SC: reachable only with
    /// store buffering. Such conditions are the paper's *target outcomes*.
    pub fn is_target(&self) -> bool {
        self.tso_allowed && !self.sc_allowed
    }

    /// Whether the condition is reachable under `model`.
    pub fn allowed_under(&self, model: ModelId) -> bool {
        match model {
            ModelId::Sc => self.sc_allowed,
            ModelId::Tso => self.tso_allowed,
            ModelId::Pso => self.pso_allowed,
            ModelId::Relaxed => self.relaxed_allowed,
        }
    }

    /// The weakest-to-strongest boundary: the strongest model that allows
    /// the condition, if any does.
    pub fn strongest_allowing(&self) -> Option<ModelId> {
        ModelId::ALL.into_iter().find(|&m| self.allowed_under(m))
    }
}

/// Classifies the test's own condition under every supported model.
pub fn classify(test: &LitmusTest) -> Classification {
    Classification {
        sc_allowed: classify_under(test, ModelId::Sc),
        tso_allowed: classify_under(test, ModelId::Tso),
        pso_allowed: classify_under(test, ModelId::Pso),
        relaxed_allowed: classify_under(test, ModelId::Relaxed),
    }
}

/// Classifies the test's own condition under one model (cheaper than
/// [`classify`] when only one verdict is needed).
pub fn classify_under(test: &LitmusTest, model: ModelId) -> bool {
    enumerate(test, model).condition_reachable(test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    #[test]
    fn table_ii_split_matches_enumeration() {
        // The central cross-check: our reconstruction of Table II must agree
        // with the operational x86-TSO model on every allowed/forbidden bit.
        for (test, entry) in suite::convertible().iter().zip(suite::TABLE_II) {
            let c = classify(test);
            assert_eq!(
                c.tso_allowed, entry.allowed,
                "{}: expected tso_allowed={}",
                entry.name, entry.allowed
            );
        }
    }

    #[test]
    fn allowed_targets_are_true_targets() {
        // Allowed targets must be TSO-only (store-buffering-revealing).
        for test in suite::allowed_targets() {
            let c = classify(&test);
            assert!(c.is_target(), "{} target should be TSO-only", test.name());
        }
    }

    #[test]
    fn classification_is_monotone_along_the_lattice() {
        for test in suite::convertible() {
            let c = classify(&test);
            for w in ModelId::ALL.windows(2) {
                assert!(
                    !c.allowed_under(w[0]) || c.allowed_under(w[1]),
                    "{}: allowed under {} but not under weaker {}",
                    test.name(),
                    w[0],
                    w[1]
                );
            }
            if let Some(m) = c.strongest_allowing() {
                assert!(c.allowed_under(m));
            }
        }
    }

    #[test]
    fn classify_under_matches_classify() {
        for test in [suite::sb(), suite::mp(), suite::lb(), suite::iriw()] {
            let c = classify(&test);
            for m in ModelId::ALL {
                assert_eq!(c.allowed_under(m), classify_under(&test, m), "{m}");
            }
        }
    }

    #[test]
    fn sc_outcomes_subset_of_tso_for_whole_suite() {
        for test in suite::convertible() {
            let sc = enumerate(&test, ModelId::Sc);
            let tso = enumerate(&test, ModelId::Tso);
            assert!(
                sc.register_outcomes().is_subset(&tso.register_outcomes()),
                "{}",
                test.name()
            );
        }
    }
}
