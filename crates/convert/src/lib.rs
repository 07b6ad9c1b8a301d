//! # perple-convert
//!
//! The PerpLE **Converter** (paper §III–§V): turns litmus tests into
//! *perpetual* litmus tests and original outcomes into *perpetual outcomes*
//! with both exhaustive (`p_out`) and heuristic (`p_out_h`) condition forms.
//!
//! Pipeline (Figure 3 of the paper):
//!
//! 1. [`KMap`] assigns each store instruction its arithmetic sequence
//!    `k_mem * n_t + a` (§III-B, Table I).
//! 2. [`PerpetualTest`] rewrites the program: stores become sequence terms,
//!    loads and fences are unchanged, the per-iteration barrier is gone.
//! 3. [`PerpetualOutcome`] converts outcomes through happens-before
//!    reasoning into frame-evaluable inequality conditions (§IV-A, steps
//!    1–4; Figure 6).
//! 4. [`HeuristicOutcome`] eliminates all but one frame index by deriving
//!    partner iterations from loaded values (§IV-B, step 5; Figure 8).
//! 5. [`codegen`] emits the paper's textual artifacts: per-thread x86
//!    assembly, C sources of `COUNT`/`COUNTH`, and the `t<i>_reads`
//!    parameter file (§V-A).
//!
//! Tests whose conditions inspect final shared memory are rejected as
//! non-convertible (§V-C), exactly the 54-test complement of the suite.
//!
//! # Example
//!
//! ```
//! use perple_convert::Conversion;
//! use perple_model::suite;
//!
//! let sb = suite::sb();
//! let conv = Conversion::convert(&sb)?;
//! assert_eq!(conv.perpetual.load_thread_count(), 2);
//! assert!(conv.target_heuristic.fully_derived());
//!
//! // Non-convertible tests are rejected:
//! let co = suite::by_name("2+2w").unwrap();
//! assert!(Conversion::convert(&co).is_err());
//! # Ok::<(), perple_convert::ConvertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod codegen;
pub mod diagnose;
mod heuristic;
mod kmap;
mod outcomes;
mod perpetual;

pub use heuristic::{Derivation, DeriveRule, HeuristicOutcome, HeuristicScratch};
pub use kmap::{KMap, SeqAssignment};
pub use outcomes::{
    convert_all_outcomes, fr_lower_bound, IdxRef, LoadRef, PerpCond, PerpetualOutcome, StoreTerm,
};
pub use perpetual::{PerpInstr, PerpetualTest};

use std::fmt;

use perple_model::LitmusTest;

/// Errors rejecting a test or outcome from conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// The condition inspects final shared memory (§V-C).
    MemoryCondition,
    /// Two stores write the same value to one location; loads could not be
    /// attributed.
    DuplicateStoreValue {
        /// Location name.
        loc: String,
        /// Duplicated value.
        value: u32,
    },
    /// A location starts at a non-zero value; zero is the reserved
    /// pre-sequence state.
    NonZeroInit {
        /// Location name.
        loc: String,
    },
    /// A condition references a register no load writes.
    UnloadedRegister {
        /// Thread index.
        thread: usize,
        /// Register index.
        reg: usize,
    },
    /// A condition expects a value no store produces.
    NoWriterForValue {
        /// Location name.
        loc: String,
        /// The unattributable value.
        value: u32,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::MemoryCondition => {
                write!(f, "condition inspects final shared memory; not convertible")
            }
            ConvertError::DuplicateStoreValue { loc, value } => {
                write!(
                    f,
                    "value {value} is stored to [{loc}] by multiple instructions"
                )
            }
            ConvertError::NonZeroInit { loc } => {
                write!(f, "location [{loc}] has a non-zero initial value")
            }
            ConvertError::UnloadedRegister { thread, reg } => {
                write!(
                    f,
                    "condition references register {thread}:r{reg} that no load writes"
                )
            }
            ConvertError::NoWriterForValue { loc, value } => {
                write!(f, "no store writes value {value} to [{loc}]")
            }
        }
    }
}

impl std::error::Error for ConvertError {}

/// The complete output of converting one litmus test: the perpetual program
/// plus exhaustive and heuristic forms of the target outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conversion {
    /// The synchronization-free program.
    pub perpetual: PerpetualTest,
    /// Sequence assignments (needed to convert further outcomes).
    pub kmap: KMap,
    /// The target outcome in exhaustive (`p_out`) form.
    pub target_exhaustive: PerpetualOutcome,
    /// The target outcome in heuristic (`p_out_h`) form.
    pub target_heuristic: HeuristicOutcome,
}

impl Conversion {
    /// Runs the full conversion pipeline on a test.
    ///
    /// # Errors
    ///
    /// Returns [`ConvertError`] for non-convertible tests (§V-C) or
    /// structurally unattributable conditions.
    pub fn convert(test: &LitmusTest) -> Result<Self, ConvertError> {
        let _span = perple_obs::trace::span("convert");
        let kmap = KMap::compute(test)?;
        let perpetual = PerpetualTest::convert(test)?;
        let target_exhaustive = PerpetualOutcome::convert_target(test, &perpetual, &kmap)?;
        let target_heuristic =
            HeuristicOutcome::from_perpetual(&target_exhaustive, perpetual.load_thread_count());
        Ok(Self {
            perpetual,
            kmap,
            target_exhaustive,
            target_heuristic,
        })
    }

    /// Converts every possible outcome of the test (for outcome-variety
    /// analyses, Figure 13), in exhaustive and heuristic forms.
    ///
    /// # Errors
    /// Propagates conversion errors.
    pub fn all_outcomes(
        &self,
        test: &LitmusTest,
    ) -> Result<Vec<(PerpetualOutcome, HeuristicOutcome)>, ConvertError> {
        let outs = convert_all_outcomes(test, &self.perpetual, &self.kmap)?;
        Ok(outs
            .into_iter()
            .map(|o| {
                let h = HeuristicOutcome::from_perpetual(&o, self.perpetual.load_thread_count());
                (o, h)
            })
            .collect())
    }
}

/// True if PerpLE can convert the test (register-only condition and
/// attributable store values) — the paper's convertibility notion (§V-C).
pub fn is_convertible(test: &LitmusTest) -> bool {
    Conversion::convert(test).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    #[test]
    fn suite_split_34_convertible_54_not() {
        let (conv, nonconv): (Vec<_>, Vec<_>) = suite::full().into_iter().partition(is_convertible);
        assert_eq!(conv.len(), 34);
        assert_eq!(nonconv.len(), 54);
    }

    #[test]
    fn conversion_bundles_are_consistent() {
        for t in suite::convertible() {
            let c = Conversion::convert(&t).unwrap();
            assert_eq!(c.target_heuristic.label(), c.target_exhaustive.label());
            let all = c.all_outcomes(&t).unwrap();
            assert!(!all.is_empty());
            for (o, h) in &all {
                assert_eq!(o.label(), h.label());
            }
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let msgs = [
            ConvertError::MemoryCondition.to_string(),
            ConvertError::DuplicateStoreValue {
                loc: "x".into(),
                value: 1,
            }
            .to_string(),
            ConvertError::NonZeroInit { loc: "x".into() }.to_string(),
            ConvertError::UnloadedRegister { thread: 0, reg: 1 }.to_string(),
            ConvertError::NoWriterForValue {
                loc: "y".into(),
                value: 3,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn conversion_error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConvertError::MemoryCondition);
        assert!(e.to_string().contains("not convertible"));
    }
}
