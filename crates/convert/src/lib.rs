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
//! [`obstructions`] is the converter's one convertibility decision: every
//! reason a test falls outside the convertible class (§V-C), each a
//! [`ConvertError`]. [`Conversion::convert`] refuses a test with the first
//! of them and builds the stages above only for a test with none; in the
//! suite that refuses exactly the 54 tests whose conditions inspect final
//! shared memory.
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
mod heuristic;
mod kmap;
mod outcomes;
mod perpetual;

pub use heuristic::{Derivation, DeriveRule, HeuristicOutcome, HeuristicScratch};
pub use kmap::{KMap, SeqAssignment};
pub use outcomes::{fr_lower_bound, IdxRef, LoadRef, PerpCond, PerpetualOutcome, StoreTerm};
pub use perpetual::{PerpInstr, PerpetualTest};

use std::fmt;

use perple_model::{CondAtom, InstrRef, LitmusTest, LocId};

/// One structural reason a test cannot be converted (§V-C).
///
/// `atom` fields index [`perple_model::Condition::atoms`], so they line up
/// with [`perple_model::SourceMap::cond_atom`] spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// A condition clause inspects final shared memory: a perpetual run has
    /// no final state to inspect.
    MemoryClause {
        /// Index into `Condition::atoms`.
        atom: usize,
        /// Location name.
        loc: String,
        /// Expected final value.
        value: u32,
    },
    /// A location starts at a non-zero value; zero is the reserved
    /// pre-sequence state the iteration attribution relies on.
    NonZeroInit {
        /// Location name.
        loc: String,
        /// The offending initial value.
        value: u32,
    },
    /// Two store instructions write the same value to one location, making
    /// load attribution ambiguous.
    DuplicateStoreValue {
        /// Location name.
        loc: String,
        /// The duplicated value.
        value: u32,
        /// The first storing instruction in program order.
        first: InstrRef,
        /// A later instruction storing the same value.
        second: InstrRef,
    },
    /// A condition clause names a register no load writes.
    UnloadedRegister {
        /// Index into `Condition::atoms`.
        atom: usize,
        /// Thread index.
        thread: usize,
        /// Register name.
        reg: String,
    },
    /// A condition clause expects a positive value no store produces at the
    /// loaded location.
    NoWriterForValue {
        /// Index into `Condition::atoms`.
        atom: usize,
        /// Location name (of the register's last load).
        loc: String,
        /// The unattributable value.
        value: u32,
    },
}

impl ConvertError {
    /// The `Condition::atoms` index this obstruction points at, if it
    /// concerns a condition clause.
    pub fn atom_index(&self) -> Option<usize> {
        match self {
            ConvertError::MemoryClause { atom, .. }
            | ConvertError::UnloadedRegister { atom, .. }
            | ConvertError::NoWriterForValue { atom, .. } => Some(*atom),
            ConvertError::NonZeroInit { .. } | ConvertError::DuplicateStoreValue { .. } => None,
        }
    }

    /// The instruction this obstruction points at, if any.
    pub fn instr(&self) -> Option<InstrRef> {
        match self {
            ConvertError::DuplicateStoreValue { second, .. } => Some(*second),
            _ => None,
        }
    }
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not convertible: ")?;
        match self {
            ConvertError::MemoryClause { loc, value, .. } => write!(
                f,
                "clause [{loc}]={value} inspects final shared memory; a perpetual run has no final state"
            ),
            ConvertError::NonZeroInit { loc, value } => write!(
                f,
                "location [{loc}] starts at {value}; zero is the reserved pre-sequence state"
            ),
            ConvertError::DuplicateStoreValue {
                loc,
                value,
                first,
                second,
            } => write!(
                f,
                "value {value} is stored to [{loc}] by both P{}:{} and P{}:{}; load attribution would be ambiguous",
                first.thread.index(),
                first.index,
                second.thread.index(),
                second.index
            ),
            ConvertError::UnloadedRegister { thread, reg, .. } => {
                write!(f, "clause names register {thread}:{reg} that no load writes")
            }
            ConvertError::NoWriterForValue { loc, value, .. } => {
                write!(f, "no store writes value {value} to [{loc}]")
            }
        }
    }
}

impl std::error::Error for ConvertError {}

/// Every reason `test` cannot be converted, in a fixed order: non-zero
/// initial values, then values stored twice to one location (each once, at
/// its first recurrence), then condition clauses in `Condition::atoms`
/// order. Empty iff the test is convertible; the conversion stages assume
/// it is.
pub fn obstructions(test: &LitmusTest) -> Vec<ConvertError> {
    let mut out = Vec::new();

    for (loc_idx, &v) in test.init_values().iter().enumerate() {
        if v != 0 {
            out.push(ConvertError::NonZeroInit {
                loc: test.location_name(LocId(loc_idx as u8)).to_owned(),
                value: v,
            });
        }
    }

    for loc_idx in 0..test.location_count() {
        let loc = LocId(loc_idx as u8);
        let stores = test.stores_to(loc);
        for (i, &(first, v)) in stores.iter().enumerate() {
            if let Some(&(second, _)) = stores[i + 1..].iter().find(|&&(_, w)| w == v) {
                if stores[..i].iter().all(|&(_, w)| w != v) {
                    out.push(ConvertError::DuplicateStoreValue {
                        loc: test.location_name(loc).to_owned(),
                        value: v,
                        first,
                        second,
                    });
                }
            }
        }
    }

    let slots = test.load_slots();
    for (atom, a) in test.target().atoms().iter().enumerate() {
        match *a {
            CondAtom::MemEq { loc, value } => {
                out.push(ConvertError::MemoryClause {
                    atom,
                    loc: test.location_name(loc).to_owned(),
                    value,
                });
            }
            CondAtom::RegEq { thread, reg, value } => {
                // A register observes its last load in program order.
                let Some(slot) = slots.iter().rfind(|s| s.thread == thread && s.reg == reg) else {
                    out.push(ConvertError::UnloadedRegister {
                        atom,
                        thread: thread.index(),
                        reg: test.reg_name(thread, reg).to_owned(),
                    });
                    continue;
                };
                // Value 0 is the initial state; any positive value needs a
                // writer (a second writer is reported above).
                if value != 0 && !test.stores_to(slot.loc).iter().any(|&(_, v)| v == value) {
                    out.push(ConvertError::NoWriterForValue {
                        atom,
                        loc: test.location_name(slot.loc).to_owned(),
                        value,
                    });
                }
            }
        }
    }
    out
}

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
    /// Returns the first of the test's [`obstructions`] for a
    /// non-convertible test (§V-C).
    pub fn convert(test: &LitmusTest) -> Result<Self, ConvertError> {
        Self::convert_or_obstructions(test).map_err(|mut all| all.swap_remove(0))
    }

    /// [`Conversion::convert`], refusing a test with all of its
    /// [`obstructions`] instead of the first.
    ///
    /// # Errors
    ///
    /// Returns the test's obstructions (never empty) for a non-convertible
    /// test (§V-C).
    pub fn convert_or_obstructions(test: &LitmusTest) -> Result<Self, Vec<ConvertError>> {
        let _span = perple_obs::trace::span("convert");
        let obstructions = obstructions(test);
        if !obstructions.is_empty() {
            return Err(obstructions);
        }
        let kmap = KMap::compute(test);
        let perpetual = PerpetualTest::convert(test, &kmap);
        let target_exhaustive = PerpetualOutcome::convert_target(test, &perpetual, &kmap);
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
    /// analyses, Figure 13), in exhaustive and heuristic forms, in
    /// canonical label order.
    pub fn all_outcomes(&self, test: &LitmusTest) -> Vec<(PerpetualOutcome, HeuristicOutcome)> {
        outcomes::convert_all_outcomes(test, &self.perpetual, &self.kmap)
            .into_iter()
            .map(|o| {
                let h = HeuristicOutcome::from_perpetual(&o, self.perpetual.load_thread_count());
                (o, h)
            })
            .collect()
    }
}

/// True if PerpLE can convert the test (register-only condition and
/// attributable store values) — the paper's convertibility notion (§V-C).
pub fn is_convertible(test: &LitmusTest) -> bool {
    obstructions(test).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::{suite, TestBuilder};

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
            let all = c.all_outcomes(&t);
            assert!(!all.is_empty());
            for (o, h) in &all {
                assert_eq!(o.label(), h.label());
            }
        }
    }

    #[test]
    fn memory_clause_reports_atom_index() {
        let t = suite::by_name("2+2w").unwrap();
        let obs = obstructions(&t);
        assert!(!obs.is_empty());
        for o in &obs {
            let ConvertError::MemoryClause { atom, .. } = o else {
                panic!("expected only memory-clause obstructions, got {o:?}");
            };
            assert!(*atom < t.target().atoms().len());
        }
    }

    #[test]
    fn nonzero_init_and_duplicate_store_are_reported_together() {
        let mut b = TestBuilder::new("multi");
        b.thread().store("x", 1);
        b.thread().store("x", 1).load("EAX", "x");
        b.init("y", 3);
        b.thread().load("EBX", "y");
        b.reg_cond(1, "EAX", 1);
        let t = b.build().unwrap();
        let obs = obstructions(&t);
        assert!(obs
            .iter()
            .any(|o| matches!(o, ConvertError::NonZeroInit { loc, value: 3 } if loc == "y")));
        assert!(obs.iter().any(|o| matches!(
            o,
            ConvertError::DuplicateStoreValue { loc, value: 1, .. } if loc == "x"
        )));
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn no_writer_for_value_points_at_the_clause() {
        let mut b = TestBuilder::new("nowriter");
        b.thread().store("x", 1);
        b.thread().load("EAX", "x");
        b.reg_cond(1, "EAX", 7);
        let t = b.build().unwrap();
        let obs = obstructions(&t);
        assert_eq!(obs.len(), 1);
        assert_eq!(
            obs[0],
            ConvertError::NoWriterForValue {
                atom: 0,
                loc: "x".into(),
                value: 7,
            }
        );
        assert_eq!(obs[0].atom_index(), Some(0));
        assert_eq!(Conversion::convert(&t), Err(obs[0].clone()));
    }

    #[test]
    fn conversion_refuses_with_the_first_obstruction_in_list_order() {
        // One obstruction of each kind a builder can produce (every
        // register it names is loaded), the init declared last.
        let mut b = TestBuilder::new("several");
        b.thread().store("x", 1).load("EAX", "y");
        b.thread().store("x", 1).load("EBX", "x");
        b.reg_cond(0, "EAX", 9);
        b.mem_cond("x", 1);
        b.init("y", 2);
        let t = b.build().unwrap();
        let first_store = InstrRef::new(0, 0);
        let second_store = InstrRef::new(1, 0);
        let want = [
            ConvertError::NonZeroInit {
                loc: "y".into(),
                value: 2,
            },
            ConvertError::DuplicateStoreValue {
                loc: "x".into(),
                value: 1,
                first: first_store,
                second: second_store,
            },
            ConvertError::NoWriterForValue {
                atom: 0,
                loc: "y".into(),
                value: 9,
            },
            ConvertError::MemoryClause {
                atom: 1,
                loc: "x".into(),
                value: 1,
            },
        ];
        assert_eq!(obstructions(&t), want);
        assert_eq!(Conversion::convert_or_obstructions(&t), Err(want.to_vec()));
        assert_eq!(Conversion::convert(&t), Err(want[0].clone()));
        assert!(!is_convertible(&t));
        assert_eq!(want[1].instr(), Some(second_store));
        assert_eq!(want[1].atom_index(), None);
        assert_eq!(want[3].atom_index(), Some(1));
    }

    #[test]
    fn messages_name_the_obstruction() {
        let cases = [
            (
                ConvertError::MemoryClause {
                    atom: 0,
                    loc: "x".into(),
                    value: 1,
                },
                "not convertible: clause [x]=1 inspects final shared memory; a perpetual run \
                 has no final state",
            ),
            (
                ConvertError::NonZeroInit {
                    loc: "x".into(),
                    value: 2,
                },
                "not convertible: location [x] starts at 2; zero is the reserved \
                 pre-sequence state",
            ),
            (
                ConvertError::DuplicateStoreValue {
                    loc: "x".into(),
                    value: 1,
                    first: InstrRef::new(0, 0),
                    second: InstrRef::new(1, 2),
                },
                "not convertible: value 1 is stored to [x] by both P0:0 and P1:2; load \
                 attribution would be ambiguous",
            ),
            (
                // Named by the register's name, not its index.
                ConvertError::UnloadedRegister {
                    atom: 1,
                    thread: 1,
                    reg: "EAX".into(),
                },
                "not convertible: clause names register 1:EAX that no load writes",
            ),
            (
                ConvertError::NoWriterForValue {
                    atom: 2,
                    loc: "y".into(),
                    value: 9,
                },
                "not convertible: no store writes value 9 to [y]",
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
        }
    }

    #[test]
    fn conversion_error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(ConvertError::NonZeroInit {
            loc: "x".into(),
            value: 1,
        });
        assert!(e.to_string().contains("not convertible"));
    }
}
