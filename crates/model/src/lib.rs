//! # perple-model
//!
//! Data model for litmus tests as used by the PerpLE memory-consistency
//! testing suite (Melissaris et al., MICRO 2020).
//!
//! This crate provides:
//!
//! * the litmus-test AST ([`LitmusTest`], [`Instr`], [`Condition`]) together
//!   with a [builder](TestBuilder) for programmatic construction,
//! * a parser and printer for the litmus7 text format ([`parser`],
//!   [`printer`]),
//! * register-valuation [`Outcome`]s and outcome-space enumeration,
//! * the **perpetual litmus suite** of Table II of the paper plus the
//!   surrounding 88-test x86-TSO suite ([`suite`]).
//!
//! # Example
//!
//! ```
//! use perple_model::suite;
//!
//! let sb = suite::sb();
//! assert_eq!(sb.name(), "sb");
//! assert_eq!(sb.thread_count(), 2);
//! assert_eq!(sb.load_thread_count(), 2);
//! // The target outcome of sb requires store buffering: both loads read 0.
//! assert_eq!(sb.target().atoms().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cond;
mod error;
pub mod generate;
mod ids;
mod instr;
pub mod memmodel;
pub mod parser;
pub mod printer;
pub mod span;
pub mod suite;
mod test;

pub use cond::{CondAtom, Condition, Outcome, Quantifier};
pub use error::ModelError;
pub use ids::{InstrRef, LocId, RegId, ThreadId};
pub use instr::Instr;
pub use memmodel::{AccessKind, ModelId, ModelPolicy};
pub use span::{SourceMap, Span};
pub use test::{LitmusTest, LoadSlot, TestBuilder, ThreadBuilder};
