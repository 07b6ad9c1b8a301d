//! # perple-sim
//!
//! An operational **x86-TSO simulator** used as the execution substrate for
//! perpetual litmus tests and the litmus7-style baseline.
//!
//! The PerpLE paper evaluates on a 32-core Intel Xeon cluster. This
//! reproduction runs where only a single hardware core may be available, so
//! real-hardware weak-memory outcomes cannot be relied upon; instead this
//! crate simulates the same machine the paper assumes — the operational
//! x86-TSO model (Owens/Sarkar/Sewell) — with the system-level effects that
//! drive the paper's phenomena:
//!
//! * per-thread FIFO **store buffers** with forwarding, probabilistic drain
//!   latency, `MFENCE`/locked-instruction stalls → weak (target) outcomes;
//! * a synchronous-parallel scheduler with per-thread **preemption** and
//!   short stalls → thread skew (paper §VI-B5, Figure 12);
//! * **cycle accounting** → runtime comparisons between synchronization
//!   modes (Figure 10).
//!
//! Programs are small per-thread loop bodies ([`SimOp`]) whose stored values
//! may depend on the executing thread's iteration index ([`ValExpr::Seq`]) —
//! exactly the arithmetic sequences of perpetual litmus tests — and whose
//! addresses may stride per iteration ([`Addr`]), which models litmus7's
//! per-iteration memory cells.
//!
//! # Example
//!
//! ```
//! use perple_sim::{Machine, SimConfig, SimOp, ThreadSpec, Addr, ValExpr};
//!
//! // Perpetual sb, 1000 iterations, locations x=0 and y=1.
//! let body0 = vec![
//!     SimOp::Store { addr: Addr::fixed(0), expr: ValExpr::Seq { k: 1, a: 1 } },
//!     SimOp::Load { reg: 0, addr: Addr::fixed(1) },
//!     SimOp::Record { reg: 0 },
//! ];
//! let body1 = vec![
//!     SimOp::Store { addr: Addr::fixed(1), expr: ValExpr::Seq { k: 1, a: 1 } },
//!     SimOp::Load { reg: 0, addr: Addr::fixed(0) },
//!     SimOp::Record { reg: 0 },
//! ];
//! let threads = vec![
//!     ThreadSpec::new(body0, 1000),
//!     ThreadSpec::new(body1, 1000),
//! ];
//! let mut machine = Machine::new(SimConfig::default().with_seed(42));
//! let out = machine.run(&threads, 2);
//! assert_eq!(out.bufs[0].len(), 1000);
//! assert!(out.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod config;
mod fault;
mod machine;
mod program;
mod rng;
pub mod trace;

pub use budget::Budget;
pub use config::SimConfig;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use machine::{Machine, RunOutput};
pub use program::{Addr, SimOp, ThreadSpec, ValExpr};
pub use rng::XorShiftStar;
pub use trace::{Trace, TraceEvent, TraceKind};
