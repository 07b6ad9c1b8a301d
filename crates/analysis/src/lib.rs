//! # perple-analysis
//!
//! Post-run analysis of perpetual litmus tests:
//!
//! * [`count`] — the **exhaustive outcome counter** `COUNT` (Algorithm 1,
//!   all `N^{T_L}` frames) and the **linear heuristic counter** `COUNTH`
//!   (Algorithm 2), each counting one outcome;
//! * [`rf`] — the **polynomial reads-from closure counter**: exact
//!   per-outcome counts in `O(N log N)` per coordinate pair (plus one
//!   Fenwick query per visited pair for three coupled loads, `O(N^2 log N)`
//!   at worst) by walking observed reads-from partners
//!   instead of enumerating frames, falling back to the exhaustive scan
//!   outside its fragment;
//! * [`skew`] — thread-skew measurement from loaded sequence values
//!   (§VI-B5, Figure 12);
//! * [`variety`] — per-outcome occurrence tables (Figure 13);
//! * [`metrics`] — target-outcome detection rates and relative improvements
//!   (Figure 11), model-time accounting;
//! * [`modelmine`] — inference of the machine's program-order relaxations
//!   from observed targets (the §II-B1 "formulating a formal description"
//!   use case);
//! * [`stats`] — histograms, probability densities, geometric means;
//! * [`jsonout`] — the shared zero-dependency, byte-stable JSON writer and
//!   parser every report and store writer in the workspace uses.
//!
//! # Example
//!
//! ```
//! use perple_analysis::count::{CountRequest, Counter, ExhaustiveCounter, HeuristicCounter};
//! use perple_analysis::rf::RfCounter;
//! use perple_convert::Conversion;
//! use perple_model::suite;
//!
//! let sb = suite::sb();
//! let conv = Conversion::convert(&sb)?;
//! // Hand-made buffers for a 3-iteration run.
//! let b0: Vec<u64> = vec![0, 1, 3];
//! let b1: Vec<u64> = vec![0, 1, 3];
//! let bufs: Vec<&[u64]> = vec![&b0, &b1];
//! let req = CountRequest::new(&bufs, 3);
//! let exhaustive = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
//! let heuristic = HeuristicCounter::single(&conv.target_heuristic).count(&req);
//! let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
//! // Work models: the exhaustive counter scans the full N^2 = 9-frame
//! // cross product; the heuristic derives one frame per iteration (3);
//! // the rf counter sweeps each side of sb's single coordinate pair
//! // once (2N = 6) — and still reproduces the exhaustive counts exactly.
//! assert_eq!(exhaustive.frames_examined, 9);
//! assert_eq!(heuristic.frames_examined, 3);
//! assert_eq!(rf.frames_examined, 6);
//! assert_eq!(rf.counts, exhaustive.counts);
//! assert!(heuristic.counts[0] <= exhaustive.counts[0]);
//! # Ok::<(), perple_convert::ConvertError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count;
pub mod jsonout;
pub mod metrics;
pub mod modelmine;
pub mod rf;
pub mod skew;
pub mod stats;
pub mod variety;
