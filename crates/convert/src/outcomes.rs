//! Perpetual outcomes: conversion steps 1–4 of §IV-A.
//!
//! Step 1's po/rf/co/fr edges are `perple-solve`'s
//! [`forced_relations`] of the outcome's valued loads; each edge becomes
//! one inequality condition over *frames* (tuples of one iteration index
//! per load-performing thread):
//!
//! * `reg = v` with `v > 0` — the load read-from (rf) the unique store of
//!   `v`, so in perpetual form the loaded value must be a term of that
//!   store's sequence **at or after** the writer's frame iteration:
//!   `val ≡ a (mod k) && (val-a)/k >= idx_writer`.
//! * `reg = 0` — the load happened from-read-before (fr) every store to the
//!   location, so the loaded value must be **older** than each frame store:
//!   `val < k * idx_writer + a` for every storing instruction.
//! * The co and fr edges po-loc forces (coWR, coRW, coRR) become
//!   [`PerpCond::Ws`] and one-term [`PerpCond::Fr`] conditions; without
//!   them `n5` and `co-iriw` would convert to satisfiable conditions.
//!
//! Writers in load-performing threads use the frame's index directly;
//! writers in store-only threads (e.g. `mp`'s producer) have no frame slot
//! and are treated **existentially**: the frame matches if *some* iteration
//! of the store-only thread satisfies all its constraints, solved per frame
//! by interval intersection in O(1).

use std::collections::BTreeSet;

use perple_model::{InstrRef, LitmusTest, LoadSlot, RegId, ThreadId};
use perple_solve::{forced_relations, ForcedRelations};

use crate::kmap::KMap;
use crate::perpetual::PerpetualTest;

/// Reference to an iteration index: a frame slot (load-performing thread)
/// or an existential variable (store-only thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxRef {
    /// Index of a load-performing thread within the frame tuple.
    Frame(usize),
    /// Index into the outcome's existential-variable list.
    Exist(usize),
}

/// Where a condition's loaded value lives: `buf[frame_pos][r_t * n + slot]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadRef {
    /// Frame position of the loading thread.
    pub frame_pos: usize,
    /// `r_t` of the loading thread.
    pub reads_per_iter: usize,
    /// Load ordinal within the iteration.
    pub slot: usize,
}

impl LoadRef {
    /// Reads the load's value for iteration `n` out of the thread's buffer.
    #[inline]
    pub fn value(&self, bufs: &[&[u64]], n: u64) -> u64 {
        bufs[self.frame_pos][self.reads_per_iter * n as usize + self.slot]
    }
}

/// One store's sequence parameters plus the index of the iteration it is
/// evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreTerm {
    /// Sequence stride.
    pub k: u64,
    /// Sequence offset.
    pub a: u64,
    /// Writer's iteration index.
    pub writer: IdxRef,
}

/// One converted condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerpCond {
    /// Read-from: `val ≡ a (mod k) && (val - a)/k >= idx(writer)`.
    Rf {
        /// The loaded value's location in the buffers.
        load: LoadRef,
        /// The store term read from.
        term: StoreTerm,
    },
    /// From-read: `val < k*idx + a` for every store to the location.
    Fr {
        /// The loaded value's location in the buffers.
        load: LoadRef,
        /// Every store instruction to the loaded location.
        terms: Vec<StoreTerm>,
    },
    /// Write serialization between two frame stores:
    /// `k_l*idx_l + a_l < k_r*idx_r + a_r`. Produced for each coWR co edge:
    /// a load reading past its own thread's program-order-earlier store
    /// (the own store is ws-before the observed writer). `left` always
    /// references a load-performing (frame) thread.
    Ws {
        /// The ws-earlier store (own store of the reading thread).
        left: StoreTerm,
        /// The ws-later store (the observed writer).
        right: StoreTerm,
    },
}

impl PerpCond {
    /// The load the condition constrains (`None` for pure ws conditions).
    pub fn load(&self) -> Option<LoadRef> {
        match self {
            PerpCond::Rf { load, .. } | PerpCond::Fr { load, .. } => Some(*load),
            PerpCond::Ws { .. } => None,
        }
    }
}

/// A perpetual outcome: the conjunction of converted conditions, evaluable
/// on any frame (the `p_out` functions of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerpetualOutcome {
    label: String,
    conds: Vec<PerpCond>,
    exist_threads: Vec<ThreadId>,
    /// True if the forced relations close a static cycle within one
    /// thread (`ForcedRelations::cyclic`): a load cannot read the initial
    /// value past an own earlier store (forwarding), nor read an own store
    /// that is program-order-later. Such outcomes evaluate to false on
    /// every frame.
    infeasible: bool,
}

impl PerpetualOutcome {
    /// Converts an original outcome (or partial condition) of a
    /// convertible test, given as `(thread, reg, value)` atoms over loaded
    /// registers with attributable values.
    pub(crate) fn convert(
        test: &LitmusTest,
        perp: &PerpetualTest,
        kmap: &KMap,
        atoms: &[(ThreadId, RegId, u32)],
        label: String,
    ) -> Self {
        let reads = valuation(test, atoms);
        let forced =
            forced_relations(test, &reads).expect("the convertibility gate attributes every value");
        Self::from_forced(test, perp, kmap, &reads, &forced, label)
    }

    /// Maps the relations a valuation forces (`perple-solve`'s
    /// [`forced_relations`]) to conditions, in read order: an rf edge
    /// becomes [`PerpCond::Rf`], each coWR co edge into the read's writer
    /// [`PerpCond::Ws`], each coRW fr edge a one-term [`PerpCond::Fr`], and
    /// a read of the initial value one [`PerpCond::Fr`] over every store
    /// to its location; the coRR fr edges follow. A static cycle makes the
    /// outcome infeasible.
    fn from_forced(
        test: &LitmusTest,
        perp: &PerpetualTest,
        kmap: &KMap,
        reads: &[(LoadSlot, u32)],
        forced: &ForcedRelations,
        label: String,
    ) -> Self {
        let reads_per_iter = test.reads_per_thread();
        let loads: Vec<LoadRef> = reads
            .iter()
            .map(|(slot, _)| LoadRef {
                frame_pos: perp
                    .frame_position(slot.thread)
                    .expect("condition thread performs loads"),
                reads_per_iter: reads_per_iter[slot.thread.index()],
                slot: slot.slot,
            })
            .collect();
        let asg = |s: InstrRef| {
            let (loc, value) = test.thread(s.thread)[usize::from(s.index)]
                .store_target()
                .expect("forced relations name stores");
            *kmap
                .assignment(loc, value)
                .expect("kmap covers every store")
        };
        // A store's term; a store-only writer thread gets the next
        // existential variable on first use.
        let mut exist_threads: Vec<ThreadId> = Vec::new();
        let mut term = |s: InstrRef| {
            let writer = match perp.frame_position(s.thread) {
                Some(p) => IdxRef::Frame(p),
                None => IdxRef::Exist(match exist_threads.iter().position(|&t| t == s.thread) {
                    Some(e) => e,
                    None => {
                        exist_threads.push(s.thread);
                        exist_threads.len() - 1
                    }
                }),
            };
            let a = asg(s);
            StoreTerm {
                k: a.k,
                a: a.a,
                writer,
            }
        };
        let mut conds = Vec::new();
        for (i, &load) in loads.iter().enumerate() {
            let Some(w) = forced.rf[i] else {
                // One term per store, in the kmap's offset order.
                let mut stores = forced.fr[i].clone();
                stores.sort_by_key(|&s| asg(s).a);
                let terms = stores.into_iter().map(&mut term).collect();
                conds.push(PerpCond::Fr { load, terms });
                continue;
            };
            let right = term(w);
            conds.push(PerpCond::Rf { load, term: right });
            for &s in &forced.co_before[i] {
                conds.push(PerpCond::Ws {
                    left: term(s),
                    right,
                });
            }
            for &s in &forced.fr[i] {
                conds.push(PerpCond::Fr {
                    load,
                    terms: vec![term(s)],
                });
            }
        }
        for &(early, late) in &forced.corr {
            let writer = forced.rf[late].expect("coRR reads see stores");
            conds.push(PerpCond::Fr {
                load: loads[early],
                terms: vec![term(writer)],
            });
        }
        Self {
            label,
            conds,
            exist_threads,
            infeasible: forced.cyclic,
        }
    }

    /// Converts the test's own (target) condition.
    pub(crate) fn convert_target(test: &LitmusTest, perp: &PerpetualTest, kmap: &KMap) -> Self {
        let atoms: Vec<_> = test.target().reg_atoms().collect();
        Self::convert(test, perp, kmap, &atoms, "target".to_owned())
    }

    /// Display label (original outcome label or `"target"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The converted conditions.
    pub fn conds(&self) -> &[PerpCond] {
        &self.conds
    }

    /// True if the outcome is impossible by construction (see the field
    /// documentation); `eval_frame` is then constantly false.
    pub fn is_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Store-only threads referenced existentially, in variable order.
    pub fn exist_threads(&self) -> &[ThreadId] {
        &self.exist_threads
    }

    /// Evaluates the outcome on one frame (`p_out` of the paper).
    ///
    /// `frame` holds one iteration index per load-performing thread (frame
    /// order); `bufs` the corresponding result buffers; `n_iters` the run
    /// length `N`, bounding existential writer iterations.
    pub fn eval_frame(&self, frame: &[u64], bufs: &[&[u64]], n_iters: u64) -> bool {
        debug_assert!(!frame.is_empty());
        if n_iters == 0 || self.infeasible {
            return false;
        }
        // Existential interval per variable: [lo, hi] over 0..N-1.
        let mut lo = vec![0u64; self.exist_threads.len()];
        let mut hi = vec![n_iters - 1; self.exist_threads.len()];

        for cond in &self.conds {
            if let PerpCond::Ws { left, right } = cond {
                let IdxRef::Frame(lp) = left.writer else {
                    unreachable!("ws left side is a frame store")
                };
                let lval = left.k * frame[lp] + left.a;
                match right.writer {
                    IdxRef::Frame(p) => {
                        if lval >= right.k * frame[p] + right.a {
                            return false;
                        }
                    }
                    IdxRef::Exist(e) => {
                        lo[e] = lo[e].max(fr_lower_bound(right.k, right.a, lval));
                    }
                }
                continue;
            }
            let load = cond.load().expect("rf/fr conditions carry a load");
            let val = load.value(bufs, frame[load.frame_pos]);
            match cond {
                PerpCond::Rf { term, .. } => {
                    let m = match KMap::decode(term.k, term.a, val) {
                        Some(m) => m,
                        None => return false,
                    };
                    match term.writer {
                        IdxRef::Frame(p) => {
                            if m < frame[p] {
                                return false;
                            }
                        }
                        IdxRef::Exist(e) => hi[e] = hi[e].min(m),
                    }
                }
                PerpCond::Fr { terms, .. } => {
                    for term in terms {
                        // val < k*idx + a  ⇔  idx > (val - a)/k.
                        let min_idx = fr_lower_bound(term.k, term.a, val);
                        match term.writer {
                            IdxRef::Frame(p) => {
                                if frame[p] < min_idx {
                                    return false;
                                }
                            }
                            IdxRef::Exist(e) => lo[e] = lo[e].max(min_idx),
                        }
                    }
                }
                PerpCond::Ws { .. } => unreachable!("handled above"),
            }
        }
        lo.iter().zip(&hi).all(|(l, h)| l <= h)
    }
}

/// Smallest `idx` with `val < k*idx + a` (the fr feasibility bound).
///
/// Public because the reads-from counter (`perple-analysis`) compiles fr
/// and ws conditions into threshold features using exactly this bound; the
/// two implementations must agree bit for bit.
#[inline]
pub fn fr_lower_bound(k: u64, a: u64, val: u64) -> u64 {
    if val < a {
        0
    } else {
        (val - a) / k + 1
    }
}

/// Resolves `(thread, reg, value)` atoms to valued load slots, one per
/// atom: a register's value is its last load's.
fn valuation(test: &LitmusTest, atoms: &[(ThreadId, RegId, u32)]) -> Vec<(LoadSlot, u32)> {
    let slots = test.load_slots();
    atoms
        .iter()
        .map(|&(thread, reg, value)| {
            let slot = slots
                .iter()
                .rfind(|s| s.thread == thread && s.reg == reg)
                .expect("the convertibility gate refuses an unloaded register");
            (*slot, value)
        })
        .collect()
}

/// Converts every possible outcome of a convertible test (outcome-variety
/// analysis, Figure 13), in canonical label order.
pub(crate) fn convert_all_outcomes(
    test: &LitmusTest,
    perp: &PerpetualTest,
    kmap: &KMap,
) -> Vec<PerpetualOutcome> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for o in test.possible_outcomes() {
        let atoms: Vec<_> = o.iter().collect();
        let reads = valuation(test, &atoms);
        let forced =
            forced_relations(test, &reads).expect("the convertibility gate attributes every value");
        // A locked exchange cannot read its own write: skip outcomes whose
        // rf names the reading instruction itself.
        let self_read = reads.iter().zip(&forced.rf).any(|((slot, _), w)| {
            *w == Some(InstrRef {
                thread: slot.thread,
                index: slot.instr_index,
            })
        });
        // Clobbered registers (two loads, one register) make distinct slot
        // valuations collapse to one register outcome; keep the first.
        if self_read || !seen.insert(o.label()) {
            continue;
        }
        out.push(PerpetualOutcome::from_forced(
            test,
            perp,
            kmap,
            &reads,
            &forced,
            o.label(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    struct Fixture {
        test: perple_model::LitmusTest,
        perp: PerpetualTest,
        kmap: KMap,
    }

    fn fixture(test: perple_model::LitmusTest) -> Fixture {
        let kmap = KMap::compute(&test);
        let perp = PerpetualTest::convert(&test, &kmap);
        Fixture { test, perp, kmap }
    }

    fn sb_outcomes(f: &Fixture) -> Vec<PerpetualOutcome> {
        convert_all_outcomes(&f.test, &f.perp, &f.kmap)
    }

    /// Figure 6 golden check: the four sb perpetual outcomes evaluated on
    /// hand-built buffers.
    #[test]
    fn sb_matches_figure_6() {
        let f = fixture(suite::sb());
        let outcomes = sb_outcomes(&f);
        assert_eq!(outcomes.len(), 4);
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["00", "01", "10", "11"]);

        // Construct buffers for N=3 where iteration pairs realize known
        // relationships. buf0[n] is the y-value thread 0 loaded in its
        // iteration n; buf1[m] the x-value thread 1 loaded.
        // Frame (n=1, m=1) with buf0[1]=1, buf1[1]=1:
        //   p_out_0: buf0[1] <= 1 && buf1[1] <= 1  → true  (00)
        //   p_out_3: buf0[1] >= 2 && buf1[1] >= 2  → false (11)
        let b0: Vec<u64> = vec![0, 1, 3];
        let b1: Vec<u64> = vec![0, 1, 3];
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let n = 3;
        assert!(outcomes[0].eval_frame(&[1, 1], &bufs, n)); // 00
        assert!(!outcomes[3].eval_frame(&[1, 1], &bufs, n)); // 11
                                                             // Frame (2, 2): buf0[2]=3 >= m+1=3 and buf1[2]=3 >= n+1=3 → 11.
        assert!(outcomes[3].eval_frame(&[2, 2], &bufs, n));
        assert!(!outcomes[0].eval_frame(&[2, 2], &bufs, n));
        // Frame (0, 0): both read 0 → 00.
        assert!(outcomes[0].eval_frame(&[0, 0], &bufs, n));
        // Asymmetric frame (2, 0): buf0[2]=3 >= 0+1 (rf from m=0's store or
        // later) and buf1[0]=0 <= 2 → outcome 10.
        assert!(outcomes[2].eval_frame(&[2, 0], &bufs, n));
        assert!(!outcomes[1].eval_frame(&[2, 0], &bufs, n));
    }

    #[test]
    fn target_conversion_of_sb_is_the_00_outcome() {
        let f = fixture(suite::sb());
        let target = PerpetualOutcome::convert_target(&f.test, &f.perp, &f.kmap);
        assert_eq!(target.conds().len(), 2);
        assert!(target.exist_threads().is_empty());
        assert!(target
            .conds()
            .iter()
            .all(|c| matches!(c, PerpCond::Fr { .. })));
    }

    #[test]
    fn mp_uses_an_existential_writer_index() {
        // mp's producer performs no loads: both conditions reference its
        // iteration existentially, and both conditions must agree on it.
        let f = fixture(suite::mp());
        let target = PerpetualOutcome::convert_target(&f.test, &f.perp, &f.kmap);
        assert_eq!(target.exist_threads(), &[ThreadId(0)]);
        assert_eq!(target.conds().len(), 2);

        // Thread 1 bufs: [EAX(y), EBX(x)] per iteration (r_t = 2).
        // Iteration 0: read y=5 (producer iteration 4) and x=3 (producer
        // iteration 2 < 4): the mp violation would need x-read < y-iter:
        // rf y: m <= 4; fr x: val(3) < m + 1 → m >= 3. Interval [3,4]
        // non-empty → target matches (store buffering of the producer
        // would be required on hardware; here we only test the algebra).
        let b1: Vec<u64> = vec![5, 3];
        let bufs: Vec<&[u64]> = vec![&b1];
        assert!(target.eval_frame(&[0], &bufs, 10));

        // Reading y=5 and x=5 means x is NOT older than the y-iteration:
        // fr x needs m >= 5 but rf y needs m <= 4 → empty interval.
        let b2: Vec<u64> = vec![5, 5];
        let bufs2: Vec<&[u64]> = vec![&b2];
        assert!(!target.eval_frame(&[0], &bufs2, 10));
    }

    #[test]
    fn existential_bounded_by_run_length() {
        let f = fixture(suite::mp());
        let target = PerpetualOutcome::convert_target(&f.test, &f.perp, &f.kmap);
        // fr x demands producer iteration >= 7, but the run only has 5
        // iterations → infeasible.
        let b: Vec<u64> = vec![8, 7];
        let bufs: Vec<&[u64]> = vec![&b];
        assert!(!target.eval_frame(&[0], &bufs, 5));
        assert!(target.eval_frame(&[0], &bufs, 10));
    }

    #[test]
    fn rf_requires_matching_residue() {
        // n5: x has k=2; thread 0 stores 2n+1, thread 1 stores 2n+2.
        // Thread 0's condition EAX=2 means rf from thread 1's sequence:
        // even values only.
        // Single condition of n5: thread 0 reads 2 (thread 1's sequence,
        // even values).
        let f = fixture(suite::n5());
        let cond = PerpetualOutcome::convert(
            &f.test,
            &f.perp,
            &f.kmap,
            &[(ThreadId(0), perple_model::RegId(0), 2)],
            "partial".into(),
        );
        let b0: Vec<u64> = vec![0, 4]; // iteration 1 reads 4: even, thread 1's iter 1 ✓
        let b1: Vec<u64> = vec![0, 3];
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        assert!(cond.eval_frame(&[1, 1], &bufs, 10));
        // Wrong residue: thread 0 loading an odd value cannot be rf from
        // thread 1.
        let b0bad: Vec<u64> = vec![0, 3];
        let bufsbad: Vec<&[u64]> = vec![&b0bad, &b1];
        assert!(!cond.eval_frame(&[1, 1], &bufsbad, 10));

        // The full n5 target is write-serialization-contradictory: no frame
        // and no buffer contents can satisfy it (the ws edges of step 1).
        let target = PerpetualOutcome::convert_target(&f.test, &f.perp, &f.kmap);
        for n0 in 0..3u64 {
            for n1 in 0..3u64 {
                let c0: Vec<u64> = vec![2, 4, 6];
                let c1: Vec<u64> = vec![1, 3, 5];
                let cufs: Vec<&[u64]> = vec![&c0, &c1];
                assert!(
                    !target.eval_frame(&[n0, n1], &cufs, 3),
                    "n5 target matched frame ({n0},{n1})"
                );
            }
        }
    }

    #[test]
    fn rf_from_frame_writer_requires_at_or_after() {
        let f = fixture(suite::sb());
        let outcomes = sb_outcomes(&f);
        // Outcome "01": buf1[m] must be >= n+1 (rf at-or-after n).
        let b0: Vec<u64> = vec![0, 0];
        let b1: Vec<u64> = vec![1, 2];
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        // frame (n=1, m=0): buf1[0]=1 < n+1=2 → rf violated.
        assert!(!outcomes[1].eval_frame(&[1, 0], &bufs, 2));
        // frame (n=0, m=1): buf1[1]=2 >= 1 ✓ and buf0[0]=0 <= 1 ✓.
        assert!(outcomes[1].eval_frame(&[0, 1], &bufs, 2));
    }

    #[test]
    fn convert_all_outcomes_skips_xchg_self_reads() {
        let f = fixture(suite::amd10());
        let outcomes = convert_all_outcomes(&f.test, &f.perp, &f.kmap);
        // 4 registers with 2 values each = 16 raw outcomes; the two XCHG
        // registers can only read 0 → 4 remain.
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn whole_convertible_suite_converts_targets_and_outcome_spaces() {
        for t in suite::convertible() {
            let f = fixture(t);
            let target = PerpetualOutcome::convert_target(&f.test, &f.perp, &f.kmap);
            assert!(!target.conds().is_empty(), "{}", f.test.name());
            let all = convert_all_outcomes(&f.test, &f.perp, &f.kmap);
            assert!(!all.is_empty(), "{}", f.test.name());
        }
    }

    #[test]
    fn fr_lower_bound_math() {
        assert_eq!(fr_lower_bound(1, 1, 0), 0); // 0 < m+1 for all m>=0
        assert_eq!(fr_lower_bound(1, 1, 1), 1); // 1 < m+1 → m>=1
        assert_eq!(fr_lower_bound(1, 1, 5), 5);
        assert_eq!(fr_lower_bound(2, 1, 5), 3); // 5 < 2m+1 → m>=3
        assert_eq!(fr_lower_bound(2, 2, 5), 2); // 5 < 2m+2 → m>=2
    }
}
