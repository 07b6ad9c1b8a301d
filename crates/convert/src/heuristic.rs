//! Heuristic outcome conditions: step 5 of §IV-B.
//!
//! The heuristic (`p_out_h`) eliminates all but one frame index. Because
//! stored values are unique sequence terms, a loaded value *identifies* the
//! partner thread's iteration: for an rf condition `val = k*m + a`, the
//! writer's iteration is `m = (val - a)/k`; for an fr condition
//! `val < k*m + a`, the tightest feasible writer iteration is
//! `m = ⌊(val - a)/k⌋ + 1` — the most-recent iteration from the reader's
//! point of view, the frame most likely to have interleaved.
//!
//! At conversion time a **resolution plan** is built: starting from the
//! pivot (the first load-performing thread), every other index is derived
//! from a condition whose loading thread is already resolved. Indices no
//! condition can reach fall back to lockstep (`m := n`). At counting time
//! the plan resolves one frame per pivot iteration in O(1), giving the
//! linear `COUNTH` of Algorithm 2.

use crate::kmap::KMap;
use crate::outcomes::{fr_lower_bound, IdxRef, LoadRef, PerpCond, PerpetualOutcome};

/// How one index is derived from already-resolved loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveRule {
    /// `m := (val - a)/k`, from an rf condition; fails (condition false) if
    /// the value is not a term of the sequence.
    FromRf {
        /// The load whose value identifies the iteration.
        load: LoadRef,
        /// Sequence stride.
        k: u64,
        /// Sequence offset.
        a: u64,
    },
    /// `m := ⌊(val - a)/k⌋ + 1` (clamped at 0), from an fr condition: the
    /// smallest iteration the condition admits.
    FromFr {
        /// The load whose value bounds the iteration.
        load: LoadRef,
        /// Sequence stride.
        k: u64,
        /// Sequence offset.
        a: u64,
    },
    /// No condition reaches this index from the pivot: assume lockstep with
    /// the pivot iteration.
    Lockstep,
}

/// One step of the resolution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Derivation {
    /// The index being assigned.
    pub target: IdxRef,
    /// How it is computed.
    pub rule: DeriveRule,
}

/// Working storage of [`HeuristicOutcome::eval`]: the frame and
/// existential indices one pivot resolves. A counter creates one per
/// counting call (per shard when sharded) and reuses it for every pivot
/// and outcome, so evaluation allocates nothing per pivot: the vectors
/// only grow, once, to the largest outcome's sizes.
#[derive(Debug, Clone, Default)]
pub struct HeuristicScratch {
    frame: Vec<u64>,
    exist: Vec<u64>,
}

/// The heuristic form of a perpetual outcome (`p_out_h`), evaluable per
/// pivot iteration in constant time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeuristicOutcome {
    label: String,
    plan: Vec<Derivation>,
    conds: Vec<PerpCond>,
    frame_len: usize,
    exist_len: usize,
    pivot: usize,
    infeasible: bool,
}

impl HeuristicOutcome {
    /// Builds the heuristic form of a perpetual outcome for a test with
    /// `frame_len` load-performing threads.
    ///
    /// Every frame position is tried as the pivot; the first pivot whose
    /// resolution plan derives every other index from loaded values wins
    /// (n1-style tests resolve only from their final reader). If no pivot
    /// fully derives, the plan with the fewest lockstep fallbacks is kept.
    pub fn from_perpetual(outcome: &PerpetualOutcome, frame_len: usize) -> Self {
        let mut best: Option<Self> = None;
        for pivot in 0..frame_len {
            let cand = Self::with_pivot(outcome, frame_len, pivot);
            let lockstep = cand
                .plan
                .iter()
                .filter(|d| matches!(d.rule, DeriveRule::Lockstep))
                .count();
            if lockstep == 0 {
                return cand;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    lockstep
                        < b.plan
                            .iter()
                            .filter(|d| matches!(d.rule, DeriveRule::Lockstep))
                            .count()
                }
            };
            if better {
                best = Some(cand);
            }
        }
        best.expect("at least one load-performing thread")
    }

    /// Builds the heuristic with an explicitly chosen pivot, bypassing
    /// selection. Primarily for ablation studies; [`Self::from_perpetual`]
    /// picks the pivot automatically.
    ///
    /// # Panics
    /// Panics if `pivot >= frame_len`.
    pub fn from_perpetual_with_pivot(
        outcome: &PerpetualOutcome,
        frame_len: usize,
        pivot: usize,
    ) -> Self {
        assert!(pivot < frame_len, "pivot must be a frame position");
        Self::with_pivot(outcome, frame_len, pivot)
    }

    /// Builds the plan for one pivot choice.
    fn with_pivot(outcome: &PerpetualOutcome, frame_len: usize, pivot: usize) -> Self {
        let exist_len = outcome.exist_threads().len();
        let mut frame_resolved = vec![false; frame_len];
        let mut exist_resolved = vec![false; exist_len];
        frame_resolved[pivot] = true;

        let mut plan: Vec<Derivation> = Vec::new();
        // Iteratively pick derivations whose source load is resolved.
        loop {
            let mut progressed = false;
            for cond in outcome.conds() {
                // Ws conditions carry no load to derive from.
                let Some(load) = cond.load() else { continue };
                if !frame_resolved[load.frame_pos] {
                    continue;
                }
                let mut try_resolve =
                    |target: IdxRef, rule: DeriveRule, plan: &mut Vec<Derivation>| {
                        let slot = match target {
                            IdxRef::Frame(p) => &mut frame_resolved[p],
                            IdxRef::Exist(e) => &mut exist_resolved[e],
                        };
                        if !*slot {
                            *slot = true;
                            plan.push(Derivation { target, rule });
                            true
                        } else {
                            false
                        }
                    };
                match cond {
                    PerpCond::Rf { term, .. } => {
                        progressed |= try_resolve(
                            term.writer,
                            DeriveRule::FromRf {
                                load,
                                k: term.k,
                                a: term.a,
                            },
                            &mut plan,
                        );
                    }
                    PerpCond::Fr { terms, .. } => {
                        for term in terms {
                            progressed |= try_resolve(
                                term.writer,
                                DeriveRule::FromFr {
                                    load,
                                    k: term.k,
                                    a: term.a,
                                },
                                &mut plan,
                            );
                        }
                    }
                    PerpCond::Ws { .. } => unreachable!("filtered above"),
                }
            }
            if !progressed {
                break;
            }
        }
        // Unreachable indices: lockstep fallback.
        for (p, r) in frame_resolved.iter().enumerate() {
            if !*r {
                plan.push(Derivation {
                    target: IdxRef::Frame(p),
                    rule: DeriveRule::Lockstep,
                });
            }
        }
        for (e, r) in exist_resolved.iter().enumerate() {
            if !*r {
                plan.push(Derivation {
                    target: IdxRef::Exist(e),
                    rule: DeriveRule::Lockstep,
                });
            }
        }

        Self {
            label: outcome.label().to_owned(),
            plan,
            conds: outcome.conds().to_vec(),
            frame_len,
            exist_len,
            pivot,
            infeasible: outcome.is_infeasible(),
        }
    }

    /// The frame position the heuristic pivots on.
    pub fn pivot(&self) -> usize {
        self.pivot
    }

    /// Display label (matches the source perpetual outcome).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The resolution plan, in execution order.
    pub fn plan(&self) -> &[Derivation] {
        &self.plan
    }

    /// The underlying perpetual conditions re-checked after derivation
    /// (used by code generation).
    pub fn conds_for_codegen(&self) -> Vec<PerpCond> {
        self.conds.clone()
    }

    /// Number of existential variables.
    pub fn exist_count(&self) -> usize {
        self.exist_len
    }

    /// True if every non-pivot index is derived from loaded values (no
    /// lockstep fallback) — the case the paper's Figure 8 illustrates.
    pub fn fully_derived(&self) -> bool {
        !self
            .plan
            .iter()
            .any(|d| matches!(d.rule, DeriveRule::Lockstep))
    }

    /// Evaluates the heuristic condition at pivot iteration `n`
    /// (`p_out_h(n, buf_0, ..)` of the paper). `bufs` are the
    /// load-performing threads' buffers in frame order; `scratch` is reused
    /// working storage (see [`HeuristicScratch`]).
    pub fn eval(
        &self,
        n: u64,
        bufs: &[&[u64]],
        n_iters: u64,
        scratch: &mut HeuristicScratch,
    ) -> bool {
        if n_iters == 0 || self.infeasible {
            return false;
        }
        let HeuristicScratch { frame, exist } = scratch;
        frame.clear();
        frame.resize(self.frame_len, u64::MAX);
        exist.clear();
        exist.resize(self.exist_len, u64::MAX);
        frame[self.pivot] = n;
        for d in &self.plan {
            let value = |load: &LoadRef, frame: &[u64]| -> Option<u64> {
                let fi = frame[load.frame_pos];
                if fi == u64::MAX || fi >= n_iters {
                    return None;
                }
                Some(load.value(bufs, fi))
            };
            let derived = match d.rule {
                DeriveRule::FromRf { load, k, a } => {
                    let Some(val) = value(&load, frame) else {
                        return false;
                    };
                    match KMap::decode(k, a, val) {
                        Some(m) => m,
                        None => return false,
                    }
                }
                DeriveRule::FromFr { load, k, a } => {
                    let Some(val) = value(&load, frame) else {
                        return false;
                    };
                    fr_lower_bound(k, a, val)
                }
                DeriveRule::Lockstep => n,
            };
            if derived >= n_iters {
                return false;
            }
            match d.target {
                IdxRef::Frame(p) => frame[p] = derived,
                IdxRef::Exist(e) => exist[e] = derived,
            }
        }
        // All indices resolved: check every condition directly.
        let idx = |r: IdxRef| match r {
            IdxRef::Frame(p) => frame[p],
            IdxRef::Exist(e) => exist[e],
        };
        for cond in &self.conds {
            if let PerpCond::Ws { left, right } = cond {
                let lval = left.k * idx(left.writer) + left.a;
                if lval >= right.k * idx(right.writer) + right.a {
                    return false;
                }
                continue;
            }
            let load = cond.load().expect("rf/fr conditions carry a load");
            let val = load.value(bufs, frame[load.frame_pos]);
            match cond {
                PerpCond::Rf { term, .. } => match KMap::decode(term.k, term.a, val) {
                    Some(m) if m >= idx(term.writer) => {}
                    _ => return false,
                },
                PerpCond::Fr { terms, .. } => {
                    for term in terms {
                        if val >= term.k * idx(term.writer) + term.a {
                            return false;
                        }
                    }
                }
                PerpCond::Ws { .. } => unreachable!("handled above"),
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcomes::convert_all_outcomes;
    use crate::perpetual::PerpetualTest;
    use perple_model::suite;

    fn sb_heuristics() -> Vec<HeuristicOutcome> {
        let t = suite::sb();
        let kmap = KMap::compute(&t);
        let perp = PerpetualTest::convert(&t, &kmap);
        convert_all_outcomes(&t, &perp, &kmap)
            .iter()
            .map(|o| HeuristicOutcome::from_perpetual(o, perp.load_thread_count()))
            .collect()
    }

    /// Figure 8 golden check: the four sb heuristic conditions.
    #[test]
    fn sb_matches_figure_8() {
        let hs = sb_heuristics();
        assert_eq!(hs.len(), 4);
        for h in &hs {
            assert!(h.fully_derived(), "{}", h.label());
            assert_eq!(h.plan().len(), 1, "{}", h.label());
        }

        // p_out_h0: buf1[buf0[n]] <= n.
        // bufs: buf0[2] = 1 → m := 1; buf1[1] = 2 <= 2 → true at n=2.
        let b0: Vec<u64> = vec![0, 0, 1];
        let b1: Vec<u64> = vec![0, 2, 9];
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        assert!(hs[0].eval(2, &bufs, 3, &mut HeuristicScratch::default()));
        // At n=1: buf0[1]=0 → m := 0; buf1[0]=0 <= 1 → true.
        assert!(hs[0].eval(1, &bufs, 3, &mut HeuristicScratch::default()));

        // p_out_h3: buf1[buf0[n]-1] >= n+1.
        // buf0[2]=1 → rf decode m = 0; buf1[0] = 0 >= 3? no.
        assert!(!hs[3].eval(2, &bufs, 3, &mut HeuristicScratch::default()));
        let c0: Vec<u64> = vec![1, 0, 0];
        let c1: Vec<u64> = vec![1, 0, 0];
        let cufs: Vec<&[u64]> = vec![&c0, &c1];
        // n=0: buf0[0]=1 → m=0; buf1[0]=1 >= 1 → true (outcome 11).
        assert!(hs[3].eval(0, &cufs, 3, &mut HeuristicScratch::default()));
    }

    #[test]
    fn heuristic_hits_are_a_subset_of_exhaustive_frames() {
        // Soundness: whenever p_out_h fires at n, the frame it derived must
        // satisfy the exhaustive p_out.
        let t = suite::sb();
        let kmap = KMap::compute(&t);
        let perp = PerpetualTest::convert(&t, &kmap);
        let outcomes = convert_all_outcomes(&t, &perp, &kmap);
        // Synthetic interleaved buffers.
        let n: u64 = 50;
        let b0: Vec<u64> = (0..n).map(|i| (i * 7) % (n + 1)).collect();
        let b1: Vec<u64> = (0..n).map(|i| (i * 3 + 1) % (n + 1)).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        for o in &outcomes {
            let h = HeuristicOutcome::from_perpetual(o, 2);
            for i in 0..n {
                if h.eval(i, &bufs, n, &mut HeuristicScratch::default()) {
                    // Reconstruct the derived frame: pivot i, partner from
                    // the plan.
                    let d = h.plan()[0];
                    let partner = match d.rule {
                        DeriveRule::FromRf { load, k, a } => {
                            KMap::decode(k, a, load.value(&bufs, i)).unwrap()
                        }
                        DeriveRule::FromFr { load, k, a } => {
                            fr_lower_bound(k, a, load.value(&bufs, i))
                        }
                        DeriveRule::Lockstep => i,
                    };
                    assert!(
                        o.eval_frame(&[i, partner], &bufs, n),
                        "{}: heuristic fired at {i} but frame ({i},{partner}) fails",
                        o.label()
                    );
                }
            }
        }
    }

    #[test]
    fn mp_target_heuristic_derives_the_existential() {
        let t = suite::mp();
        let kmap = KMap::compute(&t);
        let perp = PerpetualTest::convert(&t, &kmap);
        let target = crate::outcomes::PerpetualOutcome::convert_target(&t, &perp, &kmap);
        let h = HeuristicOutcome::from_perpetual(&target, 1);
        assert!(h.fully_derived());
        // buf1 per iteration: [EAX(y), EBX(x)].
        // n=0: y-read 5 → producer iteration 4; x-read 3 (iteration 2 < 4):
        // mp violation shape → true.
        let b: Vec<u64> = vec![5, 3];
        let bufs: Vec<&[u64]> = vec![&b];
        assert!(h.eval(0, &bufs, 10, &mut HeuristicScratch::default()));
        // x-read equal to y-iteration value: no violation.
        let b2: Vec<u64> = vec![5, 5];
        let bufs2: Vec<&[u64]> = vec![&b2];
        assert!(!h.eval(0, &bufs2, 10, &mut HeuristicScratch::default()));
    }

    #[test]
    fn derived_index_out_of_range_fails() {
        let hs = sb_heuristics();
        // buf0[0] = 40 would derive partner iteration 40 ≥ N=3 → false.
        let b0: Vec<u64> = vec![40, 0, 0];
        let b1: Vec<u64> = vec![0, 0, 0];
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        assert!(!hs[0].eval(0, &bufs, 3, &mut HeuristicScratch::default()));
    }

    #[test]
    fn whole_suite_builds_heuristics() {
        for t in suite::convertible() {
            let kmap = KMap::compute(&t);
            let perp = PerpetualTest::convert(&t, &kmap);
            let target = crate::outcomes::PerpetualOutcome::convert_target(&t, &perp, &kmap);
            let h = HeuristicOutcome::from_perpetual(&target, perp.load_thread_count());
            assert_eq!(h.label(), "target");
            // The plan must assign every non-pivot index exactly once.
            let mut targets: Vec<String> =
                h.plan().iter().map(|d| format!("{:?}", d.target)).collect();
            targets.sort();
            let before = targets.len();
            targets.dedup();
            assert_eq!(targets.len(), before, "{}: duplicate derivation", t.name());
        }
    }

    #[test]
    fn zero_iteration_run_never_matches() {
        let hs = sb_heuristics();
        let empty: Vec<u64> = vec![];
        let bufs: Vec<&[u64]> = vec![&empty, &empty];
        assert!(!hs[0].eval(0, &bufs, 0, &mut HeuristicScratch::default()));
    }
}
