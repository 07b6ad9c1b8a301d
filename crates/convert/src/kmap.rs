//! Arithmetic-sequence assignment: the `k_mem * n_t + a` mapping of §III-B.
//!
//! For every location `mem`, `k_mem` is the number of distinct positive
//! values stored to `mem` across all threads. Each stored value is
//! normalized to an offset `a ∈ 1..=k_mem` (in increasing value order) so
//! that different store instructions to the same location produce disjoint
//! residue classes mod `k_mem` — which is what lets a loaded value be
//! attributed to a unique store instruction and iteration.

use std::collections::BTreeMap;

use perple_model::{InstrRef, LitmusTest, LocId, ThreadId};

/// The sequence parameters of one store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqAssignment {
    /// The storing instruction.
    pub instr: InstrRef,
    /// The storing thread (redundant with `instr`, kept for convenience).
    pub thread: ThreadId,
    /// `k_mem` of the stored-to location.
    pub k: u64,
    /// Offset within the sequence (`1..=k`).
    pub a: u64,
    /// The original (unnormalized) stored value.
    pub original_value: u32,
}

/// Sequence assignments for an entire test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KMap {
    /// `k_mem` per location, indexed by [`LocId`].
    k_per_loc: Vec<u64>,
    /// Assignment per `(loc, original value)`.
    by_value: BTreeMap<(LocId, u32), SeqAssignment>,
}

impl KMap {
    /// Computes the sequence assignment of a test that stores no value
    /// twice to one location (no [`crate::ConvertError::DuplicateStoreValue`]
    /// obstruction). Initial values play no part.
    ///
    /// # Panics
    ///
    /// If two store instructions write the same value to one location.
    pub fn compute(test: &LitmusTest) -> Self {
        let mut k_per_loc = vec![0u64; test.location_count()];
        let mut by_value = BTreeMap::new();
        for (loc_idx, k_slot) in k_per_loc.iter_mut().enumerate() {
            let loc = LocId(loc_idx as u8);
            let values = test.distinct_store_values(loc);
            let k = values.len() as u64;
            *k_slot = k;
            for (i, v) in values.iter().enumerate() {
                let instr = test
                    .unique_store_of(loc, *v)
                    .expect("the convertibility gate refuses a value stored twice");
                by_value.insert(
                    (loc, *v),
                    SeqAssignment {
                        instr,
                        thread: instr.thread,
                        k,
                        a: i as u64 + 1,
                        original_value: *v,
                    },
                );
            }
        }
        Self {
            k_per_loc,
            by_value,
        }
    }

    /// `k_mem` for a location (0 if nothing stores to it).
    pub fn k(&self, loc: LocId) -> u64 {
        self.k_per_loc[loc.index()]
    }

    /// The assignment of the store writing `value` to `loc`, if any.
    pub fn assignment(&self, loc: LocId, value: u32) -> Option<&SeqAssignment> {
        self.by_value.get(&(loc, value))
    }

    /// All assignments targeting `loc`, in offset order.
    pub fn assignments_for(&self, loc: LocId) -> Vec<&SeqAssignment> {
        let mut v: Vec<&SeqAssignment> = self
            .by_value
            .iter()
            .filter(|((l, _), _)| *l == loc)
            .map(|(_, a)| a)
            .collect();
        v.sort_by_key(|a| a.a);
        v
    }

    /// The iteration index a loaded value decodes to within sequence
    /// `(k, a)`: `Some(m)` iff `val = k*m + a` for integral `m ≥ 0`.
    pub fn decode(k: u64, a: u64, val: u64) -> Option<u64> {
        if k == 0 || val < a {
            return None;
        }
        let d = val - a;
        if d.is_multiple_of(k) {
            Some(d / k)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::{suite, TestBuilder};

    #[test]
    fn sb_has_k_one_everywhere() {
        let sb = suite::sb();
        let km = KMap::compute(&sb);
        for loc_idx in 0..sb.location_count() {
            assert_eq!(km.k(LocId(loc_idx as u8)), 1);
        }
        let x = sb.location_id("x").unwrap();
        let a = km.assignment(x, 1).unwrap();
        assert_eq!((a.k, a.a), (1, 1));
        assert_eq!(a.thread, ThreadId(0));
    }

    #[test]
    fn two_writer_location_gets_k_two_with_distinct_offsets() {
        let t = suite::n5();
        let km = KMap::compute(&t);
        let x = t.location_id("x").unwrap();
        assert_eq!(km.k(x), 2);
        let a1 = km.assignment(x, 1).unwrap();
        let a2 = km.assignment(x, 2).unwrap();
        assert_eq!(a1.a, 1);
        assert_eq!(a2.a, 2);
        assert_ne!(a1.thread, a2.thread);
        let all = km.assignments_for(x);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].a, 1);
    }

    #[test]
    fn unstored_location_has_k_zero() {
        let mut b = TestBuilder::new("ro");
        b.thread().load("EAX", "x");
        b.reg_cond(0, "EAX", 0);
        let t = b.build().unwrap();
        let km = KMap::compute(&t);
        assert_eq!(km.k(t.location_id("x").unwrap()), 0);
    }

    #[test]
    fn noncontiguous_values_normalize_to_dense_offsets() {
        // Stored values 3 and 7 must normalize to offsets 1 and 2 so their
        // residues mod k=2 differ.
        let mut b = TestBuilder::new("sparse");
        b.thread().store("x", 3).load("EAX", "x");
        b.thread().store("x", 7);
        b.reg_cond(0, "EAX", 3);
        let t = b.build().unwrap();
        let km = KMap::compute(&t);
        let x = t.location_id("x").unwrap();
        assert_eq!(km.assignment(x, 3).unwrap().a, 1);
        assert_eq!(km.assignment(x, 7).unwrap().a, 2);
        assert_eq!(km.assignment(x, 5), None);
    }

    #[test]
    fn decode_inverts_the_sequence() {
        for m in [0u64, 1, 5, 1000] {
            for (k, a) in [(1u64, 1u64), (2, 1), (2, 2), (3, 2)] {
                let val = k * m + a;
                assert_eq!(KMap::decode(k, a, val), Some(m));
            }
        }
        assert_eq!(KMap::decode(2, 1, 0), None); // initial value
        assert_eq!(KMap::decode(2, 1, 2), None); // other residue
        assert_eq!(KMap::decode(2, 2, 1), None); // below offset
        assert_eq!(KMap::decode(0, 1, 1), None); // unstored location
    }

    #[test]
    fn whole_convertible_suite_computes_kmaps() {
        for t in suite::convertible() {
            let km = KMap::compute(&t);
            for slot in t.load_slots() {
                // Every loaded location that is stored to must have k >= 1.
                if !t.stores_to(slot.loc).is_empty() {
                    assert!(km.k(slot.loc) >= 1);
                }
            }
        }
    }
}
