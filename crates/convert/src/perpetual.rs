//! Perpetual litmus tests: the synchronization-free program form (§III-B,
//! Table I).

use perple_model::{Instr, LitmusTest, LocId, RegId, ThreadId};

use crate::kmap::KMap;

/// One instruction of a perpetual litmus thread. The only change from the
/// original test (Table I of the paper) is that stored constants become
/// arithmetic-sequence terms `k * n_t + a`; loads and fences are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerpInstr {
    /// Store `k * n_t + a` to `loc`.
    Store {
        /// Destination location.
        loc: LocId,
        /// Sequence stride (`k_mem`).
        k: u64,
        /// Sequence offset.
        a: u64,
    },
    /// Load `loc` into `reg` (unchanged).
    Load {
        /// Destination register.
        reg: RegId,
        /// Source location.
        loc: LocId,
    },
    /// `MFENCE` (unchanged).
    Mfence,
    /// Locked exchange storing `k * n_t + a` (store part converted like a
    /// store, load part unchanged).
    Xchg {
        /// Register receiving the old value.
        reg: RegId,
        /// Exchanged location.
        loc: LocId,
        /// Sequence stride.
        k: u64,
        /// Sequence offset.
        a: u64,
    },
}

/// A converted, synchronization-free litmus test.
///
/// Threads synchronize once at launch, then run `N` iterations freely; each
/// load-performing thread `t` records its `r_t` loaded values per iteration
/// into `buf_t` (handled by the harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerpetualTest {
    name: String,
    threads: Vec<Vec<PerpInstr>>,
    locations: Vec<String>,
    k_per_loc: Vec<u64>,
    load_threads: Vec<ThreadId>,
    reads_per_thread: Vec<usize>,
}

impl PerpetualTest {
    /// Converts a convertible litmus test to its perpetual counterpart,
    /// storing the sequences `kmap` assigns.
    pub(crate) fn convert(test: &LitmusTest, kmap: &KMap) -> Self {
        let threads = test
            .threads()
            .iter()
            .map(|instrs| {
                instrs
                    .iter()
                    .map(|instr| convert_instr(instr, kmap))
                    .collect()
            })
            .collect();
        Self {
            name: format!("{}.perp", test.name()),
            threads,
            locations: test.locations().to_vec(),
            k_per_loc: (0..test.location_count())
                .map(|i| kmap.k(LocId(i as u8)))
                .collect(),
            load_threads: test.load_threads(),
            reads_per_thread: test.reads_per_thread(),
        }
    }

    /// Name of the perpetual test (`<original>.perp`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-thread converted instruction streams.
    pub fn threads(&self) -> &[Vec<PerpInstr>] {
        &self.threads
    }

    /// Number of threads `T`.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Location names (shared with the original test).
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    /// `k_mem` per location.
    pub fn k_per_loc(&self) -> &[u64] {
        &self.k_per_loc
    }

    /// The load-performing threads, in index order (frame order).
    pub fn load_threads(&self) -> &[ThreadId] {
        &self.load_threads
    }

    /// `T_L`.
    pub fn load_thread_count(&self) -> usize {
        self.load_threads.len()
    }

    /// `r_t` for every thread: loads (and hence `buf` slots) per iteration.
    /// This is the `t<i>_reads` parameter file the paper's Converter emits
    /// for the Harness.
    pub fn reads_per_thread(&self) -> &[usize] {
        &self.reads_per_thread
    }

    /// Frame position of a thread (its index among load-performing
    /// threads), if it performs loads.
    pub fn frame_position(&self, thread: ThreadId) -> Option<usize> {
        self.load_threads.iter().position(|&t| t == thread)
    }
}

fn convert_instr(instr: &Instr, kmap: &KMap) -> PerpInstr {
    match *instr {
        Instr::Store { loc, value } => {
            let a = kmap
                .assignment(loc, value)
                .expect("kmap covers every store");
            PerpInstr::Store {
                loc,
                k: a.k,
                a: a.a,
            }
        }
        Instr::Load { reg, loc } => PerpInstr::Load { reg, loc },
        Instr::Mfence => PerpInstr::Mfence,
        Instr::Xchg { reg, loc, value } => {
            let a = kmap
                .assignment(loc, value)
                .expect("kmap covers every store");
            PerpInstr::Xchg {
                reg,
                loc,
                k: a.k,
                a: a.a,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;

    fn perpetual(test: &LitmusTest) -> PerpetualTest {
        PerpetualTest::convert(test, &KMap::compute(test))
    }

    #[test]
    fn sb_converts_to_figure_4() {
        // Figure 4: thread 0 stores n+1 to x, thread 1 stores m+1 to y.
        let sb = suite::sb();
        let p = perpetual(&sb);
        assert_eq!(p.name(), "sb.perp");
        let x = sb.location_id("x").unwrap();
        let y = sb.location_id("y").unwrap();
        assert_eq!(
            p.threads()[0],
            vec![
                PerpInstr::Store { loc: x, k: 1, a: 1 },
                PerpInstr::Load {
                    reg: RegId(0),
                    loc: y
                },
            ]
        );
        assert_eq!(
            p.threads()[1],
            vec![
                PerpInstr::Store { loc: y, k: 1, a: 1 },
                PerpInstr::Load {
                    reg: RegId(0),
                    loc: x
                },
            ]
        );
        assert_eq!(p.reads_per_thread(), &[1, 1]);
        assert_eq!(p.load_thread_count(), 2);
    }

    #[test]
    fn fences_survive_conversion_unchanged() {
        let t = suite::amd5();
        let p = perpetual(&t);
        assert!(p.threads()[0].contains(&PerpInstr::Mfence));
        assert!(p.threads()[1].contains(&PerpInstr::Mfence));
    }

    #[test]
    fn two_writer_location_uses_k_two() {
        let t = suite::n5();
        let p = perpetual(&t);
        let x = t.location_id("x").unwrap();
        assert_eq!(p.k_per_loc()[x.index()], 2);
        // Thread 0 stores 2n+1, thread 1 stores 2n+2.
        assert!(matches!(
            p.threads()[0][0],
            PerpInstr::Store { k: 2, a: 1, .. }
        ));
        assert!(matches!(
            p.threads()[1][0],
            PerpInstr::Store { k: 2, a: 2, .. }
        ));
    }

    #[test]
    fn xchg_store_part_uses_sequence() {
        let t = suite::amd10();
        let p = perpetual(&t);
        assert!(matches!(
            p.threads()[0][0],
            PerpInstr::Xchg { k: 1, a: 1, .. }
        ));
    }

    #[test]
    fn whole_convertible_suite_converts() {
        for t in suite::convertible() {
            let p = perpetual(&t);
            assert_eq!(p.thread_count(), t.thread_count());
            assert_eq!(p.load_thread_count(), t.load_thread_count());
            // Frame positions are consistent with load-thread order.
            for (i, &lt) in p.load_threads().iter().enumerate() {
                assert_eq!(p.frame_position(lt), Some(i));
            }
            assert_eq!(p.frame_position(ThreadId(200)), None);
        }
    }
}
