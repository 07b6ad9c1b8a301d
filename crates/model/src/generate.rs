//! diy-style litmus-test generation from critical cycles.
//!
//! The diy suite (§VIII of the paper) synthesizes litmus tests from
//! *critical cycles*: sequences of relaxation edges whose cycle is, by
//! construction, unreachable under sequential consistency. A test's events
//! are laid out by walking the cycle — program-order edges extend the
//! current thread, external communication edges start a new one — and the
//! test's condition pins exactly the communication edges, so observing the
//! condition means the hardware realized the cycle.
//!
//! Edge vocabulary (the `diy` names):
//!
//! * `PodXY` — program order to a *different* location, from an X access to
//!   a Y access (X, Y ∈ {R, W});
//! * `Rfe` — external read-from: a load in the next thread reads this
//!   thread's store;
//! * `Fre` — external from-read: a load whose value is overwritten by the
//!   next thread's store;
//! * `Wse` — external write serialization: the next thread's store
//!   overwrites this thread's store (pins *final memory*, which makes the
//!   generated test non-convertible — exactly the class PerpLE's Converter
//!   rejects, §V-C).
//!
//! The classic tests are one-liners:
//!
//! ```
//! use perple_model::generate::{from_cycle, CycleEdge::*, Dir::*};
//!
//! let sb = from_cycle("gen-sb", &[Pod(W, R), Fre, Pod(W, R), Fre])?;
//! assert_eq!(sb.thread_count(), 2);
//! // The generated condition is the store-buffering target.
//! assert_eq!(sb.target().atoms().len(), 2);
//! # Ok::<(), perple_model::generate::GenError>(())
//! ```

use std::fmt;

use crate::cond::Quantifier;
use crate::test::{LitmusTest, TestBuilder};

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// A load.
    R,
    /// A store.
    W,
}

/// One edge of a critical cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleEdge {
    /// Program order to a different location, with explicit endpoint
    /// directions.
    Pod(Dir, Dir),
    /// External read-from (W → R, next thread).
    Rfe,
    /// External from-read (R → W, next thread).
    Fre,
    /// External write serialization (W → W, next thread).
    Wse,
}

impl CycleEdge {
    /// Direction required of the edge's source event.
    pub fn src_dir(self) -> Dir {
        match self {
            CycleEdge::Pod(s, _) => s,
            CycleEdge::Rfe | CycleEdge::Wse => Dir::W,
            CycleEdge::Fre => Dir::R,
        }
    }

    /// Direction required of the edge's destination event.
    pub fn dst_dir(self) -> Dir {
        match self {
            CycleEdge::Pod(_, d) => d,
            CycleEdge::Rfe => Dir::R,
            CycleEdge::Fre | CycleEdge::Wse => Dir::W,
        }
    }

    /// True if the edge crosses threads.
    pub fn is_external(self) -> bool {
        !matches!(self, CycleEdge::Pod(..))
    }
}

impl fmt::Display for CycleEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleEdge::Pod(s, d) => write!(f, "Pod{s:?}{d:?}"),
            CycleEdge::Rfe => write!(f, "Rfe"),
            CycleEdge::Fre => write!(f, "Fre"),
            CycleEdge::Wse => write!(f, "Wse"),
        }
    }
}

/// Errors rejecting a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The cycle has fewer than two edges.
    TooShort,
    /// Adjacent edges disagree on the direction of their shared event.
    DirectionMismatch {
        /// Index of the earlier edge.
        edge: usize,
    },
    /// The cycle never crosses threads (no external edge), so it describes
    /// a single-thread program, not a litmus test.
    NoExternalEdge,
    /// The final edge must be external: the walk starts a new thread at
    /// every external edge and must return to thread 0's first event.
    LastEdgeNotExternal,
    /// The cycle needs no program-order edge to be a *critical* cycle but
    /// must touch at least one location; this cycle has zero events.
    NoLocations,
    /// Exactly one program-order (location-changing) edge: a single
    /// location change can never return the walk to its starting location,
    /// so the cycle cannot be laid out.
    UnclosableLocations,
    /// A fence was requested on an external (thread-crossing) edge, where
    /// an `MFENCE` is meaningless.
    FenceOnExternalEdge {
        /// Index of the offending edge.
        edge: usize,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::TooShort => write!(f, "cycle needs at least two edges"),
            GenError::DirectionMismatch { edge } => {
                write!(
                    f,
                    "edges {edge} and {} disagree on the shared event's direction",
                    edge + 1
                )
            }
            GenError::NoExternalEdge => write!(f, "cycle never crosses threads"),
            GenError::LastEdgeNotExternal => {
                write!(f, "the final edge must be external to close the cycle")
            }
            GenError::NoLocations => write!(f, "cycle touches no location"),
            GenError::UnclosableLocations => {
                write!(f, "a single location-changing edge cannot close the cycle")
            }
            GenError::FenceOnExternalEdge { edge } => {
                write!(f, "edge {edge} crosses threads and cannot carry a fence")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// One laid-out event of the walk.
#[derive(Debug, Clone, Copy)]
struct Event {
    thread: usize,
    loc: usize,
    dir: Dir,
    /// Store value (0 for loads until assigned).
    value: u32,
    /// Register ordinal within the thread (loads only).
    reg: usize,
}

/// Generates a litmus test from a critical cycle.
///
/// # Errors
///
/// Returns [`GenError`] for structurally invalid cycles (see its variants).
pub fn from_cycle(name: &str, cycle: &[CycleEdge]) -> Result<LitmusTest, GenError> {
    from_cycle_fenced(name, cycle, &[])
}

/// Generates a litmus test from a critical cycle with an `MFENCE` inserted
/// across each program-order edge named in `fenced` (by cycle index). The
/// fence sits between the edge's source and destination events, the
/// placement diy's fence-augmented variants use to strengthen a relaxation
/// back toward SC.
///
/// # Errors
///
/// As [`from_cycle`], plus [`GenError::FenceOnExternalEdge`] when a fenced
/// index names a thread-crossing edge.
pub fn from_cycle_fenced(
    name: &str,
    cycle: &[CycleEdge],
    fenced: &[usize],
) -> Result<LitmusTest, GenError> {
    if cycle.len() < 2 {
        return Err(GenError::TooShort);
    }
    // Direction consistency around the cycle.
    for (i, e) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        if e.dst_dir() != next.src_dir() {
            return Err(GenError::DirectionMismatch { edge: i });
        }
    }
    if !cycle.iter().any(|e| e.is_external()) {
        return Err(GenError::NoExternalEdge);
    }
    if !cycle.last().expect("non-empty").is_external() {
        return Err(GenError::LastEdgeNotExternal);
    }
    for &i in fenced {
        if i >= cycle.len() || cycle[i].is_external() {
            return Err(GenError::FenceOnExternalEdge { edge: i });
        }
    }

    // Lay out events. Event i is the source of edge i. Locations change on
    // Pod edges and cycle through loc 0..P-1 so the final Pod returns to
    // loc 0; with no Pod edge everything shares loc 0.
    let pod_count = cycle.iter().filter(|e| !e.is_external()).count();
    if pod_count == 1 {
        return Err(GenError::UnclosableLocations);
    }
    let nlocs = pod_count.max(1);
    let mut events: Vec<Event> = Vec::with_capacity(cycle.len());
    let mut thread = 0usize;
    let mut loc = 0usize;
    let mut pods_seen = 0usize;
    let mut regs_per_thread = vec![0usize; cycle.len()];
    for e in cycle.iter() {
        let dir = e.src_dir();
        let reg = if dir == Dir::R {
            regs_per_thread[thread] += 1;
            regs_per_thread[thread] - 1
        } else {
            0
        };
        events.push(Event {
            thread,
            loc,
            dir,
            value: 0,
            reg,
        });
        if e.is_external() {
            thread += 1;
        } else {
            pods_seen += 1;
            loc = pods_seen % nlocs;
        }
    }
    if events.is_empty() {
        return Err(GenError::NoLocations);
    }
    let nthreads = thread; // last external edge wrapped to thread 0

    // Assign store values per location in event order (distinct values).
    let mut next_value = vec![0u32; nlocs];
    for ev in events.iter_mut() {
        if ev.dir == Dir::W {
            next_value[ev.loc] += 1;
            ev.value = next_value[ev.loc];
        }
    }

    // Emit the program.
    let mut b = TestBuilder::new(name);
    b.doc(format!(
        "generated from cycle {}",
        cycle
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let loc_name = |l: usize| format!("v{l}");
    let reg_name = |r: usize| format!("R{r}");
    for t in 0..nthreads {
        let mut tb = b.thread();
        for (i, ev) in events.iter().enumerate().filter(|(_, ev)| ev.thread == t) {
            match ev.dir {
                Dir::W => {
                    tb.store(&loc_name(ev.loc), ev.value);
                }
                Dir::R => {
                    tb.load(&reg_name(ev.reg), &loc_name(ev.loc));
                }
            }
            // Event i is edge i's source; a fenced edge puts the MFENCE
            // right after it, before the edge's destination event.
            if fenced.contains(&i) {
                tb.mfence();
            }
        }
    }

    // Derive the condition from the communication edges. Per-location store
    // lists in event order approximate the ws chains the cycle implies.
    let stores_of = |l: usize| -> Vec<&Event> {
        events
            .iter()
            .filter(|e| e.dir == Dir::W && e.loc == l)
            .collect()
    };
    b.quantifier(Quantifier::Exists);
    for (i, e) in cycle.iter().enumerate() {
        let src = &events[i];
        let dst = &events[(i + 1) % events.len()];
        match e {
            CycleEdge::Rfe => {
                // dst (a load) reads src's value.
                b.reg_cond(dst.thread, reg_name(dst.reg), src.value);
            }
            CycleEdge::Fre => {
                // src (a load) reads the value ws-before dst's store.
                let stores = stores_of(src.loc);
                let pos = stores
                    .iter()
                    .position(|s| s.value == dst.value)
                    .expect("dst store present");
                let before = if pos == 0 { 0 } else { stores[pos - 1].value };
                b.reg_cond(src.thread, reg_name(src.reg), before);
            }
            CycleEdge::Wse => {
                // dst's store overwrites src's: the chain's last store is
                // the final value; pinning dst's value asserts this edge.
                b.mem_cond(loc_name(src.loc), dst.value);
            }
            CycleEdge::Pod(..) => {}
        }
    }

    b.build().map_err(|e| {
        // Structural validation above should prevent builder failures.
        unreachable!("generated cycle produced an invalid test: {e}")
    })
}

/// The canonical name of a cycle's generated test.
fn cycle_name(cycle: &[CycleEdge]) -> String {
    format!(
        "dyn-{}",
        cycle
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("-")
    )
}

/// Enumerates every direction-consistent cycle of exactly `len` edges over
/// the vocabulary, deduplicated by rotation. The cycles are candidates:
/// structurally invalid ones (no external edge, unclosable locations, ...)
/// are still present and are filtered when [`from_cycle`] rejects them.
pub fn family_cycles(len: usize) -> Vec<Vec<CycleEdge>> {
    let vocab = [
        CycleEdge::Pod(Dir::R, Dir::R),
        CycleEdge::Pod(Dir::R, Dir::W),
        CycleEdge::Pod(Dir::W, Dir::R),
        CycleEdge::Pod(Dir::W, Dir::W),
        CycleEdge::Rfe,
        CycleEdge::Fre,
        CycleEdge::Wse,
    ];
    let mut seen_rotations: std::collections::HashSet<Vec<CycleEdge>> =
        std::collections::HashSet::new();
    let mut cycles = Vec::new();
    let mut cycle = vec![vocab[0]; len];

    fn rec(
        vocab: &[CycleEdge],
        cycle: &mut Vec<CycleEdge>,
        pos: usize,
        seen: &mut std::collections::HashSet<Vec<CycleEdge>>,
        cycles: &mut Vec<Vec<CycleEdge>>,
    ) {
        let len = cycle.len();
        if pos == len {
            // Canonical rotation for dedup.
            let canonical = (0..len)
                .map(|r| {
                    let mut rot = cycle[r..].to_vec();
                    rot.extend_from_slice(&cycle[..r]);
                    rot
                })
                .min_by_key(|c| format!("{c:?}"))
                .expect("non-empty cycle");
            if seen.insert(canonical) {
                cycles.push(cycle.clone());
            }
            return;
        }
        for &e in vocab {
            cycle[pos] = e;
            // Prune on direction mismatch with the previous edge.
            if pos > 0 && cycle[pos - 1].dst_dir() != e.src_dir() {
                continue;
            }
            rec(vocab, cycle, pos + 1, seen, cycles);
        }
    }
    rec(&vocab, &mut cycle, 0, &mut seen_rotations, &mut cycles);
    cycles
}

/// Enumerates every valid cycle of exactly `len` edges over the vocabulary
/// and generates the corresponding tests (deduplicated by rotation).
/// Cycle length 4 reproduces the classic two-thread family (sb, lb, mp,
/// s, r, 2+2w, ...).
pub fn generate_family(len: usize) -> Vec<LitmusTest> {
    family_cycles(len)
        .iter()
        .filter_map(|cycle| from_cycle(&cycle_name(cycle), cycle).ok())
        .collect()
}

/// Generates the full test corpus: every valid cycle of length 4 through
/// `max_len` whose test uses at most `max_threads` threads, plus — for
/// each program-order edge of each such cycle — a fence-augmented variant
/// with one `MFENCE` across that edge (named `<base>-f<edge>`).
///
/// `generate_corpus(6, 4)` yields well over a thousand distinct tests;
/// classifying them per model is the solver's job (`perple-solve`), which
/// is why generation itself performs no feasibility analysis.
pub fn generate_corpus(max_len: usize, max_threads: usize) -> Vec<LitmusTest> {
    let mut tests = Vec::new();
    for len in 4..=max_len {
        for cycle in family_cycles(len) {
            let name = cycle_name(&cycle);
            let Ok(base) = from_cycle(&name, &cycle) else {
                continue;
            };
            if base.thread_count() > max_threads {
                continue;
            }
            tests.push(base);
            let pods: Vec<usize> = cycle
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.is_external())
                .map(|(i, _)| i)
                .collect();
            for &i in &pods {
                let fenced_name = format!("{name}-f{i}");
                let t = from_cycle_fenced(&fenced_name, &cycle, &[i])
                    .expect("the unfenced cycle already passed validation");
                tests.push(t);
            }
            // A fully-fenced variant (SC restored across every po edge)
            // when it differs from the single-fence ones.
            if pods.len() >= 2 {
                let t = from_cycle_fenced(&format!("{name}-fall"), &cycle, &pods)
                    .expect("the unfenced cycle already passed validation");
                tests.push(t);
            }
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use CycleEdge::*;
    use Dir::*;

    #[test]
    fn sb_cycle_reproduces_store_buffering_shape() {
        let t = from_cycle("gen-sb", &[Pod(W, R), Fre, Pod(W, R), Fre]).unwrap();
        assert_eq!(t.thread_count(), 2);
        assert_eq!(t.location_count(), 2);
        assert_eq!(t.load_thread_count(), 2);
        // Condition: both loads read 0.
        let target = t.target_outcome().unwrap();
        assert_eq!(target.label(), "00");
    }

    #[test]
    fn mp_cycle_reproduces_message_passing() {
        let t = from_cycle("gen-mp", &[Pod(W, W), Rfe, Pod(R, R), Fre]).unwrap();
        assert_eq!(t.thread_count(), 2);
        assert_eq!(t.reads_per_thread(), vec![0, 2]);
        // Condition: flag read (1), data stale (0).
        let atoms = t.target().atoms().len();
        assert_eq!(atoms, 2);
    }

    #[test]
    fn lb_cycle_reproduces_load_buffering() {
        let t = from_cycle("gen-lb", &[Pod(R, W), Rfe, Pod(R, W), Rfe]).unwrap();
        assert_eq!(t.thread_count(), 2);
        assert_eq!(t.target_outcome().unwrap().label(), "11");
    }

    #[test]
    fn wse_cycles_generate_non_convertible_tests() {
        // 2+2w: PodWW Wse PodWW Wse.
        let t = from_cycle("gen-2+2w", &[Pod(W, W), Wse, Pod(W, W), Wse]).unwrap();
        assert!(t.target().inspects_memory());
        assert_eq!(t.thread_count(), 2);
    }

    #[test]
    fn iriw_shape_from_six_edge_cycle() {
        let t = from_cycle("gen-iriw", &[Rfe, Pod(R, R), Fre, Rfe, Pod(R, R), Fre]).unwrap();
        assert_eq!(t.thread_count(), 4);
        assert_eq!(t.load_thread_count(), 2);
    }

    #[test]
    fn invalid_cycles_are_rejected() {
        assert_eq!(from_cycle("x", &[Rfe]).unwrap_err(), GenError::TooShort);
        // Rfe ends at R, Wse starts at W.
        assert_eq!(
            from_cycle("x", &[Rfe, Wse]).unwrap_err(),
            GenError::DirectionMismatch { edge: 0 }
        );
        assert_eq!(
            from_cycle("x", &[Pod(W, R), Pod(R, W)]).unwrap_err(),
            GenError::NoExternalEdge
        );
        assert_eq!(
            from_cycle("x", &[Fre, Pod(W, R)]).unwrap_err(),
            GenError::LastEdgeNotExternal
        );
    }

    #[test]
    fn family_of_length_four_contains_the_classics() {
        let family = generate_family(4);
        assert!(family.len() > 10, "only {} cycles generated", family.len());
        // All generated tests build, and the family contains convertible
        // and non-convertible members.
        let convertible = family
            .iter()
            .filter(|t| !t.target().inspects_memory())
            .count();
        assert!(convertible > 0);
        assert!(convertible < family.len());
        // Classic shapes are present: sb's double PodWR/Fre cycle.
        assert!(family.iter().any(|t| {
            t.thread_count() == 2
                && t.reads_per_thread() == vec![1, 1]
                && t.target_outcome().map(|o| o.label()) == Some("00".into())
        }));
    }

    #[test]
    fn family_members_have_unique_names() {
        let family = generate_family(4);
        let mut names: Vec<&str> = family.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn fenced_variant_inserts_the_mfence_across_the_pod_edge() {
        use crate::instr::Instr;
        // sb with a fence after thread 0's store: edge 0 is Pod(W, R).
        let t = from_cycle_fenced("gen-sb-f0", &[Pod(W, R), Fre, Pod(W, R), Fre], &[0]).unwrap();
        assert_eq!(
            t.threads()[0]
                .iter()
                .filter(|i| matches!(i, Instr::Mfence))
                .count(),
            1
        );
        assert!(matches!(t.threads()[0][1], Instr::Mfence));
        assert!(t.threads()[1].iter().all(|i| !matches!(i, Instr::Mfence)));
        // The condition is unchanged by fencing.
        let base = from_cycle("gen-sb", &[Pod(W, R), Fre, Pod(W, R), Fre]).unwrap();
        assert_eq!(
            t.target_outcome().unwrap().label(),
            base.target_outcome().unwrap().label()
        );
    }

    #[test]
    fn fences_on_external_edges_are_rejected() {
        assert_eq!(
            from_cycle_fenced("x", &[Pod(W, R), Fre, Pod(W, R), Fre], &[1]).unwrap_err(),
            GenError::FenceOnExternalEdge { edge: 1 }
        );
        assert_eq!(
            from_cycle_fenced("x", &[Pod(W, R), Fre, Pod(W, R), Fre], &[9]).unwrap_err(),
            GenError::FenceOnExternalEdge { edge: 9 }
        );
    }

    #[test]
    fn corpus_scales_past_a_thousand_distinct_tests() {
        let corpus = generate_corpus(6, 4);
        assert!(
            corpus.len() >= 1000,
            "only {} tests generated",
            corpus.len()
        );
        let mut names: Vec<&str> = corpus.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "corpus names must be unique");
        assert!(corpus.iter().all(|t| t.thread_count() <= 4));
        // Fenced variants are present and marked by suffix.
        assert!(corpus.iter().any(|t| t.name().ends_with("-f0")));
    }

    #[test]
    fn single_pod_cycles_are_rejected() {
        assert_eq!(
            from_cycle("x", &[Pod(R, W), Rfe, Fre, Rfe]).unwrap_err(),
            GenError::UnclosableLocations
        );
    }

    #[test]
    fn error_display() {
        for e in [
            GenError::TooShort,
            GenError::DirectionMismatch { edge: 0 },
            GenError::NoExternalEdge,
            GenError::LastEdgeNotExternal,
            GenError::NoLocations,
            GenError::UnclosableLocations,
            GenError::FenceOnExternalEdge { edge: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
