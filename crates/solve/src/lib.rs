//! # perple-solve
//!
//! A constraint-based **static** feasibility engine for litmus outcomes,
//! after "Memory Consistency Models using Constraints": given a litmus
//! test, a complete register outcome, and a [`ModelId`], decide
//! allowed/forbidden *without simulating a single iteration* by searching
//! for a write serialization whose induced constraint graph is acyclic.
//! [`condition_feasible`] lifts this to a test's whole condition: its
//! register atoms pick the outcomes, and each final-memory atom `[x]=v`
//! constrains co (v's unique store is coherence-last at x).
//!
//! This is the repository's one axiomatic engine. Its axioms are the
//! "herding cats" formulation: SC-per-location (`po-loc ∪ rf ∪ co ∪ fr`
//! acyclic), RMW atomicity (no write intervenes in coherence between a
//! locked exchange's read-from write and its own write), and
//! model-parameterized global happens-before (`ppo ∪ fence ∪ rfe ∪ co ∪
//! fr` acyclic, with `ppo` filtered through [`ModelId::preserves_po`]).
//! Its reference is the operational enumerator (`perple-enumerate`): the
//! differential tests require bit-equal verdicts on every decided outcome
//! row of the hand-written and generated corpora under all four models.
//!
//! * **Evidence.** Every *allowed* verdict carries a [`Witness`] (the
//!   chosen per-location coherence orders plus a total order of all
//!   events) that [`verify_witness`] re-checks from scratch; every
//!   *forbidden* verdict carries a non-empty unsatisfiable [`Core`] of
//!   labeled relation edges harvested from the cycles that refuted each
//!   candidate serialization.
//! * **Pruning.** Instead of an odometer over all per-location
//!   write-order combinations (each followed by a full acyclicity check),
//!   the engine fixes one location at a time and runs an incremental cycle
//!   check after each placement, cutting every extension of an
//!   already-cyclic prefix. A cycle in the choice-free static skeleton
//!   (po/ppo/fence/rf plus the co/fr edges po-loc forces) refutes the
//!   outcome before any search at all.
//!
//! Reads attribute to writers through the converter's unique-stored-values
//! property: a loaded value either equals the location's initial value or
//! names its unique writing store, so `rf` is implied by the outcome and
//! never searched over. [`forced_relations`] derives it, together with
//! every co/fr edge that holds under any coherence order; the converter
//! (`perple-convert`) builds its perpetual conditions from the same
//! function, and [`verify_witness`] replays with its per-read rf rule
//! alone.
//!
//! ```
//! use perple_model::{suite, ModelId};
//! use perple_solve::{solve, verify_witness, Verdict};
//!
//! let sb = suite::sb();
//! let target = sb.target_outcome().unwrap();
//! match solve(&sb, &target, ModelId::Tso).unwrap() {
//!     Verdict::Allowed(w) => verify_witness(&sb, &target, ModelId::Tso, &w).unwrap(),
//!     Verdict::Forbidden(_) => panic!("sb target needs only store buffering"),
//! }
//! assert!(!solve(&sb, &target, ModelId::Sc).unwrap().is_allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use perple_model::{AccessKind, Instr, InstrRef, LitmusTest, LoadSlot, LocId, ModelId, Outcome};

/// Outcome shapes the solver abstains on: per-load read-from must be
/// implied by the outcome, so every loaded register needs exactly one
/// load and one value, and that value a unique writer. Callers that need
/// a verdict anyway fall back to the operational enumerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The outcome leaves a loaded register unvalued.
    IncompleteOutcome,
    /// A register is loaded more than once (per-load rf is ambiguous).
    ReloadedRegister,
    /// A loaded value is produced by no store or several stores.
    UnattributableValue {
        /// The problematic value.
        value: u32,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::IncompleteOutcome => write!(f, "outcome leaves a register unvalued"),
            SolveError::ReloadedRegister => write!(f, "a register is loaded more than once"),
            SolveError::UnattributableValue { value } => {
                write!(f, "value {value} has no unique writer")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// One memory event of the constraint graph: per-thread rank order with
/// fences as rank gaps, and a locked exchange contributing a read then a
/// write that share `instr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Executing thread.
    pub thread: usize,
    /// Program-order rank within the thread (fences occupy a rank but
    /// produce no event).
    pub rank: usize,
    /// Accessed location index.
    pub loc: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Stored value (writes) or observed value (reads).
    pub value: u32,
    /// Program-order index of the instruction within its thread (both
    /// halves of a locked exchange share it).
    pub instr: usize,
    /// True for the read and the write of a locked exchange.
    pub locked: bool,
}

/// Relation an unsatisfiable-core edge belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Preserved program order (the model's `ppo`, or `po-loc` in the
    /// coherence check).
    Po,
    /// Program order reinstated by an `MFENCE` or a locked instruction.
    Fence,
    /// Read-from: the read observes this write's value.
    Rf,
    /// Coherence (write serialization) order.
    Co,
    /// From-read: the read's writer is coherence-before this write.
    Fr,
}

impl EdgeKind {
    /// The relation's conventional lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Po => "po",
            EdgeKind::Fence => "fence",
            EdgeKind::Rf => "rf",
            EdgeKind::Co => "co",
            EdgeKind::Fr => "fr",
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One labeled edge between two events (indices into [`events`]' vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// The relation the edge belongs to.
    pub kind: EdgeKind,
    /// Source event index.
    pub from: usize,
    /// Destination event index.
    pub to: usize,
}

/// Machine-checkable evidence for an *allowed* verdict: the coherence
/// order the solver chose for every location, plus a total order of all
/// events that linearizes the model's global-happens-before relation.
/// [`verify_witness`] replays it against a freshly built graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Per-location coherence order: `co[l]` lists the event indices of
    /// the writes to location `l`, coherence-earliest first.
    pub co: Vec<Vec<usize>>,
    /// A permutation of all event indices such that every
    /// global-happens-before edge points forward.
    pub order: Vec<usize>,
}

/// Evidence for a *forbidden* verdict: a non-empty set of labeled edges
/// such that every candidate write serialization the search refuted was
/// refuted by a cycle (or atomicity violation) through these edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Core {
    /// The refuting edges, deduplicated and sorted for determinism.
    pub edges: Vec<Edge>,
}

impl Core {
    /// Renders the core as `kind(a->b)` atoms, one per edge.
    pub fn render(&self, events: &[Event]) -> String {
        self.edges
            .iter()
            .map(|e| {
                let d = |i: usize| {
                    let ev = &events[i];
                    format!(
                        "P{}.{}{}",
                        ev.thread,
                        match ev.kind {
                            AccessKind::Read => "R",
                            AccessKind::Write => "W",
                        },
                        ev.rank
                    )
                };
                format!("{}({}->{})", e.kind, d(e.from), d(e.to))
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The solver's answer for one (test, outcome, model) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The outcome is reachable; the witness proves it.
    Allowed(Witness),
    /// The outcome is unreachable; the core explains it.
    Forbidden(Core),
}

impl Verdict {
    /// True for [`Verdict::Allowed`].
    pub fn is_allowed(&self) -> bool {
        matches!(self, Verdict::Allowed(_))
    }
}

/// The valuation an outcome gives a test's loads: one `(slot, value)` per
/// load slot, in slot order (the input [`forced_relations`] takes).
///
/// Reloaded registers are rejected first, then slots are valued in order.
///
/// # Errors
/// [`SolveError::ReloadedRegister`] / [`SolveError::IncompleteOutcome`]
/// when the outcome/test shape prevents analysis.
pub fn valuation(test: &LitmusTest, outcome: &Outcome) -> Result<Vec<(LoadSlot, u32)>, SolveError> {
    let slots = test.load_slots();
    for slot in &slots {
        if slots
            .iter()
            .any(|s| s.thread == slot.thread && s.reg == slot.reg && s.slot != slot.slot)
        {
            return Err(SolveError::ReloadedRegister);
        }
    }
    slots
        .into_iter()
        .map(|s| {
            let value = outcome
                .get(s.thread, s.reg)
                .ok_or(SolveError::IncompleteOutcome)?;
            Ok((s, value))
        })
        .collect()
}

/// Builds the event list for a (test, outcome) pair.
///
/// # Errors
/// As for [`valuation`].
pub fn events(test: &LitmusTest, outcome: &Outcome) -> Result<Vec<Event>, SolveError> {
    Ok(valued_events(test, &valuation(test, outcome)?))
}

/// The events of a test whose loads read the values of `valued`, a
/// complete [`valuation`].
fn valued_events(test: &LitmusTest, valued: &[(LoadSlot, u32)]) -> Vec<Event> {
    let mut values = valued.iter().map(|&(_, v)| v);
    let mut out = Vec::new();
    for (t, instrs) in test.threads().iter().enumerate() {
        let mut rank = 0usize;
        for (i, instr) in instrs.iter().enumerate() {
            let mut read = || values.next().expect("one value per load slot");
            // The instruction's accesses: a locked exchange reads, then
            // writes.
            let (loc, first, second) = match *instr {
                Instr::Store { loc, value } => (loc, (AccessKind::Write, value), None),
                Instr::Load { loc, .. } => (loc, (AccessKind::Read, read()), None),
                Instr::Mfence => {
                    rank += 1; // a rank gap, not an event
                    continue;
                }
                Instr::Xchg { loc, value, .. } => (
                    loc,
                    (AccessKind::Read, read()),
                    Some((AccessKind::Write, value)),
                ),
            };
            let locked = second.is_some();
            for (kind, value) in std::iter::once(first).chain(second) {
                out.push(Event {
                    thread: t,
                    rank,
                    loc: loc.index(),
                    kind,
                    value,
                    instr: i,
                    locked,
                });
                rank += 1;
            }
        }
    }
    out
}

/// The relations a valuation of load slots forces before any coherence
/// order is chosen (see [`forced_relations`]). Reads are indices into the
/// valuation; writes are store instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForcedRelations {
    /// rf, one entry per read: its writing store, or `None` when it sees
    /// the initial value.
    pub rf: Vec<Option<InstrRef>>,
    /// coWR, one list per read: the reader's own po-earlier stores to the
    /// location, each coherence-before the read's writer.
    pub co_before: Vec<Vec<InstrRef>>,
    /// One list per read, of the stores it is from-read-before: every
    /// store to the location for a read of the initial value (init-fr);
    /// otherwise the reader's own po-later stores, a locked exchange's own
    /// write included, each coherence-after the read's writer (coRW).
    pub fr: Vec<Vec<InstrRef>>,
    /// coRR: `(early, late)` pairs of po-ordered reads of one location by
    /// one thread that see different stores; `early` is from-read-before
    /// `late`'s writer.
    pub corr: Vec<(usize, usize)>,
    /// True if the valuation closes a cycle of po-loc and one rf or
    /// init-fr edge: a read of an own po-later or same-instruction store,
    /// or of the initial value past an own po-earlier store.
    pub cyclic: bool,
}

/// Derives the choice-free relations of a valuation: one `(slot, value)`
/// per valued read, which may leave loads unvalued (a condition names only
/// some registers, and only a reloaded register's last load). Each value
/// is either the location's initial value or names its unique store.
///
/// The co and fr edges are the ones po-loc forces on any coherence order
/// that keeps SC-per-location (`po-loc ∪ rf ∪ co ∪ fr` acyclic) and RMW
/// atomicity, so adding them never changes a verdict.
///
/// # Errors
/// [`SolveError::UnattributableValue`] when a value is produced by no
/// store or by several.
pub fn forced_relations(
    test: &LitmusTest,
    reads: &[(LoadSlot, u32)],
) -> Result<ForcedRelations, SolveError> {
    let n = reads.len();
    let mut f = ForcedRelations {
        rf: Vec::with_capacity(n),
        co_before: vec![Vec::new(); n],
        fr: vec![Vec::new(); n],
        corr: Vec::new(),
        cyclic: false,
    };
    for (i, &(slot, value)) in reads.iter().enumerate() {
        let w = writer(test, slot.loc, value)?;
        let stores = test.stores_to(slot.loc);
        let own = || {
            stores
                .iter()
                .map(|&(s, _)| s)
                .filter(|s| s.thread == slot.thread)
        };
        match w {
            None => {
                // Store forwarding hides the initial value once an own
                // store to the location has executed.
                f.cyclic |= own().any(|s| s.index < slot.instr_index);
                f.fr[i] = stores.iter().map(|&(s, _)| s).collect();
            }
            Some(w) => {
                f.cyclic |= w.thread == slot.thread && w.index >= slot.instr_index;
                for s in own().filter(|&s| s != w) {
                    if s.index < slot.instr_index {
                        f.co_before[i].push(s);
                    } else {
                        f.fr[i].push(s);
                    }
                }
            }
        }
        f.rf.push(w);
    }
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (reads[i].0, reads[j].0);
            let ordered = a.thread == b.thread && a.loc == b.loc && a.instr_index != b.instr_index;
            if ordered && f.rf[i].is_some() && f.rf[j].is_some() && f.rf[i] != f.rf[j] {
                f.corr.push(if a.instr_index < b.instr_index {
                    (i, j)
                } else {
                    (j, i)
                });
            }
        }
    }
    Ok(f)
}

/// rf of one read of `loc` that sees `value`: the location's unique
/// store of it, or `None` for the initial value.
fn writer(test: &LitmusTest, loc: LocId, value: u32) -> Result<Option<InstrRef>, SolveError> {
    if value == test.init(loc) {
        return Ok(None);
    }
    test.unique_store_of(loc, value)
        .map(Some)
        .ok_or(SolveError::UnattributableValue { value })
}

/// The stores a test's final-memory atoms make coherence-last. `[x]=v`
/// means v's unique store is co-last at x; with `v = init(x)` it means x
/// has no store. `Ok(None)` when no execution satisfies the atoms: two
/// give one location different values, or one names a value x never holds.
///
/// # Errors
/// [`SolveError::UnattributableValue`] when an atom's value is written by
/// several stores (or by a store and the initialization).
pub fn final_stores(test: &LitmusTest) -> Result<Option<Vec<InstrRef>>, SolveError> {
    let mut atoms: Vec<(LocId, u32)> = test.target().mem_atoms().collect();
    atoms.sort_unstable();
    atoms.dedup();
    if atoms.windows(2).any(|pair| pair[0].0 == pair[1].0) {
        return Ok(None);
    }
    let mut last = Vec::new();
    for (loc, value) in atoms {
        let stores = test.stores_to(loc);
        let writers = stores.iter().filter(|&&(_, v)| v == value).count();
        match (value == test.init(loc), writers) {
            (false, 1) => last.extend(test.unique_store_of(loc, value)),
            (true, 0) if stores.is_empty() => {}
            (_, 0) => return Ok(None),
            _ => return Err(SolveError::UnattributableValue { value }),
        }
    }
    Ok(Some(last))
}

/// True iff an `MFENCE` sits between two events of one thread, `a`'s
/// instruction before `b`'s.
fn fence_between(test: &LitmusTest, a: &Event, b: &Event) -> bool {
    test.threads()[a.thread][a.instr + 1..b.instr]
        .iter()
        .any(|i| matches!(i, Instr::Mfence))
}

/// A growable labeled digraph over the event set with truncation-based
/// undo: the search snapshots `len()` before placing a location and
/// truncates on backtrack.
#[derive(Debug, Clone)]
struct Graph {
    n: usize,
    edges: Vec<Edge>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
        }
    }

    fn push(&mut self, kind: EdgeKind, from: usize, to: usize) {
        self.edges.push(Edge { kind, from, to });
    }

    fn len(&self) -> usize {
        self.edges.len()
    }

    fn truncate(&mut self, len: usize) {
        self.edges.truncate(len);
    }

    /// Edge indices grouped by source event, each group in insertion
    /// order: event `v`'s out-edges are `ids[first[v]..first[v + 1]]`.
    fn out_edges(&self) -> (Vec<usize>, Vec<usize>) {
        let mut first = vec![0usize; self.n + 1];
        for e in &self.edges {
            first[e.from + 1] += 1;
        }
        for v in 0..self.n {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut ids = vec![0; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate() {
            ids[fill[e.from]] = i;
            fill[e.from] += 1;
        }
        (first, ids)
    }

    /// Finds a cycle, returning its edges, or `None` if acyclic. The DFS
    /// keeps the tree path on an explicit stack so the refuting cycle can
    /// be read off when a gray node reappears.
    fn find_cycle(&self) -> Option<Vec<Edge>> {
        let (first, ids) = self.out_edges();
        let adj = |v: usize| &ids[first[v]..first[v + 1]];
        #[derive(Clone, Copy, PartialEq)]
        enum C {
            White,
            Gray,
            Black,
        }
        let mut color = vec![C::White; self.n];
        // Stack of (node, next adjacency index, incoming edge index).
        let mut stack: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for root in 0..self.n {
            if color[root] != C::White {
                continue;
            }
            stack.push((root, 0, None));
            color[root] = C::Gray;
            while let Some(&mut (v, ref mut next, _)) = stack.last_mut() {
                if *next < adj(v).len() {
                    let ei = adj(v)[*next];
                    *next += 1;
                    let u = self.edges[ei].to;
                    match color[u] {
                        C::Gray => {
                            // Cycle: edges from u's position on the stack
                            // down to v, plus the closing edge ei.
                            let from = stack
                                .iter()
                                .position(|&(node, _, _)| node == u)
                                .expect("gray node is on the stack");
                            let mut cycle: Vec<Edge> = stack[from + 1..]
                                .iter()
                                .filter_map(|&(_, _, inc)| inc.map(|i| self.edges[i]))
                                .collect();
                            cycle.push(self.edges[ei]);
                            return Some(cycle);
                        }
                        C::White => {
                            color[u] = C::Gray;
                            stack.push((u, 0, Some(ei)));
                        }
                        C::Black => {}
                    }
                } else {
                    color[v] = C::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Kahn topological order; `None` if cyclic.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let (first, ids) = self.out_edges();
        let mut indeg = vec![0usize; self.n];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        // Smallest-index-first makes the witness order deterministic.
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(self.n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &ei in &ids[first[v]..first[v + 1]] {
                let u = self.edges[ei].to;
                indeg[u] -= 1;
                if indeg[u] == 0 {
                    // Keep `ready` sorted descending so pop() is minimal.
                    let pos = ready.partition_point(|&x| x > u);
                    ready.insert(pos, u);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }
}

/// True iff two events are halves of one instruction (only a locked
/// exchange has two).
fn same_instr(a: &Event, b: &Event) -> bool {
    a.thread == b.thread && a.instr == b.instr
}

/// The per-query state: the events, rf, both constraint graphs and the
/// coherence orders placed so far.
struct Search {
    events: Vec<Event>,
    reads: Vec<usize>,
    /// Writes in event order.
    writes: Vec<usize>,
    /// Per read (in `reads` order): the writer event, `None` for the
    /// initial value.
    rf: Vec<Option<usize>>,
    /// SC-per-location graph (`po-loc ∪ rf ∪ co ∪ fr`).
    uniproc: Graph,
    /// Global happens-before graph (`ppo ∪ fence ∪ rfe ∪ co ∪ fr`).
    ghb: Graph,
    /// The writes final-memory atoms make coherence-last, at most one per
    /// location (none, and no allocation, for a register-only query).
    last: Vec<usize>,
    /// Chosen coherence orders, one per placed location.
    placed: Vec<Vec<usize>>,
    /// Refuting edges accumulated from failed branches.
    core: Vec<Edge>,
}

impl Search {
    /// Builds the events of `valued` and the skeleton every witness
    /// shares: po-loc and `rf` (one writer per valued read) in `uniproc`,
    /// the model's ppo, fences and rfe in `ghb`. `last` lists the stores
    /// that must end their location's coherence order ([`final_stores`]).
    fn new(
        test: &LitmusTest,
        valued: &[(LoadSlot, u32)],
        rf: &[Option<InstrRef>],
        last: &[InstrRef],
        model: ModelId,
    ) -> Self {
        let events = valued_events(test, valued);
        let n = events.len();
        let (reads, writes): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| events[i].kind == AccessKind::Read);
        let mut s = Search {
            events,
            reads,
            writes,
            rf: Vec::new(),
            uniproc: Graph::new(n),
            ghb: Graph::new(n),
            last: Vec::new(),
            placed: Vec::new(),
            core: Vec::new(),
        };
        s.rf = rf.iter().map(|w| w.map(|w| s.write(w))).collect();
        s.last = last.iter().map(|&st| s.write(st)).collect();
        let evs = &s.events;
        for a in 0..n {
            for b in 0..n {
                if a == b || evs[a].thread != evs[b].thread || evs[a].rank >= evs[b].rank {
                    continue;
                }
                let same_loc = evs[a].loc == evs[b].loc;
                if same_loc {
                    s.uniproc.push(EdgeKind::Po, a, b);
                }
                if model.preserves_po(evs[a].kind, evs[b].kind, same_loc) {
                    s.ghb.push(EdgeKind::Po, a, b);
                } else if evs[a].locked || evs[b].locked || fence_between(test, &evs[a], &evs[b]) {
                    s.ghb.push(EdgeKind::Fence, a, b);
                }
            }
        }
        for (&r, w) in s.reads.iter().zip(&s.rf) {
            if let Some(w) = *w {
                s.uniproc.push(EdgeKind::Rf, w, r);
                if evs[w].thread != evs[r].thread {
                    s.ghb.push(EdgeKind::Rf, w, r);
                }
            }
        }
        s
    }

    /// Seeds both graphs with the co/fr edges of [`forced_relations`]:
    /// they hold under every coherence order the search could accept, so
    /// a cycle through them refutes the outcome before any search.
    fn force(&mut self, forced: &ForcedRelations) {
        for ri in 0..self.reads.len() {
            let r = self.reads[ri];
            for &st in &forced.co_before[ri] {
                let w = self.rf[ri].expect("coWR reads see a store");
                self.push(EdgeKind::Co, self.write(st), w);
            }
            for &st in &forced.fr[ri] {
                self.push(EdgeKind::Fr, r, self.write(st));
            }
        }
        for &(early, late) in &forced.corr {
            let w = self.rf[late].expect("coRR reads see stores");
            self.push(EdgeKind::Fr, self.reads[early], w);
        }
    }

    /// The write event of store instruction `s`.
    fn write(&self, s: InstrRef) -> usize {
        self.writes
            .iter()
            .copied()
            .find(|&w| {
                self.events[w].thread == s.thread.index() && self.events[w].instr == s.index.into()
            })
            .expect("every store is a write event")
    }

    /// Adds one co or fr edge to both graphs.
    fn push(&mut self, kind: EdgeKind, from: usize, to: usize) {
        self.uniproc.push(kind, from, to);
        self.ghb.push(kind, from, to);
    }

    /// Coherence position of a read's writer in `order` (0 = initial).
    fn ws_pos(order: &[usize], ev: Option<usize>) -> usize {
        ev.map_or(0, |e| {
            1 + order
                .iter()
                .position(|&w| w == e)
                .expect("writer is serialized at its own location")
        })
    }

    /// Places location `l` with coherence order `order`: serializes it and
    /// checks both graphs for a cycle. Returns the refuting edges on
    /// failure.
    fn place(&mut self, l: usize, order: &[usize]) -> Result<(), Vec<Edge>> {
        let mark = (self.uniproc.len(), self.ghb.len());
        self.serialize(l, order)?;
        if let Some(cycle) = self.uniproc.find_cycle().or_else(|| self.ghb.find_cycle()) {
            self.uniproc.truncate(mark.0);
            self.ghb.truncate(mark.1);
            return Err(cycle);
        }
        self.placed.push(order.to_vec());
        Ok(())
    }

    /// The final-memory check of location `l`'s complete coherence order:
    /// `None` if the atom's store (if any) ends `order`, otherwise the co
    /// edge from it to the write that does.
    fn final_violation(&self, l: usize, order: &[usize]) -> Option<Edge> {
        let &from = self.last.iter().find(|&&w| self.events[w].loc == l)?;
        let &to = order.last().expect("the final store is serialized");
        (to != from).then_some(Edge {
            kind: EdgeKind::Co,
            from,
            to,
        })
    }

    /// Serializes location `l` as `order`: checks RMW atomicity, then
    /// pushes the co edges and the fr edges of `l`'s reads. Returns the
    /// refuting edges, having pushed none, when atomicity fails.
    fn serialize(&mut self, l: usize, order: &[usize]) -> Result<(), Vec<Edge>> {
        // Atomicity: nothing coherence-between a locked read's writer and
        // its own write.
        for (ri, &r) in self.reads.iter().enumerate() {
            let ev = &self.events[r];
            if ev.loc != l || !ev.locked {
                continue;
            }
            let own_write = order
                .iter()
                .copied()
                .find(|&w| same_instr(ev, &self.events[w]))
                .expect("locked write is serialized");
            let read_pos = Self::ws_pos(order, self.rf[ri]);
            let write_pos = Self::ws_pos(order, Some(own_write));
            if write_pos != read_pos + 1 {
                // The violation is the coherence path that separates the
                // writer from the RMW's own write (plus the rf edge).
                let mut refuting = Vec::new();
                if let Some(w) = self.rf[ri] {
                    refuting.push(Edge {
                        kind: EdgeKind::Rf,
                        from: w,
                        to: r,
                    });
                }
                let (lo, hi) = (read_pos.min(write_pos), read_pos.max(write_pos));
                for pair in order[lo.saturating_sub(1)..hi].windows(2) {
                    refuting.push(Edge {
                        kind: EdgeKind::Co,
                        from: pair[0],
                        to: pair[1],
                    });
                }
                return Err(refuting);
            }
        }

        for pair in order.windows(2) {
            self.push(EdgeKind::Co, pair[0], pair[1]);
        }
        // fr: each read of l points at every write coherence-after its
        // writer (excluding its own locked write).
        for ri in 0..self.reads.len() {
            let r = self.reads[ri];
            if self.events[r].loc != l {
                continue;
            }
            let wpos = Self::ws_pos(order, self.rf[ri]);
            for &w in &order[wpos..] {
                if !same_instr(&self.events[r], &self.events[w]) {
                    self.push(EdgeKind::Fr, r, w);
                }
            }
        }
        Ok(())
    }

    fn unplace(&mut self, mark: (usize, usize)) {
        self.uniproc.truncate(mark.0);
        self.ghb.truncate(mark.1);
        self.placed.pop();
    }

    /// Depth-first search over locations `l..`; true once every location
    /// is placed with both graphs acyclic.
    fn search(&mut self, l: usize, locs: usize) -> bool {
        if l == locs {
            return true;
        }
        let mut remaining: Vec<usize> = self
            .writes
            .iter()
            .copied()
            .filter(|&w| self.events[w].loc == l)
            .collect();
        self.orders(
            l,
            locs,
            &mut Vec::with_capacity(remaining.len()),
            &mut remaining,
        )
    }

    /// Enumerates po-respecting coherence orders of location `l`'s
    /// remaining writes, recursing into the next location on each
    /// complete placement that keeps the final-memory atom.
    fn orders(
        &mut self,
        l: usize,
        locs: usize,
        order: &mut Vec<usize>,
        remaining: &mut Vec<usize>,
    ) -> bool {
        if remaining.is_empty() {
            if let Some(refuting) = self.final_violation(l, order) {
                self.core.push(refuting);
                return false;
            }
            let mark = (self.uniproc.len(), self.ghb.len());
            match self.place(l, order) {
                Ok(()) => {
                    if self.search(l + 1, locs) {
                        return true;
                    }
                    self.unplace(mark);
                }
                Err(refuting) => self.core.extend(refuting),
            }
            return false;
        }
        for i in 0..remaining.len() {
            let cand = remaining[i];
            let blocked = remaining.iter().any(|&r| {
                self.events[r].thread == self.events[cand].thread
                    && self.events[r].rank < self.events[cand].rank
            });
            if blocked {
                continue;
            }
            let cand = remaining.remove(i);
            order.push(cand);
            if self.orders(l, locs, order, remaining) {
                return true;
            }
            order.pop();
            remaining.insert(i, cand);
        }
        false
    }
}

/// Decides whether `outcome` is reachable under the axiomatic formulation
/// of `model`, returning a checkable [`Witness`] when it is and a
/// non-empty unsatisfiable [`Core`] when it is not. Final memory is
/// unconstrained; see [`solve_final`].
///
/// # Errors
/// [`SolveError`] when the outcome/test shape prevents analysis.
pub fn solve(test: &LitmusTest, outcome: &Outcome, model: ModelId) -> Result<Verdict, SolveError> {
    solve_final(test, outcome, &[], model)
}

/// [`solve`] with every store of `last` (from [`final_stores`])
/// coherence-last at its location.
///
/// # Errors
/// As for [`solve`].
pub fn solve_final(
    test: &LitmusTest,
    outcome: &Outcome,
    last: &[InstrRef],
    model: ModelId,
) -> Result<Verdict, SolveError> {
    let valued = valuation(test, outcome)?;
    let forced = forced_relations(test, &valued)?;
    let mut s = Search::new(test, &valued, &forced.rf, last, model);
    s.force(&forced);

    // A static cycle refutes every serialization at once.
    if let Some(cycle) = s.uniproc.find_cycle().or_else(|| s.ghb.find_cycle()) {
        let mut edges = cycle;
        edges.sort_unstable();
        edges.dedup();
        return Ok(Verdict::Forbidden(Core { edges }));
    }
    if s.search(0, test.location_count()) {
        let order = s
            .ghb
            .topo_order()
            .expect("the accepted ghb graph is acyclic");
        return Ok(Verdict::Allowed(Witness {
            co: s.placed,
            order,
        }));
    }
    let mut edges = s.core;
    if edges.is_empty() {
        // Every branch failed below a deeper placement whose own failures
        // were recorded there; the only way to reach here with no edges is
        // a location with no po-respecting order at all, which cannot
        // happen (insertion order always yields one). Guard anyway: blame
        // the static po-loc skeleton.
        edges = s.uniproc.edges.clone();
    }
    edges.sort_unstable();
    edges.dedup();
    debug_assert!(!edges.is_empty(), "forbidden verdict must carry a core");
    Ok(Verdict::Forbidden(Core { edges }))
}

/// Convenience wrapper: just the allowed/forbidden bit.
///
/// # Errors
/// As for [`solve`].
pub fn feasible(test: &LitmusTest, outcome: &Outcome, model: ModelId) -> Result<bool, SolveError> {
    solve(test, outcome, model).map(|v| v.is_allowed())
}

/// Decides whether some execution under `model` satisfies the test's
/// condition body (its quantifier aside): a register outcome matching the
/// condition, feasible together with its final-memory atoms. An
/// unsatisfiable condition is forbidden under every model.
///
/// # Errors
/// [`SolveError`] when the test leaves the solver's fragment: a reloaded
/// register, or a value stored twice.
pub fn condition_feasible(test: &LitmusTest, model: ModelId) -> Result<bool, SolveError> {
    let Some(last) = final_stores(test)? else {
        return Ok(false);
    };
    for outcome in test.outcomes_matching_condition() {
        if solve_final(test, &outcome, &last, model)?.is_allowed() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Replays a witness against a freshly built constraint graph: the
/// coherence orders must be permutations of each location's writes that
/// keep RMW atomicity, the SC-per-location graph must be acyclic (so co
/// respects po-loc), and `order` must linearize every
/// global-happens-before edge (which proves that graph acyclic too).
///
/// # Errors
/// A human-readable description of the first replay step that fails.
pub fn verify_witness(
    test: &LitmusTest,
    outcome: &Outcome,
    model: ModelId,
    witness: &Witness,
) -> Result<(), String> {
    verify_final_witness(test, outcome, &[], model, witness)
}

/// [`verify_witness`] for a [`solve_final`] verdict: each store of `last`
/// must also end its location's coherence order.
///
/// # Errors
/// As for [`verify_witness`].
pub fn verify_final_witness(
    test: &LitmusTest,
    outcome: &Outcome,
    last: &[InstrRef],
    model: ModelId,
    witness: &Witness,
) -> Result<(), String> {
    let valued = valuation(test, outcome).map_err(|e| e.to_string())?;
    let rf = valued
        .iter()
        .map(|&(slot, value)| writer(test, slot.loc, value))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut s = Search::new(test, &valued, &rf, last, model);
    let n = s.events.len();
    let nlocs = test.location_count();
    if witness.co.len() != nlocs {
        return Err(format!(
            "witness serializes {} locations, test has {nlocs}",
            witness.co.len()
        ));
    }
    for (l, order) in witness.co.iter().enumerate() {
        // Writes are in event order, so `expected` is sorted.
        let expected: Vec<usize> = s
            .writes
            .iter()
            .copied()
            .filter(|&w| s.events[w].loc == l)
            .collect();
        let mut got = order.clone();
        got.sort_unstable();
        if got != expected {
            return Err(format!(
                "witness co[{l}] is not a permutation of the writes to it"
            ));
        }
        if let Some(edge) = s.final_violation(l, order) {
            return Err(format!(
                "witness co[{l}] does not end with the final-memory store: {}",
                Core { edges: vec![edge] }.render(&s.events)
            ));
        }
        s.serialize(l, order).map_err(|edges| {
            format!(
                "witness co[{l}] violates atomicity: {}",
                Core { edges }.render(&s.events)
            )
        })?;
    }
    if let Some(edges) = s.uniproc.find_cycle() {
        return Err(format!(
            "witness coherence violates SC-per-location: {}",
            Core { edges }.render(&s.events)
        ));
    }

    // `order` must be a permutation linearizing every ghb edge.
    if witness.order.len() != n {
        return Err(format!(
            "witness order has {} events, graph has {n}",
            witness.order.len()
        ));
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &e) in witness.order.iter().enumerate() {
        if e >= n || pos[e] != usize::MAX {
            return Err("witness order is not a permutation of the events".to_owned());
        }
        pos[e] = i;
    }
    for e in &s.ghb.edges {
        if pos[e.from] >= pos[e.to] {
            return Err(format!(
                "witness order inverts the {} edge {}->{}",
                e.kind, e.from, e.to
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_enumerate::enumerate;
    use perple_model::suite;

    /// Every outcome row of `test` under every model: the solver's verdict
    /// equals membership in the operational enumerator's reachable set,
    /// witnesses replay and cores are non-empty. Abstentions are
    /// unchecked.
    fn check_equal(test: &LitmusTest) {
        for model in ModelId::ALL {
            let reachable = enumerate(test, model).register_outcomes();
            for outcome in test.possible_outcomes() {
                let Ok(v) = solve(test, &outcome, model) else {
                    continue;
                };
                assert_eq!(
                    v.is_allowed(),
                    reachable.contains(&outcome),
                    "{}: {outcome} under {model}",
                    test.name()
                );
                match v {
                    Verdict::Allowed(w) => verify_witness(test, &outcome, model, &w)
                        .unwrap_or_else(|e| panic!("{}: witness fails replay: {e}", test.name())),
                    Verdict::Forbidden(core) => {
                        assert!(!core.edges.is_empty(), "{}: empty core", test.name());
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_the_enumerator_on_headline_tests() {
        for test in [
            suite::sb(),
            suite::mp(),
            suite::lb(),
            suite::iriw(),
            suite::amd5(),
            suite::amd10(),
        ] {
            check_equal(&test);
        }
    }

    #[test]
    fn sb_target_witness_names_the_coherence_orders() {
        let sb = suite::sb();
        let target = sb.target_outcome().unwrap();
        let Verdict::Allowed(w) = solve(&sb, &target, ModelId::Tso).unwrap() else {
            panic!("sb target is TSO-allowed");
        };
        assert_eq!(w.co.len(), 2, "one coherence order per location");
        assert_eq!(w.order.len(), 4, "all four events linearized");
        verify_witness(&sb, &target, ModelId::Tso, &w).unwrap();
    }

    #[test]
    fn sb_target_core_under_sc_is_nonempty_and_renders() {
        let sb = suite::sb();
        let target = sb.target_outcome().unwrap();
        let Verdict::Forbidden(core) = solve(&sb, &target, ModelId::Sc).unwrap() else {
            panic!("sb target is SC-forbidden");
        };
        assert!(!core.edges.is_empty());
        let evs = events(&sb, &target).unwrap();
        let rendered = core.render(&evs);
        assert!(rendered.contains("->"), "{rendered}");
        // The SC refutation must involve program order (the W->R edges SC
        // keeps) and a communication edge.
        assert!(
            core.edges.iter().any(|e| e.kind == EdgeKind::Po),
            "{rendered}"
        );
        assert!(
            core.edges
                .iter()
                .any(|e| matches!(e.kind, EdgeKind::Fr | EdgeKind::Co | EdgeKind::Rf)),
            "{rendered}"
        );
    }

    #[test]
    fn tampered_witnesses_fail_replay() {
        let sb = suite::sb();
        let target = sb.target_outcome().unwrap();
        let Verdict::Allowed(w) = solve(&sb, &target, ModelId::Tso).unwrap() else {
            panic!();
        };
        // Reversing the linearization must break a ghb edge.
        let mut bad = w.clone();
        bad.order.reverse();
        assert!(verify_witness(&sb, &target, ModelId::Tso, &bad).is_err());
        // Dropping a location's serialization breaks the shape check.
        let mut short = w.clone();
        short.co.pop();
        assert!(verify_witness(&sb, &target, ModelId::Tso, &short).is_err());
        // Duplicating an event in the order breaks the permutation check.
        let mut dup = w;
        dup.order[0] = dup.order[1];
        assert!(verify_witness(&sb, &target, ModelId::Tso, &dup).is_err());

        // PSO drops mp+fences' W->W program order and its MFENCE puts it
        // back: the reversed order must name the inverted edge a fence.
        let mp = suite::mp_fences();
        let (o, mut w) = mp
            .possible_outcomes()
            .into_iter()
            .find_map(|o| match solve(&mp, &o, ModelId::Pso).unwrap() {
                Verdict::Allowed(w) => Some((o, w)),
                Verdict::Forbidden(_) => None,
            })
            .expect("mp+fences has an allowed outcome");
        w.order.reverse();
        let err = verify_witness(&mp, &o, ModelId::Pso, &w).unwrap_err();
        assert!(err.contains("inverts the fence edge"), "{err}");
    }

    #[test]
    fn forced_relations_of_n5_and_co_iriw() {
        // n5's target reads past an own earlier store on both threads:
        // each own store is co-before the other thread's (coWR), which
        // is a static co cycle.
        let n5 = suite::n5();
        let target = n5.target_outcome().unwrap();
        let valued = valuation(&n5, &target).unwrap();
        let f = forced_relations(&n5, &valued).unwrap();
        assert_eq!(f.co_before.concat().len(), 2);
        assert!(!f.cyclic, "no single-thread cycle");
        let Verdict::Forbidden(core) = solve(&n5, &target, ModelId::Relaxed).unwrap() else {
            panic!("n5 target is forbidden under every model");
        };
        assert!(core.edges.iter().all(|e| e.kind == EdgeKind::Co));

        // co-iriw's readers see the two writes in opposite orders: one
        // coRR fr edge per reader.
        let t = suite::co_iriw();
        let target = t.target_outcome().unwrap();
        let valued = valuation(&t, &target).unwrap();
        let f = forced_relations(&t, &valued).unwrap();
        assert_eq!(f.corr.len(), 2);
        assert!(f.fr.iter().all(Vec::is_empty) && f.co_before.iter().all(Vec::is_empty));

        // Reading the initial value past an own store is a static cycle.
        let mut b = perple_model::TestBuilder::new("fwd");
        b.thread().store("x", 1).load("EAX", "x");
        b.reg_cond(0, "EAX", 0);
        let fwd = b.build().unwrap();
        let slot = fwd.load_slots()[0];
        assert!(forced_relations(&fwd, &[(slot, 0)]).unwrap().cyclic);
        assert!(!forced_relations(&fwd, &[(slot, 1)]).unwrap().cyclic);
        assert_eq!(
            forced_relations(&fwd, &[(slot, 7)]).unwrap_err(),
            SolveError::UnattributableValue { value: 7 }
        );
    }

    #[test]
    fn abstentions_name_their_reason() {
        let sb = suite::sb();
        assert_eq!(
            solve(&sb, &Outcome::new(), ModelId::Tso).unwrap_err(),
            SolveError::IncompleteOutcome
        );
        for e in [
            SolveError::IncompleteOutcome,
            SolveError::ReloadedRegister,
            SolveError::UnattributableValue { value: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn verdicts_are_monotone_along_the_lattice() {
        // The solver-layer re-proof of SC ⊆ TSO ⊆ PSO ⊆ relaxed: an
        // outcome allowed under a model stays allowed under every weaker
        // one.
        for test in suite::convertible() {
            for outcome in test.possible_outcomes() {
                let mut prev: Option<bool> = None;
                for m in ModelId::ALL {
                    let Ok(v) = feasible(&test, &outcome, m) else {
                        break;
                    };
                    if let Some(p) = prev {
                        assert!(
                            !p || v,
                            "{}: {outcome} allowed under a stronger model only",
                            test.name()
                        );
                    }
                    prev = Some(v);
                }
            }
        }
    }

    #[test]
    fn final_memory_atoms_constrain_the_last_store() {
        use perple_enumerate::classify_under;
        // 2+2w asks both locations to end with the store written first:
        // only a model that drops W->W order reaches it.
        let t = suite::by_name("2+2w").unwrap();
        let last = final_stores(&t).unwrap().expect("satisfiable atoms");
        assert_eq!(last.len(), 2);
        for m in ModelId::ALL {
            assert_eq!(condition_feasible(&t, m), Ok(classify_under(&t, m)), "{m}");
        }
        assert!(!condition_feasible(&t, ModelId::Tso).unwrap());
        let rows = t.outcomes_matching_condition();
        let Verdict::Allowed(w) = solve_final(&t, &rows[0], &last, ModelId::Pso).unwrap() else {
            panic!("2+2w is PSO-allowed");
        };
        verify_final_witness(&t, &rows[0], &last, ModelId::Pso, &w).unwrap();
        // The same coherence orders, unconstrained, replay too; reversed,
        // they end with the wrong store.
        verify_witness(&t, &rows[0], ModelId::Pso, &w).unwrap();
        let mut bad = w;
        bad.co[0].reverse();
        let err = verify_final_witness(&t, &rows[0], &last, ModelId::Pso, &bad).unwrap_err();
        assert!(err.contains("final-memory store"), "{err}");
        let Verdict::Forbidden(core) = solve_final(&t, &rows[0], &last, ModelId::Tso).unwrap()
        else {
            panic!("2+2w is TSO-forbidden");
        };
        assert!(!core.edges.is_empty());
    }

    #[test]
    fn unsatisfiable_and_ambiguous_final_atoms() {
        let build = |conds: &[(&str, u32)], stores: &[u32]| {
            let mut b = perple_model::TestBuilder::new("fin");
            let mut th = b.thread();
            for &v in stores {
                th.store("x", v);
            }
            b.thread().store("y", 1);
            for &(loc, v) in conds {
                b.mem_cond(loc, v);
            }
            b.build().unwrap()
        };
        // Two values for one location, a value nobody stores, and the
        // initial value of a written location: forbidden under every model.
        for t in [
            build(&[("x", 1), ("x", 2)], &[1, 2]),
            build(&[("x", 3)], &[1, 2]),
            build(&[("x", 0)], &[1]),
        ] {
            assert_eq!(final_stores(&t), Ok(None), "{t}");
            for m in ModelId::ALL {
                assert_eq!(condition_feasible(&t, m), Ok(false));
                assert!(!perple_enumerate::classify_under(&t, m));
            }
        }
        // A repeated atom is one constraint; the initial value of an
        // unwritten location is none.
        let t = build(&[("x", 2), ("x", 2)], &[1, 2]);
        assert_eq!(final_stores(&t).unwrap().map(|l| l.len()), Some(1));
        let mut b = perple_model::TestBuilder::new("fin");
        b.thread().store("x", 1).load("EAX", "y");
        b.mem_cond("y", 0);
        let t = b.build().unwrap();
        assert_eq!(final_stores(&t), Ok(Some(Vec::new())));
        assert_eq!(condition_feasible(&t, ModelId::Sc), Ok(true));
        // A value two stores write is outside the fragment.
        let t = build(&[("x", 1)], &[1, 1]);
        assert_eq!(
            final_stores(&t),
            Err(SolveError::UnattributableValue { value: 1 })
        );
    }

    #[test]
    fn locked_tests_keep_atomicity() {
        let amd10 = suite::amd10();
        for o in amd10.outcomes_matching_condition() {
            let v = solve(&amd10, &o, ModelId::Relaxed).unwrap();
            assert!(!v.is_allowed(), "locked sb outcome {o} must stay forbidden");
            let Verdict::Forbidden(core) = v else {
                unreachable!()
            };
            assert!(!core.edges.is_empty());
        }
    }
}
