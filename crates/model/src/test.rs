//! The litmus-test container type and its builder.

use std::collections::BTreeSet;
use std::fmt;

use crate::cond::{CondAtom, Condition, Outcome, Quantifier};
use crate::error::ModelError;
use crate::ids::{InstrRef, LocId, RegId, ThreadId};
use crate::instr::Instr;

/// A litmus test: named multi-threaded program over shared locations plus a
/// condition of interest (the *target outcome* of the paper when the
/// quantifier is `exists`).
///
/// Construct programmatically with [`TestBuilder`] or from text with
/// [`crate::parser::parse`].
///
/// ```
/// use perple_model::{TestBuilder, Quantifier};
///
/// let mut b = TestBuilder::new("sb");
/// b.thread().store("x", 1).load("EAX", "y");
/// b.thread().store("y", 1).load("EAX", "x");
/// b.reg_cond(0, "EAX", 0).reg_cond(1, "EAX", 0);
/// let test = b.build()?;
/// assert_eq!(test.load_thread_count(), 2);
/// # Ok::<(), perple_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusTest {
    name: String,
    doc: String,
    locations: Vec<String>,
    init: Vec<u32>,
    reg_names: Vec<Vec<String>>,
    threads: Vec<Vec<Instr>>,
    condition: Condition,
}

/// One load instruction of a test, in canonical (thread, program-order)
/// order. `slot` is the per-thread load ordinal used to index `buf` arrays:
/// thread `t`'s `i`-th load of iteration `n` lands in `buf_t[r_t * n + i]`
/// (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadSlot {
    /// Thread performing the load.
    pub thread: ThreadId,
    /// Program-order index of the load instruction within the thread.
    pub instr_index: u8,
    /// Destination register.
    pub reg: RegId,
    /// Source location.
    pub loc: LocId,
    /// Per-thread load ordinal (`i` in `buf_t[r_t * n + i]`).
    pub slot: usize,
}

impl LitmusTest {
    /// The test's name (e.g. `"sb"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Free-form documentation string from the test source.
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// Number of threads `T`.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The instruction stream of one thread.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn thread(&self, t: ThreadId) -> &[Instr] {
        &self.threads[t.index()]
    }

    /// All thread instruction streams, indexed by thread.
    pub fn threads(&self) -> &[Vec<Instr>] {
        &self.threads
    }

    /// Names of the shared locations, indexed by [`LocId`].
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    /// Number of shared locations.
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// Symbolic name of a location.
    ///
    /// # Panics
    /// Panics if `loc` is out of range.
    pub fn location_name(&self, loc: LocId) -> &str {
        &self.locations[loc.index()]
    }

    /// Resolves a location name to its id.
    pub fn location_id(&self, name: &str) -> Option<LocId> {
        self.locations
            .iter()
            .position(|l| l == name)
            .map(|i| LocId(i as u8))
    }

    /// Initial value of a location (0 unless overridden).
    ///
    /// # Panics
    /// Panics if `loc` is out of range.
    pub fn init(&self, loc: LocId) -> u32 {
        self.init[loc.index()]
    }

    /// Initial values of all locations, indexed by [`LocId`].
    pub fn init_values(&self) -> &[u32] {
        &self.init
    }

    /// Name of a register of a thread.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn reg_name(&self, thread: ThreadId, reg: RegId) -> &str {
        &self.reg_names[thread.index()][reg.index()]
    }

    /// Resolves a register name within a thread.
    pub fn reg_id(&self, thread: ThreadId, name: &str) -> Option<RegId> {
        self.reg_names
            .get(thread.index())?
            .iter()
            .position(|r| r == name)
            .map(|i| RegId(i as u8))
    }

    /// The condition of interest; with an `exists` quantifier this is the
    /// paper's *target outcome*.
    pub fn target(&self) -> &Condition {
        &self.condition
    }

    /// The target outcome as a register valuation, if the condition is
    /// register-only (a prerequisite for conversion, paper §V-C).
    pub fn target_outcome(&self) -> Option<Outcome> {
        if self.condition.inspects_memory() {
            return None;
        }
        Some(self.condition.reg_atoms().collect())
    }

    /// All load instructions in canonical order (thread, then program order).
    pub fn load_slots(&self) -> Vec<LoadSlot> {
        let mut slots = Vec::new();
        for (t, instrs) in self.threads.iter().enumerate() {
            let mut ordinal = 0usize;
            for (i, instr) in instrs.iter().enumerate() {
                if let Some((reg, loc)) = instr.load_target() {
                    slots.push(LoadSlot {
                        thread: ThreadId(t as u8),
                        instr_index: i as u8,
                        reg,
                        loc,
                        slot: ordinal,
                    });
                    ordinal += 1;
                }
            }
        }
        slots
    }

    /// Threads that perform at least one load, in index order.
    pub fn load_threads(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, instrs)| instrs.iter().any(|i| i.load_target().is_some()))
            .map(|(t, _)| ThreadId(t as u8))
            .collect()
    }

    /// `T_L`: the number of load-performing threads.
    pub fn load_thread_count(&self) -> usize {
        self.load_threads().len()
    }

    /// `r_t` for every thread: loads performed per iteration.
    pub fn reads_per_thread(&self) -> Vec<usize> {
        self.threads
            .iter()
            .map(|instrs| instrs.iter().filter(|i| i.load_target().is_some()).count())
            .collect()
    }

    /// All store instructions targeting `loc`, with the values they store.
    pub fn stores_to(&self, loc: LocId) -> Vec<(InstrRef, u32)> {
        let mut out = Vec::new();
        for (t, instrs) in self.threads.iter().enumerate() {
            for (i, instr) in instrs.iter().enumerate() {
                if let Some((l, v)) = instr.store_target() {
                    if l == loc {
                        out.push((InstrRef::new(t as u8, i as u8), v));
                    }
                }
            }
        }
        out
    }

    /// Distinct positive values stored to `loc` across all threads. Its size
    /// is `k_mem` of the conversion paradigm (paper §III-B).
    pub fn distinct_store_values(&self, loc: LocId) -> BTreeSet<u32> {
        self.stores_to(loc).into_iter().map(|(_, v)| v).collect()
    }

    /// The store instruction writing value `v` to `loc`, if it is unique.
    pub fn unique_store_of(&self, loc: LocId, v: u32) -> Option<InstrRef> {
        let mut found = None;
        for (r, value) in self.stores_to(loc) {
            if value == v {
                if found.is_some() {
                    return None;
                }
                found = Some(r);
            }
        }
        found
    }

    /// Enumerates the full outcome space: every valuation assigning each load
    /// register either 0 (initial value) or one of the values stored to the
    /// loaded location. The sb test yields its four outcomes of §II-B1.
    ///
    /// The space is exponential in the number of loads; litmus tests have at
    /// most a handful.
    pub fn possible_outcomes(&self) -> Vec<Outcome> {
        let slots = self.load_slots();
        let per_slot: Vec<Vec<u32>> = slots
            .iter()
            .map(|s| {
                let mut vals = vec![self.init(s.loc)];
                for v in self.distinct_store_values(s.loc) {
                    if !vals.contains(&v) {
                        vals.push(v);
                    }
                }
                vals
            })
            .collect();
        let mut outcomes = Vec::new();
        let mut idx = vec![0usize; slots.len()];
        loop {
            let mut o = Outcome::new();
            for (s, slot) in slots.iter().enumerate() {
                o.set(slot.thread, slot.reg, per_slot[s][idx[s]]);
            }
            outcomes.push(o);
            // odometer increment
            let mut pos = slots.len();
            loop {
                if pos == 0 {
                    return outcomes;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < per_slot[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    /// Builds the register valuation described by the test condition,
    /// completing unspecified load registers with every possible value.
    /// Returns all full outcomes compatible with the condition's register
    /// atoms: it projects them only, so final-memory atoms (`[x]=v`) are
    /// left to the caller (the solver's `condition_feasible` adds them as
    /// a coherence constraint).
    pub fn outcomes_matching_condition(&self) -> Vec<Outcome> {
        let target: Vec<(ThreadId, RegId, u32)> = self.condition.reg_atoms().collect();
        self.possible_outcomes()
            .into_iter()
            .filter(|o| target.iter().all(|&(t, r, v)| o.get(t, r) == Some(v)))
            .collect()
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::printer::print(self))
    }
}

/// Incremental builder for [`LitmusTest`].
#[derive(Debug, Clone)]
pub struct TestBuilder {
    name: String,
    doc: String,
    locations: Vec<String>,
    init_overrides: Vec<(String, u32)>,
    reg_names: Vec<Vec<String>>,
    threads: Vec<Vec<Instr>>,
    quantifier: Quantifier,
    // (thread, reg name, value) and (loc name, value) conjuncts, resolved at build.
    reg_conds: Vec<(usize, String, u32)>,
    mem_conds: Vec<(String, u32)>,
}

impl TestBuilder {
    /// Starts building a test with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            doc: String::new(),
            locations: Vec::new(),
            init_overrides: Vec::new(),
            reg_names: Vec::new(),
            threads: Vec::new(),
            quantifier: Quantifier::Exists,
            reg_conds: Vec::new(),
            mem_conds: Vec::new(),
        }
    }

    /// Attaches a documentation string.
    pub fn doc(&mut self, doc: impl Into<String>) -> &mut Self {
        self.doc = doc.into();
        self
    }

    /// Overrides the initial value of a location (default 0).
    pub fn init(&mut self, loc: impl Into<String>, value: u32) -> &mut Self {
        self.init_overrides.push((loc.into(), value));
        self
    }

    /// Opens a new thread; instructions are added through the returned
    /// [`ThreadBuilder`].
    pub fn thread(&mut self) -> ThreadBuilder<'_> {
        self.threads.push(Vec::new());
        self.reg_names.push(Vec::new());
        let t = self.threads.len() - 1;
        ThreadBuilder {
            owner: self,
            thread: t,
        }
    }

    /// Sets the condition quantifier (default [`Quantifier::Exists`]).
    pub fn quantifier(&mut self, q: Quantifier) -> &mut Self {
        self.quantifier = q;
        self
    }

    /// Adds a `thread:reg = value` conjunct to the condition.
    pub fn reg_cond(&mut self, thread: usize, reg: impl Into<String>, value: u32) -> &mut Self {
        self.reg_conds.push((thread, reg.into(), value));
        self
    }

    /// Adds a `[loc] = value` conjunct to the condition. Such atoms make the
    /// test non-convertible (paper §V-C) but remain runnable by the baseline.
    pub fn mem_cond(&mut self, loc: impl Into<String>, value: u32) -> &mut Self {
        self.mem_conds.push((loc.into(), value));
        self
    }

    fn intern_loc(&mut self, name: &str) -> LocId {
        if let Some(i) = self.locations.iter().position(|l| l == name) {
            LocId(i as u8)
        } else {
            self.locations.push(name.to_owned());
            LocId((self.locations.len() - 1) as u8)
        }
    }

    fn intern_reg(&mut self, thread: usize, name: &str) -> RegId {
        let regs = &mut self.reg_names[thread];
        if let Some(i) = regs.iter().position(|r| r == name) {
            RegId(i as u8)
        } else {
            regs.push(name.to_owned());
            RegId((regs.len() - 1) as u8)
        }
    }

    /// Finalizes the test.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the test is structurally invalid: no
    /// threads, oversized threads, zero-valued stores, an empty condition, or
    /// condition atoms referencing unknown threads/registers/locations.
    pub fn build(&self) -> Result<LitmusTest, ModelError> {
        if self.threads.is_empty() {
            return Err(ModelError::NoThreads);
        }
        if self.threads.len() > 255 {
            return Err(ModelError::TooManyThreads(self.threads.len()));
        }
        for (t, instrs) in self.threads.iter().enumerate() {
            if instrs.len() > 255 {
                return Err(ModelError::ThreadTooLong {
                    thread: t,
                    len: instrs.len(),
                });
            }
            for (i, instr) in instrs.iter().enumerate() {
                if let Some((_, v)) = instr.store_target() {
                    if v == 0 {
                        return Err(ModelError::ZeroStore {
                            thread: t,
                            index: i,
                        });
                    }
                }
            }
        }
        if self.reg_conds.is_empty() && self.mem_conds.is_empty() {
            return Err(ModelError::EmptyCondition);
        }

        let mut init = vec![0u32; self.locations.len()];
        for (name, v) in &self.init_overrides {
            let id = self
                .locations
                .iter()
                .position(|l| l == name)
                .ok_or_else(|| ModelError::UnknownLocation(name.clone()))?;
            init[id] = *v;
        }

        let mut atoms = Vec::new();
        for (t, reg, v) in &self.reg_conds {
            if *t >= self.threads.len() {
                return Err(ModelError::UnknownThread(*t));
            }
            let rid = self.reg_names[*t]
                .iter()
                .position(|r| r == reg)
                .ok_or_else(|| ModelError::UnknownRegister {
                    thread: *t,
                    reg: reg.clone(),
                })?;
            atoms.push(CondAtom::RegEq {
                thread: ThreadId(*t as u8),
                reg: RegId(rid as u8),
                value: *v,
            });
        }
        for (loc, v) in &self.mem_conds {
            let id = self
                .locations
                .iter()
                .position(|l| l == loc)
                .ok_or_else(|| ModelError::UnknownLocation(loc.clone()))?;
            atoms.push(CondAtom::MemEq {
                loc: LocId(id as u8),
                value: *v,
            });
        }

        Ok(LitmusTest {
            name: self.name.clone(),
            doc: self.doc.clone(),
            locations: self.locations.clone(),
            init,
            reg_names: self.reg_names.clone(),
            threads: self.threads.clone(),
            condition: Condition::new(self.quantifier, atoms),
        })
    }
}

/// Adds instructions to one thread of a [`TestBuilder`].
#[derive(Debug)]
pub struct ThreadBuilder<'a> {
    owner: &'a mut TestBuilder,
    thread: usize,
}

impl ThreadBuilder<'_> {
    /// Appends `MOV [loc], $value`.
    pub fn store(&mut self, loc: &str, value: u32) -> &mut Self {
        let loc = self.owner.intern_loc(loc);
        self.owner.threads[self.thread].push(Instr::Store { loc, value });
        self
    }

    /// Appends `MOV reg, [loc]`.
    pub fn load(&mut self, reg: &str, loc: &str) -> &mut Self {
        let loc = self.owner.intern_loc(loc);
        let reg = self.owner.intern_reg(self.thread, reg);
        self.owner.threads[self.thread].push(Instr::Load { reg, loc });
        self
    }

    /// Appends `MFENCE`.
    pub fn mfence(&mut self) -> &mut Self {
        self.owner.threads[self.thread].push(Instr::Mfence);
        self
    }

    /// Appends `XCHG [loc], $value -> reg` (atomic store + load of the old
    /// value, locked).
    pub fn xchg(&mut self, reg: &str, loc: &str, value: u32) -> &mut Self {
        let loc = self.owner.intern_loc(loc);
        let reg = self.owner.intern_reg(self.thread, reg);
        self.owner.threads[self.thread].push(Instr::Xchg { reg, loc, value });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> LitmusTest {
        let mut b = TestBuilder::new("sb");
        b.thread().store("x", 1).load("EAX", "y");
        b.thread().store("y", 1).load("EAX", "x");
        b.reg_cond(0, "EAX", 0).reg_cond(1, "EAX", 0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_structure() {
        let t = sb();
        assert_eq!(t.thread_count(), 2);
        assert_eq!(t.location_count(), 2);
        assert_eq!(t.location_name(LocId(0)), "x");
        assert_eq!(t.location_id("y"), Some(LocId(1)));
        assert_eq!(t.location_id("z"), None);
        assert_eq!(t.init(LocId(0)), 0);
        assert_eq!(t.reg_name(ThreadId(0), RegId(0)), "EAX");
        assert_eq!(t.reg_id(ThreadId(1), "EAX"), Some(RegId(0)));
        assert_eq!(t.reg_id(ThreadId(1), "EBX"), None);
    }

    #[test]
    fn load_slots_and_thread_classification() {
        let t = sb();
        let slots = t.load_slots();
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].thread, ThreadId(0));
        assert_eq!(slots[0].loc, t.location_id("y").unwrap());
        assert_eq!(slots[0].slot, 0);
        assert_eq!(t.load_threads(), vec![ThreadId(0), ThreadId(1)]);
        assert_eq!(t.load_thread_count(), 2);
        assert_eq!(t.reads_per_thread(), vec![1, 1]);
    }

    #[test]
    fn store_analysis() {
        let t = sb();
        let x = t.location_id("x").unwrap();
        let stores = t.stores_to(x);
        assert_eq!(stores, vec![(InstrRef::new(0, 0), 1)]);
        assert_eq!(t.distinct_store_values(x).len(), 1);
        assert_eq!(t.unique_store_of(x, 1), Some(InstrRef::new(0, 0)));
        assert_eq!(t.unique_store_of(x, 2), None);
    }

    #[test]
    fn unique_store_detects_duplicates() {
        let mut b = TestBuilder::new("dup");
        b.thread().store("x", 1).load("EAX", "x");
        b.thread().store("x", 1);
        b.reg_cond(0, "EAX", 1);
        let t = b.build().unwrap();
        let x = t.location_id("x").unwrap();
        assert_eq!(t.unique_store_of(x, 1), None);
    }

    #[test]
    fn possible_outcomes_of_sb_are_four() {
        let t = sb();
        let outcomes = t.possible_outcomes();
        assert_eq!(outcomes.len(), 4);
        let labels: Vec<_> = outcomes.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["00", "01", "10", "11"]);
    }

    #[test]
    fn target_outcome_extraction() {
        let t = sb();
        let target = t.target_outcome().unwrap();
        assert_eq!(target.label(), "00");
        let matching = t.outcomes_matching_condition();
        assert_eq!(matching.len(), 1);
        assert_eq!(matching[0].label(), "00");
    }

    #[test]
    fn mem_condition_blocks_target_outcome() {
        let mut b = TestBuilder::new("co");
        b.thread().store("x", 1);
        b.thread().store("x", 2).load("EAX", "x");
        b.reg_cond(1, "EAX", 1).mem_cond("x", 1);
        let t = b.build().unwrap();
        assert!(t.target().inspects_memory());
        assert!(t.target_outcome().is_none());
    }

    #[test]
    fn build_rejects_invalid_tests() {
        assert_eq!(
            TestBuilder::new("e").build().unwrap_err(),
            ModelError::NoThreads
        );

        let mut b = TestBuilder::new("z");
        b.thread().store("x", 0);
        b.mem_cond("x", 0);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::ZeroStore {
                thread: 0,
                index: 0
            }
        );

        let mut b = TestBuilder::new("nc");
        b.thread().store("x", 1);
        assert_eq!(b.build().unwrap_err(), ModelError::EmptyCondition);

        let mut b = TestBuilder::new("ur");
        b.thread().store("x", 1);
        b.reg_cond(0, "EAX", 0);
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::UnknownRegister { .. }
        ));

        let mut b = TestBuilder::new("ut");
        b.thread().load("EAX", "x");
        b.reg_cond(3, "EAX", 0);
        assert_eq!(b.build().unwrap_err(), ModelError::UnknownThread(3));

        let mut b = TestBuilder::new("ul");
        b.thread().load("EAX", "x");
        b.reg_cond(0, "EAX", 0).mem_cond("q", 1);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::UnknownLocation("q".into())
        );
    }

    #[test]
    fn init_override() {
        let mut b = TestBuilder::new("iv");
        b.thread().load("EAX", "x");
        b.init("x", 7);
        b.reg_cond(0, "EAX", 7);
        let t = b.build().unwrap();
        assert_eq!(t.init(t.location_id("x").unwrap()), 7);
        assert_eq!(t.init_values(), &[7]);
    }

    #[test]
    fn init_override_unknown_location_errors() {
        let mut b = TestBuilder::new("iv");
        b.thread().load("EAX", "x");
        b.init("nope", 7);
        b.reg_cond(0, "EAX", 7);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::UnknownLocation("nope".into())
        );
    }

    #[test]
    fn xchg_counts_as_load_and_store() {
        let mut b = TestBuilder::new("x");
        b.thread().xchg("EAX", "x", 1);
        b.thread().load("EBX", "x");
        b.reg_cond(1, "EBX", 1);
        let t = b.build().unwrap();
        assert_eq!(t.load_threads().len(), 2);
        assert_eq!(t.stores_to(t.location_id("x").unwrap()).len(), 1);
        assert_eq!(t.reads_per_thread(), vec![1, 1]);
    }
}
