//! State-space exploration of the operational machines for every supported
//! memory model.
//!
//! The machine shape is selected by [`ModelId::policy`]: SC applies stores
//! directly, TSO buffers them in a per-thread FIFO, PSO drains the buffer
//! oldest-per-location, and the relaxed model additionally issues
//! instructions out of program order (only same-location order, register
//! dependencies, and fences constrain issue).

use std::collections::{BTreeSet, HashSet};

use perple_model::{Instr, LitmusTest, ModelId, Outcome, RegId, ThreadId};

/// One machine configuration during exploration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Number of issued instructions per thread.
    pc: Vec<u8>,
    /// Issued-instruction bitmask per thread. Only the relaxed model issues
    /// out of program order, but the mask is maintained uniformly (for
    /// in-order models it is always the `pc`-length prefix, so state
    /// identity — and hence `states_explored` — is unchanged).
    issued: Vec<u64>,
    /// Per-thread FIFO store buffer, oldest first. Always empty under SC.
    buffers: Vec<Vec<(u8, u32)>>,
    mem: Vec<u32>,
    regs: Vec<Vec<u32>>,
}

impl State {
    fn initial(test: &LitmusTest) -> Self {
        State {
            pc: vec![0; test.thread_count()],
            issued: vec![0; test.thread_count()],
            buffers: vec![Vec::new(); test.thread_count()],
            mem: test.init_values().to_vec(),
            regs: test
                .threads()
                .iter()
                .enumerate()
                .map(|(t, _)| {
                    let nregs = test
                        .thread(ThreadId(t as u8))
                        .iter()
                        .filter_map(|i| i.load_target())
                        .map(|(r, _)| r.index() + 1)
                        .max()
                        .unwrap_or(0);
                    vec![0; nregs]
                })
                .collect(),
        }
    }

    fn is_final(&self, test: &LitmusTest) -> bool {
        self.pc
            .iter()
            .enumerate()
            .all(|(t, &pc)| pc as usize == test.thread(ThreadId(t as u8)).len())
            && self.buffers.iter().all(Vec::is_empty)
    }

    fn is_issued(&self, t: usize, i: usize) -> bool {
        self.issued[t] & (1u64 << i) != 0
    }

    /// Value a load of `loc` observes for thread `t`: newest buffered store
    /// to `loc` (forwarding) or memory.
    fn read(&self, t: usize, loc: usize) -> u32 {
        self.buffers[t]
            .iter()
            .rev()
            .find(|&&(l, _)| l as usize == loc)
            .map(|&(_, v)| v)
            .unwrap_or(self.mem[loc])
    }
}

/// The set of executions (register valuation plus final memory) reachable
/// for one test under one memory model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionSet {
    model: ModelId,
    executions: BTreeSet<(Outcome, Vec<u32>)>,
    states_explored: usize,
}

impl ExecutionSet {
    /// The model the set was enumerated under.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// All `(registers, final memory)` executions.
    pub fn executions(&self) -> impl Iterator<Item = &(Outcome, Vec<u32>)> {
        self.executions.iter()
    }

    /// Number of distinct final executions.
    pub fn len(&self) -> usize {
        self.executions.len()
    }

    /// True if no execution terminates (cannot happen for well-formed
    /// litmus tests).
    pub fn is_empty(&self) -> bool {
        self.executions.is_empty()
    }

    /// Number of machine states visited during enumeration.
    pub fn states_explored(&self) -> usize {
        self.states_explored
    }

    /// The distinct register valuations, ignoring final memory.
    pub fn register_outcomes(&self) -> BTreeSet<Outcome> {
        self.executions.iter().map(|(o, _)| o.clone()).collect()
    }

    /// True if some execution satisfies the test's condition.
    pub fn condition_reachable(&self, test: &LitmusTest) -> bool {
        self.executions
            .iter()
            .any(|(o, mem)| test.target().matches(o, mem))
    }
}

/// Exhaustively enumerates all executions of `test` under `model`.
///
/// The search memoizes machine states; litmus-scale tests (≤ 4 threads,
/// ≤ 6 instructions each) finish in well under a millisecond.
pub fn enumerate(test: &LitmusTest, model: ModelId) -> ExecutionSet {
    for t in 0..test.thread_count() {
        assert!(
            test.thread(ThreadId(t as u8)).len() <= 64,
            "issue bitmask holds at most 64 instructions per thread"
        );
    }
    let mut visited: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial(test)];
    let mut executions = BTreeSet::new();
    let load_regs: Vec<(ThreadId, RegId)> = test
        .load_slots()
        .iter()
        .map(|s| (s.thread, s.reg))
        .collect();

    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if state.is_final(test) {
            let mut outcome = Outcome::new();
            for &(t, r) in &load_regs {
                outcome.set(t, r, state.regs[t.index()][r.index()]);
            }
            executions.insert((outcome, state.mem.clone()));
            continue;
        }
        for next in successors(test, &state, model) {
            if !visited.contains(&next) {
                stack.push(next);
            }
        }
    }

    ExecutionSet {
        model,
        executions,
        states_explored: visited.len(),
    }
}

fn successors(test: &LitmusTest, state: &State, model: ModelId) -> Vec<State> {
    let policy = model.policy();
    let mut out = Vec::new();
    for t in 0..test.thread_count() {
        let instrs = test.thread(ThreadId(t as u8));
        // Drain buffered stores (buffers stay empty under SC). A plain FIFO
        // drains strictly from the head; a per-location FIFO may drain the
        // oldest entry of *any* location, so different-location stores
        // reach memory out of order.
        if policy.per_location_drain {
            let mut seen_locs = Vec::new();
            for (i, &(loc, v)) in state.buffers[t].iter().enumerate() {
                if seen_locs.contains(&loc) {
                    continue; // only the oldest entry per location
                }
                seen_locs.push(loc);
                let mut s = state.clone();
                s.buffers[t].remove(i);
                s.mem[loc as usize] = v;
                out.push(s);
            }
        } else if let Some(&(loc, v)) = state.buffers[t].first() {
            let mut s = state.clone();
            s.buffers[t].remove(0);
            s.mem[loc as usize] = v;
            out.push(s);
        }
        if policy.out_of_order_issue {
            for i in 0..instrs.len() {
                if !state.is_issued(t, i) && relaxed_eligible(instrs, state, t, i) {
                    out.push(issue(state, t, i, &instrs[i], policy.buffered_stores));
                }
            }
        } else {
            let pc = state.pc[t] as usize;
            if pc < instrs.len() {
                let blocked = instrs[pc].is_fence() && !state.buffers[t].is_empty();
                if !blocked {
                    out.push(issue(state, t, pc, &instrs[pc], policy.buffered_stores));
                }
            }
        }
    }
    out
}

/// Executes instruction `i` of thread `t` (already known eligible).
fn issue(state: &State, t: usize, i: usize, instr: &Instr, buffered: bool) -> State {
    let mut s = state.clone();
    s.pc[t] += 1;
    s.issued[t] |= 1u64 << i;
    match *instr {
        Instr::Store { loc, value } => {
            if buffered {
                s.buffers[t].push((loc.0, value));
            } else {
                s.mem[loc.index()] = value;
            }
        }
        Instr::Load { reg, loc } => {
            s.regs[t][reg.index()] = state.read(t, loc.index());
        }
        Instr::Mfence => {}
        Instr::Xchg { reg, loc, value } => {
            // Eligibility guarantees an empty buffer: the locked exchange
            // reads memory (never forwards) and writes it atomically.
            s.regs[t][reg.index()] = state.mem[loc.index()];
            s.mem[loc.index()] = value;
        }
    }
    s
}

/// Out-of-order issue eligibility for the relaxed model: fences and locked
/// instructions are full barriers (everything earlier issued, buffer
/// empty); memory accesses wait only for earlier unissued fences,
/// same-location accesses, and same-register writers.
fn relaxed_eligible(instrs: &[Instr], state: &State, t: usize, i: usize) -> bool {
    match instrs[i] {
        Instr::Mfence | Instr::Xchg { .. } => {
            let earlier = (1u64 << i) - 1;
            state.issued[t] & earlier == earlier && state.buffers[t].is_empty()
        }
        Instr::Store { loc, .. } | Instr::Load { loc, .. } => {
            for (j, earlier) in instrs.iter().enumerate().take(i) {
                if state.is_issued(t, j) {
                    continue;
                }
                match *earlier {
                    // Barriers order everything across them.
                    Instr::Mfence | Instr::Xchg { .. } => return false,
                    // Same-location accesses issue in program order
                    // (coherence); forwarding still lets a load overtake a
                    // same-location store *globally* once issued.
                    Instr::Store { loc: l, .. } | Instr::Load { loc: l, .. } if l == loc => {
                        return false
                    }
                    _ => {}
                }
            }
            if let Instr::Load { reg, .. } = instrs[i] {
                // Same-register writers keep program order so the final
                // register valuation is the program-order-last load.
                for (j, earlier) in instrs.iter().enumerate().take(i) {
                    if !state.is_issued(t, j)
                        && earlier.load_target().is_some_and(|(r, _)| r == reg)
                    {
                        return false;
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_model::suite;
    use perple_model::TestBuilder;

    #[test]
    fn sb_under_sc_has_three_outcomes() {
        let sb = suite::sb();
        let sc = enumerate(&sb, ModelId::Sc);
        let labels: Vec<String> = sc.register_outcomes().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["01", "10", "11"]);
    }

    #[test]
    fn sb_under_tso_has_all_four_outcomes() {
        let sb = suite::sb();
        let tso = enumerate(&sb, ModelId::Tso);
        let labels: Vec<String> = tso.register_outcomes().iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["00", "01", "10", "11"]);
    }

    #[test]
    fn fenced_sb_loses_the_weak_outcome() {
        let amd5 = suite::amd5();
        let tso = enumerate(&amd5, ModelId::Tso);
        assert!(!tso.register_outcomes().iter().any(|o| o.label() == "00"));
    }

    #[test]
    fn forwarding_reads_own_buffered_store() {
        // P0: x=1; EAX=x — under TSO the load must forward 1 even while the
        // store sits in the buffer; EAX=0 is unreachable.
        let mut b = TestBuilder::new("fwd");
        b.thread().store("x", 1).load("EAX", "x");
        b.reg_cond(0, "EAX", 0);
        let t = b.build().unwrap();
        let tso = enumerate(&t, ModelId::Tso);
        assert_eq!(tso.register_outcomes().len(), 1);
        assert!(!tso.condition_reachable(&t));
    }

    #[test]
    fn xchg_reads_memory_not_buffer() {
        // The locked exchange waits for the buffer to drain; it always reads
        // the pre-exchange memory value.
        let mut b = TestBuilder::new("x");
        b.thread().store("y", 5).xchg("EAX", "x", 1);
        b.reg_cond(0, "EAX", 0);
        let t = b.build().unwrap();
        let tso = enumerate(&t, ModelId::Tso);
        assert!(tso.condition_reachable(&t));
        // Final memory must contain both stores.
        for (_, mem) in tso.executions() {
            assert_eq!(mem, &vec![5, 1]);
        }
    }

    #[test]
    fn final_memory_reflects_write_serialization() {
        let mut b = TestBuilder::new("co");
        b.thread().store("x", 1);
        b.thread().store("x", 2);
        b.mem_cond("x", 1);
        let t = b.build().unwrap();
        let tso = enumerate(&t, ModelId::Tso);
        let finals: BTreeSet<Vec<u32>> = tso.executions().map(|(_, m)| m.clone()).collect();
        assert_eq!(finals, BTreeSet::from([vec![1], vec![2]]));
        assert!(tso.condition_reachable(&t));
    }

    #[test]
    fn buffers_drain_before_termination() {
        // A store-only test must leave its value in memory.
        let mut b = TestBuilder::new("drain");
        b.thread().store("x", 1);
        b.mem_cond("x", 1);
        let t = b.build().unwrap();
        let tso = enumerate(&t, ModelId::Tso);
        assert_eq!(tso.len(), 1);
        assert!(tso.condition_reachable(&t));
    }

    #[test]
    fn state_counts_are_reported() {
        let sb = suite::sb();
        let tso = enumerate(&sb, ModelId::Tso);
        assert!(tso.states_explored() > 10);
        assert!(!tso.is_empty());
        assert_eq!(tso.model(), ModelId::Tso);
        assert_eq!(ModelId::Tso.to_string(), "TSO");
        assert_eq!(ModelId::Sc.to_string(), "SC");
    }

    #[test]
    fn pso_allows_store_store_reordering() {
        // mp's target needs the producer's stores to reorder: forbidden
        // under TSO, allowed under PSO.
        let mp = suite::mp();
        let tso = enumerate(&mp, ModelId::Tso);
        let pso = enumerate(&mp, ModelId::Pso);
        assert!(!tso.condition_reachable(&mp));
        assert!(pso.condition_reachable(&mp));
    }

    #[test]
    fn outcome_sets_nest_along_the_model_lattice() {
        // SC ⊆ TSO ⊆ PSO ⊆ relaxed, on every convertible test.
        for test in suite::convertible() {
            let sets: Vec<_> = ModelId::ALL
                .iter()
                .map(|&m| enumerate(&test, m).register_outcomes())
                .collect();
            for w in sets.windows(2) {
                assert!(w[0].is_subset(&w[1]), "{}", test.name());
            }
        }
    }

    #[test]
    fn pso_preserves_load_store_order_and_per_location_coherence() {
        // lb (load->store) stays forbidden, and so does single-location
        // reordering (per-location FIFO).
        let lb = suite::lb();
        assert!(!enumerate(&lb, ModelId::Pso).condition_reachable(&lb));
        let co = suite::co_iriw();
        assert!(!enumerate(&co, ModelId::Pso).condition_reachable(&co));
    }

    #[test]
    fn fences_still_restore_order_under_pso() {
        let safe022 = suite::safe022(); // mp with a producer-side fence
        assert!(!enumerate(&safe022, ModelId::Pso).condition_reachable(&safe022));
        assert_eq!(ModelId::Pso.to_string(), "PSO");
    }

    #[test]
    fn iriw_outcome_counts() {
        // iriw has 4 loads; TSO forbids the disagreeing outcome but allows
        // most others. SC allows strictly fewer.
        let t = suite::iriw();
        let sc = enumerate(&t, ModelId::Sc);
        let tso = enumerate(&t, ModelId::Tso);
        assert!(sc.register_outcomes().len() <= tso.register_outcomes().len());
        assert!(!tso.condition_reachable(&t));
        assert!(!sc.condition_reachable(&t));
    }

    #[test]
    fn relaxed_allows_load_buffering_and_iriw() {
        // The classic targets no in-order store-buffer machine can reach.
        let lb = suite::lb();
        assert!(enumerate(&lb, ModelId::Relaxed).condition_reachable(&lb));
        let iriw = suite::iriw();
        assert!(enumerate(&iriw, ModelId::Relaxed).condition_reachable(&iriw));
    }

    #[test]
    fn relaxed_keeps_coherence_and_fences() {
        // Same-location program order survives out-of-order issue…
        let co = suite::co_iriw();
        assert!(!enumerate(&co, ModelId::Relaxed).condition_reachable(&co));
        // …and a fully fenced sb stays forbidden (amd5 fences both sides).
        let amd5 = suite::amd5();
        assert!(!enumerate(&amd5, ModelId::Relaxed).condition_reachable(&amd5));
    }

    #[test]
    fn relaxed_respects_register_dependencies() {
        // Two loads into the same register must retire in program order:
        // the final value is the program-order-last load's.
        let mut b = TestBuilder::new("reload");
        b.thread().load("EAX", "x").load("EAX", "y");
        b.thread().store("x", 1).store("y", 2);
        b.reg_cond(0, "EAX", 1);
        let t = b.build().unwrap();
        let relaxed = enumerate(&t, ModelId::Relaxed);
        for (o, _) in relaxed.executions() {
            let v = o
                .get(ThreadId(0), perple_model::RegId(0))
                .expect("EAX valued");
            assert!(v == 0 || v == 2, "EAX={v} can only hold the second load");
        }
    }
}
