//! The stepping litmus machine: x86-TSO by default, model-parametric via
//! [`SimConfig::model`] (SC executes stores directly, PSO drains
//! oldest-per-location, relaxed additionally issues instructions out of
//! order). The TSO path makes exactly the PRNG draws the historical
//! hard-coded machine made, so default-model runs are bit-identical to
//! every pre-model golden digest.

use crate::budget::Budget;
use crate::config::SimConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::program::{SimOp, ThreadSpec};
use crate::rng::{Threshold, XorShiftStar};
use crate::trace::{Trace, TraceEvent, TraceKind};
use perple_model::ModelPolicy;
use perple_obs::metrics::{self as obs_metrics, Hist, Metric};
use perple_obs::trace as obs_trace;
use std::collections::VecDeque;

/// Cycles between watchdog polls in budgeted runs; a budgeted run overruns
/// its budget by at most this many cycles of simulation work.
const BUDGET_POLL_INTERVAL: u64 = 64;

/// Seed salt of the dedicated fault PRNG, so injection draws never perturb
/// the main scheduling stream (an empty plan is bit-identical to no plan).
const FAULT_SEED_SALT: u64 = 0xFA17_ED5E_ED00_0001;

/// Event sink the run loop is generic over: the no-trace case
/// monomorphizes to nothing.
trait Sink {
    fn emit(&mut self, cycle: u64, thread: usize, kind: TraceKind);
}

struct NoTrace;

impl Sink for NoTrace {
    #[inline(always)]
    fn emit(&mut self, _cycle: u64, _thread: usize, _kind: TraceKind) {}
}

impl Sink for &mut Trace {
    #[inline]
    fn emit(&mut self, cycle: u64, thread: usize, kind: TraceKind) {
        self.push(TraceEvent {
            cycle,
            thread,
            kind,
        });
    }
}

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Per-thread result buffers (`buf_t`): the values recorded by
    /// [`SimOp::Record`], `records_per_iteration` entries per iteration.
    pub bufs: Vec<Vec<u64>>,
    /// Total simulated cycles until every thread finished and every store
    /// buffer drained.
    pub cycles: u64,
    /// Final shared-memory contents.
    pub final_mem: Vec<u64>,
    /// Number of store-buffer drain events.
    pub drains: u64,
    /// Number of injected fault events (see `SimConfig::fault_plan`).
    pub faults: u64,
    /// False iff a watchdog budget expired and the run stopped early; a
    /// partial run's buffers are a prefix of the full run's buffers.
    pub complete: bool,
}

/// The simulated multi-core TSO machine.
///
/// Each simulated cycle, every non-blocked thread executes one timed
/// operation (synchronous-parallel cores); [`SimOp::Record`] bookkeeping is
/// free. Store buffers drain probabilistically each cycle. Threads suffer
/// random short stalls and rare long preemptions, which is what makes
/// free-running (perpetual) threads drift apart — the paper's thread skew.
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    rng: XorShiftStar,
    /// Dedicated injection PRNG (see [`FAULT_SEED_SALT`]).
    fault_rng: XorShiftStar,
}

struct ThreadState {
    index: usize,
    body: Vec<SimOp>,
    pc: usize,
    iter: u64,
    target: u64,
    start_delay: u64,
    blocked_until: u64,
    regs: Vec<u64>,
    buf: Vec<u64>,
    /// FIFO store buffer: (resolved cell, value), oldest first.
    buffer: VecDeque<(usize, u64)>,
    /// Bitmask of body indices issued this iteration (relaxed model only;
    /// in-order models leave it at zero and step by `pc`).
    issued: u64,
    /// The relaxed issue window's masks (empty for in-order models).
    window: IssueWindow,
    done: bool,
    /// Last iteration a stuck fault fired on, so a stall window is bounded
    /// to one firing per covered iteration (otherwise a probability-1 clause
    /// would re-trigger on wake-up forever and the run would never end).
    stuck_fired_iter: u64,
}

impl ThreadState {
    /// Done with its iterations and its store buffer: the thread makes no
    /// further draws and never changes again.
    fn finished(&self) -> bool {
        self.done && self.buffer.is_empty()
    }
}

/// The relaxed model's issue window as bitmasks over body indices, built
/// once per run so a step picks its op with a few mask operations instead
/// of allocating and rescanning the body.
#[derive(Default)]
struct IssueWindow {
    /// Every op of the body.
    all: u64,
    /// `Record` ops: retired for free, in program order.
    records: u64,
    /// Stores: they need buffer headroom.
    stores: u64,
    /// `MFENCE` and `XCHG`: they need an empty buffer.
    barriers: u64,
    /// Per op, the earlier ops that must have issued before it may (see
    /// [`fill_blockers`]).
    blockers: Vec<u64>,
    /// True if the same-cell relation between two ops changes with the
    /// iteration (memory ops with different strides), so `blockers` is
    /// recomputed whenever the thread enters an iteration. Fixed-address
    /// bodies — every perpetual body — and uniformly strided ones compute
    /// it once per run.
    per_iteration: bool,
}

impl IssueWindow {
    fn new(body: &[SimOp]) -> Self {
        let mut w = IssueWindow {
            all: u64::MAX >> (64 - body.len()),
            blockers: vec![0; body.len()],
            ..IssueWindow::default()
        };
        let mut stride = None;
        for (i, op) in body.iter().enumerate() {
            let addr = match *op {
                SimOp::Record { .. } => {
                    w.records |= 1 << i;
                    continue;
                }
                SimOp::Mfence => {
                    w.barriers |= 1 << i;
                    continue;
                }
                SimOp::Xchg { addr, .. } => {
                    w.barriers |= 1 << i;
                    addr
                }
                SimOp::Store { addr, .. } => {
                    w.stores |= 1 << i;
                    addr
                }
                SimOp::Load { addr, .. } => addr,
            };
            w.per_iteration |= *stride.get_or_insert(addr.stride) != addr.stride;
        }
        fill_blockers(body, 0, &mut w.blockers);
        w
    }
}

/// The cell a memory op touches in iteration `iter`, if it is one.
fn op_cell(op: SimOp, iter: u64) -> Option<usize> {
    match op {
        SimOp::Store { addr, .. } | SimOp::Load { addr, .. } | SimOp::Xchg { addr, .. } => {
            Some(addr.resolve(iter))
        }
        SimOp::Record { .. } | SimOp::Mfence => None,
    }
}

/// Fills `blockers[i]` with the earlier ops op `i` waits for in iteration
/// `iter` under the relaxed model:
///
/// * `MFENCE`/`XCHG` wait for every earlier op (plus an empty buffer,
///   checked at issue);
/// * a store or load waits for earlier fences and locked ops and for
///   earlier accesses to the same cell; a load also waits for earlier
///   writers of its register and earlier `Record`s of it, so loads into
///   one register keep program order and every record captures the value
///   of its own latest earlier writer;
/// * a `Record` waits for the latest earlier op writing its register;
///   records also retire in program order, which the step enforces by
///   only ever retiring the first unissued one.
fn fill_blockers(body: &[SimOp], iter: u64, blockers: &mut [u64]) {
    for (i, &op) in body.iter().enumerate() {
        let earlier = &body[..i];
        blockers[i] = match op {
            SimOp::Mfence | SimOp::Xchg { .. } => (1 << i) - 1,
            SimOp::Record { reg } => earlier
                .iter()
                .rposition(|&e| writes_reg(e, reg))
                .map_or(0, |j| 1 << j),
            SimOp::Store { .. } | SimOp::Load { .. } => {
                let cell = op_cell(op, iter);
                let load_reg = match op {
                    SimOp::Load { reg, .. } => Some(reg),
                    _ => None,
                };
                let mut mask = 0;
                for (j, &e) in earlier.iter().enumerate() {
                    let blocks = match e {
                        SimOp::Mfence | SimOp::Xchg { .. } => true,
                        SimOp::Store { .. } => op_cell(e, iter) == cell,
                        SimOp::Load { reg, .. } => {
                            op_cell(e, iter) == cell || load_reg == Some(reg)
                        }
                        SimOp::Record { reg } => load_reg == Some(reg),
                    };
                    if blocks {
                        mask |= 1 << j;
                    }
                }
                mask
            }
        };
    }
}

/// True if `op` writes register `reg`.
fn writes_reg(op: SimOp, reg: u8) -> bool {
    matches!(op, SimOp::Load { reg: r, .. } | SimOp::Xchg { reg: r, .. } if r == reg)
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let rng = XorShiftStar::new(config.seed);
        let fault_rng = XorShiftStar::new(config.seed ^ FAULT_SEED_SALT);
        Self {
            config,
            rng,
            fault_rng,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Reseeds the internal PRNGs (e.g. to decorrelate successive runs
    /// while keeping them reproducible).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = XorShiftStar::new(seed);
        self.fault_rng = XorShiftStar::new(seed ^ FAULT_SEED_SALT);
    }

    /// Runs every thread to completion over a shared memory of `mem_cells`
    /// zero-initialized cells and returns the recorded buffers plus timing.
    ///
    /// # Panics
    ///
    /// Panics if a thread body is empty with a non-zero iteration count, or
    /// if an address resolves outside `mem_cells`.
    pub fn run(&mut self, threads: &[ThreadSpec], mem_cells: usize) -> RunOutput {
        self.run_with_init(threads, &vec![0u64; mem_cells])
    }

    /// Like [`Machine::run`] but with explicit initial memory contents.
    pub fn run_with_init(&mut self, threads: &[ThreadSpec], init_mem: &[u64]) -> RunOutput {
        self.run_impl(threads, init_mem, &mut NoTrace, None)
    }

    /// Like [`Machine::run`] but polling `budget` every
    /// [`BUDGET_POLL_INTERVAL`] cycles. If the budget expires the run stops
    /// early with `complete == false`; everything executed up to that point
    /// is identical to the corresponding unbudgeted run, so the partial
    /// buffers are exact prefixes of the full run's buffers.
    pub fn run_budgeted(
        &mut self,
        threads: &[ThreadSpec],
        mem_cells: usize,
        budget: &Budget,
    ) -> RunOutput {
        let init = vec![0u64; mem_cells];
        self.run_impl(threads, &init, &mut NoTrace, Some(budget))
    }

    /// Like [`Machine::run`], additionally recording an event log into
    /// `trace`. Tracing never perturbs execution: a traced run is
    /// bit-identical to an untraced run with the same seed.
    pub fn run_traced(
        &mut self,
        threads: &[ThreadSpec],
        mem_cells: usize,
        trace: &mut Trace,
    ) -> RunOutput {
        let init = vec![0u64; mem_cells];
        let mut sink = trace;
        self.run_impl(threads, &init, &mut sink, None)
    }

    fn run_impl<S: Sink>(
        &mut self,
        threads: &[ThreadSpec],
        init_mem: &[u64],
        sink: &mut S,
        budget: Option<&Budget>,
    ) -> RunOutput {
        let _span = obs_trace::span("simulate");
        let policy = self.config.model.policy();
        for t in threads {
            assert!(
                !t.body.is_empty() || t.iterations == 0,
                "non-trivial thread must have a body"
            );
            assert!(
                !policy.out_of_order_issue || t.body.len() <= 64,
                "relaxed issue window tracks at most 64 ops per iteration"
            );
        }
        let mut mem = init_mem.to_vec();
        let mut states: Vec<ThreadState> = threads
            .iter()
            .enumerate()
            .map(|(index, spec)| ThreadState {
                index,
                body: spec.body.clone(),
                pc: 0,
                iter: 0,
                target: spec.iterations,
                start_delay: spec.start_delay,
                blocked_until: 0,
                regs: vec![0; spec.register_count()],
                buf: Vec::with_capacity(
                    (spec.records_per_iteration() as u64 * spec.iterations) as usize,
                ),
                buffer: VecDeque::with_capacity(self.config.buffer_capacity),
                issued: 0,
                window: if policy.out_of_order_issue && !spec.body.is_empty() {
                    IssueWindow::new(&spec.body)
                } else {
                    IssueWindow::default()
                },
                done: spec.iterations == 0,
                stuck_fired_iter: u64::MAX,
            })
            .collect();

        // The run loop works on locals: integer thresholds for the four
        // per-cycle draws (draw-for-draw equal to `chance`, see the rng
        // module) and both PRNGs, written back when the loop ends.
        let config = &self.config;
        let p_drain = Threshold::new(config.drain_prob);
        let p_preempt = Threshold::new(config.preempt_prob);
        let p_micro_preempt = Threshold::new(config.micro_preempt_prob);
        let p_stall = Threshold::new(config.stall_prob);
        let per_location_drain = config.weak_store_order || policy.per_location_drain;
        let fault_plan = &config.fault_plan;
        let mut rng = self.rng.clone();
        let mut fault_rng = self.fault_rng.clone();

        let mut live = states.iter().filter(|s| !s.finished()).count();
        let mut cycle: u64 = 0;
        let mut drains: u64 = 0;
        let mut faults: u64 = 0;
        let mut preempts: u64 = 0;
        let mut micro_preempts: u64 = 0;
        let mut stalls: u64 = 0;
        let mut complete = true;
        while live > 0 {
            if let Some(b) = budget {
                if cycle.is_multiple_of(BUDGET_POLL_INTERVAL) && b.expired() {
                    complete = false;
                    break;
                }
            }
            cycle += 1;

            for s in states.iter_mut() {
                // A finished thread would draw nothing this cycle.
                if s.finished() {
                    continue;
                }
                'thread: {
                    // Drain the oldest buffered store with configured
                    // probability; drains continue after the thread retires.
                    let tid = s.index;
                    if !s.buffer.is_empty() && rng.hits(p_drain) {
                        let idx = if s.buffer.len() > 1 && per_location_drain {
                            // PSO-like machine: drain the oldest entry of a
                            // random location (per-location FIFO preserved).
                            random_location_head(&s.buffer, &mut rng)
                        } else if s.buffer.len() > 1
                            && fault_plan
                                .reorder_fault(tid, s.iter)
                                .is_some_and(|spec| fault_rng.chance(spec.prob))
                        {
                            // Reorder burst: the same PSO drain, but scoped
                            // to the fault window and drawn from the fault
                            // PRNG.
                            faults += 1;
                            sink.emit(cycle, tid, TraceKind::Fault { kind: "reorder" });
                            random_location_head(&s.buffer, &mut fault_rng)
                        } else {
                            0
                        };
                        // Invariant: a drain is only scheduled when the
                        // buffer is non-empty, and both index choices above
                        // are bounded by `buffer.len()`.
                        let (cell, v) = if idx == 0 {
                            s.buffer.pop_front()
                        } else {
                            s.buffer.remove(idx)
                        }
                        .expect("non-empty buffer");
                        mem[cell] = v;
                        drains += 1;
                        sink.emit(cycle, tid, TraceKind::Drain { cell, value: v });
                    }

                    if s.done || cycle < s.start_delay || cycle < s.blocked_until {
                        break 'thread;
                    }
                    if let Some(spec) = fault_plan.stuck_fault(tid, s.iter) {
                        if s.stuck_fired_iter != s.iter && fault_rng.chance(spec.prob) {
                            let stall = match spec.kind {
                                FaultKind::StuckThread { stall } => stall,
                                // stuck_fault only yields StuckThread clauses.
                                _ => unreachable!("stuck_fault returned a non-stuck clause"),
                            };
                            s.stuck_fired_iter = s.iter;
                            s.blocked_until = cycle + stall;
                            faults += 1;
                            sink.emit(cycle, tid, TraceKind::Fault { kind: "stuck" });
                            sink.emit(
                                cycle,
                                tid,
                                TraceKind::Blocked {
                                    until: s.blocked_until,
                                },
                            );
                            break 'thread;
                        }
                    }
                    if rng.hits(p_preempt) {
                        s.blocked_until = cycle + rng.duration(config.mean_preempt);
                        preempts += 1;
                        sink.emit(
                            cycle,
                            tid,
                            TraceKind::Blocked {
                                until: s.blocked_until,
                            },
                        );
                        break 'thread;
                    }
                    if rng.hits(p_micro_preempt) {
                        s.blocked_until = cycle + rng.duration(config.mean_micro_preempt);
                        micro_preempts += 1;
                        sink.emit(
                            cycle,
                            tid,
                            TraceKind::Blocked {
                                until: s.blocked_until,
                            },
                        );
                        break 'thread;
                    }
                    if rng.hits(p_stall) {
                        s.blocked_until = cycle + rng.duration(config.mean_stall);
                        stalls += 1;
                        break 'thread;
                    }
                    if policy.out_of_order_issue {
                        step_thread_relaxed(
                            s,
                            &mut mem,
                            config.buffer_capacity,
                            cycle,
                            sink,
                            fault_plan,
                            &mut rng,
                            &mut fault_rng,
                            &mut faults,
                        );
                    } else {
                        step_thread(
                            s,
                            &mut mem,
                            config.buffer_capacity,
                            cycle,
                            sink,
                            fault_plan,
                            &mut fault_rng,
                            &mut faults,
                            policy,
                        );
                    }
                }
                if s.finished() {
                    live -= 1;
                }
            }
        }
        self.rng = rng;
        self.fault_rng = fault_rng;

        // One metrics flush per run (not per cycle): the hot loop only
        // bumps local integers, and observability stays write-only, so a
        // metered run is bit-identical to an unmetered one.
        obs_metrics::add(Metric::SimStoreBufferFlushes, drains);
        obs_metrics::add(Metric::SimPreemptions, preempts);
        obs_metrics::add(Metric::SimMicroPreemptions, micro_preempts);
        obs_metrics::add(Metric::SimStalls, stalls);
        obs_metrics::add(Metric::SimSchedulerCycles, cycle);
        obs_metrics::add(Metric::SimFaultInjections, faults);
        obs_metrics::add(Metric::SimRuns, 1);
        obs_metrics::observe(Hist::SimRunCycles, cycle);

        RunOutput {
            bufs: states
                .iter_mut()
                .map(|s| std::mem::take(&mut s.buf))
                .collect(),
            cycles: cycle,
            final_mem: mem,
            drains,
            faults,
            complete,
        }
    }
}

/// Index of the oldest buffered store of a uniformly random location
/// (per-location FIFO order is preserved; cross-location order is not).
/// One `below` draw over the number of distinct locations, then the k-th
/// first occurrence, found in place.
fn random_location_head(buffer: &VecDeque<(usize, u64)>, rng: &mut XorShiftStar) -> usize {
    let is_head = |i: usize| {
        let cell = buffer[i].0;
        buffer.range(..i).all(|&(c, _)| c != cell)
    };
    let heads = (0..buffer.len()).filter(|&i| is_head(i)).count();
    let k = rng.below(heads as u64) as usize;
    (0..buffer.len())
        .filter(|&i| is_head(i))
        .nth(k)
        .expect("k < number of heads")
}

/// Executes free `Record` ops and then at most one timed op for the thread
/// (the in-order models: SC stores write memory directly, buffered models
/// go through the store buffer).
#[allow(clippy::too_many_arguments)]
fn step_thread<S: Sink>(
    s: &mut ThreadState,
    mem: &mut [u64],
    buffer_capacity: usize,
    cycle: u64,
    sink: &mut S,
    fault_plan: &FaultPlan,
    fault_rng: &mut XorShiftStar,
    faults: &mut u64,
    policy: ModelPolicy,
) {
    // Process at most one full body of free ops to guard against
    // record-only bodies spinning forever within one cycle.
    let mut free_budget = s.body.len();
    loop {
        if s.done {
            return;
        }
        match s.body[s.pc] {
            SimOp::Record { reg } => {
                s.buf.push(s.regs[reg as usize]);
                advance(s);
                free_budget -= 1;
                if free_budget == 0 {
                    return;
                }
            }
            SimOp::Store { addr, expr } => {
                if s.buffer.len() < buffer_capacity {
                    let cell = addr.resolve(s.iter);
                    let mut value = expr.eval(s.iter);
                    if let Some(spec) = fault_plan.store_fault(s.index, s.iter) {
                        if fault_rng.chance(spec.prob) {
                            *faults += 1;
                            sink.emit(
                                cycle,
                                s.index,
                                TraceKind::Fault {
                                    kind: spec.kind.name(),
                                },
                            );
                            if spec.kind == FaultKind::DropStore {
                                // The store retires without ever being
                                // buffered: a lost write.
                                advance(s);
                                return;
                            }
                            // CorruptStore: perturb the value off its
                            // arithmetic sequence (wrong residue).
                            value = value.wrapping_add(1 + fault_rng.below(3));
                        }
                    }
                    if policy.buffered_stores {
                        s.buffer.push_back((cell, value));
                        sink.emit(cycle, s.index, TraceKind::StoreBuffered { cell, value });
                    } else {
                        // SC: the store is globally visible at once.
                        mem[cell] = value;
                        sink.emit(cycle, s.index, TraceKind::Drain { cell, value });
                    }
                    advance(s);
                }
                return;
            }
            SimOp::Load { reg, addr } => {
                let cell = addr.resolve(s.iter);
                // Store forwarding: newest buffered store to the same cell.
                let buffered = s.buffer.iter().rev().find(|&&(c, _)| c == cell);
                let forwarded = buffered.is_some();
                let v = buffered.map(|&(_, v)| v).unwrap_or(mem[cell]);
                s.regs[reg as usize] = v;
                sink.emit(
                    cycle,
                    s.index,
                    TraceKind::Load {
                        cell,
                        value: v,
                        forwarded,
                    },
                );
                advance(s);
                return;
            }
            SimOp::Mfence => {
                if s.buffer.is_empty() {
                    sink.emit(cycle, s.index, TraceKind::Fence);
                    advance(s);
                }
                return;
            }
            SimOp::Xchg { reg, addr, expr } => {
                if s.buffer.is_empty() {
                    let cell = addr.resolve(s.iter);
                    let old = mem[cell];
                    let new = expr.eval(s.iter);
                    s.regs[reg as usize] = old;
                    mem[cell] = new;
                    sink.emit(cycle, s.index, TraceKind::Xchg { cell, old, new });
                    advance(s);
                }
                return;
            }
        }
    }
}

fn advance(s: &mut ThreadState) {
    s.pc += 1;
    if s.pc == s.body.len() {
        s.pc = 0;
        s.iter += 1;
        if s.iter >= s.target {
            s.done = true;
        }
    }
}

/// Marks body index `i` issued; when the whole iteration has issued, rolls
/// the thread into the next iteration (the relaxed-path `advance`).
fn mark_issued(s: &mut ThreadState, i: usize) {
    s.issued |= 1 << i;
    if s.issued == s.window.all {
        s.issued = 0;
        s.iter += 1;
        if s.iter >= s.target {
            s.done = true;
        } else if s.window.per_iteration {
            fill_blockers(&s.body, s.iter, &mut s.window.blockers);
        }
    }
}

/// The `k`-th (0-based) set bit of `mask`; `k < mask.count_ones()`.
fn nth_set_bit(mut mask: u64, k: u64) -> usize {
    for _ in 0..k {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

/// Relaxed-model thread step: retires eligible `Record`s for free, then
/// executes one timed op drawn uniformly from the issue window — any
/// unissued op whose blockers (see [`fill_blockers`]) have issued, given
/// buffer headroom for a store and an empty buffer for a fence or locked
/// op. This is what lets a store pass an earlier load (exposing lb) and
/// loads pass each other (exposing iriw); per-location buffer drains come
/// from the shared drain loop, as under PSO.
#[allow(clippy::too_many_arguments)]
fn step_thread_relaxed<S: Sink>(
    s: &mut ThreadState,
    mem: &mut [u64],
    buffer_capacity: usize,
    cycle: u64,
    sink: &mut S,
    fault_plan: &FaultPlan,
    rng: &mut XorShiftStar,
    fault_rng: &mut XorShiftStar,
    faults: &mut u64,
) {
    let mut free_budget = s.body.len();
    while free_budget > 0 && !s.done {
        // Records retire in program order: only the first unissued one may,
        // once its register's writer has issued.
        let pending = s.window.records & !s.issued;
        if pending == 0 {
            break;
        }
        let i = pending.trailing_zeros() as usize;
        if s.window.blockers[i] & !s.issued != 0 {
            break;
        }
        if let SimOp::Record { reg } = s.body[i] {
            s.buf.push(s.regs[reg as usize]);
        }
        mark_issued(s, i);
        free_budget -= 1;
    }
    if s.done {
        return;
    }
    let mut candidates = s.window.all & !s.window.records & !s.issued;
    if s.buffer.len() >= buffer_capacity {
        candidates &= !s.window.stores;
    }
    if !s.buffer.is_empty() {
        candidates &= !s.window.barriers;
    }
    let mut eligible = 0u64;
    while candidates != 0 {
        let i = candidates.trailing_zeros() as usize;
        candidates &= candidates - 1;
        if s.window.blockers[i] & !s.issued == 0 {
            eligible |= 1 << i;
        }
    }
    if eligible == 0 {
        return; // blocked on a fence / full buffer; drains will unblock us
    }
    let i = nth_set_bit(eligible, rng.below(eligible.count_ones() as u64));
    match s.body[i] {
        SimOp::Store { addr, expr } => {
            let cell = addr.resolve(s.iter);
            let mut value = expr.eval(s.iter);
            if let Some(spec) = fault_plan.store_fault(s.index, s.iter) {
                if fault_rng.chance(spec.prob) {
                    *faults += 1;
                    sink.emit(
                        cycle,
                        s.index,
                        TraceKind::Fault {
                            kind: spec.kind.name(),
                        },
                    );
                    if spec.kind == FaultKind::DropStore {
                        mark_issued(s, i);
                        return;
                    }
                    value = value.wrapping_add(1 + fault_rng.below(3));
                }
            }
            s.buffer.push_back((cell, value));
            sink.emit(cycle, s.index, TraceKind::StoreBuffered { cell, value });
        }
        SimOp::Load { reg, addr } => {
            let cell = addr.resolve(s.iter);
            let buffered = s.buffer.iter().rev().find(|&&(c, _)| c == cell);
            let forwarded = buffered.is_some();
            let v = buffered.map(|&(_, v)| v).unwrap_or(mem[cell]);
            s.regs[reg as usize] = v;
            sink.emit(
                cycle,
                s.index,
                TraceKind::Load {
                    cell,
                    value: v,
                    forwarded,
                },
            );
        }
        SimOp::Mfence => {
            sink.emit(cycle, s.index, TraceKind::Fence);
        }
        SimOp::Xchg { reg, addr, expr } => {
            let cell = addr.resolve(s.iter);
            let old = mem[cell];
            let new = expr.eval(s.iter);
            s.regs[reg as usize] = old;
            mem[cell] = new;
            sink.emit(cycle, s.index, TraceKind::Xchg { cell, old, new });
        }
        SimOp::Record { .. } => unreachable!("records issue on the free path"),
    }
    mark_issued(s, i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Addr, SimOp, ThreadSpec, ValExpr};

    fn perpetual_sb(iters: u64) -> Vec<ThreadSpec> {
        let body = |own: u32, other: u32| {
            vec![
                SimOp::Store {
                    addr: Addr::fixed(own),
                    expr: ValExpr::Seq { k: 1, a: 1 },
                },
                SimOp::Load {
                    reg: 0,
                    addr: Addr::fixed(other),
                },
                SimOp::Record { reg: 0 },
            ]
        };
        vec![
            ThreadSpec::new(body(0, 1), iters),
            ThreadSpec::new(body(1, 0), iters),
        ]
    }

    #[test]
    fn buffers_record_every_iteration() {
        let mut m = Machine::new(SimConfig::default().with_seed(1));
        let out = m.run(&perpetual_sb(500), 2);
        assert_eq!(out.bufs[0].len(), 500);
        assert_eq!(out.bufs[1].len(), 500);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut a = Machine::new(SimConfig::default().with_seed(99));
        let mut b = Machine::new(SimConfig::default().with_seed(99));
        let oa = a.run(&perpetual_sb(200), 2);
        let ob = b.run(&perpetual_sb(200), 2);
        assert_eq!(oa, ob);
        let mut c = Machine::new(SimConfig::default().with_seed(100));
        let oc = c.run(&perpetual_sb(200), 2);
        assert_ne!(oa.bufs, oc.bufs);
    }

    #[test]
    fn stored_values_form_arithmetic_sequences() {
        // Final memory must hold the last sequence element of each store.
        let mut m = Machine::new(SimConfig::default().with_seed(4));
        let out = m.run(&perpetual_sb(100), 2);
        assert_eq!(out.final_mem, vec![100, 100]); // k*(N-1)+1 = 100
    }

    #[test]
    fn loaded_values_never_exceed_the_partner_sequence() {
        let mut m = Machine::new(SimConfig::default().with_seed(7));
        let out = m.run(&perpetual_sb(1000), 2);
        for buf in &out.bufs {
            for &v in buf {
                assert!(v <= 1000);
            }
        }
    }

    #[test]
    fn weak_outcome_occurs_in_perpetual_sb() {
        // With lockstep-aligned threads and probabilistic drains, some
        // iteration pair must exhibit store buffering: both threads reading
        // a stale (smaller) value than the partner's same-frame store.
        let mut m = Machine::new(SimConfig::default().with_seed(12345));
        let out = m.run(&perpetual_sb(2000), 2);
        // The heuristic condition of the sb target (Figure 8):
        // buf1[buf0[n]] <= n.
        let (b0, b1) = (&out.bufs[0], &out.bufs[1]);
        let hits = (0..b0.len())
            .filter(|&n| {
                let m_idx = b0[n] as usize;
                m_idx < b1.len() && b1[m_idx] <= n as u64
            })
            .count();
        assert!(hits > 0, "no store-buffering frames observed");
    }

    #[test]
    fn mfence_forbids_the_weak_outcome_in_lockstep() {
        // Fenced sb: a load never executes while the own store is buffered,
        // so frames where both sides read strictly-older values than the
        // frame store cannot occur... verified via the exhaustive condition
        // on aligned iterations: never (buf0[n] <= m && buf1[m] <= n).
        let body = |own: u32, other: u32| {
            vec![
                SimOp::Store {
                    addr: Addr::fixed(own),
                    expr: ValExpr::Seq { k: 1, a: 1 },
                },
                SimOp::Mfence,
                SimOp::Load {
                    reg: 0,
                    addr: Addr::fixed(other),
                },
                SimOp::Record { reg: 0 },
            ]
        };
        let threads = vec![
            ThreadSpec::new(body(0, 1), 300),
            ThreadSpec::new(body(1, 0), 300),
        ];
        let mut m = Machine::new(SimConfig::default().with_seed(5));
        let out = m.run(&threads, 2);
        let (b0, b1) = (&out.bufs[0], &out.bufs[1]);
        for (n, &v0) in b0.iter().enumerate() {
            for (mi, &v1) in b1.iter().enumerate() {
                assert!(
                    !(v0 <= mi as u64 && v1 <= n as u64),
                    "forbidden sb frame ({n},{mi}) under mfence"
                );
            }
        }
    }

    #[test]
    fn xchg_is_atomic_and_fencing() {
        // Two threads exchanging on one cell: every old value observed must
        // be distinct (atomicity): no two xchgs may read the same value.
        let threads = vec![
            ThreadSpec::new(
                vec![
                    SimOp::Xchg {
                        reg: 0,
                        addr: Addr::fixed(0),
                        expr: ValExpr::Seq { k: 2, a: 1 },
                    },
                    SimOp::Record { reg: 0 },
                ],
                200,
            ),
            ThreadSpec::new(
                vec![
                    SimOp::Xchg {
                        reg: 0,
                        addr: Addr::fixed(0),
                        expr: ValExpr::Seq { k: 2, a: 2 },
                    },
                    SimOp::Record { reg: 0 },
                ],
                200,
            ),
        ];
        let mut m = Machine::new(SimConfig::default().with_seed(8));
        let out = m.run(&threads, 1);
        let mut seen = std::collections::HashSet::new();
        for buf in &out.bufs {
            for &v in buf {
                if v != 0 {
                    assert!(seen.insert(v), "value {v} read twice: lost atomicity");
                }
            }
        }
    }

    #[test]
    fn strided_addresses_isolate_iterations() {
        // litmus7-style per-iteration cells: iteration n writes cell 2n and
        // reads cell 2n+1; no interference across iterations.
        let body0 = vec![
            SimOp::Store {
                addr: Addr::strided(0, 2),
                expr: ValExpr::Const(1),
            },
            SimOp::Load {
                reg: 0,
                addr: Addr::strided(1, 2),
            },
            SimOp::Record { reg: 0 },
        ];
        let body1 = vec![
            SimOp::Store {
                addr: Addr::strided(1, 2),
                expr: ValExpr::Const(1),
            },
            SimOp::Load {
                reg: 0,
                addr: Addr::strided(0, 2),
            },
            SimOp::Record { reg: 0 },
        ];
        let threads = vec![ThreadSpec::new(body0, 50), ThreadSpec::new(body1, 50)];
        let mut m = Machine::new(SimConfig::default().with_seed(3));
        let out = m.run(&threads, 100);
        // Every cell ends at 1: each iteration's stores landed in its own pair.
        assert!(out.final_mem.iter().all(|&v| v == 1));
        for buf in &out.bufs {
            for &v in buf {
                assert!(v == 0 || v == 1);
            }
        }
    }

    #[test]
    fn start_delay_serializes_threads() {
        // With a huge start delay on thread 1, thread 0 finishes first and
        // thread 1 observes all its stores: no weak outcome possible.
        let body0 = vec![
            SimOp::Store {
                addr: Addr::fixed(0),
                expr: ValExpr::Const(1),
            },
            SimOp::Load {
                reg: 0,
                addr: Addr::fixed(1),
            },
            SimOp::Record { reg: 0 },
        ];
        let body1 = vec![
            SimOp::Store {
                addr: Addr::fixed(1),
                expr: ValExpr::Const(1),
            },
            SimOp::Load {
                reg: 0,
                addr: Addr::fixed(0),
            },
            SimOp::Record { reg: 0 },
        ];
        let threads = vec![
            ThreadSpec::new(body0, 1),
            ThreadSpec::new(body1, 1).with_start_delay(100_000),
        ];
        let mut m = Machine::new(SimConfig::default().with_seed(2));
        let out = m.run(&threads, 2);
        assert_eq!(out.bufs[1], vec![1], "delayed thread must see the store");
        assert!(out.cycles >= 100_000);
    }

    #[test]
    fn zero_iteration_threads_finish_immediately() {
        let threads = vec![ThreadSpec::new(vec![], 0)];
        let mut m = Machine::new(SimConfig::default());
        let out = m.run(&threads, 1);
        assert_eq!(out.bufs[0].len(), 0);
        assert_eq!(out.drains, 0);
    }

    #[test]
    fn drains_are_counted() {
        let mut m = Machine::new(SimConfig::default().with_seed(6));
        let out = m.run(&perpetual_sb(100), 2);
        assert_eq!(out.drains, 200, "every store must drain exactly once");
    }

    #[test]
    fn empty_and_non_covering_plans_change_nothing() {
        // A plan whose windows never cover an executed iteration makes zero
        // fault-PRNG draws, so the run is bit-identical to a plan-free run.
        let mut plain = Machine::new(SimConfig::default().with_seed(21));
        let base = plain.run(&perpetual_sb(100), 2);
        let plan = crate::FaultPlan::parse("drop@t0:5000..6000,stuck@*:9000..9001:c50").unwrap();
        let mut faulty = Machine::new(SimConfig::default().with_seed(21).with_fault_plan(plan));
        let out = faulty.run(&perpetual_sb(100), 2);
        assert_eq!(base, out);
        assert_eq!(out.faults, 0);
        assert!(out.complete);
    }

    #[test]
    fn dropped_stores_never_reach_memory() {
        let plan = crate::FaultPlan::parse("drop@t0:0..100").unwrap();
        let mut m = Machine::new(SimConfig::default().with_seed(33).with_fault_plan(plan));
        let out = m.run(&perpetual_sb(100), 2);
        assert_eq!(out.faults, 100, "every t0 store must drop");
        assert_eq!(out.drains, 100, "only t1's stores drain");
        assert_eq!(out.final_mem[0], 0, "t0's cell never written");
        assert_eq!(out.final_mem[1], 100);
        assert!(out.bufs[1].iter().all(|&v| v == 0), "t1 only sees zeros");
    }

    #[test]
    fn corrupted_stores_leave_the_sequence() {
        let plan = crate::FaultPlan::parse("corrupt@t0:0..100").unwrap();
        let mut m = Machine::new(SimConfig::default().with_seed(34).with_fault_plan(plan));
        let out = m.run(&perpetual_sb(100), 2);
        assert_eq!(out.faults, 100);
        // Last store was 100, corrupted by +1..=3.
        assert!(
            (101..=103).contains(&out.final_mem[0]),
            "mem[0] = {}",
            out.final_mem[0]
        );
        assert_eq!(out.final_mem[1], 100, "t1 unaffected");
    }

    #[test]
    fn stuck_thread_stalls_once_per_covered_iteration() {
        let plan = crate::FaultPlan::parse("stuck@t0:50..51:c50000").unwrap();
        let mut base = Machine::new(SimConfig::default().with_seed(35));
        let unfaulted = base.run(&perpetual_sb(100), 2);
        let mut m = Machine::new(SimConfig::default().with_seed(35).with_fault_plan(plan));
        let out = m.run(&perpetual_sb(100), 2);
        assert_eq!(out.faults, 1, "one firing for the one covered iteration");
        assert!(out.complete, "bounded stall: the run still terminates");
        assert!(
            out.cycles >= unfaulted.cycles + 40_000,
            "stall must inflate the run: {} vs {}",
            out.cycles,
            unfaulted.cycles
        );
        assert_eq!(out.bufs[0].len(), 100, "all iterations still complete");
    }

    #[test]
    fn reorder_burst_fires_within_its_window() {
        // Two stores to different cells per iteration keep the buffer
        // multi-location, so burst drains can pick a non-FIFO head.
        let body = vec![
            SimOp::Store {
                addr: Addr::fixed(0),
                expr: ValExpr::Seq { k: 1, a: 1 },
            },
            SimOp::Store {
                addr: Addr::fixed(1),
                expr: ValExpr::Seq { k: 1, a: 1 },
            },
            SimOp::Record { reg: 0 },
        ];
        let threads = vec![ThreadSpec::new(body, 2000)];
        let plan = crate::FaultPlan::parse("reorder@t0:0..2000").unwrap();
        let mut m = Machine::new(SimConfig::default().with_seed(36).with_fault_plan(plan));
        let out = m.run(&threads, 2);
        assert!(out.faults > 0, "burst window covered the whole run");
        assert!(out.complete);
    }

    #[test]
    fn budgeted_run_with_unlimited_budget_matches_plain_run() {
        let mut a = Machine::new(SimConfig::default().with_seed(50));
        let plain = a.run(&perpetual_sb(200), 2);
        let mut b = Machine::new(SimConfig::default().with_seed(50));
        let budgeted = b.run_budgeted(&perpetual_sb(200), 2, &crate::Budget::unlimited());
        assert_eq!(plain, budgeted);
        assert!(budgeted.complete);
    }

    #[test]
    fn expired_budget_truncates_to_a_prefix() {
        let mut a = Machine::new(SimConfig::default().with_seed(51));
        let full = a.run(&perpetual_sb(500), 2);
        let mut b = Machine::new(SimConfig::default().with_seed(51));
        let part = b.run_budgeted(&perpetual_sb(500), 2, &crate::Budget::with_poll_limit(5));
        assert!(!part.complete, "tiny poll limit must expire mid-run");
        assert!(part.cycles < full.cycles);
        for (pb, fb) in part.bufs.iter().zip(&full.bufs) {
            assert!(pb.len() < fb.len());
            assert_eq!(
                pb.as_slice(),
                &fb[..pb.len()],
                "partial buf must be a prefix"
            );
        }
    }

    #[test]
    fn already_expired_budget_yields_empty_run() {
        let mut m = Machine::new(SimConfig::default().with_seed(52));
        let out = m.run_budgeted(&perpetual_sb(100), 2, &crate::Budget::with_poll_limit(0));
        assert!(!out.complete);
        assert_eq!(out.cycles, 0);
        assert!(out.bufs.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn tso_model_is_bit_identical_to_the_default() {
        use perple_model::ModelId;
        let mut plain = Machine::new(SimConfig::default().with_seed(77));
        let mut explicit =
            Machine::new(SimConfig::default().with_seed(77).with_model(ModelId::Tso));
        assert_eq!(
            plain.run(&perpetual_sb(300), 2),
            explicit.run(&perpetual_sb(300), 2)
        );
    }

    #[test]
    fn sc_machine_never_buffers_and_never_exhibits_sb() {
        use perple_model::ModelId;
        let mut m = Machine::new(
            SimConfig::default()
                .with_seed(12345)
                .with_model(ModelId::Sc),
        );
        let out = m.run(&perpetual_sb(2000), 2);
        assert_eq!(out.drains, 0, "SC stores bypass the buffer");
        // The sb weak outcome needs store buffering: under the exhaustive
        // condition no frame may show both loads strictly older than the
        // frame stores.
        let (b0, b1) = (&out.bufs[0], &out.bufs[1]);
        for (n, &v0) in b0.iter().enumerate() {
            for (mi, &v1) in b1.iter().enumerate() {
                assert!(
                    !(v0 <= mi as u64 && v1 <= n as u64),
                    "forbidden sb frame ({n},{mi}) on the SC machine"
                );
            }
        }
    }

    #[test]
    fn pso_model_reproduces_the_weak_store_order_machine() {
        use perple_model::ModelId;
        // The PSO model's drains take exactly the code path (and PRNG
        // draws) of the historical weak_store_order fault switch.
        let mut weak = Machine::new(
            SimConfig::default()
                .with_seed(64)
                .with_weak_store_order(true),
        );
        let mut pso = Machine::new(SimConfig::default().with_seed(64).with_model(ModelId::Pso));
        // Two-location stores so drains can actually reorder.
        let body = vec![
            SimOp::Store {
                addr: Addr::fixed(0),
                expr: ValExpr::Seq { k: 1, a: 1 },
            },
            SimOp::Store {
                addr: Addr::fixed(1),
                expr: ValExpr::Seq { k: 1, a: 1 },
            },
            SimOp::Record { reg: 0 },
        ];
        let threads = vec![ThreadSpec::new(body, 500)];
        assert_eq!(weak.run(&threads, 2), pso.run(&threads, 2));
    }

    #[test]
    fn relaxed_machine_reorders_loads_past_stores() {
        use perple_model::ModelId;
        // Perpetual lb-shaped body: load then store to different cells.
        // In-order models never let the store issue first; the relaxed
        // window does, which is what exposes load-buffering targets.
        let body = |own: u32, other: u32| {
            vec![
                SimOp::Load {
                    reg: 0,
                    addr: Addr::fixed(other),
                },
                SimOp::Record { reg: 0 },
                SimOp::Store {
                    addr: Addr::fixed(own),
                    expr: ValExpr::Seq { k: 1, a: 1 },
                },
            ]
        };
        let threads = vec![
            ThreadSpec::new(body(0, 1), 2000),
            ThreadSpec::new(body(1, 0), 2000),
        ];
        let mut m = Machine::new(
            SimConfig::default()
                .with_seed(9)
                .with_model(ModelId::Relaxed),
        );
        let out = m.run(&threads, 2);
        // lb fires when some frame shows both loads reading the partner's
        // same-or-later iteration store: v0 > m and v1 > n for frame (n,m)
        // — with the heuristic frame m = v0 - 1 that is v1 >= n + 1.
        let (b0, b1) = (&out.bufs[0], &out.bufs[1]);
        let hits = (0..b0.len())
            .filter(|&n| {
                let v0 = b0[n];
                v0 > 0 && (v0 as usize - 1) < b1.len() && b1[v0 as usize - 1] > n as u64
            })
            .count();
        assert!(hits > 0, "relaxed machine must expose load buffering");
        assert_eq!(out.bufs[0].len(), 2000, "every iteration still records");
    }

    #[test]
    fn relaxed_machine_respects_fences_and_coherence() {
        use perple_model::ModelId;
        // Fenced sb stays forbidden even under the relaxed model: MFENCE
        // is a full barrier in the issue window and drains the buffer.
        let body = |own: u32, other: u32| {
            vec![
                SimOp::Store {
                    addr: Addr::fixed(own),
                    expr: ValExpr::Seq { k: 1, a: 1 },
                },
                SimOp::Mfence,
                SimOp::Load {
                    reg: 0,
                    addr: Addr::fixed(other),
                },
                SimOp::Record { reg: 0 },
            ]
        };
        let threads = vec![
            ThreadSpec::new(body(0, 1), 400),
            ThreadSpec::new(body(1, 0), 400),
        ];
        let mut m = Machine::new(
            SimConfig::default()
                .with_seed(5)
                .with_model(ModelId::Relaxed),
        );
        let out = m.run(&threads, 2);
        let (b0, b1) = (&out.bufs[0], &out.bufs[1]);
        for (n, &v0) in b0.iter().enumerate() {
            for (mi, &v1) in b1.iter().enumerate() {
                assert!(
                    !(v0 <= mi as u64 && v1 <= n as u64),
                    "forbidden fenced-sb frame ({n},{mi}) under relaxed"
                );
            }
        }
        // Same-cell program order is preserved: a store/load pair on one
        // cell keeps its order, so final memory holds the last element.
        assert_eq!(out.final_mem, vec![400, 400]);
    }

    #[test]
    fn relaxed_respects_register_dependencies() {
        use perple_model::ModelId;
        // Loads into one register keep program order, and a record always
        // captures its own load: x only ever holds odd values and y even
        // ones, so every record slot tells which load it captured.
        let load = |reg: u8, cell: u32| SimOp::Load {
            reg,
            addr: Addr::fixed(cell),
        };
        let writer = ThreadSpec::new(
            vec![
                SimOp::Store {
                    addr: Addr::fixed(0),
                    expr: ValExpr::Seq { k: 2, a: 1 },
                },
                SimOp::Store {
                    addr: Addr::fixed(1),
                    expr: ValExpr::Seq { k: 2, a: 2 },
                },
            ],
            2_000,
        );
        // (body, per-slot expected parity: Some(1) odd-or-zero x, Some(0)
        // even y, None unchecked).
        let readers: [(Vec<SimOp>, &[Option<u64>]); 2] = [
            (
                vec![
                    load(0, 0),
                    SimOp::Record { reg: 0 },
                    load(0, 1),
                    SimOp::Record { reg: 0 },
                ],
                &[Some(1), Some(0)],
            ),
            (
                // The second load of r0 must also wait for the record of the
                // first, which waits in program order behind r1's record.
                vec![
                    load(1, 2),
                    load(0, 0),
                    SimOp::Record { reg: 1 },
                    SimOp::Record { reg: 0 },
                    load(0, 1),
                    SimOp::Record { reg: 0 },
                ],
                &[None, Some(1), Some(0)],
            ),
        ];
        for (body, parity) in readers {
            for seed in 0..20 {
                let threads = vec![writer.clone(), ThreadSpec::new(body.clone(), 2_000)];
                let mut m = Machine::new(
                    SimConfig::default()
                        .with_seed(seed)
                        .with_model(ModelId::Relaxed),
                );
                let out = m.run(&threads, 3);
                for (i, &v) in out.bufs[1].iter().enumerate() {
                    if let Some(p) = parity[i % parity.len()] {
                        assert!(
                            v == 0 || v % 2 == p,
                            "seed {seed}: slot {} captured {v}, another load's value",
                            i % parity.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn relaxed_window_follows_per_iteration_cells() {
        use perple_model::ModelId;
        // A strided store and a fixed load share a cell only in iteration
        // 0, so only there must they keep program order; every later
        // iteration may issue the load first.
        let body = vec![
            SimOp::Store {
                addr: Addr::strided(0, 1),
                expr: ValExpr::Seq { k: 1, a: 1 },
            },
            SimOp::Load {
                reg: 0,
                addr: Addr::fixed(0),
            },
            SimOp::Record { reg: 0 },
        ];
        let n = 300;
        let mut m = Machine::new(
            SimConfig::default()
                .with_seed(40)
                .with_model(ModelId::Relaxed),
        );
        let mut trace = Trace::with_capacity(usize::MAX);
        let out = m.run_traced(&[ThreadSpec::new(body, n)], n as usize, &mut trace);
        assert_eq!(out.bufs[0][0], 1, "iteration 0 reads its own store");
        // Each iteration issues exactly one store and one load, so the
        // events pair up per iteration.
        let ops: Vec<bool> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::StoreBuffered { .. } => Some(false),
                TraceKind::Load { .. } => Some(true),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), 2 * n as usize);
        let load_first: Vec<bool> = ops.chunks(2).map(|pair| pair[0]).collect();
        assert!(!load_first[0], "same cell: the load waits for the store");
        assert!(
            load_first[1..].iter().any(|&l| l),
            "distinct cells: the window must let the load go first"
        );
    }

    #[test]
    fn relaxed_runs_are_deterministic_per_seed() {
        use perple_model::ModelId;
        let cfg = SimConfig::default()
            .with_seed(17)
            .with_model(ModelId::Relaxed);
        let mut a = Machine::new(cfg.clone());
        let mut b = Machine::new(cfg);
        assert_eq!(a.run(&perpetual_sb(300), 2), b.run(&perpetual_sb(300), 2));
    }

    #[test]
    fn reseed_changes_future_runs() {
        let mut m = Machine::new(SimConfig::default().with_seed(42));
        let a = m.run(&perpetual_sb(100), 2);
        m.reseed(42);
        let b = m.run(&perpetual_sb(100), 2);
        assert_eq!(a, b, "reseeding with the same seed reproduces the run");
        assert_eq!(m.config().seed, 42);
    }
}
