//! Native execution on real hardware threads (x86 atomics).
//!
//! This is the substrate the paper actually ran on: real threads whose
//! plain stores and loads (compiled from `Relaxed` atomics to x86 `mov`)
//! exercise the machine's genuine store buffers. On a multi-core x86 host
//! the perpetual runner observes real TSO weak outcomes; on a single-core
//! host (like this reproduction's build machine) threads timeslice and weak
//! outcomes essentially vanish — which is exactly why `perple-sim` is the
//! primary experiment substrate (see DESIGN.md).
//!
//! Both the perpetual harness and the litmus7-style baseline are provided.
//! The baseline's `timebase` mode uses a monotonic-clock deadline in place
//! of the TSC, and memory-inspecting conditions are not evaluated natively
//! (the non-convertible suite is simulator-only).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use perple_convert::{PerpInstr, PerpetualTest};
use perple_model::{Instr, LitmusTest, Outcome};

use crate::baseline::SyncMode;
use crate::pad::CachePadded;

/// Result of a native perpetual run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeRun {
    /// `buf_t` per load-performing thread, frame order (same layout as the
    /// simulated harness).
    pub frame_bufs: Vec<Vec<u64>>,
    /// Wall-clock duration of the run (launch barrier to last join).
    pub wall: Duration,
    /// Iterations executed per thread.
    pub iterations: u64,
}

impl NativeRun {
    /// Borrowed view of the buffers in counter layout.
    pub fn bufs(&self) -> Vec<&[u64]> {
        self.frame_bufs.iter().map(Vec::as_slice).collect()
    }
}

/// Runs a perpetual litmus test on real threads: one launch barrier, then
/// `n` free-running iterations per thread (paper §V-B).
pub fn run_perpetual(perp: &PerpetualTest, n: u64) -> NativeRun {
    let nthreads = perp.thread_count();
    let locations: Vec<CachePadded<AtomicU64>> = (0..perp.locations().len())
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let barrier = Barrier::new(nthreads);
    let start = Instant::now();

    let mut bufs_by_thread: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let body = &perp.threads()[t];
                let locations = &locations;
                let barrier = &barrier;
                let reads = perp.reads_per_thread()[t];
                scope.spawn(move || {
                    let mut regs = [0u64; 16];
                    let mut buf = Vec::with_capacity(reads * n as usize);
                    barrier.wait();
                    for iter in 0..n {
                        for instr in body {
                            match *instr {
                                PerpInstr::Store { loc, k, a } => {
                                    locations[loc.index()].store(k * iter + a, Ordering::Relaxed);
                                }
                                PerpInstr::Load { reg, loc } => {
                                    regs[reg.index()] =
                                        locations[loc.index()].load(Ordering::Relaxed);
                                    buf.push(regs[reg.index()]);
                                }
                                PerpInstr::Mfence => fence(Ordering::SeqCst),
                                PerpInstr::Xchg { reg, loc, k, a } => {
                                    regs[reg.index()] =
                                        locations[loc.index()].swap(k * iter + a, Ordering::SeqCst);
                                    buf.push(regs[reg.index()]);
                                }
                            }
                        }
                    }
                    buf
                })
            })
            .collect();
        bufs_by_thread = handles
            .into_iter()
            // Invariant assertion, not error handling: the thread body is
            // arithmetic stores into a pre-sized Vec and cannot panic; a
            // join failure is a harness bug worth crashing on.
            .map(|h| h.join().expect("perpetual thread panicked"))
            .collect();
    });

    let wall = start.elapsed();
    let frame_bufs = perp
        .load_threads()
        .iter()
        .map(|t| std::mem::take(&mut bufs_by_thread[t.index()]))
        .collect();
    NativeRun {
        frame_bufs,
        wall,
        iterations: n,
    }
}

/// Result of a native baseline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeBaselineRun {
    /// Occurrences per outcome label.
    pub outcome_counts: std::collections::BTreeMap<String, u64>,
    /// Matches of the test's register-only condition (memory-inspecting
    /// conditions are not evaluated natively and count 0).
    pub target_count: u64,
    /// Wall-clock duration including all synchronization.
    pub wall: Duration,
    /// Iterations executed.
    pub iterations: u64,
}

/// A sense-reversing spin barrier (litmus7's `user` synchronization),
/// optionally fencing after release (`userfence`).
struct SpinBarrier {
    count: AtomicU64,
    generation: AtomicU64,
    parties: u64,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        Self {
            count: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            parties: parties as u64,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins > 64 {
                    // Smart spinning: on oversubscribed hosts, let the
                    // partner run rather than burning the whole quantum.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Runs the litmus7-style iterative baseline natively.
///
/// Protocol per iteration: synchronize (per mode), execute the test body,
/// record registers, synchronize again, thread 0 zeroes the shared
/// locations (Figure 4 of the paper). `none` mode skips both barriers and
/// gives every iteration its own memory cells.
pub fn run_baseline(test: &LitmusTest, mode: SyncMode, n: u64) -> NativeBaselineRun {
    let nthreads = test.thread_count();
    let nlocs = test.location_count();
    let cells = if mode == SyncMode::NoSync {
        nlocs * n as usize
    } else {
        nlocs
    };
    let locations: Vec<CachePadded<AtomicU64>> = (0..cells)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    for (i, cell) in locations.iter().enumerate() {
        cell.store(test.init_values()[i % nlocs] as u64, Ordering::Relaxed);
    }

    let spin = SpinBarrier::new(nthreads);
    let spin_end = SpinBarrier::new(nthreads);
    let pthread = Barrier::new(nthreads);
    let pthread_end = Barrier::new(nthreads);
    let launch = Barrier::new(nthreads);
    let t0 = Instant::now();
    // Timebase mode: shared deadline schedule.
    let period = Duration::from_micros(3);

    let start = Instant::now();
    let mut bufs_by_thread: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                let body = &test.threads()[t];
                let locations = &locations;
                let (spin, spin_end) = (&spin, &spin_end);
                let (pthread, pthread_end) = (&pthread, &pthread_end);
                let launch = &launch;
                let reads = test.reads_per_thread()[t];
                scope.spawn(move || {
                    let mut regs = [0u64; 16];
                    let mut buf = Vec::with_capacity(reads * n as usize);
                    launch.wait();
                    for iter in 0..n {
                        let base = if mode == SyncMode::NoSync {
                            iter as usize * nlocs
                        } else {
                            0
                        };
                        match mode {
                            SyncMode::User => spin.wait(),
                            SyncMode::UserFence => {
                                spin.wait();
                                fence(Ordering::SeqCst);
                            }
                            SyncMode::Pthread => {
                                pthread.wait();
                            }
                            SyncMode::Timebase => {
                                let deadline = t0 + period * (iter as u32 + 1);
                                while Instant::now() < deadline {
                                    std::hint::spin_loop();
                                }
                            }
                            SyncMode::NoSync => {}
                        }
                        for instr in body {
                            match *instr {
                                Instr::Store { loc, value } => {
                                    locations[base + loc.index()]
                                        .store(value as u64, Ordering::Relaxed);
                                }
                                Instr::Load { reg, loc } => {
                                    regs[reg.index()] =
                                        locations[base + loc.index()].load(Ordering::Relaxed);
                                    buf.push(regs[reg.index()]);
                                }
                                Instr::Mfence => fence(Ordering::SeqCst),
                                Instr::Xchg { reg, loc, value } => {
                                    regs[reg.index()] = locations[base + loc.index()]
                                        .swap(value as u64, Ordering::SeqCst);
                                    buf.push(regs[reg.index()]);
                                }
                            }
                        }
                        // End-of-iteration synchronization + reset by P0.
                        match mode {
                            SyncMode::User | SyncMode::UserFence | SyncMode::Timebase => {
                                spin_end.wait();
                                if t == 0 {
                                    for (i, cell) in locations.iter().enumerate() {
                                        cell.store(
                                            test.init_values()[i % nlocs] as u64,
                                            Ordering::Relaxed,
                                        );
                                    }
                                }
                                spin.wait(); // release after reset
                            }
                            SyncMode::Pthread => {
                                pthread_end.wait();
                                if t == 0 {
                                    for (i, cell) in locations.iter().enumerate() {
                                        cell.store(
                                            test.init_values()[i % nlocs] as u64,
                                            Ordering::Relaxed,
                                        );
                                    }
                                }
                                pthread.wait();
                            }
                            SyncMode::NoSync => {}
                        }
                    }
                    buf
                })
            })
            .collect();
        bufs_by_thread = handles
            .into_iter()
            // Invariant assertion, not error handling: the thread body is
            // arithmetic stores into a pre-sized Vec and cannot panic; a
            // join failure is a harness bug worth crashing on.
            .map(|h| h.join().expect("baseline thread panicked"))
            .collect();
    });
    let wall = start.elapsed();

    // Tally per-iteration outcomes.
    let reads = test.reads_per_thread();
    let mut outcome_counts = std::collections::BTreeMap::new();
    let mut target_count = 0u64;
    let register_only = !test.target().inspects_memory();
    for i in 0..n as usize {
        let mut outcome = Outcome::new();
        for slot in test.load_slots() {
            let t = slot.thread.index();
            let v = bufs_by_thread[t][reads[t] * i + slot.slot];
            outcome.set(slot.thread, slot.reg, v as u32);
        }
        if register_only && test.target().matches(&outcome, &[]) {
            target_count += 1;
        }
        *outcome_counts.entry(outcome.label()).or_insert(0) += 1;
    }

    NativeBaselineRun {
        outcome_counts,
        target_count,
        wall,
        iterations: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_convert::Conversion;
    use perple_model::suite;

    // Native tests use small iteration counts: the build machine may have a
    // single core, where barrier rounds cost scheduling quanta.

    #[test]
    fn perpetual_native_records_all_iterations() {
        let t = suite::sb();
        let conv = Conversion::convert(&t).unwrap();
        let run = run_perpetual(&conv.perpetual, 200);
        assert_eq!(run.frame_bufs.len(), 2);
        assert_eq!(run.frame_bufs[0].len(), 200);
        assert!(run.wall > Duration::ZERO);
    }

    #[test]
    fn perpetual_native_values_stay_in_sequence_range() {
        let t = suite::sb();
        let conv = Conversion::convert(&t).unwrap();
        let n = 500u64;
        let run = run_perpetual(&conv.perpetual, n);
        for buf in &run.frame_bufs {
            for &v in buf {
                assert!(v <= n, "loaded {v} exceeds any stored sequence term");
            }
        }
    }

    #[test]
    fn perpetual_native_forbidden_target_never_fires() {
        // Fenced sb on real hardware must never show the weak outcome.
        let t = suite::amd5();
        let conv = Conversion::convert(&t).unwrap();
        let n = 500u64;
        let run = run_perpetual(&conv.perpetual, n);
        let bufs = run.bufs();
        let mut scratch = perple_convert::HeuristicScratch::default();
        let hits = (0..n)
            .filter(|&i| conv.target_heuristic.eval(i, &bufs, n, &mut scratch))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn native_baseline_counts_every_iteration() {
        for mode in [SyncMode::User, SyncMode::Pthread, SyncMode::NoSync] {
            let t = suite::sb();
            let run = run_baseline(&t, mode, 60);
            let total: u64 = run.outcome_counts.values().sum();
            assert_eq!(total, 60, "{mode}");
        }
    }

    #[test]
    fn native_baseline_forbidden_target_never_fires() {
        let t = suite::mp();
        let run = run_baseline(&t, SyncMode::User, 60);
        assert_eq!(run.target_count, 0);
    }

    #[test]
    fn native_baseline_timebase_and_userfence_run() {
        for mode in [SyncMode::Timebase, SyncMode::UserFence] {
            let t = suite::sb();
            let run = run_baseline(&t, mode, 30);
            assert_eq!(run.iterations, 30, "{mode}");
        }
    }

    #[test]
    fn memory_conditions_are_not_evaluated_natively() {
        let t = suite::by_name("2+2w").unwrap();
        let run = run_baseline(&t, SyncMode::NoSync, 40);
        assert_eq!(run.target_count, 0);
    }
}
