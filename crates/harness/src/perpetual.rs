//! The PerpLE Harness on the simulated substrate (§V-B).

use perple_convert::{PerpInstr, PerpetualTest};
use perple_sim::{Addr, Budget, Machine, SimConfig, SimOp, ThreadSpec, ValExpr};

/// Result of one perpetual run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerpleRun {
    /// `buf_t` of each **load-performing** thread, in frame order: thread
    /// `t`'s value for load slot `i` of iteration `n` is at
    /// `frame_bufs[pos][r_t * n + i]`.
    pub frame_bufs: Vec<Vec<u64>>,
    /// Simulated execution cycles (launch to last drain); perpetual tests
    /// pay no per-iteration synchronization.
    pub exec_cycles: u64,
    /// Iterations executed per thread. For a budget-truncated run this is
    /// the number of **complete** iterations retained in `frame_bufs`
    /// (buffers are trimmed to whole frames, so the counters stay valid).
    pub iterations: u64,
    /// Number of injected machine faults (see `perple_sim::FaultPlan`).
    pub faults: u64,
    /// False iff the run's watchdog budget expired before all requested
    /// iterations finished; `frame_bufs` then hold a prefix of the full
    /// run's records, trimmed to `iterations` whole frames.
    pub complete: bool,
}

impl PerpleRun {
    /// Borrowed view of the buffers in the layout the counters take.
    pub fn bufs(&self) -> Vec<&[u64]> {
        self.frame_bufs.iter().map(Vec::as_slice).collect()
    }

    /// FNV-1a digest of the run's observable content (iteration count plus
    /// every buffered load value, length-delimited per thread).
    ///
    /// Equal seeds and configs produce equal digests, so the campaign
    /// layer's regression gate can detect machine nondeterminism: two
    /// stored runs with the same cache fingerprint but different digests
    /// mean the simulated machine stopped being a pure function of its
    /// inputs.
    pub fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.iterations);
        for buf in &self.frame_bufs {
            eat(buf.len() as u64);
            for &v in buf {
                eat(v);
            }
        }
        h
    }
}

/// Runs perpetual litmus tests on the simulated TSO machine.
#[derive(Debug, Clone)]
pub struct PerpleRunner {
    machine: Machine,
}

impl PerpleRunner {
    /// Creates a runner over a fresh machine.
    pub fn new(config: SimConfig) -> Self {
        Self {
            machine: Machine::new(config),
        }
    }

    /// Reseeds the underlying machine.
    pub fn reseed(&mut self, seed: u64) {
        self.machine.reseed(seed);
    }

    /// Executes `n` iterations of the perpetual test and collects the `buf`
    /// arrays (threads synchronize only at launch, as in the paper).
    pub fn run(&mut self, perp: &PerpetualTest, n: u64) -> PerpleRun {
        let specs = thread_specs(perp, n);
        let out = self.machine.run(&specs, perp.locations().len());
        Self::collect(perp, &specs, out, n)
    }

    /// Like [`PerpleRunner::run`] but under a watchdog [`Budget`]. If the
    /// budget expires mid-run, the machine stops at its next poll and the
    /// partial buffers are trimmed to the largest number of iterations
    /// **every** load thread completed, so every retained frame is whole;
    /// [`PerpleRun::complete`] is false and [`PerpleRun::iterations`]
    /// reports the trimmed count. Execution up to the cutoff is identical
    /// to the unbudgeted run, so trimmed buffers are exact prefixes.
    pub fn run_budgeted(&mut self, perp: &PerpetualTest, n: u64, budget: &Budget) -> PerpleRun {
        let specs = thread_specs(perp, n);
        let out = self
            .machine
            .run_budgeted(&specs, perp.locations().len(), budget);
        Self::collect(perp, &specs, out, n)
    }

    /// Selects the load-performing threads' buffers in frame order and, for
    /// incomplete runs, trims them to whole iterations.
    fn collect(
        perp: &PerpetualTest,
        specs: &[ThreadSpec],
        out: perple_sim::RunOutput,
        n: u64,
    ) -> PerpleRun {
        let exec_cycles = out.cycles;
        let mut all: Vec<Option<Vec<u64>>> = out.bufs.into_iter().map(Some).collect();
        let mut frame_bufs: Vec<Vec<u64>> = perp
            .load_threads()
            .iter()
            // Invariant: load-thread indices are unique and in-range by
            // construction of the perpetual test, so each take() hits a
            // still-occupied slot.
            .map(|t| all[t.index()].take().expect("one buf per thread"))
            .collect();

        let iterations = if out.complete {
            n
        } else {
            // Whole iterations completed by every load thread.
            let m = perp
                .load_threads()
                .iter()
                .zip(&frame_bufs)
                .map(|(t, buf)| {
                    let reads = specs[t.index()].records_per_iteration() as u64;
                    (buf.len() as u64).checked_div(reads).unwrap_or(n)
                })
                .min()
                .unwrap_or(0);
            for (t, buf) in perp.load_threads().iter().zip(frame_bufs.iter_mut()) {
                let reads = specs[t.index()].records_per_iteration() as u64;
                buf.truncate((m * reads) as usize);
            }
            m
        };

        PerpleRun {
            frame_bufs,
            exec_cycles,
            iterations,
            faults: out.faults,
            complete: out.complete,
        }
    }
}

/// Builds the simulator thread programs for a perpetual test: sequence-term
/// stores, unchanged loads/fences, and a free `Record` after every load so
/// `buf_t` captures each load slot's value in program order.
pub fn thread_specs(perp: &PerpetualTest, n: u64) -> Vec<ThreadSpec> {
    perp.threads()
        .iter()
        .map(|instrs| {
            let mut body = Vec::with_capacity(instrs.len() * 2);
            for instr in instrs {
                match *instr {
                    PerpInstr::Store { loc, k, a } => body.push(SimOp::Store {
                        addr: Addr::fixed(loc.index() as u32),
                        expr: ValExpr::Seq { k, a },
                    }),
                    PerpInstr::Load { reg, loc } => {
                        body.push(SimOp::Load {
                            reg: reg.0,
                            addr: Addr::fixed(loc.index() as u32),
                        });
                        body.push(SimOp::Record { reg: reg.0 });
                    }
                    PerpInstr::Mfence => body.push(SimOp::Mfence),
                    PerpInstr::Xchg { reg, loc, k, a } => {
                        body.push(SimOp::Xchg {
                            reg: reg.0,
                            addr: Addr::fixed(loc.index() as u32),
                            expr: ValExpr::Seq { k, a },
                        });
                        body.push(SimOp::Record { reg: reg.0 });
                    }
                }
            }
            ThreadSpec::new(body, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_convert::Conversion;
    use perple_model::suite;

    fn run_test(
        name: &str,
        n: u64,
        seed: u64,
    ) -> (perple_model::LitmusTest, Conversion, PerpleRun) {
        let t = suite::by_name(name).unwrap();
        let conv = Conversion::convert(&t).unwrap();
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
        let run = runner.run(&conv.perpetual, n);
        (t, conv, run)
    }

    #[test]
    fn buffers_have_frame_layout() {
        let (_, _, run) = run_test("sb", 500, 1);
        assert_eq!(run.frame_bufs.len(), 2);
        assert_eq!(run.frame_bufs[0].len(), 500);
        assert!(run.exec_cycles > 500);
        assert_eq!(run.iterations, 500);
    }

    #[test]
    fn store_only_threads_have_no_frame_buf() {
        let (_, _, run) = run_test("mp", 300, 2);
        // mp: only thread 1 loads; its buf has 2 records per iteration.
        assert_eq!(run.frame_bufs.len(), 1);
        assert_eq!(run.frame_bufs[0].len(), 600);
    }

    #[test]
    fn record_follows_each_load_in_slot_order() {
        let t = suite::by_name("mp").unwrap();
        let conv = Conversion::convert(&t).unwrap();
        let specs = thread_specs(&conv.perpetual, 10);
        // Thread 1: Load r0, Record r0, Load r1, Record r1.
        let ops = &specs[1].body;
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], SimOp::Load { reg: 0, .. }));
        assert!(matches!(ops[1], SimOp::Record { reg: 0 }));
        assert!(matches!(ops[2], SimOp::Load { reg: 1, .. }));
        assert!(matches!(ops[3], SimOp::Record { reg: 1 }));
    }

    #[test]
    fn perpetual_sb_exposes_the_target_outcome() {
        // The headline behaviour: the sb target (store buffering) is
        // observable without per-iteration synchronization.
        let (_, conv, run) = run_test("sb", 5_000, 42);
        let bufs = run.bufs();
        let r = perple_analysis_shim::count_heuristic_target(&conv, &bufs, 5_000);
        assert!(r > 0, "no target outcomes in 5k perpetual sb iterations");
    }

    #[test]
    fn fenced_test_never_shows_forbidden_target() {
        let (_, conv, run) = run_test("amd5", 5_000, 43);
        let bufs = run.bufs();
        let r = perple_analysis_shim::count_heuristic_target(&conv, &bufs, 5_000);
        assert_eq!(r, 0, "forbidden outcome observed under mfence");
    }

    #[test]
    fn xchg_test_never_shows_forbidden_target() {
        let (_, conv, run) = run_test("amd10", 3_000, 44);
        let bufs = run.bufs();
        let r = perple_analysis_shim::count_heuristic_target(&conv, &bufs, 3_000);
        assert_eq!(r, 0, "forbidden outcome observed under locked exchange");
    }

    /// Minimal local reimplementation of the heuristic target count to
    /// avoid a dev-dependency cycle on perple-analysis.
    mod perple_analysis_shim {
        use perple_convert::{Conversion, HeuristicScratch};

        pub fn count_heuristic_target(conv: &Conversion, bufs: &[&[u64]], n: u64) -> u64 {
            let mut scratch = HeuristicScratch::default();
            (0..n)
                .filter(|&i| conv.target_heuristic.eval(i, bufs, n, &mut scratch))
                .count() as u64
        }
    }

    #[test]
    fn budgeted_run_with_unlimited_budget_matches_plain() {
        let t = suite::by_name("sb").unwrap();
        let conv = Conversion::convert(&t).unwrap();
        let mut a = PerpleRunner::new(SimConfig::default().with_seed(7));
        let plain = a.run(&conv.perpetual, 300);
        let mut b = PerpleRunner::new(SimConfig::default().with_seed(7));
        let budgeted = b.run_budgeted(&conv.perpetual, 300, &Budget::unlimited());
        assert_eq!(plain, budgeted);
        assert!(budgeted.complete);
        assert_eq!(budgeted.iterations, 300);
    }

    #[test]
    fn expired_budget_trims_to_whole_iteration_prefix() {
        let t = suite::by_name("mp").unwrap(); // 2 records per iteration
        let conv = Conversion::convert(&t).unwrap();
        let mut a = PerpleRunner::new(SimConfig::default().with_seed(8));
        let full = a.run(&conv.perpetual, 500);
        let mut b = PerpleRunner::new(SimConfig::default().with_seed(8));
        let part = b.run_budgeted(&conv.perpetual, 500, &Budget::with_poll_limit(20));
        assert!(!part.complete);
        assert!(part.iterations < 500);
        assert_eq!(
            part.frame_bufs[0].len() as u64,
            part.iterations * 2,
            "whole frames only"
        );
        assert_eq!(
            part.frame_bufs[0].as_slice(),
            &full.frame_bufs[0][..part.frame_bufs[0].len()],
            "trimmed buffers must be a prefix of the full run"
        );
    }

    #[test]
    fn deterministic_across_equal_seeds() {
        let (_, _, a) = run_test("podwr001", 400, 9);
        let (_, _, b) = run_test("podwr001", 400, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn content_digest_tracks_run_content() {
        let (_, _, a) = run_test("sb", 300, 5);
        let (_, _, b) = run_test("sb", 300, 5);
        assert_eq!(
            a.content_digest(),
            b.content_digest(),
            "equal runs, equal digests"
        );
        let (_, _, c) = run_test("sb", 300, 6);
        assert_ne!(
            a.content_digest(),
            c.content_digest(),
            "different seed, different digest"
        );
        let (_, _, d) = run_test("sb", 299, 5);
        assert_ne!(
            a.content_digest(),
            d.content_digest(),
            "different length, different digest"
        );
    }

    #[test]
    fn whole_convertible_suite_runs() {
        for t in suite::convertible() {
            let conv = Conversion::convert(&t).unwrap();
            let mut runner = PerpleRunner::new(SimConfig::default().with_seed(11));
            let run = runner.run(&conv.perpetual, 200);
            assert_eq!(run.frame_bufs.len(), t.load_thread_count(), "{}", t.name());
            let reads = t.reads_per_thread();
            for (pos, lt) in t.load_threads().iter().enumerate() {
                assert_eq!(
                    run.frame_bufs[pos].len(),
                    200 * reads[lt.index()],
                    "{}",
                    t.name()
                );
            }
        }
    }
}
