//! Property-based tests over randomly generated litmus tests: parser
//! round-trips, SC ⊆ TSO, solver/enumerator agreement, and the central
//! soundness property — TSO-forbidden targets never fire on the TSO
//! substrate. Runs on the in-repo [`perple_repro::prop`] harness.

use perple::{
    Conversion, CountRequest, Counter, ExhaustiveCounter, HeuristicCounter, ModelId, PerpleRunner,
    SimConfig,
};
use perple_enumerate::{classify, enumerate};
use perple_model::{parser, printer, LitmusTest, TestBuilder};
use perple_repro::prop::{run_cases, Gen};

/// One abstract instruction of the generator.
#[derive(Debug, Clone, Copy)]
enum GenOp {
    Store { loc: u8 },
    Load { reg: u8, loc: u8 },
    Mfence,
}

/// Weighted draw matching the old strategy: stores 3, loads 4, fences 1.
fn gen_op(g: &mut Gen) -> GenOp {
    match g.below(8) {
        0..=2 => GenOp::Store {
            loc: g.below(2) as u8,
        },
        3..=6 => GenOp::Load {
            reg: g.below(2) as u8,
            loc: g.below(2) as u8,
        },
        _ => GenOp::Mfence,
    }
}

/// A random well-formed litmus test: 2–3 threads, 1–3 ops each, ≤2
/// locations, stored values unique per location (so it is convertible
/// whenever its condition is register-only), plus a register condition over
/// genuinely loaded registers. Returns `None` when the draw has no loads to
/// condition on (the caller redraws, mirroring proptest's filter).
fn gen_test(g: &mut Gen) -> Option<LitmusTest> {
    let nthreads = 2 + g.below(2);
    let threads: Vec<Vec<GenOp>> = (0..nthreads)
        .map(|_| (0..1 + g.below(3)).map(|_| gen_op(g)).collect())
        .collect();

    let mut b = TestBuilder::new("gen");
    let mut next_value = [0u32; 2];
    let mut loaded: Vec<(usize, String)> = Vec::new();
    let loc_name = |l: u8| if l == 0 { "x" } else { "y" };
    for (t, ops) in threads.iter().enumerate() {
        let mut tb = b.thread();
        for op in ops {
            match *op {
                GenOp::Store { loc } => {
                    next_value[loc as usize] += 1;
                    tb.store(loc_name(loc), next_value[loc as usize]);
                }
                GenOp::Load { reg, loc } => {
                    let reg_name = if reg == 0 { "EAX" } else { "EBX" };
                    tb.load(reg_name, loc_name(loc));
                    loaded.push((t, reg_name.to_owned()));
                }
                GenOp::Mfence => {
                    tb.mfence();
                }
            }
        }
    }
    if loaded.is_empty() {
        return None;
    }
    loaded.sort();
    loaded.dedup();
    // Derive a condition over up to two loaded registers.
    let natoms = 1 + g.below(loaded.len().min(2));
    for i in 0..natoms {
        let (t, reg) = &loaded[(g.below(loaded.len()) + i) % loaded.len()];
        b.reg_cond(*t, reg.clone(), g.below(3) as u32);
    }
    b.build().ok()
}

/// Redraws until the generator yields a well-formed test (the filter
/// rejects a bounded fraction of draws, so this terminates quickly).
fn next_test(g: &mut Gen) -> LitmusTest {
    loop {
        if let Some(t) = gen_test(g) {
            return t;
        }
    }
}

#[test]
fn printed_tests_reparse_identically() {
    run_cases(48, |g| {
        let test = next_test(g);
        let text = printer::print(&test);
        let back = parser::parse(&text).expect("printed test reparses");
        assert_eq!(test, back);
    });
}

#[test]
fn sc_outcomes_are_a_subset_of_tso() {
    run_cases(48, |g| {
        let test = next_test(g);
        let sc = enumerate(&test, ModelId::Sc);
        let tso = enumerate(&test, ModelId::Tso);
        assert!(sc.register_outcomes().is_subset(&tso.register_outcomes()));
    });
}

#[test]
fn solver_agrees_with_the_enumerator_under_every_model() {
    run_cases(48, |g| {
        let test = next_test(g);
        for model in ModelId::ALL {
            let reachable = enumerate(&test, model).register_outcomes();
            for outcome in test.possible_outcomes() {
                if let Ok(allowed) = perple::solve::feasible(&test, &outcome, model) {
                    assert_eq!(
                        allowed,
                        reachable.contains(&outcome),
                        "outcome {outcome} under {model}"
                    );
                }
            }
        }
    });
}

#[test]
fn forbidden_targets_never_fire_on_the_tso_substrate() {
    // The central soundness property, over arbitrary programs: if the
    // operational TSO model forbids the condition, no perpetual run may
    // count it.
    run_cases(48, |g| {
        let test = next_test(g);
        let Ok(conv) = Conversion::convert(&test) else {
            return;
        };
        let class = classify(&test);
        if class.tso_allowed {
            return;
        }
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xF0B1D));
        let run = runner.run(&conv.perpetual, 150);
        let bufs = run.bufs();
        let count =
            HeuristicCounter::single(&conv.target_heuristic).count(&CountRequest::new(&bufs, 150));
        assert_eq!(count.counts[0], 0, "forbidden target fired");
    });
}

#[test]
fn heuristic_counts_never_exceed_exhaustive_per_outcome() {
    run_cases(48, |g| {
        let test = next_test(g);
        let Ok(conv) = Conversion::convert(&test) else {
            return;
        };
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(77));
        let n = 120u64;
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let h = HeuristicCounter::single(&conv.target_heuristic).count(&req);
        let x = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
        assert!(h.counts[0] <= x.counts[0]);
    });
}
