//! Failure-injection and garbage-tolerance tests: the counters must stay
//! sound (and panic-free) when fed buffers that no honest run could
//! produce, and the pipeline must catch machines that lie about their
//! memory model.

use perple::experiments::resilient::{audit_one, resilient_audit};
use perple::experiments::ExperimentConfig;
use perple::{
    classify, Budget, Conversion, CountRequest, Counter, ExhaustiveCounter, FaultPlan,
    HeuristicCounter, PerpleRunner, SimConfig,
};
use perple_model::suite;
use perple_repro::prop::run_cases;

/// Counters accept arbitrary buffer *contents* (values from the future,
/// wrong residues, huge numbers) without panicking, as long as buffer
/// shapes are right.
#[test]
fn counters_never_panic_on_garbage_buffers() {
    let names = ["sb", "mp", "iwp24", "n5", "podwr001", "co-iriw"];
    run_cases(48, |g| {
        let test = suite::by_name(names[g.below(names.len())]).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let raw_len = g.below(200);
        let raw = g.vec_u64(raw_len);
        let reads = test.reads_per_thread();
        // Shape the raw values into per-thread buffers for N iterations.
        let n = 10u64;
        let mut bufs_owned: Vec<Vec<u64>> = Vec::new();
        let mut cursor = 0usize;
        for lt in test.load_threads() {
            let want = reads[lt.index()] * n as usize;
            let mut b = Vec::with_capacity(want);
            for i in 0..want {
                b.push(
                    raw.get((cursor + i) % raw.len().max(1))
                        .copied()
                        .unwrap_or(0),
                );
            }
            cursor += want;
            bufs_owned.push(b);
        }
        let bufs: Vec<&[u64]> = bufs_owned.iter().map(Vec::as_slice).collect();
        let req = CountRequest::new(&bufs, n);
        let h = HeuristicCounter::single(&conv.target_heuristic).count(&req);
        let x = ExhaustiveCounter::single(&conv.target_exhaustive)
            .count(&req.with_frame_cap(Some(10_000)));
        assert!(h.counts[0] <= n);
        assert!(x.counts[0] <= x.frames_examined);
    });
}

/// A machine that reorders stores (PSO) while claiming TSO is caught by
/// the audit across every exposable test, and the evidence scales with
/// iterations.
#[test]
fn weak_machine_detection_scales_with_iterations() {
    let mp = suite::mp();
    let conv = Conversion::convert(&mp).expect("converts");
    let mut hits_at = Vec::new();
    for n in [500u64, 2_000, 8_000] {
        let mut runner = PerpleRunner::new(
            SimConfig::default()
                .with_seed(0xFA11)
                .with_weak_store_order(true),
        );
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let hits = HeuristicCounter::single(&conv.target_heuristic)
            .count(&CountRequest::new(&bufs, n))
            .counts[0];
        hits_at.push(hits);
    }
    assert!(
        hits_at[0] > 0,
        "violation must be visible at 500 iterations"
    );
    assert!(
        hits_at[2] > hits_at[0],
        "evidence must grow with iterations: {hits_at:?}"
    );
}

/// Mixed fleet: only the weak machine trips the audit; the conformant
/// machine stays clean on the same seeds.
#[test]
fn conformant_and_faulty_machines_are_distinguished() {
    for (weak, expect_violation) in [(false, false), (true, true)] {
        let mut any_violation = false;
        for test in suite::convertible() {
            let class = classify(&test);
            if class.tso_allowed {
                continue;
            }
            let conv = Conversion::convert(&test).expect("converts");
            let mut runner = PerpleRunner::new(
                SimConfig::default()
                    .with_seed(0xD15)
                    .with_weak_store_order(weak),
            );
            let run = runner.run(&conv.perpetual, 3_000);
            let bufs = run.bufs();
            let hits = HeuristicCounter::single(&conv.target_heuristic)
                .count(&CountRequest::new(&bufs, 3_000))
                .counts[0];
            if hits > 0 {
                any_violation = true;
            }
        }
        assert_eq!(
            any_violation, expect_violation,
            "weak={weak}: audit verdict wrong"
        );
    }
}

/// Every machine fault kind either shows up in the audit row (faults
/// counted, counters still sound) or lands in quarantine as a classified
/// error — never a crash.
#[test]
fn every_fault_kind_is_detected_or_quarantined() {
    // (plan, test): reorder needs a thread with two buffered stores per
    // iteration, which mp's store thread provides.
    let cases = [
        ("drop@t0:0..400", "sb"),
        ("corrupt@*:0..400", "sb"),
        ("stuck@*:0..400:p0.2:c40", "sb"),
        ("reorder@t0:0..400", "mp"),
    ];
    for (plan, name) in cases {
        let cfg = ExperimentConfig::default()
            .with_iterations(400)
            .with_seed(0xFA57)
            .with_fault_plan(FaultPlan::parse(plan).expect("plan parses"));
        let test = suite::by_name(name).expect("suite test");
        match audit_one(&test, &cfg, 0xFA57) {
            Ok(row) => {
                assert!(
                    row.faults > 0,
                    "{plan}: a whole-run plan must fire on {name}"
                );
                assert!(row.heuristic <= row.iterations, "{plan}: counter soundness");
            }
            Err(e) => {
                // Quarantine path: the failure is classified, not a crash.
                assert!(
                    matches!(e.kind(), "timeout" | "panic"),
                    "{plan}: unexpected error class {e}"
                );
            }
        }
    }
}

/// Arbitrary generated fault plans never panic the pipeline, and the
/// counters stay within their invariants on whatever the faulty machine
/// produced.
#[test]
fn random_fault_plans_never_crash_the_pipeline() {
    let kinds = ["drop", "corrupt", "stuck", "reorder"];
    let names = ["sb", "mp", "amd3", "iwp24"];
    run_cases(32, |g| {
        let n = 200u64;
        let clauses: Vec<String> = (0..1 + g.below(3))
            .map(|_| {
                let kind = *g.choose(&kinds);
                let thread = if g.chance(1, 2) {
                    "*".to_owned()
                } else {
                    format!("t{}", g.below(3))
                };
                let from = g.below(n as usize) as u64;
                let to = from + 1 + g.below(n as usize) as u64;
                let prob = g.below(101) as f64 / 100.0;
                // Bound stuck stalls so a p=1 plan cannot outlive the test.
                format!("{kind}@{thread}:{from}..{to}:p{prob}:c{}", 1 + g.below(60))
            })
            .collect();
        let plan = FaultPlan::parse(&clauses.join(",")).expect("generated plan parses");
        let test = suite::by_name(names[g.below(names.len())]).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(
            SimConfig::default()
                .with_seed(g.u64())
                .with_fault_plan(plan),
        );
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let h = HeuristicCounter::single(&conv.target_heuristic).count(&req);
        assert!(h.counts[0] <= n);
        let x = ExhaustiveCounter::single(&conv.target_exhaustive)
            .count(&req.with_frame_cap(Some(10_000)));
        assert!(x.counts[0] <= x.frames_examined);
    });
}

/// A hostile plan that stalls every thread for ~a billion cycles sends
/// tests to quarantine (classified as timeouts) instead of hanging or
/// crashing the suite, and the report stays index-aligned.
#[test]
fn livelocked_tests_are_quarantined_not_fatal() {
    let plan = FaultPlan::parse("stuck@*:0..1:c1000000000").expect("plan parses");
    let cfg = ExperimentConfig::default()
        .with_iterations(500)
        .with_seed(0xDEAD)
        .with_timeout_ms(Some(30))
        .with_retries(1)
        .with_fault_plan(plan);
    let report = resilient_audit(&cfg);
    assert_eq!(report.results.len(), suite::convertible().len());
    assert_eq!(report.results.len(), report.items.len());
    let quarantined = report.quarantined();
    assert!(
        !quarantined.is_empty(),
        "the stall must defeat at least one test"
    );
    for item in quarantined {
        assert_eq!(item.fault_kind(), Some("timeout"), "{}", item.name);
        assert_eq!(item.attempts.len(), 2, "{}: one retry permitted", item.name);
    }
}

/// Watchdog truncation is a pure prefix: a budget-cut run is bit-identical
/// to the head of the full run, and budgeted heuristic counts equal a
/// serial recount of exactly the scanned pivots.
#[test]
fn watchdog_truncated_counts_are_a_prefix_of_untruncated() {
    let names = ["sb", "amd3", "iwp24", "podwr001"];
    run_cases(24, |g| {
        let test = suite::by_name(names[g.below(names.len())]).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let n = 100 + g.below(200) as u64;
        let seed = g.u64();
        let mut full_runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
        let full = full_runner.run(&conv.perpetual, n);
        let polls = 1 + g.below(64) as u64;
        let mut cut_runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
        let cut = cut_runner.run_budgeted(&conv.perpetual, n, &Budget::with_poll_limit(polls));
        assert!(cut.iterations <= n);
        let fb = full.bufs();
        for (c, f) in cut.bufs().iter().zip(&fb) {
            assert_eq!(*c, &f[..c.len()], "budget-cut buffers must be a prefix");
        }
        // Counter level: partial counts are exactly the scanned prefix.
        let budget = Budget::with_poll_limit(1 + g.below(n as usize) as u64);
        let part = HeuristicCounter::single(&conv.target_heuristic)
            .count(&CountRequest::new(&fb, n).with_budget(&budget));
        assert!(part.frames_examined <= n);
        let mut prefix = 0u64;
        let mut scratch = perple_convert::HeuristicScratch::default();
        for i in 0..part.frames_examined {
            if conv.target_heuristic.eval(i, &fb, n, &mut scratch) {
                prefix += 1;
            }
        }
        assert_eq!(
            part.counts[0], prefix,
            "partial counts must match their prefix"
        );
    });
}

/// The native runner also refuses to fabricate violations: real x86 is
/// TSO, so forbidden targets stay silent there too (any hit would be a
/// soundness bug in conversion or counting).
#[test]
fn native_substrate_is_clean_for_fenced_tests() {
    for name in ["amd5", "mp+fences", "safe022"] {
        let test = suite::by_name(name).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let n = 2_000u64;
        let run = perple::native::run_perpetual(&conv.perpetual, n);
        let bufs = run.bufs();
        let hits = HeuristicCounter::single(&conv.target_heuristic)
            .count(&CountRequest::new(&bufs, n))
            .counts[0];
        assert_eq!(hits, 0, "{name}: native false positive");
    }
}
