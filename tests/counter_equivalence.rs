//! Differential proof obligations for the polynomial rf counter: across
//! the full convertible corpus, at every worker count, under fault
//! injection, over campaign-spec seed sets, and on adversarial random
//! buffers, [`RfCounter`] must be **bit-identical** to the exhaustive
//! reference — same counts, same flags — with the polynomial path (no
//! fallback) carrying every *target* outcome. Satellite property and
//! boundary suites live here too: random programs and schedules via
//! `perple_repro::prop`, `N = 1`, single-load-thread tests, the
//! `heuristic <= rf == exhaustive` ordering, and budget expiry yielding a
//! provable iteration prefix.

use perple::{
    Budget, Conversion, CountRequest, CountResult, Counter, ExhaustiveCounter, FaultPlan,
    HeuristicCounter, LitmusTest, PerpleRunner, RfCounter, SimConfig,
};
use perple_model::generate::generate_corpus;
use perple_model::suite;
use perple_repro::prop::run_cases;

const WORKERS: [usize; 4] = [1, 2, 3, 7];

/// The outcome sets of these tests contain multi-variable existential
/// outcomes outside the rf fragment (3-D dominance); their *targets* are
/// still polynomial, and the recorded fallback keeps the counts exact.
const FALLBACK_TESTS: [&str; 5] = ["co-iriw", "iriw", "rfi015", "safe012", "safe027"];

/// The outcomes of the generated three-load-thread tests that lie outside
/// the rf fragment: a cycle whose `y`–`z` pair is a data-data constraint
/// while `x` bounds `z`'s position. The base test and each of its fence
/// variants (`-f<edge>`, `-fall`) share them; every target is in the
/// fragment.
const GENERATED_TL3_FALLBACKS: (&str, [&str; 2]) =
    ("dyn-PodRW-Rfe-Fre-PodWR-Fre-Rfe", ["001", "100"]);

/// The `T_L = 3` convertible tests of the generated corpus, converted.
fn generated_three_load_tests() -> Vec<(LitmusTest, Conversion)> {
    generate_corpus(6, 4)
        .into_iter()
        .filter(perple_convert::is_convertible)
        .map(|t| {
            let conv = Conversion::convert(&t).expect("convertible");
            (t, conv)
        })
        .filter(|(_, conv)| conv.perpetual.load_thread_count() == 3)
        .collect()
}

/// Deterministic garbage with the run layout (`rpi * n` values per load
/// thread): decode successes and failures, stale and fresh fr thresholds.
fn garbage_bufs(conv: &Conversion, n: u64, salt: u64) -> Vec<Vec<u64>> {
    let perp = &conv.perpetual;
    perp.load_threads()
        .iter()
        .enumerate()
        .map(|(pos, t)| {
            let rpi = perp.reads_per_thread()[t.index()] as u64;
            (0..n * rpi)
                .map(|i| {
                    let mut h = (i ^ salt.rotate_left(pos as u32 * 8))
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(pos as u64);
                    h ^= h >> 29;
                    h % (3 * n + 7)
                })
                .collect()
        })
        .collect()
}

/// Counts with both exact backends and asserts bit-equality of every
/// semantic field (work-model fields — frames, evals, wall — may differ).
fn assert_rf_equals_exhaustive(
    outcome: &perple_convert::PerpetualOutcome,
    bufs: &[&[u64]],
    n: u64,
    ctx: &str,
) -> (CountResult, CountResult) {
    let req = CountRequest::new(bufs, n);
    let rf = RfCounter::single(outcome).count(&req);
    let exh = ExhaustiveCounter::single(outcome).count(&req);
    assert_eq!(rf.counts, exh.counts, "{ctx}: counts");
    assert_eq!(rf.truncated, exh.truncated, "{ctx}: truncated");
    assert_eq!(rf.budget_expired, exh.budget_expired, "{ctx}: budget");
    (rf, exh)
}

#[test]
fn every_corpus_target_counts_identically_without_fallback() {
    // The production path: audit, campaigns, and benches count the single
    // target outcome, so the polynomial fragment must carry every one.
    let n = 60u64;
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("convertible suite test");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xD1FF));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let (rf, _) = assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, test.name());
        assert!(
            !rf.downgraded,
            "{}: target must take the polynomial path",
            test.name()
        );
    }
}

#[test]
fn every_corpus_outcome_counts_identically_fallback_pinned() {
    // Variety analysis counts every outcome; outcomes outside the fragment
    // must still be exact (via the recorded fallback), and the set of
    // tests needing one is pinned so fragment regressions are loud.
    let n = 24u64;
    let mut fell_back = Vec::new();
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("convertible suite test");
        let all = conv.all_outcomes(&test).expect("outcomes");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xA11));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let mut needed_fallback = false;
        for (o, _) in &all {
            let ctx = format!("{}/{}", test.name(), o.label());
            let (rf, _) = assert_rf_equals_exhaustive(o, &bufs, n, &ctx);
            needed_fallback |= rf.downgraded;
        }
        if needed_fallback {
            fell_back.push(test.name().to_owned());
        }
    }
    fell_back.sort_unstable();
    assert_eq!(fell_back, FALLBACK_TESTS, "the rf fragment moved");
}

#[test]
fn every_generated_three_load_outcome_counts_identically_fallback_pinned() {
    // Every path and cycle orientation the generated corpus produces,
    // counted outcome by outcome on machine buffers and on garbage: the
    // suite alone only reaches the podwr001/safe007 cycle shapes.
    let tests = generated_three_load_tests();
    assert!(tests.len() >= 20, "{} generated T_L = 3 tests", tests.len());
    let n = 14u64;
    let (base, labels) = GENERATED_TL3_FALLBACKS;
    let mut expected = Vec::new();
    let mut fell_back = Vec::new();
    for (test, conv) in &tests {
        let name = test.name();
        if name == base || name.starts_with(&format!("{base}-f")) {
            expected.extend(labels.iter().map(|l| format!("{name}/{l}")));
        }
        let all = conv.all_outcomes(test).expect("outcomes");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x7E3));
        let run = runner.run(&conv.perpetual, n);
        let garbage: Vec<Vec<Vec<u64>>> = (0..3).map(|salt| garbage_bufs(conv, n, salt)).collect();
        let mut sources: Vec<(String, Vec<&[u64]>)> = vec![("sim".to_owned(), run.bufs())];
        for (salt, bufs) in garbage.iter().enumerate() {
            sources.push((
                format!("garbage{salt}"),
                bufs.iter().map(Vec::as_slice).collect(),
            ));
        }
        for (o, _) in &all {
            let mut downgraded = Vec::new();
            for (source, bufs) in &sources {
                let ctx = format!("{name}/{} on {source}", o.label());
                let (rf, _) = assert_rf_equals_exhaustive(o, bufs, n, &ctx);
                downgraded.push(rf.downgraded);
            }
            // The fragment is a property of the outcome, not the buffers.
            assert!(downgraded.iter().all(|&d| d == downgraded[0]), "{name}");
            if downgraded[0] {
                fell_back.push(format!("{name}/{}", o.label()));
            }
        }
        let (target, _) =
            assert_rf_equals_exhaustive(&conv.target_exhaustive, &sources[0].1, n, name);
        assert!(!target.downgraded, "{name}: target fell back");
    }
    fell_back.sort_unstable();
    expected.sort_unstable();
    assert_eq!(fell_back, expected, "the rf fragment moved");
}

#[test]
fn three_load_cycle_work_is_far_below_its_quadratic_bound() {
    // The cycle sweep reports the (x, y) pairs it visits, not the
    // `m + m^2` bound: on machine buffers that is a few per position.
    let test = suite::podwr001();
    let conv = Conversion::convert(&test).expect("converts");
    let n = 2_000u64;
    let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xC7C));
    let run = runner.run(&conv.perpetual, n);
    let bufs = run.bufs();
    let rf = RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&bufs, n));
    assert!(!rf.downgraded);
    assert!(rf.frames_examined >= n, "at least one sweep over x");
    assert!(
        rf.frames_examined <= n * n / 20,
        "{} work units at N = {n}",
        rf.frames_examined
    );
}

#[test]
fn worker_counts_change_no_field_of_the_rf_result() {
    for name in ["sb", "wrc", "podwr001", "iriw"] {
        let test = suite::by_name(name).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let n = 48u64;
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x33));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let serial = RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&bufs, n));
        for w in WORKERS {
            let par = RfCounter::single(&conv.target_exhaustive)
                .count(&CountRequest::new(&bufs, n).with_workers(w));
            let ctx = format!("{name}, workers {w}");
            assert_eq!(serial.counts, par.counts, "{ctx}: counts");
            assert_eq!(serial.frames_examined, par.frames_examined, "{ctx}: frames");
            assert_eq!(serial.evals, par.evals, "{ctx}: evals");
            assert_eq!(serial.truncated, par.truncated, "{ctx}: truncated");
            assert_eq!(serial.downgraded, par.downgraded, "{ctx}: downgraded");
        }
    }
}

#[test]
fn all_seeds_of_a_campaign_spec_agree() {
    // The seed axis of a campaign spec: every (test, seed) item the spec
    // `tests = sb, mp, amd3; seeds = 1..6` expands to must count
    // identically under both backends.
    let n = 80u64;
    for name in ["sb", "mp", "amd3"] {
        let test = suite::by_name(name).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        for seed in 1u64..6 {
            let mut runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
            let run = runner.run(&conv.perpetual, n);
            let bufs = run.bufs();
            let ctx = format!("{name}#{seed}");
            let (rf, _) = assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, &ctx);
            assert!(!rf.downgraded, "{ctx}");
        }
    }
}

#[test]
fn fault_injected_buffers_count_identically() {
    // Corrupted loads produce values no store sequence explains; the rf
    // compiler's decode guards must agree with eval_frame on every one.
    let n = 60u64;
    let plan = FaultPlan::parse("corrupt@t0:0..60").expect("fault plan");
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(
            SimConfig::default()
                .with_seed(0xBAD)
                .with_fault_plan(plan.clone()),
        );
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, test.name());
    }
}

#[test]
fn prop_random_schedules_and_programs_agree() {
    // Satellite 1a: random (test, seed, n) triples through the real
    // machine; rf must match exhaustive on the target of each.
    let tests = suite::convertible();
    run_cases(24, |g| {
        let test = g.choose(&tests).clone();
        let n = g.range_u64(8, 48);
        let seed = g.u64();
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let ctx = format!("{} seed {seed:#x} n {n}", test.name());
        assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, &ctx);
    });
}

#[test]
fn prop_adversarial_random_buffers_agree() {
    // Satellite 1b: raw random buffers — values the machine could never
    // produce (non-sequence garbage, huge values, zeros) — exercise every
    // decode-failure branch of the rf compiler.
    let tests = suite::convertible();
    run_cases(24, |g| {
        let test = g.choose(&tests).clone();
        let n = g.range_u64(1, 24);
        let conv = Conversion::convert(&test).expect("converts");
        let perp = &conv.perpetual;
        let bufs: Vec<Vec<u64>> = perp
            .load_threads()
            .iter()
            .map(|t| {
                let rpi = perp.reads_per_thread()[t.index()] as u64;
                (0..n * rpi)
                    .map(|_| match g.below(4) {
                        0 => 0,
                        1 => g.u64(),
                        _ => g.range_u64(0, 3 * n + 7),
                    })
                    .collect()
            })
            .collect();
        let views: Vec<&[u64]> = bufs.iter().map(Vec::as_slice).collect();
        let ctx = format!("{} n {n}", test.name());
        assert_rf_equals_exhaustive(&conv.target_exhaustive, &views, n, &ctx);
    });
}

#[test]
fn prop_rf_is_deterministic_across_reruns_and_worker_counts() {
    // Satellite 1c: the same request is a pure function — rerunning it, at
    // any worker count, reproduces every field.
    let tests = suite::convertible();
    run_cases(12, |g| {
        let test = g.choose(&tests).clone();
        let n = g.range_u64(8, 40);
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(g.u64()));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let first = RfCounter::single(&conv.target_exhaustive).count(&req);
        let again = RfCounter::single(&conv.target_exhaustive).count(&req);
        assert_eq!(first.counts, again.counts);
        assert_eq!(first.frames_examined, again.frames_examined);
        let w = *g.choose(&[2usize, 3, 7, 16]);
        let wide = RfCounter::single(&conv.target_exhaustive).count(&req.with_workers(w));
        assert_eq!(first.counts, wide.counts, "{} workers {w}", test.name());
        assert_eq!(first.evals, wide.evals, "{} workers {w}", test.name());
    });
}

#[test]
fn boundary_single_iteration_counts_identically_corpus_wide() {
    // N = 1: one frame per coordinate, every interval degenerate.
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x1));
        let run = runner.run(&conv.perpetual, 1);
        let bufs = run.bufs();
        assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, 1, test.name());
    }
}

#[test]
fn boundary_single_load_thread_tests_are_linear_and_exact() {
    // T_L = 1 tests have no cross-coordinate atoms at all — the rf plan is
    // pure unaries, and its work model equals one pass over N.
    let singles: Vec<_> = suite::convertible()
        .into_iter()
        .filter(|t| {
            Conversion::convert(t)
                .map(|c| c.perpetual.load_thread_count() == 1)
                .unwrap_or(false)
        })
        .collect();
    assert!(!singles.is_empty(), "the corpus has T_L = 1 tests");
    let n = 200u64;
    for test in singles {
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x71));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let (rf, exh) = assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, test.name());
        assert!(!rf.downgraded, "{}", test.name());
        assert_eq!(
            exh.frames_examined,
            n,
            "{}: T_L = 1 scans N frames",
            test.name()
        );
        assert!(
            rf.frames_examined <= n,
            "{}: rf work is at most N",
            test.name()
        );
    }
}

#[test]
fn boundary_heuristic_never_exceeds_the_exact_backends_suite_wide() {
    // The paper's containment: COUNTH finds a subset of what COUNT finds,
    // and rf == COUNT exactly, so `heuristic <= rf == exhaustive`.
    let n = 100u64;
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x0D3));
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let heur = HeuristicCounter::single(&conv.target_heuristic).count(&req);
        let (rf, exh) = assert_rf_equals_exhaustive(&conv.target_exhaustive, &bufs, n, test.name());
        assert!(
            heur.counts[0] <= rf.counts[0],
            "{}: heuristic {} > rf {}",
            test.name(),
            heur.counts[0],
            rf.counts[0]
        );
        assert_eq!(rf.counts[0], exh.counts[0], "{}", test.name());
    }
}

#[test]
fn boundary_budget_expiry_yields_a_provable_iteration_prefix() {
    // Budget expiry on the rf path is admission-based: the result equals
    // an unbudgeted rf count at the admitted prefix length — a provable
    // partial answer, not an arbitrary truncation.
    let test = suite::sb();
    let conv = Conversion::convert(&test).expect("converts");
    let n = 3_000u64;
    let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xB7D));
    let run = runner.run(&conv.perpetual, n);
    let bufs = run.bufs();

    let budget = Budget::with_poll_limit(1);
    let capped = RfCounter::single(&conv.target_exhaustive)
        .count(&CountRequest::new(&bufs, n).with_budget(&budget));
    assert!(
        capped.budget_expired,
        "one poll cannot admit 3000 iterations"
    );
    assert!(!capped.truncated, "rf never reports frame truncation");

    // The prefix the budget admitted (one 1024-iteration block) must count
    // exactly like an honest run of that length.
    let m = 1_024u64;
    let prefix_bufs: Vec<Vec<u64>> = bufs.iter().map(|b| b[..m as usize].to_vec()).collect();
    let prefix_views: Vec<&[u64]> = prefix_bufs.iter().map(Vec::as_slice).collect();
    let prefix =
        RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&prefix_views, m));
    assert!(!prefix.budget_expired);
    assert_eq!(
        capped.counts, prefix.counts,
        "budgeted == unbudgeted prefix"
    );
    let exact_prefix = ExhaustiveCounter::single(&conv.target_exhaustive)
        .count(&CountRequest::new(&prefix_views, m));
    assert_eq!(
        capped.counts, exact_prefix.counts,
        "and the prefix is exact"
    );
}
