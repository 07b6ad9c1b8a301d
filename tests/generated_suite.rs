//! Integration of the diy-style cycle generator with the full pipeline:
//! generated tests classify correctly, convert when register-only, and
//! never produce false positives on the TSO substrate.

use perple::{
    Conversion, CountRequest, Counter, ExhaustiveCounter, HeuristicCounter, ModelId, PerpleRunner,
    SimConfig,
};
use perple_enumerate::{classify, enumerate};
use perple_model::generate::{from_cycle, generate_family, CycleEdge::*, Dir::*};

#[test]
fn generated_classics_classify_like_their_handwritten_twins() {
    // (cycle, handwritten twin, expected tso_allowed)
    let cases = [
        (vec![Pod(W, R), Fre, Pod(W, R), Fre], "sb", true),
        (vec![Pod(R, W), Rfe, Pod(R, W), Rfe], "lb", false),
        (vec![Pod(W, W), Rfe, Pod(R, R), Fre], "mp", false),
        (
            vec![Rfe, Pod(R, R), Fre, Rfe, Pod(R, R), Fre],
            "iriw",
            false,
        ),
    ];
    for (cycle, twin, expect_tso) in cases {
        let gen = from_cycle(&format!("gen-{twin}"), &cycle).unwrap();
        let c = classify(&gen);
        assert_eq!(c.tso_allowed, expect_tso, "gen-{twin}");
        assert!(
            !c.sc_allowed,
            "gen-{twin}: critical cycles are SC-forbidden"
        );
        // The handwritten twin agrees.
        let hand = perple_model::suite::by_name(twin).unwrap();
        let hc = classify(&hand);
        assert_eq!(c.tso_allowed, hc.tso_allowed, "{twin}");
    }
}

#[test]
fn whole_generated_family_is_sc_forbidden() {
    // The generator's defining invariant, checked operationally this time.
    for test in generate_family(4) {
        let sc = enumerate(&test, ModelId::Sc);
        assert!(
            !sc.condition_reachable(&test),
            "{}: generated condition is SC-reachable",
            test.name()
        );
    }
}

#[test]
fn generated_family_produces_no_false_positives_perpetually() {
    for test in generate_family(4) {
        let Ok(conv) = Conversion::convert(&test) else {
            continue;
        };
        let class = classify(&test);
        if class.tso_allowed {
            continue;
        }
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x6E4));
        let run = runner.run(&conv.perpetual, 200);
        let bufs = run.bufs();
        let count =
            HeuristicCounter::single(&conv.target_heuristic).count(&CountRequest::new(&bufs, 200));
        assert_eq!(count.counts[0], 0, "{}: false positive", test.name());
    }
}

#[test]
fn generated_tso_allowed_targets_are_observable() {
    // Every generated TSO-only target should eventually fire on the
    // simulator — use the exhaustive counter for sensitivity at small N.
    let mut observable = 0;
    let mut total = 0;
    for test in generate_family(4) {
        let Ok(conv) = Conversion::convert(&test) else {
            continue;
        };
        if !classify(&test).is_target() {
            continue;
        }
        total += 1;
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x0B5));
        let n = 800u64;
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let count = ExhaustiveCounter::single(&conv.target_exhaustive)
            .count(&CountRequest::new(&bufs, n).with_frame_cap(Some(5_000_000)));
        if count.counts[0] > 0 {
            observable += 1;
        }
    }
    assert!(total > 0, "family must contain TSO-only targets");
    assert_eq!(
        observable, total,
        "some TSO-allowed generated targets never fired"
    );
}
