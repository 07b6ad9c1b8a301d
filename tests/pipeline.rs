//! End-to-end integration: text → parse → convert → run → count → classify,
//! exercising every crate of the workspace together.

use perple::{
    classify, Conversion, CountRequest, Counter, HeuristicCounter, ModelId, Perple, PerpleRunner,
    SimConfig,
};
use perple_model::{parser, printer, suite};

#[test]
fn text_to_counts_pipeline() {
    // Start from litmus7 text, as a user would.
    let src = r#"
X86 sb-from-text
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
"#;
    let test = parser::parse(src).expect("parses");
    assert_eq!(test.name(), "sb-from-text");

    // The classifier (herd substitute) marks the target TSO-only.
    let class = classify(&test);
    assert!(class.is_target());

    // Convert and run perpetually; the target must be observable.
    let mut engine =
        Perple::with_config(&test, SimConfig::default().with_seed(0xE2E)).expect("converts");
    let result = engine.run(3_000);
    assert!(result.target_heuristic.counts[0] > 0);
    assert!(result.target_exhaustive.counts[0] >= result.target_heuristic.counts[0]);

    // Round-trip the text form.
    let reparsed = parser::parse(&printer::print(&test)).expect("round-trips");
    assert_eq!(test, reparsed);
}

#[test]
fn every_convertible_suite_test_flows_end_to_end() {
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("suite test converts");
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0x1234));
        let run = runner.run(&conv.perpetual, 300);
        let bufs = run.bufs();
        let count =
            HeuristicCounter::single(&conv.target_heuristic).count(&CountRequest::new(&bufs, 300));
        // Soundness on the TSO substrate: forbidden targets never fire.
        let class = classify(&test);
        if !class.tso_allowed {
            assert_eq!(count.counts[0], 0, "{}: false positive", test.name());
        }
    }
}

#[test]
fn full_suite_split_is_34_54_and_only_convertible_run_perpetually() {
    let mut converted = 0;
    let mut rejected = 0;
    for test in suite::full() {
        match Conversion::convert(&test) {
            Ok(conv) => {
                converted += 1;
                assert_eq!(conv.perpetual.thread_count(), test.thread_count());
            }
            Err(perple::ConvertError::MemoryClause { .. }) => rejected += 1,
            Err(e) => panic!("{}: unexpected conversion error {e}", test.name()),
        }
    }
    assert_eq!((converted, rejected), (34, 54));
}

#[test]
fn classification_is_consistent_between_solver_and_operational_views() {
    // For every convertible test and every model: the solver's verdicts on
    // the target's completions agree with the operational enumerator's
    // classification.
    for test in suite::convertible() {
        let class = perple_enumerate::classify(&test);
        let completions = test.outcomes_matching_condition();
        for model in ModelId::ALL {
            let any_allowed = completions
                .iter()
                .filter_map(|o| perple::solve::feasible(&test, o, model).ok())
                .any(|b| b);
            assert_eq!(
                any_allowed,
                class.allowed_under(model),
                "{} under {model}",
                test.name()
            );
        }
    }
}
