//! Integration checks on the Converter's textual artifacts (per-thread
//! assembly, C counter sources, parameter files) across the whole suite.

use perple::Conversion;
use perple_convert::codegen;
use perple_model::suite;

#[test]
fn every_convertible_test_emits_complete_artifacts() {
    for test in suite::convertible() {
        let conv = Conversion::convert(&test).expect("converts");
        let asm = codegen::emit_thread_asm(&conv.perpetual);
        assert_eq!(asm.len(), test.thread_count(), "{}", test.name());
        for (t, file) in asm.iter().enumerate() {
            assert!(
                file.contains(&format!("perp_thread_{t}")),
                "{}: thread {t} missing entry point",
                test.name()
            );
            assert!(file.contains(".loop:"), "{}", test.name());
            assert!(file.contains("ret"), "{}", test.name());
        }

        let params = codegen::emit_params(&conv.perpetual);
        for (t, r) in test.reads_per_thread().iter().enumerate() {
            assert!(
                params.contains(&format!("t{t}_reads = {r}")),
                "{}: params missing t{t}_reads",
                test.name()
            );
        }

        // One COUNT and one COUNTH per outcome.
        for (o, (outcome, heuristic)) in conv.all_outcomes(&test).iter().enumerate() {
            let count_c = codegen::emit_count_c(&conv.perpetual, outcome);
            let counth_c = codegen::emit_counth_c(&conv.perpetual, heuristic);
            assert!(count_c.contains("void COUNT("), "{} #{o}", test.name());
            assert!(counth_c.contains("void COUNTH("), "{} #{o}", test.name());
            // One nested loop per load-performing thread in COUNT.
            for p in 0..test.load_thread_count() {
                assert!(
                    count_c.contains(&format!("for (uint64_t n{p} = 0; n{p} < N; n{p}++)")),
                    "{} #{o}: COUNT missing loop over n{p}",
                    test.name()
                );
            }
            // Each counter tests exactly its one outcome: no else-if chain.
            for (name, src) in [("COUNT", &count_c), ("COUNTH", &counth_c)] {
                assert!(!src.contains("else if"), "{} #{o}: {name}", test.name());
            }
            assert!(
                counth_c.contains("p_out_h_0"),
                "{} #{o}: COUNTH missing p_out_h_0",
                test.name()
            );
            // Balanced braces: cheap well-formedness check on the C output.
            for (name, src) in [("COUNT", &count_c), ("COUNTH", &counth_c)] {
                let open = src.matches('{').count();
                let close = src.matches('}').count();
                assert_eq!(
                    open,
                    close,
                    "{} #{o}: unbalanced braces in {name}",
                    test.name()
                );
            }
        }
    }
}

#[test]
fn fenced_tests_keep_fences_in_assembly() {
    for name in ["amd5", "mp+fences", "safe007", "safe027"] {
        let test = suite::by_name(name).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let asm = codegen::emit_thread_asm(&conv.perpetual).join("\n");
        assert!(asm.contains("mfence"), "{name}: fence lost in conversion");
    }
}

#[test]
fn locked_exchanges_appear_in_assembly() {
    let test = suite::amd10();
    let conv = Conversion::convert(&test).expect("converts");
    let asm = codegen::emit_thread_asm(&conv.perpetual).join("\n");
    assert!(asm.contains("xchg ["));
}

#[test]
fn existential_scans_only_for_store_only_threads() {
    // mp has a store-only producer: its COUNT must scan an existential
    // index; sb has none: no scan.
    let mp = suite::mp();
    let conv_mp = Conversion::convert(&mp).expect("converts");
    let c_mp = codegen::emit_count_c(&conv_mp.perpetual, &conv_mp.target_exhaustive);
    assert!(c_mp.contains("m0 = 0; m0 < N && !hit"));

    let sb = suite::sb();
    let conv_sb = Conversion::convert(&sb).expect("converts");
    let c_sb = codegen::emit_count_c(&conv_sb.perpetual, &conv_sb.target_exhaustive);
    assert!(!c_sb.contains("!hit"));
}
