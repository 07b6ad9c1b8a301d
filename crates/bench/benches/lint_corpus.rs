//! Micro-benchmarks of the static analyzer: single-test lint cost and the
//! corpus-wide sweep that the CI gate (`perple lint --deny warnings
//! corpus/*.litmus`) pays on every push.

use perple::lint::{lint_source, lint_test, LintConfig, LintReport, Severity};
use perple_bench::micro::Bench;
use perple_model::suite;

/// Loads every corpus file's source text (the bench measures linting, not
/// disk I/O).
fn corpus_sources() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("corpus file"))
        .collect()
}

fn main() {
    let bench = Bench::new(20);
    let cfg = LintConfig::default();

    {
        let test = suite::sb();
        bench.run("lint/sb", || lint_test(std::hint::black_box(&test), &cfg));
    }

    {
        // The worst single-test case: L003's solver cross-check walks
        // the whole outcome space, largest for 4-thread tests.
        let test = suite::by_name("iriw").expect("iriw in suite");
        bench.run("lint/iriw", || lint_test(std::hint::black_box(&test), &cfg));
    }

    {
        let sources = corpus_sources();
        assert_eq!(sources.len(), 88, "corpus size");
        bench.run("lint/corpus_88", || {
            let tests: Vec<_> = sources
                .iter()
                .map(|src| lint_source(std::hint::black_box(src), &cfg).expect("corpus parses"))
                .collect();
            let report = LintReport::new(cfg.clone(), tests);
            assert_eq!(report.count(Severity::Error), 0);
            report
        });
    }

    {
        let sources = corpus_sources();
        bench.run("lint/corpus_88_json", || {
            let tests: Vec<_> = sources
                .iter()
                .map(|src| lint_source(std::hint::black_box(src), &cfg).expect("corpus parses"))
                .collect();
            LintReport::new(cfg.clone(), tests).to_json().render()
        });
    }
}
