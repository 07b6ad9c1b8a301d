//! Integration tests for the solver-backed model-aware rules (L007–L009):
//! the redundant-fence fixture, the corpus tests the paper calls
//! "unexposable" under TSO, and the divergence map the bugfinder consumes.

use std::fs;
use std::path::PathBuf;

use perple_lint::{lint_source, lint_test, LintConfig, LintReport, MatrixReport, RuleId, Severity};
use perple_model::{suite, ModelId};

fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"));
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

fn corpus(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../corpus/{name}.litmus"));
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

#[test]
fn l007_fires_on_the_redundant_fence_fixture() {
    let report = lint_source(&fixture("redundant_fence.litmus"), &LintConfig::default()).unwrap();
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::L007)
        .expect("trailing MFENCE must be flagged redundant");
    assert_eq!(hit.severity, Severity::Warning);
    assert!(!hit.span.is_empty(), "L007 must be spanned");
    assert_eq!(
        report.snippet(hit).unwrap().trim(),
        "MFENCE",
        "span must cover the fence instruction"
    );
    assert!(hit.message.contains("redundant"), "{}", hit.message);
    // The finding gates under --deny warnings.
    let batch = perple_lint::LintReport::new(LintConfig::default(), vec![report]);
    assert!(batch.gates(true));
    assert!(!batch.gates(false));
}

#[test]
fn l007_stays_silent_on_load_bearing_fences() {
    // amd5 / mp+fences: the fences are exactly what forbids the target, so
    // deleting either changes the TSO outcome set. amd5 with a second load
    // into P0's EAX keeps both fences load-bearing (deleting either makes
    // the target reachable under tso, pso and relaxed), but the solver
    // abstains on every outcome row (a register is loaded more than once),
    // so no deletion can be proved neutral.
    let amd5 = corpus("amd5");
    let reloaded = amd5.replace(
        " MOV EAX,[y] |  MOV EAX,[x] ;\n",
        " MOV EAX,[y] |  MOV EAX,[x] ;\n MOV EAX,[y] |              ;\n",
    );
    assert_ne!(reloaded, amd5, "amd5's load row changed shape");
    let test = perple_model::parser::parse(&reloaded).unwrap();
    for o in test.possible_outcomes() {
        for m in ModelId::ALL {
            assert!(
                perple_solve::feasible(&test, &o, m).is_err(),
                "{o} under {m}"
            );
        }
    }
    let mut sources: Vec<(&str, String)> = ["amd5", "mp+fences", "mp"]
        .into_iter()
        .map(|name| (name, corpus(name)))
        .collect();
    sources.push(("amd5 with a reloaded register", reloaded));
    for (name, src) in sources {
        let report = lint_source(&src, &LintConfig::default()).unwrap();
        assert!(
            report.diagnostics.iter().all(|d| d.rule != RuleId::L007),
            "{name}: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn l008_fires_on_iriw_and_lb_under_tso() {
    for name in ["iriw", "lb"] {
        let report = lint_source(&corpus(name), &LintConfig::default()).unwrap();
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::L008)
            .unwrap_or_else(|| panic!("{name}: forbidden target must be flagged unexposable"));
        assert_eq!(hit.severity, Severity::Note, "{name}");
        assert!(!hit.span.is_empty(), "{name}: L008 must span the condition");
        assert!(
            hit.message.contains("unexposable under TSO"),
            "{name}: {}",
            hit.message
        );
        let snip = report.snippet(hit).unwrap();
        assert!(
            snip.contains("exists"),
            "{name}: span should cover the condition: {snip:?}"
        );
    }
}

#[test]
fn l008_clears_when_the_configured_model_allows_the_target() {
    let relaxed = LintConfig {
        model: ModelId::Relaxed,
        ..LintConfig::default()
    };
    for name in ["iriw", "lb"] {
        let report = lint_source(&corpus(name), &relaxed).unwrap();
        assert!(
            report.diagnostics.iter().all(|d| d.rule != RuleId::L008),
            "{name}: relaxed allows the target, so L008 must not fire"
        );
    }
    // And a TSO-allowed target never fires under the default.
    let sb = lint_test(&suite::sb(), &LintConfig::default());
    assert!(sb.diagnostics.iter().all(|d| d.rule != RuleId::L008));
}

#[test]
fn l009_maps_the_divergence_for_weakness_witnesses() {
    // mp: forbidden under SC/TSO, allowed under PSO/relaxed — the
    // canonical store-store-reordering witness.
    let report = lint_source(&corpus("mp"), &LintConfig::default()).unwrap();
    let hit = report
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::L009)
        .expect("mp's target diverges below TSO");
    assert_eq!(hit.severity, Severity::Note);
    assert!(
        hit.message
            .contains("sc=forbidden tso=forbidden pso=allowed relaxed=allowed"),
        "{}",
        hit.message
    );
    // sb (allowed from TSO up) and amd5 (forbidden everywhere) have no
    // divergence below the baseline.
    for t in [suite::sb(), suite::amd5()] {
        let r = lint_test(&t, &LintConfig::default());
        assert!(
            r.diagnostics.iter().all(|d| d.rule != RuleId::L009),
            "{}: {:?}",
            t.name(),
            r.diagnostics
        );
    }
}

fn matrix_over(tests: &[perple_model::LitmusTest]) -> MatrixReport {
    MatrixReport::new(
        ModelId::ALL
            .iter()
            .map(|&model| {
                let cfg = LintConfig {
                    model,
                    ..LintConfig::default()
                };
                let reports = tests.iter().map(|t| lint_test(t, &cfg)).collect();
                (model, LintReport::new(cfg, reports))
            })
            .collect(),
    )
}

#[test]
fn matrix_merges_model_columns() {
    let matrix = matrix_over(&[suite::sb(), suite::iriw(), suite::mp()]);
    let text = matrix.render_text();
    // Model-independent findings merge into one line tagged with every
    // model; model-aware L008 messages name their model, so they split.
    assert!(text.contains("[sc,tso,pso,relaxed]"), "{text}");
    assert!(text.contains("[sc] ") && text.contains("[tso] "), "{text}");
    assert!(text.contains("unexposable under TSO"), "{text}");
    // One summary line per model.
    for m in ModelId::ALL {
        assert!(
            text.contains(&format!("{:<8} 3 tests:", m.name())),
            "{text}"
        );
    }
    assert!(!matrix.gates(false), "notes never gate");

    let json = matrix.to_json().render();
    assert!(
        json.starts_with("{\"schema\":\"perple-lint-matrix-v1\""),
        "{json}"
    );
    assert!(
        json.contains("\"models\":[\"sc\",\"tso\",\"pso\",\"relaxed\"]"),
        "{json}"
    );
    // Byte-stable.
    assert_eq!(
        json,
        matrix_over(&[suite::sb(), suite::iriw(), suite::mp()])
            .to_json()
            .render()
    );
}

#[test]
fn matrix_bugfinder_table_classifies_exposability() {
    let matrix = matrix_over(&[suite::sb(), suite::iriw(), suite::mp(), suite::amd5()]);
    let table = matrix.render_bugfinder();
    let row = |name: &str| {
        table
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("missing row {name}: {table}"))
    };
    // sb: allowed from TSO up — a live target, not a weakness witness.
    assert!(row("sb").contains("allowed target"), "{table}");
    // iriw: forbidden everywhere except relaxed.
    assert!(row("iriw").contains("exposes: relaxed"), "{table}");
    // mp: exposes both store-order weakenings.
    assert!(row("mp").contains("exposes: pso, relaxed"), "{table}");
    // amd5: fenced shut everywhere.
    assert!(
        row("amd5").contains("unexposable under every model"),
        "{table}"
    );
    // The footer counts weakness witnesses per machine.
    assert!(
        table.contains("exposable on a machine weakened to pso"),
        "{table}"
    );
    assert!(
        table.contains("exposable on a machine weakened to relaxed"),
        "{table}"
    );
}

#[test]
fn model_rule_reports_are_byte_stable() {
    let cfg = LintConfig::default();
    let mk = || {
        let reports = ["mp", "iriw", "lb", "mp+fences"]
            .iter()
            .map(|n| lint_source(&corpus(n), &cfg).unwrap())
            .chain([lint_source(&fixture("redundant_fence.litmus"), &cfg).unwrap()])
            .collect();
        perple_lint::LintReport::new(cfg.clone(), reports)
            .to_json()
            .render()
    };
    assert_eq!(mk(), mk());
}
