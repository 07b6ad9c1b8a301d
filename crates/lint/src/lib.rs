//! # perple-lint
//!
//! Rule-based static analysis over litmus tests, their perpetual
//! conversions, and their outcome conditions.
//!
//! PerpLE's correctness rests on invariants the pipeline otherwise checks
//! only dynamically (or not at all): value-uniqueness of the arithmetic
//! sequences `k_mem * n_t + a`, convertibility (§V-C), and soundness of the
//! heuristic condition `p_out_h` relative to the exhaustive `p_out`. This
//! crate pushes those checks ahead of the expensive counting phase as cheap
//! whole-test static rules with spanned, structured diagnostics.
//!
//! ## Rules
//!
//! | id | name | checks |
//! |------|------------------------|--------|
//! | L001 | sequence-overflow      | `k_mem * n + a` fits the value width for the configured iteration count |
//! | L002 | non-convertible        | per-clause / per-instruction reasons a test falls outside §V-C |
//! | L003 | condition-vacuity      | dead / tautological conditions, cross-validated against the solver under the configured model |
//! | L004 | heuristic-ambiguity    | linear partner derivation falls back to lockstep (`p_out_h` may undercount) |
//! | L005 | codegen-hygiene        | clobbered / unused registers, location aliasing in per-thread programs |
//! | L006 | outcome-coverage       | condition clauses expecting values the outcome space cannot produce |
//! | L007 | fence-redundancy       | `MFENCE`s whose deletion changes no model's allowed outcome set (solver-proved) |
//! | L008 | target-unexposable     | target condition statically forbidden under the configured model (solver-proved) |
//! | L009 | cross-model-divergence | per-model allowed/forbidden map when the target's exposability diverges |
//!
//! ## Severity model
//!
//! [`Severity::Error`] marks converter bugs and configurations that would
//! produce wrong counts (overflowing sequences, tautology/infeasibility
//! disagreeing with the solver's verdicts). [`Severity::Warning`] marks
//! suspicious-but-runnable constructs (dead clauses, clobbered registers).
//! [`Severity::Note`] is informational — in particular, the expected
//! non-convertibility explanations (L002) for the 54-test complement are
//! notes, so a clean corpus stays clean under `--deny warnings`.
//!
//! # Example
//!
//! ```
//! use perple_lint::{lint_test, LintConfig};
//! use perple_model::suite;
//!
//! let report = lint_test(&suite::sb(), &LintConfig::default());
//! assert!(report.diagnostics.is_empty());
//! assert!(report.convertible);
//!
//! let nc = lint_test(&suite::by_name("2+2w").unwrap(), &LintConfig::default());
//! assert!(!nc.convertible);
//! assert!(nc.diagnostics.iter().any(|d| d.rule.code() == "L002"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rules;

use std::fmt;

use perple_analysis::jsonout::Json;
use perple_convert::Conversion;
use perple_model::{parser, printer, LitmusTest, ModelError, ModelId, SourceMap, Span};

/// Diagnostic severity, ordered `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never gates.
    Note,
    /// Suspicious construct; gates under `--deny warnings`.
    Warning,
    /// Definite defect; always gates.
    Error,
}

impl Severity {
    /// Lowercase name, as emitted in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Sequence value overflow at the configured iteration count.
    L001,
    /// Reasons a test is non-convertible (§V-C).
    L002,
    /// Dead / tautological conditions vs the solver.
    L003,
    /// Ambiguous linear partner derivation (heuristic undercount risk).
    L004,
    /// Codegen hygiene: clobbered/unused registers, location aliasing.
    L005,
    /// Outcome-space coverage of condition clauses.
    L006,
    /// Fence redundancy: deletion changes no model's outcome set.
    L007,
    /// Target condition unexposable under the configured model.
    L008,
    /// Target exposability diverges across the model lattice.
    L009,
}

impl RuleId {
    /// Every rule, in id order.
    pub const ALL: [RuleId; 9] = [
        RuleId::L001,
        RuleId::L002,
        RuleId::L003,
        RuleId::L004,
        RuleId::L005,
        RuleId::L006,
        RuleId::L007,
        RuleId::L008,
        RuleId::L009,
    ];

    /// The stable machine code, e.g. `"L001"`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::L001 => "L001",
            RuleId::L002 => "L002",
            RuleId::L003 => "L003",
            RuleId::L004 => "L004",
            RuleId::L005 => "L005",
            RuleId::L006 => "L006",
            RuleId::L007 => "L007",
            RuleId::L008 => "L008",
            RuleId::L009 => "L009",
        }
    }

    /// The short human name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::L001 => "sequence-overflow",
            RuleId::L002 => "non-convertible",
            RuleId::L003 => "condition-vacuity",
            RuleId::L004 => "heuristic-ambiguity",
            RuleId::L005 => "codegen-hygiene",
            RuleId::L006 => "outcome-coverage",
            RuleId::L007 => "fence-redundancy",
            RuleId::L008 => "target-unexposable",
            RuleId::L009 => "cross-model-divergence",
        }
    }

    /// One-line description for `--help`-style listings.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::L001 => "prove k_mem*n+a fits the value width for the configured iteration count",
            RuleId::L002 => "explain per clause/instruction why a test is non-convertible (paper §V-C)",
            RuleId::L003 => "detect dead or tautological conditions, cross-validated against the constraint solver's verdicts",
            RuleId::L004 => "flag outcomes whose linear partner derivation falls back to lockstep",
            RuleId::L005 => "flag clobbered or unused registers and case-aliased locations",
            RuleId::L006 => "flag condition clauses expecting values the outcome space cannot produce",
            RuleId::L007 => "flag MFENCEs whose deletion changes no model's allowed outcome set",
            RuleId::L008 => "prove the target condition unexposable under the configured model",
            RuleId::L009 => "map which models allow vs forbid the target condition when they diverge",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: rule, severity, source span, and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// How severe the finding is.
    pub severity: Severity,
    /// Where in the (canonical) litmus source the finding points. The
    /// default (empty) span means "the whole test".
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.rule)?;
        if !self.span.is_empty() {
            write!(f, " ({})", self.span)?;
        }
        write!(f, " {}", self.message)
    }
}

/// Analysis configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Iteration count `N` the perpetual run is checked against (L001).
    pub iterations: u64,
    /// Bit width of runtime memory values (L001).
    pub value_bits: u32,
    /// Memory model the condition-vacuity cross-check (L003) validates
    /// against. Defaults to TSO, the paper's machine.
    pub model: ModelId,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            value_bits: 64,
            model: ModelId::Tso,
        }
    }
}

/// Lint results for one test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestReport {
    /// Test name.
    pub name: String,
    /// Where the source came from (file path), if linted from a file.
    pub origin: Option<String>,
    /// The litmus source the spans index into.
    pub source: String,
    /// Whether the test is convertible (§V-C).
    pub convertible: bool,
    /// Findings, in rule order then source order.
    pub diagnostics: Vec<Diagnostic>,
}

impl TestReport {
    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// The spanned source text of a diagnostic, if its span is non-empty.
    pub fn snippet(&self, d: &Diagnostic) -> Option<&str> {
        if d.span.is_empty() {
            None
        } else {
            d.span.slice(&self.source)
        }
    }
}

/// Lint results for a batch of tests plus the config they ran under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The configuration the rules ran under.
    pub config: LintConfig,
    /// Per-test results, in input order.
    pub tests: Vec<TestReport>,
}

impl LintReport {
    /// Wraps per-test reports.
    pub fn new(config: LintConfig, tests: Vec<TestReport>) -> Self {
        Self { config, tests }
    }

    /// Total diagnostics at exactly `sev` across all tests.
    pub fn count(&self, sev: Severity) -> usize {
        self.tests.iter().map(|t| t.count(sev)).sum()
    }

    /// True if the batch should gate: any error, or any warning when
    /// `deny_warnings` is set. Notes never gate.
    pub fn gates(&self, deny_warnings: bool) -> bool {
        self.count(Severity::Error) > 0 || (deny_warnings && self.count(Severity::Warning) > 0)
    }

    /// The machine-readable report (schema `perple-lint-v1`). Byte-stable:
    /// two runs over the same inputs render identically.
    pub fn to_json(&self) -> Json {
        let tests = self
            .tests
            .iter()
            .map(|t| {
                let diags = t
                    .diagnostics
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("rule", Json::Str(d.rule.code().to_owned())),
                            ("name", Json::Str(d.rule.name().to_owned())),
                            ("severity", Json::Str(d.severity.as_str().to_owned())),
                            ("line", Json::Int(d.span.line as i128)),
                            ("start", Json::Int(d.span.start as i128)),
                            ("end", Json::Int(d.span.end as i128)),
                            ("message", Json::Str(d.message.clone())),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("test", Json::Str(t.name.clone())),
                    (
                        "source",
                        t.origin
                            .as_ref()
                            .map_or(Json::Null, |p| Json::Str(p.clone())),
                    ),
                    ("convertible", Json::Bool(t.convertible)),
                    ("diagnostics", Json::Arr(diags)),
                    (
                        "counts",
                        Json::obj(vec![
                            ("errors", Json::Int(t.count(Severity::Error) as i128)),
                            ("warnings", Json::Int(t.count(Severity::Warning) as i128)),
                            ("notes", Json::Int(t.count(Severity::Note) as i128)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str("perple-lint-v1".to_owned())),
            (
                "config",
                Json::obj({
                    let mut fields = vec![
                        ("iterations", Json::Int(self.config.iterations as i128)),
                        ("value_bits", Json::Int(self.config.value_bits as i128)),
                    ];
                    // Emitted only off the default so TSO reports stay
                    // byte-identical to the pre-model-aware schema.
                    if self.config.model != ModelId::Tso {
                        fields.push(("model", Json::Str(self.config.model.name().to_owned())));
                    }
                    fields
                }),
            ),
            ("tests", Json::Arr(tests)),
            (
                "totals",
                Json::obj(vec![
                    ("tests", Json::Int(self.tests.len() as i128)),
                    ("errors", Json::Int(self.count(Severity::Error) as i128)),
                    ("warnings", Json::Int(self.count(Severity::Warning) as i128)),
                    ("notes", Json::Int(self.count(Severity::Note) as i128)),
                ]),
            ),
        ])
    }

    /// Human-readable rendering: per-test diagnostics with quoted snippets,
    /// then a summary line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in &self.tests {
            if t.diagnostics.is_empty() {
                continue;
            }
            let origin = t.origin.as_deref().unwrap_or("<suite>");
            let _ = writeln!(out, "{} ({origin}):", t.name);
            for d in &t.diagnostics {
                let _ = writeln!(out, "  {d}");
                if let Some(snip) = t.snippet(d) {
                    let _ = writeln!(out, "    | {snip}");
                }
            }
        }
        let _ = writeln!(
            out,
            "{} tests: {} errors, {} warnings, {} notes",
            self.tests.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        );
        out
    }
}

/// Matrix lint: the full rule set run under every [`ModelId`] in one
/// invocation, merged into a single report with per-model columns.
///
/// Each run is a complete [`LintReport`] whose config differs only in
/// `model`; tests appear in the same order in every run. The merged text
/// rendering groups identical findings and prefixes each with the models
/// that produced it, so model-independent rules (L001–L006 except the
/// L003 cross-check) show one line tagged with all four models while
/// model-aware findings (L008) split per model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixReport {
    /// One `(model, report)` pair per model, in lattice order.
    pub runs: Vec<(ModelId, LintReport)>,
}

impl MatrixReport {
    /// Wraps per-model runs. All runs must cover the same tests in the
    /// same order.
    pub fn new(runs: Vec<(ModelId, LintReport)>) -> Self {
        debug_assert!(runs
            .windows(2)
            .all(|w| w[0].1.tests.len() == w[1].1.tests.len()));
        Self { runs }
    }

    /// True if any per-model run gates (see [`LintReport::gates`]).
    pub fn gates(&self, deny_warnings: bool) -> bool {
        self.runs.iter().any(|(_, r)| r.gates(deny_warnings))
    }

    /// The machine-readable matrix (schema `perple-lint-matrix-v1`):
    /// the model list plus each model's full `perple-lint-v1` report.
    /// Byte-stable.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("perple-lint-matrix-v1".to_owned())),
            (
                "models",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|(m, _)| Json::Str(m.name().to_owned()))
                        .collect(),
                ),
            ),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|(m, r)| {
                            Json::obj(vec![
                                ("model", Json::Str(m.name().to_owned())),
                                ("report", r.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Merged human-readable rendering: per test, each distinct finding
    /// once, prefixed with the column of models that produced it; then one
    /// summary line per model.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint matrix under {}",
            self.runs
                .iter()
                .map(|(m, _)| m.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let ntests = self.runs.first().map_or(0, |(_, r)| r.tests.len());
        for ti in 0..ntests {
            // Group identical diagnostics across models, first-seen order.
            let mut groups: Vec<(Diagnostic, Vec<ModelId>)> = Vec::new();
            for (m, run) in &self.runs {
                for d in &run.tests[ti].diagnostics {
                    if let Some(g) = groups.iter_mut().find(|(k, _)| k == d) {
                        g.1.push(*m);
                    } else {
                        groups.push((d.clone(), vec![*m]));
                    }
                }
            }
            if groups.is_empty() {
                continue;
            }
            let t = &self.runs[0].1.tests[ti];
            let origin = t.origin.as_deref().unwrap_or("<suite>");
            let _ = writeln!(out, "{} ({origin}):", t.name);
            for (d, models) in groups {
                let cols = models
                    .iter()
                    .map(|m| m.name())
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(out, "  [{cols}] {d}");
                if let Some(snip) = t.snippet(&d) {
                    let _ = writeln!(out, "    | {snip}");
                }
            }
        }
        for (m, run) in &self.runs {
            let _ = writeln!(
                out,
                "{:<8} {} tests: {} errors, {} warnings, {} notes",
                m.name(),
                run.tests.len(),
                run.count(Severity::Error),
                run.count(Severity::Warning),
                run.count(Severity::Note),
            );
        }
        out
    }

    /// The static exposability table (the analyzer-produced successor to
    /// the bug-hunt "unexposable" prose): per test, one allowed/forbidden
    /// mark per model derived from that model's L008 verdict, plus a
    /// verdict column naming which machine weaknesses the test can expose.
    pub fn render_bugfinder(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Static exposability classification (solver-backed lint rules L008/L009)"
        );
        let _ = writeln!(
            out,
            "{:<16} {:>3} {:>4} {:>4} {:>8}  verdict",
            "test", "sc", "tso", "pso", "relaxed"
        );
        let ntests = self.runs.first().map_or(0, |(_, r)| r.tests.len());
        let mut expose_counts: Vec<(ModelId, usize)> = self
            .runs
            .iter()
            .filter(|(m, _)| *m > ModelId::Tso)
            .map(|(m, _)| (*m, 0))
            .collect();
        for ti in 0..ntests {
            let name = &self.runs[0].1.tests[ti].name;
            let exposable: Vec<(ModelId, bool)> = self
                .runs
                .iter()
                .map(|(m, run)| {
                    let unexposable = run.tests[ti]
                        .diagnostics
                        .iter()
                        .any(|d| d.rule == RuleId::L008);
                    (*m, !unexposable)
                })
                .collect();
            let tso = exposable
                .iter()
                .find(|(m, _)| *m == ModelId::Tso)
                .is_none_or(|&(_, e)| e);
            let weak: Vec<&str> = exposable
                .iter()
                .filter(|&&(m, e)| m > ModelId::Tso && e)
                .map(|(m, _)| m.name())
                .collect();
            let verdict = if tso {
                "allowed target".to_owned()
            } else if weak.is_empty() {
                "unexposable under every model".to_owned()
            } else {
                format!("exposes: {}", weak.join(", "))
            };
            for &(m, e) in &exposable {
                if !tso && e {
                    if let Some(c) = expose_counts.iter_mut().find(|(em, _)| *em == m) {
                        c.1 += 1;
                    }
                }
            }
            let mark = |m: ModelId| {
                exposable
                    .iter()
                    .find(|(em, _)| *em == m)
                    .map_or("?", |&(_, e)| if e { "A" } else { "-" })
            };
            let _ = writeln!(
                out,
                "{:<16} {:>3} {:>4} {:>4} {:>8}  {verdict}",
                name,
                mark(ModelId::Sc),
                mark(ModelId::Tso),
                mark(ModelId::Pso),
                mark(ModelId::Relaxed),
            );
        }
        for (m, n) in &expose_counts {
            if *n > 0 {
                let _ = writeln!(
                    out,
                    "{n} forbidden targets become exposable on a machine weakened to {}",
                    m.name()
                );
            }
        }
        out
    }
}

/// Lints a litmus source text.
///
/// # Errors
/// Returns the (spanned) [`ModelError`] if the source does not parse.
pub fn lint_source(src: &str, cfg: &LintConfig) -> Result<TestReport, ModelError> {
    let (test, map) = parser::parse_with_spans(src)?;
    Ok(lint_parsed(&test, src, &map, cfg))
}

/// Lints a programmatically-built test by rendering it to canonical litmus
/// text first (so diagnostics carry spans into that text).
pub fn lint_test(test: &LitmusTest, cfg: &LintConfig) -> TestReport {
    let src = printer::print(test);
    let (reparsed, map) = parser::parse_with_spans(&src)
        .expect("printer output must re-parse (round-trip invariant)");
    debug_assert_eq!(&reparsed, test);
    lint_parsed(&reparsed, &src, &map, cfg)
}

/// Runs every rule over an already-parsed test and its source map.
pub fn lint_parsed(test: &LitmusTest, src: &str, map: &SourceMap, cfg: &LintConfig) -> TestReport {
    let mut diagnostics = Vec::new();
    let gate = Conversion::convert_or_obstructions(test).map(|conv| {
        let all = conv.all_outcomes(test);
        (conv, all)
    });
    rules::l001_sequence_overflow(test, map, cfg, &gate, &mut diagnostics);
    rules::l002_non_convertible(&gate, map, &mut diagnostics);
    rules::l003_condition_vacuity(test, map, cfg, &gate, &mut diagnostics);
    rules::l004_heuristic_ambiguity(&gate, map, &mut diagnostics);
    rules::l005_codegen_hygiene(test, map, &mut diagnostics);
    rules::l006_outcome_coverage(test, map, &mut diagnostics);
    rules::l007_fence_redundancy(test, map, &mut diagnostics);
    rules::l008_target_unexposable(test, map, cfg, &mut diagnostics);
    rules::l009_cross_model_divergence(test, map, &mut diagnostics);
    TestReport {
        name: test.name().to_owned(),
        origin: None,
        source: src.to_owned(),
        convertible: gate.is_ok(),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn rule_registry_is_complete() {
        for r in RuleId::ALL {
            assert!(r.code().starts_with('L'));
            assert!(!r.name().is_empty());
            assert!(!r.description().is_empty());
        }
        assert_eq!(RuleId::L002.to_string(), "L002");
    }

    #[test]
    fn diagnostic_display_includes_span_and_rule() {
        let d = Diagnostic {
            rule: RuleId::L001,
            severity: Severity::Error,
            span: Span::new(3, 10, 20),
            message: "boom".into(),
        };
        assert_eq!(d.to_string(), "error[L001] (line 3, bytes 10..20) boom");
    }

    #[test]
    fn report_gating() {
        let mk = |sev| TestReport {
            name: "t".into(),
            origin: None,
            source: String::new(),
            convertible: true,
            diagnostics: vec![Diagnostic {
                rule: RuleId::L005,
                severity: sev,
                span: Span::default(),
                message: String::new(),
            }],
        };
        let notes = LintReport::new(LintConfig::default(), vec![mk(Severity::Note)]);
        assert!(!notes.gates(true));
        let warns = LintReport::new(LintConfig::default(), vec![mk(Severity::Warning)]);
        assert!(!warns.gates(false));
        assert!(warns.gates(true));
        let errs = LintReport::new(LintConfig::default(), vec![mk(Severity::Error)]);
        assert!(errs.gates(false));
    }

    #[test]
    fn json_shape_and_determinism() {
        let t = perple_model::suite::by_name("2+2w").unwrap();
        let cfg = LintConfig::default();
        let r1 = LintReport::new(cfg.clone(), vec![lint_test(&t, &cfg)]);
        let r2 = LintReport::new(cfg.clone(), vec![lint_test(&t, &cfg)]);
        let j1 = r1.to_json().render();
        assert_eq!(j1, r2.to_json().render(), "lint JSON must be byte-stable");
        assert!(j1.starts_with("{\"schema\":\"perple-lint-v1\""));
        let parsed = perple_analysis::jsonout::parse(&j1).unwrap();
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("tests"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn non_default_model_appears_in_json_config_only() {
        let t = perple_model::suite::sb();
        let tso = LintConfig::default();
        let j_tso = LintReport::new(tso.clone(), vec![lint_test(&t, &tso)])
            .to_json()
            .render();
        assert!(
            !j_tso.contains("\"model\""),
            "default TSO lint JSON must stay byte-identical to the old schema"
        );
        let relaxed = LintConfig {
            model: ModelId::Relaxed,
            ..LintConfig::default()
        };
        let j_rel = LintReport::new(relaxed.clone(), vec![lint_test(&t, &relaxed)])
            .to_json()
            .render();
        assert!(j_rel.contains("\"model\":\"relaxed\""));
    }

    #[test]
    fn lint_source_propagates_spanned_parse_errors() {
        let err = lint_source(
            "X86 t\n{ x=0; }\n P0 ;\n FROB ;\nexists (0:EAX=0)",
            &LintConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown instruction"));
    }
}
