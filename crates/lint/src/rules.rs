//! The rule implementations (L001–L006).
//!
//! Each rule is a free function appending [`Diagnostic`]s; [`crate::lint_parsed`]
//! runs them in id order, so report order is deterministic. Rules take the
//! [`SourceMap`] of the *canonical* source (file text for `lint_source`,
//! printer output for `lint_test`) and anchor every finding to an
//! instruction, condition-atom, or init-entry span where one exists.

use std::collections::BTreeMap;

use perple_convert::{Conversion, ConvertError, HeuristicOutcome, KMap, PerpetualOutcome};
use perple_model::{
    CondAtom, Instr, LitmusTest, LocId, ModelId, Outcome, Quantifier, SourceMap, Span, TestBuilder,
    ThreadId,
};
use perple_solve::Verdict;

use crate::{Diagnostic, LintConfig, RuleId, Severity};

fn push(out: &mut Vec<Diagnostic>, rule: RuleId, severity: Severity, span: Span, message: String) {
    out.push(Diagnostic {
        rule,
        severity,
        span,
        message,
    });
}

fn instr_span(map: &SourceMap, thread: usize, index: usize) -> Span {
    map.instr(thread, index).unwrap_or_default()
}

/// The converter's verdict on one test, computed once by
/// [`crate::lint_parsed`] for L001–L004: the conversion with its whole
/// outcome space, or every obstruction.
pub(crate) type Gate =
    Result<(Conversion, Vec<(PerpetualOutcome, HeuristicOutcome)>), Vec<ConvertError>>;

/// L001: every arithmetic sequence `k*n + a` must stay within the value
/// width for the configured iteration count. An overflowing sequence wraps
/// and silently breaks iteration attribution, so this is an error; the
/// message names the largest safe iteration count.
///
/// The sequences are defined whenever no init or store obstruction stands
/// in the way, so a test refused only for its condition is checked too.
pub(crate) fn l001_sequence_overflow(
    test: &LitmusTest,
    map: &SourceMap,
    cfg: &LintConfig,
    gate: &Gate,
    out: &mut Vec<Diagnostic>,
) {
    if cfg.iterations == 0 {
        return;
    }
    let computed;
    let kmap = match gate {
        Ok((conv, _)) => &conv.kmap,
        Err(obstructions) if obstructions.iter().all(|o| o.atom_index().is_some()) => {
            computed = KMap::compute(test);
            &computed
        }
        Err(_) => return, // L002 explains why
    };
    let max: u128 = if cfg.value_bits >= 128 {
        u128::MAX
    } else {
        (1u128 << cfg.value_bits) - 1
    };
    let n = cfg.iterations as u128;
    for loc_idx in 0..test.location_count() {
        let loc = LocId(loc_idx as u8);
        for asg in kmap.assignments_for(loc) {
            let (k, a) = (asg.k as u128, asg.a as u128);
            // Largest value the sequence produces over iterations 0..N-1.
            let last = k * (n - 1) + a;
            if last > max {
                let max_safe = if a > max { 0 } else { (max - a) / k + 1 };
                push(
                    out,
                    RuleId::L001,
                    Severity::Error,
                    instr_span(map, asg.instr.thread.index(), asg.instr.index as usize),
                    format!(
                        "sequence {k}*n+{a} for [{loc}] reaches {last} at iteration count \
                         {iters}, exceeding the {bits}-bit value range; max safe iteration \
                         count is {max_safe}",
                        loc = test.location_name(loc),
                        iters = cfg.iterations,
                        bits = cfg.value_bits,
                    ),
                );
            }
        }
    }
}

/// L002: spanned explanations of why a test is non-convertible (§V-C).
/// Notes, not warnings: the 54-test complement of the suite is *expected*
/// to be non-convertible, and a clean corpus must stay clean under
/// `--deny warnings`.
pub(crate) fn l002_non_convertible(gate: &Gate, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let Err(obstructions) = gate else {
        return;
    };
    for obstruction in obstructions {
        let span = match obstruction {
            ConvertError::MemoryClause { atom, .. }
            | ConvertError::UnloadedRegister { atom, .. }
            | ConvertError::NoWriterForValue { atom, .. } => {
                map.cond_atom(*atom).unwrap_or_else(|| map.condition())
            }
            ConvertError::NonZeroInit { loc, .. } => map.init_entry(loc).unwrap_or_default(),
            ConvertError::DuplicateStoreValue { second, .. } => {
                instr_span(map, second.thread.index(), second.index as usize)
            }
        };
        push(
            out,
            RuleId::L002,
            Severity::Note,
            span,
            obstruction.to_string(),
        );
    }
}

/// L003: satisfiability / vacuity of the condition, litmus-level over the
/// outcome space and conversion-level against the solver's verdicts under
/// the model configured by [`LintConfig::model`] (TSO by default).
///
/// A perpetual condition that is *tautological* for an outcome the model
/// forbids — or *statically infeasible* for one it allows — means the
/// converter would mis-count that outcome: both are errors.
pub(crate) fn l003_condition_vacuity(
    test: &LitmusTest,
    map: &SourceMap,
    cfg: &LintConfig,
    gate: &Gate,
    out: &mut Vec<Diagnostic>,
) {
    // Litmus level: the condition body against the register outcome space.
    if !test.target().inspects_memory() {
        let possible = test.possible_outcomes();
        let matching = test.outcomes_matching_condition();
        if matching.is_empty() {
            push(
                out,
                RuleId::L003,
                Severity::Warning,
                map.condition(),
                "condition body is unsatisfiable: no register outcome matches it".to_owned(),
            );
        } else if matching.len() == possible.len() {
            push(
                out,
                RuleId::L003,
                Severity::Warning,
                map.condition(),
                "condition body is tautological: every register outcome matches it".to_owned(),
            );
        }
    }

    // Conversion level: per-outcome cross-check of the exhaustive perpetual
    // condition p_out against the solver.
    let Ok((_, all)) = gate else {
        return;
    };
    let by_label: BTreeMap<String, perple_model::Outcome> = test
        .possible_outcomes()
        .into_iter()
        .map(|o| (o.label(), o))
        .collect();
    for (perp, _heur) in all {
        let tautological =
            perp.conds().is_empty() && perp.exist_threads().is_empty() && !perp.is_infeasible();
        if !tautological && !perp.is_infeasible() {
            continue; // a genuine condition is consistent with either verdict
        }
        let Some(outcome) = by_label.get(perp.label()) else {
            continue;
        };
        let Some(allowed) =
            checked_feasible(test, outcome, cfg.model, RuleId::L003, map.condition(), out)
        else {
            continue; // outcome outside the solver's scope
        };
        if tautological && !allowed {
            push(
                out,
                RuleId::L003,
                Severity::Error,
                map.condition(),
                format!(
                    "perpetual condition for outcome {} is tautological, but {} forbids \
                     the outcome: the converter would over-count it",
                    perp.label(),
                    cfg.model,
                ),
            );
        }
        if perp.is_infeasible() && allowed {
            push(
                out,
                RuleId::L003,
                Severity::Error,
                map.condition(),
                format!(
                    "perpetual condition for outcome {} is statically infeasible, but {} \
                     allows the outcome: the converter would under-count it",
                    perp.label(),
                    cfg.model,
                ),
            );
        }
    }
}

/// L004: linear partner derivation (§IV-B) falling back to lockstep means
/// `p_out_h` constrains frame indices it could not derive, so heuristic
/// counts may undercount relative to exhaustive counts.
///
/// Both findings are notes: legitimate suite tests (iriw, co-iriw,
/// safe012, safe027) have targets that genuinely need lockstep, so this is
/// a property to surface, not a defect to gate on.
pub(crate) fn l004_heuristic_ambiguity(gate: &Gate, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let Ok((conv, all)) = gate else {
        return;
    };
    if !conv.target_heuristic.fully_derived() {
        push(
            out,
            RuleId::L004,
            Severity::Note,
            map.condition(),
            "target outcome's linear partner derivation is ambiguous (lockstep fallback): \
             p_out_h may undercount relative to p_out"
                .to_owned(),
        );
    }
    let ambiguous: Vec<&str> = all
        .iter()
        .filter(|(_, h)| !h.fully_derived())
        .map(|(p, _)| p.label())
        .collect();
    if !ambiguous.is_empty() {
        push(
            out,
            RuleId::L004,
            Severity::Note,
            map.condition(),
            format!(
                "{}/{} outcomes use a lockstep fallback in partner derivation ({}): their \
                 heuristic counts are conservative",
                ambiguous.len(),
                all.len(),
                ambiguous.join(", "),
            ),
        );
    }
}

/// L005: hygiene of the generated per-thread programs — registers loaded
/// more than once (the earlier value is clobbered before the condition is
/// evaluated), registers loaded but never inspected, and location names
/// that alias under case-insensitive assemblers.
pub(crate) fn l005_codegen_hygiene(test: &LitmusTest, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let slots = test.load_slots();

    // Clobbered registers: two loads into the same (thread, register).
    for (i, s) in slots.iter().enumerate() {
        if let Some(prev) = slots[..i]
            .iter()
            .find(|p| p.thread == s.thread && p.reg == s.reg)
        {
            push(
                out,
                RuleId::L005,
                Severity::Warning,
                instr_span(map, s.thread.index(), s.instr_index as usize),
                format!(
                    "P{t} loads into {reg} more than once (first at instruction {first}): the \
                     earlier value is clobbered before the condition reads it",
                    t = s.thread.index(),
                    reg = test.reg_name(s.thread, s.reg),
                    first = prev.instr_index,
                ),
            );
        }
    }

    // Unused loaded registers: loaded but never named by the condition.
    let named: Vec<_> = test.target().reg_atoms().map(|(t, r, _)| (t, r)).collect();
    for s in &slots {
        let is_last_load_of_reg = !slots
            .iter()
            .any(|p| p.thread == s.thread && p.reg == s.reg && p.slot > s.slot);
        if is_last_load_of_reg && !named.contains(&(s.thread, s.reg)) {
            push(
                out,
                RuleId::L005,
                Severity::Note,
                instr_span(map, s.thread.index(), s.instr_index as usize),
                format!(
                    "P{t} loads {reg} but the condition never inspects it",
                    t = s.thread.index(),
                    reg = test.reg_name(s.thread, s.reg),
                ),
            );
        }
    }

    // Location aliasing: names equal up to ASCII case collide in
    // case-insensitive assembly listings.
    for i in 0..test.location_count() {
        for j in i + 1..test.location_count() {
            let (a, b) = (
                test.location_name(LocId(i as u8)),
                test.location_name(LocId(j as u8)),
            );
            if a.eq_ignore_ascii_case(b) {
                push(
                    out,
                    RuleId::L005,
                    Severity::Warning,
                    map.init_entry(b).unwrap_or_default(),
                    format!(
                        "locations [{a}] and [{b}] differ only by case and alias in \
                         case-insensitive assembly output"
                    ),
                );
            }
        }
    }
}

/// L006: outcome-space coverage — a condition clause expecting a value that
/// is neither the initial value nor stored to the inspected location can
/// never hold, so the declared outcome is outside the outcome space.
pub(crate) fn l006_outcome_coverage(test: &LitmusTest, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let slots = test.load_slots();
    for (atom, a) in test.target().atoms().iter().enumerate() {
        let span = map.cond_atom(atom).unwrap_or_else(|| map.condition());
        match *a {
            CondAtom::MemEq { loc, value } => {
                let reachable =
                    value == test.init(loc) || test.distinct_store_values(loc).contains(&value);
                if !reachable {
                    push(
                        out,
                        RuleId::L006,
                        Severity::Warning,
                        span,
                        format!(
                            "clause [{loc}]={value} can never hold: {value} is neither the \
                             initial value nor stored to [{loc}]",
                            loc = test.location_name(loc),
                        ),
                    );
                }
            }
            CondAtom::RegEq { thread, reg, value } => {
                // The register observes its last load's location.
                let Some(loc) = slots
                    .iter()
                    .rfind(|s| s.thread == thread && s.reg == reg)
                    .map(|s| s.loc)
                else {
                    continue; // unloaded register: reported by L002
                };
                let reachable =
                    value == test.init(loc) || test.distinct_store_values(loc).contains(&value);
                if !reachable {
                    push(
                        out,
                        RuleId::L006,
                        Severity::Warning,
                        span,
                        format!(
                            "clause {t}:{reg}={value} can never hold: {value} is neither the \
                             initial value of [{loc}] nor stored to it",
                            t = thread.index(),
                            reg = test.reg_name(thread, reg),
                            loc = test.location_name(loc),
                        ),
                    );
                }
            }
        }
    }
}

/// The solver's feasibility verdict, with every `Allowed` witness replayed
/// through [`perple_solve::verify_witness`]. A witness that fails replay is
/// a solver bug, not a property of the test, so it is reported as an
/// *internal* error. Returns `None` when the solver abstains or its
/// witness fails replay.
fn checked_feasible(
    test: &LitmusTest,
    outcome: &Outcome,
    model: ModelId,
    rule: RuleId,
    span: Span,
    out: &mut Vec<Diagnostic>,
) -> Option<bool> {
    match perple_solve::solve(test, outcome, model) {
        Ok(Verdict::Allowed(w)) => match perple_solve::verify_witness(test, outcome, model, &w) {
            Ok(()) => Some(true),
            Err(e) => {
                push(
                    out,
                    rule,
                    Severity::Error,
                    span,
                    format!(
                        "internal error: the constraint solver's witness that outcome {} \
                         is allowed under {model} fails replay: {e}",
                        outcome.label(),
                    ),
                );
                None
            }
        },
        Ok(Verdict::Forbidden(_)) => Some(false),
        Err(_) => None, // outcome outside the solver's scope
    }
}

/// Rebuilds `test` with the instruction at (`thread`, `index`) removed.
/// Used by L007 to compare a test against its fence-deleted variant.
fn without_instr(test: &LitmusTest, thread: usize, index: usize) -> Option<LitmusTest> {
    let mut b = TestBuilder::new(test.name());
    for l in 0..test.location_count() {
        let loc = LocId(l as u8);
        let v = test.init(loc);
        if v != 0 {
            b.init(test.location_name(loc), v);
        }
    }
    for (t, instrs) in test.threads().iter().enumerate() {
        let mut tb = b.thread();
        let tid = ThreadId(t as u8);
        for (i, instr) in instrs.iter().enumerate() {
            if t == thread && i == index {
                continue;
            }
            match *instr {
                Instr::Store { loc, value } => {
                    tb.store(test.location_name(loc), value);
                }
                Instr::Load { reg, loc } => {
                    tb.load(test.reg_name(tid, reg), test.location_name(loc));
                }
                Instr::Mfence => {
                    tb.mfence();
                }
                Instr::Xchg { reg, loc, value } => {
                    tb.xchg(test.reg_name(tid, reg), test.location_name(loc), value);
                }
            }
        }
    }
    b.quantifier(test.target().quantifier());
    for a in test.target().atoms() {
        match *a {
            CondAtom::RegEq { thread, reg, value } => {
                b.reg_cond(thread.index(), test.reg_name(thread, reg), value);
            }
            CondAtom::MemEq { loc, value } => {
                b.mem_cond(test.location_name(loc), value);
            }
        }
    }
    b.build().ok()
}

/// L007: fence redundancy. An `MFENCE` whose deletion leaves every model's
/// per-outcome verdict set unchanged (over the full register outcome
/// space, all four models) orders nothing the surrounding code does not
/// already order — it costs a pipeline drain for free.
///
/// Scope: register-observable tests whose fenced verdicts the solver
/// decides on every outcome row. A memory-inspecting condition can
/// distinguish final-memory states the register outcome space cannot, and
/// an abstention leaves the outcome set unknown, so fence deletion is not
/// provably neutral there and the rule stays silent.
///
/// Allowed verdicts on the *fenced* test are witness-checked; the
/// fence-deleted variant shares the event structure, so its verdicts are
/// taken as the solver returns them.
pub(crate) fn l007_fence_redundancy(test: &LitmusTest, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    if test.target().inspects_memory() {
        return;
    }
    let fences: Vec<(usize, usize)> = test
        .threads()
        .iter()
        .enumerate()
        .flat_map(|(t, instrs)| {
            instrs
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Instr::Mfence))
                .map(move |(i, _)| (t, i))
        })
        .collect();
    if fences.is_empty() {
        return;
    }
    let outcomes = test.possible_outcomes();
    for (t, i) in fences {
        let span = instr_span(map, t, i);
        let Some(variant) = without_instr(test, t, i) else {
            continue;
        };
        let redundant = ModelId::ALL.iter().all(|&model| {
            outcomes.iter().all(|o| {
                checked_feasible(test, o, model, RuleId::L007, span, out).is_some_and(|base| {
                    perple_solve::feasible(&variant, o, model).ok() == Some(base)
                })
            })
        });
        if redundant {
            push(
                out,
                RuleId::L007,
                Severity::Warning,
                span,
                format!(
                    "MFENCE at P{t} instruction {i} is redundant: deleting it leaves the \
                     allowed outcome set unchanged under every model (sc, tso, pso, relaxed)"
                ),
            );
        }
    }
}

/// The outcomes a register-only `exists` condition matches, or `None` when
/// the condition is out of scope for the solver rules (memory-inspecting,
/// universally quantified, or unsatisfiable — L003 owns that last case).
fn target_outcomes(test: &LitmusTest) -> Option<Vec<Outcome>> {
    if test.target().quantifier() != Quantifier::Exists || test.target().inspects_memory() {
        return None;
    }
    let matching = test.outcomes_matching_condition();
    (!matching.is_empty()).then_some(matching)
}

/// L008: target unexposable under the configured model. When every outcome
/// matching the condition is statically forbidden, running the test on a
/// conformant machine can never fire the target — the bugfinder's
/// "clean (unexposable)" verdict, surfaced as a spanned diagnostic at lint
/// time instead of prose in a results table.
///
/// A note, not a warning: forbidden-target tests are *deliberate* (they
/// exist to catch non-conformant machines), so a clean corpus must stay
/// clean.
pub(crate) fn l008_target_unexposable(
    test: &LitmusTest,
    map: &SourceMap,
    cfg: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    let Some(matching) = target_outcomes(test) else {
        return;
    };
    let span = map.condition();
    let mut all_forbidden = true;
    for o in &matching {
        match checked_feasible(test, o, cfg.model, RuleId::L008, span, out) {
            Some(false) => {}
            Some(true) => {
                all_forbidden = false;
                break;
            }
            None => return, // abstention or internal error: no verdict
        }
    }
    if all_forbidden {
        push(
            out,
            RuleId::L008,
            Severity::Note,
            span,
            format!(
                "target condition is unexposable under {}: all {} matching outcomes are \
                 statically forbidden, so a conformant machine can never fire it",
                cfg.model,
                matching.len(),
            ),
        );
    }
}

/// L009: cross-model divergence. When the target's exposability flips
/// *below the claimed x86-TSO baseline* — forbidden under TSO but allowed
/// under PSO or the relaxed model — report the full per-model map. This is
/// exactly the boundary the bugfinder exploits to pick which tests can
/// expose which machine weakness. (SC-vs-TSO divergence alone is the
/// definition of a target outcome and is not reported.)
pub(crate) fn l009_cross_model_divergence(
    test: &LitmusTest,
    map: &SourceMap,
    out: &mut Vec<Diagnostic>,
) {
    let Some(matching) = target_outcomes(test) else {
        return;
    };
    let span = map.condition();
    let mut exposable = Vec::with_capacity(ModelId::ALL.len());
    for model in ModelId::ALL {
        let mut any = false;
        for o in &matching {
            match checked_feasible(test, o, model, RuleId::L009, span, out) {
                Some(true) => {
                    any = true;
                    break;
                }
                Some(false) => {}
                None => return,
            }
        }
        exposable.push((model, any));
    }
    let tso = exposable
        .iter()
        .find(|&&(m, _)| m == ModelId::Tso)
        .is_some_and(|&(_, e)| e);
    let diverges_below_tso = exposable.iter().any(|&(m, e)| m > ModelId::Tso && e != tso);
    if diverges_below_tso {
        let map_str = exposable
            .iter()
            .map(|&(m, e)| format!("{}={}", m.name(), if e { "allowed" } else { "forbidden" }))
            .collect::<Vec<_>>()
            .join(" ");
        push(
            out,
            RuleId::L009,
            Severity::Note,
            span,
            format!("target exposability diverges across models: {map_str}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_test, LintConfig, RuleId, Severity};
    use perple_model::{suite, TestBuilder};

    fn cfg() -> LintConfig {
        LintConfig::default()
    }

    #[test]
    fn clean_convertible_test_has_no_diagnostics() {
        let r = lint_test(&suite::sb(), &cfg());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn l001_fires_on_small_value_width_with_max_safe_n() {
        let t = suite::by_name("n5").unwrap(); // k=2 location
        let narrow = LintConfig {
            iterations: 1000,
            value_bits: 8,
            ..LintConfig::default()
        };
        let r = crate::lint_parsed(
            &t,
            &perple_model::printer::print(&t),
            &perple_model::parser::parse_with_spans(&perple_model::printer::print(&t))
                .unwrap()
                .1,
            &narrow,
        );
        let overflow: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::L001)
            .collect();
        assert!(!overflow.is_empty());
        for d in &overflow {
            assert_eq!(d.severity, Severity::Error);
            assert!(
                d.message.contains("max safe iteration count is"),
                "{}",
                d.message
            );
            assert!(!d.span.is_empty(), "L001 must be anchored at the store");
        }
        // k=2, a=1 over 8-bit values: max safe n with 2*(n-1)+1 <= 255 is 128.
        assert!(
            overflow.iter().any(|d| d.message.ends_with("is 128")),
            "{:?}",
            overflow
        );
        // The default width is safe.
        let ok = lint_test(&t, &cfg());
        assert!(ok.diagnostics.iter().all(|d| d.rule != RuleId::L001));
    }

    #[test]
    fn l002_explains_memory_conditions_with_atom_spans() {
        let t = suite::by_name("2+2w").unwrap();
        let r = lint_test(&t, &cfg());
        let l002: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::L002)
            .collect();
        assert!(!l002.is_empty());
        for d in &l002 {
            assert_eq!(d.severity, Severity::Note);
            assert!(!d.span.is_empty());
            let snip = r.snippet(d).unwrap();
            assert!(
                snip.starts_with('['),
                "span should cover the mem atom: {snip:?}"
            );
        }
    }

    #[test]
    fn l003_flags_dead_and_tautological_bodies() {
        // Dead: EAX can only be 0 or 1, condition wants 0 and 1 at once
        // on the same register -> impossible (single atom value mismatch).
        let mut b = TestBuilder::new("dead");
        b.thread().store("x", 1);
        b.thread().load("EAX", "x").load("EBX", "x");
        b.reg_cond(1, "EAX", 1);
        b.reg_cond(1, "EBX", 1);
        // Make it dead via an unreachable value instead:
        let mut b2 = TestBuilder::new("taut");
        b2.thread().store("x", 1);
        b2.thread().load("EAX", "x");
        let t2 = {
            // No reg constraint at all is invalid (EmptyCondition), so a
            // tautological body needs an always-true atom set; skip.
            b2.reg_cond(1, "EAX", 0);
            b2.build().unwrap()
        };
        let _ = lint_test(&t2, &cfg());
        let t = b.build().unwrap();
        let r = lint_test(&t, &cfg());
        // This condition (EAX=1 and EBX=1) is satisfiable; no L003 warning.
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.rule != RuleId::L003 || d.severity != Severity::Warning));
    }

    #[test]
    fn l003_solver_cross_check_is_clean_on_the_convertible_suite() {
        for t in suite::convertible() {
            let r = lint_test(&t, &cfg());
            let errors: Vec<_> = r
                .diagnostics
                .iter()
                .filter(|d| d.rule == RuleId::L003 && d.severity == Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{}: p_out disagrees with the solver: {errors:?}",
                t.name()
            );
        }
    }

    #[test]
    fn l005_flags_clobbered_and_unused_registers() {
        let mut b = TestBuilder::new("clobber");
        b.thread().store("x", 1).store("y", 1);
        b.thread()
            .load("EAX", "x")
            .load("EAX", "y")
            .load("EBX", "x");
        b.reg_cond(1, "EAX", 1);
        let t = b.build().unwrap();
        let r = lint_test(&t, &cfg());
        assert!(r.diagnostics.iter().any(|d| d.rule == RuleId::L005
            && d.severity == Severity::Warning
            && d.message.contains("clobbered")));
        // EBX is loaded but never inspected.
        assert!(r.diagnostics.iter().any(|d| d.rule == RuleId::L005
            && d.severity == Severity::Note
            && d.message.contains("never inspects")));
    }

    #[test]
    fn l006_flags_unreachable_condition_values() {
        let mut b = TestBuilder::new("deadval");
        b.thread().store("x", 1);
        b.thread().load("EAX", "x");
        b.reg_cond(1, "EAX", 9);
        let t = b.build().unwrap();
        let r = lint_test(&t, &cfg());
        let hit = r
            .diagnostics
            .iter()
            .find(|d| d.rule == RuleId::L006)
            .expect("L006 should flag EAX=9");
        assert_eq!(hit.severity, Severity::Warning);
        assert!(hit.message.contains("can never hold"));
        assert!(!hit.span.is_empty());
    }
}
