//! Solver ↔ enumerator equivalence: the constraint-based feasibility
//! engine (`perple-solve`) must agree bit-for-bit with the operational
//! enumerator (`perple-enumerate`) on every decided (test, outcome, model)
//! query — every `possible_outcomes()` row of the whole hand-written
//! corpus and of a large generated corpus — while its evidence stays
//! machine-checkable (witnesses replay, cores are non-empty) and its
//! verdicts stay monotone along the model lattice.
//! A wall-clock race against the operational enumerator on the
//! 3-thread corpus tests pins the asymptotic win the solver exists for.
//! The condition-level verdict every caller reads (`condition_allowed`:
//! campaigns, `perple run`/`audit`/`classify`/`solve`/`gen`, Table II) is
//! checked against the enumerator's `classify_under` on every (test,
//! model) of both corpora, final-memory conditions included, with the
//! solver deciding every query. The SC characterization of the suite's
//! targets and of generated critical cycles is checked on solver verdicts.
//! The choice-free relations the converter builds its conditions from
//! (`forced_relations`) are checked against every allowed witness.

use std::collections::BTreeSet;
use std::time::Instant;

use perple::campaign::CampaignSpec;
use perple::condition_allowed;
use perple::experiments::campaign::expand_tests;
use perple_enumerate::{classify, classify_under, enumerate};
use perple_model::generate::{from_cycle, generate_corpus, CycleEdge, Dir};
use perple_model::suite;
use perple_model::{AccessKind, InstrRef, LitmusTest, ModelId, Outcome};
use perple_solve as solve;
use solve::Verdict;

/// Checks one (test, outcome, model) query against the enumerator's
/// reachable set for that model: the solver's verdict equals membership,
/// witnesses replay, cores are non-empty. Returns the solver's answer, or
/// `None` when it abstains.
fn check_query(
    test: &LitmusTest,
    outcome: &Outcome,
    model: ModelId,
    reachable: &BTreeSet<Outcome>,
) -> Option<bool> {
    let v = solve::solve(test, outcome, model).ok()?;
    assert_eq!(
        v.is_allowed(),
        reachable.contains(outcome),
        "{} under {model}: solver={} enumerator={} for {outcome:?}",
        test.name(),
        v.is_allowed(),
        reachable.contains(outcome),
    );
    match v {
        Verdict::Allowed(w) => {
            solve::verify_witness(test, outcome, model, &w).unwrap_or_else(|e| {
                panic!("{} under {model}: witness replay failed: {e}", test.name())
            });
            Some(true)
        }
        Verdict::Forbidden(core) => {
            assert!(
                !core.edges.is_empty(),
                "{} under {model}: forbidden with an empty core",
                test.name()
            );
            Some(false)
        }
    }
}

/// Runs the full differential over a set of tests — one enumeration per
/// test and model, then every outcome row — and returns
/// (queries decided, abstentions) for a sanity floor.
fn differential(tests: &[LitmusTest]) -> (usize, usize) {
    let (mut decided, mut abstained) = (0usize, 0usize);
    for test in tests {
        let reachable: Vec<BTreeSet<Outcome>> = ModelId::ALL
            .iter()
            .map(|&m| enumerate(test, m).register_outcomes())
            .collect();
        for outcome in test.possible_outcomes() {
            // Verdicts must be monotone along the lattice: anything SC
            // allows, every weaker model allows too.
            let mut prev_allowed = false;
            for (model, reach) in ModelId::ALL.into_iter().zip(&reachable) {
                match check_query(test, &outcome, model, reach) {
                    Some(a) => {
                        assert!(
                            !prev_allowed || a,
                            "{} under {model}: allowed under a stronger model but \
                             forbidden here — lattice monotonicity violated",
                            test.name()
                        );
                        prev_allowed = a;
                        decided += 1;
                    }
                    None => abstained += 1,
                }
            }
        }
    }
    (decided, abstained)
}

#[test]
fn solver_matches_oracle_on_the_full_corpus() {
    let tests = suite::full();
    assert_eq!(tests.len(), 88, "corpus size drifted");
    let (decided, abstained) = differential(&tests);
    // Every decided query was bit-compared above; make sure the corpus
    // actually exercises the solver. Its floor and the generated corpus's
    // below sum to 27,000 decided queries (3064 + 23,948 today).
    assert!(
        decided >= 3_060,
        "only {decided} decided queries over the corpus"
    );
    assert!(
        abstained < decided,
        "abstentions ({abstained}) dominate decisions ({decided})"
    );
}

#[test]
fn solver_matches_oracle_on_the_generated_corpus() {
    // The standing generated corpus: critical cycles up to length 6 on
    // up to 4 threads, fence-augmented variants included. Well past the
    // 500-test floor; every outcome row is differentially checked under
    // all four models.
    let tests = generate_corpus(6, 4);
    assert!(
        tests.len() >= 500,
        "generated corpus too small: {}",
        tests.len()
    );
    let (decided, _) = differential(&tests);
    assert!(
        decided >= 23_940,
        "generated corpus barely exercised: {decided} decided queries"
    );
}

#[test]
fn solver_beats_operational_enumeration_on_three_thread_tests() {
    // The point of the constraint engine: static feasibility without
    // walking the operational state space. On the corpus's 3-thread
    // tests the operational enumerator explores every interleaving per
    // model while the solver backtracks over per-location write orders;
    // demand the full order-of-magnitude gap, inline, so a perf
    // regression fails the suite rather than rotting in a benchmark.
    let tests: Vec<LitmusTest> = suite::full()
        .into_iter()
        .filter(|t| t.threads().len() == 3 && !t.outcomes_matching_condition().is_empty())
        .collect();
    assert!(tests.len() >= 5, "corpus lost its 3-thread tests");

    let solver_start = Instant::now();
    let mut solver_bits = Vec::new();
    for t in &tests {
        for o in t.outcomes_matching_condition() {
            for m in ModelId::ALL {
                solver_bits.push(solve::feasible(t, &o, m).ok());
            }
        }
    }
    let solver_time = solver_start.elapsed();

    let enum_start = Instant::now();
    let mut enum_bits = Vec::new();
    for t in &tests {
        let rows: Vec<Outcome> = t.outcomes_matching_condition();
        for m in ModelId::ALL {
            let reached = enumerate(t, m).register_outcomes();
            for o in &rows {
                enum_bits.push(reached.contains(o));
            }
        }
    }
    let enum_time = enum_start.elapsed();

    // The operational enumerator answers per (test, model); reorder the
    // solver's per-outcome bits the same way before comparing.
    let mut solver_reordered = Vec::new();
    let mut idx = 0usize;
    for t in &tests {
        let nrows = t.outcomes_matching_condition().len();
        for (mi, _) in ModelId::ALL.iter().enumerate() {
            for r in 0..nrows {
                solver_reordered.push(solver_bits[idx + r * ModelId::ALL.len() + mi]);
            }
        }
        idx += nrows * ModelId::ALL.len();
    }
    for (s, e) in solver_reordered.iter().zip(&enum_bits) {
        if let Some(s) = s {
            assert_eq!(s, e, "solver and operational enumeration disagree");
        }
    }

    assert!(
        solver_time * 10 <= enum_time,
        "solver must be >=10x faster than operational enumeration on 3-thread \
         tests: solver {solver_time:?}, enumeration {enum_time:?}"
    );
}

#[test]
fn per_model_verdicts_equal_the_operational_classification() {
    // Every test a campaign can run: the convertible suite plus the
    // `generated` campaign expansion, under every model.
    let spec = CampaignSpec::parse("tests = generated\n").expect("spec parses");
    let generated = expand_tests(&spec).expect("generated expands");
    assert_eq!(generated.len(), 443, "generated expansion drifted");
    let mut tests = suite::convertible();
    assert_eq!(tests.len(), 34, "convertible suite drifted");
    tests.extend(generated);

    let (mut queries, mut fallbacks) = (0usize, 0usize);
    for t in &tests {
        let c = classify(t);
        for model in ModelId::ALL {
            queries += 1;
            fallbacks += usize::from(solve::condition_feasible(t, model).is_err());
            assert_eq!(
                condition_allowed(t, model),
                c.allowed_under(model),
                "{} under {model}: per-model verdict disagrees with classify",
                t.name()
            );
        }
    }
    assert_eq!(queries, 1908);
    assert_eq!(fallbacks, 0, "the solver must decide every campaign query");
}

#[test]
fn condition_verdicts_match_the_enumerator_on_both_corpora() {
    // The condition-level differential: register and final-memory atoms
    // alike, every (test, model) of the hand-written and generated
    // corpora is decided by the solver alone and equals the operational
    // enumerator's verdict. Every allowed row of a final-memory condition
    // replays its witness, co-last check included.
    let mut tests = suite::full();
    assert_eq!(tests.len(), 88, "corpus size drifted");
    let generated = generate_corpus(6, 4);
    assert_eq!(generated.len(), 1228, "generated corpus drifted");
    tests.extend(generated);

    let (mut queries, mut fallbacks, mut replayed) = (0usize, 0usize, 0usize);
    for t in &tests {
        for model in ModelId::ALL {
            queries += 1;
            let expected = classify_under(t, model);
            match solve::condition_feasible(t, model) {
                Ok(allowed) => assert_eq!(
                    allowed,
                    expected,
                    "{} under {model}: solver and enumerator disagree on the condition",
                    t.name()
                ),
                Err(_) => fallbacks += 1,
            }
            assert_eq!(condition_allowed(t, model), expected, "{}", t.name());
        }
        if !t.target().inspects_memory() {
            continue;
        }
        let Some(last) = solve::final_stores(t).expect("corpus atoms are attributable") else {
            continue;
        };
        for outcome in t.outcomes_matching_condition() {
            for model in ModelId::ALL {
                if let Ok(Verdict::Allowed(w)) = solve::solve_final(t, &outcome, &last, model) {
                    solve::verify_final_witness(t, &outcome, &last, model, &w).unwrap_or_else(
                        |e| panic!("{} under {model}: witness replay failed: {e}", t.name()),
                    );
                    replayed += 1;
                }
            }
        }
    }
    assert_eq!(queries, 5_264);
    assert_eq!(fallbacks, 0, "the enumerator fallback ran on a corpus test");
    assert!(replayed > 0, "no final-memory witness was replayed");
}

/// Asserts the solver decides every completion of `test`'s condition and
/// forbids each one under SC.
fn assert_sc_forbidden(test: &LitmusTest, what: &str) {
    let completions = test.outcomes_matching_condition();
    assert!(!completions.is_empty(), "{what}: no completion");
    for o in completions {
        let allowed = solve::feasible(test, &o, ModelId::Sc)
            .unwrap_or_else(|e| panic!("{what}: solver abstains on {o}: {e}"));
        assert!(!allowed, "{what}: completion {o} is SC-consistent");
    }
}

#[test]
fn allowed_targets_have_no_sc_consistent_completion() {
    // Target outcomes are the distinguishing outcomes: they require store
    // buffering, so no completion of the condition may be SC-consistent.
    for t in suite::allowed_targets() {
        assert_sc_forbidden(&t, t.name());
    }
}

#[test]
fn forbidden_targets_are_also_sc_forbidden() {
    // TSO-forbidden implies SC-forbidden (SC ⊆ TSO), on every completion
    // of the condition of every hand-written forbidden-target test.
    for t in [
        suite::lb(),
        suite::mp(),
        suite::mp_fences(),
        suite::mp_staleld(),
        suite::amd5(),
        suite::amd5_staleld(),
        suite::amd10(),
        suite::n4(),
        suite::n5(),
        suite::iriw(),
        suite::co_iriw(),
        suite::wrc(),
        suite::rwc_fenced(),
        suite::safe006(),
        suite::safe007(),
        suite::safe012(),
        suite::safe018(),
        suite::safe022(),
        suite::safe024(),
        suite::safe027(),
        suite::safe028(),
        suite::safe036(),
    ] {
        assert_sc_forbidden(&t, t.name());
    }
}

#[test]
fn generated_critical_cycles_are_sc_forbidden() {
    // The defining property of a critical cycle: no completion of the
    // generated condition is SC-consistent.
    use CycleEdge::*;
    use Dir::*;
    for cycle in [
        vec![Pod(W, R), Fre, Pod(W, R), Fre],
        vec![Pod(R, W), Rfe, Pod(R, W), Rfe],
        vec![Pod(W, W), Rfe, Pod(R, R), Fre],
        vec![Rfe, Pod(R, R), Fre, Rfe, Pod(R, R), Fre],
        vec![Pod(W, W), Rfe, Pod(R, W), Rfe, Pod(R, R), Fre],
    ] {
        let t = from_cycle("gen", &cycle).unwrap();
        assert!(!t.target().inspects_memory(), "cycle {cycle:?}");
        assert_sc_forbidden(&t, &format!("cycle {cycle:?}"));
    }
}

/// Checks `forced_relations` against the solver on every decided query
/// of `tests`: each forced co edge holds in an allowed witness's `co`,
/// each forced fr edge points at a write coherence-after the read's
/// writer, and a static cycle is forbidden under every model. Returns
/// (co edges checked, fr edges checked, cyclic outcomes).
fn cross_check_forced(tests: &[LitmusTest]) -> (usize, usize, usize) {
    let (mut co_checked, mut fr_checked, mut cyclic) = (0usize, 0usize, 0usize);
    for test in tests {
        for outcome in test.possible_outcomes() {
            let Ok(valued) = solve::valuation(test, &outcome) else {
                continue;
            };
            let Ok(forced) = solve::forced_relations(test, &valued) else {
                continue;
            };
            let evs = solve::events(test, &outcome).expect("the outcome is valued");
            let write = |s: InstrRef| {
                (0..evs.len())
                    .find(|&e| {
                        evs[e].kind == AccessKind::Write
                            && evs[e].thread == s.thread.index()
                            && evs[e].instr == usize::from(s.index)
                    })
                    .expect("every store is a write event")
            };
            // Coherence position of a store (0 is the initial value).
            let pos = |co: &[Vec<usize>], s: Option<InstrRef>, loc: usize| match s {
                None => 0,
                Some(s) => 1 + co[loc].iter().position(|&w| w == write(s)).unwrap(),
            };
            // co: coWR, and the co under each coRW and coRR fr edge.
            let mut co_edges = Vec::new();
            let mut fr_edges = Vec::new();
            for (i, w) in forced.rf.iter().enumerate() {
                fr_edges.extend(forced.fr[i].iter().map(|&s| (i, s)));
                if let Some(w) = *w {
                    co_edges.extend(forced.co_before[i].iter().map(|&s| (s, w)));
                    co_edges.extend(forced.fr[i].iter().map(|&s| (w, s)));
                }
            }
            for &(early, late) in &forced.corr {
                let (we, wl) = (forced.rf[early].unwrap(), forced.rf[late].unwrap());
                co_edges.push((we, wl));
                fr_edges.push((early, wl));
            }
            cyclic += usize::from(forced.cyclic);
            for model in ModelId::ALL {
                let Ok(v) = solve::solve(test, &outcome, model) else {
                    continue;
                };
                let w = match v {
                    Verdict::Allowed(w) => w,
                    Verdict::Forbidden(_) => continue,
                };
                assert!(
                    !forced.cyclic,
                    "{}: {outcome} has a static cycle but is allowed under {model}",
                    test.name()
                );
                for &(a, b) in &co_edges {
                    let loc = evs[write(a)].loc;
                    assert!(
                        pos(&w.co, Some(a), loc) < pos(&w.co, Some(b), loc),
                        "{}: {outcome} under {model}: forced co {a:?}->{b:?} inverted",
                        test.name()
                    );
                    co_checked += 1;
                }
                for &(r, s) in &fr_edges {
                    let loc = valued[r].0.loc.index();
                    assert!(
                        pos(&w.co, forced.rf[r], loc) < pos(&w.co, Some(s), loc),
                        "{}: {outcome} under {model}: forced fr of read {r} to {s:?} \
                         is not coherence-after its writer",
                        test.name()
                    );
                    fr_checked += 1;
                }
            }
        }
    }
    (co_checked, fr_checked, cyclic)
}

#[test]
fn forced_relations_agree_with_the_solver() {
    let mut tests = suite::full();
    assert_eq!(tests.len(), 88, "corpus size drifted");
    tests.extend(generate_corpus(6, 4));
    let (co, fr, cyclic) = cross_check_forced(&tests);
    // Every rule must stay exercised (2274 co edges, 30,004 fr edges and
    // 609 cyclic outcomes today).
    assert!(
        co >= 2_270 && fr >= 30_000 && cyclic >= 600,
        "co {co}, fr {fr}, cyclic {cyclic}"
    );
}
