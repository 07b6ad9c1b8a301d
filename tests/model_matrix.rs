//! Cross-model matrix: the pluggable-model refactor must leave the
//! default TSO pipeline bit-identical to its pre-refactor behaviour
//! (machine digests, campaign cache fingerprints, the simulator cache
//! descriptor) while the model lattice SC ⊆ TSO ⊆ PSO ⊆ Relaxed holds
//! over the whole 88-test corpus. The SC, PSO and Relaxed machines, the
//! fault paths, watchdog truncation and the relaxed litmus7 baseline are
//! frozen the same way, so machine optimizations stay bit-identical.

use perple::campaign::CampaignSpec;
use perple::experiments::campaign::expand_items;
use perple::{
    BaselineRunner, Budget, Conversion, FaultPlan, ModelId, PerpleRunner, SimConfig, SyncMode,
};
use perple_enumerate::{classify, enumerate};
use perple_harness::perpetual::thread_specs;
use perple_model::suite;
use perple_sim::{Machine, RunOutput, Trace, TraceKind};

/// Runs `test` for `n` perpetual iterations under the given config and
/// returns the run's content digest.
fn digest(name: &str, seed: u64, n: u64, config: SimConfig) -> u64 {
    let test = suite::by_name(name).expect("suite test");
    let conv = Conversion::convert(&test).expect("convertible");
    PerpleRunner::new(config.with_seed(seed))
        .run(&conv.perpetual, n)
        .content_digest()
}

#[test]
fn tso_default_machine_digests_match_pre_refactor_goldens() {
    // Captured at the commit before ModelId existed: the default machine
    // must make exactly the same PRNG draws and scheduling decisions, so
    // these digests are frozen. A mismatch means the refactor changed
    // TSO behaviour — a regression, not a golden to update.
    let goldens: &[(&str, u64, u64, u64)] = &[
        ("sb", 1, 300, 0x811e259dc4eb0a25),
        ("sb", 42, 500, 0xcac12853f139edb1),
        ("mp", 7, 300, 0xaa8af02070e291bd),
        ("iriw", 9, 200, 0x48b5dbc53bb18a2b),
        ("safe022", 3, 250, 0xe301db5fd9118d91),
        ("amd3", 11, 400, 0xd341571ae9a84bd0),
    ];
    for &(name, seed, n, expect) in goldens {
        let got = digest(name, seed, n, SimConfig::default());
        assert_eq!(got, expect, "{name} seed={seed} n={n}: default machine");
        // Selecting TSO explicitly is the same machine, bit for bit.
        let explicit = digest(name, seed, n, SimConfig::default().with_model(ModelId::Tso));
        assert_eq!(explicit, expect, "{name}: explicit --model tso drifted");
    }
}

#[test]
fn campaign_fingerprints_match_pre_refactor_goldens() {
    // Cache keys are behavioural identity: if these change, every cached
    // TSO campaign result is orphaned. Frozen from the pre-refactor HEAD.
    let spec =
        CampaignSpec::parse("name = golden\ntests = sb, mp\nseeds = 1, 2\niterations = 500\n")
            .unwrap();
    let (_, items) = expand_items(&spec).unwrap();
    let got: Vec<(String, u64, String)> = items
        .iter()
        .map(|(_, i)| (i.test.clone(), i.seed, i.fingerprint.hex()))
        .collect();
    let expect = [
        ("sb", 1, "3d6d81b093c3a993a425f5253128ad9c"),
        ("sb", 2, "ce716814ffff30ece2fedd6348704a47"),
        ("mp", 1, "ffeabc27fffb78ce8ca02d44c5d485ae"),
        ("mp", 2, "3d430aee3aa6094639ab993758d79ec5"),
    ];
    assert_eq!(got.len(), expect.len());
    for ((test, seed, hex), (etest, eseed, ehex)) in got.iter().zip(expect) {
        assert_eq!((test.as_str(), *seed), (etest, eseed));
        assert_eq!(hex, ehex, "{test}#{seed}: cache fingerprint drifted");
    }
}

#[test]
fn default_cache_descriptor_is_pinned() {
    // The descriptor feeds every campaign fingerprint; the default (TSO)
    // form must never mention the model so existing cache entries hit.
    assert_eq!(
        SimConfig::default().cache_descriptor(),
        "seed=0xc0ffee00;drain=0.35;cap=8;preempt=0.0002/400;micro=0.004/30;stall=0.12/5;\
         weak=false;faults=none"
    );
    assert!(
        SimConfig::default()
            .with_model(ModelId::Relaxed)
            .cache_descriptor()
            .ends_with(";model=relaxed"),
        "non-default models must partition the cache"
    );
}

#[test]
fn outcome_sets_nest_along_the_lattice_on_the_full_corpus() {
    // SC ⊆ TSO ⊆ PSO ⊆ Relaxed, operationally, for all 88 suite tests.
    for test in suite::full() {
        let mut prev: Option<std::collections::BTreeSet<_>> = None;
        for model in ModelId::ALL {
            let outcomes = enumerate(&test, model)
                .register_outcomes()
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>();
            if let Some(stronger) = &prev {
                assert!(
                    stronger.is_subset(&outcomes),
                    "{}: {model} lost outcomes a stronger model allows",
                    test.name()
                );
            }
            prev = Some(outcomes);
        }
    }
}

#[test]
fn classification_is_monotone_on_the_full_corpus() {
    for test in suite::full() {
        let c = classify(&test);
        let mut prev = false;
        for model in ModelId::ALL {
            let now = c.allowed_under(model);
            assert!(
                now || !prev,
                "{}: allowed under a stronger model but not under {model}",
                test.name()
            );
            prev = now;
        }
    }
}

#[test]
fn relaxed_model_unlocks_formerly_unexposable_targets() {
    // lb and iriw are the headline tests the paper's TSO machine can never
    // exhibit; the relaxed machine both classifies them allowed and
    // actually fires them end to end.
    for name in ["lb", "iriw"] {
        let c = classify(&suite::by_name(name).unwrap());
        assert!(!c.pso_allowed, "{name} must stay PSO-forbidden");
        assert!(c.relaxed_allowed, "{name} must be relaxed-allowed");

        let test = suite::by_name(name).unwrap();
        let conv = Conversion::convert(&test).unwrap();
        let mut runner = PerpleRunner::new(
            SimConfig::default()
                .with_seed(5)
                .with_model(ModelId::Relaxed),
        );
        let run = runner.run(&conv.perpetual, 3_000);
        let bufs = run.bufs();
        use perple::Counter as _;
        let count = perple::HeuristicCounter::single(&conv.target_heuristic)
            .count(&perple::CountRequest::new(&bufs, 3_000));
        assert!(count.counts[0] > 0, "{name}: relaxed machine never fired");
    }
}

/// FNV-1a over every field of a raw machine run: buffers, cycles, final
/// memory, drains, faults and completion. Stronger than
/// [`PerpleRun::content_digest`], which sees only the frame buffers.
///
/// [`PerpleRun::content_digest`]: perple::PerpleRun::content_digest
fn run_digest(out: &RunOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for buf in &out.bufs {
        eat(buf.len() as u64);
        buf.iter().for_each(|&v| eat(v));
    }
    eat(out.final_mem.len() as u64);
    out.final_mem.iter().for_each(|&v| eat(v));
    eat(out.cycles);
    eat(out.drains);
    eat(out.faults);
    eat(out.complete as u64);
    h
}

/// Runs the perpetual program of suite test `name` on a bare machine.
fn machine_run(name: &str, n: u64, config: SimConfig, budget: Option<&Budget>) -> RunOutput {
    let test = suite::by_name(name).expect("suite test");
    let conv = Conversion::convert(&test).expect("convertible");
    let specs = thread_specs(&conv.perpetual, n);
    let cells = conv.perpetual.locations().len();
    let mut machine = Machine::new(config);
    match budget {
        Some(b) => machine.run_budgeted(&specs, cells, b),
        None => machine.run(&specs, cells),
    }
}

#[test]
fn every_model_machine_digests_match_pre_refactor_goldens() {
    // Captured before the allocation-free machine step: SC, PSO and
    // Relaxed must make the same PRNG draws in the same order, so both
    // the frame digest and the whole-run digest (cycles, drains, final
    // memory) are frozen. A mismatch is a regression, not a golden to
    // update.
    type Golden = (&'static str, u64, u64, u64, u64);
    let goldens: &[(ModelId, &[Golden])] = &[
        (
            ModelId::Sc,
            &[
                ("sb", 1, 300, 0x50db8145da7d6a67, 0xf98ce4b27d3d5b62),
                ("mp", 7, 500, 0xca58446acc8c87c7, 0x5dafee3efd8a909b),
                ("safe022", 3, 250, 0x2ade752f34b6004f, 0x333a2a53c3593de5),
            ],
        ),
        (
            ModelId::Pso,
            &[
                ("sb", 1, 300, 0xacf9bec5097e34e9, 0xca0b3d953935754e),
                ("mp", 42, 500, 0x83015f2ea62aa079, 0x18611b03562fa916),
                ("podwr001", 9, 400, 0x839c621d10c52f49, 0xa239d636ee85faf1),
                ("amd3", 11, 400, 0xdf614f459296c149, 0xb563665c9f2e4497),
            ],
        ),
        (
            ModelId::Relaxed,
            &[
                ("sb", 1, 300, 0xd183e77b84b8ee6b, 0x4c6fb0b5ad5cb69c),
                ("lb", 5, 500, 0xa1b8ab48b2122f31, 0x16dab1fa6dbde990),
                ("iriw", 9, 200, 0x14f606f1fc8c902c, 0xe592b60132e6d7d0),
                ("mp", 7, 1000, 0x193b03e5134caff1, 0xd37820a6cfa9f434),
                ("podwr001", 2, 400, 0x9400945a3992b9ff, 0xa84ef376100d8483),
                ("safe022", 3, 250, 0x9ed2672d0b9eff35, 0xdaeb0079c29fe546),
                ("amd3", 11, 400, 0x7c47d8014616ef9f, 0x5844c1bd0ca1d714),
            ],
        ),
    ];
    for &(model, rows) in goldens {
        for &(name, seed, n, frames, whole) in rows {
            let config = SimConfig::default().with_model(model);
            let got = digest(name, seed, n, config.clone());
            let run = run_digest(&machine_run(name, n, config.with_seed(seed), None));
            assert_eq!(
                got, frames,
                "{model} {name} seed={seed} n={n}: frame digest"
            );
            assert_eq!(run, whole, "{model} {name} seed={seed} n={n}: run digest");
        }
    }
}

#[test]
fn weak_store_order_fault_plan_and_budget_runs_match_pre_refactor_goldens() {
    // The remaining machine paths: the weak_store_order switch, every
    // fault kind firing (drop, corrupt, stuck, reorder), and a
    // deterministic watchdog truncation. Frozen before the
    // allocation-free machine step.
    let weak = machine_run(
        "mp",
        600,
        SimConfig::default()
            .with_seed(13)
            .with_weak_store_order(true),
        None,
    );
    assert_eq!(
        run_digest(&weak),
        0x929eb1e76e29713e,
        "weak_store_order run"
    );

    let plan = FaultPlan::parse(
        "drop@t0:10..40:p0.5,corrupt@t0:50..90:p0.5,stuck@*:120..122:c300,reorder@t0:150..400",
    )
    .unwrap();
    for (model, expect) in [
        (ModelId::Tso, 0xfba9e7ce2912a103u64),
        (ModelId::Pso, 0x1a5ccb48150e38cf),
        (ModelId::Relaxed, 0xb8538b58d2c85688),
    ] {
        let config = SimConfig::default()
            .with_seed(21)
            .with_model(model)
            .with_fault_plan(plan.clone());
        let test = suite::by_name("mp").unwrap();
        let conv = Conversion::convert(&test).unwrap();
        let specs = thread_specs(&conv.perpetual, 500);
        let mut trace = Trace::with_capacity(usize::MAX);
        let out =
            Machine::new(config).run_traced(&specs, conv.perpetual.locations().len(), &mut trace);
        let mut fired = std::collections::BTreeSet::new();
        for e in trace.events() {
            if let TraceKind::Fault { kind } = e.kind {
                fired.insert(kind);
            }
        }
        let want: &[&str] = if model == ModelId::Tso {
            &["corrupt", "drop", "reorder", "stuck"]
        } else {
            // PSO-style drains leave no room for a reorder burst.
            &["corrupt", "drop", "stuck"]
        };
        assert_eq!(
            fired.into_iter().collect::<Vec<_>>(),
            want,
            "{model}: fault kinds"
        );
        assert_eq!(run_digest(&out), expect, "{model}: fault-plan run");
    }

    for (model, expect) in [
        (ModelId::Tso, 0xe36c2b6a063455dfu64),
        (ModelId::Relaxed, 0x8f58db9f84ace628),
    ] {
        let config = SimConfig::default().with_seed(31).with_model(model);
        let budget = Budget::with_poll_limit(40);
        let out = machine_run("sb", 5_000, config, Some(&budget));
        assert!(!out.complete, "{model}: the poll limit truncates the run");
        assert_eq!(run_digest(&out), expect, "{model}: truncated run");
    }
}

#[test]
fn relaxed_litmus7_baseline_matches_pre_refactor_golden() {
    // The unsynchronized baseline strides every address by the location
    // count, so the relaxed issue window sees per-iteration cells.
    type Golden = (&'static str, &'static [(&'static str, u64)], u64, u64);
    let goldens: &[Golden] = &[
        (
            "lb",
            &[("00", 79), ("01", 246), ("10", 1672), ("11", 3)],
            3,
            24218,
        ),
        (
            "iriw",
            &[
                ("0000", 7),
                ("0001", 2),
                ("0010", 7),
                ("0011", 34),
                ("0100", 1),
                ("0110", 24),
                ("0111", 17),
                ("1001", 2),
                ("1011", 5),
                ("1111", 1901),
            ],
            0,
            23526,
        ),
    ];
    for &(name, histogram, target, cycles) in goldens {
        let mut runner = BaselineRunner::new(
            SimConfig::default()
                .with_seed(17)
                .with_model(ModelId::Relaxed),
            SyncMode::NoSync,
        );
        let run = runner.run(&suite::by_name(name).unwrap(), 2_000);
        let got: Vec<(&str, u64)> = run
            .outcome_counts
            .iter()
            .map(|(label, &count)| (label.as_str(), count))
            .collect();
        assert_eq!(got, histogram, "{name}: outcome histogram");
        assert_eq!(
            (run.target_count, run.exec_cycles),
            (target, cycles),
            "{name}"
        );
    }
}
