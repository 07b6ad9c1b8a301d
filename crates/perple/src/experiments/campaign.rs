//! Campaign execution glue: plugs the engine-agnostic `perple-campaign`
//! crate into this crate's conversion pipeline and resilient suite pool.
//!
//! The campaign crate owns the store, cache, fingerprints, and regression
//! gate but never touches a simulator; this module supplies the missing
//! half:
//!
//! * spec → [`ExperimentConfig`] (fault plans parsed through the shared
//!   [`parse_fault_plan`], so malformed `inject =` lines are
//!   [`PerpleError::Config`], never panics);
//! * spec expansion (`convertible` magic entry, test-name validation) into
//!   fingerprinted [`CampaignItem`]s;
//! * the executor: cache misses run as `test#seed`-named items on
//!   [`run_suite_resilient`] via [`audit_one`], so campaigns inherit panic
//!   isolation, watchdog budgets, deterministic retries, and quarantine;
//! * conversion-artifact capture into the `conv/` cache namespace;
//! * each record's `forbidden` flag: one verdict per distinct test under
//!   the spec's model ([`condition_allowed`]), computed once per run
//!   the first time anything executes.
//!
//! ## Seeds and fingerprints
//!
//! An item named `sb#2` runs under
//! `attempt_seed(derive_seed(BASE, "sb#2", "campaign"), 0)` — a pure
//! function of the test name and the spec-level seed, independent of the
//! process, item order, and worker count. The item [`fingerprint`](item_fingerprint) feeds
//! every behavioural input (litmus source text, conversion pipeline
//! version, the derived-seed simulator descriptor including fault plan,
//! iterations, frame cap, watchdog) so cache hits are exactly the runs
//! whose outcome is already known. See `DESIGN.md`, "Cache keys and
//! invalidation".

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use perple_campaign::{
    git_describe, resume_campaign, run_campaign, ArtifactCache, CampaignItem, CampaignSpec,
    ExecOutcome, Fingerprint, Hasher, LintSummary, OutcomeRecord, PendingRun, RunMeta, RunStore,
    RunSummary, StageWallMs, StoreIo,
};
use perple_convert::artifact::ArtifactBundle;
use perple_lint::{lint_test, LintConfig, LintReport, RuleId, Severity};
use perple_model::{printer, suite, LitmusTest, ModelId};

use crate::error::{parse_fault_plan, PerpleError};
use crate::{condition_allowed, Conversion};

use super::resilient::{audit_one, run_suite_resilient, ItemStatus};
use super::{derive_seed, ExperimentConfig};

/// Fixed base for the per-item seed derivation (the spec's `seeds` axis is
/// the user-visible seed; this only decorrelates item names).
const CAMPAIGN_BASE_SEED: u64 = 0x9E37;

/// Tool tag in the seed derivation (see `derive_seed`).
const CAMPAIGN_TAG: &str = "campaign";

/// Version tag of the conversion pipeline mixed into fingerprints: bump
/// when the Converter's output changes meaning, orphaning cached
/// conversions and results produced by the old pipeline.
pub const CONVERSION_VERSION: &str = "convert-v1";

/// Display name of one item (also the seed-derivation key).
fn item_name(test: &str, seed: u64) -> String {
    format!("{test}#{seed}")
}

/// Builds the [`ExperimentConfig`] a spec describes.
///
/// # Errors
/// [`PerpleError::Config`] for malformed `inject =` fault plans or spec
/// values the validating builder rejects (zero iterations/timeout/cap).
pub fn campaign_config(spec: &CampaignSpec) -> Result<ExperimentConfig, PerpleError> {
    let plan = match &spec.inject {
        Some(s) => parse_fault_plan(s)?,
        None => perple_sim::FaultPlan::none(),
    };
    let counter = match &spec.counter {
        Some(s) => perple_analysis::count::CounterKind::parse(s)
            .ok_or_else(|| PerpleError::Config(format!("unknown counter backend {s:?}")))?,
        None => perple_analysis::count::CounterKind::Rf,
    };
    let model = match &spec.model {
        Some(s) => ModelId::parse(s)
            .ok_or_else(|| PerpleError::Config(format!("unknown memory model {s:?}")))?,
        None => ModelId::Tso,
    };
    let mut builder = ExperimentConfig::builder()
        .iterations(spec.iterations)
        .seed(CAMPAIGN_BASE_SEED)
        .timeout_ms(spec.timeout_ms)
        .retries(spec.retries)
        .fault_plan(plan)
        .counter(counter)
        .model(model)
        .exhaustive_frame_cap(spec.frame_cap);
    if spec.workers > 0 {
        builder = builder.workers(spec.workers);
    }
    builder.build()
}

/// Expands the spec's test list: `convertible` becomes the whole Table II
/// convertible suite, names are validated and deduplicated in order.
///
/// # Errors
/// [`PerpleError::Config`] for unknown or non-convertible test names.
pub fn expand_tests(spec: &CampaignSpec) -> Result<Vec<LitmusTest>, PerpleError> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for name in &spec.tests {
        if name == "convertible" {
            for t in suite::convertible() {
                if seen.insert(t.name().to_owned()) {
                    out.push(t);
                }
            }
            continue;
        }
        if name == "generated" {
            // The standing generated corpus (critical cycles up to length
            // 6 on up to 4 threads), restricted to the subset the
            // perpetual pipeline can run soundly: convertible (Wse cycles
            // pin final memory — the class the Converter rejects), and
            // single-writer-per-location. The conversion's frame
            // semantics identifies a store's sequence index with its
            // coherence position, which holds only when one thread writes
            // each location; with two writers, a lagging writer lands
            // low-index values coherence-late and a frame can match with
            // no corresponding single-shot execution (the static solver
            // flagged exactly such a false violation). Multi-writer
            // generated tests stay static-only (`perple solve`/`gen`).
            for t in perple_model::generate::generate_corpus(6, 4) {
                if perple_convert::is_convertible(&t)
                    && single_writer_locations(&t)
                    && seen.insert(t.name().to_owned())
                {
                    out.push(t);
                }
            }
            continue;
        }
        let t = suite::by_name(name)
            .ok_or_else(|| PerpleError::Config(format!("unknown suite test {name:?}")))?;
        if !perple_convert::is_convertible(&t) {
            return Err(PerpleError::Config(format!(
                "{name:?} is not convertible to a perpetual test"
            )));
        }
        if seen.insert(t.name().to_owned()) {
            out.push(t);
        }
    }
    Ok(out)
}

/// True when no shared location is written by two different threads.
///
/// The perpetual conversion encodes "how old is this value" as the store's
/// sequence index, which tracks the coherence order only while a single
/// thread writes the location. Tests that fail this check are excluded from
/// the `generated` campaign expansion (they remain fully supported by the
/// static solver).
fn single_writer_locations(t: &LitmusTest) -> bool {
    let mut writer: HashMap<perple_model::LocId, usize> = HashMap::new();
    for (tid, instrs) in t.threads().iter().enumerate() {
        for i in instrs {
            if let Some((loc, _)) = i.store_target() {
                if *writer.entry(loc).or_insert(tid) != tid {
                    return false;
                }
            }
        }
    }
    true
}

/// Fingerprint of one item's complete behavioural inputs (the result-cache
/// key).
pub fn item_fingerprint(test: &LitmusTest, cfg: &ExperimentConfig, seed: u64) -> Fingerprint {
    let runner_seed = derive_seed(cfg.seed, &item_name(test.name(), seed), CAMPAIGN_TAG);
    let mut h = Hasher::new();
    h.field("litmus", &printer::print(test))
        .field("pipeline", CONVERSION_VERSION)
        .field("sim", &cfg.sim_config(runner_seed).cache_descriptor())
        .field("counter", cfg.counter.name())
        .field_u64("iterations", cfg.iterations)
        .field_opt_u64("frame-cap", cfg.exhaustive_frame_cap)
        .field_opt_u64("timeout-ms", cfg.timeout_ms)
        .field_u64("item-seed", seed);
    h.finish()
}

/// Fingerprint of a test's conversion inputs alone (the conv-cache key):
/// source bytes and pipeline version, nothing run-specific.
pub fn conv_fingerprint(test: &LitmusTest) -> Fingerprint {
    let mut h = Hasher::new();
    h.field("litmus", &printer::print(test))
        .field("pipeline", CONVERSION_VERSION);
    h.finish()
}

/// Expands a spec into fingerprinted items (tests × seeds, spec order)
/// paired with their tests.
///
/// # Errors
/// As for [`expand_tests`] / [`campaign_config`].
pub fn expand_items(
    spec: &CampaignSpec,
) -> Result<(ExperimentConfig, Vec<(LitmusTest, CampaignItem)>), PerpleError> {
    let cfg = campaign_config(spec)?;
    let tests = expand_tests(spec)?;
    let mut out = Vec::with_capacity(tests.len() * spec.seeds.len());
    for t in &tests {
        for &seed in &spec.seeds {
            let item = CampaignItem {
                test: t.name().to_owned(),
                seed,
                fingerprint: item_fingerprint(t, &cfg, seed),
            };
            out.push((t.clone(), item));
        }
    }
    Ok((cfg, out))
}

/// Pre-run lint gate: lints every distinct test of the spec at the spec's
/// iteration count — and under the spec's memory model, so the
/// model-aware rules (L008 target-unexposable in particular) judge the
/// machine this campaign will actually run — and returns the report plus
/// severity totals for the manifest.
pub fn lint_spec_tests(spec: &CampaignSpec, tests: &[LitmusTest]) -> (LintReport, LintSummary) {
    let cfg = LintConfig {
        iterations: spec.iterations,
        model: spec
            .model
            .as_deref()
            .and_then(ModelId::parse)
            .unwrap_or_default(),
        ..LintConfig::default()
    };
    let reports = tests.iter().map(|t| lint_test(t, &cfg)).collect();
    let report = LintReport::new(cfg, reports);
    let summary = LintSummary {
        errors: report.count(Severity::Error) as u64,
        warnings: report.count(Severity::Warning) as u64,
        notes: report.count(Severity::Note) as u64,
    };
    (report, summary)
}

/// Runs one campaign spec against the store at `store_root`: lint gate,
/// cache partition, resilient execution of the misses, artifact capture,
/// run persistence.
///
/// `allow_lints` skips the refusal (the lint totals still land in the
/// manifest), mirroring the CLI's `--allow-lints`.
///
/// # Errors
/// Config errors from the spec, error-severity lint findings (unless
/// `allow_lints`), or store/cache I/O failures (as strings, ready for the
/// CLI).
pub fn run_spec(
    spec: &CampaignSpec,
    store_root: &Path,
    allow_lints: bool,
) -> Result<RunSummary, String> {
    run_spec_observed(
        spec,
        store_root,
        allow_lints,
        StoreIo::unplanned(),
        |_, _| {},
    )
}

/// [`run_spec`] with every store/cache/journal write routed through the
/// given IO shim (how `--crash PLAN` and the kill-and-resume CI step
/// exercise the durability layer against the real pipeline) and with the
/// engine's item observer: `on_item(slot, record)` fires exactly once per
/// expanded item as soon as its outcome is final (hits in slot order
/// during the partition, executed items as their journal frames land,
/// `None` for lost items) — the hook `perple serve` streams records
/// through.
///
/// # Errors
/// As for [`run_spec`], plus injected crashes from the shim's plan.
pub fn run_spec_observed(
    spec: &CampaignSpec,
    store_root: &Path,
    allow_lints: bool,
    io: StoreIo,
    on_item: impl FnMut(usize, Option<&OutcomeRecord>),
) -> Result<RunSummary, String> {
    let (cfg, tests_by_name, items) = expand_run(spec)?;

    let mut distinct: Vec<LitmusTest> = tests_by_name.values().cloned().collect();
    distinct.sort_by(|a, b| a.name().cmp(b.name()));
    let (lint_report, lint_summary) = lint_spec_tests(spec, &distinct);
    if lint_report.gates(false) && !allow_lints {
        let mut msg = String::from(
            "refusing to run: spec tests carry error-severity lints \
             (pass --allow-lints to override)\n",
        );
        msg.push_str(&lint_report.render_text());
        return Err(msg);
    }
    // Futility gate: when the solver proves (L008) that *every* expanded
    // test's target is unexposable under the spec's model, the campaign
    // cannot produce a single target occurrence on a conformant machine.
    // --allow-lints acknowledges that and runs it as a pure conformance
    // check (any hit is then a violation).
    let unexposable = !lint_report.tests.is_empty()
        && lint_report
            .tests
            .iter()
            .all(|t| t.diagnostics.iter().any(|d| d.rule == RuleId::L008));
    if unexposable && !allow_lints {
        let model = spec
            .model
            .as_deref()
            .and_then(ModelId::parse)
            .unwrap_or_default();
        let mut msg = format!(
            "refusing to run: every target in this spec is statically \
             unexposable under {model} (lint L008) — a conformant machine can \
             never produce a hit; pass --allow-lints to run it as a pure \
             conformance check\n",
        );
        msg.push_str(&lint_report.render_text());
        return Err(msg);
    }

    let store = RunStore::open_with(store_root, io.clone()).map_err(|e| e.to_string())?;
    let cache = ArtifactCache::open_with(store_root, io).map_err(|e| e.to_string())?;
    let meta = RunMeta {
        created_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        git: git_describe(),
        lint: Some(lint_summary),
    };
    run_campaign(
        &store,
        &cache,
        spec,
        &items,
        &meta,
        spec.durability(),
        run_executor(&tests_by_name, &cfg, &cache),
        on_item,
    )
    .map_err(|e| e.to_string())
}

/// Resumes the interrupted run `id`, with every store/cache/journal write
/// routed through `io` and items observed as for [`run_spec_observed`]:
/// rebuilds the spec, items, and metadata from the run's own
/// `pending.json` marker (no original invocation needed), replays the
/// journal, and executes only the remainder. The finished `items.json` is
/// bit-identical to what an uninterrupted run would have produced.
/// Returns the run's frozen spec with its summary.
///
/// # Errors
/// Not-resumable / corrupt-marker errors from the store, spec re-parse
/// errors, or anything [`run_spec_observed`] can fail with (as strings,
/// ready for the CLI).
pub fn resume_spec(
    store_root: &Path,
    id: &str,
    io: StoreIo,
    on_item: impl FnMut(usize, Option<&OutcomeRecord>),
) -> Result<(CampaignSpec, RunSummary), String> {
    let store = RunStore::open_with(store_root, io.clone()).map_err(|e| e.to_string())?;
    let cache = ArtifactCache::open_with(store_root, io).map_err(|e| e.to_string())?;
    let pending = PendingRun::load(&store, id).map_err(|e| e.to_string())?;
    let (cfg, tests_by_name, items) = expand_run(pending.spec())?;
    let summary = resume_campaign(
        &store,
        &cache,
        &pending,
        &items,
        pending.spec().durability(),
        run_executor(&tests_by_name, &cfg, &cache),
        on_item,
    )
    .map_err(|e| e.to_string())?;
    Ok((pending.spec().clone(), summary))
}

/// What a run or a resume executes: the spec's config, the tests its
/// items name (keyed by name), and the fingerprinted items in spec order.
#[allow(clippy::type_complexity)]
fn expand_run(
    spec: &CampaignSpec,
) -> Result<
    (
        ExperimentConfig,
        HashMap<String, LitmusTest>,
        Vec<CampaignItem>,
    ),
    String,
> {
    let (cfg, expanded) = expand_items(spec).map_err(|e| e.to_string())?;
    let tests_by_name = expanded
        .iter()
        .map(|(t, _)| (t.name().to_owned(), t.clone()))
        .collect();
    let items = expanded.into_iter().map(|(_, i)| i).collect();
    Ok((cfg, tests_by_name, items))
}

/// Forbidden-ness of every distinct test of a run under `model`, keyed by
/// test name.
fn run_verdicts(
    tests_by_name: &HashMap<String, LitmusTest>,
    model: ModelId,
) -> HashMap<String, bool> {
    let _span = perple_obs::trace::span("verdicts");
    tests_by_name
        .iter()
        .map(|(name, t)| (name.clone(), !condition_allowed(t, model)))
        .collect()
}

/// The executor of one run (or resume). What it derives from the run's
/// tests is computed once and reused by every batch of cache misses: the
/// verdicts on the first batch (an all-hit run computes none), and the
/// set of tests whose conversion artifacts were already captured.
fn run_executor<'a>(
    tests_by_name: &'a HashMap<String, LitmusTest>,
    cfg: &'a ExperimentConfig,
    cache: &'a ArtifactCache,
) -> impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>> + 'a {
    let mut forbidden = None;
    let mut captured = HashSet::new();
    move |batch| {
        let forbidden = forbidden.get_or_insert_with(|| run_verdicts(tests_by_name, cfg.model));
        execute_batch(batch, tests_by_name, cfg, cache, forbidden, &mut captured)
    }
}

/// Executes a batch of cache misses on the resilient suite pool and shapes
/// the results for the engine.
///
/// # Panics
/// If the batch names a test with no verdict (outside the run's
/// expansion): recording it as allowed would hide its violations.
fn execute_batch(
    batch: &[CampaignItem],
    tests_by_name: &HashMap<String, LitmusTest>,
    cfg: &ExperimentConfig,
    cache: &ArtifactCache,
    forbidden: &HashMap<String, bool>,
    captured: &mut HashSet<String>,
) -> Vec<Option<ExecOutcome>> {
    // Capture conversion artifacts for every distinct test, once per run
    // (write-if-absent; convert failures are left to the executor, which
    // reports them per item).
    for item in batch {
        let Some(test) = tests_by_name.get(&item.test) else {
            continue;
        };
        if !captured.insert(item.test.clone()) {
            continue;
        }
        let fp = conv_fingerprint(test);
        if cache.load_conv(fp).is_none() {
            if let Ok(conv) = Conversion::convert(test) {
                let bundle = ArtifactBundle::from_conversion(&conv);
                let _ = cache.store_conv(fp, &bundle.render_text());
            }
        }
    }

    let verdicts: Vec<bool> = batch
        .iter()
        .map(|i| match forbidden.get(&i.test) {
            Some(&f) => f,
            None => panic!(
                "campaign item {:?} has no verdict: test outside the run's expansion",
                i.test
            ),
        })
        .collect();
    let pairs: Vec<(LitmusTest, &CampaignItem)> = batch
        .iter()
        .map(|i| (tests_by_name[&i.test].clone(), i))
        .collect();

    let report = run_suite_resilient(
        &pairs,
        cfg,
        |(_, i)| item_name(&i.test, i.seed),
        CAMPAIGN_TAG,
        |(t, _), seed| audit_one(t, cfg, seed),
    );

    report
        .results
        .iter()
        .zip(&report.items)
        .zip(batch.iter().zip(verdicts))
        .map(|((row, disposition), (item, is_forbidden))| {
            let model = (cfg.model != ModelId::Tso).then(|| cfg.model.name().to_owned());
            let outcome = match row {
                Some(r) => ExecOutcome {
                    record: OutcomeRecord {
                        test: item.test.clone(),
                        seed: item.seed,
                        fingerprint: item.fingerprint.hex(),
                        forbidden: is_forbidden,
                        model: model.clone(),
                        heuristic: r.heuristic,
                        exhaustive: r.exhaustive,
                        degraded: r.degraded,
                        iterations: r.iterations,
                        run_complete: r.run_complete,
                        faults: r.faults,
                        digest: r.digest,
                        quarantined: false,
                        fault_kind: None,
                    },
                    // Recovered items ran under perturbed retry seeds, so
                    // their counts are not a function of the fingerprint.
                    cacheable: disposition.status == ItemStatus::Ok,
                    wall: StageWallMs {
                        convert_ms: r.timings.convert.as_millis() as u64,
                        run_ms: r.timings.run.as_millis() as u64,
                        count_ms: r.timings.count.as_millis() as u64,
                    },
                },
                None => ExecOutcome {
                    record: OutcomeRecord {
                        test: item.test.clone(),
                        seed: item.seed,
                        fingerprint: item.fingerprint.hex(),
                        forbidden: is_forbidden,
                        model,
                        heuristic: 0,
                        exhaustive: 0,
                        degraded: false,
                        iterations: 0,
                        run_complete: false,
                        faults: 0,
                        digest: 0,
                        quarantined: true,
                        fault_kind: disposition.fault_kind().map(str::to_owned),
                    },
                    cacheable: false,
                    wall: StageWallMs::default(),
                },
            };
            Some(outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perple-campaign-glue-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(name: &str) -> CampaignSpec {
        let mut spec = CampaignSpec::named(name);
        spec.tests = vec!["sb".to_owned(), "mp".to_owned()];
        spec.seeds = vec![1, 2];
        spec.iterations = 150;
        spec.workers = 2;
        spec
    }

    #[test]
    fn fingerprints_are_pure_functions_of_the_spec() {
        let spec = tiny_spec("fp");
        let (_, a) = expand_items(&spec).unwrap();
        let (_, b) = expand_items(&spec).unwrap();
        assert_eq!(
            a.iter().map(|(_, i)| i.fingerprint).collect::<Vec<_>>(),
            b.iter().map(|(_, i)| i.fingerprint).collect::<Vec<_>>()
        );
        // And every behavioural knob changes them.
        let mut faster = tiny_spec("fp");
        faster.iterations = 151;
        let (_, c) = expand_items(&faster).unwrap();
        assert_ne!(
            a[0].1.fingerprint, c[0].1.fingerprint,
            "iterations are behavioural"
        );
        let mut injected = tiny_spec("fp");
        injected.inject = Some("corrupt@t0:0..100".to_owned());
        let (_, d) = expand_items(&injected).unwrap();
        assert_ne!(
            a[0].1.fingerprint, d[0].1.fingerprint,
            "fault plans are behavioural"
        );
        let mut exact = tiny_spec("fp");
        exact.counter = Some("exhaustive".to_owned());
        let (_, f) = expand_items(&exact).unwrap();
        assert_ne!(
            a[0].1.fingerprint, f[0].1.fingerprint,
            "the counter backend partitions the cache"
        );
        let mut weak = tiny_spec("fp");
        weak.model = Some("relaxed".to_owned());
        let (_, g) = expand_items(&weak).unwrap();
        assert_ne!(
            a[0].1.fingerprint, g[0].1.fingerprint,
            "the memory model partitions the cache"
        );
        // Spelling the default out loud must NOT split the cache: existing
        // TSO entries still hit specs that say `model = tso`.
        let mut explicit = tiny_spec("fp");
        explicit.model = Some("tso".to_owned());
        let (_, h) = expand_items(&explicit).unwrap();
        assert_eq!(
            a[0].1.fingerprint, h[0].1.fingerprint,
            "explicit tso is the default partition"
        );
        // Workers are NOT behavioural: counts are bit-identical per seed.
        let mut wide = tiny_spec("fp");
        wide.workers = 8;
        let (_, e) = expand_items(&wide).unwrap();
        assert_eq!(
            a[0].1.fingerprint, e[0].1.fingerprint,
            "worker count must not split the cache"
        );
    }

    #[test]
    fn expansion_rejects_unknown_and_nonconvertible_tests() {
        let mut spec = tiny_spec("bad");
        spec.tests = vec!["no-such-test".to_owned()];
        assert!(matches!(expand_items(&spec), Err(PerpleError::Config(_))));
        spec.tests = vec!["2+2w".to_owned()]; // real but non-convertible
        assert!(matches!(expand_items(&spec), Err(PerpleError::Config(_))));
    }

    #[test]
    fn convertible_magic_expands_and_dedupes() {
        let mut spec = tiny_spec("magic");
        spec.tests = vec!["sb".to_owned(), "convertible".to_owned(), "sb".to_owned()];
        let tests = expand_tests(&spec).unwrap();
        assert_eq!(tests.len(), suite::convertible().len());
        assert_eq!(tests[0].name(), "sb", "explicit order wins");
    }

    #[test]
    fn relaxed_campaign_fires_targets_tso_keeps_forbidden() {
        // Under the default TSO machine the lb target is forbidden and
        // never fires; under `model = relaxed` the same spec classifies it
        // allowed and the machine actually exhibits it.
        let root = tmp_root("weakmodel");
        let mut spec = tiny_spec("weakmodel");
        spec.tests = vec!["lb".to_owned()];
        spec.seeds = vec![1];
        spec.iterations = 2_000;
        // lb is the spec's only test and its target is TSO-forbidden, so
        // the L008 futility gate requires the explicit conformance-check
        // acknowledgement on the TSO leg.
        let tso = run_spec(&spec, &root, true).unwrap();
        assert_eq!(tso.violations, 0);

        spec.model = Some("relaxed".to_owned());
        // Under relaxed the target is exposable: no gate, no override.
        let weak = run_spec(&spec, &root, false).unwrap();
        assert_eq!(weak.hits, 0, "model change must miss the TSO cache");
        assert_eq!(
            weak.violations, 0,
            "lb is allowed under relaxed, so firing is not a violation"
        );

        let store = RunStore::open(&root).unwrap();
        let tso_items = store.load_items(&tso.id).unwrap();
        let weak_items = store.load_items(&weak.id).unwrap();
        assert!(tso_items[0].forbidden, "lb target is TSO-forbidden");
        assert_eq!(tso_items[0].heuristic, 0, "TSO machine never shows it");
        assert!(!weak_items[0].forbidden, "lb is relaxed-allowed");
        assert!(
            weak_items[0].heuristic > 0,
            "relaxed machine must exhibit the lb target"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn unknown_model_is_a_config_error() {
        let mut spec = tiny_spec("model");
        spec.model = Some("alpha".to_owned());
        let err = campaign_config(&spec).unwrap_err();
        assert!(matches!(err, PerpleError::Config(_)), "{err}");
    }

    #[test]
    fn unknown_counter_backend_is_a_config_error() {
        let mut spec = tiny_spec("ctr");
        spec.counter = Some("turbo".to_owned());
        let err = campaign_config(&spec).unwrap_err();
        assert!(matches!(err, PerpleError::Config(_)), "{err}");
    }

    #[test]
    fn malformed_inject_is_a_config_error() {
        let mut spec = tiny_spec("inj");
        spec.inject = Some("bad@".to_owned());
        let err = campaign_config(&spec).unwrap_err();
        assert!(matches!(err, PerpleError::Config(_)), "{err}");
    }

    #[test]
    fn warm_rerun_does_zero_pipeline_work() {
        let root = tmp_root("warm");
        let spec = tiny_spec("warm");
        let cold = run_spec(&spec, &root, false).unwrap();
        assert_eq!((cold.hits, cold.executed), (0, 4));
        assert_eq!(
            cold.violations, 0,
            "TSO machine never shows forbidden outcomes"
        );

        let warm = run_spec(&spec, &root, false).unwrap();
        assert_eq!(
            (warm.hits, warm.executed),
            (4, 0),
            "warm run must be all hits"
        );
        assert_eq!(warm.lost, 0);

        // The stored runs carry identical deterministic records...
        let store = RunStore::open(&root).unwrap();
        assert_eq!(
            store.load_items(&cold.id).unwrap(),
            store.load_items(&warm.id).unwrap()
        );
        // ...and the warm manifest proves no convert/run/count happened.
        use perple_analysis::jsonout::Json;
        let sw = store.load_manifest(&warm.id).unwrap();
        let sw = sw.get("stage_wall_ms").unwrap();
        for stage in ["convert_ms", "run_ms", "count_ms"] {
            assert_eq!(sw.get(stage).and_then(Json::as_u64), Some(0), "{stage}");
        }
        // Conversion artifacts were captured once per distinct test.
        let cache = ArtifactCache::open(&root).unwrap();
        assert_eq!(cache.stats().1, 2, "sb and mp artifact bundles");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    #[should_panic(expected = "campaign item \"sb\" has no verdict")]
    fn a_missing_verdict_fails_closed_naming_the_test() {
        // Recording a verdict-less item as allowed would hide its
        // violations; the executor refuses before running anything.
        let root = tmp_root("no-verdict");
        let (cfg, expanded) = expand_items(&tiny_spec("no-verdict")).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let (test, item) = expanded.into_iter().next().unwrap();
        let tests_by_name = HashMap::from([(item.test.clone(), test)]);
        let mut captured = HashSet::new();
        execute_batch(
            &[item],
            &tests_by_name,
            &cfg,
            &cache,
            &HashMap::new(),
            &mut captured,
        );
    }

    #[test]
    fn injected_fault_campaign_compares_as_regression() {
        let root = tmp_root("gate");
        let spec = tiny_spec("gate");
        let base = run_spec(&spec, &root, false).unwrap();

        let mut faulty = tiny_spec("gate");
        faulty.inject = Some("corrupt@t0:0..150".to_owned());
        let bad = run_spec(&faulty, &root, false).unwrap();
        assert_eq!(
            bad.hits, 0,
            "different fault plan means different fingerprints"
        );

        let store = RunStore::open(&root).unwrap();
        let report = perple_campaign::compare_runs(
            &store,
            &base.id,
            &bad.id,
            &perple_campaign::CompareConfig::default(),
        )
        .unwrap();
        assert!(report.is_regression(), "{}", report.render_text());
        assert!(
            report
                .regressions
                .iter()
                .any(|r| r.kind == perple_campaign::RegressionKind::NewFaults),
            "{}",
            report.render_text()
        );

        // And a run compared against itself is clean.
        let self_cmp = perple_campaign::compare_runs(
            &store,
            &base.id,
            &base.id,
            &perple_campaign::CompareConfig::default(),
        )
        .unwrap();
        assert!(!self_cmp.is_regression(), "{}", self_cmp.render_text());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn lint_gate_refuses_specs_with_error_severity_findings() {
        // n5 stores k=2 sequences, so an absurd iteration count makes L001
        // (sequence-overflow) fire even at the default 64-bit value width.
        // The gate must refuse BEFORE any execution — actually running this
        // spec would allocate N-sized buffers.
        let root = tmp_root("lintgate");
        let mut spec = tiny_spec("lintgate");
        spec.tests = vec!["n5".to_owned()];
        spec.iterations = u64::MAX;
        let err = run_spec(&spec, &root, false).unwrap_err();
        assert!(err.contains("L001"), "{err}");
        assert!(err.contains("--allow-lints"), "{err}");
        assert!(!root.exists(), "gate refusal must not create the run store");
    }

    #[test]
    fn futility_gate_refuses_all_unexposable_specs_under_their_model() {
        // Every target forbidden under the spec's model → the solver
        // proves the hunt futile and the gate refuses before any
        // execution. The same spec under relaxed is exposable and runs;
        // a spec with at least one live target never trips the gate.
        let root = tmp_root("futile");
        let mut spec = tiny_spec("futile");
        spec.tests = vec!["lb".to_owned(), "iriw".to_owned()];
        spec.seeds = vec![1];
        let err = run_spec(&spec, &root, false).unwrap_err();
        assert!(err.contains("unexposable under TSO"), "{err}");
        assert!(err.contains("--allow-lints"), "{err}");
        assert!(err.contains("L008"), "{err}");
        assert!(!root.exists(), "gate refusal must not create the run store");

        spec.model = Some("relaxed".to_owned());
        run_spec(&spec, &root, false).unwrap();
        let _ = fs::remove_dir_all(&root);

        // sb's target is TSO-allowed, so mixing it in keeps the spec live.
        let root = tmp_root("futile-live");
        let mut spec = tiny_spec("futile-live");
        spec.tests = vec!["sb".to_owned(), "lb".to_owned()];
        spec.seeds = vec![1];
        run_spec(&spec, &root, false).unwrap();
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn generated_magic_expands_the_convertible_generated_corpus() {
        let mut spec = tiny_spec("gen");
        spec.tests = vec!["generated".to_owned()];
        let tests = expand_tests(&spec).unwrap();
        assert!(tests.len() >= 400, "got {}", tests.len());
        for t in &tests {
            assert!(perple_convert::is_convertible(t), "{}", t.name());
            // Soundness restriction: the conversion's index-as-coherence
            // encoding needs a unique writer per location.
            assert!(single_writer_locations(t), "{}", t.name());
        }
        // The multi-writer shape that produced a false dynamic violation
        // (two store-only threads interleaving on one location) must be
        // excluded from the dynamic campaign.
        assert!(
            !tests
                .iter()
                .any(|t| t.name() == "dyn-PodRR-Fre-Rfe-Fre-PodWW-Rfe-fall"),
            "multi-writer generated tests must stay static-only"
        );
        let mut names: Vec<_> = tests.iter().map(|t| t.name().to_owned()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tests.len(), "expansion must deduplicate");
    }

    #[test]
    fn hand_written_multi_writer_convertible_tests_are_pinned() {
        // The convertible tests of the hand-written suite that write some
        // location from two threads: the perpetual encoding's
        // index-as-coherence assumption does not hold for them, yet the
        // suite converts and counts them (DESIGN §5d.4). Growing this set
        // widens the soundness gap; shrinking it means the suite changed.
        let mut multi: Vec<String> = suite::convertible()
            .iter()
            .filter(|t| !single_writer_locations(t))
            .map(|t| t.name().to_owned())
            .collect();
        multi.sort_unstable();
        assert_eq!(multi, ["co-iriw", "n4", "n5", "rfi015", "safe012"]);
    }

    #[test]
    fn allow_lints_and_clean_specs_record_lint_totals_in_the_manifest() {
        // allow_lints on a clean spec changes nothing except that the gate
        // cannot fire; the manifest still records the (all-clear) totals.
        let root = tmp_root("lintok");
        let spec = tiny_spec("lintok");
        let run = run_spec(&spec, &root, true).unwrap();
        use perple_analysis::jsonout::Json;
        let store = RunStore::open(&root).unwrap();
        let manifest = store.load_manifest(&run.id).unwrap();
        let lint = manifest.get("lint").expect("manifest lint summary");
        assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
        assert_eq!(lint.get("warnings").and_then(Json::as_u64), Some(0));
        let _ = fs::remove_dir_all(root);
    }
}
