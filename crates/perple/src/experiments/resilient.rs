//! Resilient suite execution: per-item panic isolation, per-stage watchdog
//! budgets, deterministic retries, and quarantine reporting.
//!
//! A suite run must never die because one test misbehaves — a panicking
//! worker, a livelocked (fault-injected) machine, a counting pass that
//! outgrows its budget. [`run_suite_resilient`] executes every item on the
//! suite pool with each **attempt** wrapped in `catch_unwind`, converts
//! panics and watchdog expiries into the [`PerpleError`] taxonomy, retries
//! failed items up to [`ExperimentConfig::retries`] times with a
//! deterministically perturbed seed (attempt `k` always uses the same
//! seed, so a flaky failure reproduces exactly under `--seed`), and emits
//! a per-suite quarantine report in text and JSON.
//!
//! [`resilient_audit`] is the batteries-included driver: it audits every
//! convertible suite test under the config's fault plan and budgets, and
//! **degrades gracefully** — when the exhaustive counter's budget expires,
//! the heuristic counts stand in for it and the downgrade is recorded on
//! the row (and in the results JSON).

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use perple_analysis::count::{
    CountRequest, Counter, CounterKind, ExhaustiveCounter, HeuristicCounter,
};
use perple_analysis::jsonout::Json;
use perple_analysis::metrics::StageTimings;
use perple_analysis::rf::RfCounter;
use perple_model::{suite, LitmusTest};
use perple_obs::metrics::{self as obs_metrics, Hist, Metric};

use crate::error::{panic_message, PerpleError};
use crate::Conversion;

use super::{derive_seed, pool, ExperimentConfig};

/// Odd multiplier perturbing the seed per retry attempt: attempt `k` of an
/// item always sees the same seed, so failures reproduce deterministically.
const ATTEMPT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-item seed for retry `attempt` (attempt 0 is the unperturbed seed).
pub fn attempt_seed(base: u64, attempt: u32) -> u64 {
    base.wrapping_add((attempt as u64).wrapping_mul(ATTEMPT_SEED_STRIDE))
}

/// How one suite item ended up after all its attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Failed at least once, then succeeded on a retry.
    Recovered,
    /// Every permitted attempt failed; no result for this item.
    Quarantined,
}

impl ItemStatus {
    /// Lowercase tag used in the text and JSON reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ItemStatus::Ok => "ok",
            ItemStatus::Recovered => "recovered",
            ItemStatus::Quarantined => "quarantined",
        }
    }
}

/// One attempt at one suite item.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// The seed this attempt ran under (see [`attempt_seed`]).
    pub seed: u64,
    /// `None` on success; the classified failure otherwise.
    pub error: Option<PerpleError>,
    /// Wall-clock time of this attempt.
    pub wall: Duration,
}

/// Everything that happened to one suite item.
#[derive(Debug, Clone)]
pub struct ItemReport {
    /// Test (item) name.
    pub name: String,
    /// Final disposition after all attempts.
    pub status: ItemStatus,
    /// Every attempt in order; the last one decided `status`.
    pub attempts: Vec<AttemptRecord>,
    /// Total wall-clock time across attempts.
    pub wall: Duration,
}

impl ItemReport {
    /// Kind tag of the failure that sent this item to quarantine (the last
    /// attempt's error), if any.
    pub fn fault_kind(&self) -> Option<&'static str> {
        self.attempts
            .last()
            .and_then(|a| a.error.as_ref())
            .map(PerpleError::kind)
    }
}

/// Results plus quarantine bookkeeping for one resilient suite run.
///
/// `results[i]` is `Some` iff item `i` produced a value (status `ok` or
/// `recovered`); quarantined items keep their slot as `None` so indices
/// always align with the input items.
#[derive(Debug, Clone)]
pub struct SuiteReport<R> {
    /// Per-item results, input order, `None` for quarantined items.
    pub results: Vec<Option<R>>,
    /// Per-item dispositions, input order.
    pub items: Vec<ItemReport>,
}

impl<R> SuiteReport<R> {
    /// The quarantined items, input order.
    pub fn quarantined(&self) -> Vec<&ItemReport> {
        self.items
            .iter()
            .filter(|i| i.status == ItemStatus::Quarantined)
            .collect()
    }

    /// The items that needed a retry but succeeded.
    pub fn recovered(&self) -> Vec<&ItemReport> {
        self.items
            .iter()
            .filter(|i| i.status == ItemStatus::Recovered)
            .collect()
    }

    /// Renders the quarantine report as text: a summary line plus one line
    /// per non-`ok` item (name, fault kind, attempts, per-attempt walls).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let q = self.quarantined().len();
        let r = self.recovered().len();
        let _ = writeln!(
            s,
            "suite: {} items, {} ok, {} recovered, {} quarantined",
            self.items.len(),
            self.items.len() - q - r,
            r,
            q
        );
        for item in &self.items {
            if item.status == ItemStatus::Ok {
                continue;
            }
            let _ = write!(
                s,
                "  {:<12} {:<11} fault={:<8} attempts={}",
                item.name,
                item.status.as_str(),
                item.fault_kind().unwrap_or("-"),
                item.attempts.len(),
            );
            for a in &item.attempts {
                let _ = write!(
                    s,
                    " [seed {:#x}: {} in {}ms]",
                    a.seed,
                    a.error.as_ref().map_or("ok", |e| e.kind()),
                    a.wall.as_millis(),
                );
            }
            let _ = writeln!(s);
        }
        s
    }

    /// The quarantine report as a [`Json`] value (built on the shared
    /// `jsonout` writer — the offline build has no serde).
    pub fn to_json_value(&self) -> Json {
        let items = self
            .items
            .iter()
            .map(|item| {
                let attempts = item
                    .attempts
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("seed", Json::from(a.seed)),
                            ("wall_ms", Json::from(a.wall.as_millis())),
                            (
                                "error",
                                match &a.error {
                                    Some(e) => Json::obj(vec![
                                        ("kind", Json::from(e.kind())),
                                        ("message", Json::from(e.to_string())),
                                    ]),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("name", Json::from(item.name.as_str())),
                    ("status", Json::from(item.status.as_str())),
                    ("attempts", Json::Arr(attempts)),
                    ("wall_ms", Json::from(item.wall.as_millis())),
                ])
            })
            .collect();
        Json::obj(vec![("items", Json::Arr(items))])
    }

    /// Renders the quarantine report as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

/// Runs `f` over every item on the suite pool with panic isolation,
/// retries, and quarantine bookkeeping.
///
/// `f(item, seed)` runs one attempt: panics become
/// [`PerpleError::WorkerPanic`], `Err` returns are classified by the
/// closure itself (timeouts, conversion failures). Failed attempts retry
/// up to [`ExperimentConfig::retries`] times — but only for
/// [`PerpleError::retryable`] errors; deterministic failures (conversion,
/// config) quarantine immediately. Attempt `k` runs under
/// [`attempt_seed`]`(derive_seed(cfg.seed, name, tag), k)`.
pub fn run_suite_resilient<T, R, F>(
    items: &[T],
    cfg: &ExperimentConfig,
    name_of: impl Fn(&T) -> String + Sync,
    tag: &str,
    f: F,
) -> SuiteReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> Result<R, PerpleError> + Sync,
{
    let outcomes =
        pool::try_map_parallel(items, cfg.workers, |_, item| -> (Option<R>, ItemReport) {
            let name = name_of(item);
            let base = derive_seed(cfg.seed, &name, tag);
            let t0 = Instant::now();
            let mut attempts = Vec::new();
            let mut result = None;
            for attempt in 0..=cfg.retries {
                let seed = attempt_seed(base, attempt);
                let a0 = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| f(item, seed)))
                    .map_err(|p| PerpleError::WorkerPanic {
                        message: panic_message(&*p),
                    })
                    .and_then(|r| r);
                let attempt_wall = a0.elapsed();
                obs_metrics::observe(
                    Hist::ExecAttemptMicros,
                    u64::try_from(attempt_wall.as_micros()).unwrap_or(u64::MAX),
                );
                match r {
                    Ok(v) => {
                        attempts.push(AttemptRecord {
                            seed,
                            error: None,
                            wall: attempt_wall,
                        });
                        result = Some(v);
                        break;
                    }
                    Err(e) => {
                        if matches!(e, PerpleError::StageTimeout { .. }) {
                            obs_metrics::add(Metric::ExecBudgetExpiries, 1);
                        }
                        let retryable = e.retryable();
                        attempts.push(AttemptRecord {
                            seed,
                            error: Some(e),
                            wall: attempt_wall,
                        });
                        if !retryable {
                            break;
                        }
                    }
                }
            }
            let status = match (&result, attempts.len()) {
                (Some(_), 1) => ItemStatus::Ok,
                (Some(_), _) => ItemStatus::Recovered,
                (None, _) => ItemStatus::Quarantined,
            };
            obs_metrics::add(Metric::ExecRetries, attempts.len().saturating_sub(1) as u64);
            if status == ItemStatus::Quarantined {
                obs_metrics::add(Metric::ExecQuarantines, 1);
            }
            (
                result,
                ItemReport {
                    name,
                    status,
                    attempts,
                    wall: t0.elapsed(),
                },
            )
        });

    let mut results = Vec::with_capacity(items.len());
    let mut reports = Vec::with_capacity(items.len());
    for (outcome, item) in outcomes.into_iter().zip(items) {
        match outcome {
            Ok((result, report)) => {
                results.push(result);
                reports.push(report);
            }
            // The item closure cannot itself panic (every attempt is
            // caught), but a harness bug would surface here; keep the slot
            // and quarantine rather than crash.
            Err(e) => {
                results.push(None);
                reports.push(ItemReport {
                    name: name_of(item),
                    status: ItemStatus::Quarantined,
                    attempts: vec![AttemptRecord {
                        seed: 0,
                        error: Some(e),
                        wall: Duration::ZERO,
                    }],
                    wall: Duration::ZERO,
                });
            }
        }
    }
    SuiteReport {
        results,
        items: reports,
    }
}

/// One audited suite test (the payload of [`resilient_audit`] rows).
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Test name.
    pub name: String,
    /// Target occurrences from the heuristic counter.
    pub heuristic: u64,
    /// Target occurrences from the exhaustive counter — or, when
    /// `degraded`, the heuristic counts standing in for it.
    pub exhaustive: u64,
    /// True iff the exact counter's budget expired and the row degraded to
    /// heuristic counts (recorded in the results JSON).
    pub degraded: bool,
    /// Name of the backend that produced the `exhaustive` column
    /// ([`ExperimentConfig::counter`]).
    pub counter: &'static str,
    /// Memory model the simulated machine executed
    /// ([`ExperimentConfig::model`]). Appears in the results JSON only
    /// when it is not the default (TSO), keeping existing audit
    /// artifacts byte-stable.
    pub model: perple_model::ModelId,
    /// True iff the rf backend fell outside its polynomial fragment and
    /// took its recorded exhaustive fallback (always false for the other
    /// backends).
    pub rf_fallback: bool,
    /// Whole iterations actually executed (may be below the configured
    /// count if the run stage's budget expired).
    pub iterations: u64,
    /// False iff the run stage was truncated by its budget.
    pub run_complete: bool,
    /// Machine faults injected during the run (see `FaultPlan`).
    pub faults: u64,
    /// Content digest of the run's observed buffers
    /// (`PerpleRun::content_digest`): equal configs and seeds must yield
    /// equal digests, so digest drift is machine nondeterminism.
    pub digest: u64,
    /// Wall-clock stage timings (convert / run / count).
    pub timings: StageTimings,
}

/// Audits one convertible test under the config's budgets and fault plan.
///
/// Stages: convert → run (budgeted) → heuristic count (budgeted) → exact
/// count (budgeted, degrading to the heuristic counts on expiry). The
/// exact pass uses the configured [`ExperimentConfig::counter`] backend:
/// `rf` (the default) walks reads-from partners in polynomial time,
/// `exhaustive` scans every frame, and `heuristic` skips the pass so the
/// linear counts stand in. A run that completes zero whole iterations is a
/// [`PerpleError::StageTimeout`] — there is nothing to count.
pub fn audit_one(
    test: &LitmusTest,
    cfg: &ExperimentConfig,
    seed: u64,
) -> Result<AuditRow, PerpleError> {
    let t_convert = Instant::now();
    let conv = Conversion::convert(test)?;
    let convert_wall = t_convert.elapsed();

    let mut runner = perple_harness::perpetual::PerpleRunner::new(cfg.sim_config(seed));
    let t_run = Instant::now();
    let run = runner.run_budgeted(&conv.perpetual, cfg.iterations, &cfg.stage_budget());
    let run_wall = t_run.elapsed();
    if run.iterations == 0 {
        return Err(PerpleError::StageTimeout { stage: "run" });
    }
    let n = run.iterations;
    let digest = run.content_digest();
    let bufs = run.bufs();

    let heur_budget = cfg.stage_budget();
    let heur = HeuristicCounter::single(&conv.target_heuristic)
        .count(&CountRequest::new(&bufs, n).with_budget(&heur_budget));
    if heur.budget_expired && heur.frames_examined == 0 {
        return Err(PerpleError::StageTimeout { stage: "count" });
    }

    let exh_budget = cfg.stage_budget();
    let exh_req = CountRequest::new(&bufs, n)
        .with_frame_cap(cfg.exhaustive_frame_cap)
        .with_budget(&exh_budget);
    let exact = match cfg.counter {
        // The heuristic counts stand in for the exact column by choice,
        // not degradation — there is no second counting pass at all.
        CounterKind::Heuristic => None,
        CounterKind::Exhaustive => {
            Some(ExhaustiveCounter::single(&conv.target_exhaustive).count(&exh_req))
        }
        CounterKind::Rf => Some(RfCounter::single(&conv.target_exhaustive).count(&exh_req)),
    };
    let degraded = exact.as_ref().is_some_and(|e| e.budget_expired);
    let rf_fallback = exact.as_ref().is_some_and(|e| e.downgraded);
    let exact_wall = exact.as_ref().map(|e| e.wall);

    Ok(AuditRow {
        name: test.name().to_owned(),
        heuristic: heur.counts[0],
        exhaustive: match &exact {
            Some(e) if !degraded => e.counts[0],
            _ => heur.counts[0],
        },
        degraded,
        counter: cfg.counter.name(),
        model: cfg.model,
        rf_fallback,
        iterations: n,
        run_complete: run.complete,
        faults: run.faults,
        digest,
        timings: {
            let mut t = StageTimings::default();
            t.add_convert(convert_wall);
            t.add_run(run_wall);
            t.add_count(heur.wall);
            if let Some(w) = exact_wall {
                t.add_count(w);
            }
            t
        },
    })
}

/// Resiliently audits every convertible suite test: all other tests
/// complete even if one panics, livelocks, or corrupts; failures retry
/// deterministically and land in the quarantine report.
pub fn resilient_audit(cfg: &ExperimentConfig) -> SuiteReport<AuditRow> {
    let tests = suite::convertible();
    run_suite_resilient(
        &tests,
        cfg,
        |t| t.name().to_owned(),
        "audit",
        |t, seed| audit_one(t, cfg, seed),
    )
}

/// Renders audit rows (plus quarantine dispositions) as a text table, the
/// exact column headed by its [`AuditRow::counter`] ("exact" if none ran).
pub fn render_audit_text(report: &SuiteReport<AuditRow>) -> String {
    let counter = report
        .results
        .iter()
        .flatten()
        .next()
        .map_or("exact", |r| r.counter);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>12} {:>6} {:>9} {:>8}  flags",
        "test", "heuristic", counter, "iters", "faults", "wall(ms)"
    );
    for (row, item) in report.results.iter().zip(&report.items) {
        match row {
            Some(r) => {
                let mut flags = Vec::new();
                if r.degraded {
                    flags.push("degraded");
                }
                if r.rf_fallback {
                    flags.push("rf-fallback");
                }
                if !r.run_complete {
                    flags.push("partial-run");
                }
                if item.status == ItemStatus::Recovered {
                    flags.push("recovered");
                }
                let _ = writeln!(
                    s,
                    "{:<12} {:>10} {:>12} {:>6} {:>9} {:>8}  {}",
                    r.name,
                    r.heuristic,
                    r.exhaustive,
                    r.iterations,
                    r.faults,
                    item.wall.as_millis(),
                    if flags.is_empty() {
                        "-".to_owned()
                    } else {
                        flags.join(",")
                    },
                );
            }
            None => {
                let _ = writeln!(
                    s,
                    "{:<12} {:>10} {:>12} {:>6} {:>9} {:>8}  quarantined ({})",
                    item.name,
                    "-",
                    "-",
                    "-",
                    "-",
                    item.wall.as_millis(),
                    item.fault_kind().unwrap_or("unknown"),
                );
            }
        }
    }
    s.push('\n');
    s.push_str(&report.render_text());
    s
}

/// Renders audit results as JSON: per-row counts with the `degraded`
/// downgrade, content digest, and stage timings recorded, plus the
/// quarantine report — all through the shared `jsonout` writer.
pub fn audit_json(report: &SuiteReport<AuditRow>) -> String {
    let rows = report
        .results
        .iter()
        .flatten()
        .map(|row| {
            let mut fields = vec![
                ("name", Json::from(row.name.as_str())),
                ("heuristic", Json::from(row.heuristic)),
                ("exhaustive", Json::from(row.exhaustive)),
                ("degraded", Json::from(row.degraded)),
                ("counter", Json::from(row.counter)),
            ];
            // Default-model rows keep their historic shape byte-for-byte;
            // only non-TSO audits grow the extra key.
            if row.model != perple_model::ModelId::Tso {
                fields.push(("model", Json::from(row.model.name())));
            }
            fields.extend([
                ("rf_fallback", Json::from(row.rf_fallback)),
                ("iterations", Json::from(row.iterations)),
                ("run_complete", Json::from(row.run_complete)),
                ("faults", Json::from(row.faults)),
                ("digest", Json::from(row.digest)),
                ("timings", row.timings.to_json_value()),
            ]);
            Json::obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("rows", Json::Arr(rows)),
        ("quarantine", report.to_json_value()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_sim::FaultPlan;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig::default()
            .with_iterations(150)
            .with_workers(4)
    }

    #[test]
    fn attempt_seeds_are_deterministic_and_distinct() {
        assert_eq!(attempt_seed(5, 0), 5);
        assert_eq!(attempt_seed(5, 1), attempt_seed(5, 1));
        assert_ne!(attempt_seed(5, 1), attempt_seed(5, 2));
    }

    #[test]
    fn panicking_item_is_quarantined_and_others_complete() {
        let items: Vec<u32> = (0..8).collect();
        let cfg = quick_cfg().with_retries(2);
        let report = run_suite_resilient(
            &items,
            &cfg,
            |i| format!("item{i}"),
            "test",
            |&i, _seed| {
                if i == 3 {
                    panic!("injected panic");
                }
                Ok::<u32, PerpleError>(i * 10)
            },
        );
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_none());
            } else {
                assert_eq!(r.unwrap(), i as u32 * 10);
            }
        }
        let q = report.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].name, "item3");
        assert_eq!(q[0].fault_kind(), Some("panic"));
        assert_eq!(q[0].attempts.len(), 3, "1 + 2 retries");
        // Retries perturb the seed deterministically.
        assert_ne!(q[0].attempts[0].seed, q[0].attempts[1].seed);
    }

    #[test]
    fn flaky_item_recovers_on_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let items = [7u32];
        let cfg = quick_cfg().with_retries(1).with_workers(1);
        let report = run_suite_resilient(
            &items,
            &cfg,
            |_| "flaky".to_owned(),
            "test",
            |&v, _seed| {
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    return Err(PerpleError::StageTimeout { stage: "run" });
                }
                Ok(v)
            },
        );
        assert_eq!(report.results[0], Some(7));
        assert_eq!(report.items[0].status, ItemStatus::Recovered);
        assert_eq!(report.items[0].attempts.len(), 2);
    }

    #[test]
    fn non_retryable_errors_quarantine_immediately() {
        let items = [0u32];
        let cfg = quick_cfg().with_retries(5);
        let report = run_suite_resilient(
            &items,
            &cfg,
            |_| "bad".to_owned(),
            "test",
            |_, _| Err::<u32, _>(PerpleError::Config("nope".into())),
        );
        assert_eq!(
            report.items[0].attempts.len(),
            1,
            "no retries for config errors"
        );
        assert_eq!(report.items[0].status, ItemStatus::Quarantined);
    }

    #[test]
    fn reports_render_text_and_json() {
        let items: Vec<u32> = (0..3).collect();
        let report = run_suite_resilient(
            &items,
            &quick_cfg(),
            |i| format!("t{i}"),
            "test",
            |&i, _| {
                if i == 1 {
                    Err(PerpleError::WorkerPanic {
                        message: "with \"quotes\"".into(),
                    })
                } else {
                    Ok(i)
                }
            },
        );
        let text = report.render_text();
        assert!(text.contains("1 quarantined"), "{text}");
        assert!(text.contains("t1"));
        let json = report.to_json();
        assert!(json.contains("\"status\":\"quarantined\""));
        assert!(
            json.contains("\\\"quotes\\\""),
            "quotes must be escaped: {json}"
        );
        assert!(json.contains("\"error\":null"));
    }

    #[test]
    fn resilient_audit_covers_the_convertible_suite() {
        let cfg = quick_cfg();
        let report = resilient_audit(&cfg);
        assert_eq!(report.results.len(), suite::convertible().len());
        assert!(
            report.quarantined().is_empty(),
            "clean config must not quarantine"
        );
        assert!(report.results.iter().all(Option::is_some));
        let sb = report
            .results
            .iter()
            .flatten()
            .find(|r| r.name == "sb")
            .expect("sb is convertible");
        assert!(sb.heuristic > 0, "sb target must be detected");
        assert!(!sb.degraded);
        assert_eq!(sb.iterations, 150);
        let json = audit_json(&report);
        assert!(json.contains("\"degraded\":false"));
        assert!(json.contains("\"rows\":["));
        let text = render_audit_text(&report);
        assert!(text.contains("sb"));
        let header = text.lines().next().unwrap();
        assert_eq!(
            header.split_whitespace().nth(2),
            Some(sb.counter),
            "the exact column is headed by its backend: {header}"
        );
    }

    #[test]
    fn audit_with_fault_plan_detects_or_quarantines_without_crashing() {
        let plan = FaultPlan::parse("corrupt@t0:0..150").unwrap();
        let cfg = quick_cfg().with_fault_plan(plan).with_retries(1);
        let report = resilient_audit(&cfg);
        assert_eq!(report.results.len(), suite::convertible().len());
        // Faults were really injected on completed rows.
        let injected: u64 = report.results.iter().flatten().map(|r| r.faults).sum();
        assert!(injected > 0, "the corrupt plan must fire");
    }

    #[test]
    fn audit_json_records_non_default_models_only() {
        let report = resilient_audit(&quick_cfg());
        assert!(
            !audit_json(&report).contains("\"model\""),
            "default-model rows keep their historic shape"
        );
        let weak = quick_cfg().with_model(perple_model::ModelId::Pso);
        let report = resilient_audit(&weak);
        let json = audit_json(&report);
        assert!(json.contains("\"model\":\"pso\""), "{json}");
    }

    #[test]
    fn audit_rows_are_deterministic_per_seed() {
        let cfg = quick_cfg().with_workers(4);
        let a = resilient_audit(&cfg);
        let b = resilient_audit(&cfg);
        for (ra, rb) in a.results.iter().zip(&b.results) {
            let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
            assert_eq!(ra.heuristic, rb.heuristic, "{}", ra.name);
            assert_eq!(ra.exhaustive, rb.exhaustive, "{}", ra.name);
            assert_eq!(ra.faults, rb.faults, "{}", ra.name);
        }
    }
}
