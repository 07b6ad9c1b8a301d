//! The campaign workloads (`tl3-count`, `suite-sim`, `generated-cache`):
//! cold campaigns into fresh stores, then unchanged re-runs against them,
//! all through `run_spec` — lint gate, convert, simulate, count, journal
//! and cache, exactly as `perple campaign run` does it.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use perple::campaign::{CampaignItem, CampaignSpec, OutcomeRecord, RunStore, RunSummary};
use perple::experiments::campaign::{expand_items, expand_tests, run_spec};
use perple::obs::{metrics, trace};
use perple::LitmusTest;

use crate::layers::{self, PassLayers, ProbeInputs};
use crate::stats::{derive_seed, median, percentile, tail};
use crate::{checks, Args, Metric, Report};

/// The two `T_L = 3` tests of the convertible suite.
const TL3_TESTS: [&str; 2] = ["podwr001", "safe007"];
/// Iterations per `tl3-count` item: about a second of rf `Triple` counting.
const TL3_ITERATIONS: u64 = 10_000;
/// Iterations per `suite-sim` item: a long run, so the machine dominates.
const SUITE_ITERATIONS: u64 = 100_000;
/// Iterations per `generated-cache` item (the example spec's).
const GENERATED_ITERATIONS: u64 = 150;
/// Campaign workers (and so item threads): two, the core count the
/// benchmark is sized for.
const WORKERS: usize = 2;
/// Warm re-runs per traced pass.
const TRACED_WARM_OPS: usize = 3;
/// Warm re-runs follow each cold operation for this share of its time.
const WARM_SHARE: f64 = 0.75;
/// Iterations of the rf == exhaustive spot check (`N^3` frames).
const SPOT_ITERATIONS: u64 = 150;
/// At most one set-up sample per this much run time (see `SetupSampler`).
const SETUP_PERIOD: Duration = Duration::from_millis(50);

/// Every convertible suite test with at most two load threads, `sb` first
/// (the machine and counter probes run on the first test).
const SUITE_TL2_TESTS: [&str; 32] = [
    "sb",
    "amd3",
    "iwp23b",
    "iwp24",
    "n1",
    "podwr000",
    "rfi009",
    "rfi013",
    "rfi015",
    "rfi017",
    "rwc-unfenced",
    "amd10",
    "amd5",
    "amd5+staleld",
    "co-iriw",
    "iriw",
    "lb",
    "mp",
    "mp+staleld",
    "mp+fences",
    "n4",
    "n5",
    "rwc-fenced",
    "safe006",
    "safe012",
    "safe018",
    "safe022",
    "safe024",
    "safe027",
    "safe028",
    "safe036",
    "wrc",
];

fn spec(name: &str, tests: &[&str], seeds: Vec<u64>, iterations: u64) -> CampaignSpec {
    let mut s = CampaignSpec::named(name);
    s.tests = tests.iter().map(|t| (*t).to_owned()).collect();
    s.seeds = seeds;
    s.iterations = iterations;
    s.workers = WORKERS;
    s.counter = Some("rf".to_owned());
    s
}

/// The specs one operation of `workload` runs, derived from its seed.
pub fn specs(workload: &str, seed: u64) -> Vec<CampaignSpec> {
    match workload {
        "tl3-count" => vec![spec(
            "tl3-count",
            &TL3_TESTS,
            (0..2).map(|i| derive_seed(seed, workload, i)).collect(),
            TL3_ITERATIONS,
        )],
        "suite-sim" => {
            let seeds = vec![derive_seed(seed, workload, 0)];
            let tso = spec(
                "suite-sim-tso",
                &SUITE_TL2_TESTS,
                seeds.clone(),
                SUITE_ITERATIONS,
            );
            let mut relaxed = spec(
                "suite-sim-relaxed",
                &SUITE_TL2_TESTS,
                seeds,
                SUITE_ITERATIONS,
            );
            relaxed.model = Some("relaxed".to_owned());
            vec![tso, relaxed]
        }
        _ => vec![spec(
            "generated",
            &["generated"],
            vec![derive_seed(seed, workload, 0)],
            GENERATED_ITERATIONS,
        )],
    }
}

/// One `run_spec` call as the bench saw it.
struct Call {
    summary: RunSummary,
    /// Wall seconds of the call.
    secs: f64,
}

/// One operation: every spec of the workload run once against a store.
struct Op {
    store: PathBuf,
    calls: Vec<Call>,
}

impl Op {
    fn secs(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }

    fn items(&self) -> usize {
        self.calls.iter().map(|c| c.summary.items).sum()
    }

    /// The `items.json` bytes of each call's run.
    fn items_json(&self) -> Result<Vec<Vec<u8>>, String> {
        let store = RunStore::open(&self.store).map_err(|e| e.to_string())?;
        self.calls
            .iter()
            .map(|c| {
                let path = store.run_dir(&c.summary.id).join("items.json");
                std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }

    /// The stored records of every call, in spec then item order.
    fn records(&self) -> Result<Vec<OutcomeRecord>, String> {
        let store = RunStore::open(&self.store).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for c in &self.calls {
            out.extend(store.load_items(&c.summary.id).map_err(|e| e.to_string())?);
        }
        Ok(out)
    }
}

/// Runs every spec once against `store`.
fn run_op(specs: &[CampaignSpec], store: &Path, cold: bool) -> Result<Op, String> {
    let mut calls = Vec::with_capacity(specs.len());
    for spec in specs {
        let start = Instant::now();
        let summary = run_spec(spec, store, false)?;
        let secs = start.elapsed().as_secs_f64();
        let expected = if cold {
            (0, summary.items)
        } else {
            (summary.items, 0)
        };
        if (summary.hits, summary.executed) != expected
            || summary.lost > 0
            || summary.quarantined > 0
            || summary.violations > 0
        {
            return Err(format!(
                "{} {} run {}: {} items, {} hits, {} executed, {} lost, {} quarantined, {} violations",
                if cold { "cold" } else { "warm" },
                spec.name,
                summary.id,
                summary.items,
                summary.hits,
                summary.executed,
                summary.lost,
                summary.quarantined,
                summary.violations
            ));
        }
        calls.push(Call { summary, secs });
    }
    Ok(Op {
        store: store.to_owned(),
        calls,
    })
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One set-up, as before the first timed operation: expand every spec
/// (which generates the corpus for `generated`) and open the store at
/// `dir`, creating it when absent. Returns its seconds and the expanded
/// items (spec, then slot order).
fn setup(specs: &[CampaignSpec], dir: &Path) -> Result<(f64, Vec<CampaignItem>), String> {
    let t = Instant::now();
    let mut expanded = Vec::new();
    for spec in specs {
        let (_, items) = expand_items(spec).map_err(|e| e.to_string())?;
        expanded.extend(items.into_iter().map(|(_, item)| item));
    }
    RunStore::open(dir).map_err(|e| e.to_string())?;
    perple::campaign::ArtifactCache::open(dir).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), expanded))
}

/// Set-up samples taken between the timed operations of a run.
///
/// The first sample creates a fresh store; the rest reopen it. Creating a
/// store is five `mkdir`s, whose latency on a shared virtual disk moved
/// between 0.7 and 3.6 ms from one run to the next with nothing else
/// running, several times the rest of a `tl3-count` set-up, so a median
/// over fresh stores measured the disk. Reopening runs the same expansion
/// and the same store-open code without the directory writes. One sample
/// per [`SETUP_PERIOD`] through the whole run, not a burst at its start,
/// so the median covers the run as the timed operations do.
struct SetupSampler<'a> {
    specs: &'a [CampaignSpec],
    store: PathBuf,
    samples: Vec<f64>,
    last: Instant,
}

impl<'a> SetupSampler<'a> {
    fn new(specs: &'a [CampaignSpec], root: &Path) -> Result<(Self, Vec<CampaignItem>), String> {
        let store = root.join("setup");
        let _ = std::fs::remove_dir_all(&store);
        let (secs, expanded) = setup(specs, &store)?;
        let sampler = SetupSampler {
            specs,
            store,
            samples: vec![secs],
            last: Instant::now(),
        };
        Ok((sampler, expanded))
    }

    /// Takes a sample when the last one is [`SETUP_PERIOD`] old.
    fn tick(&mut self) -> Result<(), String> {
        if self.last.elapsed() >= SETUP_PERIOD {
            self.samples.push(setup(self.specs, &self.store)?.0);
            self.last = Instant::now();
        }
        Ok(())
    }

    /// Removes the store.
    fn finish(&self) {
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// Checks of a cold operation's records: sound, deterministic across
/// operations, pinned for the reference seeds.
struct ColdCheck<'a> {
    args: &'a Args,
    first: Option<Vec<Vec<u8>>>,
    /// The first cold operation's records.
    records: Vec<OutcomeRecord>,
}

impl ColdCheck<'_> {
    fn check(&mut self, op: &Op) -> Result<Vec<Vec<u8>>, String> {
        let bytes = op.items_json()?;
        match &self.first {
            Some(first) if *first != bytes => {
                return Err("a repeated cold campaign stored different records".to_owned())
            }
            Some(_) => {}
            None => {
                let records = op.records()?;
                checks::records_sound(&records)?;
                checks::reference(
                    &self.args.reference,
                    &self.args.workload,
                    self.args.seed,
                    &records,
                    self.args.bless,
                )?;
                self.first = Some(bytes.clone());
                self.records = records;
            }
        }
        Ok(bytes)
    }
}

fn warm_matches(warm: &Op, cold_bytes: &[Vec<u8>]) -> Result<(), String> {
    if warm.items_json()? != cold_bytes {
        return Err("a warm re-run's records differ from the cold run's".to_owned());
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let specs = specs(&args.workload, args.seed);
    let (sampler, expanded) = SetupSampler::new(&specs, &args.root)?;
    let mut cold_check = ColdCheck {
        args,
        first: None,
        records: Vec::new(),
    };
    let mut report = if args.trace {
        sampler.finish();
        traced(args, &specs, &mut cold_check)?
    } else {
        timed(args, &specs, &mut cold_check, sampler)?
    };
    if args.workload == "tl3-count" {
        for (i, test) in TL3_TESTS.iter().enumerate() {
            checks::rf_matches_exhaustive(
                test,
                derive_seed(args.seed, "spot", i as u64),
                SPOT_ITERATIONS,
            )?;
        }
    }
    if args.trace {
        // Records come in spec then slot order, like the expansion.
        let records = std::mem::take(&mut cold_check.records);
        let mut pairs = Vec::with_capacity(records.len());
        for (item, r) in expanded.iter().zip(records) {
            if item.fingerprint.hex() != r.fingerprint {
                return Err(format!("{}#{}: fingerprint mismatch", r.test, r.seed));
            }
            pairs.push((item.fingerprint, r));
        }
        let tests = specs
            .iter()
            .map(distinct_tests)
            .collect::<Result<Vec<_>, _>>()?;
        let probe_test = expand_tests(&specs[0])
            .map_err(|e| e.to_string())?
            .into_iter()
            .next()
            .ok_or("empty spec")?;
        let inputs = ProbeInputs {
            specs: &specs,
            tests,
            probe_test,
            iterations: specs[0].iterations,
            seed: derive_seed(args.seed, "probe", 0),
            records: pairs,
        };
        let scratch = fresh_dir(&args.root, "probe")?;
        report.metrics.extend(layers::probes(&inputs, &scratch)?);
        report.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    }
    Ok(report)
}

/// The spec's distinct tests in name order (what the lint gate sees).
pub fn distinct_tests(spec: &CampaignSpec) -> Result<Vec<LitmusTest>, String> {
    let mut tests = expand_tests(spec).map_err(|e| e.to_string())?;
    tests.sort_by(|a, b| a.name().cmp(b.name()));
    tests.dedup_by(|a, b| a.name() == b.name());
    Ok(tests)
}

/// The end-to-end run: cycles of one cold operation into a fresh store
/// followed by warm re-runs against it for three quarters as long, until the
/// budget is spent. Interleaving makes both kinds sample the whole run.
///
/// Throughputs are items over seconds summed across operations, not
/// medians of per-operation rates. The shared host switches between a
/// fast and a slow mode every few seconds (`tl3-count` re-runs took 6.5 or
/// 10.5 ms, a few hundred of each in one run), so a median jumps with
/// whichever mode held most of a run, where the sum weighs each mode by
/// its length: over five runs, the warm `tl3-count` figure spread 0.22 as
/// a median and 0.14 as a sum.
fn timed(
    args: &Args,
    specs: &[CampaignSpec],
    cold_check: &mut ColdCheck,
    mut setups: SetupSampler,
) -> Result<Report, String> {
    let start = Instant::now();
    let (mut cold_secs, mut warm_ms) = (Vec::new(), Vec::new());
    let (mut cold_items, mut warm_items) = (0, 0);
    let mut attempted = 0u64;
    let mut items = 0;
    while cold_secs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let store = fresh_dir(&args.root, &format!("cold-{}", cold_secs.len() % 2))?;
        let cold = run_op(specs, &store, true)?;
        let cold_bytes = cold_check.check(&cold)?;
        items = cold.items();
        attempted += items as u64;
        cold_items += items;
        cold_secs.push(cold.secs());
        setups.tick()?;
        let warm_until = Instant::now() + Duration::from_secs_f64(WARM_SHARE * cold.secs());
        loop {
            let op = run_op(specs, &store, false)?;
            warm_matches(&op, &cold_bytes)?;
            attempted += op.items() as u64;
            warm_items += op.items();
            warm_ms.push(op.secs() * 1e3);
            setups.tick()?;
            if Instant::now() >= warm_until {
                break;
            }
        }
    }
    setups.finish();
    let (tail_p, tail_ms) = tail(&warm_ms);
    let setup_s = median(&setups.samples);
    let notes = vec![
        format!(
            "{} seed {}: {} cold ops of {} items (median {:.3} s), {} warm ops (p50 {:.3} ms, p{} {:.3} ms)",
            args.workload,
            args.seed,
            cold_secs.len(),
            items,
            median(&cold_secs),
            warm_ms.len(),
            median(&warm_ms),
            tail_p,
            tail_ms
        ),
        format!(
            "  {} set-ups: median {:.3} ms; the first, creating the store, {:.3} ms",
            setups.samples.len(),
            setup_s * 1e3,
            setups.samples[0] * 1e3
        ),
        "  fail_frac 0 (lost and quarantined items fail a check)".to_owned(),
    ];
    Ok(Report {
        attempted,
        failed: 0,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "cold_items_per_s",
                cold_items as f64 / cold_secs.iter().sum::<f64>(),
                "items/s",
            ),
            Metric::new(
                "warm_items_per_s",
                warm_items as f64 / (warm_ms.iter().sum::<f64>() / 1e3),
                "items/s",
            ),
            Metric::new("peak_rss_mb", crate::stats::self_peak_rss_mib()?, "MiB"),
        ],
        notes,
    })
}

/// The traced run: pairs of identical passes (one cold operation plus
/// warm re-runs), untraced then traced, until the budget is spent.
fn traced(
    args: &Args,
    specs: &[CampaignSpec],
    cold_check: &mut ColdCheck,
) -> Result<Report, String> {
    let start = Instant::now();
    let (mut passes, mut overheads) = (Vec::new(), Vec::new());
    let mut jobs_ms = Vec::new();
    let (mut hits, mut items, mut attempted) = (0usize, 0usize, 0u64);
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut walls = [0.0; 2];
        for (slot, armed) in [false, true].into_iter().enumerate() {
            let store = fresh_dir(&args.root, &format!("pass-{slot}"))?;
            let base = armed.then(|| {
                let base = metrics::snapshot();
                trace::start();
                base
            });
            let cold = run_op(specs, &store, true);
            let warm: Result<Vec<Op>, String> = (0..TRACED_WARM_OPS)
                .map(|_| run_op(specs, &store, false))
                .collect();
            if let Some(base) = base {
                let spans = trace::finish();
                let delta = metrics::snapshot().delta_from(&base);
                passes.push(PassLayers::from_trace(&spans, &delta));
            }
            let (cold, warm) = (cold?, warm?);
            // Traced and untraced passes must store identical records.
            let cold_bytes = cold_check.check(&cold)?;
            for op in &warm {
                warm_matches(op, &cold_bytes)?;
            }
            walls[slot] = cold.secs() + warm.iter().map(Op::secs).sum::<f64>();
            for op in std::iter::once(&cold).chain(&warm) {
                attempted += op.items() as u64;
                if armed {
                    for c in &op.calls {
                        jobs_ms.push(c.secs * 1e3);
                        hits += c.summary.hits;
                        items += c.summary.items;
                    }
                }
            }
        }
        overheads.push(walls[1] / walls[0] - 1.0);
    }
    layers::check_work_repeats(&passes)?;
    let mut metrics = layers::span_metrics(&passes);
    metrics.extend([
        Metric::new(
            "cache.hit_ratio",
            hits as f64 / items.max(1) as f64,
            "ratio",
        ),
        // No server stands between the bench and the engine: a job is one
        // `run_spec` call (what a server worker runs per submission),
        // nothing waits in front of it and nothing is refused, so the
        // last two are zero by definition.
        Metric::new("serve.job_p50_ms", median(&jobs_ms), "ms"),
        Metric::new("serve.job_p99_ms", percentile(&jobs_ms, 99.0).0, "ms"),
        Metric::new("serve.wait_share", 0.0, "ratio"),
        Metric::new("serve.rejections", 0.0, "count"),
        Metric::new("obs.trace_overhead", median(&overheads), "ratio"),
    ]);
    Ok(Report {
        attempted,
        failed: 0,
        metrics,
        notes: vec![format!(
            "{} seed {} traced: {} pass pairs of 1 cold + {} warm ops",
            args.workload,
            args.seed,
            passes.len(),
            TRACED_WARM_OPS
        )],
    })
}
