//! Per-layer measurement: span self times and work counters from
//! `perple-obs`, plus probes that time each layer's public calls from the
//! benchmark itself.
//!
//! Probe inputs (conversions, run buffers, fingerprints, records) are
//! built once before any timing starts, so a build-once cost never mixes
//! into a query-many cost.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use perple::campaign::{ArtifactCache, CampaignSpec, Fingerprint, OutcomeRecord};
use perple::experiments::campaign::{expand_tests, lint_spec_tests};
use perple::jsonout::Json;
use perple::obs::{trace::Trace, MetricsSnapshot};
use perple::{
    classify, CountRequest, Counter, HeuristicCounter, LitmusTest, ModelId, PerpleRunner,
    RfCounter, SimConfig,
};

use crate::stats::repeat_median;
use crate::Metric;

/// Spans whose time is pipeline work (not campaign orchestration).
const STAGES: [&str; 3] = ["convert", "simulate", "count"];

/// Work counters read from the metrics registry: `(metric name, registry
/// counter)`. Each must repeat exactly for one seed.
pub const WORK_COUNTERS: [(&str, &str); 7] = [
    ("sim.scheduler_cycles", "sim_scheduler_cycles"),
    ("sim.store_buffer_flushes", "sim_store_buffer_flushes"),
    ("sim.stalls", "sim_stalls"),
    ("count.frames_examined", "count_frames_examined"),
    ("count.rf_closure_steps", "count_rf_closure_steps"),
    ("count.rf_edges_walked", "count_rf_edges_walked"),
    ("count.rf_fallbacks", "count_rf_fallbacks"),
];

/// Store counters: reported, but not required to repeat (concurrent run
/// id reservation may retry).
pub const STORE_COUNTERS: [(&str, &str); 3] = [
    ("store.journal_appends", "store_journal_appends"),
    ("store.fsyncs", "store_fsyncs"),
    ("store.io_boundaries", "store_io_boundaries"),
];

/// What one traced pass recorded: per-stage self seconds, convert calls,
/// campaign orchestration seconds and the counter deltas.
#[derive(Debug, Clone, Default)]
pub struct PassLayers {
    pub stage_self_s: BTreeMap<String, f64>,
    pub convert_calls: u64,
    pub campaign_self_s: f64,
    pub counters: BTreeMap<String, u64>,
}

impl PassLayers {
    /// Aggregates a drained trace and the registry delta of one pass.
    ///
    /// Self time is a span's duration minus its same-thread children.
    /// Campaign orchestration is the campaign span's duration minus the
    /// wall-clock union of the stage spans (on any thread) inside it.
    pub fn from_trace(trace: &Trace, delta: &MetricsSnapshot) -> PassLayers {
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &trace.spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_insert(0) += s.dur_us;
            }
        }
        let mut out = PassLayers::default();
        for s in &trace.spans {
            if STAGES.contains(&s.name) {
                let own = s
                    .dur_us
                    .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
                *out.stage_self_s.entry(s.name.to_owned()).or_insert(0.0) += own as f64 / 1e6;
            }
            if s.name == "convert" {
                out.convert_calls += 1;
            }
        }
        let stage_spans: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .filter(|s| STAGES.contains(&s.name))
            .map(|s| (s.start_us, s.start_us + s.dur_us))
            .collect();
        for c in trace.spans.iter().filter(|s| s.name == "campaign") {
            let (lo, hi) = (c.start_us, c.start_us + c.dur_us);
            let mut clipped: Vec<(u64, u64)> = stage_spans
                .iter()
                .map(|&(a, b)| (a.max(lo), b.min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let (mut covered, mut end) = (0u64, lo);
            for (a, b) in clipped {
                let a = a.max(end);
                if b > a {
                    covered += b - a;
                    end = b;
                }
            }
            out.campaign_self_s += c.dur_us.saturating_sub(covered) as f64 / 1e6;
        }
        for (_, name) in WORK_COUNTERS.iter().chain(&STORE_COUNTERS) {
            out.counters.insert((*name).to_owned(), delta.get(name));
        }
        for name in ["count_partner_hits", "count_partner_misses"] {
            out.counters.insert(name.to_owned(), delta.get(name));
        }
        out
    }

    /// Stage self seconds (0 when the stage never ran).
    pub fn stage(&self, name: &str) -> f64 {
        self.stage_self_s.get(name).copied().unwrap_or(0.0)
    }

    /// A counter delta (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The work counters only, for the exact-repeat check.
    pub fn work(&self) -> Vec<(String, u64)> {
        WORK_COUNTERS
            .iter()
            .map(|(_, n)| ((*n).to_owned(), self.counter(n)))
            .collect()
    }

    /// Wire form (the serve child reports its passes this way).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "stages",
                Json::Obj(
                    self.stage_self_s
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            ("convert_calls", Json::from(self.convert_calls)),
            ("campaign_self_s", Json::from(self.campaign_self_s)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`PassLayers::to_json`].
    pub fn from_json(v: &Json) -> Result<PassLayers, String> {
        let pairs = |key: &str| match v.get(key) {
            Some(Json::Obj(p)) => Ok(p.clone()),
            _ => Err(format!("layer report lacks {key:?}")),
        };
        let num = |j: &Json| j.as_f64().ok_or("non-numeric layer value");
        let mut out = PassLayers::default();
        for (k, j) in pairs("stages")? {
            out.stage_self_s.insert(k, num(&j)?);
        }
        for (k, j) in pairs("counters")? {
            out.counters
                .insert(k, j.as_u64().ok_or("non-integer counter")?);
        }
        out.convert_calls = v
            .get("convert_calls")
            .and_then(Json::as_u64)
            .ok_or("layer report lacks convert_calls")?;
        out.campaign_self_s = v
            .get("campaign_self_s")
            .and_then(Json::as_f64)
            .ok_or("layer report lacks campaign_self_s")?;
        Ok(out)
    }
}

/// Checks that every traced pass did exactly the same work as the first.
pub fn check_work_repeats(passes: &[PassLayers]) -> Result<(), String> {
    let Some(first) = passes.first() else {
        return Ok(());
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.work() != first.work() {
            return Err(format!(
                "traced pass {i} did different work than pass 0: {:?} vs {:?}",
                p.work(),
                first.work()
            ));
        }
    }
    Ok(())
}

/// Per-layer metrics from the traced passes: median self times, the
/// first pass's counters (passes repeat them exactly).
pub fn span_metrics(passes: &[PassLayers]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&PassLayers) -> f64| {
        crate::stats::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let first = passes.first().cloned().unwrap_or_default();
    let hits = first.counter("count_partner_hits") as f64;
    let misses = first.counter("count_partner_misses") as f64;
    let mut out = vec![
        Metric::new("sim.busy_s", med(&|p| p.stage("simulate")), "s"),
        Metric::new("count.busy_s", med(&|p| p.stage("count")), "s"),
        Metric::new("convert.busy_s", med(&|p| p.stage("convert")), "s"),
        Metric::new("convert.calls", first.convert_calls as f64, "count"),
        Metric::new("campaign.self_s", med(&|p| p.campaign_self_s), "s"),
        Metric::new(
            "count.partner_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    for (metric, counter) in WORK_COUNTERS.iter().chain(&STORE_COUNTERS) {
        out.push(Metric::new(metric, first.counter(counter) as f64, "count"));
    }
    out
}

/// The inputs the layer probes run on, built once.
pub struct ProbeInputs<'a> {
    /// The workload's specs.
    pub specs: &'a [CampaignSpec],
    /// Distinct tests of each spec, in name order.
    pub tests: Vec<Vec<LitmusTest>>,
    /// The test the machine and counter probes run.
    pub probe_test: LitmusTest,
    /// Iterations of the probe run (the spec's own).
    pub iterations: u64,
    /// Machine seed of the probe run.
    pub seed: u64,
    /// `(fingerprint, record)` of every item the workload ran.
    pub records: Vec<(Fingerprint, OutcomeRecord)>,
}

fn spec_model(spec: &CampaignSpec) -> ModelId {
    spec.model
        .as_deref()
        .and_then(ModelId::parse)
        .unwrap_or_default()
}

/// Times each layer's public entry points on the workload's own inputs.
/// `scratch` is an empty directory the cache probe may use.
pub fn probes(inputs: &ProbeInputs, scratch: &Path) -> Result<Vec<Metric>, String> {
    const MIN: Duration = Duration::from_millis(200);
    let mut out = Vec::new();

    out.push(Metric::new(
        "model.generate_s",
        repeat_median(MIN, || {
            for spec in inputs.specs {
                black_box(expand_tests(spec).map(|t| t.len()).unwrap_or(0));
            }
        }),
        "s",
    ));
    out.push(Metric::new(
        "enumerate.classify_s",
        repeat_median(MIN, || {
            for tests in &inputs.tests {
                for t in tests {
                    black_box(classify(t));
                }
            }
        }),
        "s",
    ));
    out.push(Metric::new(
        "solve.busy_s",
        repeat_median(MIN, || {
            for (spec, tests) in inputs.specs.iter().zip(&inputs.tests) {
                let model = spec_model(spec);
                for t in tests {
                    if let Some(target) = t.target_outcome() {
                        let _ = black_box(perple::solve::solve(t, &target, model));
                    }
                }
            }
        }),
        "s",
    ));
    out.push(Metric::new(
        "lint.gate_s",
        repeat_median(MIN, || {
            for (spec, tests) in inputs.specs.iter().zip(&inputs.tests) {
                black_box(lint_spec_tests(spec, tests));
            }
        }),
        "s",
    ));

    // Artifact cache: stores into a fresh directory each round (stores
    // are write-if-absent), loads from the populated one.
    let mut store_samples = Vec::new();
    let mut round = 0;
    let start = std::time::Instant::now();
    while store_samples.is_empty() || start.elapsed() < MIN {
        let dir = scratch.join(format!("cache-{round}"));
        round += 1;
        let cache = ArtifactCache::open(&dir).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        for (fp, rec) in &inputs.records {
            cache.store_result(*fp, rec).map_err(|e| e.to_string())?;
        }
        store_samples.push(t.elapsed().as_secs_f64());
    }
    out.push(Metric::new(
        "cache.store_s",
        crate::stats::median(&store_samples),
        "s",
    ));
    let cache = ArtifactCache::open(scratch.join("cache-0")).map_err(|e| e.to_string())?;
    for (fp, rec) in &inputs.records {
        if cache.load_result(*fp).as_ref() != Some(rec) {
            return Err(format!("cache probe lost the record of {}", rec.test));
        }
    }
    out.push(Metric::new(
        "cache.load_s",
        repeat_median(MIN, || {
            for (fp, _) in &inputs.records {
                black_box(cache.load_result(*fp));
            }
        }),
        "s",
    ));

    // Machine and counters on one item of the workload.
    let conv = perple::Conversion::convert(&inputs.probe_test)
        .map_err(|e| format!("probe test {}: {e}", inputs.probe_test.name()))?;
    let n = inputs.iterations;
    for (model, name) in [
        (ModelId::Tso, "sim.tso.iters_per_s"),
        (ModelId::Relaxed, "sim.relaxed.iters_per_s"),
    ] {
        let mut runner = PerpleRunner::new(
            SimConfig::default()
                .with_seed(inputs.seed)
                .with_model(model),
        );
        let per_run = repeat_median(MIN, || {
            black_box(runner.run(&conv.perpetual, n));
        });
        out.push(Metric::new(name, n as f64 / per_run, "iters/s"));
    }
    let mut runner = PerpleRunner::new(SimConfig::default().with_seed(inputs.seed));
    let run = runner.run(&conv.perpetual, n);
    let bufs = run.bufs();
    let bytes: usize = bufs.iter().map(|b| std::mem::size_of_val(*b)).sum();
    out.push(Metric::new(
        "harness.buf_mb",
        bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    let req = CountRequest::new(&bufs, run.iterations);
    out.push(Metric::new(
        "count.rf.busy_s",
        repeat_median(MIN, || {
            black_box(RfCounter::single(&conv.target_exhaustive).count(&req));
        }),
        "s",
    ));
    out.push(Metric::new(
        "count.heuristic.busy_s",
        repeat_median(MIN, || {
            black_box(HeuristicCounter::single(&conv.target_heuristic).count(&req));
        }),
        "s",
    ));
    Ok(out)
}
