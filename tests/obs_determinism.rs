//! Determinism guarantees of the observability layer: arming the span
//! tracer and recording metrics must not change a single bit of the
//! analysis. The layer is write-only — no pipeline stage ever reads a
//! counter, histogram, or trace record back — so these tests pin the
//! invariant operationally: the same `(test, seed, N)` produces the same
//! run digest and counts whether observability is armed, disarmed, or
//! compiled out entirely (`--features perple-obs/off` runs this same
//! file and must see the same pinned digest).

use perple::obs;
use perple::{
    Conversion, CountRequest, Counter, ExhaustiveCounter, HeuristicCounter, PerpleRunner, SimConfig,
};
use perple_model::suite;
use std::sync::Mutex;

/// The tracer and registry are process-global; tests serialize behind
/// this so span/metric assertions are not polluted by a sibling test.
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything deterministic the pipeline produces for one input.
#[derive(Debug, PartialEq, Eq)]
struct PipelineResult {
    digest: u64,
    heuristic: Vec<u64>,
    exhaustive: Vec<u64>,
    frames_examined: u64,
    pivots: u64,
}

/// Full pipeline — convert, simulate, count — with no wall-clock fields in
/// the result.
fn run_pipeline(name: &str, seed: u64, n: u64) -> PipelineResult {
    let test = suite::by_name(name).expect("suite test");
    let conv = Conversion::convert(&test).expect("converts");
    let mut runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
    let run = runner.run(&conv.perpetual, n);
    let bufs = run.bufs();
    let req = CountRequest::new(&bufs, n);
    let h = HeuristicCounter::single(&conv.target_heuristic).count(&req);
    let x = ExhaustiveCounter::single(&conv.target_exhaustive)
        .count(&req.with_frame_cap(Some(100_000)));
    PipelineResult {
        digest: run.content_digest(),
        heuristic: h.counts,
        exhaustive: x.counts,
        frames_examined: x.frames_examined,
        pivots: h.frames_examined,
    }
}

#[test]
fn traced_pipelines_are_bit_identical_to_untraced() {
    let _g = gate();
    for name in ["sb", "mp", "podwr001"] {
        let plain = run_pipeline(name, 0x0B5_C0DE, 200);

        obs::trace::start();
        let traced = run_pipeline(name, 0x0B5_C0DE, 200);
        let trace = obs::trace::finish();

        assert_eq!(plain, traced, "{name}: tracing changed the pipeline");
        if obs::metrics::enabled() {
            // The compiled-in tracer must have seen every stage.
            let seen: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
            for stage in ["convert", "simulate", "count"] {
                assert!(seen.contains(&stage), "{name}: missing span {stage}");
            }
        } else {
            assert!(trace.is_empty(), "off build must record nothing");
        }
    }
}

#[test]
fn runtime_disabled_metrics_do_not_change_the_pipeline() {
    let _g = gate();
    let on = run_pipeline("iwp24", 0xFEED, 150);
    obs::metrics::set_enabled(false);
    let off = run_pipeline("iwp24", 0xFEED, 150);
    obs::metrics::set_enabled(true);
    assert_eq!(on, off, "runtime metrics toggle changed the pipeline");
}

/// The cross-feature anchor: this digest was computed once and must be
/// reproduced by **every** build configuration — default, `--release`,
/// and `--features perple-obs/off` (CI runs this test in both feature
/// configs). If observability ever feeds back into simulation or
/// counting, one of the configs diverges and this fails.
#[test]
fn pipeline_digest_is_pinned_across_obs_feature_configs() {
    let _g = gate();
    let before = obs::metrics::snapshot();
    let r = run_pipeline("sb", 0xD16_E57, 300);
    let delta = obs::metrics::snapshot().delta_from(&before);

    assert_eq!(
        r.digest, GOLDEN_SB_DIGEST,
        "sb digest drifted (seed 0xD16E57, N=300): got {:#x}",
        r.digest
    );
    assert_eq!(r.frames_examined, 90_000, "sb frame space is N^2");

    // The same run *was* observed (when compiled in): the write-only
    // layer sees the pipeline without perturbing it.
    if obs::metrics::enabled() {
        assert!(delta.get("sim_runs") >= 1);
        assert!(delta.get("sim_store_buffer_flushes") > 0);
        assert!(delta.get("count_frames_examined") >= 90_000);
    } else {
        assert_eq!(delta.get("sim_runs"), 0);
    }
}

/// Rerunning the pipeline on the same `(seed, N)` reproduces its digest and
/// counts exactly, and the next seed does not: the stability is
/// determinism, not a constant result.
#[test]
fn same_seed_pipelines_are_identical_and_the_next_seed_differs() {
    let (seed, n) = (0x50_0BE5u64, 400u64);
    let first = run_pipeline("sb", seed, n);
    assert_eq!(first, run_pipeline("sb", seed, n));
    let next = run_pipeline("sb", seed + 1, n);
    assert_ne!(first.digest, next.digest);
    assert_ne!(
        (&first.heuristic, &first.exhaustive),
        (&next.heuristic, &next.exhaustive)
    );
}

/// Computed from the seed pipeline; see
/// `pipeline_digest_is_pinned_across_obs_feature_configs`.
const GOLDEN_SB_DIGEST: u64 = 0x7fe9_6306_3f1b_9576;

/// A campaign computes its per-test verdicts once per run, however many
/// batches its cache misses are split into, and a warm re-run (all hits)
/// computes none.
#[test]
fn campaign_computes_verdicts_once_per_run() {
    use perple::campaign::CampaignSpec;
    use perple::experiments::campaign::run_spec;

    let _g = gate();
    let store = std::env::temp_dir().join(format!("perple-obs-verdicts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // One item per batch: three batches on the cold run.
    let spec = CampaignSpec::parse(
        "name = verdicts\ntests = sb, mp, lb\nseeds = 1\niterations = 200\n\
         workers = 1\njournal_chunk = 1\n",
    )
    .expect("spec parses");

    let traced_run = || {
        obs::trace::start();
        let summary = run_spec(&spec, &store, false).expect("campaign runs");
        let trace = obs::trace::finish();
        let verdicts = trace.spans.iter().filter(|s| s.name == "verdicts").count();
        (summary, verdicts)
    };
    let (cold, cold_verdicts) = traced_run();
    let (warm, warm_verdicts) = traced_run();
    let _ = std::fs::remove_dir_all(&store);

    assert_eq!((cold.executed, cold.hits), (3, 0));
    assert_eq!((warm.executed, warm.hits), (0, 3));
    if obs::metrics::enabled() {
        assert_eq!(cold_verdicts, 1, "cold run: one verdict pass for 3 batches");
        assert_eq!(warm_verdicts, 0, "warm run: all hits need no verdicts");
    } else {
        assert_eq!(
            cold_verdicts + warm_verdicts,
            0,
            "off build records nothing"
        );
    }
}
