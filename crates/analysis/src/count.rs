//! The exhaustive (`COUNT`) and heuristic (`COUNTH`) outcome counters.
//!
//! # The unified counting API
//!
//! All counting goes through one entry point: a [`Counter`] implementation
//! ([`ExhaustiveCounter`] or [`HeuristicCounter`]) owns one outcome of
//! interest, and a [`CountRequest`] carries the run buffers plus the
//! execution policy (frame cap, watchdog budget).
//! [`Counter::count`] is the pipeline's single choke point: it opens the
//! `count` observability span and feeds the metrics registry (frames
//! examined, budget expiries, partner-derivation hits/misses), so
//! instrumentation lives here once instead of in every variant.
//!
//! Every counter is one serial scan on the calling thread: the exhaustive
//! counter walks the frame odometer, the heuristic counter walks the
//! pivots. Concurrency lives one level up, in the suite/campaign worker
//! pool, which runs whole per-test pipelines concurrently. A frame cap or
//! an expired budget therefore always truncates the scan to a prefix of
//! the untruncated scan's visiting order.

use std::time::{Duration, Instant};

use perple_convert::{HeuristicOutcome, HeuristicScratch, PerpetualOutcome};
use perple_obs::metrics::{self as obs_metrics, Hist, Metric};
use perple_obs::trace as obs_trace;
use perple_sim::Budget;

/// Frames between watchdog polls in the budgeted exhaustive scan; with a
/// deterministic poll-limit [`Budget`] the scan truncates at an exact
/// multiple of this interval on every machine.
const EXHAUSTIVE_POLL_INTERVAL: u64 = 1024;

/// Which exact-counting backend a pipeline stage should use, selectable
/// with `--counter {exhaustive,heuristic,rf}` on the CLI and the
/// `counter` key of campaign specs.
///
/// `Rf` is the default where counter selection is configurable: it gives
/// the same exact counts as `Exhaustive` in polynomial time when the
/// outcome shapes admit it, and transparently falls back to the exhaustive
/// scan (recording the downgrade) when they do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterKind {
    /// The `N^{T_L}` frame scan (Algorithm 1) — the reference backend.
    Exhaustive,
    /// The linear heuristic scan (Algorithm 2); undercounts by design, so
    /// selecting it makes the heuristic stand in for the exact column.
    Heuristic,
    /// The polynomial reads-from closure counter ([`crate::rf::RfCounter`]).
    Rf,
}

impl CounterKind {
    /// Stable CLI/spec name.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::Exhaustive => "exhaustive",
            CounterKind::Heuristic => "heuristic",
            CounterKind::Rf => "rf",
        }
    }

    /// Parses a CLI/spec name; `None` for anything unrecognised.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exhaustive" => Some(CounterKind::Exhaustive),
            "heuristic" => Some(CounterKind::Heuristic),
            "rf" => Some(CounterKind::Rf),
            _ => None,
        }
    }
}

/// Result of one counting pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountResult {
    /// Occurrences of the counted outcome, as a one-element vector.
    pub counts: Vec<u64>,
    /// Work done: frames for the exhaustive counter (`N^{T_L}` unless
    /// capped), pivots for the heuristic counter (`N`), sweep positions
    /// for the rf counter. Used as the counting component of model-time.
    pub frames_examined: u64,
    /// Wall-clock time of the counting pass.
    pub wall: Duration,
    /// True if a frame cap truncated the exhaustive scan.
    pub truncated: bool,
    /// True if a watchdog [`Budget`] expired mid-scan (budgeted counters
    /// only). The partial result counts exactly the frames/pivots scanned
    /// before the cutoff — a prefix of the untruncated scan.
    pub budget_expired: bool,
    /// True if the strategy downgraded itself: the rf counter fell back to
    /// the exhaustive scan because the outcome's constraint shape lay
    /// outside its polynomial fragment. The count is still exact (the
    /// fallback *is* the exhaustive scan), but the asymptotic win was lost
    /// — mirroring how budget expiry records a degraded result.
    pub downgraded: bool,
}

/// One counting request: run buffers, iteration count, and execution
/// policy. Built with combinators; the defaults are no cap and no budget.
#[derive(Debug, Clone, Copy)]
pub struct CountRequest<'a> {
    /// One value buffer per load-performing thread of the converted test.
    pub bufs: &'a [&'a [u64]],
    /// Iterations recorded in each buffer (the paper's `N`).
    pub n: u64,
    /// Optional prefix cap on the exhaustive frame scan.
    pub frame_cap: Option<u64>,
    /// Optional watchdog; on expiry the scan stops and reports the prefix
    /// it covered.
    pub budget: Option<&'a Budget>,
}

impl<'a> CountRequest<'a> {
    /// An uncapped, unbudgeted request over `bufs` and `n`.
    pub fn new(bufs: &'a [&'a [u64]], n: u64) -> Self {
        Self {
            bufs,
            n,
            frame_cap: None,
            budget: None,
        }
    }

    /// Caps the exhaustive scan at `cap` frames (lexicographic prefix).
    pub fn with_frame_cap(mut self, cap: Option<u64>) -> Self {
        self.frame_cap = cap;
        self
    }

    /// Attaches a watchdog [`Budget`]; see [`CountRequest::budget`].
    pub fn with_budget(mut self, budget: &'a Budget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// A counting strategy bound to its outcome of interest.
///
/// [`Counter::count`] is the instrumented entry point every caller should
/// use; [`Counter::scan`] is the raw implementation hook.
pub trait Counter {
    /// The uninstrumented counting pass (implementation hook). Prefer
    /// [`Counter::count`], which wraps this in the observability layer.
    fn scan(&self, req: &CountRequest<'_>) -> CountResult;

    /// Runs the pass inside the `count` observability span and records
    /// counter metrics. Observability is write-only — the result is
    /// exactly what [`Counter::scan`] returns.
    fn count(&self, req: &CountRequest<'_>) -> CountResult {
        let _span = obs_trace::span("count");
        let result = self.scan(req);
        obs_metrics::add(Metric::CountFramesExamined, result.frames_examined);
        obs_metrics::observe(Hist::CountFramesPerCall, result.frames_examined);
        if result.budget_expired {
            obs_metrics::add(Metric::CountBudgetExpiries, 1);
        }
        result
    }
}

/// [`Counter`] for the exhaustive `COUNT` scan (Algorithm 1) over the
/// full `N^{T_L}` frame space or its capped prefix.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveCounter<'a> {
    outcome: &'a PerpetualOutcome,
}

impl<'a> ExhaustiveCounter<'a> {
    /// A counter for `outcome`.
    pub fn single(outcome: &'a PerpetualOutcome) -> Self {
        Self { outcome }
    }
}

impl Counter for ExhaustiveCounter<'_> {
    fn scan(&self, req: &CountRequest<'_>) -> CountResult {
        exhaustive_scan(self.outcome, req)
    }
}

/// [`Counter`] for the linear heuristic `COUNTH` scan (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct HeuristicCounter<'a> {
    outcome: &'a HeuristicOutcome,
}

impl<'a> HeuristicCounter<'a> {
    /// A counter for `outcome`.
    pub fn single(outcome: &'a HeuristicOutcome) -> Self {
        Self { outcome }
    }
}

impl Counter for HeuristicCounter<'_> {
    /// One pass over the pivots, polling the budget before each one.
    fn scan(&self, req: &CountRequest<'_>) -> CountResult {
        let start = Instant::now();
        let (bufs, n) = (req.bufs, req.n);
        let mut hits: u64 = 0;
        let mut pivots: u64 = 0;
        let mut budget_expired = false;
        let mut scratch = HeuristicScratch::default();
        for i in 0..n {
            if req.budget.is_some_and(Budget::expired) {
                budget_expired = true;
                break;
            }
            pivots += 1;
            if self.outcome.eval(i, bufs, n, &mut scratch) {
                hits += 1;
            }
        }
        // Every pivot derives a partner frame from its loads and tests the
        // outcome against it: matches are derivation hits.
        obs_metrics::add(Metric::CountPartnerHits, hits);
        obs_metrics::add(Metric::CountPartnerMisses, pivots - hits);
        CountResult {
            counts: vec![hits],
            frames_examined: pivots,
            wall: start.elapsed(),
            truncated: false,
            budget_expired,
            downgraded: false,
        }
    }
}

/// The exhaustive scan (Algorithm 1): visits frames in odometer order
/// (the last frame position moves fastest) and stops after
/// `min(frame_cap, N^{T_L})` frames, or at the first budget poll (one every
/// [`EXHAUSTIVE_POLL_INTERVAL`] frames) that finds the watchdog expired.
/// `truncated` is set iff the cap stopped the scan with frames left over.
pub(crate) fn exhaustive_scan(outcome: &PerpetualOutcome, req: &CountRequest<'_>) -> CountResult {
    let start = Instant::now();
    let (bufs, n) = (req.bufs, req.n);
    let tl = bufs.len();
    let mut count: u64 = 0;
    let mut frames: u64 = 0;
    let mut truncated = false;
    let mut budget_expired = false;

    if n > 0 {
        let mut frame = vec![0u64; tl];
        'scan: loop {
            if req.frame_cap.is_some_and(|cap| frames >= cap) {
                truncated = true;
                break 'scan;
            }
            if let Some(b) = req.budget {
                if frames.is_multiple_of(EXHAUSTIVE_POLL_INTERVAL) && b.expired() {
                    budget_expired = true;
                    break 'scan;
                }
            }
            frames += 1;
            if outcome.eval_frame(&frame, bufs, n) {
                count += 1;
            }
            // Odometer over the frame tuple.
            let mut pos = tl;
            loop {
                if pos == 0 {
                    break 'scan;
                }
                pos -= 1;
                frame[pos] += 1;
                if frame[pos] < n {
                    break;
                }
                frame[pos] = 0;
            }
        }
    }

    CountResult {
        counts: vec![count],
        frames_examined: frames,
        wall: start.elapsed(),
        truncated,
        budget_expired,
        downgraded: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perple_convert::Conversion;
    use perple_model::suite;

    struct SbFixture {
        conv: Conversion,
        all: Vec<(PerpetualOutcome, HeuristicOutcome)>,
    }

    fn sb_fixture() -> SbFixture {
        let t = suite::sb();
        let conv = Conversion::convert(&t).unwrap();
        let all = conv.all_outcomes(&t);
        SbFixture { conv, all }
    }

    // Local wrappers with the legacy call shapes: every reference test
    // below exercises the `Counter` trait directly.
    fn count_exhaustive(
        outcome: &PerpetualOutcome,
        bufs: &[&[u64]],
        n: u64,
        cap: Option<u64>,
    ) -> CountResult {
        ExhaustiveCounter::single(outcome).count(&CountRequest::new(bufs, n).with_frame_cap(cap))
    }

    fn count_exhaustive_budgeted(
        outcome: &PerpetualOutcome,
        bufs: &[&[u64]],
        n: u64,
        cap: Option<u64>,
        budget: &Budget,
    ) -> CountResult {
        ExhaustiveCounter::single(outcome).count(
            &CountRequest::new(bufs, n)
                .with_frame_cap(cap)
                .with_budget(budget),
        )
    }

    fn count_heuristic(outcome: &HeuristicOutcome, bufs: &[&[u64]], n: u64) -> CountResult {
        HeuristicCounter::single(outcome).count(&CountRequest::new(bufs, n))
    }

    fn count_heuristic_budgeted(
        outcome: &HeuristicOutcome,
        bufs: &[&[u64]],
        n: u64,
        budget: &Budget,
    ) -> CountResult {
        HeuristicCounter::single(outcome).count(&CountRequest::new(bufs, n).with_budget(budget))
    }

    /// Lockstep buffers: iteration n of each thread read the other's store
    /// of the same iteration (value n+1): pure "11" outcomes.
    fn lockstep_bufs(n: usize) -> (Vec<u64>, Vec<u64>) {
        ((1..=n as u64).collect(), (1..=n as u64).collect())
    }

    #[test]
    fn exhaustive_scans_n_squared_frames() {
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(10);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let r = count_exhaustive(&f.conv.target_exhaustive, &bufs, 10, None);
        assert_eq!(r.frames_examined, 100);
        assert!(!r.truncated);
    }

    #[test]
    fn frame_cap_truncates() {
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(10);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let r = count_exhaustive(&f.conv.target_exhaustive, &bufs, 10, Some(30));
        assert_eq!(r.frames_examined, 30);
        assert!(r.truncated);
    }

    #[test]
    fn heuristic_is_linear_and_subset_of_exhaustive() {
        let f = sb_fixture();
        // Interleaved synthetic buffers with plenty of variety.
        let n = 64u64;
        let b0: Vec<u64> = (0..n).map(|i| (i * 5 + 2) % (n + 1)).collect();
        let b1: Vec<u64> = (0..n).map(|i| (i * 3) % (n + 1)).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        for (o, h) in &f.all {
            let re = count_exhaustive(o, &bufs, n, None);
            let rh = count_heuristic(h, &bufs, n);
            assert_eq!(rh.frames_examined, n);
            assert_eq!(re.frames_examined, n * n);
            // Each heuristic hit corresponds to a real frame, and the
            // heuristic examines at most N frames per outcome.
            let (h, e) = (rh.counts[0], re.counts[0]);
            assert!(h <= e + n, "heuristic {h} vs exhaustive {e}");
            assert!(h <= n);
        }
    }

    #[test]
    fn lockstep_buffers_never_count_the_weak_outcome() {
        // In a lockstep run (each thread reads the partner's same-iteration
        // store), the frame (n, n+1) realizes outcome 01 — loaded value is
        // "older" than the n+1 store but read-from iteration n — so every
        // pivot but the last (no n+1 frame) counts 01. Crucially, the
        // store-buffering outcome 00 never fires.
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(50);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let count = |label: &str| {
            let (_, h) = f.all.iter().find(|(o, _)| o.label() == label).unwrap();
            count_heuristic(h, &bufs, 50).counts[0]
        };
        assert_eq!(count("00"), 0, "no store buffering in lockstep reads");
        assert_eq!(count("01"), 49);
    }

    #[test]
    fn weak_buffers_count_target() {
        // Buffers where both threads always read one-iteration-stale
        // values: every frame (n, n) exhibits store buffering.
        let f = sb_fixture();
        let n = 30u64;
        let b0: Vec<u64> = (0..n).collect(); // reads value n (iter n-1) at iteration n
        let b1: Vec<u64> = (0..n).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let rh = count_heuristic(&f.conv.target_heuristic, &bufs, n);
        assert_eq!(rh.counts[0], n, "every iteration is a target hit");
        let re = count_exhaustive(&f.conv.target_exhaustive, &bufs, n, None);
        assert!(re.counts[0] >= n, "exhaustive finds at least the diagonal");
    }

    #[test]
    fn zero_iterations_are_degenerate() {
        let f = sb_fixture();
        let bufs: Vec<&[u64]> = vec![&[], &[]];
        let r = count_exhaustive(&f.conv.target_exhaustive, &bufs, 0, None);
        assert_eq!(r.counts, [0]);
        assert_eq!(r.frames_examined, 0);
        let rh = count_heuristic(&f.conv.target_heuristic, &bufs, 0);
        assert_eq!(rh.counts, [0]);
        assert_eq!(rh.frames_examined, 0);
        // Degenerate scans never truncate, not even under a zero cap.
        let capped = count_exhaustive(&f.conv.target_exhaustive, &bufs, 0, Some(0));
        assert!(!capped.truncated);
        assert_eq!(capped.frames_examined, 0);
    }

    #[test]
    fn frame_cap_selects_a_prefix_and_truncates_iff_frames_are_left() {
        // sb at N = 300 has 90 000 frames: a cap below that truncates, a
        // cap at or above it scans the whole space.
        let f = sb_fixture();
        let outcome = &f.conv.target_exhaustive;
        let n = 300u64;
        let b0: Vec<u64> = (0..n).map(|i| (i * 7 + 3) % (n + 1)).collect();
        let b1: Vec<u64> = (0..n).map(|i| (i * 11) % (n + 1)).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let full = count_exhaustive(outcome, &bufs, n, None);
        assert_eq!(full.frames_examined, 90_000);
        for cap in [0u64, 1, 89_999, 90_000, 90_001] {
            let r = count_exhaustive(outcome, &bufs, n, Some(cap));
            assert_eq!(r.truncated, cap < 90_000, "cap {cap}");
            assert_eq!(r.frames_examined, cap.min(90_000), "cap {cap}");
            assert!(r.counts[0] <= full.counts[0], "cap {cap}");
            if cap >= 90_000 {
                assert_eq!(r.counts, full.counts, "cap {cap}");
            }
        }
    }

    #[test]
    fn budgeted_counters_with_unlimited_budget_match_unbudgeted() {
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(25);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let b = Budget::unlimited();
        for (o, h) in &f.all {
            let re = count_exhaustive_budgeted(o, &bufs, 25, None, &b);
            let re_plain = count_exhaustive(o, &bufs, 25, None);
            assert_eq!(re.counts, re_plain.counts);
            assert_eq!(re.frames_examined, re_plain.frames_examined);
            assert!(!re.budget_expired);
            let rh = count_heuristic_budgeted(h, &bufs, 25, &b);
            let rh_plain = count_heuristic(h, &bufs, 25);
            assert_eq!(rh.counts, rh_plain.counts);
            assert_eq!(rh.frames_examined, 25);
            assert!(!rh.budget_expired);
        }
    }

    #[test]
    fn budgeted_exhaustive_truncates_at_the_poll_boundary() {
        let f = sb_fixture();
        let n = 64u64; // 4096-frame space = 4 poll intervals
        let b0: Vec<u64> = (0..n).map(|i| (i * 5 + 2) % (n + 1)).collect();
        let b1: Vec<u64> = (0..n).map(|i| (i * 3) % (n + 1)).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        for (o, _) in &f.all {
            // One allowed poll: the scan covers exactly one poll interval.
            let b = Budget::with_poll_limit(1);
            let part = count_exhaustive_budgeted(o, &bufs, n, None, &b);
            assert!(part.budget_expired);
            assert_eq!(part.frames_examined, EXHAUSTIVE_POLL_INTERVAL);
            // The partial result equals a frame-capped scan at the cutoff.
            let capped = count_exhaustive(o, &bufs, n, Some(part.frames_examined));
            assert_eq!(part.counts, capped.counts);
            assert_eq!(part.frames_examined, capped.frames_examined);
        }
    }

    #[test]
    fn budgeted_heuristic_counts_are_a_pivot_prefix() {
        let f = sb_fixture();
        let n = 50u64;
        let b0: Vec<u64> = (0..n).map(|i| (i * 7 + 1) % (n + 1)).collect();
        let b1: Vec<u64> = (0..n).map(|i| (i * 13) % (n + 1)).collect();
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        for (_, h) in &f.all {
            let full = count_heuristic(h, &bufs, n);
            let b = Budget::with_poll_limit(20);
            let part = count_heuristic_budgeted(h, &bufs, n, &b);
            assert!(part.budget_expired);
            assert_eq!(part.frames_examined, 20, "one poll per pivot");
            // Prefix property: recount the scanned prefix serially.
            let mut scratch = HeuristicScratch::default();
            let prefix = (0..20)
                .filter(|&i| h.eval(i, &bufs, n, &mut scratch))
                .count() as u64;
            assert_eq!(part.counts, [prefix]);
            assert!(
                part.counts[0] <= full.counts[0],
                "truncated counts can never exceed full counts"
            );
        }
    }

    #[test]
    fn expired_budget_yields_empty_counts() {
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(10);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let b = Budget::with_poll_limit(0);
        let re = count_exhaustive_budgeted(&f.conv.target_exhaustive, &bufs, 10, None, &b);
        assert!(re.budget_expired);
        assert_eq!(re.frames_examined, 0);
        assert_eq!(re.counts, [0]);
        let rh = count_heuristic_budgeted(&f.conv.target_heuristic, &bufs, 10, &b);
        assert!(rh.budget_expired);
        assert_eq!(rh.counts, [0]);
    }

    #[test]
    fn request_builder_defaults_are_unbounded() {
        let bufs: Vec<&[u64]> = vec![&[], &[]];
        let req = CountRequest::new(&bufs, 0);
        assert!(req.frame_cap.is_none());
        assert!(req.budget.is_none());
    }

    #[test]
    fn counting_feeds_the_metrics_registry() {
        let f = sb_fixture();
        let (b0, b1) = lockstep_bufs(30);
        let bufs: Vec<&[u64]> = vec![&b0, &b1];
        let before = perple_obs::metrics::snapshot();
        let r = count_heuristic(&f.conv.target_heuristic, &bufs, 30);
        let delta = perple_obs::metrics::snapshot().delta_from(&before);
        assert!(delta.get("count_frames_examined") >= 30);
        assert!(delta.get("count_partner_hits") >= r.counts[0]);
        assert!(delta.hist_total("count_frames_per_call") >= 1);
    }
}
