//! Process-wide event counters and fixed-bucket histograms.
//!
//! The registry is **sharded per thread**: the first event a thread
//! records allocates it a private `Shard` of atomic cells, registered
//! once under a mutex; every subsequent event is a single relaxed
//! `fetch_add` on thread-local memory with no shared-cache contention.
//! [`snapshot`] merges all shards by elementwise addition — the merge is
//! associative and commutative, so the result is independent of how
//! events were distributed across threads (property-tested in the
//! workspace test suite). When a thread exits, its shard folds into one
//! shared *retired* shard and leaves the registry, so the registry's size
//! follows the live threads, not every thread the process ever ran.
//!
//! Counters are a closed set ([`Metric`]) and histograms use fixed
//! power-of-two buckets ([`bucket_of`]), so shards are fixed-size arrays:
//! no per-event allocation, no string hashing on the hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The closed set of event counters fed by pipeline instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Store-buffer entries drained to shared memory (`sim::machine`).
    SimStoreBufferFlushes,
    /// Long preemptions taken by the scheduler (`sim::machine`).
    SimPreemptions,
    /// Micro-preemptions (short descheduling bursts) taken.
    SimMicroPreemptions,
    /// Single-cycle issue stalls injected by the scheduler.
    SimStalls,
    /// Scheduler cycles executed (one per machine loop step).
    SimSchedulerCycles,
    /// Faults actually injected by an armed fault plan.
    SimFaultInjections,
    /// Completed machine runs.
    SimRuns,
    /// Frames the counters actually evaluated.
    CountFramesExamined,
    /// Heuristic partner-derivations that matched an outcome.
    CountPartnerHits,
    /// Heuristic partner-derivations that matched nothing.
    CountPartnerMisses,
    /// Counter invocations truncated by an expired budget.
    CountBudgetExpiries,
    /// Reads-from partner edges walked by the rf counter (one per atom per
    /// admitted iteration: each compiled constraint scans its feature once).
    CountRfEdgesWalked,
    /// Closure sweep steps performed by the rf counter (positions visited
    /// by the per-component interval sweeps).
    CountRfClosureSteps,
    /// Rf counter invocations that fell back to the exhaustive scan because
    /// an outcome's constraint shape was outside the polynomial fragment.
    CountRfFallbacks,
    /// Attempt retries performed by the resilient executor.
    ExecRetries,
    /// Suite items quarantined after exhausting retries.
    ExecQuarantines,
    /// Audit rows degraded because a stage budget expired.
    ExecBudgetExpiries,
    /// Write/sync boundaries crossed by the campaign-store IO shim (one
    /// per file write, rename, append, sync, truncate, or dir creation).
    StoreIoBoundaries,
    /// Outcome frames appended to a campaign write-ahead journal.
    StoreJournalAppends,
    /// fsync (`sync_data`) calls issued by the campaign-store IO shim.
    StoreFsyncs,
    /// Torn (incomplete) trailing journal frames dropped during replay.
    StoreTornFrames,
    /// Items recovered from a write-ahead journal by `campaign resume`
    /// (journaled outcomes that skipped re-execution entirely).
    StoreRecoveredItems,
    /// Bounded-backoff retries of transient campaign-store IO errors.
    StoreTransientRetries,
    /// Cache writes dropped after exhausting retries: the item degraded
    /// to uncached execution instead of failing the campaign.
    StoreCacheWriteDrops,
    /// Corrupt cache entries moved to quarantine by `campaign fsck`.
    StoreCacheQuarantines,
    /// Campaign specs accepted onto the serve job queue.
    ServeSubmissions,
    /// Submissions rejected with backpressure (queue full or per-client
    /// quota exceeded).
    ServeRejections,
    /// Jobs that ran to completion on the serve worker pool (including
    /// jobs whose campaign failed — the job itself finished).
    ServeJobsDone,
    /// Item records streamed to serve clients as chunked JSONL lines.
    ServeItemsStreamed,
}

/// Number of distinct [`Metric`] variants (shard array size).
pub const METRIC_COUNT: usize = 29;

impl Metric {
    /// Every metric, in stable declaration order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::SimStoreBufferFlushes,
        Metric::SimPreemptions,
        Metric::SimMicroPreemptions,
        Metric::SimStalls,
        Metric::SimSchedulerCycles,
        Metric::SimFaultInjections,
        Metric::SimRuns,
        Metric::CountFramesExamined,
        Metric::CountPartnerHits,
        Metric::CountPartnerMisses,
        Metric::CountBudgetExpiries,
        Metric::CountRfEdgesWalked,
        Metric::CountRfClosureSteps,
        Metric::CountRfFallbacks,
        Metric::ExecRetries,
        Metric::ExecQuarantines,
        Metric::ExecBudgetExpiries,
        Metric::StoreIoBoundaries,
        Metric::StoreJournalAppends,
        Metric::StoreFsyncs,
        Metric::StoreTornFrames,
        Metric::StoreRecoveredItems,
        Metric::StoreTransientRetries,
        Metric::StoreCacheWriteDrops,
        Metric::StoreCacheQuarantines,
        Metric::ServeSubmissions,
        Metric::ServeRejections,
        Metric::ServeJobsDone,
        Metric::ServeItemsStreamed,
    ];

    /// Stable snake_case name (used in manifests and `campaign compare`).
    pub fn name(self) -> &'static str {
        match self {
            Metric::SimStoreBufferFlushes => "sim_store_buffer_flushes",
            Metric::SimPreemptions => "sim_preemptions",
            Metric::SimMicroPreemptions => "sim_micro_preemptions",
            Metric::SimStalls => "sim_stalls",
            Metric::SimSchedulerCycles => "sim_scheduler_cycles",
            Metric::SimFaultInjections => "sim_fault_injections",
            Metric::SimRuns => "sim_runs",
            Metric::CountFramesExamined => "count_frames_examined",
            Metric::CountPartnerHits => "count_partner_hits",
            Metric::CountPartnerMisses => "count_partner_misses",
            Metric::CountBudgetExpiries => "count_budget_expiries",
            Metric::CountRfEdgesWalked => "count_rf_edges_walked",
            Metric::CountRfClosureSteps => "count_rf_closure_steps",
            Metric::CountRfFallbacks => "count_rf_fallbacks",
            Metric::ExecRetries => "exec_retries",
            Metric::ExecQuarantines => "exec_quarantines",
            Metric::ExecBudgetExpiries => "exec_budget_expiries",
            Metric::StoreIoBoundaries => "store_io_boundaries",
            Metric::StoreJournalAppends => "store_journal_appends",
            Metric::StoreFsyncs => "store_fsyncs",
            Metric::StoreTornFrames => "store_torn_frames",
            Metric::StoreRecoveredItems => "store_recovered_items",
            Metric::StoreTransientRetries => "store_transient_retries",
            Metric::StoreCacheWriteDrops => "store_cache_write_drops",
            Metric::StoreCacheQuarantines => "store_cache_quarantines",
            Metric::ServeSubmissions => "serve_submissions",
            Metric::ServeRejections => "serve_rejections",
            Metric::ServeJobsDone => "serve_jobs_done",
            Metric::ServeItemsStreamed => "serve_items_streamed",
        }
    }

    fn index(self) -> usize {
        Metric::ALL.iter().position(|&m| m == self).unwrap_or(0)
    }
}

/// The closed set of histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Machine cycles per completed run.
    SimRunCycles,
    /// Frames examined per counter invocation.
    CountFramesPerCall,
    /// Wall microseconds per resilient-executor attempt.
    ExecAttemptMicros,
    /// Wall microseconds between consecutive item records of one serve
    /// job (the first record measures from job start) — the per-item
    /// latency a streaming client observes.
    ServeItemMicros,
    /// Wall microseconds per serve job, submission claim to completion.
    ServeJobMicros,
}

/// Number of distinct [`Hist`] variants.
pub const HIST_COUNT: usize = 5;

/// Buckets per histogram: bucket 0 holds zero, bucket `i` holds values
/// with bit-length `i` (`[2^(i-1), 2^i)`), the last bucket saturates.
pub const HIST_BUCKETS: usize = 32;

impl Hist {
    /// Every histogram, in stable declaration order.
    pub const ALL: [Hist; HIST_COUNT] = [
        Hist::SimRunCycles,
        Hist::CountFramesPerCall,
        Hist::ExecAttemptMicros,
        Hist::ServeItemMicros,
        Hist::ServeJobMicros,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SimRunCycles => "sim_run_cycles",
            Hist::CountFramesPerCall => "count_frames_per_call",
            Hist::ExecAttemptMicros => "exec_attempt_micros",
            Hist::ServeItemMicros => "serve_item_micros",
            Hist::ServeJobMicros => "serve_job_micros",
        }
    }

    fn index(self) -> usize {
        Hist::ALL.iter().position(|&h| h == self).unwrap_or(0)
    }
}

/// Maps a value to its power-of-two bucket: 0 → 0, otherwise the value's
/// bit length, saturating at `HIST_BUCKETS - 1`.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (`None` past the last bucket).
pub fn bucket_lower_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        1 => Some(1),
        _ if i < HIST_BUCKETS => Some(1u64 << (i - 1)),
        _ => None,
    }
}

/// One thread's private slice of the registry.
struct Shard {
    counters: [AtomicU64; METRIC_COUNT],
    hists: [[AtomicU64; HIST_BUCKETS]; HIST_COUNT],
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Every cell, counters first, in declaration order.
    fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        self.counters.iter().chain(self.hists.iter().flatten())
    }
}

/// The shards of the live threads, plus the merged counts of every
/// thread that has exited.
struct Registry {
    live: Vec<Arc<Shard>>,
    retired: Shard,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            live: Vec::new(),
            retired: Shard::new(),
        })
    })
}

/// A thread's registered shard. When the thread exits, its counts fold
/// into the retired shard and it leaves the live list, under the same
/// lock [`snapshot`] takes, so totals never change and a process that
/// spawns many short-lived threads keeps a bounded registry.
struct LocalShard(Arc<Shard>);

impl Drop for LocalShard {
    fn drop(&mut self) {
        if let Ok(mut reg) = registry().lock() {
            for (dst, src) in reg.retired.cells().zip(self.0.cells()) {
                dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
        }
    }
}

thread_local! {
    static LOCAL: LocalShard = {
        let shard = Arc::new(Shard::new());
        if let Ok(mut reg) = registry().lock() {
            reg.live.push(Arc::clone(&shard));
        }
        LocalShard(shard)
    };
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime on/off switch (default on). Disabling stops new events from
/// being recorded; already-recorded values stay visible to [`snapshot`].
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Release);
}

/// True if the registry is currently recording events.
pub fn enabled() -> bool {
    !cfg!(feature = "off") && ENABLED.load(Ordering::Acquire)
}

/// Adds `delta` to a counter. Lock-free: one relaxed `fetch_add` on the
/// calling thread's shard. A no-op when disabled or compiled `off`.
pub fn add(metric: Metric, delta: u64) {
    if cfg!(feature = "off") || delta == 0 || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` so late events during thread teardown degrade to no-ops
    // instead of panicking in a destructor.
    let _ = LOCAL.try_with(|shard| {
        shard.0.counters[metric.index()].fetch_add(delta, Ordering::Relaxed);
    });
}

/// Records one observation into a histogram's power-of-two bucket.
pub fn observe(hist: Hist, value: u64) {
    if cfg!(feature = "off") || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = LOCAL.try_with(|shard| {
        shard.0.hists[hist.index()][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    });
}

/// A merged view of every shard at one moment: counters plus histogram
/// buckets, both in stable declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(metric name, merged count)` for every metric (zeros included).
    pub counters: Vec<(&'static str, u64)>,
    /// `(histogram name, merged buckets)` for every histogram.
    pub hists: Vec<(&'static str, Vec<u64>)>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot (the identity for [`MetricsSnapshot::delta_from`]).
    pub fn zero() -> Self {
        Self {
            counters: Metric::ALL.iter().map(|m| (m.name(), 0)).collect(),
            hists: Hist::ALL
                .iter()
                .map(|h| (h.name(), vec![0; HIST_BUCKETS]))
                .collect(),
        }
    }

    /// Looks up a counter by name (0 if unknown).
    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Counters since `base` (saturating): the registry is cumulative per
    /// process, so a run scoped `after.delta_from(&before)` isolates its
    /// own events.
    pub fn delta_from(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(base.get(name))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(name, buckets)| {
                    let base_buckets = base
                        .hists
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, b)| b.as_slice())
                        .unwrap_or(&[]);
                    let merged = buckets
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| v.saturating_sub(base_buckets.get(i).copied().unwrap_or(0)))
                        .collect();
                    (*name, merged)
                })
                .collect(),
        }
    }

    /// Total observations recorded into a histogram (0 if unknown).
    pub fn hist_total(&self, name: &str) -> u64 {
        self.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, b)| b.iter().sum())
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of a histogram from its
    /// power-of-two buckets: the lower bound of the bucket the ranked
    /// observation falls in (a deterministic underestimate, never off by
    /// more than one bucket width). `None` for unknown or empty
    /// histograms.
    pub fn quantile(&self, name: &str, q: f64) -> Option<u64> {
        let (_, buckets) = self.hists.iter().find(|(n, _)| *n == name)?;
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_lower_bound(i);
            }
        }
        None
    }

    /// The snapshot as a stable JSON document:
    /// `{"counters":{...},"hists":{...}}` with every counter and bucket
    /// present (zeros included) in declaration order. Rendered by hand so
    /// this crate stays dependency-free; names are static snake_case
    /// identifiers, so no escaping is needed.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"counters\":{");
        for (i, &(name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{v}");
        }
        s.push_str("},\"hists\":{");
        for (i, (name, buckets)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":[");
            for (b, &c) in buckets.iter().enumerate() {
                if b > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push(']');
        }
        s.push_str("}}");
        s
    }

    /// Human-readable listing of non-zero counters and histograms.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for &(name, v) in &self.counters {
            if v > 0 {
                let _ = writeln!(s, "{name:<26} {v}");
            }
        }
        for (name, buckets) in &self.hists {
            let total: u64 = buckets.iter().sum();
            if total == 0 {
                continue;
            }
            let _ = write!(s, "{name:<26} n={total} [");
            let mut first = true;
            for (i, &c) in buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    let _ = write!(s, " ");
                }
                first = false;
                let lo = bucket_lower_bound(i).unwrap_or(0);
                let _ = write!(s, "{lo}+:{c}");
            }
            let _ = writeln!(s, "]");
        }
        s
    }
}

/// Merges every registered shard into one [`MetricsSnapshot`].
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::zero();
    if cfg!(feature = "off") {
        return snap;
    }
    let reg = match registry().lock() {
        Ok(r) => r,
        Err(_) => return snap,
    };
    for shard in std::iter::once(&reg.retired).chain(reg.live.iter().map(|s| &**s)) {
        for (slot, cell) in snap.counters.iter_mut().zip(shard.counters.iter()) {
            slot.1 += cell.load(Ordering::Relaxed);
        }
        for (slot, cells) in snap.hists.iter_mut().zip(shard.hists.iter()) {
            for (b, cell) in slot.1.iter_mut().zip(cells.iter()) {
                *b += cell.load(Ordering::Relaxed);
            }
        }
    }
    snap
}

// Recording assertions only hold when the subsystem is compiled in.
#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    /// Tests that record events or toggle [`set_enabled`] share the global
    /// registry, so they serialize behind this gate to stay order-free.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn metric_names_are_unique_and_stable() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_COUNT);
        assert_eq!(
            Metric::SimStoreBufferFlushes.name(),
            "sim_store_buffer_flushes"
        );
        assert_eq!(Metric::CountFramesExamined.name(), "count_frames_examined");
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = 0;
        for shift in 0..64 {
            let b = bucket_of(1u64 << shift);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bucket_lower_bounds_partition_the_range() {
        assert_eq!(bucket_lower_bound(0), Some(0));
        assert_eq!(bucket_lower_bound(1), Some(1));
        assert_eq!(bucket_lower_bound(2), Some(2));
        assert_eq!(bucket_lower_bound(3), Some(4));
        assert_eq!(bucket_lower_bound(HIST_BUCKETS), None);
        for i in 1..HIST_BUCKETS {
            let lo = bucket_lower_bound(i).unwrap();
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i} maps back");
        }
    }

    #[test]
    fn add_is_visible_in_snapshot_and_delta_isolates() {
        let _g = gate();
        let before = snapshot();
        add(Metric::CountPartnerHits, 3);
        add(Metric::CountPartnerHits, 4);
        let after = snapshot();
        let delta = after.delta_from(&before);
        // Other tests in this binary may add concurrently, so assert >=.
        assert!(delta.get("count_partner_hits") >= 7);
        assert_eq!(delta.get("no_such_metric"), 0);
    }

    #[test]
    fn exited_threads_keep_their_counts_but_leave_the_registry() {
        let _g = gate();
        let live = || registry().lock().map(|r| r.live.len()).unwrap_or(0);
        let (before, live_before) = (snapshot(), live());
        for _ in 0..16 {
            std::thread::spawn(|| {
                add(Metric::CountPartnerMisses, 2);
                observe(Hist::SimRunCycles, 3);
            })
            .join()
            .unwrap();
        }
        let delta = snapshot().delta_from(&before);
        assert!(delta.get("count_partner_misses") >= 32);
        assert!(live() <= live_before, "exited threads stay registered");
    }

    #[test]
    fn observe_lands_in_the_right_bucket() {
        let _g = gate();
        let before = snapshot();
        observe(Hist::SimRunCycles, 1000); // bit length 10
        let delta = snapshot().delta_from(&before);
        let (_, buckets) = delta
            .hists
            .iter()
            .find(|(n, _)| *n == "sim_run_cycles")
            .unwrap();
        assert!(buckets[bucket_of(1000)] >= 1);
        assert!(delta.hist_total("sim_run_cycles") >= 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = gate();
        let before = snapshot();
        set_enabled(false);
        add(Metric::ExecQuarantines, 50_000);
        observe(Hist::ExecAttemptMicros, 1);
        set_enabled(true);
        let delta = snapshot().delta_from(&before);
        assert_eq!(delta.get("exec_quarantines"), 0);
        assert_eq!(delta.hist_total("exec_attempt_micros"), 0);
    }

    #[test]
    fn shards_merge_across_threads() {
        let _g = gate();
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        add(Metric::SimFaultInjections, 1);
                    }
                });
            }
        });
        let delta = snapshot().delta_from(&before);
        assert!(delta.get("sim_fault_injections") >= 400);
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let mut snap = MetricsSnapshot::zero();
        // 100 observations: 50 in bucket 3 ([4,8)), 49 in bucket 5
        // ([16,32)), 1 in bucket 10 ([512,1024)).
        let hist = snap
            .hists
            .iter_mut()
            .find(|(n, _)| *n == "serve_item_micros")
            .map(|(_, b)| b)
            .unwrap();
        hist[3] = 50;
        hist[5] = 49;
        hist[10] = 1;
        assert_eq!(snap.quantile("serve_item_micros", 0.5), Some(4));
        assert_eq!(snap.quantile("serve_item_micros", 0.99), Some(16));
        assert_eq!(snap.quantile("serve_item_micros", 1.0), Some(512));
        assert_eq!(snap.quantile("serve_item_micros", 0.0), Some(4));
        assert_eq!(snap.quantile("serve_job_micros", 0.5), None, "empty");
        assert_eq!(snap.quantile("no_such_hist", 0.5), None);
    }

    #[test]
    fn render_json_is_complete_and_stable() {
        let snap = MetricsSnapshot::zero();
        let a = snap.render_json();
        let b = snap.render_json();
        assert_eq!(a, b, "byte-stable across calls");
        assert!(a.starts_with("{\"counters\":{"));
        for m in Metric::ALL {
            assert!(a.contains(&format!("\"{}\":", m.name())), "{}", m.name());
        }
        for h in Hist::ALL {
            assert!(a.contains(&format!("\"{}\":[", h.name())), "{}", h.name());
        }
        // Every histogram renders all of its buckets: 1 leading zero after
        // each '[' plus HIST_BUCKETS - 1 comma-separated zeros.
        assert_eq!(a.matches("[0").count(), HIST_COUNT);
        assert_eq!(a.matches(",0").count(), HIST_COUNT * (HIST_BUCKETS - 1));
    }

    #[test]
    fn render_text_lists_nonzero_counters() {
        let _g = gate();
        add(Metric::SimRuns, 1);
        let text = snapshot().render_text();
        assert!(text.contains("sim_runs"));
    }
}
