//! Quota accounting under the degraded cache-write path.
//!
//! When a transient IO fault outlives the engine's bounded-backoff
//! retries at a cache-write boundary, the item degrades to uncached
//! execution (`store_cache_write_drops`) instead of failing the run.
//! The queue's in-flight ledger must decrement exactly once for such a
//! job — the degraded path, the error path, and any overzealous cleanup
//! all converge on [`JobQueue::finish`], whose atomic guard makes the
//! decrement idempotent. This sweeps `transient@k` over every IO
//! boundary of a small campaign and checks the ledger at each k.

use perple_campaign::engine::{
    run_campaign, CampaignItem, DurabilityPolicy, ExecOutcome, RunMeta, StageWallMs,
};
use perple_campaign::io::{CrashPlan, StoreIo};
use perple_campaign::spec::CampaignSpec;
use perple_campaign::store::OutcomeRecord;
use perple_campaign::{ArtifactCache, RunStore};
use perple_serve::queue::JobQueue;
use std::fs;
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perple-serve-quota-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn item(test: &str, seed: u64) -> CampaignItem {
    let mut h = perple_campaign::Hasher::new();
    h.field("test", test).field_u64("seed", seed);
    CampaignItem {
        test: test.to_owned(),
        seed,
        fingerprint: h.finish(),
    }
}

fn outcome(it: &CampaignItem) -> ExecOutcome {
    ExecOutcome {
        record: OutcomeRecord {
            test: it.test.clone(),
            seed: it.seed,
            fingerprint: it.fingerprint.hex(),
            forbidden: false,
            model: None,
            heuristic: 7,
            exhaustive: 7,
            degraded: false,
            iterations: 100,
            run_complete: true,
            faults: 0,
            digest: it.seed ^ 7,
            quarantined: false,
            fault_kind: None,
        },
        cacheable: true,
        wall: StageWallMs::default(),
    }
}

fn meta() -> RunMeta {
    RunMeta {
        created_unix_ms: 1,
        git: "test".to_owned(),
        lint: None,
    }
}

/// Runs the fixed two-item campaign against a fresh store through `io`,
/// returning the engine result (Ok = completed, possibly degraded).
fn run_once(root: &PathBuf, io: StoreIo) -> Result<(), String> {
    let store = RunStore::open_with(root.clone(), io.clone()).map_err(|e| e.to_string())?;
    let cache = ArtifactCache::open_with(root, io).map_err(|e| e.to_string())?;
    let spec = CampaignSpec::named("quota-sweep");
    let items = vec![item("sb", 1), item("mp", 1)];
    run_campaign(
        &store,
        &cache,
        &spec,
        &items,
        &meta(),
        DurabilityPolicy::default(),
        |batch| batch.iter().map(|i| Some(outcome(i))).collect(),
        |_, _| {},
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

#[test]
fn degraded_cache_write_still_decrements_in_flight_exactly_once() {
    perple_obs::metrics::set_enabled(true);

    // Probe pass: count the IO boundaries of the campaign so the sweep
    // covers every one of them.
    let probe_root = tmp_root("probe");
    let probe_io = StoreIo::unplanned();
    run_once(&probe_root, probe_io.clone()).unwrap();
    let boundaries = probe_io.boundaries();
    assert!(
        boundaries > 4,
        "campaign exercised only {boundaries} IO ops"
    );
    let _ = fs::remove_dir_all(&probe_root);

    let mut degraded_ks = 0u64;
    for k in 0..boundaries {
        let root = tmp_root(&format!("k{k}"));
        let queue = JobQueue::new(16, 1);
        let job = queue.submit("sweeper", "quota-sweep".into()).unwrap();
        let claimed = queue.claim().unwrap();
        assert_eq!(claimed.id, job.id);
        // While the job runs, the client's quota of 1 is exhausted.
        assert!(queue.submit("sweeper", "again".into()).is_err());

        // 4 consecutive failures beat the engine's 3 bounded retries, so
        // boundary k genuinely fails; non-crash failures at cache-write
        // boundaries degrade, others surface as storage errors.
        let before = perple_obs::metrics::snapshot();
        let result = run_once(&root, StoreIo::new(CrashPlan::transient_at(k, 4)));
        let delta = perple_obs::metrics::snapshot().delta_from(&before);
        if result.is_ok() && delta.get("store_cache_write_drops") > 0 {
            degraded_ks += 1;
        }

        // Worker convergence: success, degraded success, and failure
        // paths all settle the job once; a second settle is inert.
        assert!(queue.finish(&claimed), "first finish must account");
        assert!(
            !queue.finish(&claimed),
            "k={k}: double finish must be inert"
        );
        let s = queue.stats();
        assert_eq!(
            (s.queued, s.running, s.clients),
            (0, 0, 0),
            "k={k}: ledger not clean after finish (result={result:?})"
        );
        // The quota slot is actually free again.
        queue
            .submit("sweeper", "after".into())
            .unwrap_or_else(|e| panic!("k={k}: quota still held after finish: {e:?}"));
        let _ = fs::remove_dir_all(&root);
    }
    assert!(
        degraded_ks > 0,
        "sweep never hit the degraded cache-write path ({boundaries} boundaries)"
    );
}
