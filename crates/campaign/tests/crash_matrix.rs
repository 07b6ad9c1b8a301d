//! The self-injected crash-point matrix — the tentpole proof of the
//! durability layer.
//!
//! A reference campaign runs uninterrupted while its [`StoreIo`] shim
//! counts write boundaries (every atomic write, append, fsync, mkdir,
//! remove, truncate, and rename of the store, cache, and journal). The
//! matrix then replays the same campaign once **per boundary k**, with
//! `abort@k` simulating `SIGKILL` at exactly that write: the run dies, a
//! fresh (new-process) store handle runs `fsck --repair`, and either
//! `resume` finishes the interrupted run or — when the crash landed before
//! any durable state — a fresh run executes from scratch. In every case
//! the final `items.json` must be **byte-identical** to the reference, and
//! no journaled item may ever execute twice.
//!
//! A second leg crashes the **resume**: from a first crash that left a
//! journaled item behind, it aborts an otherwise unplanned resume at each
//! of its boundaries j, repairs, and resumes again, under the same two
//! requirements.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use perple_campaign::{
    fsck, resume_campaign, run_campaign, ArtifactCache, CampaignError, CampaignItem, CampaignSpec,
    CrashPlan, DurabilityPolicy, ExecOutcome, FsyncPolicy, Hasher, Journal, LintSummary,
    OutcomeRecord, PendingRun, RunMeta, RunStore, RunSummary, StageWallMs, StoreIo,
};

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perple-crash-matrix-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("cm");
    spec.tests = vec!["sb".to_owned(), "mp".to_owned()];
    spec.seeds = vec![1, 2, 3];
    spec
}

fn items() -> Vec<CampaignItem> {
    let mut out = Vec::new();
    for test in ["sb", "mp"] {
        for seed in [1u64, 2, 3] {
            let mut h = Hasher::new();
            h.field("test", test).field_u64("seed", seed);
            out.push(CampaignItem {
                test: test.to_owned(),
                seed,
                fingerprint: h.finish(),
            });
        }
    }
    out
}

fn meta() -> RunMeta {
    RunMeta {
        created_unix_ms: 77,
        git: "matrix".to_owned(),
        lint: Some(LintSummary {
            errors: 0,
            warnings: 1,
            notes: 0,
        }),
    }
}

fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        chunk: 2,
        fsync: FsyncPolicy::Batch,
    }
}

/// A deterministic executor that also counts how many times each item ran
/// (the zero-re-execution proof reads these counts).
fn exec_counting(
    counts: &Mutex<HashMap<(String, u64), usize>>,
) -> impl FnMut(&[CampaignItem]) -> Vec<Option<ExecOutcome>> + '_ {
    move |batch| {
        let mut counts = counts.lock().unwrap();
        batch
            .iter()
            .map(|i| {
                *counts.entry((i.test.clone(), i.seed)).or_insert(0) += 1;
                Some(ExecOutcome {
                    record: OutcomeRecord {
                        test: i.test.clone(),
                        seed: i.seed,
                        fingerprint: i.fingerprint.hex(),
                        forbidden: i.test == "sb",
                        model: None,
                        heuristic: i.seed * 7,
                        exhaustive: i.seed * 7,
                        degraded: false,
                        iterations: 64,
                        run_complete: true,
                        faults: 0,
                        digest: i.seed ^ 0xC0DE,
                        quarantined: false,
                        fault_kind: None,
                    },
                    cacheable: true,
                    wall: StageWallMs::default(),
                })
            })
            .collect()
    }
}

/// The finalized run under `root` (there must be exactly one).
fn sole_run_items(root: &Path) -> Vec<u8> {
    let store = RunStore::open(root).unwrap();
    let runs = store.list().unwrap();
    assert_eq!(runs.len(), 1, "exactly one finalized run expected");
    let id = runs[0]
        .get("id")
        .and_then(perple_analysis::jsonout::Json::as_str)
        .unwrap()
        .to_owned();
    fs::read(store.run_dir(&id).join("items.json")).unwrap()
}

#[test]
fn every_crash_boundary_recovers_bit_identically_with_zero_reexecution() {
    let base = tmp_root("matrix");

    // Reference: uninterrupted run, counting boundaries.
    let ref_root = base.join("ref");
    let ref_io = StoreIo::unplanned();
    {
        let store = RunStore::open_with(&ref_root, ref_io.clone()).unwrap();
        let cache = ArtifactCache::open_with(&ref_root, ref_io.clone()).unwrap();
        let counts = Mutex::new(HashMap::new());
        let summary = run_campaign(
            &store,
            &cache,
            &spec(),
            &items(),
            &meta(),
            policy(),
            exec_counting(&counts),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.executed, 6);
        assert_eq!(summary.recovered, 0);
    }
    let total = ref_io.boundaries();
    assert_eq!(
        total, 38,
        "the reference campaign's write boundaries (EXPERIMENTS, Crash safety)"
    );
    let reference = sole_run_items(&ref_root);

    for k in 0..total {
        let root = base.join(format!("k{k}"));
        let counts = Mutex::new(HashMap::new());

        // Crash at boundary k. The run must die (every boundary is
        // pre-finalize-completion work for this single-run store).
        let io = StoreIo::new(CrashPlan::abort_at(k));
        {
            let store = RunStore::open_with(&root, io.clone()).unwrap();
            let cache = ArtifactCache::open_with(&root, io.clone()).unwrap();
            let result = run_campaign(
                &store,
                &cache,
                &spec(),
                &items(),
                &meta(),
                policy(),
                exec_counting(&counts),
                |_, _| {},
            );
            match result {
                Err(e) => assert!(e.is_crash(), "k={k}: {e}"),
                // The final index append is the last boundary; an abort
                // *after* every store write would not fire. All earlier
                // ks must fail.
                Ok(_) => panic!("k={k}: abort point never fired"),
            }
        }

        // New process: unplanned handles, fsck --repair, then resume or
        // re-run.
        let store = RunStore::open(&root).unwrap();
        let cache = ArtifactCache::open(&root).unwrap();
        let report = fsck(&store, &cache, true).unwrap();
        assert!(
            report.is_healthy(),
            "k={k}: fsck must repair everything: {:?}",
            report.findings
        );

        let pending = store.pending_runs();
        let journaled: Vec<(String, u64)> = match pending.as_slice() {
            [id] => Journal::replay(&store.journal_path(id))
                .unwrap()
                .records
                .iter()
                .map(|r| (r.test.clone(), r.seed))
                .collect(),
            _ => Vec::new(),
        };

        match pending.as_slice() {
            [id] => {
                let summary = resume_campaign(
                    &store,
                    &cache,
                    &PendingRun::load(&store, id).unwrap(),
                    &items(),
                    policy(),
                    exec_counting(&counts),
                    |_, _| {},
                )
                .unwrap();
                assert_eq!(summary.recovered, journaled.len(), "k={k}");
            }
            [] if !store.list().unwrap().is_empty() => {
                // The crash hit at/after finalize (e.g. the marker removal
                // or index append): fsck already completed the run.
            }
            [] => {
                // The crash landed before any resumable state: run fresh.
                run_campaign(
                    &store,
                    &cache,
                    &spec(),
                    &items(),
                    &meta(),
                    policy(),
                    exec_counting(&counts),
                    |_, _| {},
                )
                .unwrap();
            }
            many => panic!("k={k}: more than one pending run: {many:?}"),
        }

        // Bit-identity with the uninterrupted reference.
        let recovered = sole_run_items(&root);
        assert_eq!(
            recovered, reference,
            "k={k}: items.json differs from the uninterrupted run"
        );

        // Zero re-execution: every journaled item ran exactly once across
        // crash + resume (resume served it from the replay, not the
        // executor).
        let counts = counts.lock().unwrap();
        for key in &journaled {
            assert_eq!(
                counts.get(key),
                Some(&1),
                "k={k}: journaled item {key:?} was re-executed"
            );
        }
        // And nothing ran more than twice even in the re-run case (once
        // before the crash, at most once after).
        for (key, n) in counts.iter() {
            assert!(*n <= 2, "k={k}: item {key:?} executed {n} times");
        }
    }
    let _ = fs::remove_dir_all(base);
}

#[test]
fn transient_failures_at_every_boundary_are_absorbed() {
    let base = tmp_root("transient");
    let ref_root = base.join("ref");
    let ref_io = StoreIo::unplanned();
    {
        let store = RunStore::open_with(&ref_root, ref_io.clone()).unwrap();
        let cache = ArtifactCache::open_with(&ref_root, ref_io.clone()).unwrap();
        let counts = Mutex::new(HashMap::new());
        run_campaign(
            &store,
            &cache,
            &spec(),
            &items(),
            &meta(),
            policy(),
            exec_counting(&counts),
            |_, _| {},
        )
        .unwrap();
    }
    let total = ref_io.boundaries();
    let reference = sole_run_items(&ref_root);

    // One flaky-filesystem failure at each boundary: the retry loop must
    // absorb every single one with no behavioural difference at all.
    for k in 0..total {
        let root = base.join(format!("k{k}"));
        let io = StoreIo::new(CrashPlan::transient_at(k, 1));
        let store = RunStore::open_with(&root, io.clone()).unwrap();
        let cache = ArtifactCache::open_with(&root, io.clone()).unwrap();
        let counts = Mutex::new(HashMap::new());
        let summary = run_campaign(
            &store,
            &cache,
            &spec(),
            &items(),
            &meta(),
            policy(),
            exec_counting(&counts),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(summary.executed, 6, "k={k}");
        assert_eq!(sole_run_items(&root), reference, "k={k}");
    }
    let _ = fs::remove_dir_all(base);
}

#[test]
fn empty_crash_plan_is_byte_identical_to_an_unshimmed_store() {
    let base = tmp_root("noplan");
    let plain_root = base.join("plain");
    let shimmed_root = base.join("shimmed");

    for (root, io) in [
        (&plain_root, StoreIo::unplanned()),
        (&shimmed_root, StoreIo::new(CrashPlan::none())),
    ] {
        let store = RunStore::open_with(root, io.clone()).unwrap();
        let cache = ArtifactCache::open_with(root, io.clone()).unwrap();
        let counts = Mutex::new(HashMap::new());
        run_campaign(
            &store,
            &cache,
            &spec(),
            &items(),
            &meta(),
            policy(),
            exec_counting(&counts),
            |_, _| {},
        )
        .unwrap();
    }
    assert_eq!(
        sole_run_items(&plain_root),
        sole_run_items(&shimmed_root),
        "an empty plan must not perturb a single byte of items.json"
    );
    // The whole deterministic surface matches: item files and the index
    // line structure (manifests differ only in wall-clock fields).
    let plain = RunStore::open(&plain_root).unwrap();
    let shimmed = RunStore::open(&shimmed_root).unwrap();
    assert_eq!(plain.list().unwrap().len(), shimmed.list().unwrap().len());
    let _ = fs::remove_dir_all(base);
}

type ExecCounts = Mutex<HashMap<(String, u64), usize>>;

/// Runs the campaign fresh against `root`, every write crossing `io`.
fn run_fresh(root: &Path, io: &StoreIo, counts: &ExecCounts) -> Result<RunSummary, CampaignError> {
    let store = RunStore::open_with(root, io.clone()).unwrap();
    let cache = ArtifactCache::open_with(root, io.clone()).unwrap();
    let exec = exec_counting(counts);
    run_campaign(
        &store,
        &cache,
        &spec(),
        &items(),
        &meta(),
        policy(),
        exec,
        |_, _| {},
    )
}

/// Resumes the sole pending run under `root`, every write crossing `io`.
fn resume_pending(
    root: &Path,
    io: &StoreIo,
    counts: &ExecCounts,
) -> Result<RunSummary, CampaignError> {
    let store = RunStore::open_with(root, io.clone()).unwrap();
    let cache = ArtifactCache::open_with(root, io.clone()).unwrap();
    let pending = store.pending_runs();
    let [id] = pending.as_slice() else {
        panic!("one pending run expected, found {pending:?}");
    };
    let exec = exec_counting(counts);
    resume_campaign(
        &store,
        &cache,
        &PendingRun::load(&store, id)?,
        &items(),
        policy(),
        exec,
        |_, _| {},
    )
}

/// `fsck --repair` from a new process; the store must come out healthy.
fn repair(root: &Path) -> RunStore {
    let store = RunStore::open(root).unwrap();
    let cache = ArtifactCache::open(root).unwrap();
    let report = fsck(&store, &cache, true).unwrap();
    assert!(
        report.is_healthy(),
        "fsck must repair everything: {:?}",
        report.findings
    );
    store
}

/// The `(test, seed)` keys journaled for the sole pending run, if any.
fn journaled_keys(store: &RunStore) -> Vec<(String, u64)> {
    match store.pending_runs().as_slice() {
        [id] => Journal::replay(&store.journal_path(id))
            .unwrap()
            .records
            .iter()
            .map(|r| (r.test.clone(), r.seed))
            .collect(),
        _ => Vec::new(),
    }
}

/// A fresh store under `root` whose first run died at boundary `k` and
/// was then repaired.
fn crashed_at(root: &Path, k: u64, counts: &ExecCounts) -> RunStore {
    let _ = fs::remove_dir_all(root);
    let err = run_fresh(root, &StoreIo::new(CrashPlan::abort_at(k)), counts)
        .expect_err("the first run must die");
    assert!(err.is_crash(), "k={k}: {err}");
    repair(root)
}

#[test]
fn every_crash_boundary_of_a_resume_recovers_bit_identically_with_zero_reexecution() {
    let base = tmp_root("resume-matrix");
    let ref_root = base.join("ref");
    run_fresh(&ref_root, &StoreIo::unplanned(), &Mutex::default()).unwrap();
    let reference = sole_run_items(&ref_root);

    // The start state: the earliest first-run crash that leaves a
    // journaled item behind, so every resume below has a replay to serve
    // and a remainder to execute.
    let first = base.join("first");
    let k0 = (0..38)
        .find(|&k| !journaled_keys(&crashed_at(&first, k, &Mutex::default())).is_empty())
        .expect("some first-run crash leaves a journaled item");

    // Boundaries an unplanned resume of that state crosses.
    let probe = base.join("probe");
    crashed_at(&probe, k0, &Mutex::default());
    let probe_io = StoreIo::unplanned();
    resume_pending(&probe, &probe_io, &Mutex::default()).unwrap();
    let total = probe_io.boundaries();
    assert_eq!(sole_run_items(&probe), reference);

    for j in 0..total {
        let root = base.join(format!("j{j}"));
        let (first_run, crashed_resume, last_resume) = Default::default();
        let before = journaled_keys(&crashed_at(&root, k0, &first_run));
        let err = resume_pending(
            &root,
            &StoreIo::new(CrashPlan::abort_at(j)),
            &crashed_resume,
        )
        .expect_err("every boundary of the resume is an abort point");
        assert!(err.is_crash(), "j={j}: {err}");

        let store = repair(&root);
        let journaled = journaled_keys(&store);
        match store.pending_runs().as_slice() {
            [_] => {
                let summary = resume_pending(&root, &StoreIo::unplanned(), &last_resume).unwrap();
                assert_eq!(summary.recovered, journaled.len(), "j={j}");
            }
            // The crash hit finalize after the manifest landed: fsck
            // already completed the run.
            [] => assert!(!store.list().unwrap().is_empty(), "j={j}: run lost"),
            many => panic!("j={j}: more than one pending run: {many:?}"),
        }

        assert_eq!(
            sole_run_items(&root),
            reference,
            "j={j}: items.json differs from the uninterrupted run"
        );
        // Zero re-execution: no resume executes an item journaled before
        // it started, and no process executes an item twice.
        let ran = |counts: &ExecCounts, key| counts.lock().unwrap().get(key).copied();
        for key in &before {
            assert_eq!(
                ran(&crashed_resume, key),
                None,
                "j={j}: {key:?} re-executed"
            );
        }
        for key in &journaled {
            assert_eq!(ran(&last_resume, key), None, "j={j}: {key:?} re-executed");
        }
        for counts in [first_run, crashed_resume, last_resume] {
            for (key, n) in counts.into_inner().unwrap() {
                assert_eq!(n, 1, "j={j}: {key:?} executed {n} times in one process");
            }
        }
    }
    let _ = fs::remove_dir_all(base);
}
