//! Golden pins for `campaign ls --json` and `campaign show --json`.
//!
//! Both modes promise byte-stable output (jsonout renders compactly in
//! insertion order), so downstream tooling may diff or hash the documents.
//! The store here is built through the library with a fixed `RunMeta`, so
//! every byte except the run's wall-clock timing fields is deterministic;
//! those two fields are normalized to fixed values before comparison.

use perple::campaign::engine::{
    run_campaign, CampaignItem, DurabilityPolicy, ExecOutcome, RunMeta, StageWallMs,
};
use perple::campaign::spec::CampaignSpec;
use perple::campaign::store::OutcomeRecord;
use perple::campaign::{ArtifactCache, Hasher, RunStore, StoreIo};
use perple::jsonout::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GOLDEN_LS: &str = concat!(
    r#"{"schema":1,"runs":[{"id":"golden-0001","name":"golden","created_unix_ms":1700000000000,"#,
    r#""counts":{"items":2,"hits":0,"executed":2,"lost":0,"quarantined":0,"violations":0,"#,
    r#""recovered":0}}],"cache":{"results":2,"convs":0}}"#,
    "\n"
);

// `<fp0>`/`<fp1>` are the items' computed fingerprints; `<zeros>` is a
// 32-bucket all-zero histogram (the stub executor records no samples).
// Everything else — including the obs counter roster and the engine's
// deterministic store IO tallies — is pinned literally.
const GOLDEN_SHOW: &str = concat!(
    r#"{"schema":1,"manifest":{"schema":1,"id":"golden-0001","name":"golden","#,
    r#""created_unix_ms":1700000000000,"git":"golden","spec":"name = golden\ntests = \n"#,
    r#"seeds = 1\niterations = 1000\nworkers = 0\nretries = 0\ntimeout_ms = 0\n"#,
    r#"frame_cap = 1000000\n","counts":{"items":2,"hits":0,"executed":2,"lost":0,"#,
    r#""quarantined":0,"violations":0,"recovered":0},"wall_ms":0,"stage_wall_ms":{},"#,
    r#""metrics":{"counters":{"sim_store_buffer_flushes":0,"sim_preemptions":0,"#,
    r#""sim_micro_preemptions":0,"sim_stalls":0,"sim_scheduler_cycles":0,"#,
    r#""sim_fault_injections":0,"sim_runs":0,"count_frames_examined":0,"#,
    r#""count_partner_hits":0,"count_partner_misses":0,"#,
    r#""count_budget_expiries":0,"count_rf_edges_walked":0,"count_rf_closure_steps":0,"#,
    r#""count_rf_fallbacks":0,"exec_retries":0,"exec_quarantines":0,"#,
    r#""exec_budget_expiries":0,"store_io_boundaries":14,"store_journal_appends":2,"#,
    r#""store_fsyncs":2,"store_torn_frames":0,"store_recovered_items":0,"#,
    r#""store_transient_retries":0,"store_cache_write_drops":0,"#,
    r#""store_cache_quarantines":0,"serve_submissions":0,"serve_rejections":0,"#,
    r#""serve_jobs_done":0,"serve_items_streamed":0},"hists":{"#,
    r#""sim_run_cycles":<zeros>,"count_frames_per_call":<zeros>,"#,
    r#""exec_attempt_micros":<zeros>,"serve_item_micros":<zeros>,"#,
    r#""serve_job_micros":<zeros>}}},"items":[{"test":"sb","seed":1,"#,
    r#""fingerprint":"<fp0>","forbidden":false,"heuristic":7,"exhaustive":7,"#,
    r#""degraded":false,"iterations":100,"run_complete":true,"faults":0,"digest":6,"#,
    r#""quarantined":false,"fault_kind":null},{"test":"mp","seed":2,"#,
    r#""fingerprint":"<fp1>","forbidden":false,"heuristic":7,"exhaustive":7,"#,
    r#""degraded":false,"iterations":100,"run_complete":true,"faults":0,"digest":5,"#,
    r#""quarantined":false,"fault_kind":null}]}"#,
    "\n"
);

fn perple(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perple"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn perple")
}

fn sandbox(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perple-json-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn item(test: &str, seed: u64) -> CampaignItem {
    let mut h = Hasher::new();
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

/// Builds a store whose single run has fully deterministic content.
fn build_golden_store(root: &Path) -> Vec<CampaignItem> {
    let io = StoreIo::unplanned();
    let store = RunStore::open_with(root.to_path_buf(), io.clone()).unwrap();
    let cache = ArtifactCache::open_with(root, io).unwrap();
    let spec = CampaignSpec::named("golden");
    let items = vec![item("sb", 1), item("mp", 2)];
    let meta = RunMeta {
        created_unix_ms: 1_700_000_000_000,
        git: "golden".to_owned(),
        lint: None,
    };
    run_campaign(
        &store,
        &cache,
        &spec,
        &items,
        &meta,
        DurabilityPolicy::default(),
        |batch| batch.iter().map(|i| Some(outcome(i))).collect(),
        |_, _| {},
    )
    .unwrap();
    items
}

/// Zeroes the run's two wall-clock fields; everything else must already
/// be byte-deterministic.
fn normalize_timing(doc: Json) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "wall_ms" => (k, Json::from(0u64)),
                    "stage_wall_ms" => (k, Json::Obj(Vec::new())),
                    _ => (k, normalize_timing(v)),
                })
                .collect(),
        ),
        Json::Arr(xs) => Json::Arr(xs.into_iter().map(normalize_timing).collect()),
        other => other,
    }
}

#[test]
fn ls_and_show_json_are_pinned_byte_for_byte() {
    let dir = sandbox("pin");
    let items = build_golden_store(&dir.join("store"));

    // ls --json: no timing fields — raw bytes must equal the golden.
    let ls = perple(&dir, &["campaign", "ls", "--store", "store", "--json"]);
    assert!(ls.status.success());
    let ls_out = String::from_utf8(ls.stdout).unwrap();
    assert_eq!(ls_out, GOLDEN_LS, "ls --json drifted from golden");

    // Byte-stable across invocations.
    let again = perple(&dir, &["campaign", "ls", "--store", "store", "--json"]);
    assert_eq!(String::from_utf8(again.stdout).unwrap(), ls_out);

    // show --json: normalize the two wall-clock fields, then pin. The
    // expected fingerprints are computed, not guessed — the pin covers
    // the envelope and every record field around them.
    let show = perple(
        &dir,
        &["campaign", "show", "latest", "--store", "store", "--json"],
    );
    assert!(show.status.success());
    let show_out = String::from_utf8(show.stdout).unwrap();
    let normalized = format!(
        "{}\n",
        normalize_timing(perple::jsonout::parse(show_out.trim()).unwrap()).render()
    );
    let zeros = format!("[{}]", vec!["0"; 32].join(","));
    let expected = GOLDEN_SHOW
        .replace("<zeros>", &zeros)
        .replace("<fp0>", &items[0].fingerprint.hex())
        .replace("<fp1>", &items[1].fingerprint.hex());
    assert_eq!(normalized, expected, "show --json drifted from golden");

    // And byte-stable across invocations, timing aside.
    let again = perple(
        &dir,
        &["campaign", "show", "latest", "--store", "store", "--json"],
    );
    let again_out = String::from_utf8(again.stdout).unwrap();
    assert_eq!(
        format!(
            "{}\n",
            normalize_timing(perple::jsonout::parse(again_out.trim()).unwrap()).render()
        ),
        expected
    );

    let _ = std::fs::remove_dir_all(dir);
}
