//! End-to-end tests of `perple serve` as a real subprocess: streamed
//! submissions must match batch `campaign run` byte-for-byte, a warm
//! resubmission must do zero execution, SIGTERM must drain to an
//! fsck-clean store, and a server booted over a crash-interrupted store
//! must auto-resume the pending run without re-executing journaled items.

use perple::campaign::RunStore;
use perple::jsonout::Json;
use perple::serve::client::{self, Target};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// How long a SIGTERM'd server may take to drain before the test kills
/// it and fails (a lost accept wake would otherwise hang the test).
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);

fn perple_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_perple"))
}

fn perple(dir: &Path, args: &[&str]) -> Output {
    perple_cmd()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn perple")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn sandbox(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perple-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke_spec() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/smoke.campaign");
    std::fs::read_to_string(path).expect("examples/smoke.campaign")
}

/// A running `perple serve` subprocess with its boot banner consumed.
struct ServeProc {
    child: Child,
    reader: BufReader<ChildStdout>,
    /// Lines printed before `listening on` (the auto-resume report).
    boot_lines: Vec<String>,
    addr: String,
}

impl ServeProc {
    /// Boots `perple serve --addr 127.0.0.1:0` on `store` and waits for
    /// the `listening on HOST:PORT` banner.
    fn boot(dir: &Path, store: &str, workers: &str) -> ServeProc {
        let mut child = perple_cmd()
            .current_dir(dir)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                store,
                "--workers",
                workers,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn perple serve");
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        let mut boot_lines = Vec::new();
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read serve stdout") == 0 {
                let out = child.wait_with_output().unwrap();
                panic!("serve exited before listening: {}", stderr(&out));
            }
            let line = line.trim().to_string();
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.to_string();
            }
            boot_lines.push(line);
        };
        ServeProc {
            child,
            reader,
            boot_lines,
            addr,
        }
    }

    fn target(&self) -> Target {
        Target::Tcp(self.addr.clone())
    }

    /// SIGTERM, then waits (at most [`DRAIN_DEADLINE`]) for a clean exit
    /// and returns the lines printed after the banner.
    fn terminate(mut self) -> Vec<String> {
        let pid = self.child.id().to_string();
        let kill = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("send SIGTERM");
        assert!(kill.success());
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("wait for serve") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = Command::new("kill").args(["-9", &pid]).status();
                let _ = self.child.wait();
                panic!("serve did not drain within {DRAIN_DEADLINE:?} of SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "serve must exit 0 on SIGTERM drain");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.reader, &mut rest).unwrap();
        rest.lines().map(str::to_string).collect()
    }
}

/// Splits a `wait=1` submission body into (record lines, summary doc).
fn split_stream(lines: &[String]) -> (Vec<String>, Json) {
    let (last, records) = lines.split_last().expect("non-empty stream");
    let tail = perple::jsonout::parse(last).expect("summary line parses");
    (records.to_vec(), tail)
}

fn summary_count(tail: &Json, key: &str) -> u64 {
    tail.get("summary")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("summary lacks {key}: {}", tail.render()))
}

fn assert_fsck_clean(dir: &Path, store: &str) {
    let fsck = perple(dir, &["campaign", "fsck", "--store", store]);
    assert!(
        fsck.status.success(),
        "fsck found repairs: {}{}",
        stdout(&fsck),
        stderr(&fsck)
    );
    let pending = RunStore::open(dir.join(store)).unwrap().pending_runs();
    assert!(pending.is_empty(), "pending markers left: {pending:?}");
}

#[test]
fn streamed_submission_matches_batch_run_and_sigterm_drains_clean() {
    let dir = sandbox("equiv");
    let spec = smoke_spec();
    std::fs::write(dir.join("smoke.campaign"), &spec).unwrap();

    // Batch reference in its own store.
    let batch = perple(
        &dir,
        &["campaign", "run", "smoke.campaign", "--store", "batch"],
    );
    assert!(batch.status.success(), "{}", stderr(&batch));
    let batch_store = RunStore::open(dir.join("batch")).unwrap();
    let batch_id = batch_store.resolve("latest").unwrap();
    let batch_records: Vec<String> = batch_store
        .load_items(&batch_id)
        .unwrap()
        .iter()
        .map(|r| r.to_json().render())
        .collect();

    let serve = ServeProc::boot(&dir, "served", "2");
    assert!(serve.boot_lines.is_empty(), "{:?}", serve.boot_lines);

    // Cold submission: streamed record lines must equal the batch run's
    // items.json records byte-for-byte, in slot order.
    let out = client::submit(&serve.target(), &spec, "eq", true, None).unwrap();
    assert_eq!(out.status, 200);
    let (records, tail) = split_stream(&out.lines);
    assert_eq!(records, batch_records, "stream/batch divergence");
    assert_eq!(summary_count(&tail, "executed"), 4);
    assert_eq!(summary_count(&tail, "hits"), 0);

    // Warm resubmission through the `perple client` CLI: all hits, zero
    // execution, identical record bytes again.
    let warm = perple(
        &dir,
        &[
            "client",
            "submit",
            "smoke.campaign",
            "--addr",
            &serve.addr,
            "--client",
            "warm",
        ],
    );
    assert!(warm.status.success(), "{}", stderr(&warm));
    let warm_lines: Vec<String> = stdout(&warm).lines().map(str::to_string).collect();
    let (warm_records, warm_tail) = split_stream(&warm_lines);
    assert_eq!(warm_records, batch_records, "warm stream diverged");
    assert_eq!(summary_count(&warm_tail, "hits"), 4);
    assert_eq!(summary_count(&warm_tail, "executed"), 0);

    // The metrics endpoint reports the queue and the shared cache.
    let metrics = perple(&dir, &["client", "metrics", "--addr", &serve.addr]);
    assert!(metrics.status.success(), "{}", stderr(&metrics));
    let m = perple::jsonout::parse(stdout(&metrics).trim()).unwrap();
    assert_eq!(
        m.get("queue")
            .and_then(|q| q.get("finished"))
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        m.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64),
        Some(4)
    );
    assert_eq!(
        m.get("cache")
            .and_then(|c| c.get("hit_rate_permille"))
            .and_then(Json::as_u64),
        Some(500)
    );
    assert!(
        m.get("latency_us")
            .and_then(|l| l.get("item_p99"))
            .and_then(Json::as_u64)
            .is_some(),
        "{}",
        m.render()
    );

    // Graceful drain: exit 0, drain banner, fsck-clean store.
    let tail_lines = serve.terminate();
    assert!(
        tail_lines.iter().any(|l| l == "drained cleanly"),
        "{tail_lines:?}"
    );
    assert_fsck_clean(&dir, "served");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn server_boot_resumes_a_crash_interrupted_store() {
    let dir = sandbox("resume");
    let spec = smoke_spec();
    std::fs::write(dir.join("smoke.campaign"), &spec).unwrap();

    // Simulate a SIGKILL'd predecessor: an injected abort at an IO
    // boundary inside the journaled execution region leaves a pending
    // marker plus journal frames, exactly what a killed server leaves.
    let crashed = perple(
        &dir,
        &[
            "campaign",
            "run",
            "smoke.campaign",
            "--store",
            "store",
            "--crash",
            "abort@20",
        ],
    );
    assert!(
        !crashed.status.success(),
        "injected crash must kill the run"
    );
    let pending = RunStore::open(dir.join("store")).unwrap().pending_runs();
    assert_eq!(pending.len(), 1, "crash must leave a pending run");

    // A server booted over that store resumes before accepting work and
    // reports journaled items it recovered without re-execution.
    let serve = ServeProc::boot(&dir, "store", "2");
    assert_eq!(serve.boot_lines.len(), 1, "{:?}", serve.boot_lines);
    let resumed = &serve.boot_lines[0];
    assert!(
        resumed.starts_with(&format!("resumed {}: recovered=", pending[0])),
        "{resumed}"
    );
    let recovered: u64 = resumed.rsplit('=').next().unwrap().parse().unwrap();
    assert!(
        recovered > 0,
        "journal replay must recover items: {resumed}"
    );

    // The resumed run is live: a warm submission of the same spec is
    // pure cache hits.
    let out = client::submit(&serve.target(), &spec, "after", true, None).unwrap();
    assert_eq!(out.status, 200);
    let (_, tail) = split_stream(&out.lines);
    assert_eq!(summary_count(&tail, "hits"), 4);
    assert_eq!(summary_count(&tail, "executed"), 0);

    serve.terminate();
    assert_fsck_clean(&dir, "store");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sigterm_drains_a_server_that_never_accepted() {
    let dir = sandbox("idle");
    let serve = ServeProc::boot(&dir, "store", "1");
    // Give serve() time to block in accept, so the signal must wake it.
    std::thread::sleep(Duration::from_millis(100));
    let tail_lines = serve.terminate();
    assert_eq!(tail_lines, ["drained cleanly"]);
    assert_fsck_clean(&dir, "store");

    let _ = std::fs::remove_dir_all(dir);
}
