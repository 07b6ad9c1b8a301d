//! End-to-end HTTP tests against an in-process server with a stub
//! [`SpecRunner`]: streaming order, backpressure, drain semantics, and
//! a sustained-load run. The real engine-backed equivalence tests live
//! in the `perple` crate (which owns the engine glue); here the runner
//! is synthetic so the protocol and queue behavior are isolated.

use perple_serve::server::{Bind, Server, ServerConfig};
use perple_serve::{client, SpecRunner};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A gate the blocking stub parks on until the test opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn wait(&self) {
        let mut g = self.open.lock().unwrap();
        while !*g {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Emits three records out of slot order (2, 0, 1) so the server's
/// reorder buffer is what produces the ordered stream; optionally parks
/// on a gate first (for backpressure tests).
struct StubRunner {
    gate: Option<Arc<Gate>>,
}

impl SpecRunner for StubRunner {
    fn run(
        &self,
        spec: &str,
        _store_root: &Path,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        if spec.contains("explode") {
            return Err("synthetic runner failure".into());
        }
        on_record(2, Some("{\"seed\":3}".into()));
        on_record(0, Some("{\"seed\":1}".into()));
        on_record(1, Some("{\"seed\":2}".into()));
        Ok("{\"items\":3,\"hits\":1,\"executed\":2,\"lost\":0}".into())
    }

    fn resume(
        &self,
        _store_root: &Path,
        id: &str,
        _on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        Err(format!("stub cannot resume {id}"))
    }

    fn pending(&self, _store_root: &Path) -> Result<Vec<String>, String> {
        Ok(Vec::new())
    }
}

fn boot(
    bind: Bind,
    workers: usize,
    capacity: usize,
    quota: usize,
    gate: Option<Arc<Gate>>,
) -> (
    client::Target,
    perple_serve::server::ShutdownHandle,
    std::thread::JoinHandle<Result<(), perple_serve::ServeError>>,
) {
    let mut config = ServerConfig::new(bind, workers, PathBuf::from("/nonexistent-store"));
    config.queue_capacity = capacity;
    config.per_client_quota = quota;
    let server = Server::bind(config, Arc::new(StubRunner { gate })).unwrap();
    let target = match server.local_addr() {
        s if s.contains(':') => client::Target::Tcp(s.to_string()),
        s => client::Target::Unix(PathBuf::from(s)),
    };
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.serve());
    (target, handle, join)
}

/// Waits for `serve()` to return, failing (instead of hanging) when a
/// drain trigger's wake is lost and `accept` stays blocked.
fn join_within(
    join: std::thread::JoinHandle<Result<(), perple_serve::ServeError>>,
    secs: u64,
) -> Result<(), perple_serve::ServeError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(join.join().unwrap());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("serve() did not return after shutdown: the accept wake was lost")
}

fn stats_field(target: &client::Target, field: &str) -> u64 {
    let out = client::get(target, "/stats").unwrap();
    let v = perple_analysis::jsonout::parse(&out.lines[0]).unwrap();
    v.get("queue")
        .and_then(|q| q.get(field))
        .and_then(perple_analysis::jsonout::Json::as_u64)
        .unwrap_or(0)
}

fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn tcp_submit_streams_reordered_records_then_summary() {
    let (target, handle, join) = boot(Bind::Tcp("127.0.0.1:0".into()), 2, 8, 8, None);
    let mut streamed = Vec::new();
    let out = client::submit(
        &target,
        "name=x\n",
        "t1",
        true,
        Some(&mut |l: &str| streamed.push(l.to_string())),
    )
    .unwrap();
    assert_eq!(out.status, 200);
    // Stub emitted slots 2,0,1; the stream must be slot-ordered.
    assert_eq!(
        streamed[..3],
        ["{\"seed\":1}", "{\"seed\":2}", "{\"seed\":3}"]
    );
    assert!(streamed[3].starts_with("{\"job\":\"job-1\",\"summary\":{\"items\":3"));
    // Streamed lines are not kept a second time.
    assert!(out.lines.is_empty());

    // Status endpoint sees the retained completed job.
    let st = client::get(&target, "/jobs/job-1").unwrap();
    assert_eq!(st.status, 200);
    assert!(st.lines[0].contains("\"state\":\"done\""));
    assert!(client::get(&target, "/jobs/job-999").unwrap().status == 404);

    // Metrics aggregate the summary counters.
    let m = client::get(&target, "/metrics").unwrap();
    let v = perple_analysis::jsonout::parse(&m.lines[0]).unwrap();
    let cache = v.get("cache").unwrap();
    assert_eq!(cache.get("items").unwrap().as_u64(), Some(3));
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("hit_rate_permille").unwrap().as_u64(), Some(333));
    assert!(v.get("latency_us").unwrap().get("item_p50").is_some());
    assert!(v.get("metrics").unwrap().get("counters").is_some());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn unix_socket_roundtrip_and_failure_line() {
    let dir = std::env::temp_dir().join(format!("perple-serve-ux-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("perple.sock");
    let (target, handle, join) = boot(Bind::Unix(sock.clone()), 1, 8, 8, None);
    let ok = client::submit(&target, "name=x\n", "u1", true, None).unwrap();
    assert_eq!(ok.status, 200);
    let bad = client::submit(&target, "explode\n", "u1", true, None).unwrap();
    assert_eq!(bad.status, 200); // stream started before the job failed
    assert!(bad
        .lines
        .last()
        .unwrap()
        .contains("\"error\":\"synthetic runner failure\""));
    handle.shutdown();
    join.join().unwrap().unwrap();
    // Socket file is removed on clean drain.
    assert!(!sock.exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn backpressure_rejects_with_429_and_retry_after() {
    let gate = Gate::new();
    let (target, handle, join) = boot(
        Bind::Tcp("127.0.0.1:0".into()),
        1,
        1,
        1,
        Some(Arc::clone(&gate)),
    );
    // First job: accepted, then claimed by the single (gated) worker.
    let a = client::submit(&target, "name=a\n", "alice", false, None).unwrap();
    assert_eq!(a.status, 202);
    wait_until(2000, || stats_field(&target, "running") == 1);
    // Second client fills the queue slot.
    let b = client::submit(&target, "name=b\n", "bob", false, None).unwrap();
    assert_eq!(b.status, 202);
    // Queue is now full: third client bounces with Retry-After.
    let c = client::submit(&target, "name=c\n", "carol", false, None).unwrap();
    assert_eq!(c.status, 429);
    assert_eq!(c.retry_after.as_deref(), Some("1"));
    assert!(c.lines[0].contains("queue-full"));
    // Alice is at her quota (1 running) regardless of queue space.
    let a2 = client::submit(&target, "name=a2\n", "alice", false, None).unwrap();
    assert_eq!(a2.status, 429);
    assert!(a2.lines[0].contains("quota-exceeded"));

    gate.open();
    wait_until(2000, || stats_field(&target, "finished") == 2);
    // With capacity freed, the same client is admitted again.
    let a3 = client::submit(&target, "name=a3\n", "alice", true, None).unwrap();
    assert_eq!(a3.status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn drain_finishes_admitted_jobs_before_exit() {
    let gate = Gate::new();
    let (target, handle, join) = boot(
        Bind::Tcp("127.0.0.1:0".into()),
        1,
        8,
        8,
        Some(Arc::clone(&gate)),
    );
    let a = client::submit(&target, "name=a\n", "alice", false, None).unwrap();
    assert_eq!(a.status, 202);
    let b = client::submit(&target, "name=b\n", "bob", false, None).unwrap();
    assert_eq!(b.status, 202);
    handle.shutdown();
    // Admitted work must finish during drain, not be dropped.
    std::thread::sleep(Duration::from_millis(50));
    gate.open();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_wakes_a_server_that_never_accepted() {
    let (_, handle, join) = boot(Bind::Tcp("127.0.0.1:0".into()), 1, 8, 8, None);
    // Let serve() reach its blocking accept before the wake.
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();
    join_within(join, 10).unwrap();

    let dir = std::env::temp_dir().join(format!("perple-serve-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("perple.sock");
    let (_, handle, join) = boot(Bind::Unix(sock.clone()), 1, 8, 8, None);
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();
    join_within(join, 10).unwrap();
    assert!(!sock.exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_twice_is_harmless() {
    let (target, handle, join) = boot(Bind::Tcp("127.0.0.1:0".into()), 1, 8, 8, None);
    let ok = client::submit(&target, "name=x\n", "t", true, None).unwrap();
    assert_eq!(ok.status, 200);
    let again = handle.clone();
    handle.shutdown();
    again.shutdown();
    join_within(join, 10).unwrap();
    // A handle outliving serve() still shuts down nothing but its own,
    // still-open listener.
    again.shutdown();
}

#[test]
fn shutdown_lets_an_open_stream_finish_with_its_summary() {
    let gate = Gate::new();
    let (target, handle, join) = boot(
        Bind::Tcp("127.0.0.1:0".into()),
        1,
        8,
        8,
        Some(Arc::clone(&gate)),
    );
    let submitter = {
        let target = target.clone();
        std::thread::spawn(move || client::submit(&target, "name=s\n", "s", true, None))
    };
    wait_until(2000, || stats_field(&target, "running") == 1);
    handle.shutdown();
    gate.open();
    let out = submitter.join().unwrap().unwrap();
    assert_eq!(out.status, 200);
    assert_eq!(out.lines.len(), 4);
    assert!(out.lines[3].starts_with("{\"job\":\"job-1\",\"summary\":{\"items\":3"));
    join_within(join, 10).unwrap();
}

#[test]
fn sustained_load_thousand_submissions() {
    let (target, handle, join) = boot(Bind::Tcp("127.0.0.1:0".into()), 4, 64, 8, None);
    let mut clients = Vec::new();
    for t in 0..8 {
        let target = target.clone();
        clients.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            for i in 0..125 {
                // wait=1 keeps each client's in-flight at 1, so no
                // rejection is expected; every line streams back.
                let out = client::submit(
                    &target,
                    &format!("name=load-{t}-{i}\n"),
                    &format!("loader-{t}"),
                    true,
                    None,
                )
                .unwrap();
                assert_eq!(out.status, 200, "submission {t}/{i} failed");
                assert_eq!(out.lines.len(), 4);
                ok += 1;
            }
            ok
        }));
    }
    let total: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(total, 1000);
    wait_until(2000, || stats_field(&target, "finished") == 1000);
    assert_eq!(stats_field(&target, "rejected"), 0);
    // Registry retention bounds memory: early jobs are evicted, recent
    // ones are still queryable.
    assert_eq!(client::get(&target, "/jobs/job-1").unwrap().status, 404);
    assert_eq!(client::get(&target, "/jobs/job-1000").unwrap().status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn clone_target() {
    // client::Target is passed across threads in the load test; keep it
    // Clone + Send by construction.
    fn assert_send<T: Send + Clone>() {}
    assert_send::<client::Target>();
}
