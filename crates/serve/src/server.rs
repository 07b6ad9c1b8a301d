//! The threaded campaign server.
//!
//! One accept thread (blocked in `accept`; a drain trigger wakes it by
//! shutting the listener down), one short-lived handler thread per
//! connection, and a fixed pool of worker threads multiplexing jobs
//! from the [`JobQueue`] through the embedder's [`SpecRunner`] — which
//! in turn shares one content-addressed cache and journaled run store
//! across every job, so a resubmitted spec is pure cache hits.
//!
//! Streaming order: the engine observes cache hits first (slot order)
//! and executed items as they complete; a small reorder buffer holds
//! out-of-order completions and releases the contiguous prefix, so the
//! chunked JSONL a submitter sees is byte-for-byte the `items.json`
//! record sequence of the equivalent batch run.
//!
//! Graceful drain: when SIGTERM flips the [`crate::signal`] flag (or a
//! [`ShutdownHandle`] fires), the trigger wakes the blocked `accept`
//! with `shutdown(2)` on the listener, the accept loop stops, the queue
//! rejects new work with 503, workers finish every queued and running
//! job (the engine journals in-flight chunks via its write-ahead
//! machinery), and the process exits with a store `campaign fsck` finds
//! nothing in.

use crate::http::{write_response, ChunkedWriter, Request};
use crate::queue::{Job, JobQueue, Next, SubmitError};
use crate::{signal, ServeError, SpecRunner};
use perple_analysis::jsonout::{parse, Json};
use perple_obs::metrics::{add, observe, snapshot, Hist, Metric};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many completed jobs stay queryable via `GET /jobs/<id>` before
/// the oldest are evicted (bounds registry memory on long-lived
/// servers).
const RETAIN_DONE: usize = 256;
/// Per-connection read timeout (a stuck client must not block drain).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP `HOST:PORT` (port 0 picks a free port).
    Tcp(String),
    /// Unix domain socket path (a stale file is replaced).
    Unix(PathBuf),
}

/// Server configuration (all knobs the CLI exposes).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Worker pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Campaign store root shared by every job.
    pub store_root: PathBuf,
    /// Bounded queue capacity (jobs waiting, not running).
    pub queue_capacity: usize,
    /// Max jobs one client may have queued-or-running.
    pub per_client_quota: usize,
}

impl ServerConfig {
    /// Defaults mirroring the CLI: queue of 64, quota of 8.
    pub fn new(bind: Bind, workers: usize, store_root: PathBuf) -> ServerConfig {
        ServerConfig {
            bind,
            workers,
            store_root,
            queue_capacity: 64,
            per_client_quota: 8,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_read_timeout(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(READ_TIMEOUT)),
            Conn::Unix(s) => s.set_read_timeout(Some(READ_TIMEOUT)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Job registry: id → live handle, with bounded retention of completed
/// jobs.
struct Registry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    jobs: HashMap<String, Arc<Job>>,
    done: VecDeque<String>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            inner: Mutex::new(RegistryInner {
                jobs: HashMap::new(),
                done: VecDeque::new(),
            }),
        }
    }

    fn insert(&self, job: &Arc<Job>) {
        let mut g = self.inner.lock().unwrap();
        g.jobs.insert(job.id.clone(), Arc::clone(job));
    }

    fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.inner.lock().unwrap().jobs.get(id).cloned()
    }

    fn note_done(&self, id: &str) {
        let mut g = self.inner.lock().unwrap();
        g.done.push_back(id.to_string());
        while g.done.len() > RETAIN_DONE {
            if let Some(old) = g.done.pop_front() {
                g.jobs.remove(&old);
            }
        }
    }
}

/// Aggregated item counters across all finished jobs (feeds the cache
/// hit-rate in `/metrics`).
struct Totals {
    items: AtomicU64,
    hits: AtomicU64,
    executed: AtomicU64,
}

/// Reorder buffer: the engine reports items as they finish; the stream
/// must emit them in slot (= `items.json`) order. Holds out-of-order
/// completions and releases the contiguous prefix, skipping lost slots.
struct Reorder {
    next: usize,
    held: BTreeMap<usize, Option<String>>,
}

impl Reorder {
    fn new() -> Reorder {
        Reorder {
            next: 0,
            held: BTreeMap::new(),
        }
    }

    fn push(&mut self, slot: usize, record: Option<String>, emit: &mut dyn FnMut(String)) {
        self.held.insert(slot, record);
        while let Some(r) = self.held.remove(&self.next) {
            self.next += 1;
            if let Some(line) = r {
                emit(line);
            }
        }
    }
}

struct Ctx {
    /// Lives as long as any [`ShutdownHandle`], so a handle's wake never
    /// reaches a closed or reused descriptor.
    listener: Listener,
    queue: Arc<JobQueue>,
    registry: Registry,
    runner: Arc<dyn SpecRunner>,
    store_root: PathBuf,
    totals: Totals,
    stop: AtomicBool,
}

impl Ctx {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// Stops one server without touching the process-wide signal flag
/// (tests run several servers in one process).
#[derive(Clone)]
pub struct ShutdownHandle {
    ctx: Arc<Ctx>,
}

impl ShutdownHandle {
    /// Begin graceful drain, as if SIGTERM had arrived. Idempotent.
    pub fn shutdown(&self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        signal::wake(self.ctx.listener.fd());
    }
}

/// A bound (but not yet serving) campaign server.
pub struct Server {
    local: String,
    config: ServerConfig,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the listener and builds the shared state. Nothing is
    /// accepted or executed until [`Server::serve`].
    pub fn bind(config: ServerConfig, runner: Arc<dyn SpecRunner>) -> Result<Server, ServeError> {
        perple_obs::metrics::set_enabled(true);
        let (listener, local) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| ServeError::Bind(format!("{addr}: {e}")))?;
                let local = l
                    .local_addr()
                    .map_err(|e| ServeError::Bind(e.to_string()))?
                    .to_string();
                (Listener::Tcp(l), local)
            }
            Bind::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)
                        .map_err(|e| ServeError::Bind(format!("{}: {e}", path.display())))?;
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| ServeError::Bind(format!("{}: {e}", path.display())))?;
                (Listener::Unix(l), path.display().to_string())
            }
        };
        let ctx = Arc::new(Ctx {
            listener,
            queue: Arc::new(JobQueue::new(
                config.queue_capacity,
                config.per_client_quota,
            )),
            registry: Registry::new(),
            runner,
            store_root: config.store_root.clone(),
            totals: Totals {
                items: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                executed: AtomicU64::new(0),
            },
            stop: AtomicBool::new(false),
        });
        Ok(Server { local, config, ctx })
    }

    /// The bound address: `HOST:PORT` for TCP (real port even when the
    /// config said `:0`), the socket path for Unix.
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// A handle that triggers graceful drain of this server only.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            ctx: Arc::clone(&self.ctx),
        }
    }

    /// Resumes every pending (interrupted) run in the store before the
    /// server starts accepting — journal replay first, then cache, then
    /// execution of whatever is genuinely left. `report(id, summary)`
    /// is called per resumed run.
    pub fn resume_pending(&self, mut report: impl FnMut(&str, &str)) -> Result<usize, ServeError> {
        let ids = self
            .ctx
            .runner
            .pending(&self.ctx.store_root)
            .map_err(ServeError::Io)?;
        let mut resumed = 0usize;
        for id in ids {
            let mut sink = |_slot: usize, _rec: Option<String>| {};
            match self.ctx.runner.resume(&self.ctx.store_root, &id, &mut sink) {
                Ok(summary) => {
                    self.note_summary(&summary);
                    report(&id, &summary);
                    resumed += 1;
                }
                Err(e) => return Err(ServeError::Io(format!("resume {id}: {e}"))),
            }
        }
        Ok(resumed)
    }

    fn note_summary(&self, summary: &str) {
        note_summary(&self.ctx, summary);
    }

    /// Runs the accept loop until drain, then shuts down gracefully:
    /// workers finish every admitted job, streaming connections complete,
    /// and (for Unix binds) the socket file is removed. Returns only
    /// after the store is quiescent.
    pub fn serve(self) -> Result<(), ServeError> {
        let ctx = Arc::clone(&self.ctx);
        let mut workers = Vec::new();
        for w in 0..self.config.workers.max(1) {
            let ctx = Arc::clone(&ctx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("perple-serve-worker-{w}"))
                    .spawn(move || worker_loop(&ctx))
                    .map_err(|e| ServeError::Bind(e.to_string()))?,
            );
        }
        let fd = ctx.listener.fd();
        signal::arm(fd);
        let handlers = accept_loop(&ctx);
        signal::disarm(fd);
        let handlers = handlers?;
        // Drain: stop admitting, finish what was admitted.
        ctx.queue.drain();
        for w in workers {
            let _ = w.join();
        }
        ctx.queue.wait_idle();
        for h in handlers {
            let _ = h.join();
        }
        if let Bind::Unix(path) = &self.config.bind {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Accepts connections until a drain trigger fires; returns the
/// handler threads still to join. `accept` blocks; the trigger's wake
/// makes it fail, which is drain when a flag is set and an I/O error
/// otherwise.
fn accept_loop(ctx: &Arc<Ctx>) -> Result<Vec<std::thread::JoinHandle<()>>, ServeError> {
    let mut handlers = Vec::new();
    while !ctx.stopping() {
        let conn = match ctx.listener.accept() {
            Ok(conn) => conn,
            Err(_) if ctx.stopping() => break,
            Err(e) => return Err(ServeError::Io(e.to_string())),
        };
        let ctx = Arc::clone(ctx);
        if let Ok(h) = std::thread::Builder::new()
            .name("perple-serve-conn".into())
            .spawn(move || handle_conn(conn, &ctx))
        {
            handlers.push(h);
        }
        // Reap finished handlers so the vec stays bounded under
        // sustained load.
        handlers.retain(|h| !h.is_finished());
    }
    Ok(handlers)
}

fn note_summary(ctx: &Ctx, summary: &str) {
    if let Ok(v) = parse(summary) {
        let items = v.get("items").and_then(Json::as_u64).unwrap_or(0);
        let hits = v.get("hits").and_then(Json::as_u64).unwrap_or(0);
        let executed = v.get("executed").and_then(Json::as_u64).unwrap_or(0);
        ctx.totals.items.fetch_add(items, Ordering::Relaxed);
        ctx.totals.hits.fetch_add(hits, Ordering::Relaxed);
        ctx.totals.executed.fetch_add(executed, Ordering::Relaxed);
    }
}

fn worker_loop(ctx: &Ctx) {
    while let Some(job) = ctx.queue.claim() {
        let t0 = Instant::now();
        let mut last = t0;
        let mut reorder = Reorder::new();
        let result = {
            let job_ref = &job;
            let mut emit = move |line: String| {
                let now = Instant::now();
                observe(
                    Hist::ServeItemMicros,
                    now.duration_since(last).as_micros() as u64,
                );
                last = now;
                add(Metric::ServeItemsStreamed, 1);
                job_ref.push_record(line);
            };
            let mut on_record = |slot: usize, rec: Option<String>| {
                reorder.push(slot, rec, &mut emit);
            };
            ctx.runner.run(&job.spec, &ctx.store_root, &mut on_record)
        };
        match result {
            Ok(summary) => {
                note_summary(ctx, &summary);
                job.complete(summary);
            }
            Err(message) => job.fail(message),
        }
        observe(Hist::ServeJobMicros, t0.elapsed().as_micros() as u64);
        add(Metric::ServeJobsDone, 1);
        // Exactly-once accounting regardless of which path got here.
        ctx.queue.finish(&job);
        ctx.registry.note_done(&job.id);
    }
}

fn submit_reject(conn: &mut Conn, err: SubmitError) {
    let (status, reason) = match err {
        SubmitError::QueueFull | SubmitError::QuotaExceeded => (429, "Too Many Requests"),
        SubmitError::Draining => (503, "Service Unavailable"),
    };
    let body = Json::obj(vec![
        ("error", Json::from(err.name())),
        ("retry_after_ms", Json::from(1000u64)),
    ])
    .render()
        + "\n";
    let _ = write_response(
        conn,
        status,
        reason,
        &[("Retry-After", "1")],
        "application/json",
        body.as_bytes(),
    );
}

fn handle_submit(mut conn: Conn, ctx: &Ctx, req: &Request) {
    add(Metric::ServeSubmissions, 1);
    let client = req.query("client").unwrap_or("anon").to_string();
    let wait = req.query("wait") != Some("0");
    let spec = String::from_utf8_lossy(&req.body).to_string();
    if spec.trim().is_empty() {
        let _ = write_response(
            &mut conn,
            400,
            "Bad Request",
            &[],
            "application/json",
            b"{\"error\":\"empty spec\"}\n",
        );
        return;
    }
    let job = match ctx.queue.submit(&client, spec) {
        Ok(job) => job,
        Err(e) => {
            add(Metric::ServeRejections, 1);
            submit_reject(&mut conn, e);
            return;
        }
    };
    ctx.registry.insert(&job);
    if !wait {
        let body = Json::obj(vec![
            ("job", Json::from(job.id.as_str())),
            ("state", Json::from("queued")),
        ])
        .render()
            + "\n";
        let _ = write_response(
            &mut conn,
            202,
            "Accepted",
            &[],
            "application/json",
            body.as_bytes(),
        );
        return;
    }
    stream_job(conn, &job);
}

/// Streams a job's records (from the start) as chunked JSONL, ending
/// with a `{"job":...,"summary":...}` (or `"error"`) line.
fn stream_job(conn: Conn, job: &Arc<Job>) {
    let mut w = match ChunkedWriter::start(conn, 200, "OK", "application/jsonl") {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut cursor = 0usize;
    loop {
        match job.wait_next(cursor) {
            Next::Record(line) => {
                cursor += 1;
                if w.chunk(format!("{line}\n").as_bytes()).is_err() {
                    return; // client went away; the job keeps running
                }
            }
            Next::Done(summary) => {
                let tail = match parse(&summary) {
                    Ok(v) => Json::obj(vec![("job", Json::from(job.id.as_str())), ("summary", v)])
                        .render(),
                    Err(_) => format!("{{\"job\":\"{}\",\"summary\":null}}", job.id),
                };
                let _ = w.chunk(format!("{tail}\n").as_bytes());
                let _ = w.finish();
                return;
            }
            Next::Failed(message) => {
                let tail = Json::obj(vec![
                    ("job", Json::from(job.id.as_str())),
                    ("error", Json::from(message.as_str())),
                ])
                .render();
                let _ = w.chunk(format!("{tail}\n").as_bytes());
                let _ = w.finish();
                return;
            }
        }
    }
}

fn queue_stats_json(ctx: &Ctx) -> Json {
    let s = ctx.queue.stats();
    Json::obj(vec![
        ("depth", Json::from(s.queued)),
        ("running", Json::from(s.running)),
        ("capacity", Json::from(s.capacity)),
        ("quota", Json::from(s.per_client_quota)),
        ("clients", Json::from(s.clients)),
        ("draining", Json::from(s.draining)),
        ("submitted", Json::from(s.submitted)),
        ("rejected", Json::from(s.rejected)),
        ("finished", Json::from(s.finished)),
    ])
}

fn metrics_json(ctx: &Ctx) -> String {
    let snap = snapshot();
    let items = ctx.totals.items.load(Ordering::Relaxed);
    let hits = ctx.totals.hits.load(Ordering::Relaxed);
    let executed = ctx.totals.executed.load(Ordering::Relaxed);
    let permille = (hits * 1000).checked_div(items).unwrap_or(0);
    let q = |h: &str, p: f64| Json::from(snap.quantile(h, p).unwrap_or(0));
    let obs = parse(&snap.render_json()).unwrap_or(Json::Null);
    Json::obj(vec![
        ("schema", Json::from(1u64)),
        ("queue", queue_stats_json(ctx)),
        (
            "cache",
            Json::obj(vec![
                ("items", Json::from(items)),
                ("hits", Json::from(hits)),
                ("executed", Json::from(executed)),
                ("hit_rate_permille", Json::from(permille)),
            ]),
        ),
        (
            "latency_us",
            Json::obj(vec![
                ("item_p50", q("serve_item_micros", 0.5)),
                ("item_p99", q("serve_item_micros", 0.99)),
                ("job_p50", q("serve_job_micros", 0.5)),
                ("job_p99", q("serve_job_micros", 0.99)),
            ]),
        ),
        ("metrics", obs),
    ])
    .render()
        + "\n"
}

fn handle_conn(mut conn: Conn, ctx: &Ctx) {
    let _ = conn.set_read_timeout();
    let reader_side = match conn.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_side);
    let req = match Request::read_from(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let body = format!("{{\"error\":\"{e}\"}}\n");
            let _ = write_response(
                &mut conn,
                400,
                "Bad Request",
                &[],
                "application/json",
                body.as_bytes(),
            );
            return;
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/submit") => handle_submit(conn, ctx, &req),
        ("GET", "/stats") => {
            let body = Json::obj(vec![
                ("schema", Json::from(1u64)),
                ("queue", queue_stats_json(ctx)),
            ])
            .render()
                + "\n";
            let _ = write_response(
                &mut conn,
                200,
                "OK",
                &[],
                "application/json",
                body.as_bytes(),
            );
        }
        ("GET", "/metrics") => {
            let body = metrics_json(ctx);
            let _ = write_response(
                &mut conn,
                200,
                "OK",
                &[],
                "application/json",
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => {
            let _ = write_response(&mut conn, 200, "OK", &[], "text/plain", b"ok\n");
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, want_stream) = match rest.strip_suffix("/stream") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            match ctx.registry.get(id) {
                None => {
                    let _ = write_response(
                        &mut conn,
                        404,
                        "Not Found",
                        &[],
                        "application/json",
                        b"{\"error\":\"no such job\"}\n",
                    );
                }
                Some(job) if want_stream => stream_job(conn, &job),
                Some(job) => {
                    let (state, records, summary) = job.snapshot();
                    let summary_json = summary
                        .as_deref()
                        .and_then(|s| parse(s).ok())
                        .unwrap_or(Json::Null);
                    let body = Json::obj(vec![
                        ("job", Json::from(job.id.as_str())),
                        ("client", Json::from(job.client.as_str())),
                        ("state", Json::from(state.name())),
                        ("records", Json::from(records)),
                        ("summary", summary_json),
                    ])
                    .render()
                        + "\n";
                    let _ = write_response(
                        &mut conn,
                        200,
                        "OK",
                        &[],
                        "application/json",
                        body.as_bytes(),
                    );
                }
            }
        }
        _ => {
            let _ = write_response(
                &mut conn,
                404,
                "Not Found",
                &[],
                "application/json",
                b"{\"error\":\"no such endpoint\"}\n",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_releases_contiguous_prefix_and_skips_lost() {
        let mut r = Reorder::new();
        let out = std::cell::RefCell::new(Vec::new());
        let mut emit = |s: String| out.borrow_mut().push(s);
        r.push(2, Some("c".into()), &mut emit);
        r.push(0, Some("a".into()), &mut emit);
        assert_eq!(*out.borrow(), vec!["a"]);
        r.push(1, None, &mut emit); // lost slot: skipped, not blocking
        assert_eq!(*out.borrow(), vec!["a", "c"]);
        r.push(3, Some("d".into()), &mut emit);
        assert_eq!(*out.borrow(), vec!["a", "c", "d"]);
    }
}
