//! The `serve-mixed` workload: a `perple serve` server process on a Unix
//! socket, driven by a closed loop of two client connections from this
//! process. Most submissions resubmit specs primed during set-up (cache
//! reads); every eighth carries a fresh seed (convert, simulate, count,
//! journal and cache writes). Both kinds share one store.
//!
//! Each `wait=1` submission opens a new connection, and the server's
//! accept loop sleeps 20 ms whenever no connection is pending, so the two
//! clients lock onto that poll: a primed submission takes about 20 ms
//! however fast the job is. The end-to-end times of this workload are set
//! by the poll; a change in HTTP, queue, lint gate or cache reads smaller
//! than it shows only in `serve.job_p50_ms` and `serve.wait_share`.
//!
//! The server process is this binary's `serve-child` mode: the same
//! `Server` and `CampaignRunner` that `perple serve` runs, plus a control
//! channel on stdin (`trace-on`, `trace-off`, end of input = drain) and a
//! timer around each job.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use perple::campaign::{CampaignSpec, Fingerprint, OutcomeRecord, RunStore};
use perple::experiments::campaign::{expand_items, run_spec};
use perple::jsonout::{self, Json};
use perple::obs::{metrics, trace};
use perple::serve::client::{self, Target};
use perple::serve::server::{Bind, Server, ServerConfig};
use perple::serve::SpecRunner;
use perple::CampaignRunner;

use crate::batch::distinct_tests;
use crate::layers::{self, PassLayers, ProbeInputs};
use crate::stats::{derive_seed, median, percentile, self_peak_rss_mib, tail};
use crate::{checks, Args, Metric, Report};

/// Test sets of the primed specs; fresh submissions reuse them in turn.
/// "A few suite tests", mixing the tests' shapes (two to three threads,
/// with and without stale loads). No recorded traffic says which specs a
/// server sees; these are a choice, not a measurement.
const PRIMED_TESTS: [&[&str]; 4] = [
    &["sb", "mp"],
    &["wrc", "rfi013"],
    &["podwr000", "safe006", "n1"],
    &["iwp23b", "amd5"],
];
/// Iterations per serve item: small, so a fresh submission's job stays
/// within a few poll periods and the loop completes thousands of
/// submissions per run.
const SERVE_ITERATIONS: u64 = 2_000;
/// One submission in this many carries a fresh seed. An unmeasured
/// choice: the only recorded serve load (EXPERIMENTS.md, `serve_load`)
/// is 999‰ cache hits, which would leave a run with a handful of fresh
/// jobs. One in eight keeps resubmissions the large majority while a run
/// still completes hundreds of fresh submissions, enough for a steady
/// `cold_items_per_s`. Each run prints the share of client time
/// the fresh submissions took.
const FRESH_EVERY: u64 = 8;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Submissions per traced (and per untraced reference) pass.
const PASS_SUBMISSIONS: u64 = 240;
/// Server boots measured for `setup_s` before the closed loop, and again
/// after it.
const SETUP_REPS: usize = 5;
/// How long to wait for the server to boot or answer a control command.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

fn primed_specs(seed: u64) -> Vec<CampaignSpec> {
    PRIMED_TESTS
        .iter()
        .enumerate()
        .map(|(j, tests)| {
            let mut s = CampaignSpec::named(&format!("serve-{j}"));
            s.tests = tests.iter().map(|t| (*t).to_owned()).collect();
            let seeds = if j == 3 { 2 } else { 1 };
            s.seeds = (0..seeds)
                .map(|i| derive_seed(seed, "serve-primed", 10 * j as u64 + i))
                .collect();
            s.iterations = SERVE_ITERATIONS;
            s.workers = 1;
            s
        })
        .collect()
}

/// What submission `k` of a pass sends: a primed spec index, or a fresh
/// spec (rendered) with a seed no other submission uses.
fn plan(primed: &[CampaignSpec], seed: u64, pass: u64, k: u64) -> (Option<usize>, String) {
    if k % FRESH_EVERY == FRESH_EVERY - 1 {
        let mut s = primed[(k / FRESH_EVERY) as usize % primed.len()].clone();
        s.name = "serve-fresh".to_owned();
        s.seeds = vec![derive_seed(seed, &format!("serve-fresh-{pass}"), k)];
        (None, s.render())
    } else {
        let j = (k % FRESH_EVERY) as usize % primed.len();
        (Some(j), primed[j].render())
    }
}

/// The server process, owned: dropping it without [`ServerProc::stop`]
/// kills it.
struct ServerProc {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    target: Target,
}

impl ServerProc {
    fn boot(root: &Path, store: &Path) -> Result<ServerProc, String> {
        let socket = root.join("serve.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server process: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = ServerProc {
            stdin: child.stdin.take(),
            child: Some(child),
            lines,
            reader: Some(reader),
            target: Target::Unix(socket),
        };
        server.expect("listening")?;
        let deadline = Instant::now() + CONTROL_TIMEOUT;
        loop {
            match client::get(&server.target, "/healthz") {
                Ok(out) if out.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("server never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Waits for the next output line starting with `prefix`; returns the
    /// rest of it.
    fn expect(&mut self, prefix: &str) -> Result<String, String> {
        loop {
            let line = self
                .lines
                .recv_timeout(CONTROL_TIMEOUT)
                .map_err(|_| format!("server process sent no {prefix:?} line"))?;
            if let Some(rest) = line.strip_prefix(prefix) {
                return Ok(rest.trim().to_owned());
            }
        }
    }

    fn command(&mut self, cmd: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "{cmd}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server control: {e}"))
    }

    /// Drains the server (closing its control channel) and returns its
    /// peak resident set in MiB.
    fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let rss = self.expect("rss")?;
        let status = self
            .child
            .take()
            .expect("stop runs once")
            .wait()
            .map_err(|e| format!("server wait: {e}"))?;
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        if !status.success() {
            return Err(format!("server process exited with {status}"));
        }
        rss.parse()
            .map_err(|e| format!("bad rss line {rss:?} from the server: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// One completed submission.
struct Sub {
    primed: Option<usize>,
    secs: f64,
    items: usize,
    hits: usize,
    /// Record lines as streamed (without the summary line).
    records: Vec<String>,
    run: String,
    spec: String,
}

/// Sends one `wait=1` submission and checks its stream. `Ok(None)` is a
/// refused or errored submission (a failure, not a wrong answer).
fn submit(target: &Target, spec: &str, client_name: &str) -> Result<Option<(Sub, u16)>, String> {
    let t = Instant::now();
    let out = client::submit(target, spec, client_name, true, None).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    if out.status != 200 {
        return Ok(Some((
            Sub {
                primed: None,
                secs,
                items: 0,
                hits: 0,
                records: Vec::new(),
                run: String::new(),
                spec: spec.to_owned(),
            },
            out.status,
        )));
    }
    let mut lines = out.lines;
    let tail = lines.pop().ok_or("empty submission stream")?;
    let tail = jsonout::parse(&tail).map_err(|e| format!("bad stream tail: {e}"))?;
    let Some(summary) = tail.get("summary") else {
        return Ok(None);
    };
    let num = |k: &str| summary.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX) as usize;
    if num("lost") != 0 || num("quarantined") != 0 || num("violations") != 0 {
        return Err(format!(
            "submission summary reports failures: {}",
            tail.render()
        ));
    }
    if lines.len() != num("items") || num("hits") + num("executed") != num("items") {
        return Err(format!(
            "{} records streamed for summary {}",
            lines.len(),
            tail.render()
        ));
    }
    Ok(Some((
        Sub {
            primed: None,
            secs,
            items: num("items"),
            hits: num("hits"),
            records: lines,
            run: summary
                .get("run")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            spec: spec.to_owned(),
        },
        200,
    )))
}

fn parse_records(lines: &[String]) -> Result<Vec<OutcomeRecord>, String> {
    lines
        .iter()
        .map(|l| {
            jsonout::parse(l)
                .map_err(|e| e.to_string())
                .and_then(|j| OutcomeRecord::from_json(&j).map_err(|e| e.to_string()))
        })
        .collect()
}

/// A closed loop's outcome.
#[derive(Default)]
struct LoopResult {
    subs: Vec<Sub>,
    rejected: u64,
    errored: u64,
    wall: f64,
}

enum Stop {
    At(Instant),
    After(u64),
}

/// Runs the closed loop: each client sends its next submission only when
/// the previous one has completed. Primed resubmissions must stream
/// exactly the primed records; fresh ones must execute every item.
fn closed_loop(
    target: &Target,
    primed: &[CampaignSpec],
    primed_lines: &[Vec<String>],
    seed: u64,
    pass: u64,
    stop: Stop,
) -> Result<LoopResult, String> {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let per_client: Vec<Result<LoopResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                let stop = &stop;
                scope.spawn(move || -> Result<LoopResult, String> {
                    let mut out = LoopResult::default();
                    let name = format!("bench{c}");
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        match stop {
                            Stop::At(t) if Instant::now() >= *t => break,
                            Stop::After(n) if k >= *n => break,
                            _ => {}
                        }
                        let (which, text) = plan(primed, seed, pass, k);
                        let Some((mut sub, status)) = submit(target, &text, &name)? else {
                            out.errored += 1;
                            continue;
                        };
                        if status != 200 {
                            if status == 429 || status == 503 {
                                out.rejected += 1;
                            } else {
                                out.errored += 1;
                            }
                            continue;
                        }
                        sub.primed = which;
                        match which {
                            Some(j) if sub.records != primed_lines[j] || sub.hits != sub.items => {
                                return Err(format!(
                                    "resubmitted spec serve-{j} streamed records that differ from its primed run"
                                ));
                            }
                            None if sub.hits != 0 => {
                                return Err("a fresh-seed submission hit the cache".to_owned());
                            }
                            None => checks::records_sound(&parse_records(&sub.records)?)?,
                            _ => {}
                        }
                        out.subs.push(sub);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = LoopResult {
        wall: start.elapsed().as_secs_f64(),
        ..LoopResult::default()
    };
    for r in per_client {
        let r = r?;
        all.subs.extend(r.subs);
        all.rejected += r.rejected;
        all.errored += r.errored;
    }
    Ok(all)
}

/// The stream of a submission must equal its run's stored `items.json`.
fn stream_equals_batch(store: &Path, sub: &Sub) -> Result<(), String> {
    let stored = RunStore::open(store)
        .and_then(|s| s.load_items(&sub.run))
        .map_err(|e| e.to_string())?;
    let rendered: Vec<String> = stored.iter().map(|r| r.to_json().render()).collect();
    if rendered != sub.records {
        return Err(format!(
            "the stream of run {} differs from its items.json",
            sub.run
        ));
    }
    Ok(())
}

/// A fresh submission's records must equal an in-process batch run of
/// the same spec (untraced, in a store of its own).
fn stream_equals_untraced_batch(scratch: &Path, sub: &Sub) -> Result<(), String> {
    let spec = CampaignSpec::parse(&sub.spec).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(scratch);
    let summary = run_spec(&spec, scratch, false)?;
    let records = RunStore::open(scratch)
        .and_then(|s| s.load_items(&summary.id))
        .map_err(|e| e.to_string())?;
    let rendered: Vec<String> = records.iter().map(|r| r.to_json().render()).collect();
    let _ = std::fs::remove_dir_all(scratch);
    if rendered != sub.records {
        return Err(format!(
            "traced serve run {} differs from the untraced batch run",
            sub.run
        ));
    }
    Ok(())
}

/// Set-up: fresh store, server boot to a healthy `/healthz`, and one
/// priming submission per primed spec. Returns the server, the primed
/// submissions and the seconds it took.
fn setup(
    root: &Path,
    store: &Path,
    primed: &[CampaignSpec],
) -> Result<(ServerProc, Vec<Sub>, f64), String> {
    let _ = std::fs::remove_dir_all(store);
    let t = Instant::now();
    std::fs::create_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
    let server = ServerProc::boot(root, store)?;
    let mut subs = Vec::new();
    for (j, spec) in primed.iter().enumerate() {
        match submit(&server.target, &spec.render(), "prime")? {
            Some((mut sub, 200)) if sub.hits == 0 => {
                sub.primed = Some(j);
                subs.push(sub);
            }
            _ => return Err(format!("priming serve-{j} failed")),
        }
    }
    Ok((server, subs, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let primed = primed_specs(args.seed);
    let store = args.root.join("store");
    let mut setup_samples = Vec::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut booted = None;
    for rep in 0..reps {
        let (server, subs, secs) = setup(&args.root, &store, &primed)?;
        setup_samples.push(secs);
        if rep + 1 == reps {
            booted = Some((server, subs));
        } else {
            server.stop()?;
        }
    }
    let (mut server, priming) = booted.expect("at least one set-up");
    let primed_lines: Vec<Vec<String>> = priming.iter().map(|s| s.records.clone()).collect();
    let primed_records = parse_records(&primed_lines.concat())?;
    checks::records_sound(&primed_records)?;
    checks::reference(
        &args.reference,
        &args.workload,
        args.seed,
        &primed_records,
        args.bless,
    )?;
    for sub in &priming {
        stream_equals_batch(&store, sub)?;
    }

    let (mut report, rss) = if args.trace {
        let report = traced(args, &mut server, &primed, &primed_lines, &store)?;
        (report, server.stop()?)
    } else {
        let res = closed_loop(
            &server.target,
            &primed,
            &primed_lines,
            args.seed,
            0,
            Stop::At(Instant::now() + Duration::from_secs_f64(args.seconds)),
        )?;
        for sub in res.subs.iter().filter(|s| s.primed.is_none()).take(3) {
            stream_equals_batch(&store, sub)?;
        }
        let rss = server.stop()?;
        // A second burst of boots, a run's length after the first: the
        // host switches speed every few seconds, and one burst of boots
        // lands in one spell.
        for _ in 0..SETUP_REPS {
            let (server, _, secs) = setup(&args.root, &store, &primed)?;
            setup_samples.push(secs);
            server.stop()?;
        }
        (timed_report(args, &res, median(&setup_samples)), rss)
    };
    if args.trace {
        let mut records = Vec::new();
        let mut fps: Vec<(String, u64, Fingerprint)> = Vec::new();
        for spec in &primed {
            let (_, items) = expand_items(spec).map_err(|e| e.to_string())?;
            fps.extend(
                items
                    .into_iter()
                    .map(|(_, i)| (i.test, i.seed, i.fingerprint)),
            );
        }
        for r in primed_records {
            let fp = fps
                .iter()
                .find(|(t, s, _)| *t == r.test && *s == r.seed)
                .map(|f| f.2)
                .ok_or_else(|| format!("no fingerprint for {}#{}", r.test, r.seed))?;
            records.push((fp, r));
        }
        let inputs = ProbeInputs {
            specs: &primed,
            tests: primed
                .iter()
                .map(distinct_tests)
                .collect::<Result<Vec<_>, _>>()?,
            probe_test: perple::suite::by_name(PRIMED_TESTS[0][0]).ok_or("no probe test")?,
            iterations: SERVE_ITERATIONS,
            seed: derive_seed(args.seed, "probe", 0),
            records,
        };
        let scratch = args.root.join("probe");
        std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        report.metrics.extend(layers::probes(&inputs, &scratch)?);
        report.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    } else {
        report.metrics.push(Metric::new("peak_rss_mb", rss, "MiB"));
    }
    Ok(report)
}

fn timed_report(args: &Args, res: &LoopResult, setup_s: f64) -> Report {
    // Medians of per-submission rates, unlike the batch workloads' sums:
    // submissions are paced by the accept poll, not by the host's speed,
    // and a sum would follow the few that queued behind a fresh job.
    let rate = |s: &&Sub| s.items as f64 / s.secs;
    let warm: Vec<&Sub> = res.subs.iter().filter(|s| s.primed.is_some()).collect();
    let fresh: Vec<&Sub> = res.subs.iter().filter(|s| s.primed.is_none()).collect();
    let warm_ms: Vec<f64> = warm.iter().map(|s| s.secs * 1e3).collect();
    let all_ms: Vec<f64> = res.subs.iter().map(|s| s.secs * 1e3).collect();
    let (tail_p, tail_ms) = tail(&warm_ms);
    let (all_tail_p, all_tail_ms) = tail(&all_ms);
    let failed = res.rejected + res.errored;
    let attempted = res.subs.len() as u64 + failed;
    let fresh_secs: f64 = fresh.iter().map(|s| s.secs).sum();
    let all_secs: f64 = res.subs.iter().map(|s| s.secs).sum();
    Report {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "cold_items_per_s",
                median(&fresh.iter().map(rate).collect::<Vec<_>>()),
                "items/s",
            ),
            Metric::new(
                "warm_items_per_s",
                median(&warm.iter().map(rate).collect::<Vec<_>>()),
                "items/s",
            ),
        ],
        notes: vec![
            format!(
                "serve-mixed seed {}: {} submissions ({} fresh) in {:.3} s = {:.1} subs/s; {} refused, {} errored (fail_frac {:.4})",
                args.seed,
                res.subs.len(),
                fresh.len(),
                res.wall,
                res.subs.len() as f64 / res.wall,
                res.rejected,
                res.errored,
                failed as f64 / attempted.max(1) as f64
            ),
            format!(
                "  all submissions: p50 {:.3} ms, p{} {:.3} ms; primed: p50 {:.3} ms, p{} {:.3} ms; fresh: {:.1}% of client time",
                median(&all_ms),
                all_tail_p,
                all_tail_ms,
                median(&warm_ms),
                tail_p,
                tail_ms,
                100.0 * fresh_secs / all_secs
            ),
        ],
    }
}

/// Pairs of fixed passes, untraced then traced (server tracing armed),
/// until the budget is spent.
fn traced(
    args: &Args,
    server: &mut ServerProc,
    primed: &[CampaignSpec],
    primed_lines: &[Vec<String>],
    store: &Path,
) -> Result<Report, String> {
    let start = Instant::now();
    let (mut passes, mut overheads) = (Vec::new(), Vec::new());
    let (mut jobs_ms, mut client_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut items, mut rejected, mut attempted, mut failed) = (0, 0, 0u64, 0u64, 0u64);
    let mut pass = 0u64;
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut walls = [0.0; 2];
        for (slot, armed) in [false, true].into_iter().enumerate() {
            if armed {
                server.command("trace-on")?;
                server.expect("ok")?;
            }
            let res = closed_loop(
                &server.target,
                primed,
                primed_lines,
                args.seed,
                pass,
                Stop::After(PASS_SUBMISSIONS),
            )?;
            pass += 1;
            walls[slot] = res.wall;
            attempted += res.subs.len() as u64 + res.rejected + res.errored;
            failed += res.rejected + res.errored;
            if armed {
                server.command("trace-off")?;
                let report = jsonout::parse(&server.expect("report")?)
                    .map_err(|e| format!("bad server report: {e}"))?;
                passes.push(PassLayers::from_json(
                    report.get("layers").ok_or("report lacks layers")?,
                )?);
                for j in report.get("jobs_ms").and_then(Json::as_arr).unwrap_or(&[]) {
                    jobs_ms.push(j.as_f64().ok_or("bad job time")?);
                }
                client_ms.extend(res.subs.iter().map(|s| s.secs * 1e3));
                hits += res.subs.iter().map(|s| s.hits).sum::<usize>();
                items += res.subs.iter().map(|s| s.items).sum::<usize>();
                rejected += res.rejected;
                if passes.len() == 1 {
                    let scratch = args.root.join("batch");
                    for sub in res.subs.iter().filter(|s| s.primed.is_none()).take(2) {
                        stream_equals_batch(store, sub)?;
                        stream_equals_untraced_batch(&scratch, sub)?;
                    }
                }
            }
        }
        overheads.push(walls[1] / walls[0] - 1.0);
    }
    let mut metrics = layers::span_metrics(&passes);
    metrics.extend([
        Metric::new(
            "cache.hit_ratio",
            hits as f64 / items.max(1) as f64,
            "ratio",
        ),
        Metric::new("serve.job_p50_ms", median(&jobs_ms), "ms"),
        Metric::new("serve.job_p99_ms", percentile(&jobs_ms, 99.0).0, "ms"),
        // HTTP, queue and the accept poll: the share of a submission's
        // client-measured time spent outside its job.
        Metric::new(
            "serve.wait_share",
            1.0 - median(&jobs_ms) / median(&client_ms),
            "ratio",
        ),
        Metric::new("serve.rejections", rejected as f64, "count"),
        Metric::new("obs.trace_overhead", median(&overheads), "ratio"),
    ]);
    Ok(Report {
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "serve-mixed seed {} traced: {} pass pairs of {} submissions; client p50 {:.3} ms, job p50 {:.3} ms",
            args.seed,
            passes.len(),
            PASS_SUBMISSIONS,
            median(&client_ms),
            median(&jobs_ms)
        )],
    })
}

/// Times every job the server runs (the server's own job time, exact,
/// where `/metrics` has only power-of-two buckets).
struct TimedRunner {
    inner: CampaignRunner,
    jobs_ms: Mutex<Vec<f64>>,
}

impl SpecRunner for TimedRunner {
    fn run(
        &self,
        spec_text: &str,
        store_root: &Path,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        let t = Instant::now();
        let out = self.inner.run(spec_text, store_root, on_record);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.jobs_ms
            .lock()
            .expect("job timer lock poisoned")
            .push(ms);
        out
    }

    fn resume(
        &self,
        store_root: &Path,
        id: &str,
        on_record: &mut dyn FnMut(usize, Option<String>),
    ) -> Result<String, String> {
        self.inner.resume(store_root, id, on_record)
    }

    fn pending(&self, store_root: &Path) -> Result<Vec<String>, String> {
        self.inner.pending(store_root)
    }
}

/// `serve-child`: the server process of `serve-mixed`.
pub fn child(argv: &[String]) -> ExitCode {
    match child_main(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perple-perfbench serve-child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child_main(argv: &[String]) -> Result<(), String> {
    let (mut socket, mut store) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--socket" => socket = Some(PathBuf::from(value)),
            "--store" => store = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let (socket, store) = (
        socket.ok_or("--socket is required")?,
        store.ok_or("--store is required")?,
    );
    let runner = Arc::new(TimedRunner {
        inner: CampaignRunner::default(),
        jobs_ms: Mutex::new(Vec::new()),
    });
    let server = Server::bind(
        ServerConfig::new(Bind::Unix(socket), SERVER_WORKERS, store),
        Arc::clone(&runner) as Arc<dyn SpecRunner>,
    )
    .map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle();
    println!("listening");
    let _ = std::io::stdout().flush();
    let control = std::thread::spawn(move || {
        let mut base = None;
        for line in std::io::stdin().lock().lines().map_while(Result::ok) {
            match line.trim() {
                "trace-on" => {
                    runner
                        .jobs_ms
                        .lock()
                        .expect("job timer lock poisoned")
                        .clear();
                    base = Some(metrics::snapshot());
                    trace::start();
                    println!("ok");
                }
                "trace-off" => {
                    let spans = trace::finish();
                    let base = base
                        .take()
                        .unwrap_or_else(perple::obs::MetricsSnapshot::zero);
                    let delta = metrics::snapshot().delta_from(&base);
                    let jobs = std::mem::take(
                        &mut *runner.jobs_ms.lock().expect("job timer lock poisoned"),
                    );
                    let report = Json::obj(vec![
                        ("layers", PassLayers::from_trace(&spans, &delta).to_json()),
                        (
                            "jobs_ms",
                            Json::Arr(jobs.into_iter().map(Json::from).collect()),
                        ),
                    ]);
                    println!("report {}", report.render());
                }
                _ => break,
            }
            let _ = std::io::stdout().flush();
        }
        handle.shutdown();
    });
    let served = server.serve().map_err(|e| e.to_string());
    let _ = control.join();
    served?;
    println!("rss {}", self_peak_rss_mib()?);
    Ok(())
}
