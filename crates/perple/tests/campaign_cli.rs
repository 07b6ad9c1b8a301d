//! Integration tests of `perple campaign ...` as real subprocesses — the
//! level where cache keys must prove themselves **across process
//! restarts**: a second `campaign run` of an unchanged spec, in a fresh
//! process, must hit the cache for every item, and `campaign compare` must
//! gate regressions with its exit code.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SPEC: &str = "\
name = ci
tests = sb, mp
seeds = 1, 2
iterations = 150
workers = 2
";

const FAULTY_SPEC: &str = "\
name = ci
tests = sb, mp
seeds = 1, 2
iterations = 150
workers = 2
inject = corrupt@t0:0..150
";

/// `FAULTY_SPEC` under PSO, with `lb` added: its target is forbidden under
/// PSO, so the corrupted machine violates PSO (sb's and mp's targets are
/// PSO-allowed, which keeps the spec clear of the futility gate).
const FAULTY_PSO_SPEC: &str = "\
name = ci
tests = sb, mp, lb
seeds = 1, 2
iterations = 150
workers = 2
inject = corrupt@t0:0..150
model = pso
";

fn perple(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perple"))
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
    let dir =
        std::env::temp_dir().join(format!("perple-campaign-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn warm_rerun_across_process_restarts_hits_the_cache() {
    let dir = sandbox("warm");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();

    // Cold run: fresh store, everything executes.
    let cold = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "store"],
    );
    assert!(cold.status.success(), "cold run failed: {}", stderr(&cold));
    let cold_out = stdout(&cold);
    assert!(cold_out.contains("run: ci-0001"), "{cold_out}");
    assert!(cold_out.contains("hits: 0/4"), "{cold_out}");

    // Warm run IN A NEW PROCESS: fingerprints recomputed from scratch must
    // match the stored ones — ≥90% hits required, 100% expected.
    let warm = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "store"],
    );
    assert!(warm.status.success(), "warm run failed: {}", stderr(&warm));
    let warm_out = stdout(&warm);
    assert!(
        warm_out.contains("hits: 4/4"),
        "cache keys are not process-stable: {warm_out}"
    );
    assert!(warm_out.contains("executed: 0,"), "{warm_out}");

    // The two runs gate clean against each other (exit 0).
    let cmp = perple(
        &dir,
        &[
            "campaign", "compare", "ci-0001", "ci-0002", "--store", "store",
        ],
    );
    assert!(
        cmp.status.success(),
        "self-compare must pass: {}",
        stdout(&cmp)
    );
    assert!(stdout(&cmp).contains("0 regression(s)"), "{}", stdout(&cmp));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn injected_fault_run_fails_the_compare_gate_with_nonzero_exit() {
    let dir = sandbox("gate");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();
    std::fs::write(dir.join("faulty.campaign"), FAULTY_SPEC).unwrap();

    let base = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "store"],
    );
    assert!(base.status.success(), "{}", stderr(&base));

    // The faulty campaign observes forbidden outcomes, so `run` itself
    // exits nonzero — but it still stores the run for comparison.
    let bad = perple(
        &dir,
        &["campaign", "run", "faulty.campaign", "--store", "store"],
    );
    assert!(
        !bad.status.success(),
        "fault-injected run must report the violation"
    );
    assert!(stdout(&bad).contains("run: ci-0002"), "{}", stdout(&bad));

    let cmp = perple(
        &dir,
        &[
            "campaign", "compare", "ci-0001", "ci-0002", "--store", "store",
        ],
    );
    assert!(
        !cmp.status.success(),
        "compare must exit nonzero on regression"
    );
    let cmp_out = stdout(&cmp);
    assert!(cmp_out.contains("new-faults"), "{cmp_out}");
    assert!(cmp_out.contains("new-forbidden"), "{cmp_out}");

    // JSON report carries the same verdict.
    let cmp_json = perple(
        &dir,
        &[
            "campaign", "compare", "ci-0001", "ci-0002", "--store", "store", "--json",
        ],
    );
    assert!(!cmp_json.status.success());
    assert!(
        stdout(&cmp_json).contains("\"regression\":true"),
        "{}",
        stdout(&cmp_json)
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rf_campaign_gates_clean_against_an_exhaustive_baseline() {
    // The counter backend partitions the cache (different fingerprints)
    // but must NOT change a single recorded count: a spec run under
    // `--counter rf` compared against its `--counter exhaustive` baseline
    // gates on nothing, across real process boundaries.
    let dir = sandbox("rfgate");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();

    let base = perple(
        &dir,
        &[
            "campaign",
            "run",
            "ci.campaign",
            "--store",
            "store",
            "--counter",
            "exhaustive",
        ],
    );
    assert!(base.status.success(), "{}", stderr(&base));
    assert!(stdout(&base).contains("hits: 0/4"), "{}", stdout(&base));

    let rf = perple(
        &dir,
        &[
            "campaign",
            "run",
            "ci.campaign",
            "--store",
            "store",
            "--counter",
            "rf",
        ],
    );
    assert!(rf.status.success(), "{}", stderr(&rf));
    assert!(
        stdout(&rf).contains("hits: 0/4"),
        "backends must not share cache entries: {}",
        stdout(&rf)
    );

    let cmp = perple(
        &dir,
        &[
            "campaign", "compare", "ci-0001", "ci-0002", "--store", "store",
        ],
    );
    assert!(
        cmp.status.success(),
        "rf vs exhaustive must gate clean: {}{}",
        stdout(&cmp),
        stderr(&cmp)
    );
    assert!(stdout(&cmp).contains("0 regression(s)"), "{}", stdout(&cmp));

    // And the bad backend name fails before touching the store.
    let bad = perple(
        &dir,
        &[
            "campaign",
            "run",
            "ci.campaign",
            "--store",
            "store",
            "--counter",
            "turbo",
        ],
    );
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("bad counter"), "{}", stderr(&bad));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ls_and_show_surface_stored_runs() {
    let dir = sandbox("lsshow");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();

    let empty = perple(&dir, &["campaign", "ls", "--store", "store"]);
    assert!(empty.status.success());
    assert!(
        stdout(&empty).contains("no stored runs"),
        "{}",
        stdout(&empty)
    );

    let run = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "store"],
    );
    assert!(run.status.success(), "{}", stderr(&run));

    let ls = perple(&dir, &["campaign", "ls", "--store", "store"]);
    let ls_out = stdout(&ls);
    assert!(ls.status.success());
    assert!(ls_out.contains("ci-0001"), "{ls_out}");
    assert!(
        ls_out.contains("cache: 4 result entries, 2 conversion artifacts"),
        "{ls_out}"
    );

    // `show latest` resolves and prints the per-item table.
    let show = perple(&dir, &["campaign", "show", "latest", "--store", "store"]);
    let show_out = stdout(&show);
    assert!(show.status.success(), "{}", stderr(&show));
    assert!(show_out.contains("ci-0001"), "{show_out}");
    assert!(show_out.contains("sb#1"), "{show_out}");
    assert!(show_out.contains("mp#2"), "{show_out}");

    // `show --json` wraps manifest + per-item records, parseable by the
    // shared reader.
    let json = perple(
        &dir,
        &["campaign", "show", "latest", "--store", "store", "--json"],
    );
    assert!(json.status.success());
    let doc = perple::jsonout::parse(stdout(&json).trim()).expect("show --json parses");
    assert_eq!(
        doc.get("manifest")
            .and_then(|m| m.get("id"))
            .and_then(perple::jsonout::Json::as_str),
        Some("ci-0001")
    );
    assert_eq!(
        doc.get("items")
            .and_then(perple::jsonout::Json::as_arr)
            .map(<[_]>::len),
        Some(4)
    );

    // `ls --json` carries the run list and cache stats in one document.
    let ls_json = perple(&dir, &["campaign", "ls", "--store", "store", "--json"]);
    assert!(ls_json.status.success());
    let doc = perple::jsonout::parse(stdout(&ls_json).trim()).expect("ls --json parses");
    let runs = doc
        .get("runs")
        .and_then(perple::jsonout::Json::as_arr)
        .expect("runs array");
    assert_eq!(runs.len(), 1);
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("results"))
            .and_then(perple::jsonout::Json::as_u64),
        Some(4)
    );

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn crashed_run_is_fscked_and_resumed_bit_identically() {
    let dir = sandbox("crash");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();

    // Reference: the same spec, uninterrupted, in its own store.
    let reference = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "refstore"],
    );
    assert!(reference.status.success(), "{}", stderr(&reference));
    let ref_items = std::fs::read(dir.join("refstore/runs/ci-0001/items.json")).unwrap();

    // Crash mid-campaign: boundary 20 lands inside the per-item
    // cache-store/journal-append region, after the pending marker and at
    // least one journaled record.
    let crashed = perple(
        &dir,
        &[
            "campaign",
            "run",
            "ci.campaign",
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
    assert!(
        stderr(&crashed).contains("injected crash"),
        "{}",
        stderr(&crashed)
    );

    // fsck (new process) sees the interrupted run; --repair leaves the
    // store healthy and still resumable.
    let fsck = perple(&dir, &["campaign", "fsck", "--store", "store", "--repair"]);
    assert!(
        fsck.status.success(),
        "fsck --repair must succeed: {}{}",
        stdout(&fsck),
        stderr(&fsck)
    );
    assert!(
        stdout(&fsck).contains("resumable ci-0001"),
        "{}",
        stdout(&fsck)
    );

    // Resume (new process, id inferred from the single pending run).
    let resume = perple(&dir, &["campaign", "resume", "--store", "store"]);
    assert!(resume.status.success(), "{}", stderr(&resume));
    let resume_out = stdout(&resume);
    assert!(resume_out.contains("run: ci-0001"), "{resume_out}");
    assert!(resume_out.contains("recovered:"), "{resume_out}");

    // The recovered run's item records are bit-identical to the
    // uninterrupted reference.
    let items = std::fs::read(dir.join("store/runs/ci-0001/items.json")).unwrap();
    assert_eq!(
        items, ref_items,
        "crash + fsck + resume must reproduce items.json byte-for-byte"
    );

    // The store is clean afterwards, and there is nothing left to resume.
    let clean = perple(&dir, &["campaign", "fsck", "--store", "store"]);
    assert!(clean.status.success(), "{}", stdout(&clean));
    assert!(stdout(&clean).contains("clean"), "{}", stdout(&clean));
    let nothing = perple(&dir, &["campaign", "resume", "--store", "store"]);
    assert!(!nothing.status.success());
    assert!(
        stderr(&nothing).contains("no interrupted runs"),
        "{}",
        stderr(&nothing)
    );

    // A malformed crash plan is rejected before the store is touched.
    let bad = perple(
        &dir,
        &[
            "campaign",
            "run",
            "ci.campaign",
            "--store",
            "other",
            "--crash",
            "explode@3",
        ],
    );
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("bad --crash plan"),
        "{}",
        stderr(&bad)
    );
    assert!(!dir.join("other").exists());

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_specs_and_unknown_runs_fail_cleanly() {
    let dir = sandbox("errors");

    std::fs::write(dir.join("bad.campaign"), "tests = sb\nfrobnicate = 1\n").unwrap();
    let bad = perple(
        &dir,
        &["campaign", "run", "bad.campaign", "--store", "store"],
    );
    assert!(!bad.status.success());
    assert!(stderr(&bad).contains("frobnicate"), "{}", stderr(&bad));

    std::fs::write(
        dir.join("badinject.campaign"),
        "tests = sb\ninject = bad@\n",
    )
    .unwrap();
    let inj = perple(
        &dir,
        &["campaign", "run", "badinject.campaign", "--store", "store"],
    );
    assert!(!inj.status.success());
    assert!(stderr(&inj).contains("bad fault plan"), "{}", stderr(&inj));

    let missing = perple(&dir, &["campaign", "show", "nope", "--store", "store"]);
    assert!(!missing.status.success());
    assert!(
        stderr(&missing).contains("not found"),
        "{}",
        stderr(&missing)
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// `campaign run ... --crash abort@20` against `store`: the run must die.
fn crash_run(dir: &Path, spec: &str) {
    let crashed = perple(
        dir,
        &[
            "campaign", "run", spec, "--store", "store", "--crash", "abort@20",
        ],
    );
    assert!(
        !crashed.status.success(),
        "injected crash must kill the run"
    );
    assert!(
        stderr(&crashed).contains("injected crash"),
        "{}",
        stderr(&crashed)
    );
}

/// `campaign fsck --repair`, which must leave `ci-0001` resumable.
fn repair_leaves_resumable(dir: &Path) {
    let fsck = perple(dir, &["campaign", "fsck", "--store", "store", "--repair"]);
    assert!(fsck.status.success(), "{}{}", stdout(&fsck), stderr(&fsck));
    assert!(
        stdout(&fsck).contains("resumable ci-0001"),
        "{}",
        stdout(&fsck)
    );
}

#[test]
fn crashed_resume_is_fscked_and_resumed_bit_identically() {
    let dir = sandbox("crash-resume");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();
    let reference = perple(
        &dir,
        &["campaign", "run", "ci.campaign", "--store", "refstore"],
    );
    assert!(reference.status.success(), "{}", stderr(&reference));
    let ref_items = std::fs::read(dir.join("refstore/runs/ci-0001/items.json")).unwrap();

    crash_run(&dir, "ci.campaign");
    repair_leaves_resumable(&dir);

    // The resume itself crashes; boundary 2 lands among the first
    // remaining item's cache and journal writes, long before finalize, so
    // the run stays resumable.
    let crashed = perple(
        &dir,
        &[
            "campaign", "resume", "--store", "store", "--crash", "abort@2",
        ],
    );
    assert!(
        !crashed.status.success(),
        "injected crash must kill the resume"
    );
    assert!(
        stderr(&crashed).contains("injected crash"),
        "{}",
        stderr(&crashed)
    );
    repair_leaves_resumable(&dir);

    let resume = perple(&dir, &["campaign", "resume", "--store", "store"]);
    assert!(resume.status.success(), "{}", stderr(&resume));
    assert!(
        stdout(&resume).contains("recovered:"),
        "{}",
        stdout(&resume)
    );
    let items = std::fs::read(dir.join("store/runs/ci-0001/items.json")).unwrap();
    assert_eq!(
        items, ref_items,
        "crash + fsck + crashed resume + fsck + resume must reproduce items.json byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resume_refuses_flags_that_would_edit_the_frozen_spec() {
    let dir = sandbox("resume-flags");
    std::fs::write(dir.join("ci.campaign"), SPEC).unwrap();
    crash_run(&dir, "ci.campaign");
    // Flags that would edit the frozen spec are refused by name, before
    // the interrupted run is touched: it stays resumable.
    for args in [
        &["--model", "pso"][..],
        &["--counter", "exhaustive"],
        &["--allow-lints"],
    ] {
        let mut argv = vec!["campaign", "resume", "--store", "store"];
        argv.extend_from_slice(args);
        let refused = perple(&dir, &argv);
        assert!(!refused.status.success(), "{args:?}");
        let want = format!("{} is not accepted by `campaign resume`", args[0]);
        assert!(stderr(&refused).contains(&want), "{}", stderr(&refused));
    }
    repair_leaves_resumable(&dir);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resumed_violations_name_the_spec_model() {
    let dir = sandbox("resume-model");
    std::fs::write(dir.join("pso.campaign"), FAULTY_PSO_SPEC).unwrap();
    let run = perple(
        &dir,
        &["campaign", "run", "pso.campaign", "--store", "refstore"],
    );
    assert!(!run.status.success());
    assert!(stderr(&run).contains("violates PSO"), "{}", stderr(&run));

    crash_run(&dir, "pso.campaign");
    repair_leaves_resumable(&dir);
    let resume = perple(&dir, &["campaign", "resume", "--store", "store"]);
    assert!(
        !resume.status.success(),
        "the resumed run still violates PSO"
    );
    assert!(
        stderr(&resume).contains("the machine under test violates PSO"),
        "{}",
        stderr(&resume)
    );
    assert!(!stderr(&resume).contains("x86-TSO"), "{}", stderr(&resume));
    let _ = std::fs::remove_dir_all(dir);
}
