//! End-to-end tests of the `perple` command-line interface.

use std::process::Command;

fn perple(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perple"))
        .args(args)
        .output()
        .expect("perple binary runs")
}

#[test]
fn list_shows_the_suite() {
    let out = perple(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sb"));
    assert!(text.contains("forbidden"));
    assert!(text.contains("54 non-convertible"));
}

#[test]
fn classify_reports_every_model() {
    let out = perple(&["classify", "sb"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("under SC:      false"));
    assert!(text.contains("under TSO:     true"));
    assert!(text.contains("under PSO:     true"));
    assert!(text.contains("under RELAXED: true"));
    assert!(text.contains("first reachable at TSO"));
    assert!(text.contains("target outcome"));
}

#[test]
fn run_detects_sb_and_stays_clean_on_mp() {
    let out = perple(&["run", "sb", "-n", "3000", "--seed", "5"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("target outcome occurrences (rf counter): "))
        .expect("count line")
        .parse()
        .expect("count parses");
    assert!(hits > 0);

    let out = perple(&["run", "mp", "-n", "3000"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("occurrences (rf counter): 0"));
    assert!(!text.contains("violates"));
}

#[test]
fn weak_machine_run_reports_the_violation() {
    let out = perple(&["run", "mp", "-n", "5000", "--weak"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violates x86-TSO"), "{text}");
}

#[test]
fn run_counter_flag_switches_backends_and_counts_agree() {
    // The same run under every backend: rf and exhaustive report the same
    // exact count; the heuristic may undercount but never overcount.
    let count_under = |backend: &str| -> u64 {
        let out = perple(&[
            "run",
            "sb",
            "-n",
            "2000",
            "--seed",
            "5",
            "--counter",
            backend,
        ]);
        assert!(out.status.success(), "{backend}");
        let text = String::from_utf8_lossy(&out.stdout);
        text.lines()
            .find_map(|l| {
                l.strip_prefix(&format!("target outcome occurrences ({backend} counter): "))
            })
            .unwrap_or_else(|| panic!("{backend} count line missing in {text}"))
            .parse()
            .expect("count parses")
    };
    let rf = count_under("rf");
    let exhaustive = count_under("exhaustive");
    let heuristic = count_under("heuristic");
    assert_eq!(rf, exhaustive, "rf must be bit-identical to exhaustive");
    assert!(heuristic <= rf);
    assert!(rf > 0, "sb target must be observed");

    let bad = perple(&["run", "sb", "--counter", "turbo"]);
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("bad counter"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn workers_is_rejected_where_no_pool_runs() {
    for args in [
        &["run", "sb", "-n", "50", "--workers", "2"][..],
        &["trace", "sb", "-n", "2", "--workers", "2"],
    ] {
        let out = perple(args);
        assert!(!out.status.success(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("--workers is not accepted by `{}`", args[0])),
            "{args:?}: {err}"
        );
    }
    for args in [
        &["audit", "-n", "60", "--workers", "2"][..],
        &["infer", "-n", "60", "--workers", "2"],
    ] {
        let out = perple(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn audit_json_records_the_counter_backend() {
    let out = perple(&["audit", "-n", "80", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"counter\":\"rf\""),
        "rf is the audit default"
    );
    assert!(text.contains("\"rf_fallback\":false"), "{text}");

    let out = perple(&["audit", "-n", "80", "--json", "--counter", "exhaustive"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"counter\":\"exhaustive\""), "{text}");
}

#[test]
fn trace_produces_an_event_log() {
    let out = perple(&["trace", "sb", "-n", "2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("store mem["));
    assert!(text.contains("drain mem["));
    assert!(text.contains("cycles"));
}

/// The model `perple infer` names: the first word after
/// `inferred model: `.
fn inferred_model(args: &[&str]) -> String {
    let out = perple(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("inferred model: "))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("{args:?}: no model line in {text}"))
        .to_owned()
}

#[test]
fn infer_names_the_machine_model() {
    // Default iteration count and seed: each machine is named exactly.
    for model in ["sc", "tso", "pso", "relaxed"] {
        assert_eq!(inferred_model(&["infer", "--model", model]), model);
    }
    // The weak-store-order machine reorders stores: PSO, not TSO.
    assert_eq!(inferred_model(&["infer", "--weak"]), "pso");
}

#[test]
fn infer_with_the_frame_capped_exhaustive_counter_keeps_heuristic_hits() {
    // The suite's exhaustive scans stop at 10^6 frames, so on T_L = 3
    // tests they can miss targets the heuristic counter saw (podwr001 on
    // the pso machine at seed 1). Those hits still count: the observed
    // tests are the ones the exact rf counter observes.
    let observed = |counter: &str| -> Vec<String> {
        let args = [
            "infer",
            "--model",
            "pso",
            "--seed",
            "1",
            "--counter",
            counter,
        ];
        let out = perple(&args);
        assert!(out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
            .collect()
    };
    let exhaustive = observed("exhaustive");
    assert!(exhaustive.iter().any(|t| t == "podwr001"), "{exhaustive:?}");
    assert_eq!(exhaustive, observed("rf"));
}

#[test]
fn infer_under_a_fault_plan_names_no_model_stronger_than_the_machine() {
    // Corrupted values read as targets no model allows ("none"); what the
    // run may never do is name SC for a TSO machine.
    let named = inferred_model(&["infer", "--inject", "corrupt@*:0..4000"]);
    assert!(
        ["none", "tso", "pso", "relaxed"].contains(&named.as_str()),
        "a faulty tso machine was named {named}"
    );
}

#[test]
fn convert_emits_all_artifacts() {
    let out = perple(&["convert", "sb"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("perp_thread_0"));
    assert!(text.contains("t0_reads = 1"));
    assert!(text.contains("void COUNT("));
    assert!(text.contains("void COUNTH("));
}

#[test]
fn convert_rejects_non_convertible_tests() {
    let out = perple(&["convert", "2+2w"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("not convertible"), "{text}");
}

#[test]
fn classify_accepts_litmus_files() {
    let dir = std::env::temp_dir().join(format!("perple-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("custom.litmus");
    std::fs::write(
        &path,
        "X86 custom\n{ x=0; y=0; }\n P0          | P1          ;\n MOV [x],$1  | MOV [y],$1  ;\n MOV EAX,[y] | MOV EAX,[x] ;\nexists (0:EAX=0 /\\ 1:EAX=0)\n",
    )
    .unwrap();
    let out = perple(&["classify", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("under TSO:     true"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!perple(&[]).status.success());
    assert!(!perple(&["frobnicate"]).status.success());
    assert!(!perple(&["classify", "no-such-test-or-file"])
        .status
        .success());
    assert!(!perple(&["run", "sb", "-n", "not-a-number"])
        .status
        .success());
}
