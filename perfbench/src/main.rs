//! The repository benchmark: four workloads that each stress a different
//! layer of the pipeline, measured end to end with tracing off, or layer
//! by layer in a traced run.
//!
//! ```text
//! perple-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                      --root <scratch dir> --reference <dir> [--bless]
//! perple-perfbench serve-child --socket <path> --store <dir>
//! ```
//!
//! `run` prints a table for people, then one JSON result line. Every
//! output check runs before a number is reported; a failed check prints
//! `"correct": false` with no metrics. `serve-child` is the server process
//! of the `serve-mixed` workload (see `serve.rs`). `perfbench/run.py` is
//! the entry point that builds this package and drives it.

mod batch;
mod checks;
mod layers;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names. `BENCHMARK.json` lists all but `generated-cache`, whose
/// figures the shared host leaves too unsteady for a bound (see README).
const WORKLOADS: [&str; 4] = ["tl3-count", "suite-sim", "generated-cache", "serve-mixed"];

/// Parsed `run` arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Empty scratch directory for stores and sockets (removed at exit).
    pub root: PathBuf,
    /// Directory holding the pinned reference records.
    pub reference: PathBuf,
    /// Rewrite the reference records instead of checking them.
    pub bless: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What a checked run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: checks::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from(".bench_work"),
        reference: PathBuf::from("perfbench/reference"),
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            out.bless = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--root" => out.root = value.into(),
            "--reference" => out.reference = value.into(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {})",
            out.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(out.seconds > 0.0 && out.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            out.seconds
        ));
    }
    Ok(out)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&args.root);
    std::fs::create_dir_all(&args.root)
        .map_err(|e| format!("cannot create {}: {e}", args.root.display()))?;
    let report = match args.workload.as_str() {
        "serve-mixed" => serve::run(args),
        _ => batch::run(args),
    };
    let _ = std::fs::remove_dir_all(&args.root);
    let report = report?;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number: {}", m.name, m.value));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => {}
        Some("serve-child") => return serve::child(&argv[1..]),
        _ => {
            eprintln!("usage: perple-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--root DIR] [--reference DIR] [--bless]\n       perple-perfbench serve-child --socket PATH --store DIR");
            return ExitCode::from(2);
        }
    }
    let args = match parse_run_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perple-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    true,
                    report.attempted.max(1),
                    report.failed,
                    &report.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("perple-perfbench: check failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
        }
    }
    ExitCode::SUCCESS
}
