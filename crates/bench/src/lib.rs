//! # perple-bench
//!
//! Benchmark harness for the PerpLE reproduction: one binary per paper
//! table/figure (`table2`, `fig9`, `fig10`, `fig11`, `fig12`, `fig13`,
//! `overall`) plus [`micro`] benchmarks for the counters, the simulator,
//! conversion, and the baseline synchronization modes.
//!
//! Every binary accepts `--iterations N`, `--seed S`, `--workers W`,
//! `--timeout-ms T`, `--retries R`, and `--inject PLAN` overrides, e.g.:
//!
//! ```text
//! cargo run --release -p perple-bench --bin fig9 -- --iterations 10000 --workers 8
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use perple::experiments::ExperimentConfig;
use perple::{FaultPlan, ModelId};

pub mod micro;

/// Parses `--iterations N`, `--seed S`, `--workers W`, `--timeout-ms T`,
/// `--retries R`, `--inject PLAN`, and `--model M` from the command line
/// on top of the given defaults. Unknown arguments are rejected with a
/// usage message.
///
/// # Panics
/// Exits the process with a usage message on malformed arguments.
pub fn config_from_args(default_iterations: u64) -> ExperimentConfig {
    parse_args(std::env::args().skip(1), default_iterations).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!(
            "usage: <bin> [--iterations N] [--seed S] [--workers W] \
                 [--timeout-ms T] [--retries R] [--inject PLAN] [--model M]"
        );
        std::process::exit(2);
    })
}

fn parse_args<I: Iterator<Item = String>>(
    mut args: I,
    default_iterations: u64,
) -> Result<ExperimentConfig, String> {
    let mut cfg = ExperimentConfig::default().with_iterations(default_iterations);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iterations" | "-n" => {
                let v = args.next().ok_or("missing value for --iterations")?;
                cfg.iterations = v
                    .parse()
                    .map_err(|_| format!("bad iteration count {v:?}"))?;
            }
            "--seed" | "-s" => {
                let v = args.next().ok_or("missing value for --seed")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--workers" | "-w" => {
                let v = args.next().ok_or("missing value for --workers")?;
                let w: usize = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                if w == 0 {
                    return Err("--workers must be at least 1".into());
                }
                cfg = cfg.with_workers(w);
            }
            "--timeout-ms" => {
                let v = args.next().ok_or("missing value for --timeout-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad timeout {v:?}"))?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".into());
                }
                cfg.timeout_ms = Some(ms);
            }
            "--retries" => {
                let v = args.next().ok_or("missing value for --retries")?;
                cfg.retries = v.parse().map_err(|_| format!("bad retry count {v:?}"))?;
            }
            "--inject" => {
                let v = args.next().ok_or("missing value for --inject")?;
                cfg.fault_plan =
                    FaultPlan::parse(&v).map_err(|e| format!("bad --inject plan: {e}"))?;
            }
            "--model" => {
                let v = args.next().ok_or("missing value for --model")?;
                cfg.model = ModelId::parse(&v)
                    .ok_or_else(|| format!("bad model {v:?} (sc, tso, pso, or relaxed)"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], n: u64) -> Result<ExperimentConfig, String> {
        parse_args(args.iter().map(|s| s.to_string()), n)
    }

    #[test]
    fn defaults_apply() {
        let cfg = parse(&[], 500).unwrap();
        assert_eq!(cfg.iterations, 500);
    }

    #[test]
    fn overrides_apply() {
        let cfg = parse(&["--iterations", "123", "--seed", "7"], 500).unwrap();
        assert_eq!(cfg.iterations, 123);
        assert_eq!(cfg.seed, 7);
        let cfg = parse(&["-n", "9"], 500).unwrap();
        assert_eq!(cfg.iterations, 9);
    }

    #[test]
    fn workers_flag_sets_the_suite_pool_width() {
        let cfg = parse(&["--workers", "6"], 100).unwrap();
        assert_eq!(cfg.workers, 6);
        assert!(parse(&["--workers", "0"], 100).is_err());
        assert!(parse(&["-w", "zero"], 100).is_err());
    }

    #[test]
    fn resilience_flags_apply() {
        let cfg = parse(
            &[
                "--timeout-ms",
                "250",
                "--retries",
                "2",
                "--inject",
                "drop@t0:0..100:p0.5",
            ],
            100,
        )
        .unwrap();
        assert_eq!(cfg.timeout_ms, Some(250));
        assert_eq!(cfg.retries, 2);
        assert!(!cfg.fault_plan.is_empty());
        assert!(parse(&["--timeout-ms", "0"], 1).is_err());
        assert!(parse(&["--inject", "bogus"], 1).is_err());
    }

    #[test]
    fn model_flag_applies() {
        let cfg = parse(&["--model", "relaxed"], 100).unwrap();
        assert_eq!(cfg.model, ModelId::Relaxed);
        assert_eq!(parse(&[], 100).unwrap().model, ModelId::Tso);
        assert!(parse(&["--model", "alpha"], 1).is_err());
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse(&["--iterations"], 1).is_err());
        assert!(parse(&["--iterations", "x"], 1).is_err());
        assert!(parse(&["--wat"], 1).is_err());
        assert!(parse(&["--seed", "-1"], 1).is_err());
    }
}
