//! `perple` — command-line front end to the Perpetual Litmus Engine.
//!
//! ```text
//! perple classify <test-name | file.litmus>   per-model reachability table
//! perple convert  <test-name | file.litmus>   emit perpetual asm + counters
//! perple run      <test-name> [-n N] [--seed S] [--weak] [--model M]
//!                 [--timeout-ms T] [--inject PLAN] [--counter C] [--trace FILE]
//! perple audit    [-n N] [--workers W] [--timeout-ms T] [--retries R]
//!                 [--inject PLAN] [--counter C] [--model M] [--json]
//!                                             whole-suite consistency audit
//! perple trace    <test-name> [-n N]          event log of a short run
//! perple infer    [-n N] [--workers W] [--weak] [--model M] [--inject PLAN]
//!                                             name the machine's model
//! perple list                                 list the built-in suite
//! perple lint [--json] [--deny warnings] [--iterations N] [--value-bits B]
//!             [--model M|all] [--bugfinder]
//!             <test-name | file.litmus>...    static analysis of litmus tests
//! perple solve <test-name | file.litmus> [--model M|all] [--json]
//!              [--witness] [--oracle]         static feasibility verdicts
//!                                             (--oracle: operational enumerator)
//! perple gen  [--count N] [--model M] [--out DIR] [--max-len L]
//!             [--max-threads T]               generate a litmus corpus
//! perple campaign run <spec-file> [--store DIR] [--allow-lints] [--counter C]
//!                 [--model M] [--crash PLAN]
//! perple campaign resume [run-id] [--store DIR]
//! perple campaign fsck [--store DIR] [--repair] [--json]
//! perple campaign ls [--store DIR] [--json]
//! perple campaign show <run|latest> [--store DIR] [--json]
//! perple campaign compare <base> <new> [--store DIR] [--json]
//! perple serve [--addr HOST:PORT | --socket PATH] [--workers N]
//!              [--store DIR] [--queue N] [--quota N] [--model M]
//! perple client <submit <spec-file> [--client NAME] [--no-wait]
//!               | status <job-id> | stats | metrics>
//!               [--addr HOST:PORT | --socket PATH]
//! ```
//!
//! Every campaign subcommand (and `serve`) reads the store root from
//! `--store DIR`, falling back to the `PERPLE_STORE` environment
//! variable, then `results/store`.
//!
//! `--timeout-ms` arms a per-stage watchdog (run and count stages each get
//! their own budget; expiry yields a partial, flagged result). `--retries`
//! re-runs failed audit tests with deterministically perturbed seeds.
//! `--inject` takes a machine fault plan, e.g.
//! `drop@t0:100..200:p0.5,stuck@*:0..50:c30` (see `FaultPlan::parse`).
//! `--counter` picks the counting backend: `heuristic` (linear, one frame
//! per iteration), `exhaustive` (all `N^{T_L}` frames, up to the frame
//! cap), or `rf` (exact polynomial reads-from closure — the default for
//! `run`, `audit` and campaigns).
//! `--workers W` sizes the suite-level worker pool, so only the
//! subcommands that run one accept it (`audit`, `infer`, `serve`); every
//! counter is one serial scan.
//! `--model` picks the memory model the simulated machine executes —
//! `sc`, `tso` (default), `pso`, or `relaxed` — and the model verdicts
//! are checked against (a target forbidden under the selected model that
//! fires is a violation). Campaign specs carry the same choice as a
//! `model =` line, and `serve --model` sets the default for submitted
//! specs that omit it.
//! `--trace FILE` records a hierarchical span trace of the pipeline
//! (convert → simulate → count) as Chrome `trace_event` JSON — load it at
//! `chrome://tracing` or <https://ui.perfetto.dev> — and prints a flame
//! summary plus the run's metric counters on exit.

use std::process::ExitCode;

use perple::experiments::infer::Inference;
use perple::experiments::resilient::{audit_json, render_audit_text, resilient_audit};
use perple::experiments::ExperimentConfig;
use perple::{
    classify, forbidden_under, Conversion, CounterKind, FaultPlan, ModelId, PerpleRunner, SimConfig,
};
use perple_model::{parser, suite, LitmusTest};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("classify") => cmd_classify(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("list") => cmd_list(),
        Some("lint") => cmd_lint(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        _ => {
            eprintln!(
                "usage: perple <classify|convert|run|audit|list> [args]\n\
                 \n\
                 classify <test|file>        reachability under every model\n\
                 convert  <test|file>        emit perpetual artifacts\n\
                 run      <test> [-n N] [--seed S] [--weak] [--model M]\n\
                 \x20                [--timeout-ms T] [--inject PLAN] [--counter C]\n\
                 \x20                [--trace FILE]\n\
                 audit    [-n N] [--workers W] [--timeout-ms T] [--retries R]\n\
                 \x20                [--inject PLAN] [--counter C] [--model M] [--json]\n\
                 \x20                            run the Table II suite\n\
                 trace    <test> [-n N]      event log of a short run\n\
                 infer    [-n N] [--workers W] [--weak] [--model M] [--inject PLAN]\n\
                 \x20                            name the machine's model from the suite\n\
                 list                        list built-in tests\n\
                 lint     [--json] [--deny warnings] [--model M|all] [--bugfinder]\n\
                 \x20         <test|file>...     static analysis (exit 1 on errors)\n\
                 solve    <test|file> [--model M|all] [--json] [--witness] [--oracle]\n\
                 \x20                            static feasibility verdicts\n\
                 \x20                            (--oracle: operational enumerator)\n\
                 gen      [--count N] [--model M] [--out DIR]\n\
                 \x20                            generate a litmus corpus\n\
                 campaign run <spec> [--store DIR] [--allow-lints] [--counter C]\n\
                 \x20             [--model M]                  run a campaign spec\n\
                 campaign resume [run-id] [--store DIR]     finish an interrupted run\n\
                 campaign fsck [--store DIR] [--repair]     check/repair the store\n\
                 campaign ls [--store DIR] [--json]         list stored runs\n\
                 campaign show <run|latest> [--json]        inspect one run\n\
                 campaign compare <base> <new> [--json]     regression gate (exit 1)\n\
                 serve  [--addr H:P | --socket PATH] [--workers N] [--store DIR]\n\
                 \x20                            campaign submission server (JSONL streams)\n\
                 client <submit <spec>|status <id>|stats|metrics>\n\
                 \x20                            talk to a running perple serve\n\
                 \n\
                 --timeout-ms T   per-stage watchdog budget (partial results flagged)\n\
                 --retries R      retry failed audit tests with perturbed seeds\n\
                 --inject PLAN    machine fault plan, e.g. drop@t0:100..200:p0.5\n\
                 --counter C      counting backend: exhaustive, heuristic, or rf (default)\n\
                 --workers W      suite worker pool width (audit, infer, serve)\n\
                 --model M        memory model: sc, tso (default), pso, or relaxed\n\
                 --trace FILE     write a Chrome trace_event JSON span trace"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The model name violation messages use: the historic "x86-TSO" for the
/// default, the model's display name otherwise.
fn model_label(model: ModelId) -> String {
    if model == ModelId::Tso {
        "x86-TSO".to_owned()
    } else {
        model.to_string()
    }
}

/// Loads a test by suite name or from a litmus7-format file.
fn load_test(spec: &str) -> Result<LitmusTest, String> {
    if let Some(t) = suite::by_name(spec) {
        return Ok(t);
    }
    let src = std::fs::read_to_string(spec)
        .map_err(|e| format!("{spec} is neither a suite test nor a readable file: {e}"))?;
    parser::parse(&src).map_err(|e| e.to_string())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("classify needs a test name or file")?;
    let test = load_test(spec)?;
    println!("{test}");
    let c = classify(&test);
    for model in ModelId::ALL {
        println!(
            "condition reachable under {:<8} {}",
            format!("{model}:"),
            c.allowed_under(model)
        );
    }
    match c.strongest_allowing() {
        Some(m) if m != ModelId::Sc => {
            println!("=> first reachable at {m}: distinguishes {m} from stronger models");
        }
        Some(_) => {}
        None => println!("=> unreachable under every supported model"),
    }
    if c.is_target() {
        println!("=> a target outcome: distinguishes TSO from SC (store buffering)");
    }
    println!(
        "convertible to a perpetual test: {}",
        perple_convert::is_convertible(&test)
    );
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("convert needs a test name or file")?;
    let test = load_test(spec)?;
    let conv = Conversion::convert(&test).map_err(|e| e.to_string())?;
    print!(
        "{}",
        perple_convert::artifact::ArtifactBundle::from_conversion(&conv).render_text()
    );
    Ok(())
}

/// Flags shared by the run-style subcommands.
struct RunFlags {
    n: u64,
    seed: u64,
    weak: bool,
    /// Suite-pool width (`--workers N`); `None` keeps the default
    /// (available parallelism). Only `audit` and `infer` run a pool, so
    /// the other run-style subcommands reject the flag.
    workers: Option<usize>,
    /// Per-stage watchdog budget (`--timeout-ms T`); `None` = unlimited.
    timeout_ms: Option<u64>,
    /// Retries for failed audit tests (`--retries R`).
    retries: u32,
    /// Machine fault-injection plan (`--inject PLAN`).
    inject: Option<FaultPlan>,
    /// Counter backend (`--counter {exhaustive,heuristic,rf}`), defaulting
    /// to [`ExperimentConfig::default`]'s.
    counter: CounterKind,
    /// Emit JSON instead of the text report (`--json`, audit only).
    json: bool,
    /// Memory model the simulated machine executes (`--model M`); `None`
    /// keeps the default (TSO).
    model: Option<ModelId>,
    /// Write a Chrome `trace_event` span trace here (`--trace FILE`).
    trace: Option<String>,
}

impl RunFlags {
    /// The experiment configuration these flags describe, validated
    /// through [`ExperimentConfig::builder`].
    fn experiment_config(&self) -> Result<ExperimentConfig, String> {
        let mut builder = ExperimentConfig::builder()
            .iterations(self.n)
            .seed(self.seed)
            .timeout_ms(self.timeout_ms)
            .retries(self.retries)
            .fault_plan(self.inject.clone().unwrap_or_else(FaultPlan::none))
            .weak_machine(self.weak)
            .counter(self.counter);
        if let Some(workers) = self.workers {
            builder = builder.workers(workers);
        }
        if let Some(model) = self.model {
            builder = builder.model(model);
        }
        builder.build().map_err(|e| e.to_string())
    }

    /// Rejects `--workers` for a subcommand that runs no worker pool,
    /// rather than silently ignoring it.
    fn reject_workers(&self, cmd: &str) -> Result<(), String> {
        match self.workers {
            Some(_) => Err(format!(
                "--workers is not accepted by `{cmd}`: it runs no worker pool \
                 (use it with audit, infer or serve)"
            )),
            None => Ok(()),
        }
    }
}

fn parse_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        n: 10_000,
        seed: 0xCAFE,
        weak: false,
        workers: None,
        timeout_ms: None,
        retries: 0,
        inject: None,
        counter: ExperimentConfig::default().counter,
        json: false,
        model: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-n" | "--iterations" => {
                flags.n = it
                    .next()
                    .ok_or("missing value for -n")?
                    .parse()
                    .map_err(|e| format!("bad iteration count: {e}"))?;
            }
            "--seed" | "-s" => {
                flags.seed = it
                    .next()
                    .ok_or("missing value for --seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--workers" | "-w" => {
                let workers: usize = it
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
                flags.workers = Some(workers);
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("missing value for --timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad timeout: {e}"))?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".into());
                }
                flags.timeout_ms = Some(ms);
            }
            "--retries" => {
                flags.retries = it
                    .next()
                    .ok_or("missing value for --retries")?
                    .parse()
                    .map_err(|e| format!("bad retry count: {e}"))?;
            }
            "--inject" => {
                let plan = it.next().ok_or("missing value for --inject")?;
                flags.inject = Some(perple::parse_fault_plan(plan).map_err(|e| e.to_string())?);
            }
            "--counter" => {
                let name = it.next().ok_or("missing value for --counter")?;
                flags.counter = CounterKind::parse(name).ok_or_else(|| {
                    format!("bad counter {name:?} (expected exhaustive, heuristic, or rf)")
                })?;
            }
            "--json" => flags.json = true,
            "--weak" => flags.weak = true,
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                flags.model = Some(ModelId::parse(name).ok_or_else(|| {
                    format!("bad model {name:?} (expected sc, tso, pso, or relaxed)")
                })?);
            }
            "--trace" => {
                flags.trace = Some(it.next().ok_or("missing value for --trace")?.to_owned());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("run needs a test name or file")?;
    let test = load_test(spec)?;
    let flags = parse_flags(&args[1..])?;
    flags.reject_workers("run")?;
    if flags.trace.is_some() {
        perple::obs::trace::start();
    }
    let metrics_before = perple::obs::metrics::snapshot();
    let cfg = flags.experiment_config()?;
    let conv = Conversion::convert(&test).map_err(|e| e.to_string())?;
    let mut runner = PerpleRunner::new(cfg.sim_config(flags.seed));
    let run = runner.run_budgeted(&conv.perpetual, flags.n, &cfg.stage_budget());
    let n = run.iterations;
    let budget = cfg.timeout_ms.map(|_| cfg.stage_budget());
    let bufs = run.bufs();
    let mut req = perple::CountRequest::new(&bufs, n);
    if let Some(b) = budget.as_ref() {
        req = req.with_budget(b);
    }
    let kind = cfg.counter;
    let count = {
        use perple::Counter as _;
        match kind {
            CounterKind::Heuristic => {
                perple::HeuristicCounter::single(&conv.target_heuristic).count(&req)
            }
            CounterKind::Exhaustive => perple::ExhaustiveCounter::single(&conv.target_exhaustive)
                .count(&req.with_frame_cap(cfg.exhaustive_frame_cap)),
            CounterKind::Rf => perple::RfCounter::single(&conv.target_exhaustive)
                .count(&req.with_frame_cap(cfg.exhaustive_frame_cap)),
        }
    };
    if let Some(path) = &flags.trace {
        let trace = perple::obs::trace::finish();
        std::fs::write(path, trace.chrome_json())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        print!("{}", trace.flame_summary());
        print!(
            "{}",
            perple::obs::metrics::snapshot()
                .delta_from(&metrics_before)
                .render_text()
        );
        println!("trace written to {path}");
    }
    println!(
        "{}: {} iterations in {} simulated cycles{}{}{}",
        test.name(),
        n,
        run.exec_cycles,
        if flags.weak {
            " (weak-store-order machine)"
        } else {
            ""
        },
        if cfg.model != ModelId::Tso {
            format!(" ({} machine)", cfg.model)
        } else {
            String::new()
        },
        if run.complete {
            ""
        } else {
            " [truncated by --timeout-ms]"
        },
    );
    if run.faults > 0 {
        println!("machine faults injected: {}", run.faults);
    }
    println!(
        "target outcome occurrences ({} counter): {}",
        kind.name(),
        count.counts[0]
    );
    for note in count_notes(&count) {
        println!("{note}");
    }
    if count.counts[0] > 0 && forbidden_under(&test, cfg.model) {
        println!(
            "!! {}-forbidden target observed: the machine violates {}",
            cfg.model,
            model_label(cfg.model)
        );
    }
    Ok(())
}

/// The caveats `perple run` prints under its count line: an rf fallback,
/// and any truncation (frame cap or `--timeout-ms`) that makes the count
/// cover a prefix of the frames rather than all of them.
fn count_notes(count: &perple::CountResult) -> Vec<String> {
    let mut notes = Vec::new();
    if count.downgraded {
        notes.push("(outcome outside the rf fragment; exhaustive fallback counted it)".to_owned());
    }
    if count.truncated {
        notes.push(format!(
            "(counting truncated by the exhaustive frame cap: {} frames examined; \
             the count is a lower bound, --counter rf counts exactly)",
            count.frames_examined
        ));
    }
    if count.budget_expired {
        notes.push(format!(
            "(counting truncated by --timeout-ms: {} frames examined)",
            count.frames_examined
        ));
    }
    notes
}

/// The configuration of a whole-suite audit (`audit`, `infer`). T_L = 3
/// suite tests scan N^3 frames exhaustively; cap the scan so the CLI stays
/// interactive (rows degrade to heuristic counts only on --timeout-ms
/// expiry, the cap just truncates). Both commands treat a target as
/// observed when either column counted it ([`Inference::from_report`]),
/// so a truncated scan loses no heuristic hit.
fn suite_config(flags: &RunFlags) -> Result<ExperimentConfig, String> {
    let mut cfg = flags.experiment_config()?;
    cfg.exhaustive_frame_cap = Some(1_000_000);
    Ok(cfg)
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let cfg = suite_config(&flags)?;
    let report = resilient_audit(&cfg);
    let violations = Inference::from_report(&report)
        .evidence
        .iter()
        .filter(|e| e.violates(cfg.model))
        .count();
    if flags.json {
        println!("{}", audit_json(&report));
    } else {
        print!("{}", render_audit_text(&report));
        println!(
            "{violations} consistency violations; {} tests quarantined",
            report.quarantined().len()
        );
    }
    if violations > 0 {
        return Err(format!(
            "the machine under test violates {}",
            model_label(cfg.model)
        ));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("trace needs a test name or file")?;
    let test = load_test(spec)?;
    let flags = parse_flags(&args[1..])?;
    flags.reject_workers("trace")?;
    let n = flags.n.min(50); // event logs of long runs are unreadable
    let conv = Conversion::convert(&test).map_err(|e| e.to_string())?;
    let specs = perple_harness::perpetual::thread_specs(&conv.perpetual, n);
    let mut machine = perple_sim::Machine::new(
        SimConfig::default()
            .with_seed(flags.seed)
            .with_weak_store_order(flags.weak)
            .with_model(flags.model.unwrap_or_default()),
    );
    let mut trace = perple_sim::Trace::with_capacity(10_000);
    let out = machine.run_traced(&specs, test.location_count(), &mut trace);
    print!("{}", trace.render());
    println!("-- {} cycles, {} drains --", out.cycles, out.drains);
    Ok(())
}

fn cmd_infer(args: &[String]) -> Result<(), String> {
    let cfg = suite_config(&parse_flags(args)?)?;
    print!(
        "{}",
        Inference::from_report(&resilient_audit(&cfg)).render()
    );
    Ok(())
}

/// Flags shared by the campaign subcommands.
struct CampaignFlags {
    store: std::path::PathBuf,
    json: bool,
    trace: Option<String>,
    allow_lints: bool,
    /// `--counter C`: overrides the spec's `counter =` line for this run.
    counter: Option<String>,
    /// `--model M`: overrides the spec's `model =` line for this run.
    model: Option<String>,
    /// `--crash PLAN`: a store-write crash-injection plan (`abort@K`,
    /// `transient@K[:N]`, comma-separated) — the CLI face of the crash
    /// matrix.
    crash: Option<perple::campaign::CrashPlan>,
    /// `--repair`: let `campaign fsck` apply its safe repairs.
    repair: bool,
    rest: Vec<String>,
}

/// Splits `--store DIR` (default `results/store`), `--json`,
/// `--trace FILE`, `--allow-lints`, `--counter C`, `--crash PLAN` and
/// `--repair` out of a campaign subcommand's arguments, returning the
/// positional rest.
fn campaign_flags(args: &[String]) -> Result<CampaignFlags, String> {
    let mut flags = CampaignFlags {
        store: perple::campaign::RunStore::default_root(),
        json: false,
        trace: None,
        allow_lints: false,
        counter: None,
        model: None,
        crash: None,
        repair: false,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                flags.store = it.next().ok_or("missing value for --store")?.into();
            }
            "--json" => flags.json = true,
            "--trace" => {
                flags.trace = Some(it.next().ok_or("missing value for --trace")?.to_owned());
            }
            "--allow-lints" => flags.allow_lints = true,
            "--counter" => {
                let name = it.next().ok_or("missing value for --counter")?;
                if CounterKind::parse(name).is_none() {
                    return Err(format!(
                        "bad counter {name:?} (expected exhaustive, heuristic, or rf)"
                    ));
                }
                flags.counter = Some(name.to_owned());
            }
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                let model = ModelId::parse(name).ok_or_else(|| {
                    format!("bad model {name:?} (expected sc, tso, pso, or relaxed)")
                })?;
                flags.model = Some(model.name().to_owned());
            }
            "--crash" => {
                let plan = it.next().ok_or("missing value for --crash")?;
                flags.crash = Some(
                    perple::campaign::CrashPlan::parse(plan)
                        .map_err(|e| format!("bad --crash plan: {e}"))?,
                );
            }
            "--repair" => flags.repair = true,
            other => flags.rest.push(other.to_owned()),
        }
    }
    Ok(flags)
}

/// `perple lint`: runs the static analyzer over suite tests and/or litmus
/// files. Exits nonzero when the batch gates (any error, or any warning
/// under `--deny warnings`). `--model all` runs the rule set under every
/// memory model in one invocation and merges the findings into one report
/// with per-model columns; `--bugfinder` (matrix mode only) renders the
/// static exposability table instead — with no specs it defaults to the
/// convertible suite, the same scope the dynamic bug hunt runs.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    use perple::lint::{lint_source, lint_test, LintConfig, LintReport, MatrixReport, TestReport};
    let mut cfg = LintConfig::default();
    let mut json = false;
    let mut deny_warnings = false;
    let mut matrix = false;
    let mut bugfinder = false;
    let mut specs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--deny" => {
                let what = it.next().ok_or("missing value for --deny")?;
                if what != "warnings" {
                    return Err(format!("--deny takes 'warnings', got {what:?}"));
                }
                deny_warnings = true;
            }
            "--iterations" => {
                cfg.iterations = it
                    .next()
                    .ok_or("missing value for --iterations")?
                    .parse()
                    .map_err(|e| format!("bad --iterations: {e}"))?;
            }
            "--value-bits" => {
                cfg.value_bits = it
                    .next()
                    .ok_or("missing value for --value-bits")?
                    .parse()
                    .map_err(|e| format!("bad --value-bits: {e}"))?;
            }
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                if name == "all" {
                    matrix = true;
                } else {
                    cfg.model = ModelId::parse(name).ok_or_else(|| {
                        format!("bad model {name:?} (expected sc, tso, pso, relaxed, or all)")
                    })?;
                }
            }
            "--bugfinder" => bugfinder = true,
            other => specs.push(other.to_owned()),
        }
    }
    if bugfinder && !matrix {
        return Err("--bugfinder needs --model all (it compares per-model verdicts)".into());
    }
    if specs.is_empty() {
        if bugfinder {
            specs = suite::convertible()
                .iter()
                .map(|t| t.name().to_owned())
                .collect();
        } else {
            return Err("lint needs at least one test name or .litmus file".into());
        }
    }
    let build = |cfg: &LintConfig| -> Result<Vec<TestReport>, String> {
        let mut tests = Vec::with_capacity(specs.len());
        for spec in &specs {
            if let Some(t) = suite::by_name(spec) {
                tests.push(lint_test(&t, cfg));
            } else {
                let src = std::fs::read_to_string(spec).map_err(|e| {
                    format!("{spec} is neither a suite test nor a readable file: {e}")
                })?;
                let mut report = lint_source(&src, cfg).map_err(|e| format!("{spec}: {e}"))?;
                report.origin = Some(spec.clone());
                tests.push(report);
            }
        }
        Ok(tests)
    };
    if matrix {
        let mut runs = Vec::with_capacity(ModelId::ALL.len());
        for model in ModelId::ALL {
            let run_cfg = LintConfig {
                model,
                ..cfg.clone()
            };
            let tests = build(&run_cfg)?;
            runs.push((model, LintReport::new(run_cfg, tests)));
        }
        let report = MatrixReport::new(runs);
        if bugfinder {
            print!("{}", report.render_bugfinder());
        } else if json {
            println!("{}", report.to_json().render());
        } else {
            print!("{}", report.render_text());
        }
        if report.gates(deny_warnings) {
            return Err("lint findings at gating severity (see report above)".into());
        }
        return Ok(());
    }
    let report = LintReport::new(cfg.clone(), build(&cfg)?);
    if json {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.render_text());
    }
    if report.gates(deny_warnings) {
        return Err("lint findings at gating severity (see report above)".into());
    }
    Ok(())
}

/// `perple solve`: the constraint solver's static feasibility verdicts for
/// every outcome matching the test's condition, under one model or all
/// four. `--witness` prints the machine-checked evidence (a coherence
/// order + happens-before linearization for allowed, an unsatisfiable
/// core for forbidden). `--oracle` answers from the operational
/// enumerator instead (one enumeration per model, then a membership check
/// per outcome) — the verdict-only output is byte-identical when the two
/// agree, which is exactly what the CI differential `cmp`s.
fn cmd_solve(args: &[String]) -> Result<(), String> {
    use perple::jsonout::Json;
    use perple::solve;
    let mut json = false;
    let mut witness = false;
    let mut oracle = false;
    let mut all_models = false;
    let mut model = ModelId::default();
    let mut spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--witness" => witness = true,
            "--oracle" => oracle = true,
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                if name == "all" {
                    all_models = true;
                } else {
                    model = ModelId::parse(name).ok_or_else(|| {
                        format!("bad model {name:?} (expected sc, tso, pso, relaxed, or all)")
                    })?;
                }
            }
            other if !other.starts_with('-') => {
                if spec.replace(other.to_owned()).is_some() {
                    return Err("solve takes exactly one test name or file".into());
                }
            }
            other => return Err(format!("unknown solve flag {other:?}")),
        }
    }
    if oracle && witness {
        return Err("--oracle answers verdicts only; it cannot produce a --witness".into());
    }
    let spec = spec.ok_or("solve needs a test name or file")?;
    let test = load_test(&spec)?;
    let outcomes = test.outcomes_matching_condition();
    if outcomes.is_empty() {
        return Err(format!(
            "{}: no register outcome matches the condition (memory-inspecting \
             or unsatisfiable conditions are out of the solver's scope)",
            test.name()
        ));
    }
    let models: Vec<ModelId> = if all_models {
        ModelId::ALL.to_vec()
    } else {
        vec![model]
    };
    let reachable: Vec<_> = if oracle {
        models
            .iter()
            .map(|&m| perple::enumerate(&test, m).register_outcomes())
            .collect()
    } else {
        Vec::new()
    };
    let mut rows = Vec::new();
    for outcome in &outcomes {
        let mut results = Vec::new();
        for (mi, &m) in models.iter().enumerate() {
            if oracle {
                let verdict = if reachable[mi].contains(outcome) {
                    "allowed"
                } else {
                    "forbidden"
                };
                results.push((m, verdict.to_owned(), None, None));
                continue;
            }
            match solve::solve(&test, outcome, m) {
                Ok(solve::Verdict::Allowed(w)) => {
                    solve::verify_witness(&test, outcome, m, &w)
                        .map_err(|e| format!("internal error: witness failed replay: {e}"))?;
                    results.push((m, "allowed".to_owned(), Some(w), None));
                }
                Ok(solve::Verdict::Forbidden(core)) => {
                    let rendered = core.render(
                        &solve::events(&test, outcome)
                            .expect("a solved outcome always has an event graph"),
                    );
                    results.push((m, "forbidden".to_owned(), None, Some(rendered)));
                }
                Err(e) => results.push((m, format!("abstained: {e}"), None, None)),
            }
        }
        rows.push((outcome.label(), results));
    }
    if json {
        let body = Json::obj(vec![
            ("schema", Json::Str("perple-solve-v1".to_owned())),
            ("test", Json::Str(test.name().to_owned())),
            (
                "outcomes",
                Json::Arr(
                    rows.iter()
                        .map(|(label, results)| {
                            Json::obj(vec![
                                ("outcome", Json::Str(label.clone())),
                                (
                                    "results",
                                    Json::Arr(
                                        results
                                            .iter()
                                            .map(|(m, verdict, w, core)| {
                                                let mut pairs = vec![
                                                    ("model", Json::Str(m.name().to_owned())),
                                                    ("verdict", Json::Str(verdict.clone())),
                                                ];
                                                if witness {
                                                    if let Some(w) = w {
                                                        pairs.push(("witness", witness_json(w)));
                                                    }
                                                    if let Some(core) = core {
                                                        pairs.push((
                                                            "core",
                                                            Json::Str(core.clone()),
                                                        ));
                                                    }
                                                }
                                                Json::obj(pairs)
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", body.render());
        return Ok(());
    }
    println!(
        "{}: {} outcome(s) match the condition",
        test.name(),
        outcomes.len()
    );
    for (label, results) in &rows {
        for (m, verdict, w, core) in results {
            let evidence = if verdict == "allowed" {
                " (witness verified)"
            } else {
                ""
            };
            println!("  {label} under {:<8} {verdict}{evidence}", format!("{m}:"));
            if witness {
                if let Some(w) = w {
                    println!("    co: {:?}  order: {:?}", w.co, w.order);
                }
                if let Some(core) = core {
                    println!("    core: {core}");
                }
            }
        }
    }
    Ok(())
}

/// The JSON shape of a solver witness (used by `perple solve --witness`).
fn witness_json(w: &perple::solve::Witness) -> perple::jsonout::Json {
    use perple::jsonout::Json;
    let nums = |v: &[usize]| Json::Arr(v.iter().map(|&i| Json::from(i as u64)).collect());
    Json::obj(vec![
        (
            "co",
            Json::Arr(w.co.iter().map(|per_loc| nums(per_loc)).collect()),
        ),
        ("order", nums(&w.order)),
    ])
}

/// `perple gen`: emits the generated litmus corpus (critical-cycle
/// enumeration plus fence-augmented variants) and pre-classifies every
/// test's target with the constraint solver. `--out DIR` writes one
/// `.litmus` file per test; `--count N` keeps the first N.
fn cmd_gen(args: &[String]) -> Result<(), String> {
    use perple::solve;
    let mut count: Option<usize> = None;
    let mut model = ModelId::default();
    let mut out: Option<std::path::PathBuf> = None;
    let mut max_len = 6usize;
    let mut max_threads = 4usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--count" => {
                count = Some(
                    it.next()
                        .ok_or("missing value for --count")?
                        .parse()
                        .map_err(|e| format!("bad --count: {e}"))?,
                );
            }
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                model = ModelId::parse(name).ok_or_else(|| {
                    format!("bad model {name:?} (expected sc, tso, pso, or relaxed)")
                })?;
            }
            "--out" => out = Some(it.next().ok_or("missing value for --out")?.into()),
            "--max-len" => {
                max_len = it
                    .next()
                    .ok_or("missing value for --max-len")?
                    .parse()
                    .map_err(|e| format!("bad --max-len: {e}"))?;
            }
            "--max-threads" => {
                max_threads = it
                    .next()
                    .ok_or("missing value for --max-threads")?
                    .parse()
                    .map_err(|e| format!("bad --max-threads: {e}"))?;
            }
            other => return Err(format!("unknown gen flag {other:?}")),
        }
    }
    let mut tests = perple_model::generate::generate_corpus(max_len, max_threads);
    let total = tests.len();
    if let Some(n) = count {
        tests.truncate(n);
    }
    let (mut exposable, mut unexposable, mut abstained) = (0usize, 0usize, 0usize);
    let started = std::time::Instant::now();
    for test in &tests {
        let mut any = Ok(false);
        for o in test.outcomes_matching_condition() {
            match solve::feasible(test, &o, model) {
                Ok(true) => {
                    any = Ok(true);
                    break;
                }
                Ok(false) => {}
                Err(e) => any = any.and(Err(e)),
            }
        }
        match any {
            Ok(true) => exposable += 1,
            Ok(false) => unexposable += 1,
            Err(_) => abstained += 1,
        }
    }
    let elapsed = started.elapsed();
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for test in &tests {
            let path = dir.join(format!("{}.litmus", test.name()));
            std::fs::write(&path, perple_model::printer::print(test))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("wrote {} .litmus files to {}", tests.len(), dir.display());
    }
    println!(
        "generated {} tests (cycle length <= {max_len}, <= {max_threads} threads{})",
        tests.len(),
        if tests.len() < total {
            format!(", first {} of {total}", tests.len())
        } else {
            String::new()
        },
    );
    println!(
        "solver classification under {}: {exposable} exposable targets, \
         {unexposable} unexposable, {abstained} abstained ({}ms)",
        model.name(),
        elapsed.as_millis(),
    );
    Ok(())
}

/// Prints one campaign run summary (shared by `run` and `resume`).
fn print_summary(summary: &perple::campaign::RunSummary) {
    println!("run: {}", summary.id);
    println!("hits: {}/{}", summary.hits, summary.items);
    println!(
        "executed: {}, lost: {}, quarantined: {}, violations: {}",
        summary.executed, summary.lost, summary.quarantined, summary.violations
    );
    if summary.recovered > 0 {
        println!("recovered: {} (journal replay)", summary.recovered);
    }
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let usage =
        "usage: perple campaign <run|resume|fsck|ls|show|compare> [args] [--store DIR] [--json]";
    let sub = args.first().map(String::as_str).ok_or(usage)?;
    let CampaignFlags {
        store: store_root,
        json,
        trace: trace_path,
        allow_lints,
        counter,
        model,
        crash,
        repair,
        rest,
    } = campaign_flags(&args[1..])?;
    // Store-root mistakes (a file where the directory should be, an
    // unreadable directory) are configuration errors, caught before any
    // subcommand touches the store.
    perple::validate_store_root(&store_root).map_err(|e| e.to_string())?;
    match sub {
        "run" => {
            let path = rest.first().ok_or("campaign run needs a spec file")?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            let mut spec =
                perple::campaign::CampaignSpec::parse(&text).map_err(|e| e.to_string())?;
            if counter.is_some() {
                spec.counter = counter;
            }
            if model.is_some() {
                spec.model = model;
            }
            if trace_path.is_some() {
                perple::obs::trace::start();
            }
            let io = perple::campaign::StoreIo::new(crash.unwrap_or_default());
            let summary = perple::experiments::campaign::run_spec_with_io(
                &spec,
                &store_root,
                allow_lints,
                io,
            )?;
            if let Some(out) = &trace_path {
                let trace = perple::obs::trace::finish();
                std::fs::write(out, trace.chrome_json())
                    .map_err(|e| format!("cannot write trace {out}: {e}"))?;
                print!("{}", trace.flame_summary());
                println!("trace written to {out}");
            }
            print_summary(&summary);
            if summary.violations > 0 {
                let label = spec
                    .model
                    .as_deref()
                    .and_then(ModelId::parse)
                    .map(model_label)
                    .unwrap_or_else(|| "x86-TSO".to_owned());
                return Err(format!("the machine under test violates {label}"));
            }
            Ok(())
        }
        "resume" => {
            let store = perple::campaign::RunStore::open(&store_root).map_err(|e| e.to_string())?;
            let id = match rest.first() {
                Some(id) => id.clone(),
                None => {
                    // No id: resume the single interrupted run, if exactly
                    // one exists.
                    let pending = store.pending_runs();
                    match pending.as_slice() {
                        [one] => one.clone(),
                        [] => return Err("no interrupted runs to resume".into()),
                        many => {
                            return Err(format!(
                                "multiple interrupted runs ({}) — name one",
                                many.join(", ")
                            ));
                        }
                    }
                }
            };
            let summary = perple::experiments::campaign::resume_spec(&store_root, &id)?;
            print_summary(&summary);
            if summary.violations > 0 {
                return Err("the machine under test violates x86-TSO".into());
            }
            Ok(())
        }
        "fsck" => {
            let store = perple::campaign::RunStore::open(&store_root).map_err(|e| e.to_string())?;
            let cache =
                perple::campaign::ArtifactCache::open(&store_root).map_err(|e| e.to_string())?;
            let report =
                perple::campaign::fsck(&store, &cache, repair).map_err(|e| e.to_string())?;
            if json {
                println!("{}", report.to_json().render());
            } else {
                print!("{}", report.render_text());
            }
            if !report.is_healthy() {
                return Err(format!(
                    "{} unrepaired finding(s){}",
                    report.findings.iter().filter(|f| !f.repaired).count(),
                    if repair {
                        ""
                    } else {
                        " (pass --repair to fix)"
                    }
                ));
            }
            Ok(())
        }
        "ls" => {
            let store = perple::campaign::RunStore::open(&store_root).map_err(|e| e.to_string())?;
            let runs = store.list().map_err(|e| e.to_string())?;
            if json {
                use perple::jsonout::Json;
                let cache = perple::campaign::ArtifactCache::open(&store_root)
                    .map_err(|e| e.to_string())?;
                let (results, convs) = cache.stats();
                let body = Json::obj(vec![
                    ("schema", Json::from(1u64)),
                    ("runs", Json::Arr(runs)),
                    (
                        "cache",
                        Json::obj(vec![
                            ("results", Json::from(results)),
                            ("convs", Json::from(convs)),
                        ]),
                    ),
                ]);
                println!("{}", body.render());
                return Ok(());
            }
            if runs.is_empty() {
                println!("(no stored runs under {})", store_root.display());
                return Ok(());
            }
            for line in &runs {
                use perple::jsonout::Json;
                let count = |k: &str| {
                    line.get("counts")
                        .and_then(|c| c.get(k))
                        .and_then(Json::as_u64)
                };
                println!(
                    "{:<20} items={:<4} hits={:<4} violations={}",
                    line.get("id").and_then(Json::as_str).unwrap_or("?"),
                    count("items").unwrap_or(0),
                    count("hits").unwrap_or(0),
                    count("violations").unwrap_or(0),
                );
            }
            let cache =
                perple::campaign::ArtifactCache::open(&store_root).map_err(|e| e.to_string())?;
            let (results, convs) = cache.stats();
            println!("cache: {results} result entries, {convs} conversion artifacts");
            Ok(())
        }
        "show" => {
            let reference = rest.first().map(String::as_str).unwrap_or("latest");
            let store = perple::campaign::RunStore::open(&store_root).map_err(|e| e.to_string())?;
            let id = store.resolve(reference).map_err(|e| e.to_string())?;
            let manifest = store.load_manifest(&id).map_err(|e| e.to_string())?;
            let items = store.load_items(&id).map_err(|e| e.to_string())?;
            if json {
                use perple::jsonout::Json;
                let body = Json::obj(vec![
                    ("schema", Json::from(1u64)),
                    ("manifest", manifest),
                    (
                        "items",
                        Json::Arr(items.iter().map(|r| r.to_json()).collect()),
                    ),
                ]);
                println!("{}", body.render());
                return Ok(());
            }
            println!("{id}");
            use perple::jsonout::Json;
            if let Some(git) = manifest.get("git").and_then(Json::as_str) {
                println!("git: {git}");
            }
            if let Some(Json::Obj(pairs)) = manifest.get("metrics").and_then(|m| m.get("counters"))
            {
                let nonzero: Vec<String> = pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().filter(|&v| v > 0).map(|v| format!("{k}={v}")))
                    .collect();
                if !nonzero.is_empty() {
                    println!("metrics: {}", nonzero.join(" "));
                }
            }
            println!(
                "{:<14} {:>6} {:>10} {:>12} {:>7}  flags",
                "test#seed", "forb", "heuristic", "exhaustive", "faults"
            );
            for r in &items {
                let mut flags = Vec::new();
                if r.degraded {
                    flags.push("degraded");
                }
                if !r.run_complete {
                    flags.push("partial-run");
                }
                if r.quarantined {
                    flags.push("quarantined");
                }
                println!(
                    "{:<14} {:>6} {:>10} {:>12} {:>7}  {}",
                    format!("{}#{}", r.test, r.seed),
                    if r.forbidden { "yes" } else { "no" },
                    r.heuristic,
                    r.exhaustive,
                    r.faults,
                    if flags.is_empty() {
                        "-".to_owned()
                    } else {
                        flags.join(",")
                    },
                );
            }
            Ok(())
        }
        "compare" => {
            let (base, new) = match rest.as_slice() {
                [b, n] => (b.clone(), n.clone()),
                _ => return Err("campaign compare needs <base> <new> run references".into()),
            };
            let store = perple::campaign::RunStore::open(&store_root).map_err(|e| e.to_string())?;
            let report = perple::campaign::compare_runs(
                &store,
                &base,
                &new,
                &perple::campaign::CompareConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            if json {
                println!("{}", report.to_json().render());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_regression() {
                return Err(format!(
                    "{} regression(s) between {} and {}",
                    report.regressions.len(),
                    report.base_id,
                    report.new_id
                ));
            }
            Ok(())
        }
        other => Err(format!("unknown campaign subcommand {other:?}\n{usage}")),
    }
}

/// Default TCP address for `serve` and `client` when neither `--addr`
/// nor `--socket` is given.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

/// `perple serve`: the long-lived campaign submission server. Accepts
/// specs over TCP or a Unix socket, streams outcome records back as
/// chunked JSONL, and shares one store/cache across every job. SIGTERM
/// (or SIGINT) drains gracefully: admitted jobs finish or journal, the
/// store is left fsck-clean.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use perple::serve::server::{Bind, Server, ServerConfig};
    let mut addr: Option<String> = None;
    let mut socket: Option<std::path::PathBuf> = None;
    let mut workers = perple::default_workers();
    let mut store = perple::campaign::RunStore::default_root();
    let mut queue = 64usize;
    let mut quota = 8usize;
    let mut default_model: Option<ModelId> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().ok_or("missing value for --addr")?.to_owned()),
            "--socket" => socket = Some(it.next().ok_or("missing value for --socket")?.into()),
            "--workers" | "-w" => {
                workers = it
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--store" => store = it.next().ok_or("missing value for --store")?.into(),
            "--queue" => {
                queue = it
                    .next()
                    .ok_or("missing value for --queue")?
                    .parse()
                    .map_err(|e| format!("bad queue capacity: {e}"))?;
            }
            "--quota" => {
                quota = it
                    .next()
                    .ok_or("missing value for --quota")?
                    .parse()
                    .map_err(|e| format!("bad per-client quota: {e}"))?;
            }
            "--model" => {
                let name = it.next().ok_or("missing value for --model")?;
                default_model = Some(ModelId::parse(name).ok_or_else(|| {
                    format!("bad model {name:?} (expected sc, tso, pso, or relaxed)")
                })?);
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    if addr.is_some() && socket.is_some() {
        return Err("--addr and --socket are mutually exclusive".into());
    }
    perple::validate_store_root(&store).map_err(|e| e.to_string())?;
    let bind = match socket {
        Some(path) => Bind::Unix(path),
        None => Bind::Tcp(addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned())),
    };
    perple::serve::signal::install();
    let mut config = ServerConfig::new(bind, workers, store);
    config.queue_capacity = queue;
    config.per_client_quota = quota;
    let server = Server::bind(
        config,
        std::sync::Arc::new(perple::CampaignRunner { default_model }),
    )
    .map_err(|e| e.to_string())?;
    // Boot-time auto-resume: interrupted runs left by a SIGKILL'd
    // predecessor finish (journal replay first) before we accept work.
    server
        .resume_pending(|id, summary| {
            use perple::jsonout::Json;
            let recovered = perple::jsonout::parse(summary)
                .ok()
                .and_then(|v| v.get("recovered").and_then(Json::as_u64))
                .unwrap_or(0);
            println!("resumed {id}: recovered={recovered}");
        })
        .map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    // Subprocess drivers (tests, CI) read that line to find the port.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve().map_err(|e| e.to_string())?;
    println!("drained cleanly");
    Ok(())
}

/// `perple client`: submit to / query a running `perple serve` without
/// curl. `submit` streams record lines to stdout as they arrive.
fn cmd_client(args: &[String]) -> Result<(), String> {
    use perple::serve::client::{self, Target};
    let usage = "usage: perple client <submit <spec-file> [--client NAME] [--no-wait]\n\
                 \x20       | status <job-id> | stats | metrics>\n\
                 \x20       [--addr HOST:PORT | --socket PATH]";
    let sub = args.first().map(String::as_str).ok_or(usage)?;
    let mut addr: Option<String> = None;
    let mut socket: Option<std::path::PathBuf> = None;
    let mut client_name = "cli".to_owned();
    let mut wait = true;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().ok_or("missing value for --addr")?.to_owned()),
            "--socket" => socket = Some(it.next().ok_or("missing value for --socket")?.into()),
            "--client" => client_name = it.next().ok_or("missing value for --client")?.to_owned(),
            "--no-wait" => wait = false,
            other => rest.push(other.to_owned()),
        }
    }
    if addr.is_some() && socket.is_some() {
        return Err("--addr and --socket are mutually exclusive".into());
    }
    let target = match socket {
        Some(path) => Target::Unix(path),
        None => Target::Tcp(addr.unwrap_or_else(|| DEFAULT_SERVE_ADDR.to_owned())),
    };
    let print_stream = |line: &str| {
        println!("{line}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    };
    let out = match sub {
        "submit" => {
            let path = rest.first().ok_or("client submit needs a spec file")?;
            let spec = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec {path}: {e}"))?;
            let mut on_line = print_stream;
            client::submit(&target, &spec, &client_name, wait, Some(&mut on_line))
                .map_err(|e| e.to_string())?
        }
        "status" => {
            let id = rest.first().ok_or("client status needs a job id")?;
            let out = client::get(&target, &format!("/jobs/{id}")).map_err(|e| e.to_string())?;
            out.lines.iter().for_each(|l| print_stream(l));
            out
        }
        "stats" => {
            let out = client::get(&target, "/stats").map_err(|e| e.to_string())?;
            out.lines.iter().for_each(|l| print_stream(l));
            out
        }
        "metrics" => {
            let out = client::get(&target, "/metrics").map_err(|e| e.to_string())?;
            out.lines.iter().for_each(|l| print_stream(l));
            out
        }
        other => return Err(format!("unknown client subcommand {other:?}\n{usage}")),
    };
    if out.status >= 400 {
        let retry = out
            .retry_after
            .map(|s| format!(" (retry after {s}s)"))
            .unwrap_or_default();
        return Err(format!("server answered {}{retry}", out.status));
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    for (test, entry) in suite::convertible().iter().zip(suite::TABLE_II) {
        println!(
            "{:<16} [{},{}] target {} under x86-TSO",
            test.name(),
            entry.threads,
            entry.load_threads,
            if entry.allowed {
                "allowed"
            } else {
                "forbidden"
            }
        );
    }
    println!(
        "-- plus {} non-convertible tests (run `perple classify <name>`)",
        suite::non_convertible().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(truncated: bool, budget_expired: bool, downgraded: bool) -> perple::CountResult {
        perple::CountResult {
            counts: vec![4874],
            frames_examined: 100_000_000,
            wall: std::time::Duration::ZERO,
            truncated,
            budget_expired,
            downgraded,
        }
    }

    #[test]
    fn count_notes_flag_every_caveat() {
        assert!(count_notes(&result(false, false, false)).is_empty());
        let capped = count_notes(&result(true, false, false));
        assert_eq!(capped.len(), 1, "{capped:?}");
        assert!(capped[0].contains("frame cap"), "{capped:?}");
        assert!(
            capped[0].contains("100000000 frames examined"),
            "{capped:?}"
        );
        let all = count_notes(&result(true, true, true));
        assert_eq!(all.len(), 3, "{all:?}");
        assert!(all[0].contains("rf fragment"));
        assert!(all[1].contains("frame cap"));
        assert!(all[2].contains("--timeout-ms"));
    }
}
