//! Output checks shared by every workload: pinned reference records for
//! the default and held-out seeds, model-forbidden targets, and the
//! rf == exhaustive spot check.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use perple::campaign::OutcomeRecord;
use perple::{
    suite, CountRequest, Counter, ExhaustiveCounter, ModelId, PerpleRunner, RfCounter, SimConfig,
};

/// Workload seed whose records are pinned in the reference directory.
pub const DEFAULT_SEED: u64 = 1;
/// Held-out workload seed, pinned too but never used while tuning.
pub const HELD_OUT_SEED: u64 = 7;

/// One reference line per item: the outcome and the run digest.
fn reference_line(r: &OutcomeRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{:016x}",
        r.test,
        r.seed,
        r.model.as_deref().unwrap_or("tso"),
        r.heuristic,
        r.exhaustive,
        r.digest
    )
}

fn reference_path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
    dir.join(format!("{workload}-seed{seed}.tsv"))
}

/// Compares `records` with the pinned reference when `seed` is pinned;
/// with `bless`, (re)writes the reference instead.
pub fn reference(
    dir: &Path,
    workload: &str,
    seed: u64,
    records: &[OutcomeRecord],
    bless: bool,
) -> Result<(), String> {
    if seed != DEFAULT_SEED && seed != HELD_OUT_SEED {
        return Ok(());
    }
    let path = reference_path(dir, workload, seed);
    let mut actual = String::new();
    for r in records {
        let _ = writeln!(actual, "{}", reference_line(r));
    }
    if bless {
        return std::fs::write(&path, actual)
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
    if expected != actual {
        let diff = expected
            .lines()
            .zip(actual.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("expected {a:?}, got {b:?}"))
            .unwrap_or_else(|| {
                format!(
                    "{} reference lines, {} items",
                    expected.lines().count(),
                    records.len()
                )
            });
        return Err(format!("records differ from {}: {diff}", path.display()));
    }
    Ok(())
}

/// No record may be quarantined or count a target its model forbids.
pub fn records_sound(records: &[OutcomeRecord]) -> Result<(), String> {
    for r in records {
        if r.quarantined {
            return Err(format!("{}#{} was quarantined", r.test, r.seed));
        }
        if r.forbidden && (r.heuristic > 0 || r.exhaustive > 0) {
            return Err(format!(
                "{}#{} counted a model-forbidden target ({} heuristic, {} exact)",
                r.test, r.seed, r.heuristic, r.exhaustive
            ));
        }
    }
    Ok(())
}

/// The rf counter must equal the exhaustive scan on `test` at a small N.
pub fn rf_matches_exhaustive(test_name: &str, seed: u64, n: u64) -> Result<(), String> {
    let test = suite::by_name(test_name).ok_or_else(|| format!("no suite test {test_name:?}"))?;
    let conv = perple::Conversion::convert(&test).map_err(|e| e.to_string())?;
    let mut runner = PerpleRunner::new(
        SimConfig::default()
            .with_seed(seed)
            .with_model(ModelId::Tso),
    );
    let run = runner.run(&conv.perpetual, n);
    let bufs = run.bufs();
    let req = CountRequest::new(&bufs, run.iterations);
    let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
    let exact = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
    if rf.counts != exact.counts || exact.truncated {
        return Err(format!(
            "{test_name}: rf counted {:?}, exhaustive {:?} at N={n}",
            rf.counts, exact.counts
        ));
    }
    Ok(())
}
