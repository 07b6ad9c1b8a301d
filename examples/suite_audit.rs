//! Suite audit: run every convertible test of the perpetual litmus suite
//! (Table II) through the full PerpLE pipeline, check the paper's
//! classification against the condition verdict (`perple::classify`), and
//! report target-outcome counts.
//!
//! This is the Figure-9-style consistency audit a hardware team would run
//! against a new implementation: forbidden targets firing would indicate a
//! memory-model bug.
//!
//! ```text
//! cargo run --release --example suite_audit [iterations]
//! ```

use perple::{classify, Perple, SimConfig};
use perple_model::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iterations: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2_000);

    println!(
        "{:<16} {:>6} {:>6} {:>12} {:>10}  verdict",
        "test", "T", "T_L", "tso-allowed", "target#"
    );
    let mut bugs = 0;
    for (test, entry) in suite::convertible().iter().zip(suite::TABLE_II) {
        let class = classify(test);
        let mut engine =
            Perple::with_config(test, SimConfig::default().with_seed(0xA0D17 ^ iterations))?;
        let (_, count) = engine.run_heuristic_only(iterations);
        let hits = count.counts[0];

        let verdict = match (class.tso_allowed, hits) {
            (false, 0) => "ok (forbidden, unseen)",
            (false, _) => {
                bugs += 1;
                "BUG: forbidden target observed!"
            }
            (true, 0) => "quiet (allowed, not yet seen)",
            (true, _) => "ok (allowed, observed)",
        };
        println!(
            "{:<16} {:>6} {:>6} {:>12} {:>10}  {verdict}",
            test.name(),
            entry.threads,
            entry.load_threads,
            class.tso_allowed,
            hits
        );
        assert_eq!(class.tso_allowed, entry.allowed, "classification drift");
    }
    println!("\naudit complete: {bugs} consistency violations");
    if bugs > 0 {
        std::process::exit(1);
    }
    Ok(())
}
