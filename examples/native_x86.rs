//! Native hardware run: execute the perpetual sb test on **real threads**
//! with x86 atomics (plain `mov` stores/loads), then count outcomes — the
//! substrate the paper actually evaluated on.
//!
//! On a multi-core x86 machine the target outcome (store buffering) shows
//! up natively; on a single-core machine threads timeslice and the weak
//! outcome essentially disappears — which this example demonstrates and
//! which is why the simulated substrate drives the experiments (DESIGN.md).
//!
//! ```text
//! cargo run --release --example native_x86 [iterations]
//! ```

use perple::{native, Conversion, CountRequest, Counter, HeuristicCounter};
use perple_model::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iterations: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(200_000);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host: {cores} hardware thread(s) available");

    let sb = suite::sb();
    let conv = Conversion::convert(&sb)?;

    // Perpetual run on real threads.
    let run = native::run_perpetual(&conv.perpetual, iterations);
    let bufs = run.bufs();
    let target = HeuristicCounter::single(&conv.target_heuristic)
        .count(&CountRequest::new(&bufs, iterations));
    println!(
        "perpetual sb natively: {iterations} iterations in {:?} ({:.1} ns/iter)",
        run.wall,
        run.wall.as_nanos() as f64 / iterations as f64
    );
    println!(
        "store-buffering (target) frames found: {}",
        target.counts[0]
    );

    // Full outcome variety.
    let all = conv.all_outcomes(&sb);
    let req = CountRequest::new(&bufs, iterations);
    println!("outcome variety (per-outcome frame sampling):");
    for (o, h) in &all {
        let c = HeuristicCounter::single(h).count(&req).counts[0];
        println!("  {:>4}: {c}", o.label());
    }

    // Sanity: a fenced test must never show its forbidden target natively.
    let amd5 = suite::amd5();
    let conv5 = Conversion::convert(&amd5)?;
    let run5 = native::run_perpetual(&conv5.perpetual, iterations.min(50_000));
    let bufs5 = run5.bufs();
    let n5 = run5.iterations;
    let forbidden =
        HeuristicCounter::single(&conv5.target_heuristic).count(&CountRequest::new(&bufs5, n5));
    println!(
        "fenced sb (amd5) forbidden-target frames: {} (must be 0)",
        forbidden.counts[0]
    );
    assert_eq!(forbidden.counts[0], 0, "x86 fence violation observed!");

    if cores == 1 {
        println!(
            "note: single-core host — weak outcomes require timeslicing luck; \
             run the simulated experiments (perple-bench) for the paper's figures"
        );
    }
    Ok(())
}
