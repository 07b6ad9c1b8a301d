//! Micro-benchmarks of the simulated machine under every memory model:
//! perpetual-run throughput (the execution component of every
//! experiment).
//!
//! Each case prints ns per iteration and ns per scheduler cycle. A model
//! that needs more cycles per iteration does more work; a model that takes
//! longer per cycle does the same work slower.

use perple::{Conversion, ModelId, PerpleRunner, SimConfig};
use perple_bench::micro::Bench;
use perple_model::suite;

fn main() {
    let bench = Bench::new(10);
    let n = 10_000u64;
    for model in ModelId::ALL {
        for name in ["sb", "mp", "iriw", "podwr001"] {
            let test = suite::by_name(name).expect("suite test");
            let conv = Conversion::convert(&test).expect("convertible");
            let config = SimConfig::default().with_seed(0x51).with_model(model);
            let mut runner = PerpleRunner::new(config.clone());
            let median = bench.run(&format!("simulator/perpetual/{model}/{name}/{n}"), || {
                runner.run(std::hint::black_box(&conv.perpetual), n)
            });
            // The timed runs continue one PRNG stream, so their cycle
            // counts vary slightly; a fresh run gives the representative
            // count for this seed.
            let cycles = PerpleRunner::new(config)
                .run(&conv.perpetual, n)
                .exec_cycles;
            let ns = median.as_nanos() as f64;
            println!(
                "    -> {:.1}ns per iteration, {:.1}ns per scheduler cycle ({:.2} cycles per iteration)",
                ns / n as f64,
                ns / cycles as f64,
                cycles as f64 / n as f64
            );
        }
    }
}
