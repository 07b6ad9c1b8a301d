//! The rf closure counter's asymptotic win over the exhaustive frame scan,
//! with the bit-equality check inline: every timed rf count at a size the
//! exhaustive counter can still afford is asserted equal to it, so a
//! speedup produced by a wrong count aborts the bench.
//!
//! The headline case is a `T_L = 3` test (`podwr001`): the exhaustive
//! counter examines `N^3` frames while the rf counter's cycle sweep does
//! `N` work plus one unit per `(x, y)` pair it visits — a few per
//! position on machine-produced buffers, `N^2` at worst — so the
//! frames-examined reduction printed at the end grows roughly
//! quadratically in `N` (see `EXPERIMENTS.md`). The rf-only cases at
//! `N = 10^4` and `10^5` are the sizes the exhaustive scan cannot reach;
//! equality against it is asserted up to `N = 400`.

use perple::{
    Conversion, CountRequest, Counter, ExhaustiveCounter, PerpleRunner, RfCounter, SimConfig,
};
use perple_bench::micro::Bench;
use perple_model::suite;

fn main() {
    let bench = Bench::new(10);
    let mut runner = PerpleRunner::new(SimConfig::default().with_seed(0xF5));

    // Differential warm-up across shapes: pair sweep (sb, mp), mixed
    // identity/data pair (wrc), and the three-load cycles (podwr001,
    // safe007).
    for name in ["sb", "mp", "wrc", "podwr001", "safe007"] {
        let test = suite::by_name(name).expect("suite test");
        let conv = Conversion::convert(&test).expect("convertible");
        let n = 100u64;
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
        let exh = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
        assert_eq!(rf.counts, exh.counts, "{name}: rf must match exhaustive");
        assert!(!rf.downgraded, "{name}: target must be in the rf fragment");
        println!(
            "counters_rf/equality/{name}/{n}: count {} ({} rf frames vs {} exhaustive, {:.1}x)",
            rf.counts[0],
            rf.frames_examined,
            exh.frames_examined,
            exh.frames_examined as f64 / rf.frames_examined as f64,
        );
    }

    // The asymptotic case: N^3 exhaustive frames vs polynomial rf work.
    let test = suite::podwr001();
    let conv = Conversion::convert(&test).expect("podwr001 converts");
    for &n in &[100u64, 400, 2_000, 10_000, 100_000] {
        let run = runner.run(&conv.perpetual, n);
        let bufs = run.bufs();
        let req = CountRequest::new(&bufs, n);
        bench.run(&format!("counters_rf/podwr001/rf/{n}"), || {
            RfCounter::single(&conv.target_exhaustive).count(std::hint::black_box(&req))
        });
        let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
        if n <= 400 {
            bench.run(&format!("counters_rf/podwr001/exhaustive/{n}"), || {
                ExhaustiveCounter::single(&conv.target_exhaustive).count(std::hint::black_box(&req))
            });
            let exh = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
            assert_eq!(rf.counts, exh.counts, "podwr001@{n}");
            assert!(
                rf.frames_examined.saturating_mul(10) <= exh.frames_examined,
                "podwr001@{n}: want >=10x frame reduction, got {} vs {}",
                rf.frames_examined,
                exh.frames_examined,
            );
        }
        let cubic = n * n * n;
        println!(
            "counters_rf/podwr001/{n}: count {}, {} rf frames vs {} exhaustive ({:.0}x reduction)",
            rf.counts[0],
            rf.frames_examined,
            cubic,
            cubic as f64 / rf.frames_examined as f64,
        );
    }
}
