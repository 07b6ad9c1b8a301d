//! Micro-benchmarks of the Converter: full-pipeline conversion of the
//! suite and outcome-space conversion (the once-per-test cost the paper's
//! Converter pays offline).

use perple::Conversion;
use perple_bench::micro::Bench;
use perple_model::suite;

fn main() {
    let bench = Bench::new(20);

    {
        let test = suite::sb();
        bench.run("convert/sb", || {
            Conversion::convert(std::hint::black_box(&test)).expect("converts")
        });
    }

    {
        let tests = suite::convertible();
        bench.run("convert/whole_suite", || {
            tests
                .iter()
                .filter(|t| Conversion::convert(std::hint::black_box(t)).is_ok())
                .count()
        });
    }

    {
        let test = suite::podwr001();
        let conv = Conversion::convert(&test).expect("converts");
        bench.run("convert/all_outcomes/podwr001", || {
            conv.all_outcomes(std::hint::black_box(&test))
                .expect("outcomes")
        });
    }

    {
        let test = suite::sb();
        let conv = Conversion::convert(&test).expect("converts");
        bench.run("codegen/sb", || {
            let asm = perple_convert::codegen::emit_thread_asm(&conv.perpetual);
            let count =
                perple_convert::codegen::emit_count_c(&conv.perpetual, &conv.target_exhaustive);
            (asm, count)
        });
    }
}
