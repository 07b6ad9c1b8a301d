//! Converter CLI: parse a litmus7-format test (from a file or stdin) and
//! emit the paper's Converter artifacts — per-thread perpetual x86
//! assembly, the `t<i>_reads` parameter file, and one `COUNT` and one
//! `COUNTH` C source per outcome (§V-A).
//!
//! ```text
//! cargo run --release --example converter_cli -- path/to/test.litmus
//! echo "..." | cargo run --release --example converter_cli
//! ```

use std::io::Read as _;

use perple_convert::{codegen, Conversion};
use perple_model::parser;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            if buf.trim().is_empty() {
                // No input: demonstrate on the classic sb test.
                perple_model::printer::print(&perple_model::suite::sb())
            } else {
                buf
            }
        }
    };

    let test = parser::parse(&source)?;
    println!(
        "parsed test {:?} ({} threads)\n",
        test.name(),
        test.thread_count()
    );

    let conv = match Conversion::convert(&test) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "test {:?} is not convertible to a perpetual litmus test: {e}\n\
                 (it can still be run with the litmus7-style baseline)",
                test.name()
            );
            std::process::exit(1);
        }
    };

    for (t, asm) in codegen::emit_thread_asm(&conv.perpetual).iter().enumerate() {
        println!("==== {}_thread_{t}.s ====", test.name());
        println!("{asm}");
    }

    println!("==== {}_params ====", test.name());
    println!("{}", codegen::emit_params(&conv.perpetual));

    // One COUNT/COUNTH per outcome: each counts its own matching frames,
    // so a frame matching two outcomes is credited to both.
    for (o, (outcome, heuristic)) in conv.all_outcomes(&test).iter().enumerate() {
        println!(
            "==== {}_count_{o}.c (exhaustive outcome counter) ====",
            test.name()
        );
        println!("{}", codegen::emit_count_c(&conv.perpetual, outcome));

        println!(
            "==== {}_counth_{o}.c (heuristic outcome counter) ====",
            test.name()
        );
        println!("{}", codegen::emit_counth_c(&conv.perpetual, heuristic));
    }
    Ok(())
}
