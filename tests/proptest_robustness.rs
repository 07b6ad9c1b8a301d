//! Robustness properties: the litmus parser, the campaign-spec parser and
//! the `--inject` fault-plan grammar never panic on arbitrary input (and
//! reject it with a named error), the converter refuses exactly the
//! programs its obstruction list names, the simulator only ever produces
//! attributable values, counters respect their algorithmic invariants, and
//! the generator's tests round-trip. Runs on the in-repo
//! [`perple_repro::prop`] harness.

use perple::campaign::{CampaignError, CampaignSpec};
use perple::experiments::pool::map_parallel;
use perple::{
    parse_fault_plan, Conversion, CountRequest, Counter, ExhaustiveCounter, FaultPlan,
    HeuristicCounter, PerpleError, PerpleRunner, SimConfig,
};
use perple_convert::KMap;
use perple_model::{generate, parser, printer, suite, Instr, LitmusTest, TestBuilder, ThreadId};
use perple_repro::prop::{run_cases, Gen};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn parser_never_panics_on_arbitrary_input() {
    run_cases(64, |g| {
        let input = g.arbitrary_text(300);
        let _ = parser::parse(&input);
    });
}

#[test]
fn parser_never_panics_on_litmus_shaped_garbage() {
    // Each cell starts as a well-formed store (`MOV [x],$1`), load
    // (`MOV EAX,[x]`), exchange (`XCHG [x],$1 -> EAX`) or fence, then may
    // get a wrong mnemonic, swapped operands or a toggled `-> REG` suffix,
    // and its operands may be blank or mistyped. So both valid and
    // malformed programs are drawn, and the success path is reached too.
    let ops = ["MOV", "XCHG", "MFENCE", "QQQ"];
    let addrs = ["[x]", "[y]", ""];
    let vals = ["$1", "$255", "EAX"];
    let regs = ["EAX", "EBX"];
    let parsed = AtomicUsize::new(0);
    run_cases(512, |g| {
        let name_len = 1 + g.below(8);
        let name = g.string_from("abcdefghijklmnopqrstuvwxyz", name_len);
        let mut cell = || {
            let (addr, val, reg) = (*g.choose(&addrs), *g.choose(&vals), *g.choose(&regs));
            let (mut op, mut a, mut b, mut suffix) = match g.below(4) {
                0 => ("MOV", addr, val, false),
                1 => ("MOV", reg, addr, false),
                2 => ("XCHG", addr, val, true),
                _ => return "MFENCE".to_owned(),
            };
            if g.chance(1, 4) {
                op = *g.choose(&ops);
            }
            if g.chance(1, 4) {
                std::mem::swap(&mut a, &mut b);
            }
            if g.chance(1, 4) {
                suffix = !suffix;
            }
            let cell = format!("{op} {a},{b}");
            if suffix {
                format!("{cell} -> {}", g.choose(&regs))
            } else {
                cell
            }
        };
        let (p0, p1) = (cell(), cell());
        let value = g.below(2);
        let cond = if g.chance(1, 2) {
            format!("{}:{}={value}", g.below(2), g.choose(&regs))
        } else {
            format!("[x]={value}")
        };
        let src = format!("X86 {name}\n{{ x=0; }}\n P0 | P1 ;\n {p0} | {p1} ;\nexists ({cond})");
        if let Ok(test) = parser::parse(&src) {
            parsed.fetch_add(1, Ordering::Relaxed);
            // A swapped store (`MOV $255,[x]`) must not load into a
            // register named `$255`: every accepted register is one of
            // the drawn identifiers.
            for (t, instrs) in test.threads().iter().enumerate() {
                for instr in instrs {
                    if let Instr::Load { reg, .. } | Instr::Xchg { reg, .. } = instr {
                        let name = test.reg_name(ThreadId(t as u8), *reg);
                        assert!(regs.contains(&name), "register {name:?} accepted: {src}");
                    }
                }
            }
            let printed = printer::print(&test);
            let reparsed = parser::parse(&printed).expect("printed test reparses");
            assert_eq!(reparsed, test, "{src}");
        }
    });
    let parsed = parsed.into_inner();
    assert!(parsed > 0, "no case reached the parser's success path");
}

/// A random program that can carry every obstruction a builder can make:
/// 2–3 threads of 1–3 stores, loads, exchanges or fences over two
/// locations, stored values from `1..=2` (so a value may be stored twice),
/// sometimes a non-zero initial value, and a condition of register clauses
/// with values `0..=3` plus, sometimes, a final-memory clause. `None` when
/// the draw does not build (e.g. an init of a location no thread uses).
fn obstructed_program(g: &mut Gen) -> Option<LitmusTest> {
    let locs = ["x", "y"];
    let regs = ["EAX", "EBX"];
    let mut b = TestBuilder::new("gate");
    let mut loaded = Vec::new();
    for t in 0..2 + g.below(2) {
        let mut tb = b.thread();
        for _ in 0..1 + g.below(3) {
            let (loc, reg) = (*g.choose(&locs), *g.choose(&regs));
            let value = 1 + g.below(2) as u32;
            match g.below(6) {
                0 | 1 => {
                    tb.store(loc, value);
                }
                2 => {
                    tb.xchg(reg, loc, value);
                    loaded.push((t, reg));
                }
                3 => {
                    tb.mfence();
                }
                _ => {
                    tb.load(reg, loc);
                    loaded.push((t, reg));
                }
            }
        }
    }
    if g.chance(1, 4) {
        b.init(*g.choose(&locs), 1 + g.below(2) as u32);
    }
    if !loaded.is_empty() {
        for _ in 0..1 + g.below(2) {
            let (t, reg) = *g.choose(&loaded);
            b.reg_cond(t, reg, g.below(4) as u32);
        }
    }
    if loaded.is_empty() || g.chance(1, 4) {
        b.mem_cond(*g.choose(&locs), g.below(3) as u32);
    }
    b.build().ok()
}

/// The converter's stages run only behind its obstruction list, so a gap
/// in the list would surface here as a panic, not an error.
#[test]
fn conversion_succeeds_exactly_when_nothing_obstructs_it() {
    let converted = std::cell::Cell::new(0);
    let refused = std::cell::Cell::new(0);
    run_cases(512, |g| {
        let Some(test) = obstructed_program(g) else {
            return;
        };
        let obstructions = perple_convert::obstructions(&test);
        match Conversion::convert(&test) {
            Ok(conv) => {
                assert!(
                    obstructions.is_empty(),
                    "{test}: converted past {obstructions:?}"
                );
                assert!(!conv.all_outcomes(&test).is_empty(), "{test}");
                converted.set(converted.get() + 1);
            }
            Err(e) => {
                assert_eq!(obstructions.first(), Some(&e), "{test}");
                refused.set(refused.get() + 1);
            }
        }
    });
    assert!(
        converted.get() > 0 && refused.get() > 0,
        "{} converted, {} refused: the draw misses one side",
        converted.get(),
        refused.get()
    );
}

/// A value for a spec or plan field: well-formed, boundary, or junk.
fn field_value(g: &mut Gen) -> String {
    let pick = [
        "0",
        "1",
        "7",
        "0x10",
        "0xZZ",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "sb, mp",
        "convertible",
        "tso",
        "X86-TSO",
        "rf",
        "exhaustive",
        "batch",
        "drop@t0:0..10",
        "",
        "Ω",
        "a b",
    ];
    match g.below(3) {
        0 => g.arbitrary_text(12).replace(['\n', '#'], " "),
        _ => (*g.choose(&pick)).to_owned(),
    }
}

#[test]
fn campaign_spec_parser_never_panics_and_names_every_rejection() {
    let keys = [
        "name",
        "tests",
        "seeds",
        "iterations",
        "workers",
        "retries",
        "timeout_ms",
        "frame_cap",
        "inject",
        "counter",
        "model",
        "journal_chunk",
        "fsync",
        "bogus",
    ];
    let accepted = std::cell::Cell::new(0u32);
    run_cases(256, |g| {
        let text = if g.chance(1, 4) {
            g.arbitrary_text(200)
        } else {
            (0..g.below(8))
                .map(|_| match g.below(8) {
                    0 => g.arbitrary_text(20),
                    1 => "# comment".to_owned(),
                    _ => format!("{} = {}", g.choose(&keys), field_value(g)),
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        match CampaignSpec::parse(&text) {
            // An accepted spec renders to text that parses back to it.
            Ok(spec) => {
                accepted.set(accepted.get() + 1);
                assert_eq!(
                    CampaignSpec::parse(&spec.render()).as_ref(),
                    Ok(&spec),
                    "{text:?}"
                );
            }
            Err(CampaignError::Parse(msg)) => assert!(!msg.is_empty(), "{text:?}"),
            Err(other) => panic!("{text:?}: rejected with a non-parse error {other}"),
        }
    });
    assert!(accepted.get() > 0, "no generated spec was well-formed");
}

#[test]
fn fault_plan_grammar_never_panics_and_names_every_rejection() {
    let kinds = ["drop", "corrupt", "stuck", "reorder", "zap", ""];
    let threads = [
        "t0",
        "t3",
        "*",
        "t",
        "t-1",
        "x0",
        "t99999999999999999999",
        "",
    ];
    let windows = [
        "0..10", "5..5", "9..2", "0..", "..4", "a..b", "+1..+3", "10",
    ];
    let options = [
        "p0.5", "p1", "p1.5", "pNaN", "p-0", "c5", "c0", "cX", "q1", "",
    ];
    let accepted = std::cell::Cell::new(0u32);
    run_cases(512, |g| {
        let text = if g.chance(1, 4) {
            g.arbitrary_text(60)
        } else {
            (0..1 + g.below(3))
                .map(|_| {
                    let mut clause = format!(
                        "{}@{}:{}",
                        g.choose(&kinds),
                        g.choose(&threads),
                        g.choose(&windows)
                    );
                    for _ in 0..g.below(3) {
                        clause.push(':');
                        clause.push_str(g.choose::<&str>(&options));
                    }
                    if g.chance(1, 8) {
                        clause = field_value(g);
                    }
                    clause
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        match parse_fault_plan(&text) {
            // An accepted plan prints to a plan that parses back to it.
            Ok(plan) => {
                accepted.set(accepted.get() + 1);
                assert_eq!(
                    FaultPlan::parse(&plan.to_string()).as_ref(),
                    Ok(&plan),
                    "{text:?}"
                );
            }
            Err(PerpleError::Config(msg)) => {
                assert!(msg.starts_with("bad fault plan"), "{text:?}: {msg}");
            }
            Err(other) => panic!("{text:?}: rejected with a non-config error {other}"),
        }
    });
    assert!(accepted.get() > 0, "no generated plan was well-formed");
}

#[test]
fn simulated_values_are_always_attributable() {
    // Every non-zero loaded value must decode into some store's
    // sequence — the uniqueness property the whole analysis rests on.
    run_cases(16, |g| {
        let tests = suite::convertible();
        let test = g.choose(&tests);
        let seed = g.u64();
        let conv = Conversion::convert(test).expect("suite test converts");
        let kmap = &conv.kmap;
        let n = 150u64;
        let mut runner = PerpleRunner::new(SimConfig::default().with_seed(seed));
        let run = runner.run(&conv.perpetual, n);

        let reads = test.reads_per_thread();
        for (frame_pos, lt) in test.load_threads().iter().enumerate() {
            let r_t = reads[lt.index()];
            let slots: Vec<_> = test
                .load_slots()
                .into_iter()
                .filter(|s| s.thread == *lt)
                .collect();
            for i in 0..n as usize {
                for slot in &slots {
                    let val = run.frame_bufs[frame_pos][r_t * i + slot.slot];
                    if val == 0 {
                        continue;
                    }
                    let attributable = kmap
                        .assignments_for(slot.loc)
                        .iter()
                        .any(|asg| KMap::decode(asg.k, asg.a, val).is_some_and(|m| m < n));
                    assert!(
                        attributable,
                        "{}: unattributable value {val} at load slot {}",
                        test.name(),
                        slot.slot
                    );
                }
            }
        }
    });
}

#[test]
fn traced_runs_are_bit_identical_to_untraced_runs() {
    let names = ["sb", "mp", "iriw"];
    run_cases(16, |g| {
        let test = suite::by_name(names[g.below(names.len())]).expect("suite test");
        let seed = g.u64();
        let conv = Conversion::convert(&test).expect("converts");
        let specs = perple_harness::perpetual::thread_specs(&conv.perpetual, 80);
        let mut m1 = perple_sim::Machine::new(SimConfig::default().with_seed(seed));
        let plain = m1.run(&specs, test.location_count());
        let mut m2 = perple_sim::Machine::new(SimConfig::default().with_seed(seed));
        let mut trace = perple_sim::Trace::with_capacity(64);
        let traced = m2.run_traced(&specs, test.location_count(), &mut trace);
        assert_eq!(plain, traced);
    });
}

#[test]
fn generated_tests_roundtrip_through_text() {
    run_cases(32, |g| {
        let family = generate::generate_family(4);
        let test = g.choose(&family);
        let text = printer::print(test);
        let back = parser::parse(&text).expect("generated test reparses");
        assert_eq!(test, &back);
    });
}

// ---------------------------------------------------------------------------
// Counter properties under the suite pool: random outcome sets, buffers,
// frame caps and pool widths. Each count is one serial scan; the pool runs
// many at once, which must change no field of any result.
// ---------------------------------------------------------------------------

#[test]
fn parallel_counters_match_serial_for_arbitrary_worker_counts() {
    let names = ["sb", "mp", "amd3", "iwp24", "podwr001", "n5"];
    run_cases(24, |g| {
        let test = suite::by_name(names[g.below(names.len())]).expect("suite test");
        let conv = Conversion::convert(&test).expect("converts");
        let all = conv.all_outcomes(&test);

        // Random buffers: garbage values are fine — the counters must be
        // sound on any input.
        let n = 1 + g.range_u64(0, 40);
        let reads = test.reads_per_thread();
        let bufs_owned: Vec<Vec<u64>> = test
            .load_threads()
            .iter()
            .map(|lt| {
                let want = reads[lt.index()] * n as usize;
                (0..want).map(|_| g.range_u64(0, 2 * n + 2)).collect()
            })
            .collect();
        let bufs: Vec<&[u64]> = bufs_owned.iter().map(Vec::as_slice).collect();

        let space = n.pow(bufs.len() as u32);
        let cap = match g.below(3) {
            0 => None,
            1 => Some(g.range_u64(0, space + 2)),
            _ => Some(g.range_u64(0, 50)),
        };
        let req = CountRequest::new(&bufs, n).with_frame_cap(cap);
        let count_all = |req: &CountRequest<'_>| -> Vec<_> {
            all.iter()
                .flat_map(|(o, h)| {
                    [
                        ExhaustiveCounter::single(o).count(req),
                        HeuristicCounter::single(h).count(req),
                    ]
                })
                .collect()
        };
        let serial = count_all(&req);

        // The cap selects a prefix of the N^{T_L} frame space.
        let limit = cap.map_or(space, |c| c.min(space));
        for pair in serial.chunks(2) {
            let (re, rh) = (&pair[0], &pair[1]);
            assert_eq!(re.frames_examined, limit, "cap {cap:?} of {space} frames");
            assert_eq!(re.truncated, cap.is_some_and(|c| c < space), "cap {cap:?}");
            // A frame or pivot counts at most once.
            assert!(re.counts[0] <= re.frames_examined);
            assert_eq!(rh.frames_examined, n);
            assert!(rh.counts[0] <= n);
        }

        let workers = 1 + g.below(12);
        let reqs = vec![req; workers + 1];
        for pooled in map_parallel(&reqs, workers, |_, r| count_all(r)) {
            for (serial, par) in serial.iter().zip(&pooled) {
                assert_eq!(serial.counts, par.counts, "workers {workers}");
                assert_eq!(serial.frames_examined, par.frames_examined);
                assert_eq!(serial.truncated, par.truncated);
            }
        }
    });
}
