//! Textual artifact emission: the files the paper's Converter writes.
//!
//! The PerpLE Converter emits (§V-A):
//!
//! 1. one **x86 assembly file per test thread** — the perpetual loop body
//!    with sequence arithmetic, set-up and clean-up;
//! 2. two **C files** with the exhaustive (`COUNT`) and heuristic
//!    (`COUNTH`) outcome counters, the generic Algorithms 1 and 2 with the
//!    `p_out`/`p_out_h` bodies inlined;
//! 3. a **parameters file** with `t<i>_reads` for the Harness's `buf`
//!    allocation.
//!
//! This reproduction executes through compiled Rust equivalents
//! (`perple-analysis`), but the textual artifacts are emitted faithfully so
//! the tool suite's outputs match the paper's description.

use std::fmt::Write as _;

use perple_model::ThreadId;

use crate::heuristic::{DeriveRule, HeuristicOutcome};
use crate::outcomes::{IdxRef, PerpCond, PerpetualOutcome};
use crate::perpetual::{PerpInstr, PerpetualTest};

/// Emits one x86-64 assembly file (Intel syntax) per thread of a perpetual
/// test.
///
/// Calling convention of the emitted routine `perp_thread_<t>`:
/// `rdi` = iteration count `N`, `rsi` = pointer to `buf_t` (may be null for
/// store-only threads), and the shared locations live at the global symbols
/// named after the test's locations. `r8` is the iteration index `n_t`.
pub fn emit_thread_asm(perp: &PerpetualTest) -> Vec<String> {
    perp.threads()
        .iter()
        .enumerate()
        .map(|(t, body)| {
            let mut s = String::new();
            let _ = writeln!(s, "; perpetual litmus thread {t} of {}", perp.name());
            let _ = writeln!(s, "; rdi = N, rsi = buf_{t}, r8 = n_{t}");
            let _ = writeln!(s, "global perp_thread_{t}");
            let _ = writeln!(s, "section .text");
            let _ = writeln!(s, "perp_thread_{t}:");
            let _ = writeln!(s, "    xor r8, r8            ; n_{t} = 0");
            let _ = writeln!(s, "    xor r9, r9            ; buf write cursor");
            let _ = writeln!(s, ".loop:");
            let _ = writeln!(s, "    cmp r8, rdi");
            let _ = writeln!(s, "    jge .done");
            let mut reg_cursor = 0usize;
            for instr in body {
                match *instr {
                    PerpInstr::Store { loc, k, a } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(s, "    ; [{name}] <- {k}*n+{a}");
                        let _ = writeln!(s, "    lea rax, [r8*{k} + {a}]");
                        let _ = writeln!(s, "    mov [rel {name}], rax");
                    }
                    PerpInstr::Load { reg, loc } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(s, "    ; reg{} <- [{name}]", reg.index());
                        let _ = writeln!(s, "    mov r1{}, [rel {name}]", reg.index());
                        reg_cursor = reg_cursor.max(reg.index() + 1);
                    }
                    PerpInstr::Mfence => {
                        let _ = writeln!(s, "    mfence");
                    }
                    PerpInstr::Xchg { reg, loc, k, a } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(s, "    ; xchg [{name}], {k}*n+{a} -> reg{}", reg.index());
                        let _ = writeln!(s, "    lea r1{}, [r8*{k} + {a}]", reg.index());
                        let _ = writeln!(s, "    xchg [rel {name}], r1{}", reg.index());
                        reg_cursor = reg_cursor.max(reg.index() + 1);
                    }
                }
            }
            if perp.reads_per_thread()[t] > 0 {
                let _ = writeln!(
                    s,
                    "    ; buf_{t}[{}*n+i] <- reg_i",
                    perp.reads_per_thread()[t]
                );
                for i in 0..perp.reads_per_thread()[t] {
                    let _ = writeln!(s, "    mov [rsi + r9*8 + {}], r1{}", i * 8, i);
                }
                let _ = writeln!(s, "    add r9, {}", perp.reads_per_thread()[t]);
            }
            let _ = reg_cursor;
            let _ = writeln!(s, "    inc r8");
            let _ = writeln!(s, "    jmp .loop");
            let _ = writeln!(s, ".done:");
            let _ = writeln!(s, "    ret");
            s
        })
        .collect()
}

/// Emits one AArch64 assembly file per thread of a perpetual test.
///
/// §V-A: "one could easily adapt the process to different ISAs by providing
/// the Converter with the instructions for loads, stores and fences in the
/// corresponding assembly language" — this is that adaptation. `MFENCE`
/// maps to `dmb ish`; the locked exchange maps to a load/store-exclusive
/// retry loop followed by `dmb ish` (the x86 `LOCK` semantics are a full
/// barrier). Calling convention mirrors the x86 emitter: `x0` = N, `x1` =
/// `buf_t`, `x9` = iteration index.
///
/// Note: a perpetual test emitted for AArch64 exercises that machine's own
/// (weaker) model; the x86-TSO outcome conversion stays valid because the
/// conditions only assume value uniqueness, not TSO.
pub fn emit_thread_asm_aarch64(perp: &PerpetualTest) -> Vec<String> {
    perp.threads()
        .iter()
        .enumerate()
        .map(|(t, body)| {
            let mut s = String::new();
            let _ = writeln!(
                s,
                "// perpetual litmus thread {t} of {} (aarch64)",
                perp.name()
            );
            let _ = writeln!(s, "// x0 = N, x1 = buf_{t}, x9 = n_{t}");
            let _ = writeln!(s, ".global perp_thread_{t}");
            let _ = writeln!(s, "perp_thread_{t}:");
            let _ = writeln!(s, "    mov x9, #0");
            let _ = writeln!(s, "    mov x10, #0            // buf cursor");
            let _ = writeln!(s, "1:  cmp x9, x0");
            let _ = writeln!(s, "    b.ge 9f");
            for instr in body {
                match *instr {
                    PerpInstr::Store { loc, k, a } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(s, "    // [{name}] <- {k}*n+{a}");
                        if k == 1 {
                            let _ = writeln!(s, "    add x2, x9, #{a}");
                        } else {
                            let _ = writeln!(s, "    mov x3, #{k}");
                            let _ = writeln!(s, "    mul x2, x9, x3");
                            let _ = writeln!(s, "    add x2, x2, #{a}");
                        }
                        let _ = writeln!(s, "    adrp x4, {name}");
                        let _ = writeln!(s, "    str x2, [x4, :lo12:{name}]");
                    }
                    PerpInstr::Load { reg, loc } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(s, "    // reg{} <- [{name}]", reg.index());
                        let _ = writeln!(s, "    adrp x4, {name}");
                        let _ = writeln!(s, "    ldr x1{}, [x4, :lo12:{name}]", reg.index());
                    }
                    PerpInstr::Mfence => {
                        let _ = writeln!(s, "    dmb ish");
                    }
                    PerpInstr::Xchg { reg, loc, k, a } => {
                        let name = &perp.locations()[loc.index()];
                        let _ = writeln!(
                            s,
                            "    // swap [{name}] <- {k}*n+{a}, old -> reg{}",
                            reg.index()
                        );
                        let _ = writeln!(s, "    mov x3, #{k}");
                        let _ = writeln!(s, "    mul x2, x9, x3");
                        let _ = writeln!(s, "    add x2, x2, #{a}");
                        let _ = writeln!(s, "    adrp x4, {name}");
                        let _ = writeln!(s, "    add x4, x4, :lo12:{name}");
                        let _ = writeln!(s, "2:  ldxr x1{}, [x4]", reg.index());
                        let _ = writeln!(s, "    stxr w5, x2, [x4]");
                        let _ = writeln!(s, "    cbnz w5, 2b");
                        let _ = writeln!(s, "    dmb ish");
                    }
                }
            }
            if perp.reads_per_thread()[t] > 0 {
                let _ = writeln!(
                    s,
                    "    // buf_{t}[{}*n+i] <- reg_i",
                    perp.reads_per_thread()[t]
                );
                for i in 0..perp.reads_per_thread()[t] {
                    let _ = writeln!(s, "    str x1{i}, [x1, x10, lsl #3]");
                    let _ = writeln!(s, "    add x10, x10, #1");
                }
            }
            let _ = writeln!(s, "    add x9, x9, #1");
            let _ = writeln!(s, "    b 1b");
            let _ = writeln!(s, "9:  ret");
            s
        })
        .collect()
}

/// Emits the parameter file with `t<i>_reads` values (§V-A).
pub fn emit_params(perp: &PerpetualTest) -> String {
    let mut s = String::new();
    for (t, r) in perp.reads_per_thread().iter().enumerate() {
        let _ = writeln!(s, "t{t}_reads = {r}");
    }
    s
}

fn idx_expr(idx: IdxRef, exist_names: &[String]) -> String {
    match idx {
        IdxRef::Frame(p) => format!("n{p}"),
        IdxRef::Exist(e) => exist_names[e].clone(),
    }
}

fn cond_expr(cond: &PerpCond, exist_names: &[String]) -> String {
    if let PerpCond::Ws { left, right } = cond {
        return format!(
            "({kl} * ({il}) + {al} < {kr} * ({ir}) + {ar})",
            kl = left.k,
            al = left.a,
            il = idx_expr(left.writer, exist_names),
            kr = right.k,
            ar = right.a,
            ir = idx_expr(right.writer, exist_names),
        );
    }
    let load = cond.load().expect("rf/fr conditions carry a load");
    let val = format!(
        "buf{}[{} * n{} + {}]",
        load.frame_pos, load.reads_per_iter, load.frame_pos, load.slot
    );
    match cond {
        PerpCond::Rf { term, .. } => {
            let idx = idx_expr(term.writer, exist_names);
            format!(
                "({val} >= {k} * ({idx}) + {a} && ({val} - {a}) % {k} == 0)",
                k = term.k,
                a = term.a
            )
        }
        PerpCond::Fr { terms, .. } => terms
            .iter()
            .map(|t| {
                format!(
                    "({val} < {k} * ({idx}) + {a})",
                    k = t.k,
                    a = t.a,
                    idx = idx_expr(t.writer, exist_names)
                )
            })
            .collect::<Vec<_>>()
            .join(" && "),
        PerpCond::Ws { .. } => unreachable!("handled above"),
    }
}

/// Emits the C source of the exhaustive outcome counter (`COUNT`,
/// Algorithm 1) for one perpetual outcome of interest.
///
/// Existential writer indices (store-only threads) appear as an inner
/// feasibility search, written as a `for` scan for readability.
pub fn emit_count_c(perp: &PerpetualTest, outcome: &PerpetualOutcome) -> String {
    let tl = perp.load_thread_count();
    let mut s = String::new();
    let _ = writeln!(s, "/* exhaustive outcome counter for {} */", perp.name());
    let _ = writeln!(s, "#include <stdint.h>");
    let bufs: Vec<String> = (0..tl).map(|i| format!("const uint64_t *buf{i}")).collect();
    let _ = writeln!(
        s,
        "void COUNT(uint64_t N, {}, uint64_t counts[1]) {{",
        bufs.join(", ")
    );
    let _ = writeln!(s, "    counts[0] = 0;");
    for p in 0..tl {
        let indent = "    ".repeat(p + 1);
        let _ = writeln!(s, "{indent}for (uint64_t n{p} = 0; n{p} < N; n{p}++) {{");
    }
    let indent = "    ".repeat(tl + 1);
    let exist_names: Vec<String> = outcome
        .exist_threads()
        .iter()
        .map(|t: &ThreadId| format!("m{}", t.0))
        .collect();
    let body: Vec<String> = outcome
        .conds()
        .iter()
        .map(|c| cond_expr(c, &exist_names))
        .collect();
    if exist_names.is_empty() {
        let _ = writeln!(
            s,
            "{indent}if ({}) /* p_out_0: {} */",
            body.join(" && "),
            outcome.label()
        );
    } else {
        // Existential feasibility scan.
        let _ = writeln!(
            s,
            "{indent}if (({{ int hit = 0; /* p_out_0: {} */",
            outcome.label()
        );
        for e in &exist_names {
            let _ = writeln!(
                s,
                "{indent}    for (uint64_t {e} = 0; {e} < N && !hit; {e}++)"
            );
        }
        let _ = writeln!(s, "{indent}        if ({}) hit = 1;", body.join(" && "));
        let _ = writeln!(s, "{indent}    hit; }}))");
    }
    let _ = writeln!(s, "{indent}    counts[0]++;");
    for p in (0..tl).rev() {
        let indent = "    ".repeat(p + 1);
        let _ = writeln!(s, "{indent}}}");
    }
    let _ = writeln!(s, "}}");
    s
}

/// Emits the C source of the heuristic outcome counter (`COUNTH`,
/// Algorithm 2) for one heuristic outcome.
pub fn emit_counth_c(perp: &PerpetualTest, outcome: &HeuristicOutcome) -> String {
    let tl = perp.load_thread_count();
    let mut s = String::new();
    let _ = writeln!(s, "/* heuristic outcome counter for {} */", perp.name());
    let _ = writeln!(s, "#include <stdint.h>");
    let bufs: Vec<String> = (0..tl).map(|i| format!("const uint64_t *buf{i}")).collect();
    let _ = writeln!(
        s,
        "void COUNTH(uint64_t N, {}, uint64_t counts[1]) {{",
        bufs.join(", ")
    );
    let _ = writeln!(s, "    counts[0] = 0;");
    let _ = writeln!(s, "    for (uint64_t n0 = 0; n0 < N; n0++) {{");
    let _ = writeln!(
        s,
        "        if (p_out_h_0(n0, N{})) /* {} */",
        (0..tl).map(|i| format!(", buf{i}")).collect::<String>(),
        outcome.label()
    );
    let _ = writeln!(s, "            counts[0]++;");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    // Emit p_out_h as its own function with the derivation plan.
    let _ = writeln!(
        s,
        "static int p_out_h_0(uint64_t n0, uint64_t N{}) {{",
        (0..tl)
            .map(|i| format!(", const uint64_t *buf{i}"))
            .collect::<String>()
    );
    for d in outcome.plan() {
        let target = match d.target {
            IdxRef::Frame(p) => format!("n{p}"),
            IdxRef::Exist(e) => format!("m{e}"),
        };
        match d.rule {
            DeriveRule::FromRf { load, k, a } => {
                let val = format!(
                    "buf{}[{} * n{} + {}]",
                    load.frame_pos, load.reads_per_iter, load.frame_pos, load.slot
                );
                let _ = writeln!(
                    s,
                    "    if ({val} < {a} || ({val} - {a}) % {k} != 0) return 0;"
                );
                let _ = writeln!(s, "    uint64_t {target} = ({val} - {a}) / {k};");
            }
            DeriveRule::FromFr { load, k, a } => {
                let val = format!(
                    "buf{}[{} * n{} + {}]",
                    load.frame_pos, load.reads_per_iter, load.frame_pos, load.slot
                );
                let _ = writeln!(
                    s,
                    "    uint64_t {target} = {val} < {a} ? 0 : ({val} - {a}) / {k} + 1;"
                );
            }
            DeriveRule::Lockstep => {
                let _ = writeln!(s, "    uint64_t {target} = n0;");
            }
        }
        let _ = writeln!(s, "    if ({target} >= N) return 0;");
    }
    let exist_names: Vec<String> = (0..outcome.exist_count())
        .map(|e| format!("m{e}"))
        .collect();
    for cond in heuristic_conds(outcome) {
        let _ = writeln!(s, "    if (!{}) return 0;", cond_expr(&cond, &exist_names));
    }
    let _ = writeln!(s, "    return 1;");
    let _ = writeln!(s, "}}");
    s
}

fn heuristic_conds(h: &HeuristicOutcome) -> Vec<PerpCond> {
    // The conditions re-checked after derivation are the outcome's own.
    h.conds_for_codegen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmap::KMap;
    use crate::outcomes::convert_all_outcomes;
    use perple_model::suite;

    fn sb_parts() -> (PerpetualTest, Vec<PerpetualOutcome>) {
        let t = suite::sb();
        let kmap = KMap::compute(&t);
        let perp = PerpetualTest::convert(&t, &kmap);
        let outcomes = convert_all_outcomes(&t, &perp, &kmap);
        (perp, outcomes)
    }

    #[test]
    fn asm_contains_sequence_arithmetic() {
        let (perp, _) = sb_parts();
        let files = emit_thread_asm(&perp);
        assert_eq!(files.len(), 2);
        assert!(files[0].contains("lea rax, [r8*1 + 1]"));
        assert!(files[0].contains("mov [rel x], rax"));
        assert!(files[0].contains("mov r10, [rel y]"));
        assert!(files[0].contains("perp_thread_0"));
    }

    #[test]
    fn asm_of_fenced_test_contains_mfence() {
        let t = suite::amd5();
        let perp = PerpetualTest::convert(&t, &KMap::compute(&t));
        let files = emit_thread_asm(&perp);
        assert!(files[0].contains("mfence"));
        assert!(files[1].contains("mfence"));
    }

    #[test]
    fn aarch64_asm_contains_sequence_arithmetic_and_barriers() {
        let (perp, _) = sb_parts();
        let files = emit_thread_asm_aarch64(&perp);
        assert_eq!(files.len(), 2);
        assert!(files[0].contains("add x2, x9, #1"), "{}", files[0]);
        assert!(files[0].contains("str x2, [x4, :lo12:x]"));
        assert!(files[0].contains("ldr x10, [x4, :lo12:y]"));
        assert!(files[0].contains("ret"));
    }

    #[test]
    fn aarch64_fences_and_locked_ops_map_to_dmb_and_exclusives() {
        let amd5 = suite::amd5();
        let p5 = PerpetualTest::convert(&amd5, &KMap::compute(&amd5));
        let asm = emit_thread_asm_aarch64(&p5).join("\n");
        assert!(asm.contains("dmb ish"));

        let amd10 = suite::amd10();
        let p10 = PerpetualTest::convert(&amd10, &KMap::compute(&amd10));
        let asm = emit_thread_asm_aarch64(&p10).join("\n");
        assert!(asm.contains("ldxr"));
        assert!(asm.contains("stxr"));
        assert!(asm.contains("cbnz"));
    }

    #[test]
    fn aarch64_multi_writer_sequences_use_mul() {
        let n5 = suite::n5();
        let p = PerpetualTest::convert(&n5, &KMap::compute(&n5));
        let asm = emit_thread_asm_aarch64(&p).join("\n");
        assert!(asm.contains("mov x3, #2"));
        assert!(asm.contains("mul x2, x9, x3"));
    }

    #[test]
    fn params_file_lists_reads() {
        let (perp, _) = sb_parts();
        let p = emit_params(&perp);
        assert_eq!(p, "t0_reads = 1\nt1_reads = 1\n");
    }

    #[test]
    fn count_c_has_nested_loops_and_one_condition_per_outcome() {
        let (perp, outcomes) = sb_parts();
        for (o, outcome) in outcomes.iter().enumerate() {
            let c = emit_count_c(&perp, outcome);
            assert!(c.contains("void COUNT("));
            assert!(c.contains("for (uint64_t n0 = 0; n0 < N; n0++)"));
            assert!(c.contains("for (uint64_t n1 = 0; n1 < N; n1++)"));
            assert!(!c.contains("else if"), "outcome {o} chained:\n{c}");
            assert_eq!(c.matches("counts[0]++").count(), 1);
        }
        // The sb target condition (Figure 6 p_out_0): both fr inequalities.
        let c = emit_count_c(&perp, &outcomes[0]);
        assert!(c.contains("buf0[1 * n0 + 0] < 1 * (n1) + 1"));
    }

    #[test]
    fn count_c_scans_existential_indices_for_mp() {
        let t = suite::mp();
        let kmap = KMap::compute(&t);
        let perp = PerpetualTest::convert(&t, &kmap);
        let target = crate::outcomes::PerpetualOutcome::convert_target(&t, &perp, &kmap);
        let c = emit_count_c(&perp, &target);
        assert!(c.contains("for (uint64_t m0 = 0; m0 < N && !hit; m0++)"));
    }

    #[test]
    fn counth_c_contains_derivations() {
        let (perp, outcomes) = sb_parts();
        for outcome in &outcomes {
            let c = emit_counth_c(&perp, &HeuristicOutcome::from_perpetual(outcome, 2));
            assert!(c.contains("void COUNTH("));
            assert!(c.contains("p_out_h_0"));
            assert!(!c.contains("else if"));
            // Derivation of the partner index from the pivot's loaded value.
            assert!(c.contains("uint64_t n1 = "));
            assert!(c.contains("return 1;"));
        }
    }
}
