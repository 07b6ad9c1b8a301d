//! Parser for the litmus7 text format (x86 subset).
//!
//! The accepted grammar covers the instruction set used by the x86-TSO test
//! family:
//!
//! ```text
//! X86 sb
//! "store buffering"
//! { x=0; y=0; }
//!  P0          | P1          ;
//!  MOV [x],$1  | MOV [y],$1  ;
//!  MOV EAX,[y] | MOV EAX,[x] ;
//! exists (0:EAX=0 /\ 1:EAX=0)
//! ```
//!
//! Supported instructions: `MOV [loc],$v` (store), `MOV REG,[loc]` (load),
//! `MFENCE`, and the extension `XCHG [loc],$v -> REG` (locked exchange that
//! stores `v` and loads the previous value into `REG`). Conditions are
//! conjunctions of `t:REG=v` and `[loc]=v` atoms under `exists` or
//! `~exists`.
//!
//! [`parse_with_spans`] additionally returns a [`SourceMap`] recording the
//! byte-offset [`Span`] of every instruction, condition atom, and init
//! entry — the input to spanned diagnostics (lint rules, error messages).
//!
//! # Example
//!
//! ```
//! let src = r#"
//! X86 sb
//! { x=0; y=0; }
//!  P0          | P1          ;
//!  MOV [x],$1  | MOV [y],$1  ;
//!  MOV EAX,[y] | MOV EAX,[x] ;
//! exists (0:EAX=0 /\ 1:EAX=0)
//! "#;
//! let test = perple_model::parser::parse(src)?;
//! assert_eq!(test.name(), "sb");
//! assert_eq!(test.thread_count(), 2);
//! # Ok::<(), perple_model::ModelError>(())
//! ```

use crate::cond::Quantifier;
use crate::error::ModelError;
use crate::span::{SourceMap, Span};
use crate::test::{LitmusTest, TestBuilder};

/// Parses a litmus test from its litmus7 text representation.
///
/// # Errors
///
/// Returns [`ModelError::Parse`] (with a line number and, where a concrete
/// token is at fault, its byte span) on malformed input and propagates
/// structural errors from [`TestBuilder::build`].
pub fn parse(input: &str) -> Result<LitmusTest, ModelError> {
    parse_with_spans(input).map(|(test, _)| test)
}

/// Resolves byte spans of sub-slices against the original input.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    input: &'a str,
}

impl Ctx<'_> {
    /// Span of `sub`, which must be a slice of the original input.
    fn span(&self, line: usize, sub: &str) -> Span {
        let start = sub.as_ptr() as usize - self.input.as_ptr() as usize;
        Span::new(line, start, start + sub.len())
    }
}

/// Parses a litmus test and the [`SourceMap`] locating its parts in
/// `input`.
///
/// # Errors
/// As for [`parse`].
pub fn parse_with_spans(input: &str) -> Result<(LitmusTest, SourceMap), ModelError> {
    let ctx = Ctx { input };
    let mut lines = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    // Header: "X86 <name>".
    let (lineno, header) = lines.next().ok_or_else(|| perr(0, "empty input"))?;
    let mut parts = header.split_whitespace();
    let arch = parts.next().unwrap_or_default();
    if !arch.eq_ignore_ascii_case("x86") {
        return Err(perr_span(
            lineno,
            ctx.span(lineno, arch),
            format!("expected architecture X86, found {arch:?}"),
        ));
    }
    let name = parts
        .next()
        .ok_or_else(|| perr(lineno, "missing test name after architecture"))?;
    let name_span = ctx.span(lineno, name);

    let mut builder = TestBuilder::new(name);

    // Optional doc string(s): quoted lines before the init block.
    let mut pending: Option<(usize, &str)> = None;
    for (n, l) in lines.by_ref() {
        if l.starts_with('"') {
            let doc = l.trim_matches('"').to_owned();
            builder.doc(doc);
        } else {
            pending = Some((n, l));
            break;
        }
    }

    // Init block: "{ x=0; y=0; }" — possibly spread over lines. Collected
    // as per-line segments so entry spans survive.
    let (n, l) = pending.ok_or_else(|| perr(lineno, "missing init block"))?;
    if !l.starts_with('{') {
        return Err(perr_span(
            n,
            ctx.span(n, l),
            "expected init block starting with '{'",
        ));
    }
    let mut segments: Vec<(usize, &str)> = Vec::new();
    let mut rest_after_init: Option<(usize, &str)> = None;
    let mut cur: (usize, &str) = (n, &l[1..]);
    loop {
        let (cn, cl) = cur;
        if let Some(close) = cl.find('}') {
            segments.push((cn, &cl[..close]));
            let tail = cl[close + 1..].trim();
            if !tail.is_empty() {
                rest_after_init = Some((cn, tail));
            }
            break;
        }
        segments.push((cn, cl));
        match lines.next() {
            Some((nn, nl)) => cur = (nn, nl),
            None => return Err(perr(cn, "unterminated init block")),
        }
    }
    let mut init_entries: Vec<(String, u32, Span)> = Vec::new();
    for &(sn, seg) in &segments {
        parse_init_segment(seg, sn, ctx, &mut init_entries)?;
    }

    // Program table rows.
    let mut rows: Vec<(usize, &str)> = Vec::new();
    let mut cond_line: Option<(usize, &str)> = None;
    fn feed<'a>(
        n: usize,
        l: &'a str,
        rows: &mut Vec<(usize, &'a str)>,
    ) -> Option<(usize, &'a str)> {
        let lower = l.to_ascii_lowercase();
        if lower.starts_with("exists")
            || lower.starts_with("~exists")
            || lower.starts_with("forall")
        {
            Some((n, l))
        } else {
            rows.push((n, l));
            None
        }
    }
    if let Some((rn, rl)) = rest_after_init {
        cond_line = feed(rn, rl, &mut rows);
    }
    if cond_line.is_none() {
        for (n, l) in lines {
            if let Some(c) = feed(n, l, &mut rows) {
                cond_line = Some(c);
                break;
            }
        }
    }
    if rows.is_empty() {
        return Err(perr(n, "missing program table"));
    }

    // Split rows into per-thread columns (cells stay input slices, so
    // their spans survive).
    fn split_row(l: &str) -> Vec<&str> {
        l.trim_end_matches(';').split('|').map(str::trim).collect()
    }
    let (hn, header_row) = rows[0];
    let headers = split_row(header_row);
    let nthreads = headers.len();
    for (i, h) in headers.iter().enumerate() {
        let expected = format!("P{i}");
        if !h.eq_ignore_ascii_case(&expected) {
            return Err(perr_span(
                hn,
                ctx.span(hn, h),
                format!("expected thread header {expected}, found {h:?}"),
            ));
        }
    }
    let mut columns: Vec<Vec<(usize, &str)>> = vec![Vec::new(); nthreads];
    for &(rn, row) in rows.iter().skip(1) {
        let cells = split_row(row);
        if cells.len() != nthreads {
            return Err(perr_span(
                rn,
                ctx.span(rn, row),
                format!("row has {} columns, expected {nthreads}", cells.len()),
            ));
        }
        for (t, cell) in cells.into_iter().enumerate() {
            if !cell.is_empty() {
                columns[t].push((rn, cell));
            }
        }
    }

    let mut instr_spans: Vec<Vec<Span>> = Vec::with_capacity(nthreads);
    for column in &columns {
        let mut tb = builder.thread();
        let mut spans = Vec::with_capacity(column.len());
        for &(rn, cell) in column {
            parse_instr(&mut tb, cell, rn, ctx)?;
            spans.push(ctx.span(rn, cell));
        }
        instr_spans.push(spans);
    }

    // Init overrides (after locations are interned by the program; unknown
    // init locations are interned here so `{ z=3; }` with an unused z still
    // builds, matching litmus7).
    for (loc, v, _) in &init_entries {
        if *v != 0 {
            builder.init(loc.clone(), *v);
        }
    }

    // Condition.
    let (cn, cond) = cond_line.ok_or_else(|| perr(n, "missing condition line"))?;
    let cond_span = ctx.span(cn, cond);
    let mut reg_spans = Vec::new();
    let mut mem_spans = Vec::new();
    parse_condition(&mut builder, cond, cn, ctx, &mut reg_spans, &mut mem_spans)?;

    let map = SourceMap {
        name: name_span,
        init_entries: init_entries
            .into_iter()
            .map(|(loc, _, span)| (loc, span))
            .collect(),
        instrs: instr_spans,
        cond: cond_span,
        // Condition::atoms order: register atoms first, then memory atoms
        // (the builder's resolution order).
        cond_atoms: reg_spans.into_iter().chain(mem_spans).collect(),
    };
    builder.build().map(|test| (test, map))
}

fn perr(line: usize, msg: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line,
        span: None,
        msg: msg.into(),
    }
}

fn perr_span(line: usize, span: Span, msg: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line,
        span: Some(span),
        msg: msg.into(),
    }
}

/// Parses one line's worth of init entries (`x=0; y=3;`) into
/// `(location, value, span)` triples.
fn parse_init_segment(
    seg: &str,
    line: usize,
    ctx: Ctx<'_>,
    out: &mut Vec<(String, u32, Span)>,
) -> Result<(), ModelError> {
    for entry in seg.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let espan = ctx.span(line, entry);
        let (loc, val) = entry
            .split_once('=')
            .ok_or_else(|| perr_span(line, espan, format!("malformed init entry {entry:?}")))?;
        let loc = loc
            .trim()
            .trim_start_matches('[')
            .trim_end_matches(']')
            .to_owned();
        if loc.contains(':') {
            return Err(perr_span(
                line,
                espan,
                "register initialization is not supported",
            ));
        }
        let val: u32 = val
            .trim()
            .parse()
            .map_err(|_| perr_span(line, espan, format!("malformed init value in {entry:?}")))?;
        out.push((loc, val, espan));
    }
    Ok(())
}

fn parse_instr(
    tb: &mut crate::test::ThreadBuilder<'_>,
    cell: &str,
    line: usize,
    ctx: Ctx<'_>,
) -> Result<(), ModelError> {
    let upper = cell.to_ascii_uppercase();
    if upper == "MFENCE" {
        tb.mfence();
        return Ok(());
    }
    if let Some(rest) = strip_mnemonic(&upper, cell, "MOV") {
        let (dst, src) = rest.split_once(',').ok_or_else(|| {
            perr_span(
                line,
                ctx.span(line, cell),
                format!("malformed MOV {cell:?}"),
            )
        })?;
        let dst = dst.trim();
        let src = src.trim();
        return if dst.starts_with('[') {
            let loc = brackets(dst, line, ctx)?;
            let value = immediate(src, line, ctx)?;
            tb.store(&loc, value);
            Ok(())
        } else if src.starts_with('[') {
            let reg = register(dst, line, ctx)?;
            let loc = brackets(src, line, ctx)?;
            tb.load(reg, &loc);
            Ok(())
        } else {
            Err(perr_span(
                line,
                ctx.span(line, cell),
                format!("unsupported MOV form {cell:?}"),
            ))
        };
    }
    if let Some(rest) = strip_mnemonic(&upper, cell, "XCHG") {
        // XCHG [loc],$v -> REG
        let (mem_part, reg) = rest.split_once("->").ok_or_else(|| {
            perr_span(
                line,
                ctx.span(line, cell),
                format!("malformed XCHG (expected '->') {cell:?}"),
            )
        })?;
        let (dst, val) = mem_part.split_once(',').ok_or_else(|| {
            perr_span(
                line,
                ctx.span(line, cell),
                format!("malformed XCHG {cell:?}"),
            )
        })?;
        let loc = brackets(dst.trim(), line, ctx)?;
        let value = immediate(val.trim(), line, ctx)?;
        let reg = register(reg.trim(), line, ctx)?;
        tb.xchg(reg, &loc, value);
        return Ok(());
    }
    Err(perr_span(
        line,
        ctx.span(line, cell),
        format!("unknown instruction {cell:?}"),
    ))
}

/// If `upper` starts with the mnemonic, returns the remainder of the
/// original-case `cell` after it.
fn strip_mnemonic<'a>(upper: &str, cell: &'a str, mnemonic: &str) -> Option<&'a str> {
    if upper.starts_with(mnemonic)
        && cell[mnemonic.len()..].starts_with(|c: char| c.is_whitespace())
    {
        Some(cell[mnemonic.len()..].trim_start())
    } else {
        None
    }
}

fn brackets(s: &str, line: usize, ctx: Ctx<'_>) -> Result<String, ModelError> {
    if s.starts_with('[') && s.ends_with(']') && s.len() > 2 {
        Ok(s[1..s.len() - 1].trim().to_owned())
    } else {
        Err(perr_span(
            line,
            ctx.span(line, s),
            format!("expected bracketed location, found {s:?}"),
        ))
    }
}

/// A load's destination: an identifier (`EAX`, `R0`), so an operand
/// such as `$255` is refused rather than taken for a register name.
fn register<'a>(s: &'a str, line: usize, ctx: Ctx<'_>) -> Result<&'a str, ModelError> {
    let mut chars = s.chars();
    if chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        Ok(s)
    } else {
        Err(perr_span(
            line,
            ctx.span(line, s),
            format!("expected register, found {s:?}"),
        ))
    }
}

fn immediate(s: &str, line: usize, ctx: Ctx<'_>) -> Result<u32, ModelError> {
    let digits = s.strip_prefix('$').unwrap_or(s);
    digits.parse().map_err(|_| {
        perr_span(
            line,
            ctx.span(line, s),
            format!("expected immediate, found {s:?}"),
        )
    })
}

fn parse_condition(
    builder: &mut TestBuilder,
    cond: &str,
    line: usize,
    ctx: Ctx<'_>,
    reg_spans: &mut Vec<Span>,
    mem_spans: &mut Vec<Span>,
) -> Result<(), ModelError> {
    let cond = cond.trim();
    let (quant, rest) = if let Some(r) = cond.strip_prefix("~exists") {
        (Quantifier::NotExists, r)
    } else if let Some(r) = cond.strip_prefix("exists") {
        (Quantifier::Exists, r)
    } else {
        return Err(perr_span(
            line,
            ctx.span(line, cond),
            format!("unsupported condition quantifier in {cond:?}"),
        ));
    };
    builder.quantifier(quant);
    let body = rest.trim();
    let body = body
        .strip_prefix('(')
        .and_then(|b| b.strip_suffix(')'))
        .ok_or_else(|| {
            perr_span(
                line,
                ctx.span(line, cond),
                "condition body must be parenthesized",
            )
        })?;
    for atom in body.split("/\\") {
        let atom = atom.trim();
        if atom.is_empty() {
            continue;
        }
        let aspan = ctx.span(line, atom);
        let (lhs, rhs) = atom
            .split_once('=')
            .ok_or_else(|| perr_span(line, aspan, format!("malformed condition atom {atom:?}")))?;
        let lhs = lhs.trim();
        let value: u32 = rhs.trim().parse().map_err(|_| {
            perr_span(
                line,
                aspan,
                format!("malformed condition value in {atom:?}"),
            )
        })?;
        if lhs.starts_with('[') {
            let loc = brackets(lhs, line, ctx)?;
            builder.mem_cond(loc, value);
            mem_spans.push(aspan);
        } else {
            let (t, reg) = lhs.split_once(':').ok_or_else(|| {
                perr_span(line, aspan, format!("malformed register atom {atom:?}"))
            })?;
            let t = t.trim().trim_start_matches(['P', 'p']);
            let thread: usize = t.parse().map_err(|_| {
                perr_span(line, aspan, format!("malformed thread index in {atom:?}"))
            })?;
            builder.reg_cond(thread, reg.trim(), value);
            reg_spans.push(aspan);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LocId, RegId, ThreadId};
    use crate::instr::Instr;

    const SB: &str = r#"
X86 sb
"store buffering"
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
"#;

    #[test]
    fn parses_sb() {
        let t = parse(SB).unwrap();
        assert_eq!(t.name(), "sb");
        assert_eq!(t.doc(), "store buffering");
        assert_eq!(t.thread_count(), 2);
        assert_eq!(
            t.thread(ThreadId(0)),
            &[
                Instr::Store {
                    loc: LocId(0),
                    value: 1
                },
                Instr::Load {
                    reg: RegId(0),
                    loc: LocId(1)
                }
            ]
        );
        assert_eq!(t.target().atoms().len(), 2);
        assert_eq!(t.target_outcome().unwrap().label(), "00");
    }

    #[test]
    fn spans_identify_instructions_and_atoms() {
        let (t, map) = parse_with_spans(SB).unwrap();
        // Every instruction has a span whose slice re-parses to itself.
        assert_eq!(map.instrs.len(), t.thread_count());
        for (tid, spans) in map.instrs.iter().enumerate() {
            assert_eq!(spans.len(), t.threads()[tid].len(), "thread {tid}");
            for s in spans {
                let text = s.slice(SB).unwrap();
                assert!(!text.is_empty());
                assert!(
                    text.starts_with("MOV"),
                    "instr span slices to {text:?} at {s}"
                );
            }
        }
        assert_eq!(map.instr(0, 0).unwrap().slice(SB), Some("MOV [x],$1"));
        assert_eq!(map.instr(1, 1).unwrap().slice(SB), Some("MOV EAX,[x]"));
        // Condition atoms, in Condition::atoms order.
        assert_eq!(map.cond_atoms.len(), t.target().atoms().len());
        assert_eq!(map.cond_atom(0).unwrap().slice(SB), Some("0:EAX=0"));
        assert_eq!(map.cond_atom(1).unwrap().slice(SB), Some("1:EAX=0"));
        assert_eq!(
            map.condition().slice(SB),
            Some("exists (0:EAX=0 /\\ 1:EAX=0)")
        );
        // Init entries and name.
        assert_eq!(map.init_entry("x").unwrap().slice(SB), Some("x=0"));
        assert_eq!(map.init_entry("y").unwrap().slice(SB), Some("y=0"));
        assert_eq!(map.name.slice(SB), Some("sb"));
        // Line numbers are one-based over the raw text (leading blank line).
        assert_eq!(map.name.line, 2);
        assert_eq!(map.instr(0, 0).unwrap().line, 6);
        assert_eq!(map.condition().line, 8);
    }

    #[test]
    fn mem_atoms_span_after_reg_atoms_in_atom_order() {
        let src = "X86 t\n{ x=0; }\n P0         | P1          ;\n MOV [x],$1 | MOV EAX,[x] ;\nexists ([x]=1 /\\ 1:EAX=1)";
        let (t, map) = parse_with_spans(src).unwrap();
        // atoms(): reg atoms first (1:EAX=1), then mem atoms ([x]=1).
        let atoms = t.target().atoms();
        assert!(matches!(atoms[0], crate::cond::CondAtom::RegEq { .. }));
        assert!(matches!(atoms[1], crate::cond::CondAtom::MemEq { .. }));
        assert_eq!(map.cond_atom(0).unwrap().slice(src), Some("1:EAX=1"));
        assert_eq!(map.cond_atom(1).unwrap().slice(src), Some("[x]=1"));
    }

    #[test]
    fn parse_errors_carry_token_spans() {
        let src = "X86 t\n{ x=0; }\n P0   ;\n FROB ;\nexists (0:EAX=0)";
        let err = parse(src).unwrap_err();
        let ModelError::Parse {
            line,
            span: Some(span),
            ..
        } = err
        else {
            panic!("expected a spanned parse error, got {err:?}");
        };
        assert_eq!(line, 4);
        assert_eq!(span.slice(src), Some("FROB"));
        assert!(err.to_string().contains("bytes"), "{err}");
    }

    #[test]
    fn parses_mfence_and_three_threads() {
        let src = r#"
X86 podwr001
{ x=0; y=0; z=0; }
 P0          | P1          | P2          ;
 MOV [x],$1  | MOV [y],$1  | MOV [z],$1  ;
 MFENCE      |             |             ;
 MOV EAX,[y] | MOV EAX,[z] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0 /\ 2:EAX=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.thread_count(), 3);
        assert_eq!(t.thread(ThreadId(0)).len(), 3);
        assert_eq!(t.thread(ThreadId(1)).len(), 2); // blank cell skipped
        assert_eq!(t.thread(ThreadId(0))[1], Instr::Mfence);
    }

    #[test]
    fn parses_xchg_extension() {
        let src = r#"
X86 amd10ish
{ x=0; }
 P0                  | P1          ;
 XCHG [x],$1 -> EAX  | MOV EBX,[x] ;
exists (1:EBX=1 /\ 0:EAX=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(
            t.thread(ThreadId(0))[0],
            Instr::Xchg {
                reg: RegId(0),
                loc: LocId(0),
                value: 1
            }
        );
    }

    #[test]
    fn parses_not_exists_and_mem_atom() {
        let src = r#"
X86 co
{ x=0; }
 P0         | P1         ;
 MOV [x],$1 | MOV [x],$2 ;
~exists ([x]=1)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.target().quantifier(), Quantifier::NotExists);
        assert!(t.target().inspects_memory());
    }

    #[test]
    fn parses_nonzero_init() {
        let src = r#"
X86 iv
{ x=5; }
 P0          ;
 MOV EAX,[x] ;
exists (0:EAX=5)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.init(LocId(0)), 5);
    }

    #[test]
    fn rejects_wrong_arch() {
        let src = "PPC t\n{ }\n P0 ;\n MOV EAX,[x] ;\nexists (0:EAX=0)";
        assert!(matches!(parse(src), Err(ModelError::Parse { .. })));
    }

    #[test]
    fn rejects_bad_header_and_rows() {
        let bad_rows = r#"
X86 t
{ x=0; }
 P0          | P1          ;
 MOV [x],$1  ;
exists (0:EAX=0)
"#;
        let err = parse(bad_rows).unwrap_err();
        assert!(err.to_string().contains("columns"), "{err}");

        let bad_thread_header = r#"
X86 t
{ x=0; }
 P1          ;
 MOV [x],$1  ;
exists (0:EAX=0)
"#;
        assert!(parse(bad_thread_header).is_err());
    }

    #[test]
    fn rejects_unknown_instruction_and_register_init() {
        let src = r#"
X86 t
{ x=0; }
 P0        ;
 NOP       ;
exists (0:EAX=0)
"#;
        assert!(parse(src)
            .unwrap_err()
            .to_string()
            .contains("unknown instruction"));

        let src2 = r#"
X86 t
{ 0:EAX=1; }
 P0          ;
 MOV EAX,[x] ;
exists (0:EAX=0)
"#;
        assert!(parse(src2)
            .unwrap_err()
            .to_string()
            .contains("register initialization"));
    }

    #[test]
    fn rejects_a_load_or_exchange_into_a_non_register() {
        for (cell, bad) in [("MOV $255,[x]", "$255"), ("XCHG [x],$1 -> 1x", "1x")] {
            let src = format!("X86 t\n{{ x=0; }}\n P0 ;\n {cell} ;\nexists ([x]=0)");
            let err = parse(&src).unwrap_err();
            let ModelError::Parse {
                line: 4,
                span: Some(span),
                ..
            } = err
            else {
                panic!("expected a spanned parse error on line 4, got {err:?}");
            };
            assert_eq!(span.slice(&src), Some(bad));
            assert!(err.to_string().contains("expected register"), "{err}");
        }
    }

    #[test]
    fn rejects_missing_condition() {
        let src = "X86 t\n{ x=0; }\n P0 ;\n MOV EAX,[x] ;\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn multiline_init_block() {
        let src = "X86 t\n{ x=0;\n y=0; }\n P0 | P1 ;\n MOV EAX,[x] | MOV EAX,[y] ;\nexists (0:EAX=0 /\\ 1:EAX=0)";
        let (t, map) = parse_with_spans(src).unwrap();
        assert_eq!(t.thread_count(), 2);
        // Entry spans point at their own lines.
        assert_eq!(map.init_entry("x").unwrap().line, 2);
        assert_eq!(map.init_entry("y").unwrap().line, 3);
        assert_eq!(map.init_entry("y").unwrap().slice(src), Some("y=0"));
    }

    #[test]
    fn condition_after_init_on_same_line_is_rejected_gracefully() {
        // Condition on the init line means no program table.
        let src = "X86 t\n{ x=0; } exists (0:EAX=0)\n";
        assert!(parse(src).is_err());
    }
}
