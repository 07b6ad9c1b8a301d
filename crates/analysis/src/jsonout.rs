//! The shared zero-dependency JSON layer (the offline build has no serde).
//!
//! Every report and store writer in the workspace — the resilient audit
//! reports, [`crate::metrics::StageTimings`], the campaign run store, the
//! content-addressed artifact cache — serializes through this one module so
//! the output is **byte-stable**: object keys appear exactly in insertion
//! order, integers print without padding or sign noise, and floats use
//! Rust's shortest round-trip `Display` form (a pure function of the value,
//! identical across runs, processes, and platforms). Two serializations of
//! equal values are equal byte strings, which is what makes result files
//! diffable and cache entries content-addressable.
//!
//! The module also carries a small recursive-descent parser ([`parse`]) so
//! stored runs can be loaded back without external crates. The parser
//! accepts exactly what the writer emits (plus standard JSON whitespace,
//! `\uXXXX` escapes, and surrogate pairs), keeps object key order, and
//! distinguishes integers from floats so `u64` counters survive a
//! round-trip exactly.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the cap turns a corrupt or hostile document of
/// thousands of `[` into an error instead of a stack overflow; the
/// workspace's own documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// A JSON value with order-preserving objects and exact integers.
///
/// Integers are kept as `i128` (wide enough for `u64` counters and
/// millisecond timestamps) separately from floats so round-trips never lose
/// precision on counts, seeds, or digests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i128),
    /// A float (serialized via [`fmt_f64`]).
    Float(f64),
    /// A string (serialized via [`escape`]).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys serialize in insertion order (stable, not sorted).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i128` integer.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly when they fit).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v as i128)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i128)
    }
}
impl From<u128> for Json {
    fn from(v: u128) -> Self {
        Json::Int(v as i128)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, the named control escapes, and `\u00XX` for the rest of the
/// C0 range. Non-ASCII characters pass through verbatim (the files are
/// UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Byte-stable float formatting: Rust's shortest round-trip `Display` form,
/// with the non-JSON values normalized (`NaN`/`±inf` → `null`, `-0.0` →
/// `0`). Equal inputs always produce equal bytes; re-parsing the output
/// recovers the exact value.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_owned();
    }
    if x == 0.0 {
        return "0".to_owned(); // collapses -0.0
    }
    let s = format!("{x}");
    // `Display` prints integral floats without a point ("3"); keep that —
    // the parser will read it back as Int, and as_f64 widens losslessly.
    s
}

/// Parses a JSON document (exactly one value plus surrounding whitespace).
///
/// Object key order is preserved. Numbers without `.`, `e`, or `E` parse as
/// [`Json::Int`]; everything else as [`Json::Float`].
pub fn parse(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

/// Parses a JSON-lines document: one value per non-empty line.
pub fn parse_lines(s: &str) -> Result<Vec<Json>, String> {
    s.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(parse)
        .collect()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad float {text:?}"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad integer {text:?}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half next.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                let lo = parse_hex4(b, *pos + 3)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    *pos += 6;
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| "bad surrogate pair".to_owned())?,
                                    );
                                } else {
                                    return Err("unpaired high surrogate".to_owned());
                                }
                            } else {
                                return Err("unpaired high surrogate".to_owned());
                            }
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err("unpaired low surrogate".to_owned());
                        } else {
                            out.push(
                                char::from_u32(hi).ok_or_else(|| "bad \\u escape".to_owned())?,
                            );
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character verbatim.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let chunk = b
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_owned())?;
    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
    u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_characters_escape_and_round_trip() {
        let nasty = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h";
        let escaped = escape(nasty);
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh");
        let doc = Json::Str(nasty.to_owned()).render();
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.to_owned()));
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".to_owned()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_owned())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired surrogate rejected");
        // Non-ASCII passes through the writer verbatim and re-parses.
        let s = Json::Str("héllo 世界".to_owned()).render();
        assert_eq!(parse(&s).unwrap(), Json::Str("héllo 世界".to_owned()));
    }

    #[test]
    fn float_formatting_is_byte_stable() {
        // Equal values → equal bytes, across repeated calls.
        for x in [0.1, 0.30000000000000004, 1e300, -2.5, 1.0 / 3.0] {
            assert_eq!(fmt_f64(x), fmt_f64(x));
            // And the printed form round-trips to the exact same value.
            let back: f64 = fmt_f64(x).parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(-0.0), "0", "negative zero normalizes");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn integers_survive_round_trips_exactly() {
        for v in [0u64, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let doc = Json::from(v).render();
            assert_eq!(parse(&doc).unwrap().as_u64(), Some(v));
        }
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::Int(-7).render(), "-7");
    }

    #[test]
    fn object_key_order_is_insertion_order() {
        let o = Json::obj(vec![
            ("zebra", Json::from(1u64)),
            ("apple", Json::from(2u64)),
        ]);
        assert_eq!(o.render(), "{\"zebra\":1,\"apple\":2}");
        // Two builds of the same object are byte-identical.
        let o2 = Json::obj(vec![
            ("zebra", Json::from(1u64)),
            ("apple", Json::from(2u64)),
        ]);
        assert_eq!(o.render(), o2.render());
        // Parsing keeps the order.
        let back = parse(&o.render()).unwrap();
        assert_eq!(back.render(), o.render());
    }

    #[test]
    fn nested_values_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::from("sb")),
            (
                "counts",
                Json::Arr(vec![Json::from(3u64), Json::from(0u64)]),
            ),
            ("rate", Json::Float(0.25)),
            ("ok", Json::Bool(true)),
            ("err", Json::Null),
            ("inner", Json::obj(vec![("k", Json::from("v"))])),
        ]);
        let doc = v.render();
        assert_eq!(parse(&doc).unwrap(), v);
        assert_eq!(parse(&doc).unwrap().render(), doc);
    }

    #[test]
    fn accessors_extract_typed_fields() {
        let v = parse("{\"a\":1,\"b\":\"x\",\"c\":true,\"d\":[2],\"e\":1.5}").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("d").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("e").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\" 1}",
            "nul",
            "01a",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_beyond_the_depth_cap_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        // The cap itself is accepted.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let over = format!("[{deepest}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn jsonl_parses_line_per_value() {
        let lines = parse_lines("{\"a\":1}\n\n{\"a\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn whitespace_tolerant_parsing() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
