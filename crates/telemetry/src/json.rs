//! Minimal JSON value model, parser and writer — the workspace's one way
//! to read and write JSON (wire frames, `stats` snapshots, experiment
//! reports, the fqlint report).
//!
//! The repository builds without network access and therefore without
//! `serde`; requests and responses are small (a handful of strings and
//! numbers per line), so a recursive-descent parser over an owned
//! [`Json`] tree is all the server needs. The writer emits compact
//! single-line documents — the protocol is line-delimited, so a frame must
//! never contain a raw newline. The parser faces the network: it never
//! panics, and container nesting is bounded ([`parse`]) so a hostile frame
//! cannot exhaust the stack of the thread that reads it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are ordered (`BTreeMap`) so rendering is
    /// deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an array of numbers from an `f32` slice.
    pub fn num_array(xs: &[f32]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(f64::from(x))).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per open container, so the bound is what keeps a frame of 10 000
/// `[` (far below the server's frame-size cap) from overflowing a
/// connection thread's stack; the deepest frame the protocol itself
/// produces is `stats`, at 6.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, requiring the whole input to be consumed
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a position-annotated message for malformed input, including
/// containers nested deeper than 64 levels.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {pos}",
            b as char,
            pos = *pos
        ))
    }
}

/// `depth` is the number of containers already open around this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
    {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    ) {
        *pos += 1;
    }
    let digits = bytes.get(start..*pos).unwrap_or_default();
    let text = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by the protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run of plain bytes up to the next `"` or
                // `\` at once. The input is a &str and both delimiters are
                // ASCII, so the run between them is valid UTF-8 — validated
                // once per run, never once per character.
                let tail = bytes.get(*pos..).unwrap_or_default();
                let len = tail
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(tail.len());
                let run = tail.get(..len).unwrap_or_default();
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_protocol_shaped_frame() {
        let frame = Json::obj([
            ("id", Json::str("r1")),
            ("model", Json::str("sst2-int")),
            (
                "texts",
                Json::Arr(vec![Json::str("a good movie"), Json::str("so \"bad\"")]),
            ),
            ("scores", Json::num_array(&[0.25, 0.75])),
            ("cost", Json::Null),
            ("ok", Json::Bool(true)),
        ]);
        let line = frame.render();
        assert!(!line.contains('\n'), "frames must be single lines");
        assert_eq!(parse(&line).unwrap(), frame);
    }

    #[test]
    fn parses_whitespace_numbers_and_escapes() {
        let value = parse(" { \"a\" : [ 1, -2.5, 1e3 ], \"s\": \"t\\tab\\u0041\" } ").unwrap();
        let arr = value.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(value.get("s").unwrap().as_str(), Some("t\tabA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1x", "{\"a\":1} extra"] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Plain runs, multi-byte scalars and every kind of escape, 1 MiB of
        // it in one string: per-character revalidation of the remaining
        // input made this quadratic (minutes for one frame under the
        // server's 4 MiB bound).
        let unit = "sixteen plain words é 中 \"quoted\" back\\slash\ttab\n\u{1}";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let frame = Json::obj([("texts", Json::Arr(vec![Json::str(&text)]))]);
        let line = frame.render();
        let begin = std::time::Instant::now();
        let parsed = parse(&line).unwrap();
        let elapsed = begin.elapsed();
        assert_eq!(parsed, frame);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "parsing one 1 MiB string took {elapsed:?}"
        );
    }

    /// `depth` nested containers (arrays, or objects under key `a`) around
    /// one `0`, parsed on a spawned thread with the default stack — the
    /// kind of thread a server connection runs on.
    fn parse_nested(depth: usize, open: &str, close: &str) -> Result<Json, String> {
        let doc = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        std::thread::spawn(move || parse(&doc))
            .join()
            .expect("the parser must not take its thread down")
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(parse_nested(MAX_DEPTH, open, close).is_ok());
            for depth in [1_000_000, MAX_DEPTH + 1] {
                let err = parse_nested(depth, open, close).expect_err("too deep");
                let at = MAX_DEPTH * open.len();
                assert_eq!(err, format!("nesting deeper than 64 at byte {at}"));
            }
        }
        // Unclosed openers — the cheapest hostile frame — fail the same way.
        let err = parse_nested(10_000, "[", "").expect_err("too deep");
        assert!(err.starts_with("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn accessors_are_type_safe() {
        let v = parse("{\"n\":3,\"s\":\"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert!(v.get("n").unwrap().as_str().is_none());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }
}
