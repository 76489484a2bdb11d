//! A minimal, dependency-free JSON syntax checker and value parser.
//!
//! The CLI emits hand-written JSON ([`crate::Snapshot::to_json`],
//! `RaceReport::to_json` in `crace-model`); CI gates on those documents
//! actually parsing. This module is the recursive-descent validator the
//! checker tests use — it accepts exactly RFC 8259 JSON and reports the
//! first offending byte offset. [`parse`] runs the same grammar but keeps
//! the value as a [`Json`] tree, which is what the end-to-end benchmark
//! and the committed `BENCH_e2e*.json` snapshot test consume.
//!
//! # Examples
//!
//! ```
//! use crace_obs::json;
//!
//! assert!(json::validate("{\"a\": [1, 2.5e3, null]}").is_ok());
//! assert!(json::validate("{\"a\": }").is_err());
//! let doc = json::parse("{\"rows\": [{\"id\": \"x\", \"ns\": 12.5}]}").unwrap();
//! let rows = doc.get("rows").and_then(json::Json::as_array).unwrap();
//! assert_eq!(rows[0].get("ns").and_then(json::Json::as_f64), Some(12.5));
//! ```

/// A parsed JSON value.
///
/// Objects keep insertion order (a `Vec` of pairs, not a map) so parsed
/// documents can be reported in their original order; duplicate keys are
/// syntactically legal per RFC 8259 and [`Json::get`] returns the first.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as an `f64`.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Escapes `s` as the body of a JSON string literal.
///
/// # Examples
///
/// ```
/// assert_eq!(crace_obs::json::escape("a\"b"), "a\\\"b");
/// ```
pub fn escape(s: &str) -> String {
    use std::fmt::Write as _;
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

/// Validates that `input` is exactly one JSON value (plus whitespace).
///
/// # Errors
///
/// Returns a message naming the byte offset and what was expected.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

/// Parses `input` into a [`Json`] value; same grammar as [`validate`].
///
/// # Errors
///
/// Returns a message naming the byte offset and what was expected.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let parsed = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(parsed)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b't') => literal(b, pos, b"true").map(|()| Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Json::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("expected a value at byte {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    let mut pairs = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        skip_ws(b, pos);
        let val = value(b, pos)?;
        pairs.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => {
                        out.push('"');
                        *pos += 1;
                    }
                    Some(b'\\') => {
                        out.push('\\');
                        *pos += 1;
                    }
                    Some(b'/') => {
                        out.push('/');
                        *pos += 1;
                    }
                    Some(b'b') => {
                        out.push('\u{0008}');
                        *pos += 1;
                    }
                    Some(b'f') => {
                        out.push('\u{000c}');
                        *pos += 1;
                    }
                    Some(b'n') => {
                        out.push('\n');
                        *pos += 1;
                    }
                    Some(b'r') => {
                        out.push('\r');
                        *pos += 1;
                    }
                    Some(b't') => {
                        out.push('\t');
                        *pos += 1;
                    }
                    Some(b'u') => {
                        *pos += 1;
                        let hi = hex4(b, pos)?;
                        let code = if (0xd800..0xdc00).contains(&hi)
                            && b.get(*pos) == Some(&b'\\')
                            && b.get(*pos + 1) == Some(&b'u')
                        {
                            // A high surrogate followed by a \u escape:
                            // decode the pair. An unpaired low half falls
                            // through to the replacement character below.
                            let save = *pos;
                            *pos += 2;
                            let lo = hex4(b, pos)?;
                            if (0xdc00..0xe000).contains(&lo) {
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                *pos = save;
                                hi
                            }
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control character at byte {pos}")),
            _ => {
                // Advance over one UTF-8 scalar: `input` is a &str, so
                // continuation bytes are well-formed.
                let start = *pos;
                *pos += 1;
                while b.get(*pos).is_some_and(|&c| c & 0xc0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("input was a &str"));
            }
        }
    }
    Err("unterminated string".to_string())
}

fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut code = 0u32;
    for _ in 0..4 {
        let Some(d) = b.get(*pos).and_then(|&c| (c as char).to_digit(16)) else {
            return Err(format!("bad \\u escape at byte {pos}"));
        };
        code = code * 16 + d;
        *pos += 1;
    }
    Ok(code)
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> Result<(), String> {
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == start {
            Err(format!("expected digits at byte {pos}"))
        } else {
            Ok(())
        }
    };
    digits(b, pos)?;
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(b, pos)?;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(b, pos)?;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    let parsed = text
        .parse::<f64>()
        .map_err(|e| format!("bad number at byte {start}: {e}"))?;
    Ok(Json::Num(parsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_rfc_examples() {
        for ok in [
            "null",
            "true",
            "-12.5e-3",
            "\"hi \\u00e9\"",
            "[]",
            "{}",
            "[1, [2, {\"x\": null}], \"s\"]",
            "  {\"a\": {\"b\": [false]}}  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{'a': 1}",
            "01e",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nul",
            "[1 2]",
            "\"bad \\x escape\"",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_raw_control_chars_in_strings() {
        assert!(validate("\"a\nb\"").is_err());
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let doc = parse("{\"a\": [1, -2.5, true, null], \"b\": {\"c\": \"s\"}}").unwrap();
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("s")
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_decodes_escapes() {
        assert_eq!(
            parse("\"a\\n\\t\\\\\\\"\\u00e9\"").unwrap(),
            Json::Str("a\n\t\\\"é".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_string())
        );
        // Unpaired high surrogate decodes to the replacement character.
        assert_eq!(
            parse("\"\\ud83d!\"").unwrap(),
            Json::Str("\u{fffd}!".to_string())
        );
        // Non-ASCII raw characters survive.
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".to_string()));
    }

    #[test]
    fn parse_round_trips_escape() {
        let original = "line1\nline2\t\"quoted\" \\slash";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap(), Json::Str(original.to_string()));
    }

    #[test]
    fn duplicate_keys_return_first() {
        let doc = parse("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_f64), Some(1.0));
    }
}
