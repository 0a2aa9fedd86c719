//! Minimal JSON support: an escaping writer used by the JSONL exporter
//! and the `/extract` response renderer, and a recursive-descent parser.
//! Both are deliberately tiny — the workspace has no serde.
//!
//! The parser reads untrusted input: `pae-serve` parses every `/extract`
//! request body with it, besides trace lines and report documents.
//! Its cost is linear in the input length (string literals are copied
//! run by run, not scalar by scalar), and malformed input is an `Err`,
//! never a panic. Nesting depth is not capped: each `[` or `{` costs one
//! stack frame.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends a JSON number for `v`; non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Keep integers readable and round-trippable.
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{:.1}", v);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(k),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.trunc() == *n => Some(*n as u64),
            _ => None,
        }
    }
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
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash in one go.
        // Both are ASCII, so the run starts and ends on char boundaries
        // and the whole parse stays linear in the input length.
        let start = *pos;
        let run = b[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - start);
        *pos += run;
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A backslash: one escape sequence.
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
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogates are not produced by our writer;
                        // map them to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let k = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos)?;
        map.insert(k, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut out = String::new();
        write_f64(&mut out, 2.0);
        assert_eq!(out, "2.0");
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut line = String::new();
        line.push_str("{\"type\":");
        write_str(&mut line, "event");
        line.push_str(",\"seq\":7,\"value\":");
        write_f64(&mut line, 0.25);
        line.push_str(",\"ok\":true,\"note\":");
        write_str(&mut line, "multi\nline \"quoted\"");
        line.push_str(",\"tags\":[1,2,3],\"none\":null}");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("event"));
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("note").and_then(Json::as_str),
            Some("multi\nline \"quoted\"")
        );
        assert_eq!(
            v.get("tags"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Num(3.0)
            ]))
        );
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn string_errors_keep_their_messages() {
        assert_eq!(
            Json::parse("\"unterminated"),
            Err("unterminated string".to_owned())
        );
        assert_eq!(
            Json::parse("{\"k\":\"ab\\"),
            Err("bad escape at byte 9".to_owned())
        );
        assert_eq!(
            Json::parse("\"a\\q\""),
            Err("bad escape at byte 3".to_owned())
        );
        assert_eq!(Json::parse("[\"\\"), Err("bad escape at byte 3".to_owned()));
        assert_eq!(
            Json::parse("\"\\u12\""),
            Err("truncated \\u escape".to_owned())
        );
    }

    #[test]
    fn string_runs_keep_multibyte_text_and_escapes() {
        let v = Json::parse("\"日本語 \\\"é\\\" 🦀\\u00e9\\n\u{1}tail\"").unwrap();
        assert_eq!(v.as_str(), Some("日本語 \"é\" 🦀é\n\u{1}tail"));
    }

    #[test]
    fn long_string_literal_parses_in_linear_time() {
        // A quadratic scan takes minutes on a megabyte; a linear one
        // takes milliseconds even without optimisations.
        let body = "é".repeat(1 << 19);
        let doc = format!("{{\"pages\":[{{\"html\":\"{body}\"}}]}}");
        assert!(doc.len() > 1 << 20);
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let elapsed = t.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MB literal took {elapsed:?}"
        );
        let html = v.get("pages").and_then(|p| match p {
            Json::Arr(items) => items[0].get("html").and_then(Json::as_str),
            _ => None,
        });
        assert_eq!(html, Some(body.as_str()));
    }
}
