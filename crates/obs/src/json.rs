//! Minimal hand-rolled JSON helpers shared by every exporter in the
//! workspace (journal JSONL, metrics snapshot, span exporters, lint report)
//! so string escaping exists exactly once.
//!
//! This is intentionally *not* a general JSON library: the two primitives a
//! writer needs — quoting a string and formatting a float — plus the one
//! JSON reader in the workspace, a small recursive-descent [`parse`] behind
//! checkpoint decoding, the lint report round-trip and cache, and the farm
//! status endpoint's `watch` client.

use std::fmt::Write as _;

/// Quotes a string as a JSON string literal, escaping `"`, `\`, and control
/// characters.
///
/// # Examples
///
/// ```
/// assert_eq!(sgcr_obs::json::quote("a\"b"), r#""a\"b""#);
/// assert_eq!(sgcr_obs::json::quote("line\nbreak"), r#""line\nbreak""#);
/// ```
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON value.
///
/// Integral floats keep a trailing `.0` so consumers that distinguish int
/// from float see the intended type; non-finite values become strings, since
/// bare `NaN`/`Infinity` are not legal JSON.
///
/// # Examples
///
/// ```
/// assert_eq!(sgcr_obs::json::number(2.0), "2.0");
/// assert_eq!(sgcr_obs::json::number(0.25), "0.25");
/// assert_eq!(sgcr_obs::json::number(f64::NAN), "\"NaN\"");
/// ```
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        s
    } else {
        quote(&format!("{v}"))
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for other kinds / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for other kinds).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value (`None` for other kinds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value truncated to `u64` (`None` for negatives / other kinds).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value (`None` for other kinds).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value (`None` for other kinds).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document. Trailing non-whitespace is an error, as are
/// documents nested deeper than 128 levels and unescaped control characters
/// inside strings. Runs in time linear in the document length.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                expected as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("document nested too deeply".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character as one slice. All three are
            // ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            // Surrogate pairs are not resolved; the range's
                            // own writers never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("q\"b\\s"), "\"q\\\"b\\\\s\"");
        assert_eq!(quote("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
        assert_eq!(quote("ünïcödé"), "\"ünïcödé\"");
    }

    #[test]
    fn number_keeps_float_shape() {
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(-1.5), "-1.5");
        // Rust's `Display` for f64 never uses exponent notation, so huge
        // integral values still get the float-marking suffix.
        assert!(number(1e300).ends_with(".0"));
        assert_eq!(number(f64::INFINITY), "\"inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-inf\"");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = format!(
            "{{\"name\": {}, \"n\": {}, \"ok\": true, \"none\": null, \"xs\": [1, 2.5, -3]}}",
            quote("a\"b\nc"),
            number(0.25)
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b\nc"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(0.25));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let xs = v.get("xs").and_then(Value::as_array).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(-3.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "depth bound enforced");
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse(r#""aA\t\\ünïcödé""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t\\ünïcödé"));
        let u = parse("\"\\u0041\\u00fc\"").unwrap();
        assert_eq!(u.as_str(), Some("Aü"));
    }

    #[test]
    fn long_multibyte_strings_round_trip_and_control_characters_are_rejected() {
        assert!(parse("\"tab\there\"").is_err());
        assert!(parse("\"line\nbreak\"").is_err());
        let long: String = "ünïcödé→€😀".repeat(4_000);
        assert!(parse(&format!("[\"{long}\u{1}\"]")).is_err());
        let v = parse(&quote(&long)).unwrap();
        assert_eq!(v.as_str(), Some(long.as_str()));
    }
}
