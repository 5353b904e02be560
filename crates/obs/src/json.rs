//! The workspace's one JSON writer and one JSON reader.
//!
//! Every exporter builds its document with [`object`] / [`array()`]: members
//! are written in call order, and the builder owns every comma, bracket and
//! string escape. Values go through [`ToJson`]. The output is compact; the
//! four files people read (lint `--format json`, SARIF, the metrics snapshot
//! and the ScadaBR import) pass it through [`pretty`], whose layout is fixed.
//! [`parse`] reads any of it back. This is intentionally *not* a general
//! JSON library.
//!
//! ```
//! use sgcr_obs::json;
//!
//! let out = json::object_string(64, |o| {
//!     o.field("name", "a\"b").field("ratio", 2.0).field("parent", None::<u64>);
//!     o.array("xs", |a| {
//!         a.item(1u64).item(true);
//!     });
//! });
//! assert_eq!(out, r#"{"name":"a\"b","ratio":2.0,"parent":null,"xs":[1,true]}"#);
//! ```

use std::fmt::{self, Write as _};

/// A value the writer can emit as one JSON value.
pub trait ToJson {
    /// Appends the value's JSON form to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Formatted text is a JSON string: `format_args!("{ip}")` writes a
/// `Display` value without an intermediate `String`.
impl ToJson for fmt::Arguments<'_> {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let _ = Escaper(out).write_fmt(*self);
        out.push('"');
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_to_json!(bool, u8, u16, u32, u64, usize, i32, i64);

/// Integral values keep a trailing `.0` so consumers that tell int from
/// float see the intended type. Non-finite values become the strings
/// `"NaN"`, `"inf"` and `"-inf"`: bare `NaN`/`Infinity` are not JSON.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            return format_args!("{self}").write_json(out);
        }
        let start = out.len();
        let _ = write!(out, "{self}");
        // `Display` for f64 never uses exponent notation.
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Escapes `s` as the inside of a JSON string literal: `"`, `\` and
/// control characters. Runs of plain characters are copied as one slice.
fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        let _ = match b {
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            b'"' | b'\\' => write!(out, "\\{}", char::from(b)),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[plain..]);
}

/// A `fmt::Write` sink that escapes what it is given.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Writes one JSON object to `out`. `build` adds the members; the closing
/// brace follows when it returns.
pub fn object(out: &mut String, build: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    build(&mut Object(Members { out, empty: true }));
    out.push('}');
}

/// Writes one JSON object into a new string with room for `capacity`
/// bytes; see [`object`].
pub fn object_string(capacity: usize, build: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    object(&mut out, build);
    out
}

/// Writes one JSON array to `out`. `build` adds the elements; the closing
/// bracket follows when it returns.
pub fn array(out: &mut String, build: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    build(&mut Array(Members { out, empty: true }));
    out.push(']');
}

/// The comma bookkeeping [`Object`] and [`Array`] share.
struct Members<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Members<'_> {
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out
    }
}

/// The members of an object being written by [`object`].
pub struct Object<'a>(Members<'a>);

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.write_json(out);
        out.push(':');
        out
    }

    /// Adds the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Adds the member `key: value` when `value` is `Some`; omits it
    /// otherwise (where [`field`](Self::field) would write `null`).
    pub fn field_if_some(&mut self, key: &str, value: Option<impl ToJson>) -> &mut Self {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// Adds the member `key: {…}`, built by `build`.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.key(key), build);
        self
    }

    /// Adds the member `key: […]`, built by `build`.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array(self.key(key), build);
        self
    }
}

/// The elements of an array being written by [`array()`].
pub struct Array<'a>(Members<'a>);

impl Array<'_> {
    /// Appends `value`.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// Appends an object built by `build`.
    pub fn object(&mut self, build: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object(self.0.next(), build);
        self
    }

    /// Appends an array built by `build`.
    pub fn array(&mut self, build: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array(self.0.next(), build);
        self
    }
}

/// A string as a JSON string literal. Workspace emitters use
/// [`object`]/[`array()`]; this and [`number`] remain for callers outside the
/// workspace that assemble JSON by hand.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    s.write_json(&mut out);
    out
}

/// An `f64` as a JSON value, with the writer's float rules.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Re-lays JSON for people to read, with one fixed rule: containers at
/// nesting depth 1 and 2 put one member per line, indented two spaces per
/// level; deeper containers stay on one line with `, ` and `: ` separators;
/// empty containers stay `{}`/`[]`; the text ends with a newline. Input
/// whitespace outside strings is dropped, so [`parse`] reads the result to
/// the same [`Value`] as the input.
///
/// ```
/// assert_eq!(
///     sgcr_obs::json::pretty(r#"{"a":{"b":1,"c":{"d":[2,3]}},"e":[]}"#),
///     "{\n  \"a\": {\n    \"b\": 1,\n    \"c\": {\"d\": [2, 3]}\n  },\n  \"e\": []\n}\n"
/// );
/// ```
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() + compact.len() / 4);
    // Breaks the line inside a container at `depth` if it is a broken one.
    let newline = |out: &mut String, depth: usize, indent: usize| {
        if depth <= 2 {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * indent));
        }
    };
    let bytes = compact.as_bytes();
    let mut depth = 0;
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        i += 1;
        match bytes[start] {
            b'"' => {
                // Copy the string literal verbatim, escapes included.
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
                out.push_str(&compact[start..i]);
            }
            open @ (b'{' | b'[') => {
                let rest = compact[i..].trim_start();
                let empty = if open == b'{' { "{}" } else { "[]" };
                if rest.starts_with(&empty[1..]) {
                    out.push_str(empty);
                    i = compact.len() - rest.len() + 1;
                } else {
                    depth += 1;
                    out.push(char::from(open));
                    newline(&mut out, depth, depth);
                }
            }
            close @ (b'}' | b']') => {
                newline(&mut out, depth, depth.saturating_sub(1));
                depth = depth.saturating_sub(1);
                out.push(char::from(close));
            }
            b',' if depth <= 2 => {
                out.push(',');
                newline(&mut out, depth, depth);
            }
            b',' => out.push_str(", "),
            b':' => out.push_str(": "),
            b' ' | b'\t' | b'\n' | b'\r' => {}
            _ => {
                // A number or literal: copy the ASCII run.
                while i < bytes.len() && !b",:]} \t\n\r".contains(&bytes[i]) {
                    i += 1;
                }
                out.push_str(&compact[start..i]);
            }
        }
    }
    out.push('\n');
    out
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

    /// The numeric value as a `u64`, when it is one exactly: `None` for
    /// fractions, negatives, values of 2^64 or more, and other kinds.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // 2^64 is exact as an f64; everything below it converts exactly.
            Value::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n < 18_446_744_073_709_551_616.0 =>
            {
                Some(*n as u64)
            }
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
    fn strings_escape_specials() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("q\"b\\s"), "\"q\\\"b\\\\s\"");
        assert_eq!(quote("n\nr\rt\t"), "\"n\\nr\\rt\\t\"");
        assert_eq!(quote("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(quote("ünïcödé"), "\"ünïcödé\"");
        let mut out = String::new();
        format_args!("{}|{}", "a\"", 5).write_json(&mut out);
        assert_eq!(out, "\"a\\\"|5\"");
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
    fn builder_places_separators_and_nulls() {
        let mut out = String::new();
        object(&mut out, |o| {
            o.object("empty", |_| {});
            o.array("xs", |a| {
                a.item(1u64)
                    .item(-2i64)
                    .item("s")
                    .item(Some(0.5))
                    .item(None::<bool>);
                a.array(|_| {}).object(|o| {
                    o.field("k", false);
                });
            });
            o.field("last", u64::MAX);
        });
        assert_eq!(
            out,
            r#"{"empty":{},"xs":[1,-2,"s",0.5,null,[],{"k":false}],"last":18446744073709551615}"#
        );
        assert!(parse(&out).is_ok());
    }

    #[test]
    fn pretty_breaks_two_levels_and_keeps_deeper_ones_inline() {
        let mut compact = String::new();
        object(&mut compact, |o| {
            o.field("n", 1u64).object("none", |_| {});
            o.array("rows", |a| {
                a.object(|o| {
                    o.field("s", "a,b:{c}").array("xs", |a| {
                        a.item(1u64).item(2u64);
                    });
                });
                a.array(|_| {});
            });
        });
        let text = pretty(&compact);
        assert_eq!(
            text,
            "{\n  \"n\": 1,\n  \"none\": {},\n  \"rows\": [\n    \
             {\"s\": \"a,b:{c}\", \"xs\": [1, 2]},\n    []\n  ]\n}\n"
        );
        assert_eq!(parse(&text), parse(&compact));
        assert_eq!(pretty(&text), text, "pretty is idempotent");
        assert_eq!(pretty("[]"), "[]\n");
    }

    #[test]
    fn as_u64_accepts_only_exact_unsigned_integers() {
        let n = Value::Number;
        assert_eq!(n(0.0).as_u64(), Some(0));
        assert_eq!(n(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        assert_eq!(
            n(18_446_744_073_709_549_568.0).as_u64(),
            Some(u64::MAX - 2047)
        );
        assert_eq!(n(2.5).as_u64(), None);
        assert_eq!(n(-1.0).as_u64(), None);
        assert_eq!(n(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(n(1e300).as_u64(), None);
        assert_eq!(n(f64::NAN).as_u64(), None);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut doc = String::new();
        object(&mut doc, |o| {
            o.field("name", "a\"b\nc")
                .field("n", 0.25)
                .field("ok", true)
                .field("none", None::<u64>);
            o.array("xs", |a| {
                a.item(1u64).item(2.5).item(-3i64);
            });
        });
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
