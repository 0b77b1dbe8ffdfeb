//! The workspace's one JSON reader and writer: enough of RFC 8259 to
//! round-trip corpus scenario specs, pick fields out of `CORPUS.json`
//! and the telemetry export, and write every document the repo emits,
//! without pulling a serialization dependency into the workspace.
//! Numbers are f64 (which is why u64 seeds travel as hex strings),
//! strings support the standard escapes including `\uXXXX`. Every
//! emitter builds a [`Value`] and prints it through its `Display`.

use std::fmt;

/// Why a document failed to parse or a field lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON value: what [`parse`] reads and what every emitter writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (f64, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error(format!("missing field {key:?}")))
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, Error> {
        self.field(key)?.as_str()
    }

    /// A required non-negative integer field.
    pub fn u64_field(&self, key: &str) -> Result<u64, Error> {
        self.field(key)?.as_uint(MAX_EXACT)
    }

    /// The value as a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error(format!("expected a string, got {other:?}"))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected a bool, got {other:?}"))),
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(Error(format!("expected a number, got {other:?}"))),
        }
    }

    /// The value as an integer in `0..=max`: fractions, and anything past
    /// `max` or [`MAX_EXACT`], are refused.
    pub fn as_uint(&self, max: u64) -> Result<u64, Error> {
        match *self {
            Value::Num(n) if n.fract() == 0.0 && n >= 0.0 && n <= max.min(MAX_EXACT) as f64 => {
                Ok(n as u64)
            }
            ref other => Err(Error(format!(
                "expected an integer in 0..={max}, got {other:?}"
            ))),
        }
    }
}

/// The largest integer a JSON number carries exactly here; a u64 that
/// may be larger travels as a `"0x…"` hex string instead.
pub const MAX_EXACT: u64 = 9_000_000_000_000_000;

/// Writes `s` as a quoted JSON string literal.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl Value {
    /// Writes the value at nesting `level`; a non-empty container above
    /// level `broken` puts one entry per line, two spaces a level in.
    fn write(&self, f: &mut fmt::Formatter<'_>, level: usize, broken: usize) -> fmt::Result {
        let (open, close, entries): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return f.write_str("null"),
            Value::Bool(b) => return write!(f, "{b}"),
            Value::Num(n) if n.is_finite() => return write!(f, "{n}"),
            Value::Num(_) => return f.write_str("null"),
            Value::Str(s) => return write_str(f, s),
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(kv) => ('{', '}', kv.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        let indent = |level: usize| format!("\n{:1$}", "", 2 * level);
        let (first, sep, last) = if level < broken && !entries.is_empty() {
            let inner = indent(level + 1);
            (inner.clone(), format!(",{inner}"), indent(level))
        } else {
            (String::new(), ", ".into(), String::new())
        };
        write!(f, "{open}{first}")?;
        for (i, (key, v)) in entries.into_iter().enumerate() {
            if i > 0 {
                f.write_str(&sep)?;
            }
            if let Some(k) = key {
                write_str(f, k)?;
                f.write_str(": ")?;
            }
            v.write(f, level + 1, broken)?;
        }
        write!(f, "{last}{close}")
    }
}

/// `{}` writes compact one-line JSON: `", "` between entries, `": "`
/// after a key, numbers through f64 `Display` and a non-finite number as
/// `null`. `{:#}` writes the one pretty layout: the top-level container
/// and its direct children put one entry per line, anything deeper is
/// compact, and an empty container is `{}` or `[]`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0, if f.alternate() { 2 } else { 0 })
    }
}

/// Nesting bound for the reader: a spec document may come from outside
/// the program, and the deepest one nests about 9 levels.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing non-whitespace is an error).
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0).map_err(Error)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing garbage at byte {pos}")));
    }
    Ok(v)
}

/// How many of `bytes[pos..]`'s leading bytes are in `set`.
fn run_of(bytes: &[u8], pos: usize, set: &[u8]) -> usize {
    bytes[pos..].iter().take_while(|b| set.contains(b)).count()
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    *pos += run_of(bytes, *pos, b" \t\n\r");
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of document".into()),
        Some(b'{') => parse_entries(bytes, pos, b'}', |bytes, pos| {
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':')?;
            Ok((key, parse_value(bytes, pos, depth + 1)?))
        })
        .map(Value::Obj),
        Some(b'[') => parse_entries(bytes, pos, b']', |bytes, pos| {
            parse_value(bytes, pos, depth + 1)
        })
        .map(Value::Arr),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't' | b'f' | b'n') => [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ]
        .into_iter()
        .find(|(lit, _)| bytes[*pos..].starts_with(lit.as_bytes()))
        .map(|(lit, value)| {
            *pos += lit.len();
            value
        })
        .ok_or_else(|| format!("bad literal at byte {}", *pos)),
        Some(_) => {
            let start = *pos;
            *pos += run_of(bytes, start, b"0123456789-+.eE");
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

/// Parses the comma-separated entries of the container opening at
/// `*pos`, up to its `close` byte.
fn parse_entries<T>(
    bytes: &[u8],
    pos: &mut usize,
    close: u8,
    mut entry: impl FnMut(&[u8], &mut usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    *pos += 1;
    let mut out = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(out);
    }
    loop {
        out.push(entry(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&b) if b == close => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                return Err(format!(
                    "expected ',' or {:?} at byte {}",
                    close as char, *pos
                ))
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash whole: both are
        // ASCII, so the run ends on a UTF-8 boundary of the input.
        let run = bytes[*pos..].iter().position(|b| matches!(b, b'"' | b'\\'));
        let end = run.map_or(bytes.len(), |n| *pos + n);
        out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
        *pos = end + 1;
        match bytes.get(end) {
            None => return Err("unterminated string".into()),
            Some(b'"') => return Ok(out),
            _ => {}
        }
        let c = match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = (bytes.get(*pos + 1..*pos + 5))
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                *pos += 4;
                char::from_u32(hex).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        };
        out.push(c);
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, true, null, "x\ny"], "b": {"c": -3}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.5),
                Value::Bool(true),
                Value::Null,
                Value::str("x\ny"),
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Num(-3.0)));
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let v = Value::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nul").is_err());
    }

    /// A document nested past the bound is an error, not a stack
    /// overflow; one level less still parses.
    #[test]
    fn nesting_past_the_bound_is_an_error() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.0.contains("nesting deeper than 64"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let v = Value::obj([
            (
                "a",
                Value::Arr(vec![Value::Num(1.0), Value::obj([("b", Value::Null)])]),
            ),
            ("e", Value::Arr(vec![])),
            ("o", Value::obj::<&str>([])),
            ("n", Value::Num(-0.5)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a": [1, {"b": null}], "e": [], "o": {}, "n": -0.5}"#
        );
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": [\n    1,\n    {\"b\": null}\n  ],\n  \"e\": [],\n  \"o\": {},\n  \
             \"n\": -0.5\n}"
        );
        assert_eq!(format!("{:#}", Value::Arr(vec![])), "[]");
        assert_eq!(format!("{:#}", Value::Num(3.0)), "3");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(n).to_string(), "null");
            let v = Value::Arr(vec![Value::Num(n)]);
            assert_eq!(v.to_string(), "[null]");
            assert_eq!(format!("{v:#}"), "[\n  null\n]");
        }
    }

    /// SplitMix64: the property test's own deterministic draws.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            let chars: Vec<char> = "aZ0 \"\\/\n\r\t\u{0}\u{1f}\u{7f}éµ\u{1F600}"
                .chars()
                .collect();
            (0..self.below(8))
                .map(|_| chars[self.below(chars.len() as u64) as usize])
                .collect()
        }

        fn number(&mut self) -> f64 {
            let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
            sign * match self.below(6) {
                0 => self.below(1 << 53) as f64,
                1 => self.below(1_000_000) as f64 / 1000.0,
                2 => f64::from_bits(self.next() >> 2),
                3 => [1e300, f64::MAX, 2e19, 9.0e15][self.below(4) as usize],
                4 => [1e-300, f64::MIN_POSITIVE, 5e-324, 1e-7][self.below(4) as usize],
                _ => self.below(100) as f64,
            }
        }

        fn value(&mut self, depth: u32) -> Value {
            match self.below(if depth == 0 { 4 } else { 6 }) {
                0 => [Value::Null, Value::Bool(true), Value::Bool(false)][self.below(3) as usize]
                    .clone(),
                1 => Value::Num(self.number()),
                2 | 3 => Value::Str(self.string()),
                4 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Value::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    /// Both layouts of any value parse back to that value: nested and
    /// empty containers, every escape class in strings and keys, and
    /// integral, fractional, negative, huge and tiny numbers.
    #[test]
    fn both_layouts_of_random_values_read_back_identically() {
        let mut draw = Draw(0x1501);
        for _ in 0..3_000 {
            let v = draw.value(4);
            let compact = v.to_string();
            assert!(!compact.contains('\n'), "one line: {compact}");
            assert_eq!(parse(&compact).as_ref(), Ok(&v), "{compact}");
            let pretty = format!("{v:#}");
            assert_eq!(parse(&pretty).as_ref(), Ok(&v), "{pretty}");
        }
    }
}
