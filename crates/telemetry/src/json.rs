//! The workspace's one JSON reader/writer: enough of RFC 8259 to
//! round-trip corpus scenario specs, pick fields out of `CORPUS.json`
//! and the telemetry export, and emit every report the repo writes,
//! without pulling a serialization dependency into the workspace.
//! Numbers are f64 (which is why u64 seeds travel as hex strings),
//! strings support the standard escapes including `\uXXXX`.

/// Why a document failed to parse or a field lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A parsed JSON value.
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
        match self.field(key)? {
            Value::Str(s) => Ok(s),
            other => Err(Error(format!(
                "field {key:?} must be a string, got {other:?}"
            ))),
        }
    }

    /// A required bool field.
    pub fn bool_field(&self, key: &str) -> Result<bool, Error> {
        match self.field(key)? {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!(
                "field {key:?} must be a bool, got {other:?}"
            ))),
        }
    }

    /// A required non-negative integer field (rejects fractions and
    /// anything beyond exact f64 range).
    pub fn u64_field(&self, key: &str) -> Result<u64, Error> {
        match self.field(key)? {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => Ok(*n as u64),
            other => Err(Error(format!(
                "field {key:?} must be a non-negative integer, got {other:?}"
            ))),
        }
    }

    /// [`Value::u64_field`] narrowed to usize.
    pub fn usize_field(&self, key: &str) -> Result<usize, Error> {
        Ok(self.u64_field(key)? as usize)
    }
}

/// Escapes `s` into a quoted JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite f64 as a JSON number (integers without the trailing
/// `.0`, non-finite values as `null`).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Parses one JSON document (trailing non-whitespace is an error).
pub fn parse(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos).map_err(Error)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing garbage at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == want {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of document".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let val = parse_value(bytes, pos)?;
                fields.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through untouched; the input is a &str so it is valid).
                let s = &bytes[*pos..];
                let ch_len = match s[0] {
                    b if b < 0x80 => 1,
                    b if b < 0xE0 => 2,
                    b if b < 0xF0 => 3,
                    _ => 4,
                };
                out.push_str(std::str::from_utf8(&s[..ch_len]).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
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
                Value::Str("x\ny".into()),
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Num(-3.0)));
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote\" slash\\ tab\t newline\n unicode\u{1F600}";
        let v = parse(&escape(s)).unwrap();
        assert_eq!(v, Value::Str(s.into()));
    }

    #[test]
    fn escape_covers_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.0, -17.0, 2.5, 1e-3, 123456789.125] {
            let Value::Num(back) = parse(&number(v)).unwrap() else {
                panic!("number must parse as number");
            };
            assert_eq!(back, v);
        }
        assert_eq!(number(f64::NAN), "null");
    }
}
