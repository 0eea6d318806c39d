//! Offline stand-in for the `serde_json` functions this workspace
//! uses: [`to_string_pretty`] and [`from_str`].
//!
//! Both go through the `serde` shim's [`Value`] tree. The emitted
//! format is standard JSON, pretty-printed with two-space indentation
//! like real serde_json, so checkpoints and reports written by either
//! implementation parse under the other.

#![deny(unsafe_code)]

use serde::{Deserialize, Number, Serialize, Value};

/// A JSON encode/decode error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

// ---- encoding ----

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_number(out: &mut String, n: Number) {
    match n {
        Number::I(v) => out.push_str(&v.to_string()),
        Number::U(v) => out.push_str(&v.to_string()),
        Number::F(v) if v.is_finite() => {
            // Match serde_json: floats always carry a decimal point or
            // exponent so they re-parse as floats.
            let s = v.to_string();
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        // serde_json emits null for NaN/Inf.
        Number::F(_) => out.push_str("null"),
    }
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    const STEP: &str = "  ";
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => push_number(out, *n),
        Value::Str(s) => push_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&STEP.repeat(indent + 1));
                push_escaped(out, key);
                out.push_str(": ");
                write_pretty(out, value, indent + 1);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
    }
}

/// Serializes a value as pretty-printed JSON (two-space indentation).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    fn write_compact(out: &mut String, v: &Value) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => push_number(out, *n),
            Value::Str(s) => push_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(out, item);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, key);
                    out.push(':');
                    write_compact(out, value);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write_compact(&mut out, &value.to_value());
    Ok(out)
}

// ---- decoding ----

/// Deepest array/object nesting the parser accepts (upstream
/// `serde_json`'s recursion limit). The parser recurses once per level,
/// so without a cap a body of a million `[` overflows the stack and
/// aborts the process instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0, depth: 0 }
    }

    /// Parses a nested array or object one level down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}` at byte {}", char::from(b), self.pos)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::new(format!("expected `{kw}` at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => {
                Err(Error::new(format!("unexpected byte `{}` at {}", char::from(b), self.pos)))
            }
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // encoder; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Num(Number::I(i)));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U(u)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Number::F(f)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn nesting_past_the_depth_cap_is_an_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_value(&deep).unwrap_err().to_string().contains("nesting deeper"));
        // Far past the cap: an error, not a stack overflow.
        assert!(parse_value(&"[{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn roundtrip_vec() {
        let v = vec![1i32, 2, 3];
        let json = to_string_pretty(&v).unwrap();
        let back: Vec<i32> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_map_and_nesting() {
        let mut m: HashMap<String, Vec<f64>> = HashMap::new();
        m.insert("a".into(), vec![1.5, -2.0]);
        m.insert("esc\"ape\n".into(), vec![]);
        let json = to_string_pretty(&m).unwrap();
        let back: HashMap<String, Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn floats_reparse_as_floats() {
        let json = to_string(&2.0f64).unwrap();
        assert_eq!(json, "2.0");
        let v = parse_value(&json).unwrap();
        assert_eq!(v, Value::Num(Number::F(2.0)));
    }

    #[test]
    fn integer_width_preserved() {
        let v = parse_value("18446744073709551615").unwrap();
        assert_eq!(v, Value::Num(Number::U(u64::MAX)));
        let v = parse_value("-42").unwrap();
        assert_eq!(v, Value::Num(Number::I(-42)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{\"a\": }").is_err());
        assert!(parse_value("[1, 2,]").is_err());
        assert!(parse_value("true false").is_err());
    }

    #[test]
    fn pretty_format_shape() {
        let json = to_string_pretty(&vec![1u32]).unwrap();
        assert_eq!(json, "[\n  1\n]");
    }
}
