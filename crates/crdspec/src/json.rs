//! A self-contained JSON parser and serializer for [`Value`].
//!
//! The reproduction keeps its schema substrate dependency-free, so this
//! module implements RFC 8259 JSON directly: a recursive-descent parser with
//! precise error positions and a serializer with compact and pretty modes.
//! Emitted test code (`acto`'s minimized e2e reproductions) and fixtures use
//! this format.

use std::fmt::{self, Write};

use crate::value::Value;

/// Error produced when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// 1-based line number of the error.
    pub line: usize,
    /// 1-based column number of the error.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at line {} column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document into a [`Value`].
///
/// # Examples
///
/// ```
/// use crdspec::{json, Value};
///
/// let v = json::from_str(r#"{"replicas": 3, "tags": ["a", "b"]}"#).unwrap();
/// assert_eq!(v.get("replicas"), Some(&Value::Integer(3)));
/// ```
pub fn from_str(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

/// Serializes a [`Value`] to compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Serializes a [`Value`] to pretty-printed JSON with two-space indents.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        // Writing to a `String` cannot fail.
        Value::Integer(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Keep a trailing .0 so floats survive a round trip as floats.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(out, s),
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
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Writes `s` as a JSON string literal. Only ASCII bytes are ever escaped,
/// and no byte of a multibyte UTF-8 sequence is ASCII, so the text between
/// two escapes is copied whole with one `push_str`.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1usize;
        let mut col = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            offset: self.pos,
            line,
            column: col,
            message: message.into(),
        }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.error(format!("unexpected character {:?}", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected keyword {kw:?}")))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            // Handle surrogate pairs.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.error("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    let len = utf8_len(self.bytes[start]);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.error("truncated UTF-8 sequence"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.error("invalid UTF-8 sequence")),
                    }
                    self.pos = end;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.error("invalid number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.error("invalid float literal"))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Integer(i)),
                // Integers beyond i64 degrade to floats, matching serde_json.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.error("invalid integer literal")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("false").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Integer(42));
        assert_eq!(from_str("-7").unwrap(), Value::Integer(-7));
        assert_eq!(from_str("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(from_str("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = from_str(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            v,
            Value::object([
                (
                    "a",
                    Value::array([Value::from(1), Value::object([("b", Value::Null)])])
                ),
                ("c", Value::from("x")),
            ])
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\ end \u{1F600} ünï";
        let v = Value::from(s);
        let round = from_str(&to_string(&v)).unwrap();
        assert_eq!(round, v);
    }

    /// The char-by-char string writer `write_string` replaced, kept as
    /// the reference it must agree with byte for byte.
    fn reference_write_string(out: &mut String, s: &str) {
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
    }

    #[test]
    fn string_writer_matches_the_char_by_char_reference() {
        let ascii: String = (0u8..0x80).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            ascii.clone(),
            ascii.chars().rev().collect(),
            "plain text with no escapes".to_string(),
            "\"\\\n\r\t".to_string(),
            "a\u{0}b\u{1f}c\u{7f}d".to_string(),
            "ünïcödé \u{1F600} 日本語 \u{10FFFF}".to_string(),
            "é\"日\\😀\n\u{1}ü".to_string(),
            "\u{1F600}".repeat(100),
        ];
        // Every escaped byte between, before and after multibyte text.
        for c in (0u8..0x20).map(char::from).chain(['"', '\\']) {
            cases.push(format!("{c}ü{c}日{c}😀{c}"));
        }
        for s in &cases {
            let (mut new, mut reference) = (String::from("x"), String::from("x"));
            write_string(&mut new, s);
            reference_write_string(&mut reference, s);
            assert_eq!(new, reference, "{s:?}");
            assert_eq!(from_str(&new[1..]).unwrap(), Value::from(s.as_str()));
        }
        for i in [0, 7, -7, i64::MAX, i64::MIN] {
            assert_eq!(to_string(&Value::Integer(i)), i.to_string());
        }
    }

    #[test]
    fn unicode_escape_and_surrogates() {
        assert_eq!(from_str(r#""A""#).unwrap(), Value::from("A"));
        assert_eq!(from_str(r#""😀""#).unwrap(), Value::from("\u{1F600}"));
        assert!(from_str(r#""\ud83d""#).is_err());
        assert!(from_str(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"abc",
            "{]",
            "1 2",
            "-",
            "{\"a\":}",
        ] {
            assert!(from_str(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = from_str("{\n  \"a\": ?\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column >= 8, "column was {}", err.column);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::object([
            ("replicas", Value::from(3)),
            ("flags", Value::array([Value::from(true), Value::Null])),
            ("empty", Value::empty_object()),
        ]);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn float_roundtrip_preserves_kind() {
        let v = Value::Float(3.0);
        let s = to_string(&v);
        assert_eq!(s, "3.0");
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn huge_integers_degrade_to_float() {
        let v = from_str("123456789012345678901234567890").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }
}
