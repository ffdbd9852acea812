//! Minimal offline stand-in for `serde_json`: compact and pretty writers
//! plus a recursive-descent parser over the `serde` shim's [`Value`].

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

/// Converts any serializable value into the shim's self-describing
/// [`Value`] tree, matching `serde_json::to_value` (the `Result` keeps the
/// upstream signature; the shim's serialization itself cannot fail).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parses JSON text into any [`Deserialize`] type (including [`Value`]).
/// Arrays and objects may nest [`MAX_DEPTH`] deep; deeper text is an
/// error, not a stack overflow.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        text: s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    level: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::msg("JSON cannot represent non-finite numbers"));
            }
            // Rust's shortest-roundtrip Display; integral floats keep a
            // trailing `.0` so they read back as floats.
            if f.fract() == 0.0 && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1)?;
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// The deepest array/object nesting [`from_str`] accepts, as in upstream
/// `serde_json`. The parser recurses once per level.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character; always on a character
    /// boundary, since every step consumes whole characters.
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected input {other:?} at offset {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object a level deeper, within [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
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
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not produced by the
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::msg("unsupported \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters, up to the next quote or
                    // escape: both are ASCII, so the run ends on a
                    // character boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
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
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg("expected `,` or `]` in array")),
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
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::msg("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for json in [
            "null",
            "true",
            "false",
            "42",
            "-17",
            "3.25",
            "\"hi\\nthere\"",
        ] {
            let v: Value = from_str(json).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{json}");
        }
    }

    #[test]
    fn containers_roundtrip() {
        let json = r#"{"a": [1, 2.5, "x"], "b": {"c": null}, "d": true}"#;
        let v: Value = from_str(json).unwrap();
        assert_eq!(v["a"][0], 1u64);
        assert_eq!(v["a"][1], 2.5);
        assert_eq!(v["b"]["c"], Value::Null);
        let compact = to_string(&v).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Value>(&compact).unwrap(), v);
        assert_eq!(from_str::<Value>(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn big_u64_is_exact() {
        let v: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(v, u64::MAX);
        assert_eq!(to_string(&v).unwrap(), "18446744073709551615");
    }

    #[test]
    fn float_formatting_reads_back_as_float() {
        let s = to_string(&2.0f64).unwrap();
        assert_eq!(s, "2.0");
        assert_eq!(from_str::<f64>(&s).unwrap(), 2.0);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(from_str::<Value>("not a tree").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn non_finite_rejected() {
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn strings_keep_every_character_between_escapes() {
        let json = r#""plain \"quoted\" é ✓ 😀 back\\slash\ttab\u00e9 end""#;
        let v: Value = from_str(json).unwrap();
        assert_eq!(v, "plain \"quoted\" é ✓ 😀 back\\slash\ttabé end");
        assert!(from_str::<Value>("\"no end é").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for open in ["[", "{\"a\":"] {
            let close = if open == "[" { "]" } else { "}" };
            let at_cap = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(from_str::<Value>(&at_cap).is_ok(), "{open}");
            let over = format!(
                "{}0{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            let err = from_str::<Value>(&over).unwrap_err().to_string();
            let offset = MAX_DEPTH * open.len();
            assert_eq!(err, format!("nesting deeper than 128 at offset {offset}"));
        }
        // Far past the cap, the parser stops at the cap, not at the stack.
        let deep = "[".repeat(200_000);
        assert_eq!(
            from_str::<Value>(&deep).unwrap_err().to_string(),
            "nesting deeper than 128 at offset 128"
        );
    }
}
