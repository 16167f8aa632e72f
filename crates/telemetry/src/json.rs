//! A minimal JSON codec: just enough to write and validate the JSONL
//! event log and the documents exported from it — no external
//! dependencies, matching the `compat/` shim philosophy.
//!
//! Encoding rules (fixed by the schema, pinned by the golden test):
//!
//! - `f64` values use Rust's shortest round-trip `Display`, with a
//!   `.0` suffix forced onto integral finite values so floats never
//!   collapse into integers on re-parse.
//! - Non-finite floats are not representable in JSON; they are encoded
//!   as the strings `"NaN"`, `"inf"`, `"-inf"`.
//! - Strings escape `"`, `\`, and all control characters (`\n`, `\t`,
//!   `\r` short forms; `\u00XX` otherwise).

use std::fmt;

/// A parsed JSON value. Integers that fit `i64`/`u64` are kept exact
/// rather than widened to `f64`, so counters round-trip losslessly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number with no fraction/exponent that fits `i64` (negatives).
    Int(i64),
    /// A number with no fraction/exponent that fits `u64`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Float(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The object pairs if the value is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a limit a hostile document such as a
/// million `[` would overflow the stack; the event log and the bench
/// summaries nest only a few levels deep.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`ParseError`] with the offending byte offset, including for arrays
/// and objects nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Parses one array or object with `inner`, one level deeper.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1F => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let width = utf8_width(b).ok_or_else(|| self.err("invalid UTF-8 lead byte"))?;
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 sequence"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8 sequence"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Byte length of a UTF-8 sequence from its lead byte, `None` for
/// continuation/invalid lead bytes.
fn utf8_width(lead: u8) -> Option<usize> {
    match lead {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

impl fmt::Display for Json {
    /// Serializes the value back to JSON text, using the same encoding
    /// conventions as the emitter (`fmt_f64` for floats, full string
    /// escaping) — so `parse(&v.to_string())` round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Float(v) => {
                let mut s = String::new();
                fmt_f64(&mut s, *v);
                f.write_str(&s)
            }
            Json::Str(s) => {
                let mut out = String::new();
                escape_str(&mut out, s);
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::new();
                    escape_str(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn escape_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Formats an `f64` for the event log: shortest round-trip form, with a
/// forced `.0` on integral finite values so the type survives re-parse.
/// Non-finite values become the strings `"NaN"` / `"inf"` / `"-inf"`.
pub fn fmt_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let text = format!("{v}");
        out.push_str(&text);
        if !text.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_exactly() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = parse(r#"{"a": [1, {"b": false}], "c": "x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(obj[1].0, "c");
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], Json::UInt(1));
        assert_eq!(arr[1].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "\"\\q\"", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let balanced = format!("{}{}", deep, "]".repeat(1_000_000));
        assert!(parse(&balanced).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());

        let nest = |levels: usize| {
            let open: String = (0..levels)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..levels)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}1{close}")
        };
        let mut v = parse(&nest(MAX_DEPTH)).unwrap();
        for level in 0..MAX_DEPTH {
            v = if level % 2 == 0 {
                v.as_array().unwrap()[0].clone()
            } else {
                v.get("k").unwrap().clone()
            };
        }
        assert_eq!(v, Json::UInt(1));
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("é😀".into())
        );
        assert!(parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn escape_str_handles_controls() {
        let mut out = String::new();
        escape_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&out).unwrap(), Json::Str("a\"b\\c\nd\u{1}".into()));
    }

    #[test]
    fn fmt_f64_round_trips_and_marks_floats() {
        let cases = [0.0, 1.0, -2.5, 0.1, 1e300, f64::MIN_POSITIVE];
        for v in cases {
            let mut out = String::new();
            fmt_f64(&mut out, v);
            match parse(&out).unwrap() {
                Json::Float(p) => assert_eq!(p.to_bits(), v.to_bits(), "{v}"),
                other => panic!("{v} parsed as {other:?}"),
            }
        }
        let mut out = String::new();
        fmt_f64(&mut out, f64::NAN);
        assert_eq!(out, "\"NaN\"");
        out.clear();
        fmt_f64(&mut out, f64::NEG_INFINITY);
        assert_eq!(out, "\"-inf\"");
    }
}
