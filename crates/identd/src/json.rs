//! Hand-rolled JSON for the wire protocol.
//!
//! The workspace deliberately carries no serde (see the vendored-stub
//! policy in the root `Cargo.toml`); `bench::json` hand-rolls the flat
//! `{"metric": number}` subset its perf artifacts need. The daemon's
//! protocol needs more — strings, booleans, nulls, and nested arrays for
//! transaction batches and decision lists — so this module implements a
//! small but complete JSON value model with a recursive-descent parser and
//! a writer.
//!
//! Robustness over features: the parser is bounded (nesting depth capped
//! at [`MAX_DEPTH`]), rejects non-finite numbers, validates `\u` escapes
//! including surrogate pairs, and reports byte offsets in errors. It must
//! never panic on any input — the protocol fuzz tests drive arbitrary
//! bytes through it.
//!
//! The writer is the only encoder on the wire: replies, client requests
//! and transaction tuples all go through [`Json::write_line`]. It writes
//! into one presized buffer — integers digit by digit, escape-free string
//! runs in one copy — so encoding a value allocates nothing beyond that
//! buffer, and object keys are `&'static str` wherever the protocol names
//! them.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts. The protocol needs three
/// levels (request object → transaction list → transaction tuple); the
/// cap only exists so adversarial input cannot overflow the stack.
pub const MAX_DEPTH: usize = 16;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; only finite values exist (the parser rejects overflow
    /// to infinity, the writer panics on NaN/inf like `bench::json`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key-value list (duplicate keys are kept;
    /// lookups take the first, insertion order is preserved on write).
    /// Keys the protocol names are borrowed; parsed keys are owned.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers: they have no JSON representation and
    /// the daemon must never emit one (counters and timestamps are always
    /// finite).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.encoded_len_hint());
        self.write_line(&mut out);
        out
    }

    /// Appends the [`to_line`](Self::to_line) encoding to `out`, so a
    /// caller can reuse one buffer across values.
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers, like [`to_line`](Self::to_line).
    pub fn write_line(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in a protocol reply: {n}");
                // Integral values print without a fraction; Rust's f64
                // Display never uses exponent notation, so every output
                // re-parses as the same value.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write_int(*n as i64, out);
                } else {
                    write!(out, "{n}").expect("writing to a String cannot fail");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write_line(out);
                }
                out.push('}');
            }
        }
    }

    /// A cheap estimate of the encoded length, so [`to_line`](Self::to_line)
    /// usually fills its buffer without growing it.
    fn encoded_len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) => 12,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => {
                2 + items.iter().map(|item| item.encoded_len_hint() + 1).sum::<usize>()
            }
            Json::Obj(fields) => {
                2 + fields
                    .iter()
                    .map(|(key, value)| key.len() + 4 + value.encoded_len_hint())
                    .sum::<usize>()
            }
        }
    }
}

/// `"00"`, `"01"`, …, `"99"`: two digits per table step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends the decimal digits of `value`, as `format!("{value}")` would,
/// two digits per division.
fn write_int(value: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = value.unsigned_abs();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + rest as u8;
    }
    if value < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal. Runs that need no escaping are
/// copied whole, so a plain string costs one copy.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escapes are ASCII, so `run..at` lies on char boundaries.
        out.push_str(&s[run..at]);
        run = at + 1;
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON value; trailing content (other than
/// whitespace) is an error. Never panics, whatever the input.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|e| ParseError {
                offset: e.offset,
                message: format!("object key: {}", e.message),
            })?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((Cow::Owned(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free run in one slice append.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on byte positions found by
            // scanning ASCII delimiters always lands on char boundaries.
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("input is UTF-8"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let high = self.hex4()?;
                let c = if (0xd800..0xdc00).contains(&high) {
                    // High surrogate: require the paired low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u').map_err(|_| self.error("lone high surrogate"))?;
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&high) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    char::from_u32(high).ok_or_else(|| self.error("invalid \\u escape"))?
                };
                out.push(c);
            }
            other => return Err(self.error(format!("invalid escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number bytes");
        let value: f64 = text
            .parse()
            .map_err(|_| ParseError { offset: start, message: format!("bad number {text:?}") })?;
        if !value.is_finite() {
            return Err(ParseError { offset: start, message: format!("number overflows: {text}") });
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let value = Json::Obj(vec![
            ("verb".into(), Json::str("ingest")),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "txs".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Num(-3.0), Json::Num(0.5)]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("note".into(), Json::str("line\nbreak \"quoted\" \\ tab\t")),
        ]);
        let line = value.to_line();
        assert_eq!(parse(&line).unwrap(), value);
        assert!(!line.contains('\n'), "one value must stay one line: {line:?}");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed =
            parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap()[2], Json::str("Aé😀"));
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(1_234_567_890.0).to_line(), "1234567890");
        assert_eq!(Json::Num(-7.0).to_line(), "-7");
        assert_eq!(Json::Num(0.125).to_line(), "0.125");
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "nul",
            "truth",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "[1,]",
            "[1 2]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\ud800\\u0041\"",
            "1e999",
            "--3",
            "1.2.3",
            "{\"a\":1}garbage",
            "\u{7}",
            "[\"\u{1}\"]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH).to_string() + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let parsed = parse("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(parsed.get("a"), Some(&Json::Num(1.0)));
    }
}
