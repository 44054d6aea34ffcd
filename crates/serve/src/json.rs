//! Minimal, defensive JSON reader for artifact manifests.
//!
//! A hand-rolled recursive-descent parser with hard caps (input size,
//! nesting depth) so a hostile manifest cannot exhaust memory or blow
//! the stack.  The workspace already *emits* JSON by hand (the
//! `--metrics` artifact, reports); this is the matching read side, kept
//! deliberately small: the manifest schema only needs objects, arrays,
//! strings, booleans, and non-negative integers.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive exactly up to 2^53.
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (duplicates rejected at parse time).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub what: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` into a [`Json`] value.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed syntax, invalid escapes or UTF-8,
/// duplicate object keys, nesting deeper than [`MAX_DEPTH`], or
/// trailing non-whitespace after the value.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> JsonError {
        JsonError { what: what.to_string(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the cap"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if map.insert(key, value).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let ch = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: a low surrogate must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b @ 0x20..=0x7f) => out.push(b as char),
                Some(first) => {
                    // Multi-byte UTF-8: validate the whole sequence.
                    let len = match first {
                        0xc2..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf4 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.input.len() {
                        return Err(self.err("truncated UTF-8 in string"));
                    }
                    match std::str::from_utf8(&self.input[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return Err(self.err("invalid UTF-8 in string")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b) => (b as char).to_digit(16),
                None => None,
            };
            match d {
                Some(d) => v = (v << 4) | d,
                None => return Err(self.err("invalid \\u escape")),
            }
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("invalid number"));
        }
        // Leading zeros are invalid JSON ("01"), a classic parser diff.
        if self.pos - digits_start > 1 && self.input[digits_start] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("invalid number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("invalid number exponent"));
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scalar_zoo() {
        assert_eq!(parse(b"null").unwrap(), Json::Null);
        assert_eq!(parse(b"true").unwrap(), Json::Bool(true));
        assert_eq!(parse(b"false").unwrap(), Json::Bool(false));
        assert_eq!(parse(b"42").unwrap().as_u64(), Some(42));
        assert_eq!(parse(b"-1").unwrap().as_u64(), None);
        assert_eq!(parse(b"1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse(b"1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse(br#""hi\nA""#).unwrap().as_str(), Some("hi\nA"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(br#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_obj().unwrap()["b"].as_str(), Some("c"));
        assert_eq!(obj["d"], Json::Null);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse("\"\u{1f600}\"".as_bytes()).unwrap().as_str(), Some("\u{1f600}"));
        assert_eq!(parse(br#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1f600}"));
        assert!(parse(br#""\ud83d""#).is_err());
        assert!(parse(br#""\ud83dA""#).is_err());
    }

    #[test]
    fn rejects_the_malformed_zoo() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":1,}",
            b"01",
            b"1.",
            b"1e",
            b"\"unterminated",
            b"nul",
            b"{\"a\":1}x",
            b"{\"a\":1,\"a\":2}",
            b"\"\x80\"",
            b"",
        ] {
            assert!(parse(bad).is_err(), "accepted {:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn depth_cap_holds() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(deep.as_bytes()).is_err());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote\" slash\\ newline\n tab\t control\u{1} unicode\u{1f600}";
        let escaped = cce_obs::json_string(original);
        assert_eq!(parse(escaped.as_bytes()).unwrap().as_str(), Some(original));
    }
}
