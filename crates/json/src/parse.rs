//! A minimal, panic-free JSON parser for wire-protocol request bodies.
//!
//! Supports the full JSON grammar (objects, arrays, strings with escapes
//! and surrogate pairs, numbers, booleans, `null`) with two deliberate
//! hardening choices for untrusted input:
//!
//! * nesting depth is capped at [`MAX_DEPTH`] so a `[[[[…` bomb errors out
//!   instead of overflowing the stack;
//! * every malformed input path returns a [`JsonError`] carrying the byte
//!   offset of the problem — nothing panics, which keeps the serving path
//!   clean under clippy's no-panic lints.
//!
//! Numbers are parsed as `f64` (like JavaScript); [`JsonValue::as_u64`]
//! recovers exact small integers for fields like seeds and counts.

/// Maximum nesting depth accepted by [`JsonValue::parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (duplicate keys are kept; [`get`]
    /// returns the first).
    ///
    /// [`get`]: JsonValue::get
    Obj(Vec<(String, JsonValue)>),
}

/// A parse failure: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// Static description of the problem.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses one JSON document. Trailing non-whitespace is an error.
    ///
    /// ```
    /// use tg_json::JsonValue;
    /// let v = JsonValue::parse(r#"{"seed": 7, "scale": "small"}"#).unwrap();
    /// assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(7));
    /// assert_eq!(v.get("scale").and_then(JsonValue::as_str), Some("small"));
    /// assert!(JsonValue::parse("{oops").is_err());
    /// ```
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            input,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: present when this
    /// is a number with no fractional part inside `f64`'s exact-integer
    /// range (`<= 2^53`, covering every seed/count the protocol carries).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
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

    fn eat(&mut self, expected: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one full UTF-8 scalar (input is a &str, so the
                    // boundary math never splits a character).
                    let rest = &self.input[self.pos..];
                    match rest.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(out);
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn unicode_escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let first = self.hex4()?;
        let scalar = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a `\uXXXX` low surrogate to pair with.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("unpaired surrogate escape"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err(self.err("unpaired surrogate escape"));
            }
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired surrogate escape"));
        } else {
            first
        };
        match char::from_u32(scalar) {
            Some(c) => {
                out.push(c);
                Ok(())
            }
            None => Err(self.err("invalid unicode escape")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape (need 4 hex digits)")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(self.err("invalid number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number (missing fraction digits)"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number (missing exponent digits)"));
            }
        }
        // The scanned range is all ASCII, so the slice is boundary-safe.
        match self.input.get(start..self.pos).map(str::parse::<f64>) {
            Some(Ok(n)) => Ok(JsonValue::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_request_shapes() {
        let v = JsonValue::parse(
            r#"{"seed": 2024, "scale": "small", "target": "stanfordcars",
                "strategy": "lr", "top_k": 5}"#,
        )
        .unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(2024));
        assert_eq!(v.get("scale").and_then(JsonValue::as_str), Some("small"));
        assert_eq!(v.get("top_k").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        let v = JsonValue::parse(r#"[null, true, false, -1.5e3, "x", {"a": []}]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0], JsonValue::Null);
        assert_eq!(items[1].as_bool(), Some(true));
        assert_eq!(items[3].as_f64(), Some(-1500.0));
        assert_eq!(
            items[5].get("a").and_then(JsonValue::as_array),
            Some(&[][..])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = JsonValue::parse(r#""a\"b\\c\/\b\f\n\r\t\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\u{8}\u{c}\n\r\t\u{e9}\u{1F600}"));
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "01x",
            "-",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "1 2",
            "{\"a\": 1} extra",
            "\u{7}",
        ] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        assert!(JsonValue::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn depth_bomb_is_capped_not_overflowed() {
        let bomb = "[".repeat(MAX_DEPTH + 8);
        let err = JsonValue::parse(&bomb).unwrap_err();
        assert_eq!(err.message, "nesting deeper than MAX_DEPTH");
        // Exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn as_u64_guards_range_and_integrality() {
        assert_eq!(JsonValue::Num(7.0).as_u64(), Some(7));
        assert_eq!(JsonValue::Num(7.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e300).as_u64(), None);
        assert_eq!(JsonValue::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn duplicate_keys_keep_first_on_get() {
        let v = JsonValue::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn unicode_passthrough_outside_escapes() {
        let v = JsonValue::parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
    }
}
