//! A minimal JSON reader for trace files.
//!
//! The workspace's vendored `serde` stand-in provides derive markers
//! only — there is no `serde_json`. Trace files are written by
//! hand-rolled emitters ([`nodeshare_engine::DecisionTrace::to_json`]),
//! so this module supplies the matching hand-rolled reader: a small
//! recursive-descent parser over the JSON grammar, sufficient for the
//! analytics in this crate and for the exporter's own schema tests.
//! Every error names the byte offset where parsing stopped.

use std::collections::BTreeMap;

/// Deepest array/object nesting the reader accepts. The trace and
/// Perfetto schemas nest at most 5 deep.
pub const MAX_DEPTH: usize = 64;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved (sorted map) — the
    /// consumers in this crate look fields up by name.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// Trailing non-whitespace after the top-level value is an error, as
    /// is nesting deeper than [`MAX_DEPTH`] or a number outside the
    /// finite `f64` range.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if this is a
    /// non-negative whole number below 2^53 (beyond that the `f64` may
    /// already have rounded the integer the text spelled).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n < 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an object or array one nesting level down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {start}")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let bad = || format!("bad \\u escape at byte {}", self.pos);
                            let hex = self.text.get(self.pos + 1..self.pos + 5).ok_or_else(bad)?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
                            // Surrogate pairs are not produced by any
                            // writer in this workspace; map them to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("bad string at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            Ok(_) => Err(format!("number '{text}' out of range at byte {start}")),
            Err(_) => Err(format!("bad number '{text}' at byte {start}")),
        }
    }
}

/// Escapes a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"events":[{"type":"started","t":1.5,"nodes":[0,2],"ok":true,"x":null}]}"#,
        )
        .expect("parses");
        let events = v
            .get("events")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("type").and_then(JsonValue::as_str), Some("started"));
        assert_eq!(e.get("t").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(e.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(e.get("x"), Some(&JsonValue::Null));
        let nodes = e.get("nodes").and_then(JsonValue::as_array).expect("array");
        assert_eq!(nodes[1].as_u64(), Some(2));
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = JsonValue::parse(r#"[-1.25e2, 0, "a\"b\nA"]"#).expect("parses");
        let a = v.as_array().expect("array");
        assert_eq!(a[0].as_f64(), Some(-125.0));
        assert_eq!(a[1].as_u64(), Some(0));
        assert_eq!(a[2].as_str(), Some("a\"b\nA"));
        assert_eq!(a[0].as_u64(), None, "negative numbers are not u64");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} extra").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let err = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(JsonValue::parse(&nested(100_000)), Err(err));
        // The limit itself is accepted, one more level is not.
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).is_err());
    }

    #[test]
    fn integers_past_two_to_the_53_are_not_u64() {
        // 2^53 + 1 parses to 2^53; neither is trusted as an integer.
        let as_u64 = |text: &str| JsonValue::parse(text).expect("parses").as_u64();
        assert_eq!(as_u64("9007199254740991"), Some(9_007_199_254_740_991));
        assert_eq!(as_u64("9007199254740992"), None);
        assert_eq!(as_u64("9007199254740993"), None);
    }

    #[test]
    fn every_error_names_a_byte_offset() {
        for bad in ["1e999", "\"abc", "[\"\\u12\"]", "{\"a\" 1}", ""] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert!(err.contains(" at byte "), "{bad:?}: {err}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and \tctrl";
        let doc = format!("\"{}\"", escape(original));
        let v = JsonValue::parse(&doc).expect("parses");
        assert_eq!(v.as_str(), Some(original));
    }
}
