//! Minimal JSON support: string quoting for the writer side and a small
//! recursive-descent parser used by tests and the CI smoke step to prove
//! that emitted trace lines are well-formed.
//!
//! This is intentionally tiny (objects keep insertion order, numbers are
//! `f64`) — it exists so the workspace can validate its own JSONL output
//! without an external dependency, not as a general JSON library. It also
//! decodes the shard wire protocol's frames, which arrive from the
//! network, so nesting is capped at [`MAX_DEPTH`]: a frame of a million
//! `[` gets a [`JsonError`] instead of overflowing the parser's stack. A
//! string is copied run by run between escapes, so parsing takes time
//! linear in the frame, however long its embedded `.rail` text.

use std::fmt;

/// Escapes and quotes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as text, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Compact JSON text that [`parse`] reads back to an equal value
    /// (strings through [`quote`], numbers in Rust's shortest round-trip
    /// form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{value}", quote(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Error from [`parse`]: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error, as
/// is nesting deeper than [`MAX_DEPTH`], a number outside the `f64` range,
/// and a `\u` escape that is not four hex digits or names half of a
/// surrogate pair without the other half.
///
/// The time taken is linear in the length of `text`.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        err_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses a container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next `"` or `\` at once. Both are
            // ASCII, so the run ends on a char boundary of the borrowed
            // `&str` and needs no UTF-8 check of its own.
            let start = self.pos;
            let Some(len) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += len;
            out.push_str(&self.text[start..self.pos]);
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            out.push(self.escape()?);
        }
    }

    /// Decodes the escape sequence whose backslash is at `self.pos`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(at);
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes a `\uXXXX` escape (the backslash at `at`, the digits at
    /// `self.pos`), joining a UTF-16 surrogate pair written as two escapes
    /// into the one scalar value it encodes, as ASCII-only JSON encoders
    /// write every character outside the Basic Multilingual Plane.
    fn unicode_escape(&mut self, at: usize) -> Result<char, JsonError> {
        let code = match self.hex4()? {
            high @ 0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(err_at(at, "high surrogate without a low surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(err_at(at, "high surrogate without a low surrogate"));
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(err_at(at, "low surrogate without a high surrogate")),
            code => code,
        };
        Ok(char::from_u32(code).expect("surrogates are handled above"))
    }

    /// Consumes exactly four hex digits (no sign, unlike
    /// `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(err_at(start, "number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

fn err_at(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -2.5e1 ").unwrap(), Json::Num(-25.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse("{\"a\": [1, {\"b\": false}], \"c\": null}").unwrap();
        let arr = v.get("a").expect("member");
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1].get("b"), Some(&Json::Bool(false)));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn roundtrips_quoted_strings() {
        for s in ["", "plain", "a\"b", "tab\there", "nl\nthere", "uni→code"] {
            match parse(&quote(s)).unwrap() {
                Json::Str(back) => assert_eq!(back, s),
                other => panic!("expected string, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "12x", "true false"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let err = parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let deep = format!(
            "{{\"a\": {}1{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A million unclosed brackets must not recurse a million frames.
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
    }

    fn parse_str(text: &str) -> Result<String, JsonError> {
        match parse(text)? {
            Json::Str(s) => Ok(s),
            other => panic!("expected a string, got {other:?}"),
        }
    }

    /// What an ASCII-only encoder (Python's default `json.dumps`) writes:
    /// every non-ASCII character as `\uXXXX`, outside the Basic
    /// Multilingual Plane as a UTF-16 surrogate pair.
    fn ascii_quote(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
                c => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert_eq!(parse_str(r#""\u0041\u00e9\u20AC""#).unwrap(), "Aé€");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u00G1""#] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("four hex digits"), "{bad}: {err}");
        }
        for bad in [r#""\u004""#, r#""\u"#] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse_str(r#""\ud83d\ude00""#).unwrap(), "\u{1f600}");
        assert_eq!(parse_str(r#""\uD834\uDD1E!""#).unwrap(), "\u{1d11e}!");
        assert_eq!(parse_str(r#""\udbff\udfff""#).unwrap(), "\u{10ffff}");
    }

    #[test]
    fn lone_surrogates_are_typed_errors() {
        for (bad, at) in [
            (r#""\ud800""#, 1),
            (r#""x\udc00""#, 2),
            (r#""\ud800\u0041""#, 1),
            (r#""\ud800x""#, 1),
            (r#""\ud83d\ud83d""#, 1),
            (r#""\ude00\ud83d""#, 1),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("surrogate"), "{bad}: {err}");
            assert_eq!(err.at, at, "{bad}: the error points at the escape");
        }
    }

    #[test]
    fn every_encoding_of_a_string_round_trips() {
        for s in [
            "",
            "Train 1",
            "smile \u{1f600} and \u{10ffff}",
            "ctl \u{0}\u{1f}\u{7f} \\ \"q\"",
            "Zürich → Bodø",
            "\u{fffd}",
        ] {
            assert_eq!(parse_str(&quote(s)).unwrap(), s, "quote({s:?})");
            assert_eq!(parse_str(&ascii_quote(s)).unwrap(), s, "{}", ascii_quote(s));
            assert!(ascii_quote(s).is_ascii());
        }
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        let long = "rail:node n\n".repeat(1 << 17);
        let text = quote(&long);
        assert_eq!(parse_str(&text).unwrap(), long);
        let err = parse(&text[..text.len() - 1]).unwrap_err();
        assert_eq!(err.at, text.len() - 1);
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn display_writes_json_that_parses_back() {
        let text = r#"{"a": [1, -2.5e-3, 1e21, {"b": false}], "c": null, "s": "x\"y\u00e9\n"}"#;
        let value = parse(text).unwrap();
        let written = value.to_string();
        assert_eq!(
            written,
            r#"{"a":[1,-0.0025,1000000000000000000000,{"b":false}],"c":null,"s":"x\"yé\n"}"#
        );
        assert_eq!(parse(&written).unwrap(), value);
    }

    #[test]
    fn numbers_outside_the_f64_range_are_rejected() {
        for bad in ["1e999", "-1e400", "[0, 2e308]"] {
            let err = parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad}: {err}");
        }
        assert_eq!(parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
    }
}
