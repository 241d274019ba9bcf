//! A tiny in-tree JSON reader/writer — the wire format of the gateway.
//!
//! The build environment has no crates.io access, so (like `vendor/`
//! stands in for `rand`) the gateway carries its own JSON support:
//! a strict recursive-descent parser over UTF-8 bytes with a depth cap,
//! and a writer whose `f64` rendering is Rust's shortest-round-trip
//! `Display` — `parse(render(x))` returns the **identical bit pattern**
//! for every finite `f64`, which is what lets the serving conformance
//! suite assert *bitwise* equality of answers across the wire.
//!
//! Two deliberate wire-format bounds, both documented in the README:
//!
//! * integers are carried as JSON numbers and parsed through `f64`, so
//!   values beyond 2^53 lose precision — every integer on this wire
//!   (node ids, counters, `rng_seed`) must stay below that, and the
//!   request decoder rejects larger ones rather than rounding silently;
//! * non-finite floats have no JSON representation and are written as
//!   `null`.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (arrays + objects).
pub const MAX_DEPTH: usize = 32;

/// Largest integer exactly representable on the wire (2^53).
pub const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers ride in the mantissa; see module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected).
    Obj(Vec<(String, Json)>),
}

/// A typed parse failure: byte offset + reason. Never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup (first match; objects reject duplicates at
    /// parse time).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: rejects fractions,
    /// negatives and anything at or above 2^53 (where `f64` stops being
    /// exact) rather than rounding silently.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v.fract() == 0.0 && (0.0..MAX_SAFE_INT).contains(&v)).then_some(v as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write `v` in shortest-round-trip form (Rust `Display`, which
/// guarantees `v.to_string().parse::<f64>() == v` bit-for-bit for finite
/// values, `-0.0` included). Non-finite values become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Write a non-negative integer exactly as `write_f64(v as f64)` would:
/// a plain digit loop below 2^53, where `f64` is exact and `Display`
/// prints the same digits, and the `f64` path at and above it, where the
/// wire has always rounded.
pub fn write_u64(out: &mut String, v: u64) {
    if v >= 1 << 53 {
        return write_f64(out, v as f64);
    }
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Write a JSON string literal with the mandatory escapes.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: require the low half.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is validated below).
                    let start = self.pos;
                    let len = utf8_len(self.input[start]);
                    let end = start + len;
                    if len == 0 || end > self.input.len() {
                        return Err(self.err("invalid UTF-8"));
                    }
                    match std::str::from_utf8(&self.input[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The token is ASCII by construction; std's float parsing is
        // correctly rounded, so Display output round-trips bit-exactly.
        // It saturates overflow to ±∞ rather than failing, and ∞ has no
        // JSON form (the writer would send it back as `null`), so a
        // non-finite result is rejected here. Underflow rounds to ±0.
        let token = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }
}

/// Length of the UTF-8 sequence starting with `first` (0 = invalid lead).
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = br#"{"a": [1, 2.5, -3e-2], "b": {"nested": true}, "s": "q\"\\\n", "n": null}"#;
        let v = parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(parse(rendered.as_bytes()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "q\"\\\n");
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2.2250738585072014e-308,
            0.1 + 0.2,
            5.0,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(s.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} rendered as {s}");
        }
        let mut s = String::new();
        write_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":1,}",
            b"{\"a\":1 \"b\":2}",
            b"01",
            b"1.",
            b"+1",
            b"\"unterminated",
            b"nul",
            b"[1] trailing",
            b"{\"a\":1,\"a\":2}",
            b"\"\\x\"",
            b"",
            b"\xff",
        ] {
            assert!(parse(bad).is_err(), "{:?} should fail", bad);
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected_not_saturated() {
        for bad in [&b"1e400"[..], b"-1e400", b"[1, 2e308]"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.reason, "number out of range", "{bad:?}");
        }
        // Underflow is not out of range: it rounds to zero, sign kept.
        assert_eq!(
            parse(b"1e-400").unwrap().as_f64().map(f64::to_bits),
            Some(0)
        );
        assert_eq!(
            parse(b"-1e-400").unwrap().as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            parse(b"1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn integer_writer_matches_the_f64_path() {
        let cases = [
            0,
            1,
            9,
            10,
            4_294_967_295,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ];
        for v in cases {
            let (mut digits, mut float) = (String::new(), String::new());
            write_u64(&mut digits, v);
            write_f64(&mut float, v as f64);
            assert_eq!(digits, float, "{v}");
        }
    }

    #[test]
    fn depth_cap_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(deep.as_bytes()).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn integer_accessor_guards_precision() {
        assert_eq!(parse(b"42").unwrap().as_u64(), Some(42));
        assert_eq!(parse(b"42.5").unwrap().as_u64(), None);
        assert_eq!(parse(b"-1").unwrap().as_u64(), None);
        // 2^53 is the first unrepresentable-exactly integer boundary.
        assert_eq!(parse(b"9007199254740992").unwrap().as_u64(), None);
        assert_eq!(
            parse(b"9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
    }
}
