//! A hand-rolled JSON document model with a deterministic encoder and a
//! strict parser.
//!
//! The workspace builds offline — no serde — so it carries its own
//! minimal JSON layer, shared by every layer that speaks JSON: the
//! service protocol's wire form and the external model format
//! (`bitfusion-dnn`'s `bitfusion-model/1` schema):
//!
//! * [`Json`] — the document tree. Objects preserve **insertion order**
//!   (a `Vec` of pairs, not a map), which is what makes encoding
//!   deterministic: the same value always serializes to the same bytes;
//! * [`Json::encode`] — compact single-line output (no whitespace), the
//!   shape both the one-shot `--json` flag and the `serve` loop emit, so
//!   the two paths are byte-identical by construction;
//! * [`parse`] — a recursive-descent parser accepting standard JSON
//!   (insignificant whitespace, string escapes including `\uXXXX` and
//!   surrogate pairs, integer and float numbers), nested at most
//!   [`MAX_DEPTH`] arrays/objects deep, so no input can exhaust the stack.
//!
//! Numbers keep their integer-ness: a literal without `.`/`e` parses to
//! [`Json::Int`] (or [`Json::UInt`] above `i64::MAX`), everything else to
//! [`Json::Float`], so every `i64` and `u64` round-trips exactly. Floats
//! encode via Rust's shortest-round-trip `Display`, so `encode ∘ parse` is
//! a fixed point on encoder output (the protocol's round-trip property
//! tests pin this).

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a fraction or exponent.
    Int(i64),
    /// An integer above `i64::MAX`; [`Json::uint`] and the parser use it
    /// only there, so every integer has one representation.
    UInt(u64),
    /// A number written with a fraction or exponent (also the fallback for
    /// integer literals outside the `i64` and `u64` ranges).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order and duplicate keys are not
    /// merged (the encoder never produces duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Wraps a `u64` exactly: [`Json::Int`] up to `i64::MAX`, [`Json::UInt`]
    /// above it (large batches push MAC and bit counts there).
    pub fn uint(v: u64) -> Json {
        i64::try_from(v).map_or(Json::UInt(v), Json::Int)
    }

    /// Wraps an `f64`; non-finite values (never produced by the simulator)
    /// encode as `null`, matching JSON's number domain.
    pub fn float(v: f64) -> Json {
        if v.is_finite() {
            Json::Float(v)
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert exactly).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes compactly onto one line: no whitespace anywhere, object keys
    /// in insertion order — the canonical wire form of the service
    /// protocol.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) => {
                if *f == 0.0 {
                    // Negative zero too: `-0` would re-parse as the
                    // integer 0 and re-encode as `0`.
                    out.push('0')
                } else if f.is_finite() {
                    // Rust's Display prints the shortest digits that
                    // round-trip, in positional notation — valid JSON.
                    out.push_str(&f.to_string())
                } else {
                    out.push_str("null")
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_string(s: &str, out: &mut String) {
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

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse`] accepts. Model documents
/// nest four deep, and a `dse` request carrying them six; the bound keeps
/// the recursive descent (and the drop of what it built) far from the end
/// of any thread's stack, whatever the input.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the first offending byte, including the
/// first bracket nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = f(self);
        self.depth -= 1;
        value
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `}`")),
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
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code =
                                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 advanced past the digits; compensate for
                            // the `pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim; the
                    // input is a &str so they are valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xc0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "123456789",
            "1.5",
            "-0.25",
            "-9223372036854775808",
            "9223372036854775808",
            "18446744073709551615",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.encode(), text, "{text}");
        }
    }

    #[test]
    fn integers_and_floats_keep_their_kind() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("42.0").unwrap(), Json::Float(42.0));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("-0").unwrap(), Json::Int(0));
        // Every u64 stays an exact integer, built or parsed.
        for v in [i64::MAX as u64, 1 << 63, u64::MAX] {
            assert_eq!(parse(&v.to_string()).unwrap(), Json::uint(v));
            assert_eq!(Json::uint(v).as_u64(), Some(v));
        }
        // Beyond u64: falls back to float rather than failing.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn shortest_float_display_is_a_fixed_point() {
        for v in [0.1, 1.0 / 3.0, 2.5e-8, 1e300, f64::MIN_POSITIVE] {
            let encoded = Json::Float(v).encode();
            let reparsed = parse(&encoded).unwrap();
            assert_eq!(reparsed.as_f64().unwrap(), v, "{encoded}");
            assert_eq!(reparsed.encode(), encoded);
        }
        // An integral float encodes as an integer literal; the *string*
        // fixed point still holds on the second pass.
        let once = Json::Float(2.0).encode();
        assert_eq!(once, "2");
        assert_eq!(parse(&once).unwrap().encode(), once);
        assert_eq!(parse("-0.0").unwrap().encode(), "0");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "he said \"hi\"\n\ttab\\slash ünïcödé \u{1}";
        let encoded = Json::Str(s.to_string()).encode();
        assert_eq!(parse(&encoded).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            parse(r#""Aé😀""#).unwrap(),
            Json::Str("Aé😀".to_string())
        );
        assert!(parse(r#""\ud800""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"cmd":"report","batch":16,"knobs":{"eff":0.85},"list":[1,2,[true,null]],"s":"x"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.encode(), text);
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("report"));
        assert_eq!(v.get("batch").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("knobs").unwrap().get("eff").unwrap().as_f64(), Some(0.85));
    }

    #[test]
    fn whitespace_is_insignificant() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.encode(), r#"{"a":[1,2],"b":null}"#);
    }

    #[test]
    fn errors_name_the_offset() {
        let e = parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(parse("[1,2").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&at_limit).unwrap().encode(), at_limit);
        let e = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            e.to_string(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let e = parse(&format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        ))
        .unwrap_err();
        assert_eq!(e.offset, 5 * MAX_DEPTH);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Int(2)),
            ("m", Json::Int(3)),
        ]);
        assert_eq!(v.encode(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn nonfinite_floats_encode_as_null() {
        assert_eq!(Json::float(f64::NAN).encode(), "null");
        assert_eq!(Json::float(f64::INFINITY).encode(), "null");
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
    }
}
