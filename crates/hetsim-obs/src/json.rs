//! Minimal deterministic JSON: a value tree, a writer, and a parser.
//!
//! The offline dependency allowlist has no JSON crate, and the exporters
//! need byte-stable output anyway, so this module owns the format end to
//! end. Two properties make output deterministic:
//!
//! * objects are [`BTreeMap`]s, so keys serialize in sorted order;
//! * numbers use Rust's shortest round-trip `f64` formatting, which is a
//!   pure function of the bits — parsing the text recovers the exact
//!   value, so traces survive an export/import cycle losslessly.
//!
//! How a number, an exact integer and a string are written is decided
//! once, in three crate-private primitives over [`fmt::Write`]. `Json`'s
//! `Display` and the streaming trace writers of [`crate::export`] both
//! call them, so a document rendered from a tree and a trace streamed
//! field by field agree byte for byte.

use std::collections::BTreeMap;
use std::fmt;

/// The largest integer every `f64` holds exactly (2^53), and so the
/// largest [`Json::int`] and the trace writers accept: readers that
/// parse JSON numbers as `f64` would round anything above it.
pub(crate) const MAX_EXACT_INT: u64 = 1 << 53;

/// Writes a number in Rust's shortest round-trip form, which parses
/// back to the same bits.
///
/// # Panics
/// On a non-finite value, which JSON cannot represent.
pub(crate) fn write_num<W: fmt::Write + ?Sized>(out: &mut W, v: f64) -> fmt::Result {
    assert!(v.is_finite(), "non-finite number {v} cannot be serialized");
    write!(out, "{v}")
}

/// Writes an exact integer: the same bytes as [`write_num`] of `v as
/// f64`, without the float formatting.
///
/// # Panics
/// Above [`MAX_EXACT_INT`].
pub(crate) fn write_int<W: fmt::Write + ?Sized>(out: &mut W, v: u64) -> fmt::Result {
    assert_exact(v);
    write!(out, "{v}")
}

fn assert_exact(v: u64) {
    assert!(v <= MAX_EXACT_INT, "integer {v} exceeds exact f64 range");
}

/// Writes `s` as a quoted string, escaping quotes, backslashes and
/// control characters; every other character is written as is.
pub(crate) fn write_str<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    // Every character that needs an escape is ASCII, so `i` is a char
    // boundary and the escaped character is the byte at `i`.
    while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
        out.write_str(&rest[..i])?;
        match rest.as_bytes()[i] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{b:04x}")?,
        }
        rest = &rest[i + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; must be finite when serialized.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; sorted key order is what makes output stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Exact integer constructor (counts, ranks, byte totals). Values
    /// above 2^53 would lose precision; the simulator never produces
    /// them, and the assert keeps that assumption honest.
    pub fn int(v: u64) -> Json {
        assert_exact(v);
        Json::Num(v as f64)
    }

    /// Borrow as object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as array, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole input must be one value plus
    /// optional surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(f, *v),
            Json::Str(s) => write_str(f, s),
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
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(code)
                                    .ok_or(format!("invalid code point {code:#x}"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|_| "invalid \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) -> Json {
        Json::parse(&j.to_string()).expect("own output parses")
    }

    #[test]
    fn scalars_roundtrip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(1.0 / 3.0),
            Json::Num(6.02e23),
            Json::str("hello"),
        ] {
            assert_eq!(roundtrip(&j), j);
        }
    }

    #[test]
    fn f64_bits_survive_roundtrip() {
        // Shortest round-trip formatting must recover the exact bits —
        // this is what makes trace export lossless.
        for v in [0.1 + 0.2, std::f64::consts::PI, 1e-300, 123_456_789.123_456_79] {
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::int(24).to_string(), "24");
        assert_eq!(Json::Num(1.0).to_string(), "1");
    }

    #[test]
    fn exact_integers_write_the_bytes_of_their_f64() {
        // `write_int` skips the float formatter; its bytes must still be
        // what `Json::int`'s `Num` renders, or the trace writers would
        // drift from documents built as trees.
        let mut state = 0x5eed_u64;
        let mut draw = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut cases = vec![0, MAX_EXACT_INT - 1, MAX_EXACT_INT];
        cases.extend((0..54).map(|k| 1u64 << k));
        cases.extend((0..16).map(|k| 7 * 10u64.pow(k)));
        cases.extend((0..2000).map(|i| (draw() % (MAX_EXACT_INT + 1)) >> (i % 53)));
        for v in cases {
            let (mut int, mut num) = (String::new(), String::new());
            write_int(&mut int, v).unwrap();
            write_num(&mut num, v as f64).unwrap();
            assert_eq!(int, num, "{v}");
            assert_eq!(int, Json::int(v).to_string());
        }
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let j = Json::str("a\u{1}b\u{1f}\u{7f}é\r");
        assert_eq!(j.to_string(), "\"a\\u0001b\\u001f\u{7f}é\\r\"");
        assert_eq!(roundtrip(&j), j);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let j = Json::str("a \"b\"\n\\c\tµ");
        assert_eq!(roundtrip(&j), j);
        assert!(j.to_string().contains("\\\""));
        assert!(j.to_string().contains("\\n"));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""µ""#).unwrap(), Json::str("µ"));
        // Surrogate pair: U+1D11E musical G clef.
        assert_eq!(Json::parse(r#""𝄞""#).unwrap(), Json::str("𝄞"));
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let mut m = BTreeMap::new();
        m.insert("zeta".into(), Json::int(1));
        m.insert("alpha".into(), Json::int(2));
        assert_eq!(Json::Obj(m).to_string(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn nested_structures_roundtrip() {
        let mut inner = BTreeMap::new();
        inner.insert("xs".into(), Json::Arr(vec![Json::int(1), Json::Null]));
        let j = Json::Arr(vec![Json::Obj(inner), Json::Bool(false)]);
        assert_eq!(roundtrip(&j), j);
    }

    #[test]
    fn whitespace_tolerated_on_parse() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(j.as_obj().unwrap()["a"].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_refuse_to_serialize() {
        let _ = Json::Num(f64::NAN).to_string();
    }
}
