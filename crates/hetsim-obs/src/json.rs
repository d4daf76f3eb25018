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
//! once, in crate-private primitives over [`fmt::Write`]: `write_num`
//! and `write_str`, which `Json`'s `Display` calls, and `write_int`. The
//! trace writers of [`crate::export`] append each span's numbers to a
//! byte buffer through `push_num` and `push_int`, which take their bytes
//! from the same digits, so a document rendered from a tree and a trace
//! written span by span agree byte for byte.

use crate::digits::{self, LAYOUT_BYTES};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// The largest integer every `f64` holds exactly (2^53), and so the
/// largest [`Json::int`] and the trace writers accept: readers that
/// parse JSON numbers as `f64` would round anything above it.
pub(crate) const MAX_EXACT_INT: u64 = 1 << 53;

/// Writes a number in Rust's shortest round-trip form, which parses
/// back to the same bits: the bytes of `f64`'s `Display`, from
/// [`number_digits`] where it decides them and from `{}` everywhere
/// else.
///
/// # Panics
/// On a non-finite value, which JSON cannot represent.
pub(crate) fn write_num<W: fmt::Write + ?Sized>(out: &mut W, v: f64) -> fmt::Result {
    match number_digits(v, &mut [0; LAYOUT_BYTES]) {
        Some(digits) => out.write_str(ascii(digits)),
        None => write!(out, "{v}"),
    }
}

/// [`write_num`], appended to a byte buffer.
///
/// # Panics
/// As [`write_num`].
pub(crate) fn push_num(out: &mut Vec<u8>, v: f64) {
    match number_digits(v, &mut [0; LAYOUT_BYTES]) {
        Some(digits) => out.extend_from_slice(digits),
        None => io::Write::write_fmt(out, format_args!("{v}")).expect("a Vec accepts every write"),
    }
}

/// `f64`'s `Display` bytes for `v`, laid out in `buf`, where the digits
/// of [`crate::digits`] decide them: the integer digits of a
/// non-negative integer up to [`MAX_EXACT_INT`], and otherwise
/// [`digits::shortest`]. `-0.0` is left to `{}`, which writes `-0`.
///
/// # Panics
/// On a non-finite value.
fn number_digits(v: f64, buf: &mut [u8; LAYOUT_BYTES]) -> Option<&[u8]> {
    assert!(v.is_finite(), "non-finite number {v} cannot be serialized");
    if v.is_sign_positive() && v <= MAX_EXACT_INT as f64 {
        let int = v as u64;
        if int as f64 == v {
            return Some(digits::integer(int, buf));
        }
    }
    digits::shortest(v, buf)
}

/// Writes an exact integer: the same bytes as [`write_num`] of `v as
/// f64`, without the conversion.
///
/// # Panics
/// Above [`MAX_EXACT_INT`].
pub(crate) fn write_int<W: fmt::Write + ?Sized>(out: &mut W, v: u64) -> fmt::Result {
    assert_exact(v);
    out.write_str(ascii(digits::integer(v, &mut [0; LAYOUT_BYTES])))
}

/// [`write_int`], appended to a byte buffer.
///
/// # Panics
/// As [`write_int`].
pub(crate) fn push_int(out: &mut Vec<u8>, v: u64) {
    assert_exact(v);
    out.extend_from_slice(digits::integer(v, &mut [0; LAYOUT_BYTES]));
}

fn assert_exact(v: u64) {
    assert!(v <= MAX_EXACT_INT, "integer {v} exceeds exact f64 range");
}

fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("digit layouts are ASCII")
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
    /// optional surrounding whitespace). Arrays and objects may nest 128
    /// levels deep; a deeper one is an error naming the byte that opens
    /// it, never a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
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

/// How deep [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so the cap bounds its stack; every document
/// this workspace writes nests under 10 levels.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
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
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run is whole characters, checked once.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else { return Err("unterminated string".into()) };
            let chars = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                .map_err(|_| "invalid UTF-8")?;
            out.push_str(chars);
            let delimiter = self.bytes[self.pos + run];
            self.pos += run + 1;
            if delimiter == b'"' {
                return Ok(out);
            }
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
                        char::from_u32(code).ok_or(format!("invalid code point {code:#x}"))?
                    };
                    out.push(c);
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos)),
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

    /// A number: text in RFC 8259's grammar whose value is finite. The
    /// scan takes every byte a number can hold, so `01`, `1.` or `-.5`
    /// is one invalid number, not a number and trailing data.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII bytes");
        let value =
            if is_rfc8259_number(text.as_bytes()) { text.parse::<f64>().ok() } else { None };
        match value {
            Some(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(format!("invalid number '{text}' at byte {start}")),
        }
    }
}

/// Whether `text` is one number of RFC 8259:
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn is_rfc8259_number(text: &[u8]) -> bool {
    let digits = |from: usize| text[from..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut at = usize::from(text.first() == Some(&b'-'));
    match text.get(at) {
        Some(b'0') => at += 1,
        Some(b'1'..=b'9') => at += digits(at),
        _ => return false,
    }
    if text.get(at) == Some(&b'.') {
        let fraction = digits(at + 1);
        if fraction == 0 {
            return false;
        }
        at += 1 + fraction;
    }
    if matches!(text.get(at), Some(b'e' | b'E')) {
        at += 1;
        if matches!(text.get(at), Some(b'+' | b'-')) {
            at += 1;
        }
        let exponent = digits(at);
        if exponent == 0 {
            return false;
        }
        at += exponent;
    }
    at == text.len()
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
        // the standard library's, and what `Json::int`'s `Num` renders,
        // or the trace writers would drift from documents built as trees.
        let mut state = 0x5eed_u64;
        let mut cases = vec![0, MAX_EXACT_INT - 1, MAX_EXACT_INT];
        cases.extend((0..54).map(|k| 1u64 << k));
        cases.extend((0..16).map(|k| 7 * 10u64.pow(k)));
        cases.extend((1..16).flat_map(|k| [10u64.pow(k) - 1, 10u64.pow(k), 10u64.pow(k) + 1]));
        cases.extend((0..2000).map(|i| (draw(&mut state) % (MAX_EXACT_INT + 1)) >> (i % 53)));
        for v in cases {
            let (mut int, mut num, mut pushed) = (String::new(), String::new(), Vec::new());
            write_int(&mut int, v).unwrap();
            write_num(&mut num, v as f64).unwrap();
            push_int(&mut pushed, v);
            assert_eq!(int, v.to_string());
            assert_eq!(int, num, "{v}");
            assert_eq!(int, Json::int(v).to_string());
            assert_eq!(int.as_bytes(), pushed);
        }
    }

    #[test]
    fn integer_valued_numbers_write_the_bytes_of_display() {
        // Non-negative integers up to 2^53 take the integer digits; -0.0
        // and everything past 2^53 must keep `Display`'s bytes too.
        let mut cases = vec![0.0, -0.0, 2f64.powi(53) - 1.0, 2f64.powi(53), 2f64.powi(53) + 2.0];
        cases.extend([1e21, 2f64.powi(64)]);
        for k in 1..=22 {
            let power = 10f64.powi(k);
            cases.extend([power - 1.0, power, power + 1.0]);
        }
        for v in cases {
            assert_num_bytes(v);
        }
    }

    /// splitmix64 over `state`.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Checks `write_num` and `push_num` against the standard library's
    /// `Display`, the oracle for their bytes, on `v` and `-v`.
    fn assert_num_bytes(v: f64) {
        for v in [v, -v] {
            let (mut text, mut pushed) = (String::new(), Vec::new());
            write_num(&mut text, v).unwrap();
            push_num(&mut pushed, v);
            assert_eq!(text, format!("{v}"), "bits {:#018x}", v.to_bits());
            assert_eq!(pushed, text.as_bytes(), "bits {:#018x}", v.to_bits());
        }
    }

    #[test]
    fn numbers_write_the_bytes_of_display_on_random_bits() {
        let mut state = 0xd1ce_5eed_0000_0001;
        let mut finite = 0;
        while finite < 1_000_000 {
            let v = f64::from_bits(draw(&mut state));
            if v.is_finite() {
                assert_num_bytes(v);
                finite += 1;
            }
        }
    }

    #[test]
    fn numbers_write_the_bytes_of_display_on_edge_values() {
        // `v` and its one-ulp neighbours (zero's lower one is itself).
        let neighbours = |v: f64| {
            let bits = v.to_bits();
            [f64::from_bits(bits.saturating_sub(1)), v, f64::from_bits(bits + 1)]
        };
        for v in
            [0.0, f64::from_bits(1), f64::from_bits((1 << 52) - 1), f64::MIN_POSITIVE, f64::MAX]
        {
            assert_num_bytes(v);
        }
        for k in -1074i64..=1023 {
            let bits = if k < -1022 { 1u64 << (k + 1074) } else { ((k + 1023) as u64) << 52 };
            neighbours(f64::from_bits(bits)).into_iter().for_each(assert_num_bytes);
        }
        for k in -323..=308 {
            let v: f64 = format!("1e{k}").parse().unwrap();
            neighbours(v).into_iter().for_each(assert_num_bytes);
        }
        // Integers and half-integers around 2^53, 2^54 and 2^64, and the
        // representable values 64 ulps either side of each.
        for base in [2f64.powi(53), 2f64.powi(54), 2f64.powi(64)] {
            for step in -128i32..=128 {
                assert_num_bytes(base + f64::from(step) * 0.5);
                assert_num_bytes(f64::from_bits(
                    base.to_bits().wrapping_add_signed(i64::from(step / 2)),
                ));
            }
        }
        // Decimals of every length a shortest form can have, at every
        // magnitude: the digit selection must agree, not just the
        // round trip.
        let mut state = 0x5eed_0000_0000_0017;
        for digits in 1..=17u32 {
            for _ in 0..4000 {
                let lo = 10u64.pow(digits - 1);
                let mantissa = lo + draw(&mut state) % (9 * lo);
                let exp = (draw(&mut state) % 650) as i64 - 340;
                let v: f64 = format!("{mantissa}e{exp}").parse().unwrap();
                if v.is_finite() {
                    neighbours(v.max(f64::from_bits(1))).into_iter().for_each(assert_num_bytes);
                }
            }
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

    /// `depth` arrays, one inside the next.
    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_with_an_error_naming_the_byte() {
        let at_cap = Json::parse(&nested(MAX_DEPTH)).expect("the cap itself parses");
        assert_eq!(at_cap.to_string(), nested(MAX_DEPTH));
        let past = format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}");
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), Err(past.clone()));
        // Objects count too, and so do levels opened after whitespace.
        let objects = "{\"k\": ".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        let byte = 6 * MAX_DEPTH;
        let want = format!("nesting deeper than {MAX_DEPTH} levels at byte {byte}");
        assert_eq!(Json::parse(&objects), Err(want));
        // Far past the cap: an error, not a stack overflow.
        assert_eq!(Json::parse(&nested(100_000)), Err(past));
    }

    #[test]
    fn long_strings_round_trip_with_multibyte_characters_beside_escapes() {
        let piece = "ascii é µ 𝄞 \"quoted\" back\\slash\n\t\u{1}/ ";
        let mut values = BTreeMap::new();
        let mut bytes = 0;
        for i in 0.. {
            let value = format!("{i} {}", piece.repeat(i % 97 + 1));
            bytes += value.len();
            values.insert(format!("k{i}é"), Json::Str(value));
            if bytes >= 1 << 20 {
                break;
            }
        }
        let doc = Json::Obj(values);
        let text = doc.to_string();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text), Ok(doc));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn numbers_parse_by_the_rfc_8259_grammar() {
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-1.25", -1.25),
            ("0.5e-3", 0.5e-3),
            ("1E+2", 100.0),
            ("2e0", 2.0),
            ("1e-400", 0.0),
            ("1.7976931348623157e308", f64::MAX),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(value)), "{good}");
        }
        // Outside the grammar, or beyond f64: `Display` would panic on
        // the infinity that `1e400` used to parse as.
        for (bad, number, at) in [
            ("-.5", "-.5", 0),
            ("1.", "1.", 0),
            ("01", "01", 0),
            ("00", "00", 0),
            ("1.e3", "1.e3", 0),
            ("-", "-", 0),
            ("1e", "1e", 0),
            ("1e+", "1e+", 0),
            ("1-2", "1-2", 0),
            ("[0, 1e400]", "1e400", 4),
            ("-1e400", "-1e400", 0),
            ("1.8e308", "1.8e308", 0),
        ] {
            let want = format!("invalid number '{number}' at byte {at}");
            assert_eq!(Json::parse(bad), Err(want), "{bad}");
        }
    }

    #[test]
    fn every_parsed_document_renders_and_parses_back_equal() {
        let mut state = 0x0bad_5eed_0000_0003;
        let (mut ok, mut err) = (0, 0);
        for _ in 0..20_000 {
            let text = random_document(&mut state, 0);
            match Json::parse(&text) {
                Ok(value) => {
                    let rendered = value.to_string();
                    assert_eq!(Json::parse(&rendered), Ok(value), "{text} -> {rendered}");
                    ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        assert!(ok > 2_000 && err > 2_000, "{ok} parsed, {err} rejected");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_refuse_to_serialize() {
        let _ = Json::Num(f64::NAN).to_string();
    }

    /// A random document, mostly well formed, whose numbers are drawn
    /// from sign, integer, fraction and exponent parts in and outside
    /// RFC 8259's grammar and f64's range.
    fn random_document(state: &mut u64, depth: usize) -> String {
        fn pick(state: &mut u64, items: &[&str]) -> String {
            items[(draw(state) % items.len() as u64) as usize].to_string()
        }
        match draw(state) % if depth < 3 { 6 } else { 4 } {
            0 | 1 => {
                let sign = pick(state, &["", "", "-", "+"]);
                let int = pick(state, &["0", "7", "42", "1234567890123456789", "00", "01", ""]);
                let fraction = pick(state, &["", "", ".5", ".000", ".", ".25e"]);
                let exponent = pick(
                    state,
                    &["", "", "e5", "E+3", "e-7", "e308", "e309", "e-400", "e400", "e", "e+"],
                );
                format!("{sign}{int}{fraction}{exponent}")
            }
            2 => pick(state, &["null", "true", "false", "\"a\"", "\"\\u00e9\"", "nul"]),
            3 => pick(state, &["[]", "{}", " 1 ", "[1,]", "\"\""]),
            4 => {
                let items: Vec<String> =
                    (0..draw(state) % 4).map(|_| random_document(state, depth + 1)).collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let items: Vec<String> = (0..draw(state) % 4)
                    .map(|i| format!("\"k{i}\":{}", random_document(state, depth + 1)))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }
}
