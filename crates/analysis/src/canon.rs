//! Canonical JSON values: stable encoding, parsing and content hashing.
//!
//! The campaign subsystem dedupes and resumes runs by *content*: two run
//! points are the same experiment exactly when their canonical encodings
//! are byte-identical. [`CanonValue`] is the small value model that makes
//! this well-defined without an external serializer:
//!
//! * maps are [`BTreeMap`]s, so keys always render sorted — re-ordering
//!   the fields of a request or a hand-written spec cannot change the
//!   hash;
//! * numbers are unsigned 64-bit integers only (every knob in
//!   `AhbPlusParams`, `DdrConfig`, `Topology` and `ScenarioSpec` is an
//!   integer, a bool or an enum tag), so there is no float-formatting
//!   ambiguity to canonicalize away;
//! * the writer emits exactly one byte sequence per value (no whitespace,
//!   sorted keys, [`crate::jsonfmt::escape_json`] string escaping), and
//!   [`parse`] accepts ordinary human-written JSON back into the model.
//!
//! [`content_hash`] is FNV-1a 64 over the canonical bytes, rendered as a
//! fixed-width hex string by [`content_hash_hex`] — the key used by the
//! campaign journal and the on-disk result cache.

use std::collections::BTreeMap;
use std::fmt;

use crate::jsonfmt::escape_json;

/// A canonical JSON value (unsigned integers only; see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonValue {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the only number kind specs need).
    U64(u64),
    /// A string.
    Str(String),
    /// An array (order significant).
    Array(Vec<CanonValue>),
    /// An object; [`BTreeMap`] keeps keys sorted, so insertion order —
    /// and therefore the field order of whoever wrote the JSON — never
    /// leaks into the canonical bytes.
    Map(BTreeMap<String, CanonValue>),
}

impl CanonValue {
    /// A string value (convenience).
    #[must_use]
    pub fn str(text: &str) -> Self {
        CanonValue::Str(text.to_owned())
    }

    /// An empty map to build on.
    #[must_use]
    pub fn map() -> BTreeMap<String, CanonValue> {
        BTreeMap::new()
    }

    /// Renders the single canonical byte form: compact, sorted keys.
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            CanonValue::Null => out.push_str("null"),
            CanonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            CanonValue::U64(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            CanonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            CanonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            CanonValue::Map(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(key));
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The map behind this value, or an error naming what it is.
    pub fn as_map(&self) -> Result<&BTreeMap<String, CanonValue>, CanonError> {
        match self {
            CanonValue::Map(entries) => Ok(entries),
            other => Err(CanonError::type_mismatch("object", other)),
        }
    }

    /// The array behind this value.
    pub fn as_array(&self) -> Result<&[CanonValue], CanonError> {
        match self {
            CanonValue::Array(items) => Ok(items),
            other => Err(CanonError::type_mismatch("array", other)),
        }
    }

    /// The string behind this value.
    pub fn as_str(&self) -> Result<&str, CanonError> {
        match self {
            CanonValue::Str(s) => Ok(s),
            other => Err(CanonError::type_mismatch("string", other)),
        }
    }

    /// The integer behind this value.
    pub fn as_u64(&self) -> Result<u64, CanonError> {
        match self {
            CanonValue::U64(n) => Ok(*n),
            other => Err(CanonError::type_mismatch("integer", other)),
        }
    }

    /// The bool behind this value.
    pub fn as_bool(&self) -> Result<bool, CanonError> {
        match self {
            CanonValue::Bool(b) => Ok(*b),
            other => Err(CanonError::type_mismatch("bool", other)),
        }
    }

    /// Looks `key` up in a map value; missing keys are an error (the
    /// decoders want every field explicit so hashes never depend on
    /// defaulting rules).
    pub fn get(&self, key: &str) -> Result<&CanonValue, CanonError> {
        self.as_map()?
            .get(key)
            .ok_or_else(|| CanonError::new(format!("missing field '{key}'")))
    }

    fn kind_name(&self) -> &'static str {
        match self {
            CanonValue::Null => "null",
            CanonValue::Bool(_) => "bool",
            CanonValue::U64(_) => "integer",
            CanonValue::Str(_) => "string",
            CanonValue::Array(_) => "array",
            CanonValue::Map(_) => "object",
        }
    }
}

/// Why a JSON text could not be parsed or decoded into the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonError {
    message: String,
}

impl CanonError {
    /// An error with the given message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        CanonError {
            message: message.into(),
        }
    }

    fn type_mismatch(expected: &str, got: &CanonValue) -> Self {
        CanonError::new(format!("expected {expected}, got {}", got.kind_name()))
    }

    /// Prefixes the message with a field path segment (for decoder
    /// errors that bubble up through nested maps).
    #[must_use]
    pub fn within(self, context: &str) -> Self {
        CanonError::new(format!("{context}: {}", self.message))
    }
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CanonError {}

/// The deepest nesting of objects and arrays [`parse`] accepts. Real
/// specs nest a handful of levels; the bound keeps the recursive parser
/// from overflowing the stack on hostile input such as a request body of
/// 100,000 `[`.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Parses a JSON text into the canonical value model.
///
/// Accepts objects, arrays, strings (with the standard escapes),
/// non-negative integers, `true`/`false`/`null` and arbitrary
/// whitespace. Floats, negative numbers and exponents are rejected —
/// nothing the campaign subsystem hashes contains them, and refusing
/// them keeps "parse then re-encode" an exact round trip.
///
/// # Errors
///
/// [`CanonError`] describing the first offending position, including
/// objects and arrays nested deeper than [`MAX_NESTING_DEPTH`].
pub fn parse(text: &str) -> Result<CanonValue, CanonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(CanonError::new(format!(
            "trailing characters at byte {pos}"
        )));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing objects and arrays number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<CanonValue, CanonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(CanonError::new("unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_NESTING_DEPTH => Err(CanonError::new(format!(
            "nesting deeper than {MAX_NESTING_DEPTH} levels at byte {}",
            *pos
        ))),
        Some(b'{') => parse_map(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(CanonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", CanonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", CanonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", CanonValue::Null),
        Some(c) if c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(CanonError::new(format!(
            "unexpected character '{}' at byte {}",
            char::from(*c),
            *pos
        ))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: CanonValue,
) -> Result<CanonValue, CanonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(CanonError::new(format!(
            "expected '{literal}' at byte {}",
            *pos
        )))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<CanonValue, CanonError> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if let Some(next) = bytes.get(*pos) {
        if matches!(next, b'.' | b'e' | b'E' | b'-' | b'+') {
            return Err(CanonError::new(format!(
                "only non-negative integers are canonical (byte {start})"
            )));
        }
    }
    let digits = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| CanonError::new("invalid utf-8 in number"))?;
    digits
        .parse::<u64>()
        .map(CanonValue::U64)
        .map_err(|_| CanonError::new(format!("integer out of range at byte {start}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, CanonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(CanonError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| CanonError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| CanonError::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| CanonError::new("invalid \\u escape"))?;
                        // Surrogates never appear in the specs' ASCII
                        // field names; map them to the replacement
                        // character rather than failing the whole parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(CanonError::new("invalid escape in string")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| CanonError::new("invalid utf-8 in string"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<CanonValue, CanonError> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(CanonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(CanonValue::Array(items));
            }
            _ => {
                return Err(CanonError::new(format!(
                    "expected ',' or ']' at byte {pos}"
                )))
            }
        }
    }
}

fn parse_map(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<CanonValue, CanonError> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut entries = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(CanonValue::Map(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(CanonError::new(format!(
                "expected object key at byte {pos}"
            )));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(CanonError::new(format!("expected ':' at byte {pos}")));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        entries.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(CanonValue::Map(entries));
            }
            _ => {
                return Err(CanonError::new(format!(
                    "expected ',' or '}}' at byte {pos}"
                )))
            }
        }
    }
}

/// FNV-1a 64-bit over the canonical byte form of `value`.
#[must_use]
pub fn content_hash(value: &CanonValue) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in value.to_canonical_json().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content hash rendered as the fixed-width hex key used by the
/// campaign journal and result cache.
#[must_use]
pub fn content_hash_hex(value: &CanonValue) -> String {
    format!("{:016x}", content_hash(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CanonValue {
        let mut inner = CanonValue::map();
        inner.insert("b".to_owned(), CanonValue::U64(2));
        inner.insert("a".to_owned(), CanonValue::Bool(true));
        let mut outer = CanonValue::map();
        outer.insert("z".to_owned(), CanonValue::Map(inner));
        outer.insert(
            "items".to_owned(),
            CanonValue::Array(vec![CanonValue::Null, CanonValue::str("x\"y")]),
        );
        CanonValue::Map(outer)
    }

    #[test]
    fn writer_is_compact_and_key_sorted() {
        assert_eq!(
            sample().to_canonical_json(),
            r#"{"items":[null,"x\"y"],"z":{"a":true,"b":2}}"#
        );
    }

    #[test]
    fn parse_round_trips_the_canonical_form() {
        let text = sample().to_canonical_json();
        assert_eq!(parse(&text).unwrap(), sample());
    }

    #[test]
    fn key_order_and_whitespace_do_not_change_the_hash() {
        let a = parse(r#"{"x": 1, "y": [2, 3]}"#).unwrap();
        let b = parse("{\"y\":[2,3],\n  \"x\":1}").unwrap();
        assert_eq!(a, b);
        assert_eq!(content_hash_hex(&a), content_hash_hex(&b));
    }

    #[test]
    fn renamed_keys_and_changed_values_change_the_hash() {
        let base = parse(r#"{"seed":7}"#).unwrap();
        let renamed = parse(r#"{"sede":7}"#).unwrap();
        let changed = parse(r#"{"seed":8}"#).unwrap();
        assert_ne!(content_hash(&base), content_hash(&renamed));
        assert_ne!(content_hash(&base), content_hash(&changed));
    }

    #[test]
    fn non_canonical_numbers_are_rejected() {
        assert!(parse("1.5").is_err());
        assert!(parse("-3").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("18446744073709551616").is_err());
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            CanonValue::U64(u64::MAX)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = r#""tab\tnl\nquote\"uA""#;
        assert_eq!(parse(text).unwrap(), CanonValue::str("tab\tnl\nquote\"uA"));
        let original = CanonValue::str("control\u{1}chars\\here");
        let reparsed = parse(&original.to_canonical_json()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn trailing_garbage_and_truncation_are_errors() {
        assert!(parse(r#"{"a":1} tail"#).is_err());
        assert!(parse(r#"{"a":"#).is_err());
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(100_000);
        let error = parse(&hostile).unwrap_err();
        assert!(error.to_string().contains("nesting deeper than 64"));
        // Exactly the limit still parses, with arrays and objects alike.
        let arrays = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&arrays).is_ok());
        let maps = format!("{}1{}", r#"{"a":"#.repeat(64), "}".repeat(64));
        assert_eq!(parse(&maps).unwrap().to_canonical_json(), maps);
        assert!(parse(&format!("[{arrays}]")).is_err());
    }

    #[test]
    fn accessors_report_useful_errors() {
        let value = parse(r#"{"a":1}"#).unwrap();
        assert_eq!(value.get("a").unwrap().as_u64().unwrap(), 1);
        let missing = value.get("b").unwrap_err();
        assert!(missing.to_string().contains("missing field 'b'"));
        let mismatch = value.get("a").unwrap().as_str().unwrap_err();
        assert!(mismatch.to_string().contains("expected string"));
        assert!(mismatch.within("params").to_string().starts_with("params:"));
    }
}
