//! A tiny hand-rolled JSON value type with an encoder and a decoder.
//!
//! The build environment has no registry access, so no serde; this
//! module is the one JSON implementation the workspace shares — the
//! `rq-wire` HTTP API encodes requests and responses through it, and
//! the bench harness writes its committed `BENCH_<name>.json` summaries
//! with the same encoder.  It covers exactly the JSON the workspace
//! speaks: objects with string keys (insertion-ordered), arrays,
//! strings, integers, floats, booleans, and `null`.
//!
//! Encoding is available compact ([`Json::encode`], or
//! [`Json::encode_into`] a byte buffer) and pretty
//! ([`Json::encode_pretty`]); decoding ([`Json::parse`]) is a
//! recursive-descent parser with a nesting-depth limit so untrusted
//! network bodies cannot overflow the stack.  The encoder's leaf
//! writers, [`escape_str_into`] and [`write_i64`], are public: the
//! constant interner renders each constant's JSON text through them
//! when the constant is interned
//! ([`crate::ConstInterner::json_text`]), which the wire layer copies
//! into answer rows without building a [`Json`] node per cell, and
//! stays byte-identical to [`Json::encode`] because both are the same
//! code.
//!
//! ```
//! use rq_common::json::Json;
//!
//! let value = Json::parse(r#"{"query": "tc(a, Y)", "rows": [["b"], [7]]}"#).unwrap();
//! assert_eq!(value.get("query").and_then(Json::as_str), Some("tc(a, Y)"));
//! let rows = value.get("rows").and_then(Json::as_array).unwrap();
//! assert_eq!(rows[1].as_array().unwrap()[0].as_i64(), Some(7));
//! let round = Json::parse(&value.encode()).unwrap();
//! assert_eq!(round, value);
//! ```

use std::io::Write as _;

/// Maximum nesting depth [`Json::parse`] accepts.  Deeper documents are
/// rejected with [`JsonError::TooDeep`] — a recursive-descent parser
/// must bound recursion before it trusts network input.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.  Keys keep insertion order and are not deduplicated;
    /// [`Json::get`] returns the first occurrence.
    Object(Vec<(String, Json)>),
}

/// A decode failure: what went wrong and at which byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// An unexpected byte at this offset.
    Unexpected(usize, char),
    /// A number failed to parse at this offset.
    BadNumber(usize),
    /// A malformed string escape at this offset.
    BadEscape(usize),
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Valid JSON followed by trailing garbage at this offset.
    Trailing(usize),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of JSON input"),
            JsonError::Unexpected(at, c) => write!(f, "unexpected `{c}` at byte {at}"),
            JsonError::BadNumber(at) => write!(f, "malformed number at byte {at}"),
            JsonError::BadEscape(at) => write!(f, "malformed string escape at byte {at}"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            JsonError::Trailing(at) => write!(f, "trailing characters at byte {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs (a small ergonomic helper
    /// for encoder call sites).
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, when `self` is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when `self` is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric payload as a float (integers convert losslessly for
    /// |i| < 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact encoding (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        into_string(out)
    }

    /// Append the compact encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.write(out, None, 0);
    }

    /// Pretty encoding: two-space indentation, one element per line —
    /// the format of the committed `BENCH_<name>.json` files.
    pub fn encode_pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(2), 0);
        out.push(b'\n');
        into_string(out)
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_i64(*i, out),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips and always keeps a `.0` on integral
                    // values, so the output stays a JSON *number* that
                    // reads back as a float.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Infinity; `null` is the honest
                    // encoding of an unrepresentable measurement.
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => escape_str_into(s, out),
            Json::Array(items) => {
                write_seq(out, indent, level, b'[', b']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1)
                })
            }
            Json::Object(pairs) => {
                write_seq(out, indent, level, b'{', b'}', pairs.len(), |out, i| {
                    let (key, value) = &pairs[i];
                    escape_str_into(key, out);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    value.write(out, indent, level + 1)
                })
            }
        }
    }

    /// Decode one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at < bytes.len() {
            return Err(JsonError::Trailing(at));
        }
        Ok(value)
    }
}

/// The encoder only ever appends whole `&str`s and ASCII, so its
/// buffer is UTF-8 by construction.
fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the JSON encoder writes UTF-8")
}

fn write_seq(
    out: &mut Vec<u8>,
    indent: Option<usize>,
    level: usize,
    open: u8,
    close: u8,
    len: usize,
    mut item: impl FnMut(&mut Vec<u8>, usize),
) {
    let newline = |out: &mut Vec<u8>, level: usize| {
        if let Some(width) = indent {
            out.push(b'\n');
            out.resize(out.len() + width * level, b' ');
        }
    };
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        newline(out, level + 1);
        item(out, i);
        if i + 1 < len {
            out.push(b',');
        }
    }
    newline(out, level);
    out.push(close);
}

/// JSON-escape `s` (with the surrounding quotes) onto `out`.  Runs of
/// bytes that need no escape — everything but `"`, `\` and the C0
/// controls, so multi-byte UTF-8 passes through whole — are copied
/// with one `extend_from_slice` each.
pub fn escape_str_into(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// JSON-escape `s`, returning the quoted string.
pub fn escape_str(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    escape_str_into(s, &mut out);
    into_string(out)
}

/// Append the decimal digits of `i` to `out` (what `{i}` formats,
/// without the formatting machinery).
pub fn write_i64(i: i64, out: &mut Vec<u8>) {
    // 19 digits of `u64::MAX / 2 + 1` and a sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::TooDeep);
    }
    skip_ws(bytes, at);
    let Some(&b) = bytes.get(*at) else {
        return Err(JsonError::UnexpectedEnd);
    };
    match b {
        b'n' => parse_lit(bytes, at, "null", Json::Null),
        b't' => parse_lit(bytes, at, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, at, "false", Json::Bool(false)),
        b'"' => parse_string(bytes, at).map(Json::Str),
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, at, depth + 1)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Array(items));
                    }
                    Some(&c) => return Err(JsonError::Unexpected(*at, c as char)),
                    None => return Err(JsonError::UnexpectedEnd),
                }
            }
        }
        b'{' => {
            *at += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, at);
                if bytes.get(*at) != Some(&b'"') {
                    return match bytes.get(*at) {
                        Some(&c) => Err(JsonError::Unexpected(*at, c as char)),
                        None => Err(JsonError::UnexpectedEnd),
                    };
                }
                let key = parse_string(bytes, at)?;
                skip_ws(bytes, at);
                if bytes.get(*at) != Some(&b':') {
                    return match bytes.get(*at) {
                        Some(&c) => Err(JsonError::Unexpected(*at, c as char)),
                        None => Err(JsonError::UnexpectedEnd),
                    };
                }
                *at += 1;
                let value = parse_value(bytes, at, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Object(pairs));
                    }
                    Some(&c) => return Err(JsonError::Unexpected(*at, c as char)),
                    None => return Err(JsonError::UnexpectedEnd),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, at),
        c => Err(JsonError::Unexpected(*at, c as char)),
    }
}

fn parse_lit(bytes: &[u8], at: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*at..].starts_with(lit.as_bytes()) {
        *at += lit.len();
        Ok(value)
    } else {
        Err(JsonError::Unexpected(*at, bytes[*at] as char))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, JsonError> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*at) {
        match b {
            b'0'..=b'9' => *at += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *at += 1;
            }
            _ => break,
        }
    }
    // Rust's integer and float parsers accept more than JSON does
    // (`01`, `1.`, `-.5`), so the run is checked against the grammar.
    if !is_json_number(&bytes[start..*at]) {
        return Err(JsonError::BadNumber(start));
    }
    let text = std::str::from_utf8(&bytes[start..*at]).expect("ASCII slice");
    if !fractional {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| JsonError::BadNumber(start))
}

/// Whether `text` is a JSON number (RFC 8259 §6):
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    let mut i = usize::from(text.first() == Some(&b'-'));
    let digits = |i: &mut usize| {
        let from = *i;
        while text.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    match text.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if text.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == text.len()
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*at], b'"');
    *at += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*at) else {
            return Err(JsonError::UnexpectedEnd);
        };
        match b {
            b'"' => {
                *at += 1;
                return Ok(out);
            }
            b'\\' => {
                let esc_at = *at;
                *at += 1;
                let Some(&e) = bytes.get(*at) else {
                    return Err(JsonError::UnexpectedEnd);
                };
                *at += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let code = parse_hex4(bytes, at).ok_or(JsonError::BadEscape(esc_at))?;
                        let c = if (0xd800..0xdc00).contains(&code) {
                            // High surrogate: require the paired low
                            // surrogate escape.
                            if bytes.get(*at) != Some(&b'\\') || bytes.get(*at + 1) != Some(&b'u') {
                                return Err(JsonError::BadEscape(esc_at));
                            }
                            *at += 2;
                            let low = parse_hex4(bytes, at).ok_or(JsonError::BadEscape(esc_at))?;
                            if !(0xdc00..0xe000).contains(&low) {
                                return Err(JsonError::BadEscape(esc_at));
                            }
                            let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            char::from_u32(combined).ok_or(JsonError::BadEscape(esc_at))?
                        } else {
                            char::from_u32(code).ok_or(JsonError::BadEscape(esc_at))?
                        };
                        out.push(c);
                    }
                    _ => return Err(JsonError::BadEscape(esc_at)),
                }
            }
            0x00..=0x1f => return Err(JsonError::Unexpected(*at, b as char)),
            _ => {
                // Copy the whole run up to the next byte that means
                // something.  All three kinds are ASCII, so the run
                // starts and ends on scalar boundaries of the `&str`
                // the input came from; validating just the run keeps
                // the parse linear in the string's length.
                let run = bytes[*at..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |n| *at + n);
                out.push_str(std::str::from_utf8(&bytes[*at..run]).expect("a run of a &str"));
                *at = run;
            }
        }
    }
}

/// Exactly four hex digits (RFC 8259 §7); `u32::from_str_radix` would
/// also take a leading `+`.
fn parse_hex4(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let slice = bytes.get(*at..*at + 4)?;
    let code = slice
        .iter()
        .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))?;
    *at += 4;
    Some(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("3.5", Json::Float(3.5)),
            ("-0.25", Json::Float(-0.25)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let text = r#"{"b": [1, 2, {"x": null}], "a": "z", "nested": {"k": [true, false]}}"#;
        let value = Json::parse(text).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["b", "a", "nested"]);
        assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        assert_eq!(Json::parse(&value.encode_pretty()).unwrap(), value);
    }

    #[test]
    fn string_escapes_decode_and_encode() {
        let value = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(value, Json::Str("a\"b\\c\ndAé".into()));
        assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        // Surrogate pair.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\uZZZZ""#).is_err());
        assert_eq!(escape_str("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(Json::parse(""), Err(JsonError::UnexpectedEnd));
        assert_eq!(Json::parse("{"), Err(JsonError::UnexpectedEnd));
        assert!(matches!(Json::parse("nul"), Err(JsonError::Unexpected(..))));
        assert!(matches!(Json::parse("1 2"), Err(JsonError::Trailing(_))));
        assert!(matches!(
            Json::parse("[1,]"),
            Err(JsonError::Unexpected(..))
        ));
        assert!(matches!(
            Json::parse("{\"a\" 1}"),
            Err(JsonError::Unexpected(..))
        ));
        assert!(matches!(Json::parse("1.2.3"), Err(JsonError::BadNumber(_))));
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep));
        let fine = "[".repeat(8) + "1" + &"]".repeat(8);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn depth_limit_is_exact() {
        // Exactly MAX_DEPTH levels of nesting parse; one more is
        // rejected — and the boundary holds for mixed object/array
        // nesting, the shape trace payloads take.
        let at_limit = "[".repeat(MAX_DEPTH) + "1" + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_limit).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + "1" + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&over), Err(JsonError::TooDeep));
        let mixed_over = r#"{"a":"#.repeat(MAX_DEPTH) + "[1]" + &"}".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&mixed_over), Err(JsonError::TooDeep));
    }

    #[test]
    fn surrogate_and_escape_round_trips() {
        // A surrogate-pair escape decodes to the astral scalar, and
        // the encoder's output (raw UTF-8) re-parses to the same value.
        let from_escape = Json::parse(r#""😀""#).unwrap();
        assert_eq!(from_escape, Json::Str("😀".into()));
        assert_eq!(Json::parse(&from_escape.encode()).unwrap(), from_escape);
        // Low surrogate without a preceding high one is rejected, as
        // is a high surrogate followed by a non-surrogate escape.
        assert!(Json::parse(r#""\udc00""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        // Control characters encode as \u escapes and round-trip.
        let control = Json::Str("\u{0001}\u{001f}bell\u{0007}".into());
        let encoded = control.encode();
        assert!(encoded.contains("\\u0001") && encoded.contains("\\u001f"));
        assert_eq!(Json::parse(&encoded).unwrap(), control);
        // Every named escape survives a double round-trip.
        let named = Json::parse(r#""\"\\\/\b\f\n\r\t""#).unwrap();
        assert_eq!(named, Json::Str("\"\\/\u{8}\u{c}\n\r\t".into()));
        assert_eq!(Json::parse(&named.encode()).unwrap(), named);
    }

    #[test]
    fn large_integers_keep_fidelity() {
        // i64 extremes stay exact integers through parse and encode —
        // metric counters ride this codec.
        for i in [i64::MAX, i64::MIN, (1i64 << 53) + 1, -(1i64 << 53) - 1] {
            let parsed = Json::parse(&i.to_string()).unwrap();
            assert_eq!(parsed, Json::Int(i), "{i}");
            assert_eq!(parsed.encode(), i.to_string());
        }
        // Beyond i64, the value degrades to a float rather than
        // erroring (matching other lenient decoders).
        let over = "9223372036854775808"; // i64::MAX + 1
        assert_eq!(
            Json::parse(over).unwrap(),
            Json::Float(9.223372036854776e18)
        );
        // An exponent forces float even for integral values.
        assert_eq!(Json::parse("5e0").unwrap(), Json::Float(5.0));
    }

    #[test]
    fn leaf_writers_match_the_formatter() {
        for i in [0, 7, -7, 10, -10, 1430, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            write_i64(i, &mut out);
            assert_eq!(out, i.to_string().as_bytes());
        }
        // Escapes split the unescaped runs; DEL and multi-byte UTF-8
        // are not escaped and stay inside their run.
        let mut out = b"x".to_vec();
        escape_str_into("a\"b\\\u{0}é\u{7f}\n😀", &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "x\"a\\\"b\\\\\\u0000é\u{7f}\\n😀\""
        );
    }

    #[test]
    fn string_parse_time_is_linear_in_length() {
        // The parser used to re-validate the rest of the document for
        // every character of a string: 16× the bytes cost 256× the
        // time.  Linear, 16 small parses and one large one cost about
        // the same; allow a factor 4 for caches and a noisy machine.
        let body = |len: usize| format!("{{\"facts\":\"{}é\\n\"}}", "e(a,b). ".repeat(len / 8));
        let best_of = |text: &str, parses: usize| {
            (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..parses {
                        assert!(Json::parse(text).is_ok());
                    }
                    start.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let (small, large) = (body(64 << 10), body(1 << 20));
        let sixteen_small = best_of(&small, 16);
        let one_large = best_of(&large, 1);
        assert!(
            one_large <= 4 * sixteen_small,
            "1 MB: {one_large:?}, 16 x 64 KB: {sixteen_small:?}"
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Float(f64::NAN).encode(), "null");
        assert_eq!(Json::Float(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn object_helpers() {
        let value = Json::object([("a", Json::Int(1)), ("b", Json::Bool(true))]);
        assert_eq!(value.get("a").and_then(Json::as_i64), Some(1));
        assert_eq!(value.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("c"), None);
        assert_eq!(Json::Int(5).get("a"), None);
        assert_eq!(Json::Int(5).as_f64(), Some(5.0));
    }

    #[test]
    fn pretty_format_shape() {
        let value = Json::object([
            ("bench", Json::Str("t".into())),
            ("entries", Json::Array(vec![Json::Int(1)])),
        ]);
        assert_eq!(
            value.encode_pretty(),
            "{\n  \"bench\": \"t\",\n  \"entries\": [\n    1\n  ]\n}\n"
        );
    }

    /// A xorshift stream, so every case replays exactly.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Characters that mean something to the parser, control
    /// characters, and multi-byte scalars.
    const POOL: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', ' ', '\n', '-', '+', '.', '0', '1', '9', 'e', 'E',
        'u', 'n', 't', 'r', 'l', 'f', 'a', 's', 'd', '8', 'D', 'c', '\u{0}', '\u{1f}', '\u{7f}',
        'é', '\u{2028}', '😀',
    ];

    fn random_string(next: &mut impl FnMut() -> u64) -> String {
        (0..next() % 8)
            .map(|_| POOL[(next() % POOL.len() as u64) as usize])
            .collect()
    }

    /// A random document with finite floats, its containers nested at
    /// most `MAX_DEPTH` deep, counting `depth` enclosing levels.
    fn random_json(next: &mut impl FnMut() -> u64, depth: usize, budget: &mut u32) -> Json {
        let kinds = if depth == MAX_DEPTH || *budget == 0 {
            5
        } else {
            7
        };
        *budget = budget.saturating_sub(1);
        match next() % kinds {
            0 => Json::Null,
            1 => Json::Bool(next().is_multiple_of(2)),
            2 => Json::Int(next() as i64 >> (next() % 64)),
            3 => loop {
                let x = f64::from_bits(next());
                if x.is_finite() {
                    break Json::Float(x);
                }
            },
            4 => Json::Str(random_string(next)),
            5 => Json::Array(
                (0..next() % 4)
                    .map(|_| random_json(next, depth + 1, budget))
                    .collect(),
            ),
            _ => Json::Object(
                (0..next() % 4)
                    .map(|_| (random_string(next), random_json(next, depth + 1, budget)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn random_documents_round_trip_and_garbage_never_panics() {
        let mut next = rng(7);
        for case in 0..2_000 {
            // A spine of up to MAX_DEPTH containers reaches the depth
            // limit, which random branching alone almost never does.
            let spine = (next() % (MAX_DEPTH as u64 + 1)) as usize;
            let mut value = random_json(&mut next, spine, &mut 40);
            for level in 0..spine {
                value = if level % 2 == 0 {
                    Json::Array(vec![value])
                } else {
                    Json::object([("k", value)])
                };
            }
            let text = value.encode();
            assert_eq!(
                Json::parse(&text).as_ref(),
                Ok(&value),
                "case {case}: {text}"
            );
            assert_eq!(Json::parse(&value.encode_pretty()).as_ref(), Ok(&value));

            // One byte of the document replaced, and a string of
            // meaningful characters: either parses or errs, never panics.
            let mut bytes = text.into_bytes();
            let at = (next() % bytes.len() as u64) as usize;
            bytes[at] = next() as u8;
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            let garbage: String = (0..next() % 32)
                .map(|_| POOL[(next() % POOL.len() as u64) as usize])
                .collect();
            let _ = Json::parse(&garbage);
        }
    }

    #[test]
    fn malformed_numbers_and_escapes_are_rejected() {
        for (text, error) in [
            (r#""\u+041""#, JsonError::BadEscape(1)),
            (r#""\ud83d\u+e00""#, JsonError::BadEscape(1)),
            (r#"["\u004+"]"#, JsonError::BadEscape(2)),
            ("01", JsonError::BadNumber(0)),
            ("-01", JsonError::BadNumber(0)),
            ("00", JsonError::BadNumber(0)),
            ("1.", JsonError::BadNumber(0)),
            ("1.e5", JsonError::BadNumber(0)),
            ("-.5", JsonError::BadNumber(0)),
            ("-", JsonError::BadNumber(0)),
            ("1e", JsonError::BadNumber(0)),
            ("1e+", JsonError::BadNumber(0)),
            ("1.2.3", JsonError::BadNumber(0)),
            ("[1, 01]", JsonError::BadNumber(4)),
            (r#"{"a": -.5}"#, JsonError::BadNumber(6)),
        ] {
            assert_eq!(Json::parse(text), Err(error), "{text}");
        }
        for (text, value) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("0.5", Json::Float(0.5)),
            ("-0.5e-3", Json::Float(-0.0005)),
            ("1E+2", Json::Float(100.0)),
            (r#""\u00e9\u00C9""#, Json::Str("éÉ".into())),
        ] {
            assert_eq!(Json::parse(text), Ok(value), "{text}");
        }
    }
}
