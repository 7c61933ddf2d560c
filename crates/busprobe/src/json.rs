//! A minimal JSON value model with a renderer and a strict parser.
//!
//! The workspace deliberately avoids heavyweight serialization crates in
//! the instrumentation path; the metrics sink only needs to *emit* one
//! flat object per experiment and *validate* what it emitted (the
//! `repro metrics-check` subcommand and the CI smoke step). Both sides
//! live here so they cannot drift apart.

use std::fmt;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// An integer above `i64::MAX` that fits `u64`. Smaller integers
    /// are always [`Int`](Self::Int), so each value has one form.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array of non-negative integers — a trace's words — held flat,
    /// with no `JsonValue` per element. [`parse`] produces it for every
    /// non-empty array whose elements are all non-negative integer
    /// literals. It renders byte-identically to the equivalent
    /// [`Arr`](Self::Arr).
    Words(Vec<u64>),
    /// Any other array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, for `Int`, `UInt` and `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, for non-negative `Int` and for `UInt`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            JsonValue::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    /// The exact integer, in its one canonical form: `Int` up to
    /// `i64::MAX`, `UInt` above.
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(JsonValue::UInt(v), JsonValue::Int)
    }
}

/// Escapes a string for embedding in JSON (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::UInt(u) => write!(f, "{u}"),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; degrade to null rather than
                    // emit an unparseable token.
                    f.write_str("null")
                }
            }
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Words(words) => write_array(f, words),
            JsonValue::Arr(items) => write_array(f, items),
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "\"{}\":{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `[a,b,…]`: the one array syntax `Words` and `Arr` share.
fn write_array<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    f.write_str("[")?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write!(f, "{item}")?;
    }
    f.write_str("]")
}

/// The deepest array/object nesting [`parse`] accepts. The parser is
/// recursive descent, so this bounds its stack use: unbounded, one
/// megabyte of `[` overflows a thread's stack and aborts the whole
/// process, which `catch_unwind` cannot contain. Every document the
/// workspace emits nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Why a parse failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input is not well-formed JSON.
    Syntax,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// The class of failure.
    pub kind: JsonErrorKind,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing garbage is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            kind: JsonErrorKind::Syntax,
            message: message.into(),
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError {
                        kind: JsonErrorKind::TooDeep,
                        ..self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
                    });
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired;
                            // the emitter never produces them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("bad escape `\\{}`", other as char)));
                        }
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Re-decode UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Reads the digit run at `pos` as a `u64` when it is a whole
    /// integer literal that fits: at least one digit, no overflow, and
    /// no fraction or exponent after it. Advances past it only then.
    fn plain_u64(&mut self) -> Option<u64> {
        let mut pos = self.pos;
        let mut value = 0u64;
        while let Some(&b) = self.bytes.get(pos) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            pos += 1;
        }
        if pos == self.pos || matches!(self.bytes.get(pos), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = pos;
        Some(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        // Integers are read exactly, digit by digit; only fractions,
        // exponents and integers outside `i64`/`u64` take the text path.
        if let Some(magnitude) = self.plain_u64() {
            if !negative {
                return Ok(JsonValue::from(magnitude));
            }
            if let Some(i) = 0i64.checked_sub_unsigned(magnitude) {
                return Ok(JsonValue::Int(i));
            }
        }
        self.pos = start + usize::from(negative);
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(Vec::new()));
        }
        // Read non-negative integers straight into a `Words` until an
        // element is anything else; then carry on as a general array.
        let mut words = Vec::new();
        while let Some(w) = self.plain_u64() {
            words.push(w);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Words(words));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
        let mut items: Vec<JsonValue> = words.into_iter().map(JsonValue::from).collect();
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
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
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let src = r#"{"experiment":"fig18","wall_s":1.25,"metrics":{"a.b":3,"c":[1,2,null,true]},"note":"x\"y\\z"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig18"));
        assert_eq!(v.get("wall_s").unwrap().as_f64(), Some(1.25));
        assert_eq!(
            v.get("metrics").unwrap().get("a.b").unwrap().as_u64(),
            Some(3)
        );
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn parses_numbers_exactly() {
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        assert_eq!(JsonValue::from(i64::MAX as u64), JsonValue::Int(i64::MAX));
        assert_eq!(JsonValue::from(1u64 << 63), JsonValue::UInt(1 << 63));
    }

    #[test]
    fn integer_arrays_parse_flat_and_render_like_arrays() {
        let v = parse("[1, 18446744073709551615,\n0]").unwrap();
        assert_eq!(v, JsonValue::Words(vec![1, u64::MAX, 0]));
        assert_eq!(v.to_string(), "[1,18446744073709551615,0]");
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("[1,]").unwrap_err().offset, 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let nested_objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&nested_objects).is_ok());

        let over = format!("[{at_limit}]");
        let err = parse(&over).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TooDeep);
        assert_eq!(err.offset, MAX_DEPTH);
        // A megabyte of `[` is refused, not a stack overflow.
        let hostile = "[".repeat(1 << 20);
        assert_eq!(parse(&hostile).unwrap_err().kind, JsonErrorKind::TooDeep);
        assert_eq!(parse("[1,]").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn escapes_control_characters() {
        let v = JsonValue::Str("a\nb\t\"c\"\u{1}".into());
        let rendered = v.to_string();
        assert_eq!(rendered, "\"a\\nb\\t\\\"c\\\"\\u0001\"");
        assert_eq!(parse(&rendered).unwrap(), v);
    }

    #[test]
    fn preserves_unicode() {
        let v = parse(r#""λ = 0.5 → κ""#).unwrap();
        assert_eq!(v.as_str(), Some("λ = 0.5 → κ"));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
    }
}
