//! Property tests for `busprobe::json`, the first parser of every
//! daemon request.
//!
//! Four claims:
//!
//! 1. arbitrary input is a value or a typed [`JsonError`], never a
//!    panic;
//! 2. full-range `u64` arrays survive `render` then `parse` exactly, as
//!    one [`JsonValue::Words`], whatever JSON whitespace sits between
//!    their tokens;
//! 3. every number literal parses to what a reference model built on
//!    `str::parse` says: `i64` if it fits, else `u64`, else `f64`;
//! 4. for any accepted document, `render` then `parse` reaches a fixed
//!    point after one round.

use busprobe::json::{parse, JsonError, JsonErrorKind, JsonValue};
use proptest::prelude::*;

/// The reference model for one number literal: the `str::parse` chain
/// the parser's integer fast path must agree with.
fn reference_number(text: &str) -> Option<JsonValue> {
    // A token is a number only if it starts with `-` or a digit.
    if !text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
        return None;
    }
    if let Ok(i) = text.parse::<i64>() {
        return Some(JsonValue::Int(i));
    }
    if let Ok(u) = text.parse::<u64>() {
        return Some(JsonValue::UInt(u));
    }
    text.parse::<f64>().ok().map(JsonValue::Num)
}

/// Literals at the edges the fast path must get right.
const EDGE_LITERALS: &[&str] = &[
    "0",
    "-0",
    "00",
    "-00",
    "007",
    "-",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "-18446744073709551615",
    "000000000000000000001",
    "018446744073709551615",
    "999999999999999999999",
    "100000000000000000000",
    "1.5",
    "1.",
    "-.5",
    "1e3",
    "1E+2",
    "1e",
    "2.5e-3",
    "18446744073709551615.0",
];

fn push_digits(out: &mut String, rng: &mut TestRng, max: u64) {
    for _ in 0..rng.below(max + 1) {
        out.push(char::from(b'0' + rng.below(10) as u8));
    }
}

/// Number literals, well formed or not: a sign, up to 21 digits (often
/// with leading zeros), and sometimes a fraction or an exponent.
struct NumberLiteral;

impl Strategy for NumberLiteral {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        if rng.below(4) == 0 {
            return EDGE_LITERALS[rng.below(EDGE_LITERALS.len() as u64) as usize].to_string();
        }
        let mut out = String::new();
        if rng.below(3) == 0 {
            out.push('-');
        }
        if rng.below(4) == 0 {
            out.push('0');
        }
        push_digits(&mut out, rng, 21);
        if rng.below(6) == 0 {
            out.push('.');
            push_digits(&mut out, rng, 3);
        }
        if rng.below(6) == 0 {
            out.push(['e', 'E'][rng.below(2) as usize]);
            if rng.below(2) == 0 {
                out.push(['+', '-'][rng.below(2) as usize]);
            }
            push_digits(&mut out, rng, 3);
        }
        if out.is_empty() {
            out.push('0');
        }
        out
    }
}

const WHITESPACE: &[&str] = &["", "", " ", "  ", "\n", "\t", "\r\n", " \n\t "];

fn ws(rng: &mut TestRng) -> &'static str {
    WHITESPACE[rng.below(WHITESPACE.len() as u64) as usize]
}

/// Words from the whole `u64` range, weighted toward the edges.
fn word() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => any::<u64>(),
        1 => 0u64..1000,
        1 => prop_oneof![
            Just(0u64),
            Just(i64::MAX as u64),
            Just(i64::MAX as u64 + 1),
            Just(u64::MAX),
        ],
    ]
}

/// Well-formed JSON documents of every kind, up to four levels deep,
/// with random whitespace between tokens.
struct Document;

impl Document {
    fn value(rng: &mut TestRng, depth: u32, out: &mut String) {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => out.push_str(["null", "true", "false"][rng.below(3) as usize]),
            1 => Self::number(rng, out),
            2 => out.push_str(&rng.next_u64().to_string()),
            3 => Self::string(rng, out),
            4 | 5 if depth == 0 => Self::number(rng, out),
            4 | 5 => Self::words(rng, out),
            6 => Self::array(rng, depth, out),
            _ => Self::object(rng, depth, out),
        }
    }

    /// A literal the model accepts and JSON allows: no leading zeros,
    /// digits on both sides of the point.
    fn number(rng: &mut TestRng, out: &mut String) {
        if rng.below(2) == 0 {
            out.push('-');
        }
        out.push(char::from(b'1' + rng.below(9) as u8));
        push_digits(out, rng, 20);
        if rng.below(3) == 0 {
            out.push('.');
            out.push(char::from(b'0' + rng.below(10) as u8));
            push_digits(out, rng, 4);
        }
        if rng.below(4) == 0 {
            out.push_str(["e", "E-", "e+"][rng.below(3) as usize]);
            out.push(char::from(b'1' + rng.below(9) as u8));
            push_digits(out, rng, 1);
        }
    }

    fn string(rng: &mut TestRng, out: &mut String) {
        const PIECES: &[&str] = &[
            "a", "bus", " ", "λ", "→", "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\u0001", "\\u00e9",
        ];
        out.push('"');
        for _ in 0..rng.below(6) {
            out.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]);
        }
        out.push('"');
    }

    fn words(rng: &mut TestRng, out: &mut String) {
        out.push('[');
        for i in 0..=rng.below(6) {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ws(rng));
            out.push_str(&word().sample(rng).to_string());
            out.push_str(ws(rng));
        }
        out.push(']');
    }

    fn array(rng: &mut TestRng, depth: u32, out: &mut String) {
        out.push('[');
        out.push_str(ws(rng));
        for i in 0..rng.below(5) {
            if i > 0 {
                out.push(',');
                out.push_str(ws(rng));
            }
            Self::value(rng, depth - 1, out);
            out.push_str(ws(rng));
        }
        out.push(']');
    }

    fn object(rng: &mut TestRng, depth: u32, out: &mut String) {
        out.push('{');
        out.push_str(ws(rng));
        for i in 0..rng.below(5) {
            if i > 0 {
                out.push(',');
                out.push_str(ws(rng));
            }
            Self::string(rng, out);
            out.push_str(ws(rng));
            out.push(':');
            out.push_str(ws(rng));
            Self::value(rng, depth - 1, out);
            out.push_str(ws(rng));
        }
        out.push('}');
    }
}

impl Strategy for Document {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let mut out = ws(rng).to_string();
        let depth = rng.below(5) as u32;
        Document::value(rng, depth, &mut out);
        out.push_str(ws(rng));
        out
    }
}

/// Mostly-JSON text cut and mutated at random: the inputs most likely
/// to reach deep into the parser before failing.
fn mangled() -> impl Strategy<Value = String> {
    (Document, 0usize..64, any::<u8>(), 0usize..4).prop_map(|(doc, at, byte, how)| {
        let mut bytes = doc.into_bytes();
        let at = at.min(bytes.len());
        match how {
            0 => bytes.truncate(at),
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, b"[{\",:-.e0"[usize::from(byte) % 9]),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// The typed-error contract: a value, or a classified error inside the
/// input.
fn value_or_typed_error(text: &str) -> Option<JsonValue> {
    match parse(text) {
        Ok(v) => Some(v),
        Err(JsonError { offset, kind, .. }) => {
            assert!(offset <= text.len(), "offset {offset} past {text:?}");
            assert!(matches!(
                kind,
                JsonErrorKind::Syntax | JsonErrorKind::TooDeep
            ));
            None
        }
    }
}

/// Renders, re-parses, and checks that one more round changes nothing.
/// The first round may: `-0.0` renders as `-0`, which parses as `Int(0)`.
fn assert_fixed_point_after_one_round(first: &JsonValue) {
    let second = parse(&first.to_string())
        .unwrap_or_else(|e| panic!("the rendering of {first:?} fails to parse: {e}"));
    assert_eq!(parse(&second.to_string()).as_ref(), Ok(&second));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_a_value_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        text in mangled(),
    ) {
        value_or_typed_error(&String::from_utf8_lossy(&bytes));
        if let Some(v) = value_or_typed_error(&text) {
            assert_fixed_point_after_one_round(&v);
        }
    }

    #[test]
    fn word_arrays_round_trip_exactly(words in prop::collection::vec(word(), 1..64)) {
        let value = JsonValue::Words(words.clone());
        let text = value.to_string();
        prop_assert_eq!(parse(&text), Ok(value.clone()));
        // The same text the general array renders.
        let general = JsonValue::Arr(words.iter().map(|&w| JsonValue::from(w)).collect());
        prop_assert_eq!(general.to_string(), text);
    }

    #[test]
    fn word_arrays_allow_any_whitespace(
        words in prop::collection::vec(word(), 1..64),
        gaps in prop::collection::vec(0usize..WHITESPACE.len(), 130),
    ) {
        let gap = |i: usize| WHITESPACE[gaps[i % gaps.len()]];
        let mut text = format!("{}[{}", gap(0), gap(1));
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                text.push(',');
                text.push_str(gap(2 * i));
            }
            text.push_str(&w.to_string());
            text.push_str(gap(2 * i + 1));
        }
        text.push(']');
        text.push_str(gap(129));
        prop_assert_eq!(parse(&text), Ok(JsonValue::Words(words)));
    }

    #[test]
    fn a_word_array_with_any_other_element_is_a_general_array(
        words in prop::collection::vec(word(), 1..16),
        at in 0usize..16,
        other in prop_oneof![
            Just("-0"), Just("-1"), Just("1.5"), Just("2e3"),
            Just("18446744073709551616"), Just("null"), Just("\"w\""), Just("[]"),
        ],
    ) {
        let at = at.min(words.len());
        let mut items: Vec<String> = words.iter().map(u64::to_string).collect();
        items.insert(at, other.to_string());
        let text = format!("[{}]", items.join(", "));
        let mut want: Vec<JsonValue> = words.iter().map(|&w| JsonValue::from(w)).collect();
        want.insert(at, parse(other).expect("a valid element"));
        prop_assert_eq!(parse(&text), Ok(JsonValue::Arr(want)));
    }

    #[test]
    fn number_literals_match_the_reference_model(text in NumberLiteral) {
        let want = reference_number(&text);
        prop_assert_eq!(parse(&text).ok(), want.clone(), "literal {}", text);
        // Inside an array, a non-negative integer literal is a word.
        let in_array = parse(&format!("[{text}]")).ok();
        let want_in_array = match want {
            Some(JsonValue::Int(_) | JsonValue::UInt(_)) if !text.starts_with('-') => {
                want.as_ref().and_then(JsonValue::as_u64).map(|w| JsonValue::Words(vec![w]))
            }
            other => other.map(|v| JsonValue::Arr(vec![v])),
        };
        prop_assert_eq!(in_array, want_in_array, "literal {} in an array", text);
    }

    #[test]
    fn accepted_documents_reach_a_fixed_point_after_one_round(text in Document) {
        let value = parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_fixed_point_after_one_round(&value);
    }
}

#[test]
fn edge_literals_match_the_reference_model() {
    for text in EDGE_LITERALS {
        assert_eq!(parse(text).ok(), reference_number(text), "literal {text}");
    }
    assert_eq!(parse("18446744073709551615"), Ok(JsonValue::UInt(u64::MAX)));
    assert_eq!(parse("9223372036854775807"), Ok(JsonValue::Int(i64::MAX)));
    assert_eq!(parse("-9223372036854775808"), Ok(JsonValue::Int(i64::MIN)));
    assert!(matches!(
        parse("18446744073709551616"),
        Ok(JsonValue::Num(_))
    ));
}
