//! Property tests for the trace-file parser: arbitrary bytes come back
//! as a trace or a typed error, never a panic, and writing a trace then
//! reading it back is the identity at every width.

use bustrace::io::{read_trace, read_trace_with_limit, write_trace, ReadTraceError, BAD_LINE_CLIP};
use bustrace::{Trace, Width};
use proptest::prelude::*;

/// Word cap for the hostile-input property: small, so `TooManyWords`
/// is reachable.
const LIMIT: usize = 16;

/// Arbitrary bytes, or a valid header over lines that are mostly well
/// formed words (so the reader gets deep into the value lines), with
/// comments, blank lines, words that may not fit the width and raw
/// bytes mixed in.
fn hostile_input() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..256),
        (
            1u32..=64,
            prop::collection::vec((0u8..40, any::<u64>()), 0..40)
        )
            .prop_map(|(bits, lines)| {
                let width = Width::new(bits).expect("1..=64 is a valid width");
                let mut bytes = format!("# bustrace v1 width={bits}\n").into_bytes();
                for (kind, v) in lines {
                    match kind {
                        0..=34 => bytes.extend(format!("{:x}\n", width.truncate(v)).bytes()),
                        35 => bytes.extend(format!("{v:x}\n").bytes()),
                        36 => bytes.extend(b"# comment\n\n"),
                        37 => bytes.extend(format!(" {:X} \r\n", width.truncate(v)).bytes()),
                        _ => bytes.extend(v.to_le_bytes()),
                    }
                }
                bytes
            }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_a_trace_or_a_typed_error(bytes in hostile_input()) {
        match read_trace_with_limit(&bytes[..], LIMIT) {
            Ok(trace) => {
                prop_assert!(trace.len() <= LIMIT);
                prop_assert!(trace.values().iter().all(|&v| trace.width().contains(v)));
            }
            Err(ReadTraceError::Io(e)) => {
                // A slice never fails to read; only non-UTF-8 lines do.
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            Err(ReadTraceError::BadHeader(quoted) | ReadTraceError::BadLine { content: quoted, .. }) => {
                prop_assert!(quoted.chars().count() <= BAD_LINE_CLIP + 1);
            }
            Err(ReadTraceError::TooManyWords { limit }) => prop_assert_eq!(limit, LIMIT),
        }
    }

    #[test]
    fn write_then_read_is_identity_at_every_width(
        words in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        for bits in 1..=64 {
            let width = Width::new(bits).expect("1..=64 is a valid width");
            let trace = Trace::from_values(width, words.iter().copied());
            let mut text = Vec::new();
            write_trace(&trace, &mut text).expect("writing to a Vec cannot fail");
            let back = read_trace(&text[..]).expect("written traces read back");
            prop_assert_eq!(back.width(), width);
            prop_assert_eq!(&back, &trace);
            let truncated: Vec<u64> = words.iter().map(|&w| width.truncate(w)).collect();
            prop_assert_eq!(back.values(), &truncated[..]);
        }
    }
}
