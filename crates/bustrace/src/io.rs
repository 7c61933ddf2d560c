//! Plain-text trace serialization.
//!
//! A deliberately trivial format so traces can move between this
//! toolchain and external analysis (spreadsheets, Python, the original
//! SimpleScalar tooling):
//!
//! ```text
//! # bustrace v1 width=32
//! deadbeef
//! 12345678
//! ...
//! ```
//!
//! One lowercase hex word per line; `#` lines are comments; the header
//! carries the bus width. Values wider than the declared width are
//! rejected on read (a truncating reader would silently corrupt
//! experiments).

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::{Trace, Width};

/// Errors from reading a text trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A data line is not a hex word or exceeds the declared width.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content, clipped to [`BAD_LINE_CLIP`] characters
        /// so a pathological input cannot balloon the error message.
        content: String,
    },
    /// The input holds more words than the configured limit — a guard
    /// against accidentally feeding a multi-gigabyte file to an
    /// in-memory reader.
    TooManyWords {
        /// The limit that was exceeded.
        limit: usize,
    },
}

/// Maximum characters of a bad line quoted in [`ReadTraceError::BadLine`].
pub const BAD_LINE_CLIP: usize = 80;

/// Default word-count cap applied by [`read_trace`]; use
/// [`read_trace_with_limit`] to raise or lower it.
pub const DEFAULT_MAX_WORDS: usize = 64 * 1024 * 1024;

/// Clips `text` to [`BAD_LINE_CLIP`] characters, marking the cut.
fn clip(text: &str) -> String {
    if text.chars().count() <= BAD_LINE_CLIP {
        return text.to_string();
    }
    let mut s: String = text.chars().take(BAD_LINE_CLIP).collect();
    s.push('…');
    s
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace read failed: {e}"),
            ReadTraceError::BadHeader(h) => write!(f, "bad trace header: {h:?}"),
            ReadTraceError::BadLine { line, content } => {
                write!(f, "bad trace value at line {line}: {content:?}")
            }
            ReadTraceError::TooManyWords { limit } => {
                write!(f, "trace exceeds the configured limit of {limit} words")
            }
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadTraceError {
    fn from(e: std::io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Writes a trace in the text format.
///
/// # Errors
///
/// Propagates I/O failures. (A `&mut` reference can be passed as the
/// writer.)
pub fn write_trace<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# bustrace v1 width={}", trace.width().bits())?;
    for v in trace.iter() {
        writeln!(writer, "{v:x}")?;
    }
    Ok(())
}

/// Reads a trace in the text format. (A `&mut` reference can be passed
/// as the reader.)
///
/// # Errors
///
/// Returns [`ReadTraceError`] on I/O failure, a bad header, any
/// malformed or out-of-width value, or a trace longer than
/// [`DEFAULT_MAX_WORDS`].
pub fn read_trace<R: BufRead>(reader: R) -> Result<Trace, ReadTraceError> {
    read_trace_with_limit(reader, DEFAULT_MAX_WORDS)
}

/// [`read_trace`] with an explicit cap on the number of data words
/// accepted before the reader bails out with
/// [`ReadTraceError::TooManyWords`].
///
/// # Errors
///
/// As [`read_trace`], with `max_words` in place of the default cap.
pub fn read_trace_with_limit<R: BufRead>(
    reader: R,
    max_words: usize,
) -> Result<Trace, ReadTraceError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| ReadTraceError::BadHeader("empty input".into()))??;
    let width = parse_header(&header)?;
    let mut trace = Trace::new(width);
    for (i, line) in lines.enumerate() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let value = u64::from_str_radix(text, 16).map_err(|_| ReadTraceError::BadLine {
            line: i + 2,
            content: clip(text),
        })?;
        if !width.contains(value) {
            return Err(ReadTraceError::BadLine {
                line: i + 2,
                content: clip(text),
            });
        }
        if trace.len() >= max_words {
            return Err(ReadTraceError::TooManyWords { limit: max_words });
        }
        trace.push(value);
    }
    Ok(trace)
}

fn parse_header(header: &str) -> Result<Width, ReadTraceError> {
    let bad = || ReadTraceError::BadHeader(clip(header));
    let rest = header
        .strip_prefix("# bustrace v1 width=")
        .ok_or_else(bad)?;
    let bits: u32 = rest.trim().parse().map_err(|_| bad())?;
    Width::new(bits).map_err(|_| bad())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(trace: &Trace) -> Trace {
        let mut buf = Vec::new();
        write_trace(trace, &mut buf).unwrap();
        read_trace(buf.as_slice()).unwrap()
    }

    #[test]
    fn write_read_round_trips() {
        let t = Trace::from_values(Width::W32, [0u64, 0xDEAD_BEEF, 42, u64::from(u32::MAX)]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new(Width::new(16).unwrap());
        let r = round_trip(&t);
        assert_eq!(r, t);
        assert_eq!(r.width().bits(), 16);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# bustrace v1 width=8\n\n# a comment\nff\n\n01\n";
        let t = read_trace(text.as_bytes()).unwrap();
        assert_eq!(t.values(), &[0xFF, 0x01]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            read_trace("width=32\nff\n".as_bytes()),
            Err(ReadTraceError::BadHeader(_))
        ));
        assert!(matches!(
            read_trace("# bustrace v1 width=0\n".as_bytes()),
            Err(ReadTraceError::BadHeader(_))
        ));
        assert!(matches!(
            read_trace("".as_bytes()),
            Err(ReadTraceError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_overwide_and_malformed_values() {
        let over = "# bustrace v1 width=8\n1ff\n";
        match read_trace(over.as_bytes()) {
            Err(ReadTraceError::BadLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
        let junk = "# bustrace v1 width=8\nzz\n";
        assert!(matches!(
            read_trace(junk.as_bytes()),
            Err(ReadTraceError::BadLine { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ReadTraceError::BadLine {
            line: 7,
            content: "xyz".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn bad_line_content_is_clipped() {
        let long = "z".repeat(10_000);
        let text = format!("# bustrace v1 width=8\n{long}\n");
        match read_trace(text.as_bytes()) {
            Err(ReadTraceError::BadLine { content, .. }) => {
                assert!(content.chars().count() <= BAD_LINE_CLIP + 1);
                assert!(content.ends_with('…'));
            }
            other => panic!("expected BadLine, got {other:?}"),
        }
    }

    #[test]
    fn bad_header_is_clipped() {
        let text = format!("not a header {}\n", "x".repeat(10_000));
        match read_trace(text.as_bytes()) {
            Err(ReadTraceError::BadHeader(h)) => {
                assert!(h.chars().count() <= BAD_LINE_CLIP + 1);
            }
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn word_limit_is_enforced() {
        let text = "# bustrace v1 width=8\n1\n2\n3\n4\n";
        match read_trace_with_limit(text.as_bytes(), 3) {
            Err(ReadTraceError::TooManyWords { limit }) => assert_eq!(limit, 3),
            other => panic!("expected TooManyWords, got {other:?}"),
        }
        // At the limit exactly: fine.
        let t = read_trace_with_limit(text.as_bytes(), 4).unwrap();
        assert_eq!(t.len(), 4);
        // Comments and blanks do not count against the limit.
        let sparse = "# bustrace v1 width=8\n# c\n\n1\n# c\n2\n";
        assert_eq!(
            read_trace_with_limit(sparse.as_bytes(), 2).unwrap().len(),
            2
        );
    }

    #[test]
    fn too_many_words_message_names_the_limit() {
        let e = ReadTraceError::TooManyWords { limit: 42 };
        assert!(e.to_string().contains("42"));
    }
}
