//! The wire framing: a 4-byte big-endian length prefix followed by
//! that many payload bytes (in practice one JSON document rendered by
//! `busprobe::json`).
//!
//! The codec is deliberately tiny — the interesting part is the error
//! discipline. Reads never panic on hostile input: a stream can end
//! cleanly between frames ([`read_frame`] returns `Ok(None)`), end
//! inside a header or payload ([`FrameError::Truncated`]), or claim a
//! payload larger than the caller's cap ([`FrameError::Oversize`] —
//! the same bounded-ingest idiom as `bustrace::io`'s 64Mi-word cap,
//! and the reason [`MAX_FRAME_BYTES`] is 64MiB). A lying length prefix
//! costs nothing: the payload is read through `Read::take`, so memory
//! grows only with bytes actually received, never with the advertised
//! length.

use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload, mirroring `bustrace::io`'s
/// `DEFAULT_MAX_WORDS` bound: large enough for any real request
/// (inline traces included), small enough that a hostile prefix cannot
/// commit the server to an absurd read.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including read timeouts).
    Io(io::Error),
    /// The stream ended inside a header or payload: `got` of the
    /// `want` bytes arrived before EOF.
    Truncated {
        /// Bytes received before the stream ended.
        got: usize,
        /// Bytes the header (4) or the length prefix promised.
        want: usize,
    },
    /// The length prefix exceeds the configured cap.
    Oversize {
        /// The advertised payload length.
        len: u64,
        /// The cap it exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Truncated { got, want } => {
                write!(f, "truncated frame: got {got} of {want} byte(s)")
            }
            FrameError::Oversize { len, limit } => {
                write!(
                    f,
                    "oversized frame: {len} byte(s) exceeds the {limit}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: the length prefix, the payload, and a flush.
///
/// # Errors
///
/// [`FrameError::Oversize`] when the payload exceeds `max`;
/// [`FrameError::Io`] on transport failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::Oversize {
            len: payload.len() as u64,
            limit: max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversize {
        len: payload.len() as u64,
        limit: u32::MAX as usize,
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the stream ended cleanly on a
/// frame boundary (no header byte arrived) — the normal end of a
/// connection.
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends mid-header or
/// mid-payload, [`FrameError::Oversize`] when the prefix exceeds
/// `max`, [`FrameError::Io`] on transport failure.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    match fill(r, &mut header)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(FrameError::Truncated { got, want: 4 }),
    }
    read_body(r, u32::from_be_bytes(header), max).map(Some)
}

/// Completes a frame whose first header byte was already consumed —
/// the server's poll loop reads one byte with a short timeout (so it
/// can notice shutdown between frames) and hands it here once traffic
/// arrives.
///
/// # Errors
///
/// As [`read_frame`], except a clean EOF after the first byte is
/// already a [`FrameError::Truncated`].
pub fn read_frame_after<R: Read>(r: &mut R, first: u8, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut rest = [0u8; 3];
    let got = fill(r, &mut rest)?;
    if got < 3 {
        return Err(FrameError::Truncated {
            got: 1 + got,
            want: 4,
        });
    }
    let header = [first, rest[0], rest[1], rest[2]];
    read_body(r, u32::from_be_bytes(header), max)
}

/// Reads `len` payload bytes after an accepted header. The allocation
/// is driven by received bytes (`Read::take` + `read_to_end`), so a
/// prefix advertising `max` commits no memory until the data shows up.
fn read_body<R: Read>(r: &mut R, len: u32, max: usize) -> Result<Vec<u8>, FrameError> {
    let want = len as usize;
    if (len as u64) > max as u64 {
        return Err(FrameError::Oversize {
            len: len as u64,
            limit: max,
        });
    }
    let mut buf = Vec::with_capacity(want.min(64 * 1024));
    let got = r.take(len as u64).read_to_end(&mut buf)?;
    if got < want {
        return Err(FrameError::Truncated { got, want });
    }
    Ok(buf)
}

/// Reads until `buf` is full or EOF; returns how many bytes arrived.
fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload, MAX_FRAME_BYTES).unwrap();
        let mut r = &wire[..];
        let back = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(r.is_empty(), "frame must consume exactly its bytes");
        back
    }

    #[test]
    fn frames_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"{\"v\":1}"), b"{\"v\":1}");
        let big = vec![0xA5u8; 100_000];
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut r: &[u8] = &[];
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let mut r: &[u8] = &[0, 0];
        match read_frame(&mut r, MAX_FRAME_BYTES) {
            Err(FrameError::Truncated { got: 2, want: 4 }) => {}
            other => panic!("wrong result: {other:?}"),
        }
        let mut r: &[u8] = &[0, 0, 0, 9, b'a', b'b'];
        match read_frame(&mut r, MAX_FRAME_BYTES) {
            Err(FrameError::Truncated { got: 2, want: 9 }) => {}
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn oversize_prefix_is_rejected_before_any_allocation() {
        // A 4GiB-1 claim against a 1KiB cap: must fail fast with the
        // typed error, not attempt the read.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        match read_frame(&mut r, 1024) {
            Err(FrameError::Oversize { len, limit: 1024 }) => {
                assert_eq!(len, u64::from(u32::MAX));
            }
            other => panic!("wrong result: {other:?}"),
        }
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut wire = Vec::new();
        match write_frame(&mut wire, &[0u8; 100], 10) {
            Err(FrameError::Oversize {
                len: 100,
                limit: 10,
            }) => {}
            other => panic!("wrong result: {other:?}"),
        }
        assert!(wire.is_empty(), "a rejected frame writes nothing");
    }

    #[test]
    fn read_after_first_byte_reassembles_the_header() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello", MAX_FRAME_BYTES).unwrap();
        let first = wire[0];
        let mut rest = &wire[1..];
        let body = read_frame_after(&mut rest, first, MAX_FRAME_BYTES).unwrap();
        assert_eq!(body, b"hello");
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut wire = Vec::new();
        for p in [&b"one"[..], b"two", b"three"] {
            write_frame(&mut wire, p, MAX_FRAME_BYTES).unwrap();
        }
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"one"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"two"
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"three"
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }
}
