//! 64-bit FNV-1a: the one stable, dependency-free hash of the workspace.
//!
//! Everything that persists or indexes by a hash uses it: trace-cache
//! file names, trained-artifact section checksums and signature tables,
//! FCM table indices and kernel RNG seeds. Unlike
//! `DefaultHasher`, whose keys are randomized per process, its output is
//! stable across runs and platforms, so those names and tables are too.
//!
//! Two variants share the offset basis and prime. The byte-wise one
//! ([`fnv1a`], [`Fnv1a`]) is textbook FNV-1a. The word-wise one
//! ([`fnv1a_words`]) folds a whole [`Word`] per step instead of one
//! byte, which is what the predictor tables index by.

use std::hash::Hasher;

use crate::Word;

/// The FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a as a [`Hasher`], for hashing `Hash` values.
///
/// ```
/// use std::hash::Hasher;
/// use bustrace::fnv::Fnv1a;
///
/// let mut h = Fnv1a::default();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}

/// Byte-wise FNV-1a of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Word-wise FNV-1a: each step XORs a whole word into the state, then
/// multiplies by the prime. Order-preserving, so a sequence of recent
/// values hashes to a context signature.
#[inline]
pub fn fnv1a_words<I: IntoIterator<Item = Word>>(words: I) -> u64 {
    words
        .into_iter()
        .fold(OFFSET_BASIS, |h, w| (h ^ w).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_wise_matches_the_standard_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hasher_streams_like_one_slice() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn word_wise_folds_whole_words() {
        assert_eq!(fnv1a_words([]), OFFSET_BASIS);
        // A word below 256 is one byte step of the byte-wise variant.
        assert_eq!(fnv1a_words([u64::from(b'a')]), fnv1a(b"a"));
        assert_ne!(fnv1a_words([1, 2]), fnv1a_words([2, 1]));
    }
}
