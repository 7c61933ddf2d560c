//! Property tests for the trained-artifact format: arbitrary tables
//! must round-trip exactly, hostile bytes must surface typed errors
//! (never a panic), and a fixed corpus + seed must yield byte-identical
//! artifacts across independent training runs.

use std::sync::Arc;

use bustrace::fnv::fnv1a_words;
use bustrace::{Trace, Width};
use buscoding::predict::trained::{
    decode_artifact, encode_artifact, ArtifactError, SignatureTable, TrainedTables,
};
use bustrain::{train_corpus, Corpus, Role, TraceProvider, TrainerConfig};
use proptest::prelude::*;

/// A strategy for structurally valid tables: masked values, sorted and
/// deduplicated signature hashes, strictly ascending orders, nonzero
/// strides.
fn valid_tables() -> impl Strategy<Value = TrainedTables> {
    (
        prop::collection::vec(any::<u64>(), 0..24),
        prop::collection::vec(prop::collection::vec((any::<u64>(), any::<u64>()), 0..40), 0..3),
        prop::collection::vec(any::<u64>(), 0..8),
        1u32..=40,
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(codebook, sigs, strides, bits, values, traces)| {
            let bits = 1 + bits % 40; // widths 2..=41, exercising masks
            let width = Width::new(bits).unwrap();
            let mask = width.mask();
            let signatures = sigs
                .into_iter()
                .enumerate()
                .map(|(i, entries)| {
                    let mut entries: Vec<(u64, u64)> =
                        entries.into_iter().map(|(h, s)| (h, s & mask)).collect();
                    entries.sort_by_key(|&(h, _)| h);
                    entries.dedup_by_key(|e| e.0);
                    SignatureTable {
                        order: 1 + 2 * i as u32, // 1, 3, 5: strictly ascending
                        entries,
                    }
                })
                .collect();
            let mut strides: Vec<u64> = strides.into_iter().map(|s| s & mask).collect();
            strides.retain(|&s| s != 0);
            strides.sort_unstable();
            strides.dedup();
            TrainedTables {
                name: "prop-artifact".into(),
                width,
                trained_values: values,
                trained_traces: traces,
                codebook: codebook.into_iter().map(|v| v & mask).collect(),
                signatures,
                strides,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity on every valid table set.
    #[test]
    fn encode_decode_is_identity(tables in valid_tables()) {
        let bytes = encode_artifact(&tables).unwrap();
        prop_assert_eq!(decode_artifact(&bytes).unwrap(), tables);
    }

    /// Arbitrary bytes never panic the decoder; they either decode or
    /// produce a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_artifact(&bytes);
    }

    /// Every truncation of a valid artifact is a typed error — never a
    /// silent partial decode, never a panic.
    #[test]
    fn truncations_are_typed_errors(tables in valid_tables(), cut_pick in any::<usize>()) {
        let bytes = encode_artifact(&tables).unwrap();
        let cut = cut_pick % bytes.len();
        let err = decode_artifact(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(
            err,
            ArtifactError::Truncated { .. }
                | ArtifactError::BadMagic
                | ArtifactError::Malformed(_)
        ));
    }

    /// Any single corrupted byte is caught — by a section checksum, a
    /// header check, or structural validation. A flip may never yield a
    /// *different* successfully-decoded table set.
    #[test]
    fn single_byte_corruption_never_decodes_differently(
        tables in valid_tables(),
        pos_pick in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_artifact(&tables).unwrap();
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= flip;
        if let Ok(decoded) = decode_artifact(&bytes) {
            // Flips in META's count fields can decode (they are not
            // structural), but then the tables differ only in those
            // counts — the coding tables themselves must be intact.
            prop_assert_eq!(decoded.codebook, tables.codebook);
            prop_assert_eq!(decoded.signatures, tables.signatures);
            prop_assert_eq!(decoded.strides, tables.strides);
        }
    }
}

/// Deterministic provider for the byte-identity check: a seeded xorshift
/// value stream per workload name.
struct SeededProvider;

impl TraceProvider for SeededProvider {
    fn trace(&self, workload: &str, values: usize, seed: u64) -> Result<Arc<Trace>, String> {
        let mut x = seed ^ fnv1a_words(workload.bytes().map(u64::from)) | 1;
        Ok(Arc::new(Trace::from_values(
            Width::W32,
            (0..values).map(move |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> 8
            }),
        )))
    }
}

/// Two independent training runs over the same corpus + seed must write
/// byte-identical artifacts (the CI smoke checks this across whole
/// processes; this is the in-process version).
#[test]
fn fixed_corpus_and_seed_trains_byte_identical_artifacts() {
    let mut corpus = Corpus::new("bytes").unwrap();
    corpus.push(Role::Train, "alpha", 11).unwrap();
    corpus.push(Role::Train, "beta", 22).unwrap();
    let cfg = TrainerConfig::default();
    let a = encode_artifact(&train_corpus(&corpus, &SeededProvider, 20_000, &cfg).unwrap()).unwrap();
    let b = encode_artifact(&train_corpus(&corpus, &SeededProvider, 20_000, &cfg).unwrap()).unwrap();
    assert_eq!(a, b, "training is not byte-deterministic");
    // And a different seed corpus produces a different artifact — the
    // identity above is not vacuous.
    let mut other = Corpus::new("bytes").unwrap();
    other.push(Role::Train, "alpha", 12).unwrap();
    other.push(Role::Train, "beta", 22).unwrap();
    let c = encode_artifact(&train_corpus(&other, &SeededProvider, 20_000, &cfg).unwrap()).unwrap();
    assert_ne!(a, c, "seed change did not reach the artifact");
}
