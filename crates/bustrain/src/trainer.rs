//! The offline trainer: stream a corpus's train split through an
//! accumulator, then fit frozen prediction tables.
//!
//! Fitting is a pure function of the accumulated counts with fully
//! deterministic tie-breaking (count descending, then key ascending),
//! so a fixed corpus + seed always yields byte-identical artifacts —
//! the property CI's train/deploy smoke checks with `cmp`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use bustrace::fnv::fnv1a_words;
use bustrace::{Width, Word};

use buscoding::predict::trained::{save_artifact, ArtifactError, SignatureTable, TrainedTables};

use crate::{Corpus, Role, TraceProvider};

static PROBE_TRACES: busprobe::StaticCounter = busprobe::StaticCounter::new("train.traces");
static PROBE_VALUES: busprobe::StaticCounter = busprobe::StaticCounter::new("train.values");
static PROBE_CODEBOOK: busprobe::StaticCounter =
    busprobe::StaticCounter::new("train.codebook_entries");
static PROBE_SIG: busprobe::StaticCounter = busprobe::StaticCounter::new("train.sig_entries");
static PROBE_ARTIFACTS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("train.artifacts_written");

/// What the trainer fits and how large the tables may grow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainerConfig {
    /// Codebook size: the N most frequent values across the train
    /// split.
    pub codebook_entries: usize,
    /// Signature orders to fit, strictly ascending (a table per order;
    /// deployment tries longest first).
    pub sig_orders: Vec<u32>,
    /// Per-order cap on signature-table entries; the most productive
    /// contexts (by successor count) are kept.
    pub max_table_entries: usize,
    /// Stride seed table size: the N most frequent nonzero deltas.
    pub strides: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            codebook_entries: 16,
            sig_orders: vec![1, 2, 4],
            max_table_entries: 65_536,
            strides: 4,
        }
    }
}

/// Why training failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The corpus has no train entries.
    EmptyTrainSplit,
    /// The provider could not produce a workload's trace.
    Trace {
        /// The workload that failed.
        workload: String,
        /// The provider's description of the failure.
        detail: String,
    },
    /// Two corpus traces disagree about the bus width.
    WidthMismatch {
        /// Width of the first trace.
        first: Width,
        /// The disagreeing workload.
        workload: String,
        /// Its width.
        other: Width,
    },
    /// The trainer configuration is unusable (bad signature orders).
    Config(String),
    /// The fitted tables failed artifact validation or could not be
    /// written.
    Artifact(ArtifactError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyTrainSplit => write!(f, "corpus has no train entries"),
            TrainError::Trace { workload, detail } => {
                write!(f, "trace for {workload:?} unavailable: {detail}")
            }
            TrainError::WidthMismatch {
                first,
                workload,
                other,
            } => write!(
                f,
                "corpus mixes widths: first trace is {first}, {workload:?} is {other}"
            ),
            TrainError::Config(detail) => write!(f, "trainer config: {detail}"),
            TrainError::Artifact(err) => write!(f, "artifact: {err}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ArtifactError> for TrainError {
    fn from(err: ArtifactError) -> Self {
        TrainError::Artifact(err)
    }
}

/// Streaming count accumulator: one pass per trace, no trace retained.
struct Accumulator {
    sig_orders: Vec<u32>,
    width: Option<Width>,
    values: u64,
    traces: u32,
    value_counts: HashMap<Word, u64>,
    delta_counts: HashMap<Word, u64>,
    /// One `signature hash → successor → count` map per entry of
    /// `sig_orders`.
    contexts: Vec<HashMap<u64, HashMap<Word, u64>>>,
}

impl Accumulator {
    fn new(sig_orders: &[u32]) -> Self {
        Accumulator {
            sig_orders: sig_orders.to_vec(),
            width: None,
            values: 0,
            traces: 0,
            value_counts: HashMap::new(),
            delta_counts: HashMap::new(),
            contexts: vec![HashMap::new(); sig_orders.len()],
        }
    }

    fn accumulate(&mut self, workload: &str, trace: &bustrace::Trace) -> Result<(), TrainError> {
        let _span = busprobe::span("bustrain.train.accumulate");
        match self.width {
            None => self.width = Some(trace.width()),
            Some(first) if first != trace.width() => {
                return Err(TrainError::WidthMismatch {
                    first,
                    workload: workload.to_string(),
                    other: trace.width(),
                })
            }
            Some(_) => {}
        }
        let width = trace.width();
        let values = trace.values();
        self.traces += 1;
        self.values += values.len() as u64;
        for (i, &v) in values.iter().enumerate() {
            *self.value_counts.entry(v).or_insert(0) += 1;
            if i > 0 {
                let delta = width.truncate(v.wrapping_sub(values[i - 1]));
                if delta != 0 {
                    *self.delta_counts.entry(delta).or_insert(0) += 1;
                }
            }
            for (oi, &order) in self.sig_orders.iter().enumerate() {
                let k = order as usize;
                if i >= k {
                    let hash = fnv1a_words(values[i - k..i].iter().copied());
                    *self.contexts[oi]
                        .entry(hash)
                        .or_default()
                        .entry(v)
                        .or_insert(0) += 1;
                }
            }
        }
        Ok(())
    }

    /// Fits the frozen tables. All ranking uses (count descending, key
    /// ascending) so the result is independent of `HashMap` iteration
    /// order — determinism is load-bearing here.
    fn fit(self, name: &str, config: &TrainerConfig) -> Result<TrainedTables, TrainError> {
        let _span = busprobe::span("bustrain.train.fit");
        let width = self.width.ok_or(TrainError::EmptyTrainSplit)?;

        let top = |counts: HashMap<Word, u64>, n: usize| -> Vec<Word> {
            let mut ranked: Vec<(Word, u64)> = counts.into_iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked.truncate(n);
            ranked.into_iter().map(|(v, _)| v).collect()
        };
        let codebook = top(self.value_counts, config.codebook_entries);
        let strides = top(self.delta_counts, config.strides);

        let mut signatures = Vec::with_capacity(self.sig_orders.len());
        for (&order, successors) in self.sig_orders.iter().zip(self.contexts) {
            // Per context: the most frequent successor. Per table: the
            // most productive contexts, capped, then hash-sorted for
            // binary search.
            let mut ranked: Vec<(u64, Word, u64)> = successors
                .into_iter()
                .map(|(hash, counts)| {
                    let (succ, count) = counts
                        .into_iter()
                        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                        .expect("context maps are never empty");
                    (hash, succ, count)
                })
                .collect();
            ranked.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
            ranked.truncate(config.max_table_entries);
            let mut entries: Vec<(u64, Word)> = ranked.into_iter().map(|(h, s, _)| (h, s)).collect();
            entries.sort_by_key(|&(h, _)| h);
            signatures.push(SignatureTable { order, entries });
        }

        let tables = TrainedTables {
            name: name.to_string(),
            width,
            trained_values: self.values,
            trained_traces: self.traces,
            codebook,
            signatures,
            strides,
        };
        tables.validate()?;
        Ok(tables)
    }
}

/// Trains over `corpus`'s train split: every train entry's trace (at
/// `values` words, under the entry's seed) is accumulated, then the
/// tables are fitted per `config`. The corpus name becomes the artifact
/// name.
///
/// Reports `train.traces`, `train.values`, `train.codebook_entries`,
/// and `train.sig_entries` busprobe counters under the
/// `bustrain.train` span.
///
/// # Errors
///
/// [`TrainError`] for an empty train split, an unusable config, a
/// provider failure, mixed widths, or tables that fail validation.
pub fn train_corpus<P: TraceProvider + ?Sized>(
    corpus: &Corpus,
    provider: &P,
    values: usize,
    config: &TrainerConfig,
) -> Result<TrainedTables, TrainError> {
    let _span = busprobe::span("bustrain.train");
    if !config.sig_orders.windows(2).all(|w| w[0] < w[1]) || config.sig_orders.contains(&0) {
        return Err(TrainError::Config(format!(
            "signature orders must be strictly ascending and nonzero, got {:?}",
            config.sig_orders
        )));
    }
    let mut acc = Accumulator::new(&config.sig_orders);
    for entry in corpus.split(Role::Train) {
        let trace = {
            let _span = busprobe::span("bustrain.corpus.trace");
            provider
                .trace(&entry.workload, values, entry.seed)
                .map_err(|detail| TrainError::Trace {
                    workload: entry.workload.clone(),
                    detail,
                })?
        };
        acc.accumulate(&entry.workload, &trace)?;
    }
    let traces = acc.traces;
    let values_seen = acc.values;
    let tables = acc.fit(corpus.name(), config)?;
    PROBE_TRACES.add(u64::from(traces));
    PROBE_VALUES.add(values_seen);
    PROBE_CODEBOOK.add(tables.codebook.len() as u64);
    PROBE_SIG.add(
        tables
            .signatures
            .iter()
            .map(|t| t.entries.len() as u64)
            .sum(),
    );
    Ok(tables)
}

/// Persists `tables` under `dir` (see
/// [`save_artifact`](buscoding::predict::trained::save_artifact)),
/// reporting the `train.artifacts_written` counter. Returns the final
/// artifact path.
///
/// # Errors
///
/// The underlying [`ArtifactError`], wrapped in
/// [`TrainError::Artifact`].
pub fn save_trained(tables: &TrainedTables, dir: &Path) -> Result<PathBuf, TrainError> {
    let path = save_artifact(tables, dir)?;
    PROBE_ARTIFACTS.add(1);
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Corpus;
    use bustrace::Trace;
    use std::sync::Arc;

    /// Deterministic synthetic provider: `loop/<k>` cycles k values,
    /// `strided` counts by 3, `fail` errors.
    struct Synthetic;

    impl TraceProvider for Synthetic {
        fn trace(&self, workload: &str, values: usize, seed: u64) -> Result<Arc<Trace>, String> {
            let width = Width::W32;
            if let Some(k) = workload.strip_prefix("loop/") {
                let k: u64 = k.parse().map_err(|_| format!("bad loop size in {workload:?}"))?;
                return Ok(Arc::new(Trace::from_values(
                    width,
                    (0..values as u64).map(move |i| (i + seed) % k * 0x11),
                )));
            }
            if workload == "strided" {
                return Ok(Arc::new(Trace::from_values(
                    width,
                    (0..values as u64).map(move |i| seed + i * 3),
                )));
            }
            Err(format!("unknown workload {workload:?}"))
        }
    }

    fn corpus(entries: &[(&str, u64)]) -> Corpus {
        let mut c = Corpus::new("t").unwrap();
        for &(w, seed) in entries {
            c.push(Role::Train, w, seed).unwrap();
        }
        c
    }

    #[test]
    fn fits_frequent_values_and_strides() {
        let c = corpus(&[("loop/4", 0), ("strided", 100)]);
        let t = train_corpus(&c, &Synthetic, 400, &TrainerConfig::default()).unwrap();
        assert_eq!(t.name, "t");
        assert_eq!(t.trained_traces, 2);
        assert_eq!(t.trained_values, 800);
        // The four loop values dominate the value counts.
        assert_eq!(&t.codebook[..4], &[0x00, 0x11, 0x22, 0x33]);
        // The stride trace makes +3 the most frequent delta.
        assert_eq!(t.strides[0], 3);
        // Order-1 signatures learned the loop successor function.
        let sig1 = &t.signatures[0];
        assert_eq!(sig1.order, 1);
        let h = fnv1a_words([0x11u64]);
        assert_eq!(sig1.lookup(h), Some(0x22));
    }

    #[test]
    fn training_is_deterministic() {
        let c = corpus(&[("loop/7", 3), ("strided", 9)]);
        let cfg = TrainerConfig::default();
        let a = train_corpus(&c, &Synthetic, 500, &cfg).unwrap();
        let b = train_corpus(&c, &Synthetic, 500, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn table_caps_are_respected() {
        let cfg = TrainerConfig {
            codebook_entries: 2,
            sig_orders: vec![1],
            max_table_entries: 3,
            strides: 1,
        };
        let c = corpus(&[("strided", 0)]);
        let t = train_corpus(&c, &Synthetic, 300, &cfg).unwrap();
        assert_eq!(t.codebook.len(), 2);
        assert_eq!(t.strides, vec![3]);
        assert_eq!(t.signatures.len(), 1);
        assert!(t.signatures[0].entries.len() <= 3);
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            train_corpus(
                &Corpus::new("t").unwrap(),
                &Synthetic,
                100,
                &TrainerConfig::default()
            ),
            Err(TrainError::EmptyTrainSplit)
        );
        assert!(matches!(
            train_corpus(
                &corpus(&[("nope", 1)]),
                &Synthetic,
                100,
                &TrainerConfig::default()
            ),
            Err(TrainError::Trace { .. })
        ));
        let bad = TrainerConfig {
            sig_orders: vec![2, 2],
            ..TrainerConfig::default()
        };
        assert!(matches!(
            train_corpus(&corpus(&[("strided", 1)]), &Synthetic, 100, &bad),
            Err(TrainError::Config(_))
        ));
    }
}
