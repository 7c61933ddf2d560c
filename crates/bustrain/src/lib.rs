//! Offline predictor training over a persistent trace corpus.
//!
//! The paper's predictors all learn *online*: each table starts cold
//! and adapts inside the very trace it is priced on. This crate splits
//! training from deployment, the way a production train/serve stack
//! would:
//!
//! 1. a [`Corpus`] names a manifest-described set of workload traces,
//!    each tagged with a train/test [`Role`] — the train split fits
//!    tables, the test split measures generalization;
//! 2. [`train_corpus`] streams the train split through an accumulator
//!    and fits frequency-ranked codebooks, variable-length signature
//!    tables, and stride seed tables into
//!    [`TrainedTables`](buscoding::predict::trained::TrainedTables);
//! 3. [`save_trained`] persists the result as a versioned artifact
//!    (`<dir>/<name>-v1.bin`) that
//!    `buscoding::scheme_by_name("trained:<name>", …)` deploys anywhere
//!    a scheme name is accepted — experiments, the adaptive controller,
//!    fault sweeps, and the `busserve` daemon.
//!
//! The crate deliberately sits *below* `bench`: it only needs traces,
//! not sessions, so trace acquisition is abstracted behind
//! [`TraceProvider`] (implemented by `bench::Session` for cached,
//! content-addressed traces, and by plain generators in tests).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use bustrace::{Trace, Width};
//! use bustrain::{train_corpus, Corpus, Role, TraceProvider, TrainerConfig};
//!
//! /// A provider that synthesizes a looping trace for any workload.
//! struct Looping;
//! impl TraceProvider for Looping {
//!     fn trace(&self, _w: &str, values: usize, seed: u64) -> Result<Arc<Trace>, String> {
//!         Ok(Arc::new(Trace::from_values(
//!             Width::W32,
//!             (0..values as u64).map(move |i| (i + seed) % 7),
//!         )))
//!     }
//! }
//!
//! let mut corpus = Corpus::new("demo").unwrap();
//! corpus.push(Role::Train, "loop/a", 1).unwrap();
//! let tables = train_corpus(&corpus, &Looping, 1000, &TrainerConfig::default()).unwrap();
//! assert_eq!(tables.name, "demo");
//! assert!(!tables.codebook.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use bustrace::Trace;

mod corpus;
mod trainer;

pub use corpus::{Corpus, CorpusEntry, CorpusError, Role};
pub use trainer::{save_trained, train_corpus, TrainError, TrainerConfig};

/// A source of workload traces, keyed the way the `bench` crate keys
/// them: workload name, trace length, seed. `bench::Session` implements
/// this on top of its content-addressed trace store; tests implement it
/// with plain generators.
pub trait TraceProvider {
    /// Produces (or fetches) the trace for `workload` at `values` words
    /// under `seed`.
    ///
    /// # Errors
    ///
    /// A human-readable description when the workload name is unknown
    /// to this provider or the trace cannot be produced.
    fn trace(&self, workload: &str, values: usize, seed: u64) -> Result<Arc<Trace>, String>;
}
