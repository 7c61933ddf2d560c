//! Bus value traces, statistics, and synthetic traffic generators.
//!
//! This crate is the data substrate for the bus-transcoding study: it
//! defines the [`Trace`] type (a sequence of words observed on a bus of a
//! given [`Width`]), the statistical characterizations used in Section 4.2
//! of the paper (unique-value CDF, window uniqueness), and a family of
//! synthetic traffic generators used both for controlled experiments and
//! as building blocks for the SPEC-like kernels in the `simcpu` crate.
//!
//! # Example
//!
//! ```
//! use bustrace::{Trace, Width};
//! use bustrace::generators::{StrideGen, TraceGenerator};
//!
//! let width = Width::new(32)?;
//! let mut generator = StrideGen::new(width, 0x1000, 4);
//! let trace = generator.generate(1000);
//! assert_eq!(trace.len(), 1000);
//! assert_eq!(trace.values()[1] - trace.values()[0], 4);
//! # Ok::<(), bustrace::WidthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod generators;
pub mod io;
pub mod rng;
pub mod stats;

mod trace;
mod word;

pub use trace::{Trace, TraceBuilder};
pub use word::{Width, WidthError};

/// Convenience alias: a single word observed on the bus.
///
/// Words are stored in the low `width` bits of a `u64`; the remaining high
/// bits are always zero for words held in a [`Trace`].
pub type Word = u64;
