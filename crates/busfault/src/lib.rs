//! `busfault` — deterministic fault injection for bus transcoder pairs.
//!
//! Every stateful scheme in the reproduction is a pair of synchronized
//! FSMs that the paper assumes talk over an error-free channel; a
//! single transient bit flip on the wire silently corrupts the decoded
//! stream forever. This crate makes that failure mode measurable:
//!
//! * [`FaultModel`] — seedable, deterministic corruptions of the
//!   *absolute bus state* between [`Encoder::encode`] and
//!   [`Decoder::decode`]: single-event flips ([`SingleFlip`]), uniform
//!   random upsets ([`RandomUpsets`]), and a wiremodel-derived
//!   timing-error mode ([`TimingFaults`]) whose per-line flip
//!   probability grows with wire length and repeater spacing;
//!   [`NoFault`] is the error-free reference;
//! * [`FaultChannel`] — drives any encoder/decoder pair through a
//!   faulted trace and reports detection latency, silently corrupted
//!   words, and whether the pair ever resynchronizes ([`FaultReport`]).
//!
//! The recovery countermeasures live in `buscoding::robust` (epoch
//! resynchronization, bounded-recovery decode); this crate is the
//! adversary they are measured against, in `repro fault-sweep` and
//! `repro ext-desync`. See `docs/ROBUSTNESS.md`.
//!
//! # Example
//!
//! ```
//! use busfault::{ErrorPolicy, FaultChannel, SingleFlip};
//! use buscoding::predict::window_codec;
//! use bustrace::{Trace, Width};
//!
//! let trace = Trace::from_values(Width::W32, (0..500u64).map(|i| i % 7));
//! let (mut enc, mut dec) = window_codec(Width::W32, 8);
//! let mut fault = SingleFlip::new(100, 3);
//! let report = FaultChannel::new(ErrorPolicy::Halt).run(&mut enc, &mut dec, &mut fault, &trace);
//! assert_eq!(report.first_fault_step, Some(100));
//! // The flip is either detected or silently corrupts some words.
//! assert!(report.detected_errors > 0 || report.corrupted_words > 0 || report.clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod model;

#[allow(unused_imports)] // doc links
use buscoding::{Decoder, Encoder};

pub use channel::{ErrorPolicy, FaultChannel, FaultReport};
pub use model::{FaultModel, NoFault, RandomUpsets, SingleFlip, TimingFaults};
