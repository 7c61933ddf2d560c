//! Online adaptive scheme selection for bus transcoders.
//!
//! The paper picks one coding scheme per trace, offline. Real bus
//! traffic is phased — loop bodies, pointer chases, region-tagged
//! address streams — and the best scheme changes with the phase. This
//! crate adds the missing control layer: an [`AdaptiveTranscoder`] that
//! *watches* the traffic and re-decides, every `period` words, which
//! candidate scheme should drive the wire.
//!
//! The controller is built from three pieces:
//!
//! * **One FSM pair per candidate** — only the live pair drives the
//!   wire, but the controller buffers each decision window and, at the
//!   boundary, every candidate's own encoder replays it from power-on
//!   into a window [`buscoding::Activity`], so per-window costs are
//!   directly comparable without ever touching the wire.
//! * **Window statistics** — the `bustrace::stats` functions
//!   (transition density, repeat fraction, window uniqueness, stride
//!   hits) summarize the same buffered window at the boundary.
//! * **A pluggable [`Policy`]** — [`StaticPolicy`] (pinned baseline),
//!   [`GreedyShadowPolicy`] (argmin with a hysteresis margin),
//!   [`BandedHysteresisPolicy`] (margin + patience), and
//!   [`OraclePolicy`] (replay a clairvoyant [`oracle_schedule`]).
//!
//! Switching is priced honestly: every decision boundary is an epoch
//! flush in the [`buscoding::robust`] sense (both FSMs restart from
//! power-on, bounding any desync — even one injected in the switch
//! cycle itself — to the current window), and the controller counts
//! flushes, switches and absorbed resyncs so experiments can charge
//! them through `hwmodel::CodingOutcome::with_resync_tax`. The
//! `busfault` crate's fault channel drives the whole stack through
//! [`AdaptiveTranscoder::transcoder_mut`] with `FaultChannel::run_pair`.
//!
//! Instrumentation: `adapt.switches`, `adapt.flushes`,
//! `adapt.resyncs`, `adapt.window_words`,
//! `adapt.window_{density,unique,stride}_pct` histograms and
//! per-scheme `adapt.residency.<name>` counters, all through
//! [`busprobe`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod policy;

pub use controller::{AdaptReport, AdaptiveConfig, AdaptiveTranscoder, SwitchEvent};
pub use policy::{
    oracle_schedule, BandedHysteresisPolicy, GreedyShadowPolicy, OraclePolicy, Policy,
    StaticPolicy, WindowObservation, WindowStats,
};
