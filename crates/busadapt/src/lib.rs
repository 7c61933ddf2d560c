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
//! * **Streaming observation** — the `bustrace::stats` incremental
//!   estimators (transition density, window uniqueness, stride hits)
//!   summarize each decision window in O(1) per word.
//! * **Shadow models** — every candidate runs a private encoder over
//!   the same words and accumulates its own window
//!   [`buscoding::Activity`] from a common cold start, so per-window
//!   costs are directly comparable without ever touching the wire.
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
//! `busfault` crate drives the whole stack through its fault channel
//! via `FaultChannel::run_adaptive`.
//!
//! Instrumentation: `adapt.decisions`, `adapt.switches`,
//! `adapt.flushes`, `adapt.resyncs`, `adapt.window_words`,
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
