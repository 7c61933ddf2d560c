//! `busserve` — the resident evaluation-service runtime.
//!
//! The batch `repro` binary answers "what does scheme X cost on trace
//! Y" by rebuilding the world per run; this crate is the long-running
//! half of that question. It speaks a hand-rolled, length-prefixed
//! JSON frame protocol (see [`frame`]) over a unix socket, evaluates
//! requests behind one admission gate of bounded slots and waiters,
//! rejects overload with typed `busy` responses instead of blocking,
//! enforces per-connection quotas, and drains cleanly on SIGTERM (see
//! [`signal`]).
//!
//! The crate is domain-free on purpose: it depends only on `busprobe`
//! (for the JSON model and metrics) and serves any [`Server`]-hosted
//! [`Service`]. The actual evaluation service — warm
//! `bench::Session`, scheme pricing, cache-provenance — lives in
//! `bench::api`, which implements [`Service`] and keeps the
//! dependency arrow `bench → busserve`, never the reverse.
//!
//! Protocol and operational semantics are documented in
//! `docs/SERVICE.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod frame;
mod server;
#[allow(unsafe_code)]
pub mod signal;

pub use client::{Client, ClientError};
pub use frame::{read_frame, read_frame_after, write_frame, FrameError, MAX_FRAME_BYTES};
pub use server::{
    Server, ServerConfig, ServeStats, Service, ServiceError, PROTOCOL_VERSION,
};
