//! Shared harness for the reproduction experiments.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md for the per-experiment index); this library
//! holds the pieces the experiments share: the evaluation [`Session`]
//! (configuration plus the content-addressed trace and activity stores
//! — see [`session`]), workload acquisition, scheme evaluation
//! (behavioral activity plus circuit-level transcoder energy), and
//! CSV/console reporting. The [`api`] module is the versioned
//! request/response surface the `repro` batch binary and the
//! `repro serve` daemon share (see `docs/SERVICE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod experiments;
pub mod metrics;
pub mod plot;
pub mod profile;
pub mod report;
pub mod schemes;
pub mod session;
pub mod training;
pub mod workloads;

pub use session::{ActivityQuery, Session, SessionBuilder, TraceKey};

/// Parses an environment variable, warning (rather than silently
/// ignoring) when it is set but unusable.
pub(crate) fn parse_env<T>(var: &str, default: T) -> T
where
    T: std::str::FromStr + std::fmt::Display,
{
    match std::env::var(var) {
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: {var}={raw:?} is not a valid value; using default {default}");
                default
            }
        },
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("warning: {var} is not valid unicode; using default {default}");
            default
        }
    }
}
