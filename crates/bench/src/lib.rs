//! Shared harness for the reproduction experiments.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md for the per-experiment index); this library
//! holds the pieces the experiments share: the evaluation [`Session`]
//! (configuration plus the content-addressed trace store and memoized
//! baselines — see [`session`]), workload acquisition, scheme evaluation
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

pub use session::{ActivityQuery, Session, SessionBuilder, TraceKey, TraceStore};

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

/// Whether an environment variable is set to a truthy value (anything
/// except empty, `0`, `false`, `off`, `no`, in any case) — the one
/// convention the `repro` flags `REPRO_METRICS` and `REPRO_CACHE`
/// follow.
pub fn env_flag(var: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !v.is_empty() && v != "0" && v != "false" && v != "off" && v != "no"
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::env_flag;

    #[test]
    fn env_flag_recognizes_truthy_values() {
        // A variable no other test reads, so setting it races nothing.
        const VAR: &str = "BENCH_ENV_FLAG_TEST";
        std::env::remove_var(VAR);
        assert!(!env_flag(VAR), "unset is false");
        for falsy in ["", "  ", "0", "false", "off", "no", " OFF ", "False"] {
            std::env::set_var(VAR, falsy);
            assert!(!env_flag(VAR), "{falsy:?} must be false");
        }
        for truthy in ["1", "true", "on", "yes", " YES ", "2"] {
            std::env::set_var(VAR, truthy);
            assert!(env_flag(VAR), "{truthy:?} must be true");
        }
        std::env::remove_var(VAR);
    }
}
