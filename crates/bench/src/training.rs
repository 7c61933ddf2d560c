//! Glue between the offline trainer and the evaluation session.
//!
//! `bustrain` sits below this crate and only knows traces, not
//! sessions; this module implements its [`TraceProvider`] over
//! [`Session`]'s content-addressed trace store (so corpus assembly
//! shares cached traces with every experiment) and packages the
//! "train a named corpus with this session" flow the `repro train`
//! subcommand and the `generalize` experiment share.

use std::sync::Arc;

use bustrace::Trace;
use bustrain::{train_corpus, Corpus, TraceProvider, TrainError, TrainerConfig};
use buscoding::predict::trained::TrainedTables;

use crate::session::{Session, TraceKey};
use crate::workloads::Workload;

impl TraceProvider for Session {
    /// Resolves `workload` through the [`Workload`] name grammar and
    /// fetches the trace from the session's store — cached, content-
    /// addressed, and shared with every other consumer of the session.
    fn trace(&self, workload: &str, values: usize, seed: u64) -> Result<Arc<Trace>, String> {
        let workload = Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?} (expected the Workload grammar, e.g. gcc/register or mixed/gcc+perl/register/64)"))?;
        Ok(self.trace_at(&TraceKey::new(workload, values, seed)))
    }
}

/// Resolves a corpus argument the way `repro train <corpus>` does: a
/// built-in corpus name first (`demo`, `generalize`), else a manifest
/// file path. Built-ins are instantiated at the session's seed.
///
/// # Errors
///
/// A description when the argument is neither a built-in nor a readable,
/// parseable manifest.
pub fn resolve_corpus(session: &Session, arg: &str) -> Result<Corpus, String> {
    if let Some(corpus) = Corpus::builtin(arg, session.seed()) {
        return Ok(corpus);
    }
    let path = std::path::Path::new(arg);
    if !path.exists() {
        return Err(format!(
            "{arg:?} is neither a built-in corpus (demo, generalize) nor a manifest file"
        ));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading manifest {arg:?}: {e}"))?;
    Corpus::parse(&text).map_err(|e| e.to_string())
}

/// Trains `corpus` over the session's trace store at the session's
/// trace length, with the default table sizes.
///
/// # Errors
///
/// The underlying [`TrainError`].
pub fn train_with_session(session: &Session, corpus: &Corpus) -> Result<TrainedTables, TrainError> {
    train_corpus(corpus, session, session.values(), &TrainerConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bustrain::Role;

    #[test]
    fn session_provides_traces_by_name() {
        let s = Session::builder().values(500).build();
        let t = TraceProvider::trace(&s, "gcc/register", 500, 1).unwrap();
        assert_eq!(t.len(), 500);
        // Mixed workloads resolve through the same grammar.
        assert!(TraceProvider::trace(&s, "mixed/gcc+perl/register/64", 500, 1).is_ok());
        let err = TraceProvider::trace(&s, "gcc/cache", 500, 1).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn training_through_a_session_fits_real_tables() {
        let s = Session::builder().values(2_000).build();
        let corpus = Corpus::builtin("demo", s.seed()).unwrap();
        let tables = train_with_session(&s, &corpus).unwrap();
        assert_eq!(tables.name, "demo");
        assert_eq!(tables.trained_traces, 2);
        assert_eq!(tables.trained_values, 4_000);
        assert!(!tables.codebook.is_empty());
        assert!(tables.signatures.iter().any(|t| !t.entries.is_empty()));
    }

    #[test]
    fn resolve_corpus_handles_builtins_files_and_junk() {
        let s = Session::builder().values(100).seed(3).build();
        let demo = resolve_corpus(&s, "demo").unwrap();
        assert_eq!(demo.name(), "demo");
        assert!(demo.entries().iter().all(|e| e.seed == 3));

        let dir = std::env::temp_dir().join(format!("corpus-res-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.corpus");
        let mut manifest = Corpus::new("tiny").unwrap();
        manifest.push(Role::Train, "random", 5).unwrap();
        std::fs::write(&path, manifest.manifest()).unwrap();
        let parsed = resolve_corpus(&s, path.to_str().unwrap()).unwrap();
        assert_eq!(parsed, manifest);

        assert!(resolve_corpus(&s, "no-such-corpus").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
