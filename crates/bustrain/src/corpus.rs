//! Named trace corpora: manifest-described workload sets with
//! train/test splits.
//!
//! A corpus is the unit of training: a name (which becomes the artifact
//! and `trained:<name>` scheme name) plus an ordered list of workload
//! entries, each tagged [`Role::Train`] or [`Role::Test`]. Corpora are
//! described by a tiny line-oriented manifest so they can live in files
//! next to the experiments that use them:
//!
//! ```text
//! # bustrain corpus v1 name=demo
//! train gcc/register seed=1
//! train perl/register seed=1
//! test mixed/gcc+perl/register/64 seed=1
//! ```
//!
//! The grammar is deliberately minimal: a fixed header carrying the
//! format version and corpus name, then one `train|test <workload>
//! [seed=<n>]` line per trace. Workload names use the `bench` crate's
//! `Workload` grammar but are *not* validated here — the
//! [`TraceProvider`](crate::TraceProvider) decides what it can produce,
//! keeping this crate below `bench` in the dependency order.

use std::fmt;

use buscoding::predict::trained::valid_artifact_name;

/// Which split a corpus entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The entry's trace is accumulated during training.
    Train,
    /// The entry is held out for generalization measurement.
    Test,
}

impl Role {
    /// The manifest keyword for this role.
    pub fn keyword(self) -> &'static str {
        match self {
            Role::Train => "train",
            Role::Test => "test",
        }
    }
}

/// One trace in a corpus: a workload name (the `bench` `Workload`
/// grammar), a generation seed, and its split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Workload name, e.g. `gcc/register` or
    /// `mixed/gcc+perl/register/64`.
    pub workload: String,
    /// Trace-generation seed.
    pub seed: u64,
    /// Train or test split.
    pub role: Role,
}

/// A manifest parse or construction error, carrying the offending line
/// number when there is one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    line: Option<usize>,
    detail: String,
}

impl CorpusError {
    fn new(detail: impl Into<String>) -> Self {
        CorpusError {
            line: None,
            detail: detail.into(),
        }
    }

    fn at(line: usize, detail: impl Into<String>) -> Self {
        CorpusError {
            line: Some(line),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "corpus manifest line {n}: {}", self.detail),
            None => write!(f, "corpus manifest: {}", self.detail),
        }
    }
}

impl std::error::Error for CorpusError {}

/// The manifest format version this build reads and writes.
const MANIFEST_VERSION: u32 = 1;

/// A named, ordered set of workload traces with train/test roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    name: String,
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus. The name must be a valid artifact name
    /// (1–64 chars of `[a-z0-9_-]`) because it becomes the
    /// `trained:<name>` scheme suffix.
    ///
    /// # Errors
    ///
    /// [`CorpusError`] for an invalid name.
    pub fn new(name: impl Into<String>) -> Result<Self, CorpusError> {
        let name = name.into();
        if !valid_artifact_name(&name) {
            return Err(CorpusError::new(format!(
                "corpus name {name:?} is not 1-64 chars of [a-z0-9_-]"
            )));
        }
        Ok(Corpus {
            name,
            entries: Vec::new(),
        })
    }

    /// The corpus (and future artifact) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every entry, in manifest order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// [`CorpusError`] for an empty workload name or one holding
    /// whitespace: the manifest could not spell it, so the corpus would
    /// not read back from its own [`manifest`](Self::manifest).
    pub fn push(
        &mut self,
        role: Role,
        workload: impl Into<String>,
        seed: u64,
    ) -> Result<(), CorpusError> {
        let workload = workload.into();
        if workload.is_empty() || workload.contains(char::is_whitespace) {
            return Err(CorpusError::new(format!(
                "workload name {workload:?} is empty or holds whitespace"
            )));
        }
        self.entries.push(CorpusEntry {
            workload,
            seed,
            role,
        });
        Ok(())
    }

    /// The entries of one split, in manifest order.
    pub fn split(&self, role: Role) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.iter().filter(move |e| e.role == role)
    }

    /// Parses a manifest (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`CorpusError`] with the offending line for a missing or
    /// malformed header, an unknown keyword, or a bad seed clause.
    pub fn parse(text: &str) -> Result<Self, CorpusError> {
        let mut corpus: Option<Corpus> = None;
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let Some(corpus) = corpus.as_mut() else {
                // First non-blank line must be the header.
                let name = line
                    .strip_prefix(&format!("# bustrain corpus v{MANIFEST_VERSION} name="))
                    .ok_or_else(|| {
                        CorpusError::at(
                            n,
                            format!(
                                "expected header `# bustrain corpus v{MANIFEST_VERSION} \
                                 name=<name>`, got {line:?}"
                            ),
                        )
                    })?;
                corpus = Some(Corpus::new(name).map_err(|e| CorpusError::at(n, e.detail))?);
                continue;
            };
            if line.starts_with('#') {
                continue; // comment
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().expect("non-empty line has a first token");
            let role = match keyword {
                "train" => Role::Train,
                "test" => Role::Test,
                other => {
                    return Err(CorpusError::at(
                        n,
                        format!("expected `train` or `test`, got {other:?}"),
                    ))
                }
            };
            let workload = parts
                .next()
                .ok_or_else(|| CorpusError::at(n, "missing workload name"))?;
            let mut seed = 1u64;
            for clause in parts {
                let value = clause.strip_prefix("seed=").ok_or_else(|| {
                    CorpusError::at(n, format!("unknown clause {clause:?} (expected seed=<n>)"))
                })?;
                seed = value
                    .parse()
                    .map_err(|_| CorpusError::at(n, format!("bad seed {value:?}")))?;
            }
            corpus
                .push(role, workload, seed)
                .map_err(|e| CorpusError::at(n, e.detail))?;
        }
        corpus.ok_or_else(|| CorpusError::new("empty manifest"))
    }

    /// Renders the manifest form; `parse` inverts it exactly.
    pub fn manifest(&self) -> String {
        let mut out = format!("# bustrain corpus v{MANIFEST_VERSION} name={}\n", self.name);
        for e in &self.entries {
            out.push_str(&format!(
                "{} {} seed={}\n",
                e.role.keyword(),
                e.workload,
                e.seed
            ));
        }
        out
    }

    /// The built-in corpora, parameterized by seed:
    ///
    /// * `demo` — the tiny two-trace corpus CI trains in its smoke
    ///   step: two SPEC register streams, with their mixed interleaving
    ///   held out.
    /// * `generalize` — the `repro generalize` experiment's corpus:
    ///   three SPEC register streams for training, and three held-out
    ///   tests covering a *workload class* the trainer never saw
    ///   (multi-program interleavings) plus an entirely unseen program.
    pub fn builtin(name: &str, seed: u64) -> Option<Corpus> {
        let entries: &[(Role, &str)] = match name {
            "demo" => &[
                (Role::Train, "gcc/register"),
                (Role::Train, "perl/register"),
                (Role::Test, "mixed/gcc+perl/register/64"),
            ],
            "generalize" => &[
                (Role::Train, "gcc/register"),
                (Role::Train, "perl/register"),
                (Role::Train, "m88ksim/register"),
                (Role::Test, "mixed/gcc+perl/register/64"),
                (Role::Test, "mixed/gcc+m88ksim/register/256"),
                (Role::Test, "li/register"),
            ],
            _ => return None,
        };
        let mut corpus = Corpus::new(name).ok()?;
        for &(role, workload) in entries {
            corpus.push(role, workload, seed).ok()?;
        }
        Some(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fragments of manifests, valid and not.
    const PIECES: [&str; 24] = [
        "# bustrain corpus v1 name=",
        "# bustrain corpus v2 name=",
        "demo",
        "Bad",
        "#",
        "\n",
        "\r\n",
        " ",
        "\t",
        "\ntrain ",
        "\ntest ",
        "\ntrain gcc/register",
        "\ntest #x seed=+5",
        "\ntest mixed/gcc+perl/register/64 seed=18446744073709551615",
        "gcc/register",
        " seed=",
        "seed=",
        "1",
        "18446744073709551616",
        " cap=9",
        "\u{e9}",
        "\u{2028}",
        "\u{85}",
        "validate ",
    ];

    /// Strings glued from manifest pieces, so most reach a parser
    /// branch and some spell a valid manifest.
    fn manifest_soup() -> impl Strategy<Value = String> {
        // Half the soups start with a valid header, so the body reaches
        // the entry parser.
        let header = prop_oneof![Just(""), Just("# bustrain corpus v1 name=x\n")];
        (header, prop::collection::vec(0..PIECES.len(), 0..10)).prop_map(|(start, picks)| {
            picks
                .into_iter()
                .fold(start.to_string(), |s, i| s + PIECES[i])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parse_is_total_and_manifest_inverts_it(
            soup in manifest_soup(),
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            for text in [soup, String::from_utf8_lossy(&bytes).into_owned()] {
                if let Ok(c) = Corpus::parse(&text) {
                    prop_assert_eq!(Corpus::parse(&c.manifest()), Ok(c));
                }
            }
        }

        #[test]
        fn every_pushed_corpus_round_trips(
            picks in prop::collection::vec(0..PIECES.len(), 0..4),
            seed in any::<u64>(),
        ) {
            let workload: String = picks.into_iter().map(|i| PIECES[i]).collect();
            let mut c = Corpus::new("x").unwrap();
            if c.push(Role::Test, workload, seed).is_ok() {
                prop_assert_eq!(Corpus::parse(&c.manifest()), Ok(c));
            }
        }
    }

    #[test]
    fn push_refuses_workloads_the_manifest_cannot_spell() {
        // An empty name would swallow the `seed=` clause, and whitespace
        // would split the name into an unknown clause: `parse` could
        // not read such a corpus back, so `push` refuses it.
        for workload in ["", "gcc register", "gcc\tregister", "gcc\u{2028}register"] {
            let mut c = Corpus::new("x").unwrap();
            let err = c.push(Role::Train, workload, 1).unwrap_err();
            assert!(
                err.to_string().contains("empty or holds whitespace"),
                "{err}"
            );
            assert!(c.entries().is_empty(), "{workload:?}");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let mut c = Corpus::new("demo").unwrap();
        c.push(Role::Train, "gcc/register", 1).unwrap();
        c.push(Role::Train, "perl/register", 7).unwrap();
        c.push(Role::Test, "mixed/gcc+perl/register/64", 1).unwrap();
        let text = c.manifest();
        assert_eq!(Corpus::parse(&text).unwrap(), c);
        assert!(text.starts_with("# bustrain corpus v1 name=demo\n"));
    }

    #[test]
    fn parse_accepts_comments_blanks_and_default_seed() {
        let text = "\n# bustrain corpus v1 name=x\n# a comment\n\ntrain gcc/register\n";
        let c = Corpus::parse(text).unwrap();
        assert_eq!(c.name(), "x");
        assert_eq!(c.entries().len(), 1);
        assert_eq!(c.entries()[0].seed, 1);
    }

    #[test]
    fn parse_rejects_bad_input_with_line_numbers() {
        for (text, needle) in [
            ("", "empty manifest"),
            ("train gcc/register\n", "expected header"),
            ("# bustrain corpus v2 name=x\n", "expected header"),
            ("# bustrain corpus v1 name=Bad Name\n", "line 1"),
            ("# bustrain corpus v1 name=x\nvalidate gcc\n", "line 2"),
            ("# bustrain corpus v1 name=x\ntrain\n", "missing workload"),
            ("# bustrain corpus v1 name=x\ntrain g seed=z\n", "bad seed"),
            ("# bustrain corpus v1 name=x\ntrain g cap=9\n", "unknown clause"),
        ] {
            let err = Corpus::parse(text).expect_err(text);
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn builtins_exist_and_split() {
        for name in ["demo", "generalize"] {
            let c = Corpus::builtin(name, 1).unwrap();
            assert_eq!(c.name(), name);
            assert!(c.split(Role::Train).count() >= 2);
            assert!(c.split(Role::Test).count() >= 1);
            // Builtins must round-trip through their own manifests.
            assert_eq!(Corpus::parse(&c.manifest()).unwrap(), c);
        }
        assert_eq!(Corpus::builtin("nope", 1), None);
    }
}
