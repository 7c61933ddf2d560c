//! The shared evaluation session.
//!
//! A full `repro` run executes dozens of experiments over the same
//! traces. A [`Session`] is their shared configuration (`values`,
//! `seed`, `out_dir`) plus two process-wide stores:
//!
//! * a content-addressed [`TraceStore`] — traces keyed by
//!   `(workload, values, seed)`, generated exactly once per run and
//!   held behind `Arc<Trace>`, with an optional on-disk cache in
//!   `<out>/cache/` using the `bustrace::io` text format (validated on
//!   load, regenerated on mismatch);
//! * a coded-activity store keyed by `(scheme, trace key)`. The
//!   un-encoded baseline is no special case: it is the
//!   [`BASELINE_SCHEME`] (`identity`) activity of the same trace.
//!
//! Which trace a request addresses is decided in one place,
//! [`Session::trace_key`]: an explicit length (default: the session's
//! `values`) bounded by an optional cap, at an explicit seed (default:
//! the session's).
//!
//! Both stores are safe to share across the worker threads of
//! [`par_map`](crate::experiments::par_map) and the daemon's connections:
//! per-key `OnceLock` cells guarantee each trace and activity is
//! computed once even when two callers request it concurrently.
//!
//! Construction goes through [`Session::from_env`] (the canonical entry
//! for the `repro` binary) or [`Session::builder`] for tests and
//! examples. Configuration is immutable after construction — there is
//! deliberately no way to mutate `values` or `seed` on a live session,
//! because the store's keys must stay consistent with the configuration
//! that filled it.
//!
//! Store behaviour is observable through `busprobe` counters:
//! `bench.session.trace_hits`, `bench.session.trace_misses`,
//! `bench.session.disk_loads`, `bench.session.disk_rejects`,
//! `bench.session.activity_hits` and `bench.session.activity_misses`
//! (baseline lookups included). See `docs/PERFORMANCE.md`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use buscoding::{Activity, UnknownScheme};
use busprobe::StaticCounter;
use bustrace::fnv::Fnv1a;
use bustrace::{io as trace_io, Trace};

use crate::workloads::Workload;

/// The scheme whose activity is the un-encoded baseline every coder is
/// priced against.
pub const BASELINE_SCHEME: &str = "identity";

/// One coded-activity request against a [`Session`]: which scheme over
/// which workload, optionally [`cap`](Self::cap)ped below the session
/// length — the idiom of experiments that limit their own cost.
///
/// ```
/// # use bench::{ActivityQuery, Session};
/// # use bench::workloads::Workload;
/// let session = Session::builder().values(2_000).build();
/// let q = ActivityQuery::new("window(8)", Workload::Random).cap(500);
/// let coded = session.activity(&q);
/// assert_eq!(coded.steps(), 500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityQuery {
    scheme: String,
    workload: Workload,
    cap: Option<usize>,
}

impl ActivityQuery {
    /// A query for `scheme` (a canonical registry name, e.g.
    /// `window(8)`) over `workload` at the session's full length and
    /// seed.
    pub fn new(scheme: impl Into<String>, workload: Workload) -> Self {
        ActivityQuery {
            scheme: scheme.into(),
            workload,
            cap: None,
        }
    }

    /// Bounds the evaluated length to `min(length, cap)`.
    #[must_use]
    pub fn cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// The scheme name this query evaluates.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The workload this query evaluates over.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The trace this query addresses under `session`'s defaults.
    pub fn trace_key(&self, session: &Session) -> TraceKey {
        session.trace_key(self.workload, None, self.cap, None)
    }
}

/// The content address of one trace: which workload, how many values,
/// which seed. Two requests with equal keys always denote the same
/// word-for-word trace, so the store may hand out one shared copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    workload: Workload,
    values: usize,
    seed: u64,
}

impl TraceKey {
    /// Addresses `values` words of `workload` at `seed`.
    pub fn new(workload: Workload, values: usize, seed: u64) -> Self {
        TraceKey {
            workload,
            values,
            seed,
        }
    }

    /// The workload this key addresses.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The trace length this key addresses.
    pub fn values(&self) -> usize {
        self.values
    }

    /// The data seed this key addresses.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the generator for this key. This is the single place a
    /// store miss turns into actual trace synthesis.
    fn generate(&self) -> Trace {
        self.workload.trace(self.values, self.seed)
    }

    /// The on-disk cache file name: the human-readable key (workload
    /// name with `/` flattened, values, seed) plus a hash of the exact
    /// key so sanitization can never alias two keys to one file.
    fn cache_file_name(&self) -> String {
        let name: String = self
            .workload
            .name()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let mut h = Fnv1a::default();
        self.hash(&mut h);
        format!(
            "{name}-v{}-s{}-{:016x}.trace",
            self.values,
            self.seed,
            h.finish()
        )
    }
}

/// A map of lazily initialized, shareable cells: the get-or-create
/// pattern both session stores use. The outer mutex is held only long
/// enough to find or insert the cell; initialization happens on the
/// cell's own `OnceLock`, so concurrent requests for the *same* key
/// block each other (the generator runs once) while requests for
/// different keys proceed in parallel. Each map counts its own hits
/// and misses.
struct CellMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: &'static StaticCounter,
    misses: &'static StaticCounter,
}

impl<K: Eq + Hash + Clone, V> CellMap<K, V> {
    fn new(hits: &'static StaticCounter, misses: &'static StaticCounter) -> Self {
        CellMap {
            cells: Mutex::new(HashMap::new()),
            hits,
            misses,
        }
    }

    /// Returns the initialized value for `key`, running `init` exactly
    /// once per key across all threads. The second tuple field reports
    /// whether *this* call did the initialization (a miss).
    fn get_or_init<F: FnOnce() -> V>(&self, key: &K, init: F) -> (V, bool)
    where
        V: Clone,
    {
        let cell = {
            let mut map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.clone()).or_default())
        };
        let mut missed = false;
        let value = cell.get_or_init(|| {
            missed = true;
            init()
        });
        if missed { self.misses } else { self.hits }.inc();
        (value.clone(), missed)
    }

    /// The initialized value for `key` if some call already built it —
    /// a probe that never triggers initialization.
    fn peek(&self, key: &K) -> Option<V>
    where
        V: Copy,
    {
        let map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        let value = map.get(key).and_then(|cell| cell.get().copied());
        if value.is_some() {
            self.hits.inc();
        }
        value
    }

    fn len(&self) -> usize {
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

static TRACE_HITS: StaticCounter = StaticCounter::new("bench.session.trace_hits");
static TRACE_MISSES: StaticCounter = StaticCounter::new("bench.session.trace_misses");
static DISK_LOADS: StaticCounter = StaticCounter::new("bench.session.disk_loads");
static DISK_REJECTS: StaticCounter = StaticCounter::new("bench.session.disk_rejects");
static ACTIVITY_HITS: StaticCounter = StaticCounter::new("bench.session.activity_hits");
static ACTIVITY_MISSES: StaticCounter = StaticCounter::new("bench.session.activity_misses");

/// The content-addressed trace cache a [`Session`] owns.
///
/// In-memory, each distinct [`TraceKey`] is generated exactly once per
/// process and shared behind `Arc<Trace>`. With a disk directory
/// configured, a miss first tries `<dir>/<key>.trace` in the
/// `bustrace::io` text format; a file that is unreadable, malformed, or
/// of the wrong length is discarded and the trace regenerated (and the
/// entry rewritten), so a corrupted cache can slow a run down but never
/// change its numbers.
pub struct TraceStore {
    disk_dir: Option<PathBuf>,
    cells: CellMap<TraceKey, Arc<Trace>>,
}

impl TraceStore {
    /// A purely in-memory store.
    pub fn in_memory() -> Self {
        TraceStore::new(None)
    }

    /// A store that also persists traces under `disk_dir`, if given.
    fn new(disk_dir: Option<PathBuf>) -> Self {
        TraceStore {
            disk_dir,
            cells: CellMap::new(&TRACE_HITS, &TRACE_MISSES),
        }
    }

    /// The disk cache directory, if persistence is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// The shared trace for `key`, generating (or loading) it on first
    /// request.
    pub fn get(&self, key: &TraceKey) -> Arc<Trace> {
        let (trace, _) = self.cells.get_or_init(key, || Arc::new(self.acquire(key)));
        trace
    }

    /// Distinct keys resident in memory.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no trace has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Miss path: disk (when configured and valid), else the generator.
    fn acquire(&self, key: &TraceKey) -> Trace {
        let _span = busprobe::span("bench.session.acquire");
        let Some(dir) = &self.disk_dir else {
            return key.generate();
        };
        let path = dir.join(key.cache_file_name());
        match trace_io::load_trace(&path) {
            Ok(trace) if trace.len() == key.values() => {
                DISK_LOADS.inc();
                return trace;
            }
            Ok(_) => {
                // Parseable but the wrong length: a stale or truncated
                // entry. Regenerate below.
                DISK_REJECTS.inc();
            }
            Err(trace_io::ReadTraceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                DISK_REJECTS.inc();
                eprintln!(
                    "warning: discarding corrupt trace cache entry {}: {e}",
                    path.display()
                );
            }
        }
        let trace = key.generate();
        if let Err(e) = trace_io::save_trace(&trace, &path) {
            eprintln!(
                "warning: could not write trace cache entry {}: {e}",
                path.display()
            );
        }
        trace
    }
}

/// Shared experiment configuration plus the run-wide stores — the
/// redesigned `Ctx`. See the [module docs](self) for the design.
pub struct Session {
    values: usize,
    seed: u64,
    out_dir: PathBuf,
    store: TraceStore,
    activities: CellMap<(String, TraceKey), Activity>,
}

impl Session {
    /// A builder starting from the defaults (`values` 200 000, `seed`
    /// 1, `out_dir` `results/`, no disk cache).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Configuration from the environment — the canonical entry point
    /// for the `repro` binary: `REPRO_VALUES` (default 200 000),
    /// `REPRO_SEED` (default 1), `REPRO_OUT` (default `results/`), and
    /// `REPRO_CACHE` (truthy enables the on-disk trace cache in
    /// `<out>/cache/`). A malformed `REPRO_VALUES` or `REPRO_SEED` is
    /// reported on stderr and the default used — a typo must not
    /// silently change the experiment size.
    pub fn from_env() -> Self {
        let mut b = Session::builder()
            .values(crate::parse_env("REPRO_VALUES", 200_000usize))
            .seed(crate::parse_env("REPRO_SEED", 1u64));
        if let Ok(out) = std::env::var("REPRO_OUT") {
            b = b.out_dir(out);
        }
        b.disk_cache(crate::env_flag("REPRO_CACHE")).build()
    }

    /// Bus values per (workload, bus) trace.
    pub fn values(&self) -> usize {
        self.values
    }

    /// Data seed for the kernels and synthetic generators.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Directory CSV results are written into.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// The trace store (exposed read-only for tests and tooling).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The trace a request addresses — the one resolution rule every
    /// front end shares: `len` (default: the session's `values`)
    /// bounded by `cap`, at `seed` (default: the session's).
    pub fn trace_key(
        &self,
        workload: Workload,
        len: Option<usize>,
        cap: Option<usize>,
        seed: Option<u64>,
    ) -> TraceKey {
        let values = len.unwrap_or(self.values).min(cap.unwrap_or(usize::MAX));
        TraceKey::new(workload, values, seed.unwrap_or(self.seed))
    }

    /// The shared trace of `workload` at the session's full length.
    pub fn trace(&self, workload: Workload) -> Arc<Trace> {
        self.store.get(&self.trace_key(workload, None, None, None))
    }

    /// The shared trace of `workload` at `min(values, cap)` — the
    /// idiom of experiments that bound their own cost below the
    /// session length.
    pub fn trace_capped(&self, workload: Workload, cap: usize) -> Arc<Trace> {
        let key = self.trace_key(workload, None, Some(cap), None);
        self.store.get(&key)
    }

    /// The memoized un-encoded bus activity of `workload` at the
    /// session's full length: its [`BASELINE_SCHEME`] activity.
    pub fn baseline(&self, workload: Workload) -> Activity {
        self.activity(&ActivityQuery::new(BASELINE_SCHEME, workload))
    }

    /// The memoized baseline at `min(values, cap)`.
    pub fn baseline_capped(&self, workload: Workload, cap: usize) -> Activity {
        self.activity(&ActivityQuery::new(BASELINE_SCHEME, workload).cap(cap))
    }

    /// The memoized coded activity for `query`. The store key is
    /// `(scheme-name, workload, values, seed)`: everything that
    /// determines the counts and nothing else, so every experiment that
    /// sweeps the same (scheme, trace) pair shares one evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the query's scheme is not a canonical registry name or
    /// does not fit the trace's width; [`try_activity`](Self::try_activity)
    /// is the non-panicking form.
    pub fn activity(&self, query: &ActivityQuery) -> Activity {
        self.try_activity(query.scheme(), &query.trace_key(self))
            .map(|(activity, _)| activity)
            .unwrap_or_else(|e| panic!("activity store: {e}"))
    }

    /// The one activity-store lookup: `scheme` over the trace at `key`,
    /// plus whether the store served it (`true`) rather than this call
    /// encoding it. A miss parses the name as a [`buscoding::SchemeSpec`]
    /// before it fetches the trace, builds the scheme for the trace's
    /// width, and runs the block-batched
    /// [`buscoding::evaluate_blocks`] engine. Observable via
    /// `bench.session.activity_hits` / `bench.session.activity_misses`.
    ///
    /// # Errors
    ///
    /// [`UnknownScheme`] when `scheme` is not a canonical registry name
    /// or does not fit the trace's width — a typed error, so a client
    /// typo cannot take a daemon worker down.
    pub fn try_activity(
        &self,
        scheme: &str,
        key: &TraceKey,
    ) -> Result<(Activity, bool), UnknownScheme> {
        let key = (scheme.to_string(), *key);
        if let Some(cached) = self.activities.peek(&key) {
            return Ok((cached, true));
        }
        // Parse the name before fetching the trace, so a typo leaves no
        // trace resident, and build the scheme before touching the cell,
        // so a bad query is an error — never a poisoned entry. Width
        // misfits need the trace.
        let spec: buscoding::SchemeSpec = scheme.parse()?;
        let trace = self.store.get(&key.1);
        let mut pair = spec.build(trace.width())?;
        let (activity, missed) = self.activities.get_or_init(&key, || {
            buscoding::evaluate_blocks(pair.encoder_mut(), &trace)
        });
        Ok((activity, !missed))
    }

    /// Distinct coded activities resident in the activity store.
    pub fn activity_store_len(&self) -> usize {
        self.activities.len()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("values", &self.values)
            .field("seed", &self.seed)
            .field("out_dir", &self.out_dir)
            .field("disk_cache", &self.store.disk_dir())
            .field("resident_traces", &self.store.len())
            .finish()
    }
}

/// Builder for [`Session`] — replaces the ad-hoc struct literals tests
/// and examples used against the old `Ctx`.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    values: usize,
    seed: u64,
    out_dir: PathBuf,
    disk_cache: bool,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            values: 200_000,
            seed: 1,
            out_dir: "results".into(),
            disk_cache: false,
        }
    }
}

impl SessionBuilder {
    /// Bus values per trace.
    #[must_use]
    pub fn values(mut self, values: usize) -> Self {
        self.values = values;
        self
    }

    /// Data seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Output directory for CSVs (and the disk cache, when enabled).
    #[must_use]
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    /// Whether to persist traces under `<out_dir>/cache/`.
    #[must_use]
    pub fn disk_cache(mut self, enabled: bool) -> Self {
        self.disk_cache = enabled;
        self
    }

    /// Builds the session with empty caches.
    pub fn build(self) -> Session {
        Session {
            store: TraceStore::new(self.disk_cache.then(|| self.out_dir.join("cache"))),
            values: self.values,
            seed: self.seed,
            out_dir: self.out_dir,
            activities: CellMap::new(&ACTIVITY_HITS, &ACTIVITY_MISSES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::{Benchmark, BusKind};

    #[test]
    fn builder_defaults_match_from_env_defaults() {
        let s = Session::builder().build();
        assert_eq!(s.values(), 200_000);
        assert_eq!(s.seed(), 1);
        assert_eq!(s.out_dir(), Path::new("results"));
        assert!(s.store().disk_dir().is_none());
    }

    #[test]
    fn same_key_returns_the_same_allocation() {
        let s = Session::builder().values(2_000).seed(9).build();
        let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
        let a = s.trace(w);
        let b = s.trace(w);
        assert!(Arc::ptr_eq(&a, &b), "second request must share the Arc");
        assert_eq!(s.store().len(), 1);
    }

    #[test]
    fn distinct_lengths_seeds_and_workloads_do_not_alias() {
        let s = Session::builder().values(2_000).seed(9).build();
        let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
        let full = s.trace(w);
        let capped = s.trace_capped(w, 500);
        assert_eq!(full.len(), 2_000);
        assert_eq!(capped.len(), 500);
        let other_bus = s.trace(Workload::Bench(Benchmark::Gcc, BusKind::Memory));
        assert_ne!(full.values(), other_bus.values());
        assert_eq!(s.store().len(), 3);
    }

    #[test]
    fn baseline_matches_direct_computation() {
        let s = Session::builder().values(3_000).seed(4).build();
        let w = Workload::Random;
        let direct = crate::schemes::baseline_activity(&w.trace(3_000, 4));
        assert_eq!(s.baseline(w), direct);
        // One store entry: the baseline and `identity` are one activity.
        assert_eq!(s.activity(&ActivityQuery::new(BASELINE_SCHEME, w)), direct);
        assert_eq!(s.activity_store_len(), 1);
    }

    #[test]
    fn capped_trace_is_a_prefix_key_not_a_slice() {
        // trace_capped(w, cap) must equal generating at the capped
        // length directly — the old per-experiment idiom.
        let s = Session::builder().values(10_000).seed(2).build();
        let w = Workload::Bench(Benchmark::Li, BusKind::Register);
        let capped = s.trace_capped(w, 1_000);
        assert_eq!(*capped, w.trace(1_000, 2));
    }

    #[test]
    fn activity_store_matches_direct_evaluation_and_memoizes() {
        let s = Session::builder().values(3_000).seed(4).build();
        let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
        let trace = s.trace(w);
        let mut pair = buscoding::scheme_by_name("window(8)", trace.width()).unwrap();
        let direct = buscoding::evaluate(pair.encoder_mut(), &trace);
        let q = ActivityQuery::new("window(8)", w);
        let key = q.trace_key(&s);
        assert_eq!(s.try_activity("window(8)", &key), Ok((direct, false)));
        assert_eq!(s.try_activity("window(8)", &key), Ok((direct, true)));
        assert_eq!(s.activity(&q), direct);
        assert_eq!(s.activity_store_len(), 1);
        // A different scheme, length or workload is its own entry.
        let _ = s.activity(&q.clone().cap(1_000));
        let _ = s.activity(&ActivityQuery::new("identity", w));
        assert_eq!(s.activity_store_len(), 3);
    }

    #[test]
    fn activity_query_knobs_compose() {
        let s = Session::builder().values(3_000).seed(4).build();
        let w = Workload::Random;
        let query = ActivityQuery::new("identity", w).cap(500);
        assert_eq!(query.trace_key(&s), s.trace_key(w, Some(500), None, None));
        // A seed override addresses a genuinely different trace.
        let other = s.trace_key(w, None, Some(500), Some(9));
        let (seeded, _) = s.try_activity("identity", &other).unwrap();
        assert_ne!(s.activity(&query), seeded);
    }

    #[test]
    fn trace_key_resolves_len_cap_and_seed() {
        let s = Session::builder().values(400).seed(7).build();
        let w = Workload::Random;
        let default = s.trace_key(w, None, None, None);
        assert_eq!((default.values(), default.seed()), (400, 7));
        // `len 400` and `cap 400` are the session's own trace.
        assert_eq!(s.trace_key(w, Some(400), None, None), default);
        assert_eq!(s.trace_key(w, None, Some(400), None), default);
        // A different length is a different trace; `cap` bounds `len`.
        assert_ne!(s.trace_key(w, Some(100), None, None), default);
        assert_eq!(s.trace_key(w, Some(700), Some(100), None).values(), 100);
        // A seed above i64::MAX resolves exactly.
        assert_eq!(s.trace_key(w, None, None, Some(u64::MAX)).seed(), u64::MAX);
    }

    #[test]
    fn try_activity_surfaces_unknown_schemes_without_poisoning() {
        let s = Session::builder().values(100).build();
        let key = s.trace_key(Workload::Random, None, None, None);
        let err = s.try_activity("windoww(8)", &key).unwrap_err();
        assert!(err.to_string().contains("unknown coding scheme"));
        assert_eq!(s.activity_store_len(), 0, "a typo must not leave an entry");
        assert_eq!(s.store().len(), 0, "nor generate a trace");
        let retry = s.try_activity("windoww(8)", &key);
        assert!(retry.is_err(), "still an error on retry");
    }

    #[test]
    #[should_panic(expected = "unknown coding scheme")]
    fn activity_store_rejects_non_registry_names() {
        let s = Session::builder().values(100).build();
        let _ = s.activity(&ActivityQuery::new("windoww(8)", Workload::Random));
    }

    #[test]
    fn cache_file_names_are_stable_and_distinct() {
        let k1 = TraceKey::new(Workload::Bench(Benchmark::Gcc, BusKind::Register), 100, 1);
        let k2 = TraceKey::new(Workload::Bench(Benchmark::Gcc, BusKind::Memory), 100, 1);
        assert_eq!(k1.cache_file_name(), k1.cache_file_name());
        assert_ne!(k1.cache_file_name(), k2.cache_file_name());
        assert!(k1.cache_file_name().starts_with("gcc-register-v100-s1-"));
    }

    #[test]
    fn disk_cache_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("bench-session-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = Workload::Bench(Benchmark::Compress, BusKind::Register);
        let build = || {
            Session::builder()
                .values(1_500)
                .seed(11)
                .out_dir(&dir)
                .disk_cache(true)
                .build()
        };
        // Cold: generates and writes the entry.
        let fresh = build().trace(w);
        let key = TraceKey::new(w, 1_500, 11);
        let path = dir.join("cache").join(key.cache_file_name());
        assert!(path.exists(), "miss must persist {}", path.display());
        // Warm: a new session (fresh memory) loads the same words.
        assert_eq!(*build().trace(w), *fresh);
        // Corrupt the entry: the store must fall back to regeneration
        // and rewrite the file.
        std::fs::write(&path, "# bustrace v1 width=32\nzz-not-hex\n").unwrap();
        assert_eq!(*build().trace(w), *fresh);
        assert_eq!(bustrace::io::load_trace(&path).unwrap(), *fresh);
        // Truncated-but-parseable entry: rejected by the length check.
        std::fs::write(&path, "# bustrace v1 width=32\nff\n").unwrap();
        assert_eq!(*build().trace(w), *fresh);
        std::fs::remove_dir_all(&dir).ok();
    }
}
