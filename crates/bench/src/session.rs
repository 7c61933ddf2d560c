//! The shared evaluation session.
//!
//! A full `repro` run executes dozens of experiments, and before this
//! module existed each one regenerated the *same* simcpu kernel traces
//! from scratch — the dominant cost of the run was redundant trace
//! synthesis, not the coding schemes under study. A [`Session`] is the
//! configuration the old `Ctx` carried (`values`, `seed`, `out_dir`)
//! plus two process-wide caches every experiment shares:
//!
//! * a content-addressed [`TraceStore`] — traces keyed by
//!   `(workload, values, seed)`, generated exactly once per run and
//!   held behind `Arc<Trace>`, with an optional on-disk cache in
//!   `<out>/cache/` using the `bustrace::io` text format (validated on
//!   load, regenerated on mismatch);
//! * a memoized baseline-activity table, since nearly every experiment
//!   re-derives the un-encoded bus activity per workload.
//!
//! Both caches are safe to share across the worker threads of
//! [`par_map`](crate::experiments::par_map): per-key `OnceLock` cells
//! guarantee the generator runs once even when two experiments request
//! the same trace concurrently.
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
//! `bench.session.disk_loads`, `bench.session.disk_rejects`, and
//! `bench.session.baseline_misses`. See `docs/PERFORMANCE.md`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use buscoding::{Activity, UnknownScheme};
use bustrace::fnv::Fnv1a;
use bustrace::{io as trace_io, Trace};

use crate::schemes::baseline_activity;
use crate::workloads::Workload;

/// One coded-activity request against a [`Session`]: which scheme over
/// which workload, plus the optional knobs the old
/// `activity`/`activity_capped`/`activity_with_len` trio spread across
/// three signatures.
///
/// * [`len`](Self::len) — evaluate at an explicit trace length instead
///   of the session's `values`;
/// * [`cap`](Self::cap) — bound the (possibly overridden) length, the
///   idiom of experiments that limit their own cost;
/// * [`seed`](Self::seed) — evaluate at a different data seed than the
///   session's (the daemon serving mixed-seed clients needs this; batch
///   experiments never set it).
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
    len: Option<usize>,
    cap: Option<usize>,
    seed: Option<u64>,
}

impl ActivityQuery {
    /// A query for `scheme` (a canonical registry name, e.g.
    /// `window(8)`) over `workload` at the session's full length and
    /// seed.
    pub fn new(scheme: impl Into<String>, workload: Workload) -> Self {
        ActivityQuery {
            scheme: scheme.into(),
            workload,
            len: None,
            cap: None,
            seed: None,
        }
    }

    /// Bounds the evaluated length to `min(length, cap)`.
    #[must_use]
    pub fn cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Evaluates at an explicit trace length instead of the session's.
    #[must_use]
    pub fn len(mut self, len: usize) -> Self {
        self.len = Some(len);
        self
    }

    /// Evaluates at an explicit data seed instead of the session's.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
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
        let mut values = self.len.unwrap_or(session.values);
        if let Some(cap) = self.cap {
            values = values.min(cap);
        }
        TraceKey::new(self.workload, values, self.seed.unwrap_or(session.seed))
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
/// pattern both session caches use. The outer mutex is held only long
/// enough to find or insert the cell; initialization happens on the
/// cell's own `OnceLock`, so concurrent requests for the *same* key
/// block each other (the generator runs once) while requests for
/// different keys proceed in parallel.
struct CellMap<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K: Eq + Hash + Clone, V> CellMap<K, V> {
    fn new() -> Self {
        CellMap {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the initialized value for `key`, running `init` exactly
    /// once per key across all threads. The second tuple field reports
    /// whether *this* call did the initialization (a miss).
    fn get_or_init<F: FnOnce() -> V>(&self, key: &K, init: F) -> (Arc<OnceLock<V>>, bool) {
        let cell = {
            let mut map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(map.entry(key.clone()).or_default())
        };
        let mut missed = false;
        cell.get_or_init(|| {
            missed = true;
            init()
        });
        (cell, missed)
    }

    /// The initialized value for `key` if some call already built it —
    /// a cache probe that never triggers initialization.
    fn peek(&self, key: &K) -> Option<V>
    where
        V: Copy,
    {
        let map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        map.get(key).and_then(|cell| cell.get().copied())
    }

    fn len(&self) -> usize {
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

static TRACE_HITS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.trace_hits");
static TRACE_MISSES: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.trace_misses");
static DISK_LOADS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.disk_loads");
static DISK_REJECTS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.disk_rejects");
static BASELINE_MISSES: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.baseline_misses");
static ACTIVITY_HITS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.activity_hits");
static ACTIVITY_MISSES: busprobe::StaticCounter =
    busprobe::StaticCounter::new("bench.session.activity_misses");

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
        TraceStore {
            disk_dir: None,
            cells: CellMap::new(),
        }
    }

    /// A store that additionally persists traces under `dir`.
    pub fn with_disk_cache(dir: PathBuf) -> Self {
        TraceStore {
            disk_dir: Some(dir),
            cells: CellMap::new(),
        }
    }

    /// The disk cache directory, if persistence is enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// The shared trace for `key`, generating (or loading) it on first
    /// request.
    pub fn get(&self, key: &TraceKey) -> Arc<Trace> {
        let (cell, missed) = self.cells.get_or_init(key, || Arc::new(self.acquire(key)));
        if missed {
            TRACE_MISSES.inc();
        } else {
            TRACE_HITS.inc();
        }
        Arc::clone(cell.get().expect("cell initialized by get_or_init"))
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

/// Shared experiment configuration plus the run-wide caches — the
/// redesigned `Ctx`. See the [module docs](self) for the design.
pub struct Session {
    values: usize,
    seed: u64,
    out_dir: PathBuf,
    store: TraceStore,
    baselines: CellMap<TraceKey, Activity>,
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

    /// The shared trace of `workload` at the session's full length.
    pub fn trace(&self, workload: Workload) -> Arc<Trace> {
        self.trace_with_len(workload, self.values)
    }

    /// The shared trace of `workload` at `min(values, cap)` — the
    /// idiom of experiments that bound their own cost below the
    /// session length.
    pub fn trace_capped(&self, workload: Workload, cap: usize) -> Arc<Trace> {
        self.trace_with_len(workload, self.values.min(cap))
    }

    /// The shared trace of `workload` at an explicit length.
    pub fn trace_with_len(&self, workload: Workload, values: usize) -> Arc<Trace> {
        self.store.get(&TraceKey::new(workload, values, self.seed))
    }

    /// The memoized un-encoded bus activity of `workload` at the
    /// session's full length.
    pub fn baseline(&self, workload: Workload) -> Activity {
        self.baseline_with_len(workload, self.values)
    }

    /// The memoized baseline at `min(values, cap)`.
    pub fn baseline_capped(&self, workload: Workload, cap: usize) -> Activity {
        self.baseline_with_len(workload, self.values.min(cap))
    }

    /// The memoized baseline at an explicit length.
    pub fn baseline_with_len(&self, workload: Workload, values: usize) -> Activity {
        self.baseline_for(&TraceKey::new(workload, values, self.seed))
    }

    /// The memoized baseline of an explicit trace key — the entry point
    /// the service API uses when a request overrides the session seed.
    pub fn baseline_for(&self, key: &TraceKey) -> Activity {
        let (cell, _) = self.baselines.get_or_init(key, || {
            BASELINE_MISSES.inc();
            baseline_activity(&self.store.get(key))
        });
        *cell.get().expect("cell initialized by get_or_init")
    }

    /// The memoized coded activity for `query` — the session-level
    /// coded-activity store, and the single entry point the old
    /// `activity`/`activity_capped`/`activity_with_len` trio collapsed
    /// into. The store key is `(scheme-name, workload, values, seed)`:
    /// everything that determines the counts and nothing else, so every
    /// experiment that sweeps the same (scheme, trace) pair shares one
    /// evaluation. A miss builds the scheme through
    /// [`buscoding::scheme_by_name`] and runs the block-batched
    /// [`buscoding::evaluate_blocks`] engine.
    ///
    /// Observable via `bench.session.activity_hits` /
    /// `bench.session.activity_misses`.
    ///
    /// # Panics
    ///
    /// Panics if the query's scheme is not a canonical registry name or
    /// does not fit the trace's width; [`try_activity`](Self::try_activity)
    /// is the non-panicking form.
    pub fn activity(&self, query: &ActivityQuery) -> Activity {
        self.try_activity(query)
            .unwrap_or_else(|e| panic!("activity store: {e}"))
    }

    /// The memoized coded activity for `query`, with an unknown scheme
    /// name surfaced as a typed error instead of a panic — what the
    /// service front ends use so a client typo cannot take a worker
    /// down.
    ///
    /// # Errors
    ///
    /// [`UnknownScheme`] when the query's scheme is not a canonical
    /// registry name or does not fit the trace's width; the error's
    /// `Display` lists the accepted patterns.
    pub fn try_activity(&self, query: &ActivityQuery) -> Result<Activity, UnknownScheme> {
        let trace_key = query.trace_key(self);
        let key = (query.scheme().to_string(), trace_key);
        if let Some(cached) = self.activities.peek(&key) {
            ACTIVITY_HITS.inc();
            return Ok(cached);
        }
        // Validate the name (and fetch the trace) before touching the
        // cell, so a bad query is an error — never a poisoned entry.
        let trace = self.store.get(&trace_key);
        let mut pair = buscoding::scheme_by_name(query.scheme(), trace.width())?;
        let (cell, missed) = self
            .activities
            .get_or_init(&key, || buscoding::evaluate_blocks(pair.encoder_mut(), &trace));
        if missed {
            ACTIVITY_MISSES.inc();
        } else {
            ACTIVITY_HITS.inc();
        }
        Ok(*cell.get().expect("cell initialized by get_or_init"))
    }

    /// Whether `query`'s activity is already resident (a probe that
    /// never evaluates) — the cache-provenance bit `bench::api` reports
    /// per scheme result.
    pub fn activity_cached(&self, query: &ActivityQuery) -> bool {
        let trace_key = query.trace_key(self);
        self.activities
            .peek(&(query.scheme().to_string(), trace_key))
            .is_some()
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
        let store = if self.disk_cache {
            TraceStore::with_disk_cache(self.out_dir.join("cache"))
        } else {
            TraceStore::in_memory()
        };
        Session {
            values: self.values,
            seed: self.seed,
            out_dir: self.out_dir,
            store,
            baselines: CellMap::new(),
            activities: CellMap::new(),
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
        let direct = baseline_activity(&w.trace(3_000, 4));
        assert_eq!(s.baseline(w), direct);
        // Second request is served from the memo (same value).
        assert_eq!(s.baseline(w), direct);
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
        assert!(!s.activity_cached(&q));
        assert_eq!(s.activity(&q), direct);
        assert!(s.activity_cached(&q));
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
        // len overrides the session length; cap bounds it; both
        // together evaluate min(len, cap); seed overrides the seed.
        let key = ActivityQuery::new("identity", w).len(700).trace_key(&s);
        assert_eq!((key.values(), key.seed()), (700, 4));
        let key = ActivityQuery::new("identity", w).cap(500).trace_key(&s);
        assert_eq!(key.values(), 500);
        let key = ActivityQuery::new("identity", w)
            .len(700)
            .cap(500)
            .trace_key(&s);
        assert_eq!(key.values(), 500);
        let key = ActivityQuery::new("identity", w).seed(9).trace_key(&s);
        assert_eq!(key.seed(), 9);
        // And the seed override addresses a genuinely different trace.
        let a = s.activity(&ActivityQuery::new("identity", w).cap(500));
        let b = s.activity(&ActivityQuery::new("identity", w).cap(500).seed(9));
        assert_ne!(a, b);
    }

    #[test]
    fn try_activity_surfaces_unknown_schemes_without_poisoning() {
        let s = Session::builder().values(100).build();
        let bad = ActivityQuery::new("windoww(8)", Workload::Random);
        let err = s.try_activity(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown coding scheme"));
        assert_eq!(s.activity_store_len(), 0, "a typo must not leave an entry");
        assert!(s.try_activity(&bad.clone()).is_err(), "still an error on retry");
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
