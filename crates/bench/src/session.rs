//! The shared evaluation session.
//!
//! A full `repro` run executes dozens of experiments over the same
//! traces. A [`Session`] is their shared configuration (`values`,
//! `seed`, `out_dir`) plus two in-memory stores:
//!
//! * a content-addressed trace store: traces keyed by [`TraceKey`]
//!   `(workload, values, seed)`, generated exactly once per process and
//!   held behind `Arc<Trace>`. Traces are not persisted: the kernels
//!   regenerate them deterministically, and regenerating is no slower
//!   than reading them back from disk (see `docs/PERFORMANCE.md`);
//! * a coded-activity store keyed by `(scheme, trace key)`, holding
//!   each activity with the predictor accuracy of the encode that made
//!   it. The un-encoded baseline is no special case: it is the
//!   [`BASELINE_SCHEME`] (`identity`) activity of the same trace.
//!
//! Which trace a request addresses is decided in one place,
//! [`Session::trace_key`]: an explicit length (default: the session's
//! `values`) bounded by an optional cap, at an explicit seed (default:
//! the session's).
//!
//! Both stores are safe to share across the worker threads of
//! [`par_map`](crate::experiments::par_map) and the daemon's connections.
//! They share one get-or-build path: a per-key cell whose builder runs
//! under the cell's lock, so each trace and each activity (scheme,
//! codebook and all) is built once even when two callers miss it
//! concurrently, and a build that fails leaves no entry behind.
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
//! `bench.session.activity_hits` and `bench.session.activity_misses`
//! (baseline lookups included), and the `bench.session.acquire` span
//! around each trace generation. See `docs/PERFORMANCE.md`.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use buscoding::predict::PredictStats;
use buscoding::{Activity, UnknownScheme};
use busprobe::StaticCounter;
use bustrace::Trace;

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

    /// The trace length this key addresses.
    pub fn values(&self) -> usize {
        self.values
    }

    /// The data seed this key addresses.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A map of lazily built, shareable values: the one get-or-build path
/// both session stores use. The outer mutex is held only long enough
/// to find or insert a key's [`Cell`]; a hit reads the built value
/// under it and returns. A miss builds under the cell's own lock, so
/// concurrent requests for the *same* key wait for one build while
/// requests for different keys proceed in parallel. Each map counts
/// its own hits and misses.
struct CellMap<K, V> {
    cells: Mutex<HashMap<K, Arc<Cell<V>>>>,
    hits: &'static StaticCounter,
    misses: &'static StaticCounter,
}

/// One key's slot: the built value, and the lock a miss holds while it
/// builds. The value sits in a `OnceLock` rather than inside the lock
/// so that a hit costs one map lock and no per-cell atomics; the warm
/// daemon's lookups contend on exactly those.
struct Cell<V> {
    value: OnceLock<V>,
    build: Mutex<()>,
}

impl<V> Default for Cell<V> {
    fn default() -> Self {
        Cell {
            value: OnceLock::new(),
            build: Mutex::new(()),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CellMap<K, V> {
    fn new(hits: &'static StaticCounter, misses: &'static StaticCounter) -> Self {
        CellMap {
            cells: Mutex::new(HashMap::new()),
            hits,
            misses,
        }
    }

    /// The value for `key`, built by `init` if no call has built it
    /// yet. The second tuple field reports whether *this* call built
    /// it (a miss). Callers of one key wait on its cell, so a
    /// successful `init` runs once per key; a failed one removes the
    /// entry and returns the error, and the next caller builds afresh.
    fn get_or_try_init<E>(
        &self,
        key: &K,
        init: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cell = {
            let mut map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(cell) = map.get(key) {
                if let Some(value) = cell.value.get() {
                    self.hits.inc();
                    return Ok((value.clone(), false));
                }
                Arc::clone(cell)
            } else {
                Arc::clone(map.entry(key.clone()).or_default())
            }
        };
        let _building = cell.build.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = cell.value.get() {
            self.hits.inc();
            return Ok((value.clone(), false));
        }
        match init() {
            Ok(value) => {
                self.misses.inc();
                Ok((cell.value.get_or_init(|| value).clone(), true))
            }
            Err(e) => {
                let mut map = self.cells.lock().unwrap_or_else(|e| e.into_inner());
                if map.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                    map.remove(key);
                }
                Err(e)
            }
        }
    }

    fn len(&self) -> usize {
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

static TRACE_HITS: StaticCounter = StaticCounter::new("bench.session.trace_hits");
static TRACE_MISSES: StaticCounter = StaticCounter::new("bench.session.trace_misses");
static ACTIVITY_HITS: StaticCounter = StaticCounter::new("bench.session.activity_hits");
static ACTIVITY_MISSES: StaticCounter = StaticCounter::new("bench.session.activity_misses");

/// Shared experiment configuration plus the run-wide stores — the
/// redesigned `Ctx`. See the [module docs](self) for the design.
pub struct Session {
    values: usize,
    seed: u64,
    out_dir: PathBuf,
    traces: CellMap<TraceKey, Arc<Trace>>,
    activities: CellMap<(String, TraceKey), (Activity, Option<PredictStats>)>,
}

impl Session {
    /// A builder starting from the defaults (`values` 200 000, `seed`
    /// 1, `out_dir` `results/`).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Configuration from the environment — the canonical entry point
    /// for the `repro` binary: `REPRO_VALUES` (default 200 000),
    /// `REPRO_SEED` (default 1) and `REPRO_OUT` (default `results/`).
    /// A malformed `REPRO_VALUES` or `REPRO_SEED` is
    /// reported on stderr and the default used — a typo must not
    /// silently change the experiment size.
    pub fn from_env() -> Self {
        let mut b = Session::builder()
            .values(crate::parse_env("REPRO_VALUES", 200_000usize))
            .seed(crate::parse_env("REPRO_SEED", 1u64));
        if let Ok(out) = std::env::var("REPRO_OUT") {
            b = b.out_dir(out);
        }
        b.build()
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

    /// The shared trace at `key`, generated on its first request. This
    /// is the single place a store miss turns into trace synthesis.
    pub fn trace_at(&self, key: &TraceKey) -> Arc<Trace> {
        let built = self.traces.get_or_try_init(key, || {
            let _span = busprobe::span("bench.session.acquire");
            Ok::<_, Infallible>(Arc::new(key.workload.trace(key.values, key.seed)))
        });
        let Ok((trace, _)) = built;
        trace
    }

    /// Distinct traces resident in the trace store.
    pub fn trace_store_len(&self) -> usize {
        self.traces.len()
    }

    /// The shared trace of `workload` at the session's full length.
    pub fn trace(&self, workload: Workload) -> Arc<Trace> {
        self.trace_at(&self.trace_key(workload, None, None, None))
    }

    /// The shared trace of `workload` at `min(values, cap)` — the
    /// idiom of experiments that bound their own cost below the
    /// session length.
    pub fn trace_capped(&self, workload: Workload, cap: usize) -> Arc<Trace> {
        self.trace_at(&self.trace_key(workload, None, Some(cap), None))
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
    /// does not build at the workload's width; [`try_activity`](Self::try_activity)
    /// is the non-panicking form.
    pub fn activity(&self, query: &ActivityQuery) -> Activity {
        self.try_activity(query.scheme(), &query.trace_key(self))
            .map(|(activity, ..)| activity)
            .unwrap_or_else(|e| panic!("activity store: {e}"))
    }

    /// The one activity-store lookup: `scheme` over the trace at `key`,
    /// its encoder's [`PredictStats`] (`None` for a scheme that does not
    /// predict), and whether the store served it (`true`) rather than
    /// this call encoding it. A miss, inside the store's cell, parses
    /// the name as a [`buscoding::SchemeSpec`] and builds the scheme at
    /// the workload's bus width ([`Workload::width`]) before it fetches
    /// the trace and runs the block-batched
    /// [`buscoding::evaluate_blocks`] engine; a hit does none of that.
    /// Observable via `bench.session.activity_hits` /
    /// `bench.session.activity_misses`.
    ///
    /// # Errors
    ///
    /// [`UnknownScheme`] when `scheme` is not a canonical registry name
    /// or does not build at the workload's width (a missing `trained:`
    /// artifact, or one trained at another width) — a typed error, so a
    /// client typo cannot take a daemon worker down. An error leaves no
    /// store entry and no trace.
    pub fn try_activity(
        &self,
        scheme: &str,
        key: &TraceKey,
    ) -> Result<(Activity, Option<PredictStats>, bool), UnknownScheme> {
        let ((activity, predict), missed) =
            self.activities
                .get_or_try_init(&(scheme.to_string(), *key), || {
                    let spec: buscoding::SchemeSpec = scheme.parse()?;
                    let mut pair = spec.build(key.workload.width())?;
                    let trace = self.trace_at(key);
                    let activity = buscoding::evaluate_blocks(pair.encoder_mut(), &trace);
                    Ok((activity, pair.encoder_mut().predict_stats()))
                })?;
        Ok((activity, predict, !missed))
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
            .field("resident_traces", &self.traces.len())
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
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            values: 200_000,
            seed: 1,
            out_dir: "results".into(),
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

    /// Output directory for CSVs.
    #[must_use]
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    /// Builds the session with empty caches.
    pub fn build(self) -> Session {
        Session {
            values: self.values,
            seed: self.seed,
            out_dir: self.out_dir,
            traces: CellMap::new(&TRACE_HITS, &TRACE_MISSES),
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
    }

    #[test]
    fn same_key_returns_the_same_allocation() {
        let s = Session::builder().values(2_000).seed(9).build();
        let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
        let a = s.trace(w);
        let b = s.trace(w);
        assert!(Arc::ptr_eq(&a, &b), "second request must share the Arc");
        assert_eq!(s.trace_store_len(), 1);
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
        assert_eq!(s.trace_store_len(), 3);
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
        let predict = pair.encoder_mut().predict_stats();
        assert!(predict.is_some());
        let q = ActivityQuery::new("window(8)", w);
        let key = q.trace_key(&s);
        assert_eq!(
            s.try_activity("window(8)", &key),
            Ok((direct, predict, false))
        );
        assert_eq!(
            s.try_activity("window(8)", &key),
            Ok((direct, predict, true))
        );
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
        let (seeded, ..) = s.try_activity("identity", &other).unwrap();
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
        assert_eq!(s.trace_store_len(), 0, "nor generate a trace");
        let retry = s.try_activity("windoww(8)", &key);
        assert!(retry.is_err(), "still an error on retry");
        // A name that parses but fails to build leaves no entry either:
        // its failed build removes the cell it was made in.
        let err = s.try_activity("trained:nope", &key).unwrap_err();
        assert!(err.artifact_error().is_some(), "{err}");
        assert_eq!(s.activity_store_len(), 0, "a failed build leaves no entry");
    }

    #[test]
    #[should_panic(expected = "unknown coding scheme")]
    fn activity_store_rejects_non_registry_names() {
        let s = Session::builder().values(100).build();
        let _ = s.activity(&ActivityQuery::new("windoww(8)", Workload::Random));
    }
}
