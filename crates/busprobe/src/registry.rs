//! The process-global metric registry: counters, histograms, and span
//! timers, all behind one cheap enabled flag.
//!
//! Metric names follow the `crate.subsystem.name` convention (see
//! `docs/OBSERVABILITY.md`). Handles ([`Counter`], [`Histogram`]) are
//! cheap `Arc` clones of the registered cell, so hot paths pay one
//! relaxed atomic load (the enabled check) plus one atomic add. For
//! static call sites, [`StaticCounter`] / [`StaticHistogram`] memoize
//! the registry lookup in a `OnceLock`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::{enabled, trace};

/// Upper bucket bounds used by [`crate::histogram`] when the caller has
/// no better idea: powers of four from 1 to ~10⁶ (an implicit +∞ bucket
/// always follows the last bound).
pub const DEFAULT_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
    Span(Arc<SpanCell>),
}

struct HistCell {
    bounds: Vec<u64>,
    /// One bucket per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

struct SpanCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    max_ns: AtomicU64,
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    // Metric cells are plain atomics, so a panic while holding the lock
    // cannot leave a cell half-updated; recover from poisoning.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Counters in registration order: a dense side-table that the trace
/// recorder can sweep in two loads-per-counter to attach counter deltas
/// to spans, without walking (or locking against) the name-keyed map.
type DenseCounters = Mutex<Vec<(String, Arc<AtomicU64>)>>;

fn dense_counters() -> &'static DenseCounters {
    static DENSE: OnceLock<DenseCounters> = OnceLock::new();
    DENSE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Current value of every registered counter, indexed by registration
/// order. Indices are stable for the life of the process (counters are
/// never unregistered), so two sweeps subtract positionally.
pub(crate) fn dense_counter_values() -> Vec<u64> {
    dense_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(_, c)| c.load(Ordering::Relaxed))
        .collect()
}

/// Counter names by registration order, aligned with
/// [`dense_counter_values`].
pub(crate) fn dense_counter_names() -> Vec<String> {
    dense_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(n, _)| n.clone())
        .collect()
}

/// A handle to a registered monotonic counter.
///
/// Cloning is cheap; all clones (and all handles obtained under the same
/// name) share one cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` if metrics are enabled.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one if metrics are enabled.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value (readable even while disabled).
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A handle to a registered fixed-bucket histogram.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// Records one observation if metrics are enabled.
    pub fn observe(&self, value: u64) {
        if !enabled() {
            return;
        }
        let idx = self
            .cell
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.cell.bounds.len());
        self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}

/// Registers (or fetches) a counter under `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    let mut map = lock();
    let mut fresh = false;
    let handle = match map.entry(name.to_string()).or_insert_with(|| {
        fresh = true;
        Metric::Counter(Arc::new(AtomicU64::new(0)))
    }) {
        Metric::Counter(cell) => Counter { cell: cell.clone() },
        _ => panic!("metric `{name}` already registered with a different kind"),
    };
    drop(map);
    if fresh {
        dense_counters()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name.to_string(), handle.cell.clone()));
    }
    handle
}

/// Registers (or fetches) a histogram under `name` with the given upper
/// bucket bounds (ascending; an overflow bucket is implicit). Bounds are
/// fixed by the first registration; later callers share the cell.
///
/// # Panics
///
/// Panics if `bounds` is empty or not strictly ascending, or if `name`
/// is already registered as a different metric kind.
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    assert!(!bounds.is_empty(), "histogram `{name}` needs bounds");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram `{name}` bounds must be strictly ascending"
    );
    let mut map = lock();
    match map.entry(name.to_string()).or_insert_with(|| {
        Metric::Histogram(Arc::new(HistCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }) {
        Metric::Histogram(cell) => Histogram { cell: cell.clone() },
        _ => panic!("metric `{name}` already registered with a different kind"),
    }
}

/// A counter with a static name whose registry lookup happens once.
///
/// ```
/// static ENCODES: busprobe::StaticCounter =
///     busprobe::StaticCounter::new("example.encode.calls");
/// busprobe::set_enabled(true);
/// ENCODES.inc();
/// ```
pub struct StaticCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl StaticCounter {
    /// Declares a counter; nothing is registered until first use.
    pub const fn new(name: &'static str) -> Self {
        StaticCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` if metrics are enabled (one relaxed load when disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.get_or_init(|| counter(self.name)).add(n);
        }
    }

    /// Adds one if metrics are enabled.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A histogram with a static name and bounds, registered on first use.
pub struct StaticHistogram {
    name: &'static str,
    bounds: &'static [u64],
    cell: OnceLock<Histogram>,
}

impl StaticHistogram {
    /// Declares a histogram; nothing is registered until first use.
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        StaticHistogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation if metrics are enabled.
    pub fn observe(&self, value: u64) {
        if enabled() {
            self.cell
                .get_or_init(|| histogram(self.name, self.bounds))
                .observe(value);
        }
    }
}

/// One open segment of a thread's span path.
struct Frame {
    name: &'static str,
    /// Time spent in this span's closed same-thread children, in ns;
    /// `None` for a segment adopted from another thread, which is
    /// context only and never credited.
    child_ns: Option<u64>,
}

thread_local! {
    /// The active span path of this thread, innermost last. The leading
    /// frames may be adopted from a parent thread (see
    /// [`adopt_span_context`]) — those are context only; this thread's
    /// own guards never pop below them.
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The active span path of a thread, captured so a worker thread can
/// record its spans under the spawning thread's path.
///
/// Span nesting is thread-local; a thread-pool worker starts with an
/// empty stack, so without adoption its spans would lose their logical
/// parent (`fig16/buscoding.codec.evaluate_blocks` would flatten to
/// `buscoding.codec.evaluate_blocks`). Capture the context *before*
/// spawning and adopt it once per worker closure:
///
/// ```
/// let ctx = busprobe::span_context();
/// std::thread::scope(|scope| {
///     scope.spawn(move || {
///         busprobe::adopt_span_context(&ctx);
///         let _s = busprobe::span("example.worker.step");
///     });
/// });
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpanContext(Vec<&'static str>);

/// Captures the calling thread's active span path for [`adopt_span_context`].
pub fn span_context() -> SpanContext {
    SPAN_STACK.with(|s| SpanContext(s.borrow().iter().map(|f| f.name).collect()))
}

/// Replaces the calling thread's span context with `ctx`. Intended for
/// the top of a pool-worker closure, before any of its own spans open;
/// the adopted segments act as path prefix only and are never popped by
/// this thread's guards.
pub fn adopt_span_context(ctx: &SpanContext) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.clear();
        stack.extend(ctx.0.iter().map(|&name| Frame {
            name,
            child_ns: None,
        }));
    });
}

/// An RAII guard that records wall time into a span metric on drop.
///
/// Spans nest: a span opened while another is active on the same thread
/// is recorded under `parent/child` (path segments joined with `/`), and
/// its duration is charged to that parent as child time, so the parent's
/// self time is its duration minus its same-thread children's. Spans on
/// a thread that adopted the parent's context keep their own time.
#[must_use = "a span records its duration when dropped"]
pub struct SpanGuard {
    /// `None` when neither metrics nor tracing were enabled at creation
    /// — a no-op guard.
    active: Option<GuardState>,
}

struct GuardState {
    /// Aggregate registry cell; absent when only tracing is on.
    cell: Option<Arc<SpanCell>>,
    start: Instant,
    /// Open trace-event arm; absent when only metrics are on.
    trace: Option<trace::OpenSpan>,
}

/// Opens a timing span. Records into the aggregate registry when
/// metrics are enabled and into the trace recorder when tracing is
/// enabled ([`trace::set_enabled`]); with both off it returns a no-op
/// guard after one relaxed load.
///
/// `name` is `&'static str` (rather than `&str`) so the thread-local
/// nesting stack never borrows from the caller.
pub fn span(name: &'static str) -> SpanGuard {
    let metrics_on = enabled();
    let trace_on = trace::enabled();
    if !metrics_on && !trace_on {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(Frame {
            name,
            child_ns: Some(0),
        });
        stack.iter().map(|f| f.name).collect::<Vec<_>>().join("/")
    });
    let cell = metrics_on.then(|| {
        let mut map = lock();
        match map.entry(path.clone()).or_insert_with(|| {
            Metric::Span(Arc::new(SpanCell {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                self_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            }))
        }) {
            Metric::Span(cell) => cell.clone(),
            _ => panic!("metric `{path}` already registered with a different kind"),
        }
    });
    let trace_arm = trace_on.then(|| trace::open(path));
    SpanGuard {
        active: Some(GuardState {
            cell,
            start: Instant::now(),
            trace: trace_arm,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.active.take() else {
            return;
        };
        let ns = u64::try_from(state.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let own = stack.pop().and_then(|f| f.child_ns).unwrap_or(0);
            if let Some(Frame {
                child_ns: Some(parent),
                ..
            }) = stack.last_mut()
            {
                *parent += ns;
            }
            own
        });
        if let Some(cell) = state.cell {
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.total_ns.fetch_add(ns, Ordering::Relaxed);
            cell.self_ns
                .fetch_add(ns.saturating_sub(child_ns), Ordering::Relaxed);
            cell.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if let Some(open) = state.trace {
            trace::close(open);
        }
    }
}

/// A point-in-time copy of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Registered name (span names are full `parent/child` paths).
    pub name: String,
    /// Kind and values.
    pub kind: MetricKind,
}

/// The metric kinds a snapshot can carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic counter.
    Counter {
        /// Current value.
        value: u64,
    },
    /// A fixed-bucket histogram.
    Histogram {
        /// Upper bucket bounds (ascending).
        bounds: Vec<u64>,
        /// Per-bucket observation counts; one longer than `bounds`
        /// (the final entry is the overflow bucket).
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
    /// An accumulated timing span.
    Span {
        /// Completed span instances.
        count: u64,
        /// Total wall time across instances, in nanoseconds.
        total_ns: u64,
        /// Total time not spent in same-thread child spans, in
        /// nanoseconds (at most `total_ns`).
        self_ns: u64,
        /// Longest single instance, in nanoseconds.
        max_ns: u64,
    },
}

/// Estimates the `q`-quantile (`0.0..=1.0`) of a fixed-bucket histogram
/// by linear interpolation inside the bucket that contains the target
/// rank, matching the Prometheus `histogram_quantile` convention. An
/// observation in the overflow bucket clamps to the last bound (the
/// histogram records no upper edge for it). Returns `None` when the
/// histogram is empty.
pub fn histogram_percentile(bounds: &[u64], buckets: &[u64], q: f64) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 || bounds.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if (seen as f64) < rank {
            continue;
        }
        if n == 0 {
            continue;
        }
        let Some(&hi) = bounds.get(i) else {
            // Overflow bucket: no upper edge, clamp to the last bound.
            return Some(*bounds.last().expect("bounds checked non-empty") as f64);
        };
        let lo = if i == 0 { 0 } else { bounds[i - 1] };
        let into = rank - (seen - n) as f64;
        return Some(lo as f64 + (hi - lo) as f64 * (into / n as f64).clamp(0.0, 1.0));
    }
    Some(*bounds.last().expect("bounds checked non-empty") as f64)
}

/// Copies every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let map = lock();
    map.iter()
        .map(|(name, metric)| MetricSnapshot {
            name: name.clone(),
            kind: match metric {
                Metric::Counter(c) => MetricKind::Counter {
                    value: c.load(Ordering::Relaxed),
                },
                Metric::Histogram(h) => MetricKind::Histogram {
                    bounds: h.bounds.clone(),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                },
                Metric::Span(s) => MetricKind::Span {
                    count: s.count.load(Ordering::Relaxed),
                    total_ns: s.total_ns.load(Ordering::Relaxed),
                    self_ns: s.self_ns.load(Ordering::Relaxed),
                    max_ns: s.max_ns.load(Ordering::Relaxed),
                },
            },
        })
        .collect()
}

/// Zeroes every registered metric. Handles stay valid — registration is
/// kept, only the values reset (used between experiments so each
/// JSON-lines record covers exactly one experiment).
pub fn reset() {
    let map = lock();
    for metric in map.values() {
        match metric {
            Metric::Counter(c) => c.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
            Metric::Span(s) => {
                s.count.store(0, Ordering::Relaxed);
                s.total_ns.store(0, Ordering::Relaxed);
                s.self_ns.store(0, Ordering::Relaxed);
                s.max_ns.store(0, Ordering::Relaxed);
            }
        }
    }
}
