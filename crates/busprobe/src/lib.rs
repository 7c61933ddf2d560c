//! `busprobe` — always-available, near-zero-cost instrumentation for the
//! bus-coding reproduction.
//!
//! The paper's argument is an accounting exercise (charge transcoder
//! energy against wire savings); this crate is the same discipline
//! applied to the reproduction pipeline itself: counters, fixed-bucket
//! histograms, and hierarchical span timers behind a process-global
//! registry and a single `AtomicBool`. Disabled (the default), every
//! probe is one relaxed atomic load; enabled, hot paths pay one memoized
//! lookup plus an atomic add.
//!
//! Two sinks read the registry:
//!
//! * [`render_summary`] — an aligned table for stderr;
//! * [`snapshot_to_json`] + [`append_jsonl`] — one JSON object per
//!   experiment appended to `results/metrics.jsonl` for trend tracking.
//!
//! ```
//! static WORDS: busprobe::StaticCounter =
//!     busprobe::StaticCounter::new("example.bus.words");
//!
//! busprobe::set_enabled(true);
//! {
//!     let _span = busprobe::span("example.encode");
//!     WORDS.add(32);
//! }
//! let snaps = busprobe::snapshot();
//! println!("{}", busprobe::render_summary(&snaps));
//! ```
//!
//! Naming convention: `crate.subsystem.name`, e.g.
//! `simcpu.cache.l1.hits`. Span nesting joins paths with `/`
//! (`bench.experiment/buscoding.evaluate`). See `docs/OBSERVABILITY.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod registry;
mod sink;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use json::{JsonError, JsonErrorKind, JsonValue};
pub use registry::{
    adopt_span_context, counter, histogram, histogram_percentile, reset, snapshot, span,
    span_context, Counter, Histogram, MetricKind, MetricSnapshot, SpanContext, SpanGuard,
    StaticCounter, StaticHistogram, DEFAULT_BOUNDS,
};
pub use sink::{append_jsonl, render_summary, snapshot_to_json};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether probes currently record anything. This is the single flag
/// every instrumented hot loop checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Registry and the enabled flag are process-global; tests that
    /// enable metrics or reset the registry serialize on this.
    pub(crate) fn guard() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let m = LOCK.get_or_init(|| Mutex::new(()));
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = guard();
        set_enabled(false);
        let c = counter("test.disabled.counter");
        c.add(10);
        assert_eq!(c.value(), 0);
        let h = histogram("test.disabled.hist", &[1, 2]);
        h.observe(1);
        assert_eq!(h.count(), 0);
        let _span = span("test.disabled.span");
        drop(_span);
        let snap = snapshot();
        let s = snap.iter().find(|s| s.name == "test.disabled.counter");
        assert_eq!(s.unwrap().kind, MetricKind::Counter { value: 0 });
        assert!(
            !snap.iter().any(|s| s.name.contains("test.disabled.span")),
            "disabled spans register nothing"
        );
    }

    #[test]
    fn counters_accumulate_across_handles() {
        let _g = guard();
        set_enabled(true);
        let a = counter("test.counter.shared");
        let b = counter("test.counter.shared");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(b.value(), 4);
        set_enabled(false);
    }

    #[test]
    fn static_counter_memoizes_and_counts() {
        static PROBE: StaticCounter = StaticCounter::new("test.static.counter");
        let _g = guard();
        set_enabled(true);
        PROBE.add(2);
        PROBE.inc();
        assert_eq!(counter("test.static.counter").value(), 3);
        set_enabled(false);
    }

    #[test]
    fn histogram_buckets_split_at_bounds() {
        let _g = guard();
        set_enabled(true);
        let h = histogram("test.hist.bounds", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let snap = snapshot();
        let s = snap.iter().find(|s| s.name == "test.hist.bounds").unwrap();
        match &s.kind {
            MetricKind::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                assert_eq!(bounds, &[10, 100]);
                // <=10: {0, 10}; <=100: {11, 100}; overflow: {101, 5000}.
                assert_eq!(buckets, &[2, 2, 2]);
                assert_eq!(*count, 6);
                assert_eq!(*sum, 5222);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        set_enabled(false);
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _g = guard();
        set_enabled(true);
        {
            let _outer = span("test.span.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.span.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        {
            // A second top-level instance of the same span.
            let _outer = span("test.span.outer");
        }
        set_enabled(false);
        let snap = snapshot();
        let outer = snap.iter().find(|s| s.name == "test.span.outer").unwrap();
        let inner = snap
            .iter()
            .find(|s| s.name == "test.span.outer/test.span.inner")
            .unwrap();
        let (
            MetricKind::Span {
                count: oc,
                total_ns: ot,
                max_ns: omax,
                ..
            },
            MetricKind::Span {
                count: ic,
                total_ns: it,
                ..
            },
        ) = (&outer.kind, &inner.kind)
        else {
            panic!("wrong kinds");
        };
        assert_eq!(*oc, 2);
        assert_eq!(*ic, 1);
        assert!(ot > it, "outer total includes inner time");
        assert!(omax <= ot, "max cannot exceed total");
        assert!(
            !snap.iter().any(|s| s.name == "test.span.inner"),
            "nested span registers only under its full path"
        );
    }

    /// `(count, total_ns, self_ns)` of the span registered at `path`.
    fn span_times(snap: &[MetricSnapshot], path: &str) -> (u64, u64, u64) {
        match snap.iter().find(|s| s.name == path).map(|s| &s.kind) {
            Some(&MetricKind::Span {
                count,
                total_ns,
                self_ns,
                ..
            }) => (count, total_ns, self_ns),
            other => panic!("no span at `{path}`: {other:?}"),
        }
    }

    #[test]
    fn self_time_is_total_minus_same_thread_children() {
        let _g = guard();
        set_enabled(true);
        {
            let _a = span("test.self.a");
            {
                let _b = span("test.self.b");
                let _c = span("test.self.c");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _b = span("test.self.b");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let snap = snapshot();
        let (_, a_total, a_self) = span_times(&snap, "test.self.a");
        let (b_count, b_total, b_self) = span_times(&snap, "test.self.a/test.self.b");
        let (_, c_total, c_self) = span_times(&snap, "test.self.a/test.self.b/test.self.c");
        assert_eq!(b_count, 2);
        // Each closing span charges exactly its own duration to its
        // parent, so the books balance to the nanosecond.
        assert_eq!(a_self + b_total, a_total);
        assert_eq!(b_self + c_total, b_total);
        assert_eq!(c_self, c_total, "a leaf's time is all its own");
        assert!(a_self > 0 && a_self < a_total);
    }

    #[test]
    fn adopted_context_leaves_the_parent_its_own_time() {
        let _g = guard();
        set_enabled(true);
        {
            let _parent = span("test.adopt.parent");
            let ctx = span_context();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let ctx = &ctx;
                    scope.spawn(move || {
                        adopt_span_context(ctx);
                        let _w = span("test.adopt.worker");
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    });
                }
            });
        }
        set_enabled(false);
        let snap = snapshot();
        let (_, p_total, p_self) = span_times(&snap, "test.adopt.parent");
        let (w_count, w_total, w_self) = span_times(&snap, "test.adopt.parent/test.adopt.worker");
        // Worker spans ran beside the parent, not inside its thread:
        // nothing is subtracted from the parent.
        assert_eq!(p_self, p_total);
        assert_eq!(w_count, 2);
        assert_eq!(w_self, w_total);
        assert!(w_total >= 2_000_000, "both workers keep their own time");
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = guard();
        set_enabled(true);
        let c = counter("test.reset.counter");
        c.add(9);
        reset();
        assert_eq!(c.value(), 0);
        c.add(2);
        assert_eq!(c.value(), 2, "handle stays live after reset");
        set_enabled(false);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let _ = counter("test.conflict.metric");
        let _ = histogram("test.conflict.metric", &[1]);
    }
}
