//! Integration tests for the session stores: exactly-once trace
//! generation and activity builds under concurrency, and key isolation
//! across seeds.

use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

use bench::workloads::Workload;
use bench::{Session, TraceKey};
use buscoding::Activity;
use simcpu::{Benchmark, BusKind};

/// The busprobe registry is process-global, so tests that assert
/// counter deltas must not overlap with each other, nor with any test
/// that generates traces while another has probes enabled.
fn probe_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_requests_generate_the_trace_exactly_once() {
    let _g = probe_lock();
    let generated = busprobe::counter("bench.workload.traces");
    let misses = busprobe::counter("bench.session.trace_misses");
    let hits = busprobe::counter("bench.session.trace_hits");
    busprobe::set_enabled(true);
    let (g0, m0, h0) = (generated.value(), misses.value(), hits.value());

    let session = Session::builder().values(5_000).seed(21).build();
    let w = Workload::Bench(Benchmark::Swim, BusKind::Register);
    const THREADS: usize = 8;
    let traces: Vec<Arc<bustrace::Trace>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| session.trace(w))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    busprobe::set_enabled(false);

    assert_eq!(
        generated.value() - g0,
        1,
        "the workload generator must run exactly once for a shared key"
    );
    assert_eq!(misses.value() - m0, 1, "one store miss fills the cell");
    assert_eq!(
        hits.value() - h0,
        (THREADS - 1) as u64,
        "every other request is a hit"
    );
    for t in &traces[1..] {
        assert!(
            Arc::ptr_eq(&traces[0], t),
            "all requests must share one Arc<Trace>"
        );
    }
}

#[test]
fn concurrent_misses_build_the_activity_exactly_once() {
    let _g = probe_lock();
    let builds = busprobe::counter("buscoding.codebook.builds");
    let misses = busprobe::counter("bench.session.activity_misses");
    busprobe::set_enabled(true);
    let (b0, m0) = (builds.value(), misses.value());

    let session = Session::builder().values(5_000).seed(23).build();
    let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
    let key = session.trace_key(w, None, None, None);
    const THREADS: usize = 8;
    let barrier = Barrier::new(THREADS);
    let activities: Vec<Activity> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    session.try_activity("window(8)", &key).unwrap().0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    busprobe::set_enabled(false);

    assert_eq!(
        builds.value() - b0,
        1,
        "racing misses of one key must build the scheme (and its codebook) once"
    );
    assert_eq!(misses.value() - m0, 1, "one store miss fills the cell");
    assert!(
        activities.iter().all(|a| *a == activities[0]),
        "every caller gets the one stored activity"
    );
    assert_eq!(session.activity_store_len(), 1);
}

#[test]
fn distinct_seeds_do_not_alias() {
    // Generates traces, which would move the counters another test is
    // asserting deltas on.
    let _g = probe_lock();
    let session = Session::builder().values(4_000).seed(1).build();
    let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
    let a = session.trace_at(&TraceKey::new(w, 4_000, 1));
    let b = session.trace_at(&TraceKey::new(w, 4_000, 2));
    assert_eq!(
        session.trace_store_len(),
        2,
        "different seeds are different keys"
    );
    assert!(!Arc::ptr_eq(&a, &b));
    let differs = a.iter().zip(b.iter()).any(|(x, y)| x != y);
    assert!(differs, "seed must change the generated values");

    // The session's own seed addresses the same key, and a session
    // built with the other seed sees the other trace.
    assert!(Arc::ptr_eq(&session.trace(w), &a));
    let other = Session::builder().values(4_000).seed(2).build();
    assert_eq!(&*other.trace(w), &*b);
}
