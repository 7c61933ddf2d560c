//! End-to-end runtime tests against a toy service: concurrency,
//! backpressure (`busy`), per-client quotas, and drain.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use busprobe::json::JsonValue;
use busserve::{Client, Server, ServerConfig, Service, ServiceError};

fn temp_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("busserve-{tag}-{}.sock", std::process::id()))
}

fn request(verb: &str, extra: Vec<(String, JsonValue)>) -> JsonValue {
    let mut pairs = vec![
        ("v".to_string(), JsonValue::Int(1)),
        ("verb".to_string(), JsonValue::Str(verb.into())),
    ];
    pairs.extend(extra);
    JsonValue::Obj(pairs)
}

/// A service that can echo and sleep, and records the most `handle`
/// calls it saw running at once.
#[derive(Clone, Default)]
struct Toy {
    running: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
}

impl Service for Toy {
    fn handle(&self, verb: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let result = match verb {
            "echo" => Ok(body.get("payload").cloned().unwrap_or(JsonValue::Null)),
            "sleep" => {
                let ms = body.get("ms").and_then(JsonValue::as_u64).unwrap_or(50);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(JsonValue::Int(ms as i64))
            }
            other => Err(ServiceError::new(
                "unknown_verb",
                format!("no such verb `{other}`"),
            )),
        };
        self.running.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

/// Spawns a server on a fresh socket; returns the socket path, the
/// shutdown flag, and the join handle yielding the stats.
fn spawn_server(
    tag: &str,
    config: ServerConfig,
) -> (
    PathBuf,
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<busserve::ServeStats>>,
) {
    spawn_toy(tag, config, Toy::default())
}

/// As [`spawn_server`], serving the given `toy`.
fn spawn_toy(
    tag: &str,
    config: ServerConfig,
    toy: Toy,
) -> (
    PathBuf,
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<busserve::ServeStats>>,
) {
    let path = temp_socket(tag);
    let _ = std::fs::remove_file(&path);
    let shutdown = Arc::new(AtomicBool::new(false));
    let handle = {
        let path = path.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || Server::new(toy, config).serve_unix(&path, &shutdown))
    };
    // Wait for the socket to exist before clients connect.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(path.exists(), "server never bound {}", path.display());
    (path, shutdown, handle)
}

fn stop(
    shutdown: &AtomicBool,
    handle: std::thread::JoinHandle<std::io::Result<busserve::ServeStats>>,
) -> busserve::ServeStats {
    shutdown.store(true, Ordering::Release);
    handle.join().expect("server thread").expect("serve_unix")
}

#[test]
fn concurrent_clients_get_correct_answers() {
    let (path, shutdown, handle) = spawn_server("conc", ServerConfig::default());
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                for round in 0..10 {
                    let tag = (i * 100 + round) as i64;
                    let resp = client
                        .call(&request(
                            "echo",
                            vec![("payload".into(), JsonValue::Int(tag))],
                        ))
                        .unwrap();
                    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp}");
                    assert_eq!(resp.get("result"), Some(&JsonValue::Int(tag)));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.connections, 8);
    assert_eq!(stats.requests, 80);
    assert_eq!(stats.busy, 0);
}

#[test]
fn overload_yields_typed_busy_not_blocking() {
    // One shard, queue depth 1, slow service: concurrent callers must
    // see `busy` errors while the shard is occupied, and the server
    // must keep answering (the accept loop never blocks).
    let config = ServerConfig {
        shards: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let (path, shutdown, handle) = spawn_server("busy", config);
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                let resp = client
                    .call(&request("sleep", vec![("ms".into(), JsonValue::Int(300))]))
                    .unwrap();
                match resp.get("ok") {
                    Some(JsonValue::Bool(true)) => "ok",
                    _ => {
                        let kind = resp
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(JsonValue::as_str)
                            .unwrap_or("?")
                            .to_string();
                        assert_eq!(kind, "busy", "{resp}");
                        "busy"
                    }
                }
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|o| **o == "ok").count();
    let busy = outcomes.iter().filter(|o| **o == "busy").count();
    assert!(ok >= 1, "at least one request must be served: {outcomes:?}");
    assert!(busy >= 1, "overload must surface busy: {outcomes:?}");
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.busy, busy as u64);
}

#[test]
fn requests_past_the_slots_wait_instead_of_failing() {
    // Two slots, room for eight waiters: six concurrent slow calls
    // never run more than two at a time, and every one is served.
    let config = ServerConfig {
        shards: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    };
    let toy = Toy::default();
    let (path, shutdown, handle) = spawn_toy("gate", config, toy.clone());
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                client
                    .call(&request("sleep", vec![("ms".into(), JsonValue::Int(150))]))
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp}");
    }
    let peak = toy.peak.load(Ordering::SeqCst);
    assert!(peak <= 2, "{peak} evaluations ran at once on two slots");
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.busy, 0);
    assert_eq!(stats.requests, 6);
}

#[test]
fn quota_closes_the_connection_with_a_typed_error() {
    let config = ServerConfig {
        client_quota: 3,
        ..ServerConfig::default()
    };
    let (path, shutdown, handle) = spawn_server("quota", config);
    let mut client = Client::connect(&path).unwrap();
    for _ in 0..3 {
        let resp = client.call(&request("echo", vec![])).unwrap();
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)));
    }
    let resp = client.call(&request("echo", vec![])).unwrap();
    let kind = resp
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str);
    assert_eq!(kind, Some("quota"), "{resp}");
    // The connection is closed after the quota response; a fresh
    // connection gets a fresh allowance.
    assert!(client.call(&request("echo", vec![])).is_err());
    let mut fresh = Client::connect(&path).unwrap();
    let resp = fresh.call(&request("echo", vec![])).unwrap();
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)));
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.quota, 1);
    assert_eq!(stats.requests, 4);
}

#[test]
fn drain_finishes_in_flight_requests_and_exits_clean() {
    let (path, shutdown, handle) = spawn_server("drain", ServerConfig::default());
    // Park a slow request, then request shutdown while it runs.
    let in_flight = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&path).unwrap();
            client.call(&request("sleep", vec![("ms".into(), JsonValue::Int(400))]))
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    shutdown.store(true, Ordering::Release);
    // The in-flight request still completes successfully.
    let resp = in_flight
        .join()
        .unwrap()
        .expect("in-flight call survives drain");
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp}");
    assert_eq!(resp.get("result"), Some(&JsonValue::Int(400)));
    // The server exits Ok and removes its socket file.
    let stats = handle.join().unwrap().expect("clean drain");
    assert_eq!(stats.requests, 1);
    assert!(!path.exists(), "socket file must be removed on drain");
    // New connections are refused after drain.
    assert!(Client::connect(&path).is_err());
}

#[test]
fn identical_requests_over_four_shards_are_all_answered() {
    // Four clients' identical requests run on up to four slots at
    // once; each must still be answered exactly and counted once.
    let config = ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    };
    let (path, shutdown, handle) = spawn_server("shards", config);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&path).unwrap();
                for _ in 0..5 {
                    let resp = client
                        .call(&request(
                            "echo",
                            vec![("payload".into(), JsonValue::Int(7))],
                        ))
                        .unwrap();
                    assert_eq!(resp.get("result"), Some(&JsonValue::Int(7)), "{resp}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.requests, 20);
}
