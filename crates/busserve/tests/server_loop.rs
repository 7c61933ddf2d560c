//! End-to-end runtime tests against a toy service: response envelopes,
//! protocol errors, concurrency, backpressure (`busy`), per-client
//! quotas, and drain.

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use busprobe::json::{self, JsonValue};
use busserve::{Client, Server, ServerConfig, Service, ServiceError, MAX_FRAME_BYTES};

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

/// A service that can echo, sleep, panic (`boom`) and fail with a
/// detail field (`fail`), and records the most `handle` calls it saw
/// running at once (a `boom` call stays counted as running).
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
            "boom" => panic!("kaboom"),
            "fail" => Err(ServiceError::bad_request("told to fail")
                .with_detail("candidates", JsonValue::Arr(vec![]))),
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

/// Sends one raw request payload over `stream` and parses the reply.
fn raw_call(stream: &mut UnixStream, payload: &[u8]) -> JsonValue {
    busserve::write_frame(stream, payload, MAX_FRAME_BYTES).expect("request frame");
    let reply = busserve::read_frame(stream, MAX_FRAME_BYTES)
        .expect("response frame")
        .expect("a response, not a hang-up");
    json::parse(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON")
}

fn error_field<'a>(response: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    response.get("error").and_then(|e| e.get(key))
}

#[test]
fn ok_and_error_envelopes_are_versioned() {
    let (path, shutdown, handle) = spawn_server("envelope", ServerConfig::default());
    let mut stream = UnixStream::connect(&path).unwrap();
    let ok = raw_call(&mut stream, br#"{"v":1,"verb":"echo","payload":42}"#);
    assert_eq!(ok.get("v").unwrap().as_u64(), Some(1));
    assert_eq!(ok.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(ok.get("result").unwrap().as_u64(), Some(42));

    let err = raw_call(&mut stream, br#"{"verb":"nope"}"#);
    assert_eq!(err.get("v").unwrap().as_u64(), Some(1));
    assert_eq!(err.get("ok"), Some(&JsonValue::Bool(false)));
    let kind = error_field(&err, "kind").and_then(JsonValue::as_str);
    assert_eq!(kind, Some("unknown_verb"));
    drop(stream);
    stop(&shutdown, handle);
}

#[test]
fn missing_verb_bad_json_and_wrong_version_are_protocol_errors() {
    let (path, shutdown, handle) = spawn_server("protocol", ServerConfig::default());
    let mut stream = UnixStream::connect(&path).unwrap();
    // Far under the frame cap; unbounded parsing would overflow the
    // stack and abort the daemon.
    let deeply_nested = "[".repeat(1 << 20);
    for (request, kind) in [
        (r#"{"v":1}"#, "protocol"),
        ("not json", "protocol"),
        (r#"{"v":9,"verb":"echo"}"#, "version"),
        (deeply_nested.as_str(), "protocol"),
    ] {
        let resp = raw_call(&mut stream, request.as_bytes());
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        let got = error_field(&resp, "kind").and_then(JsonValue::as_str);
        assert_eq!(
            got,
            Some(kind),
            "request {:?}",
            &request[..request.len().min(40)]
        );
    }
    // A protocol error answers and keeps the connection open.
    let ok = raw_call(&mut stream, br#"{"verb":"echo","payload":1}"#);
    assert_eq!(ok.get("ok"), Some(&JsonValue::Bool(true)), "{ok}");
    drop(stream);
    let stats = stop(&shutdown, handle);
    assert_eq!(stats.protocol_errors, 4);
    assert_eq!(stats.requests, 1);
}

#[test]
fn handler_panic_becomes_a_typed_internal_error() {
    let (path, shutdown, handle) = spawn_server("panic", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let resp = client.call(&request("boom", vec![])).unwrap();
    let kind = error_field(&resp, "kind").and_then(JsonValue::as_str);
    assert_eq!(kind, Some("internal"), "{resp}");
    let message = error_field(&resp, "message").and_then(JsonValue::as_str);
    assert!(message.unwrap_or_default().contains("kaboom"), "{resp}");
    // The daemon survives the panic and keeps serving this client.
    let ok = client.call(&request("echo", vec![])).unwrap();
    assert_eq!(ok.get("ok"), Some(&JsonValue::Bool(true)), "{ok}");
    drop(client);
    stop(&shutdown, handle);
}

#[test]
fn error_detail_fields_are_merged() {
    let (path, shutdown, handle) = spawn_server("detail", ServerConfig::default());
    let mut client = Client::connect(&path).unwrap();
    let resp = client.call(&request("fail", vec![])).unwrap();
    let kind = error_field(&resp, "kind").and_then(JsonValue::as_str);
    assert_eq!(kind, Some("bad_request"), "{resp}");
    assert!(
        matches!(error_field(&resp, "candidates"), Some(JsonValue::Arr(_))),
        "{resp}"
    );
    drop(client);
    stop(&shutdown, handle);
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
