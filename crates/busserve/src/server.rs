//! The daemon runtime: accept loop, shard workers, backpressure,
//! quotas, and graceful drain.
//!
//! `busserve` knows nothing about traces or coding schemes — it speaks
//! the frame protocol and routes requests to a [`Service`]
//! implementation (the evaluation service lives in `bench::api`, which
//! keeps the dependency arrow pointing one way). Each request frame is
//! one JSON object `{"v":1,"verb":"...", ...}`; each response frame is
//! `{"v":1,"ok":true,"result":...}` or
//! `{"v":1,"ok":false,"error":{"kind","message",...}}`.
//!
//! Concurrency model: one worker thread per shard, each behind a
//! *bounded* `sync_channel`. Connection threads submit with `try_send`
//! — a full shard answers immediately with a typed `busy` error
//! instead of blocking, so the accept loop and every other client stay
//! live no matter how slow one evaluation is. Requests carrying a
//! routing key (the trace key) always land on the same shard, so two
//! clients asking for the same trace serialize onto one worker and the
//! second hits the session cache instead of racing the first.
//!
//! Drain: when the shutdown flag is set (see [`crate::signal`]) the
//! accept loop stops accepting, connection threads finish the request
//! they are reading or serving and close, workers drain their queues,
//! and `serve_unix` returns `Ok` — exit code 0 for the daemon.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use busprobe::json::{self, JsonValue};

use crate::frame::{self, FrameError};

/// The protocol generation this server speaks; requests may omit `v`
/// (treated as current) but a different explicit version is rejected.
pub const PROTOCOL_VERSION: i64 = 1;

/// How often idle connection reads and the accept loop wake up to
/// check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// How long a client may dally mid-frame once its header byte arrived
/// before the connection is dropped as dead.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

static CONNECTIONS: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.connections");
static REQUESTS: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.requests");
static BUSY: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.busy");
static QUOTA: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.quota");
static PROTOCOL_ERRORS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("busserve.protocol_errors");

/// What a daemon serves: one verb dispatcher plus an optional routing
/// key. Implementations must be callable from many threads at once.
pub trait Service: Send + Sync {
    /// Handles one request. `body` is the whole request object (the
    /// envelope fields `v` and `verb` included), so a service can keep
    /// one schema for the daemon and any single-shot front end.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] becomes the typed `error` object of the
    /// response frame.
    fn handle(&self, verb: &str, body: &JsonValue) -> Result<JsonValue, ServiceError>;

    /// A stable routing key for this request, if it has one. Equal
    /// keys are served by the same shard worker, which turns
    /// same-trace races into cache hits.
    fn route(&self, _verb: &str, _body: &JsonValue) -> Option<u64> {
        None
    }
}

/// A typed service-level failure: a short machine-readable `kind`, a
/// human message, and optional extra fields merged into the `error`
/// object (e.g. an `candidates` array on an unknown-scheme miss).
#[derive(Debug)]
pub struct ServiceError {
    /// Machine-readable category, e.g. `bad_request`, `unknown_scheme`.
    pub kind: String,
    /// Human-readable explanation.
    pub message: String,
    /// Extra key/value pairs appended to the `error` object.
    pub detail: Vec<(String, JsonValue)>,
}

impl ServiceError {
    /// An error of the given kind.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        ServiceError {
            kind: kind.into(),
            message: message.into(),
            detail: Vec::new(),
        }
    }

    /// The everyday malformed-request error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServiceError::new("bad_request", message)
    }

    /// Appends one extra field to the `error` object.
    #[must_use]
    pub fn with_detail(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        self.detail.push((key.into(), value));
        self
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// Tunables for one serving run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (and bounded queues) requests are sharded over.
    pub shards: usize,
    /// In-flight + queued requests a shard holds before `try_send`
    /// fails and the client gets a typed `busy` response.
    pub queue_depth: usize,
    /// Requests one connection may issue before a typed `quota` error
    /// closes it.
    pub client_quota: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        ServerConfig {
            shards: cores.clamp(1, 4),
            queue_depth: 16,
            client_quota: 1024,
        }
    }
}

/// What one serving run did — returned by [`Server::serve_unix`] so
/// the daemon can log an honest exit line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests admitted to a shard (busy/quota rejections excluded).
    pub requests: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Requests rejected with `quota`.
    pub quota: u64,
    /// Frames that failed to parse as protocol requests.
    pub protocol_errors: u64,
}

/// Shared mutable tally behind the stats (connection threads update it
/// concurrently).
#[derive(Default)]
struct Tally {
    connections: AtomicU64,
    requests: AtomicU64,
    busy: AtomicU64,
    quota: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Tally {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            quota: self.quota.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// One queued request: the parsed envelope plus the channel the
/// connection thread is blocked on.
struct Job {
    verb: String,
    body: JsonValue,
    reply: mpsc::Sender<JsonValue>,
}

/// The daemon: a [`Service`] plus its [`ServerConfig`].
pub struct Server<S: Service> {
    service: S,
    config: ServerConfig,
}

impl<S: Service> Server<S> {
    /// Wraps `service` with the given tunables.
    pub fn new(service: S, config: ServerConfig) -> Self {
        Server { service, config }
    }

    /// The service, for in-process callers.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Processes one raw request payload into one raw response payload
    /// — the single-threaded core tests drive directly. The response
    /// is always a well-formed envelope, whatever the input.
    pub fn handle_frame(&self, bytes: &[u8]) -> Vec<u8> {
        let response = match parse_request(bytes) {
            Ok((verb, body)) => dispatch(&self.service, &verb, &body),
            Err(e) => {
                PROTOCOL_ERRORS.inc();
                error_envelope(&e)
            }
        };
        response.to_string().into_bytes()
    }

    /// Binds `path` and serves until `shutdown` goes true, then drains:
    /// stops accepting, lets every connection finish its in-flight
    /// request, joins the shard workers, removes the socket file, and
    /// returns the tally. A stale socket file from a previous run is
    /// replaced.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures; per-connection I/O errors only
    /// end that connection.
    pub fn serve_unix(&self, path: &Path, shutdown: &AtomicBool) -> io::Result<ServeStats> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let tally = Tally::default();
        let rr = AtomicUsize::new(0);
        let result: io::Result<()> = std::thread::scope(|scope| {
            let mut senders: Vec<mpsc::SyncSender<Job>> = Vec::with_capacity(self.config.shards);
            for _ in 0..self.config.shards.max(1) {
                let (tx, rx) = mpsc::sync_channel::<Job>(self.config.queue_depth.max(1));
                senders.push(tx);
                let service = &self.service;
                scope.spawn(move || {
                    for job in rx {
                        let response = dispatch(service, &job.verb, &job.body);
                        // A vanished requester is not the worker's
                        // problem; keep draining the queue.
                        let _ = job.reply.send(response);
                    }
                });
            }
            let mut conns = Vec::new();
            loop {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        CONNECTIONS.inc();
                        tally.connections.fetch_add(1, Ordering::Relaxed);
                        let senders = senders.clone();
                        let service = &self.service;
                        let config = &self.config;
                        let (tally, rr) = (&tally, &rr);
                        conns.push(scope.spawn(move || {
                            serve_connection(stream, service, config, &senders, rr, shutdown, tally);
                        }));
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Drain: no new connections; existing ones notice the flag
            // after their current request and hang up.
            drop(listener);
            for h in conns {
                let _ = h.join();
            }
            // Workers exit once the queues empty and the senders drop.
            drop(senders);
            Ok(())
        });
        let _ = std::fs::remove_file(path);
        result.map(|()| tally.snapshot())
    }
}

/// One connection: poll for a header byte (so shutdown is noticed
/// between frames), complete the frame, submit to a shard, relay the
/// response.
fn serve_connection<S: Service>(
    mut stream: UnixStream,
    service: &S,
    config: &ServerConfig,
    shards: &[mpsc::SyncSender<Job>],
    rr: &AtomicUsize,
    shutdown: &AtomicBool,
    tally: &Tally,
) {
    let mut served: u64 = 0;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(0) => return, // client hung up
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if stream.set_read_timeout(Some(FRAME_TIMEOUT)).is_err() {
            return;
        }
        let bytes = match frame::read_frame_after(&mut stream, first[0], frame::MAX_FRAME_BYTES) {
            Ok(b) => b,
            Err(e @ (FrameError::Truncated { .. } | FrameError::Oversize { .. })) => {
                // The stream is out of sync; answer once, then hang up.
                PROTOCOL_ERRORS.inc();
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let response = error_envelope(&ServiceError::new("protocol", e.to_string()));
                let _ = write_response(&mut stream, response.to_string().as_bytes());
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let (response, close) = process_request(
            &bytes,
            service,
            config,
            shards,
            rr,
            &mut served,
            tally,
        );
        if write_response(&mut stream, response.to_string().as_bytes()).is_err() || close {
            return;
        }
    }
}

/// Envelope-validates one request and runs it through quota check and
/// shard submission. Returns the response and whether the connection
/// must close afterwards (quota exhausted).
fn process_request<S: Service>(
    bytes: &[u8],
    service: &S,
    config: &ServerConfig,
    shards: &[mpsc::SyncSender<Job>],
    rr: &AtomicUsize,
    served: &mut u64,
    tally: &Tally,
) -> (JsonValue, bool) {
    let (verb, body) = match parse_request(bytes) {
        Ok(parsed) => parsed,
        Err(e) => {
            PROTOCOL_ERRORS.inc();
            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return (error_envelope(&e), false);
        }
    };
    if *served >= config.client_quota {
        QUOTA.inc();
        tally.quota.fetch_add(1, Ordering::Relaxed);
        let e = ServiceError::new(
            "quota",
            format!(
                "per-client quota of {} request(s) exhausted; reconnect for a fresh allowance",
                config.client_quota
            ),
        );
        return (error_envelope(&e), true);
    }
    *served += 1;
    let shard = match service.route(&verb, &body) {
        Some(key) => (key % shards.len() as u64) as usize,
        None => rr.fetch_add(1, Ordering::Relaxed) % shards.len(),
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        verb,
        body,
        reply: reply_tx,
    };
    match shards[shard].try_send(job) {
        Ok(()) => {
            REQUESTS.inc();
            tally.requests.fetch_add(1, Ordering::Relaxed);
            let response = reply_rx.recv().unwrap_or_else(|_| {
                error_envelope(&ServiceError::new(
                    "internal",
                    "worker dropped the reply channel",
                ))
            });
            (response, false)
        }
        Err(mpsc::TrySendError::Full(_)) => {
            BUSY.inc();
            tally.busy.fetch_add(1, Ordering::Relaxed);
            let e = ServiceError::new(
                "busy",
                format!(
                    "shard {shard} has {} request(s) in flight; retry later",
                    config.queue_depth
                ),
            );
            (error_envelope(&e), false)
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {
            let e = ServiceError::new("shutting_down", "server is draining; reconnect later");
            (error_envelope(&e), true)
        }
    }
}

/// Runs the service, converting a panic into a typed `internal` error
/// so one poisonous request cannot take the daemon down.
fn dispatch<S: Service>(service: &S, verb: &str, body: &JsonValue) -> JsonValue {
    let _span = busprobe::span("busserve.request");
    let result = catch_unwind(AssertUnwindSafe(|| service.handle(verb, body)));
    match result {
        Ok(Ok(value)) => ok_envelope(value),
        Ok(Err(e)) => error_envelope(&e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            error_envelope(&ServiceError::new(
                "internal",
                format!("request handler panicked: {msg}"),
            ))
        }
    }
}

/// Decodes and envelope-validates one request frame.
fn parse_request(bytes: &[u8]) -> Result<(String, JsonValue), ServiceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServiceError::new("protocol", format!("request is not UTF-8: {e}")))?;
    let value = json::parse(text)
        .map_err(|e| ServiceError::new("protocol", format!("request is not valid JSON: {e}")))?;
    match value.get("v") {
        None => {}
        Some(v) if v.as_u64() == Some(PROTOCOL_VERSION as u64) => {}
        Some(v) => {
            return Err(ServiceError::new(
                "version",
                format!("unsupported protocol version {v}; this server speaks v{PROTOCOL_VERSION}"),
            ));
        }
    }
    let verb = value
        .get("verb")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ServiceError::new("protocol", "request has no string `verb` field"))?
        .to_string();
    Ok((verb, value))
}

fn ok_envelope(result: JsonValue) -> JsonValue {
    JsonValue::Obj(vec![
        ("v".into(), JsonValue::Int(PROTOCOL_VERSION)),
        ("ok".into(), JsonValue::Bool(true)),
        ("result".into(), result),
    ])
}

fn error_envelope(e: &ServiceError) -> JsonValue {
    let mut err = vec![
        ("kind".into(), JsonValue::Str(e.kind.clone())),
        ("message".into(), JsonValue::Str(e.message.clone())),
    ];
    err.extend(e.detail.iter().cloned());
    JsonValue::Obj(vec![
        ("v".into(), JsonValue::Int(PROTOCOL_VERSION)),
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::Obj(err)),
    ])
}

fn write_response<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    // A response the codec refuses (oversize) still must not leave the
    // client hanging mid-protocol: degrade to a minimal typed error.
    match frame::write_frame(w, payload, frame::MAX_FRAME_BYTES) {
        Ok(()) => Ok(()),
        Err(FrameError::Io(e)) => Err(e),
        Err(_) => {
            let fallback =
                error_envelope(&ServiceError::new("oversize", "response exceeded the frame cap"));
            match frame::write_frame(w, fallback.to_string().as_bytes(), frame::MAX_FRAME_BYTES) {
                Ok(()) => Ok(()),
                Err(FrameError::Io(e)) => Err(e),
                Err(_) => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Service for Echo {
        fn handle(&self, verb: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
            match verb {
                "echo" => Ok(body.get("payload").cloned().unwrap_or(JsonValue::Null)),
                "boom" => panic!("kaboom"),
                "fail" => Err(ServiceError::bad_request("told to fail")
                    .with_detail("candidates", JsonValue::Arr(vec![]))),
                other => Err(ServiceError::new(
                    "unknown_verb",
                    format!("no such verb `{other}`"),
                )),
            }
        }
    }

    fn call(server: &Server<Echo>, request: &str) -> JsonValue {
        let raw = server.handle_frame(request.as_bytes());
        json::parse(std::str::from_utf8(&raw).unwrap()).unwrap()
    }

    #[test]
    fn ok_and_error_envelopes_are_versioned() {
        let server = Server::new(Echo, ServerConfig::default());
        let ok = call(&server, r#"{"v":1,"verb":"echo","payload":42}"#);
        assert_eq!(ok.get("v").unwrap().as_u64(), Some(1));
        assert_eq!(ok.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(ok.get("result").unwrap().as_u64(), Some(42));

        let err = call(&server, r#"{"verb":"nope"}"#);
        assert_eq!(err.get("ok"), Some(&JsonValue::Bool(false)));
        let e = err.get("error").unwrap();
        assert_eq!(e.get("kind").unwrap().as_str(), Some("unknown_verb"));
    }

    #[test]
    fn missing_verb_bad_json_and_wrong_version_are_protocol_errors() {
        let server = Server::new(Echo, ServerConfig::default());
        // Far under the frame cap; unbounded parsing would overflow the
        // stack and abort the daemon.
        let deeply_nested = "[".repeat(1 << 20);
        for (request, kind) in [
            (r#"{"v":1}"#, "protocol"),
            ("not json", "protocol"),
            (r#"{"v":9,"verb":"echo"}"#, "version"),
            (deeply_nested.as_str(), "protocol"),
        ] {
            let resp = call(&server, request);
            assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
            let got = resp.get("error").unwrap().get("kind").unwrap().as_str();
            assert_eq!(
                got,
                Some(kind),
                "request {:?}",
                &request[..request.len().min(40)]
            );
        }
    }

    #[test]
    fn handler_panic_becomes_a_typed_internal_error() {
        let server = Server::new(Echo, ServerConfig::default());
        let resp = call(&server, r#"{"verb":"boom"}"#);
        let e = resp.get("error").unwrap();
        assert_eq!(e.get("kind").unwrap().as_str(), Some("internal"));
        assert!(e
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("kaboom"));
    }

    #[test]
    fn error_detail_fields_are_merged() {
        let server = Server::new(Echo, ServerConfig::default());
        let resp = call(&server, r#"{"verb":"fail"}"#);
        let e = resp.get("error").unwrap();
        assert!(matches!(e.get("candidates"), Some(JsonValue::Arr(_))));
    }
}
