//! The daemon runtime: accept loop, admission gate, backpressure,
//! quotas, and graceful drain.
//!
//! `busserve` knows nothing about traces or coding schemes — it speaks
//! the frame protocol and hands requests to a [`Service`]
//! implementation (the evaluation service lives in `bench::api`, which
//! keeps the dependency arrow pointing one way). Each request frame is
//! one JSON object `{"v":1,"verb":"...", ...}`; each response frame is
//! `{"v":1,"ok":true,"result":...}` or
//! `{"v":1,"ok":false,"error":{"kind","message",...}}`.
//!
//! Concurrency model: each connection's thread evaluates its requests
//! itself, behind one admission gate: at most [`ServerConfig::shards`]
//! evaluations run at once, at most `shards × queue_depth` more wait
//! for a slot, and past that the reply is a typed `busy` error at once,
//! so the accept loop and every other client stay live no matter how
//! slow one evaluation is. All connections share the one service, so
//! work two requests have in common (for `bench::api`, a trace or an
//! activity) is deduplicated there.
//!
//! Drain: when the shutdown flag is set (see [`crate::signal`]) the
//! accept loop stops accepting (connects are refused), each connection
//! finishes the request it is reading, waiting on or serving and
//! closes, and `serve_unix` returns `Ok` — exit code 0 for the daemon.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
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
static WAITED: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.waited");
static QUOTA: busprobe::StaticCounter = busprobe::StaticCounter::new("busserve.quota");
static PROTOCOL_ERRORS: busprobe::StaticCounter =
    busprobe::StaticCounter::new("busserve.protocol_errors");

/// What a daemon serves: one verb dispatcher. Implementations must be
/// callable from many threads at once.
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
    /// Evaluation slots: at most this many requests are evaluated at
    /// once.
    pub shards: usize,
    /// Requests per slot that may wait for a slot to free; a request
    /// that finds `shards × queue_depth` already waiting gets a typed
    /// `busy` response.
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
    /// Requests admitted through the gate and evaluated (busy/quota
    /// rejections excluded).
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

/// The admission gate of one serving run: `slots` evaluations at once,
/// `max_waiting` more requests waiting for a slot, the rest refused.
struct Gate {
    slots: usize,
    max_waiting: usize,
    /// `(running, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
}

/// A held evaluation slot; dropping it frees the slot.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(config: &ServerConfig) -> Self {
        let slots = config.shards.max(1);
        Gate {
            slots,
            max_waiting: slots.saturating_mul(config.queue_depth.max(1)),
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    /// Takes a slot, waiting for one if every slot is taken and the
    /// wait line has room; `None` means the daemon is full.
    fn enter(&self) -> Option<Slot<'_>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.0 >= self.slots {
            if state.1 >= self.max_waiting {
                return None;
            }
            WAITED.inc();
            state.1 += 1;
            while state.0 >= self.slots {
                state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.1 -= 1;
        }
        state.0 += 1;
        Some(Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.state.lock().unwrap_or_else(|e| e.into_inner()).0 -= 1;
        self.0.freed.notify_one();
    }
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
    /// request, removes the socket file, and returns the tally. A stale
    /// socket file from a previous run is replaced.
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
        let gate = Gate::new(&self.config);
        let result: io::Result<()> = std::thread::scope(|scope| {
            let mut conns = Vec::new();
            loop {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        CONNECTIONS.inc();
                        tally.connections.fetch_add(1, Ordering::Relaxed);
                        let (gate, tally) = (&gate, &tally);
                        conns.push(scope.spawn(move || {
                            serve_connection(stream, self, gate, shutdown, tally);
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
            Ok(())
        });
        let _ = std::fs::remove_file(path);
        result.map(|()| tally.snapshot())
    }
}

/// One connection: poll for a header byte (so shutdown is noticed
/// between frames), complete the frame, evaluate it, relay the
/// response.
fn serve_connection<S: Service>(
    mut stream: UnixStream,
    server: &Server<S>,
    gate: &Gate,
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
        let (response, close) = process_request(&bytes, server, gate, &mut served, tally);
        if write_response(&mut stream, response.to_string().as_bytes()).is_err() || close {
            return;
        }
    }
}

/// Envelope-validates one request and runs it through the quota check
/// and the admission gate. Returns the response and whether the
/// connection must close afterwards (quota exhausted).
fn process_request<S: Service>(
    bytes: &[u8],
    server: &Server<S>,
    gate: &Gate,
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
    if *served >= server.config.client_quota {
        QUOTA.inc();
        tally.quota.fetch_add(1, Ordering::Relaxed);
        let e = ServiceError::new(
            "quota",
            format!(
                "per-client quota of {} request(s) exhausted; reconnect for a fresh allowance",
                server.config.client_quota
            ),
        );
        return (error_envelope(&e), true);
    }
    *served += 1;
    let Some(_slot) = gate.enter() else {
        BUSY.inc();
        tally.busy.fetch_add(1, Ordering::Relaxed);
        let e = ServiceError::new("busy", "every slot and wait place is taken; retry later");
        return (error_envelope(&e), false);
    };
    REQUESTS.inc();
    tally.requests.fetch_add(1, Ordering::Relaxed);
    (dispatch(&server.service, &verb, &body), false)
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
