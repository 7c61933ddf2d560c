//! Hostile clients against the daemon's request handler: every request
//! a client can send must come back as a typed error, never a panic
//! (answered `internal`) or a process abort, and the service must keep
//! answering afterwards.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::api::{ApiService, EvalRequest, Evaluator, Kind, ENVELOPE, EVAL_FIELDS};
use bench::workloads::Workload;
use bench::Session;
use busprobe::json::JsonValue;
use busserve::{ServeStats, Server, ServerConfig, Service, MAX_FRAME_BYTES};
use bustrace::Width;
use proptest::prelude::*;

fn session() -> Session {
    Session::builder().values(500).seed(3).build()
}

fn service() -> ApiService {
    ApiService::new(session())
}

/// The deterministic half of an eval response, rendered: what must be
/// byte-equal between the daemon and an in-process evaluation.
fn deterministic_half(response: &JsonValue) -> String {
    format!(
        "{}{}",
        response.get("baseline").expect("baseline"),
        response.get("results").expect("results")
    )
}

fn width(bits: u32) -> Width {
    Width::new(bits).expect("valid width")
}

/// Sends one inline eval of `scheme` over a short `bits`-wide trace and
/// returns the error kind.
fn inline_error_kind(service: &ApiService, scheme: &str, bits: u32) -> String {
    let words = (0..64u64).map(|i| width(bits).truncate(i * 5)).collect();
    let request = EvalRequest::inline(width(bits), words, vec![scheme.to_string()]);
    match service.handle("eval", &request.to_json()) {
        Ok(reply) => panic!("{scheme} at {bits} bits was evaluated: {reply}"),
        Err(err) => {
            assert!(
                err.message.contains(scheme),
                "{scheme}: message must name the scheme: {}",
                err.message
            );
            err.kind
        }
    }
}

/// A live `ApiService` daemon on a fresh unix socket; dropping it
/// drains the daemon and joins its thread, which must have served
/// without error unless the test is already failing.
struct Daemon {
    path: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<ServeStats>>>,
}

impl Daemon {
    fn spawn(tag: &str) -> Daemon {
        let path =
            std::env::temp_dir().join(format!("bench-hostile-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let (path, shutdown) = (path.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                Server::new(service(), ServerConfig::default()).serve_unix(&path, &shutdown)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(path.exists(), "daemon never bound {}", path.display());
        Daemon {
            path,
            shutdown,
            handle: Some(handle),
        }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.path).expect("connect to the daemon")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let served = handle.join();
            if !std::thread::panicking() {
                served.expect("daemon thread").expect("serve_unix");
            }
        }
    }
}

/// Sends one raw request payload and parses the reply frame.
fn raw_call(stream: &mut UnixStream, payload: &[u8]) -> JsonValue {
    busserve::write_frame(stream, payload, MAX_FRAME_BYTES).expect("request frame");
    let reply = busserve::read_frame(stream, MAX_FRAME_BYTES)
        .expect("response frame")
        .expect("a reply, not a hang-up");
    busprobe::json::parse(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON")
}

/// `ping` on `stream` must still answer.
fn assert_live_on(stream: &mut UnixStream) {
    let pong = raw_call(stream, br#"{"v":1,"verb":"ping"}"#);
    let result = pong.get("result").and_then(|r| r.get("pong"));
    assert_eq!(result, Some(&JsonValue::Bool(true)), "{pong}");
}

fn assert_live(service: &ApiService) {
    let pong = service
        .handle("ping", &JsonValue::Obj(vec![]))
        .expect("ping");
    assert_eq!(pong.get("pong"), Some(&JsonValue::Bool(true)), "{pong}");
}

#[test]
fn unbuildable_scheme_names_are_typed_unknown_scheme() {
    let service = service();
    for (scheme, bits) in [
        // Sizes that would otherwise allocate hundreds of gigabytes.
        ("window(100000000000)", 32),
        ("stride(100000000000)", 32),
        // Out-of-range parameters the constructors assert on.
        ("window(0)", 32),
        ("fcm(2 2^0)", 32),
        ("context-value(28+0 d0)", 32),
        ("inversion(7ch l1)", 32),
        // In the grammar, but the bus cannot carry them: 66 lines, more
        // ranks than a 2-bit bus has codewords, more chunks than bits.
        ("window(8)", 64),
        ("window(8)", 2),
        ("inversion(6ch l1)", 4),
    ] {
        assert_eq!(
            inline_error_kind(&service, scheme, bits),
            "unknown_scheme",
            "{scheme} at {bits} bits"
        );
        assert_live(&service);
    }
}

#[test]
fn stored_sources_reject_hostile_names_too() {
    let service = service();
    let request = EvalRequest::stored(Workload::Random, vec!["window(100000000000)".into()]);
    let err = service
        .handle("eval", &request.to_json())
        .expect_err("must be rejected");
    assert_eq!(err.kind, "unknown_scheme", "{}", err.message);
    assert!(
        matches!(err.detail.iter().find(|(k, _)| k == "candidates"), Some((_, JsonValue::Arr(items))) if !items.is_empty()),
        "candidates detail missing: {:?}",
        err.detail
    );
    assert_live(&service);
}

#[test]
fn stored_evals_of_a_missing_artifact_synthesize_no_trace() {
    // The scheme is built at the workload's width before its trace is
    // fetched, so a name that cannot be built costs no trace, at any
    // seed.
    let session = session();
    let scheme = "trained:no-such-artifact";
    for seed in 0..3 {
        let request = EvalRequest::stored(Workload::Random, vec![scheme.into()]).seed(seed);
        let err = busserve::ServiceError::from(
            session
                .evaluate(&request)
                .expect_err("a missing artifact cannot be evaluated"),
        );
        assert_eq!(err.kind, "artifact_missing", "{}", err.message);
        assert!(err.message.contains(scheme), "{}", err.message);
    }
    assert_eq!(session.trace_store_len(), 0, "no trace may be generated");
    assert_eq!(session.activity_store_len(), 0);

    let service = ApiService::new(session);
    let request = EvalRequest::stored(Workload::Random, vec![scheme.into()]).seed(7);
    let err = service
        .handle("eval", &request.to_json())
        .expect_err("a missing artifact cannot be evaluated");
    assert_eq!(err.kind, "artifact_missing", "{}", err.message);
    assert_live(&service);
}

#[test]
fn over_wide_inline_words_are_bad_requests() {
    let service = service();
    let request = EvalRequest::inline(width(8), vec![1, 4096, 1, 4096], vec!["identity".into()]);
    let err = service
        .handle("eval", &request.to_json())
        .expect_err("an over-wide word must not be masked and evaluated");
    assert_eq!(err.kind, "bad_request", "{}", err.message);
    assert!(
        err.message.contains("words[1]"),
        "message must name the first over-wide word: {}",
        err.message
    );
    assert_live(&service);
}

#[test]
fn stored_lengths_above_the_word_cap_are_too_large() {
    let service = service();
    let request = EvalRequest::stored(Workload::Random, vec!["identity".into()]).len(1 << 40);
    let err = service
        .handle("eval", &request.to_json())
        .expect_err("a 2^40-word trace must not be generated");
    assert_eq!(err.kind, "too_large", "{}", err.message);
    let words = err.detail.iter().find(|(k, _)| k == "words");
    assert_eq!(
        words.and_then(|(_, v)| v.as_u64()),
        Some(1 << 40),
        "{:?}",
        err.detail
    );
    assert_live(&service);
}

/// Evaluates `request` on a fresh session, expecting the work budget to
/// refuse it before any trace is generated or scheme built, then sends
/// it over the wire and expects the same refusal from a live service.
fn assert_over_budget(request: EvalRequest, work: u64) {
    let session = session();
    let err = session
        .evaluate(&request)
        .expect_err("over the work budget");
    assert_eq!(session.trace_store_len(), 0, "no trace may be generated");
    let err = busserve::ServiceError::from(err);
    assert_eq!(err.kind, "too_large", "{}", err.message);
    let detail = |key: &str| {
        err.detail
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    };
    assert_eq!(detail("work"), Some(work), "{:?}", err.detail);
    assert_eq!(detail("limit"), Some(1 << 30), "{:?}", err.detail);

    let service = ApiService::new(session);
    let wire = service
        .handle("eval", &request.to_json())
        .expect_err("over the work budget");
    assert_eq!(wire.kind, "too_large", "{}", wire.message);
    assert_live(&service);
}

/// The budget is checked first: each request leads with a scheme that
/// cannot be built, so a request that got past it would answer
/// `unknown_scheme` instead.
const UNBUILDABLE: &str = "window(100000000000)";

#[test]
fn many_schemes_over_a_full_size_stored_trace_are_too_large() {
    let mut schemes = vec![UNBUILDABLE.to_string()];
    schemes.extend((0..16).map(|_| "identity".to_string()));
    let request = EvalRequest::stored(Workload::Random, schemes).len(bench::api::MAX_INLINE_WORDS);
    assert_over_budget(request, 17 << 26);
}

#[test]
fn a_scheme_flood_over_a_one_word_trace_is_too_large() {
    let mut schemes = vec![UNBUILDABLE.to_string()];
    schemes.extend((0..19_999).map(|_| "identity".to_string()));
    let request = EvalRequest::inline(width(32), vec![7], schemes);
    assert_over_budget(request, 20_000 * 65_536);
}

#[test]
fn stored_evals_take_the_largest_seed_exactly() {
    let service = service();
    let request = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]).seed(u64::MAX);
    let body = busprobe::json::parse(&request.to_json().to_string()).expect("renders JSON");
    let reply = service
        .handle("eval", &body)
        .expect("a seed above i64::MAX is a seed");
    assert_eq!(
        reply.get("seed").and_then(JsonValue::as_u64),
        Some(u64::MAX),
        "{reply}"
    );
    let direct = session().evaluate(&request).expect("evaluates").to_json();
    assert_eq!(deterministic_half(&reply), deterministic_half(&direct));
    assert_live(&service);
}

#[test]
fn sixty_four_bit_inline_words_are_exact_through_the_daemon() {
    let daemon = Daemon::spawn("u64");
    let mut stream = daemon.connect();
    // Python's `json.dumps` separates array items with `", "`.
    let mut send = |bits: u32, words: [u64; 3]| {
        let frame = format!(
            r#"{{"v": 1, "verb": "eval", "schemes": ["identity"], "trace": {{"width": {bits}, "words": [{}]}}}}"#,
            words.map(|w| w.to_string()).join(", ")
        );
        raw_call(&mut stream, frame.as_bytes())
    };
    let words = [1, u64::MAX, 1 << 63];
    let reply = send(64, words);
    assert_eq!(reply.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
    let result = reply.get("result").expect("result");
    let request = EvalRequest::inline(width(64), words.to_vec(), vec!["identity".into()]);
    let direct = session().evaluate(&request).expect("evaluates").to_json();
    assert_eq!(deterministic_half(result), deterministic_half(&direct));
    // 0 -> 1 -> 2^64-1 -> 2^63 toggles 1 + 63 + 63 lines; a word
    // saturated to i64::MAX on the way would give 63.
    let tau = result.get("baseline").and_then(|b| b.get("tau"));
    assert_eq!(tau.and_then(JsonValue::as_u64), Some(127), "{result}");

    // On a 63-bit bus, 2^63 is refused by name, not masked to 0.
    let reply = send(63, [1, (1 << 63) - 1, 1 << 63]);
    let error = reply.get("error").expect("an error envelope");
    assert_eq!(
        error.get("kind").and_then(JsonValue::as_str),
        Some("bad_request"),
        "{reply}"
    );
    let message = error
        .get("message")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    assert!(message.contains("words[2]"), "{message}");
    assert_live_on(&mut stream);
}

/// The `field` detail of a `bad_request` reply, if that is what it is.
fn refused_field(reply: &JsonValue) -> Option<&str> {
    let error = reply.get("error")?;
    (error.get("kind")?.as_str()? == "bad_request").then_some(())?;
    error.get("field")?.as_str()
}

#[test]
fn misspelt_duplicated_and_conflicting_keys_are_named_by_a_live_daemon() {
    let daemon = Daemon::spawn("fields");
    let mut stream = daemon.connect();
    let stored = r#""v":1,"verb":"eval","schemes":["window(8)"],"workload":"gcc/register""#;
    let inline =
        r#""v":1,"verb":"eval","schemes":["identity"],"trace":{"width":8,"words":[1,2,3]}"#;
    let pricing = r#""pricing":{"tech":"0.13um","length_mm":1"#;
    for (body, field) in [
        (format!(r#"{{{stored},"lamda":2.0}}"#), "lamda"),
        (format!(r#"{{{stored},"sead":5}}"#), "sead"),
        (format!(r#"{{{stored},"pricng":{{}}}}"#), "pricng"),
        (
            r#"{"v":1,"verb":"eval","schemes":["identity"],"trace":{"width":8,"wdith":8,"words":[1]}}"#.to_string(),
            "trace.wdith",
        ),
        (format!(r#"{{{stored},{pricing},"vddd":1}}}}"#), "pricing.vddd"),
        (format!(r#"{{{stored},"seed":1,"seed":2}}"#), "seed"),
        (format!(r#"{{{inline},"workload":"gcc/register"}}"#), "workload"),
        (format!(r#"{{{inline},"seed":5}}"#), "seed"),
    ] {
        let reply = raw_call(&mut stream, body.as_bytes());
        assert_eq!(refused_field(&reply), Some(field), "{body} -> {reply}");
        assert_live_on(&mut stream);
    }
}

/// Valid request bodies the mutation strategies start from: inline and
/// stored evals over the schemes and workloads a client would name,
/// one with every optional stored and pricing field.
const VALID_BODIES: [&str; 5] = [
    r#"{"v":1,"verb":"eval","schemes":["window(8)","identity"],"trace":{"width":32,"words":[1,2,3,1,2,3]}}"#,
    r#"{"v":1,"verb":"eval","schemes":["stride(4)"],"workload":"random","seed":5}"#,
    r#"{"v":1,"verb":"eval","schemes":["context-value(28+8 d4096)"],"workload":"gcc/register","lambda":1.0}"#,
    r#"{"v":1,"verb":"eval","schemes":["workzone(4)"],"trace":{"width":16,"words":[7,9,7]}}"#,
    r#"{"v":1,"verb":"eval","schemes":["window(8)"],"workload":"random","len":300,"cap":200,"seed":2,"lambda":2.5,"pricing":{"tech":"0.13um","style":"unbuffered","length_mm":5.0,"vdd":1.1}}"#,
];

/// Applies byte edits to `text`: ops 0–1 overwrite, 2–3 delete, 6 cuts
/// and the rest insert.
fn edit(text: &mut Vec<u8>, edits: &[(u8, usize, u8)]) {
    for &(op, at, byte) in edits {
        let at = at % (text.len() + 1);
        match op {
            0..=1 if at < text.len() => text[at] = byte,
            2..=3 if at < text.len() => {
                text.remove(at);
            }
            6 => text.truncate(at),
            _ => text.insert(at, byte),
        }
    }
}

/// A valid body with the name of one of its fields, at the top or
/// inside `trace`/`pricing`, edited by one or two bytes into a name its
/// level does not know; with the dotted name the reply must give as
/// its `field`.
fn renamed_key() -> impl Strategy<Value = (Vec<u8>, String)> {
    (
        0..VALID_BODIES.len(),
        any::<usize>(),
        prop::collection::vec((0u8..6, any::<usize>(), 0x20u8..0x7f), 1..3),
    )
        .prop_map(|(pick, at, edits)| {
            let mut body = busprobe::json::parse(VALID_BODIES[pick]).expect("a valid body");
            let JsonValue::Obj(pairs) = &mut body else {
                unreachable!("a body is an object")
            };
            let mut spots = Vec::new();
            for (i, (key, value)) in pairs.iter().enumerate() {
                if ENVELOPE.iter().all(|f| f.name != key) {
                    spots.push((None, i));
                }
                if let JsonValue::Obj(inner) = value {
                    spots.extend((0..inner.len()).map(|j| (Some(i), j)));
                }
            }
            let (parent, j) = spots[at % spots.len()];
            let (prefix, level, known): (String, _, Vec<&str>) = match parent {
                None => {
                    let known = EVAL_FIELDS.iter().chain(ENVELOPE).map(|f| f.name);
                    (String::new(), &mut *pairs, known.collect())
                }
                Some(i) => {
                    let (name, inner) = &mut pairs[i];
                    let field = EVAL_FIELDS.iter().find(|f| f.name == name);
                    let Some(Kind::Obj(nested)) = field.map(|f| f.kind) else {
                        unreachable!("`{name}` is a nested table")
                    };
                    let JsonValue::Obj(inner) = inner else {
                        unreachable!("`{name}` is an object")
                    };
                    (
                        format!("{name}."),
                        inner,
                        nested.iter().map(|f| f.name).collect(),
                    )
                }
            };
            let mut name = level[j].0.clone().into_bytes();
            edit(&mut name, &edits);
            let mut name = String::from_utf8(name).expect("printable ASCII");
            if known.contains(&name.as_str()) {
                // No known name holds a `#`.
                name.push('#');
            }
            level[j].0.clone_from(&name);
            (body.to_string().into_bytes(), format!("{prefix}{name}"))
        })
}

/// A valid body with one or two printable-byte edits (overwrite,
/// delete or insert), and now and then a cut: often still JSON, so
/// many of these reach the evaluator.
fn mutated_body() -> impl Strategy<Value = Vec<u8>> {
    (
        0..VALID_BODIES.len(),
        prop::collection::vec((0u8..7, any::<usize>(), 0x20u8..0x7f), 1..3),
    )
        .prop_map(|(pick, edits)| {
            let mut body = VALID_BODIES[pick].as_bytes().to_vec();
            edit(&mut body, &edits);
            body
        })
}

/// Arbitrary payload bytes, half of them printable so some come close
/// to JSON, mutated valid eval bodies, and valid bodies with one key
/// renamed; the last come with the `field` their refusal must name.
fn hostile_payload() -> impl Strategy<Value = (Vec<u8>, Option<String>)> {
    prop_oneof![
        1 => prop::collection::vec(any::<u8>(), 0..64).prop_map(|b| (b, None)),
        1 => prop::collection::vec(0x20u8..0x7f, 0..64).prop_map(|b| (b, None)),
        2 => mutated_body().prop_map(|b| (b, None)),
        1 => renamed_key().prop_map(|(b, field)| (b, Some(field))),
    ]
}

/// Payloads per connection: two requests each (the payload and a
/// `ping`), well under the daemon's default client quota of 1024.
const PAYLOADS_PER_CONNECTION: usize = 128;

proptest! {
    // One case of 256 payloads, so one daemon answers them all.
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Whatever bytes arrive, the daemon answers a `v:1` envelope whose
    /// error, if any, has a typed kind (never `internal`), a body with
    /// a renamed key is a `bad_request` naming it, and `ping` still
    /// answers on the same connection.
    #[test]
    fn arbitrary_payloads_get_typed_replies_from_a_live_daemon(
        payloads in prop::collection::vec(hostile_payload(), 256),
    ) {
        let daemon = Daemon::spawn("arbitrary");
        for chunk in payloads.chunks(PAYLOADS_PER_CONNECTION) {
            let mut stream = daemon.connect();
            for (payload, renamed) in chunk {
                let shown = String::from_utf8_lossy(payload);
                let reply = raw_call(&mut stream, payload);
                if let Some(field) = renamed {
                    prop_assert_eq!(refused_field(&reply), Some(field.as_str()), "{} -> {}", shown, reply);
                }
                let version = reply.get("v");
                prop_assert_eq!(version, Some(&JsonValue::Int(1)), "{} -> {}", shown, reply);
                match reply.get("ok") {
                    Some(JsonValue::Bool(true)) => {}
                    Some(JsonValue::Bool(false)) => {
                        let kind = reply
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(JsonValue::as_str)
                            .unwrap_or_default();
                        prop_assert!(
                            !kind.is_empty() && kind != "internal",
                            "{} -> {}", shown, reply
                        );
                    }
                    _ => prop_assert!(false, "no `ok` flag: {} -> {}", shown, reply),
                }
                assert_live_on(&mut stream);
            }
        }
    }
}

#[test]
fn workload_names_have_one_spelling() {
    // `phased/0` used to panic in the generator (answered `internal`);
    // the others were aliases of `phased/5`, `phased/7` and `.../64`.
    let service = service();
    for (name, reason) in [
        ("phased/0", "phase must be a positive integer"),
        ("phased/+5", "not the canonical spelling \"phased/5\""),
        ("phased/007", "not the canonical spelling \"phased/7\""),
        (
            "mixed/gcc+perl/register/+64",
            "not the canonical spelling \"mixed/gcc+perl/register/64\"",
        ),
        (
            "mixed/gcc+perl/register/0",
            "quantum must be a positive integer",
        ),
        ("nope/register", "unknown benchmark \"nope\""),
        ("gcc/cache", "unknown bus \"cache\""),
        ("gcc", "expected `<benchmark>/<bus>`"),
    ] {
        let raw = format!(r#"{{"schemes":["identity"],"workload":"{name}"}}"#);
        let body = busprobe::json::parse(&raw).expect("test JSON");
        let err = service.handle("eval", &body).expect_err(name);
        assert_eq!(err.kind, "unknown_workload", "{name}: {}", err.message);
        assert!(err.message.contains(reason), "{name}: {}", err.message);
    }
    assert_live(&service);
}
