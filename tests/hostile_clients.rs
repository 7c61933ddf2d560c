//! Hostile clients against the daemon's request handler: every request
//! a client can send must come back as a typed error, never a panic
//! (answered `internal`) or a process abort, and the service must keep
//! answering afterwards.

use bench::api::{ApiService, EvalRequest, Evaluator};
use bench::workloads::Workload;
use bench::Session;
use busprobe::json::JsonValue;
use busserve::{Server, ServerConfig, Service};
use bustrace::Width;

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
    let server = Server::new(service(), ServerConfig::default());
    // Python's `json.dumps` separates array items with `", "`.
    let send = |bits: u32, words: [u64; 3]| {
        let frame = format!(
            r#"{{"v": 1, "verb": "eval", "schemes": ["identity"], "trace": {{"width": {bits}, "words": [{}]}}}}"#,
            words.map(|w| w.to_string()).join(", ")
        );
        let reply = server.handle_frame(frame.as_bytes());
        busprobe::json::parse(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON")
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
    assert_live(server.service());
}
