//! Hostile clients against the daemon's request handler: every request
//! a client can send must come back as a typed error, never a panic
//! (answered `internal`) or a process abort, and the service must keep
//! answering afterwards.

use bench::api::{ApiService, EvalRequest};
use bench::workloads::Workload;
use bench::Session;
use busprobe::json::JsonValue;
use busserve::Service;
use bustrace::Width;

fn service() -> ApiService {
    ApiService::new(Session::builder().values(500).seed(3).build())
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
