//! End-to-end train→deploy test: `bustrain`-fitted tables persisted as
//! a versioned artifact must resolve through the scheme registry as
//! `trained:<name>` and price traffic identically through every front
//! end — the session activity store, a direct codec evaluation, and the
//! [`bench::api`] service surface — while an absent artifact surfaces
//! as the typed `artifact_missing` wire error, never a panic.
//!
//! One in-process test function on purpose: the trained-artifact
//! directory is process-global state (`set_artifact_dir`), so the
//! missing-artifact and deployed-artifact halves must run in sequence,
//! not as racing `#[test]` siblings. The `repro` round trip below runs
//! in child processes and never touches that state.

use std::sync::Arc;

use bench::api::{ApiService, EvalRequest, Evaluator};
use bench::training::{resolve_corpus, train_with_session};
use bench::workloads::Workload;
use bench::{ActivityQuery, Session, TraceKey};
use buscoding::predict::trained::{
    artifact_dir, artifact_file_name, set_artifact_dir, ArtifactError,
};
use buscoding::predict::trained_codec;
use buscoding::{evaluate_blocks, scheme_by_name, scheme_candidates};
use busprobe::json::JsonValue;
use busserve::Service;
use bustrace::Width;

const VALUES: usize = 2_000;
const SEED: u64 = 7;

fn make_session(dir: &std::path::Path) -> Session {
    Session::builder()
        .values(VALUES)
        .seed(SEED)
        .out_dir(dir)
        .build()
}

/// The deterministic half of an eval response: baseline and results,
/// excluding provenance/timing (same split CI's canon uses).
fn deterministic_bytes(result: &JsonValue) -> String {
    let results = result.get("results").expect("results array");
    let baseline = result.get("baseline").expect("baseline object");
    format!("{baseline}|{results}")
}

#[test]
fn trained_artifacts_deploy_through_every_front_end() {
    let out = std::env::temp_dir().join(format!("train-deploy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let session = make_session(&out);
    set_artifact_dir(out.join("trained"));
    let dir = artifact_dir();

    let workload = Workload::parse("mixed/gcc+perl/register/64").expect("mixed workload parses");
    let request = EvalRequest::stored(workload, vec!["trained:demo".into()]);
    let service = ApiService::new(make_session(&out));

    // Before anything is trained: a typed Missing error at the registry
    // layer and the `artifact_missing` kind over the service surface.
    let err = scheme_by_name("trained:demo", Width::W32).expect_err("nothing trained yet");
    assert!(
        matches!(err.artifact_error(), Some(ArtifactError::Missing { .. })),
        "{err}"
    );
    assert!(err.to_string().contains("repro train"), "{err}");
    let wire = service
        .handle("eval", &request.to_json())
        .expect_err("daemon rejects the untrained scheme");
    assert_eq!(wire.kind, "artifact_missing", "{}", wire.message);
    assert!(
        !scheme_candidates().iter().any(|c| c == "trained:demo"),
        "untrained artifacts must not be advertised"
    );

    // Train the built-in demo corpus and persist the artifact exactly
    // as `repro train demo` would.
    let corpus = resolve_corpus(&session, "demo").expect("built-in corpus");
    let tables = train_with_session(&session, &corpus).expect("demo corpus trains");
    let path = bustrain::save_trained(&tables, &dir).expect("artifact writes");
    assert_eq!(
        path.file_name().and_then(|n| n.to_str()),
        Some(artifact_file_name("demo").as_str())
    );

    // The artifact is now a first-class scheme: advertised as a
    // candidate and resolved by the registry.
    assert!(
        scheme_candidates().iter().any(|c| c == "trained:demo"),
        "{:?}",
        scheme_candidates()
    );
    assert!(scheme_by_name("trained:demo", Width::W32).is_ok());

    // The activity store prices it identically to a direct evaluation
    // of the in-memory tables — the artifact round-trip changed
    // nothing.
    let via_store = session.activity(&ActivityQuery::new("trained:demo", workload));
    let trace = session.trace_at(&TraceKey::new(workload, VALUES, SEED));
    let (mut enc, _dec) = trained_codec(Arc::new(tables));
    let direct = evaluate_blocks(&mut enc, &trace);
    assert_eq!(via_store, direct);

    // Batch (Evaluator) and daemon (ApiService) answers agree byte for
    // byte on the deterministic half — same guarantee CI enforces for
    // the static schemes.
    let golden = session.evaluate(&request).expect("batch eval").to_json();
    let served = service
        .handle("eval", &request.to_json())
        .expect("served eval");
    assert_eq!(deterministic_bytes(&golden), deterministic_bytes(&served));

    // And a second serve is warm-cache identical.
    let warm = service
        .handle("eval", &request.to_json())
        .expect("warm eval");
    assert_eq!(deterministic_bytes(&served), deterministic_bytes(&warm));

    let _ = std::fs::remove_dir_all(&out);
}

/// `repro train` must write where `trained:` schemes read: the
/// artifact lands in `$REPRO_OUT/trained` and a later `repro eval`
/// finds it there, whatever stray environment (here `BUSTRAIN_DIR`,
/// which nothing reads) points elsewhere.
#[test]
fn repro_train_then_eval_round_trips_through_one_directory() {
    let out = std::env::temp_dir().join(format!("train-eval-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let repro = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("REPRO_VALUES", VALUES.to_string())
            .env("REPRO_SEED", SEED.to_string())
            .env("REPRO_OUT", &out)
            .env("BUSTRAIN_DIR", out.join("elsewhere"))
            .output()
            .expect("repro runs");
        assert!(
            output.status.success(),
            "repro {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("UTF-8 stdout")
    };

    let saved = repro(&["train", "demo"]);
    assert_eq!(
        std::path::Path::new(saved.trim()),
        out.join("trained").join(artifact_file_name("demo"))
    );
    let body = out.join("request.json");
    let request = r#"{"schemes":["trained:demo"],"workload":"mixed/gcc+perl/register/64"}"#;
    std::fs::write(&body, request).expect("request written");
    let answer = repro(&["eval", body.to_str().expect("UTF-8 temp path")]);
    let response = busprobe::json::parse(answer.trim()).expect("eval answers JSON");
    assert!(response.get("results").is_some(), "{response}");
    assert!(!out.join("elsewhere").exists());

    let _ = std::fs::remove_dir_all(&out);
}
