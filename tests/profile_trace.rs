//! End-to-end checks of the `repro profile` subcommand and the parallel
//! metrics mode: the emitted Chrome trace must satisfy the trace-event
//! schema (matched B/E pairs, monotonic timestamps), and each parallel
//! metrics record must carry only its own experiment's span subtree.

use std::path::PathBuf;
use std::process::Command;

use busprobe::{trace, JsonValue};

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-profile-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_repro(out: &PathBuf, values: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_VALUES", values)
        .env("REPRO_SEED", "1")
        .env("REPRO_OUT", out)
        .output()
        .expect("repro should launch")
}

#[test]
fn profile_fig16_emits_a_valid_chrome_trace() {
    let out = out_dir("fig16");
    let result = run_repro(&out, "2000", &["profile", "fig16"]);
    assert!(
        result.status.success(),
        "repro profile failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );

    let text = std::fs::read_to_string(out.join("trace-fig16.json")).expect("trace written");
    let doc = busprobe::json::parse(text.trim_end()).expect("trace is strict JSON");
    let pairs = trace::validate_chrome(&doc).expect("trace-event schema violations");
    assert!(pairs > 0, "trace must contain spans");

    // The span tree must reach the instrumented layers: the root
    // experiment span, trace synthesis, and the encode path.
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        other => panic!("traceEvents missing: {other:?}"),
    };
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for expected in [
        "fig16",
        "buscoding.codec.evaluate_blocks",
        "bench.workload.trace",
    ] {
        assert!(
            names.contains(&expected),
            "no `{expected}` span among {names:?}"
        );
    }
    // Counter capture is on in profile mode: the encode spans must
    // carry values-encoded deltas in their E-event args.
    let rendered = doc.to_string();
    assert!(
        rendered.contains("buscoding.codec.values_encoded"),
        "expected counter deltas attached to spans"
    );

    // Folded stacks: `seg;seg value` lines, parseable and non-empty.
    let folded = std::fs::read_to_string(out.join("trace-fig16.folded")).expect("folded written");
    let lines: Vec<&str> = folded.lines().collect();
    assert!(!lines.is_empty(), "folded stacks must not be empty");
    for line in &lines {
        let (stack, value) = line.rsplit_once(' ').expect("`stack value` format");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("self-time value");
    }
    assert!(
        folded.contains("fig16;"),
        "stacks are rooted at the experiment: {folded}"
    );

    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn parallel_metrics_mode_attributes_span_subtrees() {
    let out = out_dir("parmetrics");
    let result = run_repro(&out, "2000", &["--metrics", "fig5", "fig16"]);
    assert!(
        result.status.success(),
        "parallel metrics run failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("parallel"),
        "two experiments with metrics must run parallel now:\n{stderr}"
    );

    let text = std::fs::read_to_string(out.join("metrics.jsonl")).expect("metrics.jsonl written");
    let records: Vec<JsonValue> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| busprobe::json::parse(l).expect("line parses"))
        .collect();
    let by_id = |id: &str| {
        records
            .iter()
            .find(|r| r.get("experiment").and_then(JsonValue::as_str) == Some(id))
            .unwrap_or_else(|| panic!("no `{id}` record"))
    };
    // Per-experiment records carry only that experiment's span subtree.
    // The sweeps now run through `bench::api`, so encode spans sit under
    // a `bench.api.evaluate` segment — match by segment, not full path.
    let has_span = |metrics: &JsonValue, leaf: &str| match metrics {
        JsonValue::Obj(pairs) => pairs
            .iter()
            .any(|(k, _)| k.split('/').any(|segment| segment == leaf)),
        _ => false,
    };
    let fig16 = by_id("fig16").get("metrics").expect("metrics object");
    assert!(
        has_span(fig16, "buscoding.codec.evaluate_blocks"),
        "fig16 subtree must contain its encode spans: {fig16}"
    );
    let fig5 = by_id("fig5").get("metrics").expect("metrics object");
    assert!(
        !has_span(fig5, "buscoding.codec.evaluate_blocks"),
        "fig5 ran no encoders; subtree must not leak fig16's spans: {fig5}"
    );
    assert!(fig5.get("wiremodel.repeater.plan").is_some(), "{fig5}");
    // The _run record carries the whole-process counter registry.
    let run = by_id("_run").get("metrics").expect("metrics object");
    assert!(
        run.get("buscoding.codec.values_encoded").is_some(),
        "_run must snapshot process-wide counters: {run}"
    );
    // And the file as a whole satisfies `repro metrics-check`.
    let check = run_repro(&out, "2000", &["metrics-check"]);
    assert!(check.status.success());
    std::fs::remove_dir_all(&out).ok();
}
