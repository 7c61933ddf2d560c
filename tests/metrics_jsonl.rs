//! End-to-end check of the metrics pipeline: running `repro` with
//! `--metrics` must produce a parseable `metrics.jsonl` whose records
//! carry the expected keys and at least one probe from the harness, in
//! one record shape however many experiments ran.

use std::path::{Path, PathBuf};
use std::process::Command;

use busprobe::JsonValue;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-metrics-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The non-empty lines of `<out>/metrics.jsonl`, parsed.
fn records(out: &Path) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(out.join("metrics.jsonl")).expect("metrics.jsonl written");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| busprobe::json::parse(l).expect("line parses as JSON"))
        .collect()
}

fn experiment(record: &JsonValue) -> Option<&str> {
    record.get("experiment").and_then(JsonValue::as_str)
}

fn run_repro(out: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_VALUES", "2000")
        .env("REPRO_SEED", "1")
        .env("REPRO_OUT", out)
        .output()
        .expect("repro should launch")
}

#[test]
fn fig5_metrics_jsonl_is_valid_and_complete() {
    let out = out_dir("fig5");
    let result = run_repro(&out, &["--metrics", "fig5"]);
    assert!(
        result.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("--- metrics [fig5] ---"),
        "missing stderr summary table:\n{stderr}"
    );

    let records = records(&out);
    let ids: Vec<Option<&str>> = records.iter().map(experiment).collect();
    assert_eq!(
        ids,
        [Some("fig5"), Some("_run")],
        "one experiment record, then the run's registry record"
    );

    let record = &records[0];
    for key in ["wall_s", "values", "seed", "rows"] {
        assert!(
            record.get(key).and_then(JsonValue::as_f64).is_some(),
            "record lacks numeric `{key}`: {record}"
        );
    }
    assert_eq!(record.get("values").and_then(JsonValue::as_u64), Some(2000));

    let metrics = record
        .get("metrics")
        .and_then(JsonValue::entries)
        .expect("metrics object");
    assert!(!metrics.is_empty(), "metrics object is empty");
    // Counters live in the `_run` registry record. The harness itself
    // must contribute one, whatever the experiment exercised.
    let run = records[1].get("metrics").expect("_run metrics object");
    let rows = run
        .get("bench.experiment.rows")
        .and_then(JsonValue::as_u64)
        .expect("bench.experiment.rows counter present");
    assert!(rows > 0, "fig5 produced rows");
    // fig5 sweeps wire lengths, so the wiremodel probes must have fired.
    assert!(
        run.get("wiremodel.wire.builds").is_some(),
        "expected wiremodel.wire.builds in {run}"
    );

    let check = run_repro(&out, &["metrics-check"]);
    assert!(
        check.status.success(),
        "metrics-check rejected the file: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn metrics_off_keeps_output_clean() {
    let out = out_dir("off");
    let result = run_repro(&out, &["fig5"]);
    assert!(result.status.success());
    assert!(
        !out.join("metrics.jsonl").exists(),
        "metrics.jsonl must not appear without --metrics"
    );
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(!stderr.contains("--- metrics"), "no summary expected");
    // The per-experiment timing line is always printed.
    assert!(
        stderr.contains("[fig5] done in") && stderr.contains("row(s)"),
        "timing summary missing:\n{stderr}"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn metrics_check_fails_on_malformed_file() {
    let out = out_dir("bad");
    std::fs::create_dir_all(&out).unwrap();
    std::fs::write(out.join("metrics.jsonl"), "{\"not\": \"a record\"}\n").unwrap();
    let check = run_repro(&out, &["metrics-check"]);
    assert!(
        !check.status.success(),
        "metrics-check must reject records without the required keys"
    );
    std::fs::remove_dir_all(&out).ok();
}

/// An experiment's record keys with the field names of each node.
fn shape(record: &JsonValue) -> Vec<(String, Vec<String>)> {
    record
        .get("metrics")
        .and_then(JsonValue::entries)
        .expect("metrics object")
        .iter()
        .map(|(key, node)| {
            let fields = node
                .entries()
                .unwrap_or_else(|| panic!("`{key}` is not a span node: {node}"))
                .iter()
                .map(|(field, _)| field.clone())
                .collect();
            (key.clone(), fields)
        })
        .collect()
}

#[test]
fn an_experiment_record_has_one_shape_alone_or_with_others() {
    let mut shapes = Vec::new();
    for (tag, args) in [
        ("solo", &["--metrics", "fig5"][..]),
        ("joint", &["--metrics", "fig5", "table1"][..]),
    ] {
        let out = out_dir(tag);
        let result = run_repro(&out, args);
        assert!(result.status.success(), "repro {args:?} failed");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(stderr.contains("--- metrics [fig5] ---\n"), "{stderr}");
        let records = records(&out);
        let runs: Vec<usize> = (0..records.len())
            .filter(|&i| experiment(&records[i]) == Some("_run"))
            .collect();
        assert_eq!(runs, [records.len() - 1], "exactly one `_run`, last");
        let fig5 = records
            .iter()
            .find(|r| experiment(r) == Some("fig5"))
            .expect("fig5 record");
        shapes.push(shape(fig5));
        std::fs::remove_dir_all(&out).ok();
    }
    assert!(
        shapes[0]
            .iter()
            .any(|(key, fields)| key == "wiremodel.repeater.plan"
                && fields == &["count", "total_ns", "self_ns", "max_ns"]),
        "{:?}",
        shapes[0]
    );
    assert_eq!(shapes[0], shapes[1], "fig5's record depends on its company");
}
