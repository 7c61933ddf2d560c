//! Metrics records for the experiment runner.
//!
//! With metrics enabled (`--metrics`), `repro`
//! appends one JSON object per experiment to `<out>/metrics.jsonl` and
//! prints a human-readable summary table on stderr. Every record is
//! read from the busprobe registry, so every span entry has the one
//! shape `{count, total_ns, self_ns, max_ns}`. An experiment's record
//! carries its span subtree (the registry's paths under its root span),
//! whether it ran alone or with others; every run ends with one `_run`
//! record holding the whole-process registry snapshot, and `repro
//! train` writes one registry record of its own. See
//! `docs/OBSERVABILITY.md` for the line format and the metric naming
//! convention.

use std::path::{Path, PathBuf};

use busprobe::{JsonValue, MetricSnapshot};

use crate::{profile, Session};

/// Where the runner streams metric records for this configuration.
pub fn path(session: &Session) -> PathBuf {
    session.out_dir().join("metrics.jsonl")
}

/// Appends one record for `experiment` with the given `metrics` object
/// to [`path`], creating directories as needed. Returns the file
/// written.
fn emit(
    session: &Session,
    experiment: &str,
    wall_s: f64,
    rows: u64,
    metrics: JsonValue,
) -> std::io::Result<PathBuf> {
    let record = JsonValue::Obj(vec![
        ("experiment".into(), JsonValue::Str(experiment.into())),
        ("wall_s".into(), JsonValue::Num(wall_s)),
        ("values".into(), JsonValue::from(session.values() as u64)),
        ("seed".into(), JsonValue::from(session.seed())),
        ("rows".into(), JsonValue::from(rows)),
        ("metrics".into(), metrics),
    ]);
    let file = path(session);
    busprobe::append_jsonl(&file, &record)?;
    Ok(file)
}

/// Prints the stderr summary of `snaps` and appends them as a record; a
/// write failure is a warning, never fatal to the run.
fn publish(session: &Session, experiment: &str, wall_s: f64, rows: u64, snaps: &[MetricSnapshot]) {
    eprint!(
        "--- metrics [{experiment}] ---\n{}",
        busprobe::render_summary(snaps)
    );
    let metrics = busprobe::snapshot_to_json(snaps);
    match emit(session, experiment, wall_s, rows, metrics) {
        Ok(file) => eprintln!("[{experiment}] metrics appended to {}", file.display()),
        Err(err) => eprintln!("warning: could not write metrics for {experiment}: {err}"),
    }
}

/// Publishes experiment `id`'s record: the subtree of the registry
/// snapshot `snaps` under its root span, which stays attributable while
/// sibling experiments run.
pub fn publish_subtree(
    session: &Session,
    snaps: &[MetricSnapshot],
    id: &str,
    wall_s: f64,
    rows: u64,
) {
    publish(session, id, wall_s, rows, &profile::subtree(snaps, id));
}

/// Publishes a whole-process registry snapshot under `experiment` (the
/// runner's `_run` record, `repro train`'s `train` record).
pub fn publish_registry(session: &Session, experiment: &str, wall_s: f64, rows: u64) {
    publish(session, experiment, wall_s, rows, &busprobe::snapshot());
}

/// Validates a metrics.jsonl file: every non-empty line must be a JSON
/// object with a string `experiment` and an object `metrics`. Returns
/// the number of records.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found
/// (unreadable file, empty file, malformed line, or missing key).
pub fn check_file(file: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let mut records = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = busprobe::json::parse(line)
            .map_err(|e| format!("{}:{}: {e}", file.display(), lineno + 1))?;
        let experiment = value.get("experiment").and_then(JsonValue::as_str);
        if experiment.is_none() {
            return Err(format!(
                "{}:{}: record lacks a string `experiment` field",
                file.display(),
                lineno + 1
            ));
        }
        if value.get("metrics").and_then(JsonValue::entries).is_none() {
            return Err(format!(
                "{}:{}: record lacks an object `metrics` field",
                file.display(),
                lineno + 1
            ));
        }
        records += 1;
    }
    if records == 0 {
        return Err(format!("{} contains no metric records", file.display()));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("busprobe-metrics-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn check_rejects_missing_and_malformed() {
        let dir = tmp_dir("check");
        let f = dir.join("missing.jsonl");
        assert!(check_file(&f).is_err());

        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(check_file(&bad).unwrap_err().contains("bad.jsonl:1"));

        let keyless = dir.join("keyless.jsonl");
        std::fs::write(&keyless, "{\"wall_s\":1.0}\n").unwrap();
        assert!(check_file(&keyless).unwrap_err().contains("experiment"));

        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "\n\n").unwrap();
        assert!(check_file(&empty)
            .unwrap_err()
            .contains("no metric records"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_accepts_emitted_records() {
        let dir = tmp_dir("emit");
        let session = Session::builder()
            .values(10)
            .seed(3)
            .out_dir(dir.clone())
            .build();
        let file = emit(&session, "figX", 0.5, 4, JsonValue::Obj(Vec::new())).unwrap();
        let n = check_file(&file).unwrap();
        assert_eq!(n, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
