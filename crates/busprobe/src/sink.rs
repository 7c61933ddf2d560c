//! Sinks: a human-readable summary table and a JSON-lines stream.

use std::io::Write as _;
use std::path::Path;

use crate::json::JsonValue;
use crate::registry::{histogram_percentile, MetricKind, MetricSnapshot};

/// Renders the snapshot as an aligned, human-readable table, sorted by
/// metric path so summary diffs are stable regardless of snapshot
/// order. Metrics with nothing recorded (zero counters, empty
/// histograms/spans) are skipped so the summary stays readable; spans
/// show count, total, self, mean and max, histograms show count, mean,
/// p50/p95/p99, and the populated buckets.
pub fn render_summary(snaps: &[MetricSnapshot]) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for s in snaps {
        match &s.kind {
            MetricKind::Counter { value } => {
                if *value > 0 {
                    rows.push((s.name.clone(), format!("{value}")));
                }
            }
            MetricKind::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                if *count == 0 {
                    continue;
                }
                let mean = *sum as f64 / *count as f64;
                let mut detail = format!("n={count} mean={mean:.1}");
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    if let Some(v) = histogram_percentile(bounds, buckets, q) {
                        detail.push_str(&format!(" {label}={v:.1}"));
                    }
                }
                for (i, &n) in buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    match bounds.get(i) {
                        Some(b) => detail.push_str(&format!(" le{b}:{n}")),
                        None => detail.push_str(&format!(" inf:{n}")),
                    }
                }
                rows.push((s.name.clone(), detail));
            }
            MetricKind::Span {
                count,
                total_ns,
                self_ns,
                max_ns,
            } => {
                if *count == 0 {
                    continue;
                }
                let total_ms = *total_ns as f64 / 1e6;
                let self_ms = *self_ns as f64 / 1e6;
                let mean_us = *total_ns as f64 / *count as f64 / 1e3;
                let max_us = *max_ns as f64 / 1e3;
                rows.push((
                    s.name.clone(),
                    format!(
                        "n={count} total={total_ms:.2}ms self={self_ms:.2}ms mean={mean_us:.1}us \
                         max={max_us:.1}us"
                    ),
                ));
            }
        }
    }
    if rows.is_empty() {
        return "(no metrics recorded)\n".to_string();
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let name_width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (name, value) in rows {
        out.push_str(&format!("  {name:<name_width$}  {value}\n"));
    }
    out
}

/// Converts a snapshot into a flat JSON object: counters become
/// integers, spans become `{count, total_ns, self_ns, max_ns}`, histograms
/// become `{count, sum, p50, p95, p99, buckets: {"le_<bound>": n,
/// "inf": n}}`. Metrics with nothing recorded are omitted, matching
/// the summary.
pub fn snapshot_to_json(snaps: &[MetricSnapshot]) -> JsonValue {
    let mut pairs = Vec::new();
    for s in snaps {
        match &s.kind {
            MetricKind::Counter { value } => {
                if *value > 0 {
                    pairs.push((s.name.clone(), JsonValue::from(*value)));
                }
            }
            MetricKind::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                if *count == 0 {
                    continue;
                }
                let mut bucket_pairs = Vec::new();
                for (i, &n) in buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let key = match bounds.get(i) {
                        Some(b) => format!("le_{b}"),
                        None => "inf".to_string(),
                    };
                    bucket_pairs.push((key, JsonValue::from(n)));
                }
                let mut obj = vec![
                    ("count".into(), JsonValue::from(*count)),
                    ("sum".into(), JsonValue::from(*sum)),
                ];
                for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                    if let Some(v) = histogram_percentile(bounds, buckets, q) {
                        obj.push((label.into(), JsonValue::Num(v)));
                    }
                }
                obj.push(("buckets".into(), JsonValue::Obj(bucket_pairs)));
                pairs.push((s.name.clone(), JsonValue::Obj(obj)));
            }
            MetricKind::Span {
                count,
                total_ns,
                self_ns,
                max_ns,
            } => {
                if *count == 0 {
                    continue;
                }
                pairs.push((
                    s.name.clone(),
                    JsonValue::Obj(vec![
                        ("count".into(), JsonValue::from(*count)),
                        ("total_ns".into(), JsonValue::from(*total_ns)),
                        ("self_ns".into(), JsonValue::from(*self_ns)),
                        ("max_ns".into(), JsonValue::from(*max_ns)),
                    ]),
                ));
            }
        }
    }
    JsonValue::Obj(pairs)
}

/// Appends one record as a single line to a JSON-lines file, creating
/// the file and its parent directory as needed.
///
/// The line is rendered in memory and appended with one `write_all`, so
/// concurrent appenders (O_APPEND semantics) never interleave bytes
/// within each other's lines.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_jsonl(path: &Path, record: &JsonValue) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = record.to_string();
    line.push('\n');
    file.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Vec<MetricSnapshot> {
        vec![
            MetricSnapshot {
                name: "a.counter".into(),
                kind: MetricKind::Counter { value: 7 },
            },
            MetricSnapshot {
                name: "a.zero".into(),
                kind: MetricKind::Counter { value: 0 },
            },
            MetricSnapshot {
                name: "b.hist".into(),
                kind: MetricKind::Histogram {
                    bounds: vec![1, 10],
                    buckets: vec![2, 0, 1],
                    count: 3,
                    sum: 102,
                },
            },
            MetricSnapshot {
                name: "c.span".into(),
                kind: MetricKind::Span {
                    count: 2,
                    total_ns: 3_000_000,
                    self_ns: 1_000_000,
                    max_ns: 2_000_000,
                },
            },
        ]
    }

    #[test]
    fn summary_skips_empty_metrics() {
        let table = render_summary(&sample());
        assert!(table.contains("a.counter"));
        assert!(!table.contains("a.zero"));
        assert!(table.contains("le1:2"));
        assert!(table.contains("inf:1"));
        assert!(table.contains("total=3.00ms self=1.00ms"));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let obj = snapshot_to_json(&sample());
        let parsed = json::parse(&obj.to_string()).unwrap();
        assert_eq!(parsed.get("a.counter").unwrap().as_u64(), Some(7));
        assert!(parsed.get("a.zero").is_none());
        let hist = parsed.get("b.hist").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(
            hist.get("buckets").unwrap().get("le_1").unwrap().as_u64(),
            Some(2)
        );
        let span = parsed.get("c.span").unwrap();
        let fields: Vec<&str> = span
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["count", "total_ns", "self_ns", "max_ns"]);
        assert_eq!(span.get("total_ns").unwrap().as_u64(), Some(3_000_000));
        assert_eq!(span.get("self_ns").unwrap().as_u64(), Some(1_000_000));
    }

    #[test]
    fn summary_is_sorted_by_path() {
        let mut snaps = sample();
        snaps.reverse();
        let table = render_summary(&snaps);
        let rows: Vec<&str> = table.lines().collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted, "summary rows must come out path-sorted");
    }

    #[test]
    fn summary_and_json_carry_percentiles() {
        let table = render_summary(&sample());
        // b.hist: bounds [1,10], buckets [2,0,1] → p50 inside le_1,
        // p99 in the overflow bucket clamps to the last bound.
        assert!(table.contains("p50=0.8"), "{table}");
        assert!(table.contains("p99=10.0"), "{table}");
        let obj = snapshot_to_json(&sample());
        let parsed = json::parse(&obj.to_string()).unwrap();
        let hist = parsed.get("b.hist").unwrap();
        assert_eq!(hist.get("p99").unwrap().as_f64(), Some(10.0));
        assert!(hist.get("p50").unwrap().as_f64().unwrap() <= 1.0);
        assert!(parsed.get("c.span").unwrap().get("p50").is_none());
    }

    #[test]
    fn append_jsonl_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("busprobe-sink-{}", std::process::id()));
        let path = dir.join("metrics.jsonl");
        let _ = std::fs::remove_file(&path);
        let rec = snapshot_to_json(&sample());
        append_jsonl(&path, &rec).unwrap();
        append_jsonl(&path, &rec).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            json::parse(line).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
