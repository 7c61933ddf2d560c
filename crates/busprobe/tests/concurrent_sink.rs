//! JSON-lines sink under contention: eight threads appending to one
//! file must produce whole, parseable lines — `append_jsonl` renders
//! each record to a single `write_all` on an `O_APPEND` handle, so
//! writer bytes can never interleave.

use std::path::PathBuf;

use busprobe::{append_jsonl, json, JsonValue};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "busprobe-concurrent-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn eight_concurrent_writers_round_trip() {
    const WRITERS: u64 = 8;
    const RECORDS_PER_WRITER: u64 = 50;

    let path = temp_path("writers");
    let _ = std::fs::remove_file(&path);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let path = path.clone();
            scope.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    // A wide record (the padding array) so a torn write
                    // would be very likely to split mid-line.
                    let record = JsonValue::Obj(vec![
                        ("writer".into(), JsonValue::Int(w as i64)),
                        ("seq".into(), JsonValue::Int(i as i64)),
                        (
                            "padding".into(),
                            JsonValue::Arr(
                                (0..64)
                                    .map(|k| JsonValue::Int(w as i64 * 1000 + k))
                                    .collect(),
                            ),
                        ),
                    ]);
                    append_jsonl(&path, &record).expect("append must succeed");
                }
            });
        }
    });

    let text = std::fs::read_to_string(&path).expect("file written");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len() as u64,
        WRITERS * RECORDS_PER_WRITER,
        "every append is exactly one line"
    );

    // Every line parses, and every (writer, seq) pair arrives once.
    let mut seen = vec![0u64; WRITERS as usize];
    for line in lines {
        let record = json::parse(line).expect("line must be strict JSON");
        let w = record
            .get("writer")
            .and_then(JsonValue::as_u64)
            .expect("writer field") as usize;
        let seq = record
            .get("seq")
            .and_then(JsonValue::as_u64)
            .expect("seq field");
        assert!(seq < RECORDS_PER_WRITER);
        seen[w] += 1;
    }
    assert!(
        seen.iter().all(|&n| n == RECORDS_PER_WRITER),
        "per-writer record counts: {seen:?}"
    );

    let _ = std::fs::remove_file(&path);
}
