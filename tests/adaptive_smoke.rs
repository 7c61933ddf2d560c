//! End-to-end determinism of `repro adaptive`: the emitted CSVs must be
//! byte-identical between a solo run and a run sharing the worker pool
//! and the session with another experiment — the property that makes
//! the adaptive baselines in EXPERIMENTS.md re-checkable.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const TABLES: [&str; 3] = ["adaptive-policy", "adaptive-sweep", "adaptive-residency"];

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adaptive-smoke-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the `repro` binary and returns the CSVs named by `tables` that
/// it wrote.
fn run_repro(out: &Path, args: &[&str], tables: &[&str]) -> BTreeMap<String, String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env("REPRO_VALUES", "3000")
        .env("REPRO_SEED", "7")
        .env("REPRO_OUT", out);
    let status = cmd.status().expect("repro binary runs");
    assert!(status.success(), "repro {args:?} failed");
    tables
        .iter()
        .map(|id| {
            let path = out.join(format!("{id}.csv"));
            let csv = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
            assert!(csv.lines().count() > 1, "{id}.csv has no data rows");
            (id.to_string(), csv)
        })
        .collect()
}

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    // Solo runs of `table1` then `adaptive`, one after the other into
    // one directory, must write the same CSVs, byte for byte, as one
    // joint run in which the two run in parallel and share the session.
    let mut tables = TABLES.to_vec();
    tables.push("table1");
    let solo_dir = out_dir("solo");
    run_repro(&solo_dir, &["table1"], &["table1"]);
    let solo = run_repro(&solo_dir, &["adaptive"], &tables);
    let joint_dir = out_dir("joint");
    let joint = run_repro(&joint_dir, &["table1", "adaptive"], &tables);
    assert_eq!(solo, joint, "solo vs joint CSVs diverged");
    std::fs::remove_dir_all(&solo_dir).ok();
    std::fs::remove_dir_all(&joint_dir).ok();
}
