//! `batch-repro`: one `repro all` per run, in a fresh process with a
//! fresh `REPRO_OUT`, the default 200 000 values per trace and no disk
//! cache — the run a researcher reproducing the paper makes. Its time
//! goes to trace synthesis, encoding and accumulation; none goes to
//! serving.
//!
//! Every run's CSVs are digested and compared with the golden digests
//! committed under `golden/`; one failed experiment or one mismatching
//! CSV fails the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Instant;

use busprobe::JsonValue;

use crate::{stats, sys, Ctx, Outcome};

/// Values per trace: `repro`'s default.
pub const VALUES: usize = 200_000;

/// How many `REPRO_SEED`s the golden file covers; `--seed n` runs
/// `repro` at `REPRO_SEED = n % GOLDEN_SEEDS + 1`.
const GOLDEN_SEEDS: u64 = 8;

/// The committed golden digests, written by `--write-golden`.
const GOLDEN: &str = include_str!("../golden/batch-v200000.txt");
const GOLDEN_PATH: &str = "perfbench/golden/batch-v200000.txt";

/// `repro list` start-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 25;

/// The `REPRO_SEED` a benchmark seed maps to.
pub fn repro_seed(seed: u64) -> u64 {
    seed % GOLDEN_SEEDS + 1
}

/// One finished `repro all`: its wall time and output directory.
struct Run {
    wall_s: f64,
    out: PathBuf,
}

/// The untraced run: `repro all` as many whole times as fit the
/// measuring time (at least once), every run checked.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = repro_seed(ctx.seed);
    let (setup_s, experiments) = set_up(ctx)?;
    let mut walls = Vec::new();
    let start = Instant::now();
    loop {
        out.attempted += 1;
        match repro_all(ctx, seed, "run", false).and_then(|run| {
            let checked = check(&run, seed);
            remove(&run.out);
            checked.map(|()| run.wall_s)
        }) {
            Ok(wall) => walls.push(wall),
            Err(e) => {
                out.fail(e);
                return Ok(());
            }
        }
        // Start another run only while it is expected to end in time.
        let expected_end = start.elapsed().as_secs_f64() + walls[walls.len() - 1];
        if expected_end > ctx.seconds * 1.1 {
            break;
        }
    }
    let wall = stats::median(&walls);
    let slowest = walls.iter().copied().fold(0.0, f64::max);
    let peak = sys::children_peak_rss_mb().ok_or("getrusage failed")?;
    out.metric("setup_s", setup_s, "s");
    out.metric("wall_s", wall, "s");
    out.metric("req_per_s", experiments as f64 / wall, "1/s");
    out.metric("p50_ms", wall * 1e3, "ms");
    out.metric("peak_rss_mb", peak, "MB");
    out.note(format!(
        "REPRO_SEED={seed} REPRO_VALUES={VALUES}: {} run(s) of `repro all`, walls {}",
        walls.len(),
        seconds_list(&walls)
    ));
    out.note(format!(
        "req_per_s counts experiments finished per second of a run ({experiments} per run); \
         p50_ms is the median run wall; the slowest run took {:.3} s",
        slowest
    ));
    out.note(format!(
        "setup_s: median of {SETUP_SAMPLES} `repro list` start-ups (process start plus the \
         experiment registry); peak_rss_mb: largest ru_maxrss among the repro children"
    ));
    Ok(())
}

/// The batch half of the traced run: one plain `repro all`, then one
/// with `--metrics`. The second run's per-experiment span records give
/// the layer split; its wall minus the plain wall is the tracing
/// overhead.
pub fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = repro_seed(ctx.seed);
    let mut walls = [0.0; 2];
    for (i, metrics) in [false, true].into_iter().enumerate() {
        out.attempted += 1;
        let run = repro_all(ctx, seed, if metrics { "traced" } else { "plain" }, metrics)?;
        if let Err(e) = check(&run, seed) {
            out.fail(e);
        }
        walls[i] = run.wall_s;
        let split = if metrics {
            blame(&run.out, out)
        } else {
            Ok(())
        };
        remove(&run.out);
        split?;
    }
    out.note(format!(
        "batch tracing overhead: `repro --metrics all` took {:.3} s against {:.3} s untraced \
         ({:+.3} s, {:+.1}%)",
        walls[1],
        walls[0],
        walls[1] - walls[0],
        100.0 * (walls[1] / walls[0] - 1.0)
    ));
    Ok(())
}

/// Sums self time per layer over the span records `repro --metrics`
/// wrote, classified by `bench::profile::phase_of`.
fn blame(dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let path = dir.join("metrics.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = busprobe::json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("experiment").and_then(JsonValue::as_str) == Some("_run") {
            continue;
        }
        let Some(spans) = record.get("metrics").and_then(JsonValue::entries) else {
            continue;
        };
        for (span, node) in spans {
            let self_ns = node.get("self_ns").and_then(JsonValue::as_u64);
            if let (Some(layer), Some(self_ns)) = (bench::profile::phase_of(span), self_ns) {
                *layers.entry(layer).or_default() += self_ns as f64 / 1e9;
            }
        }
    }
    let total: f64 = layers.values().sum();
    if total <= 0.0 {
        return Err(format!("no span self time in {}", path.display()));
    }
    let mut ranked: Vec<(&str, f64)> = layers.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.note(format!(
        "batch layer split (span self time from repro's own --metrics records, summed over \
         experiments and threads, so it can exceed the wall): {}",
        ranked
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.2} s ({:.0}%)", 100.0 * s / total))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if ranked[0].0 != "encode" {
        out.note("WARNING: encode does not dominate the batch layer time");
    }
    Ok(())
}

/// Regenerates the golden file: `repro all` at every golden seed.
pub fn write_golden(ctx: &Ctx) -> Result<(), String> {
    let mut text = format!(
        "# batch-repro golden digests: FNV-1a 64 of each CSV `repro all` writes at \
         REPRO_VALUES={VALUES}.\n# Regenerate with `bash perfbench/run.sh --write-golden` \
         after an intended change to the outputs.\n# REPRO_SEED file digest\n"
    );
    for seed in 1..=GOLDEN_SEEDS {
        let run = repro_all(ctx, seed, "golden", false)?;
        let digests = digest_csvs(&run.out);
        remove(&run.out);
        let digests = digests?;
        for (name, digest) in &digests {
            text.push_str(&format!("{seed} {name} {digest:016x}\n"));
        }
        eprintln!(
            "[golden] REPRO_SEED={seed}: {} CSVs in {:.1} s",
            digests.len(),
            run.wall_s
        );
    }
    std::fs::write(GOLDEN_PATH, text).map_err(|e| format!("writing {GOLDEN_PATH}: {e}"))
}

/// Times `repro list` start-ups and counts the registered experiments.
fn set_up(ctx: &Ctx) -> Result<(f64, usize), String> {
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    let mut experiments = 0;
    for _ in 0..SETUP_SAMPLES {
        let mut cmd = ctx.repro_command(VALUES, 1, &ctx.work.join("batch-list"));
        cmd.arg("list").stderr(Stdio::null());
        let start = Instant::now();
        let listed = cmd.output().map_err(|e| format!("starting repro: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        if !listed.status.success() {
            return Err(format!("`repro list` exited with {}", listed.status));
        }
        experiments = listed
            .stdout
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .count();
    }
    Ok((stats::median(&times), experiments))
}

/// Runs `repro all` into a fresh `<work>/batch-<tag>` and checks that
/// it exited cleanly.
fn repro_all(ctx: &Ctx, seed: u64, tag: &str, metrics: bool) -> Result<Run, String> {
    let out = ctx.work.join(format!("batch-{tag}"));
    remove(&out);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let log_path = ctx.work.join(format!("batch-{tag}.log"));
    let log = std::fs::File::create(&log_path)
        .map_err(|e| format!("creating {}: {e}", log_path.display()))?;
    let mut cmd = ctx.repro_command(VALUES, seed, &out);
    if metrics {
        cmd.arg("--metrics");
    }
    cmd.arg("all").stdout(Stdio::null()).stderr(log);
    let start = Instant::now();
    let status = cmd.status().map_err(|e| format!("starting repro: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!(
            "`repro all` at REPRO_SEED={seed} exited with {status}; see {}",
            log_path.display()
        ));
    }
    Ok(Run { wall_s, out })
}

/// Compares a run's CSVs with the golden digests for `seed`.
fn check(run: &Run, seed: u64) -> Result<(), String> {
    let got = digest_csvs(&run.out)?;
    let want = golden(seed);
    if want.is_empty() {
        return Err(format!(
            "{GOLDEN_PATH} has no digests for REPRO_SEED={seed}"
        ));
    }
    let mut wrong: Vec<String> = want
        .iter()
        .filter(|&(name, digest)| got.get(name) != Some(digest))
        .map(|(name, _)| name.clone())
        .collect();
    wrong.extend(got.keys().filter(|name| !want.contains_key(*name)).cloned());
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "CSV digest mismatch at REPRO_SEED={seed}: {}",
            wrong.join(", ")
        ))
    }
}

/// The golden digests for one `REPRO_SEED`, by file name.
fn golden(seed: u64) -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let line_seed: u64 = fields.next()?.parse().ok()?;
            let name = fields.next()?;
            let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
            (line_seed == seed).then(|| (name.to_string(), digest))
        })
        .collect()
}

/// FNV-1a digests of every CSV directly under `dir`, by file name.
fn digest_csvs(dir: &Path) -> Result<BTreeMap<String, u64>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut digests = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|ext| ext == "csv") {
            let bytes =
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            let name = path
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            digests.insert(name, fnv1a(&bytes));
        }
    }
    if digests.is_empty() {
        return Err(format!("`repro all` wrote no CSV under {}", dir.display()));
    }
    Ok(digests)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn seconds_list(walls: &[f64]) -> String {
    walls
        .iter()
        .map(|w| format!("{w:.3} s"))
        .collect::<Vec<_>>()
        .join(", ")
}
