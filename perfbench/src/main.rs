//! `perfbench` — the repository's benchmark.
//!
//! It measures the system from outside the program: it times the
//! release `repro` process, drives the `repro serve` daemon over its
//! socket, and links the crates to time calls into their public
//! functions. Three workloads:
//!
//! * `batch-repro` — `repro all` in a fresh process ([`batch`]);
//! * `serve-warm-zipf` — stored-workload evaluations that hit the
//!   daemon's activity store ([`serve`]);
//! * `serve-cold-inline` — inline traces that bypass the store.
//!
//! `--trace 0` reports the workload's end-to-end metrics. `--trace 1` is
//! the separate traced run: it reports every per-layer metric
//! ([`serve::daemon_layers`] and [`layers`]) and notes the tracing
//! overhead. Every run checks the program's outputs; a mismatch counts
//! as a failure and makes the process exit non-zero. The last line on
//! stdout is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this crate.

mod batch;
mod layers;
mod serve;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use busprobe::JsonValue;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["batch-repro", "serve-warm-zipf", "serve-cold-inline"];

/// Scratch space for run outputs, sockets and logs, relative to the
/// checkout root the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// Environment variables that change what `repro` does; children see
/// only the values the benchmark sets.
const REPRO_ENV: [&str; 8] = [
    "REPRO_VALUES",
    "REPRO_SEED",
    "REPRO_OUT",
    "REPRO_METRICS",
    "REPRO_CACHE",
    "REPRO_SERIAL",
    "BUSPROBE",
    "BUSTRAIN_DIR",
];

/// Failure reasons quoted in the report; the rest are only counted.
const MAX_FAILURE_NOTES: u64 = 5;

/// What every workload reads.
pub struct Ctx {
    /// The release `repro` binary under test.
    pub repro: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// How long one run measures, in seconds.
    pub seconds: f64,
}

impl Ctx {
    /// A `repro` command with a clean environment: `values` words per
    /// trace, data seed `seed`, outputs under `out`, no disk cache.
    pub fn repro_command(&self, values: usize, seed: u64, out: &Path) -> Command {
        let mut cmd = Command::new(&self.repro);
        for var in REPRO_ENV {
            cmd.env_remove(var);
        }
        cmd.env("REPRO_VALUES", values.to_string())
            .env("REPRO_SEED", seed.to_string())
            .env("REPRO_OUT", out)
            .stdin(Stdio::null());
        cmd
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    /// Operations attempted: requests sent, or `repro all` runs.
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong answer.
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one failed operation; the first few reasons are quoted.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failed <= MAX_FAILURE_NOTES {
            self.notes.push(format!("FAILED: {}", why.into()));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    write_golden: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: "all".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            repro: PathBuf::from(".bench_build/release/repro"),
            write_golden: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {s}"));
                    }
                    args.seconds = s;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--repro" => args.repro = PathBuf::from(value()?),
                "--write-golden" => args.write_golden = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload `{}` (expected all or one of {})",
                args.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.repro.is_file() {
        eprintln!(
            "perfbench: no repro binary at {}; run through perfbench/run.sh, which builds it",
            args.repro.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: creating {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        repro: args.repro,
        work: PathBuf::from(WORK_DIR),
        seed: args.seed,
        seconds: args.seconds,
    };
    if args.write_golden {
        return match batch::write_golden(&ctx) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let selected: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    println!(
        "provenance: {}",
        provenance(&ctx, &args.workload, args.trace)
    );
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &workload in &selected {
        let mut out = Outcome::default();
        if let Err(e) = measure(&ctx, workload, args.trace, &mut out) {
            out.attempted += 1;
            out.fail(e);
        }
        print_report(workload, args.trace, &out);
        attempted += out.attempted;
        failed += out.failed;
        for mut m in out.metrics {
            if selected.len() > 1 {
                m.name = format!("{workload}.{}", m.name);
            }
            metrics.push(m);
        }
    }
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
fn measure(ctx: &Ctx, workload: &str, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let kind = match workload {
        "serve-warm-zipf" => Some(serve::Kind::Warm),
        "serve-cold-inline" => Some(serve::Kind::Cold),
        _ => None,
    };
    if !traced {
        return match kind {
            Some(kind) => serve::run(ctx, kind, out),
            None => batch::run(ctx, out),
        };
    }
    if kind.is_none() {
        batch::traced(ctx, out)?;
    }
    serve::daemon_layers(ctx, kind, out)?;
    layers::run(ctx, out)
}

/// Where and how the numbers were taken.
fn provenance(ctx: &Ctx, workload: &str, traced: bool) -> JsonValue {
    let output_of = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let text = |s: String| JsonValue::Str(s);
    JsonValue::Obj(vec![
        ("workload".into(), text(workload.to_string())),
        (
            "git_rev".into(),
            text(output_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "available_parallelism".into(),
            int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("nproc".into(), text(output_of("nproc", &[]))),
        ("rustc".into(), text(output_of("rustc", &["--version"]))),
        (
            "repro_values".into(),
            JsonValue::Obj(vec![
                ("batch".into(), int(batch::VALUES as u64)),
                ("daemon".into(), int(serve::VALUES as u64)),
            ]),
        ),
        ("seed".into(), int(ctx.seed)),
        ("batch_repro_seed".into(), int(batch::repro_seed(ctx.seed))),
        ("seconds".into(), JsonValue::Num(ctx.seconds)),
        (
            "daemon".into(),
            JsonValue::Obj(vec![
                ("shards".into(), int(serve::SHARDS as u64)),
                ("queue".into(), int(serve::QUEUE as u64)),
                ("quota".into(), int(serve::QUOTA)),
            ]),
        ),
        ("connections".into(), int(serve::CONNECTIONS as u64)),
        ("inline_words".into(), int(serve::INLINE_WORDS as u64)),
        ("tracing".into(), JsonValue::Bool(traced)),
    ])
}

fn print_report(workload: &str, traced: bool, out: &Outcome) {
    let mode = if traced {
        "traced run: per-layer metrics"
    } else {
        "untraced run: end-to-end metrics"
    };
    println!("== {workload} ({mode}) ==");
    for m in &out.metrics {
        println!("  {:<58} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<58} {:>14.4} ratio ({} failed of {} attempted)",
        "failed_frac", failed_frac, out.failed, out.attempted
    );
    for note in &out.notes {
        println!("  note: {note}");
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> JsonValue {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                JsonValue::Obj(vec![
                    ("value".into(), JsonValue::Num(m.value)),
                    ("unit".into(), JsonValue::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), int(attempted)),
        ("failed".into(), int(failed)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
}

fn int(v: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
}
