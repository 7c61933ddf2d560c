//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                   # show every experiment
//! repro fig18 table3 ...       # run selected experiments
//! repro all                    # run everything
//! repro --metrics fig18        # also record instrumentation metrics
//! repro metrics-check [file]   # validate a metrics.jsonl file
//! repro profile fig16 ...      # hierarchical trace profile per experiment
//! repro eval <file|->          # answer one eval request (JSON in, JSON out)
//! repro train <corpus>         # fit predictor tables, write trained/<name>-v1.bin
//! repro serve --socket <path>  # resident daemon over a unix socket
//! ```
//!
//! Environment: `REPRO_VALUES` (trace length, default 200000),
//! `REPRO_SEED` (default 1), `REPRO_OUT` (CSV directory, default
//! `results/`). Figure-class experiments additionally render SVG
//! charts into `<out>/plots/`.
//!
//! Every selection runs through one runner ([`run`]): the experiments
//! share one [`Session`], so every trace is generated at most once per
//! run no matter how many experiments ask for it, and they run
//! concurrently on the worker pool, each under a root trace span named
//! by its id (a single experiment is a one-item map). Console tables
//! and timing lines are always emitted in registry order, so a joint
//! run is byte-identical to separate solo runs.
//!
//! With metrics on, the run starts from a zeroed registry and, once it
//! is over, takes one registry snapshot: each experiment appends one
//! JSON record to `<out>/metrics.jsonl` carrying the span subtree under
//! its root span and prints that subtree as a summary table on stderr,
//! and the run ends with one `_run` record holding the whole-process
//! registry snapshot; see `docs/OBSERVABILITY.md`.
//!
//! `repro profile <exp>` calls the same runner once per experiment with
//! the hierarchical trace recorder and counter capture on, and writes
//! the recorded timeline to `<out>/trace-<id>.json` (Chrome trace-event
//! format — load in `chrome://tracing` or <https://ui.perfetto.dev>),
//! the registry's self times to `<out>/trace-<id>.folded` (folded
//! stacks for flamegraph tooling), and prints a per-phase breakdown.
//! See the profiling section of `docs/OBSERVABILITY.md`. Benchmarks are
//! not a subcommand: `perfbench/` times this binary and its daemon from
//! outside (see `perfbench/README.md`).
//!
//! `repro eval` and `repro serve` are the two service front ends over
//! [`bench::api`]: `eval` answers one request body in-process (the
//! golden path CI diffs the daemon against), `serve` keeps the session
//! resident behind the framed protocol documented in
//! `docs/SERVICE.md`. `serve` drains gracefully on SIGTERM/SIGINT and
//! exits 0.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use bench::experiments::{par_map, registry, Experiment};
use bench::report::Table;
use bench::{metrics, profile, Session};
use busprobe::trace::{self, TraceSpan};
use busprobe::{MetricKind, MetricSnapshot};

/// What one experiment left for the in-order emit: its console text
/// (its CSVs and plots are already written) with table and row counts,
/// or the panic message; and the wall-clock seconds it ran.
struct Ran {
    id: &'static str,
    output: Result<Output, String>,
    wall_s: f64,
}

/// A finished experiment's rendered tables.
struct Output {
    console: String,
    tables: usize,
    rows: u64,
}

/// The one experiment runner behind `repro <ids>`, `repro all`,
/// `--metrics` and `profile`. Runs `selected` on the worker pool, each
/// under a root span named by its id, so everything an experiment's
/// threads record lands under `<id>/...` (par_map workers adopt the
/// caller's span context). Results come back in selection order.
fn run(selected: &[&Experiment], session: &Session) -> Vec<Ran> {
    par_map(selected.to_vec(), |e| execute(e, session))
}

/// Runs one experiment under its root span and writes its CSVs and
/// plots, converting a panic into an error message so a failing
/// experiment cannot take the rest of the run down with it.
fn execute(e: &Experiment, session: &Session) -> Ran {
    let _root = busprobe::span(e.id);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| (e.run)(session))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    let wall_s = start.elapsed().as_secs_f64();
    Ran {
        id: e.id,
        output: result.map(|tables| write_output(&tables, session)),
        wall_s,
    }
}

/// Writes an experiment's CSVs and plots and renders its console text.
fn write_output(tables: &[Table], session: &Session) -> Output {
    let _span = busprobe::span("bench.report.emit");
    let mut console = String::new();
    for table in tables {
        console.push_str(&table.to_console());
        if let Err(err) = table.write_csv(session.out_dir()) {
            eprintln!("warning: could not write {}.csv: {err}", table.id);
        }
        if let Some(spec) = bench::plot::spec_for(&table.id) {
            if let Some(svg) = bench::plot::chart_table(table, &spec) {
                let dir = session.out_dir().join("plots");
                let path = dir.join(format!("{}.svg", table.id));
                let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, svg));
                if let Err(err) = write {
                    eprintln!("warning: could not write {}: {err}", path.display());
                }
            }
        }
    }
    Output {
        console,
        tables: tables.len(),
        rows: tables.iter().map(|t| t.rows.len() as u64).sum(),
    }
}

/// Prints one experiment's tables and timing line (or its failure), in
/// the order the caller walks the results.
fn emit(ran: &Ran) -> Option<&Output> {
    match &ran.output {
        Ok(out) => {
            print!("{}", out.console);
            eprintln!(
                "[{}] done in {:.1}s: {} table(s), {} row(s)",
                ran.id, ran.wall_s, out.tables, out.rows
            );
            Some(out)
        }
        Err(msg) => {
            eprintln!("[{}] FAILED: experiment panicked: {msg}", ran.id);
            None
        }
    }
}

/// Resolves experiment arguments: `all` selects the whole registry,
/// anything else must be an experiment id.
fn select<'a>(
    experiments: &'a [Experiment],
    args: &[String],
) -> Result<Vec<&'a Experiment>, String> {
    if args.iter().any(|a| a == "all") {
        return Ok(experiments.iter().collect());
    }
    args.iter()
        .map(|a| {
            experiments
                .iter()
                .find(|e| e.id == a.as_str())
                .ok_or_else(|| format!("unknown experiment `{a}` (try `repro list`)"))
        })
        .collect()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_on = match args.iter().position(|a| a == "--metrics") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    busprobe::set_enabled(metrics_on);

    let experiments = registry();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage(&experiments);
        return ExitCode::SUCCESS;
    }
    if args[0] == "list" {
        for e in &experiments {
            println!("{:<22} {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "profile" {
        return run_profile(&experiments, &args[1..]);
    }
    if args[0] == "serve" {
        return run_serve(&args[1..]);
    }
    if args[0] == "eval" {
        return run_eval(&args[1..]);
    }
    if args[0] == "train" {
        return run_train(&args[1..], metrics_on);
    }
    if args[0] == "metrics-check" {
        let file = args
            .get(1)
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| metrics::path(&Session::from_env()));
        return match metrics::check_file(&file) {
            Ok(n) => {
                eprintln!("{}: {n} valid metric record(s)", file.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("metrics-check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let selected = match select(&experiments, &args) {
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let session = Session::from_env();
    eprintln!(
        "running {} experiment(s): {} values/trace, seed {}, output {}{}{}",
        selected.len(),
        session.values(),
        session.seed(),
        session.out_dir().display(),
        if metrics_on { ", metrics on" } else { "" },
        if selected.len() > 1 { ", parallel" } else { "" }
    );
    let grand_start = Instant::now();
    if metrics_on {
        busprobe::reset();
    }
    let ran = run(&selected, &session);
    let snaps = if metrics_on {
        busprobe::snapshot()
    } else {
        Vec::new()
    };
    let mut grand_tables = 0usize;
    let mut grand_rows = 0u64;
    let mut failed: Vec<&str> = Vec::new();
    for r in &ran {
        let Some(out) = emit(r) else {
            failed.push(r.id);
            continue;
        };
        grand_tables += out.tables;
        grand_rows += out.rows;
        if metrics_on {
            busprobe::counter("bench.experiment.rows").add(out.rows);
            busprobe::histogram("bench.experiment.wall_ms", busprobe::DEFAULT_BOUNDS)
                .observe((r.wall_s * 1000.0) as u64);
            metrics::publish_subtree(&session, &snaps, r.id, r.wall_s, out.rows);
        }
    }
    if metrics_on {
        // Counters cannot be attributed per experiment while siblings
        // run, so the registry is published once, honestly, for the run.
        let run_wall = grand_start.elapsed().as_secs_f64();
        metrics::publish_registry(&session, "_run", run_wall, grand_rows);
    }

    if selected.len() > 1 {
        eprintln!(
            "[all] {} experiment(s) done in {:.1}s: {} table(s), {} row(s), {} trace(s) generated",
            selected.len(),
            grand_start.elapsed().as_secs_f64(),
            grand_tables,
            grand_rows,
            session.trace_store_len()
        );
    }
    if !failed.is_empty() {
        eprintln!(
            "{} experiment(s) FAILED: {}",
            failed.len(),
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// `repro serve`: the resident evaluation daemon. The session, its
/// trace store, and the coded activity store stay warm across requests,
/// so a client sweeping one workload pays for each trace and activity
/// once — exactly the batch binary's economics, held across process
/// boundaries.
///
/// Flags: `--socket <path>` (required; drains on SIGTERM/SIGINT and
/// exits 0), `--shards N` (evaluations run at once), `--queue N`
/// (requests per slot that may wait for one; past that, overload
/// answers typed `busy`), `--quota N` (requests per connection).
fn run_serve(args: &[String]) -> ExitCode {
    let mut socket: Option<std::path::PathBuf> = None;
    let mut config = busserve::ServerConfig::default();
    let mut it = args.iter();
    fn flag_value<'a>(
        it: &mut std::slice::Iter<'a, String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next()
            .ok_or_else(|| format!("serve: {flag} needs a value"))
    }
    fn flag_usize(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
        flag_value(it, flag).and_then(|v| {
            v.parse::<usize>()
                .map_err(|e| format!("serve: {flag}: {e}"))
                .and_then(|n| {
                    if n >= 1 {
                        Ok(n)
                    } else {
                        Err(format!("serve: {flag} must be >= 1"))
                    }
                })
        })
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match flag_value(&mut it, "--socket") {
                Ok(v) => socket = Some(std::path::PathBuf::from(v)),
                Err(e) => return usage_error(&e),
            },
            "--shards" => match flag_usize(&mut it, "--shards") {
                Ok(n) => config.shards = n,
                Err(e) => return usage_error(&e),
            },
            "--queue" => match flag_usize(&mut it, "--queue") {
                Ok(n) => config.queue_depth = n,
                Err(e) => return usage_error(&e),
            },
            "--quota" => match flag_usize(&mut it, "--quota") {
                Ok(n) => config.client_quota = n as u64,
                Err(e) => return usage_error(&e),
            },
            other => return usage_error(&format!("serve: unknown flag `{other}`")),
        }
    }
    let Some(path) = socket else {
        return usage_error("serve: pass --socket <path>");
    };
    // Metrics on so the `metrics` verb (and the activity hit-rate
    // headline) reflect live counters.
    busprobe::set_enabled(true);
    let session = Session::from_env();
    eprintln!(
        "[serve] session: {} values/trace, seed {}",
        session.values(),
        session.seed()
    );
    eprintln!(
        "[serve] listening on {} ({} evaluation slot(s), queue {}/slot, quota {}/conn)",
        path.display(),
        config.shards,
        config.queue_depth,
        config.client_quota
    );
    let server = busserve::Server::new(bench::api::ApiService::new(session), config);
    match server.serve_unix(&path, busserve::signal::install()) {
        Ok(s) => {
            eprintln!(
                "[serve] drained: {} connection(s), {} request(s), {} busy, {} over quota, {} protocol error(s)",
                s.connections, s.requests, s.busy, s.quota, s.protocol_errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro eval <file|->`: answers one eval request body in-process and
/// prints the response JSON on stdout — the same computation `serve`
/// runs for the same body, without a daemon. CI uses it to produce the
/// golden the daemon's responses are diffed against.
fn run_eval(args: &[String]) -> ExitCode {
    use bench::api::{EvalRequest, Evaluator};
    let raw = match args.first().map(String::as_str) {
        None | Some("-") => {
            use std::io::Read;
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => buf,
                Err(e) => return usage_error(&format!("eval: could not read stdin: {e}")),
            }
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("eval: could not read {path}: {e}")),
        },
    };
    let body = match busprobe::json::parse(raw.trim()) {
        Ok(b) => b,
        Err(e) => return usage_error(&format!("eval: request does not parse: {e}")),
    };
    let request = match EvalRequest::from_json(&body) {
        Ok(r) => r,
        Err(e) => return usage_error(&format!("eval: {e}")),
    };
    let session = Session::from_env();
    match session.evaluate(&request) {
        Ok(response) => {
            println!("{}", response.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            // `e` names the candidates itself for unknown schemes —
            // the same list the daemon ships as the `candidates`
            // detail.
            eprintln!("eval: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro train <corpus>`: fits predictor tables over the corpus's
/// train split and persists them as a versioned artifact under
/// `<out>/trained/` — the directory `trained:<name>` schemes load from
/// (`buscoding::predict::trained::artifact_dir`). The corpus is a
/// built-in name (`demo`, `generalize`) or a manifest file path; the
/// resulting artifact is addressable as scheme `trained:<name>`
/// everywhere schemes are named — experiments, `eval` bodies, and the
/// daemon. Prints the artifact path on stdout.
fn run_train(args: &[String], metrics_on: bool) -> ExitCode {
    use bench::training::{resolve_corpus, train_with_session};
    use buscoding::predict::trained::artifact_dir;
    let Some(arg) = args.first() else {
        return usage_error("train: name a corpus (demo, generalize, or a manifest file)");
    };
    if args.len() > 1 {
        return usage_error("train: expected exactly one corpus argument");
    }
    let session = Session::from_env();
    let corpus = match resolve_corpus(&session, arg) {
        Ok(c) => c,
        Err(e) => return usage_error(&format!("train: {e}")),
    };
    eprintln!(
        "training corpus `{}`: {} entr(ies), {} values/trace, seed {}, artifacts under {}",
        corpus.name(),
        corpus.entries().len(),
        session.values(),
        session.seed(),
        artifact_dir().display()
    );
    let start = Instant::now();
    let tables = match train_with_session(&session, &corpus) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("train: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = match bustrain::save_trained(&tables, &artifact_dir()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("train: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    eprintln!(
        "[train] `{}` done in {wall_s:.1}s: {} codebook + {} signature + {} stride entries \
         over {} values -> scheme trained:{}",
        tables.name,
        tables.codebook.len(),
        tables
            .signatures
            .iter()
            .map(|t| t.entries.len())
            .sum::<usize>(),
        tables.strides.len(),
        tables.trained_values,
        tables.name
    );
    println!("{}", path.display());
    if metrics_on {
        metrics::publish_registry(&session, "train", wall_s, tables.total_entries() as u64);
    }
    ExitCode::SUCCESS
}

/// `repro profile <experiment>...`: the [`run`]ner, called once per
/// experiment on a zeroed registry with the hierarchical trace recorder
/// and per-span counter capture on — one at a time, because per-span
/// counter deltas come from the global registry and concurrent
/// experiments would bleed into each other's args. Per experiment,
/// writes the recorded timeline as a Chrome trace
/// (`<out>/trace-<id>.json`, validated before writing) and the
/// registry's self times as folded stacks (`<out>/trace-<id>.folded`),
/// then prints the phase breakdown and the largest self-time spans.
fn run_profile(experiments: &[Experiment], args: &[String]) -> ExitCode {
    let selected = match select(experiments, args) {
        Ok(s) if s.is_empty() => {
            return usage_error("profile: name at least one experiment (or `all`)")
        }
        Ok(s) => s,
        Err(e) => return usage_error(&e),
    };
    let session = Session::from_env();
    busprobe::set_enabled(true);
    trace::set_capture_counters(true);
    eprintln!(
        "profiling {} experiment(s): {} values/trace, seed {}, output {}",
        selected.len(),
        session.values(),
        session.seed(),
        session.out_dir().display()
    );
    let mut failed: Vec<&str> = Vec::new();
    for e in selected {
        busprobe::reset();
        trace::clear();
        trace::set_enabled(true);
        let ran = run(&[e], &session);
        trace::set_enabled(false);
        let spans = trace::drain();
        if emit(&ran[0]).is_none() {
            failed.push(e.id);
            continue;
        }
        if let Err(err) = write_profile(e.id, &spans, &busprobe::snapshot(), &session) {
            eprintln!("[{}] FAILED: {err}", e.id);
            failed.push(e.id);
        }
    }
    trace::set_capture_counters(false);
    if !failed.is_empty() {
        eprintln!(
            "{} experiment(s) FAILED to profile: {}",
            failed.len(),
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Validates and writes one experiment's trace files, then prints its
/// phase breakdown and largest self-time spans. `spans` is the recorded
/// timeline; `snaps` is the registry snapshot the folded stacks, the
/// phases and the self-time list read.
fn write_profile(
    id: &str,
    spans: &[TraceSpan],
    snaps: &[MetricSnapshot],
    session: &Session,
) -> Result<(), String> {
    let doc = trace::chrome_trace(spans);
    let pairs =
        trace::validate_chrome(&doc).map_err(|err| format!("emitted trace is invalid: {err}"))?;
    let trace_path = session.out_dir().join(format!("trace-{id}.json"));
    let folded_path = session.out_dir().join(format!("trace-{id}.folded"));
    std::fs::create_dir_all(session.out_dir())
        .and_then(|()| std::fs::write(&trace_path, format!("{doc}\n")))
        .and_then(|()| std::fs::write(&folded_path, trace::folded_stacks(snaps)))
        .map_err(|err| format!("could not write trace files: {err}"))?;
    eprintln!(
        "[{id}] profile: {pairs} span(s) -> {} and {}",
        trace_path.display(),
        folded_path.display()
    );
    let root_wall_s = match snaps.iter().find(|s| s.name == id).map(|s| &s.kind) {
        Some(MetricKind::Span { total_ns, .. }) => *total_ns as f64 / 1e9,
        _ => 0.0,
    };
    let nodes = profile::subtree(snaps, id);
    let line: Vec<String> = profile::phase_breakdown(&nodes, root_wall_s)
        .iter()
        .map(|(p, s)| format!("{p} {s:.2}s"))
        .collect();
    eprintln!("[{id}] phases: {}", line.join("  "));
    let mut by_self: Vec<(&str, u64, u64)> = nodes
        .iter()
        .filter_map(|s| match s.kind {
            MetricKind::Span { count, self_ns, .. } if self_ns > 0 => {
                Some((s.name.as_str(), count, self_ns))
            }
            _ => None,
        })
        .collect();
    by_self.sort_by_key(|&(_, _, self_ns)| std::cmp::Reverse(self_ns));
    eprintln!("[{id}] top self-time:");
    for (path, count, self_ns) in by_self.into_iter().take(8) {
        eprintln!("  {:>8.3}s  {path} (n={count})", self_ns as f64 / 1e9);
    }
    Ok(())
}

fn print_usage(experiments: &[Experiment]) {
    println!(
        "usage: repro [--metrics] <experiment>... | all | list | metrics-check [file] \
         | profile <experiment>... | eval <file|-> | train <corpus> \
         | serve --socket <path> [--shards N] [--queue N] [--quota N]"
    );
    println!("env: REPRO_VALUES, REPRO_SEED, REPRO_OUT");
    println!("experiments:");
    for e in experiments {
        println!("  {:<22} {}", e.id, e.title);
    }
}
