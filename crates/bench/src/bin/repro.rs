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
//! repro serve --stdio          # single-shot framed server on stdin/stdout
//! ```
//!
//! Environment: `REPRO_VALUES` (trace length, default 200000),
//! `REPRO_SEED` (default 1), `REPRO_OUT` (CSV directory, default
//! `results/`), `REPRO_METRICS=1` (same as `--metrics`),
//! `REPRO_CACHE=1` (persist generated traces under `<out>/cache/` and
//! reload them on later runs), `REPRO_SERIAL=1` (disable
//! cross-experiment parallelism). Figure-class experiments additionally
//! render SVG charts into `<out>/plots/`.
//!
//! Experiments share one [`Session`]: every trace is generated at most
//! once per run no matter how many experiments ask for it, and
//! independent experiments run concurrently on the worker pool. Output
//! (console tables, CSVs, plots, timing lines) is always emitted in
//! registry order, so a parallel run is byte-identical to a serial one.
//!
//! With metrics on, each experiment appends one JSON record to
//! `<out>/metrics.jsonl` and prints a per-probe summary table on
//! stderr; see `docs/OBSERVABILITY.md`. Metrics no longer force serial
//! execution: under the parallel runner each experiment runs inside a
//! root trace span, its record carries that span subtree (exactly
//! attributable even with siblings in flight), and a final `_run`
//! record carries the whole-process registry snapshot. `REPRO_SERIAL=1`
//! (or selecting a single experiment) restores the old one-registry-
//! reset-per-experiment records.
//!
//! `repro profile <exp>` runs experiments serially with the
//! hierarchical trace recorder on and writes `<out>/trace-<id>.json`
//! (Chrome trace-event format — load in `chrome://tracing` or
//! <https://ui.perfetto.dev>) plus `<out>/trace-<id>.folded` (folded
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
use bench::{env_flag, metrics, profile, Session};
use busprobe::trace;

/// Outcome of one experiment: its tables (or the panic message) and the
/// wall-clock seconds it took.
type RunResult = (Result<Vec<Table>, String>, f64);

/// Runs one experiment, converting a panic into an error message so a
/// failing experiment cannot take the rest of the run down with it.
fn execute(e: &Experiment, session: &Session) -> RunResult {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| (e.run)(session))).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    });
    (result, start.elapsed().as_secs_f64())
}

/// Prints an experiment's tables, writes its CSVs and plots, and emits
/// the timing line. Returns the row count.
fn emit_output(id: &str, tables: &[Table], wall_s: f64, session: &Session) -> u64 {
    let _span = busprobe::span("bench.report.emit");
    let rows: u64 = tables.iter().map(|t| t.rows.len() as u64).sum();
    for table in tables {
        print!("{}", table.to_console());
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
    eprintln!(
        "[{}] done in {:.1}s: {} table(s), {} row(s)",
        id,
        wall_s,
        tables.len(),
        rows
    );
    rows
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_on = busprobe::init_from_env();
    if let Some(pos) = args.iter().position(|a| a == "--metrics") {
        args.remove(pos);
        busprobe::set_enabled(true);
        metrics_on = true;
    }

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

    let selected: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        experiments.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match experiments.iter().find(|e| e.id == a.as_str()) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment `{a}` (try `repro list`)");
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };

    let session = Session::from_env();
    // Metrics no longer force serial execution: parallel mode records
    // every experiment under a root trace span and attributes metrics
    // from the span subtrees instead of registry resets.
    let parallel = selected.len() > 1 && !env_flag("REPRO_SERIAL");
    eprintln!(
        "running {} experiment(s): {} values/trace, seed {}, output {}{}{}{}",
        selected.len(),
        session.values(),
        session.seed(),
        session.out_dir().display(),
        if metrics_on { ", metrics on" } else { "" },
        if session.store().disk_dir().is_some() {
            ", trace cache on"
        } else {
            ""
        },
        if parallel { ", parallel" } else { "" }
    );
    let total = selected.len();
    let grand_start = Instant::now();
    let mut grand_tables = 0usize;
    let mut grand_rows = 0u64;
    let mut failed: Vec<&str> = Vec::new();

    // Run. In parallel mode the results are collected first and emitted
    // afterwards in registry order; serial mode emits as it goes (so
    // metrics summaries interleave with their experiments).
    let emit = |e: &Experiment,
                result: Result<Vec<Table>, String>,
                wall_s: f64,
                failed: &mut Vec<&'static str>,
                grand_tables: &mut usize,
                grand_rows: &mut u64|
     -> Option<u64> {
        match result {
            Ok(tables) => {
                let rows = emit_output(e.id, &tables, wall_s, &session);
                *grand_tables += tables.len();
                *grand_rows += rows;
                Some(rows)
            }
            Err(msg) => {
                eprintln!("[{}] FAILED: experiment panicked: {msg}", e.id);
                failed.push(e.id);
                None
            }
        }
    };

    if parallel {
        if metrics_on {
            // Fresh window: counters cover this run, spans this drain.
            busprobe::reset();
            trace::clear();
            trace::set_enabled(true);
        }
        let results = par_map(selected.clone(), |e| {
            // The root span names the experiment; everything the
            // experiment's own threads record lands under `<id>/...`
            // (par_map workers adopt the caller's span context).
            let _root = busprobe::span(e.id);
            execute(e, &session)
        });
        let spans = if metrics_on {
            trace::set_enabled(false);
            trace::drain()
        } else {
            Vec::new()
        };
        for (e, (result, wall_s)) in selected.iter().zip(results) {
            let rows = emit(
                e,
                result,
                wall_s,
                &mut failed,
                &mut grand_tables,
                &mut grand_rows,
            );
            if let (true, Some(rows)) = (metrics_on, rows) {
                busprobe::counter("bench.experiment.rows").add(rows);
                busprobe::histogram("bench.experiment.wall_ms", busprobe::DEFAULT_BOUNDS)
                    .observe((wall_s * 1000.0) as u64);
                let nodes = trace::aggregate(&profile::subtree(&spans, e.id));
                let snaps = profile::nodes_to_snapshots(&nodes);
                eprint!(
                    "--- metrics [{}] (span subtree) ---\n{}",
                    e.id,
                    busprobe::render_summary(&snaps)
                );
                match metrics::emit_record(&session, e.id, wall_s, rows, profile::nodes_to_json(&nodes))
                {
                    Ok(file) => eprintln!("[{}] metrics appended to {}", e.id, file.display()),
                    Err(err) => eprintln!("warning: could not write metrics for {}: {err}", e.id),
                }
            }
        }
        if metrics_on {
            // The whole-process registry view: counters cannot be
            // attributed per experiment while siblings run, so they are
            // published once, honestly, for the run.
            let run_wall = grand_start.elapsed().as_secs_f64();
            eprint!("{}", metrics::summary("_run"));
            match metrics::emit(&session, "_run", run_wall, grand_rows) {
                Ok(file) => eprintln!("[_run] metrics appended to {}", file.display()),
                Err(err) => eprintln!("warning: could not write run metrics: {err}"),
            }
        }
    } else {
        for e in &selected {
            if metrics_on {
                // Each record carries only its own experiment's counts.
                busprobe::reset();
            }
            let (result, wall_s) = execute(e, &session);
            let rows = emit(
                e,
                result,
                wall_s,
                &mut failed,
                &mut grand_tables,
                &mut grand_rows,
            );
            if let (true, Some(rows)) = (metrics_on, rows) {
                busprobe::counter("bench.experiment.rows").add(rows);
                busprobe::histogram("bench.experiment.wall_ms", busprobe::DEFAULT_BOUNDS)
                    .observe((wall_s * 1000.0) as u64);
                eprint!("{}", metrics::summary(e.id));
                match metrics::emit(&session, e.id, wall_s, rows) {
                    Ok(file) => eprintln!("[{}] metrics appended to {}", e.id, file.display()),
                    Err(err) => eprintln!("warning: could not write metrics for {}: {err}", e.id),
                }
            }
        }
    }

    if total > 1 {
        eprintln!(
            "[all] {} experiment(s) done in {:.1}s: {} table(s), {} row(s), {} trace(s) generated",
            total,
            grand_start.elapsed().as_secs_f64(),
            grand_tables,
            grand_rows,
            session.store().len()
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

/// `repro serve`: the resident evaluation daemon (or its stdio
/// single-shot twin). The session, its trace store, and the coded
/// activity store stay warm across requests, so a client sweeping one
/// workload pays for each trace and activity once — exactly the batch
/// binary's economics, held across process boundaries.
///
/// Flags: `--socket <path>` (unix-socket daemon; drains on
/// SIGTERM/SIGINT and exits 0), `--stdio` (serve frames on
/// stdin/stdout until EOF), `--shards N`, `--queue N` (per-shard
/// in-flight bound; overload answers typed `busy`), `--quota N`
/// (requests per connection).
fn run_serve(args: &[String]) -> ExitCode {
    let mut socket: Option<std::path::PathBuf> = None;
    let mut stdio = false;
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
            "--stdio" => stdio = true,
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
    if stdio == socket.is_some() {
        return usage_error("serve: pass exactly one of --socket <path> or --stdio");
    }
    // Metrics on so the `metrics` verb (and the activity hit-rate
    // headline) reflect live counters.
    busprobe::set_enabled(true);
    let session = Session::from_env();
    eprintln!(
        "[serve] session: {} values/trace, seed {}{}",
        session.values(),
        session.seed(),
        if session.store().disk_dir().is_some() {
            ", trace cache on"
        } else {
            ""
        }
    );
    let server = busserve::Server::new(bench::api::ApiService::new(session), config.clone());
    let stats = if stdio {
        server.serve_stdio()
    } else {
        let path = socket.expect("checked above");
        let shutdown = busserve::signal::install();
        eprintln!(
            "[serve] listening on {} ({} shard(s), queue {}, quota {}/conn)",
            path.display(),
            config.shards,
            config.queue_depth,
            config.client_quota
        );
        server.serve_unix(&path, shutdown)
    };
    match stats {
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
/// `<out>/trained/`. The corpus is a built-in name (`demo`,
/// `generalize`) or a manifest file path; the resulting artifact is
/// addressable as scheme `trained:<name>` everywhere schemes are
/// named — experiments, `eval` bodies, and the daemon. Prints the
/// artifact path on stdout.
fn run_train(args: &[String], metrics_on: bool) -> ExitCode {
    use bench::training::{artifact_dir_for, resolve_corpus, train_with_session};
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
        artifact_dir_for(&session).display()
    );
    let start = Instant::now();
    let tables = match train_with_session(&session, &corpus) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("train: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = match bustrain::save_trained(&tables, &artifact_dir_for(&session)) {
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
        eprint!("{}", metrics::summary("train"));
        match metrics::emit(&session, "train", wall_s, tables.total_entries() as u64) {
            Ok(file) => eprintln!("[train] metrics appended to {}", file.display()),
            Err(err) => eprintln!("warning: could not write train metrics: {err}"),
        }
    }
    ExitCode::SUCCESS
}

/// `repro profile <experiment>...`: serial runs with the hierarchical
/// trace recorder and per-span counter capture on. Per experiment,
/// writes the Chrome trace (`<out>/trace-<id>.json`, validated before
/// writing) and folded stacks (`<out>/trace-<id>.folded`), then prints
/// the phase breakdown and the largest self-time spans.
fn run_profile(experiments: &[Experiment], args: &[String]) -> ExitCode {
    let selected: Vec<&Experiment> = if args.iter().any(|a| a == "all") {
        experiments.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in args {
            match experiments.iter().find(|e| e.id == a.as_str()) {
                Some(e) => sel.push(e),
                None => {
                    return usage_error(&format!("unknown experiment `{a}` (try `repro list`)"))
                }
            }
        }
        sel
    };
    if selected.is_empty() {
        return usage_error("profile: name at least one experiment (or `all`)");
    }
    let session = Session::from_env();
    // Serial on purpose: per-span counter deltas come from the global
    // registry, so concurrent experiments would bleed into each other's
    // args. Metrics on so the counters move; trace on so spans record.
    busprobe::set_enabled(true);
    trace::set_enabled(true);
    trace::set_capture_counters(true);
    eprintln!(
        "profiling {} experiment(s): {} values/trace, seed {}, output {}",
        selected.len(),
        session.values(),
        session.seed(),
        session.out_dir().display()
    );
    let mut failed: Vec<&str> = Vec::new();
    for e in &selected {
        busprobe::reset();
        trace::clear();
        let ok = {
            let _root = busprobe::span(e.id);
            let (result, wall_s) = execute(e, &session);
            match result {
                Ok(tables) => {
                    emit_output(e.id, &tables, wall_s, &session);
                    true
                }
                Err(msg) => {
                    eprintln!("[{}] FAILED: experiment panicked: {msg}", e.id);
                    false
                }
            }
        };
        let spans = trace::drain();
        if !ok {
            failed.push(e.id);
            continue;
        }
        let doc = trace::chrome_trace(&spans);
        let pairs = match trace::validate_chrome(&doc) {
            Ok(n) => n,
            Err(err) => {
                eprintln!("[{}] FAILED: emitted trace is invalid: {err}", e.id);
                failed.push(e.id);
                continue;
            }
        };
        let trace_path = session.out_dir().join(format!("trace-{}.json", e.id));
        let folded_path = session.out_dir().join(format!("trace-{}.folded", e.id));
        let write = std::fs::create_dir_all(session.out_dir())
            .and_then(|()| std::fs::write(&trace_path, format!("{doc}\n")))
            .and_then(|()| std::fs::write(&folded_path, trace::folded_stacks(&spans)));
        if let Err(err) = write {
            eprintln!("[{}] FAILED: could not write trace files: {err}", e.id);
            failed.push(e.id);
            continue;
        }
        eprintln!(
            "[{}] profile: {} span(s) -> {} and {}",
            e.id,
            pairs,
            trace_path.display(),
            folded_path.display()
        );
        let root_wall_s = spans
            .iter()
            .find(|s| s.path == e.id)
            .map_or(0.0, |s| s.dur_ns() as f64 / 1e9);
        let nodes = trace::aggregate(&profile::subtree(&spans, e.id));
        let breakdown = profile::phase_breakdown(&nodes, root_wall_s);
        let line: Vec<String> = breakdown
            .iter()
            .map(|(p, s)| format!("{p} {s:.2}s"))
            .collect();
        eprintln!("[{}] phases: {}", e.id, line.join("  "));
        let mut by_self = nodes;
        by_self.sort_by_key(|n| std::cmp::Reverse(n.self_ns));
        eprintln!("[{}] top self-time:", e.id);
        for node in by_self.iter().take(8).filter(|n| n.self_ns > 0) {
            eprintln!(
                "  {:>8.3}s  {} (n={})",
                node.self_ns as f64 / 1e9,
                node.path,
                node.count
            );
        }
    }
    trace::set_capture_counters(false);
    trace::set_enabled(false);
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

fn print_usage(experiments: &[Experiment]) {
    println!(
        "usage: repro [--metrics] <experiment>... | all | list | metrics-check [file] \
         | profile <experiment>... | eval <file|-> | train <corpus> \
         | serve (--socket <path> | --stdio) [--shards N] [--queue N] [--quota N]"
    );
    println!("env: REPRO_VALUES, REPRO_SEED, REPRO_OUT, REPRO_METRICS, REPRO_CACHE, REPRO_SERIAL");
    println!("experiments:");
    for e in experiments {
        println!("  {:<22} {}", e.id, e.title);
    }
}
