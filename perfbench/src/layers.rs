//! The in-process half of the traced run: each metric times calls into
//! one layer's public functions from here, on the inputs the workloads
//! use, with the program's own probes off. Every case of the criterion
//! benches (`crates/bench/benches/{codecs,hardware}.rs`) is ported under
//! `port.*` with its original inputs.

use std::hint::black_box;
use std::time::Instant;

use bench::api::{EvalRequest, Evaluator};
use bench::workloads::Workload;
use bench::{ActivityQuery, Session};
use busadapt::{AdaptiveConfig, AdaptiveTranscoder, GreedyShadowPolicy};
use buscoding::{evaluate_blocks, scheme_by_name, Activity, Encoder, BLOCK_WORDS};
use busfault::{ErrorPolicy, FaultChannel, RandomUpsets};
use busprobe::JsonValue;
use bustrace::generators::{TraceGenerator, WorkingSetGen};
use bustrace::{Trace, Width};
use hwmodel::{ContextHardware, ContextHwConfig, WindowHardware};
use simcpu::{Benchmark, BusKind, OooConfig};
use wiremodel::{BusEnergyModel, Technology, Wire, WireStyle};

use crate::{batch, serve, stats, Ctx, Outcome};

/// Words per encode, accumulate and pricing measurement: the batch
/// run's trace length.
const WORDS: usize = batch::VALUES;
/// Words per synthesis measurement.
const SYNTH_WORDS: usize = 65_536;
/// Timed repetitions per metric; the median is reported.
const REPS: usize = 5;
/// Scheme constructions per timed repetition.
const BUILDS: usize = 50;
/// Calls per timed repetition of the sub-microsecond operations.
const CALLS: usize = 10_000;

/// Encoder families as the metrics name them, with the registry scheme
/// measured for each.
const FAMILIES: [(&str, &str); 9] = [
    ("identity", "identity"),
    ("window", "window(8)"),
    ("stride", "stride(8)"),
    ("context-value", "context-value(28+8 d4096)"),
    ("context-transition", "context-transition(28+8 d4096)"),
    ("inversion", "inversion(1ch l1)"),
    ("workzone", "workzone(4)"),
    ("fcm", "fcm(2 2^12)"),
    ("trained", "trained:demo"),
];

/// Families built on the predictive engine, whose two control lines
/// above the data lines read 0 on a prediction hit.
const PREDICTIVE: [&str; 6] = [
    "window",
    "stride",
    "context-value",
    "context-transition",
    "fcm",
    "trained",
];

/// The criterion `encode_throughput` cases, by their bench names.
const PORT_CODECS: [(&str, &str); 8] = [
    ("window8", "window(8)"),
    ("window64", "window(64)"),
    ("stride8", "stride(8)"),
    ("stride32", "stride(32)"),
    ("context-value-28-8", "context-value(28+8 d4096)"),
    ("context-transition-28-8", "context-transition(28+8 d4096)"),
    ("bus-invert", "inversion(1ch l0)"),
    ("inversion-64pat", "inversion(6ch l1)"),
];

/// Runs every in-process layer measurement.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    // bustrain first: it writes the `trained:demo` artifact the encode
    // metrics load.
    train(ctx, out)?;
    synthesis(ctx.seed, out);
    let gcc = Workload::Bench(Benchmark::Gcc, BusKind::Register).trace(WORDS, ctx.seed);
    let random = Workload::Random.trace(WORDS, ctx.seed);
    codecs(&gcc, &random, out)?;
    pricing(&gcc, out)?;
    adapt_and_faults(ctx.seed, &gcc, out)?;
    session_and_api(ctx.seed, out)?;
    wire_formats(ctx.seed, out);
    port(out)?;
    out.note(format!(
        "layer metrics are medians of {REPS} timed repetitions on {WORDS}-word traces \
         (gcc/register and random) at the run's seed"
    ));
    Ok(())
}

/// Median over `reps` timed calls of `f`, in nanoseconds per unit of
/// work.
fn ns_per<R>(reps: usize, units: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    stats::median(&samples)
}

fn train(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let session = Session::builder().values(WORDS).seed(ctx.seed).build();
    let corpus = bustrain::Corpus::builtin("demo", ctx.seed).ok_or("no built-in demo corpus")?;
    // The first call synthesizes the corpus traces into the session's
    // store; the timed calls train only.
    let tables =
        bench::training::train_with_session(&session, &corpus).map_err(|e| e.to_string())?;
    let seconds = ns_per(3, 1, || {
        bench::training::train_with_session(&session, &corpus)
    }) / 1e9;
    out.metric("bustrain.train_s.demo", seconds, "s");
    let dir = ctx.work.join("trained");
    bustrain::save_trained(&tables, &dir).map_err(|e| e.to_string())?;
    buscoding::predict::trained::set_artifact_dir(&dir);
    Ok(())
}

fn synthesis(seed: u64, out: &mut Outcome) {
    for (label, bus) in [
        ("register", BusKind::Register),
        ("memory", BusKind::Memory),
        ("address", BusKind::Address),
    ] {
        let w = Workload::Bench(Benchmark::Gcc, bus);
        out.metric(
            format!("simcpu.synth_ns_per_word.{label}"),
            ns_per(3, SYNTH_WORDS, || w.trace(SYNTH_WORDS, seed)),
            "ns/word",
        );
    }
    let mixed = Workload::Mixed {
        a: Benchmark::Gcc,
        b: Benchmark::Perl,
        bus: BusKind::Register,
        quantum: 64,
    };
    for (label, w) in [
        ("random", Workload::Random),
        ("phased", Workload::PHASED),
        ("mixed", mixed),
    ] {
        out.metric(
            format!("bustrace.synth_ns_per_word.{label}"),
            ns_per(3, SYNTH_WORDS, || w.trace(SYNTH_WORDS, seed)),
            "ns/word",
        );
    }
}

/// Encodes `trace` block by block, as `evaluate_blocks` does, into
/// `states`.
fn encode(encoder: &mut dyn Encoder, trace: &Trace, states: &mut Vec<u64>) {
    encoder.reset();
    states.clear();
    for block in trace.values().chunks(BLOCK_WORDS) {
        encoder.encode_block(block, states);
    }
}

fn codecs(gcc: &Trace, random: &Trace, out: &mut Outcome) -> Result<(), String> {
    let mut states = Vec::with_capacity(WORDS);
    for (family, scheme) in FAMILIES {
        for (label, trace) in [("gcc-register", gcc), ("random", random)] {
            let mut pair = scheme_by_name(scheme, trace.width()).map_err(|e| e.to_string())?;
            let ns = ns_per(REPS, trace.len(), || {
                encode(pair.encoder_mut(), trace, &mut states);
                states.len()
            });
            out.metric(
                format!("buscoding.encode_ns_per_word.{family}.{label}"),
                ns,
                "ns/word",
            );
            if label == "gcc-register" && PREDICTIVE.contains(&family) {
                let data_lines = trace.width().bits();
                let hits = states
                    .iter()
                    .filter(|&&s| (s >> data_lines) & 0b11 == 0)
                    .count();
                out.metric(
                    format!("buscoding.predict_hit_frac.{family}"),
                    hits as f64 / states.len() as f64,
                    "ratio",
                );
            }
        }
        let build_ns = ns_per(REPS, BUILDS, || {
            (0..BUILDS)
                .filter_map(|_| scheme_by_name(scheme, Width::W32).ok())
                .map(|pair| pair.lines())
                .sum::<u32>()
        });
        out.metric(
            format!("buscoding.scheme_build_us.{family}"),
            build_ns / 1e3,
            "us",
        );
    }
    let mut pair = scheme_by_name("window(8)", gcc.width()).map_err(|e| e.to_string())?;
    encode(pair.encoder_mut(), gcc, &mut states);
    let lines = pair.lines();
    let ns = ns_per(REPS, states.len(), || {
        let mut activity = Activity::new(lines);
        activity.step_slice(&states);
        activity.tau()
    });
    out.metric("buscoding.accumulate_ns_per_word", ns, "ns/word");
    Ok(())
}

fn pricing(gcc: &Trace, out: &mut Outcome) -> Result<(), String> {
    let window = ns_per(REPS, gcc.len(), || {
        let mut hw = WindowHardware::new(8);
        for v in gcc.iter() {
            hw.present(v);
        }
        hw.ops().total_ops()
    });
    out.metric("hwmodel.present_ns_per_word.window", window, "ns/word");
    let context = ns_per(REPS, gcc.len(), || {
        let mut hw = ContextHardware::new(context_config(28));
        for v in gcc.iter() {
            hw.present(v);
        }
        hw.ops().total_ops()
    });
    out.metric("hwmodel.present_ns_per_word.context", context, "ns/word");

    // One crossover solve per (benchmark, technology) grid point, on
    // the Window outcome the crossover figures price.
    let tech = Technology::tech_013();
    let mut pair = scheme_by_name("window(8)", gcc.width()).map_err(|e| e.to_string())?;
    let outcome = bench::schemes::window_outcome_from_parts(
        bench::schemes::baseline_activity(gcc),
        evaluate_blocks(pair.encoder_mut(), gcc),
        gcc.len() as u64,
        &bench::schemes::window_hw_ops(gcc, 8),
        8,
        tech,
    );
    let ns = ns_per(REPS, CALLS, || {
        (0..CALLS)
            .filter_map(|_| black_box(&outcome).crossover_mm(tech, WireStyle::Repeated))
            .sum::<f64>()
    });
    out.metric("hwmodel.crossover_ns_per_point", ns, "ns/point");

    let wire = Wire::new(tech, WireStyle::Repeated, 10.0).map_err(|e| e.to_string())?;
    let model = BusEnergyModel::new(wire);
    let ns = ns_per(REPS, CALLS * 100, || {
        (0..(CALLS * 100) as u64)
            .map(|i| model.energy_pj(black_box(i), black_box(i >> 1)))
            .sum::<f64>()
    });
    out.metric("wiremodel.energy_ns_per_call", ns, "ns/call");
    Ok(())
}

fn context_config(table: usize) -> ContextHwConfig {
    ContextHwConfig {
        table,
        shift: 8,
        divide_period: 4096,
        promote_threshold: 2,
    }
}

fn adapt_and_faults(seed: u64, gcc: &Trace, out: &mut Outcome) -> Result<(), String> {
    // The adaptive experiments' controller: greedy shadow pricing over
    // the phased workload, 512-word decisions.
    let phased = Workload::PHASED.trace(16_384, seed);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let config = AdaptiveConfig::new(
            phased.width(),
            bench::experiments::adaptive::CANDIDATES,
            512,
        );
        let mut adaptive = AdaptiveTranscoder::new(config, Box::new(GreedyShadowPolicy::new(0.02)))
            .map_err(|e| e.to_string())?;
        let start = Instant::now();
        black_box(evaluate_blocks(
            adaptive.transcoder_mut().encoder_mut(),
            &phased,
        ));
        samples.push(start.elapsed().as_nanos() as f64 / phased.len() as f64);
    }
    out.metric(
        "busadapt.encode_ns_per_word",
        stats::median(&samples),
        "ns/word",
    );

    let channel = FaultChannel::new(ErrorPolicy::Continue);
    let mut pair = scheme_by_name("window(8)", gcc.width()).map_err(|e| e.to_string())?;
    let ns = ns_per(3, gcc.len(), || {
        let mut upsets = RandomUpsets::new(1e-3, seed);
        channel
            .run_pair(&mut pair, &mut upsets, gcc)
            .corrupted_words
    });
    out.metric("busfault.channel_ns_per_word", ns, "ns/word");
    Ok(())
}

/// An inline request shaped like the cold workload's.
fn inline_request(seed: u64) -> EvalRequest {
    let trace = Workload::Bench(Benchmark::Gcc, BusKind::Register).trace(serve::INLINE_WORDS, seed);
    EvalRequest::inline(
        trace.width(),
        trace.values().to_vec(),
        vec!["window(8)".into(), "stride(8)".into()],
    )
}

fn session_and_api(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let w = Workload::Bench(Benchmark::Gcc, BusKind::Register);
    let query = ActivityQuery::new("window(8)", w);
    // A miss with the trace already resident: scheme construction plus
    // encoding, at the daemon's trace length.
    let misses: Vec<f64> = (0..REPS)
        .map(|_| {
            let session = Session::builder().values(serve::VALUES).seed(seed).build();
            session.trace(w);
            let start = Instant::now();
            black_box(session.activity(&query));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metric("session.activity_miss_us", stats::median(&misses), "us");
    let session = Session::builder().values(serve::VALUES).seed(seed).build();
    session.activity(&query);
    session.baseline(w);
    out.metric(
        "session.activity_hit_ns",
        ns_per(REPS, CALLS, || {
            (0..CALLS)
                .map(|_| session.activity(&query).tau())
                .sum::<u64>()
        }),
        "ns",
    );
    out.metric(
        "session.baseline_hit_ns",
        ns_per(REPS, CALLS, || {
            (0..CALLS).map(|_| session.baseline(w).tau()).sum::<u64>()
        }),
        "ns",
    );

    let stored = EvalRequest::stored(w, vec!["window(8)".into()]);
    let stored_body = stored.to_json();
    out.metric(
        "api.request_parse_us.stored",
        ns_per(REPS, CALLS, || {
            (0..CALLS)
                .filter(|_| EvalRequest::from_json(&stored_body).is_ok())
                .count()
        }) / 1e3,
        "us",
    );
    let inline_body = inline_request(seed).to_json();
    out.metric(
        "api.request_parse_us.inline",
        ns_per(REPS, 20, || {
            (0..20)
                .filter(|_| EvalRequest::from_json(&inline_body).is_ok())
                .count()
        }) / 1e3,
        "us",
    );
    let response = session.evaluate(&stored).map_err(|e| e.to_string())?;
    out.metric(
        "api.evaluate_hit_us",
        ns_per(REPS, CALLS, || {
            (0..CALLS)
                .filter(|_| session.evaluate(&stored).is_ok())
                .count()
        }) / 1e3,
        "us",
    );
    out.metric(
        "api.response_render_us",
        ns_per(REPS, CALLS, || {
            (0..CALLS)
                .map(|_| match response.to_json() {
                    JsonValue::Obj(pairs) => pairs.len(),
                    _ => 0,
                })
                .sum::<usize>()
        }) / 1e3,
        "us",
    );
    Ok(())
}

/// JSON text and framing, on the request body the cold workload sends.
fn wire_formats(seed: u64, out: &mut Outcome) {
    let body = inline_request(seed).to_json();
    let text = body.to_string();
    let bytes = text.len();
    out.metric(
        "busprobe.json_parse_ns_per_byte",
        ns_per(REPS, bytes, || busprobe::json::parse(&text).is_ok()),
        "ns/byte",
    );
    out.metric(
        "busprobe.json_render_ns_per_byte",
        ns_per(REPS, bytes, || body.to_string().len()),
        "ns/byte",
    );
    out.metric(
        "busserve.frame_ns_per_byte",
        ns_per(REPS, bytes, || {
            let mut wire = Vec::with_capacity(bytes + 4);
            let written =
                busserve::write_frame(&mut wire, text.as_bytes(), busserve::MAX_FRAME_BYTES);
            let mut reader = wire.as_slice();
            let read = busserve::read_frame(&mut reader, busserve::MAX_FRAME_BYTES);
            (written.is_ok(), read.ok().flatten().map_or(0, |b| b.len()))
        }),
        "ns/byte",
    );
}

/// The criterion benches' cases on their original inputs.
fn port(out: &mut Outcome) -> Result<(), String> {
    let working_set = |n| WorkingSetGen::new(Width::W32, 32, 0.8, 0.01, 7).generate(n);
    let ws = working_set(50_000);
    out.metric(
        "port.codecs.encode_ns_per_word.identity-baseline",
        ns_per(REPS, ws.len(), || {
            bench::schemes::baseline_activity(&ws).tau()
        }),
        "ns/word",
    );
    for (case, scheme) in PORT_CODECS {
        let mut pair = scheme_by_name(scheme, ws.width()).map_err(|e| e.to_string())?;
        out.metric(
            format!("port.codecs.encode_ns_per_word.{case}"),
            ns_per(REPS, ws.len(), || {
                evaluate_blocks(pair.encoder_mut(), &ws).tau()
            }),
            "ns/word",
        );
    }
    let ws100 = working_set(100_000);
    out.metric(
        "port.codecs.tau_kappa_ns_per_word",
        ns_per(REPS, ws100.len(), || {
            let mut activity = Activity::new(32);
            for v in ws100.iter() {
                activity.step(v);
            }
            (activity.tau(), activity.kappa())
        }),
        "ns/word",
    );
    out.metric(
        "port.hardware.present_ns_per_word.window8",
        ns_per(REPS, ws.len(), || {
            let mut hw = WindowHardware::new(8);
            for v in ws.iter() {
                hw.present(v);
            }
            hw.ops().total_ops()
        }),
        "ns/word",
    );
    for table in [16, 28, 64] {
        out.metric(
            format!("port.hardware.present_ns_per_word.context{table}"),
            ns_per(REPS, ws.len(), || {
                let mut hw = ContextHardware::new(context_config(table));
                for v in ws.iter() {
                    hw.present(v);
                }
                hw.ops().total_ops()
            }),
            "ns/word",
        );
    }
    const KERNEL_WORDS: usize = 20_000;
    for (name, program) in [("gcc", Benchmark::Gcc), ("swim", Benchmark::Swim)] {
        out.metric(
            format!("port.kernel.synth_ns_per_word.{name}.inorder"),
            ns_per(3, KERNEL_WORDS, || {
                program.trace(BusKind::Register, KERNEL_WORDS, 1).len()
            }),
            "ns/word",
        );
        out.metric(
            format!("port.kernel.synth_ns_per_word.{name}.ooo"),
            ns_per(3, KERNEL_WORDS, || {
                program
                    .trace_ooo(BusKind::Register, KERNEL_WORDS, 1, OooConfig::default())
                    .len()
            }),
            "ns/word",
        );
    }
    Ok(())
}
