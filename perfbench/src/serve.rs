//! The daemon workloads: one resident `repro serve --socket` with
//! [`SHARDS`] shards, driven by a closed loop of [`CONNECTIONS`]
//! connections that each send their next request only after the
//! previous reply arrived.
//!
//! * `serve-warm-zipf` sends stored-workload `eval`s drawn with zipf
//!   popularity over 18 workloads × the 8 non-trained scheme families.
//!   Set-up sends every key once, so timed requests hit the activity
//!   store: their time goes to framing, queueing, shard routing (zipf
//!   skews the shards), JSON and `bench::api`, and encoding does almost
//!   no work.
//! * `serve-cold-inline` sends inline traces of [`INLINE_WORDS`] words
//!   from a seeded pool built with `Workload::trace`, with one or two
//!   schemes each. Inline sources never touch the store, so every
//!   request pays for a JSON parse, scheme construction and encoding.
//!
//! The load generator keeps itself out of the numbers: request frames
//! are rendered before timing, so client-side JSON stays out of the
//! latency (first byte sent to last byte received); warm-up (one pass
//! over the distinct requests) runs in set-up and is reported as
//! `setup_s`; the daemon's per-connection
//! quota is set above any run's request count, so no connection is ever
//! closed for quota; and a `busy` reply counts as a failure, never as a
//! retry.

use std::collections::hash_map::{Entry, HashMap};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bench::api::{EvalRequest, Evaluator};
use bench::workloads::Workload;
use bench::Session;
use busprobe::JsonValue;
use simcpu::{Benchmark, BusKind};

use crate::{stats, sys, Ctx, Outcome};

/// Shard workers of the daemon.
pub const SHARDS: usize = 2;
/// Per-shard queue bound; two connections never fill it.
pub const QUEUE: usize = 16;
/// Per-connection request quota, far above any run's request count.
pub const QUOTA: u64 = 1_000_000_000;
/// Client connections, each with one request in flight.
pub const CONNECTIONS: usize = 2;
/// Values per stored trace in the daemon's session.
pub const VALUES: usize = 50_000;
/// Words per inline request.
pub const INLINE_WORDS: usize = 16_384;
/// Distinct traces the inline requests draw from.
const INLINE_TRACES: usize = 12;
/// Distinct inline requests, each rendered once.
const INLINE_REQUESTS: usize = 48;
/// One inline reply in this many is checked against in-process
/// evaluation.
const INLINE_CHECK_EVERY: usize = 8;
/// Zipf exponent of the warm keys' popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// Requests drawn per connection before its sequence repeats.
const SEQUENCE_LEN: usize = 1 << 16;
/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seconds of a traced loop of the kind the run's workload is not.
const PROBE_SECONDS: f64 = 3.0;
/// Longest a daemon may take to answer its first `ping`, or to drain.
const DAEMON_TIMEOUT: Duration = Duration::from_secs(30);

/// The scheme families serve requests draw from: all but `trained`.
pub const SCHEMES: [&str; 8] = [
    "identity",
    "inversion(1ch l1)",
    "stride(8)",
    "window(8)",
    "context-value(28+8 d4096)",
    "context-transition(28+8 d4096)",
    "workzone(4)",
    "fcm(2 2^12)",
];

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve-warm-zipf`.
    Warm,
    /// `serve-cold-inline`.
    Cold,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Cold => "cold",
        }
    }
}

/// The untraced run of one daemon workload: end-to-end metrics.
pub fn run(ctx: &Ctx, kind: Kind, out: &mut Outcome) -> Result<(), String> {
    let load = Load::new(kind, ctx.seed);
    let Ready {
        daemon,
        setup_s,
        filled,
    } = set_up(ctx, &load, SETUPS)?;
    let phase = closed_loop(daemon.socket(), &load, ctx.seconds, false);
    let peak_rss_mb = daemon.peak_rss_mb();
    let stopped = daemon.stop();
    tally(&phase, out);
    out.attempted += filled.len() as u64;
    let checked = verify(
        ctx,
        &load,
        filled.into_iter().enumerate().chain(phase.samples),
        out,
    )?;
    if phase.ok == 0 {
        return Err(format!("no {} request succeeded", kind.label()));
    }
    let rate = phase.ok as f64 / phase.elapsed_s;
    let latencies = stats::sorted(&phase.latencies_us);
    let (p95, p99) = (
        stats::quantile(&latencies, 0.95),
        stats::quantile(&latencies, 0.99),
    );
    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("wall_s", 1e3 / rate, "s");
    out.metric("req_per_s", rate, "1/s");
    out.metric("p50_ms", stats::quantile(&latencies, 0.50) / 1e3, "ms");
    out.metric(
        "peak_rss_mb",
        peak_rss_mb.ok_or("could not read the daemon's VmHWM")?,
        "MB",
    );
    out.note(format!(
        "{} OK replies in {:.2} s over {CONNECTIONS} closed-loop connections; {} latency \
         samples, {} beyond p99",
        phase.ok,
        phase.elapsed_s,
        latencies.len(),
        stats::beyond(&latencies, p99),
    ));
    out.note(format!(
        "tail latency, reported here and not as a metric because it does not repeat within a \
         tenth from seed to seed: p95 {:.4} ms, p99 {:.4} ms",
        p95 / 1e3,
        p99 / 1e3
    ));
    out.note("wall_s is the time to serve 1000 requests at the measured rate (1000 / req_per_s)");
    out.note(format!(
        "setup_s: median of {SETUPS} start-ups, each spawn until the first ping is answered \
         plus one pass over the {} distinct requests ({}): {}",
        load.requests.len(),
        match kind {
            Kind::Warm => "the warm fill",
            Kind::Cold => "warm-up",
        },
        setup_s
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!(
        "checked {checked} replies' deterministic half (baseline + results) against in-process \
         Session::evaluate; daemon flags --shards {SHARDS} --queue {QUEUE} --quota {QUOTA} \
         (above any run's request count, so no connection is closed for quota)"
    ));
    stopped
}

/// The daemon half of the traced run. For each kind, a traced closed
/// loop splits every reply's latency into the server-side evaluation
/// it reports (`wall_us`) and the rest (framing, JSON, shard queue
/// wait, socket), then reads the daemon's own `metrics` verb. For the
/// run's own workload an untraced loop of equal length runs first, and
/// the difference in p50 is the tracing overhead.
pub fn daemon_layers(ctx: &Ctx, own: Option<Kind>, out: &mut Outcome) -> Result<(), String> {
    for kind in [Kind::Warm, Kind::Cold] {
        let label = kind.label();
        let load = Load::new(kind, ctx.seed);
        let Ready { daemon, filled, .. } = set_up(ctx, &load, 1)?;
        let is_own = own == Some(kind);
        let seconds = if is_own {
            ctx.seconds / 2.0
        } else {
            PROBE_SECONDS
        };
        let plain = is_own.then(|| closed_loop(daemon.socket(), &load, seconds, false));
        let traced = closed_loop(daemon.socket(), &load, seconds, true);
        let metrics = daemon.metrics();
        let stopped = daemon.stop();
        out.attempted += filled.len() as u64;
        tally(&traced, out);
        let mut samples: Vec<(usize, Vec<u8>)> = filled.into_iter().enumerate().collect();
        if let Some(plain) = &plain {
            tally(plain, out);
            samples.extend(plain.samples.iter().cloned());
        }
        samples.extend(traced.samples.iter().cloned());
        verify(ctx, &load, samples, out)?;

        let server = stats::sorted(&traced.server_us);
        let transport = stats::sorted(&traced.transport_us);
        if server.is_empty() {
            return Err(format!("no traced {label} reply"));
        }
        for (q, name) in [(0.50, "p50"), (0.99, "p99")] {
            out.metric(
                format!("busserve.{label}.server_eval_us.{name}"),
                stats::quantile(&server, q),
                "us",
            );
            out.metric(
                format!("busserve.{label}.transport_us.{name}"),
                stats::quantile(&transport, q),
                "us",
            );
        }
        let metrics = metrics?;
        let counter = |name: &str| {
            metrics
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0) as f64
        };
        out.metric(
            format!("busserve.{label}.busy"),
            counter("busserve.busy"),
            "count",
        );
        out.metric(
            format!("busserve.{label}.protocol_errors"),
            counter("busserve.protocol_errors"),
            "count",
        );
        let hit_rate = metrics
            .get("activity")
            .and_then(|a| a.get("hit_rate"))
            .and_then(JsonValue::as_f64)
            .ok_or("the metrics verb reported no activity.hit_rate")?;
        out.metric(
            format!("session.{label}.activity_hit_rate"),
            hit_rate,
            "ratio",
        );

        let (server_p50, transport_p50) = (
            stats::quantile(&server, 0.5),
            stats::quantile(&transport, 0.5),
        );
        out.note(format!(
            "{label}: {} traced replies in {seconds:.1} s; p50 server eval {server_p50:.1} us, \
             p50 transport {transport_p50:.1} us ({} dominates)",
            server.len(),
            if transport_p50 > server_p50 {
                "transport"
            } else {
                "server eval"
            }
        ));
        if let Some(plain) = plain {
            let traced_p50 = stats::quantile(&stats::sorted(&traced.latencies_us), 0.5) / 1e3;
            let plain_p50 = stats::quantile(&stats::sorted(&plain.latencies_us), 0.5) / 1e3;
            out.note(format!(
                "{label} tracing overhead: p50 {traced_p50:.4} ms traced against {plain_p50:.4} ms \
                 untraced ({:+.4} ms)",
                traced_p50 - plain_p50
            ));
        }
        stopped?;
    }
    Ok(())
}

/// SplitMix64: the load's seeded random choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The requests a workload sends, each rendered to a frame up front.
struct Load {
    kind: Kind,
    requests: Vec<EvalRequest>,
    frames: Vec<Vec<u8>>,
    /// Per connection, the request indices it sends, in order, cycled.
    sequences: Vec<Vec<usize>>,
}

impl Load {
    fn new(kind: Kind, seed: u64) -> Load {
        match kind {
            Kind::Warm => Load::warm(seed),
            Kind::Cold => Load::cold(seed),
        }
    }

    fn warm(seed: u64) -> Load {
        let requests: Vec<EvalRequest> = Workload::figure_lines(BusKind::Register)
            .into_iter()
            .flat_map(|w| {
                SCHEMES
                    .iter()
                    .map(move |s| EvalRequest::stored(w, vec![(*s).to_string()]))
            })
            .collect();
        // Popularity rank to key: one fixed shuffle, so every seed skews
        // the shards the same way and only the draws differ.
        let mut shuffle = Rng(0x7761_726d);
        let mut by_rank: Vec<usize> = (0..requests.len()).collect();
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, shuffle.below(i + 1));
        }
        let mut rng = Rng(seed);
        let mut cdf: Vec<f64> = (1..=requests.len())
            .scan(0.0, |sum, rank| {
                *sum += (rank as f64).powf(-ZIPF_EXPONENT);
                Some(*sum)
            })
            .collect();
        let total = cdf[cdf.len() - 1];
        for c in &mut cdf {
            *c /= total;
        }
        let sequences = (0..CONNECTIONS)
            .map(|_| {
                (0..SEQUENCE_LEN)
                    .map(|_| {
                        let u = rng.unit();
                        by_rank[cdf.partition_point(|&c| c < u).min(cdf.len() - 1)]
                    })
                    .collect()
            })
            .collect();
        Load {
            kind: Kind::Warm,
            frames: requests.iter().map(frame).collect(),
            requests,
            sequences,
        }
    }

    /// The programs, buses and scheme mix are fixed; the seed sets the
    /// trace data and the send order, so seeds differ in inputs but not
    /// in how much work a request asks for.
    fn cold(seed: u64) -> Load {
        let buses = [BusKind::Register, BusKind::Memory, BusKind::Address];
        let traces: Vec<bustrace::Trace> = (0..INLINE_TRACES)
            .map(|i| {
                Workload::Bench(
                    Benchmark::ALL[i % Benchmark::ALL.len()],
                    buses[i % buses.len()],
                )
                .trace(INLINE_WORDS, seed.wrapping_add(i as u64))
            })
            .collect();
        // Every family leads equally often; every other round of eight
        // adds a second scheme.
        let requests: Vec<EvalRequest> = (0..INLINE_REQUESTS)
            .map(|j| {
                let trace = &traces[j % traces.len()];
                let first = j % SCHEMES.len();
                let mut schemes = vec![SCHEMES[first].to_string()];
                if (j / SCHEMES.len()) % 2 == 1 {
                    let second = (first + 1 + j % (SCHEMES.len() - 1)) % SCHEMES.len();
                    schemes.push(SCHEMES[second].to_string());
                }
                EvalRequest::inline(trace.width(), trace.values().to_vec(), schemes)
            })
            .collect();
        let mut rng = Rng(seed);
        let sequences = (0..CONNECTIONS)
            .map(|_| {
                (0..SEQUENCE_LEN)
                    .map(|_| rng.below(requests.len()))
                    .collect()
            })
            .collect();
        Load {
            kind: Kind::Cold,
            frames: requests.iter().map(frame).collect(),
            requests,
            sequences,
        }
    }
}

/// A request as the daemon reads it: the `eval` envelope around the
/// request body, length-prefixed.
fn frame(request: &EvalRequest) -> Vec<u8> {
    let mut pairs = vec![
        ("v".to_string(), JsonValue::Int(busserve::PROTOCOL_VERSION)),
        ("verb".to_string(), JsonValue::Str("eval".into())),
    ];
    if let JsonValue::Obj(body) = request.to_json() {
        pairs.extend(body);
    }
    framed(JsonValue::Obj(pairs).to_string().as_bytes())
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    busserve::write_frame(&mut wire, payload, busserve::MAX_FRAME_BYTES)
        .expect("request frames are far below the frame cap");
    wire
}

/// Sends one frame and reads the reply's payload into `reply`.
fn call(stream: &mut UnixStream, frame: &[u8], reply: &mut Vec<u8>) -> io::Result<()> {
    stream.write_all(frame)?;
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > busserve::MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply of {len} bytes exceeds the frame cap"),
        ));
    }
    reply.resize(len, 0);
    stream.read_exact(reply)
}

/// Whether a reply is an `ok` envelope.
fn is_ok(reply: &[u8]) -> bool {
    reply.starts_with(br#"{"v":1,"ok":true"#)
}

/// The server-side evaluation time a reply reports, in microseconds.
fn wall_us(reply: &[u8]) -> Option<f64> {
    const KEY: &[u8] = b"\"wall_us\":";
    let at = reply.windows(KEY.len()).rposition(|w| w == KEY)? + KEY.len();
    let digits = reply[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&reply[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// A running `repro serve --socket` child.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits until it answers `ping`.
    fn start(ctx: &Ctx, name: &str) -> Result<Daemon, String> {
        let socket = ctx.work.join(format!("{name}.sock"));
        let log_path = ctx.work.join("daemon.log");
        let log = File::options()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("opening {}: {e}", log_path.display()))?;
        let child = ctx
            .repro_command(VALUES, ctx.seed, &ctx.work.join("serve-out"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--shards", &SHARDS.to_string()])
            .args(["--queue", &QUEUE.to_string()])
            .args(["--quota", &QUOTA.to_string()])
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting repro serve: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let ping = framed(br#"{"v":1,"verb":"ping"}"#);
        let mut reply = Vec::new();
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        loop {
            let child = self.child.as_mut().expect("daemon is running");
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "repro serve exited during start-up with {status}; see daemon.log"
                ));
            }
            if let Ok(mut stream) = UnixStream::connect(&self.socket) {
                if call(&mut stream, &ping, &mut reply).is_ok() && is_ok(&reply) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "repro serve did not answer ping within {DAEMON_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn socket(&self) -> &Path {
        &self.socket
    }

    /// VmHWM of the daemon process, in MiB.
    fn peak_rss_mb(&self) -> Option<f64> {
        sys::vm_hwm_mb(self.child.as_ref()?.id())
    }

    /// The daemon's answer to the `metrics` verb.
    fn metrics(&self) -> Result<JsonValue, String> {
        let mut client =
            busserve::Client::connect(&self.socket).map_err(|e| format!("metrics: {e}"))?;
        let request = JsonValue::Obj(vec![
            ("v".into(), JsonValue::Int(busserve::PROTOCOL_VERSION)),
            ("verb".into(), JsonValue::Str("metrics".into())),
        ]);
        let reply = client.call(&request).map_err(|e| format!("metrics: {e}"))?;
        reply
            .get("result")
            .cloned()
            .ok_or_else(|| format!("the metrics verb failed: {reply}"))
    }

    /// Drains the daemon with SIGTERM and waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon is running");
        sys::terminate(child.id());
        let deadline = Instant::now() + DAEMON_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("repro serve did not drain after SIGTERM".to_string());
                }
            }
        };
        let _ = std::fs::remove_file(&self.socket);
        match status? {
            status if status.success() => Ok(()),
            status => Err(format!("repro serve exited with {status} after SIGTERM")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// A started daemon, the time each start-up took, and the warm-fill
/// replies by request index.
struct Ready {
    daemon: Daemon,
    setup_s: Vec<f64>,
    filled: Vec<Vec<u8>>,
}

/// Starts the daemon `times` times, each followed by one pass over the
/// distinct requests — for the warm load the fill of its activity
/// store, for the cold load a warm-up of allocator and code paths — and
/// keeps the last one running.
fn set_up(ctx: &Ctx, load: &Load, times: usize) -> Result<Ready, String> {
    let mut setup_s = Vec::with_capacity(times);
    for i in 0..times {
        let start = Instant::now();
        let daemon = Daemon::start(ctx, &format!("{}-{i}", load.kind.label()))?;
        let filled = fill(daemon.socket(), &load.frames)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == times {
            return Ok(Ready {
                daemon,
                setup_s,
                filled,
            });
        }
        daemon.stop()?;
    }
    Err("no daemon start-up was requested".into())
}

/// A reply payload with the index of the request it answers.
type Reply = (usize, Vec<u8>);

/// Sends every request once, split over the connections; returns the
/// replies by request index.
fn fill(socket: &Path, frames: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, String> {
    let parts: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream =
                        UnixStream::connect(socket).map_err(|e| format!("fill: {e}"))?;
                    (c..frames.len())
                        .step_by(CONNECTIONS)
                        .map(|key| {
                            let mut reply = Vec::new();
                            call(&mut stream, &frames[key], &mut reply)
                                .map_err(|e| format!("fill: {e}"))?;
                            Ok((key, reply))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fill thread panicked"))
            .collect()
    });
    let mut replies = vec![Vec::new(); frames.len()];
    for part in parts {
        for (key, reply) in part? {
            replies[key] = reply;
        }
    }
    Ok(replies)
}

/// What a closed loop saw.
#[derive(Default)]
struct Phase {
    latencies_us: Vec<f64>,
    /// Traced loops only: each reply's `wall_us`, and the rest of its
    /// latency.
    server_us: Vec<f64>,
    transport_us: Vec<f64>,
    attempted: u64,
    ok: u64,
    failures: Vec<String>,
    /// Replies kept for checking, with their request index.
    samples: Vec<(usize, Vec<u8>)>,
    elapsed_s: f64,
}

/// Runs the closed loop for `seconds` on every connection at once.
fn closed_loop(socket: &Path, load: &Load, seconds: f64, traced: bool) -> Phase {
    let barrier = Barrier::new(CONNECTIONS);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || connection(socket, load, c, seconds, traced, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Phase::default();
    for part in parts {
        all.latencies_us.extend(part.latencies_us);
        all.server_us.extend(part.server_us);
        all.transport_us.extend(part.transport_us);
        all.attempted += part.attempted;
        all.ok += part.ok;
        all.failures.extend(part.failures);
        all.samples.extend(part.samples);
        all.elapsed_s = all.elapsed_s.max(part.elapsed_s);
    }
    all
}

/// One connection's closed loop: send, wait for the reply, repeat.
fn connection(
    socket: &Path,
    load: &Load,
    c: usize,
    seconds: f64,
    traced: bool,
    barrier: &Barrier,
) -> Phase {
    let mut phase = Phase::default();
    let mut stream = match UnixStream::connect(socket) {
        Ok(stream) => Some(stream),
        Err(e) => {
            phase.attempted += 1;
            phase.failures.push(format!("connect: {e}"));
            None
        }
    };
    let mut checked = vec![false; load.frames.len()];
    let mut reply = Vec::with_capacity(64 * 1024);
    barrier.wait();
    let start = Instant::now();
    for (n, &key) in load.sequences[c].iter().cycle().enumerate() {
        let Some(s) = stream.as_mut() else { break };
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        phase.attempted += 1;
        let sent = Instant::now();
        let result = call(s, &load.frames[key], &mut reply);
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        if let Err(e) = result {
            phase.failures.push(format!("transport: {e}"));
            stream = UnixStream::connect(socket).ok();
            continue;
        }
        if !is_ok(&reply) {
            let shown = &reply[..reply.len().min(300)];
            phase
                .failures
                .push(format!("error reply: {}", String::from_utf8_lossy(shown)));
            continue;
        }
        if traced {
            let Some(server) = wall_us(&reply) else {
                phase.failures.push("reply without wall_us".into());
                continue;
            };
            phase.server_us.push(server);
            phase.transport_us.push(latency_us - server);
        }
        phase.ok += 1;
        phase.latencies_us.push(latency_us);
        let check = match load.kind {
            Kind::Warm => !std::mem::replace(&mut checked[key], true),
            Kind::Cold => n % INLINE_CHECK_EVERY == 0,
        };
        if check {
            phase.samples.push((key, reply.clone()));
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Adds a loop's attempts and failures to the outcome.
fn tally(phase: &Phase, out: &mut Outcome) {
    out.attempted += phase.attempted;
    for failure in &phase.failures {
        out.fail(failure.clone());
    }
}

/// Checks kept replies against in-process evaluation: the
/// deterministic half (`baseline` and `results`) must match byte for
/// byte. Returns how many replies were checked.
fn verify(
    ctx: &Ctx,
    load: &Load,
    replies: impl IntoIterator<Item = (usize, Vec<u8>)>,
    out: &mut Outcome,
) -> Result<usize, String> {
    let session = Session::builder().values(VALUES).seed(ctx.seed).build();
    let mut expected: HashMap<usize, String> = HashMap::new();
    let mut checked = 0;
    for (key, reply) in replies {
        let want = match expected.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                let response = session
                    .evaluate(&load.requests[key])
                    .map_err(|e| format!("in-process evaluation: {e}"))?
                    .to_json();
                let (Some(baseline), Some(results)) =
                    (response.get("baseline"), response.get("results"))
                else {
                    return Err("in-process response lacks baseline or results".into());
                };
                entry.insert(format!("\"baseline\":{baseline},\"results\":{results}"))
            }
        }
        .as_bytes();
        checked += 1;
        if !reply.windows(want.len()).any(|w| w == want) {
            out.fail(format!(
                "{} request {key}: the deterministic half differs from in-process \
                 Session::evaluate",
                load.kind.label()
            ));
        }
    }
    Ok(checked)
}
