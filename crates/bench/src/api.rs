//! The versioned evaluation API: one request/response surface shared by
//! every front end.
//!
//! This module names one operation: an [`EvalRequest`] describes
//! *what* to evaluate (a stored workload or an inline trace, one or
//! more schemes, the lambda weighting, optional circuit pricing), an
//! [`EvalResponse`] carries *what came out* (per-scheme transition
//! counts, energy and predictor accuracy, cache provenance, timing),
//! and the [`Evaluator`] trait is the seam between them. [`Session`]
//! implements `Evaluator`; the `repro` batch binary and the `repro
//! serve` daemon are two thin front ends over this one surface, so a
//! request evaluated over the socket is byte-for-byte the computation
//! the batch binary runs.
//!
//! [`ApiService`] adapts an evaluator to the wire: it implements
//! [`busserve::Service`], translating JSON request bodies into
//! [`EvalRequest`]s and typed [`ApiError`]s into protocol error
//! envelopes. The wire grammar is documented in `docs/SERVICE.md`.

use std::sync::Mutex;
use std::time::Instant;

use buscoding::predict::trained::ArtifactError;
use buscoding::predict::PredictStats;
use buscoding::{percent_energy_removed, Activity, UnknownScheme, SCHEME_PATTERNS};
use busprobe::JsonValue;
use busserve::{Service, ServiceError};
use bustrace::{Trace, Width};
use wiremodel::{BusEnergyModel, Technology, TechnologyKind, Wire, WireStyle};

use crate::schemes::baseline_activity;
use crate::session::{Session, BASELINE_SCHEME};
use crate::workloads::{Workload, WorkloadError};

/// Version of the eval request/response schema. Bump on any change that
/// is not purely additive; responses echo it as `api`.
pub const API_VERSION: i64 = 1;

/// Largest trace a request may evaluate, in words: the most an inline
/// trace may carry and the largest explicit `len` of a stored one — the
/// same cap [`bustrace::io`] applies when reading traces from disk.
pub const MAX_INLINE_WORDS: usize = bustrace::io::DEFAULT_MAX_WORDS;

/// Most work one request may ask for, in scheme-words: its scheme count
/// times `max(words, SCHEME_BUILD_WORDS)` may not exceed 16 full-size
/// traces (2^30). The largest figure sweep, 10 schemes at 200 000
/// values, asks for 2·10^6.
pub const MAX_REQUEST_WORK: u64 = 16 * MAX_INLINE_WORDS as u64;

/// The least work a scheme is charged, in words: what its build costs
/// whatever the trace length, so a flood of schemes over a one-word
/// trace is refused too.
const SCHEME_BUILD_WORDS: usize = 65_536;

/// Refuses a request of `schemes` schemes over `words` words whose work
/// is above [`MAX_REQUEST_WORK`].
fn within_work_budget(schemes: usize, words: usize) -> Result<(), ApiError> {
    let work = (schemes as u64).saturating_mul(words.max(SCHEME_BUILD_WORDS) as u64);
    if work > MAX_REQUEST_WORK {
        return Err(ApiError::TooMuchWork {
            work,
            limit: MAX_REQUEST_WORK,
        });
    }
    Ok(())
}

static EVALS: busprobe::StaticCounter = busprobe::StaticCounter::new("bench.api.evals");
static EVAL_SCHEMES: busprobe::StaticCounter = busprobe::StaticCounter::new("bench.api.schemes");

/// Where the words under evaluation come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// A workload the session can regenerate deterministically; the
    /// optional knobs resolve through [`Session::trace_key`].
    Stored {
        /// The workload, addressed by [`Workload::name`].
        workload: Workload,
        /// Explicit trace length; defaults to the session length.
        len: Option<usize>,
        /// Upper bound applied after `len` resolves.
        cap: Option<usize>,
        /// Generator seed; defaults to the session seed.
        seed: Option<u64>,
    },
    /// Raw words shipped inside the request. Never memoized: the store
    /// is keyed by (workload, len, seed) provenance, which inline data
    /// does not have.
    Inline {
        /// Bus width every word must fit in.
        width: Width,
        /// The word stream.
        words: Vec<u64>,
    },
}

/// Optional circuit-level pricing: when present, each result also
/// carries wire energy in picojoules from [`wiremodel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Process technology.
    pub tech: TechnologyKind,
    /// Wire style (unbuffered or repeated).
    pub style: WireStyle,
    /// Wire length in millimetres.
    pub length_mm: f64,
    /// Supply-voltage override in volts; defaults to the technology's
    /// nominal Vdd.
    pub vdd: Option<f64>,
}

impl Pricing {
    /// Builds the energy model this pricing describes.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] when the wire length or voltage is out
    /// of range.
    pub fn model(&self) -> Result<BusEnergyModel, ApiError> {
        let mut tech = Technology::of(self.tech);
        if let Some(vdd) = self.vdd {
            if !vdd.is_finite() || vdd <= 0.0 || vdd > 10.0 {
                return Err(ApiError::BadRequest(format!(
                    "pricing.vdd must be in (0, 10] volts, got {vdd}"
                )));
            }
            tech.vdd = vdd;
        }
        let wire = Wire::new(tech, self.style, self.length_mm)
            .map_err(|e| ApiError::BadRequest(format!("pricing: {e}")))?;
        Ok(BusEnergyModel::new(wire))
    }
}

/// One evaluation request: schemes × one trace source, plus pricing.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Registry scheme names to evaluate, in response order.
    pub schemes: Vec<String>,
    /// The trace to run them over.
    pub source: TraceSource,
    /// Weight of coupling transitions relative to self transitions.
    pub lambda: f64,
    /// Optional circuit pricing.
    pub pricing: Option<Pricing>,
}

impl EvalRequest {
    /// A request over a stored workload with default knobs.
    pub fn stored(workload: Workload, schemes: Vec<String>) -> Self {
        EvalRequest {
            schemes,
            source: TraceSource::Stored {
                workload,
                len: None,
                cap: None,
                seed: None,
            },
            lambda: 1.0,
            pricing: None,
        }
    }

    /// A request over words shipped inline.
    pub fn inline(width: Width, words: Vec<u64>, schemes: Vec<String>) -> Self {
        EvalRequest {
            schemes,
            source: TraceSource::Inline { width, words },
            lambda: 1.0,
            pricing: None,
        }
    }

    /// Sets the lambda weighting.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets a stored source's explicit length (no-op for inline).
    #[must_use]
    pub fn len(mut self, len: usize) -> Self {
        if let TraceSource::Stored { len: slot, .. } = &mut self.source {
            *slot = Some(len);
        }
        self
    }

    /// Overrides a stored source's seed (no-op for inline).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        if let TraceSource::Stored { seed: slot, .. } = &mut self.source {
            *slot = Some(seed);
        }
        self
    }

    /// Attaches circuit pricing.
    #[must_use]
    pub fn pricing(mut self, pricing: Pricing) -> Self {
        self.pricing = Some(pricing);
        self
    }

    /// Parses a request from a JSON body (the flat object the wire
    /// envelope carries; `v`/`verb` keys are ignored here).
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`]s for malformed fields, unknown workloads, and
    /// oversized inline traces. Unknown *schemes* are deliberately not
    /// rejected here — they surface per-evaluation so the error can
    /// name the offending scheme.
    pub fn from_json(body: &JsonValue) -> Result<Self, ApiError> {
        let schemes = parse_schemes(body)?;
        let source = if let Some(trace) = body.get("trace") {
            parse_inline(trace)?
        } else {
            parse_stored(body)?
        };
        let lambda = match body.get("lambda") {
            None => 1.0,
            Some(v) => {
                let l = v
                    .as_f64()
                    .ok_or_else(|| ApiError::BadRequest("`lambda` must be a number".into()))?;
                if !l.is_finite() || l < 0.0 {
                    return Err(ApiError::BadRequest(format!(
                        "`lambda` must be finite and non-negative, got {l}"
                    )));
                }
                l
            }
        };
        let pricing = match body.get("pricing") {
            None | Some(JsonValue::Null) => None,
            Some(p) => Some(parse_pricing(p)?),
        };
        Ok(EvalRequest {
            schemes,
            source,
            lambda,
            pricing,
        })
    }

    /// Renders the request as a JSON body — the inverse of
    /// [`from_json`](Self::from_json); front ends add the envelope's
    /// `v` and `verb` keys.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs: Vec<(String, JsonValue)> = vec![(
            "schemes".into(),
            JsonValue::Arr(
                self.schemes
                    .iter()
                    .map(|s| JsonValue::Str(s.clone()))
                    .collect(),
            ),
        )];
        match &self.source {
            TraceSource::Stored {
                workload,
                len,
                cap,
                seed,
            } => {
                pairs.push(("workload".into(), JsonValue::Str(workload.name())));
                if let Some(len) = len {
                    pairs.push(("len".into(), JsonValue::from(*len as u64)));
                }
                if let Some(cap) = cap {
                    pairs.push(("cap".into(), JsonValue::from(*cap as u64)));
                }
                if let Some(seed) = seed {
                    pairs.push(("seed".into(), JsonValue::from(*seed)));
                }
            }
            TraceSource::Inline { width, words } => {
                pairs.push((
                    "trace".into(),
                    JsonValue::Obj(vec![
                        ("width".into(), JsonValue::from(u64::from(width.bits()))),
                        ("words".into(), JsonValue::Words(words.clone())),
                    ]),
                ));
            }
        }
        pairs.push(("lambda".into(), JsonValue::Num(self.lambda)));
        if let Some(p) = &self.pricing {
            let mut pp = vec![
                ("tech".into(), JsonValue::Str(p.tech.to_string())),
                ("style".into(), JsonValue::Str(p.style.to_string())),
                ("length_mm".into(), JsonValue::Num(p.length_mm)),
            ];
            if let Some(vdd) = p.vdd {
                pp.push(("vdd".into(), JsonValue::Num(vdd)));
            }
            pairs.push(("pricing".into(), JsonValue::Obj(pp)));
        }
        JsonValue::Obj(pairs)
    }
}

fn parse_schemes(body: &JsonValue) -> Result<Vec<String>, ApiError> {
    let schemes: Vec<String> = match body.get("schemes") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or_else(|| ApiError::BadRequest("`schemes` entries must be strings".into()))
            })
            .collect::<Result<_, _>>()?,
        Some(JsonValue::Str(one)) => vec![one.clone()],
        Some(_) => {
            return Err(ApiError::BadRequest(
                "`schemes` must be an array of scheme names".into(),
            ))
        }
        None => {
            return Err(ApiError::BadRequest(
                "request needs a `schemes` array".into(),
            ))
        }
    };
    if schemes.is_empty() {
        return Err(ApiError::BadRequest("`schemes` must not be empty".into()));
    }
    Ok(schemes)
}

fn parse_stored(body: &JsonValue) -> Result<TraceSource, ApiError> {
    let name = body
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            ApiError::BadRequest("request needs a `workload` name or an inline `trace`".into())
        })?;
    let workload = Workload::parse(name).map_err(ApiError::UnknownWorkload)?;
    let usize_field = |key: &str| -> Result<Option<usize>, ApiError> {
        match body.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(v) => v.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                ApiError::BadRequest(format!("`{key}` must be a non-negative integer"))
            }),
        }
    };
    let seed =
        match body.get("seed") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ApiError::BadRequest("`seed` must be a non-negative integer".into())
            })?),
        };
    Ok(TraceSource::Stored {
        workload,
        len: usize_field("len")?,
        cap: usize_field("cap")?,
        seed,
    })
}

fn parse_inline(trace: &JsonValue) -> Result<TraceSource, ApiError> {
    let bits = trace
        .get("width")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ApiError::BadRequest("`trace.width` must be a bit count".into()))?;
    let bits = u32::try_from(bits)
        .map_err(|_| ApiError::BadRequest(format!("`trace.width` out of range: {bits}")))?;
    let width =
        Width::new(bits).map_err(|e| ApiError::BadRequest(format!("`trace.width`: {e}")))?;
    let within_cap = |words: usize| {
        if words > MAX_INLINE_WORDS {
            return Err(ApiError::TooLarge {
                words,
                limit: MAX_INLINE_WORDS,
            });
        }
        Ok(())
    };
    let words = match trace.get("words") {
        Some(JsonValue::Words(words)) => {
            within_cap(words.len())?;
            words.clone()
        }
        // Any other array, e.g. one holding `-0` or `[]`: each element
        // must still be a non-negative integer.
        Some(JsonValue::Arr(items)) => {
            within_cap(items.len())?;
            items
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        ApiError::BadRequest(
                            "`trace.words` entries must be non-negative integers".into(),
                        )
                    })
                })
                .collect::<Result<Vec<u64>, _>>()?
        }
        _ => {
            return Err(ApiError::BadRequest(
                "`trace.words` must be an array of words".into(),
            ))
        }
    };
    Ok(TraceSource::Inline { width, words })
}

fn parse_pricing(p: &JsonValue) -> Result<Pricing, ApiError> {
    let tech = match p.get("tech").and_then(JsonValue::as_str) {
        Some("0.13um") => TechnologyKind::Tech013,
        Some("0.10um") => TechnologyKind::Tech010,
        Some("0.07um") => TechnologyKind::Tech007,
        Some(other) => {
            return Err(ApiError::BadRequest(format!(
                "`pricing.tech` must be one of 0.13um, 0.10um, 0.07um; got {other:?}"
            )))
        }
        None => {
            return Err(ApiError::BadRequest(
                "`pricing.tech` must be a technology name".into(),
            ))
        }
    };
    let style = match p.get("style").and_then(JsonValue::as_str) {
        Some("unbuffered") => WireStyle::Unbuffered,
        Some("repeated") | None => WireStyle::Repeated,
        Some(other) => {
            return Err(ApiError::BadRequest(format!(
                "`pricing.style` must be `unbuffered` or `repeated`; got {other:?}"
            )))
        }
    };
    let length_mm = p
        .get("length_mm")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ApiError::BadRequest("`pricing.length_mm` must be a number".into()))?;
    let vdd = match p.get("vdd") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| ApiError::BadRequest("`pricing.vdd` must be a number".into()))?,
        ),
    };
    Ok(Pricing {
        tech,
        style,
        length_mm,
        vdd,
    })
}

/// What went wrong with an evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// A field was missing or malformed.
    BadRequest(String),
    /// The workload name is not a workload in its canonical spelling;
    /// the error says why.
    UnknownWorkload(WorkloadError),
    /// A scheme name is not in the grammar or does not fit the bus.
    UnknownScheme(UnknownScheme),
    /// The trace exceeds [`MAX_INLINE_WORDS`].
    TooLarge {
        /// Words the request carried or asked for.
        words: usize,
        /// The accepted maximum.
        limit: usize,
    },
    /// The request's work exceeds [`MAX_REQUEST_WORK`].
    TooMuchWork {
        /// Scheme-words the request asked for.
        work: u64,
        /// The accepted maximum.
        limit: u64,
    },
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::BadRequest(msg) => write!(f, "{msg}"),
            ApiError::UnknownWorkload(e) => write!(f, "{e}"),
            ApiError::UnknownScheme(e) => write!(f, "{e}"),
            ApiError::TooLarge { words, limit } => {
                write!(f, "trace of {words} words exceeds the {limit}-word limit")
            }
            ApiError::TooMuchWork { work, limit } => write!(
                f,
                "request work of {work} scheme-words (schemes × max(words, {SCHEME_BUILD_WORDS})) exceeds the {limit} limit"
            ),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<UnknownScheme> for ApiError {
    fn from(e: UnknownScheme) -> Self {
        ApiError::UnknownScheme(e)
    }
}

impl From<ApiError> for ServiceError {
    fn from(e: ApiError) -> Self {
        let message = e.to_string();
        match e {
            ApiError::BadRequest(_) => ServiceError::bad_request(message),
            ApiError::UnknownWorkload(_) => ServiceError::new("unknown_workload", message),
            // A `trained:` name whose grammar is fine but whose
            // artifact cannot be loaded is its own wire condition:
            // `artifact_missing` when nothing was ever trained here,
            // `artifact_invalid` when the file exists but fails
            // validation. Everything else stays `unknown_scheme`, with
            // candidates that include concrete `trained:<name>` entries
            // only when the artifact directory actually has them.
            ApiError::UnknownScheme(err) => match err.artifact_error() {
                Some(artifact) => {
                    let kind = match artifact {
                        ArtifactError::Missing { .. } => "artifact_missing",
                        _ => "artifact_invalid",
                    };
                    ServiceError::new(kind, message)
                        .with_detail("scheme", JsonValue::Str(err.name().to_string()))
                }
                None => ServiceError::new("unknown_scheme", message)
                    .with_detail("scheme", JsonValue::Str(err.name().to_string()))
                    .with_detail(
                        "candidates",
                        JsonValue::Arr(
                            buscoding::scheme_candidates()
                                .into_iter()
                                .map(JsonValue::Str)
                                .collect(),
                        ),
                    ),
            },
            ApiError::TooLarge { words, limit } => ServiceError::new("too_large", message)
                .with_detail("words", JsonValue::from(words as u64))
                .with_detail("limit", JsonValue::from(limit as u64)),
            ApiError::TooMuchWork { work, limit } => ServiceError::new("too_large", message)
                .with_detail("work", JsonValue::from(work))
                .with_detail("limit", JsonValue::from(limit)),
        }
    }
}

/// One scheme's evaluation inside a response.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// The scheme's registry name, echoed from the request.
    pub scheme: String,
    /// Physical lines the coded bus uses.
    pub lines: u32,
    /// Self (ground-referenced) transitions.
    pub tau: u64,
    /// Coupling (inter-wire) transitions.
    pub kappa: u64,
    /// Words evaluated.
    pub steps: u64,
    /// `tau + lambda * kappa` under the request's lambda.
    pub weighted: f64,
    /// Percent of weighted baseline energy removed — the paper's
    /// headline metric.
    pub percent_removed: f64,
    /// Wire energy in picojoules under the request's pricing, when
    /// pricing was supplied.
    pub energy_pj: Option<f64>,
    /// How the scheme's predictor fared on each word, for the
    /// predictive families; `None` for a scheme that does not predict.
    pub predict: Option<PredictStats>,
    /// Whether the session store served the activity rather than this
    /// request encoding it (never true for inline sources).
    pub cached: bool,
}

/// The un-encoded bus the percentages are relative to.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSummary {
    /// Physical lines of the raw bus.
    pub lines: u32,
    /// Self transitions.
    pub tau: u64,
    /// Coupling transitions.
    pub kappa: u64,
    /// Words evaluated.
    pub steps: u64,
    /// `tau + lambda * kappa` under the request's lambda.
    pub weighted: f64,
    /// Wire energy in picojoules, when pricing was supplied.
    pub energy_pj: Option<f64>,
}

/// The outcome of one [`EvalRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Workload name, or `inline` for shipped words.
    pub workload: String,
    /// Resolved trace length actually evaluated.
    pub values: usize,
    /// Resolved generator seed; `None` for inline sources.
    pub seed: Option<u64>,
    /// The lambda the weighted figures use.
    pub lambda: f64,
    /// The un-encoded reference bus.
    pub baseline: BaselineSummary,
    /// Per-scheme results, in request order.
    pub results: Vec<SchemeResult>,
    /// How many schemes were served from the session store.
    pub cached: usize,
    /// How many schemes were evaluated fresh.
    pub computed: usize,
    /// Wall-clock time of the evaluation, in microseconds.
    pub wall_us: u64,
}

impl EvalResponse {
    /// Renders the response as JSON. The `results` array is fully
    /// deterministic — a function of the request alone — so front ends
    /// can be compared byte-for-byte on it; provenance (`cached` /
    /// `computed` counts) and `wall_us` live outside it because they
    /// legitimately differ between a cold batch run and a warm daemon.
    pub fn to_json(&self) -> JsonValue {
        let scheme_result = |r: &SchemeResult| {
            let mut pairs = vec![
                ("scheme".into(), JsonValue::Str(r.scheme.clone())),
                ("lines".into(), JsonValue::from(u64::from(r.lines))),
                ("tau".into(), JsonValue::from(r.tau)),
                ("kappa".into(), JsonValue::from(r.kappa)),
                ("steps".into(), JsonValue::from(r.steps)),
                ("weighted".into(), JsonValue::Num(r.weighted)),
                ("percent_removed".into(), JsonValue::Num(r.percent_removed)),
            ];
            if let Some(e) = r.energy_pj {
                pairs.push(("energy_pj".into(), JsonValue::Num(e)));
            }
            if let Some(p) = r.predict {
                let counts = [
                    ("last", p.last),
                    ("ranked", p.ranked),
                    ("raw", p.raw),
                    ("inverted", p.inverted),
                ];
                let counts = counts.map(|(k, n)| (k.into(), JsonValue::from(n)));
                pairs.push(("predict".into(), JsonValue::Obj(counts.into())));
            }
            JsonValue::Obj(pairs)
        };
        let mut baseline = vec![
            (
                "lines".into(),
                JsonValue::from(u64::from(self.baseline.lines)),
            ),
            ("tau".into(), JsonValue::from(self.baseline.tau)),
            ("kappa".into(), JsonValue::from(self.baseline.kappa)),
            ("steps".into(), JsonValue::from(self.baseline.steps)),
            ("weighted".into(), JsonValue::Num(self.baseline.weighted)),
        ];
        if let Some(e) = self.baseline.energy_pj {
            baseline.push(("energy_pj".into(), JsonValue::Num(e)));
        }
        JsonValue::Obj(vec![
            ("api".into(), JsonValue::Int(API_VERSION)),
            ("workload".into(), JsonValue::Str(self.workload.clone())),
            ("values".into(), JsonValue::from(self.values as u64)),
            (
                "seed".into(),
                match self.seed {
                    Some(s) => JsonValue::from(s),
                    None => JsonValue::Null,
                },
            ),
            ("lambda".into(), JsonValue::Num(self.lambda)),
            ("baseline".into(), JsonValue::Obj(baseline)),
            (
                "results".into(),
                JsonValue::Arr(self.results.iter().map(scheme_result).collect()),
            ),
            (
                "provenance".into(),
                JsonValue::Obj(vec![
                    ("cached".into(), JsonValue::from(self.cached as u64)),
                    ("computed".into(), JsonValue::from(self.computed as u64)),
                ]),
            ),
            ("wall_us".into(), JsonValue::from(self.wall_us)),
        ])
    }
}

/// Anything that can answer an [`EvalRequest`]. [`Session`] is the
/// canonical implementation; front ends and tests depend on the trait
/// so a daemon, the batch binary, and a mock all present one surface.
pub trait Evaluator {
    /// Evaluates every scheme in the request over its trace source.
    ///
    /// # Errors
    ///
    /// A typed [`ApiError`]; implementations must not panic on bad
    /// requests.
    fn evaluate(&self, request: &EvalRequest) -> Result<EvalResponse, ApiError>;
}

impl Evaluator for Session {
    /// Schemes are evaluated in request order, serially: request-level
    /// parallelism belongs to the caller (the batch runner fans out
    /// over workloads; the daemon over connections), and keeping this leaf
    /// serial keeps thread fan-out bounded and results deterministic.
    fn evaluate(&self, request: &EvalRequest) -> Result<EvalResponse, ApiError> {
        let _span = busprobe::span("bench.api.evaluate");
        EVALS.inc();
        EVAL_SCHEMES.add(request.schemes.len() as u64);
        let start = Instant::now();
        let model = request.pricing.as_ref().map(Pricing::model).transpose()?;
        let price = |a: &Activity| model.as_ref().map(|m| m.energy_pj(a.tau(), a.kappa()));

        let (baseline, evaluated, workload, values, seed) = match &request.source {
            TraceSource::Stored {
                workload,
                len,
                cap,
                seed,
            } => {
                if let Some(words) = len.filter(|&n| n > MAX_INLINE_WORDS) {
                    return Err(ApiError::TooLarge {
                        words,
                        limit: MAX_INLINE_WORDS,
                    });
                }
                let key = self.trace_key(*workload, *len, *cap, *seed);
                within_work_budget(request.schemes.len(), key.values())?;
                let evaluated = request
                    .schemes
                    .iter()
                    .map(|scheme| self.try_activity(scheme, &key))
                    .collect::<Result<Vec<_>, _>>()?;
                let (baseline, ..) = self.try_activity(BASELINE_SCHEME, &key)?;
                (
                    baseline,
                    evaluated,
                    workload.name(),
                    key.values(),
                    Some(key.seed()),
                )
            }
            TraceSource::Inline { width, words } => {
                if words.len() > MAX_INLINE_WORDS {
                    return Err(ApiError::TooLarge {
                        words: words.len(),
                        limit: MAX_INLINE_WORDS,
                    });
                }
                within_work_budget(request.schemes.len(), words.len())?;
                if let Some(i) = words.iter().position(|&w| !width.contains(w)) {
                    return Err(ApiError::BadRequest(format!(
                        "`trace.words[{i}]` = {} does not fit the {}-bit bus",
                        words[i],
                        width.bits()
                    )));
                }
                let trace = Trace::from_values(*width, words.iter().copied());
                let mut evaluated = Vec::with_capacity(request.schemes.len());
                for scheme in &request.schemes {
                    let mut pair = buscoding::scheme_by_name(scheme, *width)?;
                    let activity = buscoding::evaluate_blocks(pair.encoder_mut(), &trace);
                    evaluated.push((activity, pair.encoder_mut().predict_stats(), false));
                }
                let baseline = baseline_activity(&trace);
                (baseline, evaluated, "inline".to_string(), trace.len(), None)
            }
        };

        let results: Vec<SchemeResult> = request
            .schemes
            .iter()
            .zip(&evaluated)
            .map(|(scheme, (activity, predict, cached))| SchemeResult {
                scheme: scheme.clone(),
                lines: activity.lines(),
                tau: activity.tau(),
                kappa: activity.kappa(),
                steps: activity.steps(),
                weighted: activity.weighted(request.lambda),
                percent_removed: percent_energy_removed(activity, &baseline, request.lambda),
                energy_pj: price(activity),
                predict: *predict,
                cached: *cached,
            })
            .collect();
        let cached = results.iter().filter(|r| r.cached).count();
        Ok(EvalResponse {
            workload,
            values,
            seed,
            lambda: request.lambda,
            baseline: BaselineSummary {
                lines: baseline.lines(),
                tau: baseline.tau(),
                kappa: baseline.kappa(),
                steps: baseline.steps(),
                weighted: baseline.weighted(request.lambda),
                energy_pj: price(&baseline),
            },
            computed: results.len() - cached,
            cached,
            results,
            wall_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        })
    }
}

/// The wire adapter: implements [`busserve::Service`] over an
/// [`Evaluator`], exposing the `ping`, `eval`, `metrics`, and `profile`
/// verbs. The `repro serve` socket daemon hosts this struct behind the
/// framed transport.
pub struct ApiService {
    session: Session,
}

impl ApiService {
    /// Wraps a session for serving.
    pub fn new(session: Session) -> Self {
        ApiService { session }
    }

    fn eval(&self, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        let request = EvalRequest::from_json(body)?;
        let response = self.session.evaluate(&request)?;
        Ok(response.to_json())
    }

    fn metrics(&self) -> JsonValue {
        let snaps = busprobe::snapshot();
        let value_of = |name: &str| {
            snaps
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| match &s.kind {
                    busprobe::MetricKind::Counter { value } => Some(*value),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let hits = value_of("bench.session.activity_hits");
        let misses = value_of("bench.session.activity_misses");
        let total = hits + misses;
        let hit_rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };
        JsonValue::Obj(vec![
            (
                "activity".into(),
                JsonValue::Obj(vec![
                    ("hits".into(), JsonValue::from(hits)),
                    ("misses".into(), JsonValue::from(misses)),
                    ("hit_rate".into(), JsonValue::Num(hit_rate)),
                ]),
            ),
            ("metrics".into(), busprobe::snapshot_to_json(&snaps)),
        ])
    }

    /// Runs one evaluation under the span recorder and returns the
    /// response together with its Chrome-trace span dump. The recorder
    /// is process-global, so concurrent `profile` requests serialize on
    /// a lock; spans from other in-flight requests are excluded by
    /// restricting to this request's subtree.
    fn profile(&self, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        static RECORDER: Mutex<()> = Mutex::new(());
        let request = EvalRequest::from_json(body)?;
        let _guard = RECORDER.lock().unwrap_or_else(|p| p.into_inner());
        let was_on = busprobe::trace::enabled();
        busprobe::trace::clear();
        busprobe::trace::set_enabled(true);
        let outcome = {
            let _root = busprobe::span("bench.api.profile");
            self.session.evaluate(&request)
        };
        busprobe::trace::set_enabled(was_on);
        let drained = busprobe::trace::drain();
        // The daemon wraps every request in its own span, so the root
        // recorded here may carry a transport prefix (e.g.
        // `busserve.request/bench.api.profile`); find it by suffix and
        // keep the spans under it.
        let prefix = drained
            .iter()
            .find(|s| s.path == "bench.api.profile" || s.path.ends_with("/bench.api.profile"))
            .map(|root| format!("{}/", root.path));
        let spans: Vec<_> = drained
            .into_iter()
            .filter(|s| prefix.as_ref().is_some_and(|p| s.path.starts_with(p)))
            .collect();
        let response = outcome.map_err(ServiceError::from)?;
        Ok(JsonValue::Obj(vec![
            ("eval".into(), response.to_json()),
            ("spans".into(), JsonValue::from(spans.len() as u64)),
            ("chrome_trace".into(), busprobe::trace::chrome_trace(&spans)),
        ]))
    }
}

impl Service for ApiService {
    fn handle(&self, verb: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        match verb {
            "ping" => Ok(JsonValue::Obj(vec![
                ("pong".into(), JsonValue::Bool(true)),
                ("api".into(), JsonValue::Int(API_VERSION)),
                (
                    "schemes".into(),
                    JsonValue::Arr(
                        SCHEME_PATTERNS
                            .iter()
                            .map(|p| JsonValue::Str((*p).to_string()))
                            .collect(),
                    ),
                ),
            ])),
            "eval" => self.eval(body),
            "metrics" => Ok(self.metrics()),
            "profile" => self.profile(body),
            other => Err(ServiceError::new(
                "unknown_verb",
                format!("no such verb `{other}` (expected ping, eval, metrics, profile)"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ActivityQuery;
    use proptest::prelude::*;
    use simcpu::{Benchmark, BusKind};

    fn session() -> Session {
        Session::builder().values(400).seed(7).build()
    }

    #[test]
    fn sixty_four_bit_requests_round_trip_exactly() {
        let words = vec![1, u64::MAX, 1 << 63, i64::MAX as u64];
        let inline = EvalRequest::inline(
            Width::new(64).expect("a width"),
            words,
            vec!["identity".into()],
        );
        let stored = EvalRequest::stored(Workload::Random, vec!["identity".into()]).seed(u64::MAX);
        for req in [inline, stored] {
            assert_eq!(EvalRequest::from_json(&req.to_json()).as_ref(), Ok(&req));
            let text = req.to_json().to_string();
            let body = busprobe::json::parse(&text).expect("renders JSON");
            assert_eq!(EvalRequest::from_json(&body).as_ref(), Ok(&req), "{text}");
        }
    }

    #[test]
    fn inline_words_keep_their_answers_off_the_words_path() {
        let words = |raw: &str| {
            let body = busprobe::json::parse(&format!(
                r#"{{"schemes":["identity"],"trace":{{"width":8,"words":{raw}}}}}"#
            ))
            .expect("test json");
            EvalRequest::from_json(&body).map(|r| match r.source {
                TraceSource::Inline { words, .. } => words,
                TraceSource::Stored { .. } => unreachable!("an inline body"),
            })
        };
        assert_eq!(words("[-0, 3]"), Ok(vec![0, 3]));
        assert_eq!(words("[]"), Ok(vec![]));
        assert_eq!(words("[ 1 ,\n2 ]"), Ok(vec![1, 2]));
    }

    #[test]
    fn evaluate_matches_direct_session_calls() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]);
        let resp = s.evaluate(&req).expect("evaluates");
        let direct = s.activity(&ActivityQuery::new("window(8)", Workload::Random));
        let baseline = s.baseline(Workload::Random);
        assert_eq!(resp.results.len(), 1);
        assert_eq!(resp.results[0].tau, direct.tau());
        assert_eq!(resp.results[0].kappa, direct.kappa());
        assert_eq!(
            resp.results[0].percent_removed,
            percent_energy_removed(&direct, &baseline, 1.0)
        );
        assert_eq!(resp.baseline.tau, baseline.tau());
        assert_eq!(resp.workload, "random");
        assert_eq!(resp.values, 400);
        assert_eq!(resp.seed, Some(7));
    }

    #[test]
    fn evaluate_reports_cache_provenance() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["window(4)".into()]);
        let cold = s.evaluate(&req).expect("cold");
        assert_eq!((cold.cached, cold.computed), (0, 1));
        let warm = s.evaluate(&req).expect("warm");
        assert_eq!((warm.cached, warm.computed), (1, 0));
        assert!(warm.results[0].cached);
        assert!(cold.results[0].predict.is_some());
        assert_eq!(warm.results[0].predict, cold.results[0].predict);
        // The deterministic half of the response is identical.
        assert_eq!(warm.results, {
            let mut r = cold.results.clone();
            r[0].cached = true;
            r
        });
    }

    #[test]
    fn evaluate_inline_matches_stored_trace_content() {
        let s = session();
        let trace = Workload::Random.trace(400, 7);
        let req = EvalRequest::inline(
            trace.width(),
            trace.values().to_vec(),
            vec!["window(8)".into()],
        );
        let inline = s.evaluate(&req).expect("inline");
        let stored = s
            .evaluate(&EvalRequest::stored(
                Workload::Random,
                vec!["window(8)".into()],
            ))
            .expect("stored");
        assert_eq!(inline.results[0].tau, stored.results[0].tau);
        assert_eq!(inline.results[0].kappa, stored.results[0].kappa);
        assert!(inline.results[0].predict.is_some());
        assert_eq!(inline.results[0].predict, stored.results[0].predict);
        assert_eq!(inline.workload, "inline");
        assert_eq!(inline.seed, None);
        assert!(!inline.results[0].cached);
    }

    #[test]
    fn predictive_families_report_one_outcome_per_word() {
        let s = session();
        let families = [
            ("identity", false),
            ("inversion(1ch l1)", false),
            ("workzone(4)", false),
            ("stride(4)", true),
            ("window(8)", true),
            ("context-value(28+8 d4096)", true),
            ("context-transition(28+8 d4096)", true),
            ("fcm(2 2^12)", true),
        ];
        let schemes = families.iter().map(|(name, _)| name.to_string()).collect();
        let resp = s
            .evaluate(&EvalRequest::stored(Workload::Random, schemes))
            .expect("evaluates");
        let json = resp.to_json();
        let Some(JsonValue::Arr(rendered)) = json.get("results") else {
            panic!("no results array: {json}")
        };
        for ((name, predictive), (result, json)) in
            families.iter().zip(resp.results.iter().zip(rendered))
        {
            assert_eq!(result.predict.is_some(), *predictive, "{name}");
            assert_eq!(json.get("predict").is_some(), *predictive, "{name}");
            if let Some(p) = result.predict {
                assert_eq!(
                    p.last + p.ranked + p.raw + p.inverted,
                    result.steps,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn unknown_scheme_is_typed_with_candidates() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["tarot(3)".into()]);
        let err = s.evaluate(&req).expect_err("unknown scheme");
        assert!(matches!(err, ApiError::UnknownScheme(_)), "{err}");
        let service_err = ServiceError::from(err);
        assert_eq!(service_err.kind, "unknown_scheme");
        let candidates = service_err
            .detail
            .iter()
            .find(|(k, _)| k == "candidates")
            .map(|(_, v)| v.clone());
        // At least every static pattern; concrete `trained:<name>`
        // entries ride along only when the artifact directory has them.
        assert!(
            matches!(candidates, Some(JsonValue::Arr(ref items)) if items.len() >= SCHEME_PATTERNS.len()
                && items.iter().any(|v| matches!(v, JsonValue::Str(s) if s == "window(<entries>)"))),
            "{service_err:?}"
        );
    }

    #[test]
    fn pricing_attaches_energy() {
        let s = session();
        let req = EvalRequest::stored(Workload::Random, vec!["identity".into()]).pricing(Pricing {
            tech: TechnologyKind::Tech013,
            style: WireStyle::Repeated,
            length_mm: 10.0,
            vdd: None,
        });
        let resp = s.evaluate(&req).expect("evaluates");
        let energy = resp.results[0].energy_pj.expect("priced");
        assert!(energy > 0.0);
        // Identity coding leaves the trace alone: same counts as the
        // baseline, so the same energy.
        assert_eq!(Some(energy), resp.baseline.energy_pj);
        // Lower Vdd, quadratically less energy.
        let mut cheap = req.clone();
        cheap.pricing.as_mut().expect("set").vdd = Some(0.6);
        let cheap = s.evaluate(&cheap).expect("evaluates");
        assert!(cheap.results[0].energy_pj.expect("priced") < energy);
    }

    #[test]
    fn bad_requests_are_typed_not_panics() {
        let cases: &[(&str, &str)] = &[
            (r#"{"workload":"random"}"#, "schemes"),
            (r#"{"schemes":[],"workload":"random"}"#, "empty"),
            (r#"{"schemes":["identity"]}"#, "workload"),
            (
                r#"{"schemes":["identity"],"workload":"gcc/cache"}"#,
                "unknown workload",
            ),
            (
                r#"{"schemes":["identity"],"workload":"random","lambda":-1}"#,
                "lambda",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":99,"words":[1]}}"#,
                "width",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":8,"words":[1, -1]}}"#,
                "negative word",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":8,"words":[1.5, 2e3]}}"#,
                "fractional word",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":64,"words":[18446744073709551616]}}"#,
                "word above u64::MAX",
            ),
            (
                r#"{"schemes":["identity"],"trace":{"width":8,"words":7}}"#,
                "words not an array",
            ),
            (
                r#"{"schemes":["identity"],"workload":"random","pricing":{"tech":"5um","length_mm":1}}"#,
                "tech",
            ),
        ];
        for (raw, why) in cases {
            let body = busprobe::json::parse(raw).expect("test json");
            assert!(EvalRequest::from_json(&body).is_err(), "{why}: {raw}");
        }
    }

    #[test]
    fn service_verbs_answer_over_handle() {
        let service = ApiService::new(session());
        let ping = service
            .handle("ping", &JsonValue::Obj(vec![]))
            .expect("ping");
        assert_eq!(ping.get("pong"), Some(&JsonValue::Bool(true)));

        let body = EvalRequest::stored(Workload::Random, vec!["window(8)".into()]).to_json();
        let eval = service.handle("eval", &body).expect("eval");
        assert_eq!(
            eval.get("workload").and_then(JsonValue::as_str),
            Some("random")
        );

        let metrics = service
            .handle("metrics", &JsonValue::Obj(vec![]))
            .expect("metrics");
        assert!(metrics.get("activity").is_some());

        let err = service
            .handle("frobnicate", &JsonValue::Obj(vec![]))
            .expect_err("unknown verb");
        assert_eq!(err.kind, "unknown_verb");
    }

    /// The keys the decoder reads and some of the names it accepts:
    /// object keys and strings in arbitrary bodies, so they reach the
    /// decoder's branches.
    const NAMES: &str = "schemes workload trace width words len cap seed lambda pricing tech \
        style length_mm vdd identity phased/0 0.13um";

    /// An arbitrary JSON value nested at most `.0` deep.
    struct AnyJson(u32);

    impl Strategy for AnyJson {
        type Value = JsonValue;
        fn sample(&self, rng: &mut TestRng) -> JsonValue {
            let inner = AnyJson(self.0.saturating_sub(1));
            let names: Vec<&str> = NAMES.split_whitespace().collect();
            let pick = |rng: &mut TestRng| names[rng.below(names.len() as u64) as usize];
            let count = |rng: &mut TestRng| 0..rng.below(6);
            match rng.below(if self.0 == 0 { 7 } else { 9 }) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.next_u64() & 1 == 1),
                2 => JsonValue::Int((rng.next_u64() as i64) >> rng.below(64)),
                3 => JsonValue::UInt(rng.next_u64() | 1 << 63),
                4 => JsonValue::Num(f64::from_bits(rng.next_u64())),
                5 => JsonValue::Str(pick(rng).into()),
                6 => JsonValue::Words(count(rng).map(|_| rng.next_u64() >> 40).collect()),
                7 => JsonValue::Arr(count(rng).map(|_| inner.sample(rng)).collect()),
                _ => {
                    let pairs = count(rng).map(|_| (pick(rng).into(), inner.sample(rng)));
                    JsonValue::Obj(pairs.collect())
                }
            }
        }
    }

    /// Any finite non-negative `f64`, from the bits of a `u64`.
    fn finite(bits: u64) -> f64 {
        f64::from_bits(bits % f64::INFINITY.to_bits())
    }

    /// Stored requests with optional `len`/`cap`/`seed` anywhere in
    /// `u64`, and inline requests at every width with in-range words;
    /// either may carry pricing.
    fn request() -> impl Strategy<Value = EvalRequest> {
        let opt = || (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v));
        let stored = (0..19usize, any::<usize>(), opt(), opt(), opt());
        let stored = stored.prop_map(|(w, n, len, cap, seed)| {
            let workload = match w {
                17 => Workload::Random,
                18 => Workload::Phased { phase: n.max(1) },
                b => Workload::Bench(Benchmark::ALL[b], BusKind::Memory),
            };
            let (len, cap) = (len.map(|n| n as usize), cap.map(|n| n as usize));
            TraceSource::Stored {
                workload,
                len,
                cap,
                seed,
            }
        });
        let inline = (1..=64u32, prop::collection::vec(any::<u64>(), 0..32));
        let inline = inline.prop_map(|(bits, words)| {
            let width = Width::new(bits).expect("a width");
            let words = words.into_iter().map(|w| width.truncate(w)).collect();
            TraceSource::Inline { width, words }
        });
        let pricing = (0..4usize, any::<bool>(), any::<u64>(), opt());
        let pricing = pricing.prop_map(|(t, repeated, mm, vdd)| {
            use TechnologyKind::*;
            Some(Pricing {
                tech: *[Tech013, Tech010, Tech007].get(t)?,
                style: [WireStyle::Unbuffered, WireStyle::Repeated][usize::from(repeated)],
                length_mm: finite(mm),
                vdd: vdd.map(finite),
            })
        });
        let name = prop::collection::vec(any::<u8>(), 0..12)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
        let schemes = prop::collection::vec(name, 1..4);
        let parts = (schemes, prop_oneof![stored, inline], any::<u64>(), pricing);
        parts.prop_map(|(schemes, source, lambda, pricing)| EvalRequest {
            schemes,
            source,
            lambda: finite(lambda),
            pricing,
        })
    }

    /// Replaces (or, with `delete`, removes) the field of `body` that `at`
    /// picks, possibly inside a nested object.
    fn mutate(body: &mut JsonValue, at: usize, delete: bool, with: JsonValue) {
        let JsonValue::Obj(pairs) = body else { return };
        let (i, rest) = (at % pairs.len().max(1), at / pairs.len().max(1));
        match pairs.get_mut(i) {
            Some((_, obj @ JsonValue::Obj(_))) if rest % 2 == 1 => {
                mutate(obj, rest / 2, delete, with);
            }
            Some(_) if delete => drop(pairs.remove(i)),
            Some((_, value)) => *value = with,
            None => {}
        }
    }

    /// The decoder's answer is a request or one of its typed errors.
    fn assert_decodes_or_is_typed(body: &JsonValue) {
        if let Err(e) = EvalRequest::from_json(body) {
            let kind = ServiceError::from(e).kind;
            let typed = ["bad_request", "unknown_workload", "too_large"].contains(&kind.as_str());
            assert!(typed, "{kind}: {body}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bodies_decode_or_are_typed_errors(body in AnyJson(3)) {
            assert_decodes_or_is_typed(&body);
        }

        #[test]
        fn mutated_bodies_decode_or_are_typed_errors(
            request in request(),
            with in AnyJson(2),
            (at, delete) in (any::<usize>(), any::<bool>()),
        ) {
            let mut body = request.to_json();
            mutate(&mut body, at, delete, with);
            assert_decodes_or_is_typed(&body);
        }

        #[test]
        fn request_json_round_trips(request in request()) {
            prop_assert_eq!(EvalRequest::from_json(&request.to_json()).as_ref(), Ok(&request));
            let text = request.to_json().to_string();
            let body = busprobe::json::parse(&text).expect("renders JSON");
            prop_assert_eq!(EvalRequest::from_json(&body).as_ref(), Ok(&request));
        }
    }
}
