//! The scheme grammar and factory. [`SchemeSpec`] is the typed name of
//! every coding scheme in this crate: its [`Display`](fmt::Display)
//! form (`window(8)`, `context-value(28+8 d4096)`, …) is the scheme's
//! one name, and [`FromStr`] accepts only names that render back to
//! themselves, with every parameter inside its limit. The grammar and
//! its limits are tabulated once, in `docs/SERVICE.md` ("Scheme
//! grammar").
//!
//! ```
//! use buscoding::{scheme_by_name, SchemeSpec};
//! use bustrace::Width;
//!
//! assert_eq!("window(8)".parse(), Ok(SchemeSpec::Window { entries: 8 }));
//! assert!("window(08)".parse::<SchemeSpec>().is_err()); // one spelling
//! assert_eq!(scheme_by_name("window(8)", Width::W32).unwrap().lines(), 34);
//! ```

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use bustrace::Width;

use crate::codec::{Decoder, Encoder, Transcoder};
use crate::energy::CostModel;
use crate::identity::IdentityCodec;
use crate::inversion::{InversionDecoder, InversionEncoder, PatternSet};
use crate::predict::trained::{
    artifact_dir, available_artifacts, load_named_artifact, trained_codec, ArtifactError,
};
use crate::predict::{
    context_transition_codec, context_value_codec, fcm_codec, stride_codec, window_codec,
    ContextConfig, MAX_ENTRIES,
};
use crate::workzone::{WorkZoneDecoder, WorkZoneEncoder};

/// Largest working-zone register count.
const MAX_ZONES: usize = 16;
/// Largest inversion chunk count (`2^6` = 64 patterns).
const MAX_CHUNKS: u32 = 6;
/// Largest FCM table-size exponent.
const MAX_TABLE_BITS: u32 = 24;
/// The widest bus state word, data plus control lines.
const MAX_LINES: u32 = 64;

/// A coding scheme and its parameters (paper Section 4.3), declared in
/// [`SCHEME_PATTERNS`] order.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// The un-encoded bus.
    Identity,
    /// Generalized inversion coder over `2^chunks` patterns, designed
    /// against the given λ (the λ0/λ1/λN families of Figure 15).
    Inversion {
        /// Independently invertible fields (1 is classic bus-invert).
        chunks: u32,
        /// Design-time λ of the minimizing cost function.
        design_lambda: f64,
    },
    /// Strided predictor bank with strides `1..=strides`.
    Stride {
        /// Number of stride predictors.
        strides: usize,
    },
    /// Window-based transcoder.
    Window {
        /// Shift-register entries.
        entries: usize,
    },
    /// Value-based context transcoder.
    ContextValue {
        /// Frequency-table entries.
        table: usize,
        /// Staging shift-register entries.
        shift: usize,
        /// Counter-division period (0 disables).
        divide: u64,
    },
    /// Transition-based context transcoder.
    ContextTransition {
        /// Frequency-table entries.
        table: usize,
        /// Staging shift-register entries.
        shift: usize,
        /// Counter-division period (0 disables).
        divide: u64,
    },
    /// Working-zone encoding (Musoll et al., the paper's reference
    /// \[15\]) — the classic address-bus baseline.
    WorkZone {
        /// Zone registers.
        zones: usize,
    },
    /// FCM + DFCM value prediction (Sazeides & Smith, the paper's
    /// reference \[19\]).
    Fcm {
        /// Context order.
        order: usize,
        /// log2 of the prediction-table size.
        table_bits: u32,
    },
    /// An offline-trained artifact from the artifact directory.
    Trained {
        /// The artifact's name.
        artifact: String,
    },
}

/// The scheme grammar, one pattern per [`SchemeSpec`] variant, in
/// declaration order.
pub const SCHEME_PATTERNS: &[&str] = &[
    "identity",
    "inversion(<chunks>ch l<lambda>)",
    "stride(<strides>)",
    "window(<entries>)",
    "context-value(<table>+<shift> d<divide>)",
    "context-transition(<table>+<shift> d<divide>)",
    "workzone(<zones>)",
    "fcm(<order> 2^<table_bits>)",
    "trained:<artifact>",
];

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Identity => write!(f, "identity"),
            SchemeSpec::Inversion {
                chunks,
                design_lambda,
            } => write!(f, "inversion({chunks}ch l{design_lambda})"),
            SchemeSpec::Stride { strides } => write!(f, "stride({strides})"),
            SchemeSpec::Window { entries } => write!(f, "window({entries})"),
            SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            } => write!(f, "context-value({table}+{shift} d{divide})"),
            SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            } => write!(f, "context-transition({table}+{shift} d{divide})"),
            SchemeSpec::WorkZone { zones } => write!(f, "workzone({zones})"),
            SchemeSpec::Fcm { order, table_bits } => write!(f, "fcm({order} 2^{table_bits})"),
            SchemeSpec::Trained { artifact } => write!(f, "trained:{artifact}"),
        }
    }
}

impl FromStr for SchemeSpec {
    type Err = UnknownScheme;

    /// Parses a scheme name, rejecting out-of-range parameters and any
    /// spelling that is not the canonical rendering (`window(08)`,
    /// `inversion(1ch l1e3)`). `trained:` artifacts are checked when
    /// built.
    fn from_str(name: &str) -> Result<Self, UnknownScheme> {
        parse(name)
            .filter(|spec| spec.to_string() == name)
            .ok_or_else(|| UnknownScheme::new(name, None))
    }
}

/// A count in `1..=max`.
fn count<T: FromStr + PartialOrd + From<u8>>(text: &str, max: T) -> Option<T> {
    text.parse().ok().filter(|n| (T::from(1)..=max).contains(n))
}

/// The lenient half of [`SchemeSpec::from_str`]: range-checked, but
/// any spelling the standard number parsers accept.
fn parse(name: &str) -> Option<SchemeSpec> {
    if name == "identity" {
        return Some(SchemeSpec::Identity);
    }
    if let Some(artifact) = name.strip_prefix("trained:") {
        let artifact = artifact.to_string();
        return Some(SchemeSpec::Trained { artifact });
    }
    let (family, args) = name.strip_suffix(')')?.split_once('(')?;
    Some(match family {
        "inversion" => {
            let (chunks, lambda) = args.split_once("ch l")?;
            let chunks = count(chunks, MAX_CHUNKS)?;
            let design_lambda = lambda
                .parse()
                .ok()
                .filter(|l: &f64| l.is_finite() && l.is_sign_positive())?;
            SchemeSpec::Inversion {
                chunks,
                design_lambda,
            }
        }
        "stride" => SchemeSpec::Stride {
            strides: count(args, MAX_ENTRIES)?,
        },
        "window" => SchemeSpec::Window {
            entries: count(args, MAX_ENTRIES)?,
        },
        "context-value" | "context-transition" => {
            let (sizes, divide) = args.split_once(" d")?;
            let (table, shift) = sizes.split_once('+')?;
            let (table, shift) = (count(table, MAX_ENTRIES)?, count(shift, MAX_ENTRIES)?);
            let divide = divide.parse().ok()?;
            if family == "context-value" {
                SchemeSpec::ContextValue {
                    table,
                    shift,
                    divide,
                }
            } else {
                SchemeSpec::ContextTransition {
                    table,
                    shift,
                    divide,
                }
            }
        }
        "workzone" => SchemeSpec::WorkZone {
            zones: count(args, MAX_ZONES)?,
        },
        "fcm" => {
            let (order, bits) = args.split_once(" 2^")?;
            let order = count(order, MAX_ENTRIES)?;
            let table_bits = count(bits, MAX_TABLE_BITS)?;
            SchemeSpec::Fcm { order, table_bits }
        }
        _ => return None,
    })
}

/// Why a scheme needing `control` control lines, `ranks` prediction
/// ranks (LAST included; 0 if it predicts nothing) and `min_bits` data
/// bits cannot run on a `width` bus.
fn misfit(width: Width, control: u32, ranks: usize, min_bits: u32) -> Option<String> {
    let (lines, codes) = (width.bits() + control, width.value_count());
    if width.bits() < min_bits {
        Some(format!("needs at least {min_bits} data bits, not {width}"))
    } else if lines > MAX_LINES {
        Some(format!("{lines} bus lines at {width} exceed {MAX_LINES}"))
    } else if codes.is_some_and(|codes| ranks as u64 > codes) {
        Some(format!("{ranks} prediction ranks exceed a {width} bus"))
    } else {
        None
    }
}

/// Boxes a scheme's encoder/decoder pair.
fn boxed<E: Encoder + 'static, D: Decoder + 'static>(
    (e, d): (E, D),
) -> (Box<dyn Encoder>, Box<dyn Decoder>) {
    (Box::new(e), Box::new(d))
}

impl SchemeSpec {
    /// Builds a fresh encoder/decoder pair for this scheme at the given
    /// bus width, named by the scheme's display name. Calling twice
    /// yields two independent pairs in their power-on state.
    ///
    /// # Errors
    ///
    /// [`UnknownScheme`] when the scheme does not fit the width (the
    /// width rules are in `docs/SERVICE.md`), or when a `trained:`
    /// artifact cannot be loaded or was trained at another width.
    pub fn build(&self, width: Width) -> Result<Transcoder, UnknownScheme> {
        let name = self.to_string();
        let fits = |control, ranks, min_bits| match misfit(width, control, ranks, min_bits) {
            Some(reason) => Err(UnknownScheme::new(&name, Some(reason))),
            None => Ok(()),
        };
        // Control lines, prediction ranks and data bits per family; a
        // trained table's ranks are checked once it is loaded.
        match *self {
            SchemeSpec::Identity => fits(0, 0, 1),
            SchemeSpec::Inversion { chunks, .. } => fits(chunks, 0, chunks),
            SchemeSpec::Stride { strides: n } | SchemeSpec::Window { entries: n } => {
                fits(2, 1 + n, 1)
            }
            SchemeSpec::ContextValue { table, shift, .. }
            | SchemeSpec::ContextTransition { table, shift, .. } => fits(2, 1 + table + shift, 1),
            SchemeSpec::WorkZone { zones } => {
                fits(1 + zones.next_power_of_two().trailing_zeros(), 0, 6)
            }
            SchemeSpec::Fcm { .. } | SchemeSpec::Trained { .. } => fits(2, 3, 1),
        }?;
        let context = |table, shift, divide| {
            ContextConfig::new(width, table, shift).with_divide_period(divide)
        };
        let (e, d) = match *self {
            SchemeSpec::Identity => boxed((IdentityCodec::new(width), IdentityCodec::new(width))),
            SchemeSpec::Inversion {
                chunks,
                design_lambda: lambda,
            } => {
                let patterns = match chunks {
                    1 => PatternSet::bus_invert(width),
                    _ => PatternSet::chunked(width, chunks),
                };
                let encoder = InversionEncoder::new(patterns.clone(), CostModel::new(lambda));
                boxed((encoder, InversionDecoder::new(patterns)))
            }
            SchemeSpec::Stride { strides } => boxed(stride_codec(width, strides)),
            SchemeSpec::Window { entries } => boxed(window_codec(width, entries)),
            SchemeSpec::ContextValue {
                table,
                shift,
                divide,
            } => boxed(context_value_codec(context(table, shift, divide))),
            SchemeSpec::ContextTransition {
                table,
                shift,
                divide,
            } => boxed(context_transition_codec(context(table, shift, divide))),
            SchemeSpec::WorkZone { zones } => boxed((
                WorkZoneEncoder::new(width, zones),
                WorkZoneDecoder::new(width, zones),
            )),
            SchemeSpec::Fcm { order, table_bits } => boxed(fcm_codec(width, order, table_bits)),
            SchemeSpec::Trained { ref artifact } => {
                let artifact_error = |err| UnknownScheme {
                    name: name.clone(),
                    reason: None,
                    artifact: Some(err),
                };
                let tables =
                    load_named_artifact(&artifact_dir(), artifact).map_err(artifact_error)?;
                if tables.width != width {
                    return Err(artifact_error(ArtifactError::Malformed(format!(
                        "artifact {artifact:?} was trained at {} but the bus is {width}",
                        tables.width
                    ))));
                }
                let tables = Arc::new(tables);
                let ranks = 1 + tables.max_candidates();
                fits(2, ranks, 1)?;
                boxed(trained_codec(tables))
            }
        };
        Ok(Transcoder::from_boxed(name, e, d))
    }
}

/// Error returned when a scheme name is not in the grammar (or has an
/// out-of-range parameter), does not fit the bus width, or names a
/// `trained:` artifact that cannot be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme {
    name: String,
    reason: Option<String>,
    artifact: Option<ArtifactError>,
}

impl UnknownScheme {
    fn new(name: &str, reason: Option<String>) -> Self {
        UnknownScheme {
            name: name.to_string(),
            reason,
            artifact: None,
        }
    }

    /// The offending name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// For `trained:<artifact>` names, why the artifact failed to load
    /// (`None` for ordinary unknown schemes). Front ends use this to
    /// distinguish "no such scheme grammar" from "scheme grammar fine,
    /// artifact missing or corrupt".
    pub fn artifact_error(&self) -> Option<&ArtifactError> {
        self.artifact.as_ref()
    }
}

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(err) = &self.artifact {
            return write!(f, "scheme {:?}: {err}", self.name);
        }
        write!(f, "unknown coding scheme {:?}", self.name)?;
        if let Some(reason) = &self.reason {
            write!(f, ": {reason}")?;
        }
        write!(f, " (expected one of: {})", scheme_candidates().join(", "))
    }
}

impl Error for UnknownScheme {}

/// Every name [`scheme_by_name`] would currently accept: the static
/// [`SCHEME_PATTERNS`] grammar plus a concrete `trained:<name>` entry
/// per artifact present in the artifact directory. When the directory
/// is absent (nothing was ever trained) only the static patterns are
/// listed, so error messages never advertise schemes that cannot load.
pub fn scheme_candidates() -> Vec<String> {
    let trained = available_artifacts(&artifact_dir()).into_iter();
    let patterns = SCHEME_PATTERNS.iter().map(|s| s.to_string());
    patterns
        .chain(trained.map(|name| format!("trained:{name}")))
        .collect()
}

/// Builds a fresh encoder/decoder pair for the scheme named by its
/// canonical display name: [`SchemeSpec::from_str`], then
/// [`SchemeSpec::build`].
///
/// # Errors
///
/// The [`UnknownScheme`] of either step.
pub fn scheme_by_name(name: &str, width: Width) -> Result<Transcoder, UnknownScheme> {
    name.parse::<SchemeSpec>()?.build(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::verify_roundtrip;
    use bustrace::Trace;
    use proptest::prelude::*;

    fn mixed_trace(n: u64) -> Trace {
        Trace::from_values(Width::W32, (0..n).map(|i| (i * 7) % 23 + (i % 3) * 0x1000))
    }

    #[test]
    fn every_family_round_trips() {
        let names = [
            "identity",
            "inversion(1ch l1)",
            "inversion(2ch l0.5)",
            "stride(8)",
            "window(8)",
            "context-value(28+8 d4096)",
            "context-transition(28+8 d4096)",
            "workzone(4)",
            "fcm(2 2^12)",
        ];
        let trace = mixed_trace(400);
        for name in names {
            let mut pair =
                scheme_by_name(name, Width::W32).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(pair.name(), name);
            let (enc, dec) = pair.split_mut();
            verify_roundtrip(enc, dec, &trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn two_builds_are_independent_fresh_pairs() {
        let trace = mixed_trace(100);
        let mut a = scheme_by_name("window(8)", Width::W32).unwrap();
        let mut b = scheme_by_name("window(8)", Width::W32).unwrap();
        // Warping `a`'s state must not affect `b`.
        for v in trace.iter() {
            let _ = a.encode(v);
        }
        let states: Vec<u64> = trace.iter().map(|v| b.encode(v)).collect();
        let mut fresh = scheme_by_name("window(8)", Width::W32).unwrap();
        let fresh_states: Vec<u64> = trace.iter().map(|v| fresh.encode(v)).collect();
        assert_eq!(states, fresh_states);
    }

    #[test]
    fn unknown_names_are_rejected_with_patterns() {
        for bad in [
            "windoww(8)",
            "window(8",
            "window(x)",
            "identity(3)",
            "inversion(2ch)",
            "inversion(2ch l-1)",
            "fcm(2 12)",
            "context-value(28 d4096)",
            "",
            // Aliases of canonical names, and out-of-range parameters.
            "window(+8)",
            "window(08)",
            "inversion(0ch l1)",
            "inversion(1ch l1e3)",
            "inversion(1ch l-0)",
            "inversion(1ch lNaN)",
            "window(0)",
            "window(65)",
            "window(100000000000)",
            "fcm(2 2^0)",
            "fcm(2 2^25)",
            "workzone(17)",
            "context-value(28+0 d0)",
        ] {
            let err = scheme_by_name(bad, Width::W32).expect_err(bad);
            assert_eq!(err.name(), bad);
            assert!(err.to_string().contains("window(<entries>)"), "{err}");
        }
    }

    #[test]
    fn width_misfits_are_typed_errors() {
        let w = |bits| Width::new(bits).unwrap();
        for (name, width, why) in [
            ("window(8)", w(64), "66 bus lines"),
            ("window(8)", w(2), "9 prediction ranks"),
            ("context-value(64+64 d0)", w(7), "129 prediction ranks"),
            ("inversion(6ch l1)", w(4), "at least 6 data bits"),
            ("inversion(2ch l1)", w(63), "65 bus lines"),
            ("workzone(4)", w(5), "at least 6 data bits"),
            ("workzone(4)", w(62), "65 bus lines"),
        ] {
            let err = scheme_by_name(name, width).expect_err(name);
            assert_eq!(err.name(), name);
            assert_eq!(err.artifact_error(), None);
            assert!(err.to_string().contains(why), "{name} at {width}: {err}");
        }
        // The widest bus each family fits still builds.
        assert_eq!(scheme_by_name("identity", w(64)).unwrap().lines(), 64);
        assert_eq!(scheme_by_name("window(8)", w(62)).unwrap().lines(), 64);
        assert_eq!(scheme_by_name("window(3)", w(2)).unwrap().lines(), 4);
    }

    /// One example per [`SchemeSpec`] variant, in declaration order, with
    /// its exact name; the exhaustive match below stops compiling when a
    /// variant is added without its pattern.
    #[test]
    fn scheme_patterns_pin_the_grammar() {
        let examples = [
            (SchemeSpec::Identity, "identity"),
            (
                SchemeSpec::Inversion {
                    chunks: 1,
                    design_lambda: 0.0,
                },
                "inversion(1ch l0)",
            ),
            (SchemeSpec::Stride { strides: 8 }, "stride(8)"),
            (SchemeSpec::Window { entries: 8 }, "window(8)"),
            (
                SchemeSpec::ContextValue {
                    table: 28,
                    shift: 8,
                    divide: 4096,
                },
                "context-value(28+8 d4096)",
            ),
            (
                SchemeSpec::ContextTransition {
                    table: 4,
                    shift: 2,
                    divide: 0,
                },
                "context-transition(4+2 d0)",
            ),
            (SchemeSpec::WorkZone { zones: 4 }, "workzone(4)"),
            (
                SchemeSpec::Fcm {
                    order: 2,
                    table_bits: 12,
                },
                "fcm(2 2^12)",
            ),
            (
                SchemeSpec::Trained {
                    artifact: "demo".into(),
                },
                "trained:demo",
            ),
        ];
        assert_eq!(SCHEME_PATTERNS.len(), examples.len());
        for (i, (spec, name)) in examples.iter().enumerate() {
            let variant = match spec {
                SchemeSpec::Identity => 0,
                SchemeSpec::Inversion { .. } => 1,
                SchemeSpec::Stride { .. } => 2,
                SchemeSpec::Window { .. } => 3,
                SchemeSpec::ContextValue { .. } => 4,
                SchemeSpec::ContextTransition { .. } => 5,
                SchemeSpec::WorkZone { .. } => 6,
                SchemeSpec::Fcm { .. } => 7,
                SchemeSpec::Trained { .. } => 8,
            };
            assert_eq!(variant, i, "examples must follow declaration order");
            let pattern = SCHEME_PATTERNS[i];
            let prefix = &pattern[..pattern.find('<').unwrap_or(pattern.len())];
            assert_eq!(spec.to_string(), *name);
            assert!(name.starts_with(prefix), "{name} vs {pattern}");
            assert_eq!(name.parse::<SchemeSpec>().as_ref(), Ok(spec));
        }
    }

    /// Finite, non-negative λ values: small dyadic fractions and
    /// arbitrary bit patterns.
    fn lambda() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..4096).prop_map(|n| f64::from(n) / 8.0),
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits >> 1);
                if x.is_finite() {
                    x
                } else {
                    1.0
                }
            }),
        ]
    }

    /// Every variant with in-range parameters; `max_bits` bounds the
    /// FCM table so building stays cheap.
    fn spec(max_bits: u32) -> impl Strategy<Value = SchemeSpec> {
        let n = 1..=MAX_ENTRIES;
        prop_oneof![
            Just(SchemeSpec::Identity),
            (1..=MAX_CHUNKS, lambda()).prop_map(|(chunks, design_lambda)| {
                SchemeSpec::Inversion {
                    chunks,
                    design_lambda,
                }
            }),
            n.clone().prop_map(|strides| SchemeSpec::Stride { strides }),
            n.clone().prop_map(|entries| SchemeSpec::Window { entries }),
            (n.clone(), n.clone(), any::<u64>()).prop_map(|(table, shift, divide)| {
                SchemeSpec::ContextValue {
                    table,
                    shift,
                    divide,
                }
            }),
            (n.clone(), n.clone(), any::<u64>()).prop_map(|(table, shift, divide)| {
                SchemeSpec::ContextTransition {
                    table,
                    shift,
                    divide,
                }
            }),
            (1..=MAX_ZONES).prop_map(|zones| SchemeSpec::WorkZone { zones }),
            (n, 1..=max_bits).prop_map(|(order, table_bits)| SchemeSpec::Fcm { order, table_bits }),
            prop::collection::vec(any::<u8>(), 0..12).prop_map(|bytes| SchemeSpec::Trained {
                artifact: String::from_utf8_lossy(&bytes).into_owned(),
            }),
        ]
    }

    /// Near-miss spellings: canonical names with a stray token spliced
    /// in, which must either be rejected or still be canonical.
    fn near_miss() -> impl Strategy<Value = String> {
        const TOKENS: [&str; 12] = [
            "0", "+", "-", "1", " ", "e3", ".0", "d", "(", ")", "2^", "ch l",
        ];
        (spec(MAX_TABLE_BITS), any::<usize>(), 0..TOKENS.len()).prop_map(|(spec, at, token)| {
            let mut name = spec.to_string();
            let at = (0..=name.len())
                .filter(|&i| name.is_char_boundary(i))
                .nth(at % (name.chars().count() + 1))
                .unwrap_or(0);
            name.insert_str(at, TOKENS[token]);
            name
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_render(spec in spec(MAX_TABLE_BITS)) {
            prop_assert_eq!(spec.to_string().parse::<SchemeSpec>(), Ok(spec));
        }

        #[test]
        fn render_inverts_parse(name in near_miss()) {
            if let Ok(spec) = name.parse::<SchemeSpec>() {
                prop_assert_eq!(spec.to_string(), name);
            }
        }

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let name = String::from_utf8_lossy(&bytes);
            if let Ok(spec) = name.parse::<SchemeSpec>() {
                prop_assert_eq!(spec.to_string(), name);
            }
        }

        #[test]
        fn build_never_panics_at_any_width(spec in spec(12), bits in 1u32..=64) {
            prop_assume!(!matches!(spec, SchemeSpec::Trained { .. }));
            if let Ok(pair) = spec.build(Width::new(bits).unwrap()) {
                prop_assert!(pair.lines() <= MAX_LINES);
            }
        }
    }

    /// The one test in this crate that touches the process-global
    /// artifact directory — every scenario runs sequentially inside it
    /// so parallel tests can never observe a half-configured registry.
    #[test]
    fn trained_schemes_resolve_through_the_registry() {
        use crate::predict::trained::{
            save_artifact, set_artifact_dir, ArtifactError, SignatureTable, TrainedTables,
        };

        let dir = std::env::temp_dir().join(format!("trained-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_artifact_dir(&dir);

        // Directory absent: candidates stay static, trained names miss.
        assert_eq!(
            scheme_candidates().len(),
            SCHEME_PATTERNS.len(),
            "no artifacts should be advertised before training"
        );
        let err = scheme_by_name("trained:demo", Width::W32).unwrap_err();
        assert_eq!(err.name(), "trained:demo");
        assert!(matches!(
            err.artifact_error(),
            Some(ArtifactError::Missing { .. })
        ));
        assert!(err.to_string().contains("not found"), "{err}");
        // Plain unknown schemes still have no artifact error.
        assert_eq!(
            scheme_by_name("windoww(8)", Width::W32)
                .unwrap_err()
                .artifact_error(),
            None
        );

        // Train (well, hand-write) an artifact and resolve it.
        let tables = TrainedTables {
            name: "demo".into(),
            width: Width::W32,
            trained_values: 100,
            trained_traces: 1,
            codebook: vec![1, 2, 3],
            signatures: vec![SignatureTable {
                order: 1,
                entries: Vec::new(),
            }],
            strides: vec![4],
        };
        save_artifact(&tables, &dir).unwrap();
        let mut pair = scheme_by_name("trained:demo", Width::W32).unwrap();
        assert_eq!(pair.name(), "trained:demo");
        let trace = mixed_trace(300);
        let (enc, dec) = pair.split_mut();
        verify_roundtrip(enc, dec, &trace).unwrap();

        // The candidate list now advertises the concrete artifact.
        assert!(scheme_candidates().contains(&"trained:demo".to_string()));

        // Width mismatch is a typed artifact error, not a panic.
        let err = scheme_by_name("trained:demo", Width::new(16).unwrap()).unwrap_err();
        assert!(matches!(
            err.artifact_error(),
            Some(ArtifactError::Malformed(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn width_is_respected() {
        let w16 = Width::new(16).unwrap();
        let pair = scheme_by_name("stride(4)", w16).unwrap();
        assert_eq!(pair.lines(), 18); // 16 data + 2 control
        let id = scheme_by_name("identity", w16).unwrap();
        assert_eq!(id.lines(), 16);
    }
}
