//! Pins the coded bus activity of one scheme per grammar family on a
//! fixed trace, so that a refactor of the encoders that moves a single
//! transition fails `cargo test`, not only the benchmark's batch golden.
//!
//! The input is gcc/register, 20 000 values at seed 1. Each case is
//! priced with `evaluate_blocks` and compared as `(lines, tau, kappa,
//! steps)`. The registry schemes use the paper's figure sizes; two
//! engine configurations the grammar cannot name ride along: the
//! raw-only miss policy of the inversion ablation, and a trained codec
//! over the fixed tables below.

use std::sync::Arc;

use bench::workloads::Workload;
use buscoding::predict::{
    trained_codec, MissPolicy, PredictiveEncoder, SignatureTable, TrainedTables, WindowPredictor,
};
use buscoding::{evaluate_blocks, scheme_by_name, Activity};
use bustrace::fnv::fnv1a_words;
use bustrace::{Trace, Width};

/// `(lines, tau, kappa, steps)` of one coded trace.
type Pin = (u32, u64, u64, u64);

/// One registry name per `SCHEME_PATTERNS` family except `trained:`
/// (which needs an artifact directory), with its pinned activity.
const REGISTRY_PINS: &[(&str, Pin)] = &[
    ("identity", (32, 163_356, 157_856, 20_000)),
    ("inversion(1ch l1)", (33, 152_600, 160_892, 20_000)),
    ("stride(4)", (34, 158_263, 166_910, 20_000)),
    ("window(8)", (34, 128_419, 143_133, 20_000)),
    ("context-value(28+8 d4096)", (34, 112_093, 126_905, 20_000)),
    (
        "context-transition(28+8 d4096)",
        (34, 158_291, 166_760, 20_000),
    ),
    ("workzone(4)", (35, 168_900, 166_093, 20_000)),
    ("fcm(2 2^12)", (34, 160_309, 171_446, 20_000)),
];

/// window(8) with the raw-only miss policy.
const RAW_ONLY_WINDOW_PIN: Pin = (34, 137_475, 144_886, 20_000);

/// The trained codec over [`tables`].
const TRAINED_PIN: Pin = (34, 149_829, 162_706, 20_000);

fn trace() -> Trace {
    Workload::parse("gcc/register")
        .expect("gcc/register parses")
        .trace(20_000, 1)
}

fn pin(a: &Activity) -> Pin {
    (a.lines(), a.tau(), a.kappa(), a.steps())
}

/// Fixed tables drawn from the commonest values and deltas of the
/// pinned trace.
fn tables() -> TrainedTables {
    let sorted = |mut entries: Vec<(u64, u64)>| {
        entries.sort_by_key(|&(hash, _)| hash);
        entries
    };
    TrainedTables {
        name: "pinned".into(),
        width: Width::W32,
        trained_values: 20_000,
        trained_traces: 1,
        codebook: vec![0, 0x200, 1, 7, 3],
        signatures: vec![
            SignatureTable {
                order: 1,
                entries: sorted(vec![
                    (fnv1a_words([0u64]), 0x200),
                    (fnv1a_words([0x200u64]), 0),
                ]),
            },
            SignatureTable {
                order: 2,
                entries: sorted(vec![(fnv1a_words([0u64, 0x200]), 1)]),
            },
        ],
        strides: vec![1, 0xFFFF_FFFF, 0xFFFF_FFFA],
    }
}

#[test]
fn registry_families_price_as_pinned() {
    let trace = trace();
    let got: Vec<(&str, Pin)> = REGISTRY_PINS
        .iter()
        .map(|&(name, _)| {
            let mut t = scheme_by_name(name, trace.width()).expect("registry scheme builds");
            (name, pin(&evaluate_blocks(t.encoder_mut(), &trace)))
        })
        .collect();
    assert_eq!(got, REGISTRY_PINS);
}

#[test]
fn raw_only_window_prices_as_pinned() {
    let trace = trace();
    let mut enc = PredictiveEncoder::new(trace.width(), WindowPredictor::new(8))
        .with_miss_policy(MissPolicy::RawOnly);
    assert_eq!(pin(&evaluate_blocks(&mut enc, &trace)), RAW_ONLY_WINDOW_PIN);
}

#[test]
fn trained_codec_prices_as_pinned() {
    let trace = trace();
    let tables = tables();
    tables.validate().expect("the fixed tables are well formed");
    let (mut enc, _dec) = trained_codec(Arc::new(tables));
    assert_eq!(pin(&evaluate_blocks(&mut enc, &trace)), TRAINED_PIN);
}
