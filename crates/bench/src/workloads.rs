//! Workload acquisition: benchmark bus traces and the controlled
//! synthetic traffic classes the paper contrasts them with.

use bustrace::generators::{PhasedGen, StrideGen, TraceGenerator, UniformRandomGen, WorkingSetGen};
use bustrace::{Trace, Width};
use simcpu::{Benchmark, BusKind};

/// Stride of the phased workload's ramp: the golden-ratio constant, so
/// consecutive words differ in about half their bits — an expensive
/// baseline that only a stride predictor can flatten.
const PHASED_STRIDE: u64 = 0x9E37_79B9;

/// Parses a bus-kind name (`register`, `memory`, `address`).
fn parse_bus(name: &str) -> Result<BusKind, String> {
    match name {
        "register" => Ok(BusKind::Register),
        "memory" => Ok(BusKind::Memory),
        "address" => Ok(BusKind::Address),
        _ => Err(format!(
            "unknown bus {name:?} (expected register, memory or address)"
        )),
    }
}

/// Parses a benchmark name (`gcc`, `swim`, …).
fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// Parses a phase or quantum length: a positive decimal integer.
fn parse_positive(what: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{what} must be a positive integer, got {text:?}"))
}

/// Why [`Workload::parse`] refused a name: the name and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    name: String,
    reason: String,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown workload {:?}: {} (expected e.g. `random`, `phased/4096`, `gcc/register`, `mixed/gcc+perl/register/64`)",
            self.name, self.reason
        )
    }
}

impl std::error::Error for WorkloadError {}

/// A named workload: either a benchmark bus tap or synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A SPEC-like kernel observed on one bus.
    Bench(Benchmark, BusKind),
    /// Uniformly random words — the traffic previous studies used.
    Random,
    /// Phase-changing traffic: a hot working-set loop alternating with
    /// a large-stride ramp every `phase` words. The ramp's stride
    /// toggles roughly half the bus per word, so both phases carry real
    /// energy, yet each is cheap for exactly one predictor family —
    /// window codecs own the loop, stride codecs own the ramp. No
    /// single static scheme fits both — the stress case for the
    /// adaptive controller.
    Phased {
        /// Words per phase before the traffic character flips.
        phase: usize,
    },
    /// A multi-program interleaving: two benchmark streams sharing one
    /// bus, switching every `quantum` words — the traffic a bus sees
    /// under context switching. Each component stream advances
    /// independently (program A resumes where it left off), so the bus
    /// alternates between two working sets at quantum granularity. This
    /// is the held-out *workload class* of the train/test generalization
    /// study: its within-quantum structure matches the component
    /// programs, but no single-program corpus entry ever shows the
    /// cross-quantum switches.
    Mixed {
        /// First component program.
        a: Benchmark,
        /// Second component program.
        b: Benchmark,
        /// The bus both streams are observed on.
        bus: BusKind,
        /// Words each program runs before the other is scheduled.
        quantum: usize,
    },
}

impl Workload {
    /// Phase-change traffic with the adaptive experiments' default
    /// phase length.
    pub const PHASED: Workload = Workload::Phased { phase: 4096 };

    /// Phase-change traffic with short phases — stresses decision
    /// periods that are a sizable fraction of the phase.
    pub const PHASED_FAST: Workload = Workload::Phased { phase: 1024 };

    /// Display name, e.g. `gcc/register`, `phased/4096`, or
    /// `mixed/gcc+perl/register/64`.
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b, bus) => format!("{b}/{bus}"),
            Workload::Random => "random".into(),
            Workload::Phased { phase } => format!("phased/{phase}"),
            Workload::Mixed { a, b, bus, quantum } => format!("mixed/{a}+{b}/{bus}/{quantum}"),
        }
    }

    /// The inverse of [`name`](Self::name): parses `gcc/register`,
    /// `random`, `phased/4096`, … back into a workload. This is how
    /// service requests address workloads. Each workload has exactly
    /// one spelling: `parse(s) == Ok(w)` only when `w.name() == s`
    /// (so `phased/+5` and `phased/007` are rejected), and phase and
    /// quantum lengths must be positive.
    ///
    /// # Errors
    ///
    /// A [`WorkloadError`] naming the reason: a name of no workload
    /// shape, an unknown benchmark or bus, a phase or quantum that is
    /// not a positive integer, or a non-canonical spelling.
    pub fn parse(name: &str) -> Result<Workload, WorkloadError> {
        let refuse = |reason| WorkloadError {
            name: name.to_string(),
            reason,
        };
        let workload = Self::parse_any_spelling(name).map_err(refuse)?;
        let canonical = workload.name();
        if canonical != name {
            return Err(refuse(format!("not the canonical spelling {canonical:?}")));
        }
        Ok(workload)
    }

    fn parse_any_spelling(name: &str) -> Result<Workload, String> {
        if name == "random" {
            return Ok(Workload::Random);
        }
        if let Some(phase) = name.strip_prefix("phased/") {
            let phase = parse_positive("phase", phase)?;
            return Ok(Workload::Phased { phase });
        }
        if let Some(rest) = name.strip_prefix("mixed/") {
            let shape = || "expected `mixed/<a>+<b>/<bus>/<quantum>`".to_string();
            let (programs, rest) = rest.split_once('/').ok_or_else(shape)?;
            let (a, b) = programs.split_once('+').ok_or_else(shape)?;
            let (bus, quantum) = rest.split_once('/').ok_or_else(shape)?;
            return Ok(Workload::Mixed {
                a: parse_benchmark(a)?,
                b: parse_benchmark(b)?,
                bus: parse_bus(bus)?,
                quantum: parse_positive("quantum", quantum)?,
            });
        }
        let (bench, bus) = name
            .split_once('/')
            .ok_or_else(|| "expected `<benchmark>/<bus>`, `random`, `phased/<phase>` or `mixed/<a>+<b>/<bus>/<quantum>`".to_string())?;
        Ok(Workload::Bench(parse_benchmark(bench)?, parse_bus(bus)?))
    }

    /// The bus width of this workload's traces, known without
    /// synthesizing one. Every workload is a 32-bit bus: the `simcpu`
    /// bus taps emit 32-bit words, and the random and phased generators
    /// are built at this width.
    pub fn width(&self) -> Width {
        Width::W32
    }

    /// Produces `values` words of this workload, deterministically per
    /// seed.
    pub fn trace(&self, values: usize, seed: u64) -> Trace {
        static TRACES: busprobe::StaticCounter =
            busprobe::StaticCounter::new("bench.workload.traces");
        let _span = busprobe::span("bench.workload.trace");
        TRACES.inc();
        match self {
            Workload::Bench(b, bus) => b.trace(*bus, values, seed),
            Workload::Random => UniformRandomGen::new(self.width(), seed).generate(values),
            Workload::Phased { phase } => {
                let loops = WorkingSetGen::new(self.width(), 6, 1.2, 0.0, seed);
                let ramp = StrideGen::new(self.width(), 0x4000_0000, PHASED_STRIDE);
                PhasedGen::new(vec![Box::new(loops), Box::new(ramp)], *phase).generate(values)
            }
            Workload::Mixed { a, b, bus, quantum } => {
                assert!(*quantum > 0, "mixed workload quantum must be positive");
                // Each component runs at full length under the shared
                // seed, then the bus sees quantum-sized slices of each
                // in turn. Every within-quantum subsequence is an exact
                // subsequence of the component's solo trace — which is
                // what lets offline training on the solo programs
                // transfer to the mix.
                let streams = [a.trace(*bus, values, seed), b.trace(*bus, values, seed)];
                let mut trace = Trace::new(streams[0].width());
                let mut consumed = [0usize, 0usize];
                let mut turn = 0;
                while trace.len() < values {
                    let src = streams[turn].values();
                    let at = consumed[turn];
                    let take = (*quantum).min(values - trace.len()).min(src.len() - at);
                    for &v in &src[at..at + take] {
                        trace.push(v);
                    }
                    consumed[turn] += take;
                    turn ^= 1;
                }
                trace
            }
        }
    }

    /// Every benchmark on the given bus.
    pub fn all_benchmarks(bus: BusKind) -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .map(|&b| Workload::Bench(b, bus))
            .collect()
    }

    /// Every benchmark on the given bus, plus random traffic — the
    /// line-set of Figures 16–23.
    pub fn figure_lines(bus: BusKind) -> Vec<Workload> {
        let mut v = vec![Workload::Random];
        v.extend(Workload::all_benchmarks(bus));
        v
    }

    /// The SPECint workloads on a bus.
    pub fn spec_int(bus: BusKind) -> Vec<Workload> {
        Benchmark::spec_int()
            .into_iter()
            .map(|b| Workload::Bench(b, bus))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BUSES: [BusKind; 3] = [BusKind::Register, BusKind::Memory, BusKind::Address];

    /// Every workload family with arbitrary in-range parameters.
    fn workload() -> impl Strategy<Value = Workload> {
        let (n, buses) = (Benchmark::ALL.len(), BUSES.len());
        prop_oneof![
            Just(Workload::Random),
            (0..n, 0..buses).prop_map(|(b, bus)| Workload::Bench(Benchmark::ALL[b], BUSES[bus])),
            (1..=usize::MAX).prop_map(|phase| Workload::Phased { phase }),
            (0..n, 0..n, 0..buses, 1..=usize::MAX).prop_map(|(a, b, bus, quantum)| {
                Workload::Mixed {
                    a: Benchmark::ALL[a],
                    b: Benchmark::ALL[b],
                    bus: BUSES[bus],
                    quantum,
                }
            }),
        ]
    }

    /// Strings glued from pieces of workload names, so most reach a
    /// parser branch and some spell a workload, canonically or not.
    fn name_soup() -> impl Strategy<Value = String> {
        const PIECES: [&str; 14] = [
            "random", "phased/", "mixed/", "gcc", "perl", "+", "/", "register", "0", "7", "+5",
            "-", " ", "\u{e9}",
        ];
        prop::collection::vec(0..PIECES.len(), 0..10)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_inverts_name_for_every_workload(w in workload()) {
            prop_assert_eq!(Workload::parse(&w.name()), Ok(w));
        }

        #[test]
        fn parse_accepts_only_canonical_names(
            soup in name_soup(),
            bytes in prop::collection::vec(any::<u8>(), 0..16),
        ) {
            for name in [soup, String::from_utf8_lossy(&bytes).into_owned()] {
                if let Ok(w) = Workload::parse(&name) {
                    prop_assert_eq!(w.name(), name);
                    prop_assert_eq!(w.trace(3, 1).len(), 3);
                }
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Workload::Bench(Benchmark::Gcc, BusKind::Register).name(),
            "gcc/register"
        );
        assert_eq!(Workload::Random.name(), "random");
        assert_eq!(Workload::PHASED.name(), "phased/4096");
        assert_eq!(
            Workload::Mixed {
                a: Benchmark::Gcc,
                b: Benchmark::Perl,
                bus: BusKind::Register,
                quantum: 64,
            }
            .name(),
            "mixed/gcc+perl/register/64"
        );
    }

    #[test]
    fn parse_rejects_non_canonical_names() {
        for (bad, reason) in [
            ("", "expected `<benchmark>/<bus>`"),
            ("gcc", "expected `<benchmark>/<bus>`"),
            ("gcc/cache", "unknown bus \"cache\""),
            ("nope/register", "unknown benchmark \"nope\""),
            ("phased/x", "phase must be a positive integer, got \"x\""),
            ("phased/", "phase must be a positive integer, got \"\""),
            ("phased/0", "phase must be a positive integer, got \"0\""),
            ("phased/+5", "not the canonical spelling \"phased/5\""),
            ("phased/007", "not the canonical spelling \"phased/7\""),
            (
                "mixed/gcc+perl/register/+64",
                "not the canonical spelling \"mixed/gcc+perl/register/64\"",
            ),
            (
                "mixed/gcc/register/64",
                "expected `mixed/<a>+<b>/<bus>/<quantum>`",
            ),
            ("mixed/gcc+nope/register/64", "unknown benchmark \"nope\""),
            (
                "mixed/gcc+perl/register/0",
                "quantum must be a positive integer, got \"0\"",
            ),
            (
                "mixed/gcc+perl/register",
                "expected `mixed/<a>+<b>/<bus>/<quantum>`",
            ),
            ("mixed/gcc+perl/cache/64", "unknown bus \"cache\""),
        ] {
            let err = Workload::parse(bad).expect_err(bad);
            assert_eq!(err.name, bad);
            assert!(err.reason.starts_with(reason), "{bad:?}: {err}");
            assert!(err.to_string().contains(reason), "{bad:?}: {err}");
        }
    }

    #[test]
    fn mixed_interleaves_exact_component_slices() {
        let w = Workload::Mixed {
            a: Benchmark::Gcc,
            b: Benchmark::Perl,
            bus: BusKind::Register,
            quantum: 64,
        };
        let n = 1000;
        let t = w.trace(n, 1);
        assert_eq!(t.len(), n);
        let gcc = Workload::Bench(Benchmark::Gcc, BusKind::Register).trace(n, 1);
        let perl = Workload::Bench(Benchmark::Perl, BusKind::Register).trace(n, 1);
        let v = t.values();
        // Quantum 0 is gcc's first 64 words, quantum 1 is perl's first
        // 64, quantum 2 resumes gcc at word 64 — programs advance
        // independently across their scheduling gaps.
        assert_eq!(&v[0..64], &gcc.values()[0..64]);
        assert_eq!(&v[64..128], &perl.values()[0..64]);
        assert_eq!(&v[128..192], &gcc.values()[64..128]);
        // Deterministic per seed, different across seeds.
        assert_eq!(w.trace(n, 1), t);
        assert_ne!(w.trace(n, 2), t);
    }

    #[test]
    fn phased_trace_alternates_character() {
        let t = Workload::PHASED_FAST.trace(4096, 3);
        assert_eq!(t.len(), 4096);
        // Second phase (words 1024..2048) is a pure strided ramp.
        let v = t.values();
        assert!(
            (1025..2048).all(|i| v[i] == v[i - 1].wrapping_add(PHASED_STRIDE) & Width::W32.mask())
        );
        // First phase revisits a small working set.
        let unique: std::collections::HashSet<_> = v[..1024].iter().collect();
        assert!(unique.len() <= 6, "{} unique loop values", unique.len());
    }

    #[test]
    fn figure_lines_cover_random_plus_all() {
        let lines = Workload::figure_lines(BusKind::Memory);
        assert_eq!(lines.len(), 18);
        assert_eq!(lines[0], Workload::Random);
    }

    #[test]
    fn every_workload_trace_has_the_declared_width() {
        let mut all = vec![Workload::Random, Workload::PHASED, Workload::PHASED_FAST];
        for bus in BUSES {
            all.extend(Workload::all_benchmarks(bus));
            all.push(Workload::Mixed {
                a: Benchmark::Gcc,
                b: Benchmark::Swim,
                bus,
                quantum: 4,
            });
        }
        for w in all {
            assert_eq!(w.trace(16, 1).width(), w.width(), "{}", w.name());
        }
    }

    #[test]
    fn random_trace_is_deterministic() {
        let a = Workload::Random.trace(100, 5);
        let b = Workload::Random.trace(100, 5);
        assert_eq!(a, b);
    }
}
