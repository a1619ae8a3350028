//! Host-speed benchmark of the NoMap simulator.
//!
//! Five workloads drive the system only through its public functions and
//! time it from outside. Every host time is reported in normalised seconds
//! (see [`reference`]); simulated cycles and counts are exact. A traced run
//! (`Options::trace`) records spans around each call into a layer and
//! reports per-layer metrics instead of the end-to-end ones.
//!
//! ```no_run
//! use nomap_benchmark::{run, Options, Workload};
//! let out = run(&Options::new(Workload::SteadyNomap, 1, 10.0)).unwrap();
//! assert!(out.correct());
//! println!("{}", out.result_json());
//! ```

pub mod compare;
mod engine;
mod layers;
pub mod oracle;
pub mod programs;
pub mod reference;
mod rss;
pub mod spans;

use nomap_vm::ExecStats;

pub use engine::run;
use oracle::Oracle;
use spans::Span;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight programs at steady state under NoMap (ROT).
    SteadyNomap,
    /// The same programs and batches under Base.
    SteadyBase,
    /// SunSpider (without S20) as fresh-VM passes under NoMap.
    ColdStart,
    /// The cold-start passes with tracing, profiling and the census on.
    Observed,
    /// Contention runs plus the two check-aborting corpus programs.
    Aborts,
}

impl Workload {
    /// All workloads, in catalogue order.
    pub const ALL: [Workload; 5] = [
        Workload::SteadyNomap,
        Workload::SteadyBase,
        Workload::ColdStart,
        Workload::Observed,
        Workload::Aborts,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyNomap => "steady-nomap",
            Workload::SteadyBase => "steady-base",
            Workload::ColdStart => "cold-start",
            Workload::Observed => "observed",
            Workload::Aborts => "aborts",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Amounts of work per run. [`Scale::FULL`] is the benchmark; tests use
/// [`Scale::SMOKE`]. Neither is reachable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Untimed `run()` calls that bring each steady program to FTL.
    pub warmup_calls: u32,
    /// `run()` calls in a fresh-VM pass (cold-start, observed).
    pub pass_calls: u32,
    /// `run()` calls in a traced run's telemetry pass over a steady
    /// program (the pass workloads use `pass_calls`).
    pub telemetry_calls: u32,
    /// Upper bound on the `run()` calls in one steady batch.
    pub max_batch: u32,
    /// Rounds every run makes whatever `--seconds` says, per workload
    /// (steady, cold-start, observed, aborts). Simulated cycles and counts
    /// cover exactly these rounds, so they do not depend on host speed.
    pub min_rounds: [u32; 4],
    /// Contention rounds before measurement.
    pub contention_warmup: u32,
    /// Measured contention rounds.
    pub contention_rounds: u32,
}

impl Scale {
    /// The benchmark's own amounts.
    pub const FULL: Scale = Scale {
        warmup_calls: 120,
        pass_calls: 71,
        telemetry_calls: 24,
        max_batch: u32::MAX,
        min_rounds: [10, 3, 3, 2],
        contention_warmup: 120,
        contention_rounds: 400,
    };

    /// A shrunken run for tests: every program and op still runs, and
    /// contention still reaches transactional code.
    pub const SMOKE: Scale = Scale {
        warmup_calls: 4,
        pass_calls: 4,
        telemetry_calls: 2,
        max_batch: 1,
        min_rounds: [1, 1, 1, 1],
        contention_warmup: 90,
        contention_rounds: 12,
    };
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the contention guests' seed, and the order of the
    /// rounds beyond the minimum ones.
    pub seed: u64,
    /// Seconds of measurement after the minimum rounds are done.
    pub seconds: f64,
    /// Traced run: spans, counting allocator and per-layer metrics.
    pub trace: bool,
    /// Amounts of work.
    pub scale: Scale,
    /// What every op must return.
    pub oracle: Oracle,
}

impl Options {
    /// Full-scale, untraced run against the committed oracle.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace: false,
            scale: Scale::FULL,
            oracle: Oracle::committed(),
        }
    }
}

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_minsts_per_s", "Minst/s"),
    ("setup_s", "s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("frontend.parse_s", "s"),
    ("bytecode.compile_s", "s"),
    ("bytecode.ops", "count"),
    ("ir.ipa_s", "s"),
    ("vm.init_s", "s"),
    ("jit.baseline_compile_s", "s"),
    ("jit.code_insts", "count"),
    ("core.dfg_compile_s", "s"),
    ("core.ftl_compile_s", "s"),
    ("core.compiles", "count"),
    ("core.checks_to_aborts", "count"),
    ("core.bounds_combined", "count"),
    ("core.overflow_removed", "count"),
    ("core.checks_elided", "count"),
    ("vm.insts.interpreter", "count"),
    ("vm.insts.baseline", "count"),
    ("vm.insts.dfg", "count"),
    ("vm.insts.ftl", "count"),
    ("vm.insts.no_ftl", "count"),
    ("vm.insts.no_tm", "count"),
    ("vm.insts.tm_unopt", "count"),
    ("vm.insts.tm_opt", "count"),
    ("vm.ns_per_inst", "ns"),
    ("vm.allocs_per_call", "allocs/call"),
    ("vm.alloc_bytes_per_call", "B/call"),
    ("vm.checks", "count"),
    ("vm.deopts", "count"),
    ("runtime.insts", "count"),
    ("runtime.share", "ratio"),
    ("machine.cycles_tm", "cycles"),
    ("machine.cycles_non_tm", "cycles"),
    ("machine.cpi", "cycles/inst"),
    ("htm.tx_begun", "count"),
    ("htm.tx_committed", "count"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts.check", "count"),
    ("htm.aborts.capacity", "count"),
    ("htm.aborts.sof", "count"),
    ("htm.aborts.conflict", "count"),
    ("htm.write_footprint_avg_b", "B"),
    ("htm.read_footprint_avg_b", "B"),
    ("htm.insts_per_tx", "count"),
    ("contention.steps_per_mcycle", "steps/Mcycle"),
    ("contention.audit_diags", "count"),
    ("trace.events", "count"),
    ("trace.overhead_x", "x"),
    ("profile.ledger_cycles", "cycles"),
    ("profile.overhead_x", "x"),
    ("census.overhead_x", "x"),
    ("bench.ref_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; host times are normalised.
    pub value: f64,
}

/// The fastest sample of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct OpBest {
    /// Program id or contention configuration.
    pub label: String,
    /// Raw host seconds.
    pub raw_s: f64,
    /// Reference-kernel time `R` that normalises it (the best within
    /// [`reference::WINDOW_S`] of the sample).
    pub ref_s: f64,
    /// Simulated instructions.
    pub insts: u64,
}

impl OpBest {
    /// Normalised seconds: `raw × R0 / R`.
    pub fn norm_s(&self) -> f64 {
        self.raw_s * reference::R0_S / self.ref_s
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Units of checked work attempted: timed ops, set-up samples taken
    /// between them, warm-ups, oracle runs, compile and telemetry passes.
    pub attempted: u64,
    /// Failure messages, one per failed op.
    pub failures: Vec<String>,
    /// Best reference-kernel time in this process, seconds.
    pub ref_s: f64,
    /// Whether every reference-kernel run returned its checksum.
    pub ref_ok: bool,
    /// Reported metrics, catalogue order: [`END_TO_END`] for an untraced
    /// run, [`PER_LAYER`] for a traced one. Host times are normalised.
    pub metrics: Vec<Metric>,
    /// Raw (unnormalised) values behind the normalised metrics.
    pub raw: Vec<(&'static str, f64)>,
    /// Each op's fastest untraced sample.
    pub ops: Vec<OpBest>,
    /// Human-readable detail lines (per-op bests, per-program rates).
    pub notes: Vec<String>,
    /// Merged statistics of every op in the minimum rounds.
    pub window: ExecStats,
    /// Contention digests, `<workload>/<placement>/<arch>` → digest.
    pub digests: Vec<(String, u64)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// A reported metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// A raw host time by metric name.
    pub fn raw(&self, name: &str) -> Option<f64> {
        self.raw.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// True when no op failed, the reference kernel was sound and, in a
    /// traced run, the spans are well-formed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.ref_ok && spans::check_well_formed(&self.spans).is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let (name, unit) = (m.name, m.unit);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(m.value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
