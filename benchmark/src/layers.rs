//! Per-layer metrics of a traced run, one definition per catalogue name.

use nomap_vm::{ExecStats, InstCategory, Tier};

use crate::reference::Normaliser;
use crate::spans::Span;
use crate::{Metric, PER_LAYER};

/// What the compile phase re-did on the warmed VMs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CompileTally {
    pub code_insts: u64,
    pub compiles: u64,
    pub checks_to_aborts: u64,
    pub bounds_combined: u64,
    pub overflow_removed: u64,
    pub checks_elided: u64,
}

/// Which observation layers a fresh-VM pass turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Observe {
    Nothing,
    Trace,
    Profile,
    Census,
    /// Trace, profile and census together, as `nomap corpus` runs them.
    All,
}

/// The telemetry phase's single-layer passes, in the order they run.
pub(crate) const TELEMETRY_MODES: [Observe; 4] =
    [Observe::Nothing, Observe::Trace, Observe::Profile, Observe::Census];

/// Host seconds per [`TELEMETRY_MODES`] entry (over programs, the faster
/// of each program's two passes), plus what the traced and profiled passes
/// produced.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TelemetryTally {
    pub secs: [f64; 4],
    pub events: u64,
    pub ledger_cycles: u64,
}

/// Everything a traced run measured, before normalisation.
pub(crate) struct LayerInputs<'a> {
    pub spans: &'a [Span],
    /// Programs one set-up of the workload covers.
    pub setup_programs: usize,
    pub bytecode_ops: u64,
    pub compile: CompileTally,
    pub window: &'a ExecStats,
    /// Normalised host nanoseconds per simulated instruction in traced ops.
    pub ns_per_inst: f64,
    pub calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub contention_steps: u64,
    pub contention_cycles: u64,
    pub audit_diags: u64,
    pub telemetry: TelemetryTally,
    pub refs: &'a Normaliser,
    pub trace_overhead_pct: f64,
}

/// The [`PER_LAYER`] metrics, host times normalised.
pub(crate) fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: value(inp, name) }).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Normalised seconds of one span.
fn span_secs(inp: &LayerInputs, s: &Span) -> f64 {
    let (a, b) = s.interval();
    inp.refs.normalise(s.secs(), a, b)
}

/// Normalised seconds of all spans named `name`.
fn total_secs(inp: &LayerInputs, name: &str) -> f64 {
    inp.spans.iter().filter(|s| s.name == name).map(|s| span_secs(inp, s)).sum()
}

/// Normalised seconds of spans named `name` inside top-level `setup`
/// spans, per set-up of the whole workload (the mean per program set-up
/// times the programs).
fn setup_secs(inp: &LayerInputs, name: &str) -> f64 {
    let under_setup = |s: &Span| {
        let mut top = s;
        while let Some(p) = top.parent {
            top = &inp.spans[p];
        }
        top.name == "setup"
    };
    let setups = inp.spans.iter().filter(|s| s.parent.is_none() && s.name == "setup").count();
    let secs: f64 = inp
        .spans
        .iter()
        .filter(|s| s.name == name && under_setup(s))
        .map(|s| span_secs(inp, s))
        .sum();
    ratio(secs * inp.setup_programs as f64, setups as f64)
}

fn value(inp: &LayerInputs, name: &str) -> f64 {
    let s = inp.window;
    let c = &inp.compile;
    let t = &inp.telemetry;
    let insts = s.total_insts() as f64;
    match name {
        "frontend.parse_s" => setup_secs(inp, "frontend.parse_program"),
        "bytecode.compile_s" => setup_secs(inp, "bytecode.compile_ast"),
        "bytecode.ops" => inp.bytecode_ops as f64,
        "ir.ipa_s" => setup_secs(inp, "ir.ipa.summarize_with_roots"),
        // `Vm::with_config` parses, compiles and summarises; the rest of
        // set-up is the VM's own initialisation and the top-level script.
        // The three layers are timed again after it, with warmer caches, so
        // this leans high.
        "vm.init_s" => (setup_secs(inp, "vm.with_config") + setup_secs(inp, "vm.run_main")
            - setup_secs(inp, "frontend.parse_program")
            - setup_secs(inp, "bytecode.compile_ast")
            - setup_secs(inp, "ir.ipa.summarize_with_roots"))
        .max(0.0),
        "jit.baseline_compile_s" => total_secs(inp, "jit.compile_baseline"),
        "jit.code_insts" => c.code_insts as f64,
        "core.dfg_compile_s" => total_secs(inp, "core.compile_dfg"),
        "core.ftl_compile_s" => total_secs(inp, "core.compile_ftl"),
        "core.compiles" => c.compiles as f64,
        "core.checks_to_aborts" => c.checks_to_aborts as f64,
        "core.bounds_combined" => c.bounds_combined as f64,
        "core.overflow_removed" => c.overflow_removed as f64,
        "core.checks_elided" => c.checks_elided as f64,
        "vm.insts.interpreter" => s.tier_insts(Tier::Interpreter) as f64,
        "vm.insts.baseline" => s.tier_insts(Tier::Baseline) as f64,
        "vm.insts.dfg" => s.tier_insts(Tier::Dfg) as f64,
        "vm.insts.ftl" => s.tier_insts(Tier::Ftl) as f64,
        "vm.insts.no_ftl" => s.insts(InstCategory::NoFtl) as f64,
        "vm.insts.no_tm" => s.insts(InstCategory::NoTm) as f64,
        "vm.insts.tm_unopt" => s.insts(InstCategory::TmUnopt) as f64,
        "vm.insts.tm_opt" => s.insts(InstCategory::TmOpt) as f64,
        "vm.ns_per_inst" => inp.ns_per_inst,
        "vm.allocs_per_call" => ratio(inp.allocs as f64, inp.calls as f64),
        "vm.alloc_bytes_per_call" => ratio(inp.alloc_bytes as f64, inp.calls as f64),
        "vm.checks" => s.total_checks() as f64,
        "vm.deopts" => s.deopts as f64,
        "runtime.insts" => s.tier_insts(Tier::Runtime) as f64,
        "runtime.share" => ratio(s.tier_insts(Tier::Runtime) as f64, insts),
        "machine.cycles_tm" => s.cycles_tm as f64,
        "machine.cycles_non_tm" => s.cycles_non_tm as f64,
        "machine.cpi" => ratio(s.total_cycles() as f64, insts),
        "htm.tx_begun" => s.tx_begun as f64,
        "htm.tx_committed" => s.tx_committed as f64,
        "htm.commit_ratio" => ratio(s.tx_committed as f64, s.tx_begun as f64),
        "htm.aborts.check" => s.tx_aborts[0] as f64,
        "htm.aborts.capacity" => s.tx_aborts[1] as f64,
        "htm.aborts.sof" => s.tx_aborts[2] as f64,
        "htm.aborts.conflict" => s.tx_aborts[3] as f64,
        "htm.write_footprint_avg_b" => s.tx_character.footprint_avg(),
        "htm.read_footprint_avg_b" => s.tx_character.read_footprint_avg(),
        "htm.insts_per_tx" => s.tx_character.insts_avg(),
        "contention.steps_per_mcycle" => {
            ratio(inp.contention_steps as f64 * 1e6, inp.contention_cycles as f64)
        }
        "contention.audit_diags" => inp.audit_diags as f64,
        "trace.events" => t.events as f64,
        "trace.overhead_x" => ratio(t.secs[1], t.secs[0]),
        "profile.ledger_cycles" => t.ledger_cycles as f64,
        "profile.overhead_x" => ratio(t.secs[2], t.secs[0]),
        "census.overhead_x" => ratio(t.secs[3], t.secs[0]),
        // Raw on purpose: normalising R gives back the constant R0.
        "bench.ref_s" => inp.refs.best(),
        "bench.trace_overhead_pct" => inp.trace_overhead_pct,
        other => unreachable!("per-layer metric `{other}` has no definition"),
    }
}
