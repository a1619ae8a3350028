//! The measurement engine: set-up, warm-up, shuffled interleaved rounds
//! of timed ops, and — in a traced run — the compile and telemetry
//! phases.
//!
//! Each op's host time is its fastest normalised sample across rounds:
//! noise on a shared machine only ever adds time. Simulated cycles, counts
//! and peak memory come from the first `min_rounds` rounds only, which
//! every run makes, so they are the same however fast the host is. (The
//! guest heap has no collector, so memory keeps growing with every further
//! call.)

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use nomap_bytecode::compile_ast;
use nomap_core::{compile_dfg_with_report, compile_ftl_with_report};
use nomap_frontend::parse_program;
use nomap_ir::ipa::summarize_with_roots;
use nomap_jit::compile_baseline;
use nomap_vm::{Architecture, ExecStats, PassConfig, Tier, TxnScope, Value, Vm, VmConfig};
use nomap_workloads::{contention, run_contention, ContentionSpec, ContentionWorkload, Placement};

use crate::compare::quartiles;
use crate::layers::{self, CompileTally, LayerInputs, Observe, TelemetryTally, TELEMETRY_MODES};
use crate::oracle::{self, same_value};
use crate::reference::{self, Normaliser};
use crate::spans::Spans;
use crate::{programs, rss, Metric, OpBest, Options, Outcome, Workload, END_TO_END};

/// Minimum host time between reference-kernel runs.
const REF_INTERVAL_S: f64 = 0.1;
/// Reference-kernel runs before anything else (caches, frequency ramp).
const REF_WARMUP: usize = 5;
/// Host time per program set-up sample during the measured rounds. The
/// host's speed changes over seconds, so set-up is sampled all through
/// the run rather than in one burst at its start.
const SETUP_INTERVAL_S: f64 = 0.05;
/// Trace ring of an observed pass, as `nomap corpus` sizes it.
const TRACE_RING: usize = 64;

/// One corpus program and its VM (steady workloads keep one VM warm).
struct Prog {
    id: &'static str,
    source: &'static str,
    batch: u32,
    expected: Value,
    vm: Option<Vm>,
    /// Statistics every fresh-VM pass of this program must reproduce.
    pass_stats: Option<ExecStats>,
}

/// One contention configuration.
struct Cfg {
    w: ContentionWorkload,
    placement: Placement,
    arch: Architecture,
    digest: u64,
    /// Statistics of the first run, which every later run must reproduce.
    first: Option<ExecStats>,
}

impl Cfg {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.w.id, self.placement.key(), self.arch.name())
    }
}

/// A timed op: a batch of `run()` calls on a warm VM, a fresh-VM pass, or
/// a whole contention run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Batch(usize),
    Pass(usize),
    Contention(usize),
}

/// One timed sample of an op, on the run's clock.
struct OpSample {
    op: usize,
    traced: bool,
    start: f64,
    end: f64,
    secs: f64,
    insts: u64,
}

/// Each op's fastest sample by normalised time, among the traced or the
/// untraced samples.
fn fastest(
    samples: &[OpSample],
    traced: bool,
    refs: &Normaliser,
    labels: &[String],
) -> Vec<OpBest> {
    let mut best: Vec<Option<OpBest>> = vec![None; labels.len()];
    for s in samples.iter().filter(|s| s.traced == traced) {
        let cand = OpBest {
            label: labels[s.op].clone(),
            raw_s: s.secs,
            ref_s: refs.local(s.start, s.end),
            insts: s.insts,
        };
        if best[s.op].as_ref().is_none_or(|b| cand.norm_s() < b.norm_s()) {
            best[s.op] = Some(cand);
        }
    }
    best.into_iter().flatten().collect()
}

/// Simulated instructions per host second over per-op bests, in millions:
/// `(normalised, raw)`.
fn rates(bests: &[OpBest]) -> (f64, f64) {
    let insts: u64 = bests.iter().map(|b| b.insts).sum();
    let norm: f64 = bests.iter().map(OpBest::norm_s).sum();
    let raw: f64 = bests.iter().map(|b| b.raw_s).sum();
    (insts as f64 / norm / 1e6, insts as f64 / raw / 1e6)
}

/// What one op that ran to completion produced.
struct Sample {
    secs: f64,
    stats: ExecStats,
    /// Contention scheduler steps.
    steps: u64,
    /// Contention audit diagnostics; any fails the op.
    diags: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates permutation of `0..n` drawn from `state`.
fn shuffled(state: &mut u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The programs whose set-up `setup_s` sums, and their timed samples.
struct Setup {
    list: Vec<(&'static str, &'static str)>,
    config: VmConfig,
    /// `(start, end, seconds)` of each sample, per program.
    samples: Vec<Vec<(f64, f64, f64)>>,
    /// Static bytecode ops of each program (traced runs).
    ops: Vec<u64>,
    /// Programs left in the current shuffled cycle.
    queue: Vec<usize>,
    done: u64,
}

struct Engine<'a> {
    opts: &'a Options,
    spans: Spans,
    /// Seed stream: the order of rounds beyond the minimum.
    rng: u64,
    /// Seed-independent stream: the order of set-ups and of the minimum
    /// rounds, so that what they allocate — and so peak memory — is the
    /// same for every seed.
    fixed: u64,
    refs: Normaliser,
    ref_ok: bool,
    /// Run-clock time of the last reference-kernel run.
    last_ref: f64,
    attempted: u64,
    failures: Vec<String>,
    setup: Setup,
    /// Count allocations around `vm.call` (traced measured rounds only).
    count_allocs: bool,
    calls: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when a program cannot even be set up; failures of
/// timed ops are counted in the [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let arch = match opts.workload {
        Workload::SteadyBase => Architecture::Base,
        _ => Architecture::NoMap,
    };
    let config = VmConfig::new(arch);
    let passes = matches!(opts.workload, Workload::ColdStart | Workload::Observed);
    let (ids, min_rounds): (Vec<(&'static str, u32)>, u32) = match opts.workload {
        Workload::SteadyNomap | Workload::SteadyBase => {
            (programs::STEADY.to_vec(), scale.min_rounds[0])
        }
        Workload::ColdStart => {
            (programs::cold_start().into_iter().map(|id| (id, 0)).collect(), scale.min_rounds[1])
        }
        Workload::Observed => {
            (programs::cold_start().into_iter().map(|id| (id, 0)).collect(), scale.min_rounds[2])
        }
        Workload::Aborts => (programs::ABORTING.to_vec(), scale.min_rounds[3]),
    };
    let mut progs = Vec::with_capacity(ids.len());
    for (id, batch) in ids {
        let expected =
            opts.oracle.expected(id).ok_or_else(|| format!("{id}: no expected value"))?;
        let source = programs::source(id);
        progs.push(Prog { id, source, batch, expected, vm: None, pass_stats: None });
    }
    let mut cfgs = Vec::new();
    if opts.workload == Workload::Aborts {
        for w in contention() {
            for placement in Placement::ALL {
                for arch in [Architecture::NoMap, Architecture::NoMapRtm] {
                    cfgs.push(Cfg { w: w.clone(), placement, arch, digest: 0, first: None });
                }
            }
        }
    }
    // Set-up covers every program and each contention source once.
    let mut list: Vec<(&'static str, &'static str)> =
        progs.iter().map(|p| (p.id, p.source)).collect();
    let sources: BTreeSet<_> = cfgs.iter().map(|c| (c.w.id, c.w.source)).collect();
    list.extend(sources);
    let n = list.len();
    let mut e = Engine {
        opts,
        spans: Spans::new(opts.trace),
        rng: opts.seed,
        fixed: 0x006e_6f6d_6170,
        refs: Normaliser::default(),
        ref_ok: true,
        last_ref: 0.0,
        attempted: 0,
        failures: Vec::new(),
        setup: Setup {
            list,
            config,
            samples: vec![Vec::new(); n],
            ops: vec![0; n],
            queue: Vec::new(),
            done: 0,
        },
        count_allocs: false,
        calls: 0,
        allocs: 0,
        alloc_bytes: 0,
    };
    for _ in 0..REF_WARMUP {
        e.reference();
    }
    for _ in 0..n {
        let (k, vm) = e.set_up_next()?;
        if !passes && k < progs.len() {
            progs[k].vm = Some(vm);
        }
    }
    match opts.workload {
        Workload::SteadyNomap | Workload::SteadyBase | Workload::Aborts => e.warm_up(&mut progs),
        Workload::Observed => e.reference_passes(&mut progs, config),
        Workload::ColdStart => {}
    }
    e.contention_oracle(&mut cfgs);

    let mut ops: Vec<Op> =
        (0..progs.len()).map(|i| if passes { Op::Pass(i) } else { Op::Batch(i) }).collect();
    ops.extend((0..cfgs.len()).map(Op::Contention));
    let labels: Vec<String> = ops
        .iter()
        .map(|op| match *op {
            Op::Batch(i) | Op::Pass(i) => progs[i].id.to_owned(),
            Op::Contention(i) => cfgs[i].label(),
        })
        .collect();
    let m = e.measure(&mut progs, &mut cfgs, &ops, &labels, config, min_rounds);
    let plain = fastest(&m.samples, false, &e.refs, &labels);
    let (rate, raw_rate) = rates(&plain);
    let mut notes = Vec::new();
    for b in &plain {
        notes.push(format!(
            "op {:<28} best {:.6} s raw, {:.6} s normalised (R {:.6} s), {} insts, {:.3} Minst/s",
            b.label,
            b.raw_s,
            b.norm_s(),
            b.ref_s,
            b.insts,
            b.insts as f64 / b.norm_s() / 1e6
        ));
    }
    let (mut setup_norm, mut setup_raw) = (0.0, 0.0);
    for ((id, _), samples) in e.setup.list.iter().zip(&e.setup.samples) {
        let raw: Vec<f64> = samples.iter().map(|s| s.2).collect();
        let norm: Vec<f64> =
            samples.iter().map(|&(a, b, secs)| e.refs.normalise(secs, a, b)).collect();
        let (med_norm, med_raw) = (quartiles(&norm).1, quartiles(&raw).1);
        setup_norm += med_norm;
        setup_raw += med_raw;
        notes.push(format!(
            "setup {id:<25} median {med_norm:.6} s normalised, {med_raw:.6} s raw, {} samples",
            samples.len()
        ));
    }
    let mut metrics = Vec::new();
    let mut raw = Vec::new();
    if opts.trace {
        let compile = e.compile_phase(&mut progs);
        let calls = if passes { scale.pass_calls } else { scale.telemetry_calls };
        let telemetry = e.telemetry_phase(&progs, config, calls);
        let traced = fastest(&m.samples, true, &e.refs, &labels);
        for b in &traced {
            notes.push(format!(
                "layer vm.ns_per_inst.{} = {:.4} ns (normalised, traced ops)",
                b.label,
                b.norm_s() * 1e9 / b.insts as f64
            ));
        }
        let (traced_rate, _) = rates(&traced);
        let inputs = LayerInputs {
            spans: e.spans.spans(),
            setup_programs: n,
            bytecode_ops: e.setup.ops.iter().sum(),
            compile,
            window: &m.window,
            ns_per_inst: 1e3 / traced_rate,
            calls: e.calls,
            allocs: e.allocs,
            alloc_bytes: e.alloc_bytes,
            contention_steps: m.steps,
            contention_cycles: m.contention_cycles,
            audit_diags: m.audit_diags,
            telemetry,
            refs: &e.refs,
            trace_overhead_pct: (rate / traced_rate - 1.0) * 100.0,
        };
        metrics = layers::per_layer(&inputs);
    } else {
        let values = [rate, setup_norm, m.window.total_cycles() as f64, m.peak_rss_mib];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric { name, unit, value });
        }
        raw.push(("sim_minsts_per_s", raw_rate));
        raw.push(("setup_s", setup_raw));
    }
    let digests = cfgs.iter().map(|c| (c.label(), c.digest)).collect();
    Ok(Outcome {
        attempted: e.attempted,
        failures: e.failures,
        ref_s: e.refs.best(),
        ref_ok: e.ref_ok,
        metrics,
        raw,
        ops: plain,
        notes,
        window: m.window,
        digests,
        spans: e.spans.take(),
    })
}

/// What the measured rounds produced.
struct Measured {
    samples: Vec<OpSample>,
    /// Merged statistics of every op in the first `min_rounds` rounds.
    window: ExecStats,
    steps: u64,
    contention_cycles: u64,
    audit_diags: u64,
    /// `VmHWM` when the first `min_rounds` rounds were done.
    peak_rss_mib: f64,
}

impl Engine<'_> {
    /// Times the reference kernel once.
    fn reference(&mut self) {
        let start = self.spans.clock();
        let (secs, sum) = reference::time_kernel();
        self.refs.record(start, secs);
        self.ref_ok &= sum == reference::CHECKSUM;
        self.last_ref = self.spans.clock();
    }

    /// Counts one unit of work and records its failure, if any.
    fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = r {
            self.failures.push(msg);
        }
    }

    /// One `vm.call("run")`, checked against the oracle.
    fn call_run(&mut self, vm: &mut Vm, expected: Value, id: &str) -> Result<(), String> {
        let open = self.spans.enter("vm.call");
        let before = self.count_allocs.then(nomap_hostprof::alloc_counters);
        let r = vm.call("run", &[]);
        if let Some((n0, b0)) = before {
            let (n1, b1) = nomap_hostprof::alloc_counters();
            self.calls += 1;
            self.allocs += n1 - n0;
            self.alloc_bytes += b1 - b0;
        }
        self.spans.exit(open);
        match r {
            Ok(v) if same_value(v, expected) => Ok(()),
            Ok(v) => Err(format!(
                "{id}: run() returned {:#x}, expected {:#x}",
                v.to_bits(),
                expected.to_bits()
            )),
            Err(e) => Err(format!("{id}: {e}")),
        }
    }

    /// Sets up the next program of the current shuffled cycle over
    /// the set-up list and records the time of `Vm::with_config` +
    /// `run_main`; returns the program's index and its VM.
    fn set_up_next(&mut self) -> Result<(usize, Vm), String> {
        if self.setup.queue.is_empty() {
            self.setup.queue = shuffled(&mut self.fixed, self.setup.list.len());
        }
        let k = self.setup.queue.pop().expect("a cycle is never empty");
        let (id, source) = self.setup.list[k];
        let start = self.spans.clock();
        let open = self.spans.enter("setup");
        let r = self.set_up(k, source);
        self.spans.exit(open);
        let (vm, secs) = r.map_err(|e| format!("{id}: set-up failed: {e}"))?;
        self.setup.samples[k].push((start, self.spans.clock(), secs));
        self.setup.done += 1;
        Ok((k, vm))
    }

    fn set_up(&mut self, k: usize, source: &str) -> Result<(Vm, f64), String> {
        let config = self.setup.config;
        let t = Instant::now();
        let mut vm = self
            .spans
            .time("vm.with_config", || Vm::with_config(source, config))
            .map_err(|e| e.to_string())?;
        self.spans.time("vm.run_main", || vm.run_main()).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        if self.opts.trace {
            // Each layer `with_config` went through, again on its own for
            // attribution, after the timed part so that it stays as cold
            // as in an untraced run.
            let ast = self
                .spans
                .time("frontend.parse_program", || parse_program(source))
                .map_err(|e| e.to_string())?;
            let program = self
                .spans
                .time("bytecode.compile_ast", || compile_ast(&ast))
                .map_err(|e| e.to_string())?;
            self.setup.ops[k] = program.static_op_count() as u64;
            let roots = BTreeSet::new();
            black_box(
                self.spans
                    .time("ir.ipa.summarize_with_roots", || summarize_with_roots(&program, &roots)),
            );
        }
        Ok((vm, secs))
    }

    /// Between ops: the reference kernel every [`REF_INTERVAL_S`], and one
    /// set-up sample per [`SETUP_INTERVAL_S`] of measured time.
    fn between_ops(&mut self, measured_s: f64) {
        if self.spans.clock() - self.last_ref >= REF_INTERVAL_S {
            self.reference();
        }
        let due = self.setup.list.len() as u64 + (measured_s / SETUP_INTERVAL_S) as u64;
        while self.setup.done < due {
            let r = self.set_up_next().map(drop);
            self.check(r);
        }
    }

    /// Untimed `run()` calls that bring each kept VM to steady state.
    fn warm_up(&mut self, progs: &mut [Prog]) {
        for p in progs.iter_mut() {
            let Some(vm) = p.vm.as_mut() else { continue };
            let open = self.spans.enter("warmup");
            let mut r = Ok(());
            for _ in 0..self.opts.scale.warmup_calls {
                r = self.call_run(vm, p.expected, p.id);
                if r.is_err() {
                    break;
                }
            }
            self.spans.exit(open);
            self.check(r);
        }
    }

    /// Untimed plain passes whose statistics every observed pass must
    /// reproduce: observation never changes what is simulated.
    fn reference_passes(&mut self, progs: &mut [Prog], config: VmConfig) {
        for p in progs.iter_mut() {
            let open = self.spans.enter("oracle.pass");
            let r = self.pass(p, config, Observe::Nothing, self.opts.scale.pass_calls);
            self.spans.exit(open);
            let r = r.map(|(_, vm)| p.pass_stats = Some(vm.stats.clone()));
            self.check(r);
        }
    }

    /// Each contention configuration's expected digest, from the
    /// interpreter-capped run under the same guest seed (one run per
    /// workload and placement: the digest does not depend on the HTM).
    fn contention_oracle(&mut self, cfgs: &mut [Cfg]) {
        let mut known: Vec<(&'static str, Placement, u64)> = Vec::new();
        for c in cfgs.iter_mut() {
            if let Some(&(_, _, d)) =
                known.iter().find(|(w, p, _)| *w == c.w.id && *p == c.placement)
            {
                c.digest = d;
                continue;
            }
            let spec = self.contention_spec(c.arch);
            let open = self.spans.enter("oracle.contention");
            let r = oracle::contention_digest(&c.w, c.placement, &spec);
            self.spans.exit(open);
            let r = r.map(|d| {
                c.digest = d;
                known.push((c.w.id, c.placement, d));
            });
            self.check(r.map_err(|e| format!("{}: interpreter run failed: {e}", c.label())));
        }
    }

    fn contention_spec(&self, arch: Architecture) -> ContentionSpec {
        ContentionSpec {
            config: VmConfig::new(arch),
            warmup_rounds: self.opts.scale.contention_warmup,
            measured_rounds: self.opts.scale.contention_rounds,
            // The guest takes the seed as an int32.
            seed: (self.opts.seed & 0x7fff_ffff) as u32,
        }
    }

    /// A fresh-VM pass: `with_config`, `run_main`, then `calls` checked
    /// `run()` calls with the `observe` layers on.
    fn pass(
        &mut self,
        p: &Prog,
        config: VmConfig,
        observe: Observe,
        calls: u32,
    ) -> Result<(f64, Vm), String> {
        let t = Instant::now();
        let mut vm = self
            .spans
            .time("vm.with_config", || Vm::with_config(p.source, config))
            .map_err(|e| format!("{}: {e}", p.id))?;
        if matches!(observe, Observe::Trace | Observe::All) {
            vm.enable_tracing(TRACE_RING);
        }
        if matches!(observe, Observe::Profile | Observe::All) {
            vm.enable_profiling();
        }
        if matches!(observe, Observe::Census | Observe::All) {
            vm.enable_opcode_census();
        }
        self.spans.time("vm.run_main", || vm.run_main()).map_err(|e| format!("{}: {e}", p.id))?;
        for _ in 0..calls {
            self.call_run(&mut vm, p.expected, p.id)?;
        }
        if observe == Observe::All {
            vm.flush_census_to_metrics();
            black_box((vm.trace_metrics().clone(), vm.profile().cloned()));
        }
        Ok((t.elapsed().as_secs_f64(), vm))
    }

    /// Runs one timed op.
    fn op(
        &mut self,
        op: Op,
        progs: &mut [Prog],
        cfgs: &mut [Cfg],
        config: VmConfig,
    ) -> Result<Sample, String> {
        match op {
            Op::Batch(i) => {
                let p = &mut progs[i];
                let vm = p.vm.as_mut().ok_or_else(|| format!("{}: no warm VM", p.id))?;
                vm.reset_stats();
                let t = Instant::now();
                for _ in 0..p.batch.min(self.opts.scale.max_batch) {
                    self.call_run(vm, p.expected, p.id)?;
                }
                let secs = t.elapsed().as_secs_f64();
                Ok(Sample { secs, stats: vm.stats.clone(), steps: 0, diags: 0 })
            }
            Op::Pass(i) => {
                let observe = if self.opts.workload == Workload::Observed {
                    Observe::All
                } else {
                    Observe::Nothing
                };
                let (secs, vm) =
                    self.pass(&progs[i], config, observe, self.opts.scale.pass_calls)?;
                let p = &mut progs[i];
                match &p.pass_stats {
                    Some(s) if *s != vm.stats => {
                        return Err(format!("{}: statistics differ from the reference pass", p.id));
                    }
                    Some(_) => {}
                    None => p.pass_stats = Some(vm.stats.clone()),
                }
                let stats = vm.stats.clone();
                if self.opts.trace {
                    p.vm = Some(vm);
                }
                Ok(Sample { secs, stats, steps: 0, diags: 0 })
            }
            Op::Contention(i) => {
                let c = &mut cfgs[i];
                let spec = self.contention_spec(c.arch);
                let t = Instant::now();
                let run = self
                    .spans
                    .time("workloads.run_contention", || run_contention(&c.w, c.placement, &spec))
                    .map_err(|e| format!("{}: {e}", c.label()))?;
                let secs = t.elapsed().as_secs_f64();
                if run.checksum != c.digest {
                    return Err(format!(
                        "{}: digest {:#x}, interpreter {:#x}",
                        c.label(),
                        run.checksum,
                        c.digest
                    ));
                }
                match &c.first {
                    Some(s) if *s != run.stats => {
                        return Err(format!("{}: statistics differ between runs", c.label()));
                    }
                    Some(_) => {}
                    None => c.first = Some(run.stats.clone()),
                }
                let diags = run.diagnostics.len() as u64;
                Ok(Sample { secs, stats: run.stats, steps: run.steps, diags })
            }
        }
    }

    /// Shuffled rounds over `ops`: at least `min_rounds` whole
    /// rounds, then on until `seconds` have passed. A traced run
    /// alternates traced and untraced rounds, so it makes at least two.
    fn measure(
        &mut self,
        progs: &mut [Prog],
        cfgs: &mut [Cfg],
        ops: &[Op],
        labels: &[String],
        config: VmConfig,
        min_rounds: u32,
    ) -> Measured {
        let mut m = Measured {
            samples: Vec::new(),
            window: ExecStats::new(),
            steps: 0,
            contention_cycles: 0,
            audit_diags: 0,
            peak_rss_mib: 0.0,
        };
        let needed = if self.opts.trace { min_rounds.max(2) } else { min_rounds };
        let (began, seconds) = (Instant::now(), self.opts.seconds);
        let done = |round: u32| round >= needed && began.elapsed().as_secs_f64() >= seconds;
        let mut round = 0;
        'rounds: loop {
            let traced = self.opts.trace && round % 2 == 0;
            nomap_hostprof::set_enabled(traced);
            self.spans.set_enabled(traced);
            self.count_allocs = traced;
            let stream = if round < min_rounds { &mut self.fixed } else { &mut self.rng };
            for k in shuffled(stream, ops.len()) {
                let start = self.spans.clock();
                let open = self.spans.enter("op");
                let r = self.op(ops[k], progs, cfgs, config);
                self.spans.exit(open);
                let end = self.spans.clock();
                self.attempted += 1;
                match r {
                    Ok(s) => {
                        if round < min_rounds {
                            m.window.merge(&s.stats);
                            if let Op::Contention(_) = ops[k] {
                                m.steps += s.steps;
                                m.contention_cycles += s.stats.total_cycles();
                                m.audit_diags += s.diags;
                            }
                        }
                        if s.diags > 0 {
                            self.failures
                                .push(format!("{}: {} audit diagnostics", labels[k], s.diags));
                        }
                        let insts = s.stats.total_insts();
                        m.samples.push(OpSample { op: k, traced, start, end, secs: s.secs, insts });
                    }
                    Err(msg) => self.failures.push(msg),
                }
                self.between_ops(began.elapsed().as_secs_f64());
                if done(round) {
                    break 'rounds;
                }
            }
            round += 1;
            if round == min_rounds {
                m.peak_rss_mib = rss::peak_rss_mib();
            }
            if done(round) {
                break;
            }
        }
        nomap_hostprof::set_enabled(false);
        self.spans.set_enabled(self.opts.trace);
        self.count_allocs = false;
        m
    }

    /// Re-invokes the Baseline, DFG and FTL compilers on every function of
    /// each warmed VM that reached that tier, using the VM's runtime and
    /// interprocedural summaries.
    fn compile_phase(&mut self, progs: &mut [Prog]) -> CompileTally {
        let mut tally = CompileTally::default();
        for p in progs.iter_mut() {
            let Some(vm) = p.vm.as_mut() else { continue };
            let open = self.spans.enter("compile");
            let r =
                compile_all(&mut self.spans, vm, &mut tally).map_err(|e| format!("{}: {e}", p.id));
            self.spans.exit(open);
            self.check(r);
        }
        tally
    }

    /// Fresh-VM passes per program with each single observation layer on,
    /// and with none, to price each layer alone: the modes run forwards
    /// and then backwards, and each mode's time is its faster pass, so no
    /// mode always pays for running first.
    fn telemetry_phase(&mut self, progs: &[Prog], config: VmConfig, calls: u32) -> TelemetryTally {
        let mut tally = TelemetryTally::default();
        let order = [0, 1, 2, 3, 3, 2, 1, 0];
        for p in progs {
            let mut best = [f64::INFINITY; 4];
            for (i, slot) in order.into_iter().enumerate() {
                let open = self.spans.enter("telemetry");
                let r = self.pass(p, config, TELEMETRY_MODES[slot], calls);
                self.spans.exit(open);
                let first = i < TELEMETRY_MODES.len();
                let r = r.and_then(|(secs, vm)| {
                    best[slot] = best[slot].min(secs);
                    if !first {
                        return Ok(());
                    }
                    tally.events += vm.trace_emitted();
                    match vm.profile() {
                        Some(profile) if profile.ledger.total() != vm.stats.total_cycles() => {
                            Err(format!("{}: profile ledger does not add up to the cycles", p.id))
                        }
                        Some(profile) => {
                            tally.ledger_cycles += profile.ledger.total();
                            Ok(())
                        }
                        None => Ok(()),
                    }
                });
                self.check(r);
            }
            for (total, b) in tally.secs.iter_mut().zip(best) {
                *total += b;
            }
        }
        tally
    }
}

fn compile_all(spans: &mut Spans, vm: &mut Vm, t: &mut CompileTally) -> Result<(), String> {
    let ipa = vm.summaries().clone();
    let arch = vm.config.arch;
    let scope = if arch.uses_transactions() { TxnScope::Nest } else { TxnScope::None };
    let funcs = vm.program.functions.clone();
    for f in &funcs {
        let Some(tier) = vm.current_tier(&f.name) else { continue };
        if tier >= Tier::Baseline {
            let c = spans.time("jit.compile_baseline", || compile_baseline(f, &mut vm.rt));
            t.code_insts += c.code.len() as u64;
        }
        if tier >= Tier::Dfg {
            let (c, r) = spans
                .time("core.compile_dfg", || compile_dfg_with_report(f, &mut vm.rt, Some(&ipa)))
                .map_err(|e| format!("{}: {e}", f.name))?;
            t.code_insts += c.code.len() as u64;
            t.compiles += 1;
            t.checks_elided += u64::from(r.prove.total_elided());
        }
        if tier >= Tier::Ftl {
            let (c, r) = spans
                .time("core.compile_ftl", || {
                    compile_ftl_with_report(
                        f,
                        &mut vm.rt,
                        arch,
                        scope,
                        PassConfig::ftl(),
                        Some(&ipa),
                    )
                })
                .map_err(|e| format!("{}: {e}", f.name))?;
            t.code_insts += c.code.len() as u64;
            t.compiles += 1;
            t.checks_to_aborts += r.checks_to_aborts as u64;
            t.bounds_combined += r.bounds_combined as u64;
            t.overflow_removed += r.overflow_removed as u64;
            t.checks_elided += u64::from(r.prove.total_elided());
        }
    }
    Ok(())
}
