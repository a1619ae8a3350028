//! The VM facade: program loading, tier management, statistics.

use std::cell::RefCell;
use std::rc::Rc;

use std::collections::BTreeSet;

use nomap_bytecode::{compile_program, FuncId, Function, Op, Program};
use nomap_core::{
    audit_summaries, compile_dfg_audited, compile_dfg_with_report, compile_ftl_audited,
    compile_ftl_with_report, compile_txn_callee, compile_txn_callee_audited, next_scope,
    Architecture, AuditOptions, FtlAudit, TxnScope,
};
use nomap_hostprof::OpcodeCensus;
use nomap_ir::ipa::{summarize_with_roots, ProgramSummaries};
use nomap_ir::passes::PassConfig;
use nomap_jit::{compile_baseline, CompiledFn};
use nomap_machine::{
    CacheSim, ExecStats, HtmModel, RegionKey, RegionKind, SharedSegment, Tier, Timing, TxState,
};
use nomap_profile::ProfileData;
use nomap_runtime::{Access, Runtime, Value};
use nomap_trace::{Metrics, Recorded, TraceEvent, TraceSink, Tracer};

use crate::error::{Flow, VmError};
use crate::profiler::{func_tier_slot, Profiler, ReplayMode, Tally};
use crate::tiering::{TierLimit, TierThresholds};
use crate::{exec, interp};

/// VM configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Which of the paper's architectures to model.
    pub arch: Architecture,
    /// Highest tier allowed (Table I experiments cap this).
    pub tier_limit: TierLimit,
    /// Tier-up thresholds.
    pub thresholds: TierThresholds,
    /// Guest recursion limit.
    pub max_depth: usize,
    /// Force the initial transaction scope (ablations; the §V-C ladder
    /// still steps down from here on capacity aborts). `None` = `Nest`.
    pub initial_scope: Option<TxnScope>,
    /// Override the FTL optimizer configuration (ablations).
    pub ftl_passes: Option<PassConfig>,
    /// Extension beyond the paper (§VIII's `TMUnopt` limitation): also
    /// compile a transaction-aware *callee* variant of hot functions, used
    /// when they are called from inside a transaction. Off by default so
    /// the standard experiments match the paper's configurations.
    pub txn_callees: bool,
    /// Pass sanitizer: run the `nomap-verify` static verifier between
    /// every optimizer pass of every JIT compilation, and refuse to
    /// install code whose IR fails ([`VmError::Verifier`]). Defaults to
    /// the `NOMAP_SANITIZE` environment variable (any value but `0`).
    pub sanitize: bool,
    /// Seed each function's initial transaction scope from the static
    /// write-footprint estimate, skipping §V-C ladder steps the estimator
    /// can prove would happen.
    pub seed_scope: bool,
}

impl VmConfig {
    /// Default configuration for `arch` (full tier stack).
    pub fn new(arch: Architecture) -> Self {
        VmConfig {
            arch,
            tier_limit: TierLimit::Ftl,
            thresholds: TierThresholds::default(),
            max_depth: 256,
            initial_scope: None,
            ftl_passes: None,
            txn_callees: false,
            sanitize: std::env::var_os("NOMAP_SANITIZE").is_some_and(|v| v != "0"),
            seed_scope: false,
        }
    }

    /// True when any compilation should go through the audited pipeline.
    fn audited(&self) -> bool {
        self.sanitize || self.seed_scope
    }

    fn audit_options(&self) -> AuditOptions {
        AuditOptions { verify: self.sanitize, seed_scope: self.seed_scope }
    }
}

/// Summarizes a dirty audit as a [`VmError::Verifier`] (first few findings,
/// plus a count of the rest).
fn verifier_error(name: &str, audit: &FtlAudit) -> VmError {
    let shown = 3;
    let mut msg = format!("{name}: IR verification failed with ");
    msg.push_str(&format!("{} finding(s): ", audit.diagnostics.len()));
    let rendered: Vec<String> =
        audit.diagnostics.iter().take(shown).map(ToString::to_string).collect();
    msg.push_str(&rendered.join("; "));
    if audit.diagnostics.len() > shown {
        msg.push_str(&format!("; ... and {} more", audit.diagnostics.len() - shown));
    }
    VmError::Verifier(msg)
}

/// Per-function code-cache state.
pub(crate) struct CodeState {
    pub baseline: Option<Rc<CompiledFn>>,
    pub dfg: Option<Rc<CompiledFn>>,
    pub ftl: Option<Rc<CompiledFn>>,
    /// Transaction-aware callee variant (extension; see `VmConfig::txn_callees`).
    pub ftl_callee: Option<Rc<CompiledFn>>,
    /// Current transaction-scope ladder position (§V-C).
    pub scope: TxnScope,
    /// Check-caused aborts since the last FTL compile; too many trigger a
    /// recompile with the (now corrected) profiles.
    pub check_aborts: u32,
}

impl CodeState {
    fn new(config: &VmConfig) -> Self {
        let scope = if config.arch.uses_transactions() {
            config.initial_scope.unwrap_or(TxnScope::Nest)
        } else {
            TxnScope::None
        };
        CodeState { baseline: None, dfg: None, ftl: None, ftl_callee: None, scope, check_aborts: 0 }
    }
}

/// Register state checkpointed at the outermost `XBegin`, used to enter the
/// Baseline tier when the transaction aborts (paper Fig. 5's `Entry_3`).
pub(crate) struct TxFallback {
    /// Call depth of the owning frame.
    pub depth: usize,
    /// Function owning the transaction.
    pub func: FuncId,
    /// Bytecode index of the Baseline entry.
    pub bc: u32,
    /// Boxed values for the Baseline frame (`None` = dead register).
    pub regs: Vec<Option<Value>>,
}

/// Reusable buffers: a frame takes one on entry and gives it back on exit,
/// so once a call depth has been reached, calls at it allocate nothing.
pub(crate) struct BufStack<T>(Vec<Vec<T>>);

impl<T> Default for BufStack<T> {
    fn default() -> Self {
        BufStack(Vec::new())
    }
}

impl<T: Clone> BufStack<T> {
    /// A buffer holding `len` copies of `fill`.
    pub(crate) fn take(&mut self, len: usize, fill: T) -> Vec<T> {
        let mut buf = self.0.pop().unwrap_or_default();
        buf.resize(len, fill);
        buf
    }

    /// Returns a buffer for reuse.
    pub(crate) fn give(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.0.push(buf);
    }
}

/// Attachment of one VM to a shared heap segment: the agent's id, the
/// guest-address window mirroring the segment, and the segment itself
/// (canonical contents + per-round speculative-writer table), shared by
/// every agent of one contention run.
pub struct AgentLink {
    /// This agent's id (0-based, dense across the run's agents).
    pub id: u32,
    /// Guest word address where this agent's mirror of the segment begins.
    pub base: u64,
    /// Segment length in words.
    pub words: u64,
    /// The shared segment, common to all agents.
    pub segment: Rc<RefCell<SharedSegment>>,
}

/// The NoMap virtual machine. See the crate docs for a usage example.
pub struct Vm {
    /// Compiled program.
    pub program: Program,
    /// Shared runtime (heap, shapes, profiles, output).
    pub rt: Runtime,
    /// Execution statistics for the current measurement window.
    pub stats: ExecStats,
    /// Cycle model.
    pub timing: Timing,
    /// Configuration.
    pub config: VmConfig,
    pub(crate) funcs: Vec<Rc<Function>>,
    pub(crate) htm: HtmModel,
    pub(crate) tx: TxState,
    pub(crate) cache: CacheSim,
    pub(crate) code: Vec<CodeState>,
    pub(crate) depth: usize,
    pub(crate) stack_top: u64,
    pub(crate) tx_fallback: Option<TxFallback>,
    pub(crate) tx_saw_call: bool,
    pub(crate) log_buf: Vec<Access>,
    /// Machine overflow flag (set by int32 arithmetic).
    pub(crate) of: bool,
    /// Tier of the most recently executed guest instruction — the tier a
    /// transactional abort is attributed to in forensics events.
    pub(crate) last_tier: Tier,
    /// Lifecycle-event tracer (disabled by default; observation-only).
    pub(crate) tracer: Tracer,
    /// Cycle-attribution profiler (disabled by default; observation-only).
    pub(crate) profiler: Option<Box<Profiler>>,
    /// Tier-residency instructions not yet credited to the tracer's
    /// metrics (which key them by function name); folded in when a host
    /// call returns.
    pub(crate) residency: Tally<(u32, Tier)>,
    /// Dynamic opcode/digram census (disabled by default;
    /// observation-only, like the tracer and profiler).
    pub(crate) census: Option<Box<OpcodeCensus>>,
    /// Interprocedural summary table every JIT compile consults (callee
    /// returns, argument preconditions, callee-inclusive footprints).
    pub(crate) ipa: ProgramSummaries,
    /// Functions the host has called with arguments outside their claimed
    /// precondition; they are forced to root (top precondition) when the
    /// table is rebuilt.
    pub(crate) ipa_extra_roots: BTreeSet<FuncId>,
    /// Shared-heap agent attachment (`None` outside contention runs).
    pub(crate) agent: Option<AgentLink>,
    /// Register files of executing machine frames.
    pub(crate) machine_regs: BufStack<u64>,
    /// Register files of interpreter frames.
    pub(crate) interp_regs: BufStack<Value>,
    /// Boxed-register snapshots: transaction fallbacks and deopt exits.
    pub(crate) snapshots: BufStack<Option<Value>>,
}

impl Vm {
    /// Compiles `source` and prepares a VM modelling `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Compile`] on syntax or compile errors.
    pub fn new(source: &str, arch: Architecture) -> Result<Vm, VmError> {
        Vm::with_config(source, VmConfig::new(arch))
    }

    /// Compiles `source` under an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Compile`] on syntax or compile errors.
    pub fn with_config(source: &str, config: VmConfig) -> Result<Vm, VmError> {
        let program = compile_program(source)?;
        let mut rt = Runtime::new();
        // When "length" is not referenced by the program, reserve an id
        // that no program name can collide with.
        rt.length_name =
            Some(program.interner.get("length").unwrap_or(nomap_bytecode::NameId(u32::MAX)));
        let funcs: Vec<Rc<Function>> = program.functions.iter().cloned().map(Rc::new).collect();
        let code = (0..funcs.len()).map(|_| CodeState::new(&config)).collect();
        let ipa = summarize_with_roots(&program, &BTreeSet::new());
        if config.sanitize {
            let ds = audit_summaries(&program, &ipa);
            if nomap_verify::has_errors(&ds) {
                let msg: Vec<String> = ds.iter().take(3).map(ToString::to_string).collect();
                return Err(VmError::Verifier(format!(
                    "interprocedural summaries failed ipa-tv: {}",
                    msg.join("; ")
                )));
            }
        }
        let stack_base = rt.mem.stack_base();
        Ok(Vm {
            program,
            rt,
            stats: ExecStats::new(),
            timing: Timing::default(),
            config,
            funcs,
            htm: config.arch.htm_model(),
            tx: TxState::new(),
            cache: CacheSim::new(),
            code,
            depth: 0,
            stack_top: stack_base,
            tx_fallback: None,
            tx_saw_call: false,
            log_buf: Vec::new(),
            of: false,
            last_tier: Tier::Interpreter,
            tracer: Tracer::disabled(),
            profiler: None,
            residency: Tally::default(),
            census: None,
            ipa,
            ipa_extra_roots: BTreeSet::new(),
            agent: None,
            machine_regs: BufStack::default(),
            interp_regs: BufStack::default(),
            snapshots: BufStack::default(),
        })
    }

    /// The interprocedural summary table currently in force (report and
    /// test introspection).
    pub fn summaries(&self) -> &ProgramSummaries {
        &self.ipa
    }

    /// Runs the top-level script.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the guest program.
    pub fn run_main(&mut self) -> Result<Value, VmError> {
        self.call_id(Program::MAIN, &[])
    }

    /// Calls a top-level function by name.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownFunction`] when `name` is not declared,
    /// or propagates guest errors.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, VmError> {
        let id = *self
            .program
            .function_ids
            .get(name)
            .ok_or_else(|| VmError::UnknownFunction(name.to_owned()))?;
        self.call_id(id, args)
    }

    /// Calls a function by id.
    ///
    /// # Errors
    ///
    /// Propagates guest errors.
    pub fn call_id(&mut self, id: FuncId, args: &[Value]) -> Result<Value, VmError> {
        self.guard_precondition(id, args)?;
        let result = self.call_function(id, args);
        self.fold_tallies();
        match result {
            Ok(v) => Ok(v),
            Err(Flow::Error(e)) => {
                // A guest error while transactional leaves consistent state:
                // roll the transaction back before surfacing the error.
                if self.tx.active() {
                    self.tx.abort(&mut self.rt.mem);
                    self.cache.flash_clear_sw();
                    if let Some(fb) = self.tx_fallback.take() {
                        self.snapshots.give(fb.regs);
                    }
                    if let Some(link) = &self.agent {
                        link.segment.borrow_mut().clear_agent(link.id);
                    }
                }
                Err(e)
            }
            Err(Flow::TxAbort) => {
                unreachable!("transaction abort escaped its owner frame")
            }
        }
    }

    /// Text written by the guest's `print`.
    pub fn output(&self) -> &str {
        &self.rt.output
    }

    /// Takes the guest `print` output accumulated so far, leaving the
    /// buffer empty. Lets a harness that reuses one `Vm` across phases
    /// hand each phase's output to its own shard report without cloning.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.rt.output)
    }

    /// Clears the statistics window (call after warmup for steady-state
    /// measurement; caches and code stay warm). The profiler ledger resets
    /// with it, so the cycle-conservation invariant keeps holding for the
    /// new window.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::new();
        if let Some(p) = &mut self.profiler {
            p.reset();
        }
    }

    /// Attaches this VM to a shared heap segment as agent `id`, mirroring the
    /// segment at guest word address `base..base + segment.len()`. While a
    /// transaction is active, every access inside that window is checked
    /// against the segment's speculative-writer table for cross-agent
    /// conflicts.
    pub fn attach_agent(&mut self, id: u32, base: u64, segment: Rc<RefCell<SharedSegment>>) {
        let words = segment.borrow().len() as u64;
        self.agent = Some(AgentLink { id, base, words, segment });
    }

    /// The attached shared-heap agent id, if any.
    pub fn agent_id(&self) -> Option<u32> {
        self.agent.as_ref().map(|a| a.id)
    }

    /// Consults the shared segment for a transactional access at guest word
    /// address `addr`: returns the conflicting agent when the access hits a
    /// line another agent's in-flight transaction wrote this round. Writes
    /// additionally take speculative ownership of the line. Accesses outside
    /// the mirror window — and every access of a detached VM — never
    /// conflict.
    pub(crate) fn note_shared_access(&mut self, addr: u64, is_write: bool) -> Option<u32> {
        let link = self.agent.as_ref()?;
        if addr < link.base || addr >= link.base + link.words {
            return None;
        }
        let idx = addr - link.base;
        if is_write {
            link.segment.borrow_mut().mark_write(link.id, idx).err()
        } else {
            link.segment.borrow().check_read(link.id, idx)
        }
    }

    /// The tier whose code would run if `name` were called now (test and
    /// example introspection).
    pub fn current_tier(&self, name: &str) -> Option<Tier> {
        let id = self.program.function_ids.get(name)?;
        let cs = &self.code[id.0 as usize];
        Some(if cs.ftl.is_some() && self.config.tier_limit.allows(Tier::Ftl) {
            Tier::Ftl
        } else if cs.dfg.is_some() && self.config.tier_limit.allows(Tier::Dfg) {
            Tier::Dfg
        } else if cs.baseline.is_some() && self.config.tier_limit.allows(Tier::Baseline) {
            Tier::Baseline
        } else {
            Tier::Interpreter
        })
    }

    /// Disassembles the code a tier compiled for `name`, if that tier has
    /// compiled it (debugging / examples).
    pub fn disassemble(&self, name: &str, tier: Tier) -> Option<String> {
        let id = self.program.function_ids.get(name)?;
        let cs = &self.code[id.0 as usize];
        let code = match tier {
            Tier::Baseline => cs.baseline.as_ref()?,
            Tier::Dfg => cs.dfg.as_ref()?,
            Tier::Ftl => cs.ftl.as_ref()?,
            _ => return None,
        };
        Some(nomap_machine::disasm::render_listing(&code.code))
    }

    /// Static machine-code sizes per compiled tier of `name`:
    /// `(baseline, dfg, ftl)`, `None` when the tier has not compiled it.
    pub fn code_sizes(&self, name: &str) -> Option<[Option<usize>; 3]> {
        let id = self.program.function_ids.get(name)?;
        let cs = &self.code[id.0 as usize];
        Some([
            cs.baseline.as_ref().map(|c| c.code.len()),
            cs.dfg.as_ref().map(|c| c.code.len()),
            cs.ftl.as_ref().map(|c| c.code.len()),
        ])
    }

    // ---- tracing ---------------------------------------------------------

    /// Enables lifecycle-event tracing with an in-memory ring retaining the
    /// most recent `ring_capacity` events. Tracing is observation-only: it
    /// never changes [`ExecStats`] or program results.
    pub fn enable_tracing(&mut self, ring_capacity: usize) {
        self.tracer = Tracer::enabled(ring_capacity);
    }

    /// Attaches an additional trace sink (e.g. a
    /// [`nomap_trace::JsonlSink`]). Only useful after [`Vm::enable_tracing`].
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.add_sink(sink);
    }

    /// Events retained in the trace ring, oldest first (empty when tracing
    /// is disabled).
    pub fn trace(&self) -> Vec<Recorded> {
        self.tracer.events()
    }

    /// Aggregated trace metrics (counters, abort breakdowns, histograms,
    /// tier residency).
    pub fn trace_metrics(&self) -> &Metrics {
        self.tracer.metrics()
    }

    /// Total events emitted since tracing was enabled (including events the
    /// ring has since evicted).
    pub fn trace_emitted(&self) -> u64 {
        self.tracer.emitted()
    }

    /// Flushes attached trace sinks.
    pub fn flush_trace(&mut self) {
        self.tracer.flush();
    }

    /// Source-level name of `id` (`"«main»"` for the top-level script).
    pub fn func_name(&self, id: FuncId) -> &str {
        &self.funcs[id.0 as usize].name
    }

    // ---- profiling -------------------------------------------------------

    /// Enables cycle attribution: every simulated cycle is charged to a
    /// (function × tier × region) scope. Observation-only, like tracing —
    /// `ExecStats` and program results are unchanged — and zero-cost when
    /// left disabled (one `Option` test per charge).
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Box::new(Profiler::new()));
    }

    /// Whether cycle attribution is being collected.
    pub fn profiling_enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// The profile collected since [`Vm::enable_profiling`] (or the last
    /// [`Vm::reset_stats`]); `None` when profiling is disabled.
    pub fn profile(&self) -> Option<&ProfileData> {
        self.profiler.as_ref().map(|p| &p.data)
    }

    /// Function-id → name table for the collected profile (report
    /// rendering).
    pub fn profile_names(&self) -> std::collections::BTreeMap<u32, String> {
        self.funcs.iter().enumerate().map(|(i, f)| (i as u32, f.name.clone())).collect()
    }

    /// Emits the ledger as schema-v3 [`TraceEvent::CycleRegion`] events,
    /// one per region, through the tracer (no-op unless both profiling and
    /// tracing are enabled). Call at the end of a measurement window.
    pub fn flush_profile_to_trace(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let regions: Vec<(RegionKey, u64)> = match &self.profiler {
            Some(p) => p.data.ledger.regions().map(|(k, v)| (*k, *v)).collect(),
            None => return,
        };
        let now = self.stats.total_cycles();
        for (key, cycles) in regions {
            let name = if key.func == RegionKey::OTHER_FUNC {
                "<vm>".to_owned()
            } else {
                self.funcs
                    .get(key.func as usize)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("fn#{}", key.func))
            };
            let ev = TraceEvent::CycleRegion {
                func: key.func,
                name,
                tier: key.tier,
                region: key.kind.name().to_owned(),
                cycles,
            };
            self.tracer.emit(now, move || ev);
        }
    }

    // ---- opcode census ---------------------------------------------------

    /// Enables the dynamic opcode/digram frequency census: the interpreter
    /// counts every executed opcode kind and every statically-adjacent
    /// opcode pair. Observation-only and allocation-free on the dispatch
    /// path (one `Option` test plus two array increments); `ExecStats`,
    /// cycles and program results are unchanged.
    pub fn enable_opcode_census(&mut self) {
        if self.census.is_none() {
            self.census = Some(Box::new(OpcodeCensus::new()));
        }
    }

    /// The census collected so far; `None` when disabled.
    pub fn opcode_census(&self) -> Option<&OpcodeCensus> {
        self.census.as_deref()
    }

    /// Drains the census into the tracer's metrics registry as named
    /// opcode/digram counters (no-op unless both the census and tracing
    /// are enabled). Draining means repeated flushes never double-count.
    pub fn flush_census_to_metrics(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some(census) = self.census.as_deref_mut() else { return };
        for (idx, n) in census.nonzero_ops() {
            if let Some(name) = Op::KIND_NAMES.get(idx) {
                self.tracer.record_opcode(name, n);
            }
        }
        for (a, b, n) in census.nonzero_digrams() {
            if let (Some(pa), Some(pb)) = (Op::KIND_NAMES.get(a), Op::KIND_NAMES.get(b)) {
                self.tracer.record_digram(pa, pb, n);
            }
        }
        census.clear();
    }

    /// The one place simulated cycles enter [`ExecStats`]. Routing every
    /// charge site (executor, interpreter, runtime helpers, memory system,
    /// abort rollback, HTM overheads) through here is what makes the
    /// profiler's conservation invariant — ledger total ==
    /// `ExecStats::total_cycles()` — structural.
    #[inline]
    pub(crate) fn add_cycles(
        &mut self,
        in_tx: bool,
        cycles: u64,
        func: u32,
        tier: Tier,
        kind: RegionKind,
    ) {
        if in_tx {
            self.stats.cycles_tm += cycles;
        } else {
            self.stats.cycles_non_tm += cycles;
        }
        if let Some(p) = &mut self.profiler {
            p.charge(RegionKey { func, tier, kind }, cycles);
        }
    }

    /// Folds the observation tallies into the tracer's tier residency and
    /// the profile, so that everything read between host calls is whole.
    fn fold_tallies(&mut self) {
        let (funcs, tracer) = (&self.funcs, &mut self.tracer);
        self.residency
            .drain(|(func, tier), n| tracer.record_residency(&funcs[func as usize].name, tier, n));
        if let Some(p) = &mut self.profiler {
            p.fold();
        }
    }

    /// Credits tier-residency instructions to `func` (no-op unless
    /// tracing).
    #[inline]
    pub(crate) fn trace_residency(&mut self, func: u32, tier: Tier, n: u64) {
        if self.tracer.is_enabled() {
            self.residency.add(func_tier_slot(func, tier), (func, tier), n);
        }
    }

    /// Region kind for ordinary execution cycles at this moment
    /// ([`RegionKind::Main`] when profiling is disabled — the value is
    /// unused in that case).
    #[inline]
    pub(crate) fn exec_kind(&self, in_tx: bool) -> RegionKind {
        match &self.profiler {
            Some(p) => p.exec_kind(in_tx),
            None => RegionKind::Main,
        }
    }

    /// (function, tier) owning unattributed work right now (runtime
    /// helpers, memory traffic).
    #[inline]
    pub(crate) fn profiler_ctx(&self) -> (u32, Tier) {
        match &self.profiler {
            Some(p) => p.ctx_top(),
            None => (RegionKey::OTHER_FUNC, Tier::Runtime),
        }
    }

    /// Pushes a frame context; returns the caller's replay mode for
    /// [`Vm::profiler_exit`]. The new frame inherits the mode (work done on
    /// behalf of a retry/replay is part of its cost).
    #[inline]
    pub(crate) fn profiler_enter(&mut self, func: u32, tier: Tier) -> ReplayMode {
        match &mut self.profiler {
            Some(p) => {
                p.ctx.push((func, tier));
                p.mode
            }
            None => ReplayMode::Normal,
        }
    }

    /// Pops the frame context pushed by [`Vm::profiler_enter`] and restores
    /// the caller's replay mode.
    #[inline]
    pub(crate) fn profiler_exit(&mut self, saved: ReplayMode) {
        if let Some(p) = &mut self.profiler {
            p.ctx.pop();
            p.mode = saved;
        }
    }

    /// The current frame switched tiers in place (OSR / transaction
    /// fallback materialized a Baseline frame): retarget the context and
    /// enter `mode`.
    #[inline]
    pub(crate) fn profiler_frame_switch(&mut self, func: u32, tier: Tier, mode: ReplayMode) {
        if let Some(p) = &mut self.profiler {
            if let Some(top) = p.ctx.last_mut() {
                *top = (func, tier);
            }
            p.mode = mode;
        }
    }

    /// Credits dynamic instructions to the profile (check-density
    /// denominator). No-op when disabled.
    #[inline]
    pub(crate) fn profiler_insts(&mut self, func: u32, tier: Tier, n: u64) {
        if let Some(p) = &mut self.profiler {
            p.record_insts(func, tier, n);
        }
    }

    /// Records one executed check. No-op when disabled.
    #[inline]
    pub(crate) fn profiler_check(&mut self, func: u32, kind: nomap_machine::CheckKind) {
        if let Some(p) = &mut self.profiler {
            p.record_check(func, kind);
        }
    }

    /// Records one taken deoptimization site. No-op when disabled.
    #[inline]
    pub(crate) fn profiler_deopt(
        &mut self,
        func: u32,
        smp: u32,
        bc: u32,
        kind: nomap_machine::CheckKind,
    ) {
        if let Some(p) = &mut self.profiler {
            p.data.record_deopt(func, smp, bc, kind);
        }
    }

    // ---- internal --------------------------------------------------------

    /// Closed-world escape hatch for the summary table: in-program call
    /// sites are covered statically, but the *host* can call any function
    /// with any arguments. When a host call's argument falls outside the
    /// claimed precondition, the function is forced to root (top
    /// precondition), the table is rebuilt bottom-up, and every
    /// summary-informed compile is discarded before the call proceeds.
    fn guard_precondition(&mut self, id: FuncId, args: &[Value]) -> Result<(), VmError> {
        let violated = match self.ipa.get(id) {
            Some(sum) => sum.params.iter().enumerate().any(|(k, pre)| {
                let arg = args.get(k).copied().unwrap_or(Value::UNDEFINED);
                !pre.admits(arg)
            }),
            None => false,
        };
        if !violated {
            return Ok(());
        }
        self.ipa_extra_roots.insert(id);
        self.ipa = summarize_with_roots(&self.program, &self.ipa_extra_roots);
        if self.config.sanitize {
            let ds = audit_summaries(&self.program, &self.ipa);
            if nomap_verify::has_errors(&ds) {
                let msg: Vec<String> = ds.iter().take(3).map(ToString::to_string).collect();
                return Err(VmError::Verifier(format!(
                    "re-rooted summaries failed ipa-tv: {}",
                    msg.join("; ")
                )));
            }
        }
        for cs in &mut self.code {
            // Baseline code never consults summaries and stays valid.
            cs.dfg = None;
            cs.ftl = None;
            cs.ftl_callee = None;
        }
        Ok(())
    }

    pub(crate) fn call_function(&mut self, id: FuncId, args: &[Value]) -> Result<Value, Flow> {
        if self.depth >= self.config.max_depth {
            return Err(Flow::Error(VmError::StackOverflow));
        }
        self.rt.profiles.func_mut(id).call_count += 1;
        self.maybe_compile(id)?;
        self.depth += 1;
        let result = self.dispatch(id, args);
        self.depth -= 1;
        result
    }

    fn dispatch(&mut self, id: FuncId, args: &[Value]) -> Result<Value, Flow> {
        let cs = &self.code[id.0 as usize];
        let limit = self.config.tier_limit;
        let code = if limit.allows(Tier::Ftl) && self.tx.active() && cs.ftl_callee.is_some() {
            // Extension: inside a transaction, prefer the callee variant
            // whose checks abort the caller's transaction.
            cs.ftl_callee.clone()
        } else if limit.allows(Tier::Ftl) && cs.ftl.is_some() {
            cs.ftl.clone()
        } else if limit.allows(Tier::Dfg) && cs.dfg.is_some() {
            cs.dfg.clone()
        } else if limit.allows(Tier::Baseline) && cs.baseline.is_some() {
            cs.baseline.clone()
        } else {
            None
        };
        match code {
            Some(code) => exec::run_machine(self, code, args),
            None => interp::interpret(self, id, args),
        }
    }

    fn maybe_compile(&mut self, id: FuncId) -> Result<(), Flow> {
        let hot = self
            .rt
            .profiles
            .func_ref(id)
            .map_or(0, |p| TierThresholds::hotness(p.call_count, p.back_edges));
        let limit = self.config.tier_limit;
        let th = self.config.thresholds;
        let func = self.funcs[id.0 as usize].clone();
        if limit.allows(Tier::Baseline)
            && hot >= th.baseline
            && self.code[id.0 as usize].baseline.is_none()
        {
            let c = compile_baseline(&func, &mut self.rt);
            self.emit_tier_up(id, Tier::Baseline, c.code.len(), None, false);
            self.code[id.0 as usize].baseline = Some(Rc::new(c));
        }
        if limit.allows(Tier::Dfg) && hot >= th.dfg && self.code[id.0 as usize].dfg.is_none() {
            let (c, report) = if self.config.sanitize {
                let mut audit = compile_dfg_audited(
                    &func,
                    &mut self.rt,
                    self.config.audit_options(),
                    Some(&self.ipa),
                )
                .map_err(VmError::from)?;
                self.emit_verify(id, &func.name, &audit);
                let Some(code) = audit.code.take() else {
                    return Err(verifier_error(&func.name, &audit).into());
                };
                (code, audit.report)
            } else {
                compile_dfg_with_report(&func, &mut self.rt, Some(&self.ipa))
                    .map_err(VmError::from)?
            };
            self.stats.dfg_compiles += 1;
            self.emit_tier_up(id, Tier::Dfg, c.code.len(), None, false);
            self.emit_check_verdict(id, &func.name, Tier::Dfg, report.prove);
            self.code[id.0 as usize].dfg = Some(Rc::new(c));
        }
        if limit.allows(Tier::Ftl) && hot >= th.ftl && self.code[id.0 as usize].ftl.is_none() {
            let mut scope = self.code[id.0 as usize].scope;
            let passes = self.config.ftl_passes.unwrap_or_else(PassConfig::ftl);
            let (c, report) = if self.config.audited() {
                let mut audit = compile_ftl_audited(
                    &func,
                    &mut self.rt,
                    self.config.arch,
                    scope,
                    passes,
                    self.config.audit_options(),
                    Some(&self.ipa),
                )
                .map_err(VmError::from)?;
                self.emit_verify(id, &func.name, &audit);
                // Footprint seeding may have stepped the ladder statically;
                // keep the per-function state in sync so later capacity
                // aborts continue from the seeded rung.
                scope = audit.scope_used;
                self.code[id.0 as usize].scope = scope;
                let Some(code) = audit.code.take() else {
                    return Err(verifier_error(&func.name, &audit).into());
                };
                (code, audit.report)
            } else {
                compile_ftl_with_report(
                    &func,
                    &mut self.rt,
                    self.config.arch,
                    scope,
                    passes,
                    Some(&self.ipa),
                )
                .map_err(VmError::from)?
            };
            self.stats.ftl_compiles += 1;
            self.emit_tier_up(id, Tier::Ftl, c.code.len(), Some(scope), false);
            if self.tracer.is_enabled() {
                let ev = TraceEvent::PassOutcome {
                    func: id.0,
                    name: func.name.clone(),
                    transactions_placed: report.transactions_placed,
                    checks_to_aborts: report.checks_to_aborts,
                    bounds_combined: report.bounds_combined,
                    overflow_removed: report.overflow_removed,
                };
                let cycles = self.stats.total_cycles();
                self.tracer.emit(cycles, move || ev);
            }
            self.emit_check_verdict(id, &func.name, Tier::Ftl, report.prove);
            self.code[id.0 as usize].ftl = Some(Rc::new(c));
            self.code[id.0 as usize].check_aborts = 0;
        }
        if self.config.txn_callees
            && self.config.arch.uses_transactions()
            && limit.allows(Tier::Ftl)
            && hot >= th.ftl
            && self.code[id.0 as usize].ftl_callee.is_none()
        {
            let passes = self.config.ftl_passes.unwrap_or_else(PassConfig::ftl);
            let c = if self.config.sanitize {
                let mut audit = compile_txn_callee_audited(
                    &func,
                    &mut self.rt,
                    self.config.arch,
                    passes,
                    self.config.audit_options(),
                    Some(&self.ipa),
                )
                .map_err(VmError::from)?;
                self.emit_verify(id, &func.name, &audit);
                let Some(code) = audit.code.take() else {
                    return Err(verifier_error(&func.name, &audit).into());
                };
                code
            } else {
                compile_txn_callee(&func, &mut self.rt, self.config.arch, passes, Some(&self.ipa))
                    .map_err(VmError::from)?
            };
            self.emit_tier_up(id, Tier::Ftl, c.code.len(), None, true);
            self.code[id.0 as usize].ftl_callee = Some(Rc::new(c));
        }
        Ok(())
    }

    /// Emits a [`TraceEvent::CheckVerdict`] with one compilation's static
    /// check-elision tallies (skipped when the function had no checks to
    /// analyze, so interpreter-only runs stay event-free).
    fn emit_check_verdict(
        &mut self,
        id: FuncId,
        name: &str,
        tier: Tier,
        prove: nomap_ir::ProveStats,
    ) {
        if !self.tracer.is_enabled() || prove.total_checks() == 0 {
            return;
        }
        let ev = TraceEvent::CheckVerdict {
            func: id.0,
            name: name.to_owned(),
            tier,
            proved_safe: prove.total_proved_safe(),
            proved_fail: prove.total_proved_fail(),
            unknown: prove.total_unknown(),
            elided: prove.total_elided(),
        };
        let cycles = self.stats.total_cycles();
        self.tracer.emit(cycles, move || ev);
    }

    /// Emits a [`TraceEvent::Verify`] for one audited compilation.
    fn emit_verify(&mut self, id: FuncId, name: &str, audit: &FtlAudit) {
        if !self.tracer.is_enabled() {
            return;
        }
        let ev = TraceEvent::Verify {
            func: id.0,
            name: name.to_owned(),
            stages: audit.stages,
            diagnostics: audit.diagnostics.len(),
            clean: audit.clean(),
            seeded_scope: (audit.scope_used != audit.scope_requested)
                .then(|| format!("{:?}", audit.scope_used)),
        };
        let cycles = self.stats.total_cycles();
        self.tracer.emit(cycles, move || ev);
    }

    /// Emits a [`TraceEvent::TierUp`] for a fresh compilation of `id`.
    fn emit_tier_up(
        &mut self,
        id: FuncId,
        tier: Tier,
        code_len: usize,
        scope: Option<TxnScope>,
        txn_callee: bool,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let ev = TraceEvent::TierUp {
            func: id.0,
            name: self.funcs[id.0 as usize].name.clone(),
            tier,
            code_len,
            scope: scope.map(|s| format!("{s:?}")),
            txn_callee,
        };
        let cycles = self.stats.total_cycles();
        self.tracer.emit(cycles, move || ev);
    }

    /// Steps the §V-C ladder after a capacity abort of `func`'s transaction
    /// and schedules a recompile.
    pub(crate) fn shrink_transactions(&mut self, func: FuncId, saw_call: bool) {
        let cs = &mut self.code[func.0 as usize];
        let from = cs.scope;
        cs.scope = next_scope(cs.scope, saw_call);
        let to = cs.scope;
        cs.ftl = None; // recompiled at the next call with the new scope
        cs.ftl_callee = None;
        self.rt.profiles.func_mut(func).capacity_aborts += 1;
        if self.tracer.is_enabled() {
            let ev = TraceEvent::LadderStep {
                func: func.0,
                name: self.funcs[func.0 as usize].name.clone(),
                from: format!("{from:?}"),
                to: format!("{to:?}"),
                saw_call,
            };
            let cycles = self.stats.total_cycles();
            self.tracer.emit(cycles, move || ev);
        }
    }

    /// Too many check aborts: profiles have been corrected by the Baseline
    /// re-executions; recompile FTL with them.
    pub(crate) fn note_check_abort(&mut self, func: FuncId) {
        let cs = &mut self.code[func.0 as usize];
        cs.check_aborts += 1;
        if cs.check_aborts >= 10 {
            let check_aborts = cs.check_aborts;
            cs.ftl = None;
            cs.ftl_callee = None;
            cs.check_aborts = 0;
            if self.tracer.is_enabled() {
                let ev = TraceEvent::Recompile {
                    func: func.0,
                    name: self.funcs[func.0 as usize].name.clone(),
                    check_aborts,
                };
                let cycles = self.stats.total_cycles();
                self.tracer.emit(cycles, move || ev);
            }
        }
    }

    /// Ensures Baseline code exists (deopt targets need it) and returns it.
    pub(crate) fn baseline_code(&mut self, id: FuncId) -> Rc<CompiledFn> {
        if self.code[id.0 as usize].baseline.is_none() {
            let func = self.funcs[id.0 as usize].clone();
            let c = compile_baseline(&func, &mut self.rt);
            self.code[id.0 as usize].baseline = Some(Rc::new(c));
        }
        self.code[id.0 as usize].baseline.clone().expect("just compiled")
    }
}
