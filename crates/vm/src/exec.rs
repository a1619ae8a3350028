//! The machine-code executor: runs [`MachInst`] code for the Baseline, DFG
//! and FTL tiers, models caches and HTM, performs OSR exits
//! (deoptimization) and transactional aborts, and attributes every dynamic
//! instruction to the paper's categories.

use std::rc::Rc;

use nomap_bytecode::{FuncId, Intrinsic};
use nomap_jit::{CompiledFn, StackMapEntry, ValueRepr};
use nomap_machine::{
    AbortReason, CheckKind, HtmKind, InstCategory, MReg, MachInst, RegionKind, Tier,
};
use nomap_runtime::{Access, RuntimeFn, Value};
use nomap_trace::TraceEvent;

use crate::error::Flow;
use crate::profiler::ReplayMode;
use crate::vm::{TxFallback, Vm};

/// One executing machine frame (lives on the Rust stack across JS calls).
struct Frame {
    code: Rc<CompiledFn>,
    /// Where execution (re)starts: 0 on entry, the Baseline resume point
    /// after a rematerialization. The loop keeps the live pc in a local.
    pc: usize,
    /// Register file, borrowed from [`Vm::machine_regs`] for the frame's
    /// lifetime.
    regs: Vec<u64>,
}

/// Runs `code` with `args`, returning the boxed result.
pub(crate) fn run_machine(
    vm: &mut Vm,
    code: Rc<CompiledFn>,
    args: &[Value],
) -> Result<Value, Flow> {
    let saved_stack = vm.stack_top;
    let saved_mode = vm.profiler_enter(code.func.0, code.tier);
    let mut frame = enter_frame(vm, code, args);
    let result = exec_loop(vm, &mut frame);
    vm.machine_regs.give(frame.regs);
    vm.profiler_exit(saved_mode);
    vm.stack_top = saved_stack;
    result
}

fn enter_frame(vm: &mut Vm, code: Rc<CompiledFn>, args: &[Value]) -> Frame {
    let mut regs = vm.machine_regs.take(code.reg_count as usize, 0);
    if code.frame_words > 0 {
        // Baseline: arguments and locals live in simulated stack memory.
        let frame_base = vm.stack_top;
        vm.stack_top += code.frame_words as u64;
        for (i, a) in args.iter().enumerate() {
            vm.rt.mem.write(frame_base + i as u64, a.to_bits());
        }
        regs[0] = frame_base; // FP
        vm.count(&code, args.len() as u64); // prologue stores
    } else {
        for (i, a) in args.iter().enumerate() {
            if 1 + i < regs.len() {
                regs[1 + i] = a.to_bits();
            }
        }
    }
    Frame { code, pc: 0, regs }
}

impl Vm {
    /// Attributes `n` dynamic instructions of `code` and advances cycles.
    pub(crate) fn count(&mut self, code: &CompiledFn, n: u64) {
        let in_tx = self.tx.active();
        let cat = if !in_tx {
            match code.tier {
                Tier::Ftl => InstCategory::NoTm,
                _ => InstCategory::NoFtl,
            }
        } else if code.tier == Tier::Ftl
            && (code.txn_callee
                || (code.txn_aware
                    && self.tx_fallback.as_ref().map(|f| f.depth) == Some(self.depth)))
        {
            InstCategory::TmOpt
        } else {
            InstCategory::TmUnopt
        };
        self.stats.add_insts(cat, code.tier, n);
        self.last_tier = code.tier;
        self.trace_residency(code.func.0, code.tier, n);
        let cycles = n * self.timing.per_inst;
        if in_tx {
            self.tx.instructions += n;
        }
        let kind = self.exec_kind(in_tx);
        self.add_cycles(in_tx, cycles, code.func.0, code.tier, kind);
        self.profiler_insts(code.func.0, code.tier, n);
    }

    /// Attributes runtime-helper work (always `NoFTL`, paper §VII-A).
    pub(crate) fn count_runtime(&mut self, n: u64) {
        self.stats.add_insts(InstCategory::NoFtl, Tier::Runtime, n);
        let cycles = n * self.timing.per_inst;
        let in_tx = self.tx.active();
        if in_tx {
            self.tx.instructions += n;
        }
        let (func, _) = self.profiler_ctx();
        let kind = self.exec_kind(in_tx);
        self.add_cycles(in_tx, cycles, func, Tier::Runtime, kind);
        self.profiler_insts(func, Tier::Runtime, n);
    }

    /// Drains the simulated-memory access log into the cache simulator and
    /// (when transactional) the HTM footprint tracking. Returns a capacity
    /// abort if the write/read set no longer fits.
    pub(crate) fn process_memory_traffic(&mut self) -> Option<AbortReason> {
        let mut buf = std::mem::take(&mut self.log_buf);
        self.rt.mem.swap_log(&mut buf);
        let in_tx = self.tx.active();
        let rtm = self.htm.kind == HtmKind::Rtm;
        let (pfunc, ptier) = self.profiler_ctx();
        let kind = self.exec_kind(in_tx);
        let mut abort = None;
        for &acc in &buf {
            match acc {
                Access::Read(addr) => {
                    let (outcome, _) = self.cache.access_word(addr, false, false);
                    let mut cyc = self.timing.mem_cycles(outcome);
                    if in_tx && rtm {
                        cyc += self.timing.rtm_read_extra;
                        // The footprint is fed unconditionally: even once an
                        // abort is pending, the batch's later accesses still
                        // touched the cache, and the first abort's blame must
                        // describe the true demanded footprint, not a prefix
                        // of it. Only the first failure becomes the abort.
                        if let Err(r) = self.tx.on_read(&self.htm, addr) {
                            if abort.is_none() {
                                abort = Some(r);
                            }
                        }
                    }
                    if in_tx && abort.is_none() {
                        if let Some(owner) = self.note_shared_access(addr, false) {
                            self.tx.capture_conflict(&self.htm, addr, false);
                            abort = Some(AbortReason::Conflict { agent: owner });
                        }
                    }
                    self.add_cycles(in_tx, cyc, pfunc, ptier, kind);
                }
                Access::Write { addr, old } => {
                    let sw = in_tx;
                    let sw_l1 = sw && rtm;
                    let sw_l2 = sw;
                    let (outcome, _) = self.cache.access_word(addr, sw_l1, sw_l2);
                    let cyc = self.timing.mem_cycles(outcome);
                    if in_tx {
                        // Unconditional for the same reason as reads — and
                        // because the undo log must stay complete so a later
                        // rollback restores every word the batch overwrote.
                        if let Err(r) = self.tx.on_write(&self.htm, addr, old) {
                            if abort.is_none() {
                                abort = Some(r);
                            }
                        }
                        if abort.is_none() {
                            if let Some(owner) = self.note_shared_access(addr, true) {
                                self.tx.capture_conflict(&self.htm, addr, true);
                                abort = Some(AbortReason::Conflict { agent: owner });
                            }
                        }
                    }
                    self.add_cycles(in_tx, cyc, pfunc, ptier, kind);
                }
            }
        }
        buf.clear();
        self.log_buf = buf;
        abort
    }

    /// Performs a transactional abort: rolls memory back, clears
    /// speculative cache state, charges the rollback, updates policy
    /// counters, and returns the unwinding signal.
    pub(crate) fn trigger_abort(&mut self, reason: AbortReason) -> Flow {
        self.stats.add_abort(reason);
        // Blame (fault site, footprints, length) must be sampled before the
        // rollback wipes the speculative sets. Capacity aborts carry the
        // fault site captured by the HTM model at the point of failure;
        // check/SOF aborts get a site-less snapshot of the current sets.
        let blame = if self.tracer.is_enabled() || self.profiler.is_some() {
            Some(self.tx.blame().unwrap_or_else(|| self.tx.snapshot_blame(&self.htm)))
        } else {
            None
        };
        // Roll back (the undo log already holds pre-transaction values).
        let undone = self.tx.abort(&mut self.rt.mem);
        self.rt.mem.clear_log(); // rollback pokes are not program traffic
        self.cache.flash_clear_sw();
        // The aborted transaction's speculative ownership of shared lines
        // dies with it (committed marks persist to the end of the round).
        if let Some(link) = &self.agent {
            link.segment.borrow_mut().clear_agent(link.id);
        }
        let cycles = self.timing.abort_base + self.timing.abort_per_word * undone as u64;
        let owner = self.tx_fallback.as_ref().map(|f| f.func);
        // Rollback cycles are attributed to what caused the abort: the
        // failed check's kind, or the retry ladder for capacity aborts.
        let abort_kind = match reason {
            AbortReason::Check(k) => RegionKind::Check(k),
            AbortReason::Capacity => RegionKind::TxnRetryLadder,
            AbortReason::StickyOverflow => RegionKind::Check(CheckKind::Overflow),
            AbortReason::Conflict { .. } => RegionKind::TxnRetryLadder,
        };
        let (pfunc, ptier) = self.profiler_ctx();
        let afunc = owner.map(|f| f.0).unwrap_or(pfunc);
        self.add_cycles(false, cycles, afunc, ptier, abort_kind);
        if let Some(b) = blame {
            if let Some(p) = &mut self.profiler {
                p.data.record_abort(afunc, reason, b.write_bytes);
                // The set-pressure census is capacity-only: a conflict blame
                // carries a fault site too, but says nothing about capacity.
                let set_ways = if matches!(reason, AbortReason::Capacity) {
                    b.fault.map(|f| f.set_ways)
                } else {
                    None
                };
                p.data.record_blame(afunc, set_ways, b.read_bytes);
            }
        }
        if let (Some(b), true) = (blame, self.tracer.is_enabled()) {
            let ev = TraceEvent::TxAbort {
                func: owner.map(|f| f.0),
                reason,
                footprint_bytes: b.write_bytes,
                undone_words: undone as u64,
                instructions: b.instructions,
            };
            let now = self.stats.total_cycles();
            self.tracer.emit(now, move || ev);
            let name = owner
                .map(|f| self.funcs[f.0 as usize].name.clone())
                .unwrap_or_else(|| "<vm>".to_owned());
            let scope = owner
                .map(|f| format!("{:?}", self.code[f.0 as usize].scope))
                .unwrap_or_else(|| "None".to_owned());
            let attempt = owner
                .map(|f| {
                    let prior = self.rt.profiles.func_ref(f).map_or(0, |p| p.capacity_aborts);
                    (prior + 1).min(u32::MAX as u64) as u32
                })
                .unwrap_or(1);
            let ev = TraceEvent::TxAbortBlame {
                func: owner.map(|f| f.0),
                name,
                tier: self.last_tier,
                bc: self.tx_fallback.as_ref().map(|f| f.bc).unwrap_or(0),
                reason,
                scope,
                attempt,
                word_addr: b.fault.map(|f| f.word_addr),
                line: b.fault.map(|f| f.line),
                set: b.fault.map(|f| f.set),
                set_ways: b.fault.map(|f| f.set_ways).unwrap_or(0),
                read_fault: b.fault.is_some_and(|f| !f.is_write),
                write_lines: b.write_lines,
                write_bytes: b.write_bytes,
                read_lines: b.read_lines,
                read_bytes: b.read_bytes,
                instructions: b.instructions,
            };
            self.tracer.emit(now, move || ev);
        }
        if let Some(func) = owner {
            match reason {
                AbortReason::Capacity => {
                    let saw_call = self.tx_saw_call;
                    self.shrink_transactions(func, saw_call);
                }
                AbortReason::Check(_) | AbortReason::StickyOverflow => {
                    self.note_check_abort(func);
                    self.rt.profiles.func_mut(func).deopt_count += 1;
                    self.stats.deopts += 1;
                }
                // A conflict says nothing about this transaction's own shape:
                // neither shrink its scope nor distrust its checks — the
                // Baseline fallback re-executes it and the next round retries.
                AbortReason::Conflict { .. } => {}
            }
        }
        Flow::TxAbort
    }
}

/// Reboxes a machine register for Baseline-frame materialization.
fn rebox(bits: u64, repr: ValueRepr) -> Value {
    match repr {
        ValueRepr::Boxed => Value::from_bits(bits),
        ValueRepr::I32 => Value::new_int32(bits as u32 as i32),
        ValueRepr::F64 => Value::new_double(f64::from_bits(bits)),
        ValueRepr::Bool => Value::new_bool(bits != 0),
    }
}

/// Switches `frame` to the Baseline tier at `bc` with the given boxed
/// register values (OSR exit / transaction fallback). The frame keeps its
/// register buffer.
fn materialize_baseline(
    vm: &mut Vm,
    frame: &mut Frame,
    func: FuncId,
    bc: u32,
    values: &[Option<Value>],
    mode: ReplayMode,
) {
    let baseline = vm.baseline_code(func);
    // From here to the frame's return, cycles are replay cost: the frame's
    // profiling context switches to Baseline under the given mode (and the
    // materialization work below is charged under it too).
    vm.profiler_frame_switch(func.0, Tier::Baseline, mode);
    let frame_base = vm.stack_top;
    vm.stack_top += baseline.frame_words as u64;
    for (i, v) in values.iter().enumerate() {
        let bits = v.unwrap_or(Value::UNDEFINED).to_bits();
        vm.rt.mem.write(frame_base + i as u64, bits);
    }
    // The OSR algorithm's work: one store per live variable plus fixed
    // overhead (paper §II-B).
    vm.count_runtime(values.len() as u64 + 30);
    let _ = vm.process_memory_traffic(); // deopt runs outside transactions
    frame.pc = baseline.bc_labels[bc as usize].0 as usize;
    frame.regs.clear();
    frame.regs.resize(baseline.reg_count as usize, 0);
    frame.regs[0] = frame_base;
    frame.code = baseline;
}

/// Reads the current stack-map entry into boxed values, in a buffer taken
/// from [`Vm::snapshots`] (give it back when done).
fn snapshot(vm: &mut Vm, regs: &[u64], entry: &StackMapEntry) -> Vec<Option<Value>> {
    let mut values = vm.snapshots.take(0, None);
    values.extend(
        entry.regs.iter().map(|slot| slot.map(|(r, repr)| rebox(regs[r.0 as usize], repr))),
    );
    values
}

/// Boxes the argument registers `args` into a stack buffer (the heap only
/// for calls with more than eight arguments) and passes them to `call`.
fn with_args<T>(regs: &[u64], args: &[MReg], call: impl FnOnce(&[Value]) -> T) -> T {
    const INLINE: usize = 8;
    let boxed = |m: &MReg| Value::from_bits(regs[m.0 as usize]);
    if args.len() <= INLINE {
        let mut buf = [Value::UNDEFINED; INLINE];
        for (slot, m) in buf.iter_mut().zip(args) {
            *slot = boxed(m);
        }
        call(&buf[..args.len()])
    } else {
        call(&args.iter().map(boxed).collect::<Vec<_>>())
    }
}

fn exec_loop(vm: &mut Vm, frame: &mut Frame) -> Result<Value, Flow> {
    // The frame's code changes only when an abort or deopt rematerializes
    // it in Baseline; every such switch restarts this outer loop.
    'code: loop {
        let code = Rc::clone(&frame.code);
        let mut pc = frame.pc;
        // Register-only instructions executed but not yet accounted. They
        // cannot change anything `Vm::count` reads, so the batch is flushed
        // together with the next instruction outside that set — before it
        // executes, so everything it does sees every earlier instruction
        // accounted.
        let mut pending = 0u64;
        // Runs until an instruction raises a `Flow`: an abort raised here
        // or unwinding out of a callee, or a guest error.
        let flow = loop {
            let inst = &code.code[pc];
            pc += 1;
            if inst.is_register_only() {
                pending += 1;
            } else {
                vm.count(&code, pending + 1);
                pending = 0;
            }
            let r = &mut frame.regs;
            match *inst {
                MachInst::MovImm { dst, imm } => r[dst.0 as usize] = imm,
                MachInst::Mov { dst, src } => r[dst.0 as usize] = r[src.0 as usize],
                MachInst::Alu64 { op, dst, a, b } => {
                    r[dst.0 as usize] = op.apply(r[a.0 as usize], r[b.0 as usize]);
                }
                MachInst::Alu64Imm { op, dst, a, imm } => {
                    r[dst.0 as usize] = op.apply(r[a.0 as usize], imm);
                }
                MachInst::AddI32 { dst, a, b } => {
                    int32_arith(vm, r, dst, a, Some(b), |x, y| x.checked_add(y));
                }
                MachInst::SubI32 { dst, a, b } => {
                    int32_arith(vm, r, dst, a, Some(b), |x, y| x.checked_sub(y));
                }
                MachInst::MulI32 { dst, a, b } => {
                    int32_arith(vm, r, dst, a, Some(b), |x, y| {
                        let wide = x as i64 * y as i64;
                        if wide == 0 && (x < 0 || y < 0) {
                            None // negative zero needs the double representation
                        } else {
                            i32::try_from(wide).ok()
                        }
                    });
                }
                MachInst::NegI32 { dst, a } => {
                    // Neither -0 nor -i32::MIN fits the int32 representation.
                    int32_arith(vm, r, dst, a, None, |x, _| x.checked_neg().filter(|_| x != 0));
                }
                MachInst::FAlu { op, dst, a, b } => {
                    r[dst.0 as usize] = op.apply_bits(r[a.0 as usize], r[b.0 as usize]);
                }
                MachInst::FNeg { dst, a } => {
                    r[dst.0 as usize] = (-f64::from_bits(r[a.0 as usize])).to_bits();
                }
                MachInst::CvtI32ToF64 { dst, src } => {
                    r[dst.0 as usize] = ((r[src.0 as usize] as u32 as i32) as f64).to_bits();
                }
                MachInst::CvtF64ToI32 { dst, src } => {
                    let d = f64::from_bits(r[src.0 as usize]);
                    r[dst.0 as usize] = (d as i32) as i64 as u64; // saturating cast
                }
                MachInst::UnboxI32 { dst, src } => {
                    r[dst.0 as usize] = (r[src.0 as usize] as u32 as i32) as i64 as u64;
                }
                MachInst::ToF64 { dst, src } => {
                    let v = Value::from_bits(r[src.0 as usize]);
                    let d = if v.is_int32() { v.as_int32() as f64 } else { v.as_double() };
                    r[dst.0 as usize] = d.to_bits();
                }
                MachInst::BoxI32 { dst, src } => {
                    r[dst.0 as usize] = Value::new_int32(r[src.0 as usize] as u32 as i32).to_bits();
                }
                MachInst::BoxF64 { dst, src } => {
                    r[dst.0 as usize] =
                        Value::new_double(f64::from_bits(r[src.0 as usize])).to_bits();
                }
                MachInst::BoxBool { dst, src } => {
                    r[dst.0 as usize] = Value::new_bool(r[src.0 as usize] != 0).to_bits();
                }
                MachInst::IAlu32 { op, dst, a, b } => {
                    let x = r[a.0 as usize] as u32 as i32;
                    let y = r[b.0 as usize] as u32 as i32;
                    r[dst.0 as usize] = op.apply(x, y) as i64 as u64;
                }
                MachInst::UShr32 { dst, a, b } => {
                    let x = r[a.0 as usize] as u32;
                    let y = r[b.0 as usize] as u32 & 31;
                    r[dst.0 as usize] = (x.wrapping_shr(y) as i32) as i64 as u64;
                }
                MachInst::MathF64 { intr, dst, ref args } => {
                    let arg = |i: usize| {
                        args.get(i).map(|m| f64::from_bits(r[m.0 as usize])).unwrap_or(f64::NAN)
                    };
                    let (val, extra) = exec_math(vm, intr, arg(0), arg(1));
                    r[dst.0 as usize] = val.to_bits();
                    if extra > 0 {
                        vm.count_runtime(extra); // libm call the FTL cannot inline
                    }
                }
                MachInst::CmpI64 { dst, a, b, cond } => {
                    r[dst.0 as usize] = cond.eval_i64(r[a.0 as usize], r[b.0 as usize]) as u64;
                }
                MachInst::CmpImm { dst, a, imm, cond } => {
                    r[dst.0 as usize] = cond.eval_i64(r[a.0 as usize], imm) as u64;
                }
                MachInst::CmpF64 { dst, a, b, cond } => {
                    let x = f64::from_bits(r[a.0 as usize]);
                    let y = f64::from_bits(r[b.0 as usize]);
                    r[dst.0 as usize] = cond.eval_f64(x, y) as u64;
                }
                MachInst::Jump { target } => {
                    if (target.0 as usize) < pc && code.tier == Tier::Baseline {
                        vm.rt.profiles.func_mut(code.func).back_edges += 1;
                    }
                    pc = target.0 as usize;
                }
                MachInst::BranchNz { cond, target } => {
                    if r[cond.0 as usize] != 0 {
                        if (target.0 as usize) < pc && code.tier == Tier::Baseline {
                            vm.rt.profiles.func_mut(code.func).back_edges += 1;
                        }
                        pc = target.0 as usize;
                    }
                }
                MachInst::BranchZ { cond, target } => {
                    if r[cond.0 as usize] == 0 {
                        if (target.0 as usize) < pc && code.tier == Tier::Baseline {
                            vm.rt.profiles.func_mut(code.func).back_edges += 1;
                        }
                        pc = target.0 as usize;
                    }
                }
                MachInst::Load { dst, base, offset } => {
                    let addr = r[base.0 as usize].wrapping_add_signed(offset);
                    r[dst.0 as usize] = vm.rt.mem.read(addr);
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::Store { src, base, offset } => {
                    let addr = r[base.0 as usize].wrapping_add_signed(offset);
                    vm.rt.mem.write(addr, r[src.0 as usize]);
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::LoadIdx { dst, base, index } => {
                    let addr = r[base.0 as usize].wrapping_add(r[index.0 as usize]);
                    r[dst.0 as usize] = vm.rt.mem.read(addr);
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::StoreIdx { src, base, index } => {
                    let addr = r[base.0 as usize].wrapping_add(r[index.0 as usize]);
                    vm.rt.mem.write(addr, r[src.0 as usize]);
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::LoadGlobal { dst, addr } => {
                    let bits = vm.rt.mem.read(addr);
                    r[dst.0 as usize] = if bits == 0 { Value::UNDEFINED.to_bits() } else { bits };
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::StoreGlobal { src, addr } => {
                    vm.rt.mem.write(addr, r[src.0 as usize]);
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::CallRt { dst, func, ref args, site } => {
                    // Irrevocable events (I/O) abort the transaction first
                    // (paper §V-A); the Baseline re-execution performs the
                    // print non-transactionally, exactly once.
                    if vm.tx.active() && matches!(func, RuntimeFn::Intrinsic(Intrinsic::Print)) {
                        break vm.trigger_abort(AbortReason::Check(CheckKind::Other));
                    }
                    vm.rt.charge(vm.rt.costs.call_overhead);
                    let result =
                        match with_args(r, args, |argv| func.dispatch(&mut vm.rt, argv, site)) {
                            Ok(v) => v,
                            Err(e) => break e.into(),
                        };
                    let charged = vm.rt.take_charged();
                    vm.count_runtime(charged);
                    r[dst.0 as usize] = result.to_bits();
                    if let Err(flow) = mem_step(vm) {
                        break flow;
                    }
                }
                MachInst::CallJs { dst, callee, ref args } => {
                    if vm.tx.active() {
                        vm.tx_saw_call = true;
                    }
                    match with_args(r, args, |argv| vm.call_function(callee, argv)) {
                        Ok(v) => r[dst.0 as usize] = v.to_bits(),
                        Err(flow) => break flow,
                    }
                }
                MachInst::Ret { src } => {
                    return Ok(Value::from_bits(r[src.0 as usize]));
                }
                MachInst::DeoptIf { cond, smp, kind } => {
                    if code.tier == Tier::Ftl {
                        vm.stats.add_check(kind);
                        vm.profiler_check(code.func.0, kind);
                    }
                    if r[cond.0 as usize] != 0 {
                        match take_deopt(vm, frame, smp, kind) {
                            Some(flow) => break flow,
                            None => continue 'code,
                        }
                    }
                }
                MachInst::DeoptIfOverflow { smp } => {
                    if code.tier == Tier::Ftl {
                        vm.stats.add_check(CheckKind::Overflow);
                        vm.profiler_check(code.func.0, CheckKind::Overflow);
                    }
                    if vm.of {
                        match take_deopt(vm, frame, smp, CheckKind::Overflow) {
                            Some(flow) => break flow,
                            None => continue 'code,
                        }
                    }
                }
                MachInst::AbortIf { cond, kind } => {
                    vm.stats.add_check(kind);
                    vm.profiler_check(code.func.0, kind);
                    if r[cond.0 as usize] != 0 {
                        break vm.trigger_abort(AbortReason::Check(kind));
                    }
                }
                MachInst::AbortIfOverflow => {
                    vm.stats.add_check(CheckKind::Overflow);
                    vm.profiler_check(code.func.0, CheckKind::Overflow);
                    if vm.of {
                        break vm.trigger_abort(AbortReason::Check(CheckKind::Overflow));
                    }
                }
                MachInst::XBegin { fallback } => {
                    let outermost = !vm.tx.active();
                    vm.tx.begin();
                    if outermost {
                        let entry = &code.stack_maps[fallback.0 as usize];
                        let regs = snapshot(vm, r, entry);
                        vm.tx_fallback = Some(TxFallback {
                            depth: vm.depth,
                            func: code.func,
                            bc: entry.bc,
                            regs,
                        });
                        vm.tx_saw_call = false;
                        vm.stats.tx_begun += 1;
                        if vm.tracer.is_enabled() {
                            let ev = TraceEvent::TxBegin {
                                func: code.func.0,
                                name: vm.funcs[code.func.0 as usize].name.clone(),
                            };
                            let now = vm.stats.total_cycles();
                            vm.tracer.emit(now, move || ev);
                        }
                    }
                    let cyc = vm.timing.xbegin_cycles(vm.htm.kind);
                    vm.add_cycles(true, cyc, code.func.0, code.tier, RegionKind::TxnBody);
                }
                MachInst::XEnd => match vm.tx.end(&vm.htm) {
                    Ok(Some(outcome)) => {
                        vm.stats.tx_committed += 1;
                        vm.stats.tx_character.record(outcome);
                        vm.cache.flash_clear_sw();
                        if let Some(fb) = vm.tx_fallback.take() {
                            vm.snapshots.give(fb.regs);
                        }
                        let cyc = vm.timing.xend_cycles(vm.htm.kind);
                        // Commit overhead is part of the transaction's cost.
                        vm.add_cycles(false, cyc, code.func.0, code.tier, RegionKind::TxnBody);
                        if let Some(p) = &mut vm.profiler {
                            p.data.record_commit(
                                code.func.0,
                                outcome.write_footprint_bytes,
                                outcome.read_footprint_bytes,
                            );
                        }
                        if vm.tracer.is_enabled() {
                            let ev = TraceEvent::TxCommit {
                                func: code.func.0,
                                footprint_bytes: outcome.write_footprint_bytes,
                                read_footprint_bytes: outcome.read_footprint_bytes,
                                max_assoc: outcome.max_assoc,
                                instructions: outcome.instructions,
                            };
                            let now = vm.stats.total_cycles();
                            vm.tracer.emit(now, move || ev);
                        }
                    }
                    Ok(None) => {}
                    Err(reason) => break vm.trigger_abort(reason),
                },
                MachInst::Fence | MachInst::Nop => {}
            }
            // Overflow flag bookkeeping happens inside int32_arith; memory
            // traffic inside mem_step.
        };
        resume_after_abort(vm, frame, flow)?;
    }
}

/// Shared int32 arithmetic with OF/SOF modelling. Stores the wrapped result
/// and records the overflow flag in `vm.of`.
fn int32_arith(
    vm: &mut Vm,
    r: &mut [u64],
    dst: MReg,
    a: MReg,
    b: Option<MReg>,
    op: impl Fn(i32, i32) -> Option<i32>,
) {
    let x = r[a.0 as usize] as u32 as i32;
    let y = b.map(|m| r[m.0 as usize] as u32 as i32).unwrap_or(0);
    match op(x, y) {
        Some(v) => {
            r[dst.0 as usize] = v as i64 as u64;
            vm.of = false;
        }
        None => {
            // Wrapped result (never observed when guards are in place; SOF
            // mode aborts at XEnd before anyone can use it).
            r[dst.0 as usize] = x.wrapping_add(y) as i64 as u64;
            vm.of = true;
            if vm.tx.active() {
                vm.tx.set_sof();
            }
        }
    }
}

/// After memory-touching instructions: drain traffic, maybe abort.
fn mem_step(vm: &mut Vm) -> Result<(), Flow> {
    if let Some(reason) = vm.process_memory_traffic() {
        return Err(vm.trigger_abort(reason));
    }
    Ok(())
}

/// Routes a `Flow` raised by this frame or unwinding out of a callee. When
/// it is a transactional abort and this frame owns the transaction, the
/// frame re-enters Baseline through the fallback and `Ok` tells the caller
/// to resume it; anything else propagates.
fn resume_after_abort(vm: &mut Vm, frame: &mut Frame, flow: Flow) -> Result<(), Flow> {
    match flow {
        Flow::TxAbort => match vm.tx_fallback.take() {
            Some(fb) if fb.depth == vm.depth => {
                materialize_baseline(vm, frame, fb.func, fb.bc, &fb.regs, ReplayMode::TxnRetry);
                vm.snapshots.give(fb.regs);
                Ok(())
            }
            fb => {
                vm.tx_fallback = fb;
                Err(Flow::TxAbort)
            }
        },
        other => Err(other),
    }
}

/// OSR exit: deoptimize this frame to Baseline through stack map `smp`
/// because a `kind` check failed (`None`: the frame now runs Baseline).
/// Inside a transaction this becomes a full abort (the paper's TMUnopt
/// SMPs), returned for routing: roll back and re-enter through the
/// transaction fallback instead.
fn take_deopt(
    vm: &mut Vm,
    frame: &mut Frame,
    smp: nomap_machine::SmpId,
    kind: CheckKind,
) -> Option<Flow> {
    vm.stats.deopts += 1;
    vm.rt.profiles.func_mut(frame.code.func).deopt_count += 1;
    if vm.profiler.is_some() {
        let bc = frame.code.stack_maps[smp.0 as usize].bc;
        vm.profiler_deopt(frame.code.func.0, smp.0, bc, kind);
    }
    if vm.tx.active() {
        return Some(vm.trigger_abort(AbortReason::Check(CheckKind::Other)));
    }
    let code = Rc::clone(&frame.code);
    let entry = &code.stack_maps[smp.0 as usize];
    let values = snapshot(vm, &frame.regs, entry);
    let func = code.func;
    if vm.tracer.is_enabled() {
        let ev = TraceEvent::Deopt {
            func: func.0,
            name: vm.funcs[func.0 as usize].name.clone(),
            smp: smp.0,
            bc: entry.bc,
            kind,
        };
        let now = vm.stats.total_cycles();
        vm.tracer.emit(now, move || ev);
    }
    materialize_baseline(vm, frame, func, entry.bc, &values, ReplayMode::DeoptReplay);
    vm.snapshots.give(values);
    None
}

/// Inlined math: pure FP ops cost nothing extra (single machine
/// instruction); transcendentals charge their libm cost.
fn exec_math(vm: &Vm, intr: Intrinsic, a: f64, b: f64) -> (f64, u64) {
    use Intrinsic::*;
    let trig = vm.rt.costs.intrinsic_trig;
    match intr {
        MathSqrt => (a.sqrt(), 0),
        MathFloor => (a.floor(), 0),
        MathCeil => (a.ceil(), 0),
        MathRound => ((a + 0.5).floor(), 0),
        MathAbs => (a.abs(), 0),
        MathMax => (if a.is_nan() || b.is_nan() { f64::NAN } else { a.max(b) }, 0),
        MathMin => (if a.is_nan() || b.is_nan() { f64::NAN } else { a.min(b) }, 0),
        MathSin => (a.sin(), trig),
        MathCos => (a.cos(), trig),
        MathTan => (a.tan(), trig),
        MathAtan => (a.atan(), trig),
        MathAtan2 => (a.atan2(b), trig),
        MathExp => (a.exp(), trig),
        MathLog => (a.ln(), trig),
        MathPow => (a.powf(b), trig),
        other => panic!("non-math intrinsic {other:?} lowered to MathF64"),
    }
}
