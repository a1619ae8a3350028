//! The Interpreter tier: direct bytecode execution with full profiling.
//!
//! Each opcode charges a dispatch overhead plus whatever the generic
//! semantics charge — the cost structure that makes Baseline ≈2× and FTL
//! ≈10× faster (paper Table I).

use std::rc::Rc;

use nomap_bytecode::{Const, FuncId, Function, Op};
use nomap_machine::{InstCategory, Tier};
use nomap_runtime::{RuntimeFn, Value};

use crate::error::Flow;
use crate::vm::Vm;

/// Runs `id` in the interpreter.
pub(crate) fn interpret(vm: &mut Vm, id: FuncId, args: &[Value]) -> Result<Value, Flow> {
    let saved_mode = vm.profiler_enter(id.0, Tier::Interpreter);
    let func = Rc::clone(&vm.funcs[id.0 as usize]);
    let mut regs = vm.interp_regs.take(func.register_count as usize, Value::UNDEFINED);
    let n = args.len().min(func.param_count as usize);
    regs[..n].copy_from_slice(&args[..n]);
    let result = interpret_inner(vm, id, &func, &mut regs);
    vm.interp_regs.give(regs);
    vm.profiler_exit(saved_mode);
    result
}

fn interpret_inner(
    vm: &mut Vm,
    id: FuncId,
    func: &Function,
    regs: &mut [Value],
) -> Result<Value, Flow> {
    let mut pc: u32 = 0;
    let site = |s| Some((id, s));
    // Previous opcode's kind when the current opcode is its static
    // fallthrough successor (census digrams; `None` after taken branches).
    let mut prev_kind: Option<u8> = None;

    loop {
        let op = func.code[pc as usize];
        if let Some(census) = vm.census.as_deref_mut() {
            let cur = op.kind_index();
            census.record_op(cur);
            if let Some(prev) = prev_kind {
                census.record_digram(prev, cur);
            }
        }
        let mut next = pc + 1;
        match op {
            Op::LoadConst { dst, cid } => {
                let v = match &func.constants[cid.0 as usize] {
                    Const::Num(n) => Value::new_number(*n),
                    Const::Str(s) => {
                        let sid = vm.rt.strings.intern(s);
                        vm.rt.string_value(sid)?
                    }
                };
                regs[dst.0 as usize] = v;
            }
            Op::LoadInt { dst, value } => regs[dst.0 as usize] = Value::new_int32(value),
            Op::LoadBool { dst, value } => regs[dst.0 as usize] = Value::new_bool(value),
            Op::LoadUndefined { dst } => regs[dst.0 as usize] = Value::UNDEFINED,
            Op::LoadNull { dst } => regs[dst.0 as usize] = Value::NULL,
            Op::Mov { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
            Op::Binary { op, dst, a, b, site: s } => {
                let va = regs[a.0 as usize];
                let vb = regs[b.0 as usize];
                regs[dst.0 as usize] =
                    RuntimeFn::Binary(op).dispatch(&mut vm.rt, &[va, vb], site(s))?;
            }
            Op::Unary { op, dst, a, site: s } => {
                let va = regs[a.0 as usize];
                regs[dst.0 as usize] = RuntimeFn::Unary(op).dispatch(&mut vm.rt, &[va], site(s))?;
            }
            Op::Jump { target } => {
                if target <= pc {
                    vm.rt.profiles.func_mut(id).back_edges += 1;
                }
                next = target;
            }
            Op::JumpIfTrue { cond, target } | Op::JumpIfFalse { cond, target } => {
                let truthy = vm.rt.to_boolean(regs[cond.0 as usize]);
                let take = truthy == matches!(op, Op::JumpIfTrue { .. });
                if take {
                    if target <= pc {
                        vm.rt.profiles.func_mut(id).back_edges += 1;
                    }
                    next = target;
                }
            }
            Op::NewObject { dst } => regs[dst.0 as usize] = vm.rt.new_object()?,
            Op::NewArray { dst, len } => {
                let l = regs[len.0 as usize];
                regs[dst.0 as usize] = RuntimeFn::NewArray.dispatch(&mut vm.rt, &[l], None)?;
            }
            Op::GetProp { dst, obj, name, site: s } => {
                let o = regs[obj.0 as usize];
                regs[dst.0 as usize] = vm.rt.get_prop(o, name, site(s))?;
            }
            Op::PutProp { obj, name, val, site: s } => {
                let o = regs[obj.0 as usize];
                let v = regs[val.0 as usize];
                vm.rt.put_prop(o, name, v, site(s))?;
            }
            Op::GetIndex { dst, arr, idx, site: s } => {
                let a = regs[arr.0 as usize];
                let i = regs[idx.0 as usize];
                regs[dst.0 as usize] = vm.rt.get_index(a, i, site(s))?;
            }
            Op::PutIndex { arr, idx, val, site: s } => {
                let a = regs[arr.0 as usize];
                let i = regs[idx.0 as usize];
                let v = regs[val.0 as usize];
                vm.rt.put_index(a, i, v, site(s))?;
            }
            Op::GetGlobal { dst, name, .. } => {
                regs[dst.0 as usize] = vm.rt.get_global(name);
            }
            Op::PutGlobal { name, src } => {
                let v = regs[src.0 as usize];
                vm.rt.put_global(name, v);
            }
            Op::Call { dst, func: callee, argv, argc, .. } => {
                let args = argv.0 as usize..argv.0 as usize + argc as usize;
                // Account for this opcode before recursing so attribution
                // nests correctly.
                vm.rt.charge(vm.rt.costs.js_call);
                account(vm, id)?;
                let r = vm.call_function(callee, &regs[args])?;
                regs[dst.0 as usize] = r;
                if vm.census.is_some() {
                    prev_kind = (next == pc + 1).then(|| op.kind_index());
                }
                pc = next;
                continue;
            }
            Op::CallIntrinsic { dst, intr, argv, argc, site: s } => {
                // Irrevocable I/O aborts the enclosing transaction first
                // (paper §V-A).
                if vm.tx.active() && intr == nomap_bytecode::Intrinsic::Print {
                    return Err(vm.trigger_abort(nomap_machine::AbortReason::Check(
                        nomap_machine::CheckKind::Other,
                    )));
                }
                let args = argv.0 as usize..argv.0 as usize + argc as usize;
                regs[dst.0 as usize] = vm.rt.call_intrinsic(intr, &regs[args], site(s))?;
            }
            Op::Return { src } => {
                let v = regs[src.0 as usize];
                account(vm, id)?;
                return Ok(v);
            }
        }
        account(vm, id)?;
        if vm.census.is_some() {
            prev_kind = (next == pc + 1).then(|| op.kind_index());
        }
        pc = next;
    }
}

/// Charges the interpreter dispatch cost plus whatever the runtime charged,
/// attributes the instructions, processes memory traffic and advances the
/// cycle model. Interpreted code can run *inside* a transaction (called
/// from FTL NoMap code), so capacity aborts can surface here too.
fn account(vm: &mut Vm, id: FuncId) -> Result<(), Flow> {
    let insts = vm.rt.costs.interp_dispatch + vm.rt.take_charged();
    vm.stats.add_insts(InstCategory::NoFtl, Tier::Interpreter, insts);
    vm.last_tier = Tier::Interpreter;
    vm.trace_residency(id.0, Tier::Interpreter, insts);
    let cycles = insts * vm.timing.per_inst;
    let in_tx = vm.tx.active();
    if in_tx {
        vm.tx.instructions += insts;
    }
    let kind = vm.exec_kind(in_tx);
    vm.add_cycles(in_tx, cycles, id.0, Tier::Interpreter, kind);
    vm.profiler_insts(id.0, Tier::Interpreter, insts);
    if let Some(reason) = vm.process_memory_traffic() {
        return Err(vm.trigger_abort(reason));
    }
    Ok(())
}
