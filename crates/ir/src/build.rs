//! Bytecode → SSA IR translation with profile-driven speculation.
//!
//! This is the model of the DFG/FTL front end: every speculative decision is
//! taken from the value profiles the lower tiers collected, and every
//! speculation materializes as a check guarding a Stack Map Point, exactly
//! the code structure the paper measures (§III-A1: bounds, overflow, type,
//! property and "other" checks roughly every 12 instructions).
//!
//! SSA is constructed with the Braun et al. algorithm (on-the-fly phi
//! placement with sealed blocks). Bytecode registers always carry *boxed*
//! values across opcode boundaries; unboxed values live only inside one
//! opcode's expansion. Redundant box/unbox pairs are cleaned up by constant
//! folding and GVN — unless a Stack Map Point pins the boxed value alive,
//! which is precisely the SMP cost NoMap removes.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use nomap_bytecode::{BinaryOp, Const, Function, Op, Reg, SiteId, UnaryOp};
use nomap_machine::{CheckKind, Cond};
use nomap_runtime::{
    Runtime, RuntimeFn, SiteProfile, Value, ValueKind, ARR_LEN, ARR_STORAGE, OBJ_STORAGE,
};

use crate::graph::{BlockId, IrFunc, ValueId};
use crate::node::{Alias, CheckMode, Inst, InstKind, OsrState, Ty};

/// Speculation level: the DFG and FTL tiers share this front end; they
/// differ in which optimization passes run afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecLevel {
    /// Middle tier.
    Dfg,
    /// Top tier.
    Ftl,
}

/// An error during IR construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir build error: {}", self.0)
    }
}

impl Error for BuildError {}

/// Side information the NoMap transformation needs.
#[derive(Debug, Clone, Default)]
pub struct BuildInfo {
    /// For each IR block that is a bytecode loop header: the OSR state at
    /// the top of that header (values may be header phis; the transaction
    /// pass rewrites them per edge).
    pub loop_osr: HashMap<BlockId, OsrState>,
}

/// Builds speculative SSA IR for `func` from its profiles.
///
/// `rt` is used to resolve global slot addresses and intern constant
/// strings (compile-time effects, charged to compilation, not execution).
///
/// # Errors
///
/// Returns [`BuildError`] for malformed bytecode (unpatched jumps etc.).
pub fn build_ir(
    func: &Function,
    rt: &mut Runtime,
    _level: SpecLevel,
) -> Result<(IrFunc, BuildInfo), BuildError> {
    Builder::new(func, rt)?.run()
}

struct Builder<'a> {
    bc: &'a Function,
    rt: &'a mut Runtime,
    f: IrFunc,
    info: BuildInfo,
    /// Bytecode leaders in ascending order.
    leaders: Vec<u32>,
    /// bc index → block.
    block_of: HashMap<u32, BlockId>,
    /// Static predecessor lists (bc leader → preds as bc block leaders),
    /// in deterministic order; drives phi input order.
    sealed: Vec<bool>,
    filled: Vec<bool>,
    defs: HashMap<(u32, u16), ValueId>,
    incomplete: HashMap<u32, Vec<(u16, ValueId)>>,
    /// Live-in bytecode registers per bytecode index.
    live_in: Vec<Vec<bool>>,
    /// Per-function profile snapshot.
    sites: Vec<SiteProfile>,
    cur: BlockId,
    cur_bc_block: u32,
}

impl<'a> Builder<'a> {
    fn new(bc: &'a Function, rt: &'a mut Runtime) -> Result<Self, BuildError> {
        let mut sites = rt.profiles.func_ref(bc.id).map(|p| p.sites.clone()).unwrap_or_default();
        sites.resize_with(bc.site_count as usize, SiteProfile::default);
        let f = IrFunc::new(bc.id, bc.name.clone(), bc.param_count, bc.register_count);
        Ok(Builder {
            bc,
            rt,
            f,
            info: BuildInfo::default(),
            leaders: Vec::new(),
            block_of: HashMap::new(),
            sealed: Vec::new(),
            filled: Vec::new(),
            defs: HashMap::new(),
            incomplete: HashMap::new(),
            live_in: Vec::new(),
            sites,
            cur: BlockId(0),
            cur_bc_block: 0,
        })
    }

    // ---- bytecode CFG ----------------------------------------------------

    fn compute_leaders(&mut self) {
        let mut leaders = vec![0u32];
        for (i, op) in self.bc.code.iter().enumerate() {
            if let Some(t) = op.jump_target() {
                leaders.push(t);
                leaders.push(i as u32 + 1);
            }
            if matches!(op, Op::Return { .. }) {
                leaders.push(i as u32 + 1);
            }
        }
        leaders.retain(|&l| (l as usize) < self.bc.code.len());
        leaders.sort_unstable();
        leaders.dedup();
        self.leaders = leaders;
    }

    fn block_end(&self, leader: u32) -> u32 {
        let n = self.bc.code.len() as u32;
        match self.leaders.binary_search(&leader) {
            // `min` guards against the entry-block sentinel (u32::MAX)
            // appended after leader computation.
            Ok(i) if i + 1 < self.leaders.len() => self.leaders[i + 1].min(n),
            _ => n,
        }
    }

    /// Static predecessor edges (bc-leader pairs), in deterministic order.
    fn static_preds(&self) -> HashMap<u32, Vec<u32>> {
        let mut preds: HashMap<u32, Vec<u32>> = HashMap::new();
        for &l in &self.leaders {
            preds.insert(l, vec![]);
        }
        for &l in &self.leaders {
            let end = self.block_end(l);
            let last = &self.bc.code[end as usize - 1];
            let falls_through = !matches!(last, Op::Jump { .. } | Op::Return { .. });
            if let Some(t) = last.jump_target() {
                preds.get_mut(&t).expect("target is a leader").push(l);
            }
            if falls_through && (end as usize) < self.bc.code.len() {
                preds.get_mut(&end).expect("fallthrough is a leader").push(l);
            }
        }
        preds
    }

    // ---- bytecode liveness -------------------------------------------------

    fn op_uses_defs(op: &Op) -> (Vec<u16>, Option<u16>) {
        match *op {
            Op::LoadConst { dst, .. }
            | Op::LoadInt { dst, .. }
            | Op::LoadBool { dst, .. }
            | Op::LoadUndefined { dst }
            | Op::LoadNull { dst }
            | Op::NewObject { dst }
            | Op::GetGlobal { dst, .. } => (vec![], Some(dst.0)),
            Op::Mov { dst, src } => (vec![src.0], Some(dst.0)),
            Op::Binary { dst, a, b, .. } => (vec![a.0, b.0], Some(dst.0)),
            Op::Unary { dst, a, .. } => (vec![a.0], Some(dst.0)),
            Op::Jump { .. } => (vec![], None),
            Op::JumpIfTrue { cond, .. } | Op::JumpIfFalse { cond, .. } => (vec![cond.0], None),
            Op::NewArray { dst, len } => (vec![len.0], Some(dst.0)),
            Op::GetProp { dst, obj, .. } => (vec![obj.0], Some(dst.0)),
            Op::PutProp { obj, val, .. } => (vec![obj.0, val.0], None),
            Op::GetIndex { dst, arr, idx, .. } => (vec![arr.0, idx.0], Some(dst.0)),
            Op::PutIndex { arr, idx, val, .. } => (vec![arr.0, idx.0, val.0], None),
            Op::PutGlobal { src, .. } => (vec![src.0], None),
            Op::Call { dst, argv, argc, .. } | Op::CallIntrinsic { dst, argv, argc, .. } => {
                ((argv.0..argv.0 + argc as u16).collect(), Some(dst.0))
            }
            Op::Return { src } => (vec![src.0], None),
        }
    }

    fn compute_liveness(&mut self) {
        let n = self.bc.code.len();
        let regs = self.bc.register_count as usize;
        let mut live_in = vec![vec![false; regs]; n + 1];
        // Iterate to fixpoint (backward).
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let op = &self.bc.code[i];
                // live_out = union of successors' live_in.
                let mut out = vec![false; regs];
                let mut succs = Vec::new();
                if let Some(t) = op.jump_target() {
                    succs.push(t as usize);
                }
                if !matches!(op, Op::Jump { .. } | Op::Return { .. }) {
                    succs.push(i + 1);
                }
                for s in succs {
                    if s <= n {
                        for r in 0..regs {
                            out[r] = out[r] || live_in[s][r];
                        }
                    }
                }
                let (uses, def) = Self::op_uses_defs(op);
                if let Some(d) = def {
                    out[d as usize] = false;
                }
                for u in uses {
                    out[u as usize] = true;
                }
                if out != live_in[i] {
                    live_in[i] = out;
                    changed = true;
                }
            }
        }
        self.live_in = live_in;
    }

    // ---- SSA (Braun et al.) ---------------------------------------------------

    fn write_var(&mut self, bc_block: u32, reg: u16, v: ValueId) {
        self.defs.insert((bc_block, reg), v);
    }

    fn block_index(&self, bc_block: u32) -> usize {
        self.leaders.binary_search(&bc_block).expect("leader")
    }

    fn add_phi(&mut self, block: BlockId) -> ValueId {
        let v = self.f.add_inst(Inst::new(InstKind::Phi { inputs: vec![], ty: Ty::Boxed }));
        // Insert after any existing phis.
        let insts = &self.f.blocks[block.0 as usize].insts;
        let pos = insts
            .iter()
            .take_while(|&&i| matches!(self.f.inst(i).kind, InstKind::Phi { .. }))
            .count();
        self.f.blocks[block.0 as usize].insts.insert(pos, v);
        v
    }

    fn read_var(&mut self, bc_block: u32, reg: u16) -> ValueId {
        if let Some(&v) = self.defs.get(&(bc_block, reg)) {
            return v;
        }
        let bi = self.block_index(bc_block);
        let block = self.block_of[&bc_block];
        let preds = self.f.blocks[block.0 as usize].preds.clone();
        let v = if !self.sealed[bi] {
            let phi = self.add_phi(block);
            self.incomplete.entry(bc_block).or_default().push((reg, phi));
            phi
        } else if preds.len() == 1 {
            let pred_bc = self.bc_of_block(preds[0]);
            self.read_var(pred_bc, reg)
        } else if preds.is_empty() {
            // Unreachable block: any read is undefined. Keep phis first.
            let pos = self.f.blocks[block.0 as usize]
                .insts
                .iter()
                .take_while(|&&i| matches!(self.f.inst(i).kind, InstKind::Phi { .. }))
                .count();
            self.f.insert_at(block, pos, Inst::new(InstKind::Const(Value::UNDEFINED)))
        } else {
            let phi = self.add_phi(block);
            self.write_var(bc_block, reg, phi);
            self.add_phi_operands(bc_block, reg, phi)
        };
        self.write_var(bc_block, reg, v);
        v
    }

    fn bc_of_block(&self, b: BlockId) -> u32 {
        *self.block_of.iter().find(|(_, &v)| v == b).expect("block has a bc leader").0
    }

    fn add_phi_operands(&mut self, bc_block: u32, reg: u16, phi: ValueId) -> ValueId {
        let block = self.block_of[&bc_block];
        let preds = self.f.blocks[block.0 as usize].preds.clone();
        let mut inputs = Vec::with_capacity(preds.len());
        for p in preds {
            let pbc = self.bc_of_block(p);
            inputs.push(self.read_var(pbc, reg));
        }
        if let InstKind::Phi { inputs: slots, .. } = &mut self.f.inst_mut(phi).kind {
            *slots = inputs;
        }
        self.try_remove_trivial_phi(phi)
    }

    fn try_remove_trivial_phi(&mut self, phi: ValueId) -> ValueId {
        let inputs = match &self.f.inst(phi).kind {
            InstKind::Phi { inputs, .. } => inputs.clone(),
            _ => return phi,
        };
        let mut same: Option<ValueId> = None;
        for &i in &inputs {
            if i == phi || Some(i) == same {
                continue;
            }
            if same.is_some() {
                return phi; // genuinely merges ≥2 values
            }
            same = Some(i);
        }
        let replacement = same.unwrap_or(phi);
        if replacement == phi {
            return phi;
        }
        self.f.inst_mut(phi).kind = InstKind::Nop;
        self.f.replace_all_uses(phi, replacement);
        // Fix def map entries and recorded loop-header OSR snapshots
        // pointing at the removed phi.
        for v in self.defs.values_mut() {
            if *v == phi {
                *v = replacement;
            }
        }
        for osr in self.info.loop_osr.values_mut() {
            for slot in osr.regs.iter_mut().flatten() {
                if *slot == phi {
                    *slot = replacement;
                }
            }
        }
        replacement
    }

    fn seal(&mut self, bc_block: u32) {
        let bi = self.block_index(bc_block);
        if self.sealed[bi] {
            return;
        }
        self.sealed[bi] = true;
        if let Some(pending) = self.incomplete.remove(&bc_block) {
            for (reg, phi) in pending {
                self.add_phi_operands(bc_block, reg, phi);
            }
        }
    }

    // ---- helpers ----------------------------------------------------------------

    fn emit(&mut self, kind: InstKind) -> ValueId {
        self.f.append(self.cur, Inst::new(kind))
    }

    fn emit_with_osr(&mut self, kind: InstKind, bc: u32) -> ValueId {
        let osr = self.osr_state(bc);
        let v = self.f.append(self.cur, Inst::new(kind));
        self.f.inst_mut(v).osr = Some(osr);
        v
    }

    /// Snapshot of the live bytecode registers at `bc`.
    fn osr_state(&mut self, bc: u32) -> OsrState {
        let live = self.live_in[bc as usize].clone();
        let mut regs = vec![None; self.bc.register_count as usize];
        for (r, &is_live) in live.iter().enumerate() {
            if is_live {
                regs[r] = Some(self.read_var(self.cur_bc_block, r as u16));
            }
        }
        OsrState { bc, regs }
    }

    fn site(&self, s: SiteId) -> &SiteProfile {
        &self.sites[s.0 as usize]
    }

    fn const_boxed(&mut self, v: Value) -> ValueId {
        self.emit(InstKind::Const(v))
    }

    /// Unboxes `v` to an int32, guarding as needed.
    fn use_i32(&mut self, v: ValueId, bc: u32) -> ValueId {
        match self.f.inst(v).ty() {
            Ty::I32 => v,
            Ty::F64 => {
                self.emit_with_osr(InstKind::CheckF64ToI32 { v, mode: CheckMode::Deopt }, bc)
            }
            _ => self.emit_with_osr(InstKind::CheckInt32 { v, mode: CheckMode::Deopt }, bc),
        }
    }

    /// Unboxes `v` to an f64, guarding as needed.
    fn use_f64(&mut self, v: ValueId, bc: u32) -> ValueId {
        match self.f.inst(v).ty() {
            Ty::F64 => v,
            Ty::I32 => self.emit(InstKind::I32ToF64(v)),
            _ => self.emit_with_osr(InstKind::CheckNumber { v, mode: CheckMode::Deopt }, bc),
        }
    }

    /// Boxes an IR value for storage in a bytecode register / memory / call.
    fn use_boxed(&mut self, v: ValueId) -> ValueId {
        match self.f.inst(v).ty() {
            Ty::Boxed => v,
            Ty::I32 => self.emit(InstKind::BoxI32(v)),
            Ty::F64 => self.emit(InstKind::BoxF64(v)),
            Ty::Bool => self.emit(InstKind::BoxBool(v)),
            Ty::Raw | Ty::None => v, // cell addresses are valid boxed bits
        }
    }

    fn read_boxed(&mut self, reg: Reg) -> ValueId {
        let v = self.read_var(self.cur_bc_block, reg.0);
        self.use_boxed(v)
    }

    fn write_reg(&mut self, reg: Reg, v: ValueId) {
        let boxed = self.use_boxed(v);
        self.write_var(self.cur_bc_block, reg.0, boxed);
    }

    fn runtime_call(&mut self, func: RuntimeFn, args: &[Reg], dst: Option<Reg>, site: SiteId) {
        let argv: Vec<ValueId> = args.iter().map(|&r| self.read_boxed(r)).collect();
        let v =
            self.emit(InstKind::CallRuntime { func, args: argv, site: Some((self.bc.id, site)) });
        if let Some(d) = dst {
            self.write_reg(d, v);
        }
    }

    // ---- run ------------------------------------------------------------------------

    fn run(mut self) -> Result<(IrFunc, BuildInfo), BuildError> {
        self.compute_leaders();
        self.compute_liveness();
        let preds_map = self.static_preds();

        // Allocate blocks; entry IR block jumps to the bc block 0.
        for &l in &self.leaders.clone() {
            let b = self.f.new_block();
            self.block_of.insert(l, b);
        }
        self.sealed = vec![false; self.leaders.len()];
        self.filled = vec![false; self.leaders.len()];
        self.incomplete.clear();

        // Entry block: parameters, then jump to leader 0.
        for i in 0..self.bc.param_count {
            let p = self.f.append(self.f.entry, Inst::new(InstKind::Param(i)));
            self.write_var(u32::MAX, i, p); // sentinel "entry" bc block
        }
        let first = self.block_of[&0];
        let entry = self.f.entry;
        let jump = self.f.add_inst(Inst::new(InstKind::Jump { target: first }));
        self.f.blocks[entry.0 as usize].insts.push(jump);

        // Fix predecessor lists from the static CFG (+ the entry edge).
        for (&l, preds) in &preds_map {
            let b = self.block_of[&l];
            let mut list: Vec<BlockId> = preds.iter().map(|p| self.block_of[p]).collect();
            if l == 0 {
                list.insert(0, entry);
            }
            self.f.blocks[b.0 as usize].preds = list;
        }

        // Seed parameter defs into bc block 0 via the entry edge: reading a
        // param register in block 0 must see Param(i). We model the entry
        // block as a pseudo-predecessor holding those defs.
        // (read_var uses bc leaders; the entry block is reached through the
        // pred list, so give it a pseudo leader.)
        self.block_of.insert(u32::MAX, entry);
        self.leaders.push(u32::MAX);
        self.sealed.push(true);
        self.filled.push(true);
        // Keep leaders sorted for binary search (u32::MAX sorts last).

        // Count remaining unfilled preds to know when to seal.
        let mut unfilled: HashMap<u32, usize> = HashMap::new();
        for (&l, preds) in &preds_map {
            unfilled.insert(l, preds.len());
        }

        // Seal block 0 if its only pred is the entry.
        if unfilled[&0] == 0 {
            self.seal(0);
        }

        let leaders: Vec<u32> = self.leaders.iter().copied().filter(|&l| l != u32::MAX).collect();
        for &l in &leaders {
            self.translate_block(l)?;
            // Mark edges out of this block as filled; seal targets whose
            // preds are all filled.
            let end = self.block_end(l);
            let last = &self.bc.code[end as usize - 1];
            let mut targets = Vec::new();
            if let Some(t) = last.jump_target() {
                targets.push(t);
            }
            if !matches!(last, Op::Jump { .. } | Op::Return { .. })
                && (end as usize) < self.bc.code.len()
            {
                targets.push(end);
            }
            for t in targets {
                let n = unfilled.get_mut(&t).expect("leader");
                *n -= 1;
                if *n == 0 && self.filled[self.block_index(t)] {
                    self.seal(t);
                }
            }
            // A block whose preds were all already filled before it was
            // translated is sealed inside translate_block.
        }
        // Seal anything left (unreachable or odd shapes).
        for &l in &leaders {
            self.seal(l);
        }

        self.f.insts.shrink_to_fit();
        let info = std::mem::take(&mut self.info);
        let f = self.f;
        debug_assert_eq!(f.verify(), Ok(()));
        Ok((f, info))
    }

    fn translate_block(&mut self, leader: u32) -> Result<(), BuildError> {
        let block = self.block_of[&leader];
        self.cur = block;
        self.cur_bc_block = leader;
        let bi = self.block_index(leader);
        // Seal now if every predecessor is already filled (forward edges
        // only). Loop headers — including self-loops, whose only latch is
        // this very block — stay unsealed until their latch is filled.
        let preds = self.f.blocks[block.0 as usize].preds.clone();
        let all_filled = preds.iter().all(|p| {
            let pbc = self.bc_of_block(*p);
            pbc == u32::MAX || self.filled[self.block_index(pbc)]
        });
        if all_filled {
            self.seal(leader);
        }

        // Loop headers: pre-read live registers so the NoMap transaction
        // pass has a fallback OSR snapshot at the header.
        if self.bc.is_loop_header(leader) {
            let state = self.osr_state(leader);
            self.info.loop_osr.insert(block, state);
        }

        let end = self.block_end(leader);
        for bc in leader..end {
            self.translate_op(bc)?;
        }
        // Fallthrough terminator if needed.
        let last = &self.bc.code[end as usize - 1];
        if !matches!(last, Op::Jump { .. } | Op::Return { .. }) && last.jump_target().is_none() {
            let next = self.block_of[&end];
            self.emit(InstKind::Jump { target: next });
        }
        self.filled[bi] = true;
        Ok(())
    }

    fn translate_op(&mut self, bc: u32) -> Result<(), BuildError> {
        let op = self.bc.code[bc as usize];
        match op {
            Op::LoadConst { dst, cid } => {
                let c = match &self.bc.constants[cid.0 as usize] {
                    Const::Num(n) => Value::new_number(*n),
                    Const::Str(s) => {
                        let id = self.rt.strings.intern(s);
                        self.rt.string_value(id).map_err(|e| BuildError(e.to_string()))?
                    }
                };
                self.rt.take_charged(); // interning is compile-time work
                let v = self.const_boxed(c);
                self.write_reg(dst, v);
            }
            Op::LoadInt { dst, value } => {
                let v = self.const_boxed(Value::new_int32(value));
                self.write_reg(dst, v);
            }
            Op::LoadBool { dst, value } => {
                let v = self.const_boxed(Value::new_bool(value));
                self.write_reg(dst, v);
            }
            Op::LoadUndefined { dst } => {
                let v = self.const_boxed(Value::UNDEFINED);
                self.write_reg(dst, v);
            }
            Op::LoadNull { dst } => {
                let v = self.const_boxed(Value::NULL);
                self.write_reg(dst, v);
            }
            Op::Mov { dst, src } => {
                let v = self.read_var(self.cur_bc_block, src.0);
                self.write_var(self.cur_bc_block, dst.0, v);
            }
            Op::Binary { op: bop, dst, a, b, site } => {
                self.translate_binary(bc, bop, dst, a, b, site)
            }
            Op::Unary { op: uop, dst, a, site } => self.translate_unary(bc, uop, dst, a, site),
            Op::Jump { target } => {
                let t = self.block_of[&target];
                self.emit(InstKind::Jump { target: t });
            }
            Op::JumpIfTrue { cond, target } | Op::JumpIfFalse { cond, target } => {
                let t = self.block_of[&target];
                let next = self.block_of[&(bc + 1)];
                let c = self.truthiness(cond, bc);
                let (then_b, else_b) =
                    if matches!(op, Op::JumpIfTrue { .. }) { (t, next) } else { (next, t) };
                self.emit(InstKind::Branch { cond: c, then_b, else_b });
            }
            Op::NewObject { dst } => {
                self.runtime_call(RuntimeFn::NewObject, &[], Some(dst), SiteId(u16::MAX));
            }
            Op::NewArray { dst, len } => {
                self.runtime_call(RuntimeFn::NewArray, &[len], Some(dst), SiteId(u16::MAX));
            }
            Op::GetProp { dst, obj, name, site } => {
                let p = self.site(site).clone();
                let length = self.rt.length_name == Some(name);
                if length && p.kinds_a.is_only(ValueKind::Array) {
                    let o = self.read_boxed(obj);
                    let addr = self
                        .emit_with_osr(InstKind::CheckArray { v: o, mode: CheckMode::Deopt }, bc);
                    let len = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: ARR_LEN,
                        alias: Alias::ArrayLen,
                        ty: Ty::I32,
                    });
                    self.write_reg(dst, len);
                } else if let (Some(shape), Some(slot), true) =
                    (p.monomorphic_shape(), p.slot, p.kinds_a.is_only(ValueKind::Object))
                {
                    let o = self.read_boxed(obj);
                    let addr = self.emit_with_osr(
                        InstKind::CheckShape { v: o, shape, mode: CheckMode::Deopt },
                        bc,
                    );
                    let storage = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: OBJ_STORAGE,
                        alias: Alias::ObjMeta,
                        ty: Ty::Raw,
                    });
                    let val = self.emit(InstKind::LoadField {
                        base: storage,
                        offset: slot as u64,
                        alias: Alias::PropSlot(slot),
                        ty: Ty::Boxed,
                    });
                    self.write_reg(dst, val);
                } else {
                    self.runtime_call(RuntimeFn::GetProp(name), &[obj], Some(dst), site);
                }
            }
            Op::PutProp { obj, name, val, site } => {
                let p = self.site(site).clone();
                if let (Some(shape), Some(slot), true, false) = (
                    p.monomorphic_shape(),
                    p.slot,
                    p.kinds_a.is_only(ValueKind::Object),
                    p.saw_transition,
                ) {
                    let o = self.read_boxed(obj);
                    let addr = self.emit_with_osr(
                        InstKind::CheckShape { v: o, shape, mode: CheckMode::Deopt },
                        bc,
                    );
                    let storage = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: OBJ_STORAGE,
                        alias: Alias::ObjMeta,
                        ty: Ty::Raw,
                    });
                    let v = self.read_boxed(val);
                    self.emit(InstKind::StoreField {
                        base: storage,
                        offset: slot as u64,
                        v,
                        alias: Alias::PropSlot(slot),
                    });
                } else {
                    self.runtime_call(RuntimeFn::PutProp(name), &[obj, val], None, site);
                }
            }
            Op::GetIndex { dst, arr, idx, site } => {
                let p = self.site(site).clone();
                if p.kinds_a.is_only(ValueKind::Array)
                    && p.kinds_b.is_int32_only()
                    && !p.saw_oob
                    && !p.saw_hole
                    && p.count > 0
                {
                    let a = self.read_boxed(arr);
                    let addr = self
                        .emit_with_osr(InstKind::CheckArray { v: a, mode: CheckMode::Deopt }, bc);
                    let iv = self.read_boxed(idx);
                    let i = self.use_i32(iv, bc);
                    let len = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: ARR_LEN,
                        alias: Alias::ArrayLen,
                        ty: Ty::I32,
                    });
                    let oob = self.emit(InstKind::ICmp { cond: Cond::AboveEq, a: i, b: len });
                    self.emit_with_osr(
                        InstKind::Guard {
                            kind: CheckKind::Bounds,
                            cond: oob,
                            mode: CheckMode::Deopt,
                        },
                        bc,
                    );
                    let storage = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: ARR_STORAGE,
                        alias: Alias::ArrayMeta,
                        ty: Ty::Raw,
                    });
                    let val = self.emit(InstKind::LoadElem { storage, index: i });
                    let hole_bits = self.emit(InstKind::ConstRaw(Value::HOLE.to_bits()));
                    let is_hole =
                        self.emit(InstKind::ICmp { cond: Cond::Eq, a: val, b: hole_bits });
                    self.emit_with_osr(
                        InstKind::Guard {
                            kind: CheckKind::Other,
                            cond: is_hole,
                            mode: CheckMode::Deopt,
                        },
                        bc,
                    );
                    self.write_reg(dst, val);
                } else {
                    self.runtime_call(RuntimeFn::GetIndex, &[arr, idx], Some(dst), site);
                }
            }
            Op::PutIndex { arr, idx, val, site } => {
                let p = self.site(site).clone();
                if p.kinds_a.is_only(ValueKind::Array)
                    && p.kinds_b.is_int32_only()
                    && !p.saw_oob
                    && p.count > 0
                {
                    let a = self.read_boxed(arr);
                    let addr = self
                        .emit_with_osr(InstKind::CheckArray { v: a, mode: CheckMode::Deopt }, bc);
                    let iv = self.read_boxed(idx);
                    let i = self.use_i32(iv, bc);
                    let len = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: ARR_LEN,
                        alias: Alias::ArrayLen,
                        ty: Ty::I32,
                    });
                    let oob = self.emit(InstKind::ICmp { cond: Cond::AboveEq, a: i, b: len });
                    self.emit_with_osr(
                        InstKind::Guard {
                            kind: CheckKind::Bounds,
                            cond: oob,
                            mode: CheckMode::Deopt,
                        },
                        bc,
                    );
                    let storage = self.emit(InstKind::LoadField {
                        base: addr,
                        offset: ARR_STORAGE,
                        alias: Alias::ArrayMeta,
                        ty: Ty::Raw,
                    });
                    let v = self.read_boxed(val);
                    self.emit(InstKind::StoreElem { storage, index: i, v });
                } else {
                    self.runtime_call(RuntimeFn::PutIndex, &[arr, idx, val], None, site);
                }
            }
            Op::GetGlobal { dst, name, .. } => {
                let addr = self.rt.global_slot(name);
                let v = self.emit(InstKind::LoadGlobal { addr, name });
                self.write_reg(dst, v);
            }
            Op::PutGlobal { name, src } => {
                let addr = self.rt.global_slot(name);
                let v = self.read_boxed(src);
                self.emit(InstKind::StoreGlobal { addr, name, v });
            }
            Op::Call { dst, func, argv, argc, .. } => {
                let args: Vec<ValueId> =
                    (0..argc as u16).map(|i| self.read_boxed(Reg(argv.0 + i))).collect();
                let v = self.emit(InstKind::CallJs { callee: func, args });
                self.write_reg(dst, v);
            }
            Op::CallIntrinsic { dst, intr, argv, argc, site } => {
                let p = self.site(site).clone();
                if intr.is_pure_math() && p.count > 0 && p.result.is_numeric() {
                    let args: Vec<ValueId> = (0..argc as u16)
                        .map(|i| {
                            let v = self.read_boxed(Reg(argv.0 + i));
                            self.use_f64(v, bc)
                        })
                        .collect();
                    let r = self.emit(InstKind::MathOp { intr, args });
                    if p.result.is_int32_only() {
                        let as_int = self.emit_with_osr(
                            InstKind::CheckF64ToI32 { v: r, mode: CheckMode::Deopt },
                            bc,
                        );
                        self.write_reg(dst, as_int);
                    } else {
                        self.write_reg(dst, r);
                    }
                } else {
                    let regs: Vec<Reg> = (0..argc as u16).map(|i| Reg(argv.0 + i)).collect();
                    self.runtime_call(RuntimeFn::Intrinsic(intr), &regs, Some(dst), site);
                }
            }
            Op::Return { src } => {
                let v = self.read_boxed(src);
                self.emit(InstKind::Return { v });
            }
        }
        Ok(())
    }

    fn translate_binary(&mut self, bc: u32, op: BinaryOp, dst: Reg, a: Reg, b: Reg, site: SiteId) {
        let p = self.site(site).clone();
        let ints = p.kinds_a.is_int32_only() && p.kinds_b.is_int32_only();
        let nums = p.kinds_a.is_numeric() && p.kinds_b.is_numeric();
        if p.count == 0 {
            return self.generic_binary(op, dst, a, b, site);
        }
        match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => {
                if ints && !p.overflowed {
                    let av = self.read_boxed(a);
                    let bv = self.read_boxed(b);
                    let ia = self.use_i32(av, bc);
                    let ib = self.use_i32(bv, bc);
                    let kind = match op {
                        BinaryOp::Add => {
                            InstKind::CheckedAddI32 { a: ia, b: ib, mode: CheckMode::Deopt }
                        }
                        BinaryOp::Sub => {
                            InstKind::CheckedSubI32 { a: ia, b: ib, mode: CheckMode::Deopt }
                        }
                        _ => InstKind::CheckedMulI32 { a: ia, b: ib, mode: CheckMode::Deopt },
                    };
                    let r = self.emit_with_osr(kind, bc);
                    self.write_reg(dst, r);
                } else if nums {
                    self.float_binary(bc, op, dst, a, b, &p);
                } else {
                    self.generic_binary(op, dst, a, b, site);
                }
            }
            BinaryOp::Div | BinaryOp::Mod => {
                if nums {
                    self.float_binary(bc, op, dst, a, b, &p);
                } else {
                    self.generic_binary(op, dst, a, b, site);
                }
            }
            BinaryOp::BitAnd
            | BinaryOp::BitOr
            | BinaryOp::BitXor
            | BinaryOp::Shl
            | BinaryOp::Shr => {
                if ints {
                    let av = self.read_boxed(a);
                    let bv = self.read_boxed(b);
                    let ia = self.use_i32(av, bc);
                    let ib = self.use_i32(bv, bc);
                    let iop = match op {
                        BinaryOp::BitAnd => crate::node::IBinOp::And,
                        BinaryOp::BitOr => crate::node::IBinOp::Or,
                        BinaryOp::BitXor => crate::node::IBinOp::Xor,
                        BinaryOp::Shl => crate::node::IBinOp::Shl,
                        _ => crate::node::IBinOp::Sar,
                    };
                    let r = self.emit(InstKind::IBin { op: iop, a: ia, b: ib });
                    self.write_reg(dst, r);
                } else {
                    self.generic_binary(op, dst, a, b, site);
                }
            }
            BinaryOp::UShr => {
                if ints && p.result.is_int32_only() {
                    let av = self.read_boxed(a);
                    let bv = self.read_boxed(b);
                    let ia = self.use_i32(av, bc);
                    let ib = self.use_i32(bv, bc);
                    let r = self.emit_with_osr(
                        InstKind::CheckedUShr { a: ia, b: ib, mode: CheckMode::Deopt },
                        bc,
                    );
                    self.write_reg(dst, r);
                } else {
                    self.generic_binary(op, dst, a, b, site);
                }
            }
            BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge
            | BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::StrictEq
            | BinaryOp::StrictNotEq => {
                let cond = match op {
                    BinaryOp::Lt => Cond::Lt,
                    BinaryOp::Le => Cond::Le,
                    BinaryOp::Gt => Cond::Gt,
                    BinaryOp::Ge => Cond::Ge,
                    BinaryOp::Eq | BinaryOp::StrictEq => Cond::Eq,
                    _ => Cond::Ne,
                };
                if ints {
                    let av = self.read_boxed(a);
                    let bv = self.read_boxed(b);
                    let ia = self.use_i32(av, bc);
                    let ib = self.use_i32(bv, bc);
                    let r = self.emit(InstKind::ICmp { cond, a: ia, b: ib });
                    self.write_reg(dst, r);
                } else if nums {
                    let av = self.read_boxed(a);
                    let bv = self.read_boxed(b);
                    let fa = self.use_f64(av, bc);
                    let fb = self.use_f64(bv, bc);
                    let r = self.emit(InstKind::FCmp { cond, a: fa, b: fb });
                    self.write_reg(dst, r);
                } else {
                    self.generic_binary(op, dst, a, b, site);
                }
            }
        }
    }

    fn float_binary(&mut self, bc: u32, op: BinaryOp, dst: Reg, a: Reg, b: Reg, p: &SiteProfile) {
        let fop = match op {
            BinaryOp::Add => crate::node::FBinOp::Add,
            BinaryOp::Sub => crate::node::FBinOp::Sub,
            BinaryOp::Mul => crate::node::FBinOp::Mul,
            BinaryOp::Div => crate::node::FBinOp::Div,
            _ => crate::node::FBinOp::Mod,
        };
        let av = self.read_boxed(a);
        let bv = self.read_boxed(b);
        let fa = self.use_f64(av, bc);
        let fb = self.use_f64(bv, bc);
        let r = self.emit(InstKind::FBin { op: fop, a: fa, b: fb });
        // If the profile says results stay int32 (e.g. exact division),
        // convert back with an exactness check so downstream int32
        // speculation keeps working.
        if p.result.is_int32_only() {
            let as_int =
                self.emit_with_osr(InstKind::CheckF64ToI32 { v: r, mode: CheckMode::Deopt }, bc);
            self.write_reg(dst, as_int);
        } else {
            self.write_reg(dst, r);
        }
    }

    fn generic_binary(&mut self, op: BinaryOp, dst: Reg, a: Reg, b: Reg, site: SiteId) {
        self.runtime_call(RuntimeFn::Binary(op), &[a, b], Some(dst), site);
    }

    fn translate_unary(&mut self, bc: u32, op: UnaryOp, dst: Reg, a: Reg, site: SiteId) {
        let p = self.site(site).clone();
        match op {
            UnaryOp::Neg if p.kinds_a.is_int32_only() && !p.overflowed && p.count > 0 => {
                let av = self.read_boxed(a);
                let ia = self.use_i32(av, bc);
                let r = self
                    .emit_with_osr(InstKind::CheckedNegI32 { a: ia, mode: CheckMode::Deopt }, bc);
                self.write_reg(dst, r);
            }
            UnaryOp::Neg if p.kinds_a.is_numeric() && p.count > 0 => {
                let av = self.read_boxed(a);
                let fa = self.use_f64(av, bc);
                let r = self.emit(InstKind::FNeg(fa));
                self.write_reg(dst, r);
            }
            UnaryOp::ToNumber if p.kinds_a.is_numeric() && p.count > 0 => {
                // ToNumber on a number is the identity.
                let av = self.read_boxed(a);
                let fa = self.use_f64(av, bc);
                let _ = fa; // the check is the operation
                self.write_reg(dst, av);
            }
            UnaryOp::Not => {
                let c = self.truthiness(a, bc);
                let r = self.emit(InstKind::BNot(c));
                self.write_reg(dst, r);
            }
            UnaryOp::BitNot if p.kinds_a.is_int32_only() && p.count > 0 => {
                let av = self.read_boxed(a);
                let ia = self.use_i32(av, bc);
                let m1 = self.emit(InstKind::ConstI32(-1));
                let r = self.emit(InstKind::IBin { op: crate::node::IBinOp::Xor, a: ia, b: m1 });
                self.write_reg(dst, r);
            }
            _ => {
                self.runtime_call(RuntimeFn::Unary(op), &[a], Some(dst), site);
            }
        }
    }

    /// Produces a Bool for the truthiness of bytecode register `reg`,
    /// speculating on the branch-site profile of the *value's* kinds.
    fn truthiness(&mut self, reg: Reg, bc: u32) -> ValueId {
        let v = self.read_boxed(reg);
        match self.f.inst(v).ty() {
            Ty::Bool => return v,
            Ty::I32 => {
                let zero = self.emit(InstKind::ConstI32(0));
                return self.emit(InstKind::ICmp { cond: Cond::Ne, a: v, b: zero });
            }
            _ => {}
        }
        // Speculate from the defining instruction when possible: comparisons
        // produce booleans; otherwise fall back to a runtime ToBoolean.
        if let InstKind::BoxBool(inner) = self.f.inst(v).kind {
            return inner;
        }
        if let InstKind::BoxI32(inner) = self.f.inst(v).kind {
            let zero = self.emit(InstKind::ConstI32(0));
            return self.emit(InstKind::ICmp { cond: Cond::Ne, a: inner, b: zero });
        }
        if let InstKind::Const(c) = self.f.inst(v).kind {
            if c.is_int32() {
                let r = c.as_int32() != 0;
                let t = self.emit(InstKind::ConstI32(r as i32));
                let one = self.emit(InstKind::ConstI32(1));
                return self.emit(InstKind::ICmp { cond: Cond::Eq, a: t, b: one });
            }
        }
        // Profile-driven: int32-only values compare against zero after a
        // type check; everything else calls the runtime.
        let site_kinds = self.value_kinds_of(reg);
        if site_kinds.map(|k| k.is_int32_only()).unwrap_or(false) {
            let i = self.use_i32(v, bc);
            let zero = self.emit(InstKind::ConstI32(0));
            return self.emit(InstKind::ICmp { cond: Cond::Ne, a: i, b: zero });
        }
        if site_kinds.map(|k| k.is_only(ValueKind::Bool)).unwrap_or(false) {
            return self.emit_with_osr(InstKind::CheckBool { v, mode: CheckMode::Deopt }, bc);
        }
        let r = self.emit(InstKind::CallRuntime {
            func: RuntimeFn::ToBoolean,
            args: vec![v],
            site: None,
        });
        let t = self.emit(InstKind::ConstRaw(Value::TRUE.to_bits()));
        self.emit(InstKind::ICmp { cond: Cond::Eq, a: r, b: t })
    }

    /// Result-kind profile of the site that defined `reg`'s current value,
    /// when the definition is a profiled runtime call.
    fn value_kinds_of(&mut self, reg: Reg) -> Option<nomap_runtime::KindSet> {
        let v = self.read_var(self.cur_bc_block, reg.0);
        match &self.f.inst(v).kind {
            InstKind::CallRuntime { site: Some((_, s)), .. } => Some(self.site(*s).result),
            _ => None,
        }
    }
}
