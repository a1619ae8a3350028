//! The abstract machine ISA that all JIT tiers target.
//!
//! Registers are virtual (unbounded per function); see DESIGN.md for why a
//! register allocator is deliberately omitted. Values in registers are raw
//! 64-bit words — usually NaN-boxed [`nomap_runtime::Value`] bits, sometimes
//! raw addresses or unboxed doubles, depending on what the tier emitted.

use std::fmt;

use nomap_bytecode::{FuncId, SiteId};
use nomap_runtime::RuntimeFn;

/// A virtual machine register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MReg(pub u32);

impl fmt::Display for MReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An instruction index within one compiled function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// Index of a Stack Map Point in the owning function's stack-map table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmpId(pub u32);

/// Paper Figure 3's check taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckKind {
    /// Array-bounds check.
    Bounds,
    /// Integer overflow check.
    Overflow,
    /// Value-kind (representation) check.
    Type,
    /// Object shape / property check.
    Property,
    /// Hole checks, unexpected path guards, etc.
    Other,
}

impl CheckKind {
    /// All kinds, in the paper's legend order.
    pub const ALL: [CheckKind; 5] = [
        CheckKind::Bounds,
        CheckKind::Overflow,
        CheckKind::Type,
        CheckKind::Property,
        CheckKind::Other,
    ];

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            CheckKind::Bounds => 0,
            CheckKind::Overflow => 1,
            CheckKind::Type => 2,
            CheckKind::Property => 3,
            CheckKind::Other => 4,
        }
    }
}

/// Comparison condition for compare instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below (`<` on the raw 64-bit word) — used by tag tests.
    Below,
    /// Unsigned at-or-above.
    AboveEq,
}

impl Cond {
    /// Evaluates the condition on signed 64-bit operands (or unsigned for
    /// the `Below`/`AboveEq` forms).
    pub fn eval_i64(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Le => (a as i64) <= (b as i64),
            Cond::Gt => (a as i64) > (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Below => a < b,
            Cond::AboveEq => a >= b,
        }
    }

    /// Evaluates the condition on doubles (NaN compares false except `Ne`).
    pub fn eval_f64(self, a: f64, b: f64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt | Cond::Below => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge | Cond::AboveEq => a >= b,
        }
    }
}

/// One abstract machine instruction.
///
/// Integer `*I32` arithmetic operates on sign-extended int32 payloads and
/// sets the overflow (OF) and sticky-overflow (SOF) flags; `F*` operate on
/// raw `f64` bits; 64-bit ALU ops are used for tag manipulation and address
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum MachInst {
    /// `dst = imm`.
    MovImm { dst: MReg, imm: u64 },
    /// `dst = src`.
    Mov { dst: MReg, src: MReg },
    /// 64-bit ALU: `dst = a op b`.
    Alu64 { op: Alu64Op, dst: MReg, a: MReg, b: MReg },
    /// 64-bit ALU with immediate: `dst = a op imm`.
    Alu64Imm { op: Alu64Op, dst: MReg, a: MReg, imm: u64 },
    /// Int32 add; sets OF/SOF on overflow (result wraps).
    AddI32 { dst: MReg, a: MReg, b: MReg },
    /// Int32 subtract; sets OF/SOF on overflow.
    SubI32 { dst: MReg, a: MReg, b: MReg },
    /// Int32 multiply; sets OF/SOF on overflow **or negative-zero result**
    /// (which the int32 representation cannot hold).
    MulI32 { dst: MReg, a: MReg, b: MReg },
    /// Int32 negate; sets OF/SOF for `0` and `i32::MIN`.
    NegI32 { dst: MReg, a: MReg },
    /// Double arithmetic on raw f64 bits.
    FAlu { op: FAluOp, dst: MReg, a: MReg, b: MReg },
    /// Double negate.
    FNeg { dst: MReg, a: MReg },
    /// `dst = (f64)(int32)src` — int32 payload to raw double bits.
    CvtI32ToF64 { dst: MReg, src: MReg },
    /// `dst = (int32)trunc(f64)src` (saturating, like cvttsd2si).
    CvtF64ToI32 { dst: MReg, src: MReg },
    /// Unbox an int32 payload from a NaN-boxed value (sign-extend low 32).
    UnboxI32 { dst: MReg, src: MReg },
    /// Convert a NaN-boxed *number* (int32 or double) to raw f64 bits.
    ToF64 { dst: MReg, src: MReg },
    /// NaN-box an int32 payload.
    BoxI32 { dst: MReg, src: MReg },
    /// NaN-box raw f64 bits (canonicalizing NaN).
    BoxF64 { dst: MReg, src: MReg },
    /// NaN-box a 0/1 boolean.
    BoxBool { dst: MReg, src: MReg },
    /// 32-bit ALU op (no overflow possible); result sign-extended.
    IAlu32 { op: IAlu32Op, dst: MReg, a: MReg, b: MReg },
    /// 32-bit unsigned shift right; result sign-extended (negative results
    /// are the caller's `Other`-check responsibility).
    UShr32 { dst: MReg, a: MReg, b: MReg },
    /// Inlined double-precision math intrinsic on unboxed operands.
    MathF64 { intr: nomap_bytecode::Intrinsic, dst: MReg, args: Vec<MReg> },
    /// `dst = (a cond b) ? 1 : 0` on 64-bit words.
    CmpI64 { dst: MReg, a: MReg, b: MReg, cond: Cond },
    /// `dst = (a cond imm) ? 1 : 0` (x86 `cmp reg, imm` + `setcc`).
    CmpImm { dst: MReg, a: MReg, imm: u64, cond: Cond },
    /// `dst = (a cond b) ? 1 : 0` on raw f64 bits.
    CmpF64 { dst: MReg, a: MReg, b: MReg, cond: Cond },
    /// Unconditional jump.
    Jump { target: Label },
    /// Jump when `cond != 0`.
    BranchNz { cond: MReg, target: Label },
    /// Jump when `cond == 0`.
    BranchZ { cond: MReg, target: Label },
    /// `dst = mem[base + offset]` (word-addressed).
    Load { dst: MReg, base: MReg, offset: i64 },
    /// `mem[base + offset] = src`.
    Store { src: MReg, base: MReg, offset: i64 },
    /// `dst = mem[base + index]` (indexed addressing).
    LoadIdx { dst: MReg, base: MReg, index: MReg },
    /// `mem[base + index] = src`.
    StoreIdx { src: MReg, base: MReg, index: MReg },
    /// `dst = mem[addr]` at a link-time-constant address (globals).
    LoadGlobal { dst: MReg, addr: u64 },
    /// `mem[addr] = src` at a constant address.
    StoreGlobal { src: MReg, addr: u64 },
    /// Call a runtime helper. Counts `call_overhead` plus the helper's
    /// charged instructions as `NoFTL` work.
    CallRt { dst: MReg, func: RuntimeFn, args: Vec<MReg>, site: Option<(FuncId, SiteId)> },
    /// Call another MiniJS function (through the VM's code cache).
    CallJs { dst: MReg, callee: FuncId, args: Vec<MReg> },
    /// Return `src`.
    Ret { src: MReg },
    /// Guarded check: when `cond != 0`, deoptimize through stack map `smp`.
    /// Costs 1 dynamic instruction (the `jcc`); the comparison producing
    /// `cond` is a separate instruction, mirroring x86 `cmp` + `jcc`.
    DeoptIf { cond: MReg, smp: SmpId, kind: CheckKind },
    /// Deoptimize when the OF flag is set (x86 `jo`).
    DeoptIfOverflow { smp: SmpId },
    /// Transactional form of `DeoptIf`: abort the transaction.
    AbortIf { cond: MReg, kind: CheckKind },
    /// Transactional form of `DeoptIfOverflow`.
    AbortIfOverflow,
    /// Begin a transaction; on abort, control re-enters through `fallback`.
    XBegin { fallback: SmpId },
    /// Commit the innermost transaction (checks SOF; flash-clears SW bits).
    XEnd,
    /// Memory fence (models XBegin's ordering cost on the emulated
    /// platform, paper §VI-A1).
    Fence,
    /// No operation (kept so labels stay stable after pass edits).
    Nop,
}

/// 32-bit ALU operations (bitwise/shift group; cannot overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IAlu32Op {
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (count masked to 5 bits).
    Shl,
    /// Arithmetic shift right.
    Sar,
}

impl IAlu32Op {
    /// Applies the op on int32 payloads (shift counts masked to 5 bits).
    pub fn apply(self, a: i32, b: i32) -> i32 {
        match self {
            IAlu32Op::And => a & b,
            IAlu32Op::Or => a | b,
            IAlu32Op::Xor => a ^ b,
            IAlu32Op::Shl => a.wrapping_shl(b as u32 & 31),
            IAlu32Op::Sar => a.wrapping_shr(b as u32 & 31),
        }
    }
}

/// 64-bit ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alu64Op {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl Alu64Op {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Alu64Op::Add => a.wrapping_add(b),
            Alu64Op::Sub => a.wrapping_sub(b),
            Alu64Op::And => a & b,
            Alu64Op::Or => a | b,
            Alu64Op::Xor => a ^ b,
            Alu64Op::Shl => a.wrapping_shl(b as u32 & 63),
            Alu64Op::Shr => a.wrapping_shr(b as u32 & 63),
            Alu64Op::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        }
    }
}

/// Double-precision ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// IEEE remainder with the dividend's sign (JavaScript `%`).
    Mod,
}

impl FAluOp {
    /// Applies the operation on raw f64 bit patterns.
    pub fn apply_bits(self, a: u64, b: u64) -> u64 {
        let x = f64::from_bits(a);
        let y = f64::from_bits(b);
        let r = match self {
            FAluOp::Add => x + y,
            FAluOp::Sub => x - y,
            FAluOp::Mul => x * y,
            FAluOp::Div => x / y,
            FAluOp::Mod => x % y,
        };
        r.to_bits()
    }
}

impl MachInst {
    /// The branch target, if any.
    pub fn target(&self) -> Option<Label> {
        match self {
            MachInst::Jump { target }
            | MachInst::BranchNz { target, .. }
            | MachInst::BranchZ { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// True for the guard forms that count toward Figure 3.
    pub fn is_check(&self) -> bool {
        matches!(
            self,
            MachInst::DeoptIf { .. }
                | MachInst::DeoptIfOverflow { .. }
                | MachInst::AbortIf { .. }
                | MachInst::AbortIfOverflow
        )
    }

    /// True when the instruction only reads and writes registers, flags and
    /// the pc: it touches no simulated memory, calls nothing, checks
    /// nothing, neither begins nor ends a transaction and does not return.
    /// Nothing such an instruction does can change the transaction state,
    /// call depth or profiler context that instruction accounting reads, or
    /// read a cycle count, so the executor accounts a run of them in one
    /// batch, flushed before the next instruction outside this set.
    pub fn is_register_only(&self) -> bool {
        match self {
            MachInst::MovImm { .. }
            | MachInst::Mov { .. }
            | MachInst::Alu64 { .. }
            | MachInst::Alu64Imm { .. }
            | MachInst::AddI32 { .. }
            | MachInst::SubI32 { .. }
            | MachInst::MulI32 { .. }
            | MachInst::NegI32 { .. }
            | MachInst::FAlu { .. }
            | MachInst::FNeg { .. }
            | MachInst::CvtI32ToF64 { .. }
            | MachInst::CvtF64ToI32 { .. }
            | MachInst::UnboxI32 { .. }
            | MachInst::ToF64 { .. }
            | MachInst::BoxI32 { .. }
            | MachInst::BoxF64 { .. }
            | MachInst::BoxBool { .. }
            | MachInst::IAlu32 { .. }
            | MachInst::UShr32 { .. }
            | MachInst::CmpI64 { .. }
            | MachInst::CmpImm { .. }
            | MachInst::CmpF64 { .. }
            | MachInst::Jump { .. }
            | MachInst::BranchNz { .. }
            | MachInst::BranchZ { .. }
            | MachInst::Fence
            | MachInst::Nop => true,
            // Transcendentals charge a libm call as runtime work.
            MachInst::MathF64 { .. }
            | MachInst::Load { .. }
            | MachInst::Store { .. }
            | MachInst::LoadIdx { .. }
            | MachInst::StoreIdx { .. }
            | MachInst::LoadGlobal { .. }
            | MachInst::StoreGlobal { .. }
            | MachInst::CallRt { .. }
            | MachInst::CallJs { .. }
            | MachInst::Ret { .. }
            | MachInst::DeoptIf { .. }
            | MachInst::DeoptIfOverflow { .. }
            | MachInst::AbortIf { .. }
            | MachInst::AbortIfOverflow
            | MachInst::XBegin { .. }
            | MachInst::XEnd => false,
        }
    }

    /// The check's category, if this is a guard.
    pub fn check_kind(&self) -> Option<CheckKind> {
        match self {
            MachInst::DeoptIf { kind, .. } | MachInst::AbortIf { kind, .. } => Some(*kind),
            MachInst::DeoptIfOverflow { .. } | MachInst::AbortIfOverflow => {
                Some(CheckKind::Overflow)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        let neg1 = (-1i64) as u64;
        assert!(Cond::Lt.eval_i64(neg1, 0));
        assert!(!Cond::Below.eval_i64(neg1, 0)); // unsigned: 0xFFFF.. > 0
        assert!(Cond::AboveEq.eval_i64(neg1, 0));
    }

    #[test]
    fn cond_eval_f64_nan() {
        assert!(!Cond::Lt.eval_f64(f64::NAN, 1.0));
        assert!(!Cond::Eq.eval_f64(f64::NAN, f64::NAN));
        assert!(Cond::Ne.eval_f64(f64::NAN, f64::NAN));
    }

    #[test]
    fn alu64_shift_masks() {
        assert_eq!(Alu64Op::Shl.apply(1, 65), 2);
        assert_eq!(Alu64Op::Sar.apply((-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn falu_roundtrip() {
        let a = 2.5f64.to_bits();
        let b = 0.5f64.to_bits();
        assert_eq!(f64::from_bits(FAluOp::Add.apply_bits(a, b)), 3.0);
        assert_eq!(f64::from_bits(FAluOp::Mod.apply_bits(a, b)), 0.0);
    }

    #[test]
    fn check_classification() {
        let g = MachInst::DeoptIf { cond: MReg(0), smp: SmpId(0), kind: CheckKind::Bounds };
        assert!(g.is_check());
        assert_eq!(g.check_kind(), Some(CheckKind::Bounds));
        assert_eq!(MachInst::AbortIfOverflow.check_kind(), Some(CheckKind::Overflow));
        assert!(!MachInst::Nop.is_check());
    }

    #[test]
    fn register_only_excludes_memory_control_and_transactions() {
        assert!(MachInst::Mov { dst: MReg(0), src: MReg(1) }.is_register_only());
        assert!(MachInst::BranchZ { cond: MReg(0), target: Label(0) }.is_register_only());
        assert!(!MachInst::Load { dst: MReg(0), base: MReg(1), offset: 0 }.is_register_only());
        assert!(
            !MachInst::CallJs { dst: MReg(0), callee: FuncId(0), args: vec![] }.is_register_only()
        );
        assert!(!MachInst::Ret { src: MReg(0) }.is_register_only());
        assert!(!MachInst::AbortIfOverflow.is_register_only());
        assert!(!MachInst::XEnd.is_register_only());
    }

    #[test]
    fn check_kind_index_is_dense() {
        for (i, k) in CheckKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
