//! Instruction definitions.
//!
//! Instructions operate at warp granularity: vector instructions apply to
//! all lanes enabled in the `EXEC` mask, scalar instructions execute once
//! per warp. Divergence is expressed with explicit mask manipulation, as
//! in AMD GCN machine code (`v_cmp` → `VCC`, `s_and_saveexec`, …); the
//! [`crate::KernelBuilder`] emits these idioms from structured control
//! flow so workload code stays readable.

use crate::reg::{Sreg, Vreg};
use serde::{Deserialize, Serialize};

/// Scalar ALU operation, one 64-bit result per warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SAluOp {
    /// `dst = a + b` (wrapping).
    Add,
    /// `dst = a - b` (wrapping).
    Sub,
    /// `dst = a * b` (wrapping).
    Mul,
    /// `dst = a / b`; division by zero yields zero.
    Div,
    /// `dst = a % b`; modulo by zero yields zero.
    Rem,
    /// `dst = a << (b & 63)`.
    Shl,
    /// `dst = a >> (b & 63)` (logical).
    Shr,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = a & !b` (used for the "else" half of a divergent branch).
    AndNot,
    /// `dst = min(a, b)` (unsigned).
    Min,
    /// `dst = max(a, b)` (unsigned).
    Max,
    /// `dst = a` (b ignored).
    Mov,
}

/// Vector ALU operation, one 32-bit result per active lane.
///
/// Floating-point variants reinterpret the 32-bit lanes as IEEE-754
/// `f32` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VAluOp {
    /// Integer add (wrapping).
    Add,
    /// Integer subtract (wrapping).
    Sub,
    /// Integer multiply (wrapping, low 32 bits).
    Mul,
    /// Unsigned integer divide; division by zero yields zero.
    Div,
    /// Unsigned remainder; modulo by zero yields zero.
    Rem,
    /// Logical shift left by `b & 31`.
    Shl,
    /// Logical shift right by `b & 31`.
    Shr,
    /// Arithmetic shift right by `b & 31`.
    Ashr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// `dst = a` (b ignored).
    Mov,
    /// `f32` addition.
    FAdd,
    /// `f32` subtraction.
    FSub,
    /// `f32` multiplication.
    FMul,
    /// `f32` division.
    FDiv,
    /// `f32` maximum.
    FMax,
    /// `f32` minimum.
    FMin,
    /// Convert signed integer in `a` to `f32` (b ignored).
    CvtI2F,
    /// Convert `f32` in `a` to signed integer, truncating (b ignored).
    CvtF2I,
}

/// Comparison operator for `v_cmp` / `s_cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A scalar operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScalarSrc {
    /// Read a scalar register.
    Reg(Sreg),
    /// A 64-bit immediate (stored signed, used as raw bits).
    Imm(i64),
}

impl From<Sreg> for ScalarSrc {
    fn from(r: Sreg) -> Self {
        ScalarSrc::Reg(r)
    }
}

impl From<i64> for ScalarSrc {
    fn from(v: i64) -> Self {
        ScalarSrc::Imm(v)
    }
}

/// A vector operand: a vector register, a scalar broadcast, an
/// immediate broadcast, or the lane index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VectorSrc {
    /// Read a vector register lane-wise.
    Reg(Vreg),
    /// Broadcast the low 32 bits of a scalar register to all lanes.
    Sreg(Sreg),
    /// Broadcast a 32-bit immediate to all lanes.
    Imm(u32),
    /// Broadcast an `f32` immediate (bit pattern) to all lanes.
    ImmF32(f32),
    /// Each lane reads its own lane index (0..=63).
    LaneId,
}

impl From<Vreg> for VectorSrc {
    fn from(r: Vreg) -> Self {
        VectorSrc::Reg(r)
    }
}

/// Condition for a scalar conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchCond {
    /// Branch if the scalar condition code is zero (last `s_cmp` false).
    SccZero,
    /// Branch if the scalar condition code is non-zero.
    SccNonZero,
    /// Branch if the `EXEC` mask is all zeros.
    ExecZero,
    /// Branch if the `EXEC` mask has any lane set.
    ExecNonZero,
    /// Branch if `VCC` is all zeros.
    VccZero,
    /// Branch if `VCC` has any lane set.
    VccNonZero,
}

/// A warp-wide mask register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MaskReg {
    /// The lane-enable mask.
    Exec,
    /// The vector condition code produced by [`Inst::VCmp`].
    Vcc,
}

/// Memory access width for global loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemWidth {
    /// One byte, zero-extended on load.
    B8,
    /// A 32-bit word.
    B32,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B8 => 1,
            MemWidth::B32 => 4,
        }
    }
}

/// Special per-warp values readable by `s_get_special`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialReg {
    /// The flat workgroup id of this warp's workgroup.
    WgId,
    /// This warp's index within its workgroup.
    WarpInWg,
    /// Number of warps per workgroup in this launch.
    WarpsPerWg,
    /// Number of workgroups in this launch.
    NumWgs,
    /// The flat global warp id (`wg_id * warps_per_wg + warp_in_wg`).
    GlobalWarpId,
}

/// One machine instruction.
///
/// The variants mirror the GCN instruction groups that matter for timing
/// and for Photon's basic-block analysis; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// Scalar ALU operation: `dst = op(a, b)`.
    SAlu {
        /// Operation.
        op: SAluOp,
        /// Destination scalar register.
        dst: Sreg,
        /// First operand.
        a: ScalarSrc,
        /// Second operand.
        b: ScalarSrc,
    },
    /// Scalar compare: sets the warp's SCC flag to `op(a, b)`.
    SCmp {
        /// Comparison (signed 64-bit).
        op: CmpOp,
        /// Left operand.
        a: ScalarSrc,
        /// Right operand.
        b: ScalarSrc,
    },
    /// Load a kernel argument (by index) into a scalar register.
    ///
    /// Timed like a scalar-cache load.
    SLoadArg {
        /// Destination register.
        dst: Sreg,
        /// Argument index into [`crate::KernelLaunch::args`].
        index: u16,
    },
    /// Read a special hardware value into a scalar register.
    SGetSpecial {
        /// Destination register.
        dst: Sreg,
        /// Which value.
        which: SpecialReg,
    },
    /// Copy a mask register into a scalar register.
    SReadMask {
        /// Destination register.
        dst: Sreg,
        /// Source mask.
        src: MaskReg,
    },
    /// Copy a scalar value into a mask register.
    SWriteMask {
        /// Destination mask.
        dst: MaskReg,
        /// Source value.
        src: ScalarSrc,
    },
    /// `dst = EXEC; EXEC &= VCC` — the GCN `s_and_saveexec` idiom that
    /// opens a divergent region.
    SAndSaveExec {
        /// Register receiving the saved mask.
        dst: Sreg,
    },
    /// Vector ALU operation applied to active lanes.
    VAlu {
        /// Operation.
        op: VAluOp,
        /// Destination vector register.
        dst: Vreg,
        /// First operand.
        a: VectorSrc,
        /// Second operand.
        b: VectorSrc,
    },
    /// Fused multiply-add on active lanes: `dst = a * b + c` (`f32`).
    VFma {
        /// Destination vector register.
        dst: Vreg,
        /// Multiplicand.
        a: VectorSrc,
        /// Multiplier.
        b: VectorSrc,
        /// Addend.
        c: VectorSrc,
    },
    /// Vector compare: sets the VCC bit of each *active* lane to
    /// `op(a, b)`; inactive lanes are cleared.
    VCmp {
        /// Comparison.
        op: CmpOp,
        /// Left operand.
        a: VectorSrc,
        /// Right operand.
        b: VectorSrc,
        /// Compare as `f32` instead of signed integers.
        float: bool,
    },
    /// Per-lane global memory load: `dst[l] = mem[sreg(base) + off[l] + imm]`.
    GlobalLoad {
        /// Destination vector register.
        dst: Vreg,
        /// Scalar register holding the 64-bit base address.
        base: Sreg,
        /// Vector register of per-lane byte offsets.
        offset: Vreg,
        /// Constant byte offset.
        imm: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Per-lane global memory store.
    GlobalStore {
        /// Vector register holding lane data.
        src: Vreg,
        /// Scalar register holding the 64-bit base address.
        base: Sreg,
        /// Vector register of per-lane byte offsets.
        offset: Vreg,
        /// Constant byte offset.
        imm: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Per-lane LDS (workgroup-local) load of a 32-bit word.
    LdsLoad {
        /// Destination vector register.
        dst: Vreg,
        /// Vector register of per-lane byte addresses within LDS.
        addr: Vreg,
        /// Constant byte offset.
        imm: i32,
    },
    /// Per-lane LDS store of a 32-bit word.
    LdsStore {
        /// Vector register holding lane data.
        src: Vreg,
        /// Vector register of per-lane byte addresses within LDS.
        addr: Vreg,
        /// Constant byte offset.
        imm: i32,
    },
    /// Unconditional branch to a resolved PC.
    Branch {
        /// Target program counter.
        target: u32,
    },
    /// Conditional branch on a warp-wide condition.
    CBranch {
        /// Condition.
        cond: BranchCond,
        /// Target program counter.
        target: u32,
    },
    /// Workgroup barrier; also terminates a basic block (paper §3, Obs 3).
    SBarrier,
    /// Memory-wait fence. Timing no-op in this model (the in-order warp
    /// model already serializes); kept so kernels read like GCN and so
    /// future work can end basic blocks here (paper §3, Obs 3).
    SWaitcnt,
    /// End of program for this warp.
    SEndpgm,
}

/// Coarse classification of instructions used by the online latency table
/// (paper Fig. 9: "collect the latency for each type of instruction").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstClass {
    /// Scalar ALU / mask / special-register operations.
    Scalar,
    /// Vector integer ALU.
    VectorInt,
    /// Vector floating-point ALU (including FMA).
    VectorFloat,
    /// Global memory load.
    MemLoad,
    /// Global memory store.
    MemStore,
    /// Scalar memory (argument) load.
    ScalarMem,
    /// LDS access.
    Lds,
    /// Branches.
    Branch,
    /// Barrier.
    Barrier,
    /// Everything else (`s_waitcnt`, `s_endpgm`).
    Other,
}

impl InstClass {
    /// All classes, in a fixed order (useful for fixed-size tables).
    pub const ALL: [InstClass; 10] = [
        InstClass::Scalar,
        InstClass::VectorInt,
        InstClass::VectorFloat,
        InstClass::MemLoad,
        InstClass::MemStore,
        InstClass::ScalarMem,
        InstClass::Lds,
        InstClass::Branch,
        InstClass::Barrier,
        InstClass::Other,
    ];

    /// Index of this class within [`InstClass::ALL`] (the declaration
    /// order, so the discriminant itself).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl Inst {
    /// The coarse class used for latency tables and PKA feature counts.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::SAlu { .. }
            | Inst::SCmp { .. }
            | Inst::SGetSpecial { .. }
            | Inst::SReadMask { .. }
            | Inst::SWriteMask { .. }
            | Inst::SAndSaveExec { .. } => InstClass::Scalar,
            Inst::VAlu { op, .. } => {
                if op.is_float() {
                    InstClass::VectorFloat
                } else {
                    InstClass::VectorInt
                }
            }
            Inst::VFma { .. } => InstClass::VectorFloat,
            Inst::VCmp { .. } => InstClass::VectorInt,
            Inst::GlobalLoad { .. } => InstClass::MemLoad,
            Inst::GlobalStore { .. } => InstClass::MemStore,
            Inst::SLoadArg { .. } => InstClass::ScalarMem,
            Inst::LdsLoad { .. } | Inst::LdsStore { .. } => InstClass::Lds,
            Inst::Branch { .. } | Inst::CBranch { .. } => InstClass::Branch,
            Inst::SBarrier => InstClass::Barrier,
            Inst::SWaitcnt | Inst::SEndpgm => InstClass::Other,
        }
    }

    /// Whether the instruction can redirect control flow.
    pub fn is_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. } | Inst::CBranch { .. })
    }

    /// Whether the instruction terminates a Photon basic block: branches,
    /// `s_barrier`, and `s_endpgm` (paper §3, Obs 3).
    pub fn ends_basic_block(&self) -> bool {
        self.is_branch() || matches!(self, Inst::SBarrier | Inst::SEndpgm)
    }

    /// Branch target if this is a branch.
    pub fn branch_target(&self) -> Option<u32> {
        match self {
            Inst::Branch { target } | Inst::CBranch { target, .. } => Some(*target),
            _ => None,
        }
    }
}

impl VAluOp {
    /// Whether the op interprets lanes as `f32`.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            VAluOp::FAdd
                | VAluOp::FSub
                | VAluOp::FMul
                | VAluOp::FDiv
                | VAluOp::FMax
                | VAluOp::FMin
                | VAluOp::CvtI2F
                | VAluOp::CvtF2I
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_all_variants() {
        let insts = [
            Inst::SAlu {
                op: SAluOp::Add,
                dst: Sreg::new(0),
                a: ScalarSrc::Imm(1),
                b: ScalarSrc::Imm(2),
            },
            Inst::VAlu {
                op: VAluOp::FAdd,
                dst: Vreg::new(0),
                a: VectorSrc::Imm(0),
                b: VectorSrc::Imm(0),
            },
            Inst::VAlu {
                op: VAluOp::Add,
                dst: Vreg::new(0),
                a: VectorSrc::Imm(0),
                b: VectorSrc::Imm(0),
            },
            Inst::SBarrier,
            Inst::SEndpgm,
        ];
        assert_eq!(insts[0].class(), InstClass::Scalar);
        assert_eq!(insts[1].class(), InstClass::VectorFloat);
        assert_eq!(insts[2].class(), InstClass::VectorInt);
        assert_eq!(insts[3].class(), InstClass::Barrier);
        assert_eq!(insts[4].class(), InstClass::Other);
    }

    #[test]
    fn barrier_and_branches_end_basic_blocks() {
        assert!(Inst::SBarrier.ends_basic_block());
        assert!(Inst::Branch { target: 0 }.ends_basic_block());
        assert!(Inst::CBranch {
            cond: BranchCond::SccZero,
            target: 0
        }
        .ends_basic_block());
        assert!(Inst::SEndpgm.ends_basic_block());
        assert!(!Inst::SWaitcnt.ends_basic_block());
    }

    #[test]
    fn class_indices_match_all_table() {
        for (i, c) in InstClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B8.bytes(), 1);
        assert_eq!(MemWidth::B32.bytes(), 4);
    }
}
