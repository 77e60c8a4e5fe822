//! Pre-decoded programs: the form the interpreter executes.
//!
//! [`Inst`] is the encoding — what builders emit, serde stores and the
//! disassembler prints. Executing it directly means re-deriving, for
//! every dynamic instruction, facts that are fixed per pc: the operand
//! shapes, the latency class, whether the op is a slow one, whether a
//! basic block starts here. [`decode`] derives them once per
//! [`crate::Program`] into one [`MicroOp`] per pc, so the per-instruction
//! path is a single array read.

use crate::bb::{BasicBlockId, BasicBlockMap};
use crate::inst::{
    BranchCond, CmpOp, Inst, InstClass, MaskReg, MemWidth, SAluOp, ScalarSrc, SpecialReg, VAluOp,
    VectorSrc,
};
use crate::reg::{Sreg, Vreg};
use std::sync::Arc;

/// A scalar operand with immediates already widened to raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarOperand {
    /// Read a scalar register.
    Reg(Sreg),
    /// A constant.
    Const(u64),
}

/// A vector operand resolved to its lane shape: per-lane data, one
/// value broadcast to every lane, or the lane index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSrc {
    /// Lane `l` reads lane `l` of a vector register.
    Vreg(Vreg),
    /// Every lane reads the low 32 bits of a scalar register.
    Sreg(Sreg),
    /// Every lane reads this bit pattern (integer and `f32` immediates
    /// alike).
    Const(u32),
    /// Lane `l` reads `l`.
    LaneId,
}

/// One decoded operation; mirrors [`Inst`] variant for variant (fields
/// mean what they mean there) with the operands resolved and memory
/// immediates sign-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    SAlu {
        op: SAluOp,
        dst: Sreg,
        a: ScalarOperand,
        b: ScalarOperand,
    },
    SCmp {
        op: CmpOp,
        a: ScalarOperand,
        b: ScalarOperand,
    },
    SLoadArg {
        dst: Sreg,
        index: u16,
    },
    SGetSpecial {
        dst: Sreg,
        which: SpecialReg,
    },
    SReadMask {
        dst: Sreg,
        src: MaskReg,
    },
    SWriteMask {
        dst: MaskReg,
        src: ScalarOperand,
    },
    SAndSaveExec {
        dst: Sreg,
    },
    VAlu {
        op: VAluOp,
        dst: Vreg,
        a: LaneSrc,
        b: LaneSrc,
    },
    VFma {
        dst: Vreg,
        a: LaneSrc,
        b: LaneSrc,
        c: LaneSrc,
    },
    VCmp {
        op: CmpOp,
        float: bool,
        a: LaneSrc,
        b: LaneSrc,
    },
    /// `imm` is the sign-extended byte offset, added with wrap-around.
    GlobalLoad {
        dst: Vreg,
        base: Sreg,
        offset: Vreg,
        imm: u64,
        width: MemWidth,
    },
    /// `imm` is the sign-extended byte offset, added with wrap-around.
    GlobalStore {
        src: Vreg,
        base: Sreg,
        offset: Vreg,
        imm: u64,
        width: MemWidth,
    },
    LdsLoad {
        dst: Vreg,
        addr: Vreg,
        imm: i64,
    },
    LdsStore {
        src: Vreg,
        addr: Vreg,
        imm: i64,
    },
    Branch {
        target: u32,
    },
    CBranch {
        cond: BranchCond,
        target: u32,
    },
    SBarrier,
    SWaitcnt,
    SEndpgm,
}

/// Everything the interpreter and the timing engine need to know about
/// one pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// The operation.
    pub op: Op,
    /// [`Inst::class`] of the encoded instruction.
    pub class: InstClass,
    /// Whether this is a slow ALU op (integer or float divide, remainder).
    pub slow: bool,
    /// Id of the basic block whose first instruction this is, or
    /// `NO_BLOCK`.
    block_start: u32,
}

const NO_BLOCK: u32 = u32::MAX;

impl MicroOp {
    /// The basic block that starts at this pc, if one does — equal to
    /// [`BasicBlockMap::block_starting_at`].
    #[inline]
    pub fn block_start(&self) -> Option<BasicBlockId> {
        (self.block_start != NO_BLOCK).then_some(BasicBlockId(self.block_start))
    }
}

fn scalar(s: ScalarSrc) -> ScalarOperand {
    match s {
        ScalarSrc::Reg(r) => ScalarOperand::Reg(r),
        ScalarSrc::Imm(v) => ScalarOperand::Const(v as u64),
    }
}

fn lanes(s: VectorSrc) -> LaneSrc {
    match s {
        VectorSrc::Reg(r) => LaneSrc::Vreg(r),
        VectorSrc::Sreg(r) => LaneSrc::Sreg(r),
        VectorSrc::Imm(v) => LaneSrc::Const(v),
        VectorSrc::ImmF32(f) => LaneSrc::Const(f.to_bits()),
        VectorSrc::LaneId => LaneSrc::LaneId,
    }
}

fn decode_op(inst: &Inst) -> Op {
    match *inst {
        Inst::SAlu { op, dst, a, b } => Op::SAlu {
            op,
            dst,
            a: scalar(a),
            b: scalar(b),
        },
        Inst::SCmp { op, a, b } => Op::SCmp {
            op,
            a: scalar(a),
            b: scalar(b),
        },
        Inst::SLoadArg { dst, index } => Op::SLoadArg { dst, index },
        Inst::SGetSpecial { dst, which } => Op::SGetSpecial { dst, which },
        Inst::SReadMask { dst, src } => Op::SReadMask { dst, src },
        Inst::SWriteMask { dst, src } => Op::SWriteMask {
            dst,
            src: scalar(src),
        },
        Inst::SAndSaveExec { dst } => Op::SAndSaveExec { dst },
        Inst::VAlu { op, dst, a, b } => Op::VAlu {
            op,
            dst,
            a: lanes(a),
            b: lanes(b),
        },
        Inst::VFma { dst, a, b, c } => Op::VFma {
            dst,
            a: lanes(a),
            b: lanes(b),
            c: lanes(c),
        },
        Inst::VCmp { op, a, b, float } => Op::VCmp {
            op,
            float,
            a: lanes(a),
            b: lanes(b),
        },
        Inst::GlobalLoad {
            dst,
            base,
            offset,
            imm,
            width,
        } => Op::GlobalLoad {
            dst,
            base,
            offset,
            imm: imm as i64 as u64,
            width,
        },
        Inst::GlobalStore {
            src,
            base,
            offset,
            imm,
            width,
        } => Op::GlobalStore {
            src,
            base,
            offset,
            imm: imm as i64 as u64,
            width,
        },
        Inst::LdsLoad { dst, addr, imm } => Op::LdsLoad {
            dst,
            addr,
            imm: imm as i64,
        },
        Inst::LdsStore { src, addr, imm } => Op::LdsStore {
            src,
            addr,
            imm: imm as i64,
        },
        Inst::Branch { target } => Op::Branch { target },
        Inst::CBranch { cond, target } => Op::CBranch { cond, target },
        Inst::SBarrier => Op::SBarrier,
        Inst::SWaitcnt => Op::SWaitcnt,
        Inst::SEndpgm => Op::SEndpgm,
    }
}

/// Divides and remainders: the ops the timing model charges
/// `valu_slow` for (a scalar one costs `salu` either way).
fn is_slow(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::SAlu {
            op: SAluOp::Div | SAluOp::Rem,
            ..
        } | Inst::VAlu {
            op: VAluOp::Div | VAluOp::Rem | VAluOp::FDiv,
            ..
        }
    )
}

/// Decodes `insts` against their basic-block decomposition.
pub(crate) fn decode(insts: &[Inst], blocks: &BasicBlockMap) -> Arc<[MicroOp]> {
    insts
        .iter()
        .enumerate()
        .map(|(pc, inst)| MicroOp {
            op: decode_op(inst),
            class: inst.class(),
            slow: is_slow(inst),
            block_start: blocks
                .block_starting_at(pc as u32)
                .map_or(NO_BLOCK, |id| id.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn program() -> Program {
        Program::from_insts(
            "t",
            vec![
                Inst::VAlu {
                    op: VAluOp::FDiv,
                    dst: Vreg::new(1),
                    a: VectorSrc::ImmF32(1.5),
                    b: VectorSrc::LaneId,
                },
                Inst::GlobalLoad {
                    dst: Vreg::new(0),
                    base: Sreg::new(2),
                    offset: Vreg::new(1),
                    imm: -8,
                    width: MemWidth::B32,
                },
                Inst::SBarrier,
                Inst::SAlu {
                    op: SAluOp::Add,
                    dst: Sreg::new(0),
                    a: ScalarSrc::Imm(-1),
                    b: ScalarSrc::Reg(Sreg::new(3)),
                },
                Inst::SEndpgm,
            ],
        )
        .unwrap()
    }

    #[test]
    fn operands_are_resolved() {
        let p = program();
        let ops = p.decoded();
        assert_eq!(ops.len(), p.len());
        assert_eq!(
            ops[0].op,
            Op::VAlu {
                op: VAluOp::FDiv,
                dst: Vreg::new(1),
                a: LaneSrc::Const(1.5f32.to_bits()),
                b: LaneSrc::LaneId,
            }
        );
        assert!(ops[0].slow);
        assert_eq!(ops[0].class, InstClass::VectorFloat);
        assert!(matches!(ops[1].op, Op::GlobalLoad { imm, .. } if imm == -8i64 as u64));
        assert!(matches!(
            ops[3].op,
            Op::SAlu {
                a: ScalarOperand::Const(u64::MAX),
                b: ScalarOperand::Reg(_),
                ..
            }
        ));
        assert!(!ops[3].slow);
    }

    #[test]
    fn block_starts_follow_the_block_map() {
        let p = program();
        let starts: Vec<_> = p.decoded().iter().map(MicroOp::block_start).collect();
        // the barrier at pc 2 ends block 0; block 1 starts after it
        assert_eq!(
            starts,
            vec![
                Some(BasicBlockId(0)),
                None,
                None,
                Some(BasicBlockId(1)),
                None
            ]
        );
    }
}
