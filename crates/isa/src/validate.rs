//! Kernel pre-flight validation.
//!
//! [`Program::from_insts`] checks structural well-formedness at build
//! time, but programs can also enter the system through
//! deserialization or hand assembly, bypassing the builder. This module
//! re-validates a program (and a launch) against the machine limits
//! *before* any cycle is simulated, so malformed kernels surface as
//! typed errors instead of panics or hung simulations:
//!
//! * every branch target lies inside the program,
//! * every scalar/vector register index is within the declared
//!   register-file limits ([`KernelLimits`]),
//! * every `s_load_arg` index is covered by the launch's argument list,
//! * no `s_barrier` sits inside a lane-divergent region (between
//!   `s_and_saveexec` and the EXEC restore), where warps could arrive
//!   with mismatched lane masks.
//!
//! The divergence check is a linear-scan approximation over the
//! structured idioms [`crate::KernelBuilder`] emits (`if_vcc`,
//! `lane_while`): it tracks `s_and_saveexec` nesting and treats any
//! EXEC write as closing the region. Uniform scalar branches
//! (`if_scc`, `for_uniform`) do not trigger it; per-warp *count*
//! mismatches are a dynamic property left to the timing engine's
//! barrier watchdog.

use crate::inst::{BranchCond, Inst, MaskReg, ScalarSrc, VectorSrc};
use crate::kernel::KernelLaunch;
use crate::program::Program;
use crate::reg::{Sreg, Vreg, MAX_SREGS, MAX_VREGS};
use std::error::Error;
use std::fmt;

/// Register-file limits a kernel is validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelLimits {
    /// Scalar registers available to the kernel.
    pub sregs: usize,
    /// Vector registers available to the kernel.
    pub vregs: usize,
}

impl Default for KernelLimits {
    /// The full architectural register files.
    fn default() -> Self {
        KernelLimits {
            sregs: MAX_SREGS,
            vregs: MAX_VREGS,
        }
    }
}

/// A defect found by pre-flight validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The program has no instructions.
    EmptyProgram,
    /// No path ends in `s_endpgm`.
    MissingEndpgm,
    /// A branch targets a PC outside the program.
    BranchOutOfRange {
        /// Instruction index of the branch.
        pc: u32,
        /// Resolved (invalid) target.
        target: u32,
        /// Program length.
        len: usize,
    },
    /// A scalar register index exceeds the declared SGPR count.
    SregOutOfRange {
        /// Instruction index.
        pc: u32,
        /// Offending register index.
        reg: usize,
        /// Declared SGPR count.
        limit: usize,
    },
    /// A vector register index exceeds the declared VGPR count.
    VregOutOfRange {
        /// Instruction index.
        pc: u32,
        /// Offending register index.
        reg: usize,
        /// Declared VGPR count.
        limit: usize,
    },
    /// An `s_load_arg` index has no corresponding launch argument.
    ArgOutOfRange {
        /// Instruction index.
        pc: u32,
        /// Argument index requested.
        index: u16,
        /// Arguments provided by the launch.
        args: usize,
    },
    /// An `s_barrier` is reachable inside a lane-divergent region.
    BarrierUnderDivergence {
        /// Instruction index of the barrier.
        pc: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::EmptyProgram => write!(f, "program is empty"),
            ValidateError::MissingEndpgm => {
                write!(f, "program does not terminate with s_endpgm")
            }
            ValidateError::BranchOutOfRange { pc, target, len } => write!(
                f,
                "branch at pc {pc} targets pc {target}, outside the {len}-instruction program"
            ),
            ValidateError::SregOutOfRange { pc, reg, limit } => write!(
                f,
                "instruction at pc {pc} uses scalar register s{reg}, but only {limit} are declared"
            ),
            ValidateError::VregOutOfRange { pc, reg, limit } => write!(
                f,
                "instruction at pc {pc} uses vector register v{reg}, but only {limit} are declared"
            ),
            ValidateError::ArgOutOfRange { pc, index, args } => write!(
                f,
                "s_load_arg at pc {pc} reads argument {index}, but the launch provides {args}"
            ),
            ValidateError::BarrierUnderDivergence { pc } => write!(
                f,
                "s_barrier at pc {pc} lies inside a lane-divergent region (after s_and_saveexec)"
            ),
        }
    }
}

impl Error for ValidateError {}

/// A piece of warp state an instruction reads or writes: a register it
/// names, or one of the flags it touches implicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    S(Sreg),
    V(Vreg),
    Scc,
    Vcc,
    Exec,
}

/// How an instruction touches a [`Loc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Reads its value.
    Use,
    /// Reads it to form a memory address.
    Addr,
    /// Overwrites all of it.
    Def,
    /// Writes the lanes EXEC enables: a vector result, or VCC from a
    /// vector compare.
    LaneDef,
}

fn visit_ssrc<E>(
    s: &ScalarSrc,
    visit: &mut impl FnMut(Loc, Access) -> Result<(), E>,
) -> Result<(), E> {
    match s {
        ScalarSrc::Reg(r) => visit(Loc::S(*r), Access::Use),
        ScalarSrc::Imm(_) => Ok(()),
    }
}

fn visit_vsrc<E>(
    v: &VectorSrc,
    visit: &mut impl FnMut(Loc, Access) -> Result<(), E>,
) -> Result<(), E> {
    match v {
        VectorSrc::Reg(r) => visit(Loc::V(*r), Access::Use),
        VectorSrc::Sreg(r) => visit(Loc::S(*r), Access::Use),
        VectorSrc::Imm(_) | VectorSrc::ImmF32(_) | VectorSrc::LaneId => Ok(()),
    }
}

fn mask(m: MaskReg) -> Loc {
    match m {
        MaskReg::Exec => Loc::Exec,
        MaskReg::Vcc => Loc::Vcc,
    }
}

/// Calls `visit` on every register `inst` names, in operand order, and
/// then on the flags it touches, stopping at the first error it
/// returns. Validation, [`vreg_footprint`] and the control slice
/// (`crate::slice`) share this one walk, so the footprint is exactly the
/// smallest vector-register limit validation accepts and the slice sees
/// every operand the interpreter reads.
pub(crate) fn visit_registers<E>(
    inst: &Inst,
    visit: &mut impl FnMut(Loc, Access) -> Result<(), E>,
) -> Result<(), E> {
    match inst {
        Inst::SAlu { dst, a, b, .. } => {
            visit(Loc::S(*dst), Access::Def)?;
            visit_ssrc(a, visit)?;
            visit_ssrc(b, visit)
        }
        Inst::SCmp { a, b, .. } => {
            visit_ssrc(a, visit)?;
            visit_ssrc(b, visit)?;
            visit(Loc::Scc, Access::Def)
        }
        Inst::SLoadArg { dst, .. } | Inst::SGetSpecial { dst, .. } => {
            visit(Loc::S(*dst), Access::Def)
        }
        Inst::SReadMask { dst, src } => {
            visit(Loc::S(*dst), Access::Def)?;
            visit(mask(*src), Access::Use)
        }
        Inst::SAndSaveExec { dst } => {
            visit(Loc::S(*dst), Access::Def)?;
            visit(Loc::Exec, Access::Use)?;
            visit(Loc::Vcc, Access::Use)?;
            visit(Loc::Exec, Access::Def)
        }
        Inst::SWriteMask { dst, src } => {
            visit_ssrc(src, visit)?;
            visit(mask(*dst), Access::Def)
        }
        Inst::VAlu { dst, a, b, .. } => {
            visit(Loc::V(*dst), Access::LaneDef)?;
            visit_vsrc(a, visit)?;
            visit_vsrc(b, visit)
        }
        Inst::VFma { dst, a, b, c } => {
            visit(Loc::V(*dst), Access::LaneDef)?;
            visit_vsrc(a, visit)?;
            visit_vsrc(b, visit)?;
            visit_vsrc(c, visit)
        }
        Inst::VCmp { a, b, .. } => {
            visit_vsrc(a, visit)?;
            visit_vsrc(b, visit)?;
            visit(Loc::Vcc, Access::LaneDef)
        }
        Inst::GlobalLoad {
            dst, base, offset, ..
        } => {
            visit(Loc::V(*dst), Access::LaneDef)?;
            visit(Loc::S(*base), Access::Addr)?;
            visit(Loc::V(*offset), Access::Addr)
        }
        Inst::GlobalStore {
            src, base, offset, ..
        } => {
            visit(Loc::V(*src), Access::Use)?;
            visit(Loc::S(*base), Access::Addr)?;
            visit(Loc::V(*offset), Access::Addr)
        }
        Inst::LdsLoad { dst, addr, .. } => {
            visit(Loc::V(*dst), Access::LaneDef)?;
            visit(Loc::V(*addr), Access::Addr)
        }
        Inst::LdsStore { src, addr, .. } => {
            visit(Loc::V(*src), Access::Use)?;
            visit(Loc::V(*addr), Access::Addr)
        }
        Inst::CBranch { cond, .. } => visit(
            match cond {
                BranchCond::SccZero | BranchCond::SccNonZero => Loc::Scc,
                BranchCond::ExecZero | BranchCond::ExecNonZero => Loc::Exec,
                BranchCond::VccZero | BranchCond::VccNonZero => Loc::Vcc,
            },
            Access::Use,
        ),
        Inst::Branch { .. } | Inst::SBarrier | Inst::SWaitcnt | Inst::SEndpgm => Ok(()),
    }
}

fn check_registers(pc: u32, inst: &Inst, limits: &KernelLimits) -> Result<(), ValidateError> {
    visit_registers(inst, &mut |r, _| match r {
        Loc::S(r) if r.index() >= limits.sregs => Err(ValidateError::SregOutOfRange {
            pc,
            reg: r.index(),
            limit: limits.sregs,
        }),
        Loc::V(r) if r.index() >= limits.vregs => Err(ValidateError::VregOutOfRange {
            pc,
            reg: r.index(),
            limit: limits.vregs,
        }),
        _ => Ok(()),
    })
}

/// The vector registers `insts` name: one past the highest index, 0 if
/// they name none. [`crate::Program::vreg_footprint`] caches it.
pub(crate) fn vreg_footprint(insts: &[Inst]) -> usize {
    let mut n = 0;
    for inst in insts {
        let _ = visit_registers(inst, &mut |r, _| {
            if let Loc::V(v) = r {
                n = n.max(v.index() + 1);
            }
            Ok::<(), std::convert::Infallible>(())
        });
    }
    n
}

/// Validates a program against the machine limits.
///
/// # Errors
/// Returns the first [`ValidateError`] found, scanning in PC order.
pub fn validate_program(program: &Program, limits: &KernelLimits) -> Result<(), ValidateError> {
    validate_insts(program.insts(), limits)
}

/// Slice-level worker: validates a raw instruction sequence. Programs
/// that arrive through deserialization have not passed through
/// [`Program::from_insts`], so nothing here may be assumed.
fn validate_insts(insts: &[Inst], limits: &KernelLimits) -> Result<(), ValidateError> {
    if insts.is_empty() {
        return Err(ValidateError::EmptyProgram);
    }
    if !insts.iter().any(|i| matches!(i, Inst::SEndpgm)) {
        return Err(ValidateError::MissingEndpgm);
    }
    let mut exec_depth = 0u32;
    for (pc, inst) in insts.iter().enumerate() {
        let pc = pc as u32;
        if let Some(target) = inst.branch_target() {
            if target as usize >= insts.len() {
                return Err(ValidateError::BranchOutOfRange {
                    pc,
                    target,
                    len: insts.len(),
                });
            }
        }
        check_registers(pc, inst, limits)?;
        match inst {
            Inst::SAndSaveExec { .. } => exec_depth = exec_depth.saturating_add(1),
            Inst::SWriteMask {
                dst: MaskReg::Exec, ..
            } => exec_depth = 0,
            Inst::SBarrier if exec_depth > 0 => {
                return Err(ValidateError::BarrierUnderDivergence { pc });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Validates a launch: the program plus launch-specific properties
/// (argument indices against the provided argument list).
///
/// # Errors
/// Returns the first [`ValidateError`] found.
pub fn validate_launch(launch: &KernelLaunch, limits: &KernelLimits) -> Result<(), ValidateError> {
    let program = launch.kernel.program();
    validate_program(program, limits)?;
    for (pc, inst) in program.insts().iter().enumerate() {
        if let Inst::SLoadArg { index, .. } = inst {
            if *index as usize >= launch.args.len() {
                return Err(ValidateError::ArgOutOfRange {
                    pc: pc as u32,
                    index: *index,
                    args: launch.args.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpOp, MemWidth, SAluOp, VAluOp};
    use crate::kernel::Kernel;
    use crate::KernelBuilder;

    fn program(insts: Vec<Inst>) -> Program {
        Program::from_insts("t", insts).unwrap()
    }

    #[test]
    fn accepts_builder_output() {
        let mut kb = KernelBuilder::new("ok");
        let s = kb.sreg();
        kb.load_arg(s, 0);
        let v = kb.vreg();
        kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(1));
        kb.vcmp(CmpOp::Lt, VectorSrc::Reg(v), VectorSrc::Imm(32), false);
        kb.if_vcc(|kb| {
            let w = kb.vreg();
            kb.valu(VAluOp::Add, w, VectorSrc::Reg(v), VectorSrc::Imm(1));
        });
        kb.barrier();
        let p = kb.finish().unwrap();
        assert_eq!(validate_program(&p, &KernelLimits::default()), Ok(()));
        let launch = KernelLaunch::new(Kernel::new(p), 1, 1, vec![0x1000]);
        assert_eq!(validate_launch(&launch, &KernelLimits::default()), Ok(()));
    }

    #[test]
    fn rejects_register_over_declared_limit() {
        let p = program(vec![
            Inst::SAlu {
                op: SAluOp::Add,
                dst: Sreg::new(9),
                a: ScalarSrc::Imm(1),
                b: ScalarSrc::Imm(2),
            },
            Inst::SEndpgm,
        ]);
        let tight = KernelLimits { sregs: 4, vregs: 4 };
        assert_eq!(
            validate_program(&p, &tight),
            Err(ValidateError::SregOutOfRange {
                pc: 0,
                reg: 9,
                limit: 4
            })
        );
    }

    #[test]
    fn rejects_vector_register_in_operand_position() {
        let p = program(vec![
            Inst::VAlu {
                op: VAluOp::Add,
                dst: Vreg::new(0),
                a: VectorSrc::Reg(Vreg::new(7)),
                b: VectorSrc::Imm(0),
            },
            Inst::SEndpgm,
        ]);
        let tight = KernelLimits {
            sregs: 64,
            vregs: 4,
        };
        assert_eq!(
            validate_program(&p, &tight),
            Err(ValidateError::VregOutOfRange {
                pc: 0,
                reg: 7,
                limit: 4
            })
        );
    }

    /// The footprint, checked to be the smallest vector-register limit
    /// validation accepts.
    fn footprint(insts: Vec<Inst>) -> usize {
        let p = program(insts);
        let n = p.vreg_footprint();
        let limits = |vregs| KernelLimits {
            sregs: MAX_SREGS,
            vregs,
        };
        assert_eq!(validate_program(&p, &limits(n)), Ok(()));
        if n > 0 {
            assert_eq!(
                validate_program(&p, &limits(n - 1)),
                Err(ValidateError::VregOutOfRange {
                    pc: 0,
                    reg: n - 1,
                    limit: n - 1
                })
            );
        }
        n
    }

    #[test]
    fn footprint_of_a_program_without_vector_registers_is_zero() {
        let scalar = Inst::SAlu {
            op: SAluOp::Add,
            dst: Sreg::new(63),
            a: ScalarSrc::Reg(Sreg::new(1)),
            b: ScalarSrc::Imm(2),
        };
        assert_eq!(footprint(vec![scalar, Inst::SEndpgm]), 0);
        let broadcast = Inst::VCmp {
            op: CmpOp::Lt,
            float: false,
            a: VectorSrc::LaneId,
            b: VectorSrc::Sreg(Sreg::new(5)),
        };
        assert_eq!(footprint(vec![broadcast, Inst::SEndpgm]), 0);
    }

    #[test]
    fn footprint_counts_a_register_named_only_as_an_lds_address() {
        let load = Inst::LdsLoad {
            dst: Vreg::new(1),
            addr: Vreg::new(12),
            imm: 0,
        };
        assert_eq!(footprint(vec![load, Inst::SEndpgm]), 13);
    }

    #[test]
    fn footprint_counts_a_register_named_only_as_a_global_offset() {
        let store = Inst::GlobalStore {
            src: Vreg::new(2),
            base: Sreg::new(0),
            offset: Vreg::new(40),
            imm: 0,
            width: MemWidth::B32,
        };
        assert_eq!(footprint(vec![store, Inst::SEndpgm]), 41);
    }

    #[test]
    fn rejects_branch_out_of_range() {
        // An out-of-range branch cannot come out of Program::from_insts,
        // but a deserialized program bypasses it; exercise the slice
        // worker the way such a program would hit it.
        let insts = vec![Inst::Branch { target: 7 }, Inst::SEndpgm];
        assert_eq!(
            validate_insts(&insts, &KernelLimits::default()),
            Err(ValidateError::BranchOutOfRange {
                pc: 0,
                target: 7,
                len: 2
            })
        );
    }

    #[test]
    fn rejects_empty_and_unterminated() {
        assert_eq!(
            validate_insts(&[], &KernelLimits::default()),
            Err(ValidateError::EmptyProgram)
        );
        assert_eq!(
            validate_insts(&[Inst::SBarrier], &KernelLimits::default()),
            Err(ValidateError::MissingEndpgm)
        );
    }

    #[test]
    fn rejects_arg_index_beyond_launch_args() {
        let p = program(vec![
            Inst::SLoadArg {
                dst: Sreg::new(0),
                index: 2,
            },
            Inst::SEndpgm,
        ]);
        let launch = KernelLaunch::new(Kernel::new(p), 1, 1, vec![0xbeef]);
        assert_eq!(
            validate_launch(&launch, &KernelLimits::default()),
            Err(ValidateError::ArgOutOfRange {
                pc: 0,
                index: 2,
                args: 1
            })
        );
    }

    #[test]
    fn rejects_barrier_inside_divergent_region() {
        let p = program(vec![
            Inst::SAndSaveExec { dst: Sreg::new(0) },
            Inst::SBarrier,
            Inst::SWriteMask {
                dst: MaskReg::Exec,
                src: ScalarSrc::Reg(Sreg::new(0)),
            },
            Inst::SEndpgm,
        ]);
        assert_eq!(
            validate_program(&p, &KernelLimits::default()),
            Err(ValidateError::BarrierUnderDivergence { pc: 1 })
        );
    }

    #[test]
    fn accepts_barrier_after_exec_restore() {
        let p = program(vec![
            Inst::SAndSaveExec { dst: Sreg::new(0) },
            Inst::SWriteMask {
                dst: MaskReg::Exec,
                src: ScalarSrc::Reg(Sreg::new(0)),
            },
            Inst::SBarrier,
            Inst::SEndpgm,
        ]);
        assert_eq!(validate_program(&p, &KernelLimits::default()), Ok(()));
    }

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            ValidateError::EmptyProgram,
            ValidateError::MissingEndpgm,
            ValidateError::BranchOutOfRange {
                pc: 1,
                target: 9,
                len: 2,
            },
            ValidateError::SregOutOfRange {
                pc: 0,
                reg: 70,
                limit: 64,
            },
            ValidateError::VregOutOfRange {
                pc: 0,
                reg: 70,
                limit: 64,
            },
            ValidateError::ArgOutOfRange {
                pc: 0,
                index: 3,
                args: 1,
            },
            ValidateError::BarrierUnderDivergence { pc: 5 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }
}
