//! The control slice: the instructions that decide a warp's path.
//!
//! Photon's online analysis keeps only a warp's basic-block counts, and
//! those depend on few instructions: the branches, and what computes
//! their conditions. [`control_slice`] marks them per pc, so a tracer
//! that executes only the marked instructions — and merely steps over
//! the rest — takes the path, faults and ends exactly where full
//! execution does.
//!
//! The slice is a flow-insensitive backward slice over the scalar and
//! vector registers, SCC, VCC and EXEC, with defs and uses taken from
//! the register walk validation uses. Its roots:
//!
//! * branches (and the conditions of conditional ones), `s_barrier`,
//!   `s_waitcnt` and `s_endpgm`;
//! * `s_load_arg`, whose index can fault;
//! * LDS loads and stores, whose addresses under EXEC can fault.
//!
//! A location is *live* once a slice instruction reads it, and every
//! instruction that writes a live location joins the slice. A lane-wise
//! write reads EXEC; one to a vector register also reads that register,
//! whose inactive lanes it keeps. Memory is not tracked: if a global or
//! LDS load writes a live location, the whole program is the slice.

use crate::inst::Inst;
use crate::reg::{MAX_SREGS, MAX_VREGS};
use crate::validate::{visit_registers, Access, Loc};
use std::convert::Infallible;

const SCC: usize = MAX_SREGS + MAX_VREGS;
const VCC: usize = SCC + 1;
const EXEC: usize = SCC + 2;

/// Index of `loc` in the live set.
fn index(loc: Loc) -> usize {
    match loc {
        Loc::S(r) => r.index(),
        Loc::V(r) => MAX_SREGS + r.index(),
        Loc::Scc => SCC,
        Loc::Vcc => VCC,
        Loc::Exec => EXEC,
    }
}

/// The locations one instruction touches, as indices into the live set.
#[derive(Default)]
struct Touches {
    /// Written.
    defs: Vec<usize>,
    /// Read for the value written, a lane-wise write's EXEC and kept
    /// lanes included.
    uses: Vec<usize>,
    /// Read to form a memory address.
    addrs: Vec<usize>,
}

/// What `inst` touches, from the register walk validation uses.
fn touches(inst: &Inst) -> Touches {
    let mut t = Touches::default();
    let _ = visit_registers(inst, &mut |loc, access| {
        match access {
            Access::Use => t.uses.push(index(loc)),
            Access::Addr => t.addrs.push(index(loc)),
            Access::Def => t.defs.push(index(loc)),
            Access::LaneDef => {
                t.defs.push(index(loc));
                t.uses.push(EXEC);
                if let Loc::V(_) = loc {
                    t.uses.push(index(loc));
                }
            }
        }
        Ok::<(), Infallible>(())
    });
    t
}

/// What a root must read to behave as in full execution — a branch its
/// condition, an LDS access its addresses and EXEC — or `None` if
/// `inst` is no root.
fn root_uses(inst: &Inst, t: &Touches) -> Option<Vec<usize>> {
    match inst {
        Inst::Branch { .. }
        | Inst::CBranch { .. }
        | Inst::SBarrier
        | Inst::SWaitcnt
        | Inst::SEndpgm
        | Inst::SLoadArg { .. } => Some(t.uses.clone()),
        Inst::LdsLoad { .. } | Inst::LdsStore { .. } => {
            Some(t.addrs.iter().copied().chain([EXEC]).collect())
        }
        _ => None,
    }
}

/// One flag per pc: whether the instruction there is in the control
/// slice of `insts`. All true when a load feeds the slice.
/// [`crate::Program::control_slice`] caches it.
pub(crate) fn control_slice(insts: &[Inst]) -> Vec<bool> {
    let touched: Vec<Touches> = insts.iter().map(touches).collect();
    let mut live = [false; EXEC + 1];
    let mut in_slice = vec![false; insts.len()];
    for (pc, (inst, t)) in insts.iter().zip(&touched).enumerate() {
        if let Some(uses) = root_uses(inst, t) {
            in_slice[pc] = true;
            uses.into_iter().for_each(|u| live[u] = true);
        }
    }
    // Instructions executed for the value they write.
    let mut valued = vec![false; insts.len()];
    let mut grew = true;
    while grew {
        grew = false;
        for (pc, t) in touched.iter().enumerate() {
            if !valued[pc] && t.defs.iter().any(|&d| live[d]) {
                valued[pc] = true;
                t.uses.iter().chain(&t.addrs).for_each(|&u| live[u] = true);
                grew = true;
            }
        }
    }
    let loads_feed_slice = insts
        .iter()
        .zip(&valued)
        .any(|(inst, &v)| v && matches!(inst, Inst::GlobalLoad { .. } | Inst::LdsLoad { .. }));
    if loads_feed_slice {
        return vec![true; insts.len()];
    }
    in_slice
        .iter()
        .zip(&valued)
        .map(|(&r, &v)| r || v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{CmpOp, MaskReg, MemWidth, ScalarSrc, VAluOp, VectorSrc};
    use crate::reg::{Sreg, Vreg};
    use crate::KernelBuilder;

    fn slice_of(kb: KernelBuilder) -> (Vec<Inst>, Vec<bool>) {
        let insts = kb.finish().unwrap().insts().to_vec();
        let slice = control_slice(&insts);
        (insts, slice)
    }

    /// The instructions the slice leaves out.
    fn skipped(insts: &[Inst], slice: &[bool]) -> Vec<Inst> {
        insts
            .iter()
            .zip(slice)
            .filter(|(_, &s)| !s)
            .map(|(i, _)| *i)
            .collect()
    }

    #[test]
    fn a_uniform_loop_keeps_its_counter_and_drops_its_body() {
        let mut kb = KernelBuilder::new("stream");
        let (base, i) = (kb.sreg(), kb.sreg());
        kb.load_arg(base, 0);
        let (off, x) = (kb.vreg(), kb.vreg());
        kb.global_thread_id(off);
        kb.for_uniform(i, 0i64, 8i64, |kb| {
            kb.global_load(x, base, off, 0, MemWidth::B32);
            kb.vfma(x, x, VectorSrc::ImmF32(2.0), x);
            kb.global_store(x, base, off, 0, MemWidth::B32);
        });
        let (insts, slice) = slice_of(kb);
        let out = skipped(&insts, &slice);
        // the thread id (3 instructions) and the loop body
        assert_eq!(out.len(), 6, "{out:?}");
        assert!(out.iter().all(|i| !matches!(
            i,
            Inst::SCmp { .. } | Inst::CBranch { .. } | Inst::Branch { .. } | Inst::SLoadArg { .. }
        )));
        let counter = Inst::SAlu {
            op: crate::SAluOp::Add,
            dst: i,
            a: ScalarSrc::Reg(i),
            b: ScalarSrc::Imm(1),
        };
        assert!(!out.contains(&counter));
    }

    #[test]
    fn an_lds_access_keeps_its_address_and_exec_but_not_its_data() {
        let mut kb = KernelBuilder::new("lds");
        let (data, addr) = (kb.vreg(), kb.vreg());
        kb.vfma(
            data,
            VectorSrc::LaneId,
            VectorSrc::ImmF32(2.0),
            VectorSrc::ImmF32(1.0),
        );
        kb.vcmp(CmpOp::Lt, VectorSrc::LaneId, VectorSrc::Imm(16), false);
        kb.if_vcc(|kb| {
            kb.valu(VAluOp::Shl, addr, VectorSrc::LaneId, VectorSrc::Imm(2));
            kb.lds_store(data, addr, 0);
        });
        let (insts, slice) = slice_of(kb);
        assert_eq!(skipped(&insts, &slice), [insts[0]], "only the data");
    }

    #[test]
    fn a_load_feeding_a_branch_takes_the_whole_program() {
        let mut kb = KernelBuilder::new("gather");
        let base = kb.sreg();
        kb.load_arg(base, 0);
        let (off, x, y) = (kb.vreg(), kb.vreg(), kb.vreg());
        kb.global_thread_id(off);
        kb.global_load(x, base, off, 0, MemWidth::B32);
        kb.vfma(y, x, x, x);
        kb.vcmp(CmpOp::Gt, VectorSrc::Reg(x), VectorSrc::Imm(0), false);
        kb.if_vcc(|kb| {
            kb.global_store(y, base, off, 0, MemWidth::B32);
        });
        let (_, slice) = slice_of(kb);
        assert!(slice.iter().all(|&s| s));

        // an LDS load alike
        let mut kb = KernelBuilder::new("lds_bound");
        let (addr, n) = (kb.vreg(), kb.vreg());
        kb.valu(VAluOp::Shl, addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        kb.lds_load(n, addr, 0);
        kb.vcmp(CmpOp::Gt, VectorSrc::Reg(n), VectorSrc::Imm(0), false);
        kb.if_vcc(|kb| {
            kb.vmov(n, VectorSrc::Imm(0));
        });
        let (_, slice) = slice_of(kb);
        assert!(slice.iter().all(|&s| s));
    }

    #[test]
    fn a_lane_wise_write_reads_exec_and_a_vector_one_its_destination() {
        let narrow = Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Imm(0xff),
        };
        let insts = [
            narrow,
            Inst::VCmp {
                op: CmpOp::Lt,
                a: VectorSrc::LaneId,
                b: VectorSrc::Imm(32),
                float: false,
            },
            Inst::CBranch {
                cond: crate::BranchCond::VccZero,
                target: 3,
            },
            Inst::SEndpgm,
        ];
        assert_eq!(control_slice(&insts), [true; 4]);

        let (v, s) = (Vreg::new(3), Sreg::new(1));
        let mut t = touches(&Inst::VAlu {
            op: VAluOp::Add,
            dst: v,
            a: VectorSrc::Sreg(s),
            b: VectorSrc::Imm(1),
        });
        assert_eq!(t.defs, [index(Loc::V(v))]);
        t.uses.sort_unstable();
        assert_eq!(t.uses, [index(Loc::S(s)), index(Loc::V(v)), EXEC]);
    }
}
