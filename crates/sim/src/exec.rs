//! The warp-level functional interpreter.
//!
//! [`step`] executes exactly one instruction of one warp, committing its
//! architectural effects (registers, memory, LDS) and returning a
//! [`StepInfo`] the timing engine turns into latency. The same
//! interpreter drives detailed simulation, fast-forward (functional-only)
//! execution, and Photon's side-effect-free online tracing (via
//! [`crate::OverlayMem`]).

use crate::error::{ExecFaultKind, SimError};
use crate::overlay::DataMem;
use crate::warp::WarpState;
use gpu_isa::{
    BranchCond, CmpOp, InstClass, LaneSrc, MaskReg, MemWidth, MicroOp, Op, Program, SAluOp,
    ScalarOperand, SpecialReg, Sreg, VAluOp, Vreg, LANES,
};
use gpu_mem::{coalesce_lanes_into, set_bits};

/// Per-launch values visible to the interpreter.
#[derive(Debug, Clone, Copy)]
pub struct LaunchEnv<'a> {
    /// Kernel arguments.
    pub args: &'a [u64],
    /// Flat workgroup id of this warp's workgroup.
    pub wg_id: u32,
    /// This warp's index within the workgroup.
    pub warp_in_wg: u32,
    /// Warps per workgroup.
    pub warps_per_wg: u32,
    /// Workgroups in the launch.
    pub num_wgs: u32,
}

impl LaunchEnv<'_> {
    /// The flat global warp id.
    pub fn global_warp_id(&self) -> u64 {
        self.wg_id as u64 * self.warps_per_wg as u64 + self.warp_in_wg as u64
    }
}

/// Architecturally visible side channel of one executed instruction,
/// consumed by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEffect {
    /// Pure ALU / control work; latency comes from the instruction class.
    Alu,
    /// Global memory access. The coalesced cache-line addresses
    /// (address / 64, sorted, unique) are left in the `lines` scratch
    /// buffer passed to [`step`] — the effect itself stays heap-free.
    Mem {
        /// Whether the access was a store.
        write: bool,
    },
    /// Kernel-argument (scalar memory) load.
    ArgLoad {
        /// Argument index, for address formation in the timing model.
        index: u16,
    },
    /// LDS access.
    Lds,
    /// The warp reached `s_barrier` (PC already advanced past it).
    Barrier,
    /// The warp executed `s_endpgm`.
    End,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: u32,
    /// Instruction class (for latency tables and feature counts).
    pub class: InstClass,
    /// Whether this is a slow ALU op (divide and friends).
    pub slow: bool,
    /// Timing-relevant effect.
    pub effect: StepEffect,
}

/// One value per lane: a vector register, or a vector operand
/// materialised for a lane loop.
type Lanes = [u32; LANES];

const LANE_IDS: Lanes = {
    let mut ids = [0u32; LANES];
    let mut l = 0;
    while l < LANES {
        ids[l] = l as u32;
        l += 1;
    }
    ids
};

#[inline]
fn scalar_src(warp: &WarpState, s: ScalarOperand) -> u64 {
    match s {
        ScalarOperand::Reg(r) => warp.sregs[r.index()],
        ScalarOperand::Const(v) => v,
    }
}

/// The 64 lane values of a vector operand: a register is read in place,
/// a broadcast is materialised into `buf`. Resolving the shape here,
/// once per instruction, is what keeps the lane loops below free of
/// operand matches.
#[inline]
fn lanes<'a>(warp: &'a WarpState, s: LaneSrc, buf: &'a mut Lanes) -> &'a Lanes {
    let splat = match s {
        LaneSrc::Vreg(r) => return &warp.vregs[r.index()],
        LaneSrc::LaneId => return &LANE_IDS,
        LaneSrc::Sreg(r) => warp.sregs[r.index()] as u32,
        LaneSrc::Const(v) => v,
    };
    *buf = [splat; LANES];
    buf
}

fn salu_eval(op: SAluOp, a: u64, b: u64) -> u64 {
    match op {
        SAluOp::Add => a.wrapping_add(b),
        SAluOp::Sub => a.wrapping_sub(b),
        SAluOp::Mul => a.wrapping_mul(b),
        SAluOp::Div => a.checked_div(b).unwrap_or(0),
        SAluOp::Rem => a.checked_rem(b).unwrap_or(0),
        SAluOp::Shl => a << (b & 63),
        SAluOp::Shr => a >> (b & 63),
        SAluOp::And => a & b,
        SAluOp::Or => a | b,
        SAluOp::Xor => a ^ b,
        SAluOp::AndNot => a & !b,
        SAluOp::Min => a.min(b),
        SAluOp::Max => a.max(b),
        SAluOp::Mov => a,
    }
}

/// `f` over every lane pair. Callers choose `f` per op *outside* the
/// call, so each instantiation is a branch-free loop over fixed-size
/// arrays that the compiler vectorises. All 64 lanes are computed —
/// no op can trap — and [`commit`] drops the inactive ones.
#[inline(always)]
fn zip_lanes(a: &Lanes, b: &Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
    let mut r = [0u32; LANES];
    for l in 0..LANES {
        r[l] = f(a[l], b[l]);
    }
    r
}

#[inline(always)]
fn zip_f32(a: &Lanes, b: &Lanes, f: impl Fn(f32, f32) -> f32) -> Lanes {
    zip_lanes(a, b, |x, y| {
        f(f32::from_bits(x), f32::from_bits(y)).to_bits()
    })
}

fn valu_lanes(op: VAluOp, a: &Lanes, b: &Lanes) -> Lanes {
    match op {
        VAluOp::Add => zip_lanes(a, b, u32::wrapping_add),
        VAluOp::Sub => zip_lanes(a, b, u32::wrapping_sub),
        VAluOp::Mul => zip_lanes(a, b, u32::wrapping_mul),
        VAluOp::Div => zip_lanes(a, b, |x, y| x.checked_div(y).unwrap_or(0)),
        VAluOp::Rem => zip_lanes(a, b, |x, y| x.checked_rem(y).unwrap_or(0)),
        VAluOp::Shl => zip_lanes(a, b, |x, y| x << (y & 31)),
        VAluOp::Shr => zip_lanes(a, b, |x, y| x >> (y & 31)),
        VAluOp::Ashr => zip_lanes(a, b, |x, y| ((x as i32) >> (y & 31)) as u32),
        VAluOp::And => zip_lanes(a, b, |x, y| x & y),
        VAluOp::Or => zip_lanes(a, b, |x, y| x | y),
        VAluOp::Xor => zip_lanes(a, b, |x, y| x ^ y),
        VAluOp::Min => zip_lanes(a, b, u32::min),
        VAluOp::Max => zip_lanes(a, b, u32::max),
        VAluOp::IMin => zip_lanes(a, b, |x, y| (x as i32).min(y as i32) as u32),
        VAluOp::IMax => zip_lanes(a, b, |x, y| (x as i32).max(y as i32) as u32),
        VAluOp::Mov => *a,
        VAluOp::FAdd => zip_f32(a, b, |x, y| x + y),
        VAluOp::FSub => zip_f32(a, b, |x, y| x - y),
        VAluOp::FMul => zip_f32(a, b, |x, y| x * y),
        VAluOp::FDiv => zip_f32(a, b, |x, y| x / y),
        VAluOp::FMax => zip_f32(a, b, f32::max),
        VAluOp::FMin => zip_f32(a, b, f32::min),
        VAluOp::CvtI2F => zip_lanes(a, b, |x, _| ((x as i32) as f32).to_bits()),
        VAluOp::CvtF2I => zip_lanes(a, b, |x, _| (f32::from_bits(x) as i32) as u32),
    }
}

/// Bit `l` of the result is `f(a[l], b[l])`.
#[inline(always)]
fn mask_lanes(a: &Lanes, b: &Lanes, f: impl Fn(u32, u32) -> bool) -> u64 {
    let mut m = 0u64;
    for l in 0..LANES {
        m |= (f(a[l], b[l]) as u64) << l;
    }
    m
}

/// Compares every lane pair after reinterpreting the lanes through
/// `view` (`as i32`, `f32::from_bits`).
#[inline(always)]
fn cmp_lanes<T: PartialOrd>(op: CmpOp, a: &Lanes, b: &Lanes, view: impl Fn(u32) -> T) -> u64 {
    match op {
        CmpOp::Eq => mask_lanes(a, b, |x, y| view(x) == view(y)),
        CmpOp::Ne => mask_lanes(a, b, |x, y| view(x) != view(y)),
        CmpOp::Lt => mask_lanes(a, b, |x, y| view(x) < view(y)),
        CmpOp::Le => mask_lanes(a, b, |x, y| view(x) <= view(y)),
        CmpOp::Gt => mask_lanes(a, b, |x, y| view(x) > view(y)),
        CmpOp::Ge => mask_lanes(a, b, |x, y| view(x) >= view(y)),
    }
}

/// Writes the lanes of `r` enabled in `exec` to `dst`: a plain copy
/// under a full mask, a branch-free blend otherwise.
#[inline]
fn commit(dst: &mut Lanes, r: &Lanes, exec: u64) {
    if exec == u64::MAX {
        *dst = *r;
        return;
    }
    for l in 0..LANES {
        let on = 0u32.wrapping_sub((exec >> l) as u32 & 1); // all ones iff lane l is active
        dst[l] = (r[l] & on) | (dst[l] & !on);
    }
}

fn compare<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn branch_taken(warp: &WarpState, cond: BranchCond) -> bool {
    match cond {
        BranchCond::SccZero => !warp.scc,
        BranchCond::SccNonZero => warp.scc,
        BranchCond::ExecZero => warp.exec == 0,
        BranchCond::ExecNonZero => warp.exec != 0,
        BranchCond::VccZero => warp.vcc == 0,
        BranchCond::VccNonZero => warp.vcc != 0,
    }
}

/// The per-lane byte addresses `sreg(base) + imm + offset[l]` (wrapping)
/// of a global access, with the coalesced lines of the active lanes
/// left in `lines`.
#[inline]
fn global_access(
    warp: &WarpState,
    base: Sreg,
    offset: Vreg,
    imm: u64,
    width: MemWidth,
    lines: &mut Vec<u64>,
) -> [u64; LANES] {
    let base = warp.sregs[base.index()].wrapping_add(imm);
    let offset = &warp.vregs[offset.index()];
    let mut addrs = [0u64; LANES];
    for l in 0..LANES {
        addrs[l] = base.wrapping_add(offset[l] as u64);
    }
    coalesce_lanes_into(lines, &addrs, warp.exec, width.bytes());
    addrs
}

/// The byte range of the LDS word at `v + imm`, unless it starts below
/// zero; the caller checks it against the allocation with `get`.
#[inline]
fn lds_word(v: u32, imm: i64) -> Option<std::ops::Range<usize>> {
    let start = usize::try_from(v as i64 + imm).ok()?;
    Some(start..start.checked_add(4)?)
}

fn fault(env: &LaunchEnv<'_>, pc: u32, kind: ExecFaultKind) -> SimError {
    SimError::ExecFault {
        warp: env.global_warp_id(),
        pc,
        fault: kind,
    }
}

fn lds_fault(env: &LaunchEnv<'_>, pc: u32, v: u32, imm: i64, lds_bytes: usize) -> SimError {
    fault(
        env,
        pc,
        ExecFaultKind::LdsOutOfBounds {
            addr: (v as i64 + imm) as u64,
            lds_bytes,
        },
    )
}

/// Executes one instruction of `warp`.
///
/// `lines` is a caller-owned scratch buffer for coalesced cache-line
/// addresses: on a [`StepEffect::Mem`] return it holds the access's
/// sorted, unique line addresses; on every other effect its contents
/// are unspecified. Reusing one buffer across calls keeps the
/// per-instruction hot path allocation-free.
///
/// # Errors
/// Returns [`SimError::ExecFault`] if the warp has already ended, the
/// PC is outside the program, an argument index is out of range, or an
/// LDS access falls outside the allocation — all indicate workload (or
/// deserialization) bugs, reported as typed errors so the harness can
/// isolate the faulting kernel.
pub fn step<M: DataMem>(
    warp: &mut WarpState,
    program: &Program,
    mem: &mut M,
    lds: &mut [u8],
    env: &LaunchEnv<'_>,
    lines: &mut Vec<u64>,
) -> Result<StepInfo, SimError> {
    let op = fetch(warp, program.decoded(), env)?;
    execute(warp, op, mem, lds, env, lines)
}

/// The first half of [`step`]: the decoded instruction `warp` is about
/// to execute. Callers that also need the instruction's static facts
/// (does a basic block start here?) fetch once and pass the result to
/// [`execute`].
///
/// # Errors
/// [`SimError::ExecFault`] if the warp has ended or its PC is outside
/// the program.
#[inline]
pub(crate) fn fetch<'p>(
    warp: &WarpState,
    ops: &'p [MicroOp],
    env: &LaunchEnv<'_>,
) -> Result<&'p MicroOp, SimError> {
    if warp.ended {
        return Err(fault(env, warp.pc, ExecFaultKind::EndedWarp));
    }
    ops.get(warp.pc as usize)
        .ok_or_else(|| fault(env, warp.pc, ExecFaultKind::PcOutOfRange { len: ops.len() }))
}

/// The second half of [`step`]: executes `op`, which [`fetch`] returned
/// for `warp`'s current PC.
pub(crate) fn execute<M: DataMem>(
    warp: &mut WarpState,
    op: &MicroOp,
    mem: &mut M,
    lds: &mut [u8],
    env: &LaunchEnv<'_>,
    lines: &mut Vec<u64>,
) -> Result<StepInfo, SimError> {
    let pc = warp.pc;
    let mut effect = StepEffect::Alu;
    let mut next_pc = pc + 1;

    match op.op {
        Op::SAlu { op, dst, a, b } => {
            let r = salu_eval(op, scalar_src(warp, a), scalar_src(warp, b));
            warp.sregs[dst.index()] = r;
        }
        Op::SCmp { op, a, b } => {
            warp.scc = compare(op, scalar_src(warp, a) as i64, scalar_src(warp, b) as i64);
        }
        Op::SLoadArg { dst, index } => {
            let Some(&arg) = env.args.get(index as usize) else {
                return Err(fault(
                    env,
                    pc,
                    ExecFaultKind::ArgOutOfRange {
                        index,
                        args: env.args.len(),
                    },
                ));
            };
            warp.sregs[dst.index()] = arg;
            effect = StepEffect::ArgLoad { index };
        }
        Op::SGetSpecial { dst, which } => {
            warp.sregs[dst.index()] = match which {
                SpecialReg::WgId => env.wg_id as u64,
                SpecialReg::WarpInWg => env.warp_in_wg as u64,
                SpecialReg::WarpsPerWg => env.warps_per_wg as u64,
                SpecialReg::NumWgs => env.num_wgs as u64,
                SpecialReg::GlobalWarpId => env.global_warp_id(),
            };
        }
        Op::SReadMask { dst, src } => {
            warp.sregs[dst.index()] = match src {
                MaskReg::Exec => warp.exec,
                MaskReg::Vcc => warp.vcc,
            };
        }
        Op::SWriteMask { dst, src } => {
            let v = scalar_src(warp, src);
            match dst {
                MaskReg::Exec => warp.exec = v,
                MaskReg::Vcc => warp.vcc = v,
            }
        }
        Op::SAndSaveExec { dst } => {
            warp.sregs[dst.index()] = warp.exec;
            warp.exec &= warp.vcc;
        }
        // Vector results are computed into a temporary from whole source
        // arrays and then committed, so a destination that aliases a
        // source sees the same values a lane-by-lane execution would.
        Op::VAlu { op, dst, a, b } => {
            let (mut buf_a, mut buf_b) = ([0; LANES], [0; LANES]);
            let r = valu_lanes(op, lanes(warp, a, &mut buf_a), lanes(warp, b, &mut buf_b));
            commit(&mut warp.vregs[dst.index()], &r, warp.exec);
        }
        Op::VFma { dst, a, b, c } => {
            let (mut buf_a, mut buf_b, mut buf_c) = ([0; LANES], [0; LANES], [0; LANES]);
            let a = lanes(warp, a, &mut buf_a);
            let b = lanes(warp, b, &mut buf_b);
            let c = lanes(warp, c, &mut buf_c);
            let mut r = [0u32; LANES];
            for l in 0..LANES {
                // Two roundings, as the encoded semantics say: never
                // `mul_add`.
                let p = f32::from_bits(a[l]) * f32::from_bits(b[l]);
                r[l] = (p + f32::from_bits(c[l])).to_bits();
            }
            commit(&mut warp.vregs[dst.index()], &r, warp.exec);
        }
        Op::VCmp { op, float, a, b } => {
            let (mut buf_a, mut buf_b) = ([0; LANES], [0; LANES]);
            let a = lanes(warp, a, &mut buf_a);
            let b = lanes(warp, b, &mut buf_b);
            let hits = if float {
                cmp_lanes(op, a, b, f32::from_bits)
            } else {
                cmp_lanes(op, a, b, |x| x as i32)
            };
            warp.vcc = hits & warp.exec;
        }
        Op::GlobalLoad {
            dst,
            base,
            offset,
            imm,
            width,
        } => {
            if warp.exec != 0 {
                let addrs = global_access(warp, base, offset, imm, width, lines);
                let dst = &mut warp.vregs[dst.index()];
                match width {
                    MemWidth::B8 => mem.gather::<1>(&addrs, warp.exec, dst),
                    MemWidth::B32 => mem.gather::<4>(&addrs, warp.exec, dst),
                }
                effect = StepEffect::Mem { write: false };
            }
        }
        Op::GlobalStore {
            src,
            base,
            offset,
            imm,
            width,
        } => {
            if warp.exec != 0 {
                let addrs = global_access(warp, base, offset, imm, width, lines);
                let src = &warp.vregs[src.index()];
                match width {
                    MemWidth::B8 => mem.scatter::<1>(&addrs, warp.exec, src),
                    MemWidth::B32 => mem.scatter::<4>(&addrs, warp.exec, src),
                }
                effect = StepEffect::Mem { write: true };
            }
        }
        Op::LdsLoad { dst, addr, imm } => {
            let addrs = warp.vregs[addr.index()]; // copied: `dst` may alias `addr`
            let dst = &mut warp.vregs[dst.index()];
            for lane in set_bits(warp.exec) {
                let Some(word) = lds_word(addrs[lane], imm).and_then(|r| lds.get(r)) else {
                    return Err(lds_fault(env, pc, addrs[lane], imm, lds.len()));
                };
                dst[lane] = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            }
            effect = StepEffect::Lds;
        }
        Op::LdsStore { src, addr, imm } => {
            let addrs = &warp.vregs[addr.index()];
            let src = &warp.vregs[src.index()];
            let lds_bytes = lds.len();
            for lane in set_bits(warp.exec) {
                let Some(word) = lds_word(addrs[lane], imm).and_then(|r| lds.get_mut(r)) else {
                    return Err(lds_fault(env, pc, addrs[lane], imm, lds_bytes));
                };
                word.copy_from_slice(&src[lane].to_le_bytes());
            }
            effect = StepEffect::Lds;
        }
        Op::Branch { target } => {
            next_pc = target;
        }
        Op::CBranch { cond, target } => {
            if branch_taken(warp, cond) {
                next_pc = target;
            }
        }
        Op::SBarrier => {
            effect = StepEffect::Barrier;
        }
        Op::SWaitcnt => {}
        Op::SEndpgm => {
            warp.ended = true;
            effect = StepEffect::End;
        }
    }

    warp.pc = next_pc;
    Ok(StepInfo {
        pc,
        class: op.class,
        slow: op.slow,
        effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::OverlayMem;
    use gpu_isa::{Inst, KernelBuilder, ScalarSrc, VectorSrc};
    use gpu_mem::{coalesce_lines, AddressSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn env(args: &[u64]) -> LaunchEnv<'_> {
        LaunchEnv {
            args,
            wg_id: 2,
            warp_in_wg: 1,
            warps_per_wg: 4,
            num_wgs: 8,
        }
    }

    fn run_to_end(program: &Program, mem: &mut AddressSpace, args: &[u64]) -> WarpState {
        let mut w = WarpState::new();
        let mut lds = vec![0u8; 1024];
        let mut lines = Vec::new();
        let e = env(args);
        for _ in 0..100_000 {
            let info = step(&mut w, program, mem, &mut lds, &e, &mut lines).unwrap();
            if info.effect == StepEffect::End {
                return w;
            }
        }
        panic!("program did not terminate");
    }

    #[test]
    fn scalar_arithmetic() {
        let mut kb = KernelBuilder::new("t");
        let s = kb.sreg();
        kb.smov(s, 10i64);
        kb.salu(SAluOp::Mul, s, s, 7i64);
        kb.salu(SAluOp::Sub, s, s, 5i64);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        assert_eq!(w.sregs[s.index()], 65);
    }

    /// One lane of [`valu_lanes`] over broadcast operands.
    fn valu1(op: VAluOp, a: u32, b: u32) -> u32 {
        valu_lanes(op, &[a; LANES], &[b; LANES])[LANES - 1]
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(salu_eval(SAluOp::Div, 5, 0), 0);
        assert_eq!(salu_eval(SAluOp::Rem, 5, 0), 0);
        assert_eq!(valu1(VAluOp::Div, 5, 0), 0);
        assert_eq!(valu1(VAluOp::Rem, 5, 0), 0);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = 1.5f32.to_bits();
        let b = 2.0f32.to_bits();
        assert_eq!(f32::from_bits(valu1(VAluOp::FAdd, a, b)), 3.5);
        assert_eq!(f32::from_bits(valu1(VAluOp::FMul, a, b)), 3.0);
        assert_eq!(valu1(VAluOp::CvtF2I, 3.7f32.to_bits(), 0), 3);
        assert_eq!(f32::from_bits(valu1(VAluOp::CvtI2F, -2i32 as u32, 0)), -2.0);
    }

    #[test]
    fn special_registers() {
        let mut kb = KernelBuilder::new("t");
        let a = kb.sreg();
        let b = kb.sreg();
        kb.special(a, SpecialReg::WgId);
        kb.special(b, SpecialReg::GlobalWarpId);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        assert_eq!(w.sregs[a.index()], 2);
        assert_eq!(w.sregs[b.index()], 2 * 4 + 1);
    }

    #[test]
    fn arg_loads() {
        let mut kb = KernelBuilder::new("t");
        let s = kb.sreg();
        kb.load_arg(s, 1);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[7, 0xfeed]);
        assert_eq!(w.sregs[s.index()], 0xfeed);
    }

    #[test]
    fn global_memory_roundtrip_and_coalescing() {
        // Each lane stores its lane id at buf + 4*lane, then loads it back.
        let mut kb = KernelBuilder::new("t");
        let buf = kb.sreg();
        kb.load_arg(buf, 0);
        let off = kb.vreg();
        kb.valu(VAluOp::Shl, off, VectorSrc::LaneId, VectorSrc::Imm(2));
        let v = kb.vreg();
        kb.vmov(v, VectorSrc::LaneId);
        kb.global_store(v, buf, off, 0, MemWidth::B32);
        let r = kb.vreg();
        kb.global_load(r, buf, off, 0, MemWidth::B32);
        let p = kb.finish().unwrap();

        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![0u8; 16];
        let mut lines = Vec::new();
        let args = [0x10000u64];
        let e = env(&args);
        // step: load_arg, shl, mov
        for _ in 0..3 {
            step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap();
        }
        let st = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap();
        match st.effect {
            StepEffect::Mem { write } => {
                assert!(write);
                // 64 lanes * 4B = 256B = 4 lines, left in the scratch
                assert_eq!(lines.len(), 4);
            }
            other => panic!("expected store effect, got {other:?}"),
        }
        let ld = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap();
        assert!(matches!(ld.effect, StepEffect::Mem { write: false }));
        assert_eq!(lines.len(), 4);
        for lane in 0..LANES {
            assert_eq!(w.vregs[r.index()][lane], lane as u32);
            assert_eq!(mem.read_u32(0x10000 + 4 * lane as u64), lane as u32);
        }
    }

    #[test]
    fn exec_mask_disables_lanes() {
        let mut kb = KernelBuilder::new("t");
        let v = kb.vreg();
        kb.vmov(v, VectorSrc::Imm(1));
        // only lanes < 8 active for the next op
        kb.vcmp(CmpOp::Lt, VectorSrc::LaneId, VectorSrc::Imm(8), false);
        kb.if_vcc(|kb| {
            kb.vmov(v, VectorSrc::Imm(9));
        });
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        for lane in 0..LANES {
            let expect = if lane < 8 { 9 } else { 1 };
            assert_eq!(w.vregs[v.index()][lane], expect, "lane {lane}");
        }
        // exec restored
        assert_eq!(w.exec, u64::MAX);
    }

    #[test]
    fn if_else_covers_both_sides() {
        let mut kb = KernelBuilder::new("t");
        let v = kb.vreg();
        kb.vcmp(CmpOp::Lt, VectorSrc::LaneId, VectorSrc::Imm(32), false);
        kb.if_vcc_else(
            |kb| {
                kb.vmov(v, VectorSrc::Imm(100));
            },
            |kb| {
                kb.vmov(v, VectorSrc::Imm(200));
            },
        );
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        for lane in 0..LANES {
            let expect = if lane < 32 { 100 } else { 200 };
            assert_eq!(w.vregs[v.index()][lane], expect, "lane {lane}");
        }
        assert_eq!(w.exec, u64::MAX);
    }

    #[test]
    fn lane_while_iterates_per_lane() {
        // v = lane_id; while v > 0 { v -= 1; acc += 1 } → acc = lane_id
        let mut kb = KernelBuilder::new("t");
        let v = kb.vreg();
        let acc = kb.vreg();
        kb.vmov(v, VectorSrc::LaneId);
        kb.vmov(acc, VectorSrc::Imm(0));
        kb.lane_while(
            |kb| {
                kb.vcmp(CmpOp::Gt, VectorSrc::Reg(v), VectorSrc::Imm(0), false);
            },
            |kb| {
                kb.valu(VAluOp::Sub, v, VectorSrc::Reg(v), VectorSrc::Imm(1));
                kb.valu(VAluOp::Add, acc, VectorSrc::Reg(acc), VectorSrc::Imm(1));
            },
        );
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        for lane in 0..LANES {
            assert_eq!(w.vregs[acc.index()][lane], lane as u32, "lane {lane}");
        }
        assert_eq!(w.exec, u64::MAX);
    }

    #[test]
    fn for_uniform_counts() {
        let mut kb = KernelBuilder::new("t");
        let i = kb.sreg();
        let acc = kb.sreg();
        kb.smov(acc, 0i64);
        kb.for_uniform(i, 3i64, 10i64, |kb| {
            kb.salu(SAluOp::Add, acc, acc, ScalarSrc::Reg(i));
        });
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        assert_eq!(w.sregs[acc.index()], (3..10).sum::<u64>());
    }

    #[test]
    fn lds_roundtrip() {
        let mut kb = KernelBuilder::new("t");
        let addr = kb.vreg();
        kb.valu(VAluOp::Shl, addr, VectorSrc::LaneId, VectorSrc::Imm(2));
        let v = kb.vreg();
        kb.valu(VAluOp::Mul, v, VectorSrc::LaneId, VectorSrc::Imm(3));
        kb.lds_store(v, addr, 0);
        let r = kb.vreg();
        kb.lds_load(r, addr, 0);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![0u8; 64 * 4];
        let mut lines = Vec::new();
        let args: [u64; 0] = [];
        let e = env(&args);
        while !w.ended {
            step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap();
        }
        for lane in 0..LANES {
            assert_eq!(w.vregs[r.index()][lane], 3 * lane as u32);
        }
    }

    #[test]
    fn byte_memory_access() {
        let mut kb = KernelBuilder::new("t");
        let buf = kb.sreg();
        kb.load_arg(buf, 0);
        let off = kb.vreg();
        kb.vmov(off, VectorSrc::LaneId);
        let v = kb.vreg();
        kb.valu(VAluOp::Add, v, VectorSrc::LaneId, VectorSrc::Imm(0x41));
        kb.global_store(v, buf, off, 0, MemWidth::B8);
        let r = kb.vreg();
        kb.global_load(r, buf, off, 0, MemWidth::B8);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[0x2000]);
        assert_eq!(mem.read_u8(0x2000), 0x41);
        assert_eq!(w.vregs[r.index()][1], 0x42);
    }

    #[test]
    fn stepping_ended_warp_is_typed_fault() {
        let p = KernelBuilder::new("t").finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![];
        let mut lines = Vec::new();
        let args: [u64; 0] = [];
        let e = env(&args);
        step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap(); // endpgm
        let err = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap_err();
        assert!(matches!(
            err,
            SimError::ExecFault {
                fault: ExecFaultKind::EndedWarp,
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_argument_is_typed_fault() {
        let mut kb = KernelBuilder::new("t");
        let s = kb.sreg();
        kb.load_arg(s, 3);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![];
        let mut lines = Vec::new();
        let args = [1u64];
        let e = env(&args);
        let err = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap_err();
        assert!(matches!(
            err,
            SimError::ExecFault {
                pc: 0,
                fault: ExecFaultKind::ArgOutOfRange { index: 3, args: 1 },
                ..
            }
        ));
    }

    #[test]
    fn lds_access_out_of_bounds_is_typed_fault() {
        let mut kb = KernelBuilder::new("t");
        let addr = kb.vreg();
        kb.vmov(addr, VectorSrc::Imm(0));
        let v = kb.vreg();
        kb.lds_load(v, addr, 0);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![0u8; 2]; // too small for a 4-byte access
        let mut lines = Vec::new();
        let args: [u64; 0] = [];
        let e = env(&args);
        step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap(); // vmov
        let err = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap_err();
        assert!(matches!(
            err,
            SimError::ExecFault {
                fault: ExecFaultKind::LdsOutOfBounds { lds_bytes: 2, .. },
                ..
            }
        ));
    }

    /// `vmov addr, 0; lds_{load,store} v, addr, imm` over `lds_bytes`
    /// of LDS; returns the second step's result.
    fn lds_access(store: bool, imm: i32, lds_bytes: usize) -> Result<StepInfo, SimError> {
        let mut kb = KernelBuilder::new("t");
        let addr = kb.vreg();
        kb.vmov(addr, VectorSrc::Imm(0));
        let v = kb.vreg();
        if store {
            kb.lds_store(v, addr, imm);
        } else {
            kb.lds_load(v, addr, imm);
        }
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        let mut lds = vec![0u8; lds_bytes];
        let mut lines = Vec::new();
        let e = env(&[]);
        step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap(); // vmov
        step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines)
    }

    #[test]
    fn lds_access_below_zero_is_typed_fault() {
        // `0 + imm` in -4..=-1 used to wrap to the top of the address
        // space, pass the `a + 4 > len` check by overflow and panic on
        // the index; further below zero was caught only by luck.
        for store in [false, true] {
            for imm in [-1, -3, -4, -5, i32::MIN] {
                let err = lds_access(store, imm, 64).unwrap_err();
                assert!(
                    matches!(
                        err,
                        SimError::ExecFault {
                            pc: 1,
                            fault: ExecFaultKind::LdsOutOfBounds { addr, lds_bytes: 64 },
                            ..
                        } if addr == imm as i64 as u64
                    ),
                    "store={store} imm={imm}: {err:?}"
                );
            }
            // the last word is in range, one byte further is not
            assert_eq!(lds_access(store, 60, 64).unwrap().effect, StepEffect::Lds);
            assert!(lds_access(store, 61, 64).is_err());
        }
    }

    #[test]
    fn masked_out_memory_access_is_pure_alu() {
        let mut kb = KernelBuilder::new("t");
        let buf = kb.sreg();
        kb.load_arg(buf, 0);
        let off = kb.vreg();
        let dst = kb.vreg();
        kb.global_load(dst, buf, off, 0, MemWidth::B32);
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let mut w = WarpState::new();
        w.exec = 0; // all lanes off
        let mut lds = vec![];
        let mut lines = Vec::new();
        let args = [64u64];
        let e = env(&args);
        step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap(); // arg
        let info = step(&mut w, &p, &mut mem, &mut lds, &e, &mut lines).unwrap();
        assert_eq!(info.effect, StepEffect::Alu);
    }

    #[test]
    fn sreg_broadcast_into_vector() {
        let mut kb = KernelBuilder::new("t");
        let s = kb.sreg();
        kb.smov(s, 0xabcd_ef01_2345_6789u64 as i64);
        let v = kb.vreg();
        kb.vmov(v, VectorSrc::Sreg(s));
        let p = kb.finish().unwrap();
        let mut mem = AddressSpace::new();
        let w = run_to_end(&p, &mut mem, &[]);
        // only the low 32 bits broadcast
        assert_eq!(w.vregs[v.index()][17], 0x2345_6789);
    }

    // ---- the lane-array interpreter against a per-lane oracle ----
    //
    // `valu_eval` / `vector_src` / `oracle_vector` are the interpreter
    // this file had before the lane-array rewrite: one `match` per lane
    // on the *encoded* instruction. They share no code with
    // `valu_lanes` / `cmp_lanes` / `lanes` / `commit` or with the
    // decoder, so agreement checks all of them.

    fn vector_src(warp: &WarpState, s: VectorSrc, lane: usize) -> u32 {
        match s {
            VectorSrc::Reg(r) => warp.vregs[r.index()][lane],
            VectorSrc::Sreg(r) => warp.sregs[r.index()] as u32,
            VectorSrc::Imm(v) => v,
            VectorSrc::ImmF32(f) => f.to_bits(),
            VectorSrc::LaneId => lane as u32,
        }
    }

    fn valu_eval(op: VAluOp, a: u32, b: u32) -> u32 {
        match op {
            VAluOp::Add => a.wrapping_add(b),
            VAluOp::Sub => a.wrapping_sub(b),
            VAluOp::Mul => a.wrapping_mul(b),
            VAluOp::Div => a.checked_div(b).unwrap_or(0),
            VAluOp::Rem => a.checked_rem(b).unwrap_or(0),
            VAluOp::Shl => a << (b & 31),
            VAluOp::Shr => a >> (b & 31),
            VAluOp::Ashr => ((a as i32) >> (b & 31)) as u32,
            VAluOp::And => a & b,
            VAluOp::Or => a | b,
            VAluOp::Xor => a ^ b,
            VAluOp::Min => a.min(b),
            VAluOp::Max => a.max(b),
            VAluOp::IMin => ((a as i32).min(b as i32)) as u32,
            VAluOp::IMax => ((a as i32).max(b as i32)) as u32,
            VAluOp::Mov => a,
            VAluOp::FAdd => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            VAluOp::FSub => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
            VAluOp::FMul => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
            VAluOp::FDiv => (f32::from_bits(a) / f32::from_bits(b)).to_bits(),
            VAluOp::FMax => f32::from_bits(a).max(f32::from_bits(b)).to_bits(),
            VAluOp::FMin => f32::from_bits(a).min(f32::from_bits(b)).to_bits(),
            VAluOp::CvtI2F => ((a as i32) as f32).to_bits(),
            VAluOp::CvtF2I => (f32::from_bits(a) as i32) as u32,
        }
    }

    /// Executes a `VAlu` / `VFma` / `VCmp` lane by lane, in place.
    fn oracle_vector(warp: &mut WarpState, inst: &Inst) {
        let active = |warp: &WarpState, lane: usize| warp.exec & (1u64 << lane) != 0;
        match *inst {
            Inst::VAlu { op, dst, a, b } => {
                for lane in 0..LANES {
                    if active(warp, lane) {
                        let r = valu_eval(op, vector_src(warp, a, lane), vector_src(warp, b, lane));
                        warp.vregs[dst.index()][lane] = r;
                    }
                }
            }
            Inst::VFma { dst, a, b, c } => {
                for lane in 0..LANES {
                    if active(warp, lane) {
                        let fa = f32::from_bits(vector_src(warp, a, lane));
                        let fb = f32::from_bits(vector_src(warp, b, lane));
                        let fc = f32::from_bits(vector_src(warp, c, lane));
                        warp.vregs[dst.index()][lane] = (fa * fb + fc).to_bits();
                    }
                }
            }
            Inst::VCmp { op, a, b, float } => {
                let mut vcc = 0u64;
                for lane in 0..LANES {
                    if active(warp, lane) {
                        let va = vector_src(warp, a, lane);
                        let vb = vector_src(warp, b, lane);
                        let hit = if float {
                            compare(op, f32::from_bits(va), f32::from_bits(vb))
                        } else {
                            compare(op, va as i32, vb as i32)
                        };
                        vcc |= (hit as u64) << lane;
                    }
                }
                warp.vcc = vcc;
            }
            ref other => panic!("not a vector op: {other:?}"),
        }
    }

    const VALU_OPS: [VAluOp; 24] = [
        VAluOp::Add,
        VAluOp::Sub,
        VAluOp::Mul,
        VAluOp::Div,
        VAluOp::Rem,
        VAluOp::Shl,
        VAluOp::Shr,
        VAluOp::Ashr,
        VAluOp::And,
        VAluOp::Or,
        VAluOp::Xor,
        VAluOp::Min,
        VAluOp::Max,
        VAluOp::IMin,
        VAluOp::IMax,
        VAluOp::Mov,
        VAluOp::FAdd,
        VAluOp::FSub,
        VAluOp::FMul,
        VAluOp::FDiv,
        VAluOp::FMax,
        VAluOp::FMin,
        VAluOp::CvtI2F,
        VAluOp::CvtF2I,
    ];

    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Values where integer and float ops have their corners: zero
    /// divisors, shift counts at and past 32, the i32 extremes, ±0, ±1,
    /// ±inf, quiet / signalling / negative NaNs, denormals, the largest
    /// finite float and floats beyond the i32 range.
    const CORNERS: [u32; 22] = [
        0,
        1,
        31,
        32,
        33,
        u32::MAX,
        0x8000_0000,
        0x7fff_ffff,
        0x3f80_0000,
        0xbf80_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7fc0_0000,
        0x7fa0_0001,
        0xffc0_0123,
        0x0000_0001,
        0x807f_ffff,
        0x7f7f_ffff,
        0x4f32_d05e, // 3e9
        0xcf32_d05e, // -3e9
        0x4f00_0000, // 2^31
        0xcf00_0000, // -2^31
    ];

    fn lane_value(rng: &mut StdRng) -> u32 {
        if rng.gen_range(0u32..3) == 0 {
            CORNERS[rng.gen_range(0..CORNERS.len())]
        } else {
            rng.gen()
        }
    }

    /// A warp whose first vector and scalar registers hold seeded lane
    /// values (corners mixed with uniform bits).
    fn seeded_warp(rng: &mut StdRng) -> WarpState {
        let mut w = WarpState::new();
        for r in 0..6 {
            for lane in 0..LANES {
                w.vregs[r][lane] = lane_value(rng);
            }
            w.sregs[r] = (rng.gen::<u64>() << 32) | lane_value(rng) as u64;
        }
        w.vcc = rng.gen();
        w
    }

    fn exec_masks(rng: &mut StdRng) -> [u64; 7] {
        [
            0,
            u64::MAX,
            1 << rng.gen_range(0u32..64),
            0xaaaa_aaaa_aaaa_aaaa,
            0x5555_5555_5555_5555,
            rng.gen(),
            rng.gen::<u64>() & rng.gen::<u64>(),
        ]
    }

    /// Every operand shape; registers v1..v3 so v0 is a non-aliasing
    /// destination.
    fn operand_shapes(rng: &mut StdRng, reg: u8) -> [VectorSrc; 6] {
        [
            VectorSrc::Reg(Vreg::new(reg)),
            VectorSrc::Reg(Vreg::new(reg % 3 + 1)),
            VectorSrc::Sreg(Sreg::new(reg)),
            VectorSrc::Imm(lane_value(rng)),
            VectorSrc::ImmF32(f32::from_bits(lane_value(rng))),
            VectorSrc::LaneId,
        ]
    }

    /// A destination that aliases `src` when it is a register (else v0).
    fn alias_of(src: VectorSrc) -> Vreg {
        match src {
            VectorSrc::Reg(r) => r,
            _ => Vreg::new(0),
        }
    }

    /// Steps `inst` on a copy of `warp` and checks the whole
    /// architectural state against the per-lane oracle. Where the
    /// result is a float, two NaNs count as equal: which payload
    /// survives when two NaNs meet depends on the operand order the
    /// compiler picked, which Rust leaves open.
    fn check_against_oracle(warp: &WarpState, inst: Inst, float_result: bool) {
        let program = Program::from_insts("t", vec![inst, Inst::SEndpgm]).unwrap();
        let mut got = warp.clone();
        let mut mem = AddressSpace::new();
        let info = step(
            &mut got,
            &program,
            &mut mem,
            &mut [],
            &env(&[]),
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(info.effect, StepEffect::Alu);
        assert_eq!(info.class, inst.class());
        let mut want = warp.clone();
        oracle_vector(&mut want, &inst);
        assert_eq!(got.vcc, want.vcc, "{inst:?} exec={:#x}", warp.exec);
        assert_eq!(got.exec, want.exec);
        assert_eq!(got.sregs, want.sregs);
        for (r, (g, w)) in got.vregs.iter().zip(want.vregs.iter()).enumerate() {
            for lane in 0..LANES {
                let both_nan = float_result
                    && f32::from_bits(g[lane]).is_nan()
                    && f32::from_bits(w[lane]).is_nan();
                assert!(
                    g[lane] == w[lane] || both_nan,
                    "{inst:?} exec={:#x} v{r}[{lane}]: got {:#x}, oracle {:#x}",
                    warp.exec,
                    g[lane],
                    w[lane]
                );
            }
        }
    }

    #[test]
    fn valu_lane_arrays_match_the_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        let mut warp = seeded_warp(&mut rng);
        for (n, op) in VALU_OPS.into_iter().enumerate() {
            let float_result = op.is_float() && op != VAluOp::CvtF2I;
            for a in operand_shapes(&mut rng, 1) {
                for b in operand_shapes(&mut rng, 2) {
                    for (m, exec) in exec_masks(&mut rng).into_iter().enumerate() {
                        warp.exec = exec;
                        let dst = [Vreg::new(0), alias_of(a), alias_of(b)][(n + m) % 3];
                        check_against_oracle(&warp, Inst::VAlu { op, dst, a, b }, float_result);
                    }
                }
            }
        }
    }

    #[test]
    fn vcmp_lane_arrays_match_the_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xc0de);
        let mut warp = seeded_warp(&mut rng);
        // Equal lanes must occur for Eq/Le/Ge to mean anything.
        warp.vregs[2] = warp.vregs[1];
        for lane in (0..LANES).step_by(3) {
            warp.vregs[2][lane] = lane_value(&mut rng);
        }
        for op in CMP_OPS {
            for float in [false, true] {
                for a in operand_shapes(&mut rng, 1) {
                    for b in operand_shapes(&mut rng, 2) {
                        for exec in exec_masks(&mut rng) {
                            warp.exec = exec;
                            check_against_oracle(&warp, Inst::VCmp { op, a, b, float }, false);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn vfma_lane_arrays_match_the_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xf3a);
        let mut warp = seeded_warp(&mut rng);
        let mut n = 0;
        for a in operand_shapes(&mut rng, 1) {
            for b in operand_shapes(&mut rng, 2) {
                for c in operand_shapes(&mut rng, 3) {
                    for exec in exec_masks(&mut rng) {
                        warp.exec = exec;
                        n += 1;
                        let dst = [Vreg::new(0), alias_of(a), alias_of(b), alias_of(c)][n % 4];
                        check_against_oracle(&warp, Inst::VFma { dst, a, b, c }, true);
                    }
                }
            }
        }
    }

    #[test]
    fn fma_rounds_twice() {
        // a*b = 1 - 2^-46 rounds to 1.0 before the add; a fused
        // multiply-add would keep the -2^-46.
        let a = 1.0f32 + f32::EPSILON;
        let b = 1.0f32 - f32::EPSILON;
        let mut w = WarpState::new();
        let inst = Inst::VFma {
            dst: Vreg::new(0),
            a: VectorSrc::ImmF32(a),
            b: VectorSrc::ImmF32(b),
            c: VectorSrc::ImmF32(-1.0),
        };
        let p = Program::from_insts("t", vec![inst, Inst::SEndpgm]).unwrap();
        let mut mem = AddressSpace::new();
        step(&mut w, &p, &mut mem, &mut [], &env(&[]), &mut Vec::new()).unwrap();
        assert_eq!(f32::from_bits(w.vregs[0][9]), a * b - 1.0);
        assert_ne!(f32::from_bits(w.vregs[0][9]), a.mul_add(b, -1.0));
    }

    const GLOBAL_BASE: u64 = 0x4_0000;
    /// Bytes either side of `GLOBAL_BASE` the address patterns stay in.
    const GLOBAL_SPAN: u64 = 3 * 4096;

    /// Per-lane byte offsets from `GLOBAL_BASE` (which is page- and
    /// line-aligned) for every access shape the gather, scatter and
    /// coalescer treat differently.
    fn offset_patterns(rng: &mut StdRng) -> Vec<(&'static str, [u32; LANES])> {
        let lane = |f: &mut dyn FnMut(u32) -> u32| std::array::from_fn(|l| f(l as u32));
        vec![
            ("unit stride", lane(&mut |l| 4 * l)),
            // lanes 0..=1 sit below a page boundary, lane 2 straddles
            // it (for 4-byte accesses), the rest lie beyond it
            ("crosses a page", lane(&mut |l| 4096 - 10 + 4 * l)),
            // every lane straddles a line boundary
            ("straddles lines", lane(&mut |l| 62 + 64 * l)),
            ("descending", lane(&mut |l| 4 * (LANES as u32 - 1 - l))),
            ("one address", lane(&mut |_| 1234)),
            ("duplicate runs", lane(&mut |l| 4 * (l / 4))),
            ("page ping-pong", lane(&mut |l| (l % 2) * 4096 + 4 * l)),
            (
                "random",
                lane(&mut |_| rng.gen_range(0..GLOBAL_SPAN as u32 - 4)),
            ),
        ]
    }

    /// Fills the window the patterns can touch with seeded bytes.
    fn seeded_memory(rng: &mut StdRng) -> AddressSpace {
        let mut mem = AddressSpace::new();
        for a in (GLOBAL_BASE - 4096..GLOBAL_BASE + GLOBAL_SPAN).step_by(4) {
            // leave some pages untouched: they must read zero
            if (a >> 12) % 3 != 1 {
                mem.write_u32(a, rng.gen());
            }
        }
        mem
    }

    /// Runs one global load and one global store of every pattern,
    /// width and mask on `M`s from `make`, against the same accesses
    /// done one `read_*` / `write_*` per lane.
    fn check_global_access<M: DataMem>(make: impl Fn() -> M, rng: &mut StdRng) {
        let (dst, base, off, src) = (Vreg::new(0), Sreg::new(0), Vreg::new(1), Vreg::new(2));
        let e = env(&[]);
        for (name, offsets) in offset_patterns(rng) {
            for width in [MemWidth::B8, MemWidth::B32] {
                for imm in [0, -16] {
                    for exec in exec_masks(rng) {
                        let what = format!("{name} {width:?} imm={imm} exec={exec:#x}");
                        let mut warp = seeded_warp(rng);
                        warp.exec = exec;
                        warp.sregs[base.index()] = GLOBAL_BASE;
                        warp.vregs[off.index()] = offsets;
                        let addr = |l: usize| {
                            GLOBAL_BASE.wrapping_add(imm as i64 as u64) + offsets[l] as u64
                        };
                        let active: Vec<usize> = set_bits(exec).collect();
                        let want_lines =
                            coalesce_lines(active.iter().map(|&l| addr(l)), width.bytes());
                        let mut lines = vec![99]; // stale contents must not leak

                        // load, with `dst` aliasing the offsets half the time
                        let dst = if exec & 2 == 0 { dst } else { off };
                        let load = Inst::GlobalLoad {
                            dst,
                            base,
                            offset: off,
                            imm,
                            width,
                        };
                        let p = Program::from_insts("t", vec![load, Inst::SEndpgm]).unwrap();
                        let mut mem = make();
                        let mut got = warp.clone();
                        let info = step(&mut got, &p, &mut mem, &mut [], &e, &mut lines).unwrap();
                        let mut want = warp.clone();
                        for &l in &active {
                            want.vregs[dst.index()][l] = match width {
                                MemWidth::B8 => mem.read_u8(addr(l)) as u32,
                                MemWidth::B32 => mem.read_u32(addr(l)),
                            };
                        }
                        assert_eq!(got.vregs, want.vregs, "load {what}");
                        if active.is_empty() {
                            assert_eq!(info.effect, StepEffect::Alu, "load {what}");
                        } else {
                            assert_eq!(
                                info.effect,
                                StepEffect::Mem { write: false },
                                "load {what}"
                            );
                            assert_eq!(lines, want_lines, "load {what}");
                        }

                        // store
                        let store = Inst::GlobalStore {
                            src,
                            base,
                            offset: off,
                            imm,
                            width,
                        };
                        let p = Program::from_insts("t", vec![store, Inst::SEndpgm]).unwrap();
                        let (mut got_mem, mut want_mem) = (make(), make());
                        let mut w = warp.clone();
                        let info = step(&mut w, &p, &mut got_mem, &mut [], &e, &mut lines).unwrap();
                        for &l in &active {
                            let v = warp.vregs[src.index()][l];
                            match width {
                                MemWidth::B8 => want_mem.write_u8(addr(l), v as u8),
                                MemWidth::B32 => want_mem.write_u32(addr(l), v),
                            }
                        }
                        for a in GLOBAL_BASE - 64..GLOBAL_BASE + GLOBAL_SPAN + 64 {
                            assert_eq!(
                                got_mem.read_u8(a),
                                want_mem.read_u8(a),
                                "store {what} @{a:#x}"
                            );
                        }
                        if !active.is_empty() {
                            assert_eq!(
                                info.effect,
                                StepEffect::Mem { write: true },
                                "store {what}"
                            );
                            assert_eq!(lines, want_lines, "store {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn global_access_on_address_space_matches_per_lane_access() {
        let mut rng = StdRng::seed_from_u64(0x9a7e);
        let base = seeded_memory(&mut rng);
        check_global_access(|| base.clone(), &mut rng);
    }

    #[test]
    fn global_access_on_overlay_matches_per_lane_access() {
        let mut rng = StdRng::seed_from_u64(0x0e71a);
        let base = seeded_memory(&mut rng);
        // clean: loads take the base's page-run gather
        check_global_access(|| OverlayMem::new(&base), &mut rng);
        // dirty: bytes shadowed inside and across the words loads read
        check_global_access(
            || {
                let mut ov = OverlayMem::new(&base);
                for a in (GLOBAL_BASE - 8..GLOBAL_BASE + GLOBAL_SPAN).step_by(7) {
                    ov.write_u8(a, (a as u8) ^ 0x5a);
                }
                ov
            },
            &mut rng,
        );
    }
}
