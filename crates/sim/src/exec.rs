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
use gpu_mem::{coalesce_access_into, set_bits, WarpAccess};

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

/// The `W`-byte global access at `sreg(base) + imm + offset[l]`
/// (wrapping) in every active lane, resolved once into its shape, with
/// its coalesced lines left in `lines` when there is a buffer. The
/// per-lane addresses are built in `addrs`, which a Lanes access
/// borrows.
#[inline]
fn global_access<'a, const W: usize>(
    warp: &WarpState,
    base: Sreg,
    offset: Vreg,
    imm: u64,
    addrs: &'a mut [u64; LANES],
    lines: Option<&mut Vec<u64>>,
) -> WarpAccess<'a> {
    let base = warp.sregs[base.index()].wrapping_add(imm);
    let offset = &warp.vregs[offset.index()];
    for l in 0..LANES {
        addrs[l] = base.wrapping_add(offset[l] as u64);
    }
    let access = WarpAccess::resolve(addrs, warp.exec, W as u64);
    #[cfg(test)]
    tests::tally(access, warp.exec);
    if let Some(lines) = lines {
        coalesce_access_into(lines, access, W as u64);
    }
    access
}

/// `dst = mem[addrs]` for the active lanes of a `W`-byte global load.
#[inline]
fn global_load<const W: usize, M: DataMem>(
    warp: &mut WarpState,
    mem: &M,
    dst: Vreg,
    base: Sreg,
    offset: Vreg,
    imm: u64,
    lines: Option<&mut Vec<u64>>,
) {
    let mut addrs = [0u64; LANES];
    let access = global_access::<W>(warp, base, offset, imm, &mut addrs, lines);
    mem.load::<W>(access, &mut warp.vregs[dst.index()]);
}

/// `mem[addrs] = src` for the active lanes of a `W`-byte global store.
#[inline]
fn global_store<const W: usize, M: DataMem>(
    warp: &WarpState,
    mem: &mut M,
    src: Vreg,
    base: Sreg,
    offset: Vreg,
    imm: u64,
    lines: Option<&mut Vec<u64>>,
) {
    let mut addrs = [0u64; LANES];
    let access = global_access::<W>(warp, base, offset, imm, &mut addrs, lines);
    mem.store::<W>(access, &warp.vregs[src.index()]);
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
    execute(warp, op, mem, lds, env, Some(lines))
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
/// for `warp`'s current PC. A global access leaves its lines in `lines`
/// as [`step`] does; functional execution, which times nothing, passes
/// no buffer and skips the coalescer.
pub(crate) fn execute<M: DataMem>(
    warp: &mut WarpState,
    op: &MicroOp,
    mem: &mut M,
    lds: &mut [u8],
    env: &LaunchEnv<'_>,
    lines: Option<&mut Vec<u64>>,
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
                match width {
                    MemWidth::B8 => global_load::<1, M>(warp, mem, dst, base, offset, imm, lines),
                    MemWidth::B32 => global_load::<4, M>(warp, mem, dst, base, offset, imm, lines),
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
                match width {
                    MemWidth::B8 => global_store::<1, M>(warp, mem, src, base, offset, imm, lines),
                    MemWidth::B32 => global_store::<4, M>(warp, mem, src, base, offset, imm, lines),
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
    use gpu_mem::{coalesce_lines, AddressSpace, LINE_BYTES};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    const UNIT: usize = 0;
    const UNIFORM: usize = 1;
    const LANES_SHAPE: usize = 2;

    /// Global accesses counted by [`tally`]: `[full EXEC, partial EXEC]`,
    /// then `[UNIT, UNIFORM, LANES_SHAPE]`.
    type Shapes = [[u64; 3]; 2];

    thread_local! {
        /// Global accesses executed on this thread, by mask and shape.
        static SHAPES: Cell<Shapes> = const { Cell::new([[0; 3]; 2]) };
    }

    /// Counts one global access of `global_access`.
    pub(super) fn tally(access: WarpAccess<'_>, exec: u64) {
        let shape = match access {
            WarpAccess::Unit(_) => UNIT,
            WarpAccess::Uniform(_) => UNIFORM,
            WarpAccess::Lanes { .. } => LANES_SHAPE,
        };
        let mut shapes = SHAPES.get();
        shapes[(exec != u64::MAX) as usize][shape] += 1;
        SHAPES.set(shapes);
    }

    /// `f`'s result, and the accesses [`tally`] counted while it ran on
    /// this thread.
    fn shapes_during<R>(f: impl FnOnce() -> R) -> (R, Shapes) {
        let before = SHAPES.get();
        let r = f();
        let after = SHAPES.get();
        let shapes = std::array::from_fn(|m| std::array::from_fn(|s| after[m][s] - before[m][s]));
        (r, shapes)
    }

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

    /// A global access pattern: a name, the base address (before the
    /// immediate), per-lane byte offsets from it, and the shape a full
    /// mask takes at widths `[B8, B32]`.
    type Pattern = (&'static str, u64, [u32; LANES], [usize; 2]);

    /// One pattern for every access shape the loads, stores and
    /// coalescer treat differently, and for each boundary between them.
    /// Most start at `GLOBAL_BASE`, which is page- and line-aligned.
    fn offset_patterns(rng: &mut StdRng) -> Vec<Pattern> {
        let lane = |f: &mut dyn FnMut(u32) -> u32| std::array::from_fn(|l| f(l as u32));
        let at = GLOBAL_BASE;
        let mut off_by_4 = lane(&mut |l| 4 * l);
        off_by_4[37] += 4;
        let mut one_differs = [1234; LANES];
        one_differs[63] = 1238;
        vec![
            ("unit stride", at, lane(&mut |l| 4 * l), [LANES_SHAPE, UNIT]),
            // every 16th word straddles a line, and (imm 0) the run's
            // last byte is the first of a line
            (
                "unit, unaligned",
                at,
                lane(&mut |l| 1 + 4 * l),
                [LANES_SHAPE, UNIT],
            ),
            // lanes 0..=1 sit below a page boundary, lane 2 straddles
            // it (for 4-byte accesses), the rest lie beyond it
            (
                "crosses a page",
                at,
                lane(&mut |l| 4096 - 10 + 4 * l),
                [LANES_SHAPE, UNIT],
            ),
            (
                "unit across a page",
                at,
                lane(&mut |l| 4096 - 128 + 4 * l),
                [LANES_SHAPE, UNIT],
            ),
            ("byte unit", at, lane(&mut |l| 1 + l), [UNIT, LANES_SHAPE]),
            (
                "byte unit across a page",
                at,
                lane(&mut |l| 4096 - 32 + l),
                [UNIT, LANES_SHAPE],
            ),
            ("unit but one lane off by 4", at, off_by_4, [LANES_SHAPE; 2]),
            // every lane straddles a line boundary
            (
                "straddles lines",
                at,
                lane(&mut |l| 62 + 64 * l),
                [LANES_SHAPE; 2],
            ),
            (
                "descending",
                at,
                lane(&mut |l| 4 * (LANES as u32 - 1 - l)),
                [LANES_SHAPE; 2],
            ),
            ("one address", at, [1234; LANES], [UNIFORM; 2]),
            (
                "one word straddling a page",
                at,
                [4094; LANES],
                [UNIFORM; 2],
            ),
            ("one word straddling a line", at, [62; LANES], [UNIFORM; 2]),
            (
                "uniform but one lane different",
                at,
                one_differs,
                [LANES_SHAPE; 2],
            ),
            (
                "duplicate runs",
                at,
                lane(&mut |l| 4 * (l / 4)),
                [LANES_SHAPE; 2],
            ),
            (
                "page ping-pong",
                at,
                lane(&mut |l| (l % 2) * 4096 + 4 * l),
                [LANES_SHAPE; 2],
            ),
            (
                "random",
                at,
                lane(&mut |_| rng.gen_range(0..GLOBAL_SPAN as u32 - 4)),
                [LANES_SHAPE; 2],
            ),
            // lane 32 (imm 0) or 36 (imm -16) wraps past the top of the
            // address space, so the run is not Unit
            (
                "wraps past the top",
                u64::MAX - 129,
                lane(&mut |l| 4 * l),
                [LANES_SHAPE; 2],
            ),
            (
                "one word at the top",
                u64::MAX - 1,
                [0; LANES],
                [UNIFORM; 2],
            ),
        ]
    }

    /// Fills the windows the patterns can touch with seeded bytes: around
    /// `GLOBAL_BASE` and either side of the top of the address space.
    fn seeded_memory(rng: &mut StdRng) -> AddressSpace {
        let mut mem = AddressSpace::new();
        for a in (GLOBAL_BASE - 4096..GLOBAL_BASE + GLOBAL_SPAN).step_by(4) {
            // leave some pages untouched: they must read zero
            if (a >> 12) % 3 != 1 {
                mem.write_u32(a, rng.gen());
            }
        }
        for a in (u64::MAX - 4095..u64::MAX)
            .step_by(4)
            .chain((0..4096).step_by(4))
        {
            mem.write_u32(a, rng.gen());
        }
        mem
    }

    /// Runs one global load and one global store of every pattern,
    /// width and mask on `M`s from `make`, against the same accesses
    /// done one `read_*` / `write_*` per lane.
    fn check_global_access<M: DataMem>(make: impl Fn() -> M, rng: &mut StdRng) {
        let (dst, base, off, src) = (Vreg::new(0), Sreg::new(0), Vreg::new(1), Vreg::new(2));
        let e = env(&[]);
        for (name, at, offsets, full_shapes) in offset_patterns(rng) {
            for (width, full_shape) in [MemWidth::B8, MemWidth::B32].into_iter().zip(full_shapes) {
                for imm in [0, -16] {
                    for exec in exec_masks(rng) {
                        let what = format!("{name} {width:?} imm={imm} exec={exec:#x}");
                        let mut warp = seeded_warp(rng);
                        warp.exec = exec;
                        warp.sregs[base.index()] = at;
                        warp.vregs[off.index()] = offsets;
                        let addr = |l: usize| {
                            at.wrapping_add(imm as i64 as u64)
                                .wrapping_add(offsets[l] as u64)
                        };
                        let active: Vec<usize> = set_bits(exec).collect();
                        let want_lines =
                            coalesce_lines(active.iter().map(|&l| addr(l)), width.bytes());
                        let mut want_shapes = [[0; 3]; 2];
                        match exec {
                            0 => {}
                            u64::MAX => want_shapes[0][full_shape] = 1,
                            _ => want_shapes[1][LANES_SHAPE] = 1,
                        }
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
                        let (info, shapes) = shapes_during(|| {
                            step(&mut got, &p, &mut mem, &mut [], &e, &mut lines).unwrap()
                        });
                        assert_eq!(shapes, want_shapes, "load shape {what}");
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
                        let (info, shapes) = shapes_during(|| {
                            step(&mut w, &p, &mut got_mem, &mut [], &e, &mut lines).unwrap()
                        });
                        assert_eq!(shapes, want_shapes, "store shape {what}");
                        for &l in &active {
                            let v = warp.vregs[src.index()][l];
                            match width {
                                MemWidth::B8 => want_mem.write_u8(addr(l), v as u8),
                                MemWidth::B32 => want_mem.write_u32(addr(l), v),
                            }
                        }
                        let window = at.wrapping_sub(80);
                        for a in (0..GLOBAL_SPAN + 144).map(|i| window.wrapping_add(i)) {
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
        // clean: loads take the base's bulk paths
        check_global_access(|| OverlayMem::new(&base), &mut rng);
        // dirty: bytes shadowed inside and across the words loads read,
        // on both sides of the top of the address space too
        check_global_access(
            || {
                let mut ov = OverlayMem::new(&base);
                let near_top = (u64::MAX - 300..=u64::MAX).chain(0..300);
                for a in (GLOBAL_BASE - 8..GLOBAL_BASE + GLOBAL_SPAN)
                    .chain(near_top)
                    .step_by(7)
                {
                    ov.write_u8(a, (a as u8) ^ 0x5a);
                }
                ov
            },
            &mut rng,
        );
    }

    /// A word at `u64::MAX - 1` wraps to address 0 — for its bytes, in
    /// every memory and every build (overflow checks on or off), and for
    /// its lines, which are the last line and line 0.
    #[test]
    fn a_word_at_the_top_of_the_address_space_wraps_in_every_build() {
        let mut kb = KernelBuilder::new("t");
        let buf = kb.sreg();
        kb.load_arg(buf, 0);
        let off = kb.vreg();
        kb.vmov(off, VectorSrc::Imm(0));
        let v = kb.vreg();
        kb.valu(
            VAluOp::Add,
            v,
            VectorSrc::LaneId,
            VectorSrc::Imm(0x1122_3300),
        );
        kb.global_store(v, buf, off, 0, MemWidth::B32);
        let r = kb.vreg();
        kb.global_load(r, buf, off, 0, MemWidth::B32);
        let p = kb.finish().unwrap();
        let top_line = u64::MAX / LINE_BYTES;

        fn run<M: DataMem>(p: &Program, mem: &mut M, r: Vreg, top_line: u64) {
            let (mut w, mut lines) = (WarpState::new(), Vec::new());
            let args = [u64::MAX - 1];
            let e = env(&args);
            for _ in 0..3 {
                step(&mut w, p, mem, &mut [], &e, &mut lines).unwrap();
            }
            let st = step(&mut w, p, mem, &mut [], &e, &mut lines).unwrap();
            assert_eq!(st.effect, StepEffect::Mem { write: true });
            assert_eq!(lines, [0, top_line]);
            // the last lane's value, low byte first, from u64::MAX - 1 on
            let bytes = [u64::MAX - 1, u64::MAX, 0, 1].map(|a| mem.read_u8(a));
            assert_eq!(bytes, [0x3f, 0x33, 0x22, 0x11]);
            let ld = step(&mut w, p, mem, &mut [], &e, &mut lines).unwrap();
            assert_eq!(ld.effect, StepEffect::Mem { write: false });
            assert_eq!(lines, [0, top_line]);
            assert_eq!(w.vregs[r.index()], [0x1122_333f; LANES]);
        }
        let base = AddressSpace::new();
        run(&p, &mut base.clone(), r, top_line);
        run(&p, &mut OverlayMem::new(&base), r, top_line);
    }

    /// Runs every warp of `launch` alone to its end on `mem` (barriers as
    /// no-ops); returns the global memory instructions executed and the
    /// shapes [`tally`] counted for them.
    fn global_accesses(launch: &gpu_isa::KernelLaunch, mem: &mut AddressSpace) -> (u64, Shapes) {
        shapes_during(|| {
            let mut executed = 0;
            let mut lds = vec![0u8; launch.lds_bytes.max(4) as usize];
            let mut lines = Vec::new();
            for wg_id in 0..launch.num_wgs {
                for warp_in_wg in 0..launch.warps_per_wg {
                    let e = LaunchEnv {
                        args: &launch.args,
                        wg_id,
                        warp_in_wg,
                        warps_per_wg: launch.warps_per_wg,
                        num_wgs: launch.num_wgs,
                    };
                    let mut w = WarpState::new();
                    let program = launch.kernel.program();
                    loop {
                        let info = step(&mut w, program, mem, &mut lds, &e, &mut lines).unwrap();
                        match info.effect {
                            StepEffect::End => break,
                            StepEffect::Mem { .. } => executed += 1,
                            _ => {}
                        }
                    }
                }
            }
            executed
        })
    }

    /// The deterministic witness for the bulk paths: every global access
    /// FIR makes is Unit or Uniform, none takes the per-lane path.
    #[test]
    fn fir_takes_no_per_lane_global_access() {
        let mut gpu = Default::default();
        let app: gpu_workloads::App = gpu_workloads::fir::build(&mut gpu, 256, 7);
        let mut mem = gpu.mem().clone();
        let (mut executed, mut shapes) = (0, [[0; 3]; 2]);
        for l in app.launches() {
            let (n, s) = global_accesses(&l.launch, &mut mem);
            executed += n;
            (0..2).for_each(|m| (0..3).for_each(|k| shapes[m][k] += s[m][k]));
        }
        assert!(executed > 0);
        assert_eq!(shapes[0][UNIT] + shapes[0][UNIFORM], executed, "{shapes:?}");
        assert!(shapes[0][UNIT] > 0 && shapes[0][UNIFORM] > 0, "{shapes:?}");
        assert_eq!(shapes[0][LANES_SHAPE] + shapes[1].iter().sum::<u64>(), 0);
    }

    /// ... and a partial EXEC mask always does: SpMV's row loops.
    #[test]
    fn spmv_partial_masks_take_the_per_lane_path() {
        let mut gpu = Default::default();
        let app: gpu_workloads::App = gpu_workloads::spmv::build(&mut gpu, 8, 7);
        let mut mem = gpu.mem().clone();
        let (mut executed, mut tallied, mut partial) = (0, 0, [0; 3]);
        for l in app.launches() {
            let (n, s) = global_accesses(&l.launch, &mut mem);
            executed += n;
            tallied += s.iter().flatten().sum::<u64>();
            (0..3).for_each(|k| partial[k] += s[1][k]);
        }
        assert_eq!(tallied, executed);
        assert!(partial[LANES_SHAPE] > 0, "test premise: partial masks");
        assert_eq!(partial[UNIT] + partial[UNIFORM], 0, "{partial:?}");
    }
}
