//! Structured kernel assembler.
//!
//! [`KernelBuilder`] lets workload code express loops and divergent
//! branches with closures; the builder lowers them to the explicit
//! EXEC-mask idioms of the ISA (`v_cmp` → `VCC`, `s_and_saveexec`,
//! `s_cbranch_execz`, …), exactly the patterns the ROCm compiler emits
//! for the OpenCL benchmarks the paper evaluates.

use crate::error::IsaError;
use crate::inst::{
    BranchCond, CmpOp, Inst, MaskReg, MemWidth, SAluOp, ScalarSrc, SpecialReg, VAluOp, VectorSrc,
};
use crate::program::Program;
use crate::reg::{Sreg, Vreg, MAX_SREGS, MAX_VREGS};

/// A forward-referencable branch target.
///
/// Created with [`KernelBuilder::label`], bound with
/// [`KernelBuilder::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Builds a [`Program`] from structured pieces.
///
/// # Example
/// ```
/// use gpu_isa::{KernelBuilder, CmpOp, VAluOp, VectorSrc};
/// # fn main() -> Result<(), gpu_isa::IsaError> {
/// let mut kb = KernelBuilder::new("clamp");
/// let v = kb.vreg();
/// kb.valu(VAluOp::Mov, v, VectorSrc::LaneId, VectorSrc::Imm(0));
/// // lanes with v > 31 get zeroed
/// kb.vcmp(CmpOp::Gt, VectorSrc::Reg(v), VectorSrc::Imm(31), false);
/// kb.if_vcc(|kb| {
///     kb.valu(VAluOp::Mov, v, VectorSrc::Imm(0), VectorSrc::Imm(0));
/// });
/// let p = kb.finish()?;
/// assert!(p.basic_blocks().len() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    insts: Vec<Inst>,
    /// `labels[i]` is the placed pc of label `i`, if placed.
    labels: Vec<Option<u32>>,
    /// Branch fixups: instruction index whose `target` field holds a
    /// label id to resolve.
    fixups: Vec<usize>,
    next_sreg: usize,
    next_vreg: usize,
    error: Option<IsaError>,
}

impl KernelBuilder {
    /// Creates an empty builder for a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            insts: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            next_sreg: 0,
            next_vreg: 0,
            error: None,
        }
    }

    /// Allocates a fresh scalar register.
    ///
    /// Exhaustion is recorded and reported by [`KernelBuilder::finish`].
    pub fn sreg(&mut self) -> Sreg {
        if self.next_sreg >= MAX_SREGS {
            self.error
                .get_or_insert(IsaError::OutOfRegisters { kind: "scalar" });
            return Sreg::new(0);
        }
        let r = Sreg::new(self.next_sreg as u8);
        self.next_sreg += 1;
        r
    }

    /// Allocates a fresh vector register.
    ///
    /// Exhaustion is recorded and reported by [`KernelBuilder::finish`].
    pub fn vreg(&mut self) -> Vreg {
        if self.next_vreg >= MAX_VREGS {
            self.error
                .get_or_insert(IsaError::OutOfRegisters { kind: "vector" });
            return Vreg::new(0);
        }
        let r = Vreg::new(self.next_vreg as u8);
        self.next_vreg += 1;
        r
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    // ---- labels and branches -------------------------------------------

    /// Creates a new unplaced label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    pub fn place(&mut self, label: Label) -> &mut Self {
        if self.labels[label.0].is_some() {
            self.error
                .get_or_insert(IsaError::DuplicateLabel { label: label.0 });
        } else {
            self.labels[label.0] = Some(self.insts.len() as u32);
        }
        self
    }

    /// Emits an unconditional branch to `label`.
    pub fn branch(&mut self, label: Label) -> &mut Self {
        self.fixups.push(self.insts.len());
        self.insts.push(Inst::Branch {
            target: label.0 as u32,
        });
        self
    }

    /// Emits a conditional branch to `label`.
    pub fn cbranch(&mut self, cond: BranchCond, label: Label) -> &mut Self {
        self.fixups.push(self.insts.len());
        self.insts.push(Inst::CBranch {
            cond,
            target: label.0 as u32,
        });
        self
    }

    // ---- plain instruction helpers -------------------------------------

    /// Emits a scalar ALU op.
    pub fn salu(
        &mut self,
        op: SAluOp,
        dst: Sreg,
        a: impl Into<ScalarSrc>,
        b: impl Into<ScalarSrc>,
    ) -> &mut Self {
        self.push(Inst::SAlu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Emits a scalar move.
    pub fn smov(&mut self, dst: Sreg, src: impl Into<ScalarSrc>) -> &mut Self {
        self.salu(SAluOp::Mov, dst, src, 0i64)
    }

    /// Emits a scalar compare (sets SCC).
    pub fn scmp(
        &mut self,
        op: CmpOp,
        a: impl Into<ScalarSrc>,
        b: impl Into<ScalarSrc>,
    ) -> &mut Self {
        self.push(Inst::SCmp {
            op,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Loads kernel argument `index` into `dst`.
    pub fn load_arg(&mut self, dst: Sreg, index: u16) -> &mut Self {
        self.push(Inst::SLoadArg { dst, index })
    }

    /// Reads a special hardware value.
    pub fn special(&mut self, dst: Sreg, which: SpecialReg) -> &mut Self {
        self.push(Inst::SGetSpecial { dst, which })
    }

    /// Emits a vector ALU op.
    pub fn valu(
        &mut self,
        op: VAluOp,
        dst: Vreg,
        a: impl Into<VectorSrc>,
        b: impl Into<VectorSrc>,
    ) -> &mut Self {
        self.push(Inst::VAlu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Emits a vector move.
    pub fn vmov(&mut self, dst: Vreg, src: impl Into<VectorSrc>) -> &mut Self {
        self.valu(VAluOp::Mov, dst, src, VectorSrc::Imm(0))
    }

    /// Emits an `f32` fused multiply-add: `dst = a * b + c`.
    pub fn vfma(
        &mut self,
        dst: Vreg,
        a: impl Into<VectorSrc>,
        b: impl Into<VectorSrc>,
        c: impl Into<VectorSrc>,
    ) -> &mut Self {
        self.push(Inst::VFma {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    /// Emits a vector compare into VCC.
    pub fn vcmp(
        &mut self,
        op: CmpOp,
        a: impl Into<VectorSrc>,
        b: impl Into<VectorSrc>,
        float: bool,
    ) -> &mut Self {
        self.push(Inst::VCmp {
            op,
            a: a.into(),
            b: b.into(),
            float,
        })
    }

    /// Emits a per-lane global load.
    pub fn global_load(
        &mut self,
        dst: Vreg,
        base: Sreg,
        offset: Vreg,
        imm: i32,
        width: MemWidth,
    ) -> &mut Self {
        self.push(Inst::GlobalLoad {
            dst,
            base,
            offset,
            imm,
            width,
        })
    }

    /// Emits a per-lane global store.
    pub fn global_store(
        &mut self,
        src: Vreg,
        base: Sreg,
        offset: Vreg,
        imm: i32,
        width: MemWidth,
    ) -> &mut Self {
        self.push(Inst::GlobalStore {
            src,
            base,
            offset,
            imm,
            width,
        })
    }

    /// Emits a per-lane LDS load.
    pub fn lds_load(&mut self, dst: Vreg, addr: Vreg, imm: i32) -> &mut Self {
        self.push(Inst::LdsLoad { dst, addr, imm })
    }

    /// Emits a per-lane LDS store.
    pub fn lds_store(&mut self, src: Vreg, addr: Vreg, imm: i32) -> &mut Self {
        self.push(Inst::LdsStore { src, addr, imm })
    }

    /// Emits a workgroup barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Inst::SBarrier)
    }

    // ---- composite helpers ----------------------------------------------

    /// Computes each lane's flat global thread id into `dst`:
    /// `(wg_id * warps_per_wg + warp_in_wg) * 64 + lane`.
    pub fn global_thread_id(&mut self, dst: Vreg) -> &mut Self {
        let s = self.sreg();
        self.special(s, SpecialReg::GlobalWarpId);
        self.salu(SAluOp::Mul, s, s, 64i64);
        self.valu(VAluOp::Add, dst, VectorSrc::Sreg(s), VectorSrc::LaneId)
    }

    /// Structured divergent `if`: executes `body` with
    /// `EXEC &= VCC`, restoring EXEC afterwards. Skips the body with a
    /// branch when no lane is active.
    pub fn if_vcc(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        let save = self.sreg();
        let end = self.label();
        self.push(Inst::SAndSaveExec { dst: save });
        self.cbranch(BranchCond::ExecZero, end);
        body(self);
        self.place(end);
        self.push(Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Reg(save),
        });
        self
    }

    /// Structured divergent `if`/`else` on VCC.
    pub fn if_vcc_else(
        &mut self,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let save = self.sreg();
        let cond = self.sreg();
        let tmp = self.sreg();
        let l_else = self.label();
        let l_end = self.label();
        self.push(Inst::SReadMask {
            dst: save,
            src: MaskReg::Exec,
        });
        self.push(Inst::SReadMask {
            dst: cond,
            src: MaskReg::Vcc,
        });
        self.salu(SAluOp::And, tmp, save, cond);
        self.push(Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Reg(tmp),
        });
        self.cbranch(BranchCond::ExecZero, l_else);
        then_body(self);
        self.place(l_else);
        self.salu(SAluOp::AndNot, tmp, save, cond);
        self.push(Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Reg(tmp),
        });
        self.cbranch(BranchCond::ExecZero, l_end);
        else_body(self);
        self.place(l_end);
        self.push(Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Reg(save),
        });
        self
    }

    /// Per-lane `while` loop: `cond` must leave a lane predicate in VCC;
    /// lanes drop out as their predicate clears, and the loop exits when
    /// EXEC empties. EXEC is restored afterwards. This is the idiom that
    /// gives SpMV its data-dependent, per-warp-variable trip counts.
    pub fn lane_while(
        &mut self,
        cond: impl FnOnce(&mut Self),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let save = self.sreg();
        let dead = self.sreg();
        let start = self.label();
        let end = self.label();
        self.push(Inst::SReadMask {
            dst: save,
            src: MaskReg::Exec,
        });
        self.place(start);
        cond(self);
        self.push(Inst::SAndSaveExec { dst: dead });
        self.cbranch(BranchCond::ExecZero, end);
        body(self);
        self.branch(start);
        self.place(end);
        self.push(Inst::SWriteMask {
            dst: MaskReg::Exec,
            src: ScalarSrc::Reg(save),
        });
        self
    }

    /// Uniform counted loop: `for i in start..end` with a scalar
    /// induction register `i` readable inside `body`.
    pub fn for_uniform(
        &mut self,
        i: Sreg,
        start: impl Into<ScalarSrc>,
        end: impl Into<ScalarSrc>,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let end_src = end.into();
        let l_start = self.label();
        let l_end = self.label();
        self.smov(i, start);
        self.place(l_start);
        self.scmp(CmpOp::Ge, i, end_src);
        self.cbranch(BranchCond::SccNonZero, l_end);
        body(self);
        self.salu(SAluOp::Add, i, i, 1i64);
        self.branch(l_start);
        self.place(l_end);
        self
    }

    /// Uniform `if` on the scalar condition code (set by
    /// [`KernelBuilder::scmp`]): runs `body` only when SCC is set.
    pub fn if_scc(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        let end = self.label();
        self.cbranch(BranchCond::SccZero, end);
        body(self);
        self.place(end);
        self
    }

    /// Finishes the program: appends `s_endpgm` if missing, resolves
    /// labels, and validates.
    ///
    /// # Errors
    /// Returns the first recorded builder error (register exhaustion,
    /// duplicate labels), [`IsaError::UnplacedLabel`] for dangling
    /// branches, or any [`Program::from_insts`] validation error.
    pub fn finish(mut self) -> Result<Program, IsaError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !matches!(self.insts.last(), Some(Inst::SEndpgm)) {
            self.insts.push(Inst::SEndpgm);
        }
        for &idx in &self.fixups {
            let label_id = match &self.insts[idx] {
                Inst::Branch { target } => *target as usize,
                Inst::CBranch { target, .. } => *target as usize,
                _ => unreachable!("fixup index always points at a branch"),
            };
            let pc = self.labels[label_id].ok_or(IsaError::UnplacedLabel { label: label_id })?;
            match &mut self.insts[idx] {
                Inst::Branch { target } => *target = pc,
                Inst::CBranch { target, .. } => *target = pc,
                _ => unreachable!(),
            }
        }
        Program::from_insts(self.name, self.insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_appends_endpgm() {
        let mut kb = KernelBuilder::new("t");
        let s = kb.sreg();
        kb.smov(s, 1i64);
        let p = kb.finish().unwrap();
        assert!(matches!(p.insts().last(), Some(Inst::SEndpgm)));
    }

    #[test]
    fn labels_resolve() {
        let mut kb = KernelBuilder::new("t");
        let l = kb.label();
        kb.branch(l);
        let s = kb.sreg();
        kb.smov(s, 0i64);
        kb.place(l);
        let p = kb.finish().unwrap();
        // branch at pc 0 should target pc 2 (after the smov)
        assert_eq!(p.inst(0).branch_target(), Some(2));
    }

    #[test]
    fn unplaced_label_errors() {
        let mut kb = KernelBuilder::new("t");
        let l = kb.label();
        kb.branch(l);
        assert_eq!(
            kb.finish().unwrap_err(),
            IsaError::UnplacedLabel { label: 0 }
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut kb = KernelBuilder::new("t");
        let l = kb.label();
        kb.place(l);
        kb.place(l);
        assert_eq!(
            kb.finish().unwrap_err(),
            IsaError::DuplicateLabel { label: 0 }
        );
    }

    #[test]
    fn register_exhaustion_errors() {
        let mut kb = KernelBuilder::new("t");
        for _ in 0..=MAX_SREGS {
            let _ = kb.sreg();
        }
        assert_eq!(
            kb.finish().unwrap_err(),
            IsaError::OutOfRegisters { kind: "scalar" }
        );
    }

    #[test]
    fn if_vcc_structure() {
        let mut kb = KernelBuilder::new("t");
        let v = kb.vreg();
        kb.vcmp(CmpOp::Gt, VectorSrc::Reg(v), VectorSrc::Imm(0), false);
        kb.if_vcc(|kb| {
            kb.vmov(v, VectorSrc::Imm(7));
        });
        let p = kb.finish().unwrap();
        // Must contain the saveexec and a restoring write
        assert!(p
            .insts()
            .iter()
            .any(|i| matches!(i, Inst::SAndSaveExec { .. })));
        assert!(p.insts().iter().any(|i| matches!(
            i,
            Inst::SWriteMask {
                dst: MaskReg::Exec,
                ..
            }
        )));
        // Basic blocks: cmp+saveexec+cbranch | body | restore+endpgm
        assert!(p.basic_blocks().len() >= 3);
    }

    #[test]
    fn for_uniform_emits_backedge() {
        let mut kb = KernelBuilder::new("t");
        let i = kb.sreg();
        let acc = kb.sreg();
        kb.smov(acc, 0i64);
        kb.for_uniform(i, 0i64, 10i64, |kb| {
            kb.salu(SAluOp::Add, acc, acc, 1i64);
        });
        let p = kb.finish().unwrap();
        let has_backedge = p
            .insts()
            .iter()
            .enumerate()
            .any(|(pc, inst)| inst.branch_target().is_some_and(|t| t <= pc as u32));
        assert!(has_backedge);
    }

    #[test]
    fn lane_while_restores_exec() {
        let mut kb = KernelBuilder::new("t");
        let v = kb.vreg();
        kb.vmov(v, VectorSrc::LaneId);
        kb.lane_while(
            |kb| {
                kb.vcmp(CmpOp::Gt, VectorSrc::Reg(v), VectorSrc::Imm(0), false);
            },
            |kb| {
                kb.valu(VAluOp::Sub, v, VectorSrc::Reg(v), VectorSrc::Imm(1));
            },
        );
        let p = kb.finish().unwrap();
        let writes: Vec<_> = p
            .insts()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::SWriteMask {
                        dst: MaskReg::Exec,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(writes.len(), 1);
    }
}
