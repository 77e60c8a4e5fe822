//! # gpu-isa
//!
//! A warp-level, GCN-flavored GPU instruction set used by the Photon
//! reproduction. The ISA is deliberately close in structure to the AMD
//! GCN/CDNA machine code that MGPUSim executes: scalar and vector ALUs,
//! an `EXEC` lane mask with explicit save/restore idioms for structured
//! divergence, vector memory with per-lane addressing, LDS (local data
//! share) accesses, `s_barrier` workgroup synchronization, and scalar
//! conditional branches.
//!
//! What matters for the Photon methodology is that programs decompose
//! into the same units the paper analyzes:
//!
//! * **basic blocks** identified by their start PC and length, terminated
//!   by branch instructions *and* `s_barrier` (the paper's §3 Obs. 3
//!   definition, which differs from the compiler definition),
//! * **warps** executing identical instruction sequences (same basic
//!   block vector) forming *warp types* (Obs. 4),
//! * **kernels** launched as grids of workgroups of warps.
//!
//! # Example
//!
//! Build a trivial kernel that adds two vectors:
//!
//! ```
//! use gpu_isa::{KernelBuilder, MemWidth, VAluOp, VectorSrc};
//!
//! # fn main() -> Result<(), gpu_isa::IsaError> {
//! let mut kb = KernelBuilder::new("vadd");
//! let s_a = kb.sreg();
//! let s_b = kb.sreg();
//! let s_c = kb.sreg();
//! kb.load_arg(s_a, 0);
//! kb.load_arg(s_b, 1);
//! kb.load_arg(s_c, 2);
//! let v_idx = kb.vreg();
//! kb.global_thread_id(v_idx);
//! let v_off = kb.vreg();
//! kb.valu(VAluOp::Shl, v_off, VectorSrc::Reg(v_idx), VectorSrc::Imm(2));
//! let v_a = kb.vreg();
//! let v_b = kb.vreg();
//! kb.global_load(v_a, s_a, v_off, 0, MemWidth::B32);
//! kb.global_load(v_b, s_b, v_off, 0, MemWidth::B32);
//! let v_sum = kb.vreg();
//! kb.valu(VAluOp::FAdd, v_sum, VectorSrc::Reg(v_a), VectorSrc::Reg(v_b));
//! kb.global_store(v_sum, s_c, v_off, 0, MemWidth::B32);
//! let program = kb.finish()?;
//! assert!(program.len() > 0);
//! # Ok(())
//! # }
//! ```

mod asm;
mod bb;
mod builder;
mod decoded;
mod disasm;
mod error;
mod fingerprint;
mod inst;
mod kernel;
mod program;
mod reg;
mod validate;

pub use asm::{parse_asm, AsmError};
pub use bb::{BasicBlock, BasicBlockId, BasicBlockMap, BbOptions};
pub use builder::{KernelBuilder, Label};
pub use decoded::{LaneSrc, MicroOp, Op, ScalarOperand};
pub use disasm::disasm;
pub use error::IsaError;
pub use fingerprint::{fnv1a, fnv1a_extend, isa_fingerprint, ISA_REVISION};
pub use inst::{
    BranchCond, CmpOp, Inst, InstClass, MaskReg, MemWidth, SAluOp, ScalarSrc, SpecialReg, VAluOp,
    VectorSrc,
};
pub use kernel::{Kernel, KernelLaunch};
pub use program::Program;
pub use reg::{Sreg, Vreg, LANES, MAX_SREGS, MAX_VREGS};
pub use validate::{validate_launch, validate_program, KernelLimits, ValidateError};
