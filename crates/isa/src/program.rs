//! A validated, label-resolved instruction sequence.

use crate::bb::BasicBlockMap;
use crate::decoded::{decode, MicroOp};
use crate::error::IsaError;
use crate::inst::Inst;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A validated kernel program: a flat instruction vector with resolved
/// branch targets, a lazily shared [`BasicBlockMap`], the lazily shared
/// pre-decoded form the interpreter executes, its lazily computed
/// vector-register footprint and its lazily computed control slice.
///
/// Programs are normally produced by [`crate::KernelBuilder::finish`].
///
/// # Example
/// ```
/// use gpu_isa::{Inst, Program};
/// let p = Program::from_insts("noop", vec![Inst::SEndpgm])?;
/// assert_eq!(p.len(), 1);
/// assert_eq!(p.basic_blocks().len(), 1);
/// # Ok::<(), gpu_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    #[serde(skip)]
    bb_map: std::sync::OnceLock<Arc<BasicBlockMap>>,
    #[serde(skip)]
    decoded: std::sync::OnceLock<Arc<[MicroOp]>>,
    #[serde(skip)]
    vreg_footprint: std::sync::OnceLock<usize>,
    #[serde(skip)]
    control_slice: std::sync::OnceLock<Arc<[bool]>>,
}

impl Program {
    /// Builds a program from raw instructions, validating branch targets
    /// and termination.
    ///
    /// # Errors
    /// Returns [`IsaError::EmptyProgram`] for an empty vector,
    /// [`IsaError::MissingEndpgm`] if the last instruction is not
    /// `s_endpgm` or an unconditional backward branch, and
    /// [`IsaError::BranchOutOfRange`] for invalid targets.
    pub fn from_insts(name: impl Into<String>, insts: Vec<Inst>) -> Result<Self, IsaError> {
        if insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        let has_end = insts.iter().any(|i| matches!(i, Inst::SEndpgm));
        if !has_end {
            return Err(IsaError::MissingEndpgm);
        }
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(target) = inst.branch_target() {
                if target as usize >= insts.len() {
                    return Err(IsaError::BranchOutOfRange {
                        pc: pc as u32,
                        target,
                    });
                }
            }
        }
        Ok(Program {
            name: name.into(),
            insts,
            bb_map: std::sync::OnceLock::new(),
            decoded: std::sync::OnceLock::new(),
            vreg_footprint: std::sync::OnceLock::new(),
            control_slice: std::sync::OnceLock::new(),
        })
    }

    /// The program's name (usually the kernel name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions (never true for a
    /// validated program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    /// Panics if `pc` is out of range.
    pub fn inst(&self, pc: u32) -> &Inst {
        &self.insts[pc as usize]
    }

    /// All instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The Photon basic-block decomposition, computed once and shared.
    pub fn basic_blocks(&self) -> &BasicBlockMap {
        self.bb_map
            .get_or_init(|| Arc::new(BasicBlockMap::from_program(&self.insts)))
    }

    /// One [`MicroOp`] per pc, decoded once and shared.
    pub fn decoded(&self) -> &[MicroOp] {
        self.decoded
            .get_or_init(|| decode(&self.insts, self.basic_blocks()))
    }

    /// The vector registers the program names — one past the highest
    /// index, 0 if it names none — computed once. A warp running it
    /// needs no more: this is the smallest [`crate::KernelLimits::vregs`]
    /// that [`crate::validate_program`] accepts.
    pub fn vreg_footprint(&self) -> usize {
        *self
            .vreg_footprint
            .get_or_init(|| crate::validate::vreg_footprint(&self.insts))
    }

    /// One flag per pc, computed once: whether the instruction there is
    /// in the control slice — the instructions that decide which basic
    /// blocks a warp runs, where it faults and where it ends (see
    /// `slice.rs`). Every flag is set when a memory load feeds a branch.
    pub fn control_slice(&self) -> &[bool] {
        self.control_slice
            .get_or_init(|| crate::slice::control_slice(&self.insts).into())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} ({} insts)", self.name, self.insts.len())?;
        for (pc, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{:5}: {}", pc, crate::disasm::disasm(inst))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BranchCond;

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Program::from_insts("x", vec![]).unwrap_err(),
            IsaError::EmptyProgram
        );
    }

    #[test]
    fn rejects_missing_endpgm() {
        assert_eq!(
            Program::from_insts("x", vec![Inst::SBarrier]).unwrap_err(),
            IsaError::MissingEndpgm
        );
    }

    #[test]
    fn rejects_out_of_range_branch() {
        let err = Program::from_insts(
            "x",
            vec![
                Inst::CBranch {
                    cond: BranchCond::SccZero,
                    target: 9,
                },
                Inst::SEndpgm,
            ],
        )
        .unwrap_err();
        assert_eq!(err, IsaError::BranchOutOfRange { pc: 0, target: 9 });
    }

    #[test]
    fn accepts_minimal() {
        let p = Program::from_insts("x", vec![Inst::SEndpgm]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.name(), "x");
        assert!(!p.is_empty());
    }

    #[test]
    fn display_lists_every_instruction() {
        let p = Program::from_insts("x", vec![Inst::SBarrier, Inst::SEndpgm]).unwrap();
        let text = p.to_string();
        assert!(text.contains("s_barrier"));
        assert!(text.contains("s_endpgm"));
    }
}
