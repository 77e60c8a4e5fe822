//! Photon basic-block decomposition.
//!
//! The paper (§3, Observation 3) defines GPU basic blocks at warp level:
//! a group of instructions with one entry and one exit, where exits
//! include branch instructions **and** `s_barrier` — barriers distribute
//! inter-warp synchronization latency into their own blocks. Blocks are
//! identified by the PC of their first instruction and differentiated by
//! that PC plus their length.

use crate::inst::Inst;
use serde::{Deserialize, Serialize};

/// Index of a basic block within a program's [`BasicBlockMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BasicBlockId(pub u32);

impl BasicBlockId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BasicBlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// One basic block: start PC and instruction count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasicBlock {
    /// PC of the first instruction (the block's identity, per the paper).
    pub start_pc: u32,
    /// Number of instructions in the block.
    pub len: u32,
}

impl BasicBlock {
    /// PC one past the last instruction.
    pub fn end_pc(&self) -> u32 {
        self.start_pc + self.len
    }

    /// Whether `pc` falls inside this block.
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.start_pc && pc < self.end_pc()
    }
}

/// The basic-block decomposition of one program.
///
/// # Example
/// ```
/// use gpu_isa::{BasicBlockMap, Inst};
/// // barrier splits the single block in two
/// let insts = vec![Inst::SWaitcnt, Inst::SBarrier, Inst::SEndpgm];
/// let map = BasicBlockMap::from_program(&insts);
/// assert_eq!(map.len(), 2);
/// assert_eq!(map.block_at_pc(0).unwrap().0.index(), 0);
/// assert_eq!(map.block_at_pc(2).unwrap().0.index(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlockMap {
    blocks: Vec<BasicBlock>,
    /// For every pc, the owning block index.
    pc_to_block: Vec<u32>,
}

impl BasicBlockMap {
    /// Computes the decomposition by leader analysis.
    ///
    /// Leaders are: PC 0, every branch target, and every instruction
    /// following a block-ending instruction (branch, `s_barrier`,
    /// `s_endpgm`).
    pub fn from_program(insts: &[Inst]) -> Self {
        let n = insts.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(t) = inst.branch_target() {
                if (t as usize) < n {
                    leader[t as usize] = true;
                }
            }
            if inst.ends_basic_block() && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut pc_to_block = vec![0u32; n];
        let mut start = 0usize;
        for pc in 0..n {
            if pc > start && leader[pc] {
                blocks.push(BasicBlock {
                    start_pc: start as u32,
                    len: (pc - start) as u32,
                });
                start = pc;
            }
            pc_to_block[pc] = blocks.len() as u32;
        }
        if n > 0 {
            blocks.push(BasicBlock {
                start_pc: start as u32,
                len: (n - start) as u32,
            });
        }
        BasicBlockMap {
            blocks,
            pc_to_block,
        }
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the program had no instructions.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BasicBlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// All blocks in PC order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing `pc`, if in range.
    pub fn block_at_pc(&self, pc: u32) -> Option<(BasicBlockId, &BasicBlock)> {
        let idx = *self.pc_to_block.get(pc as usize)?;
        Some((BasicBlockId(idx), &self.blocks[idx as usize]))
    }

    /// The id of the block starting exactly at `pc`, if any.
    pub fn block_starting_at(&self, pc: u32) -> Option<BasicBlockId> {
        let (id, bb) = self.block_at_pc(pc)?;
        (bb.start_pc == pc).then_some(id)
    }

    /// Iterator over `(BasicBlockId, &BasicBlock)`.
    pub fn iter(&self) -> impl Iterator<Item = (BasicBlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BasicBlockId(i as u32), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BranchCond, SAluOp, ScalarSrc};
    use crate::reg::Sreg;

    fn salu() -> Inst {
        Inst::SAlu {
            op: SAluOp::Add,
            dst: Sreg::new(0),
            a: ScalarSrc::Imm(0),
            b: ScalarSrc::Imm(0),
        }
    }

    #[test]
    fn straight_line_is_one_block() {
        let insts = vec![salu(), salu(), Inst::SEndpgm];
        let map = BasicBlockMap::from_program(&insts);
        assert_eq!(map.len(), 1);
        assert_eq!(
            map.blocks()[0],
            BasicBlock {
                start_pc: 0,
                len: 3
            }
        );
    }

    #[test]
    fn barrier_splits_blocks() {
        let insts = vec![salu(), Inst::SBarrier, salu(), Inst::SEndpgm];
        let map = BasicBlockMap::from_program(&insts);
        assert_eq!(map.len(), 2);
        assert_eq!(map.blocks()[0].len, 2);
        assert_eq!(map.blocks()[1].start_pc, 2);
    }

    #[test]
    fn branch_target_starts_block() {
        // 0: salu; 1: cbranch->3; 2: salu; 3: salu; 4: endpgm
        let insts = vec![
            salu(),
            Inst::CBranch {
                cond: BranchCond::SccZero,
                target: 3,
            },
            salu(),
            salu(),
            Inst::SEndpgm,
        ];
        let map = BasicBlockMap::from_program(&insts);
        // blocks: [0..2), [2..3), [3..5)
        assert_eq!(map.len(), 3);
        assert_eq!(map.block_starting_at(3), Some(BasicBlockId(2)));
        assert_eq!(map.block_at_pc(4).unwrap().0, BasicBlockId(2));
    }

    #[test]
    fn loop_back_edge_forms_block() {
        // 0: salu (loop body, target); 1: cbranch->0; 2: endpgm
        let insts = vec![
            salu(),
            Inst::CBranch {
                cond: BranchCond::SccNonZero,
                target: 0,
            },
            Inst::SEndpgm,
        ];
        let map = BasicBlockMap::from_program(&insts);
        assert_eq!(map.len(), 2);
        assert_eq!(
            map.blocks()[0],
            BasicBlock {
                start_pc: 0,
                len: 2
            }
        );
        assert_eq!(
            map.blocks()[1],
            BasicBlock {
                start_pc: 2,
                len: 1
            }
        );
    }

    #[test]
    fn every_pc_maps_to_containing_block() {
        let insts = vec![
            salu(),
            Inst::SBarrier,
            salu(),
            Inst::CBranch {
                cond: BranchCond::SccZero,
                target: 2,
            },
            Inst::SEndpgm,
        ];
        let map = BasicBlockMap::from_program(&insts);
        for pc in 0..insts.len() as u32 {
            let (_, bb) = map.block_at_pc(pc).unwrap();
            assert!(bb.contains(pc));
        }
        assert!(map.block_at_pc(99).is_none());
    }

    #[test]
    fn waitcnt_stays_inside_its_block() {
        let insts = vec![salu(), Inst::SWaitcnt, salu(), Inst::SEndpgm];
        let map = BasicBlockMap::from_program(&insts);
        assert_eq!(map.len(), 1, "s_waitcnt ends no block");
    }

    #[test]
    fn blocks_partition_program() {
        let insts = vec![
            salu(),
            Inst::CBranch {
                cond: BranchCond::VccZero,
                target: 4,
            },
            salu(),
            Inst::SBarrier,
            salu(),
            Inst::SEndpgm,
        ];
        let map = BasicBlockMap::from_program(&insts);
        let total: u32 = map.blocks().iter().map(|b| b.len).sum();
        assert_eq!(total as usize, insts.len());
        // contiguity
        let mut pc = 0;
        for b in map.blocks() {
            assert_eq!(b.start_pc, pc);
            pc = b.end_pc();
        }
    }
}
