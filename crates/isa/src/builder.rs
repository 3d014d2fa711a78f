//! Ergonomic construction of instruction blocks.
//!
//! [`BlockBuilder`] manages loop nesting and level tags so compiler passes
//! (and humans writing kernels by hand) never deal with raw
//! [`TaggedInstruction`] levels.
//!
//! # Examples
//!
//! ```
//! use bitfusion_core::bitwidth::PairPrecision;
//! use bitfusion_isa::builder::BlockBuilder;
//! use bitfusion_isa::instruction::{AddressSpace, ComputeFn, Scratchpad};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pair = PairPrecision::from_bits(2, 2)?;
//! let mut b = BlockBuilder::new("ternary-fc", pair);
//! b.ld_mem(Scratchpad::Wbuf, 2, 4096)?;
//! let oc = b.open_loop(64)?;
//! b.gen_addr(oc, AddressSpace::OffChip, Scratchpad::Wbuf, 64)?;
//! let ic = b.open_loop(64)?;
//! b.rd_buf(Scratchpad::Ibuf);
//! b.rd_buf(Scratchpad::Wbuf);
//! b.compute(ComputeFn::Mac);
//! b.close_loop(); // ic
//! b.wr_buf(Scratchpad::Obuf);
//! b.close_loop(); // oc
//! let block = b.finish(0)?;
//! assert_eq!(block.loop_tree().depth(), 2);
//! # Ok(())
//! # }
//! ```

use bitfusion_core::bitwidth::PairPrecision;

use crate::block::{DramBases, InstructionBlock, MAX_LOOP_DEPTH};
use crate::error::IsaError;
use crate::instruction::{
    AddressSpace, ComputeFn, Instruction, LoopId, Scratchpad, TaggedInstruction, MAX_LOOP_ID,
};

/// Builder for a single instruction block.
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    name: String,
    bases: DramBases,
    /// The block so far: `setup`, then the body. [`BlockBuilder::finish`]
    /// appends `block-end` and hands this storage to the block as is.
    instrs: Vec<TaggedInstruction>,
    depth: u8,
    next_loop_id: u8,
}

impl BlockBuilder {
    /// Starts a block for the given precision pair (this becomes the `setup`
    /// instruction).
    pub fn new(name: impl Into<String>, pair: PairPrecision) -> Self {
        Self::with_capacity(name, pair, 0)
    }

    /// Starts a block that will hold `instructions` instructions in all,
    /// `setup` and `block-end` included. A caller that knows its block's
    /// size (the compiler's lowering does) then fills one allocation of
    /// exactly that size; a wrong count costs a reallocation, not
    /// correctness.
    pub fn with_capacity(
        name: impl Into<String>,
        pair: PairPrecision,
        instructions: usize,
    ) -> Self {
        let mut instrs = Vec::with_capacity(instructions.max(2));
        instrs.push(TaggedInstruction::new(
            Instruction::Setup {
                input: pair.input,
                weight: pair.weight,
            },
            0,
        ));
        BlockBuilder {
            name: name.into(),
            bases: DramBases::default(),
            instrs,
            depth: 0,
            next_loop_id: 0,
        }
    }

    /// Sets the DRAM base address of a stream.
    pub fn set_base(&mut self, buffer: Scratchpad, base: u64) -> &mut Self {
        self.bases.set_base(buffer, base);
        self
    }

    /// Current loop depth.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Opens a loop and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::ZeroTripLoop`] for zero iterations,
    /// [`IsaError::LoopIdOutOfRange`] when more than 64 loops are declared,
    /// or [`IsaError::LevelJump`] when nesting exceeds [`MAX_LOOP_DEPTH`].
    pub fn open_loop(&mut self, iterations: u32) -> Result<LoopId, IsaError> {
        if iterations == 0 {
            return Err(IsaError::ZeroTripLoop(self.next_loop_id));
        }
        if self.next_loop_id > MAX_LOOP_ID {
            return Err(IsaError::LoopIdOutOfRange(self.next_loop_id));
        }
        if self.depth + 1 > MAX_LOOP_DEPTH {
            return Err(IsaError::LevelJump {
                // The position in the body, `setup` not counted.
                index: self.instrs.len() - 1,
                level: self.depth + 1,
                depth: MAX_LOOP_DEPTH,
            });
        }
        let id = LoopId(self.next_loop_id);
        self.next_loop_id += 1;
        self.instrs.push(TaggedInstruction::new(
            Instruction::Loop { id, iterations },
            self.depth,
        ));
        self.depth += 1;
        Ok(id)
    }

    /// Closes the innermost open loop. Subsequent instructions land in the
    /// enclosing scope (the *post-body* position).
    ///
    /// # Panics
    ///
    /// Panics when no loop is open — a builder-usage bug.
    pub fn close_loop(&mut self) -> &mut Self {
        assert!(self.depth > 0, "close_loop with no open loop");
        self.depth -= 1;
        self
    }

    /// Declares an address stride (Equation 4 term) for a stream.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndeclaredLoop`] when `loop_id` has not been
    /// opened by this builder.
    pub fn gen_addr(
        &mut self,
        loop_id: LoopId,
        space: AddressSpace,
        buffer: Scratchpad,
        stride: u64,
    ) -> Result<&mut Self, IsaError> {
        if loop_id.0 >= self.next_loop_id {
            return Err(IsaError::UndeclaredLoop(loop_id.0));
        }
        self.instrs.push(TaggedInstruction::new(
            Instruction::GenAddr {
                loop_id,
                space,
                buffer,
                stride,
            },
            self.depth,
        ));
        Ok(self)
    }

    /// Emits a DRAM→scratchpad DMA of `words` elements of `bits` each.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldOverflow`] for zero words or unsupported
    /// bitwidths.
    pub fn ld_mem(
        &mut self,
        buffer: Scratchpad,
        bits: u32,
        words: u64,
    ) -> Result<&mut Self, IsaError> {
        self.check_dma(bits, words)?;
        self.instrs.push(TaggedInstruction::new(
            Instruction::LdMem { buffer, bits, words },
            self.depth,
        ));
        Ok(self)
    }

    /// Emits a scratchpad→DRAM DMA.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::FieldOverflow`] for zero words or unsupported
    /// bitwidths.
    pub fn st_mem(
        &mut self,
        buffer: Scratchpad,
        bits: u32,
        words: u64,
    ) -> Result<&mut Self, IsaError> {
        self.check_dma(bits, words)?;
        self.instrs.push(TaggedInstruction::new(
            Instruction::StMem { buffer, bits, words },
            self.depth,
        ));
        Ok(self)
    }

    fn check_dma(&self, bits: u32, words: u64) -> Result<(), IsaError> {
        if !matches!(bits, 1 | 2 | 4 | 8 | 16 | 32) {
            return Err(IsaError::FieldOverflow {
                field: "mem.bitwidth",
                value: bits as u64,
            });
        }
        if words == 0 || words >= 1 << 32 {
            return Err(IsaError::FieldOverflow {
                field: "num-words",
                value: words,
            });
        }
        Ok(())
    }

    /// Emits a buffer→datapath read.
    pub fn rd_buf(&mut self, buffer: Scratchpad) -> &mut Self {
        self.instrs.push(TaggedInstruction::new(
            Instruction::RdBuf { buffer },
            self.depth,
        ));
        self
    }

    /// Emits a datapath→buffer write.
    pub fn wr_buf(&mut self, buffer: Scratchpad) -> &mut Self {
        self.instrs.push(TaggedInstruction::new(
            Instruction::WrBuf { buffer },
            self.depth,
        ));
        self
    }

    /// Emits a compute instruction.
    pub fn compute(&mut self, op: ComputeFn) -> &mut Self {
        self.instrs.push(TaggedInstruction::new(
            Instruction::Compute { op },
            self.depth,
        ));
        self
    }

    /// Closes any open loops and finishes the block with `block-end next`.
    /// The block's instruction storage is exact-size: spare capacity left
    /// by [`BlockBuilder::new`]'s growth is released here.
    ///
    /// # Errors
    ///
    /// Propagates [`InstructionBlock::new`] validation errors.
    pub fn finish(mut self, next: u16) -> Result<InstructionBlock, IsaError> {
        self.instrs
            .push(TaggedInstruction::new(Instruction::BlockEnd { next }, 0));
        self.instrs.shrink_to_fit();
        InstructionBlock::new(self.name, self.bases, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BodyItem;

    fn pair() -> PairPrecision {
        PairPrecision::from_bits(8, 8).unwrap()
    }

    #[test]
    fn builder_produces_figure_12a_shape() {
        // Figure 12(a): untiled FC inner pattern.
        let mut b = BlockBuilder::new("fc", pair());
        let oc = b.open_loop(16).unwrap();
        b.ld_mem(Scratchpad::Obuf, 32, 1).unwrap();
        b.rd_buf(Scratchpad::Obuf);
        let ic = b.open_loop(32).unwrap();
        b.ld_mem(Scratchpad::Ibuf, 8, 1).unwrap();
        b.ld_mem(Scratchpad::Wbuf, 8, 1).unwrap();
        b.rd_buf(Scratchpad::Ibuf);
        b.rd_buf(Scratchpad::Wbuf);
        b.compute(ComputeFn::Mac);
        b.close_loop();
        b.wr_buf(Scratchpad::Obuf);
        b.st_mem(Scratchpad::Obuf, 32, 1).unwrap();
        b.close_loop();
        b.gen_addr(oc, AddressSpace::OffChip, Scratchpad::Obuf, 1).unwrap();
        b.gen_addr(ic, AddressSpace::OffChip, Scratchpad::Ibuf, 1).unwrap();
        let block = b.finish(0).unwrap();
        let tree = block.loop_tree();
        assert_eq!(tree.depth(), 2);
        // The oc loop body ends with wr-buf + st-mem after the ic loop.
        let BodyItem::Loop(oc_node) = &tree.body[0] else {
            panic!("oc loop expected");
        };
        assert!(matches!(
            oc_node.body.last(),
            Some(BodyItem::Instr(Instruction::StMem { .. }))
        ));
    }

    #[test]
    fn loop_ids_sequential() {
        let mut b = BlockBuilder::new("ids", pair());
        let a = b.open_loop(2).unwrap();
        let c = b.open_loop(2).unwrap();
        assert_eq!((a, c), (LoopId(0), LoopId(1)));
    }

    #[test]
    fn finish_closes_open_loops() {
        let mut b = BlockBuilder::new("open", pair());
        b.open_loop(2).unwrap();
        b.open_loop(3).unwrap();
        b.compute(ComputeFn::Mac);
        let block = b.finish(7).unwrap();
        assert_eq!(block.next_block(), 7);
        assert_eq!(block.loop_tree().depth(), 2);
    }

    #[test]
    #[should_panic(expected = "close_loop with no open loop")]
    fn close_without_open_panics() {
        BlockBuilder::new("x", pair()).close_loop();
    }

    #[test]
    fn gen_addr_requires_declared_loop() {
        let mut b = BlockBuilder::new("ga", pair());
        assert!(matches!(
            b.gen_addr(LoopId(0), AddressSpace::OffChip, Scratchpad::Ibuf, 1),
            Err(IsaError::UndeclaredLoop(0))
        ));
    }

    #[test]
    fn dma_validation() {
        let mut b = BlockBuilder::new("dma", pair());
        assert!(b.ld_mem(Scratchpad::Ibuf, 3, 10).is_err());
        assert!(b.ld_mem(Scratchpad::Ibuf, 8, 0).is_err());
        assert!(b.ld_mem(Scratchpad::Ibuf, 8, 1 << 32).is_err());
        assert!(b.ld_mem(Scratchpad::Ibuf, 8, (1 << 32) - 1).is_ok());
    }

    #[test]
    fn deep_nesting_capped() {
        let mut b = BlockBuilder::new("deep", pair());
        for _ in 0..MAX_LOOP_DEPTH {
            b.open_loop(1).unwrap();
        }
        // The index counts body instructions only, so the `setup` that
        // heads the builder's storage does not shift it.
        assert_eq!(
            b.open_loop(1),
            Err(IsaError::LevelJump {
                index: MAX_LOOP_DEPTH as usize,
                level: MAX_LOOP_DEPTH + 1,
                depth: MAX_LOOP_DEPTH,
            })
        );
    }

    #[test]
    fn finish_leaves_exact_size_storage() {
        let mut grown = BlockBuilder::new("grown", pair());
        let mut sized = BlockBuilder::with_capacity("sized", pair(), 5);
        for b in [&mut grown, &mut sized] {
            b.open_loop(4).unwrap();
            b.compute(ComputeFn::Mac);
            b.wr_buf(Scratchpad::Obuf);
        }
        let (grown, sized) = (grown.finish(0).unwrap(), sized.finish(0).unwrap());
        assert_eq!(grown.instructions(), sized.instructions());
        assert_eq!(grown.storage_capacity(), 5);
        assert_eq!(sized.storage_capacity(), 5);
    }
}
