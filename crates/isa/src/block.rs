//! Instruction blocks: validation and loop-tree reconstruction.
//!
//! A block implements one DNN layer (or a fused group of layers): it begins
//! with `setup`, ends with `block-end`, and contains a (possibly non-perfect)
//! loop nest expressed linearly via per-instruction loop levels (see
//! [`crate::instruction`]). [`LoopTree`] reconstructs the nest as nested
//! `Vec`s for the Equation 4 walker and the reference oracles; the folds
//! on the evaluation path (`summarize`, `SegmentProgram::compile`) scan the
//! flat tagged list instead and never build it.

use std::collections::BTreeMap;
use std::fmt;

use bitfusion_core::bitwidth::{PairPrecision, Precision};

use crate::error::IsaError;
use crate::instruction::{
    AddressSpace, Instruction, LoopId, Scratchpad, TaggedInstruction, MAX_LOOP_ID,
};

/// Maximum loop depth the encoding supports (4-bit level field).
pub const MAX_LOOP_DEPTH: u8 = 15;

/// DRAM base addresses for the three scratchpad streams ("the words after
/// the `setup` instruction define the memory base address" — §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct DramBases {
    /// Base address of the input stream, in elements.
    pub ibuf: u64,
    /// Base address of the weight stream, in elements.
    pub wbuf: u64,
    /// Base address of the output stream, in elements.
    pub obuf: u64,
}

impl DramBases {
    /// Base for a given scratchpad.
    pub const fn base(&self, buffer: Scratchpad) -> u64 {
        match buffer {
            Scratchpad::Ibuf => self.ibuf,
            Scratchpad::Wbuf => self.wbuf,
            Scratchpad::Obuf => self.obuf,
        }
    }

    /// Sets the base for a given scratchpad.
    pub fn set_base(&mut self, buffer: Scratchpad, base: u64) {
        match buffer {
            Scratchpad::Ibuf => self.ibuf = base,
            Scratchpad::Wbuf => self.wbuf = base,
            Scratchpad::Obuf => self.obuf = base,
        }
    }
}

/// A validated Fusion-ISA instruction block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionBlock {
    /// Optional human-readable name (the layer it implements).
    pub name: String,
    /// DRAM base addresses.
    pub bases: DramBases,
    instructions: Vec<TaggedInstruction>,
}

impl InstructionBlock {
    /// Builds a block from tagged instructions, validating the Table I
    /// block-structure rules.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] when:
    /// * the block does not start with `setup` or end with `block-end`;
    /// * `setup`/`block-end` appear in the interior;
    /// * a loop id is reused or exceeds [`MAX_LOOP_ID`];
    /// * an instruction's level jumps deeper than the enclosing nest allows
    ///   or exceeds [`MAX_LOOP_DEPTH`];
    /// * a `gen-addr` references an undeclared loop;
    /// * a `loop` has a zero trip count.
    pub fn new(
        name: impl Into<String>,
        bases: DramBases,
        instructions: Vec<TaggedInstruction>,
    ) -> Result<Self, IsaError> {
        let block = InstructionBlock {
            name: name.into(),
            bases,
            instructions,
        };
        block.validate()?;
        Ok(block)
    }

    fn validate(&self) -> Result<(), IsaError> {
        let instrs = &self.instructions;
        if instrs.len() < 2 {
            return Err(IsaError::MalformedBlock("fewer than two instructions"));
        }
        match instrs.first().map(|t| t.instruction) {
            Some(Instruction::Setup { .. }) => {}
            _ => return Err(IsaError::MalformedBlock("block must start with setup")),
        }
        match instrs.last().map(|t| t.instruction) {
            Some(Instruction::BlockEnd { .. }) => {}
            _ => return Err(IsaError::MalformedBlock("block must end with block-end")),
        }
        // Loop ids are dense and small (at most `MAX_LOOP_ID`), so the
        // declared set is a flat array: validation never allocates.
        let mut declared = [false; MAX_LOOP_ID as usize + 1];
        // Depth tracking: a loop declared at level L has body level L+1.
        let mut depth: u8 = 0;
        for (idx, t) in instrs.iter().enumerate() {
            let interior = idx != 0 && idx != instrs.len() - 1;
            match t.instruction {
                Instruction::Setup { .. } if interior => {
                    return Err(IsaError::MalformedBlock("setup in block interior"));
                }
                Instruction::BlockEnd { .. } if interior => {
                    return Err(IsaError::MalformedBlock("block-end in block interior"));
                }
                Instruction::Loop { id, iterations } => {
                    if id.0 > MAX_LOOP_ID {
                        return Err(IsaError::LoopIdOutOfRange(id.0));
                    }
                    if declared[id.0 as usize] {
                        return Err(IsaError::DuplicateLoop(id.0));
                    }
                    if iterations == 0 {
                        return Err(IsaError::ZeroTripLoop(id.0));
                    }
                    if t.level > depth {
                        return Err(IsaError::LevelJump {
                            index: idx,
                            level: t.level,
                            depth,
                        });
                    }
                    if t.level + 1 > MAX_LOOP_DEPTH {
                        return Err(IsaError::LevelJump {
                            index: idx,
                            level: t.level,
                            depth: MAX_LOOP_DEPTH,
                        });
                    }
                    declared[id.0 as usize] = true;
                    depth = t.level + 1;
                }
                Instruction::GenAddr { loop_id, .. } => {
                    // An id past `MAX_LOOP_ID` was never declared.
                    if !declared.get(loop_id.0 as usize).copied().unwrap_or(false) {
                        return Err(IsaError::UndeclaredLoop(loop_id.0));
                    }
                }
                _ => {
                    if t.level > depth {
                        return Err(IsaError::LevelJump {
                            index: idx,
                            level: t.level,
                            depth,
                        });
                    }
                    depth = t.level;
                }
            }
        }
        Ok(())
    }

    /// The tagged instruction sequence.
    pub fn instructions(&self) -> &[TaggedInstruction] {
        &self.instructions
    }

    /// The instructions between `setup` and `block-end`: the loop nest the
    /// folds in [`crate::walker`] and [`crate::program`] scan.
    pub(crate) fn body(&self) -> &[TaggedInstruction] {
        &self.instructions[1..self.instructions.len() - 1]
    }

    /// Instruction slots allocated for the block. Blocks built by
    /// [`crate::BlockBuilder`] are exact-size (equal to [`Self::len`]),
    /// which the compiler's allocation tests check.
    #[doc(hidden)]
    pub fn storage_capacity(&self) -> usize {
        self.instructions.capacity()
    }

    /// Number of instructions (the paper reports 30–86 per layer; §IV-A).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the block has no instructions (never true for a validated
    /// block, which has at least `setup` and `block-end`).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The precision pair configured by the block's `setup` instruction.
    pub fn setup_pair(&self) -> PairPrecision {
        match self.instructions[0].instruction {
            Instruction::Setup { input, weight } => PairPrecision::new(input, weight),
            _ => unreachable!("validated block starts with setup"),
        }
    }

    /// The successor index named by `block-end`.
    pub fn next_block(&self) -> u16 {
        match self.instructions[self.instructions.len() - 1].instruction {
            Instruction::BlockEnd { next } => next,
            _ => unreachable!("validated block ends with block-end"),
        }
    }

    /// Effective stride table: per (space, buffer, loop), the summed stride
    /// of all matching `gen-addr` instructions (Equation 4 semantics).
    pub fn stride_table(&self) -> BTreeMap<(u8, Scratchpad, LoopId), u64> {
        let mut table = BTreeMap::new();
        for t in &self.instructions {
            if let Instruction::GenAddr {
                loop_id,
                space,
                buffer,
                stride,
            } = t.instruction
            {
                *table.entry((space.code(), buffer, loop_id)).or_insert(0) += stride;
            }
        }
        table
    }

    /// Canonical form for semantic comparison: merges duplicate `gen-addr`
    /// strides and merges runs of identical-target `ld-mem`/`st-mem` word
    /// counts (the binary encoder may split wide values across instructions).
    pub fn canonicalize(&self) -> InstructionBlock {
        let mut out: Vec<TaggedInstruction> = Vec::with_capacity(self.instructions.len());
        for t in &self.instructions {
            match t.instruction {
                Instruction::GenAddr {
                    loop_id,
                    space,
                    buffer,
                    stride,
                } => {
                    // Merge into an earlier gen-addr for the same stream.
                    if let Some(prev) = out.iter_mut().find(|p| {
                        matches!(p.instruction,
                            Instruction::GenAddr { loop_id: l, space: s, buffer: b, .. }
                                if l == loop_id && s == space && b == buffer)
                    }) {
                        if let Instruction::GenAddr { stride: ref mut s, .. } = prev.instruction {
                            *s += stride;
                        }
                        continue;
                    }
                    out.push(TaggedInstruction::new(
                        Instruction::GenAddr {
                            loop_id,
                            space,
                            buffer,
                            stride,
                        },
                        0,
                    ));
                }
                Instruction::LdMem { buffer, bits, words } => {
                    if let Some(prev) = out.last_mut() {
                        if prev.level == t.level {
                            if let Instruction::LdMem {
                                buffer: pb,
                                bits: pbits,
                                words: ref mut pw,
                            } = prev.instruction
                            {
                                if pb == buffer && pbits == bits {
                                    *pw += words;
                                    continue;
                                }
                            }
                        }
                    }
                    out.push(*t);
                }
                Instruction::StMem { buffer, bits, words } => {
                    if let Some(prev) = out.last_mut() {
                        if prev.level == t.level {
                            if let Instruction::StMem {
                                buffer: pb,
                                bits: pbits,
                                words: ref mut pw,
                            } = prev.instruction
                            {
                                if pb == buffer && pbits == bits {
                                    *pw += words;
                                    continue;
                                }
                            }
                        }
                    }
                    out.push(*t);
                }
                _ => out.push(*t),
            }
        }
        InstructionBlock {
            name: self.name.clone(),
            bases: self.bases,
            instructions: out,
        }
    }

    /// Reconstructs the loop tree.
    pub fn loop_tree(&self) -> LoopTree {
        LoopTree::from_block(self)
    }
}

impl fmt::Display for InstructionBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; block \"{}\"", self.name)?;
        writeln!(
            f,
            "; bases ibuf={} wbuf={} obuf={}",
            self.bases.ibuf, self.bases.wbuf, self.bases.obuf
        )?;
        for t in &self.instructions {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

/// An item in a loop body: either a plain instruction or a nested loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyItem {
    /// A non-loop instruction.
    Instr(Instruction),
    /// A nested loop.
    Loop(LoopNode),
}

/// A node of the reconstructed loop tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNode {
    /// The loop's identifier.
    pub id: LoopId,
    /// Trip count.
    pub iterations: u32,
    /// Body items in program order.
    pub body: Vec<BodyItem>,
}

/// The loop tree of a block: top-level items plus the block's stride table
/// and configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopTree {
    /// Top-level (block-scope) items, excluding `setup`/`block-end`.
    pub body: Vec<BodyItem>,
    /// The block's precision pair.
    pub pair: PairPrecision,
    /// Effective strides: (space code, buffer, loop) → stride.
    pub strides: BTreeMap<(u8, Scratchpad, LoopId), u64>,
    /// DRAM bases.
    pub bases: DramBases,
}

impl LoopTree {
    /// Builds the tree from a validated block.
    pub fn from_block(block: &InstructionBlock) -> LoopTree {
        // Stack of open bodies; index 0 is the block scope.
        let mut stack: Vec<Vec<BodyItem>> = vec![Vec::new()];
        let mut loops: Vec<(LoopId, u32)> = Vec::new(); // open loop headers
        for t in block.body() {
            // `gen-addr` is declarative; it lives in the stride table only.
            if matches!(t.instruction, Instruction::GenAddr { .. }) {
                continue;
            }
            let target_depth = match t.instruction {
                Instruction::Loop { .. } => t.level as usize,
                _ => t.level as usize,
            };
            // Close loops deeper than the target depth.
            while loops.len() > target_depth {
                let (id, iterations) = loops.pop().expect("stack tracked");
                let body = stack.pop().expect("stack tracked");
                let node = LoopNode {
                    id,
                    iterations,
                    body,
                };
                stack
                    .last_mut()
                    .expect("block scope always open")
                    .push(BodyItem::Loop(node));
            }
            match t.instruction {
                Instruction::Loop { id, iterations } => {
                    loops.push((id, iterations));
                    stack.push(Vec::new());
                }
                instr => stack
                    .last_mut()
                    .expect("block scope always open")
                    .push(BodyItem::Instr(instr)),
            }
        }
        while let Some((id, iterations)) = loops.pop() {
            let body = stack.pop().expect("stack tracked");
            stack
                .last_mut()
                .expect("block scope")
                .push(BodyItem::Loop(LoopNode {
                    id,
                    iterations,
                    body,
                }));
        }
        LoopTree {
            body: stack.pop().expect("block scope"),
            pair: block.setup_pair(),
            strides: block.stride_table(),
            bases: block.bases,
        }
    }

    /// Total dynamic executions of `compute` instructions in the tree.
    pub fn dynamic_compute_count(&self) -> u64 {
        fn count(items: &[BodyItem]) -> u64 {
            items
                .iter()
                .map(|item| match item {
                    BodyItem::Instr(Instruction::Compute { .. }) => 1,
                    BodyItem::Instr(_) => 0,
                    BodyItem::Loop(node) => node.iterations as u64 * count(&node.body),
                })
                .sum()
        }
        count(&self.body)
    }

    /// Maximum loop depth.
    pub fn depth(&self) -> usize {
        fn depth_of(items: &[BodyItem]) -> usize {
            items
                .iter()
                .map(|item| match item {
                    BodyItem::Instr(_) => 0,
                    BodyItem::Loop(node) => 1 + depth_of(&node.body),
                })
                .max()
                .unwrap_or(0)
        }
        depth_of(&self.body)
    }

    /// Stride for a (space, buffer, loop) stream; zero when undeclared.
    pub fn stride(&self, space: AddressSpace, buffer: Scratchpad, id: LoopId) -> u64 {
        self.strides
            .get(&(space.code(), buffer, id))
            .copied()
            .unwrap_or(0)
    }
}

/// A compiled program: a sequence of blocks executed in order (each block's
/// `block-end.next` names its successor; the compiler emits them in chain
/// order).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The blocks in execution order.
    pub blocks: Vec<InstructionBlock>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program { blocks: Vec::new() }
    }

    /// Appends a block, fixing up its `block-end.next` chain index.
    pub fn push(&mut self, block: InstructionBlock) {
        self.blocks.push(block);
    }

    /// Total static instruction count.
    pub fn static_instructions(&self) -> usize {
        self.blocks.iter().map(InstructionBlock::len).sum()
    }
}

/// Convenience constructor for a `Precision` used across the ISA tests.
#[doc(hidden)]
pub fn test_pair() -> (Precision, Precision) {
    use bitfusion_core::bitwidth::BitWidth;
    (
        Precision::unsigned(BitWidth::B4),
        Precision::signed(BitWidth::B2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::ComputeFn;

    fn setup() -> TaggedInstruction {
        let (input, weight) = test_pair();
        TaggedInstruction::new(Instruction::Setup { input, weight }, 0)
    }

    fn block_end() -> TaggedInstruction {
        TaggedInstruction::new(Instruction::BlockEnd { next: 0 }, 0)
    }

    fn tag(i: Instruction, level: u8) -> TaggedInstruction {
        TaggedInstruction::new(i, level)
    }

    #[test]
    fn minimal_block_validates() {
        let b = InstructionBlock::new("min", DramBases::default(), vec![setup(), block_end()])
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.next_block(), 0);
        assert!(!b.is_empty());
    }

    #[test]
    fn missing_setup_rejected() {
        let r = InstructionBlock::new("bad", DramBases::default(), vec![block_end()]);
        assert!(r.is_err());
        let r = InstructionBlock::new(
            "bad",
            DramBases::default(),
            vec![tag(Instruction::Compute { op: ComputeFn::Mac }, 0), block_end()],
        );
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_loop_rejected() {
        let instrs = vec![
            setup(),
            tag(Instruction::Loop { id: LoopId(0), iterations: 4 }, 0),
            tag(Instruction::Loop { id: LoopId(0), iterations: 4 }, 1),
            block_end(),
        ];
        assert!(matches!(
            InstructionBlock::new("dup", DramBases::default(), instrs),
            Err(IsaError::DuplicateLoop(0))
        ));
    }

    #[test]
    fn zero_trip_rejected() {
        let instrs = vec![
            setup(),
            tag(Instruction::Loop { id: LoopId(0), iterations: 0 }, 0),
            block_end(),
        ];
        assert!(matches!(
            InstructionBlock::new("z", DramBases::default(), instrs),
            Err(IsaError::ZeroTripLoop(0))
        ));
    }

    #[test]
    fn level_jump_rejected() {
        let instrs = vec![
            setup(),
            // Level 2 with no enclosing loop.
            tag(Instruction::Compute { op: ComputeFn::Mac }, 2),
            block_end(),
        ];
        assert!(matches!(
            InstructionBlock::new("jump", DramBases::default(), instrs),
            Err(IsaError::LevelJump { .. })
        ));
    }

    #[test]
    fn undeclared_gen_addr_rejected() {
        let instrs = vec![
            setup(),
            tag(
                Instruction::GenAddr {
                    loop_id: LoopId(5),
                    space: AddressSpace::OffChip,
                    buffer: Scratchpad::Ibuf,
                    stride: 4,
                },
                0,
            ),
            block_end(),
        ];
        assert!(matches!(
            InstructionBlock::new("ga", DramBases::default(), instrs),
            Err(IsaError::UndeclaredLoop(5))
        ));
    }

    fn gen_addr(id: u8) -> TaggedInstruction {
        tag(
            Instruction::GenAddr {
                loop_id: LoopId(id),
                space: AddressSpace::OnChip,
                buffer: Scratchpad::Obuf,
                stride: 1,
            },
            0,
        )
    }

    fn validate(body: Vec<TaggedInstruction>) -> Result<InstructionBlock, IsaError> {
        let mut instrs = vec![setup()];
        instrs.extend(body);
        instrs.push(block_end());
        InstructionBlock::new("edge", DramBases::default(), instrs)
    }

    #[test]
    fn a_closed_loop_id_stays_declared() {
        // Sibling loops: the first closes before the second reuses its id.
        let lp = |id| tag(Instruction::Loop { id: LoopId(id), iterations: 2 }, 0);
        let mac = tag(Instruction::Compute { op: ComputeFn::Mac }, 1);
        assert_eq!(
            validate(vec![lp(3), mac, lp(3), mac]),
            Err(IsaError::DuplicateLoop(3))
        );
        // ... and a gen-addr after the loop closed still names it.
        assert!(validate(vec![lp(3), mac, gen_addr(3)]).is_ok());
    }

    #[test]
    fn gen_addr_ids_outside_the_declared_set_are_errors() {
        let lp = |id| tag(Instruction::Loop { id: LoopId(id), iterations: 2 }, 0);
        // Declared later, never declared, and past the id space: each an
        // error, none an out-of-bounds index.
        assert_eq!(
            validate(vec![gen_addr(1), lp(1)]),
            Err(IsaError::UndeclaredLoop(1))
        );
        assert_eq!(
            validate(vec![lp(0), gen_addr(MAX_LOOP_ID)]),
            Err(IsaError::UndeclaredLoop(MAX_LOOP_ID))
        );
        for id in [MAX_LOOP_ID + 1, u8::MAX] {
            assert_eq!(
                validate(vec![lp(0), gen_addr(id)]),
                Err(IsaError::UndeclaredLoop(id))
            );
            assert_eq!(validate(vec![lp(id)]), Err(IsaError::LoopIdOutOfRange(id)));
        }
        // The last id of the space is usable.
        assert!(validate(vec![lp(MAX_LOOP_ID), gen_addr(MAX_LOOP_ID)]).is_ok());
    }

    /// The Figure 12(b) pattern: tiled FC layer with post-body stores.
    fn figure_12b() -> InstructionBlock {
        let (input, weight) = test_pair();
        let instrs = vec![
            tag(Instruction::Setup { input, weight }, 0),
            // loop tic (outermost)
            tag(Instruction::Loop { id: LoopId(0), iterations: 8 }, 0),
            tag(Instruction::LdMem { buffer: Scratchpad::Ibuf, bits: 4, words: 512 }, 1),
            tag(Instruction::LdMem { buffer: Scratchpad::Wbuf, bits: 2, words: 2048 }, 1),
            // loop toc
            tag(Instruction::Loop { id: LoopId(1), iterations: 4 }, 1),
            tag(Instruction::LdMem { buffer: Scratchpad::Obuf, bits: 8, words: 128 }, 2),
            // loop oc
            tag(Instruction::Loop { id: LoopId(2), iterations: 128 }, 2),
            tag(Instruction::RdBuf { buffer: Scratchpad::Obuf }, 3),
            // loop ic
            tag(Instruction::Loop { id: LoopId(3), iterations: 512 }, 3),
            tag(Instruction::RdBuf { buffer: Scratchpad::Ibuf }, 4),
            tag(Instruction::RdBuf { buffer: Scratchpad::Wbuf }, 4),
            tag(Instruction::Compute { op: ComputeFn::Mac }, 4),
            // post-body of oc loop: write the finished output element.
            tag(Instruction::WrBuf { buffer: Scratchpad::Obuf }, 3),
            // post-body of toc loop: store the output tile.
            tag(Instruction::StMem { buffer: Scratchpad::Obuf, bits: 8, words: 128 }, 2),
            tag(Instruction::GenAddr {
                loop_id: LoopId(3),
                space: AddressSpace::OffChip,
                buffer: Scratchpad::Ibuf,
                stride: 1,
            }, 0),
            tag(Instruction::BlockEnd { next: 1 }, 0),
        ];
        InstructionBlock::new("fc-tiled", DramBases::default(), instrs).unwrap()
    }

    #[test]
    fn figure_12b_loop_tree_shape() {
        let tree = figure_12b().loop_tree();
        assert_eq!(tree.depth(), 4);
        // Top level holds exactly the tic loop.
        assert_eq!(tree.body.len(), 1);
        let BodyItem::Loop(tic) = &tree.body[0] else {
            panic!("expected loop at top level");
        };
        assert_eq!(tic.id, LoopId(0));
        // tic body: 2 ld-mem + toc loop.
        assert_eq!(tic.body.len(), 3);
        let BodyItem::Loop(toc) = &tic.body[2] else {
            panic!("expected toc loop");
        };
        // toc body: ld-mem OBUF, oc loop, st-mem OBUF (post-body).
        assert_eq!(toc.body.len(), 3);
        assert!(matches!(toc.body[2], BodyItem::Instr(Instruction::StMem { .. })));
        let BodyItem::Loop(oc) = &toc.body[1] else {
            panic!("expected oc loop");
        };
        // oc body: rd-buf OBUF, ic loop, wr-buf OBUF (post-body).
        assert_eq!(oc.body.len(), 3);
        assert!(matches!(oc.body[2], BodyItem::Instr(Instruction::WrBuf { .. })));
    }

    #[test]
    fn dynamic_compute_count_multiplies_trips() {
        let tree = figure_12b().loop_tree();
        // compute executes 8 * 4 * 128 * 512 times.
        assert_eq!(tree.dynamic_compute_count(), 8 * 4 * 128 * 512);
    }

    #[test]
    fn stride_table_sums_duplicates() {
        let (input, weight) = test_pair();
        let ga = |stride| {
            tag(
                Instruction::GenAddr {
                    loop_id: LoopId(0),
                    space: AddressSpace::OffChip,
                    buffer: Scratchpad::Wbuf,
                    stride,
                },
                0,
            )
        };
        let instrs = vec![
            tag(Instruction::Setup { input, weight }, 0),
            tag(Instruction::Loop { id: LoopId(0), iterations: 2 }, 0),
            ga(100),
            ga(65536),
            tag(Instruction::BlockEnd { next: 0 }, 0),
        ];
        let b = InstructionBlock::new("strides", DramBases::default(), instrs).unwrap();
        let tree = b.loop_tree();
        assert_eq!(
            tree.stride(AddressSpace::OffChip, Scratchpad::Wbuf, LoopId(0)),
            65636
        );
        // Canonical form merges the two gen-addrs.
        let canon = b.canonicalize();
        let gen_addrs = canon
            .instructions()
            .iter()
            .filter(|t| matches!(t.instruction, Instruction::GenAddr { .. }))
            .count();
        assert_eq!(gen_addrs, 1);
    }

    #[test]
    fn canonicalize_merges_split_dmas() {
        let (input, weight) = test_pair();
        let ld = |words| {
            tag(
                Instruction::LdMem {
                    buffer: Scratchpad::Ibuf,
                    bits: 4,
                    words,
                },
                1,
            )
        };
        let instrs = vec![
            tag(Instruction::Setup { input, weight }, 0),
            tag(Instruction::Loop { id: LoopId(0), iterations: 2 }, 0),
            ld(65535),
            ld(1),
            tag(Instruction::BlockEnd { next: 0 }, 0),
        ];
        let b = InstructionBlock::new("split", DramBases::default(), instrs).unwrap();
        let canon = b.canonicalize();
        let lds: Vec<u64> = canon
            .instructions()
            .iter()
            .filter_map(|t| match t.instruction {
                Instruction::LdMem { words, .. } => Some(words),
                _ => None,
            })
            .collect();
        assert_eq!(lds, vec![65536]);
    }

    #[test]
    fn setup_pair_reflects_setup() {
        let b = figure_12b();
        let pair = b.setup_pair();
        assert_eq!(pair.input.bits(), 4);
        assert_eq!(pair.weight.bits(), 2);
    }

    #[test]
    fn display_includes_indentation() {
        let text = figure_12b().to_string();
        assert!(text.contains("\n    loop l2"));
        assert!(text.contains("        compute mac"));
    }
}
