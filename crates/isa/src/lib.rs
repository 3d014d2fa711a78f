//! # bitfusion-isa
//!
//! The Fusion-ISA: the block-structured hardware/software interface of the
//! Bit Fusion accelerator (§IV and Table I of Sharma et al., ISCA 2018).
//!
//! The ISA has three jobs (§IV): amortize the cost of bit-level fusion by
//! grouping a layer's operations into *instruction blocks* whose fusion
//! configuration is fixed by one `setup`; express DNN layers concisely with
//! `loop`/`gen-addr`/`compute` iterative semantics (blocks of 30–86
//! instructions cover LSTM, CNN, pooling, and fully-connected layers); and
//! decouple on-chip from off-chip memory accesses (`ld-mem`/`st-mem` vs
//! `rd-buf`/`wr-buf`).
//!
//! * [`instruction`] — instruction definitions and the loop-level tagging
//!   scheme;
//! * [`block`] — validated instruction blocks and loop-tree reconstruction;
//! * [`builder`] — ergonomic block construction;
//! * [`encode`] — the 32-bit binary format of Table I
//!   (`opcode | field1 | field2 | immediate`);
//! * [`asm`] — textual assembly in the style of the paper's Figure 12;
//! * [`walker`] — execution semantics: the Equation 4 address walker, the
//!   analytic summarizer, and the tile-segment iterator the simulation
//!   backends consume;
//! * [`program`] — compiled segment programs: a block's segment stream
//!   flattened once into a reusable, allocation-free op sequence (the event
//!   backend's evaluation path).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod block;
pub mod builder;
pub mod encode;
pub mod error;
pub mod instruction;
pub mod program;
pub mod walker;

pub use block::{BodyItem, DramBases, InstructionBlock, LoopNode, LoopTree, Program};
pub use builder::BlockBuilder;
pub use error::IsaError;
pub use instruction::{
    AddressSpace, ComputeFn, Instruction, LoopId, Scratchpad, TaggedInstruction,
};
pub use program::SegmentProgram;
pub use walker::{
    for_each_segment, segments, summarize, walk, BlockSummary, BufferCounts, ComputeCounts, Event,
    Segment,
};
