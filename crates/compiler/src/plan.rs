//! End-to-end compilation: model → fused groups → tiled GEMMs → instruction
//! blocks + mapping facts.

use bitfusion_core::arch::ArchConfig;
use bitfusion_dnn::model::Model;
use bitfusion_isa::{InstructionBlock, Program};

use crate::error::CompileError;
use crate::fuse::{fuse_layers, PostOp};
use crate::gemm::{layer_to_gemm, GemmLayer};
use crate::lower::{lower_gemm, mapping_for, LowerInput, Mapping, SegmentFacts};
use crate::tiling::{choose_tiling, TilePlan};

/// One compiled (fused) layer group.
#[derive(Debug, Clone)]
pub struct PlannedLayer {
    /// Group name (the MAC layer's name).
    pub name: String,
    /// The emitted Fusion-ISA block.
    pub block: InstructionBlock,
    /// Analytic mapping facts for the performance model.
    pub mapping: Mapping,
    /// The GEMM view.
    pub gemm: GemmLayer,
    /// The chosen tiling.
    pub tile_plan: TilePlan,
    /// Fused post-ops.
    pub postops: Vec<PostOp>,
}

impl PlannedLayer {
    /// Per-tile-iteration mapping facts: the cost of one DMA segment of
    /// [`Self::block`] (see `bitfusion_isa::walker::segments`), consumed by
    /// the trace-driven simulation backend.
    pub fn segment_facts(&self) -> SegmentFacts {
        self.mapping.per_tile
    }
}

/// A compiled model: blocks in execution order plus per-layer mappings.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Source model name.
    pub model_name: String,
    /// Batch size the plan was compiled for.
    pub batch: u64,
    /// Compiled layer groups in execution order.
    pub layers: Vec<PlannedLayer>,
}

impl ExecutionPlan {
    /// Total multiply-accumulates across the plan (for the whole batch).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.mapping.macs).sum()
    }

    /// Total static instruction count.
    pub fn static_instructions(&self) -> usize {
        self.layers.iter().map(|l| l.block.len()).sum()
    }

    /// The plan as an ISA [`Program`].
    pub fn program(&self) -> Program {
        let mut p = Program::new();
        for l in &self.layers {
            p.push(l.block.clone());
        }
        p
    }
}

/// Compiles a model for an architecture at a batch size.
///
/// Applies layer fusion (§IV-B), picks a tiling and loop order per group
/// under the buffer constraints, and emits one instruction block per fused
/// group.
///
/// # Errors
///
/// Returns [`CompileError::ZeroBatch`] for `batch == 0`,
/// [`CompileError::EmptyModel`] when the model has no MAC layers, and
/// propagates tiling/emission failures.
pub fn compile(
    model: &Model,
    arch: &ArchConfig,
    batch: u64,
) -> Result<ExecutionPlan, CompileError> {
    if batch == 0 {
        return Err(CompileError::ZeroBatch);
    }
    let groups = fuse_layers(model, batch)?;
    if groups.is_empty() {
        return Err(CompileError::EmptyModel);
    }
    let count = groups.len();
    let mut layers = Vec::with_capacity(count);
    // Groups are consumed: each one's name and post-ops move into its
    // planned layer.
    let mut groups = groups.into_iter().enumerate().peekable();
    while let Some((gi, group)) = groups.next() {
        // Output storage width: the next MAC layer's input width (values
        // are stored at the minimal bitwidth the consumer needs), 8 bits
        // for the final classifier output.
        let output_bits = groups
            .peek()
            .and_then(|(_, next)| model.layers[next.mac_index].layer.precision())
            .map_or(8, |p| p.input.bits());
        let mac = &model.layers[group.mac_index].layer;
        let gemm = layer_to_gemm(mac, batch, output_bits)?
            .expect("fused groups are headed by MAC layers");
        // Fused residual streams ride the input buffer: reserve IBUF
        // headroom for them when picking tiles (see `choose_tiling`).
        let residual_bits: u64 = group.postops.iter().map(PostOp::extra_input_bits).sum();
        let tile_plan: TilePlan = choose_tiling(&gemm, arch, residual_bits)?;
        let next = if gi + 1 == count { 0 } else { (gi + 1) as u16 };
        let input = LowerInput {
            name: &group.name,
            layer: &gemm,
            plan: &tile_plan,
            postops: &group.postops,
            next,
        };
        let block = lower_gemm(&input, arch)?;
        let mapping = mapping_for(&input, arch);
        layers.push(PlannedLayer {
            name: group.name,
            block,
            mapping,
            gemm,
            tile_plan,
            postops: group.postops,
        });
    }
    Ok(ExecutionPlan {
        model_name: model.name.clone(),
        batch,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_dnn::zoo::Benchmark;

    #[test]
    fn compiles_every_benchmark() {
        let arch = ArchConfig::isca_45nm();
        for b in Benchmark::ALL {
            let model = b.model();
            let plan = compile(&model, &arch, 16).unwrap();
            assert_eq!(plan.layers.len(), model.mac_layers().count(), "{b}");
            assert_eq!(plan.total_macs(), model.total_macs() * 16, "{b}");
        }
    }

    #[test]
    fn block_sizes_match_paper_range() {
        // §IV-A: "blocks with 30-86 instructions are enough to cover LSTM,
        // CNN, pooling, and fully connected".
        let arch = ArchConfig::isca_45nm();
        for b in Benchmark::ALL {
            let plan = compile(&b.model(), &arch, 16).unwrap();
            for l in &plan.layers {
                assert!(
                    (15..=86).contains(&l.block.len()),
                    "{b}/{}: {} instructions",
                    l.name,
                    l.block.len()
                );
            }
        }
    }

    #[test]
    fn chained_block_indices() {
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::Svhn.model(), &arch, 1).unwrap();
        for (i, l) in plan.layers.iter().enumerate() {
            let expect = if i + 1 == plan.layers.len() { 0 } else { (i + 1) as u16 };
            assert_eq!(l.block.next_block(), expect);
        }
        let program = plan.program();
        assert_eq!(program.blocks.len(), plan.layers.len());
        assert_eq!(program.static_instructions(), plan.static_instructions());
    }

    #[test]
    fn zero_batch_rejected() {
        let arch = ArchConfig::isca_45nm();
        assert!(matches!(
            compile(&Benchmark::Lstm.model(), &arch, 0),
            Err(CompileError::ZeroBatch)
        ));
    }

    #[test]
    fn setup_precision_matches_layer() {
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::AlexNet.model(), &arch, 4).unwrap();
        // conv1 is 8/8; middle layers 4/1.
        assert_eq!(plan.layers[0].block.setup_pair().input.bits(), 8);
        assert_eq!(plan.layers[1].block.setup_pair().weight.bits(), 1);
        assert_eq!(plan.layers[1].block.setup_pair().input.bits(), 4);
    }

    #[test]
    fn every_block_encodes_and_decodes() {
        use bitfusion_isa::encode::{decode_block, encode_block};
        let arch = ArchConfig::isca_45nm();
        let plan = compile(&Benchmark::Vgg7.model(), &arch, 16).unwrap();
        for l in &plan.layers {
            let words = encode_block(&l.block).unwrap();
            let decoded = decode_block(&l.name, &words).unwrap();
            assert_eq!(
                decoded.canonicalize().instructions(),
                l.block.canonicalize().instructions(),
                "{}",
                l.name
            );
        }
    }
}
