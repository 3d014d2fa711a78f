//! # bitfusion-compiler
//!
//! The compiler from quantized DNN layers to Fusion-ISA instruction blocks
//! (§IV of Sharma et al., ISCA 2018), implementing the paper's three code
//! optimizations (§IV-B):
//!
//! * **loop tiling** — buffer-constrained tile-size search ([`tiling`])
//!   under an off-chip-traffic cost model ([`cost`]);
//! * **loop ordering** — input/output/weight-stationary dataflow selection
//!   per layer (the six tile-loop orders of [`tiling::LoopOrder`]);
//! * **layer fusion** — activation/pooling/elementwise layers absorbed into
//!   the producing MAC layer's block ([`fuse`]).
//!
//! [`plan::compile`] drives the pipeline: fuse → GEMM view ([`gemm`]) →
//! tile search → block emission ([`lower`]), producing an
//! [`ExecutionPlan`] whose blocks are valid, encodable Fusion-ISA and whose
//! [`Mapping`] facts (whole-layer and per-segment) feed the performance
//! simulator. Compiled plans are memoizable in the shared, thread-safe
//! [`cache::ArtifactCache`], keyed on exactly the inputs compilation reads
//! (model, batch, array geometry, buffer capacities — *not* bandwidth or
//! frequency). Below it sits the layer tier
//! ([`cache::LayerArtifactCache`]): per-layer evaluation results keyed on
//! a structural [`cache::layer_fingerprint`], so repeated layer shapes are
//! evaluated once per (arch, quant, batch) however often they recur.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cost;
pub mod error;
pub mod fuse;
pub mod gemm;
pub mod lower;
pub mod plan;
pub mod tiling;

pub use cache::{
    layer_fingerprint, ArtifactCache, ArtifactKey, CacheStats, CachedPlan, FnvBuildHasher,
    LayerArtifactCache, LayerKey,
};
pub use error::CompileError;
pub use fuse::{fuse_layers, FusedGroup, PostOp};
pub use gemm::{layer_to_gemm, GemmLayer, GemmShape};
pub use lower::{Mapping, SegmentFacts};
pub use plan::{compile, ExecutionPlan, PlannedLayer};
pub use tiling::{choose_tiling, LoopOrder, TilePlan, TileSizes};
