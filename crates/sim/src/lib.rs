//! # bitfusion-sim
//!
//! The cycle-level performance and energy simulator for the Bit Fusion
//! accelerator (§V-A of Sharma et al., ISCA 2018: "a cycle-accurate
//! simulator that takes the Fusion-ISA instructions for the given DNN and
//! simulates the execution to calculate the cycle counts as well as the
//! number of accesses to on-chip buffers and off-chip memory").
//!
//! * [`backend`] — the pluggable [`SimBackend`] interface and the
//!   closed-form [`AnalyticBackend`];
//! * [`engine`] — the analytic per-layer evaluation: systolic compute
//!   timing (steps, temporal cycles, fill/drain), double-buffered DMA
//!   overlap, bit-granular buffer access counting, and the energy model
//!   shared by all backends;
//! * [`event`] — the trace-driven [`EventBackend`]: explicit
//!   DMA/systolic/post-op pipeline state advanced over the block's tile
//!   segments, with stall attribution and occupancy highwater marks;
//! * [`accelerator`] — the [`BitFusionSim`] front end (compile + evaluate),
//!   generic over the backend;
//! * [`stats`] — [`PerfReport`]/[`LayerPerf`] result types plus
//!   [`StallBreakdown`]/[`BufferOccupancy`];
//! * [`layer_cache`] — the layer tier of the two-tier cache: memoized
//!   per-layer evaluation results keyed on structural fingerprints, below
//!   the model-level artifact cache;
//! * [`sweep`] — the Figure 15/16 sensitivity sweeps, one `report`-path
//!   evaluation per point, generic over the backend;
//! * [`dse`] — sharded design-space exploration: an
//!   architecture-grid × network × batch sweep with a memoized compile
//!   cache, `std::thread` workers ([`pool`]), and Pareto-frontier
//!   reduction over (cycles, energy, area).
//!
//! The DMA traffic comes from walking the *actual compiled instruction
//! blocks* (`bitfusion_isa::walker`) — summarized analytically for the
//! analytic backend, streamed as tile segments for the event backend — so
//! the performance models and the ISA semantics cannot drift apart, and the
//! two backends are cross-validated bit-exactly on traffic and MACs (see
//! `DESIGN.md`, "Simulation backends").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accelerator;
pub mod backend;
pub mod dse;
pub mod engine;
pub mod event;
pub mod layer_cache;
pub mod pool;
pub mod stats;
pub mod sweep;

pub use accelerator::BitFusionSim;
pub use backend::{AnalyticBackend, SimBackend, BACKEND_CYCLE_TOLERANCE};
pub use engine::{energy_for_layer, evaluate_layer, DeratedRate, SimOptions};
pub use event::EventBackend;
pub use layer_cache::{eval_context, plan_layer_sharing, run_plan_cached, LayerPerfCache};
pub use stats::{BufferOccupancy, LayerPerf, PerfReport, StallBreakdown};
pub use dse::{
    explore, explore_with_caches, ArchSummary, DsePoint, DseResult, DseSpec, InfeasiblePoint,
    PointError, QuantSpeedup, QuantSummary, TooManyPoints, MAX_DSE_POINTS,
};
pub use sweep::{bandwidth_sweep, batch_sweep, Sweep, SweepPoint};
