//! # bitfusion-service
//!
//! The service layer of the Bit Fusion reproduction: a [`Session`] facade
//! and a typed request/response protocol through which **all** evaluation
//! flows.
//!
//! The paper's toolchain separates a compile-once Fusion-ISA artifact from
//! its cycle-accurate evaluation (Sharma et al., ISCA 2018 §IV–V); this
//! crate makes that split an API. Instead of every entry point hand-wiring
//! compile → simulate → render, callers build a [`Request`], hand it to a
//! [`Session`], and get a [`Response`]:
//!
//! * [`protocol`] — [`Request`]/[`Response`] enums covering
//!   `list`/`report`/`compare`/`asm`/`sweep`/`dse`/`quantize`, with a
//!   deterministic single-line JSON wire form (`encode ∘ parse ∘ encode`
//!   is a fixed point, property-tested). `report`, `compare`, `sweep`,
//!   and `dse` carry optional quantization overrides
//!   ([`QuantSpec`](bitfusion_dnn::quantspec::QuantSpec) spellings), and
//!   `dse` explores lists of them as a design-space axis;
//! * [`json`] — the hand-rolled JSON layer beneath it (re-exported from
//!   `bitfusion-core`, where the model format shares it; the workspace is
//!   offline — no serde);
//! * [`session`] — the facade: owns the calibration knobs
//!   ([`SimOptions`](bitfusion_sim::SimOptions)), the default backend, and
//!   the shared, capacity-bounded
//!   [`ArtifactCache`](bitfusion_compiler::ArtifactCache), so `report`,
//!   `compare`, `sweep`, and `dse` all reuse compilations;
//! * [`mod@render`] — the human-readable view of each response (the CLI's
//!   non-`--json` output), derived from the same value as the wire form;
//! * [`mod@serve`] — the long-running JSON-lines loop (`bitfusion-cli serve`):
//!   one request per stdin line, one response per stdout line, dispatched
//!   concurrently over the sim crate's worker pool with output kept in
//!   request order.
//!
//! Determinism is the load-bearing property: for a fixed session
//! configuration the response bytes depend only on the request — not on
//! cache warmth, worker count, or interleaving — so the serve loop and
//! the one-shot CLI are byte-identical by construction. See `DESIGN.md`,
//! "The service layer".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use bitfusion_core::json;
pub mod net;
pub mod protocol;
pub mod render;
pub mod serve;
pub mod session;

pub use bitfusion_core::json::Json;
pub use protocol::{BackendChoice, DseParams, Request, Response, StatsReply};
pub use render::render;
pub use net::{NetConfig, NetListener, NetSummary};
pub use serve::{serve, ServeSummary};
pub use session::Session;
