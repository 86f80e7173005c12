//! The E-RNN design-optimization framework (the paper's primary
//! contribution).
//!
//! E-RNN splits the co-design problem into two phases:
//!
//! * **Phase I** ([`phase1`], paper Fig. 2 / Sec. VI): derive the RNN model
//!   — cell type, layer size, block size(s) — under an accuracy budget,
//!   with the number of training trials bounded by two observations:
//!   block size dominates layer size as the compression knob (top-down,
//!   Sec. IV) and the computation-reduction curve converges at block size
//!   32–64 (bottom-up, Sec. V / Fig. 8).
//! * **Phase II** ([`phase2`], Sec. VII): given the model, derive the
//!   hardware — PE allocation, quantization word length, activation
//!   implementation — and report performance/energy.
//!
//! [`flow`] wires both phases to the synthetic ASR corpus for end-to-end
//! runs; [`explore`] hosts the two design-exploration analyses that bound
//! the search; [`pipeline`] is the typed model-lifecycle builder that
//! carries a Phase I/II outcome (or any spec) through train → compress →
//! quantize → compile into a deployable, byte-serializable
//! [`ModelArtifact`](ernn_fpga::artifact::ModelArtifact).
//!
//! ```
//! use ernn_core::explore::block_size_bounds;
//! use ernn_fpga::XCKU060;
//!
//! // The bottom-up analysis (paper Fig. 8) caps the block size at 32–64
//! // and the BRAM sanity check floors it (Fig. 2 step 1).
//! let bounds = block_size_bounds(1024, &XCKU060);
//! assert!(bounds.lower <= bounds.upper);
//! ```

#![forbid(unsafe_code)]

pub mod explore;
pub mod flow;
pub mod phase1;
pub mod phase2;
pub mod pipeline;

pub use explore::{block_size_bounds, BlockSizeBounds};
pub use phase1::{run_phase1, CandidateSpec, Phase1Config, Phase1Result, TrainOracle, Trial};
pub use phase2::{run_phase2, Phase2Result};
pub use pipeline::{Pipeline, PipelineError, PipelineModel};
