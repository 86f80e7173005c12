//! # E-RNN
//!
//! A reproduction of *"E-RNN: Design Optimization for Efficient Recurrent
//! Neural Networks in FPGAs"* (Li, Ding, et al., HPCA 2019).
//!
//! E-RNN is an algorithm/hardware co-design framework: LSTM/GRU weight
//! matrices are constrained to the block-circulant format, trained with
//! ADMM, executed with FFT-based kernels, and mapped onto an FPGA through a
//! two-phase design-optimization flow.
//!
//! This facade crate re-exports the entire workspace; downstream users can
//! depend on `ernn` alone:
//!
//! * [`fft`] — FFT kernels, circular convolution, multiplication-cost model.
//! * [`linalg`] — dense kernels and the block-circulant matrix type.
//! * [`quant`] — fixed-point arithmetic and piecewise-linear activations.
//! * [`model`] — LSTM/GRU cells, stacked networks, BPTT training, and the
//!   declarative [`model::ModelSpec`].
//! * [`admm`] — ADMM-based structured training (the paper's Sec. III-B),
//!   [`admm::Recipe`], the Fig. 6 recipe every training caller shares, and
//!   [`admm::train_projected`], which is also C-LSTM-style direct
//!   circulant training.
//! * [`asr`] — synthetic speech corpus, DSP front end, PER scoring.
//! * [`fpga`] — device models, PE/CU designs, cycle simulator, power model,
//!   and the versioned [`fpga::artifact::ModelArtifact`].
//! * [`core`] — the Phase I / Phase II E-RNN framework itself.
//! * [`pipeline`] — the typed model-lifecycle builder (see below).
//! * [`serve`] — batched multi-accelerator inference serving: dynamic
//!   batching, the SLO-aware multi-model scheduler, heterogeneous device
//!   pools, and the zero-allocation batch-fused kernel stack.
//!
//! ## Quickstart: spec → artifact → registry → serve
//!
//! The model lifecycle is one typed path ([`pipeline`]): declare a spec,
//! give it weights (train, or adopt/initialize), compress, quantize,
//! compile. The result is simultaneously a servable
//! [`serve::CompiledModel`] and a versioned, byte-serializable
//! [`fpga::artifact::ModelArtifact`] that the serving registry loads
//! *without retraining or recompressing* — logits and stage cycles are
//! bit-identical to the in-process build:
//!
//! ```
//! use ernn::model::{CellType, ModelSpec};
//! use ernn::pipeline::Pipeline;
//! use ernn::serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
//! use ernn::serve::loadgen::{open_loop_poisson, synthetic_utterances, with_uniform_slo};
//! use ernn::serve::ModelArtifact;
//! use rand::SeedableRng;
//!
//! // 1. Specify and build under the paper's deployment defaults
//! //    (block 8, 12-bit datapath, XCKU060). `init` skips training —
//! //    random weights exercise the same lifecycle; use
//! //    `.train(data, &recipe, rng)` / `.compress(data, &recipe, rng)`
//! //    with an `admm::Recipe` for the real Fig.-6 recipe.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let spec = ModelSpec::new(CellType::Gru, 8, 5).layer_dims(&[16]);
//! let built = Pipeline::paper(spec)?
//!     .init(&mut rng)
//!     .project()?
//!     .quantize()?
//!     .compile()?;
//!
//! // 2. Persist: a deterministic, versioned byte image.
//! let bytes = built.save_bytes();
//!
//! // 3. Deploy: decode and register — zero requantization; the load
//! //    computes each weight spectrum once, as compiling did.
//! let artifact = ModelArtifact::load_bytes(&bytes)?;
//! let mut registry = ModelRegistry::new();
//! registry.register_artifact("gru-16", &artifact);
//!
//! // 4. Serve under the SLO-aware scheduler.
//! let runtime = SchedRuntime::new(
//!     registry,
//!     vec![ernn::fpga::XCKU060],
//!     SchedPolicy::edf_cost_model(4, 100.0),
//! );
//! let utts = synthetic_utterances(4, (3, 8), 8, 7);
//! let report = runtime.run(with_uniform_slo(open_loop_poisson(&utts, 16, 50_000.0, 9), 5_000.0));
//! assert_eq!(report.responses.len(), 16);
//! # Ok::<(), ernn::pipeline::PipelineError>(())
//! ```
//!
//! The design-optimization flow feeds the same pipeline:
//! [`core::flow::run_flow_to_artifact`] runs Phase I/II and hands the
//! winning trained model through
//! [`core::Phase1Result::into_pipeline`] /
//! [`core::Phase2Result::into_pipeline`], so the artifact carries the
//! trial log, ADMM residual and quantization scan as provenance.
//!
//! `examples/quickstart.rs` walks the trained version of this path;
//! `examples/multi_model_serving.rs` serves two artifact-built tenants
//! under the scheduler.

#![forbid(unsafe_code)]

pub use ernn_admm as admm;
pub use ernn_asr as asr;
pub use ernn_core as core;
pub use ernn_core::pipeline;
pub use ernn_fft as fft;
pub use ernn_fpga as fpga;
pub use ernn_linalg as linalg;
pub use ernn_model as model;
pub use ernn_quant as quant;
pub use ernn_serve as serve;
