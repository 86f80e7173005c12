//! SLO-aware multi-model scheduling: heterogeneous pools, admission
//! control, deadline-aware batching.
//!
//! E-RNN's design flow chooses compression and quantization *for* a
//! timing/BRAM budget; this subsystem is the serving-side counterpart —
//! it sits between request arrival and the device pool and decides, under
//! live traffic, **what runs where and when** so deadline-carrying
//! requests actually meet their SLOs on bounded hardware:
//!
//! * [`ModelRegistry`] — the model set a run (or a whole cluster)
//!   serves, one unique name per model. Registration
//!   freezes a model behind an `Arc` for the executors and recomputes
//!   nothing: its FFT'd weight spectra date from compilation
//!   (`spectrum_refresh_count` does not move).
//! * [`DeviceResidency`] — per-device image residency against the
//!   platform's BRAM budget ([`RnnSpec::weight_bytes`] vs Table IV),
//!   holding two [`ImageKey`] classes behind one LRU: **weight images**
//!   per model and **state images** per streaming session. Cold loads
//!   stall the device for the streaming time and evict LRU tenants;
//!   a session's first state materialization is free (the zero state is
//!   fabricated on-device) but a reload after eviction is charged and
//!   traced; [`SchedStats`] counts both classes.
//! * [`CostModel`] — per-(device, model) [`StageCycles`] derived once per
//!   run (the [`StageCycles::xcku060`]/[`StageCycles::virtex7_690t`]
//!   presets name the paper's platforms), answering
//!   [`CostModel::estimate_batch_us`] with the closed form the device
//!   clocks read, exact against the batch simulation.
//! * [`SchedQueue`] — EDF (or FIFO) ordering with per-model batch
//!   formation, gated by a [`PaddingModel`] that closes a batch when
//!   mixing unequal utterance lengths stops paying.
//! * [`AdmissionPolicy`] — shed predicted-late arrivals with an immediate
//!   deadline-miss response; every decision is logged in an
//!   [`AdmissionRecord`].
//! * [`SchedRuntime`] — the event loop combining all of the above, under
//!   the virtual-time determinism contract: responses,
//!   [`ServeMetrics`](crate::ServeMetrics) and [`SchedStats`] are
//!   bit-identical across [`ExecutorKind`](crate::ExecutorKind)s.
//!
//! The event loop is four files around one stateful type. `runtime.rs`
//! holds what is fixed before a run: [`SchedPolicy`], [`SchedConfigError`]
//! and [`SchedRuntime`] — validated configuration plus the entry points
//! [`SchedRuntime::run`] / [`SchedRuntime::run_closed_loop`]. A run is one
//! crate-internal `SchedEngine`, which owns everything the run mutates
//! and every decision as a method: `engine.rs` has the clock (`run_until`,
//! `next_event_us`), admission with its predictor, and **the single shed
//! path** (`SchedEngine::shed`, for admission sheds and dispatch-time
//! capacity-loss sheds alike); `dispatch.rs` has placement, the
//! prospective occupancy window, commit, abort / retry and fault
//! application; `report.rs` has [`SchedStats`], [`SchedReport`] and the
//! closing `finish`. The cluster router steps the same engine per shard
//! and has the matching single paths: one `place` (steer → pin / re-pin →
//! forward, else shed) for fresh arrivals and a killed shard's reclaimed
//! backlog, and one `shed`.
//!
//! Streaming sessions ([`Workload::Chunk`](crate::Workload) requests)
//! get session-affinity placement: the first dispatched chunk pins the
//! session's device, every later chunk runs there (state migrates only
//! when the pinned device crashes and failover re-pins the session),
//! admission predicts on the pinned device only, shedding
//! any chunk cancels the whole session, and
//! [`RuntimeConfig::max_live_sessions`](crate::RuntimeConfig) caps
//! concurrency by shedding excess sessions whole. Batches close at
//! chunk boundaries, so EDF preempts per chunk — see
//! `docs/streaming.md`.
//!
//! Under an installed [`FaultPlan`](crate::FaultPlan) the runtime adds a
//! fault-tolerance layer: batches abort before commit when a fault lands
//! inside their occupancy window, aborted requests retry with capped
//! exponential backoff ([`backoff_us`](crate::backoff_us)), crashes
//! wipe residency and fail work over to surviving devices, and pinned
//! sessions re-pin with their state recharged — stitched logits stay
//! bit-identical to whole-utterance inference across a mid-session
//! failover. Construction errors (including an out-of-range fault plan)
//! surface as [`SchedConfigError`] through
//! [`SchedRuntime::try_with_config`]. See `docs/fault_tolerance.md`.
//!
//! The `sched_sweep` bench bin compares [`SchedPolicy::edf_cost_model`]
//! against [`SchedPolicy::fifo_earliest_free`] on a mixed two-model,
//! two-platform workload and asserts the EDF + cost-model configuration
//! misses fewer deadlines at the same offered load; `stream_sweep`
//! asserts chunked streaming strictly cuts tight-SLO deadline misses vs
//! utterance-level serving; `chaos_sweep` runs a seeded fault schedule
//! and asserts zero requests are lost, migrated sessions stay
//! bit-identical, and failover strictly beats no-failover on
//! deadline-miss rate.
//!
//! [`RnnSpec::weight_bytes`]: ernn_fpga::RnnSpec::weight_bytes
//! [`StageCycles`]: ernn_fpga::StageCycles
//! [`StageCycles::xcku060`]: ernn_fpga::StageCycles::xcku060
//! [`StageCycles::virtex7_690t`]: ernn_fpga::StageCycles::virtex7_690t
//!
//! # Example
//!
//! ```
//! use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
//! use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances, with_uniform_slo};
//! use ernn_serve::CompiledModel;
//! use ernn_fpga::exec::DatapathConfig;
//! use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
//! use ernn_model::{compress_network, BlockPolicy, CellType, NetworkBuilder};
//! use rand::SeedableRng;
//!
//! // Two small models sharing a two-platform pool.
//! let mut registry = ModelRegistry::new();
//! for (seed, name) in [(1u64, "gru-a"), (2, "gru-b")] {
//!     let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
//!     let dense = NetworkBuilder::new(CellType::Gru, 8, 5).layer_dims(&[16]).build(&mut rng);
//!     let net = compress_network(&dense, BlockPolicy::uniform(4));
//!     registry.register(name, CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060));
//! }
//!
//! let runtime = SchedRuntime::new(
//!     registry,
//!     vec![XCKU060, ADM_PCIE_7V3],
//!     SchedPolicy::edf_cost_model(4, 100.0),
//! );
//! let utts = synthetic_utterances(4, (3, 8), 8, 7);
//! let requests: Vec<_> = with_uniform_slo(open_loop_poisson(&utts, 16, 50_000.0, 9), 5_000.0)
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, r)| r.with_model(i % 2))
//!     .collect();
//! let report = runtime.run(requests);
//! assert_eq!(report.responses.len(), 16);
//! println!("{}", report.metrics);
//! ```

mod admission;
mod cost;
mod dispatch;
mod engine;
mod queue;
mod registry;
mod report;
mod residency;
mod runtime;

pub use admission::{AdmissionPolicy, AdmissionRecord};
pub use cost::CostModel;
pub(crate) use engine::SchedEngine;
pub use queue::{PaddingModel, QueueDiscipline, SchedQueue, TakenBatch};
pub use registry::{ModelId, ModelRegistry};
pub use report::{SchedReport, SchedStats};
pub use residency::{DeviceResidency, ImageKey, LoadEvent, WEIGHT_STREAM_BYTES_PER_US};
pub use runtime::{Placement, SchedConfigError, SchedPolicy, SchedRuntime};
