//! Batched multi-accelerator inference serving for compressed E-RNN
//! models.
//!
//! The rest of the workspace reproduces the paper's compress-then-map
//! flow: ADMM training (`ernn_admm`), block-circulant kernels
//! ([`ernn_linalg`]/[`ernn_fft`]), and the CGPipe accelerator model
//! ([`ernn_fpga`]). This crate adds the *serving* layer on top — the part
//! a production deployment needs to turn one accelerator's µs-scale frame
//! latency into sustained utterance throughput under live traffic:
//!
//! * [`Request`]/[`Response`] — requests with virtual arrival times,
//!   optional deadlines, full timing breakdowns, and an explicit
//!   [`Workload`] shape: whole utterances ([`Request::new`]) or chunks
//!   of a streaming session ([`Request::chunk`]). All three types are
//!   `#[non_exhaustive]`; construct through the provided constructors.
//! * **Streaming stateful sessions** — a session's chunks carry its
//!   recurrent [`NetworkState`] between arrivals on the device the
//!   session is pinned to (state migrates only on device failover), so
//!   stitched per-chunk
//!   logits are bit-identical to whole-utterance inference. Session
//!   state is a residency class next to weight images in the
//!   scheduler's BRAM LRU; evictions charge traced state-load stalls on
//!   the virtual clock. Batches form across sessions at chunk
//!   boundaries, giving EDF a preemption point every chunk. Session
//!   limits, lane threads, and tracing are declared once via
//!   [`RuntimeConfig`]. See `docs/streaming.md`.
//! * [`sched::SchedRuntime`] — the one deterministic event loop. A
//!   [`sched::ModelRegistry`] names the models a run serves, a platform
//!   list names its devices, and a [`sched::SchedPolicy`] sets the
//!   max-batch / max-wait throughput-vs-latency dial plus queue order,
//!   placement and admission. One registered model under
//!   [`sched::SchedPolicy::fifo_earliest_free`] is plain dynamic
//!   batching over identical devices (the example below);
//!   [`sched::SchedPolicy::edf_cost_model`] over a mixed registry and a
//!   heterogeneous pool is the full SLO-aware scheduler (see [`sched`]).
//!   [`ServeMetrics`] reports p50/p95/p99 latency, throughput,
//!   per-device occupancy and the batch-size histogram.
//! * [`sched::CostModel`] — the one timing model of the N simulated
//!   accelerators batches land on: every prediction and every device
//!   clock advance is [`sched::CostModel::stream_us`], the closed-form
//!   CGPipe stream timing
//!   ([`StageCycles::stream_completion_cycles`](ernn_fpga::StageCycles::stream_completion_cycles), cycle-exact
//!   against the batch simulation [`ernn_fpga::sim::simulate_batch`]),
//!   while outputs come from the quantized datapath ([`ernn_fpga::exec`]),
//!   so batched results are bit-identical to sequential execution.
//! * [`CompiledModel`] — model load with a once-per-load FFT'd-weight
//!   cache: the load — a compile or an artifact's — computes every
//!   block-circulant weight spectrum a forward reads exactly once, and
//!   only input-side FFTs run per request (observable on the
//!   [`ernn_fft::stats`] ledger; [`LoadStats`] counts the load's).
//!   Inference runs on the zero-allocation, batch-fused kernel stack:
//!   the executor keeps one [`ExecScratch`] per lane thread, a
//!   dispatched batch is computed with one fused
//!   [`CompiledModel::infer_batch_in_place`] call (one pass over the
//!   cached weight spectra per batch) that turns each request's frame
//!   buffer into its logits buffer, and post-warmup the FFT/matvec
//!   kernels perform zero heap allocations.
//! * [`InlineExecutor`] — where host-side inference runs: it hands each
//!   dispatched batch to the run's inference lane, one queue that a
//!   scoped thread per further host core serves while the event loop
//!   keeps routing — a cluster's shards all feed one lane — with session
//!   runs kept in order on one thread and the caller helping drain at
//!   `finish`. [`ExecutorKind::ThreadPool`] gives the lane no thread, so
//!   the caller computes every run at `finish`: the serial reference.
//!   Virtual-time results are bit-identical either way; only the
//!   wall-clock [`sched::SchedReport::host_us`] differs.
//! * [`trace`] — the observability layer: a zero-steady-state-allocation
//!   flight recorder ([`FlightRecorder`]) capturing the full request
//!   lifecycle ([`TraceEvent`]) on the virtual clock, streaming
//!   log-linear latency histograms ([`LatencyHistogram`]), per-(device,
//!   model) stage-time attribution ([`StageAttribution`]), per-request
//!   critical-path analysis ([`trace::analyze`]), and exporters
//!   to Chrome trace-event JSON ([`chrome_trace_json`], loadable in
//!   Perfetto) and Prometheus text ([`prometheus_snapshot`]). Journals
//!   are bit-identical across lanes.
//! * [`timeline`] + [`health`] — the operational-judgment layer on top
//!   of tracing: a pre-sized, zero-steady-state-allocation
//!   [`MetricsTimeline`] ring of fixed-interval virtual-clock samples
//!   (per-device utilization, queue depth and oldest wait, residency
//!   bytes by class, live sessions, cumulative miss/shed/load/retry
//!   counters, EWMA queue delay — the calibrated admission/autoscaling
//!   load signal), and a [`HealthMonitor`] evaluating declarative rules
//!   over it (multi-window SLO burn rate, device-stuck,
//!   residency-thrash, retry-storm), journaling each firing as a
//!   [`TraceEvent`] and summarizing into a per-run [`HealthReport`].
//!   Both are enabled per run via [`RuntimeConfig`] and bit-identical
//!   across executors.
//! * [`loadgen`] — open-loop Poisson and closed-loop traffic shapes.
//! * [`sched`] — the scheduler's components: a [`sched::ModelRegistry`]
//!   with per-device BRAM residency (every device pays one cold
//!   weight-load stall per model it serves), heterogeneous pools placed
//!   by a per-(device, model) cost model, EDF deadline-aware batching
//!   with a padding cost model, and admission control that sheds
//!   predicted-late requests (each shed [`Response`] carries a
//!   [`ShedReason`]).
//! * [`cluster`] — N scheduler shards behind a virtual-clock router
//!   (placement, replication, load-feedback steering, shard failover).
//!   The cluster serves one [`sched::ModelRegistry`], the scheduler's
//!   own type, and checks a load with the scheduler's own validator, so
//!   it rejects what [`sched::SchedRuntime::run`] rejects, identically.
//! * **Fault injection and recovery** — a deterministic, seeded
//!   [`FaultPlan`] of [`DeviceFault`]s (crashes, brownouts, transients)
//!   installed via [`RuntimeConfig::fault_plan`]. The scheduler reacts
//!   with pre-commit batch aborts, capped-exponential-backoff retries
//!   ([`backoff_us`], at most [`MAX_RETRY_ATTEMPTS`]), failover re-placement onto surviving devices,
//!   and session-state migration — all on the virtual clock, observable
//!   through [`TraceEvent`]s, and bit-identical across executors. See
//!   `docs/fault_tolerance.md`.
//!
//! # Example
//!
//! ```
//! use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
//! use ernn_serve::CompiledModel;
//! use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
//! use ernn_fpga::exec::DatapathConfig;
//! use ernn_fpga::XCKU060;
//! use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
//! use rand::SeedableRng;
//!
//! // Compress a small GRU and compile it for serving.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let dense = ModelSpec::new(CellType::Gru, 8, 5).layer_dims(&[16]).build(&mut rng);
//! let net = compress_network(&dense, BlockPolicy::uniform(4));
//! let model = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
//!
//! // Two devices, FIFO batches of up to 4, 100 µs wait budget.
//! let mut registry = ModelRegistry::new();
//! registry.register("gru-16", model);
//! let runtime = SchedRuntime::new(
//!     registry,
//!     vec![XCKU060; 2],
//!     SchedPolicy::fifo_earliest_free(4, 100.0),
//! );
//! let utterances = synthetic_utterances(4, (3, 8), 8, 7);
//! let report = runtime.run(open_loop_poisson(&utterances, 32, 50_000.0, 9));
//! assert_eq!(report.responses.len(), 32);
//! println!("{}", report.metrics);
//! ```

#![forbid(unsafe_code)]

mod cache;
pub mod cluster;
mod config;
mod executor;
pub mod health;
pub mod loadgen;
mod metrics;
mod request;
pub mod sched;
pub mod timeline;
pub mod trace;

pub use cache::{CompiledModel, LoadStats};
pub use cluster::{
    ClusterConfig, ClusterConfigError, ClusterReport, ClusterRuntime, ClusterSpec, ClusterStats,
    ShardReport, Steering,
};
pub use config::{backoff_us, RuntimeConfig, BASE_BACKOFF_US, MAX_BACKOFF_US, MAX_RETRY_ATTEMPTS};
pub use ernn_fpga::artifact::{ModelArtifact, PipelineError};
pub use ernn_fpga::exec::{ExecScratch, NetworkState};
pub use ernn_fpga::fault::{DeviceFault, FaultEvent, FaultPlan};
pub use ernn_fpga::transfer::TransferModel;
pub use executor::{
    Executor, ExecutorKind, ExecutorReport, InferenceJob, InlineExecutor, SessionSlot,
    ThreadPoolExecutor,
};
pub use health::{
    health_json, HealthConfig, HealthEvent, HealthMonitor, HealthReport, HealthRuleKind,
};
pub use metrics::{LatencySummary, ModelMetrics, ServeMetrics};
pub use request::{Request, Response, ShedReason, Workload};
pub use timeline::{timeline_json, MetricsTimeline, Timeline, TimelineConfig, TimelineSample};
pub use trace::analyze::{analyze, PathTotals, RequestSpan, TraceAnalysis};
pub use trace::{
    chrome_trace_json, prometheus_snapshot, FlightRecorder, LatencyHistogram, RunTrace,
    ShardGauges, StageAttribution, StageBreakdown, TraceConfig, TraceEvent, TraceJournal,
};
