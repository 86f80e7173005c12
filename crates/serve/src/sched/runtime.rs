//! The SLO-aware multi-model scheduling event loop — the serving
//! stack's one event loop.
//!
//! [`SchedRuntime`] advances a virtual clock over three event kinds —
//! request arrival, batch-full dispatch, and max-wait flush — places
//! formed batches on simulated devices, and hands host inference to an
//! [`Executor`]. Every decision point is a scheduler component:
//!
//! * a [`SchedQueue`] (EDF or FIFO) with per-model, padding-gated batch
//!   formation;
//! * placement by [`Placement::EarliestFree`] or
//!   [`Placement::CostModel`], the latter minimizing predicted finish
//!   time — device ready time, residency load stalls, and
//!   per-(device, model) [`StageCycles`](ernn_fpga::StageCycles)
//!   included;
//! * every dispatch goes through per-device [`DeviceResidency`]: a cold
//!   model stalls the device for its weight-streaming time and may evict
//!   colder tenants;
//! * arrivals pass [`AdmissionPolicy`]: predicted-late requests can be
//!   shed with an immediate deadline-miss response, and overload can
//!   degrade the batch-size cap.
//!
//! A one-model registry under [`SchedPolicy::fifo_earliest_free`] is
//! plain dynamic batching — the classic max-batch / max-wait
//! throughput-vs-latency dial over a pool of identical devices.
//!
//! # Virtual time vs wall clock
//!
//! The runtime keeps two clocks strictly apart. **Virtual time** (every
//! `*_us` field on [`Response`] and [`ServeMetrics`]) is the simulated
//! deployment's clock: arrival processes, batching waits, and CGPipe
//! device timing advance it deterministically, and no host-side property
//! — thread scheduling, CPU load, executor choice — can move a virtual
//! timestamp. **Wall clock** ([`SchedReport::host_us`]) is the real CPU
//! time this process spent producing the run; it is the one number an
//! [`Executor`] is allowed to change. The event loop settles timing
//! first (dispatch is pure arithmetic) and hands the functional work to
//! the executor as [`InferenceJob`]s, so with
//! [`ExecutorKind::ThreadPool`] host inference for one batch overlaps
//! with event-loop processing of the next. Logits are stitched back into
//! the responses before metrics are computed, and come from the
//! quantized datapath per request, so batching changes *when* work
//! happens, never *what* is computed.
//!
//! # The admission predictor
//!
//! For an arrival targeting model *m* with *F* frames at time *t*:
//!
//! ```text
//! ready(d)  = max(t, free_at(d)) + load_us(m) · [m not resident on d]
//! predicted = min over eligible d of (ready(d) + est(d, m, F))
//!             + queue_backlog_us / num_devices
//! ```
//!
//! where `est` is the closed-form service estimate (exact against the
//! device sim) and `queue_backlog_us` sums the queued requests'
//! best-device solo estimates. Every decision lands in
//! [`SchedStats::admission_log`], and `tests/sched_edf.rs` asserts the
//! shed set is exactly the predicted-late set.
//!
//! All scheduling decisions live on the virtual clock, so responses,
//! metrics, and [`SchedStats`] are bit-identical across
//! [`ExecutorKind::Inline`] and [`ExecutorKind::ThreadPool`].
//!
//! # Fault injection and recovery
//!
//! A [`FaultPlan`](ernn_fpga::FaultPlan) in the [`RuntimeConfig`]
//! injects deterministic, virtual-time device faults — crashes (BRAM
//! wiped, device down for a window or forever), brownouts (stage
//! cycles stretched by a multiplier), and transients (one batch lost)
//! — and the scheduler reacts:
//!
//! * a batch whose prospective occupancy window contains a crash or
//!   transient is **aborted before commit**: the device is charged the
//!   wasted time as a stall, and every member re-enters admission
//!   through the arrival queue after a capped exponential backoff
//!   ([`RetryPolicy`](crate::RetryPolicy)); exhausted retries shed
//!   with [`ShedReason::CapacityLoss`];
//! * a crash wipes the device's residency (weight and state images
//!   reload on recovery, charged as usual) and, when
//!   [`RuntimeConfig::failover`] is on, unbinds every streaming
//!   session pinned there — the next chunk re-pins on a surviving
//!   device, re-charges its state image, and the executor migrates
//!   the host-side recurrent state so stitched logits stay
//!   bit-identical to whole-utterance inference
//!   ([`TraceEvent::StateMigration`](crate::trace::TraceEvent));
//! * placement and the admission predictor price faults in: a down
//!   device's ready time is its recovery point (infinite for a
//!   permanent crash) and a browned-out device predicts with
//!   stretched stage cycles, so capacity loss tightens admission.
//!
//! Faults are part of the virtual-time contract: every reaction above
//! is scheduled on the virtual clock, so a faulted run is exactly as
//! deterministic — and as executor-independent — as a clean one. See
//! `docs/fault_tolerance.md` and the `chaos_sweep` bench bin.

use super::admission::{AdmissionPolicy, AdmissionRecord};
use super::cost::CostModel;
use super::queue::{PaddingModel, QueueDiscipline, SchedQueue};
use super::registry::{ModelId, ModelRegistry};
use super::residency::{DeviceResidency, ImageKey};
use crate::config::RuntimeConfig;
use crate::device::DevicePool;
use crate::executor::{
    Executor, ExecutorKind, InferenceJob, InlineExecutor, SessionSlot, ThreadPoolExecutor,
};
use crate::health::{HealthMonitor, HealthReport};
use crate::metrics::ServeMetrics;
use crate::request::{validate_sessions, validate_timing, Request, Response, ShedReason, Workload};
use crate::timeline::{MetricsTimeline, Timeline, TimelineProbe};
use crate::trace::{Observer, RunTrace, TraceConfig};
use ernn_fft::stats::FftStats;
use ernn_fpga::{Device, FaultTimeline};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// How the scheduler places a formed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Lowest `free_at` wins (ties to the lowest index) — blind to
    /// platform speed and residency.
    EarliestFree,
    /// Minimize predicted finish: `max(now, free_at) + cold-load stall +
    /// estimated service` per eligible device (ties to the lowest index).
    #[default]
    CostModel,
}

/// Why a [`SchedRuntime`] registration/configuration was rejected —
/// the typed form of what used to be construction panics, returned by
/// [`SchedRuntime::try_with_config`]. The panicking constructors
/// ([`SchedRuntime::new`] and friends) format this error as their
/// panic message, so the messages are stable either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedConfigError {
    /// The model registry is empty.
    EmptyRegistry,
    /// The platform list is empty.
    NoDevices,
    /// `max_batch` is zero.
    ZeroMaxBatch,
    /// `max_wait_us` is negative.
    NegativeMaxWait,
    /// A registered model's weight image exceeds every device's BRAM
    /// budget — no placement could ever dispatch it.
    ModelFitsNoDevice {
        /// The unplaceable model.
        model: ModelId,
        /// Its registered name.
        name: String,
    },
    /// The fault plan injects a fault into a device index the pool
    /// does not have.
    FaultDeviceOutOfRange {
        /// The out-of-range device index named by the plan.
        device: usize,
        /// The pool size.
        devices: usize,
    },
}

impl fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedConfigError::EmptyRegistry => write!(f, "registry needs at least one model"),
            SchedConfigError::NoDevices => write!(f, "need at least one device"),
            SchedConfigError::ZeroMaxBatch => write!(f, "max_batch must be at least 1"),
            SchedConfigError::NegativeMaxWait => write!(f, "max_wait_us must be ≥ 0"),
            SchedConfigError::ModelFitsNoDevice { model, name } => {
                write!(f, "model {model} ({name}) fits no device's BRAM budget")
            }
            SchedConfigError::FaultDeviceOutOfRange { device, devices } => {
                write!(
                    f,
                    "fault plan names device {device} but the pool has {devices} devices"
                )
            }
        }
    }
}

impl std::error::Error for SchedConfigError {}

/// The scheduler's complete policy knob set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedPolicy {
    /// Queue ordering.
    pub discipline: QueueDiscipline,
    /// Batch placement.
    pub placement: Placement,
    /// Admission control.
    pub admission: AdmissionPolicy,
    /// Dispatch as soon as this many same-model requests are queued.
    pub max_batch: usize,
    /// Flush the queue head once the longest-waiting request has waited
    /// this long (µs).
    pub max_wait_us: f64,
    /// When mixing unequal utterance lengths stops paying.
    pub padding: PaddingModel,
    /// Optional absolute per-device cap (bytes) on the weight-image
    /// budget, applied after the platform's own fraction (see
    /// [`Self::device_budget_bytes`]) — models a deployment that
    /// reserves a fixed slice of BRAM for weights across heterogeneous
    /// platforms. `None` leaves the fractional budget alone.
    pub bram_budget_bytes: Option<u64>,
}

impl SchedPolicy {
    /// The scheduling configuration this subsystem exists for: EDF
    /// ordering, cost-model placement, no admission control (add it via
    /// [`Self::with_admission`]).
    pub fn edf_cost_model(max_batch: usize, max_wait_us: f64) -> Self {
        SchedPolicy {
            discipline: QueueDiscipline::Edf,
            placement: Placement::CostModel,
            admission: AdmissionPolicy::AdmitAll,
            max_batch,
            max_wait_us,
            padding: PaddingModel::none(),
            bram_budget_bytes: None,
        }
    }

    /// The naive baseline: FIFO ordering, earliest-free placement,
    /// admit everything — plain dynamic batching.
    pub fn fifo_earliest_free(max_batch: usize, max_wait_us: f64) -> Self {
        SchedPolicy {
            discipline: QueueDiscipline::Fifo,
            placement: Placement::EarliestFree,
            ..Self::edf_cost_model(max_batch, max_wait_us)
        }
    }

    /// Replaces the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the padding model.
    pub fn with_padding(mut self, padding: PaddingModel) -> Self {
        self.padding = padding;
        self
    }

    /// Caps every device's weight-image budget at an absolute byte count.
    pub fn with_bram_budget_bytes(mut self, bytes: u64) -> Self {
        self.bram_budget_bytes = Some(bytes);
        self
    }

    /// The effective weight-image budget (bytes) on a platform: 80 % of
    /// its BRAM (the remainder is reserved for I/O buffers, matching
    /// `RnnSpec::fits_in_bram`), capped by [`Self::bram_budget_bytes`].
    pub fn device_budget_bytes(&self, platform: &Device) -> u64 {
        const BRAM_BUDGET_FRAC: f64 = 0.8;
        let frac = (platform.bram_bytes() as f64 * BRAM_BUDGET_FRAC) as u64;
        match self.bram_budget_bytes {
            Some(cap) => frac.min(cap),
            None => frac,
        }
    }
}

/// Virtual-time scheduler accounting for one run. Deterministic and
/// executor-independent, like [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedStats {
    /// Requests that entered the queue.
    pub admitted: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Cold model loads across all devices (residency misses).
    pub model_loads: u64,
    /// Models evicted to make room for a load.
    pub model_evictions: u64,
    /// Total virtual time devices spent streaming weight images (µs).
    pub load_us_total: f64,
    /// Batches dispatched under a degraded (capped) batch size.
    pub degraded_batches: u64,
    /// Session state images streamed back after an eviction (reloads;
    /// first materializations are free and uncounted).
    pub state_loads: u64,
    /// Session state images evicted to make room for another image.
    pub state_evictions: u64,
    /// Total virtual time devices spent re-streaming session state (µs).
    pub state_load_us_total: f64,
    /// Injected crashes applied (devices taken down).
    pub device_crashes: u64,
    /// Injected brownout windows entered.
    pub device_brownouts: u64,
    /// Injected transient faults that struck a batch.
    pub device_transients: u64,
    /// Batches aborted before commit by a crash or transient in their
    /// prospective occupancy window.
    pub batches_aborted: u64,
    /// Abort-path retries pushed back into the arrival queue.
    pub retries_scheduled: u64,
    /// Requests shed after exhausting
    /// [`RetryPolicy::max_attempts`](crate::RetryPolicy::max_attempts).
    pub retries_exhausted: u64,
    /// Retried requests that committed on a different device than the
    /// one that aborted them.
    pub failovers: u64,
    /// Streaming sessions re-pinned to a new device after a crash.
    pub state_migrations: u64,
    /// Every admission decision, in arrival order.
    pub admission_log: Vec<AdmissionRecord>,
}

/// Outcome of one scheduler run.
#[derive(Debug)]
pub struct SchedReport {
    /// All responses — served and shed — in completion order per batch
    /// (shed responses appear at their arrival point).
    pub responses: Vec<Response>,
    /// Aggregated virtual-time metrics (per-model breakdowns included).
    pub metrics: ServeMetrics,
    /// Scheduler-specific virtual-time accounting.
    pub sched: SchedStats,
    /// Wall-clock host time for the whole run (µs) — the only
    /// nondeterministic number here.
    pub host_us: f64,
    /// Exact host FFT activity per executor worker
    /// ([`ExecutorKind::Inline`] reports a single entry). The entries
    /// sum to the run's total inference FFT work.
    pub worker_fft: Vec<FftStats>,
    /// Observability capture: the virtual-time event journal (when the
    /// runtime was built [`SchedRuntime::with_tracing`]) plus the
    /// always-on per-(device, model) stage-time attribution. Entirely
    /// virtual-time-derived, so bit-identical across executors.
    pub trace: RunTrace,
    /// Fixed-interval metrics-timeline samples (empty unless
    /// [`RuntimeConfig::timeline`] enables capture) plus the always-on
    /// queue-delay EWMA. Virtual-time-derived, so bit-identical across
    /// executors.
    pub timeline: Timeline,
    /// Health-rule firings observed over the timeline (empty unless
    /// [`RuntimeConfig::health`] enables the monitor). Bit-identical
    /// across executors.
    pub health: HealthReport,
}

impl SchedReport {
    /// Total host FFT activity across all executor workers.
    pub fn host_fft(&self) -> FftStats {
        self.worker_fft
            .iter()
            .fold(FftStats::default(), |acc, w| acc.plus(w))
    }
}

/// A timed arrival in the event queue (min-heap by time, then sequence).
struct Arrival {
    t_us: f64,
    seq: u64,
    request: Request,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t_us
            .total_cmp(&self.t_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The SLO-aware multi-model scheduling runtime.
#[derive(Debug)]
pub struct SchedRuntime {
    registry: ModelRegistry,
    platforms: Vec<Device>,
    policy: SchedPolicy,
    config: RuntimeConfig,
}

impl SchedRuntime {
    /// A scheduler serving the registry over one device per platform
    /// entry, with the default [`RuntimeConfig`] (deterministic-reference
    /// inline executor, tracing off, no session cap).
    ///
    /// # Panics
    ///
    /// Panics if the registry or platform list is empty, or if any
    /// registered model fits no device's BRAM budget.
    pub fn new(registry: ModelRegistry, platforms: Vec<Device>, policy: SchedPolicy) -> Self {
        Self::with_config(registry, platforms, policy, RuntimeConfig::new())
    }

    /// A scheduler with an explicit host executor. Virtual-time results
    /// (responses, metrics, [`SchedStats`]) are bit-identical across
    /// executor kinds.
    ///
    /// # Panics
    ///
    /// See [`Self::new`].
    pub fn with_executor(
        registry: ModelRegistry,
        platforms: Vec<Device>,
        policy: SchedPolicy,
        executor: ExecutorKind,
    ) -> Self {
        Self::with_config(
            registry,
            platforms,
            policy,
            RuntimeConfig::new().executor(executor),
        )
    }

    /// A scheduler with a full [`RuntimeConfig`] — the one constructor
    /// the others delegate to. An over-cap streaming load does not
    /// panic: first chunks beyond [`RuntimeConfig::max_live_sessions`]
    /// are shed at admission.
    ///
    /// # Panics
    ///
    /// Panics with the [`SchedConfigError`] message when
    /// [`Self::try_with_config`] would reject the configuration.
    pub fn with_config(
        registry: ModelRegistry,
        platforms: Vec<Device>,
        policy: SchedPolicy,
        config: RuntimeConfig,
    ) -> Self {
        match Self::try_with_config(registry, platforms, policy, config) {
            Ok(rt) => rt,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`Self::with_config`]: every registration
    /// or configuration problem the panicking constructors catch is
    /// returned as a typed [`SchedConfigError`] instead — an empty
    /// registry or pool, a degenerate policy, a registered model whose
    /// weight image fits no device's budget, or a fault plan naming a
    /// device the pool does not have.
    pub fn try_with_config(
        registry: ModelRegistry,
        platforms: Vec<Device>,
        policy: SchedPolicy,
        config: RuntimeConfig,
    ) -> Result<Self, SchedConfigError> {
        if registry.is_empty() {
            return Err(SchedConfigError::EmptyRegistry);
        }
        if platforms.is_empty() {
            return Err(SchedConfigError::NoDevices);
        }
        if policy.max_batch < 1 {
            return Err(SchedConfigError::ZeroMaxBatch);
        }
        if policy.max_wait_us.is_nan() || policy.max_wait_us < 0.0 {
            return Err(SchedConfigError::NegativeMaxWait);
        }
        if let Some(device) = config.fault_plan.max_device() {
            if device >= platforms.len() {
                return Err(SchedConfigError::FaultDeviceOutOfRange {
                    device,
                    devices: platforms.len(),
                });
            }
        }
        let rt = SchedRuntime {
            registry,
            platforms,
            policy,
            config,
        };
        for m in 0..rt.registry.len() {
            if !(0..rt.platforms.len()).any(|d| rt.eligible(d, m)) {
                return Err(SchedConfigError::ModelFitsNoDevice {
                    model: m,
                    name: rt.registry.name(m).to_string(),
                });
            }
        }
        Ok(rt)
    }

    /// Enables (or disables) flight-recorder tracing for every run this
    /// runtime performs; see [`TraceConfig`]. Tracing never changes
    /// virtual-time results — it only fills
    /// [`SchedReport::trace`]'s journal, which is itself bit-identical
    /// across executor kinds.
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.config = self.config.tracing(trace);
        self
    }

    /// The runtime configuration runs execute under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The tracing configuration runs execute under.
    pub fn trace_config(&self) -> TraceConfig {
        self.config.trace
    }

    /// The host executor strategy this runtime uses.
    pub fn executor_kind(&self) -> ExecutorKind {
        self.config.executor
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The pool's platforms, one device per entry.
    pub fn platforms(&self) -> &[Device] {
        &self.platforms
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Whether model `m`'s weight image can ever reside on device `d`.
    fn eligible(&self, d: usize, m: ModelId) -> bool {
        self.registry.weight_bytes(m) <= self.policy.device_budget_bytes(&self.platforms[d])
    }

    /// Serves a pre-generated (open-loop) request list to completion.
    ///
    /// # Panics
    ///
    /// Panics if any request names an unregistered model, has no frames,
    /// disagrees with its model's input dimension, or carries a
    /// non-finite arrival time or a NaN deadline.
    pub fn run(&self, requests: Vec<Request>) -> SchedReport {
        // Per-request checks first: the session pass orders by arrival
        // and would blame a NaN timestamp on the session's shape.
        for request in &requests {
            self.validate(request);
        }
        validate_sessions(&requests);
        let mut heap = BinaryHeap::with_capacity(requests.len());
        for (seq, request) in requests.into_iter().enumerate() {
            heap.push(Arrival {
                t_us: request.arrival_us,
                seq: seq as u64,
                request,
            });
        }
        self.run_events(heap, None)
    }

    /// Serves `total_requests` in a closed loop: `concurrency` clients
    /// submit at time zero and replace their request the moment it
    /// completes — or the moment it is shed, which is what makes a
    /// saturating closed loop the admission-control stress test. Clients
    /// cycle through `payloads` (`(model, utterance)` pairs); `slo_us`
    /// attaches a relative deadline to every request.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` is empty, `concurrency == 0`, or any payload
    /// fails request validation.
    pub fn run_closed_loop(
        &self,
        payloads: &[(ModelId, Vec<Vec<f32>>)],
        concurrency: usize,
        total_requests: usize,
        slo_us: Option<f64>,
    ) -> SchedReport {
        assert!(!payloads.is_empty(), "need at least one payload");
        assert!(concurrency > 0, "need at least one client");
        let feedback = ClosedLoop {
            issued: 0,
            total: total_requests,
            slo_us,
        };
        // Validate the whole payload pool up front, through the same
        // minting path replacements use mid-run — long past the
        // admission point.
        for i in 0..payloads.len() {
            self.validate(&feedback.mint(payloads, i, 0.0));
        }
        let mut heap = BinaryHeap::new();
        let initial = concurrency.min(total_requests);
        for i in 0..initial {
            heap.push(Arrival {
                t_us: 0.0,
                seq: i as u64,
                request: feedback.mint(payloads, i, 0.0),
            });
        }
        let feedback = ClosedLoop {
            issued: initial,
            ..feedback
        };
        self.run_events(heap, Some((feedback, payloads)))
    }

    fn validate(&self, request: &Request) {
        validate_timing(request);
        assert!(
            request.model < self.registry.len(),
            "request {} targets unregistered model {}",
            request.id,
            request.model
        );
        let dim = self.registry.model(request.model).input_dim();
        assert!(
            !request.frames.is_empty(),
            "request {} has no frames",
            request.id
        );
        assert!(
            request.frames.iter().all(|f| f.len() == dim),
            "request {} frame dimension must be {dim} for model {}",
            request.id,
            self.registry.name(request.model)
        );
    }

    /// The executor instance for one run, sharing the registry's model
    /// snapshot (one worker per device slot for the thread pool).
    fn make_executor(&self) -> Box<dyn Executor> {
        let models: Vec<Arc<crate::CompiledModel>> = self.registry.models();
        match self.config.executor {
            ExecutorKind::Inline => Box::new(InlineExecutor::new(models)),
            ExecutorKind::ThreadPool => {
                Box::new(ThreadPoolExecutor::new(models, self.platforms.len()))
            }
        }
    }

    fn run_events(
        &self,
        arrivals: BinaryHeap<Arrival>,
        feedback: Option<Feedback<'_>>,
    ) -> SchedReport {
        let mut engine = SchedEngine::start(self, arrivals, feedback);
        engine.run_until(f64::INFINITY);
        engine.finish()
    }

    /// Moves every arrival with `t ≤ now` through admission (the
    /// scheduler queue is unbounded — admission control, not queue
    /// capacity, is the back-pressure mechanism).
    fn drain_due_arrivals(&self, state: &mut RunState<'_>) {
        while state
            .arrivals
            .peek()
            .is_some_and(|a| a.t_us <= state.now_us)
        {
            let a = state.arrivals.pop().expect("peeked arrival exists");
            self.admit(state, a.request);
        }
    }

    /// The batch-size cap right now: degraded when the policy says so and
    /// the pool's best queue delay exceeds the budget.
    fn effective_max_batch(&self, state: &RunState<'_>) -> usize {
        if let AdmissionPolicy::DegradeThenShed {
            degraded_max_batch,
            queue_delay_budget_us,
        } = self.policy.admission
        {
            let best_delay = (0..self.platforms.len())
                .map(|d| (state.pool.free_at_us(d) - state.now_us).max(0.0))
                .fold(f64::INFINITY, f64::min);
            if best_delay > queue_delay_budget_us {
                return degraded_max_batch.min(self.policy.max_batch).max(1);
            }
        }
        self.policy.max_batch
    }

    /// Predicted absolute finish time (µs) of dispatching `total_frames`
    /// frames of `model` on `device` right now: device ready time, a
    /// cold-load stall if the weight image is not resident, and the
    /// closed-form service estimate. Shared by the admission predictor
    /// and cost-model placement so the two can never de-calibrate.
    ///
    /// Faults are priced in: a crashed device's ready time already
    /// sits at its recovery point (infinite for a permanent crash, so
    /// the prediction is infinite too), and a brownout active at the
    /// ready time stretches the service estimate by its cycle
    /// multiplier.
    fn predicted_finish_us(
        &self,
        state: &RunState<'_>,
        device: usize,
        model: ModelId,
        total_frames: u64,
    ) -> f64 {
        let load_us = if state.residency[device].is_resident(model) {
            0.0
        } else {
            DeviceResidency::load_us(self.registry.weight_bytes(model))
        };
        let ready = state.now_us.max(state.pool.free_at_us(device));
        let mult = state.faults.cycle_multiplier(device, ready);
        let est = if mult > 1.0 {
            let cycles = state
                .cost
                .stages(device, model)
                .scaled(mult)
                .stream_completion_cycles(total_frames);
            cycles as f64 * Device::clock_period_us()
        } else {
            state.cost.estimate_frames_us(device, model, total_frames)
        };
        ready + load_us + est
    }

    /// Applies every fault whose effect time the virtual clock has
    /// reached: crashes take their device down (residency wiped, free
    /// time pushed to the recovery point, pinned sessions unbound when
    /// failover is on), recoveries bring it back, and brownout onsets
    /// are counted. Idempotent — each fault applies exactly once.
    fn apply_faults_up_to(&self, state: &mut RunState<'_>) {
        let t = state.now_us;
        while let Some((device, start_us, end_us)) = state.faults.pop_crash_through(t) {
            self.crash_effects(state, device, start_us, end_us);
        }
        while let Some((device, end_us)) = state.faults.pop_recovery_through(t) {
            state.obs.device_up(end_us, device);
        }
        while state.faults.pop_brownout_through(t).is_some() {
            state.stats.device_brownouts += 1;
        }
    }

    /// One crash lands: wipe the device's images, journal the outage,
    /// make the device unavailable until recovery, and (under
    /// failover) unbind every streaming session pinned to it so their
    /// next chunks re-place and migrate.
    fn crash_effects(&self, state: &mut RunState<'_>, device: usize, start_us: f64, end_us: f64) {
        state.stats.device_crashes += 1;
        state.residency[device].wipe();
        state.obs.device_down(start_us, device, end_us - start_us);
        state.pool.push_free_at(device, end_us);
        if self.config.failover {
            for entry in state.sessions.values_mut() {
                if entry.device == Some(device) && !entry.cancelled {
                    entry.last_device = Some(device);
                    entry.device = None;
                }
            }
        }
    }

    /// The admission predictor (see module docs for the formula).
    /// Returns `(predicted_complete_us, best_solo_est_us)`. A chunk of a
    /// device-bound session predicts over its pinned device only —
    /// session affinity means no other device can serve it.
    fn predict(&self, state: &RunState<'_>, request: &Request) -> (f64, f64) {
        let m = request.model;
        let frames = request.num_frames() as u64;
        let bound = request
            .session()
            .and_then(|s| state.sessions.get(&s))
            .and_then(|e| e.device);
        let (mut best_finish, mut best_est) = (f64::INFINITY, f64::INFINITY);
        for d in 0..self.platforms.len() {
            if !self.eligible(d, m) || bound.is_some_and(|b| b != d) {
                continue;
            }
            best_finish = best_finish.min(self.predicted_finish_us(state, d, m, frames));
            best_est = best_est.min(state.cost.estimate_frames_us(d, m, frames));
        }
        // Backlog spreads over the devices that are actually up — a
        // crash shrinks the divisor and tightens admission. Identical
        // to the pool size when no fault is active.
        let up = state.faults.devices_up(state.now_us).max(1);
        let backlog = state.queue.backlog_us() / up as f64;
        (best_finish + backlog, best_est)
    }

    /// Cancels a streaming session: later chunks shed at admission and
    /// the session stops counting against the live cap. The state image
    /// (if any) stays in its device's LRU until evicted or until an
    /// already-queued chunk of the session dispatches.
    fn cancel_session(&self, state: &mut RunState<'_>, session: u64) {
        let entry = state.sessions.entry(session).or_insert(SessionEntry {
            device: None,
            last_device: None,
            materialized: false,
            cancelled: true,
            counted: false,
        });
        if entry.counted {
            state.live_sessions -= 1;
            entry.counted = false;
        }
        entry.cancelled = true;
    }

    /// Runs one arrival through admission control: into the queue, or an
    /// immediate shed response.
    ///
    /// Streaming chunks add two shed conditions ahead of the latency
    /// predictor: a chunk of a cancelled session (an earlier chunk was
    /// shed — serving the rest would produce an incoherent transcript),
    /// and a first chunk arriving while
    /// [`RuntimeConfig::max_live_sessions`] sessions are already live.
    /// Shedding *any* chunk cancels its whole session.
    fn admit(&self, state: &mut RunState<'_>, request: Request) {
        let (predicted_us, best_est) = self.predict(state, &request);
        let (cancelled, over_cap) = match request.workload {
            Workload::Chunk { session, index, .. } => {
                let cancelled = state.sessions.get(&session).is_some_and(|e| e.cancelled);
                // A retried first chunk already owns its live-session
                // slot (the entry survives the abort), so only a truly
                // new session can hit the cap.
                let over_cap = index == 0
                    && !state.sessions.contains_key(&session)
                    && self
                        .config
                        .max_live_sessions
                        .is_some_and(|cap| state.live_sessions >= cap);
                (cancelled, over_cap)
            }
            _ => (false, false),
        };
        let session_blocked = cancelled || over_cap;
        let admitted = !session_blocked
            && (!self.policy.admission.sheds()
                || request.deadline_us.is_none_or(|d| predicted_us <= d));
        state.stats.admission_log.push(AdmissionRecord {
            id: request.id,
            model: request.model,
            predicted_us,
            deadline_us: request.deadline_us,
            admitted,
        });
        if admitted {
            if let Workload::Chunk { session, index, .. } = request.workload {
                if index == 0 && !state.sessions.contains_key(&session) {
                    state.sessions.insert(
                        session,
                        SessionEntry {
                            device: None,
                            last_device: None,
                            materialized: false,
                            cancelled: false,
                            counted: true,
                        },
                    );
                    state.live_sessions += 1;
                }
            }
            state.stats.admitted += 1;
            state.obs.admitted(state.now_us, &request, predicted_us);
            state
                .obs
                .enqueued(state.now_us, &request, state.queue.len() + 1);
            let seq = state.admit_seq;
            state.admit_seq += 1;
            state.queue.push(request, seq, best_est);
        } else {
            // Classify the rejection. A predictor shed while a device
            // this request depends on is down is capacity loss, not an
            // infeasible deadline — the pool, not the request, is the
            // problem.
            let reason = if cancelled {
                ShedReason::SessionCancelled
            } else if over_cap {
                ShedReason::SessionLimit
            } else {
                let bound = request
                    .session()
                    .and_then(|s| state.sessions.get(&s))
                    .and_then(|e| e.device);
                let down_dependency = match bound {
                    Some(d) => state.faults.is_down(d, state.now_us),
                    None => (0..self.platforms.len()).any(|d| {
                        self.eligible(d, request.model) && state.faults.is_down(d, state.now_us)
                    }),
                };
                if down_dependency {
                    ShedReason::CapacityLoss
                } else {
                    ShedReason::DeadlineInfeasible
                }
            };
            state.retries.remove(&request.id);
            if let Some(session) = request.session() {
                self.cancel_session(state, session);
            }
            state.stats.shed += 1;
            if request.deadline_us.is_some() {
                state.deadline_misses += 1;
            }
            state.obs.shed(state.now_us, &request, predicted_us);
            let arrival_us = request.arrival_us;
            state.responses.push(Response::shed_with(
                request.id,
                request.model,
                request.workload,
                arrival_us,
                request.deadline_us,
                reason,
            ));
            // A shed completes instantly: its closed-loop client
            // resubmits right away — which is exactly how shedding keeps
            // a saturating loop saturating.
            self.feedback_arrival(state, arrival_us);
        }
    }

    /// Mints the next closed-loop replacement arriving at `t_us`.
    fn feedback_arrival(&self, state: &mut RunState<'_>, t_us: f64) {
        let Some((fb, payloads)) = state.feedback.as_mut() else {
            return;
        };
        if fb.issued >= fb.total {
            return;
        }
        let issued = fb.issued;
        fb.issued += 1;
        let request = fb.mint(payloads, issued, t_us);
        state.arrivals.push(Arrival {
            t_us,
            seq: issued as u64,
            request,
        });
    }

    /// Forms and places the next batch (the queue must be non-empty).
    ///
    /// Fault handling happens here, **before commit**: the batch's
    /// prospective occupancy window is computed exactly as the
    /// residency layer and device sim will compute it, the fault
    /// schedule is scanned over that window, and a crash or transient
    /// hit aborts the batch — the device is charged the wasted time as
    /// a stall and every member retries through the arrival queue (or
    /// sheds once its retry budget is spent). Nothing is ever
    /// committed across an abort. A batch whose chosen device can
    /// never come back (a permanently crashed pinned device) sheds
    /// whole as [`ShedReason::CapacityLoss`].
    fn dispatch(&self, state: &mut RunState<'_>, executor: &mut dyn Executor) {
        self.apply_faults_up_to(state);
        let Some(head) = state.queue.head() else {
            debug_assert!(false, "dispatch on an empty queue");
            return;
        };
        let model = head.model;
        let max_batch = self.effective_max_batch(state);
        if max_batch < self.policy.max_batch {
            state.stats.degraded_batches += 1;
        }
        let taken = {
            // Disjoint field borrows: formation mutates the queue while
            // the affinity closure reads the session table.
            let sessions = &state.sessions;
            let affinity = |s: u64| sessions.get(&s).and_then(|e| e.device);
            state
                .queue
                .take_batch(model, max_batch, &self.policy.padding, &affinity)
        };
        let batch = taken.batch;
        debug_assert!(!batch.is_empty(), "head model yields a non-empty batch");
        state.frame_counts.clear();
        state
            .frame_counts
            .extend(batch.iter().map(|r| r.num_frames() as u64));
        let total_frames: u64 = state.frame_counts.iter().sum();
        let bytes = self.registry.weight_bytes(model);

        // Session affinity beats placement policy: a batch carrying a
        // bound session must run where that session's state lives. A
        // crashed device's free time sits at its recovery point, so
        // placement steers around outages on its own.
        let device = taken.pinned.or_else(|| match self.policy.placement {
            Placement::EarliestFree => (0..self.platforms.len())
                .filter(|&d| self.eligible(d, model))
                .min_by(|&a, &b| {
                    state
                        .pool
                        .free_at_us(a)
                        .total_cmp(&state.pool.free_at_us(b))
                }),
            Placement::CostModel => (0..self.platforms.len())
                .filter(|&d| self.eligible(d, model))
                .min_by(|&a, &b| {
                    self.predicted_finish_us(state, a, model, total_frames)
                        .total_cmp(&self.predicted_finish_us(state, b, model, total_frames))
                }),
        });
        let Some(device) = device else {
            // Unreachable given construction eligibility checks, but a
            // graceful shed beats the panic this used to be.
            self.shed_batch(state, batch);
            return;
        };
        let start_us = state.now_us.max(state.pool.free_at_us(device));
        if !start_us.is_finite() {
            // The batch is pinned (or placed) onto a device that never
            // comes back: capacity loss.
            self.shed_batch(state, batch);
            return;
        }

        // Pin the working set: nothing this batch needs may be evicted
        // by the batch's own loads — which also makes the prospective
        // setup below exact against the ensures that follow.
        state.residency[device].pin(ImageKey::Weights(model));
        for r in &batch {
            if let Some(session) = r.session() {
                state.residency[device].pin(ImageKey::State(session));
            }
        }

        // Prospective occupancy window [start, end): mirrors the
        // residency charges and the device sim so a fault inside the
        // window can abort before anything is committed.
        let state_bytes = self.registry.model(model).state_bytes();
        let w_load_us = if state.residency[device].is_resident(model) {
            0.0
        } else {
            DeviceResidency::load_us(bytes)
        };
        let mut prospective_state_us = 0.0;
        state.seen_sessions.clear();
        for r in &batch {
            let Some(session) = r.session() else { continue };
            if state.seen_sessions.contains(&session) {
                continue; // a later chunk of the same session hits
            }
            state.seen_sessions.push(session);
            let materialized = state.sessions.get(&session).is_some_and(|e| e.materialized);
            if materialized && !state.residency[device].is_state_resident(session) {
                prospective_state_us += DeviceResidency::load_us(state_bytes);
            }
        }
        let setup_us = w_load_us + prospective_state_us;
        // A brownout active at occupancy start stretches the whole
        // batch (the multiplier is sampled once — a batch is the unit
        // of degradation).
        let mult = state.faults.cycle_multiplier(device, start_us);
        let base_stages = state.cost.stages(device, model);
        let stages = if mult > 1.0 {
            base_stages.scaled(mult)
        } else {
            base_stages
        };
        let est_us =
            stages.stream_completion_cycles(total_frames) as f64 * Device::clock_period_us();
        let end_us = start_us + setup_us + est_us;

        // Scan [now, end) — a fault striking before the batch even
        // starts (while the device runs earlier committed work) dooms
        // it just the same.
        if let Some(hit) = state.faults.abort_between(device, state.now_us, end_us) {
            state.residency[device].unpin_all();
            self.abort_batch(state, batch, device, model, start_us, hit);
            return;
        }

        let load = state.residency[device].ensure(model, bytes);
        if load.loaded {
            state.stats.model_loads += 1;
            state.stats.load_us_total += load.load_us;
        }
        state.stats.model_evictions += load.evicted_weights();
        state.stats.state_evictions += load.evicted_states();

        // Bind first chunks to this device and make every member
        // session's state image resident. First materialization is free
        // (the zero state is fabricated on-device); re-materializing an
        // evicted state streams it back and stalls the device like a
        // weight load. Stalls queue after the weight load. A session
        // unbound by a crash re-pins here: the executor migrates its
        // host-side recurrent state before the chunk's job is
        // submitted, and the reload charge above doubles as the
        // migration's streaming cost.
        let mut state_us = 0.0;
        state.state_loads.clear();
        for r in &batch {
            let Some(session) = r.session() else { continue };
            let entry = state
                .sessions
                .get_mut(&session)
                .expect("admitted chunk has a session entry");
            let mut migrated_from: Option<usize> = None;
            if entry.device.is_none() {
                entry.device = Some(device);
                if let Some(old) = entry.last_device.take() {
                    if old != device {
                        migrated_from = Some(old);
                    }
                }
            }
            let reload = entry.materialized;
            entry.materialized = true;
            let ev = state.residency[device].ensure_state(session, state_bytes, reload);
            if ev.loaded {
                state.stats.state_loads += 1;
                state.stats.state_load_us_total += ev.load_us;
                state
                    .state_loads
                    .push((session, ev.load_us, ev.evicted.len()));
                state_us += ev.load_us;
            }
            state.stats.model_evictions += ev.evicted_weights();
            state.stats.state_evictions += ev.evicted_states();
            if let Some(old) = migrated_from {
                state.stats.state_migrations += 1;
                state
                    .obs
                    .state_migration(state.now_us, session, old, device, ev.load_us);
                executor.migrate_session(session, old, device);
            }
        }
        state.residency[device].unpin_all();

        let exec = state.pool.dispatch_to(
            device,
            state.now_us,
            load.load_us + state_us,
            stages,
            &state.frame_counts,
        );
        debug_assert!(
            exec.start_us == start_us,
            "prospective start diverged from the sim"
        );
        state.obs.batch_dispatched(
            state.now_us,
            model,
            &batch,
            &state.frame_counts,
            &exec,
            load.load_us,
            state_us,
            stages.ii(),
        );
        if load.loaded {
            state.obs.residency_load(
                exec.start_us,
                device,
                model,
                load.load_us,
                load.evicted.len(),
            );
        }
        let mut stall_at = exec.start_us + load.load_us;
        for &(session, load_us, evicted) in &state.state_loads {
            state
                .obs
                .session_state_load(stall_at, device, session, load_us, evicted);
            stall_at += load_us;
        }

        let batch_size = batch.len();
        let mut jobs = executor.job_buffer();
        for (request, &complete_us) in batch.into_iter().zip(exec.complete_us.iter()) {
            let Request {
                id,
                model,
                frames,
                arrival_us,
                deadline_us,
                workload,
            } = request;
            // A retried request committing on a different device than
            // the one whose fault aborted it completed a failover.
            if let Some(info) = state.retries.remove(&id) {
                if info.last_device != exec.device {
                    state.stats.failovers += 1;
                    state
                        .obs
                        .failover(state.now_us, id, info.last_device, exec.device);
                }
            }
            let session = match workload {
                Workload::Chunk { session, last, .. } => {
                    if last {
                        // The session ends here: free its state image and
                        // its live slot (validation guarantees no chunk
                        // follows one marked `last`).
                        state.residency[device].release_state(session);
                        let entry = state
                            .sessions
                            .get_mut(&session)
                            .expect("dispatched chunk has a session entry");
                        if entry.counted {
                            state.live_sessions -= 1;
                            entry.counted = false;
                        }
                    }
                    Some(SessionSlot { id: session, last })
                }
                _ => None,
            };
            jobs.push(InferenceJob {
                slot: state.responses.len(),
                device: exec.device,
                model,
                frames,
                session,
            });
            state.responses.push(Response::served(
                id,
                model,
                workload,
                arrival_us,
                exec.start_us,
                complete_us,
                exec.device,
                batch_size,
                deadline_us,
            ));
            let response = state.responses.last().expect("just pushed");
            state.obs.completed(response);
            state.timeline.observe_queue_delay(response.queue_us());
            state.completed += 1;
            if response.deadline_tracked && !response.deadline_met {
                state.deadline_misses += 1;
            }
            self.feedback_arrival(state, complete_us);
        }
        executor.submit_batch(jobs);
    }

    /// A fault struck the batch's prospective occupancy window: charge
    /// the device for the time it really burned, apply the fault's
    /// effects, and send every member back through the arrival queue
    /// after its backoff — or shed it once its retry budget is spent.
    fn abort_batch(
        &self,
        state: &mut RunState<'_>,
        batch: Vec<Request>,
        device: usize,
        model: ModelId,
        start_us: f64,
        hit: ernn_fpga::FaultHit,
    ) {
        state.stats.batches_aborted += 1;
        let f = hit.t_us;
        if f > start_us {
            // The device held the batch from its start to the fault —
            // real occupancy, zero useful work.
            state.pool.stall(device, start_us, f);
            state.obs.batch_aborted(device, model, f - start_us);
        }
        if hit.is_crash {
            // Apply the crash right now rather than waiting for the
            // clock cursor: the abort IS the crash landing.
            if let Some((start, end)) = state.faults.mark_crash_applied(device, f) {
                self.crash_effects(state, device, start, end);
            }
        } else {
            state.faults.consume_transient(device, f);
            state.stats.device_transients += 1;
        }
        for request in batch {
            let info = state.retries.entry(request.id).or_insert(RetryInfo {
                attempts: 0,
                last_device: device,
            });
            info.attempts += 1;
            info.last_device = device;
            let attempts = info.attempts;
            if attempts > self.config.retry.max_attempts {
                state.retries.remove(&request.id);
                state.stats.retries_exhausted += 1;
                self.shed_at(state, request, f, ShedReason::CapacityLoss);
            } else {
                let retry_at = f + self.config.retry.backoff_us(attempts);
                state.stats.retries_scheduled += 1;
                state
                    .obs
                    .retry_scheduled(f, request.id, device, attempts, retry_at);
                let seq = state.admit_seq;
                state.admit_seq += 1;
                state.arrivals.push(Arrival {
                    t_us: retry_at,
                    seq,
                    request,
                });
            }
        }
    }

    /// Sheds a formed batch whole — its chosen device will never be
    /// available again and no failover path exists. Members were
    /// already admitted, so they respond as capacity-loss sheds (and
    /// still cancel their sessions: the partition of served and shed
    /// responses stays exact).
    fn shed_batch(&self, state: &mut RunState<'_>, batch: Vec<Request>) {
        for request in batch {
            self.shed_at(state, request, state.now_us, ShedReason::CapacityLoss);
        }
    }

    /// Sheds one already-admitted request at dispatch time.
    fn shed_at(&self, state: &mut RunState<'_>, request: Request, t_us: f64, reason: ShedReason) {
        state.retries.remove(&request.id);
        if let Some(session) = request.session() {
            self.cancel_session(state, session);
        }
        state.stats.shed += 1;
        state.obs.shed(t_us, &request, f64::INFINITY);
        let arrival_us = request.arrival_us;
        state.responses.push(Response::shed_with(
            request.id,
            request.model,
            request.workload,
            arrival_us,
            request.deadline_us,
            reason,
        ));
        // Like an admission shed, a dispatch shed completes instantly
        // for its closed-loop client.
        self.feedback_arrival(state, t_us);
    }
}

/// Scheduler-side view of one streaming session.
struct SessionEntry {
    /// Device every chunk runs on, bound at first-chunk dispatch.
    /// Cleared when that device crashes under failover — the next
    /// chunk re-pins.
    device: Option<usize>,
    /// The device a crash unbound this session from — consumed at
    /// re-pin to detect (and journal) the state migration.
    last_device: Option<usize>,
    /// Whether the session's state image has ever been materialized — a
    /// later residency miss is a charged reload, not a free zero-state
    /// fabrication.
    materialized: bool,
    /// A chunk was shed (or the session hit the live cap at its first
    /// chunk): every later chunk sheds at admission.
    cancelled: bool,
    /// Whether the session currently counts against
    /// [`RuntimeConfig::max_live_sessions`].
    counted: bool,
}

/// Closed-loop client population state.
struct ClosedLoop {
    issued: usize,
    total: usize,
    slo_us: Option<f64>,
}

impl ClosedLoop {
    /// Mints client request `issued` arriving at `t_us` from the payload
    /// pool — the single construction path for closed-loop requests, so
    /// up-front validation and mid-run replacements can never diverge.
    fn mint(&self, payloads: &[(ModelId, Vec<Vec<f32>>)], issued: usize, t_us: f64) -> Request {
        let (model, utterance) = &payloads[issued % payloads.len()];
        let mut r = Request::new(issued as u64, utterance.clone(), t_us).with_model(*model);
        if let Some(slo) = self.slo_us {
            r = r.with_deadline(t_us + slo);
        }
        r
    }
}

/// Closed-loop feedback: the client population plus the payload pool
/// replacements are minted from.
type Feedback<'p> = (ClosedLoop, &'p [(ModelId, Vec<Vec<f32>>)]);

/// Everything one run mutates, bundled so the event-loop helpers stay
/// readable.
struct RunState<'p> {
    cost: CostModel,
    pool: DevicePool,
    residency: Vec<DeviceResidency>,
    queue: SchedQueue,
    responses: Vec<Response>,
    stats: SchedStats,
    arrivals: BinaryHeap<Arrival>,
    feedback: Option<Feedback<'p>>,
    now_us: f64,
    admit_seq: u64,
    /// Streaming-session table: affinity binding, materialization, and
    /// cancellation per session id.
    sessions: HashMap<u64, SessionEntry>,
    /// Sessions currently counting against the live cap.
    live_sessions: usize,
    /// The run's fault schedule with per-fault applied/consumed flags.
    faults: FaultTimeline,
    /// Abort-retry bookkeeping per in-flight request id.
    retries: HashMap<u64, RetryInfo>,
    obs: Observer,
    /// Fixed-interval metrics sampler (plus the always-on queue-delay
    /// EWMA).
    timeline: MetricsTimeline,
    /// Declarative health rules evaluated over the timeline.
    health: HealthMonitor,
    /// Per-device busy-time scratch refilled on every sample
    /// (pre-sized: the steady-state hot path never allocates).
    busy_scratch: Vec<f64>,
    /// Per-dispatch scratch, cleared and refilled by every
    /// [`SchedRuntime::dispatch`] so a batch's bookkeeping stops
    /// allocating once the largest batch has been seen: the members'
    /// frame counts, the sessions already priced into the prospective
    /// window, and the `(session, load µs, evictions)` state reloads to
    /// journal.
    frame_counts: Vec<u64>,
    seen_sessions: Vec<u64>,
    state_loads: Vec<(u64, f64, usize)>,
    /// Requests served to completion so far (sheds excluded).
    completed: u64,
    /// Deadline-carrying requests that missed (sheds included).
    deadline_misses: u64,
}

impl RunState<'_> {
    /// Emits any timeline samples due at `now_us` (plus the final
    /// off-grid sample when `final_flush` is set), runs the health
    /// rules over them, and journals each firing.
    fn capture_timeline(&mut self, final_flush: bool) {
        if !self.timeline.is_enabled() {
            return;
        }
        for (slot, d) in self.busy_scratch.iter_mut().zip(self.pool.devices()) {
            *slot = d.busy_us();
        }
        let (mut weights_bytes, mut state_bytes) = (0u64, 0u64);
        for residency in &self.residency {
            let (w, s) = residency.used_bytes_by_class();
            weights_bytes += w;
            state_bytes += s;
        }
        let probe = TimelineProbe {
            queue_depth: self.queue.len(),
            oldest_wait_us: self
                .queue
                .oldest_arrival_us()
                .map_or(0.0, |a| (self.now_us - a).max(0.0)),
            live_sessions: self.live_sessions,
            weights_bytes,
            state_bytes,
            completed: self.completed,
            shed: self.stats.shed as u64,
            deadline_misses: self.deadline_misses,
            weight_loads: self.stats.model_loads,
            state_loads: self.stats.state_loads,
            retries: self.stats.retries_scheduled,
            device_busy_us: &self.busy_scratch,
        };
        let emitted = if final_flush {
            self.timeline.finish_sample(self.now_us, &probe)
        } else {
            self.timeline.advance(self.now_us, &probe)
        };
        let (start, end) = self.health.on_samples(&self.timeline, emitted);
        for event in &self.health.events()[start..end] {
            self.obs.health(event);
        }
    }
}

/// Retry bookkeeping for one request whose batch was aborted.
struct RetryInfo {
    /// Aborts suffered so far (the next backoff doubles on each).
    attempts: u32,
    /// The device whose fault last aborted this request — a commit
    /// elsewhere is a failover.
    last_device: usize,
}

/// A stepped scheduler instance: the [`SchedRuntime`] event loop
/// factored out so a caller can advance virtual time in bounded
/// increments instead of running to completion in one call.
///
/// `run_events` is exactly `start` + `run_until(∞)` + `finish` — there
/// is **one** event loop, parameterized by its horizon, so the batch
/// entry points ([`SchedRuntime::run`],
/// [`SchedRuntime::run_closed_loop`]) and any stepped driver can never
/// drift behaviorally. The cluster router is the stepped consumer: at
/// each routing instant it steps the shards whose
/// [`next_event_us`](Self::next_event_us) is due, injects forwarded
/// requests with [`offer`](Self::offer), reads the live queue-delay
/// EWMA for load-feedback steering, and on a shard kill reclaims the
/// undispatched backlog with [`take_pending`](Self::take_pending).
pub(crate) struct SchedEngine<'rt, 'p> {
    rt: &'rt SchedRuntime,
    executor: Box<dyn Executor>,
    state: RunState<'p>,
    host_start: Instant,
    /// Sequence counter for offered arrivals, so equal-timestamp offers
    /// pop in offer order.
    offer_seq: u64,
}

impl<'rt, 'p> SchedEngine<'rt, 'p> {
    /// An engine with an empty arrival stream and no closed-loop
    /// feedback — the cluster-shard shape, where every request arrives
    /// later via [`offer`](Self::offer).
    pub(crate) fn new(rt: &'rt SchedRuntime) -> Self {
        Self::start(rt, BinaryHeap::new(), None)
    }

    /// Builds the run state and executor for one run. Virtual time
    /// starts at zero; nothing executes until [`run_until`](Self::run_until).
    fn start(
        rt: &'rt SchedRuntime,
        arrivals: BinaryHeap<Arrival>,
        feedback: Option<Feedback<'p>>,
    ) -> Self {
        let host_start = Instant::now();
        let executor = rt.make_executor();
        let cost = CostModel::build(&rt.platforms, &rt.registry);
        let pool = DevicePool::new(rt.platforms.len());
        let offer_seq = arrivals.len() as u64;
        let state = RunState {
            cost,
            pool,
            residency: rt
                .platforms
                .iter()
                .map(|p| DeviceResidency::new(rt.policy.device_budget_bytes(p)))
                .collect(),
            queue: SchedQueue::new(rt.policy.discipline),
            responses: Vec::new(),
            stats: SchedStats::default(),
            arrivals,
            feedback,
            now_us: 0.0,
            admit_seq: 0,
            sessions: HashMap::new(),
            live_sessions: 0,
            faults: rt.config.fault_plan.timeline(rt.platforms.len()),
            retries: HashMap::new(),
            obs: Observer::new(rt.config.trace),
            timeline: MetricsTimeline::new(rt.config.timeline, rt.platforms.len()),
            health: HealthMonitor::new(rt.config.health, rt.platforms.len()),
            busy_scratch: vec![0.0; rt.platforms.len()],
            frame_counts: Vec::new(),
            seen_sessions: Vec::new(),
            state_loads: Vec::new(),
            completed: 0,
            deadline_misses: 0,
        };
        SchedEngine {
            rt,
            executor,
            state,
            host_start,
            offer_seq,
        }
    }

    /// Injects one request into the arrival stream. A timestamp at or
    /// before the current virtual clock is fine — the event loop admits
    /// at `max(now, arrival)` like any arrival.
    ///
    /// # Panics
    ///
    /// Panics if the request fails [`SchedRuntime`] validation
    /// (unregistered model, empty frames, dimension mismatch).
    pub(crate) fn offer(&mut self, request: Request) {
        self.rt.validate(&request);
        self.state.arrivals.push(Arrival {
            t_us: request.arrival_us,
            seq: self.offer_seq,
            request,
        });
        self.offer_seq += 1;
    }

    /// Runs the event loop forward, executing every event whose time is
    /// at or before `horizon_us`, and stops with the virtual clock at
    /// the last executed event. At `horizon_us = ∞` this is the
    /// complete run-to-drain loop of [`SchedRuntime::run`]. A full
    /// batch dispatches regardless of the horizon — forming it does not
    /// advance the clock.
    pub(crate) fn run_until(&mut self, horizon_us: f64) {
        let rt = self.rt;
        loop {
            if self.state.queue.is_empty() {
                if !self
                    .state
                    .arrivals
                    .peek()
                    .is_some_and(|a| a.t_us <= horizon_us)
                {
                    break;
                }
                let a = self.state.arrivals.pop().expect("peeked arrival exists");
                self.state.now_us = self.state.now_us.max(a.t_us);
                self.state.capture_timeline(false);
                rt.apply_faults_up_to(&mut self.state);
                rt.admit(&mut self.state, a.request);
                rt.drain_due_arrivals(&mut self.state);
                continue;
            }

            let head_model = self.state.queue.head().map(|r| r.model).unwrap_or_default();
            let max_batch = rt.effective_max_batch(&self.state);
            let full = self.state.queue.count_model(head_model) >= max_batch;
            // The flush clock anchors to the longest-waiting request, so
            // no request outwaits the budget regardless of its deadline
            // position.
            let flush_at = self
                .state
                .queue
                .oldest_arrival_us()
                .map(|t| t + rt.policy.max_wait_us)
                .unwrap_or(self.state.now_us);
            let next_arrival = self.state.arrivals.peek().map(|a| a.t_us);

            if full {
                rt.dispatch(&mut self.state, self.executor.as_mut());
            } else if let Some(t) = next_arrival.filter(|&t| t <= flush_at) {
                if t > horizon_us {
                    break;
                }
                self.state.now_us = self.state.now_us.max(t);
                self.state.capture_timeline(false);
                rt.apply_faults_up_to(&mut self.state);
                let a = self.state.arrivals.pop().expect("peeked arrival exists");
                rt.admit(&mut self.state, a.request);
                rt.drain_due_arrivals(&mut self.state);
            } else {
                if flush_at > horizon_us {
                    break;
                }
                self.state.now_us = self.state.now_us.max(flush_at);
                self.state.capture_timeline(false);
                rt.dispatch(&mut self.state, self.executor.as_mut());
            }
        }
    }

    /// The virtual time of the earliest event [`run_until`](Self::run_until)
    /// would execute: the next arrival while the queue is empty,
    /// otherwise the earlier of the next arrival and the max-wait flush
    /// of the longest-waiting queued request; `∞` when nothing is
    /// pending. `run_until(t)` with `t < next_event_us()` mutates
    /// nothing — a batch that is already full dispatches inside the
    /// `run_until` that filled it, never across a return — which is
    /// what lets the cluster router skip shards that are not due.
    pub(crate) fn next_event_us(&self) -> f64 {
        let next_arrival = self.state.arrivals.peek().map_or(f64::INFINITY, |a| a.t_us);
        match self.state.queue.oldest_arrival_us() {
            Some(oldest) => next_arrival.min(oldest + self.rt.policy.max_wait_us),
            None => next_arrival,
        }
    }

    /// Hands back everything admitted or in flight toward admission but
    /// not yet dispatched: the scheduler queue (in key order) followed
    /// by the undrained arrival heap (in time order). The shard-kill
    /// path — in-flight batches are unaffected (their virtual-time
    /// completion was committed at dispatch, the cluster-level analogue
    /// of connection draining).
    pub(crate) fn take_pending(&mut self) -> Vec<Request> {
        let mut pending = self.state.queue.drain();
        while let Some(a) = self.state.arrivals.pop() {
            pending.push(a.request);
        }
        pending
    }

    /// The live queue-delay EWMA (µs) — the load-feedback signal the
    /// cluster router steers on. Updates at every dispatch whether or
    /// not timeline sampling is enabled.
    pub(crate) fn ewma_queue_us(&self) -> f64 {
        self.state.timeline.ewma_queue_us()
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub(crate) fn queue_depth(&self) -> usize {
        self.state.queue.len()
    }

    /// How long a new arrival would wait to start: the earliest
    /// `free_at` across the pool as a delay from now, plus the queued
    /// requests' estimated service spread over the devices that are up
    /// — the admission predictor's backlog term. Unlike the queue-delay
    /// EWMA this is instantaneous, it sees work already dispatched to a
    /// slow device, and it rises the moment a request is admitted (so
    /// same-instant bursts spread instead of herding) — the primary
    /// least-work-left term in cluster load-feedback steering.
    pub(crate) fn backlog_us(&self) -> f64 {
        let now = self.state.now_us;
        let device_wait = self
            .state
            .pool
            .devices()
            .iter()
            .map(|d| d.free_at_us() - now)
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        let up = self.state.faults.devices_up(now).max(1);
        device_wait + self.state.queue.backlog_us() / up as f64
    }

    /// Closed-form best-device service estimate for `frames` frames of
    /// `model` on this scheduler's own platform — the router prices
    /// work it has forwarded but that is still on the wire (invisible
    /// to [`SchedEngine::backlog_us`] until it lands).
    pub(crate) fn estimate_frames_us(&self, model: ModelId, frames: u64) -> f64 {
        (0..self.state.pool.devices().len())
            .map(|d| self.state.cost.estimate_frames_us(d, model, frames))
            .fold(f64::INFINITY, f64::min)
    }

    /// Streaming sessions currently live on this scheduler.
    pub(crate) fn live_sessions(&self) -> usize {
        self.state.live_sessions
    }

    /// Bytes resident across the pool's devices (weight + session-state
    /// images) — the per-shard residency gauge.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.state.residency.iter().map(|r| r.used_bytes()).sum()
    }

    /// Per-device busy time so far (virtual µs) — the cluster report
    /// flattens these into one pool-wide utilization vector.
    pub(crate) fn device_busy_us(&self) -> Vec<f64> {
        self.state
            .pool
            .devices()
            .iter()
            .map(|d| d.busy_us())
            .collect()
    }

    /// Drains the executor, stamps the final timeline sample, and
    /// closes the run into a [`SchedReport`] — the tail of
    /// [`SchedRuntime::run`], verbatim.
    pub(crate) fn finish(mut self) -> SchedReport {
        // Stitch host-side logits into the served responses (shed
        // responses own no job slots) *before* metrics, so
        // throughput_fps (frames from logits) is identical for every
        // executor.
        let exec_report = self.executor.finish();
        for (slot, logits) in exec_report.outputs {
            debug_assert!(
                self.state.responses[slot].logits.is_empty(),
                "slot filled twice"
            );
            self.state.responses[slot].logits = logits;
        }

        // Stamp the final timeline sample at the instant the last device
        // drains, so the closing sample reflects the finished run. A
        // crashed device can stay "free at infinity"; keep the stamp
        // finite by falling back to the event-loop clock.
        let drained_us = self.state.pool.drained_at_us();
        if drained_us.is_finite() {
            self.state.now_us = self.state.now_us.max(drained_us);
        }
        self.state.capture_timeline(true);
        let ewma = self.state.timeline.ewma_queue_us();
        let timeline = self.state.timeline.into_timeline();
        let health = self.state.health.into_report(ewma);

        let busy_us: Vec<f64> = self
            .state
            .pool
            .devices()
            .iter()
            .map(|d| d.busy_us())
            .collect();
        let metrics = ServeMetrics::compute(&self.state.responses, busy_us);
        SchedReport {
            responses: self.state.responses,
            metrics,
            sched: self.state.stats,
            host_us: self.host_start.elapsed().as_secs_f64() * 1e6,
            worker_fft: exec_report.worker_fft,
            trace: self.state.obs.into_trace(),
            timeline,
            health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{open_loop_poisson, synthetic_utterances};
    use crate::CompiledModel;
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
    use ernn_model::{compress_network, BlockPolicy, CellType, NetworkBuilder};
    use rand::SeedableRng;

    const DIM: usize = 8;

    fn compiled(seed: u64, hidden: usize) -> CompiledModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = NetworkBuilder::new(CellType::Gru, DIM, 5)
            .layer_dims(&[hidden])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
    }

    fn registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.register("gru-16", compiled(21, 16));
        reg.register("gru-32", compiled(22, 32));
        reg
    }

    /// Mixed-model open-loop load: request i targets model i % 2.
    fn load(n: usize, rate: f64) -> Vec<Request> {
        let utts = synthetic_utterances(6, (10, 30), DIM, 33);
        open_loop_poisson(&utts, n, rate, 44)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_model(i % 2))
            .collect()
    }

    #[test]
    fn mixed_model_load_completes_exactly_once() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 100.0),
        );
        let report = rt.run(load(48, 100_000.0));
        assert_eq!(report.responses.len(), 48);
        let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..48).collect::<Vec<_>>());
        for r in &report.responses {
            assert!(!r.shed);
            assert!(!r.logits.is_empty());
            assert!(r.complete_us > r.arrival_us);
        }
        assert_eq!(report.sched.admitted, 48);
        assert_eq!(report.sched.shed, 0);
        assert_eq!(report.sched.admission_log.len(), 48);
        // Both models served, both counted in the per-model breakdown.
        assert_eq!(report.metrics.per_model.len(), 2);
        assert_eq!(report.metrics.per_model[&0].completed, 24);
        assert_eq!(report.metrics.per_model[&1].completed, 24);
    }

    #[test]
    fn batches_never_mix_models() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(8, 400.0),
        );
        let report = rt.run(load(64, 400_000.0));
        // Group responses by (device, dispatch time): one dispatched
        // batch each. All members must share a model.
        use std::collections::BTreeMap;
        let mut batches: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
        for r in &report.responses {
            batches
                .entry((r.device.expect("served"), r.dispatch_us.to_bits()))
                .or_default()
                .push(r.model);
        }
        let mut saw_real_batch = false;
        for members in batches.values() {
            assert!(members.windows(2).all(|w| w[0] == w[1]), "{members:?}");
            saw_real_batch |= members.len() > 1;
        }
        assert!(saw_real_batch, "load must actually form multi-batches");
    }

    #[test]
    fn scheduler_logits_match_direct_inference_per_model() {
        let reg = registry();
        let models = reg.models();
        let rt = SchedRuntime::new(
            reg,
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 100.0),
        );
        let requests = load(16, 50_000.0);
        let expected: Vec<Vec<Vec<f32>>> = requests
            .iter()
            .map(|r| models[r.model].infer(&r.frames))
            .collect();
        let report = rt.run(requests);
        for r in &report.responses {
            assert_eq!(r.logits, expected[r.id as usize], "request {}", r.id);
        }
    }

    #[test]
    fn run_is_deterministic() {
        let make = || {
            SchedRuntime::new(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 50.0),
            )
        };
        let a = make().run(load(40, 200_000.0));
        let b = make().run(load(40, 200_000.0));
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.sched, b.sched);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn tracing_captures_the_request_lifecycle() {
        use crate::trace::{TraceConfig, TraceEvent};
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 100.0),
        )
        .with_tracing(TraceConfig::enabled(4096));
        assert!(rt.trace_config().is_enabled());
        let report = rt.run(load(24, 100_000.0));
        let events = &report.trace.journal.events;
        assert_eq!(report.trace.journal.dropped, 0);
        let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        // Every request is admitted, enqueued, dequeued, and completed
        // exactly once.
        for (pred, label) in [
            (
                (|e| matches!(e, TraceEvent::Admit { .. })) as fn(&TraceEvent) -> bool,
                "admit",
            ),
            (|e| matches!(e, TraceEvent::Enqueue { .. }), "enqueue"),
            (|e| matches!(e, TraceEvent::Dequeue { .. }), "dequeue"),
            (|e| matches!(e, TraceEvent::Complete { .. }), "complete"),
        ] {
            assert_eq!(count(pred), 24, "{label} events");
        }
        // Each dispatched batch shows formation + placement, and each
        // cold model load appears with its stall in device cycles.
        let batches = count(|e| matches!(e, TraceEvent::BatchFormed { .. }));
        assert_eq!(count(|e| matches!(e, TraceEvent::Dispatch { .. })), batches);
        let loads: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ResidencyLoad { .. }))
            .collect();
        assert_eq!(loads.len() as u64, report.sched.model_loads);
        for e in loads {
            if let TraceEvent::ResidencyLoad {
                load_us,
                stall_cycles,
                ..
            } = e
            {
                assert!(*load_us > 0.0);
                assert!(*stall_cycles > 0);
            }
        }
        // Attribution covers every served request and its device time.
        let attributed_requests: u64 = report
            .trace
            .attribution
            .iter()
            .map(|(_, _, c)| c.requests)
            .sum();
        assert_eq!(attributed_requests, 24);
        let attributed_load: f64 = report
            .trace
            .attribution
            .iter()
            .map(|(_, _, c)| c.load_us)
            .sum();
        assert!((attributed_load - report.sched.load_us_total).abs() < 1e-9);
    }

    #[test]
    fn timeline_tracks_queue_residency_and_counters() {
        use crate::health::HealthConfig;
        use crate::timeline::TimelineConfig;
        let run = |config: RuntimeConfig| {
            SchedRuntime::with_config(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 100.0),
                config,
            )
            .run(load(48, 100_000.0))
        };
        let captured = |exec: ExecutorKind| {
            RuntimeConfig::new()
                .executor(exec)
                .timeline(TimelineConfig::enabled(100.0, 4096))
                .health(HealthConfig::enabled())
        };
        let report = run(captured(ExecutorKind::Inline));
        // Samples and rule firings are virtual-time-derived: identical
        // across executors.
        let pooled = run(captured(ExecutorKind::ThreadPool));
        assert_eq!(report.timeline, pooled.timeline);
        assert_eq!(report.health, pooled.health);
        // Disabled capture leaves both report fields empty.
        let off = run(RuntimeConfig::new());
        assert!(off.timeline.samples.is_empty());
        assert!(off.health.healthy());
        assert_eq!(off.health.samples_evaluated, 0);
        let tl = &report.timeline;
        assert!(!tl.samples.is_empty());
        assert_eq!(tl.dropped, 0);
        assert_eq!(tl.num_devices, 2);
        for w in tl.samples.windows(2) {
            assert!(w[1].t_us > w[0].t_us);
            assert!(w[1].completed >= w[0].completed);
            assert!(w[1].weight_loads >= w[0].weight_loads);
        }
        // The final (drain-time) sample closes the books: every request
        // accounted for, queue empty, both model images resident.
        let last = tl.samples.last().unwrap();
        assert_eq!(last.completed + last.shed, 48);
        assert_eq!(last.queue_depth, 0);
        assert_eq!(last.weight_loads, report.sched.model_loads);
        assert!(last.weights_bytes > 0, "weight images stay resident");
        // Mid-run samples show real utilization on at least one device.
        assert!(tl
            .samples
            .iter()
            .enumerate()
            .any(|(i, _)| tl.device_util_row(i).iter().any(|&u| u > 0.0)));
        // No deadlines, no faults: a healthy run.
        assert!(report.health.healthy(), "{:?}", report.health.events);
        assert_eq!(report.health.samples_evaluated, tl.samples.len() as u64);
    }

    #[test]
    fn overload_fires_the_burn_rate_alert_and_journals_it() {
        use crate::health::{HealthConfig, HealthRuleKind};
        use crate::loadgen::with_uniform_slo;
        use crate::timeline::TimelineConfig;
        use crate::trace::{TraceConfig, TraceEvent};
        let make = || {
            SchedRuntime::with_config(
                registry(),
                vec![XCKU060],
                SchedPolicy::edf_cost_model(4, 100.0),
                RuntimeConfig::new()
                    .tracing(TraceConfig::enabled(1 << 14))
                    .timeline(TimelineConfig::enabled(50.0, 8192))
                    .health(HealthConfig::enabled()),
            )
        };
        // 1 µs deadlines are unmeetable: every request burns the miss
        // budget, so both burn-rate windows saturate.
        let hot = make().run(with_uniform_slo(load(48, 200_000.0), 1.0));
        assert!(hot.health.count(HealthRuleKind::SloBurnRate) >= 1);
        let fired = hot
            .health
            .events
            .iter()
            .find(|e| e.rule == HealthRuleKind::SloBurnRate)
            .expect("burn-rate alert");
        assert!(fired.value >= fired.threshold);
        // Every health firing is journaled as a trace event too.
        let journaled = hot
            .trace
            .journal
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Health { .. }))
            .count();
        assert_eq!(hot.health.dropped, 0);
        assert_eq!(journaled, hot.health.events.len());
        // The same load without deadlines fires nothing.
        let calm = make().run(load(48, 200_000.0));
        assert!(calm.health.healthy(), "{:?}", calm.health.events);
    }

    #[test]
    fn tracing_never_changes_virtual_time_results() {
        use crate::trace::TraceConfig;
        let make = |cfg: TraceConfig| {
            SchedRuntime::new(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 50.0)
                    .with_admission(AdmissionPolicy::ShedPredictedLate),
            )
            .with_tracing(cfg)
        };
        let slo = |reqs: Vec<Request>| -> Vec<Request> {
            reqs.into_iter()
                .map(|r| {
                    let arrival = r.arrival_us;
                    r.with_deadline(arrival + 300.0)
                })
                .collect()
        };
        let off = make(TraceConfig::disabled()).run(slo(load(32, 300_000.0)));
        let on = make(TraceConfig::enabled(64)).run(slo(load(32, 300_000.0)));
        assert_eq!(off.responses, on.responses);
        assert_eq!(off.metrics, on.metrics);
        assert_eq!(off.sched, on.sched);
        // Attribution is collected either way; only the journal differs.
        assert_eq!(off.trace.attribution, on.trace.attribution);
        assert!(off.trace.journal.events.is_empty());
        assert!(!on.trace.journal.events.is_empty());
        // The tiny capacity forced flight-recorder overwrite.
        assert!(on.trace.journal.dropped > 0);
        assert_eq!(on.trace.journal.events.len(), 64);
    }

    #[test]
    fn residency_loads_are_counted_and_charged() {
        // Single device with a budget that holds exactly one model:
        // alternating models must thrash the weight cache.
        let reg = registry();
        let total_bytes: u64 = (0..reg.len()).map(|m| reg.weight_bytes(m)).sum();
        // 90% of the combined footprint: each model fits alone, both
        // together never do.
        let budget = (total_bytes as f64 * 0.9) as u64;
        let rt = SchedRuntime::new(
            reg,
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0).with_bram_budget_bytes(budget),
        );
        let report = rt.run(load(12, 50_000.0));
        assert_eq!(report.responses.len(), 12);
        assert!(
            report.sched.model_loads >= 4,
            "alternating models must reload: {:?}",
            report.sched
        );
        assert!(report.sched.model_evictions >= 3, "{:?}", report.sched);
        assert!(report.sched.load_us_total > 0.0);
        // With the full default budget both models stay resident: exactly
        // one load each, no evictions.
        let roomy = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        let report = roomy.run(load(12, 50_000.0));
        assert_eq!(report.sched.model_loads, 2);
        assert_eq!(report.sched.model_evictions, 0);
    }

    #[test]
    fn edf_serves_urgent_requests_first_under_backlog() {
        // All requests arrive at t=0 on one device. Under EDF the tight
        // deadlines run first regardless of submission order; under FIFO
        // they run last (they were submitted last) and miss.
        let utts = synthetic_utterances(1, (40, 40), DIM, 7);
        let mk_requests = || {
            let mut reqs = Vec::new();
            for i in 0..6u64 {
                // Submitted first: loose deadlines.
                reqs.push(Request::new(i, utts[0].clone(), 0.0).with_deadline(1e9));
            }
            for i in 6..12u64 {
                // Submitted last: deadlines only the head of the line can
                // make.
                reqs.push(Request::new(i, utts[0].clone(), 0.0).with_deadline(40.0));
            }
            reqs
        };
        let edf = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        )
        .run(mk_requests());
        let fifo = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::fifo_earliest_free(1, 0.0),
        )
        .run(mk_requests());
        assert!(
            edf.metrics.deadline_miss_rate < fifo.metrics.deadline_miss_rate,
            "EDF {} vs FIFO {}",
            edf.metrics.deadline_miss_rate,
            fifo.metrics.deadline_miss_rate
        );
    }

    #[test]
    fn degrade_caps_batches_under_overload() {
        let policy = SchedPolicy::edf_cost_model(8, 1_000.0).with_admission(
            AdmissionPolicy::DegradeThenShed {
                degraded_max_batch: 2,
                queue_delay_budget_us: 1.0,
            },
        );
        let rt = SchedRuntime::new(registry(), vec![XCKU060], policy);
        // Saturating load with deadlines generous enough not to shed.
        let requests: Vec<Request> = load(48, 2_000_000.0)
            .into_iter()
            .map(|r| {
                let arrival = r.arrival_us;
                r.with_deadline(arrival + 1e9)
            })
            .collect();
        let report = rt.run(requests);
        assert!(report.sched.degraded_batches > 0);
        // Once degraded, batches respect the cap.
        let max_batch = report.responses.iter().map(|r| r.batch_size).max().unwrap();
        assert!(max_batch <= 8);
        assert!(
            report.metrics.batch_histogram.keys().any(|&s| s <= 2),
            "{:?}",
            report.metrics.batch_histogram
        );
        assert_eq!(report.sched.shed + report.metrics.completed, 48);
    }

    #[test]
    fn closed_loop_respects_budget_and_mints_on_completion() {
        let utts = synthetic_utterances(4, (3, 6), DIM, 11);
        let payloads: Vec<(ModelId, Vec<Vec<f32>>)> = utts
            .into_iter()
            .enumerate()
            .map(|(i, u)| (i % 2, u))
            .collect();
        let run = |exec: ExecutorKind| {
            SchedRuntime::with_executor(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 30.0),
                exec,
            )
            .run_closed_loop(&payloads, 3, 30, None)
        };
        let report = run(ExecutorKind::Inline);
        assert_eq!(report.responses.len(), 30);
        for r in &report.responses {
            assert!(r.batch_size <= 3, "concurrency bounds in-flight work");
        }
        // Every replacement arrives exactly at some earlier completion.
        let completions: Vec<f64> = report.responses.iter().map(|r| r.complete_us).collect();
        for r in report.responses.iter().filter(|r| r.id >= 3) {
            assert!(
                completions.contains(&r.arrival_us),
                "arrival {} matches no completion",
                r.arrival_us
            );
        }
        // Completion feedback lives on the virtual clock, so the closed
        // loop is as executor-independent as an open one.
        let pooled = run(ExecutorKind::ThreadPool);
        assert_eq!(report.responses, pooled.responses);
        assert_eq!(report.metrics, pooled.metrics);
    }

    // ----- one model, FIFO + earliest-free: plain dynamic batching -----

    fn fifo(devices: usize, max_batch: usize, max_wait_us: f64) -> SchedRuntime {
        let mut reg = ModelRegistry::new();
        reg.register("gru-16", compiled(21, 16));
        SchedRuntime::new(
            reg,
            vec![XCKU060; devices],
            SchedPolicy::fifo_earliest_free(max_batch, max_wait_us),
        )
    }

    /// Utterances long enough that service time (≈ frames × II) dominates
    /// the µs-scale arrival gaps used by the pressure tests.
    fn long_utterances() -> Vec<Vec<Vec<f32>>> {
        synthetic_utterances(6, (40, 80), DIM, 33)
    }

    #[test]
    fn batching_engages_under_pressure() {
        // Offered load far above single-device capacity forces full
        // batches once the queue builds.
        let report =
            fifo(1, 8, 200.0).run(open_loop_poisson(&long_utterances(), 96, 500_000.0, 44));
        assert!(
            report.metrics.mean_batch_size > 2.0,
            "mean batch {} under heavy load",
            report.metrics.mean_batch_size
        );
        assert!(report.metrics.batch_histogram.contains_key(&8));
    }

    #[test]
    fn max_wait_bounds_queue_time_under_light_load() {
        // One request every millisecond (deterministic spacing far above
        // the wait budget): every batch is a flushed singleton and
        // queueing stays within the 50 µs budget.
        let utts = long_utterances();
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request::new(i, utts[i as usize % utts.len()].clone(), i as f64 * 1000.0))
            .collect();
        let report = fifo(1, 8, 50.0).run(reqs);
        for r in &report.responses {
            assert!(r.queue_us() <= 50.0 + 1e-9, "queue {}", r.queue_us());
            assert_eq!(r.batch_size, 1);
        }
    }

    #[test]
    fn more_devices_never_slow_the_drain() {
        let reqs = open_loop_poisson(&long_utterances(), 80, 400_000.0, 44);
        let one = fifo(1, 4, 100.0).run(reqs.clone());
        let two = fifo(2, 4, 100.0).run(reqs.clone());
        let four = fifo(4, 4, 100.0).run(reqs);
        assert!(two.metrics.makespan_us < one.metrics.makespan_us);
        assert!(four.metrics.makespan_us <= two.metrics.makespan_us);
    }

    #[test]
    fn earliest_free_placement_breaks_ties_to_the_lowest_index() {
        // Three singleton batches at t = 0 on two idle devices: the tie
        // goes to device 0, the second batch to the still-idle device 1,
        // and the third to whichever frees first — device 1, whose
        // batch was short.
        let frames = |n: usize| vec![vec![0.1f32; DIM]; n];
        let report = fifo(2, 1, 0.0).run(vec![
            Request::new(0, frames(40), 0.0),
            Request::new(1, frames(2), 0.0),
            Request::new(2, frames(2), 0.0),
        ]);
        let mut by_id: Vec<&Response> = report.responses.iter().collect();
        by_id.sort_by_key(|r| r.id);
        let devices: Vec<Option<usize>> = by_id.iter().map(|r| r.device).collect();
        assert_eq!(devices, vec![Some(0), Some(1), Some(1)]);
    }

    #[test]
    fn occupancy_horizon_starts_at_first_arrival() {
        // All arrivals late on the virtual clock: occupancy must be
        // measured from the first arrival, not from t = 0.
        let utts = long_utterances();
        let reqs: Vec<Request> = (0..32)
            .map(|i| {
                Request::new(
                    i,
                    utts[i as usize % utts.len()].clone(),
                    1_000_000.0 + i as f64,
                )
            })
            .collect();
        let report = fifo(1, 8, 50.0).run(reqs);
        assert!(
            report.metrics.device_occupancy[0] > 0.5,
            "late-start load must still show real occupancy: {:?}",
            report.metrics.device_occupancy
        );
    }

    #[test]
    #[should_panic(expected = "has no frames")]
    fn closed_loop_validates_all_payloads_up_front() {
        // The second payload is only reachable via a mid-run
        // replacement request; admission must still reject it.
        let good = vec![vec![0.0f32; DIM]; 3];
        let _ = fifo(1, 1, 0.0).run_closed_loop(&[(0, good), (0, Vec::new())], 1, 10, None);
    }

    /// Splits one utterance into `chunk_frames`-sized session chunks with
    /// ids starting at `base_id`, arriving every `gap_us` from `t0_us`.
    fn chunked(
        session: u64,
        base_id: u64,
        utt: &[Vec<f32>],
        chunk_frames: usize,
        t0_us: f64,
        gap_us: f64,
    ) -> Vec<Request> {
        let n = utt.len().div_ceil(chunk_frames);
        (0..n)
            .map(|i| {
                let frames =
                    utt[i * chunk_frames..((i + 1) * chunk_frames).min(utt.len())].to_vec();
                Request::chunk(
                    base_id + i as u64,
                    session,
                    i as u32,
                    i == n - 1,
                    frames,
                    t0_us + gap_us * i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn streaming_sessions_pin_one_device_and_match_whole_utterances() {
        let reg = registry();
        let models = reg.models();
        let utts = synthetic_utterances(3, (12, 20), DIM, 55);
        let mut requests = Vec::new();
        let mut next_id = 0u64;
        for (s, utt) in utts.iter().enumerate() {
            let chunks = chunked(s as u64, next_id, utt, 5, s as f64 * 40.0, 300.0);
            next_id += chunks.len() as u64;
            requests.extend(chunks);
        }
        let run = |exec: ExecutorKind| {
            SchedRuntime::with_executor(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 50.0),
                exec,
            )
            .with_tracing(TraceConfig::enabled(4096))
            .run(requests.clone())
        };
        let inline = run(ExecutorKind::Inline);
        let pooled = run(ExecutorKind::ThreadPool);
        // Virtual-time results and the trace journal are bit-identical
        // across executors, streaming state included.
        assert_eq!(inline.responses, pooled.responses);
        assert_eq!(inline.metrics, pooled.metrics);
        assert_eq!(inline.sched, pooled.sched);
        assert_eq!(inline.trace, pooled.trace);
        // Every chunk of a session ran on that session's one device, and
        // stitching the per-chunk logits reproduces the whole-utterance
        // inference bit-exactly.
        for (s, utt) in utts.iter().enumerate() {
            let mut on: Vec<&Response> = inline
                .responses
                .iter()
                .filter(|r| r.workload.session() == Some(s as u64))
                .collect();
            on.sort_by_key(|r| r.id);
            let device = on[0].device.expect("served");
            assert!(on.iter().all(|r| r.device == Some(device)), "session {s}");
            let stitched: Vec<Vec<f32>> =
                on.iter().flat_map(|r| r.logits.iter().cloned()).collect();
            assert_eq!(stitched, models[0].infer(utt), "session {s}");
        }
        assert_eq!(inline.metrics.sessions, 3);
    }

    #[test]
    fn live_session_cap_sheds_excess_sessions_whole() {
        let utts = synthetic_utterances(2, (12, 12), DIM, 77);
        let mut requests = chunked(0, 0, &utts[0], 4, 0.0, 500.0);
        // Session 1 starts while session 0 is still live.
        requests.extend(chunked(1, 100, &utts[1], 4, 10.0, 500.0));
        let rt = SchedRuntime::with_config(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(2, 50.0),
            RuntimeConfig::new().max_live_sessions(1),
        );
        assert_eq!(rt.config().max_live_sessions, Some(1));
        let report = rt.run(requests);
        // Session 0 is served completely; session 1 is shed whole — its
        // first chunk hit the cap and cancellation covers the rest.
        for r in &report.responses {
            match r.workload.session() {
                Some(0) => assert!(!r.shed, "chunk {} of session 0", r.id),
                Some(1) => {
                    assert!(r.shed, "chunk {} of session 1", r.id);
                    assert_eq!(r.device, None);
                }
                _ => unreachable!("only chunks in this load"),
            }
        }
        assert_eq!(report.sched.shed, 3);
        // Shed chunks are logged as rejected admissions.
        let rejected = report
            .sched
            .admission_log
            .iter()
            .filter(|a| !a.admitted)
            .count();
        assert_eq!(rejected, 3);
    }

    #[test]
    fn evicted_session_state_is_reloaded_charged_and_traced() {
        // One device whose budget holds the bigger weight image but not
        // the session's state alongside it: dispatching the other model
        // evicts the session's state image, forcing charged reloads.
        // (The session's own batches pin their state image, so only a
        // foreign batch can evict it.)
        let reg = registry();
        let budget = reg.weight_bytes(1) + reg.model(0).state_bytes() - 1;
        let rt = SchedRuntime::new(
            reg,
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0).with_bram_budget_bytes(budget),
        )
        .with_tracing(TraceConfig::enabled(4096));
        let utts = synthetic_utterances(2, (12, 12), DIM, 88);
        let mut requests = chunked(9, 0, &utts[0], 3, 0.0, 1000.0);
        for i in 0..3u64 {
            requests.push(
                Request::new(50 + i, utts[1].clone(), 500.0 + 1000.0 * i as f64).with_model(1),
            );
        }
        let report = rt.run(requests);
        assert!(report.responses.iter().all(|r| !r.shed));
        assert!(
            report.sched.state_loads >= 1,
            "interleaved models must thrash session state: {:?}",
            report.sched
        );
        assert!(report.sched.state_evictions >= 1, "{:?}", report.sched);
        assert!(report.sched.state_load_us_total > 0.0);
        // Each charged reload appears in the journal with its stall.
        let loads: Vec<_> = report
            .trace
            .journal
            .events
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::SessionStateLoad {
                    session,
                    load_us,
                    stall_cycles,
                    ..
                } => Some((*session, *load_us, *stall_cycles)),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len() as u64, report.sched.state_loads);
        for (session, load_us, stall_cycles) in loads {
            assert_eq!(session, 9);
            assert!(load_us > 0.0);
            assert!(stall_cycles > 0);
        }
        // The stalls land in the attribution's state lane.
        let attributed_state: f64 = report
            .trace
            .attribution
            .iter()
            .map(|(_, _, c)| c.state_us)
            .sum();
        assert!((attributed_state - report.sched.state_load_us_total).abs() < 1e-9);
    }

    #[test]
    fn shedding_one_chunk_cancels_the_rest_of_its_session() {
        // All chunks share one absolute deadline (non-decreasing, as
        // validation requires), sized to fit the cold load plus about two
        // chunks of service. The first chunk makes it; a later chunk
        // predicts late under ShedPredictedLate, and from that point the
        // whole session sheds — served prefixes never interleave with
        // holes.
        let reg = registry();
        let cost = CostModel::build(&[XCKU060], &reg);
        let est = cost.estimate_frames_us(0, 0, 3);
        let deadline = DeviceResidency::load_us(reg.weight_bytes(0)) + 2.5 * est;
        let utts = synthetic_utterances(1, (30, 30), DIM, 99);
        let requests: Vec<Request> = chunked(4, 0, &utts[0], 3, 0.0, 1.0)
            .into_iter()
            .map(|r| r.with_deadline(deadline))
            .collect();
        let rt = SchedRuntime::new(
            reg,
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0).with_admission(AdmissionPolicy::ShedPredictedLate),
        );
        let report = rt.run(requests);
        let mut by_id: Vec<&Response> = report.responses.iter().collect();
        by_id.sort_by_key(|r| r.id);
        let first_shed = by_id.iter().position(|r| r.shed);
        let first_shed = first_shed.expect("the 30-frame session must overrun a 120 µs deadline");
        assert!(first_shed > 0, "the first chunk fits its deadline");
        assert!(
            by_id[first_shed..].iter().all(|r| r.shed),
            "cancellation sheds every chunk after the first shed one"
        );
    }

    #[test]
    #[should_panic(expected = "unregistered model")]
    fn rejects_unknown_model_ids() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        let _ = rt.run(vec![
            Request::new(0, vec![vec![0.0; DIM]], 0.0).with_model(7)
        ]);
    }

    #[test]
    #[should_panic(expected = "frame dimension")]
    fn rejects_wrong_dimension_for_target_model() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        let _ = rt.run(vec![Request::new(0, vec![vec![0.0; 3]], 0.0)]);
    }

    /// The issue-16 regression: `[0.0, NaN, −5.0]` used to come back as
    /// two responses for three requests — `total_cmp` sorts the NaN
    /// arrival last in the heap and no horizon ever reaches it.
    #[test]
    #[should_panic(expected = "request 1: arrival_us must be finite")]
    fn rejects_a_nan_arrival_instead_of_losing_the_request() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        let frames = || vec![vec![0.0; DIM]];
        let _ = rt.run(vec![
            Request::new(0, frames(), 0.0),
            Request::new(1, frames(), f64::NAN),
            Request::new(2, frames(), -5.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "request 4: arrival_us must be finite")]
    fn stepped_offers_reject_infinite_arrivals() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        SchedEngine::new(&rt).offer(Request::new(4, vec![vec![0.0; DIM]], f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "request 0: deadline_us must not be NaN")]
    fn closed_loop_rejects_a_nan_deadline_up_front() {
        let rt = SchedRuntime::new(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
        );
        let payloads = vec![(0, vec![vec![0.0; DIM]])];
        let _ = rt.run_closed_loop(&payloads, 1, 2, Some(f64::NAN));
    }

    /// Everything a `run_until` may touch, bit-exact.
    fn engine_fingerprint(e: &SchedEngine<'_, '_>) -> impl PartialEq + std::fmt::Debug {
        let s = &e.state;
        (
            (s.responses.clone(), s.stats.clone()),
            (s.now_us.to_bits(), s.admit_seq, s.live_sessions),
            (s.queue.len(), s.queue.backlog_us().to_bits()),
            s.arrivals.len(),
            s.pool
                .devices()
                .iter()
                .map(|d| (d.free_at_us().to_bits(), d.busy_us().to_bits(), d.batches))
                .collect::<Vec<_>>(),
            (e.ewma_queue_us().to_bits(), e.resident_bytes()),
        )
    }

    /// The invariant the cluster router's wake index rests on: stepping
    /// an engine to any horizon short of `next_event_us()` changes
    /// nothing — and the bound is tight, stepping *to* it does.
    #[test]
    fn run_until_short_of_the_next_event_mutates_nothing() {
        let mut state = 0x5EED_0016_u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let utts = synthetic_utterances(8, (2, 9), DIM, 77);
        for case in 0..24 {
            let max_batch = 1 + (rand() % 4) as usize;
            let max_wait_us = (rand() % 4) as f64 * 60.0;
            let policy = if case % 2 == 0 {
                SchedPolicy::edf_cost_model(max_batch, max_wait_us)
            } else {
                SchedPolicy::fifo_earliest_free(max_batch, max_wait_us)
            };
            let rt = SchedRuntime::new(registry(), vec![XCKU060, ADM_PCIE_7V3], policy);
            let mut engine = SchedEngine::new(&rt);
            let (mut t, mut next_id, mut probes, mut wakes) = (0.0f64, 0u64, 0, 0);
            // One streaming session open at a time: (id, next chunk
            // index, last chunk's arrival — a session's arrivals must
            // strictly increase).
            let mut open_session: Option<(u64, u32, f64)> = None;
            for step in 0..120 {
                // Offer a burst (sometimes empty, sometimes in the past,
                // sometimes simultaneous), mixing in the session.
                for _ in 0..rand() % 3 {
                    let arrival = t + (rand() % 5) as f64 * 17.0 - 20.0;
                    let utt = utts[(rand() % 8) as usize].clone();
                    let r = match open_session {
                        Some((session, index, prev)) if rand() % 3 == 0 => {
                            let (last, arrival) = (index == 5, arrival.max(prev + 1.0));
                            open_session = (!last).then_some((session, index + 1, arrival));
                            Request::chunk(next_id, session, index, last, utt, arrival)
                        }
                        None if rand() % 4 == 0 => {
                            open_session = Some((step, 1, arrival));
                            Request::chunk(next_id, step, 0, false, utt, arrival)
                        }
                        _ => Request::new(next_id, utt, arrival)
                            .with_model((rand() % 2) as usize)
                            .with_deadline(arrival + (rand() % 900) as f64),
                    };
                    next_id += 1;
                    engine.offer(r);
                }
                let next = engine.next_event_us();
                if next > t {
                    // Any horizon in [t, next): the far end, when finite.
                    let short = if next.is_finite() {
                        t + (next - t) * 0.999
                    } else {
                        t + 1e9
                    };
                    let before = engine_fingerprint(&engine);
                    engine.run_until(short);
                    assert_eq!(
                        before,
                        engine_fingerprint(&engine),
                        "case {case} step {step}: run_until({short}) ran an event \
                         before next_event_us() = {next}"
                    );
                    assert_eq!(engine.next_event_us().to_bits(), next.to_bits());
                    probes += 1;
                }
                if next.is_finite() {
                    let before = engine_fingerprint(&engine);
                    engine.run_until(next);
                    assert_ne!(
                        before,
                        engine_fingerprint(&engine),
                        "case {case} step {step}: nothing was due at next_event_us() = {next}"
                    );
                    wakes += 1;
                }
                t = t.max(next.min(t + 200.0)) + (rand() % 3) as f64 * 11.0;
                engine.run_until(t);
                assert!(engine.next_event_us() > t);
            }
            assert!(probes > 20 && wakes > 20, "case {case}: {probes} / {wakes}");
            // Drain: the sessions left open never finish, which is fine —
            // the engine is stepped, not validated as a whole load.
            engine.run_until(f64::INFINITY);
            assert_eq!(engine.next_event_us(), f64::INFINITY);
            assert_eq!(engine.finish().responses.len() as u64, next_id);
        }
    }

    // ----- fault injection, failover, and migration -----

    use crate::config::RetryPolicy;
    use crate::request::ShedReason;
    use ernn_fpga::{DeviceFault, FaultEvent, FaultPlan};

    #[test]
    fn try_with_config_reports_typed_errors() {
        let policy = || SchedPolicy::edf_cost_model(1, 0.0);
        let err = SchedRuntime::try_with_config(
            ModelRegistry::new(),
            vec![XCKU060],
            policy(),
            RuntimeConfig::new(),
        )
        .unwrap_err();
        assert_eq!(err, SchedConfigError::EmptyRegistry);
        assert_eq!(err.to_string(), "registry needs at least one model");

        let err =
            SchedRuntime::try_with_config(registry(), Vec::new(), policy(), RuntimeConfig::new())
                .unwrap_err();
        assert_eq!(err, SchedConfigError::NoDevices);

        let err = SchedRuntime::try_with_config(
            registry(),
            vec![XCKU060],
            policy().with_bram_budget_bytes(1),
            RuntimeConfig::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SchedConfigError::ModelFitsNoDevice { model: 0, .. }
        ));
        assert!(err.to_string().contains("fits no device's BRAM budget"));

        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 10.0,
            device: 3,
            fault: DeviceFault::Transient,
        }]);
        let err = SchedRuntime::try_with_config(
            registry(),
            vec![XCKU060],
            policy(),
            RuntimeConfig::new().fault_plan(plan),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchedConfigError::FaultDeviceOutOfRange {
                device: 3,
                devices: 1
            }
        );
    }

    #[test]
    fn transient_fault_aborts_the_batch_and_retries_serve_everything() {
        use crate::trace::TraceEvent;
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 0.5,
            device: 0,
            fault: DeviceFault::Transient,
        }]);
        let rt = SchedRuntime::with_config(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
            RuntimeConfig::new().fault_plan(plan),
        )
        .with_tracing(TraceConfig::enabled(4096));
        let utts = synthetic_utterances(2, (20, 20), DIM, 13);
        let report = rt.run(vec![
            Request::new(0, utts[0].clone(), 0.0),
            Request::new(1, utts[1].clone(), 30.0),
        ]);
        assert_eq!(report.responses.len(), 2);
        for r in &report.responses {
            assert!(!r.shed, "request {}", r.id);
            assert!(!r.logits.is_empty());
        }
        assert_eq!(report.sched.batches_aborted, 1);
        assert_eq!(report.sched.device_transients, 1);
        assert_eq!(report.sched.retries_scheduled, 1);
        assert_eq!(report.sched.retries_exhausted, 0);
        assert_eq!(report.sched.device_crashes, 0);
        // The retried request re-enters admission, so the log grows.
        assert_eq!(report.sched.admission_log.len(), 3);
        let retries = report
            .trace
            .journal
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RetryScheduled { .. }))
            .count();
        assert_eq!(retries, 1);
        // The wasted pre-fault occupancy lands in the aborted lane.
        let aborted_us: f64 = report
            .trace
            .attribution
            .iter()
            .map(|(_, _, c)| c.aborted_us)
            .sum();
        assert!((aborted_us - 0.5).abs() < 1e-9, "{aborted_us}");
    }

    #[test]
    fn crash_wipes_residency_and_recovery_reloads_weights() {
        use crate::trace::TraceEvent;
        let reg = registry();
        let cost = CostModel::build(&[XCKU060], &reg);
        let est = cost.estimate_frames_us(0, 0, 20);
        let load = DeviceResidency::load_us(reg.weight_bytes(0));
        assert!(est > 1.0, "test assumes a multi-µs service time");
        // Request 0 loads the weights and completes; the crash strikes
        // the middle of request 1's window, so its batch aborts and
        // retries after the 300 µs outage — against wiped BRAM.
        let t1 = load + est + 10.0;
        let crash_at = t1 + est * 0.5;
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: crash_at,
            device: 0,
            fault: DeviceFault::Crash { down_us: 300.0 },
        }]);
        let utts = synthetic_utterances(3, (20, 20), DIM, 17);
        let rt = SchedRuntime::with_config(
            reg,
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
            RuntimeConfig::new().fault_plan(plan),
        )
        .with_tracing(TraceConfig::enabled(4096));
        let report = rt.run(vec![
            Request::new(0, utts[0].clone(), 0.0),
            Request::new(1, utts[1].clone(), t1),
            // A trailing arrival pulls the virtual clock past the
            // recovery point so the DeviceUp event is journaled.
            Request::new(2, utts[2].clone(), crash_at + 400.0),
        ]);
        assert!(report.responses.iter().all(|r| !r.shed));
        assert_eq!(report.sched.device_crashes, 1);
        assert_eq!(report.sched.batches_aborted, 1);
        // Initial load + post-crash reload.
        assert_eq!(report.sched.model_loads, 2);
        let request1 = report.responses.iter().find(|r| r.id == 1).unwrap();
        assert!(
            request1.complete_us > crash_at + 300.0,
            "request 1 completes only after the outage: {}",
            request1.complete_us
        );
        let downs = report
            .trace
            .journal
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeviceDown { .. }))
            .count();
        let ups = report
            .trace
            .journal
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeviceUp { .. }))
            .count();
        assert_eq!((downs, ups), (1, 1));
    }

    #[test]
    fn permanent_crash_fails_over_sessions_and_migrates_state() {
        use crate::trace::TraceEvent;
        let reg = registry();
        let models = reg.models();
        let utts = synthetic_utterances(1, (12, 12), DIM, 19);
        let requests = chunked(7, 0, &utts[0], 4, 0.0, 300.0);
        let policy = || SchedPolicy::edf_cost_model(2, 50.0);
        // Discovery run: find the device the session pins to.
        let discovery =
            SchedRuntime::new(registry(), vec![XCKU060, XCKU060], policy()).run(requests.clone());
        let pinned = discovery.responses[0].device.expect("served");
        let survivor = 1 - pinned;
        // Crash the pinned device for good between chunk 1's dispatch
        // (flushes by t = 350) and chunk 2's arrival at t = 600.
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 450.0,
            device: pinned,
            fault: DeviceFault::Crash {
                down_us: f64::INFINITY,
            },
        }]);
        let run = |exec: ExecutorKind, failover: bool| {
            SchedRuntime::with_config(
                registry(),
                vec![XCKU060, XCKU060],
                policy(),
                RuntimeConfig::new()
                    .executor(exec)
                    .fault_plan(plan.clone())
                    .failover(failover),
            )
            .with_tracing(TraceConfig::enabled(4096))
            .run(requests.clone())
        };
        let inline = run(ExecutorKind::Inline, true);
        let pooled = run(ExecutorKind::ThreadPool, true);
        // Migration is part of the virtual-time contract: bit-identical
        // across executors, journal included.
        assert_eq!(inline.responses, pooled.responses);
        assert_eq!(inline.metrics, pooled.metrics);
        assert_eq!(inline.sched, pooled.sched);
        assert_eq!(inline.trace, pooled.trace);
        assert!(inline.responses.iter().all(|r| !r.shed));
        assert_eq!(inline.sched.state_migrations, 1);
        let migration = inline
            .trace
            .journal
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::StateMigration {
                    session,
                    from_device,
                    to_device,
                    reload_us,
                    ..
                } => Some((*session, *from_device, *to_device, *reload_us)),
                _ => None,
            })
            .expect("migration journaled");
        assert_eq!(migration.0, 7);
        assert_eq!(migration.1, pinned);
        assert_eq!(migration.2, survivor);
        assert!(migration.3 > 0.0, "re-pinning streams the state back");
        // Chunks dispatched after the crash run on the survivor, and
        // the stitched logits still match whole-utterance inference
        // bit-exactly — the recurrent state crossed devices intact.
        let mut on: Vec<&Response> = inline.responses.iter().collect();
        on.sort_by_key(|r| r.id);
        assert_eq!(on.last().unwrap().device, Some(survivor));
        let stitched: Vec<Vec<f32>> = on.iter().flat_map(|r| r.logits.iter().cloned()).collect();
        assert_eq!(stitched, models[0].infer(&utts[0]));

        // Without failover the session stays pinned to the dead device
        // and everything after the crash sheds as capacity loss.
        let stranded = run(ExecutorKind::Inline, false);
        assert_eq!(stranded.sched.state_migrations, 0);
        let mut by_id: Vec<&Response> = stranded.responses.iter().collect();
        by_id.sort_by_key(|r| r.id);
        assert!(!by_id[0].shed && !by_id[1].shed);
        for r in &by_id[2..] {
            assert!(r.shed, "chunk {} strands on the dead device", r.id);
            assert_eq!(r.shed_reason, Some(ShedReason::CapacityLoss));
        }
    }

    #[test]
    fn retry_exhaustion_sheds_with_capacity_loss() {
        // Three transients, each timed inside the window of the batch's
        // next attempt; max_attempts = 2 means the third abort sheds.
        let retry = RetryPolicy {
            base_backoff_us: 50.0,
            max_backoff_us: 5_000.0,
            max_attempts: 2,
        };
        let reg = registry();
        let cost = CostModel::build(&[XCKU060], &reg);
        let est = cost.estimate_frames_us(0, 0, 20);
        assert!(est > 1.0, "test assumes a multi-µs service time");
        let t1 = 0.5;
        let r1 = t1 + retry.backoff_us(1);
        let t2 = r1 + 0.25;
        let r2 = t2 + retry.backoff_us(2);
        let t3 = r2 + 0.25;
        let transient = |t_us| FaultEvent {
            t_us,
            device: 0,
            fault: DeviceFault::Transient,
        };
        let plan = FaultPlan::new(vec![transient(t1), transient(t2), transient(t3)]);
        let utts = synthetic_utterances(1, (20, 20), DIM, 23);
        let rt = SchedRuntime::with_config(
            reg,
            vec![XCKU060],
            SchedPolicy::edf_cost_model(1, 0.0),
            RuntimeConfig::new().fault_plan(plan).retry(retry),
        );
        let report = rt.run(vec![Request::new(0, utts[0].clone(), 0.0)]);
        assert_eq!(report.responses.len(), 1);
        let r = &report.responses[0];
        assert!(r.shed);
        assert_eq!(r.shed_reason, Some(ShedReason::CapacityLoss));
        assert_eq!(report.sched.batches_aborted, 3);
        assert_eq!(report.sched.device_transients, 3);
        assert_eq!(report.sched.retries_scheduled, 2);
        assert_eq!(report.sched.retries_exhausted, 1);
    }

    #[test]
    fn shed_reasons_classify_admission_rejections() {
        let utts = synthetic_utterances(2, (12, 12), DIM, 77);
        let mut requests = chunked(0, 0, &utts[0], 4, 0.0, 500.0);
        requests.extend(chunked(1, 100, &utts[1], 4, 10.0, 500.0));
        let rt = SchedRuntime::with_config(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(2, 50.0),
            RuntimeConfig::new().max_live_sessions(1),
        );
        let report = rt.run(requests);
        let mut session1: Vec<&Response> = report
            .responses
            .iter()
            .filter(|r| r.workload.session() == Some(1))
            .collect();
        session1.sort_by_key(|r| r.id);
        // The first chunk hits the live cap; the rest are cancelled.
        assert_eq!(session1[0].shed_reason, Some(ShedReason::SessionLimit));
        for r in &session1[1..] {
            assert_eq!(r.shed_reason, Some(ShedReason::SessionCancelled));
        }
        // Served responses carry no reason.
        assert!(report
            .responses
            .iter()
            .filter(|r| !r.shed)
            .all(|r| r.shed_reason.is_none()));
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_executors() {
        // A seeded plan with every fault kind, deadline-carrying mixed
        // load, predictor shedding on: the full reaction surface must
        // stay executor-independent.
        let plan = FaultPlan::seeded(0xC0FFEE, 2, 20_000.0, 5);
        let run = |exec: ExecutorKind| {
            let requests: Vec<Request> = load(40, 200_000.0)
                .into_iter()
                .map(|r| {
                    let arrival = r.arrival_us;
                    r.with_deadline(arrival + 5_000.0)
                })
                .collect();
            SchedRuntime::with_config(
                registry(),
                vec![XCKU060, ADM_PCIE_7V3],
                SchedPolicy::edf_cost_model(4, 50.0)
                    .with_admission(AdmissionPolicy::ShedPredictedLate),
                RuntimeConfig::new().executor(exec).fault_plan(plan.clone()),
            )
            .with_tracing(TraceConfig::enabled(8192))
            .run(requests)
        };
        let inline = run(ExecutorKind::Inline);
        let pooled = run(ExecutorKind::ThreadPool);
        assert_eq!(inline.responses, pooled.responses);
        assert_eq!(inline.metrics, pooled.metrics);
        assert_eq!(inline.sched, pooled.sched);
        assert_eq!(inline.trace, pooled.trace);
        // Every request resolves exactly once: served + shed partitions
        // the id space.
        let mut ids: Vec<u64> = inline.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40);
    }
}
