//! The SLO-aware multi-model scheduling event loop — the serving
//! stack's one event loop.
//!
//! [`SchedRuntime`] advances a virtual clock over three event kinds —
//! request arrival, batch-full dispatch, and max-wait flush — places
//! formed batches on simulated devices, and hands host inference to an
//! [`InlineExecutor`]. Every decision point is a scheduler component:
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
//!   shed with an immediate deadline-miss response.
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
//! — thread scheduling, CPU load, lane threads — can move a virtual
//! timestamp. **Wall clock** ([`SchedReport::host_us`]) is the real CPU
//! time this process spent producing the run; it is the one number the
//! [`InlineExecutor`] is allowed to change. The event loop settles timing
//! first (dispatch is pure arithmetic) and hands the functional work to
//! the executor as [`InferenceJob`](crate::InferenceJob)s. Nothing reads
//! a logit before the run ends, so the executor queues each batch on the
//! run's inference lane. Under the default [`ExecutorKind::Inline`](crate::ExecutorKind::Inline) one
//! scoped thread per further host core drains it while the event loop
//! keeps dispatching, so host inference overlaps event-loop work, and the
//! event-loop thread helps with what is left at the end; under
//! [`ExecutorKind::ThreadPool`](crate::ExecutorKind::ThreadPool) no thread serves the lane and the
//! event-loop thread computes every batch at the end, the serial
//! reference. Logits are stitched back into
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
//! [`ExecutorKind::Inline`](crate::ExecutorKind::Inline) and [`ExecutorKind::ThreadPool`](crate::ExecutorKind::ThreadPool), and whatever
//! the host's core count.
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
//!   ([`backoff_us`](crate::backoff_us)); exhausted retries shed
//!   with [`ShedReason::CapacityLoss`];
//! * a crash wipes the device's residency (weight and state images
//!   reload on recovery, charged as usual) and, when
//!   [`RuntimeConfig::failover`] is on, unbinds every streaming
//!   session pinned there — the next chunk re-pins on a surviving
//!   device and re-charges its state image; the executor's one session
//!   table keeps the host-side recurrent state whatever the device, so
//!   stitched logits stay bit-identical to whole-utterance inference
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

use super::admission::AdmissionPolicy;
use super::engine::SchedEngine;
use super::queue::{PaddingModel, QueueDiscipline};
use super::registry::{ModelId, ModelRegistry};
use super::SchedReport;
use crate::config::RuntimeConfig;
use crate::executor::{lane_scope, InlineExecutor, Lane};
use crate::request::{validate_load, validate_request, Request};
use ernn_fpga::Device;
use std::fmt;
use std::sync::Arc;

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
    /// [`RuntimeConfig::max_live_sessions`] is `Some(0)`: no session
    /// could ever start.
    ZeroSessionLimit,
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
            SchedConfigError::ZeroSessionLimit => write!(f, "session limit must be at least 1"),
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

/// The SLO-aware multi-model scheduling runtime.
#[derive(Debug)]
pub struct SchedRuntime {
    registry: ModelRegistry,
    platforms: Vec<Device>,
    pub(super) policy: SchedPolicy,
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

    /// A scheduler with a full [`RuntimeConfig`] (host executor, tracing,
    /// timeline, health, session cap, fault plan). Virtual-time results
    /// are bit-identical across executor kinds and with tracing on or
    /// off. An over-cap streaming load does not
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
    /// registry or pool, a degenerate policy, a zero session limit, a
    /// registered model whose
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
        if config.max_live_sessions == Some(0) {
            return Err(SchedConfigError::ZeroSessionLimit);
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

    /// The runtime configuration runs execute under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
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
    pub(super) fn eligible(&self, d: usize, m: ModelId) -> bool {
        self.registry.weight_bytes(m) <= self.policy.device_budget_bytes(&self.platforms[d])
    }

    /// Serves a pre-generated (open-loop) request list to completion.
    ///
    /// # Panics
    ///
    /// Panics if any request names an unregistered model, has no frames,
    /// disagrees with its model's input dimension, or carries a
    /// non-finite arrival time or a NaN deadline, on invalid sessions,
    /// and on duplicate request ids.
    pub fn run(&self, requests: Vec<Request>) -> SchedReport {
        validate_load(&self.registry, &requests);
        lane_scope(self.config.executor.lane_threads(), |lane| {
            SchedEngine::start(self, lane, requests.into_iter(), None).run_to_drain()
        })
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
            validate_request(&self.registry, &feedback.mint(payloads, i, 0.0));
        }
        let initial = concurrency.min(total_requests);
        let first = (0..initial).map(|i| feedback.mint(payloads, i, 0.0));
        let live = ClosedLoop {
            issued: initial,
            ..feedback
        };
        lane_scope(self.config.executor.lane_threads(), |lane| {
            SchedEngine::start(self, lane, first, Some((live, payloads))).run_to_drain()
        })
    }

    /// The executor for one run, sharing the registry's model snapshot
    /// and feeding the run's inference `lane`.
    pub(super) fn make_executor(&self, lane: &Arc<Lane>) -> InlineExecutor {
        InlineExecutor::on_lane(self.registry.models(), lane)
    }
}

/// Closed-loop client population state.
pub(super) struct ClosedLoop {
    pub(super) issued: usize,
    pub(super) total: usize,
    slo_us: Option<f64>,
}

impl ClosedLoop {
    /// Mints client request `issued` arriving at `t_us` from the payload
    /// pool — the single construction path for closed-loop requests, so
    /// up-front validation and mid-run replacements can never diverge.
    pub(super) fn mint(
        &self,
        payloads: &[(ModelId, Vec<Vec<f32>>)],
        issued: usize,
        t_us: f64,
    ) -> Request {
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
pub(super) type Feedback<'p> = (ClosedLoop, &'p [(ModelId, Vec<Vec<f32>>)]);

#[cfg(test)]
mod tests;
