//! Flight-recorder tracing and streaming telemetry for the serving stack.
//!
//! End-of-run aggregates ([`ServeMetrics`]) say *that* a p99.9 deadline
//! was missed; this module records *why*: every request-lifecycle event —
//! admission, queueing, batch formation, residency loads, device
//! dispatch, completion — is stamped on the **virtual clock** and kept in
//! a bounded [`FlightRecorder`] ring buffer. Because every timestamp is
//! virtual, the journal inherits the executor-determinism contract: the
//! same run traced under [`ExecutorKind::Inline`](crate::ExecutorKind) and
//! [`ExecutorKind::ThreadPool`](crate::ExecutorKind) produces a
//! bit-identical event sequence (asserted by `sched_sweep` and the
//! `trace_journal` proptests).
//!
//! Three layers, cheapest first:
//!
//! * [`LatencyHistogram`] — fixed-bucket log-linear histogram replacing
//!   store-every-sample latency vectors: O(1) memory at million-request
//!   scale, quantiles that never underestimate and overestimate by at
//!   most 1/16 (see [`LatencyHistogram::RELATIVE_ERROR_BOUND`]).
//! * [`StageAttribution`] — per-(device, model) totals of where virtual
//!   time went: queue wait, weight-load stalls, compute, padding waste.
//! * [`FlightRecorder`] — the bounded event journal proper, enabled per
//!   run via [`TraceConfig`]. Recording is a branch plus a `Copy` store
//!   into a pre-sized buffer: **zero steady-state heap allocations**
//!   (enforced by `tests/kernel_alloc.rs`), and the disabled mode is a
//!   single predictable branch.
//!
//! Exporters turn a captured [`RunTrace`] into standard tooling formats:
//! [`chrome_trace_json`] renders a Chrome trace-event document loadable
//! in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, and
//! [`prometheus_snapshot`] / [`prometheus_snapshot_full`] render a
//! Prometheus text-exposition snapshot (the full form additionally
//! merges [`SchedStats`], the newest
//! [`Timeline`] sample, and the
//! [`HealthReport`]). The [`analyze`]
//! submodule reconstructs per-request critical paths from a captured
//! journal. See `docs/observability.md` for the event schema and a
//! Perfetto walkthrough.

pub mod analyze;

use crate::device::BatchExecution;
use crate::health::{HealthEvent, HealthReport, HealthRuleKind};
use crate::metrics::{LatencySummary, ServeMetrics};
use crate::request::{Request, Response};
use crate::sched::SchedStats;
use crate::timeline::Timeline;
use ernn_fpga::Device;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Per-run tracing configuration: disabled, or enabled with a journal
/// capacity.
///
/// The capacity bounds memory *and* allocation behavior: the recorder
/// buffer is pre-sized at construction, and once full the journal keeps
/// the most recent events (flight-recorder semantics) rather than
/// growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default): recording is a single branch, the
    /// journal stays empty, and nothing is allocated.
    pub fn disabled() -> Self {
        TraceConfig { capacity: 0 }
    }

    /// Tracing on, keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — use [`TraceConfig::disabled`].
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "an enabled trace needs a nonzero capacity");
        TraceConfig { capacity }
    }

    /// Whether events will be recorded.
    pub fn is_enabled(self) -> bool {
        self.capacity > 0
    }

    /// Journal capacity in events (0 when disabled).
    pub fn capacity(self) -> usize {
        self.capacity
    }
}

/// One request-lifecycle event, stamped on the virtual clock.
///
/// Events are `Copy` with fixed-size payloads — recording one is a plain
/// store, never an allocation — so list-shaped facts are carried as
/// counts (e.g. [`TraceEvent::ResidencyLoad::evicted`] is how *many*
/// models were evicted; the eviction set itself lives in
/// [`SchedStats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An arrival passed admission control into the queue.
    Admit {
        /// Virtual time of the decision (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Target model.
        model: usize,
        /// The admission predictor's completion estimate (µs).
        predicted_us: f64,
    },
    /// An arrival was rejected by admission control (predicted late).
    Shed {
        /// Virtual time of the decision (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Target model.
        model: usize,
        /// The admission predictor's completion estimate (µs).
        predicted_us: f64,
        /// The deadline the estimate overshot (µs).
        deadline_us: f64,
    },
    /// A request entered the scheduling queue.
    Enqueue {
        /// Virtual time (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Target model.
        model: usize,
        /// Queue depth including this request.
        depth: usize,
    },
    /// A request left the queue into a forming batch.
    Dequeue {
        /// Virtual time (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Target model.
        model: usize,
        /// Time spent queued, arrival → batch formation (µs).
        queued_us: f64,
    },
    /// A batch was formed, with the padding waste batching accepted.
    BatchFormed {
        /// Virtual time (µs).
        t_us: f64,
        /// The batch's (single) model.
        model: usize,
        /// Member count.
        size: usize,
        /// Longest member utterance (frames) — the padded length.
        max_frames: u64,
        /// Sum of member utterance lengths (frames); padding waste is
        /// `size · max_frames − total_frames` frames.
        total_frames: u64,
    },
    /// A cold weight image was streamed onto a device (residency miss).
    ResidencyLoad {
        /// Virtual time the stall begins on the device (µs).
        t_us: f64,
        /// Stalled device.
        device: usize,
        /// Model being loaded.
        model: usize,
        /// Stall length (µs).
        load_us: f64,
        /// The same stall in device clock cycles
        /// ([`Device::cycles_for_us`](ernn_fpga::Device::cycles_for_us)).
        stall_cycles: u64,
        /// Number of models evicted to make room.
        evicted: usize,
    },
    /// A session's recurrent-state image was streamed back onto a device
    /// (state residency miss: the state had been evicted since the
    /// session's previous chunk).
    SessionStateLoad {
        /// Virtual time the stall begins on the device (µs).
        t_us: f64,
        /// Stalled device.
        device: usize,
        /// The streaming session whose state is reloading.
        session: u64,
        /// Stall length (µs).
        load_us: f64,
        /// The same stall in device clock cycles
        /// ([`Device::cycles_for_us`](ernn_fpga::Device::cycles_for_us)).
        stall_cycles: u64,
        /// Number of resident images evicted to make room.
        evicted: usize,
    },
    /// A formed batch started occupying a device.
    Dispatch {
        /// Virtual time of the placement decision (µs).
        t_us: f64,
        /// Chosen device.
        device: usize,
        /// The batch's model.
        model: usize,
        /// Member count.
        size: usize,
        /// When the batch starts occupying the device (µs).
        start_us: f64,
        /// Device occupancy, load stall included (µs).
        busy_us: f64,
    },
    /// One request's frames finished streaming through the device.
    Complete {
        /// Virtual completion time (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Serving device.
        device: usize,
        /// Served model.
        model: usize,
        /// The request's arrival time (µs) — `t_us − arrival_us` is the
        /// end-to-end latency.
        arrival_us: f64,
        /// When the request's batch started on the device (µs).
        dispatch_us: f64,
        /// Whether the deadline (if any) was met.
        deadline_met: bool,
    },
    /// A device crashed: its BRAM contents are lost and it leaves the
    /// pool until recovery.
    DeviceDown {
        /// Virtual time of the crash (µs).
        t_us: f64,
        /// The crashed device.
        device: usize,
        /// How long it stays down (µs); `INFINITY` = permanent.
        down_us: f64,
    },
    /// A crashed device recovered and rejoined the pool (cold: its BRAM
    /// is empty until images re-load).
    DeviceUp {
        /// Virtual time of the recovery (µs).
        t_us: f64,
        /// The recovered device.
        device: usize,
    },
    /// A fault aborted a request's in-flight batch; the request re-enters
    /// the scheduler after a capped exponential backoff.
    RetryScheduled {
        /// Virtual time of the abort (µs).
        t_us: f64,
        /// The aborted request.
        id: u64,
        /// Device the aborted batch was running on.
        device: usize,
        /// Retry attempt number (1-indexed).
        attempt: u32,
        /// When the request re-enters the scheduler (µs).
        retry_at_us: f64,
    },
    /// A retried request landed on a different device than the one its
    /// aborted batch ran on — a failover re-placement.
    Failover {
        /// Virtual time of the re-placement (µs).
        t_us: f64,
        /// The re-placed request.
        id: u64,
        /// Device the aborted batch ran on.
        from_device: usize,
        /// Surviving device that took the request.
        to_device: usize,
    },
    /// A pinned streaming session re-pinned to a new device after a
    /// crash, its recurrent-state image recharged on the virtual clock.
    StateMigration {
        /// Virtual time of the re-pin (µs).
        t_us: f64,
        /// The migrated session.
        session: u64,
        /// The crashed (or drained) device the session left.
        from_device: usize,
        /// The surviving device it re-pinned to.
        to_device: usize,
        /// Stall charged to re-materialize the state image (µs).
        reload_us: f64,
    },
    /// A [`HealthMonitor`](crate::health::HealthMonitor) rule fired on a
    /// timeline sample.
    Health {
        /// Virtual time of the timeline sample that fired (µs).
        t_us: f64,
        /// The rule that fired.
        rule: HealthRuleKind,
        /// Device index for per-device rules; `None` for run-wide rules.
        device: Option<usize>,
        /// Observed value (burn multiple, stuck samples, loads/retries
        /// per window).
        value: f64,
        /// The configured threshold the value crossed.
        threshold: f64,
    },
    /// The cluster router forwarded a request to a shard, charging the
    /// inter-node transfer of its feature frames.
    Forward {
        /// Virtual time of the routing decision (µs).
        t_us: f64,
        /// Request id (cluster-global).
        id: u64,
        /// Target model (cluster-global id).
        model: usize,
        /// The shard the request was forwarded to.
        shard: usize,
        /// Wire time charged for the frames (µs); the request reaches
        /// the shard's scheduler at `t_us + transfer_us` at the
        /// earliest.
        transfer_us: f64,
    },
    /// A model artifact finished replicating onto a shard (chain
    /// replication: each replica streams from the previous holder).
    Replicate {
        /// Virtual time the replica becomes servable (µs).
        t_us: f64,
        /// The replicated model (cluster-global id).
        model: usize,
        /// The shard the artifact bytes streamed from.
        from_shard: usize,
        /// The shard that now holds a servable replica.
        to_shard: usize,
        /// Serialized artifact size (bytes) — the replication unit.
        bytes: u64,
        /// Wire time charged for the artifact bytes (µs).
        transfer_us: f64,
    },
    /// A shard was killed by the cluster fault plan: it leaves the
    /// routing table and its undispatched backlog is reclaimed.
    ShardDown {
        /// Virtual time of the kill (µs).
        t_us: f64,
        /// The killed shard.
        shard: usize,
        /// Backlog requests reclaimed from it (rerouted to survivors
        /// when failover is on, shed otherwise).
        reclaimed: usize,
    },
    /// A streaming session re-pinned from a dead shard to a survivor —
    /// the cluster-level analogue of [`TraceEvent::StateMigration`].
    SessionReroute {
        /// Virtual time of the re-pin (µs).
        t_us: f64,
        /// The rerouted session (cluster-global id).
        session: u64,
        /// The dead shard the session left.
        from_shard: usize,
        /// The surviving shard it re-pinned to.
        to_shard: usize,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp (µs).
    pub fn t_us(&self) -> f64 {
        match *self {
            TraceEvent::Admit { t_us, .. }
            | TraceEvent::Shed { t_us, .. }
            | TraceEvent::Enqueue { t_us, .. }
            | TraceEvent::Dequeue { t_us, .. }
            | TraceEvent::BatchFormed { t_us, .. }
            | TraceEvent::ResidencyLoad { t_us, .. }
            | TraceEvent::SessionStateLoad { t_us, .. }
            | TraceEvent::Dispatch { t_us, .. }
            | TraceEvent::Complete { t_us, .. }
            | TraceEvent::DeviceDown { t_us, .. }
            | TraceEvent::DeviceUp { t_us, .. }
            | TraceEvent::RetryScheduled { t_us, .. }
            | TraceEvent::Failover { t_us, .. }
            | TraceEvent::StateMigration { t_us, .. }
            | TraceEvent::Health { t_us, .. }
            | TraceEvent::Forward { t_us, .. }
            | TraceEvent::Replicate { t_us, .. }
            | TraceEvent::ShardDown { t_us, .. }
            | TraceEvent::SessionReroute { t_us, .. } => t_us,
        }
    }

    /// A short stable name for the event kind (used by exporters).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Admit { .. } => "admit",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::BatchFormed { .. } => "batch_formed",
            TraceEvent::ResidencyLoad { .. } => "residency_load",
            TraceEvent::SessionStateLoad { .. } => "session_state_load",
            TraceEvent::Dispatch { .. } => "dispatch",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::DeviceDown { .. } => "device_down",
            TraceEvent::DeviceUp { .. } => "device_up",
            TraceEvent::RetryScheduled { .. } => "retry_scheduled",
            TraceEvent::Failover { .. } => "failover",
            TraceEvent::StateMigration { .. } => "state_migration",
            TraceEvent::Health { .. } => "health",
            TraceEvent::Forward { .. } => "forward",
            TraceEvent::Replicate { .. } => "replicate",
            TraceEvent::ShardDown { .. } => "shard_down",
            TraceEvent::SessionReroute { .. } => "session_reroute",
        }
    }
}

/// Bounded virtual-time event journal with flight-recorder semantics:
/// once full, the oldest event is overwritten, so the buffer always
/// holds the most recent `capacity` events.
///
/// The buffer is pre-sized at construction; [`FlightRecorder::record`]
/// on the steady state is a branch plus a `Copy` store and performs no
/// heap allocation (proved by `tests/kernel_alloc.rs`). A disabled
/// recorder ([`TraceConfig::disabled`]) reduces `record` to one
/// predictable branch.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    /// Overwrite cursor once the buffer is saturated: index of the
    /// *oldest* retained event.
    head: usize,
    /// Total events offered (recorded + overwritten).
    offered: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder for one run; allocates the full buffer up front when
    /// the config is enabled, nothing otherwise.
    pub fn new(config: TraceConfig) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(config.capacity()),
            head: 0,
            offered: 0,
            capacity: config.capacity(),
        }
    }

    /// A recorder that drops everything (tracing off).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Journal capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered over the run, including overwritten ones.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events lost to ring-buffer overwrite.
    pub fn dropped(&self) -> u64 {
        self.offered - self.buf.len() as u64
    }

    /// Records one event. Steady state performs no heap allocation; a
    /// disabled recorder returns after one branch.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        self.offered += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Consumes the recorder into the journal a report carries.
    pub fn into_journal(self) -> TraceJournal {
        TraceJournal {
            events: self.events(),
            dropped: self.dropped(),
            capacity: self.capacity,
        }
    }
}

/// The captured event journal of one run, oldest event first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceJournal {
    /// Retained events in virtual-time order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overwrite (0 unless the run outgrew
    /// the configured capacity).
    pub dropped: u64,
    /// The capacity the run was traced with (0 = tracing was off).
    pub capacity: usize,
}

/// Number of sub-buckets per power-of-two octave in
/// [`LatencyHistogram`]: the bucket layout is fixed at compile time, so
/// histograms from different runs always merge and compare.
pub const HIST_SUB_BUCKETS: usize = 16;
/// Octaves covered: values in `[1 µs, 2^40 µs)` land in a log-linear
/// bucket; below is one underflow bucket, above one overflow bucket.
const HIST_OCTAVES: usize = 40;
const HIST_BUCKETS: usize = 1 + HIST_OCTAVES * HIST_SUB_BUCKETS + 1;

/// Streaming fixed-bucket log-linear latency histogram (µs).
///
/// Replaces store-every-sample latency vectors in [`ServeMetrics`]:
/// memory is a fixed 642-bucket array regardless of sample count, and
/// [`LatencyHistogram::record`] is O(1) with no allocation. Count, sum
/// (→ mean), and max are tracked exactly; quantiles come from the
/// containing bucket's **upper** bound (clamped to the exact max), so a
/// reported quantile **never underestimates** the exact nearest-rank
/// sample and overestimates it by at most
/// [`LatencyHistogram::RELATIVE_ERROR_BOUND`] (plus an absolute 1 µs for
/// sub-µs samples, which share one underflow bucket).
///
/// Bucket indexing is pure bit arithmetic on the IEEE-754 exponent and
/// top mantissa bits — no `log2`, so results are deterministic across
/// platforms. Non-finite or negative samples are counted (in the
/// underflow/overflow buckets) without poisoning the exact sum, so a NaN
/// can never panic or corrupt the metrics path.
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Worst-case relative overestimate of a quantile for samples ≥ 1 µs:
    /// one bucket width over the bucket's lower edge, `1/HIST_SUB_BUCKETS`.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / HIST_SUB_BUCKETS as f64;

    /// An empty histogram (one fixed-size allocation).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum_us: 0.0,
            max_us: 0.0,
        }
    }

    /// Records one sample (µs). O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v_us: f64) {
        self.count += 1;
        if v_us.is_finite() {
            self.sum_us += v_us;
            if v_us > self.max_us {
                self.max_us = v_us;
            }
        }
        self.buckets[Self::bucket_index(v_us)] += 1;
    }

    /// Total samples recorded (non-finite samples included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the finite samples (µs).
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Exact mean of the finite samples (µs); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count > 0 {
            self.sum_us / self.count as f64
        } else {
            0.0
        }
    }

    /// Exact maximum finite sample (µs); 0 when empty.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Nearest-rank quantile from the bucket boundaries: the upper bound
    /// of the bucket containing the rank-`⌈q·count⌉` sample, clamped to
    /// the exact max. Never underestimates the exact nearest-rank value;
    /// overestimates by ≤ [`Self::RELATIVE_ERROR_BOUND`] relative (for
    /// samples ≥ 1 µs).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile rank {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The standard summary derived from the histogram: count, exact
    /// mean and max, bucket-bound p50/p95/p99/p99.9.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count as usize,
            mean_us: self.mean_us(),
            p50_us: self.quantile(0.50),
            p95_us: self.quantile(0.95),
            p99_us: self.quantile(0.99),
            p999_us: self.quantile(0.999),
            max_us: self.max_us,
        }
    }

    /// Merges another histogram into this one (bucket layouts are fixed,
    /// so merging is element-wise).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if other.max_us > self.max_us {
            self.max_us = other.max_us;
        }
    }

    /// Cumulative non-empty buckets as `(upper_bound_us, cumulative
    /// count)`, ending with `(∞, count)` — the Prometheus histogram
    /// exposition shape.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                seen += n;
                out.push((Self::bucket_upper_us(i), seen));
            }
        }
        if out.last().is_none_or(|&(le, _)| le.is_finite()) {
            out.push((f64::INFINITY, self.count));
        }
        out
    }

    /// Bucket index for a sample: 0 for anything below 1 µs (or
    /// non-orderable), the last bucket for ≥ 2^40 µs (or +∞), otherwise
    /// log-linear from the IEEE-754 exponent and top mantissa bits.
    #[inline]
    fn bucket_index(v_us: f64) -> usize {
        if v_us.is_nan() || v_us < 1.0 {
            // NaN, negative, and sub-µs samples share the underflow
            // bucket.
            return 0;
        }
        let bits = v_us.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if exp >= HIST_OCTAVES as i64 {
            return HIST_BUCKETS - 1;
        }
        let sub = ((bits >> 48) & 0xf) as usize;
        1 + exp as usize * HIST_SUB_BUCKETS + sub
    }

    /// Upper (inclusive-reporting) bound of a bucket in µs.
    fn bucket_upper_us(index: usize) -> f64 {
        if index == 0 {
            return 1.0;
        }
        if index == HIST_BUCKETS - 1 {
            return f64::INFINITY;
        }
        let i = index - 1;
        let exp = (i / HIST_SUB_BUCKETS) as i32;
        let sub = (i % HIST_SUB_BUCKETS) as f64;
        f64::powi(2.0, exp) * (1.0 + (sub + 1.0) / HIST_SUB_BUCKETS as f64)
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 642 raw buckets would drown assertion diffs; show the summary
        // plus the non-empty buckets only.
        let nonzero: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("sum_us", &self.sum_us)
            .field("max_us", &self.max_us)
            .field("nonzero_buckets", &nonzero)
            .finish()
    }
}

/// Where one (device, model) pair's virtual time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Requests served through this cell.
    pub requests: u64,
    /// Batches dispatched through this cell.
    pub batches: u64,
    /// Total queue wait across member requests, arrival → device start
    /// (µs).
    pub queue_us: f64,
    /// Weight-image streaming stalls charged to this cell (µs).
    pub load_us: f64,
    /// Session-state reload stalls charged to this cell (µs) — the cost
    /// of resuming a streaming session whose recurrent state was evicted
    /// between chunks.
    pub state_us: f64,
    /// Device compute occupancy, load stalls excluded (µs).
    pub compute_us: f64,
    /// Padding waste: the padded frames' worth of steady-state frame
    /// time the batch shape implies — the cost
    /// [`PaddingModel`](crate::sched::PaddingModel) gates on (µs).
    pub padding_us: f64,
    /// Occupancy wasted by fault-aborted batches: the device burned
    /// these cycles but no request completed (µs). Not part of
    /// [`Self::busy_us`], which attributes *productive* occupancy only.
    pub aborted_us: f64,
}

impl StageBreakdown {
    /// Device occupancy attributed to this cell: weight-load stalls +
    /// state-load stalls + compute.
    pub fn busy_us(&self) -> f64 {
        self.load_us + self.state_us + self.compute_us
    }
}

/// Per-(device, model) stage-time attribution for one run.
///
/// Charged once per dispatched batch; after a cell's first batch
/// (warmup), further charges mutate the existing entry without
/// allocating.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageAttribution {
    cells: BTreeMap<(usize, usize), StageBreakdown>,
}

impl StageAttribution {
    /// An empty attribution table.
    pub fn new() -> Self {
        StageAttribution::default()
    }

    /// Adds one batch's stage times to the `(device, model)` cell.
    pub fn charge(&mut self, device: usize, model: usize, delta: StageBreakdown) {
        let cell = self.cells.entry((device, model)).or_default();
        cell.requests += delta.requests;
        cell.batches += delta.batches;
        cell.queue_us += delta.queue_us;
        cell.load_us += delta.load_us;
        cell.state_us += delta.state_us;
        cell.compute_us += delta.compute_us;
        cell.padding_us += delta.padding_us;
        cell.aborted_us += delta.aborted_us;
    }

    /// The accumulated breakdown for a cell (zeroes if it never served).
    pub fn get(&self, device: usize, model: usize) -> StageBreakdown {
        self.cells
            .get(&(device, model))
            .copied()
            .unwrap_or_default()
    }

    /// Iterates cells as `(device, model, breakdown)`, ordered by device
    /// then model.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &StageBreakdown)> {
        self.cells.iter().map(|(&(d, m), b)| (d, m, b))
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether any cell was charged.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Everything observability captured for one run: the event journal plus
/// the stage-time attribution table. Carried on
/// [`SchedReport`](crate::sched::SchedReport); derived `PartialEq` is
/// what the executor bit-identity assertions compare.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunTrace {
    /// The captured event journal (empty when tracing was disabled).
    pub journal: TraceJournal,
    /// Per-(device, model) stage-time totals (always collected — the
    /// cost is one table update per batch).
    pub attribution: StageAttribution,
}

/// The event-loop side of observability: owns one run's recorder and
/// attribution table and translates lifecycle moments into
/// [`TraceEvent`]s, so the scheduler and the cluster router emit one
/// event vocabulary from one code path.
pub(crate) struct Observer {
    recorder: FlightRecorder,
    attribution: StageAttribution,
}

impl Observer {
    pub(crate) fn new(config: TraceConfig) -> Self {
        Observer {
            recorder: FlightRecorder::new(config),
            attribution: StageAttribution::new(),
        }
    }

    /// An arrival passed admission control.
    #[inline]
    pub(crate) fn admitted(&mut self, t_us: f64, request: &Request, predicted_us: f64) {
        self.recorder.record(TraceEvent::Admit {
            t_us,
            id: request.id,
            model: request.model,
            predicted_us,
        });
    }

    /// An arrival was shed by admission control.
    #[inline]
    pub(crate) fn shed(&mut self, t_us: f64, request: &Request, predicted_us: f64) {
        self.recorder.record(TraceEvent::Shed {
            t_us,
            id: request.id,
            model: request.model,
            predicted_us,
            deadline_us: request.deadline_us.unwrap_or(f64::INFINITY),
        });
    }

    /// A request entered the queue at the given resulting depth.
    #[inline]
    pub(crate) fn enqueued(&mut self, t_us: f64, request: &Request, depth: usize) {
        self.recorder.record(TraceEvent::Enqueue {
            t_us,
            id: request.id,
            model: request.model,
            depth,
        });
    }

    /// A cold weight image is streaming onto `device` starting at
    /// `start_us`; translates the stall into device cycles via the
    /// [`Device::cycles_for_us`] hook.
    #[inline]
    pub(crate) fn residency_load(
        &mut self,
        start_us: f64,
        device: usize,
        model: usize,
        load_us: f64,
        evicted: usize,
    ) {
        self.recorder.record(TraceEvent::ResidencyLoad {
            t_us: start_us,
            device,
            model,
            load_us,
            stall_cycles: Device::cycles_for_us(load_us),
            evicted,
        });
    }

    /// A session's evicted recurrent state is streaming back onto
    /// `device` starting at `start_us`.
    #[inline]
    pub(crate) fn session_state_load(
        &mut self,
        start_us: f64,
        device: usize,
        session: u64,
        load_us: f64,
        evicted: usize,
    ) {
        self.recorder.record(TraceEvent::SessionStateLoad {
            t_us: start_us,
            device,
            session,
            load_us,
            stall_cycles: Device::cycles_for_us(load_us),
            evicted,
        });
    }

    /// A formed batch landed on a device: records per-member dequeues,
    /// the batch-formation and dispatch events, and charges the
    /// (device, model) attribution cell — queue wait from arrivals,
    /// weight-load/state-load/compute split of the device occupancy, and
    /// padding waste at the model's steady-state frame time (`ii_cycles`
    /// per frame).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn batch_dispatched(
        &mut self,
        t_us: f64,
        model: usize,
        batch: &[Request],
        frame_counts: &[u64],
        exec: &BatchExecution,
        load_us: f64,
        state_us: f64,
        ii_cycles: u64,
    ) {
        let size = batch.len();
        let max_frames = frame_counts.iter().copied().max().unwrap_or(0);
        let total_frames: u64 = frame_counts.iter().sum();
        let mut queue_us = 0.0;
        for r in batch {
            self.recorder.record(TraceEvent::Dequeue {
                t_us,
                id: r.id,
                model: r.model,
                queued_us: t_us - r.arrival_us,
            });
            queue_us += exec.start_us - r.arrival_us;
        }
        self.recorder.record(TraceEvent::BatchFormed {
            t_us,
            model,
            size,
            max_frames,
            total_frames,
        });
        self.recorder.record(TraceEvent::Dispatch {
            t_us,
            device: exec.device,
            model,
            size,
            start_us: exec.start_us,
            busy_us: exec.free_us - exec.start_us,
        });
        let padded_frames = size as u64 * max_frames - total_frames;
        self.attribution.charge(
            exec.device,
            model,
            StageBreakdown {
                requests: size as u64,
                batches: 1,
                queue_us,
                load_us,
                state_us,
                compute_us: exec.free_us - exec.start_us - load_us - state_us,
                padding_us: padded_frames as f64 * ii_cycles as f64 * Device::clock_period_us(),
                aborted_us: 0.0,
            },
        );
    }

    /// A fault aborted a forming batch after it had occupied the device
    /// for `aborted_us`: the waste is attributed to the cell, but no
    /// requests, batches, or productive stage time are counted.
    pub(crate) fn batch_aborted(&mut self, device: usize, model: usize, aborted_us: f64) {
        self.attribution.charge(
            device,
            model,
            StageBreakdown {
                aborted_us,
                ..StageBreakdown::default()
            },
        );
    }

    /// A device crashed at `t_us` and stays down for `down_us`.
    #[inline]
    pub(crate) fn device_down(&mut self, t_us: f64, device: usize, down_us: f64) {
        self.recorder.record(TraceEvent::DeviceDown {
            t_us,
            device,
            down_us,
        });
    }

    /// A crashed device recovered at `t_us`.
    #[inline]
    pub(crate) fn device_up(&mut self, t_us: f64, device: usize) {
        self.recorder.record(TraceEvent::DeviceUp { t_us, device });
    }

    /// A request's batch aborted at `t_us`; it retries at `retry_at_us`.
    #[inline]
    pub(crate) fn retry_scheduled(
        &mut self,
        t_us: f64,
        id: u64,
        device: usize,
        attempt: u32,
        retry_at_us: f64,
    ) {
        self.recorder.record(TraceEvent::RetryScheduled {
            t_us,
            id,
            device,
            attempt,
            retry_at_us,
        });
    }

    /// A retried request re-placed onto a surviving device.
    #[inline]
    pub(crate) fn failover(&mut self, t_us: f64, id: u64, from_device: usize, to_device: usize) {
        self.recorder.record(TraceEvent::Failover {
            t_us,
            id,
            from_device,
            to_device,
        });
    }

    /// A streaming session re-pinned from `from_device` to `to_device`.
    #[inline]
    pub(crate) fn state_migration(
        &mut self,
        t_us: f64,
        session: u64,
        from_device: usize,
        to_device: usize,
        reload_us: f64,
    ) {
        self.recorder.record(TraceEvent::StateMigration {
            t_us,
            session,
            from_device,
            to_device,
            reload_us,
        });
    }

    /// A health rule fired; mirrors the [`HealthEvent`] into the journal
    /// so alerts land inline with the lifecycle events that caused them.
    #[inline]
    pub(crate) fn health(&mut self, event: &HealthEvent) {
        self.recorder.record(TraceEvent::Health {
            t_us: event.t_us,
            rule: event.rule,
            device: event.device,
            value: event.value,
            threshold: event.threshold,
        });
    }

    /// A served response's frames finished streaming through its device.
    /// Shed responses carry no device and never complete, so they record
    /// nothing here (the [`TraceEvent::Shed`] event already covers them).
    #[inline]
    pub(crate) fn completed(&mut self, r: &Response) {
        let Some(device) = r.device else { return };
        self.recorder.record(TraceEvent::Complete {
            t_us: r.complete_us,
            id: r.id,
            device,
            model: r.model,
            arrival_us: r.arrival_us,
            dispatch_us: r.dispatch_us,
            deadline_met: r.deadline_met,
        });
    }

    /// The cluster router forwarded a request to a shard.
    #[inline]
    pub(crate) fn forwarded(
        &mut self,
        t_us: f64,
        id: u64,
        model: usize,
        shard: usize,
        transfer_us: f64,
    ) {
        self.recorder.record(TraceEvent::Forward {
            t_us,
            id,
            model,
            shard,
            transfer_us,
        });
    }

    /// A model artifact finished replicating onto `to_shard` at `t_us`.
    #[inline]
    pub(crate) fn replicated(
        &mut self,
        t_us: f64,
        model: usize,
        from_shard: usize,
        to_shard: usize,
        bytes: u64,
        transfer_us: f64,
    ) {
        self.recorder.record(TraceEvent::Replicate {
            t_us,
            model,
            from_shard,
            to_shard,
            bytes,
            transfer_us,
        });
    }

    /// A shard was killed, reclaiming `reclaimed` backlog requests.
    #[inline]
    pub(crate) fn shard_down(&mut self, t_us: f64, shard: usize, reclaimed: usize) {
        self.recorder.record(TraceEvent::ShardDown {
            t_us,
            shard,
            reclaimed,
        });
    }

    /// A streaming session re-pinned from a dead shard to a survivor.
    #[inline]
    pub(crate) fn session_reroute(
        &mut self,
        t_us: f64,
        session: u64,
        from_shard: usize,
        to_shard: usize,
    ) {
        self.recorder.record(TraceEvent::SessionReroute {
            t_us,
            session,
            from_shard,
            to_shard,
        });
    }

    /// Finalizes the capture into the report-carried [`RunTrace`].
    pub(crate) fn into_trace(self) -> RunTrace {
        RunTrace {
            journal: self.recorder.into_journal(),
            attribution: self.attribution,
        }
    }
}

/// Formats a float the way both exporters need it: shortest-round-trip
/// via `Display`, which is deterministic for a given bit pattern.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders a [`RunTrace`] as a Chrome trace-event JSON document, loadable
/// in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Layout: process 0 is the scheduler (one track per model: queue spans
/// and request spans), process 1 is the device pool (one track per
/// device: batch and weight-load spans). Timestamps are virtual
/// microseconds, so the rendering is byte-identical across executors
/// whenever the journals are.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    let mut models: Vec<usize> = Vec::new();
    let mut devices: Vec<usize> = Vec::new();
    let mut shards: Vec<usize> = Vec::new();
    let note = |list: &mut Vec<usize>, v: usize| {
        if !list.contains(&v) {
            list.push(v);
        }
    };
    for e in &trace.journal.events {
        match *e {
            TraceEvent::Admit { model, .. }
            | TraceEvent::Shed { model, .. }
            | TraceEvent::Enqueue { model, .. }
            | TraceEvent::Dequeue { model, .. }
            | TraceEvent::BatchFormed { model, .. } => note(&mut models, model),
            TraceEvent::ResidencyLoad { device, model, .. }
            | TraceEvent::Dispatch { device, model, .. }
            | TraceEvent::Complete { device, model, .. } => {
                note(&mut models, model);
                note(&mut devices, device);
            }
            TraceEvent::SessionStateLoad { device, .. }
            | TraceEvent::DeviceDown { device, .. }
            | TraceEvent::DeviceUp { device, .. }
            | TraceEvent::RetryScheduled { device, .. } => note(&mut devices, device),
            TraceEvent::Failover {
                from_device,
                to_device,
                ..
            }
            | TraceEvent::StateMigration {
                from_device,
                to_device,
                ..
            } => {
                note(&mut devices, from_device);
                note(&mut devices, to_device);
            }
            TraceEvent::Health { device, .. } => {
                if let Some(d) = device {
                    note(&mut devices, d);
                }
            }
            TraceEvent::Forward { shard, .. } | TraceEvent::ShardDown { shard, .. } => {
                note(&mut shards, shard)
            }
            TraceEvent::Replicate {
                from_shard,
                to_shard,
                ..
            }
            | TraceEvent::SessionReroute {
                from_shard,
                to_shard,
                ..
            } => {
                note(&mut shards, from_shard);
                note(&mut shards, to_shard);
            }
        }
    }
    models.sort_unstable();
    devices.sort_unstable();
    shards.sort_unstable();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };

    // Metadata: name the two processes and their tracks.
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"scheduler\"}}"
            .to_string(),
    );
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"devices\"}}"
            .to_string(),
    );
    for &m in &models {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{m},\
                 \"args\":{{\"name\":\"model {m}\"}}}}"
            ),
        );
    }
    for &d in &devices {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{d},\
                 \"args\":{{\"name\":\"device {d}\"}}}}"
            ),
        );
    }
    // Process 2 appears only in cluster-router journals: one track per
    // shard for forwards, replication, kills and session reroutes.
    if !shards.is_empty() {
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"cluster\"}}"
                .to_string(),
        );
        for &s in &shards {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{s},\
                     \"args\":{{\"name\":\"shard {s}\"}}}}"
                ),
            );
        }
    }

    for e in &trace.journal.events {
        let ev = match *e {
            TraceEvent::Admit {
                t_us,
                id,
                model,
                predicted_us,
            } => format!(
                "{{\"name\":\"admit\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"predicted_us\":{}}}}}",
                num(t_us),
                num(predicted_us)
            ),
            TraceEvent::Shed {
                t_us,
                id,
                model,
                predicted_us,
                deadline_us,
            } => format!(
                "{{\"name\":\"shed\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"predicted_us\":{},\"deadline_us\":{}}}}}",
                num(t_us),
                num(predicted_us),
                num(deadline_us)
            ),
            TraceEvent::Enqueue {
                t_us,
                id,
                model,
                depth,
            } => format!(
                "{{\"name\":\"enqueue\",\"cat\":\"queue\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"depth\":{depth}}}}}",
                num(t_us)
            ),
            TraceEvent::Dequeue {
                t_us,
                id,
                model,
                queued_us,
            } => format!(
                // The queue wait rendered as a span ending at dequeue.
                "{{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id}}}}}",
                num(t_us - queued_us),
                num(queued_us)
            ),
            TraceEvent::BatchFormed {
                t_us,
                model,
                size,
                max_frames,
                total_frames,
            } => format!(
                "{{\"name\":\"batch_formed\",\"cat\":\"batch\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"size\":{size},\"max_frames\":{max_frames},\
                 \"padded_frames\":{}}}}}",
                num(t_us),
                size as u64 * max_frames - total_frames
            ),
            TraceEvent::ResidencyLoad {
                t_us,
                device,
                model,
                load_us,
                stall_cycles,
                evicted,
            } => format!(
                "{{\"name\":\"load model {model}\",\"cat\":\"residency\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"stall_cycles\":{stall_cycles},\"evicted\":{evicted}}}}}",
                num(t_us),
                num(load_us)
            ),
            TraceEvent::SessionStateLoad {
                t_us,
                device,
                session,
                load_us,
                stall_cycles,
                evicted,
            } => format!(
                "{{\"name\":\"state session {session}\",\"cat\":\"residency\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"stall_cycles\":{stall_cycles},\"evicted\":{evicted}}}}}",
                num(t_us),
                num(load_us)
            ),
            TraceEvent::Dispatch {
                t_us: _,
                device,
                model,
                size,
                start_us,
                busy_us,
            } => format!(
                "{{\"name\":\"batch model {model} ×{size}\",\"cat\":\"device\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"model\":{model},\"size\":{size}}}}}",
                num(start_us),
                num(busy_us)
            ),
            TraceEvent::Complete {
                t_us,
                id,
                device,
                model,
                arrival_us,
                dispatch_us: _,
                deadline_met,
            } => format!(
                "{{\"name\":\"request {id}\",\"cat\":\"request\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"device\":{device},\"deadline_met\":{deadline_met}}}}}",
                num(arrival_us),
                num(t_us - arrival_us)
            ),
            TraceEvent::DeviceDown {
                t_us,
                device,
                down_us,
            } => format!(
                // A permanent crash (infinite down_us) renders with
                // dur 0 via num(); the instant marker still shows it.
                "{{\"name\":\"down\",\"cat\":\"fault\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"down_us\":{}}}}}",
                num(t_us),
                num(down_us),
                num(down_us)
            ),
            TraceEvent::DeviceUp { t_us, device } => format!(
                "{{\"name\":\"up\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{device},\"args\":{{}}}}",
                num(t_us)
            ),
            TraceEvent::RetryScheduled {
                t_us,
                id,
                device,
                attempt,
                retry_at_us,
            } => format!(
                "{{\"name\":\"retry {id}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"id\":{id},\"attempt\":{attempt},\"retry_at_us\":{}}}}}",
                num(t_us),
                num(retry_at_us)
            ),
            TraceEvent::Failover {
                t_us,
                id,
                from_device,
                to_device,
            } => format!(
                "{{\"name\":\"failover {id}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{to_device},\
                 \"args\":{{\"id\":{id},\"from_device\":{from_device}}}}}",
                num(t_us)
            ),
            TraceEvent::StateMigration {
                t_us,
                session,
                from_device,
                to_device,
                reload_us,
            } => format!(
                "{{\"name\":\"migrate session {session}\",\"cat\":\"fault\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{to_device},\
                 \"args\":{{\"session\":{session},\"from_device\":{from_device},\
                 \"reload_us\":{}}}}}",
                num(t_us),
                num(reload_us)
            ),
            TraceEvent::Health {
                t_us,
                rule,
                device,
                value,
                threshold,
            } => {
                // Per-device rules land on the device track; run-wide
                // rules land on the scheduler process.
                let (pid, tid) = match device {
                    Some(d) => (1, d),
                    None => (0, 0),
                };
                format!(
                    "{{\"name\":\"health {}\",\"cat\":\"health\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"value\":{},\"threshold\":{}}}}}",
                    rule.label(),
                    num(t_us),
                    num(value),
                    num(threshold)
                )
            }
            TraceEvent::Forward {
                t_us,
                id,
                model,
                shard,
                transfer_us,
            } => format!(
                "{{\"name\":\"forward {id}\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":2,\"tid\":{shard},\
                 \"args\":{{\"id\":{id},\"model\":{model},\"transfer_us\":{}}}}}",
                num(t_us),
                num(transfer_us)
            ),
            TraceEvent::Replicate {
                t_us,
                model,
                from_shard,
                to_shard,
                bytes,
                transfer_us,
            } => format!(
                // The wire time rendered as a span ending when the
                // replica becomes servable.
                "{{\"name\":\"replicate model {model}\",\"cat\":\"cluster\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{to_shard},\
                 \"args\":{{\"model\":{model},\"from_shard\":{from_shard},\"bytes\":{bytes}}}}}",
                num(t_us - transfer_us),
                num(transfer_us)
            ),
            TraceEvent::ShardDown {
                t_us,
                shard,
                reclaimed,
            } => format!(
                "{{\"name\":\"shard down\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":2,\"tid\":{shard},\
                 \"args\":{{\"reclaimed\":{reclaimed}}}}}",
                num(t_us)
            ),
            TraceEvent::SessionReroute {
                t_us,
                session,
                from_shard,
                to_shard,
            } => format!(
                "{{\"name\":\"reroute session {session}\",\"cat\":\"cluster\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{},\"pid\":2,\"tid\":{to_shard},\
                 \"args\":{{\"session\":{session},\"from_shard\":{from_shard}}}}}",
                num(t_us)
            ),
        };
        push(&mut out, ev);
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"dropped_events\":{},\"capacity\":{}}}}}",
        trace.journal.dropped, trace.journal.capacity
    );
    out
}

/// Renders run metrics plus attribution as a Prometheus text-exposition
/// snapshot (counters, two histograms, per-cell stage gauges).
///
/// Equivalent to [`prometheus_snapshot_full`] with no scheduler stats,
/// timeline, health report, or shard gauges.
pub fn prometheus_snapshot(metrics: &ServeMetrics, trace: &RunTrace) -> String {
    prometheus_snapshot_full(metrics, trace, None, None, None, None)
}

/// Per-shard point-in-time gauges for the cluster-scope Prometheus
/// export: one row per shard in a
/// [`ClusterReport`](crate::cluster::ClusterReport), rendered by
/// [`prometheus_snapshot_full`] as `ernn_shard_*` gauge families with a
/// `shard` label.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardGauges {
    /// Shard index.
    pub shard: usize,
    /// End-of-run queue-delay EWMA (µs) — the load-feedback signal the
    /// router steered on.
    pub ewma_queue_us: f64,
    /// Bytes resident across the shard's devices (weight +
    /// session-state images).
    pub resident_bytes: u64,
    /// Streaming sessions live on the shard at end of run.
    pub live_sessions: usize,
}

/// The full Prometheus snapshot: everything [`prometheus_snapshot`]
/// renders, plus (when given) the scheduler's
/// [`SchedStats`] counters — residency,
/// session-state, fault, retry, failover, and migration activity — the
/// newest [`Timeline`] sample as point-in-time
/// gauges with the queue-delay EWMA, the
/// [`HealthReport`] rule-firing counters, and the cluster tier's
/// per-shard [`ShardGauges`].
pub fn prometheus_snapshot_full(
    metrics: &ServeMetrics,
    trace: &RunTrace,
    sched: Option<&SchedStats>,
    timeline: Option<&Timeline>,
    health: Option<&HealthReport>,
    shards: Option<&[ShardGauges]>,
) -> String {
    let mut out = String::new();
    let counter = |out: &mut String, name: &str, help: &str, v: String| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    };
    counter(
        &mut out,
        "ernn_requests_completed_total",
        "Requests served to completion.",
        metrics.completed.to_string(),
    );
    counter(
        &mut out,
        "ernn_requests_shed_total",
        "Requests rejected by admission control.",
        metrics.shed.to_string(),
    );
    counter(
        &mut out,
        "ernn_trace_events_total",
        "Trace events offered to the flight recorder.",
        (trace.journal.events.len() as u64 + trace.journal.dropped).to_string(),
    );
    counter(
        &mut out,
        "ernn_trace_events_dropped_total",
        "Trace events lost to ring-buffer overwrite.",
        trace.journal.dropped.to_string(),
    );

    for (name, help, hist) in [
        (
            "ernn_latency_us",
            "End-to-end request latency (virtual µs).",
            &metrics.latency_hist,
        ),
        (
            "ernn_queue_us",
            "Queueing delay, arrival to device start (virtual µs).",
            &metrics.queue_hist,
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (le, cum) in hist.cumulative_buckets() {
            let le = if le.is_finite() {
                format!("{le}")
            } else {
                "+Inf".to_string()
            };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_sum {}", num(hist.sum_us()));
        let _ = writeln!(out, "{name}_count {}", hist.count());
    }

    let _ = writeln!(
        out,
        "# HELP ernn_stage_us Virtual time attributed per (device, model, stage)."
    );
    let _ = writeln!(out, "# TYPE ernn_stage_us gauge");
    for (device, model, cell) in trace.attribution.iter() {
        for (stage, v) in [
            ("queue", cell.queue_us),
            ("load", cell.load_us),
            ("state", cell.state_us),
            ("compute", cell.compute_us),
            ("padding", cell.padding_us),
            ("aborted", cell.aborted_us),
        ] {
            let _ = writeln!(
                out,
                "ernn_stage_us{{device=\"{device}\",model=\"{model}\",stage=\"{stage}\"}} {}",
                num(v)
            );
        }
    }
    for (device, model, cell) in trace.attribution.iter() {
        let _ = writeln!(
            out,
            "ernn_stage_requests_total{{device=\"{device}\",model=\"{model}\"}} {}",
            cell.requests
        );
    }

    if let Some(s) = sched {
        for (name, help, v) in [
            (
                "ernn_sched_admitted_total",
                "Arrivals admitted into the scheduler queue.",
                s.admitted as u64,
            ),
            (
                "ernn_sched_shed_total",
                "Arrivals shed by admission control.",
                s.shed as u64,
            ),
            (
                "ernn_sched_model_loads_total",
                "Cold weight-image loads (residency misses).",
                s.model_loads,
            ),
            (
                "ernn_sched_model_evictions_total",
                "Weight images evicted from device BRAM.",
                s.model_evictions,
            ),
            (
                "ernn_sched_degraded_batches_total",
                "Batches capped by overload degradation.",
                s.degraded_batches,
            ),
            (
                "ernn_sched_state_loads_total",
                "Session-state reloads after eviction.",
                s.state_loads,
            ),
            (
                "ernn_sched_state_evictions_total",
                "Session-state images evicted from device BRAM.",
                s.state_evictions,
            ),
            (
                "ernn_sched_device_crashes_total",
                "Device crash faults applied.",
                s.device_crashes,
            ),
            (
                "ernn_sched_device_brownouts_total",
                "Device brownout faults applied.",
                s.device_brownouts,
            ),
            (
                "ernn_sched_device_transients_total",
                "Transient device faults applied.",
                s.device_transients,
            ),
            (
                "ernn_sched_batches_aborted_total",
                "In-flight batches aborted by faults.",
                s.batches_aborted,
            ),
            (
                "ernn_sched_retries_scheduled_total",
                "Aborted requests re-queued with backoff.",
                s.retries_scheduled,
            ),
            (
                "ernn_sched_retries_exhausted_total",
                "Requests shed after exhausting their retry budget.",
                s.retries_exhausted,
            ),
            (
                "ernn_sched_failovers_total",
                "Retried requests re-placed onto a different device.",
                s.failovers,
            ),
            (
                "ernn_sched_state_migrations_total",
                "Pinned sessions re-pinned after a device crash.",
                s.state_migrations,
            ),
        ] {
            counter(&mut out, name, help, v.to_string());
        }
        for (name, help, v) in [
            (
                "ernn_sched_load_us_total",
                "Virtual time spent streaming weight images (µs).",
                s.load_us_total,
            ),
            (
                "ernn_sched_state_load_us_total",
                "Virtual time spent reloading session state (µs).",
                s.state_load_us_total,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", num(v));
        }
    }

    if let Some(t) = timeline {
        let gauge = |out: &mut String, name: &str, help: &str, v: String| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            &mut out,
            "ernn_timeline_samples_total",
            "Timeline samples emitted (retained + overwritten).",
            (t.samples.len() as u64 + t.dropped).to_string(),
        );
        counter(
            &mut out,
            "ernn_timeline_dropped_total",
            "Timeline samples lost to ring wraparound.",
            t.dropped.to_string(),
        );
        gauge(
            &mut out,
            "ernn_ewma_queue_delay_us",
            "EWMA of per-request queue delay (virtual µs) - the calibrated load signal.",
            num(t.ewma_queue_us),
        );
        if let Some(i) = t.samples.len().checked_sub(1) {
            let s = &t.samples[i];
            gauge(
                &mut out,
                "ernn_queue_depth",
                "Queued requests at the newest timeline sample.",
                s.queue_depth.to_string(),
            );
            gauge(
                &mut out,
                "ernn_oldest_wait_us",
                "Wait of the longest-queued request at the newest sample (virtual µs).",
                num(s.oldest_wait_us),
            );
            gauge(
                &mut out,
                "ernn_live_sessions",
                "Live streaming sessions at the newest sample.",
                s.live_sessions.to_string(),
            );
            let _ = writeln!(
                out,
                "# HELP ernn_residency_bytes Resident image bytes by class at the newest sample."
            );
            let _ = writeln!(out, "# TYPE ernn_residency_bytes gauge");
            let _ = writeln!(
                out,
                "ernn_residency_bytes{{class=\"weights\"}} {}",
                s.weights_bytes
            );
            let _ = writeln!(
                out,
                "ernn_residency_bytes{{class=\"state\"}} {}",
                s.state_bytes
            );
            let _ = writeln!(
                out,
                "# HELP ernn_device_utilization Per-device utilization over the newest interval."
            );
            let _ = writeln!(out, "# TYPE ernn_device_utilization gauge");
            for (d, u) in t.device_util_row(i).iter().enumerate() {
                let _ = writeln!(out, "ernn_device_utilization{{device=\"{d}\"}} {}", num(*u));
            }
        }
    }

    if let Some(h) = health {
        counter(
            &mut out,
            "ernn_health_events_total",
            "Health rule firings over the run.",
            (h.events.len() as u64 + h.dropped).to_string(),
        );
        counter(
            &mut out,
            "ernn_health_events_dropped_total",
            "Health rule firings lost past the event cap.",
            h.dropped.to_string(),
        );
        let _ = writeln!(out, "# HELP ernn_health_rule_fired_total Firings per rule.");
        let _ = writeln!(out, "# TYPE ernn_health_rule_fired_total counter");
        for rule in [
            HealthRuleKind::SloBurnRate,
            HealthRuleKind::DeviceStuck,
            HealthRuleKind::ResidencyThrash,
            HealthRuleKind::RetryStorm,
        ] {
            let _ = writeln!(
                out,
                "ernn_health_rule_fired_total{{rule=\"{}\"}} {}",
                rule.label(),
                h.count(rule)
            );
        }
    }

    if let Some(shards) = shards {
        let _ = writeln!(
            out,
            "# HELP ernn_shard_ewma_queue_delay_us Per-shard queue-delay EWMA, \
             the router's load-feedback signal."
        );
        let _ = writeln!(out, "# TYPE ernn_shard_ewma_queue_delay_us gauge");
        for g in shards {
            let _ = writeln!(
                out,
                "ernn_shard_ewma_queue_delay_us{{shard=\"{}\"}} {}",
                g.shard,
                num(g.ewma_queue_us)
            );
        }
        let _ = writeln!(
            out,
            "# HELP ernn_shard_resident_bytes Bytes resident across the shard's \
             devices (weight + session-state images)."
        );
        let _ = writeln!(out, "# TYPE ernn_shard_resident_bytes gauge");
        for g in shards {
            let _ = writeln!(
                out,
                "ernn_shard_resident_bytes{{shard=\"{}\"}} {}",
                g.shard, g.resident_bytes
            );
        }
        let _ = writeln!(
            out,
            "# HELP ernn_shard_live_sessions Streaming sessions live on the shard."
        );
        let _ = writeln!(out, "# TYPE ernn_shard_live_sessions gauge");
        for g in shards {
            let _ = writeln!(
                out,
                "ernn_shard_live_sessions{{shard=\"{}\"}} {}",
                g.shard, g.live_sessions
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent::Enqueue {
            t_us: t,
            id: t as u64,
            model: 0,
            depth: 1,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        for i in 0..100 {
            r.record(ev(i as f64));
        }
        assert!(r.is_empty());
        assert_eq!(r.offered(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.into_journal().events.is_empty());
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_events() {
        let mut r = FlightRecorder::new(TraceConfig::enabled(4));
        for i in 0..10 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.offered(), 10);
        assert_eq!(r.dropped(), 6);
        let times: Vec<f64> = r.events().iter().map(|e| e.t_us()).collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
        let journal = r.into_journal();
        assert_eq!(journal.dropped, 6);
        assert_eq!(journal.capacity, 4);
    }

    #[test]
    #[should_panic(expected = "nonzero capacity")]
    fn enabled_config_rejects_zero_capacity() {
        let _ = TraceConfig::enabled(0);
    }

    #[test]
    fn histogram_tracks_exact_count_mean_max() {
        let mut h = LatencyHistogram::new();
        for v in [2.0, 4.0, 10.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean_us() - 29.0).abs() < 1e-12);
        assert_eq!(h.max_us(), 100.0);
    }

    #[test]
    fn histogram_quantiles_never_underestimate() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 3.7).collect();
        let mut h = LatencyHistogram::new();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for &v in &samples {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            assert!(est >= exact - 1e-9, "q={q}: {est} < exact {exact}");
            assert!(
                est <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR_BOUND) + 1e-9,
                "q={q}: {est} overshoots exact {exact}"
            );
        }
    }

    #[test]
    fn histogram_swallows_hostile_samples() {
        let mut h = LatencyHistogram::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 0.5, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        // Only the finite samples reach the exact stats.
        assert_eq!(h.max_us(), 2.0);
        assert!(h.sum_us().is_finite());
        // Quantiles stay finite and ordered.
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let (mut a, mut b, mut c) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for i in 0..50 {
            let v = (i * 17 % 900) as f64 + 0.5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let mut h = LatencyHistogram::new();
        for i in 0..200 {
            h.record((i % 37) as f64 + 0.25);
        }
        let buckets = h.cumulative_buckets();
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.last().unwrap().1, 200);
        assert!(buckets.last().unwrap().0.is_infinite());
    }

    #[test]
    fn attribution_accumulates_per_cell() {
        let mut a = StageAttribution::new();
        let delta = StageBreakdown {
            requests: 2,
            batches: 1,
            queue_us: 3.0,
            load_us: 1.0,
            state_us: 0.5,
            compute_us: 5.0,
            padding_us: 0.5,
            aborted_us: 0.25,
        };
        a.charge(0, 1, delta);
        a.charge(0, 1, delta);
        a.charge(1, 0, delta);
        assert_eq!(a.len(), 2);
        let cell = a.get(0, 1);
        assert_eq!(cell.requests, 4);
        assert_eq!(cell.batches, 2);
        assert!((cell.queue_us - 6.0).abs() < 1e-12);
        // busy_us counts productive occupancy only: aborted time is
        // tracked separately.
        assert!((cell.busy_us() - 13.0).abs() < 1e-12);
        assert!((cell.aborted_us - 0.5).abs() < 1e-12);
        assert_eq!(a.get(3, 3), StageBreakdown::default());
        let cells: Vec<(usize, usize)> = a.iter().map(|(d, m, _)| (d, m)).collect();
        assert_eq!(cells, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn chrome_export_is_structurally_sound() {
        let mut r = FlightRecorder::new(TraceConfig::enabled(64));
        r.record(TraceEvent::Admit {
            t_us: 0.0,
            id: 7,
            model: 1,
            predicted_us: 12.5,
        });
        r.record(TraceEvent::Dequeue {
            t_us: 4.0,
            id: 7,
            model: 1,
            queued_us: 4.0,
        });
        r.record(TraceEvent::ResidencyLoad {
            t_us: 4.0,
            device: 0,
            model: 1,
            load_us: 2.0,
            stall_cycles: 400,
            evicted: 1,
        });
        r.record(TraceEvent::Dispatch {
            t_us: 4.0,
            device: 0,
            model: 1,
            size: 1,
            start_us: 4.0,
            busy_us: 8.0,
        });
        r.record(TraceEvent::Complete {
            t_us: 12.0,
            id: 7,
            device: 0,
            model: 1,
            arrival_us: 0.0,
            dispatch_us: 4.0,
            deadline_met: true,
        });
        r.record(TraceEvent::DeviceDown {
            t_us: 14.0,
            device: 0,
            down_us: f64::INFINITY,
        });
        r.record(TraceEvent::DeviceUp {
            t_us: 20.0,
            device: 2,
        });
        r.record(TraceEvent::RetryScheduled {
            t_us: 14.0,
            id: 8,
            device: 0,
            attempt: 1,
            retry_at_us: 14.5,
        });
        r.record(TraceEvent::Failover {
            t_us: 15.0,
            id: 8,
            from_device: 0,
            to_device: 2,
        });
        r.record(TraceEvent::StateMigration {
            t_us: 15.0,
            session: 3,
            from_device: 0,
            to_device: 2,
            reload_us: 0.75,
        });
        r.record(TraceEvent::Health {
            t_us: 16.0,
            rule: HealthRuleKind::SloBurnRate,
            device: None,
            value: 7.5,
            threshold: 5.0,
        });
        r.record(TraceEvent::Health {
            t_us: 17.0,
            rule: HealthRuleKind::DeviceStuck,
            device: Some(2),
            value: 8.0,
            threshold: 8.0,
        });
        let mut trace = RunTrace {
            journal: r.into_journal(),
            attribution: StageAttribution::new(),
        };
        trace.attribution.charge(0, 1, StageBreakdown::default());
        let doc = chrome_trace_json(&trace);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with('}'));
        // Braces and brackets balance (no string in the doc contains
        // them, so plain counting is sound).
        let depth = doc.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON nesting");
        for needle in [
            "\"admit\"",
            "\"queued\"",
            "\"load model 1\"",
            "\"batch model 1 ×1\"",
            "\"request 7\"",
            "\"process_name\"",
            "\"dropped_events\":0",
            "\"down\"",
            "\"up\"",
            "\"retry 8\"",
            "\"failover 8\"",
            "\"migrate session 3\"",
            "\"health slo_burn_rate\"",
            "\"health device_stuck\"",
            // The permanent crash's infinite down_us renders as 0, not
            // as bare `inf` (invalid JSON).
            "\"down_us\":0",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn prometheus_export_has_counters_histograms_and_stages() {
        use crate::request::{Response, Workload};
        let responses = vec![Response::served(
            0,
            0,
            Workload::Utterance,
            0.0,
            1.0,
            5.0,
            0,
            1,
            None,
        )];
        let metrics = ServeMetrics::compute(&responses, vec![4.0]);
        let mut trace = RunTrace::default();
        trace.attribution.charge(
            0,
            0,
            StageBreakdown {
                requests: 1,
                batches: 1,
                queue_us: 1.0,
                load_us: 0.0,
                state_us: 0.0,
                compute_us: 4.0,
                padding_us: 0.0,
                aborted_us: 0.0,
            },
        );
        let text = prometheus_snapshot(&metrics, &trace);
        assert!(text.contains("ernn_requests_completed_total 1"));
        assert!(text.contains("ernn_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ernn_latency_us_count 1"));
        assert!(text.contains("ernn_stage_us{device=\"0\",model=\"0\",stage=\"compute\"} 4"));
        assert!(text.contains("ernn_stage_requests_total{device=\"0\",model=\"0\"} 1"));
        // The plain snapshot carries no scheduler/timeline/health series.
        assert!(!text.contains("ernn_sched_"));
        assert!(!text.contains("ernn_timeline_"));
        assert!(!text.contains("ernn_health_"));
        // Every exposition line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn full_prometheus_export_merges_sched_timeline_and_health() {
        use crate::request::{Response, Workload};
        use crate::sched::SchedStats;
        use crate::timeline::{Timeline, TimelineSample};

        let responses = vec![Response::served(
            0,
            0,
            Workload::Utterance,
            0.0,
            1.0,
            5.0,
            0,
            1,
            None,
        )];
        let metrics = ServeMetrics::compute(&responses, vec![4.0]);
        let trace = RunTrace::default();
        let sched = SchedStats {
            admitted: 10,
            shed: 2,
            model_loads: 3,
            state_loads: 1,
            retries_scheduled: 4,
            failovers: 1,
            state_migrations: 1,
            load_us_total: 123.5,
            ..SchedStats::default()
        };
        let timeline = Timeline {
            interval_us: 100.0,
            num_devices: 2,
            dropped: 1,
            ewma_queue_us: 250.25,
            samples: vec![TimelineSample {
                t_us: 100.0,
                queue_depth: 3,
                oldest_wait_us: 40.0,
                live_sessions: 2,
                weights_bytes: 2048,
                state_bytes: 128,
                ..TimelineSample::default()
            }],
            device_util: vec![0.75, 0.25],
        };
        let health = HealthReport {
            events: vec![HealthEvent {
                t_us: 100.0,
                rule: HealthRuleKind::RetryStorm,
                device: None,
                value: 9.0,
                threshold: 8.0,
            }],
            dropped: 0,
            ewma_queue_us: 250.25,
            samples_evaluated: 1,
        };
        let text = prometheus_snapshot_full(
            &metrics,
            &trace,
            Some(&sched),
            Some(&timeline),
            Some(&health),
            None,
        );
        for needle in [
            "ernn_sched_admitted_total 10",
            "ernn_sched_shed_total 2",
            "ernn_sched_model_loads_total 3",
            "ernn_sched_retries_scheduled_total 4",
            "ernn_sched_failovers_total 1",
            "ernn_sched_state_migrations_total 1",
            "ernn_sched_load_us_total 123.5",
            "ernn_timeline_samples_total 2",
            "ernn_ewma_queue_delay_us 250.25",
            "ernn_queue_depth 3",
            "ernn_residency_bytes{class=\"weights\"} 2048",
            "ernn_residency_bytes{class=\"state\"} 128",
            "ernn_device_utilization{device=\"0\"} 0.75",
            "ernn_device_utilization{device=\"1\"} 0.25",
            "ernn_health_events_total 1",
            "ernn_health_rule_fired_total{rule=\"retry_storm\"} 1",
            "ernn_health_rule_fired_total{rule=\"slo_burn_rate\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        // Line discipline holds for the merged series too.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }
}
