//! The event vocabulary: one [`TraceEvent`] per request-lifecycle,
//! fault, health or cluster-routing moment, stamped on the virtual clock.

use crate::health::HealthRuleKind;

/// One request-lifecycle event, stamped on the virtual clock.
///
/// Events are `Copy` with fixed-size payloads — recording one is a plain
/// store, never an allocation — so list-shaped facts are carried as
/// counts (e.g. [`TraceEvent::ResidencyLoad::evicted`] is how *many*
/// models were evicted; the eviction set itself lives in
/// [`SchedStats`](crate::sched::SchedStats)).
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
    /// A request was shed: refused at admission, at dispatch once
    /// capacity is gone, or by the cluster router.
    Shed {
        /// Virtual time of the decision (µs).
        t_us: f64,
        /// Request id.
        id: u64,
        /// Target model.
        model: usize,
        /// The admission predictor's completion estimate (µs;
        /// `INFINITY` when no prediction applies).
        predicted_us: f64,
        /// The request's deadline (µs; `INFINITY` when it has none).
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
}
