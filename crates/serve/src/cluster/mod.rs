//! Cluster-tier serving: a deterministic virtual-time cluster of
//! scheduler shards behind an affinity router.
//!
//! One [`SchedRuntime`] models a single node — a handful of FPGAs
//! behind one scheduler. This module scales
//! the same simulation out: N shards, each an ordinary scheduler over
//! its own device platform, behind a front-end router that owns every
//! cluster-scope decision:
//!
//! * **Placement** — the cluster serves one [`ModelRegistry`], the same
//!   type a single scheduler serves, and models land on shards by
//!   consistent hashing over its names ([`PlacementMap`]), with
//!   `replication` replicas each; every shard's scheduler gets a
//!   registry of the models placed on it, sharing their `Arc`s. The
//!   replication unit is the serialized
//!   [`ModelArtifact`](crate::ModelArtifact) byte image —
//!   the same bytes the deployment pipeline ships — and replicas become
//!   servable in chain order, each one artifact-transfer later than the
//!   previous ([`TransferModel`]).
//! * **Affinity routing** — a request is forwarded only to shards
//!   holding its model; forwarding charges the frames' wire time on the
//!   virtual clock exactly like BRAM weight streaming charges load
//!   stalls, so networking is never free.
//! * **Steering** — among live replicas, [`Steering::LoadFeedback`]
//!   picks the least-work-left shard: replica-readiness wait (an
//!   unready replica costs a known transfer stall) plus the shard's
//!   instantaneous backlog (earliest device free time + queued work
//!   per live device) plus the estimated work of forwards still on
//!   the wire to it — the router prices its own in-flight decisions so
//!   same-window arrivals don't herd onto one shard — tie-broken by
//!   queue depth, then the shard's EWMA queue delay (the calibrated
//!   signal from the metrics timeline); [`Steering::Random`] is the
//!   feedback-blind baseline the cluster bench beats.
//! * **Session pinning** — a streaming session's chunks all follow its
//!   first chunk's shard, so recurrent state never crosses the wire in
//!   steady state. When a shard is killed ([`ClusterConfig::shard_faults`])
//!   its backlog is reclaimed and re-steered to surviving replicas and
//!   its sessions re-pin — restarted as fresh shard-local incarnations
//!   (cross-shard state migration is an explicit follow-on) — or, with
//!   failover disabled, shed with
//!   [`ShedReason::NoShardCapacity`](crate::ShedReason::NoShardCapacity).
//!
//! A load is checked before the first event by the scheduler's own
//! validator, so [`ClusterRuntime::run`] rejects exactly the loads
//! [`SchedRuntime::run`] rejects, with the same messages.
//!
//! Everything runs on one virtual clock. Before each decision the router
//! steps every shard engine that has an event due by then (a shard with
//! nothing due is already in the state it would be stepped to), so
//! steering sees exactly the load a real router would; and because
//! shards execute the unmodified scheduler event loop, the whole cluster
//! is bit-identical across host executors, journals cluster-scope
//! [`TraceEvent`](crate::TraceEvent)s (`Forward`, `Replicate`,
//! `ShardDown`, `SessionReroute`), and exports per-shard
//! [`ShardGauges`] to the Prometheus snapshot. See `docs/cluster.md`.

mod placement;
mod router;
mod shard;

pub use placement::PlacementMap;

use std::fmt;

use crate::config::RuntimeConfig;
use crate::metrics::ServeMetrics;
use crate::request::Response;
use crate::sched::{ModelRegistry, SchedConfigError, SchedPolicy, SchedReport, SchedRuntime};
use crate::trace::{RunTrace, ShardGauges, TraceConfig};
use ernn_fpga::fault::{DeviceFault, FaultPlan};
use ernn_fpga::transfer::TransferModel;
use ernn_fpga::Device;

/// The former name of the cluster's tenant set, which is a plain
/// [`ModelRegistry`]; kept only because `benchmark/` still names it, and
/// deleted by ROADMAP item 9 (a).
pub type ClusterSpec = ModelRegistry;

/// How the router picks among a model's live replica shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Steering {
    /// Minimize `(readiness wait + shard backlog + in-flight wire
    /// work, queue depth, EWMA queue delay, shard index)`
    /// lexicographically — least work left. Readiness avoids known
    /// transfer stalls; backlog is the shard's earliest device free
    /// time plus queued work per live device; the in-flight term adds
    /// the estimated cost of requests the router already forwarded
    /// that are still on the wire (invisible to the shard's engine
    /// until they land), so a burst inside one wire-time window
    /// spreads instead of herding; depth and the timeline's EWMA
    /// queue delay break ties. Steers traffic away from hot shards.
    #[default]
    LoadFeedback,
    /// Hash-uniform choice among live replicas (a hash of the request
    /// id) — the feedback-blind baseline.
    Random,
}

/// Cluster-scope configuration: replication degree, steering policy,
/// the inter-node transfer charge, shard-kill schedule, and the router
/// journal's trace capture.
///
/// `#[non_exhaustive]`: construct with [`ClusterConfig::new`] and the
/// builder methods.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClusterConfig {
    /// Replica shards per model (capped at the shard count); 2 by
    /// default so every model survives one shard kill. Zero is rejected
    /// by [`ClusterRuntime::try_new`].
    pub replication: usize,
    /// Replica-choice policy.
    pub steering: Steering,
    /// The wire-time charge for request forwarding and artifact
    /// replication; [`TransferModel::intra_rack`] by default.
    pub transfer: TransferModel,
    /// Deterministic shard-kill schedule: each event's `device` field
    /// names a *shard index*, and only [`DeviceFault::Crash`] is
    /// meaningful at this tier. Kills are permanent for the run
    /// (elastic rejoin is a follow-on). Empty by default.
    pub shard_faults: FaultPlan,
    /// Whether a killed shard's backlog re-steers to surviving replicas
    /// (on by default). Off, its backlog and future session chunks are
    /// shed with [`ShedReason::NoShardCapacity`](crate::ShedReason::NoShardCapacity).
    pub failover: bool,
    /// Flight-recorder capture for the *router's* journal (`Forward`,
    /// `Replicate`, `ShardDown`, `SessionReroute`, router-level
    /// sheds); disabled by default. Shard-level journals are configured
    /// through the shard [`RuntimeConfig`].
    pub trace: TraceConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replication: 2,
            steering: Steering::default(),
            transfer: TransferModel::intra_rack(),
            shard_faults: FaultPlan::empty(),
            failover: true,
            trace: TraceConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// The defaults: replication 2, load-feedback steering, intra-rack
    /// transfer, no kills, failover on, tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the replica count per model.
    pub fn replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Selects the steering policy.
    pub fn steering(mut self, steering: Steering) -> Self {
        self.steering = steering;
        self
    }

    /// Sets the inter-node transfer model.
    pub fn transfer(mut self, transfer: TransferModel) -> Self {
        self.transfer = transfer;
        self
    }

    /// Installs a shard-kill schedule (shard indices in the `device`
    /// field, [`DeviceFault::Crash`] events only).
    pub fn shard_faults(mut self, plan: FaultPlan) -> Self {
        self.shard_faults = plan;
        self
    }

    /// Enables or disables backlog failover on shard kills.
    pub fn failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Enables (or reconfigures) router-journal tracing.
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

/// Cluster-scope virtual-time accounting — what the router did, as
/// opposed to what each shard's [`SchedStats`](crate::sched::SchedStats)
/// records internally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct ClusterStats {
    /// Requests forwarded to a shard on first arrival.
    pub routed: u64,
    /// Feature-frame bytes moved over the wire (first routes and
    /// failover reroutes).
    pub forwarded_bytes: u64,
    /// Total virtual µs charged for request forwarding.
    pub forward_us_total: f64,
    /// Artifact replication transfers performed at cluster start.
    pub replications: u64,
    /// Total virtual µs of replication wire time (chain-serialized per
    /// model).
    pub replication_us_total: f64,
    /// Shard kills processed from the fault schedule.
    pub shard_kills: u64,
    /// Queued/undelivered requests reclaimed from killed shards.
    pub reclaimed: u64,
    /// Reclaimed requests successfully re-steered to a surviving
    /// replica.
    pub rerouted: u64,
    /// Streaming sessions re-pinned to a new shard after a kill.
    pub sessions_rerouted: u64,
    /// Requests shed by the router with
    /// [`ShedReason::NoShardCapacity`](crate::ShedReason::NoShardCapacity).
    pub shed_no_capacity: u64,
}

/// One shard's slice of the cluster outcome.
#[derive(Debug)]
#[non_exhaustive]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Cluster-global ids of the models placed here, ascending.
    pub placed: Vec<usize>,
    /// False when the fault schedule killed this shard.
    pub alive: bool,
    /// Load gauges at end of run (frozen at kill time for dead shards)
    /// — the per-shard Prometheus export.
    pub gauges: ShardGauges,
    /// How many of the run's requests this shard answered (served, or
    /// shed by its own admission control).
    pub answered: usize,
    /// The shard scheduler's own report; `None` for shards placement
    /// left empty. Its `responses` list is empty: the merge moves every
    /// response, logits and all, into [`ClusterReport::responses`] (count
    /// them with [`Self::answered`]); metrics, stats, journal, timeline
    /// and health were computed over them first and stay.
    pub report: Option<SchedReport>,
}

/// Outcome of one cluster run. Everything except `host_us` is
/// virtual-time-derived and bit-identical across host executors.
#[derive(Debug)]
#[non_exhaustive]
pub struct ClusterReport {
    /// Every request's response — served or shed, cluster-global
    /// metadata (model id, workload, arrival time) restored and device
    /// indices flattened into the cluster-wide space — sorted by
    /// request id, each id exactly once.
    pub responses: Vec<Response>,
    /// Cluster-wide metrics over the merged responses and the
    /// cluster-flat device busy vector.
    pub metrics: ServeMetrics,
    /// Router-level accounting.
    pub stats: ClusterStats,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardReport>,
    /// The router's journal (enabled via [`ClusterConfig::tracing`]).
    pub trace: RunTrace,
    /// Wall-clock host time for the whole run (µs) — the only
    /// nondeterministic number here.
    pub host_us: f64,
}

impl ClusterReport {
    /// The per-shard gauges in shard order — ready for
    /// [`prometheus_snapshot`](crate::prometheus_snapshot).
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.shards.iter().map(|s| s.gauges).collect()
    }
}

/// Why a [`ClusterRuntime`] configuration was rejected — the typed form
/// of the constructor's panics, returned by [`ClusterRuntime::try_new`].
/// [`ClusterRuntime::new`] formats this error as its panic message, so
/// the messages are stable either way.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterConfigError {
    /// The model registry is empty.
    EmptySpec,
    /// The shard platform list is empty.
    NoShards,
    /// A shard was given an empty device list.
    ShardWithoutDevices {
        /// The device-less shard.
        shard: usize,
    },
    /// [`ClusterConfig::replication`] is zero.
    ZeroReplication,
    /// The shard-fault schedule names a shard the cluster does not have.
    FaultShardOutOfRange {
        /// The out-of-range shard index named by the schedule.
        shard: usize,
        /// The shard count.
        shards: usize,
    },
    /// The shard-fault schedule carries a fault other than
    /// [`DeviceFault::Crash`] — the only kind meaningful at this tier.
    NonCrashShardFault {
        /// The shard the event targets.
        shard: usize,
        /// The offending fault.
        fault: DeviceFault,
    },
    /// A shard's scheduler rejected the shared policy or per-shard
    /// runtime configuration over the models placed on it.
    Shard {
        /// The shard whose scheduler could not be built.
        shard: usize,
        /// Why.
        error: SchedConfigError,
    },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::EmptySpec => write!(f, "cluster spec has no models"),
            ClusterConfigError::NoShards => write!(f, "cluster has no shards"),
            ClusterConfigError::ShardWithoutDevices { shard } => {
                write!(f, "shard {shard} has no devices")
            }
            ClusterConfigError::ZeroReplication => write!(f, "replication must be at least 1"),
            ClusterConfigError::FaultShardOutOfRange { shard, shards } => {
                write!(
                    f,
                    "shard fault names shard {shard} but the cluster has {shards}"
                )
            }
            ClusterConfigError::NonCrashShardFault { fault, .. } => {
                write!(f, "cluster-tier faults must be crashes, got {fault:?}")
            }
            ClusterConfigError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// The sharded virtual-time cluster: N scheduler shards, a consistent-
/// hash placement, and the affinity router that drives them on one
/// clock. See the [module docs](self) for the full model.
#[derive(Debug)]
pub struct ClusterRuntime {
    pub(crate) registry: ModelRegistry,
    pub(crate) shard_platforms: Vec<Vec<Device>>,
    pub(crate) cluster: ClusterConfig,
    pub(crate) placement: PlacementMap,
    /// One scheduler per shard over the models placed there, built once;
    /// every run steps a fresh engine over each. `None` where placement
    /// left the shard empty.
    pub(crate) shard_runtimes: Vec<Option<SchedRuntime>>,
    /// Test oracle switch: route with the wake-every-shard clock (see
    /// `router.rs`).
    #[cfg(test)]
    pub(crate) wake_all: bool,
}

impl ClusterRuntime {
    /// A cluster of `shard_platforms.len()` shards (each a device list
    /// handed to its shard scheduler), serving `registry`'s models under
    /// a shared scheduling policy and per-shard runtime configuration.
    /// Placement is computed here, once, from the registered names, and
    /// each shard's scheduler gets a registry of the models placed on it,
    /// sharing their `Arc`s.
    ///
    /// # Panics
    ///
    /// Panics with the [`ClusterConfigError`] message when
    /// [`Self::try_new`] would reject the configuration.
    pub fn new(
        registry: ModelRegistry,
        shard_platforms: Vec<Vec<Device>>,
        policy: SchedPolicy,
        shard_config: RuntimeConfig,
        cluster: ClusterConfig,
    ) -> Self {
        match Self::try_new(registry, shard_platforms, policy, shard_config, cluster) {
            Ok(rt) => rt,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`Self::new`]: an empty registry, no shards, a
    /// shard with no devices, a zero replication degree, or a
    /// shard-fault schedule naming a shard out of range or a fault other
    /// than [`DeviceFault::Crash`] is returned as a typed
    /// [`ClusterConfigError`] instead of a panic — as is a policy or shard
    /// configuration one of the shard schedulers, which are built here,
    /// rejects ([`ClusterConfigError::Shard`]).
    pub fn try_new(
        registry: ModelRegistry,
        shard_platforms: Vec<Vec<Device>>,
        policy: SchedPolicy,
        shard_config: RuntimeConfig,
        cluster: ClusterConfig,
    ) -> Result<Self, ClusterConfigError> {
        if registry.is_empty() {
            return Err(ClusterConfigError::EmptySpec);
        }
        if shard_platforms.is_empty() {
            return Err(ClusterConfigError::NoShards);
        }
        if let Some(shard) = shard_platforms.iter().position(Vec::is_empty) {
            return Err(ClusterConfigError::ShardWithoutDevices { shard });
        }
        if cluster.replication == 0 {
            return Err(ClusterConfigError::ZeroReplication);
        }
        for ev in cluster.shard_faults.events() {
            if ev.device >= shard_platforms.len() {
                return Err(ClusterConfigError::FaultShardOutOfRange {
                    shard: ev.device,
                    shards: shard_platforms.len(),
                });
            }
            if !matches!(ev.fault, DeviceFault::Crash { .. }) {
                return Err(ClusterConfigError::NonCrashShardFault {
                    shard: ev.device,
                    fault: ev.fault,
                });
            }
        }
        let placement = PlacementMap::consistent_hash(
            &registry.names(),
            shard_platforms.len(),
            cluster.replication,
        );
        let shard_runtimes = shard_platforms
            .iter()
            .enumerate()
            .map(|(shard, platform)| {
                shard::shard_runtime(
                    &registry,
                    &placement.models_on(shard),
                    platform,
                    policy,
                    &shard_config,
                )
                .map_err(|error| ClusterConfigError::Shard { shard, error })
            })
            .collect::<Result<_, _>>()?;
        Ok(ClusterRuntime {
            registry,
            shard_platforms,
            cluster,
            placement,
            shard_runtimes,
            #[cfg(test)]
            wake_all: false,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_platforms.len()
    }

    /// The model → replica-shard placement the router routes by.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// The registered tenant set.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }
}
