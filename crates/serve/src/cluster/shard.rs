//! Per-shard adapter: one stepped scheduler engine plus the
//! cluster-side bookkeeping the router keeps about it.
//!
//! A shard is an ordinary [`SchedRuntime`](crate::sched::SchedRuntime)
//! whose registry holds exactly the models consistent hashing placed on
//! it. The router drives it through the crate-internal
//! [`SchedEngine`](crate::sched::SchedEngine) stepping interface —
//! `next_event_us` to know when it next has anything to do, `run_until`
//! to step it through the events due by a routing decision, `offer` to
//! hand it forwarded requests, `take_pending` to reclaim its backlog
//! when it is killed — so a shard executes *exactly* the code
//! path a standalone scheduler does, and bit-identity across executors
//! is inherited rather than re-proven.

use std::sync::Arc;

use crate::config::RuntimeConfig;
use crate::sched::{ModelRegistry, SchedConfigError, SchedEngine, SchedPolicy, SchedRuntime};
use crate::trace::ShardGauges;
use ernn_fpga::Device;

/// Builds one shard's scheduler: a local registry holding the shard's
/// placed models — local id = position in `placed` (sorted global-id
/// order) — sharing the cluster registry's compiled models, so sharding
/// computes no weight spectrum. Returns `None` when placement put
/// nothing on the shard: an idle shard holds no scheduler at all.
pub(crate) fn shard_runtime(
    cluster: &ModelRegistry,
    placed: &[usize],
    platform: &[Device],
    policy: SchedPolicy,
    config: &RuntimeConfig,
) -> Result<Option<SchedRuntime>, SchedConfigError> {
    if placed.is_empty() {
        return Ok(None);
    }
    let mut registry = ModelRegistry::new();
    for &global in placed {
        registry.register_shared(cluster.name(global), Arc::clone(cluster.model(global)));
    }
    SchedRuntime::try_with_config(registry, platform.to_vec(), policy, config.clone()).map(Some)
}

/// The router's view of one shard: the live engine (if any), which
/// global models it holds, whether it is still up, and where its
/// devices sit in the cluster-flat device index space.
pub(crate) struct ShardSim<'rt> {
    pub shard: usize,
    /// `None` when placement assigned the shard no models.
    pub engine: Option<SchedEngine<'rt, 'rt>>,
    /// Global model ids placed here, sorted ascending; a model's local
    /// registry id is its position in this list.
    pub placed: Vec<usize>,
    pub alive: bool,
    /// Cluster-flat index of the shard's first device — responses get
    /// `device + device_base` so pool-wide accounting stays meaningful.
    pub device_base: usize,
    pub device_count: usize,
}

impl ShardSim<'_> {
    /// The shard-local registry id of a cluster-global model.
    ///
    /// # Panics
    ///
    /// Panics if the model is not placed on this shard — the router
    /// only forwards to replica holders, so this is a routing bug.
    pub(crate) fn local_model(&self, global: usize) -> usize {
        self.placed
            .binary_search(&global)
            .expect("router forwarded a model the shard does not hold")
    }

    /// The shard's load-feedback gauges at the engine's current virtual
    /// time (zeros for an idle shard with no engine).
    pub(crate) fn gauges(&self) -> ShardGauges {
        match &self.engine {
            Some(e) => ShardGauges {
                shard: self.shard,
                ewma_queue_us: e.ewma_queue_us(),
                resident_bytes: e.resident_bytes(),
                live_sessions: e.live_sessions(),
            },
            None => ShardGauges {
                shard: self.shard,
                ..ShardGauges::default()
            },
        }
    }

    /// Per-device busy time so far (virtual µs); zeros for an idle
    /// shard, so the cluster-flat utilization vector always covers
    /// every provisioned device.
    pub(crate) fn busy_us(&self) -> Vec<f64> {
        match &self.engine {
            Some(e) => e.device_busy_us(),
            None => vec![0.0; self.device_count],
        }
    }
}
