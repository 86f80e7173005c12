//! Runtime configuration shared by the scheduler and the cluster tier.
//!
//! [`RuntimeConfig`] is the one place run-level options are declared:
//! build it once with the builder methods and hand it to
//! [`SchedRuntime::with_config`](crate::sched::SchedRuntime::with_config)
//! (the shorter constructors delegate there) or to
//! [`ClusterRuntime::new`](crate::ClusterRuntime::new), which applies
//! it to every shard.

use crate::executor::ExecutorKind;
use crate::health::HealthConfig;
use crate::timeline::TimelineConfig;
use crate::trace::TraceConfig;
use ernn_fpga::fault::FaultPlan;

/// Backoff before the first retry of a batch aborted by an injected
/// fault (µs). Retries back off exponentially on the *virtual* clock: an
/// aborted batch's members re-enter the scheduler as fresh arrivals at
/// `abort + backoff_us(attempt)`.
pub const BASE_BACKOFF_US: f64 = 50.0;
/// Ceiling on the exponential retry backoff (µs).
pub const MAX_BACKOFF_US: f64 = 5_000.0;
/// Retry attempts per request before it is shed with
/// [`ShedReason::CapacityLoss`](crate::ShedReason::CapacityLoss), so no
/// request is ever silently lost.
pub const MAX_RETRY_ATTEMPTS: u32 = 5;

/// The backoff before retry number `attempt` (1-indexed):
/// `min(BASE_BACKOFF_US · 2^(attempt−1), MAX_BACKOFF_US)` — a few
/// frame-latencies of pause that doubles toward the cap.
pub fn backoff_us(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(63);
    (BASE_BACKOFF_US * (1u64 << exp) as f64).min(MAX_BACKOFF_US)
}

/// Builder-style run options: executor choice, tracing,
/// streaming-session limits, and fault injection.
///
/// `#[non_exhaustive]`: construct with [`RuntimeConfig::new`] and the
/// builder methods so future options don't break callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Where host-side inference executes.
    pub executor: ExecutorKind,
    /// Flight-recorder tracing; disabled by default.
    pub trace: TraceConfig,
    /// Maximum concurrently-live streaming sessions, if bounded. The
    /// scheduler sheds the first chunk of a session that would exceed it
    /// (cancelling the session). A limit of zero is rejected by
    /// [`SchedRuntime::try_with_config`](crate::sched::SchedRuntime::try_with_config).
    pub max_live_sessions: Option<usize>,
    /// Deterministic device-fault schedule replayed on the virtual
    /// clock; empty (no faults) by default.
    pub fault_plan: FaultPlan,
    /// Whether streaming sessions pinned to a crashed device fail over
    /// (re-pin, with state migration) to a surviving device. On by
    /// default; turn off to measure the no-failover baseline — chunks
    /// then wait for (or are shed against) the crashed device's
    /// recovery.
    pub failover: bool,
    /// Fixed-interval metrics-timeline capture
    /// ([`MetricsTimeline`](crate::timeline::MetricsTimeline));
    /// disabled by default. The queue-delay EWMA it carries updates
    /// either way.
    pub timeline: TimelineConfig,
    /// Declarative health rules evaluated over the timeline
    /// ([`HealthMonitor`](crate::health::HealthMonitor)); disabled by
    /// default. Rules only see samples, so enabling health without an
    /// enabled timeline never fires.
    pub health: HealthConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            executor: ExecutorKind::default(),
            trace: TraceConfig::default(),
            max_live_sessions: None,
            fault_plan: FaultPlan::empty(),
            failover: true,
            timeline: TimelineConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// The default configuration: inline executor, tracing disabled, no
    /// session limit, no faults, failover enabled.
    pub fn new() -> Self {
        RuntimeConfig::default()
    }

    /// Selects the executor.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Enables (or reconfigures) flight-recorder tracing.
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Bounds the number of concurrently-live streaming sessions.
    pub fn max_live_sessions(mut self, limit: usize) -> Self {
        self.max_live_sessions = Some(limit);
        self
    }

    /// Installs a deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables or disables crash failover for pinned sessions.
    pub fn failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Enables (or reconfigures) metrics-timeline capture.
    pub fn timeline(mut self, timeline: TimelineConfig) -> Self {
        self.timeline = timeline;
        self
    }

    /// Enables (or reconfigures) the health rules.
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::fault::{DeviceFault, FaultEvent};

    #[test]
    fn builder_accumulates_options() {
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 10.0,
            device: 0,
            fault: DeviceFault::Transient,
        }]);
        let cfg = RuntimeConfig::new()
            .executor(ExecutorKind::ThreadPool)
            .tracing(TraceConfig::enabled(64))
            .max_live_sessions(8)
            .fault_plan(plan.clone())
            .failover(false)
            .timeline(TimelineConfig::enabled(100.0, 256))
            .health(HealthConfig::enabled());
        assert_eq!(cfg.executor, ExecutorKind::ThreadPool);
        assert!(cfg.trace.is_enabled());
        assert_eq!(cfg.max_live_sessions, Some(8));
        assert_eq!(cfg.fault_plan, plan);
        assert!(!cfg.failover);
        assert!(cfg.timeline.is_enabled());
        assert_eq!(cfg.timeline.capacity, 256);
        assert!(cfg.health.enabled);
    }

    #[test]
    fn defaults_are_inline_untraced_unbounded_faultless() {
        let cfg = RuntimeConfig::new();
        assert_eq!(cfg.executor, ExecutorKind::Inline);
        assert!(!cfg.trace.is_enabled());
        assert_eq!(cfg.max_live_sessions, None);
        assert!(cfg.fault_plan.is_empty());
        assert!(cfg.failover);
        assert!(!cfg.timeline.is_enabled());
        assert!(!cfg.health.enabled);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_us(1), 50.0);
        assert_eq!(backoff_us(2), 100.0);
        assert_eq!(backoff_us(3), 200.0);
        // Doubling hits the 5 ms ceiling and stays there.
        assert_eq!(backoff_us(8), 5_000.0);
        assert_eq!(backoff_us(63), 5_000.0);
    }
}
