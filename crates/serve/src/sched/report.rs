//! What a scheduler run hands back: [`SchedStats`], [`SchedReport`], and
//! the engine's closing step that assembles them.

use super::engine::SchedEngine;
use crate::executor::Executor;
use crate::health::HealthReport;
use crate::metrics::ServeMetrics;
use crate::request::Response;
use crate::timeline::Timeline;
use crate::trace::RunTrace;
use ernn_fft::stats::FftStats;

/// Virtual-time scheduler accounting for one run. Deterministic and
/// executor-independent, like [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedStats {
    /// Requests that entered the queue.
    pub admitted: usize,
    /// Cold model loads across all devices (residency misses).
    pub model_loads: u64,
    /// Models evicted to make room for a load.
    pub model_evictions: u64,
    /// Total virtual time devices spent streaming weight images (µs).
    pub load_us_total: f64,
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
    /// [`MAX_RETRY_ATTEMPTS`](crate::MAX_RETRY_ATTEMPTS).
    pub retries_exhausted: u64,
    /// Retried requests that committed on a different device than the
    /// one that aborted them.
    pub failovers: u64,
    /// Streaming sessions re-pinned to a new device after a crash.
    pub state_migrations: u64,
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
    /// Exact host FFT activity of this scheduler's runs, whichever lane
    /// thread ran them; read it with [`Self::host_fft`].
    fft: FftStats,
    /// Observability capture: the virtual-time event journal (when
    /// [`RuntimeConfig::tracing`](crate::RuntimeConfig::tracing) enables
    /// it) plus the always-on per-(device, model) stage-time attribution.
    /// Entirely virtual-time-derived, so bit-identical across executors.
    pub trace: RunTrace,
    /// Fixed-interval metrics-timeline samples (empty unless
    /// [`RuntimeConfig::timeline`](crate::RuntimeConfig::timeline)
    /// enables capture) plus the always-on queue-delay EWMA.
    /// Virtual-time-derived, so bit-identical across executors.
    pub timeline: Timeline,
    /// Health-rule firings observed over the timeline (empty unless
    /// [`RuntimeConfig::health`](crate::RuntimeConfig::health) enables
    /// the monitor). Bit-identical across executors.
    pub health: HealthReport,
}

impl SchedReport {
    /// Exact host FFT activity of this run's inference, whichever lane
    /// thread ran it. Over a cluster run the shards' counts add up to the
    /// run's FFT work with no run counted twice.
    pub fn host_fft(&self) -> FftStats {
        self.fft
    }
}

impl SchedEngine<'_, '_> {
    /// Drains the executor, stamps the final timeline sample, and
    /// closes the run into a [`SchedReport`].
    pub(crate) fn finish(mut self) -> SchedReport {
        // Stitch host-side logits into the served responses (shed
        // responses own no job slots) *before* metrics, so
        // throughput_fps (frames from logits) is identical for every
        // executor.
        let exec_report = self.executor.finish();
        for (slot, logits) in exec_report.outputs {
            debug_assert!(self.responses[slot].logits.is_empty(), "slot filled twice");
            self.responses[slot].logits = logits;
        }

        // Stamp the final timeline sample at the instant the last device
        // drains, so the closing sample reflects the finished run. A
        // crashed device can stay "free at infinity"; keep the stamp
        // finite by falling back to the event-loop clock.
        let drained_us = self.free_at_us.iter().copied().fold(0.0, f64::max);
        if drained_us.is_finite() {
            self.now_us = self.now_us.max(drained_us);
        }
        self.capture_timeline(true);
        let metrics = ServeMetrics::compute(&self.responses, self.device_busy_us());
        let ewma = self.timeline.ewma_queue_us();
        let timeline = self.timeline.into_timeline();
        let health = self.health.into_report(ewma);
        SchedReport {
            responses: self.responses,
            metrics,
            sched: self.stats,
            host_us: self.host_start.elapsed().as_secs_f64() * 1e6,
            fft: exec_report.fft,
            trace: self.obs.into_trace(),
            timeline,
            health,
        }
    }
}
