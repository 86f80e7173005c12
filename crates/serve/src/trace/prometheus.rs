//! Prometheus text-exposition rendering of a run: metrics, attribution
//! and the optional scheduler / timeline / health / shard sections.

use super::{num, RunTrace};
use crate::health::{HealthReport, HealthRuleKind};
use crate::metrics::ServeMetrics;
use crate::sched::SchedStats;
use crate::timeline::Timeline;
use std::fmt::Write as _;

/// Per-shard point-in-time gauges for the cluster-scope Prometheus
/// export: one row per shard in a
/// [`ClusterReport`](crate::cluster::ClusterReport), rendered by
/// [`prometheus_snapshot`] as `ernn_shard_*` gauge families with a
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

/// Renders a run as a Prometheus text-exposition snapshot: run metrics
/// plus attribution (counters, two histograms, per-cell stage gauges),
/// plus (when given) the scheduler's [`SchedStats`] counters —
/// residency, session-state, fault, retry, failover, and migration
/// activity — the newest [`Timeline`] sample as point-in-time gauges
/// with the queue-delay EWMA, the [`HealthReport`] rule-firing counters,
/// and the cluster tier's per-shard [`ShardGauges`].
pub fn prometheus_snapshot(
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
        "Requests shed for any reason: admission, lost capacity, spent retries, sessions.",
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
