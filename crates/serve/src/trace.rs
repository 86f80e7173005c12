//! Flight-recorder tracing and streaming telemetry for the serving stack.
//!
//! End-of-run aggregates ([`ServeMetrics`](crate::ServeMetrics)) say
//! *that* a p99.9 deadline was missed; this module records *why*: every
//! request-lifecycle event — admission, queueing, batch formation,
//! residency loads, device dispatch, completion — is stamped on the
//! **virtual clock** and kept in a bounded [`FlightRecorder`] ring buffer.
//! Because every timestamp is virtual, the journal inherits the
//! executor-determinism contract: the same run traced with the served
//! lane ([`ExecutorKind::Inline`](crate::ExecutorKind)) and the serial
//! one ([`ExecutorKind::ThreadPool`](crate::ExecutorKind)) produces a
//! bit-identical event sequence (asserted by `sched_sweep` and the
//! `trace_journal` proptests).
//!
//! One file per concern, every public item re-exported here:
//!
//! | file             | holds |
//! |------------------|-------|
//! | `event.rs`       | [`TraceEvent`] — the event vocabulary |
//! | `recorder.rs`    | [`TraceConfig`], [`FlightRecorder`], [`TraceJournal`] — the bounded journal, enabled per run. Recording is a branch plus a `Copy` store into a pre-sized buffer: **zero steady-state heap allocations** (enforced by `tests/kernel_alloc.rs`), and the disabled mode is a single predictable branch |
//! | `histogram.rs`   | [`LatencyHistogram`] — fixed-bucket log-linear histogram replacing store-every-sample latency vectors: O(1) memory at million-request scale, quantiles that never underestimate and overestimate by at most 1/16 ([`LatencyHistogram::RELATIVE_ERROR_BOUND`]) |
//! | `attribution.rs` | [`StageAttribution`] — per-(device, model) totals of where virtual time went: queue wait, load stalls, compute, padding waste |
//! | `observer.rs`    | [`RunTrace`] (what a report carries) and the crate-internal `Observer` the event loops write through: an event whose fields the caller already knows is recorded directly; a method exists only where something is computed on the way |
//! | `chrome.rs`      | [`chrome_trace_json`] — Chrome trace-event JSON, loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing` |
//! | `prometheus.rs`  | [`prometheus_snapshot`] — Prometheus text exposition of the run's metrics and attribution, merging whichever optional sections are passed: [`SchedStats`](crate::sched::SchedStats), the newest [`Timeline`](crate::Timeline) sample, the [`HealthReport`](crate::HealthReport) and per-shard [`ShardGauges`] |
//! | `analyze.rs`     | [`analyze`] — per-request critical paths reconstructed from a captured journal |
//!
//! The exporters' bytes are pinned by `tests/exporter_golden.rs`. See
//! `docs/observability.md` for the event schema and a Perfetto
//! walkthrough.

pub mod analyze;
mod attribution;
mod chrome;
mod event;
mod histogram;
mod observer;
mod prometheus;
mod recorder;
#[cfg(test)]
mod tests;

pub use attribution::{StageAttribution, StageBreakdown};
pub use chrome::chrome_trace_json;
pub use event::TraceEvent;
pub use histogram::{LatencyHistogram, HIST_SUB_BUCKETS};
pub(crate) use observer::Observer;
pub use observer::RunTrace;
pub use prometheus::{prometheus_snapshot, ShardGauges};
pub use recorder::{FlightRecorder, TraceConfig, TraceJournal};

/// Formats a float the way every exporter needs it: shortest-round-trip
/// via `Display`, which is deterministic for a given bit pattern, and `0`
/// for non-finite values so the output stays strict JSON / exposition
/// text.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
