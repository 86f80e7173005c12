//! Serving metrics: latency percentiles (through p99.9), throughput,
//! device occupancy, batch-size distribution, shed counts, and per-model
//! breakdowns.
//!
//! Latency and queue summaries are computed by streaming samples into
//! fixed-bucket [`LatencyHistogram`]s rather than storing every sample:
//! memory stays O(1) in the request count, count/mean/max are exact, and
//! quantiles carry the histogram's documented error bound (they never
//! underestimate; see [`LatencyHistogram::RELATIVE_ERROR_BOUND`]). The
//! histograms themselves ride along on [`ServeMetrics`] so exporters can
//! render full distributions.

use crate::request::{Response, Workload};
use crate::trace::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt;

/// Summary statistics over a set of latency samples (µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile — the tail the SLO-aware scheduler manages; with
    /// fewer than 1000 samples this is the maximum (nearest rank).
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
}

/// Per-model slice of a serving run: what one tenant of a shared pool
/// experienced.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetrics {
    /// Requests served (excludes shed).
    pub completed: usize,
    /// Requests shed, for any [`ShedReason`](crate::ShedReason).
    pub shed: usize,
    /// End-to-end latency over served requests.
    pub latency: LatencySummary,
    /// Fraction of this model's deadline-carrying requests that missed
    /// (shed requests count as misses — they returned an early miss).
    pub deadline_miss_rate: f64,
}

/// Full metrics for one serving run.
///
/// Every field here is derived from the *virtual* clock and is therefore
/// deterministic: two runs of the same load under any host executor must
/// compare equal (`PartialEq` is derived precisely so tests can assert
/// that bit-identity). Wall-clock host time lives on
/// [`SchedReport::host_us`](crate::sched::SchedReport::host_us) instead, keeping
/// nondeterminism out of this struct entirely.
///
/// Shed responses (any [`ShedReason`](crate::ShedReason)) are excluded
/// from the latency/queue summaries, throughput and the batch histogram —
/// no service happened — but count toward [`ServeMetrics::shed`], the
/// deadline-miss rate, and the per-model breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMetrics {
    /// Requests served to completion (excludes shed).
    pub completed: usize,
    /// Requests shed, for any [`ShedReason`](crate::ShedReason):
    /// refused at admission or by the cluster router, capacity lost at
    /// dispatch, retries exhausted, or a cancelled or over-limit
    /// session. Each is an early return; a deadline-carrying one counts
    /// as a deadline miss.
    pub shed: usize,
    /// Streaming chunks among the served requests (zero for pure
    /// utterance loads).
    pub chunks: usize,
    /// Distinct streaming sessions across all responses, shed included.
    pub sessions: usize,
    /// End-to-end latency (arrival → completion) over served requests,
    /// summarized from [`ServeMetrics::latency_hist`].
    pub latency: LatencySummary,
    /// Queueing component (arrival → batch start) over served requests,
    /// summarized from [`ServeMetrics::queue_hist`].
    pub queue: LatencySummary,
    /// Full end-to-end latency distribution (streaming log-linear
    /// histogram; exporters render its buckets).
    pub latency_hist: LatencyHistogram,
    /// Full queueing-delay distribution.
    pub queue_hist: LatencyHistogram,
    /// Virtual-time horizon of the run: first arrival to last completion (µs).
    pub makespan_us: f64,
    /// Served requests per second of virtual time.
    pub throughput_rps: f64,
    /// Frames per second of virtual time.
    pub throughput_fps: f64,
    /// Busy fraction per device over the makespan (the same horizon as
    /// [`ServeMetrics::makespan_us`], so the two cannot diverge).
    pub device_occupancy: Vec<f64>,
    /// batch size → number of batches dispatched at that size.
    pub batch_histogram: BTreeMap<usize, usize>,
    /// Mean dispatched batch size.
    pub mean_batch_size: f64,
    /// Fraction of deadline-carrying requests that missed (served misses
    /// plus shed).
    pub deadline_miss_rate: f64,
    /// Per-model breakdown, keyed by model id. Single-model runtimes
    /// report one entry under key `0`.
    pub per_model: BTreeMap<usize, ModelMetrics>,
}

impl ServeMetrics {
    /// Aggregates responses plus per-device busy time (µs) into a
    /// metrics report; occupancy is busy time over the makespan.
    pub fn compute(responses: &[Response], device_busy_us: Vec<f64>) -> Self {
        let served: Vec<&Response> = responses.iter().filter(|r| !r.shed).collect();
        let shed_total = responses.len() - served.len();
        // Stream samples into fixed-bucket histograms instead of storing
        // them: O(1) memory at million-request scale.
        let mut latency_hist = LatencyHistogram::new();
        let mut queue_hist = LatencyHistogram::new();
        for r in &served {
            latency_hist.record(r.latency_us());
            queue_hist.record(r.queue_us());
        }
        // The horizon spans all arrivals (shed included — they were
        // offered load) through the last served completion.
        let first_arrival = responses
            .iter()
            .map(|r| r.arrival_us)
            .fold(f64::INFINITY, f64::min);
        let last_complete = responses.iter().map(|r| r.complete_us).fold(0.0, f64::max);
        let makespan_us = if responses.is_empty() {
            0.0
        } else {
            last_complete - first_arrival
        };
        let total_frames: usize = served.iter().map(|r| r.logits.len()).sum();

        // Each batch appears once per member response; divide the member
        // count by the batch size to recover the batch count.
        let mut member_counts: BTreeMap<usize, usize> = BTreeMap::new();
        for r in &served {
            *member_counts.entry(r.batch_size).or_insert(0) += 1;
        }
        let batch_histogram: BTreeMap<usize, usize> = member_counts
            .iter()
            .map(|(&size, &members)| (size, members / size))
            .collect();
        let num_batches: usize = batch_histogram.values().sum();
        let mean_batch_size = if num_batches > 0 {
            served.len() as f64 / num_batches as f64
        } else {
            0.0
        };

        let device_occupancy = device_busy_us
            .iter()
            .map(|&busy| {
                if makespan_us > 0.0 {
                    busy / makespan_us
                } else {
                    0.0
                }
            })
            .collect();

        let mut groups: BTreeMap<usize, Vec<&Response>> = BTreeMap::new();
        for r in responses {
            groups.entry(r.model).or_default().push(r);
        }
        let per_model: BTreeMap<usize, ModelMetrics> = groups
            .into_iter()
            .map(|(model, group)| {
                let mut hist = LatencyHistogram::new();
                for r in group.iter().filter(|r| !r.shed) {
                    hist.record(r.latency_us());
                }
                let group_shed = group.iter().filter(|r| r.shed).count();
                (
                    model,
                    ModelMetrics {
                        completed: group.len() - group_shed,
                        shed: group_shed,
                        latency: hist.summary(),
                        deadline_miss_rate: miss_rate(group.iter().copied()),
                    },
                )
            })
            .collect();

        let chunks = served
            .iter()
            .filter(|r| matches!(r.workload, Workload::Chunk { .. }))
            .count();
        let sessions = {
            let mut ids: Vec<u64> = responses
                .iter()
                .filter_map(|r| r.workload.session())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };

        ServeMetrics {
            completed: served.len(),
            shed: shed_total,
            chunks,
            sessions,
            latency: latency_hist.summary(),
            queue: queue_hist.summary(),
            latency_hist,
            queue_hist,
            makespan_us,
            throughput_rps: rate_per_second(served.len(), makespan_us),
            throughput_fps: rate_per_second(total_frames, makespan_us),
            device_occupancy,
            batch_histogram,
            mean_batch_size,
            deadline_miss_rate: miss_rate(responses.iter()),
            per_model,
        }
    }
}

/// Miss fraction over the deadline-carrying responses in `responses`
/// (shed responses carry `deadline_met == false`, so they count).
fn miss_rate<'a>(responses: impl Iterator<Item = &'a Response>) -> f64 {
    let (mut tracked, mut missed) = (0usize, 0usize);
    for r in responses {
        if r.deadline_tracked {
            tracked += 1;
            if !r.deadline_met {
                missed += 1;
            }
        }
    }
    if tracked > 0 {
        missed as f64 / tracked as f64
    } else {
        0.0
    }
}

fn rate_per_second(count: usize, horizon_us: f64) -> f64 {
    if horizon_us > 0.0 {
        count as f64 / (horizon_us * 1e-6)
    } else {
        0.0
    }
}

impl fmt::Display for ServeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "completed {} requests in {:.1} ms of virtual time{}",
            self.completed,
            self.makespan_us / 1e3,
            if self.shed > 0 {
                format!(" ({} shed)", self.shed)
            } else {
                String::new()
            }
        )?;
        writeln!(
            f,
            "throughput: {:.0} req/s, {:.0} frames/s",
            self.throughput_rps, self.throughput_fps
        )?;
        if self.sessions > 0 {
            writeln!(
                f,
                "streaming: {} chunks across {} sessions",
                self.chunks, self.sessions
            )?;
        }
        writeln!(
            f,
            "latency µs: p50 {:.1}  p95 {:.1}  p99 {:.1}  p99.9 {:.1}  max {:.1}  (queue p50 {:.1})",
            self.latency.p50_us,
            self.latency.p95_us,
            self.latency.p99_us,
            self.latency.p999_us,
            self.latency.max_us,
            self.queue.p50_us
        )?;
        let occ: Vec<String> = self
            .device_occupancy
            .iter()
            .map(|o| format!("{:.0}%", o * 100.0))
            .collect();
        writeln!(f, "device occupancy: [{}]", occ.join(", "))?;
        if self.per_model.len() > 1 {
            for (model, m) in &self.per_model {
                writeln!(
                    f,
                    "model {model}: {} served, {} shed, p99 {:.1} µs, miss {:.1}%",
                    m.completed,
                    m.shed,
                    m.latency.p99_us,
                    m.deadline_miss_rate * 100.0
                )?;
            }
        }
        let hist: Vec<String> = self
            .batch_histogram
            .iter()
            .map(|(size, n)| format!("{size}×{n}"))
            .collect();
        write!(
            f,
            "batches (size×count): [{}], mean batch {:.2}",
            hist.join(", "),
            self.mean_batch_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(arrival: f64, dispatch: f64, complete: f64, batch: usize) -> Response {
        let mut r = Response::served(
            0,
            0,
            Workload::Utterance,
            arrival,
            dispatch,
            complete,
            0,
            batch,
            None,
        );
        r.logits = vec![vec![0.0]; 3];
        r
    }

    fn shed_resp(arrival: f64, model: usize) -> Response {
        let reason = crate::ShedReason::DeadlineInfeasible;
        Response::shed_with(
            0,
            model,
            Workload::Utterance,
            arrival,
            Some(arrival + 1.0),
            reason,
        )
    }

    #[test]
    fn batch_histogram_counts_batches_not_members() {
        // One batch of 2 (two member responses) + one singleton batch.
        let responses = vec![
            resp(0.0, 1.0, 5.0, 2),
            resp(0.5, 1.0, 6.0, 2),
            resp(2.0, 7.0, 9.0, 1),
        ];
        let m = ServeMetrics::compute(&responses, vec![1.0]);
        assert_eq!(m.batch_histogram[&2], 1);
        assert_eq!(m.batch_histogram[&1], 1);
        assert!((m.mean_batch_size - 1.5).abs() < 1e-9);
        assert_eq!(m.completed, 3);
        assert_eq!(m.shed, 0);
        // Horizon: first arrival 0.0 → last completion 9.0.
        assert!((m.makespan_us - 9.0).abs() < 1e-9);
        // Single-model runs still get a per-model entry under key 0.
        assert_eq!(m.per_model.len(), 1);
        assert_eq!(m.per_model[&0].completed, 3);
    }

    #[test]
    fn shed_responses_count_as_misses_but_not_service() {
        let mut with_deadline = resp(0.0, 1.0, 5.0, 1);
        with_deadline.deadline_tracked = true;
        let responses = vec![with_deadline, shed_resp(2.0, 0), shed_resp(3.0, 1)];
        let m = ServeMetrics::compute(&responses, vec![1.0]);
        assert_eq!(m.completed, 1);
        assert_eq!(m.shed, 2);
        // Latency stats cover served responses only.
        assert_eq!(m.latency.count, 1);
        // Shed requests never batched: histogram has no zero-size entry.
        assert!(!m.batch_histogram.contains_key(&0));
        // 3 deadline-tracked, 2 missed (the sheds).
        assert!((m.deadline_miss_rate - 2.0 / 3.0).abs() < 1e-9);
        // Per-model: model 0 has 1 served + 1 shed; model 1 only shed.
        assert_eq!(m.per_model[&0].completed, 1);
        assert_eq!(m.per_model[&0].shed, 1);
        assert_eq!(m.per_model[&1].completed, 0);
        assert_eq!(m.per_model[&1].shed, 1);
        assert!((m.per_model[&1].deadline_miss_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_without_panic() {
        let m = ServeMetrics::compute(
            &[resp(0.0, 0.0, 10.0, 1), shed_resp(1.0, 1)],
            vec![0.5, 0.25],
        );
        let text = m.to_string();
        assert!(text.contains("p95"));
        assert!(text.contains("occupancy"));
        assert!(text.contains("shed"));
        assert!(text.contains("model 1"));
    }
}
