//! Critical-path analysis over a captured [`TraceJournal`].
//!
//! The journal records *events*; operators ask about *requests*. This
//! module reconstructs each served request's span chain — admit →
//! enqueue → batch → load-stall → dispatch → complete — and decomposes
//! its end-to-end latency into the stages that produced it:
//!
//! * **queue** — arrival to batch start on the device,
//! * **load** — weight-image streaming stalls the batch paid,
//! * **state** — session-state reload stalls the batch paid,
//! * **compute** — the remainder of device occupancy until the
//!   request's frames finished.
//!
//! The decomposition is exact by construction: `queue + load + state +
//! compute` equals the observed `complete − arrival` latency bit-for-bit
//! (`sched_sweep` asserts this against every [`Response`] of a real
//! run). A batch's stalls sit on every member's critical path, so each
//! member is charged the full stall — these are per-request critical
//! paths, not a cost attribution (that is
//! [`StageAttribution`](crate::trace::StageAttribution)'s job).
//!
//! [`Response`]: crate::Response

use crate::trace::{TraceEvent, TraceJournal};

/// One served request's critical-path decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSpan {
    /// Request id.
    pub id: u64,
    /// Served model.
    pub model: usize,
    /// Serving device.
    pub device: usize,
    /// Arrival time (µs).
    pub arrival_us: f64,
    /// Batch start on the device (µs).
    pub dispatch_us: f64,
    /// Completion time (µs).
    pub complete_us: f64,
    /// Whether the request's deadline (if any) was met.
    pub deadline_met: bool,
    /// Arrival → device start (µs).
    pub queue_us: f64,
    /// Weight-load stalls on the critical path (µs).
    pub load_us: f64,
    /// Session-state reload stalls on the critical path (µs).
    pub state_us: f64,
    /// Remaining device occupancy until this request completed (µs).
    pub compute_us: f64,
}

impl RequestSpan {
    /// Observed end-to-end latency (µs).
    pub fn latency_us(&self) -> f64 {
        self.complete_us - self.arrival_us
    }

    /// Sum of the decomposed stages (µs); equals
    /// [`Self::latency_us`] exactly.
    pub fn total_us(&self) -> f64 {
        self.queue_us + self.load_us + self.state_us + self.compute_us
    }
}

/// Run-wide sums of the per-request stages (µs each).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathTotals {
    /// Total queue wait across spans.
    pub queue_us: f64,
    /// Total weight-load stall across spans.
    pub load_us: f64,
    /// Total state-load stall across spans.
    pub state_us: f64,
    /// Total compute across spans.
    pub compute_us: f64,
}

/// What [`analyze`] reconstructs from one journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAnalysis {
    /// One span per `Complete` event, in completion (journal) order.
    pub spans: Vec<RequestSpan>,
    /// Run-wide stage sums.
    pub totals: PathTotals,
}

/// Reconstructs per-request critical paths from a captured journal.
///
/// Requests whose `Complete` event was lost to ring overwrite are
/// absent; a request whose batch's `Dispatch`/load events were lost
/// still gets a span, with its stalls folded into `compute_us` (the
/// decomposition invariant holds either way).
pub fn analyze(journal: &TraceJournal) -> TraceAnalysis {
    // One record per dispatched batch: where it ran and what stalls it
    // paid. Loads are matched into their batch by device + occupancy
    // window.
    struct Batch {
        device: usize,
        start_us: f64,
        end_us: f64,
        load_us: f64,
        state_us: f64,
    }
    let mut batches: Vec<Batch> = Vec::new();
    for e in &journal.events {
        if let TraceEvent::Dispatch {
            device,
            start_us,
            busy_us,
            ..
        } = *e
        {
            batches.push(Batch {
                device,
                start_us,
                end_us: start_us + busy_us,
                load_us: 0.0,
                state_us: 0.0,
            });
        }
    }
    let find_batch = |batches: &[Batch], device: usize, t_us: f64| -> Option<usize> {
        batches
            .iter()
            .position(|b| b.device == device && t_us >= b.start_us && t_us <= b.end_us)
    };
    for e in &journal.events {
        match *e {
            TraceEvent::ResidencyLoad {
                t_us,
                device,
                load_us,
                ..
            } => {
                if let Some(i) = find_batch(&batches, device, t_us) {
                    batches[i].load_us += load_us;
                }
            }
            TraceEvent::SessionStateLoad {
                t_us,
                device,
                load_us,
                ..
            } => {
                if let Some(i) = find_batch(&batches, device, t_us) {
                    batches[i].state_us += load_us;
                }
            }
            _ => {}
        }
    }

    let mut spans = Vec::new();
    let mut totals = PathTotals::default();
    for e in &journal.events {
        let TraceEvent::Complete {
            t_us,
            id,
            device,
            model,
            arrival_us,
            dispatch_us,
            deadline_met,
        } = *e
        else {
            continue;
        };
        let (load_us, state_us) = batches
            .iter()
            .find(|b| b.device == device && b.start_us == dispatch_us)
            .map_or((0.0, 0.0), |b| (b.load_us, b.state_us));
        let queue_us = dispatch_us - arrival_us;
        let service_us = t_us - dispatch_us;
        // compute is defined as the service remainder, so the four
        // stages sum to the observed latency bit-for-bit.
        let compute_us = service_us - load_us - state_us;
        let span = RequestSpan {
            id,
            model,
            device,
            arrival_us,
            dispatch_us,
            complete_us: t_us,
            deadline_met,
            queue_us,
            load_us,
            state_us,
            compute_us,
        };
        totals.queue_us += queue_us;
        totals.load_us += load_us;
        totals.state_us += state_us;
        totals.compute_us += compute_us;
        spans.push(span);
    }

    TraceAnalysis { spans, totals }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-request batch with a weight load and a state reload:
    /// dispatch at 10, stalls 10+2, completes at 30 and 34.
    fn journal() -> TraceJournal {
        let events = vec![
            TraceEvent::Admit {
                t_us: 0.0,
                id: 1,
                model: 0,
                predicted_us: 25.0,
            },
            TraceEvent::Enqueue {
                t_us: 0.0,
                id: 1,
                model: 0,
                depth: 1,
            },
            TraceEvent::Enqueue {
                t_us: 4.0,
                id: 2,
                model: 0,
                depth: 2,
            },
            TraceEvent::Dequeue {
                t_us: 10.0,
                id: 1,
                model: 0,
                queued_us: 10.0,
            },
            TraceEvent::Dequeue {
                t_us: 10.0,
                id: 2,
                model: 0,
                queued_us: 6.0,
            },
            TraceEvent::BatchFormed {
                t_us: 10.0,
                model: 0,
                size: 2,
                max_frames: 8,
                total_frames: 14,
            },
            TraceEvent::ResidencyLoad {
                t_us: 10.0,
                device: 0,
                model: 0,
                load_us: 10.0,
                stall_cycles: 2000,
                evicted: 0,
            },
            TraceEvent::SessionStateLoad {
                t_us: 20.0,
                device: 0,
                session: 9,
                load_us: 2.0,
                stall_cycles: 400,
                evicted: 0,
            },
            TraceEvent::Dispatch {
                t_us: 10.0,
                device: 0,
                model: 0,
                size: 2,
                start_us: 10.0,
                busy_us: 24.0,
            },
            TraceEvent::Complete {
                t_us: 30.0,
                id: 1,
                device: 0,
                model: 0,
                arrival_us: 0.0,
                dispatch_us: 10.0,
                deadline_met: true,
            },
            TraceEvent::Complete {
                t_us: 34.0,
                id: 2,
                device: 0,
                model: 0,
                arrival_us: 4.0,
                dispatch_us: 10.0,
                deadline_met: false,
            },
        ];
        TraceJournal {
            events,
            dropped: 0,
            capacity: 64,
        }
    }

    #[test]
    fn decomposition_sums_to_observed_latency() {
        let analysis = analyze(&journal());
        assert_eq!(analysis.spans.len(), 2);
        for span in &analysis.spans {
            assert_eq!(
                span.total_us(),
                span.latency_us(),
                "span {} decomposition does not sum",
                span.id
            );
        }
        let s1 = analysis.spans[0];
        assert_eq!(s1.id, 1);
        assert_eq!(s1.queue_us, 10.0);
        assert_eq!(s1.load_us, 10.0);
        assert_eq!(s1.state_us, 2.0);
        assert_eq!(s1.compute_us, 8.0);
        let s2 = analysis.spans[1];
        // Request 2 arrived later: less queue, same stalls, more
        // compute (its frames finish later).
        assert_eq!(s2.queue_us, 6.0);
        assert_eq!(s2.load_us, 10.0);
        assert_eq!(s2.compute_us, 12.0);
        let latency_us: f64 = analysis.spans.iter().map(|s| s.latency_us()).sum();
        assert_eq!(
            latency_us,
            analysis.totals.queue_us
                + analysis.totals.load_us
                + analysis.totals.state_us
                + analysis.totals.compute_us
        );
    }

    #[test]
    fn missing_dispatch_folds_stalls_into_compute() {
        let mut j = journal();
        // Simulate ring overwrite of the batch's device-side events.
        j.events.retain(|e| {
            !matches!(
                e,
                TraceEvent::Dispatch { .. }
                    | TraceEvent::ResidencyLoad { .. }
                    | TraceEvent::SessionStateLoad { .. }
            )
        });
        j.dropped = 3;
        let analysis = analyze(&j);
        assert_eq!(analysis.spans.len(), 2);
        let s1 = analysis.spans[0];
        assert_eq!(s1.load_us, 0.0);
        assert_eq!(s1.state_us, 0.0);
        assert_eq!(s1.compute_us, 20.0);
        assert_eq!(s1.total_us(), s1.latency_us());
    }

    #[test]
    fn empty_journal_analyzes_to_nothing() {
        let analysis = analyze(&TraceJournal::default());
        assert!(analysis.spans.is_empty());
        assert_eq!(analysis.totals, PathTotals::default());
    }
}
