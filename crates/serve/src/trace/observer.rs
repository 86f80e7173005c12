//! One run's capture ([`RunTrace`]) and the event-loop side that fills
//! it ([`Observer`]).

use super::{
    FlightRecorder, StageAttribution, StageBreakdown, TraceConfig, TraceEvent, TraceJournal,
};
use crate::request::{Request, Response};
use ernn_fpga::Device;

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
/// attribution table. A caller that already knows every field of an
/// event [`record`](Self::record)s it directly; the named methods exist
/// only where something is computed on the way — a defaulted deadline, a
/// stall in device cycles, a batch's several events and its attribution
/// charge, the served-only filter of `completed`.
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

    /// Journals one fully-formed event.
    #[inline]
    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.recorder.record(event);
    }

    /// A request was shed — at admission, at dispatch, or by the cluster
    /// router; a deadline-free request journals an infinite deadline.
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

    /// A formed batch landed on `device`, occupying it from `start_us`
    /// until `free_us`: records per-member dequeues, the batch-formation
    /// and dispatch events, and charges the (device, model) attribution
    /// cell — queue wait from arrivals, weight-load/state-load/compute
    /// split of the device occupancy, and padding waste at the model's
    /// steady-state frame time (`ii_cycles` per frame).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn batch_dispatched(
        &mut self,
        t_us: f64,
        model: usize,
        batch: &[Request],
        frame_counts: &[u64],
        device: usize,
        start_us: f64,
        free_us: f64,
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
            queue_us += start_us - r.arrival_us;
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
            device,
            model,
            size,
            start_us,
            busy_us: free_us - start_us,
        });
        let padded_frames = size as u64 * max_frames - total_frames;
        self.attribution.charge(
            device,
            model,
            StageBreakdown {
                requests: size as u64,
                batches: 1,
                queue_us,
                load_us,
                state_us,
                compute_us: free_us - start_us - load_us - state_us,
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

    /// Finalizes the capture into the report-carried [`RunTrace`].
    pub(crate) fn into_trace(self) -> RunTrace {
        RunTrace {
            journal: self.recorder.into_journal(),
            attribution: self.attribution,
        }
    }
}
