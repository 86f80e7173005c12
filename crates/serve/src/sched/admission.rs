//! Admission control: shed an arrival when its predicted completion
//! blows its deadline, instead of letting doomed requests poison the
//! queue for everyone behind them.
//!
//! The predictor is deliberately simple and fully deterministic (see
//! [`SchedRuntime`](crate::sched::SchedRuntime) for the exact formula):
//! best-device ready time (device free time plus a cold-load stall if the
//! model isn't resident) plus the solo service estimate plus the queued
//! backlog spread across the pool. With tracing on, every decision is
//! journaled with its prediction (an [`Admit`](crate::TraceEvent::Admit)
//! or a [`Shed`](crate::TraceEvent::Shed)), so tests can assert the shed
//! set is *exactly* the predicted-late set and sweeps can audit the
//! predictor's calibration.

/// What admission control does with predicted-late arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything; deadline misses happen in the queue.
    AdmitAll,
    /// Shed any deadline-carrying arrival whose predicted completion
    /// exceeds its deadline: the caller gets an immediate deadline-miss
    /// return ([`Response::shed`](crate::Response::shed)) instead of a
    /// late answer.
    ShedPredictedLate,
}
