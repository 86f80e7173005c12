//! Admission control: shed an arrival when its predicted completion
//! blows its deadline, instead of letting doomed requests poison the
//! queue for everyone behind them.
//!
//! The predictor is deliberately simple and fully deterministic (see
//! [`SchedRuntime`](crate::sched::SchedRuntime) for the exact formula):
//! best-device ready time (device free time plus a cold-load stall if the
//! model isn't resident) plus the solo service estimate plus the queued
//! backlog spread across the pool. Every decision is recorded in an
//! [`AdmissionRecord`] so tests can assert the shed set is *exactly* the
//! predicted-late set and sweeps can audit the predictor's calibration.

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

/// One admission decision, in arrival order — the audit trail of the
/// predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRecord {
    /// The request's id.
    pub id: u64,
    /// The model it targeted.
    pub model: usize,
    /// Predicted completion time (absolute µs) at arrival.
    pub predicted_us: f64,
    /// The request's deadline, if any.
    pub deadline_us: Option<f64>,
    /// True when the request entered the queue; false when it was shed.
    pub admitted: bool,
}
