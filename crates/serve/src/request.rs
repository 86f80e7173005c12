//! Request/response model for the serving runtime.
//!
//! A [`Request`] is either one whole ASR utterance or one **chunk** of a
//! streaming session ([`Workload`]) — a sequence of feature frames
//! stamped with a (virtual) arrival time, an optional latency deadline,
//! and the id of the model it targets (`0` by default; the scheduler
//! resolves ids through its
//! [`ModelRegistry`](crate::sched::ModelRegistry)). The runtime answers it
//! with a [`Response`] carrying the per-frame logits plus the full timing
//! breakdown, so callers can audit queueing, batching and device time
//! separately — or a *shed* response when admission control rejected the
//! request up front.
//!
//! Both structs are `#[non_exhaustive]`: construct them through
//! [`Request::new`]/[`Request::chunk`] and the builder methods, or
//! [`Response::served`]/[`Response::shed`], so future workload shapes can
//! add fields without breaking every caller again. (Migrating from the
//! pre-streaming API: replace `Request { .. }` literals with the
//! constructors, and note that `Response::device` is now `Option<usize>` —
//! `None` when shed — instead of a meaningless `0`.)

/// The shape of work a [`Request`] carries.
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm so new workload
/// shapes (e.g. priority lanes) don't break downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Workload {
    /// A whole utterance: recurrent state starts at zero and is discarded
    /// after the final frame.
    #[default]
    Utterance,
    /// One chunk of a streaming session: recurrent state persists from
    /// the previous chunk and is handed to the next.
    Chunk {
        /// Session the chunk belongs to (caller-chosen, globally unique
        /// within a run).
        session: u64,
        /// Zero-based position within the session; chunks must arrive in
        /// index order.
        index: u32,
        /// Marks the session's final chunk: the runtime releases the
        /// session's state after serving it.
        last: bool,
    },
}

impl Workload {
    /// The session id, when this is a streaming chunk.
    pub fn session(&self) -> Option<u64> {
        match self {
            Workload::Chunk { session, .. } => Some(*session),
            _ => None,
        }
    }
}

/// One inference request: a whole utterance or a streaming chunk.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Request {
    /// Caller-chosen identifier, echoed on the response.
    pub id: u64,
    /// Which registered model this request targets (`0` unless set
    /// with [`Request::with_model`]).
    pub model: usize,
    /// Feature frames, each of the model's input dimension.
    pub frames: Vec<Vec<f32>>,
    /// Arrival time on the virtual clock, in microseconds.
    pub arrival_us: f64,
    /// Optional completion deadline (absolute, microseconds). For chunks
    /// this is the *per-chunk* deadline that flows through EDF.
    pub deadline_us: Option<f64>,
    /// Whether this is a whole utterance or a session chunk.
    pub workload: Workload,
}

impl Request {
    /// A whole-utterance request with no deadline, targeting model `0`.
    pub fn new(id: u64, frames: Vec<Vec<f32>>, arrival_us: f64) -> Self {
        Request {
            id,
            model: 0,
            frames,
            arrival_us,
            deadline_us: None,
            workload: Workload::Utterance,
        }
    }

    /// A streaming-chunk request with no deadline, targeting model `0`.
    ///
    /// A session's chunks must carry contiguous `index`es from 0 with
    /// strictly increasing arrivals, target one model throughout, and set
    /// `last` exactly on the final chunk — the runtimes validate this up
    /// front.
    pub fn chunk(
        id: u64,
        session: u64,
        index: u32,
        last: bool,
        frames: Vec<Vec<f32>>,
        arrival_us: f64,
    ) -> Self {
        Request {
            id,
            model: 0,
            frames,
            arrival_us,
            deadline_us: None,
            workload: Workload::Chunk {
                session,
                index,
                last,
            },
        }
    }

    /// Sets an absolute completion deadline.
    pub fn with_deadline(mut self, deadline_us: f64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Targets a registered model by id.
    pub fn with_model(mut self, model: usize) -> Self {
        self.model = model;
        self
    }

    /// Number of feature frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// The streaming session this request belongs to, if it is a chunk.
    pub fn session(&self) -> Option<u64> {
        self.workload.session()
    }
}

/// Why the scheduler refused to serve a request. Attached to shed
/// [`Response`]s so callers (and the chaos benches) can partition sheds
/// by cause instead of guessing from timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission predictor saw no device that could meet the
    /// request's deadline under current load.
    DeadlineInfeasible,
    /// An earlier chunk of the same streaming session was shed, so the
    /// whole session is cancelled and later chunks are rejected whole.
    SessionCancelled,
    /// Device capacity was lost to a fault: the request's (or its
    /// pinned session's) device is down, or retries after an aborted
    /// batch were exhausted.
    CapacityLoss,
    /// Admitting the session's first chunk would exceed the configured
    /// live-session limit.
    SessionLimit,
    /// Cluster-scope rejection: the front-end router found no live
    /// shard holding a replica of the request's model — every holder is
    /// down, or a shard died with failover disabled and its backlog had
    /// nowhere to go. Distinct from [`ShedReason::DeadlineInfeasible`]
    /// (a capacity *prediction* on a live shard) and from
    /// [`ShedReason::CapacityLoss`] (a device-level fault inside one
    /// shard): the request never reached a scheduler at all.
    NoShardCapacity,
}

/// The completed answer for one request.
///
/// Every field is deterministic (virtual-clock timing plus bit-exact
/// logits), so whole responses compare meaningfully with `==` — the
/// cross-executor tests rely on this to assert bit-identity. Construct
/// through [`Response::served`]/[`Response::shed_with`], which encode
/// the served/shed invariants once instead of at every call site.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Response {
    /// The request's identifier.
    pub id: u64,
    /// The model that served (or would have served) the request.
    pub model: usize,
    /// Per-frame class logits from the quantized datapath. Empty for shed
    /// responses — no inference ran.
    pub logits: Vec<Vec<f32>>,
    /// When the request arrived (µs, virtual clock).
    pub arrival_us: f64,
    /// When its batch started executing on a device (µs). Equals
    /// `arrival_us` for shed responses.
    pub dispatch_us: f64,
    /// When its last frame left the pipeline (µs). Equals `arrival_us`
    /// for shed responses (the early deadline-miss return).
    pub complete_us: f64,
    /// Index of the device that executed it; `None` when shed — no device
    /// ever touched the request.
    pub device: Option<usize>,
    /// Size of the batch it rode in (`0` when shed — it never batched).
    pub batch_size: usize,
    /// Whether the request carried a deadline.
    pub deadline_tracked: bool,
    /// Whether the deadline (if any) was met; `true` when no deadline,
    /// always `false` when shed.
    pub deadline_met: bool,
    /// True when admission control rejected the request instead of
    /// serving it: the caller got an immediate deadline-miss return and
    /// no logits.
    pub shed: bool,
    /// Why the request was shed; `None` for served responses.
    pub shed_reason: Option<ShedReason>,
    /// The workload shape of the originating request, echoed back so
    /// streaming callers can reassemble sessions without a side table.
    pub workload: Workload,
}

impl Response {
    /// A served response. Logits start empty; the runtime stitches them
    /// in once the executor reports back. `deadline_met` is derived from
    /// `deadline_us` and `complete_us`.
    #[allow(clippy::too_many_arguments)]
    pub fn served(
        id: u64,
        model: usize,
        workload: Workload,
        arrival_us: f64,
        dispatch_us: f64,
        complete_us: f64,
        device: usize,
        batch_size: usize,
        deadline_us: Option<f64>,
    ) -> Self {
        Response {
            id,
            model,
            logits: Vec::new(),
            arrival_us,
            dispatch_us,
            complete_us,
            device: Some(device),
            batch_size,
            deadline_tracked: deadline_us.is_some(),
            deadline_met: deadline_us.is_none_or(|d| complete_us <= d),
            shed: false,
            shed_reason: None,
            workload,
        }
    }

    /// A shed response: no logits, no device, timing collapsed to the
    /// arrival instant, the deadline (if any) scored as missed, and the
    /// [`ShedReason`] that explains it.
    pub fn shed_with(
        id: u64,
        model: usize,
        workload: Workload,
        arrival_us: f64,
        deadline_us: Option<f64>,
        reason: ShedReason,
    ) -> Self {
        Response {
            id,
            model,
            logits: Vec::new(),
            arrival_us,
            dispatch_us: arrival_us,
            complete_us: arrival_us,
            device: None,
            batch_size: 0,
            deadline_tracked: deadline_us.is_some(),
            deadline_met: false,
            shed: true,
            shed_reason: Some(reason),
            workload,
        }
    }

    /// End-to-end latency: arrival to completion (µs).
    pub fn latency_us(&self) -> f64 {
        self.complete_us - self.arrival_us
    }

    /// Time spent waiting before the batch started (µs).
    pub fn queue_us(&self) -> f64 {
        self.dispatch_us - self.arrival_us
    }

    /// Time spent executing on the device (µs).
    pub fn service_us(&self) -> f64 {
        self.complete_us - self.dispatch_us
    }
}

/// Rejects timestamps no event loop can order: a non-finite
/// `arrival_us` never compares at or before any horizon (a NaN arrival
/// would sit in the arrival heap forever and its request would vanish
/// without a response), and a NaN deadline poisons every EDF key it is
/// compared with. An infinite deadline is fine — it sorts last, like
/// none at all. Every entry point that accepts requests
/// ([`SchedRuntime`](crate::sched::SchedRuntime)'s `run`,
/// `run_closed_loop` and stepped `offer`, and
/// [`ClusterRuntime::run`](crate::ClusterRuntime::run)) checks this
/// before its event loop starts.
///
/// # Panics
///
/// Panics naming the request id.
pub(crate) fn validate_timing(r: &Request) {
    assert!(
        r.arrival_us.is_finite(),
        "request {}: arrival_us must be finite, got {}",
        r.id,
        r.arrival_us
    );
    assert!(
        !r.deadline_us.is_some_and(f64::is_nan),
        "request {}: deadline_us must not be NaN",
        r.id
    );
}

/// Validates the streaming invariants over a whole submitted load: for
/// every session, chunk indexes are contiguous from 0 in arrival order
/// with strictly increasing arrivals and non-decreasing deadlines (a
/// chunk without a deadline counts as infinitely late, so it can only be
/// followed by more deadline-free chunks), all chunks target one model,
/// only the final chunk is marked `last` (and the final chunk must be).
/// Utterance requests pass through untouched. Both runtimes call this
/// before starting their event loops.
///
/// The deadline-monotonicity rule is what lets EDF stay streaming-safe:
/// it guarantees a session's chunks sort in index order in the scheduler
/// queue, so batch formation never has to reorder (or stall on) a chunk
/// whose predecessor is still queued.
///
/// # Panics
///
/// Panics with a descriptive message on the first violated invariant.
pub(crate) fn validate_sessions(requests: &[Request]) {
    use std::collections::HashMap;
    // Per session: (next index, last arrival, last deadline, model, done).
    let mut sessions: HashMap<u64, (u32, f64, f64, usize, bool)> = HashMap::new();
    let mut order: Vec<&Request> = requests.iter().collect();
    order.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
    for r in order {
        let Workload::Chunk {
            session,
            index,
            last,
        } = r.workload
        else {
            continue;
        };
        let entry = sessions.entry(session).or_insert((
            0,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            r.model,
            false,
        ));
        assert!(
            !entry.4,
            "session {session}: chunk after the chunk marked `last`"
        );
        assert_eq!(
            index, entry.0,
            "session {session}: expected chunk index {} next, got {index}",
            entry.0
        );
        assert!(
            r.arrival_us > entry.1,
            "session {session}: chunk arrivals must be strictly increasing"
        );
        let deadline = r.deadline_us.unwrap_or(f64::INFINITY);
        assert!(
            deadline >= entry.2,
            "session {session}: chunk deadlines must be non-decreasing \
             (a deadline-free chunk counts as infinitely late)"
        );
        assert_eq!(
            r.model, entry.3,
            "session {session}: chunks must target one model"
        );
        assert!(
            !r.frames.is_empty(),
            "session {session}: chunks must carry at least one frame"
        );
        *entry = (index + 1, r.arrival_us, deadline, r.model, last);
    }
    for (session, (.., done)) in sessions {
        assert!(done, "session {session}: final chunk must be marked `last`");
    }
}

/// Checks that a submitted load's ids, given in ascending order, are
/// distinct: the runtimes key retry records and route tables by id, so
/// two requests sharing one would corrupt each other's. Both runtimes'
/// `run` call this before starting their event loops.
///
/// # Panics
///
/// Panics naming the first repeated id.
pub(crate) fn validate_unique_ids(sorted_ids: impl IntoIterator<Item = u64>) {
    let mut previous = None;
    for id in sorted_ids {
        assert!(previous != Some(id), "duplicate request id {id}");
        previous = Some(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_breakdown_adds_up() {
        let r = Response::served(7, 0, Workload::Utterance, 10.0, 25.0, 40.0, 0, 4, None);
        assert_eq!(r.latency_us(), 30.0);
        assert_eq!(r.queue_us() + r.service_us(), r.latency_us());
        assert_eq!(r.device, Some(0));
        assert!(r.deadline_met && !r.deadline_tracked && !r.shed);
    }

    #[test]
    fn served_scores_the_deadline() {
        let hit = Response::served(1, 0, Workload::Utterance, 0.0, 1.0, 5.0, 2, 1, Some(5.0));
        assert!(hit.deadline_tracked && hit.deadline_met);
        let miss = Response::served(2, 0, Workload::Utterance, 0.0, 1.0, 5.1, 2, 1, Some(5.0));
        assert!(miss.deadline_tracked && !miss.deadline_met);
    }

    #[test]
    fn shed_collapses_timing_and_drops_the_device() {
        let reason = ShedReason::DeadlineInfeasible;
        let r = Response::shed_with(3, 1, Workload::Utterance, 12.0, Some(20.0), reason);
        assert_eq!(r.shed_reason, Some(reason));
        assert_eq!(r.device, None);
        assert_eq!((r.dispatch_us, r.complete_us), (12.0, 12.0));
        assert!(r.shed && r.deadline_tracked && !r.deadline_met);
        assert!(r.logits.is_empty() && r.batch_size == 0);
    }

    #[test]
    fn builders_set_deadline_and_model() {
        let req = Request::new(1, vec![vec![0.0; 4]], 0.0)
            .with_deadline(99.0)
            .with_model(3);
        assert_eq!(req.deadline_us, Some(99.0));
        assert_eq!(req.model, 3);
        assert_eq!(req.num_frames(), 1);
        assert_eq!(Request::new(2, vec![], 0.0).model, 0);
        assert_eq!(req.session(), None);
    }

    #[test]
    fn chunk_requests_carry_session_identity() {
        let req = Request::chunk(9, 4, 2, true, vec![vec![0.0; 4]], 5.0);
        assert_eq!(req.session(), Some(4));
        assert_eq!(
            req.workload,
            Workload::Chunk {
                session: 4,
                index: 2,
                last: true
            }
        );
    }

    #[test]
    fn session_validation_accepts_a_well_formed_stream() {
        let reqs = vec![
            Request::chunk(0, 1, 0, false, vec![vec![0.0]], 0.0),
            Request::new(10, vec![vec![0.0]], 0.5),
            Request::chunk(1, 1, 1, false, vec![vec![0.0]], 1.0),
            Request::chunk(2, 1, 2, true, vec![vec![0.0]], 2.0),
        ];
        validate_sessions(&reqs);
    }

    #[test]
    #[should_panic(expected = "expected chunk index")]
    fn session_validation_rejects_gaps() {
        let reqs = vec![
            Request::chunk(0, 1, 0, false, vec![vec![0.0]], 0.0),
            Request::chunk(1, 1, 2, true, vec![vec![0.0]], 1.0),
        ];
        validate_sessions(&reqs);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn session_validation_rejects_simultaneous_chunks() {
        let reqs = vec![
            Request::chunk(0, 1, 0, false, vec![vec![0.0]], 1.0),
            Request::chunk(1, 1, 1, true, vec![vec![0.0]], 1.0),
        ];
        validate_sessions(&reqs);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn session_validation_rejects_deadline_inversions() {
        let reqs = vec![
            Request::chunk(0, 1, 0, false, vec![vec![0.0]], 0.0),
            Request::chunk(1, 1, 1, true, vec![vec![0.0]], 1.0).with_deadline(50.0),
        ];
        validate_sessions(&reqs);
    }

    #[test]
    #[should_panic(expected = "marked `last`")]
    fn session_validation_rejects_unterminated_sessions() {
        let reqs = vec![Request::chunk(0, 1, 0, false, vec![vec![0.0]], 0.0)];
        validate_sessions(&reqs);
    }
}
