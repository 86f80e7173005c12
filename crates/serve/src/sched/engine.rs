//! The stepped event loop: one [`SchedEngine`] owns everything a run
//! mutates — the clock, the arrival heap, the queue, the device clocks
//! and residency, the session and retry tables, the observers — and
//! every decision is a method on it. This file holds the clock
//! ([`run_until`](SchedEngine::run_until),
//! [`next_event_us`](SchedEngine::next_event_us)), admission with its
//! predictor, and the **one shed path** ([`SchedEngine::shed`]); batch
//! placement, commit and fault reaction are in `dispatch.rs`, report
//! assembly in `report.rs`.

use super::admission::{AdmissionPolicy, AdmissionRecord};
use super::cost::CostModel;
use super::queue::SchedQueue;
use super::registry::ModelId;
use super::residency::DeviceResidency;
use super::runtime::{Feedback, SchedRuntime};
use super::{SchedReport, SchedStats};
use crate::executor::{InlineExecutor, Lane};
use crate::health::HealthMonitor;
use crate::request::{validate_request, Request, Response, ShedReason, Workload};
use crate::timeline::{MetricsTimeline, TimelineSample};
use crate::trace::{Observer, TraceEvent};
use ernn_fpga::FaultTimeline;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A timed arrival in the event queue (min-heap by time, then sequence).
pub(super) struct Arrival {
    pub(super) t_us: f64,
    pub(super) seq: u64,
    pub(super) request: Request,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Arrival {}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t_us
            .total_cmp(&self.t_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduler-side view of one streaming session.
pub(super) struct SessionEntry {
    /// Device every chunk runs on, bound at first-chunk dispatch.
    /// Cleared when that device crashes under failover — the next
    /// chunk re-pins.
    pub(super) device: Option<usize>,
    /// The device a crash unbound this session from — consumed at
    /// re-pin to detect (and journal) the state migration.
    pub(super) last_device: Option<usize>,
    /// Whether the session's state image has ever been materialized — a
    /// later residency miss is a charged reload, not a free zero-state
    /// fabrication.
    pub(super) materialized: bool,
    /// A chunk was shed (or the session hit the live cap at its first
    /// chunk): every later chunk sheds at admission.
    pub(super) cancelled: bool,
    /// Whether the session currently counts against
    /// [`RuntimeConfig::max_live_sessions`](crate::RuntimeConfig::max_live_sessions).
    pub(super) counted: bool,
}

impl SessionEntry {
    /// An entry for a session no chunk of which has dispatched yet:
    /// live (admitted, counting against the cap) or cancelled.
    fn unbound(live: bool) -> Self {
        SessionEntry {
            device: None,
            last_device: None,
            materialized: false,
            cancelled: !live,
            counted: live,
        }
    }
}

/// Retry bookkeeping for one request whose batch was aborted.
pub(super) struct RetryInfo {
    /// Aborts suffered so far (the next backoff doubles on each).
    pub(super) attempts: u32,
    /// The device whose fault last aborted this request — a commit
    /// elsewhere is a failover.
    pub(super) last_device: usize,
}

/// One scheduler run in flight: the [`SchedRuntime`]'s validated
/// configuration plus everything the run mutates, advanced in bounded
/// increments of virtual time.
///
/// There is **one** event loop, parameterized by its horizon: the batch
/// entry points ([`SchedRuntime::run`], [`SchedRuntime::run_closed_loop`])
/// are `start` + `run_until(∞)` + `finish`, so they and any stepped
/// driver can never drift behaviorally. The cluster router is the
/// stepped consumer: at each routing instant it steps the shards whose
/// [`next_event_us`](Self::next_event_us) is due, injects forwarded
/// requests with [`offer`](Self::offer), reads the live queue-delay
/// EWMA for load-feedback steering, and on a shard kill reclaims the
/// undispatched backlog with [`take_pending`](Self::take_pending).
pub(crate) struct SchedEngine<'rt, 'p> {
    pub(super) rt: &'rt SchedRuntime,
    pub(super) executor: InlineExecutor,
    pub(super) host_start: Instant,
    /// Sequence counter for offered arrivals, so equal-timestamp offers
    /// pop in offer order.
    offer_seq: u64,
    pub(super) cost: CostModel,
    /// Per device: when it finishes its last committed batch (µs). A
    /// crashed device sits at its recovery point (∞ when permanent).
    pub(super) free_at_us: Vec<f64>,
    /// Per device: total occupied time (µs) — compute, weight and state
    /// load stalls, and the wasted stretch of aborted batches.
    pub(super) busy_us: Vec<f64>,
    pub(super) residency: Vec<DeviceResidency>,
    pub(super) queue: SchedQueue,
    pub(super) responses: Vec<Response>,
    pub(super) stats: SchedStats,
    pub(super) arrivals: BinaryHeap<Arrival>,
    feedback: Option<Feedback<'p>>,
    pub(super) now_us: f64,
    pub(super) admit_seq: u64,
    /// Streaming-session table: affinity binding, materialization, and
    /// cancellation per session id.
    pub(super) sessions: HashMap<u64, SessionEntry>,
    /// Sessions currently counting against the live cap.
    pub(super) live_sessions: usize,
    /// The run's fault schedule with per-fault applied/consumed flags.
    pub(super) faults: FaultTimeline,
    /// Abort-retry bookkeeping per in-flight request id.
    pub(super) retries: HashMap<u64, RetryInfo>,
    pub(super) obs: Observer,
    /// Fixed-interval metrics sampler (plus the always-on queue-delay
    /// EWMA).
    pub(super) timeline: MetricsTimeline,
    /// Declarative health rules evaluated over the timeline.
    pub(super) health: HealthMonitor,
    /// Per-dispatch scratch, cleared and refilled by every
    /// [`dispatch`](Self::dispatch) so a batch's bookkeeping stops
    /// allocating once the largest batch has been seen: the members'
    /// frame counts and completion times, the sessions already priced
    /// into the prospective window, and the `(session, load µs,
    /// evictions)` state reloads to journal.
    pub(super) frame_counts: Vec<u64>,
    pub(super) complete_us: Vec<f64>,
    pub(super) seen_sessions: Vec<u64>,
    pub(super) state_loads: Vec<(u64, f64, usize)>,
    /// Requests served to completion so far (sheds excluded).
    pub(super) completed: u64,
    /// Deadline-carrying requests that missed (sheds included).
    pub(super) deadline_misses: u64,
}

impl<'rt, 'p> SchedEngine<'rt, 'p> {
    /// An engine with an empty arrival stream and no closed-loop
    /// feedback — the cluster-shard shape, where every request arrives
    /// later via [`offer`](Self::offer). Its executor feeds `lane`.
    pub(crate) fn new(rt: &'rt SchedRuntime, lane: &Arc<Lane>) -> Self {
        Self::start(rt, lane, std::iter::empty(), None)
    }

    /// Builds the run state and executor for one run over an initial
    /// arrival stream (already validated; equal timestamps pop in
    /// iteration order), the executor feeding the run's inference
    /// `lane`. Virtual time starts at zero; nothing executes until
    /// [`run_until`](Self::run_until).
    pub(super) fn start(
        rt: &'rt SchedRuntime,
        lane: &Arc<Lane>,
        initial: impl Iterator<Item = Request>,
        feedback: Option<Feedback<'p>>,
    ) -> Self {
        let host_start = Instant::now();
        let devices = rt.platforms().len();
        let mut arrivals = BinaryHeap::with_capacity(initial.size_hint().0);
        for (seq, request) in initial.enumerate() {
            arrivals.push(Arrival {
                t_us: request.arrival_us,
                seq: seq as u64,
                request,
            });
        }
        SchedEngine {
            rt,
            executor: rt.make_executor(lane),
            host_start,
            offer_seq: arrivals.len() as u64,
            cost: CostModel::build(rt.platforms(), rt.registry()),
            free_at_us: vec![0.0; devices],
            busy_us: vec![0.0; devices],
            residency: rt
                .platforms()
                .iter()
                .map(|p| DeviceResidency::new(rt.policy.device_budget_bytes(p)))
                .collect(),
            queue: SchedQueue::new(rt.policy.discipline),
            responses: Vec::new(),
            stats: SchedStats::default(),
            arrivals,
            feedback,
            now_us: 0.0,
            admit_seq: 0,
            sessions: HashMap::new(),
            live_sessions: 0,
            faults: rt.config().fault_plan.timeline(devices),
            retries: HashMap::new(),
            obs: Observer::new(rt.config().trace),
            timeline: MetricsTimeline::new(rt.config().timeline, devices),
            health: HealthMonitor::new(rt.config().health, devices),
            frame_counts: Vec::new(),
            complete_us: Vec::new(),
            seen_sessions: Vec::new(),
            state_loads: Vec::new(),
            completed: 0,
            deadline_misses: 0,
        }
    }

    /// Runs the event loop to drain and closes the report — the whole
    /// of [`SchedRuntime::run`] after validation.
    pub(super) fn run_to_drain(mut self) -> SchedReport {
        self.run_until(f64::INFINITY);
        self.finish()
    }

    /// Injects one request into the arrival stream. A timestamp at or
    /// before the current virtual clock is fine — the event loop admits
    /// at `max(now, arrival)` like any arrival.
    ///
    /// # Panics
    ///
    /// Panics if the request fails the per-request checks of the load
    /// validator (non-finite arrival, NaN deadline, unregistered model,
    /// empty frames, dimension mismatch).
    pub(crate) fn offer(&mut self, request: Request) {
        validate_request(self.rt.registry(), &request);
        self.arrivals.push(Arrival {
            t_us: request.arrival_us,
            seq: self.offer_seq,
            request,
        });
        self.offer_seq += 1;
    }

    /// Runs the event loop forward, executing every event whose time is
    /// at or before `horizon_us`, and stops with the virtual clock at
    /// the last executed event. At `horizon_us = ∞` this is the
    /// complete run-to-drain loop of [`SchedRuntime::run`]. A full
    /// batch dispatches regardless of the horizon — forming it does not
    /// advance the clock.
    pub(crate) fn run_until(&mut self, horizon_us: f64) {
        loop {
            let next_arrival = self.arrivals.peek().map(|a| a.t_us);
            if self.queue.is_empty() {
                match next_arrival {
                    Some(t) if t <= horizon_us => self.admit_arrivals_at(t),
                    _ => break,
                }
                continue;
            }

            let head_model = self.queue.head().map(|r| r.model).unwrap_or_default();
            let full = self.queue.count_model(head_model) >= self.rt.policy.max_batch;
            // The flush clock anchors to the longest-waiting request, so
            // no request outwaits the budget regardless of its deadline
            // position.
            let flush_at = self
                .queue
                .oldest_arrival_us()
                .map(|t| t + self.rt.policy.max_wait_us)
                .unwrap_or(self.now_us);

            if full {
                self.dispatch();
            } else if let Some(t) = next_arrival.filter(|&t| t <= flush_at) {
                if t > horizon_us {
                    break;
                }
                self.admit_arrivals_at(t);
            } else {
                if flush_at > horizon_us {
                    break;
                }
                self.now_us = self.now_us.max(flush_at);
                self.capture_timeline(false);
                self.dispatch();
            }
        }
    }

    /// Advances the clock to the next arrival's time `t` and moves every
    /// arrival due by then through admission (the scheduler queue is
    /// unbounded — admission control, not queue capacity, is the
    /// back-pressure mechanism).
    fn admit_arrivals_at(&mut self, t: f64) {
        self.now_us = self.now_us.max(t);
        self.capture_timeline(false);
        self.apply_faults_up_to();
        while self.arrivals.peek().is_some_and(|a| a.t_us <= self.now_us) {
            let a = self.arrivals.pop().expect("peeked arrival exists");
            self.admit(a.request);
        }
    }

    /// The virtual time of the earliest event [`run_until`](Self::run_until)
    /// would execute: the next arrival while the queue is empty,
    /// otherwise the earlier of the next arrival and the max-wait flush
    /// of the longest-waiting queued request; `∞` when nothing is
    /// pending. `run_until(t)` with `t < next_event_us()` mutates
    /// nothing — a batch that is already full dispatches inside the
    /// `run_until` that filled it, never across a return — which is
    /// what lets the cluster router skip shards that are not due.
    pub(crate) fn next_event_us(&self) -> f64 {
        let next_arrival = self.arrivals.peek().map_or(f64::INFINITY, |a| a.t_us);
        match self.queue.oldest_arrival_us() {
            Some(oldest) => next_arrival.min(oldest + self.rt.policy.max_wait_us),
            None => next_arrival,
        }
    }

    /// Hands back everything admitted or in flight toward admission but
    /// not yet dispatched: the scheduler queue (in key order) followed
    /// by the undrained arrival heap (in time order). The shard-kill
    /// path — in-flight batches are unaffected (their virtual-time
    /// completion was committed at dispatch, the cluster-level analogue
    /// of connection draining).
    pub(crate) fn take_pending(&mut self) -> Vec<Request> {
        let mut pending = self.queue.drain();
        while let Some(a) = self.arrivals.pop() {
            pending.push(a.request);
        }
        pending
    }

    /// The live queue-delay EWMA (µs) — the load-feedback signal the
    /// cluster router steers on. Updates at every dispatch whether or
    /// not timeline sampling is enabled.
    pub(crate) fn ewma_queue_us(&self) -> f64 {
        self.timeline.ewma_queue_us()
    }

    /// Requests currently queued (admitted, not yet dispatched).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// How long a new arrival would wait to start: the earliest
    /// `free_at` across the pool as a delay from now, plus the queued
    /// requests' estimated service spread over the devices that are up
    /// — the admission predictor's backlog term. Unlike the queue-delay
    /// EWMA this is instantaneous, it sees work already dispatched to a
    /// slow device, and it rises the moment a request is admitted (so
    /// same-instant bursts spread instead of herding) — the primary
    /// least-work-left term in cluster load-feedback steering.
    pub(crate) fn backlog_us(&self) -> f64 {
        let device_wait = self
            .free_at_us
            .iter()
            .map(|&free| free - self.now_us)
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        device_wait + self.queued_work_per_live_device_us()
    }

    /// The queued requests' best-device solo estimates spread over the
    /// devices that are actually up — a crash shrinks the divisor and
    /// tightens admission. Identical to the pool size when no fault is
    /// active.
    fn queued_work_per_live_device_us(&self) -> f64 {
        let up = self.faults.devices_up(self.now_us).max(1);
        self.queue.backlog_us() / up as f64
    }

    /// Closed-form best-device service estimate for `frames` frames of
    /// `model` on this scheduler's own platform — the router prices
    /// work it has forwarded but that is still on the wire (invisible
    /// to [`SchedEngine::backlog_us`] until it lands).
    pub(crate) fn estimate_frames_us(&self, model: ModelId, frames: u64) -> f64 {
        (0..self.free_at_us.len())
            .map(|d| self.cost.estimate_frames_us(d, model, frames))
            .fold(f64::INFINITY, f64::min)
    }

    /// Streaming sessions currently live on this scheduler.
    pub(crate) fn live_sessions(&self) -> usize {
        self.live_sessions
    }

    /// Bytes resident across the pool's devices (weight + session-state
    /// images) — the per-shard residency gauge.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.residency.iter().map(|r| r.used_bytes()).sum()
    }

    /// Per-device busy time so far (virtual µs) — the cluster report
    /// flattens these into one pool-wide utilization vector.
    pub(crate) fn device_busy_us(&self) -> Vec<f64> {
        self.busy_us.clone()
    }

    /// Predicted absolute finish time (µs) of dispatching `total_frames`
    /// frames of `model` on `device` right now: device ready time, a
    /// cold-load stall if the weight image is not resident, and the
    /// closed-form service estimate. Shared by the admission predictor
    /// and cost-model placement so the two can never de-calibrate.
    ///
    /// Faults are priced in: a crashed device's ready time already
    /// sits at its recovery point (infinite for a permanent crash, so
    /// the prediction is infinite too), and a brownout active at the
    /// ready time stretches the service estimate by its cycle
    /// multiplier.
    pub(super) fn predicted_finish_us(
        &self,
        device: usize,
        model: ModelId,
        total_frames: u64,
    ) -> f64 {
        let load_us = if self.residency[device].is_resident(model) {
            0.0
        } else {
            DeviceResidency::load_us(self.rt.registry().weight_bytes(model))
        };
        let ready = self.now_us.max(self.free_at_us[device]);
        let mult = self.faults.cycle_multiplier(device, ready);
        let stages = self.cost.stages(device, model, mult);
        ready + load_us + CostModel::stream_us(stages, total_frames)
    }

    /// The device a request's streaming session is bound to, if any.
    fn bound_device(&self, request: &Request) -> Option<usize> {
        request
            .session()
            .and_then(|s| self.sessions.get(&s))
            .and_then(|e| e.device)
    }

    /// The admission predictor (see the `runtime` module docs for the
    /// formula). Returns `(predicted_complete_us, best_solo_est_us)`. A
    /// chunk of a device-bound session predicts over its pinned device
    /// only — session affinity means no other device can serve it.
    fn predict(&self, request: &Request) -> (f64, f64) {
        let m = request.model;
        let frames = request.num_frames() as u64;
        let bound = self.bound_device(request);
        let (mut best_finish, mut best_est) = (f64::INFINITY, f64::INFINITY);
        for d in 0..self.free_at_us.len() {
            if !self.rt.eligible(d, m) || bound.is_some_and(|b| b != d) {
                continue;
            }
            best_finish = best_finish.min(self.predicted_finish_us(d, m, frames));
            best_est = best_est.min(self.cost.estimate_frames_us(d, m, frames));
        }
        (
            best_finish + self.queued_work_per_live_device_us(),
            best_est,
        )
    }

    /// Cancels a streaming session: later chunks shed at admission and
    /// the session stops counting against the live cap. The state image
    /// (if any) stays in its device's LRU until evicted or until an
    /// already-queued chunk of the session dispatches.
    fn cancel_session(&mut self, session: u64) {
        let entry = self
            .sessions
            .entry(session)
            .or_insert(SessionEntry::unbound(false));
        if entry.counted {
            self.live_sessions -= 1;
            entry.counted = false;
        }
        entry.cancelled = true;
    }

    /// Runs one arrival through admission control: into the queue, or
    /// [`shed`](Self::shed).
    ///
    /// Streaming chunks add two shed conditions ahead of the latency
    /// predictor: a chunk of a cancelled session (an earlier chunk was
    /// shed — serving the rest would produce an incoherent transcript),
    /// and a first chunk arriving while
    /// [`RuntimeConfig::max_live_sessions`](crate::RuntimeConfig::max_live_sessions)
    /// sessions are already live. Shedding *any* chunk cancels its whole
    /// session.
    fn admit(&mut self, request: Request) {
        let (predicted_us, best_est) = self.predict(&request);
        // A retried first chunk already owns its live-session slot (the
        // entry survives the abort), so only a truly new session can
        // hit the cap — or needs an entry on admission.
        let new_session = match request.workload {
            Workload::Chunk {
                session, index: 0, ..
            } if !self.sessions.contains_key(&session) => Some(session),
            _ => None,
        };
        let cancelled = request
            .session()
            .and_then(|s| self.sessions.get(&s))
            .is_some_and(|e| e.cancelled);
        let over_cap = new_session.is_some()
            && self
                .rt
                .config()
                .max_live_sessions
                .is_some_and(|cap| self.live_sessions >= cap);
        let admitted = !cancelled
            && !over_cap
            && (self.rt.policy.admission == AdmissionPolicy::AdmitAll
                || request.deadline_us.is_none_or(|d| predicted_us <= d));
        self.stats.admission_log.push(AdmissionRecord {
            id: request.id,
            model: request.model,
            predicted_us,
            deadline_us: request.deadline_us,
            admitted,
        });
        if !admitted {
            // Classify the rejection. A predictor shed while a device
            // this request depends on is down is capacity loss, not an
            // infeasible deadline — the pool, not the request, is the
            // problem.
            let reason = if cancelled {
                ShedReason::SessionCancelled
            } else if over_cap {
                ShedReason::SessionLimit
            } else {
                let now = self.now_us;
                let down_dependency = match self.bound_device(&request) {
                    Some(d) => self.faults.is_down(d, now),
                    None => (0..self.free_at_us.len())
                        .any(|d| self.rt.eligible(d, request.model) && self.faults.is_down(d, now)),
                };
                if down_dependency {
                    ShedReason::CapacityLoss
                } else {
                    ShedReason::DeadlineInfeasible
                }
            };
            return self.shed(request, self.now_us, predicted_us, reason);
        }
        if let Some(session) = new_session {
            self.sessions.insert(session, SessionEntry::unbound(true));
            self.live_sessions += 1;
        }
        self.stats.admitted += 1;
        self.obs.record(TraceEvent::Admit {
            t_us: self.now_us,
            id: request.id,
            model: request.model,
            predicted_us,
        });
        self.obs.record(TraceEvent::Enqueue {
            t_us: self.now_us,
            id: request.id,
            model: request.model,
            depth: self.queue.len() + 1,
        });
        let seq = self.admit_seq;
        self.admit_seq += 1;
        self.queue.push(request, seq, best_est);
    }

    /// The one shed path: every request this scheduler refuses — at
    /// admission (`predicted_us` is the predictor's estimate) or at
    /// dispatch once capacity is gone (`predicted_us = ∞`) — leaves
    /// through here at decision time `t_us`: retry record dropped, session
    /// cancelled (the served / shed partition stays exact), shed and —
    /// for a deadline-carrying request — deadline miss counted, journal,
    /// immediate shed [`Response`], and the closed-loop client resubmits
    /// right away, which is how shedding keeps a saturating loop saturating.
    pub(super) fn shed(
        &mut self,
        request: Request,
        t_us: f64,
        predicted_us: f64,
        reason: ShedReason,
    ) {
        self.retries.remove(&request.id);
        if let Some(session) = request.session() {
            self.cancel_session(session);
        }
        self.stats.shed += 1;
        if request.deadline_us.is_some() {
            self.deadline_misses += 1;
        }
        self.obs.shed(t_us, &request, predicted_us);
        self.responses.push(Response::shed_with(
            request.id,
            request.model,
            request.workload,
            request.arrival_us,
            request.deadline_us,
            reason,
        ));
        self.feedback_arrival(t_us);
    }

    /// Mints the next closed-loop replacement arriving at `t_us`.
    pub(super) fn feedback_arrival(&mut self, t_us: f64) {
        let Some((fb, payloads)) = self.feedback.as_mut() else {
            return;
        };
        if fb.issued >= fb.total {
            return;
        }
        let issued = fb.issued;
        fb.issued += 1;
        let request = fb.mint(payloads, issued, t_us);
        self.arrivals.push(Arrival {
            t_us,
            seq: issued as u64,
            request,
        });
    }

    /// Emits any timeline samples due at `now_us` (plus the final
    /// off-grid sample when `final_flush` is set), runs the health
    /// rules over them, and journals each firing.
    pub(super) fn capture_timeline(&mut self, final_flush: bool) {
        if !self.timeline.is_enabled() {
            return;
        }
        let (mut weights_bytes, mut state_bytes) = (0u64, 0u64);
        for residency in &self.residency {
            let (w, s) = residency.used_bytes_by_class();
            weights_bytes += w;
            state_bytes += s;
        }
        // The timeline stamps the time, EWMA and utilization fields.
        let sample = TimelineSample {
            queue_depth: self.queue.len(),
            oldest_wait_us: self
                .queue
                .oldest_arrival_us()
                .map_or(0.0, |a| (self.now_us - a).max(0.0)),
            live_sessions: self.live_sessions,
            weights_bytes,
            state_bytes,
            completed: self.completed,
            shed: self.stats.shed as u64,
            deadline_misses: self.deadline_misses,
            weight_loads: self.stats.model_loads,
            state_loads: self.stats.state_loads,
            retries: self.stats.retries_scheduled,
            ..TimelineSample::default()
        };
        let emitted = if final_flush {
            self.timeline
                .finish_sample(self.now_us, &sample, &self.busy_us)
        } else {
            self.timeline.advance(self.now_us, &sample, &self.busy_us)
        };
        let (start, end) = self.health.on_samples(&self.timeline, emitted);
        for event in &self.health.events()[start..end] {
            self.obs.record(TraceEvent::Health {
                t_us: event.t_us,
                rule: event.rule,
                device: event.device,
                value: event.value,
                threshold: event.threshold,
            });
        }
    }
}
