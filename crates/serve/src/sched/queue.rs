//! The scheduler's request queue: deadline-ordered (EDF) or
//! arrival-ordered (FIFO), with per-model batch formation gated by a
//! padding cost model.
//!
//! Under EDF the queue key is the request's absolute deadline (requests
//! without one sort last), so the head is always the most urgent work.
//! Batches form *per model* — a dispatched batch runs one model on one
//! device — by walking the queue in key order and taking the head
//! model's requests until the batch fills, the padding model says mixing
//! stops paying, or the same-model candidates run out. Because formation
//! always takes a *prefix* of the same-model subsequence (it closes the
//! batch at the first padding rejection instead of skipping past it),
//! formed batches can never invert deadlines: every member's key is ≤
//! every same-model key left behind. The property test in
//! `tests/sched_edf.rs` pins that down.
//!
//! Streaming chunks batch **across sessions at the same chunk
//! boundary** — several sessions' chunks ride one lockstep batch, each
//! lane resuming its own recurrent state — under two more *closing*
//! rules: a batch closes before a second chunk of a session already in
//! it (two lanes of one session would double-apply state), and before a
//! chunk whose session is bound to a different device than the batch is
//! pinned to (state never migrates outside failover). Both stop
//! formation rather than skip, so the prefix/no-inversion property is
//! untouched — and because session validation requires per-session
//! deadlines to be non-decreasing, a chunk's predecessor always sorts
//! ahead of it, so these rules are also what serialize a session's
//! chunks into distinct batches in order.

use super::registry::ModelId;
use crate::request::Request;
use std::collections::BTreeMap;

/// How the queue orders requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Arrival order — classic dynamic batching, blind to deadlines.
    Fifo,
    /// Earliest deadline first; deadline-free requests sort last.
    #[default]
    Edf,
}

/// When does mixing unequal utterance lengths into one batch stop
/// paying?
///
/// Host-side inference is batch-fused: the kernels walk the batch in
/// lockstep over the longest member's frames, so short utterances ride
/// along as padding. The padded fraction `(B·max_len − Σlen) / B·max_len`
/// is pure overhead; once adding the next candidate would push it past
/// `max_pad_frac`, the batch closes instead of growing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaddingModel {
    /// Maximum tolerated padded-work fraction in `[0, 1]`. `1.0` never
    /// closes a batch (pure EDF/FIFO formation).
    pub max_pad_frac: f64,
}

impl PaddingModel {
    /// No padding limit: batches close on size alone.
    pub fn none() -> Self {
        PaddingModel { max_pad_frac: 1.0 }
    }

    /// Closes batches whose padded-work fraction would exceed
    /// `max_pad_frac`.
    ///
    /// # Panics
    ///
    /// Panics if `max_pad_frac` is outside `[0, 1]`.
    pub fn new(max_pad_frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&max_pad_frac),
            "padding fraction must be in [0, 1], got {max_pad_frac}"
        );
        PaddingModel { max_pad_frac }
    }

    /// Whether a batch of `members` utterances (longest `max_len`, total
    /// `sum_len` frames) should accept another of `next_len` frames.
    /// A batch's first member is always accepted.
    pub fn accepts(&self, members: usize, max_len: u64, sum_len: u64, next_len: u64) -> bool {
        if members == 0 {
            return true;
        }
        let new_members = (members + 1) as u64;
        let new_max = max_len.max(next_len);
        let new_sum = sum_len + next_len;
        let padded = new_members * new_max;
        let pad_frac = (padded - new_sum) as f64 / padded as f64;
        pad_frac <= self.max_pad_frac
    }
}

/// One queued request with the admission-time service estimate backing
/// the backlog predictor.
#[derive(Debug)]
struct Queued {
    /// Best-device solo service estimate (µs), summed into
    /// [`SchedQueue::backlog_us`].
    est_solo_us: f64,
    request: Request,
}

/// Maps an `f64` ordering key onto `u64` such that unsigned comparison
/// agrees with [`f64::total_cmp`] — the standard order-preserving bit
/// trick, so the B-tree can index float keys without a wrapper type.
#[inline]
fn key_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A formed batch plus its device constraint.
#[derive(Debug)]
pub struct TakenBatch {
    /// The batch members, in queue order.
    pub batch: Vec<Request>,
    /// Device the batch must run on (some member's session is bound
    /// there), or `None` when placement is free.
    pub pinned: Option<usize>,
}

/// The scheduler's central queue, ordered by `(key, seq)` where the key
/// is the deadline (EDF) or arrival time (FIFO).
///
/// Indexed for deep backlogs (the ROADMAP's overload item): the order is
/// a B-tree keyed on the order-preserving bits of the `f64` key plus the
/// admission sequence, so [`Self::push`] and per-item removal are
/// O(log n); per-model counts and an arrival multiset are maintained
/// incrementally, so [`Self::count_model`] and
/// [`Self::oldest_arrival_us`] are O(1) lookups instead of O(n) scans —
/// the pieces that made an event-loop pass O(n²) under a deep backlog.
/// Batch formation semantics are unchanged from the scan implementation
/// (the deep-backlog regression test below proves formation-sequence
/// equality against a reference scan).
#[derive(Debug)]
pub struct SchedQueue {
    discipline: QueueDiscipline,
    /// `(key_bits, seq) → request`; iteration order is exactly the old
    /// sorted-vec order because `(key, seq)` is unique per entry.
    items: BTreeMap<(u64, u64), Queued>,
    /// Queued request count per model id (dense, grown on demand).
    model_counts: Vec<usize>,
    /// Multiset of queued arrival times: `arrival key bits →
    /// (representative arrival, count)`.
    arrivals: BTreeMap<u64, (f64, usize)>,
    backlog_us: f64,
    /// [`Self::take_batch`] scratch, grown once to the largest batch:
    /// the keys selected for removal and the sessions already in the
    /// forming batch.
    take: Vec<(u64, u64)>,
    sessions_in: Vec<u64>,
}

impl SchedQueue {
    /// An empty queue under the given discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        SchedQueue {
            discipline,
            items: BTreeMap::new(),
            model_counts: Vec::new(),
            arrivals: BTreeMap::new(),
            backlog_us: 0.0,
            take: Vec::new(),
            sessions_in: Vec::new(),
        }
    }

    /// The ordering discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sum of the queued requests' admission-time solo service estimates
    /// (µs) — the backlog term of the admission predictor.
    pub fn backlog_us(&self) -> f64 {
        self.backlog_us
    }

    /// Enqueues an admitted request. `seq` must be unique and increasing
    /// (admission order); `est_solo_us` is the request's best-device solo
    /// service estimate. O(log n).
    pub fn push(&mut self, request: Request, seq: u64, est_solo_us: f64) {
        let key = match self.discipline {
            QueueDiscipline::Fifo => request.arrival_us,
            QueueDiscipline::Edf => request.deadline_us.unwrap_or(f64::INFINITY),
        };
        if request.model >= self.model_counts.len() {
            self.model_counts.resize(request.model + 1, 0);
        }
        self.model_counts[request.model] += 1;
        self.arrivals
            .entry(key_bits(request.arrival_us))
            .or_insert((request.arrival_us, 0))
            .1 += 1;
        self.items.insert(
            (key_bits(key), seq),
            Queued {
                est_solo_us,
                request,
            },
        );
        self.backlog_us += est_solo_us;
    }

    /// The most urgent queued request (the next batch's model anchor).
    pub fn head(&self) -> Option<&Request> {
        self.items.values().next().map(|q| &q.request)
    }

    /// Earliest arrival among queued requests (µs) — the max-wait flush
    /// clock is anchored to the longest-waiting request regardless of
    /// discipline. O(1) via the incrementally maintained arrival
    /// multiset.
    pub fn oldest_arrival_us(&self) -> Option<f64> {
        self.arrivals.values().next().map(|&(arrival, _)| arrival)
    }

    /// Number of queued requests targeting `model`. O(1) via the
    /// incrementally maintained per-model counts.
    pub fn count_model(&self, model: ModelId) -> usize {
        self.model_counts.get(model).copied().unwrap_or(0)
    }

    /// Removes one entry's bookkeeping (model count, arrival multiset,
    /// backlog estimate).
    fn forget(&mut self, q: &Queued) {
        self.model_counts[q.request.model] -= 1;
        let bits = key_bits(q.request.arrival_us);
        let slot = self
            .arrivals
            .get_mut(&bits)
            .expect("queued arrival is in the multiset");
        slot.1 -= 1;
        if slot.1 == 0 {
            self.arrivals.remove(&bits);
        }
        self.backlog_us -= q.est_solo_us;
    }

    /// Removes and returns every queued request in key order, resetting
    /// all bookkeeping — the shard-failover path: a killed shard hands
    /// its undispatched backlog back to the cluster router for
    /// rerouting (or shedding) on the survivors.
    pub fn drain(&mut self) -> Vec<Request> {
        let items = std::mem::take(&mut self.items);
        self.model_counts.iter_mut().for_each(|c| *c = 0);
        self.arrivals.clear();
        self.backlog_us = 0.0;
        items.into_values().map(|q| q.request).collect()
    }

    /// Forms the next batch for `model`: up to `max_batch` requests in
    /// key order, closing early when the padding model rejects the next
    /// candidate or at a streaming-session conflict (a second chunk of a
    /// session already taken, or a chunk whose `affinity` device
    /// disagrees with the batch's pin — see module docs). Always a prefix
    /// of the same-model subsequence, so deadlines never invert.
    pub fn take_batch(
        &mut self,
        model: ModelId,
        max_batch: usize,
        padding: &PaddingModel,
        affinity: &dyn Fn(u64) -> Option<usize>,
    ) -> TakenBatch {
        // Moved out for the removal loop below, which needs all of `self`.
        let mut take = std::mem::take(&mut self.take);
        self.sessions_in.clear();
        let mut pinned: Option<usize> = None;
        let (mut max_len, mut sum_len) = (0u64, 0u64);
        for (&key, q) in self.items.iter() {
            if q.request.model != model {
                continue;
            }
            let bound = match q.request.session() {
                Some(session) if self.sessions_in.contains(&session) => break,
                Some(session) => {
                    let bound = affinity(session);
                    if let (Some(d), Some(p)) = (bound, pinned) {
                        if d != p {
                            break;
                        }
                    }
                    bound
                }
                None => None,
            };
            let len = q.request.num_frames() as u64;
            if !padding.accepts(take.len(), max_len, sum_len, len) {
                break;
            }
            max_len = max_len.max(len);
            sum_len += len;
            if let Some(session) = q.request.session() {
                self.sessions_in.push(session);
            }
            if bound.is_some() {
                pinned = bound;
            }
            take.push(key);
            if take.len() >= max_batch {
                break;
            }
        }
        let mut batch = Vec::with_capacity(take.len());
        for key in take.drain(..) {
            let q = self.items.remove(&key).expect("key was just observed");
            self.forget(&q);
            batch.push(q.request);
        }
        self.take = take;
        // Rounding drift from the running sum cannot go negative.
        if self.items.is_empty() {
            self.backlog_us = 0.0;
        }
        TakenBatch { batch, pinned }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Workload;

    fn req(id: u64, model: usize, frames: usize, arrival: f64, deadline: Option<f64>) -> Request {
        let mut r = Request::new(id, vec![vec![0.0; 2]; frames], arrival).with_model(model);
        r.deadline_us = deadline;
        r
    }

    /// No sessions bound anywhere: formation is unconstrained.
    fn unbound(_session: u64) -> Option<usize> {
        None
    }

    #[test]
    fn edf_orders_by_deadline_with_deadline_free_last() {
        let mut q = SchedQueue::new(QueueDiscipline::Edf);
        q.push(req(0, 0, 3, 0.0, Some(500.0)), 0, 1.0);
        q.push(req(1, 0, 3, 1.0, None), 1, 1.0);
        q.push(req(2, 0, 3, 2.0, Some(100.0)), 2, 1.0);
        assert_eq!(q.head().unwrap().id, 2);
        let batch = q.take_batch(0, 8, &PaddingModel::none(), &unbound).batch;
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 0, 1]);
        assert!(q.is_empty());
        assert_eq!(q.backlog_us(), 0.0);
    }

    #[test]
    fn fifo_orders_by_arrival_ignoring_deadlines() {
        let mut q = SchedQueue::new(QueueDiscipline::Fifo);
        q.push(req(0, 0, 3, 5.0, Some(10.0)), 0, 1.0);
        q.push(req(1, 0, 3, 1.0, Some(9999.0)), 1, 1.0);
        assert_eq!(q.head().unwrap().id, 1);
        assert_eq!(q.oldest_arrival_us(), Some(1.0));
    }

    #[test]
    fn batches_are_per_model_in_key_order() {
        let mut q = SchedQueue::new(QueueDiscipline::Edf);
        q.push(req(0, 1, 3, 0.0, Some(50.0)), 0, 1.0);
        q.push(req(1, 0, 3, 0.0, Some(60.0)), 1, 1.0);
        q.push(req(2, 1, 3, 0.0, Some(70.0)), 2, 1.0);
        assert_eq!(q.count_model(1), 2);
        let batch = q.take_batch(1, 8, &PaddingModel::none(), &unbound).batch;
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2]);
        // The other model's request stays queued.
        assert_eq!(q.len(), 1);
        assert_eq!(q.head().unwrap().id, 1);
    }

    #[test]
    fn padding_model_closes_mixed_length_batches() {
        // 2 short + 1 long: padded work (3 × 40 − 48) / 120 = 0.6.
        let p = PaddingModel::new(0.5);
        assert!(p.accepts(0, 0, 0, 4));
        assert!(p.accepts(1, 4, 4, 4));
        assert!(!p.accepts(2, 4, 8, 40));
        // The no-op model accepts anything.
        assert!(PaddingModel::none().accepts(2, 4, 8, 40_000));

        let mut q = SchedQueue::new(QueueDiscipline::Edf);
        q.push(req(0, 0, 4, 0.0, Some(10.0)), 0, 1.0);
        q.push(req(1, 0, 4, 0.0, Some(20.0)), 1, 1.0);
        q.push(req(2, 0, 40, 0.0, Some(30.0)), 2, 1.0);
        q.push(req(3, 0, 4, 0.0, Some(40.0)), 3, 1.0);
        let batch = q.take_batch(0, 8, &p, &unbound).batch;
        // The long utterance closes the batch — and because formation
        // stops (rather than skipping), request 3 is NOT pulled ahead of
        // request 2's deadline.
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(q.head().unwrap().id, 2);
    }

    #[test]
    fn ties_break_by_admission_seq() {
        let mut q = SchedQueue::new(QueueDiscipline::Edf);
        q.push(req(10, 0, 3, 0.0, Some(100.0)), 0, 1.0);
        q.push(req(11, 0, 3, 0.0, Some(100.0)), 1, 1.0);
        q.push(req(12, 0, 3, 0.0, None), 2, 1.0);
        q.push(req(13, 0, 3, 0.0, None), 3, 1.0);
        let ids: Vec<u64> = q
            .take_batch(0, 8, &PaddingModel::none(), &unbound)
            .batch
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![10, 11, 12, 13]);
    }

    fn chunk(id: u64, session: u64, index: u32, arrival: f64) -> Request {
        Request::chunk(id, session, index, false, vec![vec![0.0; 2]], arrival)
    }

    fn ids(taken: &TakenBatch) -> Vec<u64> {
        taken.batch.iter().map(|r| r.id).collect()
    }

    #[test]
    fn batch_closes_before_a_second_chunk_of_one_session() {
        let mut q = SchedQueue::new(QueueDiscipline::Fifo);
        q.push(chunk(0, 7, 0, 0.0), 0, 1.0);
        q.push(chunk(1, 8, 0, 1.0), 1, 1.0); // different session: batches fine
        q.push(chunk(2, 7, 1, 2.0), 2, 1.0); // same session again: closes batch
        q.push(req(3, 0, 1, 3.0, None), 3, 1.0);
        let first = q.take_batch(0, 4, &PaddingModel::none(), &unbound);
        assert_eq!(ids(&first), vec![0, 1]);
        let second = q.take_batch(0, 4, &PaddingModel::none(), &unbound);
        assert_eq!(ids(&second), vec![2, 3]);
    }

    #[test]
    fn batch_closes_at_an_affinity_conflict_and_reports_the_pin() {
        let mut q = SchedQueue::new(QueueDiscipline::Fifo);
        q.push(chunk(0, 7, 0, 0.0), 0, 1.0); // bound to device 1
        q.push(req(1, 0, 1, 0.5, None), 1, 1.0); // utterances ride along freely
        q.push(chunk(2, 8, 0, 1.0), 2, 1.0); // bound to device 0: conflict
        let bind = |s: u64| Some(if s == 7 { 1 } else { 0 });
        let first = q.take_batch(0, 4, &PaddingModel::none(), &bind);
        assert_eq!(ids(&first), vec![0, 1]);
        assert_eq!(first.pinned, Some(1));
        let second = q.take_batch(0, 4, &PaddingModel::none(), &bind);
        assert_eq!(ids(&second), vec![2]);
        assert_eq!(second.pinned, Some(0));
    }

    /// The pre-index implementation, verbatim: a `(key, seq)`-sorted vec
    /// with O(n) scans — the reference the indexed queue must match
    /// batch for batch.
    struct ScanQueue {
        discipline: QueueDiscipline,
        items: Vec<(f64, u64, Request)>,
    }

    impl ScanQueue {
        fn new(discipline: QueueDiscipline) -> Self {
            ScanQueue {
                discipline,
                items: Vec::new(),
            }
        }

        fn push(&mut self, request: Request, seq: u64) {
            let key = match self.discipline {
                QueueDiscipline::Fifo => request.arrival_us,
                QueueDiscipline::Edf => request.deadline_us.unwrap_or(f64::INFINITY),
            };
            let pos = self
                .items
                .partition_point(|(k, s, _)| (*k, *s) <= (key, seq));
            self.items.insert(pos, (key, seq, request));
        }

        fn oldest_arrival_us(&self) -> Option<f64> {
            self.items
                .iter()
                .map(|(_, _, r)| r.arrival_us)
                .min_by(f64::total_cmp)
        }

        fn count_model(&self, model: usize) -> usize {
            self.items
                .iter()
                .filter(|(_, _, r)| r.model == model)
                .count()
        }

        fn take_batch(
            &mut self,
            model: usize,
            max_batch: usize,
            padding: &PaddingModel,
            affinity: &dyn Fn(u64) -> Option<usize>,
        ) -> (Vec<Request>, Option<usize>) {
            let mut take = Vec::new();
            let mut sessions_in: Vec<u64> = Vec::new();
            let mut pinned: Option<usize> = None;
            let (mut max_len, mut sum_len) = (0u64, 0u64);
            for (i, (_, _, r)) in self.items.iter().enumerate() {
                if r.model != model {
                    continue;
                }
                let bound = match r.session() {
                    Some(session) if sessions_in.contains(&session) => break,
                    Some(session) => {
                        let bound = affinity(session);
                        if let (Some(d), Some(p)) = (bound, pinned) {
                            if d != p {
                                break;
                            }
                        }
                        bound
                    }
                    None => None,
                };
                let len = r.num_frames() as u64;
                if !padding.accepts(take.len(), max_len, sum_len, len) {
                    break;
                }
                max_len = max_len.max(len);
                sum_len += len;
                if let Some(session) = r.session() {
                    sessions_in.push(session);
                }
                if bound.is_some() {
                    pinned = bound;
                }
                take.push(i);
                if take.len() >= max_batch {
                    break;
                }
            }
            let mut batch = Vec::with_capacity(take.len());
            for &i in take.iter().rev() {
                batch.push(self.items.remove(i).2);
            }
            batch.reverse();
            (batch, pinned)
        }
    }

    #[test]
    fn deep_backlog_formation_matches_the_scan_implementation() {
        // A deep overload backlog (thousands queued, duplicate deadlines,
        // deadline-free stragglers, several models) drained by interleaved
        // pushes and take_batch calls: the indexed queue must form exactly
        // the batches the O(n²) scan implementation formed, in the same
        // order, for both disciplines.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            // SplitMix64 — deterministic, no external dependency.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // A third of sessions are bound to a device; formation in both
        // implementations must respect the same pins.
        let affinity = |s: u64| -> Option<usize> {
            match s % 3 {
                0 => None,
                m => Some((m - 1) as usize),
            }
        };
        for discipline in [QueueDiscipline::Edf, QueueDiscipline::Fifo] {
            let mut indexed = SchedQueue::new(discipline);
            let mut scan = ScanQueue::new(discipline);
            let padding = PaddingModel::new(0.5);
            let mut seq = 0u64;
            // Phase 1: build a deep backlog.
            for _ in 0..4_000 {
                let model = (rand() % 3) as usize;
                let frames = 1 + (rand() % 50) as usize;
                // Coarse buckets force duplicate keys and arrivals so the
                // (key, seq) tie-break is exercised heavily.
                let arrival = (rand() % 400) as f64 * 5.0;
                let deadline = match rand() % 4 {
                    0 => None,
                    _ => Some(arrival + (rand() % 200) as f64 * 10.0),
                };
                let mut r = req(seq, model, frames, arrival, deadline);
                // A quarter of the load is streaming chunks drawn from a
                // small session pool, so both closing rules fire often.
                // (The queue orders and forms; it does not validate
                // session shape, so arbitrary chunks are fine here.)
                if rand() % 4 == 0 {
                    r.workload = Workload::Chunk {
                        session: rand() % 12,
                        index: 0,
                        last: false,
                    };
                }
                indexed.push(r.clone(), seq, 1.0);
                scan.push(r, seq);
                seq += 1;
            }
            // Phase 2: drain with interleaved pushes, checking every
            // observable along the way.
            while !scan.items.is_empty() {
                let model = (rand() % 3) as usize;
                assert_eq!(indexed.count_model(model), scan.count_model(model));
                assert_eq!(indexed.oldest_arrival_us(), scan.oldest_arrival_us());
                let max_batch = 1 + (rand() % 16) as usize;
                let a = indexed.take_batch(model, max_batch, &padding, &affinity);
                let (b_batch, b_pinned) = scan.take_batch(model, max_batch, &padding, &affinity);
                assert_eq!(
                    a.batch.iter().map(|r| r.id).collect::<Vec<_>>(),
                    b_batch.iter().map(|r| r.id).collect::<Vec<_>>(),
                    "{discipline:?} batch diverged at {} remaining",
                    scan.items.len()
                );
                assert_eq!(a.pinned, b_pinned);
                if rand() % 3 == 0 {
                    let r = req(seq, (rand() % 3) as usize, 4, (rand() % 100) as f64, None);
                    indexed.push(r.clone(), seq, 1.0);
                    scan.push(r, seq);
                    seq += 1;
                }
            }
            assert!(indexed.is_empty());
            assert_eq!(indexed.backlog_us(), 0.0);
            assert_eq!(indexed.oldest_arrival_us(), None);
        }
    }

    #[test]
    fn backlog_tracks_queued_estimates() {
        let mut q = SchedQueue::new(QueueDiscipline::Edf);
        q.push(req(0, 0, 3, 0.0, Some(1.0)), 0, 10.0);
        q.push(req(1, 0, 3, 0.0, Some(2.0)), 1, 7.0);
        assert!((q.backlog_us() - 17.0).abs() < 1e-12);
        let _ = q.take_batch(0, 1, &PaddingModel::none(), &unbound);
        assert!((q.backlog_us() - 7.0).abs() < 1e-12);
    }
}
