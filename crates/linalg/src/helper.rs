//! The second core: the one protocol by which a caller hands part of
//! its work to a helper thread (see the crate docs, "Two cores"). It is
//! generic over the work, [`HelperJob`], and has two instances: the
//! block-circulant matvec's tiles (this crate) and a quantized forward's
//! lanes (`ernn_fpga::exec`). Each instance is one process-wide thread
//! with one job slot; the protocol is written once, here.
//!
//! A caller *claims* the helper with one atomic try-claim, *posts* a job
//! into the one job slot, runs its own part and then *collects*: if the
//! helper has not started the job by then, the caller takes it back and
//! runs it itself, so a sleeping, busy or descheduled helper costs the
//! call the posting and nothing more. A helper that started but is not
//! done once the caller has waited as long again as its own part took —
//! descheduled mid-job — is left to finish into its own buffers while the
//! caller runs the job's work too, so no call takes longer than one and a
//! half serial calls whatever the helper does. A caller that loses the
//! claim, or finds the helper still on a job it was left with, runs
//! everything itself. The job slot is a `Mutex` that is never contended:
//! the claimant locks it only while no job is running, and the helper only
//! while one is.
//!
//! The helper measures what one job counted on its own FFT ledger
//! ([`stats::thread_snapshot`]) and [`Claim::collect`] [`stats::charge`]s
//! it to the caller, so a delegated job's counts land on the calling
//! thread.

use ernn_fft::stats::{self, FftStats};
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// The longest the helper waits for the next job, spinning, before it
/// parks. After a job it spins no longer than that job took, so it never
/// spends more of its core waiting than working: the second core is not
/// free on every machine (a hypervisor may time-slice a guest's two cores
/// on one), and there a spinning helper slows the caller's own thread.
///
/// Parked, it sleeps until a caller posts again. A caller that finds it
/// asleep wakes it and, since waking takes longer than a half, usually
/// takes its job back; the woken helper spins again, so the next post
/// finds it awake. A stream that posts again within the time a job takes
/// keeps it awake.
pub const HELPER_SPIN: Duration = Duration::from_micros(100);

/// Misses in excess of helped calls at which the helper *rests*. A miss is
/// a job the caller ran itself: not started by the time its own part was
/// done, or not finished after as long again. While the helper rests,
/// split-size calls run serially and post nothing, so it parks and its
/// core goes idle: on a machine whose second core is not really free — a
/// hypervisor that time-slices a guest's two cores on one, a sibling busy
/// with other work — a helper that keeps trying slows the caller more
/// than it helps, and resting returns the call to the serial kernel's
/// speed.
const MISS_LIMIT: u32 = 8;

/// The first rest. A rest ends with a probe — the next split-size call
/// posts and wakes the parked helper — and one followed by more misses
/// before a helped call doubles the next, up to [`MAX_REST`].
const MIN_REST: Duration = Duration::from_millis(1);

/// The longest rest.
const MAX_REST: Duration = Duration::from_millis(64);

// The job slot's states. `IDLE` and `DONE` are free to post into; `DONE`
// also holds the finished job its poster collects.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;
/// A spawned worker that has not finished setting itself up.
const STARTING: u8 = 4;

/// What one helper has done since the process started (see
/// [`crate::split_stats`] for the tile helper's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Calls whose delegated part the helper ran.
    pub helper_ran: u64,
    /// Calls that posted their delegated part and ran it themselves
    /// because the helper had not started it by the time their own part
    /// was done, or had not finished it after the caller waited as long
    /// again.
    pub taken_back: u64,
    /// Split-size calls that found the helper claimed by another thread
    /// (or, for the tile helper, held by a forward that splits its lanes),
    /// or still running a part its caller stopped waiting for, and ran
    /// everything themselves.
    pub busy: u64,
    /// Split-size calls that ran everything themselves because the helper
    /// was resting after repeated misses.
    pub rested: u64,
}

impl SplitStats {
    /// Component-wise difference since an earlier reading.
    pub fn since(&self, earlier: &SplitStats) -> SplitStats {
        SplitStats {
            helper_ran: self.helper_ran - earlier.helper_ran,
            taken_back: self.taken_back - earlier.taken_back,
            busy: self.busy - earlier.busy,
            rested: self.rested - earlier.rested,
        }
    }
}

/// Work a [`Helper`] runs for the caller that posted it. The caller fills
/// the job in [`Claim::post`] — growing every buffer the job writes, so
/// the helper thread never allocates — and reads it back from
/// [`Claim::collect`].
pub trait HelperJob: Default + Send + 'static {
    /// Runs the job on the helper thread.
    fn run(&mut self);

    /// Drops what the job shares with its caller for one run (a matrix's
    /// weights, a network), so an idle slot keeps nothing alive. Called
    /// once the job ran or was taken back.
    fn release(&mut self);
}

/// A job and what running it on the helper thread came to.
#[derive(Debug, Default)]
struct Slot<J> {
    job: J,
    /// What running the job counted on the helper's ledger.
    fft: FftStats,
    /// The job panicked on the helper thread.
    panicked: bool,
}

/// One helper thread and its job slot, for jobs of type `J`.
#[derive(Debug)]
pub struct Helper<J> {
    /// Held by the one caller that may post: taken with `Acquire`, freed
    /// with `Release`, so each claimant sees what the last one left.
    claimed: AtomicBool,
    /// `POSTED` (caller) → `RUNNING` (helper) → `DONE` (helper); or
    /// `POSTED` → `IDLE` when the caller takes the job back. Each store
    /// is `Release` (or `SeqCst`) and each load that acts on it `Acquire`;
    /// the job's contents travel under its `Mutex` besides.
    state: AtomicU8,
    slot: Mutex<Slot<J>>,
    /// The worker thread, once started.
    thread: OnceLock<Thread>,
    /// The worker is parked, or about to park.
    parked: AtomicBool,
    /// Misses in excess of helped calls (see [`MISS_LIMIT`]). This and the
    /// two rest fields are only touched by the claimant (`Relaxed`: the
    /// claim orders them), the counts below are statistics.
    misses: AtomicU32,
    /// End of the current rest in ns since `epoch`, 0 when not resting.
    rest_until: AtomicU64,
    /// Length of the next rest, in ns.
    next_rest: AtomicU64,
    epoch: Instant,
    ran: AtomicU64,
    taken_back: AtomicU64,
    busy: AtomicU64,
    rested: AtomicU64,
}

impl<J: HelperJob> Default for Helper<J> {
    fn default() -> Self {
        Helper::new()
    }
}

impl<J: HelperJob> Helper<J> {
    /// A helper with no thread behind it: every job posted to it is taken
    /// back.
    pub fn new() -> Self {
        Helper {
            claimed: AtomicBool::new(false),
            state: AtomicU8::new(IDLE),
            slot: Mutex::new(Slot::default()),
            thread: OnceLock::new(),
            parked: AtomicBool::new(false),
            misses: AtomicU32::new(0),
            rest_until: AtomicU64::new(0),
            next_rest: AtomicU64::new(MIN_REST.as_nanos() as u64),
            epoch: Instant::now(),
            ran: AtomicU64::new(0),
            taken_back: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            rested: AtomicU64::new(0),
        }
    }

    /// A helper that lives as long as the process, its thread (named
    /// `name`) started. Returns once the thread has done everything it
    /// allocates for, so whatever the caller counts after this is the jobs
    /// alone.
    pub fn spawn(name: &str) -> &'static Self {
        let helper: &'static Self = Box::leak(Box::new(Helper::new()));
        helper.state.store(STARTING, Ordering::Relaxed);
        let worker = thread::Builder::new()
            .name(name.into())
            .spawn(|| helper.serve())
            .expect("spawn a helper thread");
        helper
            .thread
            .set(worker.thread().clone())
            .expect("one thread per helper");
        while helper.state.load(Ordering::Acquire) == STARTING {
            thread::yield_now();
        }
        helper
    }

    /// The process-wide helper kept in `cell`: spawned by the first call,
    /// `None` forever when the machine has one core. Each instance of the
    /// protocol owns one such cell.
    pub fn process(
        cell: &'static OnceLock<Option<&'static Self>>,
        name: &str,
    ) -> Option<&'static Self> {
        *cell.get_or_init(|| {
            let cores = thread::available_parallelism().map_or(1, usize::from);
            (cores >= 2).then(|| Self::spawn(name))
        })
    }

    /// What this helper has done so far.
    pub fn stats(&self) -> SplitStats {
        SplitStats {
            helper_ran: self.ran.load(Ordering::Relaxed),
            taken_back: self.taken_back.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            rested: self.rested.load(Ordering::Relaxed),
        }
    }

    /// The right to post one job, or `None` when another thread holds it
    /// or the helper is still on a job its caller stopped waiting for
    /// (counted as busy), or the helper is resting (counted as rested).
    pub fn try_claim(&self) -> Option<Claim<'_, J>> {
        let claim = self.try_hold()?;
        // From here on, returning `None` drops `claim` and so releases it.
        let rest_until = self.rest_until.load(Ordering::Relaxed);
        if rest_until > 0 {
            if self.now_ns() < rest_until {
                self.rested.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            self.rest_until.store(0, Ordering::Relaxed);
        }
        Some(claim)
    }

    /// [`Self::try_claim`] for a caller that only keeps others off the
    /// helper and never posts: a resting helper can be held (its rest is
    /// about its own misses), one still on a job cannot (its core is busy).
    pub(crate) fn try_hold(&self) -> Option<Claim<'_, J>> {
        if self
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.busy.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let claim = Claim {
            helper: self,
            posted_at: None,
        };
        if self.state.load(Ordering::Acquire) == RUNNING {
            self.busy.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(claim)
    }

    /// Scores one settled job (see [`MISS_LIMIT`]).
    fn score(&self, missed: bool) {
        let misses = self.misses.load(Ordering::Relaxed);
        if !missed {
            self.misses
                .store(misses.saturating_sub(1), Ordering::Relaxed);
            if misses <= 1 {
                self.next_rest
                    .store(MIN_REST.as_nanos() as u64, Ordering::Relaxed);
            }
        } else if misses + 1 < MISS_LIMIT {
            self.misses.store(misses + 1, Ordering::Relaxed);
        } else {
            let rest = self.next_rest.load(Ordering::Relaxed);
            self.misses.store(0, Ordering::Relaxed);
            self.rest_until
                .store(self.now_ns() + rest, Ordering::Relaxed);
            self.next_rest.store(
                (2 * rest).min(MAX_REST.as_nanos() as u64),
                Ordering::Relaxed,
            );
        }
    }

    /// Nanoseconds since `epoch`.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Withdraws a posted job the worker has not started; `false` when
    /// there is none.
    fn take_back(&self) -> bool {
        let taken = self
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if taken {
            self.lock_slot().job.release();
        }
        taken
    }

    /// The job slot, poisoned or not: a panic in a job is caught before it
    /// can unwind through the guard.
    fn lock_slot(&self) -> MutexGuard<'_, Slot<J>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The worker loop: wait for a job, start it unless it was taken back,
    /// run it, publish it.
    fn serve(&self) {
        self.state.store(IDLE, Ordering::Release);
        let mut spin = HELPER_SPIN;
        loop {
            self.await_post(spin);
            if self
                .state
                .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            let (mut slot, started) = (self.lock_slot(), Instant::now());
            let start = stats::thread_snapshot();
            slot.panicked = panic::catch_unwind(AssertUnwindSafe(|| slot.job.run())).is_err();
            slot.fft = stats::thread_snapshot().since(&start);
            slot.job.release();
            drop(slot);
            spin = HELPER_SPIN.min(started.elapsed());
            self.state.store(DONE, Ordering::Release);
        }
    }

    /// Returns once a job is posted: spinning for up to `spin`, then
    /// parked until a poster unparks the thread, then spinning again (the
    /// job that woke it has usually been taken back by then; the next one
    /// finds it awake).
    fn await_post(&self, spin: Duration) {
        loop {
            let start = Instant::now();
            while start.elapsed() < spin {
                for _ in 0..16 {
                    if self.state.load(Ordering::Acquire) == POSTED {
                        return;
                    }
                    std::hint::spin_loop();
                }
            }
            // `SeqCst` on both sides (here and in `Claim::post`): either
            // the poster sees `parked` and unparks, or this sees `POSTED`.
            self.parked.store(true, Ordering::SeqCst);
            if self.state.load(Ordering::SeqCst) != POSTED {
                thread::park();
            }
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}

/// The right to post one job; dropping it frees the helper for the next
/// caller. Held without posting, it keeps every other caller off the
/// helper.
#[derive(Debug)]
pub struct Claim<'a, J: HelperJob> {
    helper: &'a Helper<J>,
    /// When the outstanding job was posted.
    posted_at: Option<Instant>,
}

impl<'a, J: HelperJob> Claim<'a, J> {
    /// Fills the job slot with `fill` and hands it to the helper.
    pub fn post(&mut self, fill: impl FnOnce(&mut J)) {
        fill(&mut self.helper.lock_slot().job);
        self.posted_at = Some(Instant::now());
        self.helper.state.store(POSTED, Ordering::SeqCst);
        if self.helper.parked.load(Ordering::SeqCst) {
            if let Some(worker) = self.helper.thread.get() {
                worker.unpark();
            }
        }
    }

    /// The finished job, its FFT counts charged to this thread, or `None`
    /// when the caller is to do its work: the helper had not started it
    /// (taken back), or had not finished it after the caller waited as
    /// long as its own part took (left to finish into its own buffers).
    ///
    /// # Panics
    ///
    /// Panics if the job panicked on the helper thread.
    pub fn collect(&mut self) -> Option<Done<'_, J>> {
        let posted_at = self.posted_at.take()?;
        let helper = self.helper;
        let done = !helper.take_back() && {
            let patience = posted_at.elapsed();
            let start = Instant::now();
            loop {
                match helper.state.load(Ordering::Acquire) {
                    DONE => break true,
                    _ if start.elapsed() > patience => break false,
                    _ => std::hint::spin_loop(),
                }
            }
        };
        helper.score(!done);
        if !done {
            helper.taken_back.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        helper.ran.fetch_add(1, Ordering::Relaxed);
        let slot = helper.lock_slot();
        assert!(
            !slot.panicked,
            "a delegated {} panicked on the helper thread",
            std::any::type_name::<J>()
        );
        stats::charge(&slot.fft);
        Some(Done(slot))
    }
}

impl<J: HelperJob> Drop for Claim<'_, J> {
    /// Releases the claim; a job still posted (the caller unwound before
    /// collecting) is withdrawn, one already running is left to finish.
    fn drop(&mut self) {
        if self.posted_at.is_some() {
            self.helper.take_back();
        }
        self.helper.claimed.store(false, Ordering::Release);
    }
}

/// A job the helper finished, borrowed from its slot until dropped.
#[derive(Debug)]
pub struct Done<'a, J>(MutexGuard<'a, Slot<J>>);

impl<J> Deref for Done<'_, J> {
    type Target = J;

    fn deref(&self) -> &J {
        &self.0.job
    }
}

impl<J> DerefMut for Done<'_, J> {
    fn deref_mut(&mut self) -> &mut J {
        &mut self.0.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circulant::tests::split_matvec_batch;
    use crate::circulant::TileJob;
    use crate::{BlockCirculantMatrix, MatVecScratch};

    #[test]
    fn an_idle_helper_parks_after_its_spin_and_wakes_for_the_next_post() {
        let m = BlockCirculantMatrix::from_blocks(520, 64, 8, vec![0.25; 65 * 8 * 8]);
        let (helper, mut scratch) = (Helper::<TileJob>::spawn("test"), MatVecScratch::new());
        let xs = vec![0.5; 64];
        let want = split_matvec_batch(&m, &xs, 1, &Helper::new(), &mut scratch);
        for round in 0..2 {
            // Post until the helper has run one (the first post of a round
            // finds it parked, wakes it, and is usually taken back).
            let (before, deadline) = (helper.stats(), Instant::now() + Duration::from_secs(10));
            while helper.stats().since(&before).helper_ran == 0 {
                assert!(Instant::now() < deadline, "round {round}: never woke");
                let ys = split_matvec_batch(&m, &xs, 1, helper, &mut scratch);
                assert_eq!(ys, want, "round {round}");
            }
            // Idle: it spins for HELPER_SPIN, then parks. The bound allows
            // for a loaded machine descheduling the spinning thread.
            let idle = Instant::now();
            while !helper.parked.load(Ordering::SeqCst) {
                assert!(
                    idle.elapsed() < HELPER_SPIN + Duration::from_secs(1),
                    "round {round}: still spinning after {:?}",
                    idle.elapsed()
                );
                thread::sleep(HELPER_SPIN / 10);
            }
        }
    }

    #[test]
    fn a_job_the_helper_started_but_did_not_finish_is_left_to_it() {
        let helper = Helper::<TileJob>::new();
        let mut claim = helper.try_claim().expect("a free helper");
        claim.post(|_| {});
        // Stand in for a worker that started the job and stalled.
        let started =
            helper
                .state
                .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed);
        assert!(started.is_ok());
        assert!(claim.collect().is_none(), "the caller runs the work");
        drop(claim);
        let left = SplitStats {
            taken_back: 1,
            ..SplitStats::default()
        };
        assert_eq!(helper.stats(), left);
        // Until the worker is done with it, callers run serially.
        assert!(helper.try_claim().is_none());
        assert_eq!(helper.stats().since(&left).busy, 1);
        helper.state.store(DONE, Ordering::Release);
        assert!(helper.try_claim().is_some());
    }

    #[test]
    fn repeated_misses_rest_the_helper_for_a_while() {
        // No worker: every post is taken back, a miss.
        let helper = Helper::<TileJob>::new();
        for _ in 0..MISS_LIMIT {
            let mut claim = helper.try_claim().expect("not resting yet");
            claim.post(|_| {});
            assert!(claim.collect().is_none());
        }
        assert!(helper.try_claim().is_none(), "resting");
        assert_eq!(helper.stats().rested, 1);
        thread::sleep(MIN_REST);
        assert!(helper.try_claim().is_some(), "the rest is over");
    }
}
