//! The run-scoped inference lane behind [`InlineExecutor`](super::InlineExecutor).
//!
//! One run — a [`SchedRuntime::run`](crate::sched::SchedRuntime::run), or a
//! [`ClusterRuntime::run`](crate::ClusterRuntime::run) with every shard in
//! it — opens one lane with [`scope`]: one queue of fusable runs, served
//! from the moment the run starts by `host cores − 1` scoped threads, so
//! host inference overlaps the event loop that keeps dispatching, the way
//! the paper's CGPipe overlaps its stages. Each executor feeding the lane
//! holds an account in it. When the event loop is done, the first
//! executor to finish [`close`](Lane::close)s the lane and helps drain it.
//!
//! The rules the lane keeps:
//!
//! * **Ordering.** Runs that carry session chunks go to one owner thread
//!   (the first lane thread; the closing caller when no thread serves the
//!   lane), which takes them in submission order and keeps one session
//!   table per account. Stateless runs go to any thread.
//! * **FFT ledger.** Each run's [`stats::thread_snapshot`] delta is
//!   credited to the account that queued it. Each lane thread measures its
//!   total on its own ledger and the closing caller [`stats::charge`]s
//!   those totals to itself, so the caller counts what a serial run counts
//!   and each account exactly its own runs.
//! * **Wake-ups.** A producer wakes sleeping lane threads only once
//!   [`WAKE_AT`] runs are queued, and at close; no thread spins.
//! * **Allocations.** The queue keeps the jobs back to back, so a queued
//!   batch's emptied job list goes straight back to its executor for the
//!   next batch, and dispatch allocates nothing once the queue has grown.
//! * **Panics.** A panic on a lane thread abandons the queue and
//!   resurfaces with its original payload from the next
//!   [`Lane::submit`] or from [`Lane::close`], whichever comes first. A
//!   [`scope`] whose body unwinds abandons the lane, so the scope's join
//!   cannot wait on a thread that waits for more work.

use super::{infer_run, ExecutorReport, InferenceJob, RunScratch};
use crate::cache::CompiledModel;
use ernn_fft::stats::{self, FftStats};
use ernn_fpga::exec::{ExecScratch, NetworkState};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Queued runs at which a producer wakes the sleeping lane threads: one
/// futex wake per this many dispatched batches, not one per batch.
pub(super) const WAKE_AT: usize = 16;

/// One fusable run waiting in a [`Queue`].
struct QueuedRun {
    /// The account (executor) that queued it.
    account: usize,
    model: Arc<CompiledModel>,
    /// How many of the queue's jobs are this run's.
    len: usize,
}

/// One class of queued work: its runs in order, and their jobs back to
/// back.
#[derive(Default)]
struct Queue {
    runs: VecDeque<QueuedRun>,
    jobs: VecDeque<InferenceJob>,
}

impl Queue {
    fn push(&mut self, account: usize, model: Arc<CompiledModel>, jobs: &mut Vec<InferenceJob>) {
        self.runs.push_back(QueuedRun {
            account,
            model,
            len: jobs.len(),
        });
        self.jobs.extend(jobs.drain(..));
    }

    /// Moves the first run's jobs into `jobs` and returns its account and
    /// model.
    fn pop(&mut self, jobs: &mut Vec<InferenceJob>) -> Option<(usize, Arc<CompiledModel>)> {
        let run = self.runs.pop_front()?;
        jobs.extend(self.jobs.drain(..run.len));
        Some((run.account, run.model))
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.jobs.clear();
    }
}

/// What the lane keeps for one executor.
#[derive(Default)]
struct Account {
    /// `(slot, logits)` of every finished job.
    outputs: Vec<(usize, Vec<Vec<f32>>)>,
    /// FFT work of this account's runs, whichever thread ran them.
    fft: FftStats,
}

#[derive(Default)]
struct State {
    /// Runs with no session chunk, for any thread.
    stateless: Queue,
    /// Runs that carry session chunks, for the owner thread only.
    sessions: Queue,
    accounts: Vec<Account>,
    /// Lane threads asleep on [`Lane::wake`] that no one has woken yet.
    sleeping: usize,
    /// Bumped by every wake-up, so a sleeper tells one from a spurious
    /// return.
    wakes: u64,
    /// No run is queued any more; threads exit once they find no work.
    closed: bool,
    /// Lane threads that have not exited.
    live: usize,
    /// Exited lane threads' FFT totals, not yet charged to the closer.
    lane_fft: FftStats,
    /// The first lane-thread panic's payload.
    panic: Option<Box<dyn Any + Send>>,
}

impl State {
    fn queued(&self) -> usize {
        self.stateless.runs.len() + self.sessions.runs.len()
    }

    /// Moves the next run this thread may take into `jobs`: the owner
    /// takes session runs first and in order, anyone takes stateless
    /// runs.
    fn take(
        &mut self,
        owner: bool,
        jobs: &mut Vec<InferenceJob>,
    ) -> Option<(usize, Arc<CompiledModel>)> {
        if owner {
            if let Some(run) = self.sessions.pop(jobs) {
                return Some(run);
            }
        }
        self.stateless.pop(jobs)
    }

    /// Books a finished run's logits and FFT work to its account.
    fn credit(&mut self, account: usize, jobs: &mut Vec<InferenceJob>, fft: &FftStats) {
        let account = &mut self.accounts[account];
        account.fft = account.fft.plus(fft);
        account
            .outputs
            .extend(jobs.drain(..).map(|j| (j.slot, j.frames)));
    }

    /// Marks every sleeper woken; true when there was one to notify.
    fn wake_sleepers(&mut self) -> bool {
        let any = self.sleeping > 0;
        if any {
            self.sleeping = 0;
            self.wakes += 1;
        }
        any
    }
}

/// One thread's inference state: the run in hand, its scratch and, on
/// the owner, every account's session table.
#[derive(Default)]
struct Worker {
    jobs: Vec<InferenceJob>,
    scratch: ExecScratch,
    run: RunScratch,
    sessions: Vec<HashMap<u64, NetworkState>>,
}

impl Worker {
    /// Computes the run in hand on `model` for `account`, in place, and
    /// returns the FFT work it took.
    fn infer(&mut self, account: usize, model: &CompiledModel) -> FftStats {
        if self.sessions.len() <= account {
            self.sessions.resize_with(account + 1, HashMap::new);
        }
        let start = stats::thread_snapshot();
        infer_run(
            model,
            &mut self.jobs,
            &mut self.scratch,
            &mut self.sessions[account],
            &mut self.run,
        );
        stats::thread_snapshot().since(&start)
    }
}

/// A run's shared inference queue; see the [module docs](self).
pub(crate) struct Lane {
    state: Mutex<State>,
    /// Lane threads sleep here while the queue holds nothing they may take.
    wake: Condvar,
    /// The closing caller waits here for the lane threads to exit.
    exited: Condvar,
    /// Lane threads serving this lane; zero makes the closer the owner.
    threads: usize,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Lane {
    fn new(threads: usize) -> Self {
        Lane {
            state: Mutex::new(State {
                live: threads,
                ..State::default()
            }),
            wake: Condvar::new(),
            exited: Condvar::new(),
            threads,
        }
    }

    /// A lane no thread serves: whoever closes it runs every run.
    pub(crate) fn serial() -> Arc<Lane> {
        Arc::new(Lane::new(0))
    }

    /// The state, poisoned or not: every update made under the lock is a
    /// push, pop, extend or clear that leaves it whole, so a panic while
    /// it is held (only a broken internal condition can raise one) leaves
    /// nothing half-written.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, on: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        on.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens an account for one executor and returns its number.
    pub(crate) fn open_account(&self) -> usize {
        let mut s = self.lock();
        s.accounts.push(Account::default());
        s.accounts.len() - 1
    }

    /// Queues one fusable run for `account`, moving the jobs out of
    /// `jobs` and leaving the list empty for the executor's next batch.
    ///
    /// # Panics
    ///
    /// Resurfaces a lane thread's panic with its original payload, and
    /// panics if the lane is otherwise closed.
    pub(crate) fn submit(
        &self,
        account: usize,
        model: Arc<CompiledModel>,
        jobs: &mut Vec<InferenceJob>,
    ) {
        let session = jobs.iter().any(|j| j.session.is_some());
        let mut s = self.lock();
        if let Some(payload) = s.panic.take() {
            drop(s);
            panic::resume_unwind(payload);
        }
        assert!(!s.closed, "submit after the lane closed");
        if session {
            s.sessions.push(account, model, jobs);
        } else {
            s.stateless.push(account, model, jobs);
        }
        let wake = s.queued() >= WAKE_AT && s.wake_sleepers();
        drop(s);
        if wake {
            self.wake.notify_all();
        }
    }

    /// Runs what this thread may take until nothing is left for it, and
    /// returns with the lock held.
    fn drain<'a>(
        &'a self,
        mut s: MutexGuard<'a, State>,
        owner: bool,
        worker: &mut Worker,
    ) -> MutexGuard<'a, State> {
        while let Some((account, model)) = s.take(owner, &mut worker.jobs) {
            drop(s);
            let fft = worker.infer(account, &model);
            s = self.lock();
            s.credit(account, &mut worker.jobs, &fft);
        }
        s
    }

    /// A lane thread's life: it drains the queue, sleeps until woken, and
    /// exits once the lane is closed and holds nothing it may take; its
    /// FFT count goes to the lane's total for [`Self::close`] to charge.
    /// A panic is kept for [`Self::close`].
    fn serve(&self, owner: bool) {
        let start = stats::thread_snapshot();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut worker = Worker::default();
            let mut s = self.lock();
            loop {
                s = self.drain(s, owner, &mut worker);
                if s.closed {
                    return;
                }
                s.sleeping += 1;
                let woken = s.wakes;
                while s.wakes == woken {
                    s = self.wait(&self.wake, s);
                }
            }
        }));
        let mut s = self.lock();
        s.live -= 1;
        s.lane_fft = s.lane_fft.plus(&stats::thread_snapshot().since(&start));
        if let Err(payload) = outcome {
            s.panic.get_or_insert(payload);
            self.abandon_locked(&mut s);
        }
        drop(s);
        self.exited.notify_all();
    }

    /// Closes the lane and finishes it: the caller helps drain what is
    /// queued (all of it, session runs included, when no thread serves
    /// the lane), waits for every lane thread to exit, and charges their
    /// FFT counts to itself. Closing a closed lane only waits.
    ///
    /// # Panics
    ///
    /// Resurfaces a lane thread's panic with its original payload.
    pub(crate) fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        if s.wake_sleepers() {
            self.wake.notify_all();
        }
        s = self.drain(s, self.threads == 0, &mut Worker::default());
        while s.live > 0 {
            s = self.wait(&self.exited, s);
        }
        if let Some(payload) = s.panic.take() {
            drop(s);
            panic::resume_unwind(payload);
        }
        let lane_fft = std::mem::take(&mut s.lane_fft);
        drop(s);
        stats::charge(&lane_fft);
    }

    /// Hands back everything `account`'s runs produced: their outputs
    /// and their FFT work. Call after [`Self::close`].
    pub(crate) fn settle(&self, account: usize) -> ExecutorReport {
        let mut s = self.lock();
        debug_assert!(s.closed && s.queued() == 0, "settle before close");
        let Account { outputs, fft } = std::mem::take(&mut s.accounts[account]);
        ExecutorReport { outputs, fft }
    }

    /// Closes the lane and drops what is queued: nothing will wait for it.
    fn abandon_locked(&self, s: &mut State) {
        s.closed = true;
        s.stateless.clear();
        s.sessions.clear();
        if s.wake_sleepers() {
            self.wake.notify_all();
        }
    }

    /// Runs queued but not yet taken (for tests that wait for a lane
    /// thread to take one).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.lock().queued()
    }
}

/// Abandons the lane when the scope's body returns or unwinds, so every
/// lane thread exits and the scope's join returns.
struct AbandonOnDrop<'a>(&'a Lane);

impl Drop for AbandonOnDrop<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        self.0.abandon_locked(&mut s);
    }
}

/// Runs `body` with a fresh lane that `threads` scoped threads serve
/// from the start. The lane must be [closed](Lane::close) inside `body`
/// for its runs to complete; whatever is still queued when `body`
/// returns or unwinds is dropped.
pub(crate) fn scope<R>(threads: usize, body: impl FnOnce(&Arc<Lane>) -> R) -> R {
    let lane = Arc::new(Lane::new(threads));
    thread::scope(|scope| {
        for t in 0..threads {
            let lane = &*lane;
            scope.spawn(move || lane.serve(t == 0));
        }
        let _abandon = AbandonOnDrop(&lane);
        body(&lane)
    })
}
