//! Host-side inference executors: *where* `forward_logits` runs.
//!
//! The serving runtime separates two clocks. The **virtual clock** decides
//! when batches form and how long devices take (the scheduler's device
//! clocks, advanced by the closed form
//! [`CostModel::stream_us`](crate::sched::CostModel::stream_us)) — it is
//! pure arithmetic and fully deterministic. The **host clock** is the real CPU time spent computing
//! logits through the quantized datapath, which on a live deployment is
//! the pre/post-processing work the host must overlap with device
//! execution to keep every accelerator fed.
//!
//! An [`Executor`] owns the host side of that split. It is constructed
//! over the run's model set — the scheduler passes its whole registry —
//! and each [`InferenceJob`] names the model it targets by index. The
//! runtime submits one job per request at dispatch time and collects
//! every result once the virtual-time event loop has drained:
//!
//! * [`InlineExecutor`], the default, only logs each job at submit and
//!   computes the whole run at [`Executor::finish`]: nothing reads a
//!   logit before then, and virtual time never depends on one. Runs that
//!   carry session chunks go in submission order on the calling thread;
//!   stateless runs are shared between the caller and scoped threads, up
//!   to one per host core.
//! * [`ThreadPoolExecutor`] fans jobs out to a pool of `std::thread`
//!   workers over channels (no external async runtime), one worker per
//!   device slot, with jobs pinned to their batch's device so per-worker
//!   accounting is deterministic. Host inference for batch k+1 then
//!   overlaps with event-loop work for batch k.
//!
//! Logits are a pure function of (model, frames) (`f32` arithmetic, no
//! reductions across threads), so both executors produce **bit-identical**
//! outputs; only wall-clock host time differs. FFT activity is tracked
//! exactly via the thread-local counters in [`ernn_fft::stats`]: the pool
//! reports it per worker, the inline executor charges its scoped threads'
//! counts to the caller.

use crate::cache::CompiledModel;
use ernn_fft::stats::{self, FftStats};
use ernn_fpga::exec::{ExecScratch, NetworkState};
use std::collections::HashMap;
use std::panic;
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// Which host-side executor a [`SchedRuntime`](crate::sched::SchedRuntime)
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Log jobs at dispatch and compute them at `finish`, on the
    /// event-loop thread and up to one scoped thread per further core.
    #[default]
    Inline,
    /// One worker thread per device slot, fed over channels.
    ThreadPool,
}

/// Session identity of one streaming-chunk job.
///
/// Executors keep per-worker `session id → NetworkState` tables; because
/// the scheduler pins every chunk of a session to one device (and jobs
/// route to workers by device), a session's state lives on exactly one
/// worker and chunk jobs arrive there in dispatch order — which is what
/// makes streaming results bit-identical across executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSlot {
    /// The streaming session this chunk belongs to.
    pub id: u64,
    /// Final chunk: the worker drops the session's state after it.
    pub last: bool,
}

/// One unit of host-side inference work.
#[derive(Debug)]
pub struct InferenceJob {
    /// Index of the response this job's logits belong to.
    pub slot: usize,
    /// Device slot the batch ran on; doubles as the worker affinity key.
    pub device: usize,
    /// Index into the executor's model set.
    pub model: usize,
    /// The request's feature frames (moved in; inference turns this very
    /// buffer into the logits [`ExecutorReport::outputs`] hands back).
    pub frames: Vec<Vec<f32>>,
    /// Streaming-session identity, or `None` for a whole utterance. A
    /// single fusable run must not contain two chunks of one session
    /// (lockstep lanes would double-apply the state); the scheduler's
    /// batch formation guarantees this.
    pub session: Option<SessionSlot>,
}

/// Everything an executor hands back when a run drains.
#[derive(Debug)]
pub struct ExecutorReport {
    /// `(slot, logits)` for every submitted job, in arbitrary order.
    pub outputs: Vec<(usize, Vec<Vec<f32>>)>,
    /// Host FFT activity per worker ([`InlineExecutor`] has one entry:
    /// the calling thread's, its scoped threads' work charged to it). The
    /// entries always sum to the run's global FFT delta.
    pub worker_fft: Vec<FftStats>,
}

/// Runs host-side inference for a serving run.
///
/// The contract the runtime relies on:
///
/// * every submitted job's logits appear exactly once in
///   [`ExecutorReport::outputs`], tagged with the job's `slot`;
/// * logits are bit-identical to `CompiledModel::infer` on the same
///   model and frames, whatever thread computes them;
/// * [`Executor::finish`] blocks until all submitted work is done.
pub trait Executor {
    /// Accepts every job of one dispatched batch at once, so the
    /// executor can batch-fuse host inference across them (the runtime
    /// dispatches a formed batch to a single device with a single model,
    /// so batch members share both). May defer them to
    /// [`Self::finish`] (inline) or hand them to a worker and return at
    /// once (thread pool); either way logits are bit-identical to one-job
    /// batches.
    fn submit_batch(&mut self, jobs: Vec<InferenceJob>);

    /// An empty job list to fill for the next [`Self::submit_batch`].
    /// An executor that is done with a batch when `submit_batch` returns
    /// hands the previous batch's (emptied) list back here, so the
    /// runtime's dispatch path stops allocating one per batch; the
    /// default is a fresh list.
    fn job_buffer(&mut self) -> Vec<InferenceJob> {
        Vec::new()
    }

    /// Moves a streaming session's host-side [`NetworkState`] from the
    /// worker serving `from_device` to the worker serving `to_device` —
    /// the host half of a failover: when the runtime re-pins a crashed
    /// device's session, the chunk jobs start routing to a different
    /// worker, and the state must already be there for logits to stay
    /// bit-identical. Must be called *before* submitting the first job
    /// of the migrated session on the new device. A no-op when both
    /// devices map to the same worker (including the inline executor,
    /// whose single table serves every device).
    fn migrate_session(&mut self, session: u64, from_device: usize, to_device: usize) {
        let _ = (session, from_device, to_device);
    }

    /// Waits for every submitted job and returns the collected outputs.
    /// Must be called exactly once, after the last `submit_batch`.
    fn finish(&mut self) -> ExecutorReport;
}

/// Whether two jobs may share one batch-fused inference call: same
/// device (one worker) and same model. Runtime batches are one such run;
/// the executors split arbitrary callers' job lists into maximal
/// contiguous runs.
fn same_run(a: &InferenceJob, b: &InferenceJob) -> bool {
    (a.device, a.model) == (b.device, b.model)
}

/// [`infer_run`]'s grow-once bookkeeping, one per worker next to its
/// [`ExecScratch`]: both lists are empty between runs and keep the
/// largest run's capacity.
#[derive(Debug, Default)]
struct RunScratch {
    /// The run's frame buffers, moved out of its jobs in job order while
    /// inference turns them into logits.
    utterances: Vec<Vec<Vec<f32>>>,
    /// Per-lane recurrent state of a run that carries session chunks.
    states: Vec<Option<NetworkState>>,
}

/// Computes one fusable run's logits with a single batch-fused, in-place
/// inference call: every job's frame buffer is moved into
/// `run.utterances` and comes back to the job as its logits. All jobs
/// must share a model (see [`same_run`]). Runs with no session chunks
/// take the stateless path; runs with chunks pull each session's
/// [`NetworkState`] out of `sessions` (materializing a fresh one on first
/// touch), thread it through the lockstep kernel, and store it back
/// unless the chunk was the session's last.
fn infer_run(
    models: &[Arc<CompiledModel>],
    jobs: &mut [InferenceJob],
    scratch: &mut ExecScratch,
    sessions: &mut HashMap<u64, NetworkState>,
    run: &mut RunScratch,
) {
    let model = &models[jobs[0].model];
    debug_assert!(
        run.utterances.is_empty(),
        "the previous run was not drained"
    );
    run.utterances
        .extend(jobs.iter_mut().map(|j| std::mem::take(&mut j.frames)));
    if jobs.iter().all(|j| j.session.is_none()) {
        model.infer_batch_in_place(&mut run.utterances, None, scratch);
    } else {
        debug_assert!(
            {
                let mut ids: Vec<u64> = jobs
                    .iter()
                    .filter_map(|j| j.session.map(|s| s.id))
                    .collect();
                ids.sort_unstable();
                ids.windows(2).all(|w| w[0] != w[1])
            },
            "a fusable run must not carry two chunks of one session"
        );
        run.states.extend(jobs.iter().map(|j| {
            j.session.map(|s| {
                sessions
                    .remove(&s.id)
                    .unwrap_or_else(|| model.fresh_state())
            })
        }));
        model.infer_batch_in_place(&mut run.utterances, Some(&mut run.states), scratch);
        for (job, state) in jobs.iter().zip(run.states.drain(..)) {
            if let (Some(slot), Some(state)) = (job.session, state) {
                if !slot.last {
                    sessions.insert(slot.id, state);
                }
            }
        }
    }
    for (job, logits) in jobs.iter_mut().zip(run.utterances.drain(..)) {
        job.frames = logits;
    }
}

/// The host's core count, read once per process.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Runs stateless runs from `queue` until it is empty. Any number of
/// threads may drain one queue; each brings its own scratch.
fn drain_stateless<'a>(
    models: &[Arc<CompiledModel>],
    queue: &Mutex<impl Iterator<Item = &'a mut [InferenceJob]>>,
    scratch: &mut ExecScratch,
    run: &mut RunScratch,
) {
    loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(jobs) = next else { return };
        infer_run(models, jobs, scratch, &mut HashMap::new(), run);
    }
}

/// The default executor: `submit_batch` only logs a batch's jobs and
/// [`Executor::finish`] computes them all, with one persistent
/// [`ExecScratch`] on the calling thread so the FFT/matvec kernels stop
/// allocating after the first run warms the buffers.
///
/// At `finish`, runs that carry session chunks go in submission order on
/// the calling thread, through its one session table (so a session's
/// state needs no migration between devices). Stateless runs are
/// order-free: the caller and `min(host cores, runs) − 1` scoped threads
/// pull them from one shared queue, and no thread is spawned when there
/// is nothing to share. The scoped threads are off the FFT ledger
/// ([`stats::detach_thread`]) and the caller [`stats::charge`]s their
/// counts to itself, so the calling thread counts what a serial run
/// counts. A panic on a scoped thread resurfaces from `finish` with its
/// original payload.
#[derive(Debug)]
pub struct InlineExecutor {
    models: Vec<Arc<CompiledModel>>,
    /// Every submitted job, in submission order; `finish` turns each
    /// one's frames into its logits.
    jobs: Vec<InferenceJob>,
    /// Where each fusable run in `jobs` ends.
    run_ends: Vec<usize>,
    scratch: ExecScratch,
    run: RunScratch,
    sessions: HashMap<u64, NetworkState>,
    /// The last batch's job list, emptied — see [`Executor::job_buffer`].
    spare_jobs: Vec<InferenceJob>,
    fft_start: FftStats,
}

impl InlineExecutor {
    /// An executor computing on the calling thread, and on scoped threads
    /// for stateless runs, over the given model set (jobs index into it).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<Arc<CompiledModel>>) -> Self {
        assert!(!models.is_empty(), "executor needs at least one model");
        InlineExecutor {
            models,
            jobs: Vec::new(),
            run_ends: Vec::new(),
            scratch: ExecScratch::new(),
            run: RunScratch::default(),
            sessions: HashMap::new(),
            spare_jobs: Vec::new(),
            fft_start: stats::thread_snapshot(),
        }
    }
}

impl Executor for InlineExecutor {
    fn submit_batch(&mut self, mut jobs: Vec<InferenceJob>) {
        let mut end = self.jobs.len();
        for run in jobs.chunk_by(same_run) {
            end += run.len();
            self.run_ends.push(end);
        }
        self.jobs.append(&mut jobs);
        self.spare_jobs = jobs;
    }

    fn job_buffer(&mut self) -> Vec<InferenceJob> {
        std::mem::take(&mut self.spare_jobs)
    }

    fn finish(&mut self) -> ExecutorReport {
        let mut session_runs = Vec::new();
        let mut stateless = Vec::new();
        let (mut rest, mut start) = (&mut self.jobs[..], 0);
        for &end in &self.run_ends {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            (rest, start) = (tail, end);
            if run.iter().any(|j| j.session.is_some()) {
                session_runs.push(run);
            } else {
                stateless.push(run);
            }
        }
        let threads = host_cores()
            .min(self.run_ends.len())
            .saturating_sub(1)
            .min(stateless.len());
        let queue = Mutex::new(stateless.into_iter());
        let models = &self.models;
        thread::scope(|scope| {
            let helpers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        stats::detach_thread();
                        let start = stats::thread_snapshot();
                        let (mut scratch, mut run) = (ExecScratch::new(), RunScratch::default());
                        drain_stateless(models, &queue, &mut scratch, &mut run);
                        stats::thread_snapshot().since(&start)
                    })
                })
                .collect();
            for jobs in session_runs {
                infer_run(
                    models,
                    jobs,
                    &mut self.scratch,
                    &mut self.sessions,
                    &mut self.run,
                );
            }
            drain_stateless(models, &queue, &mut self.scratch, &mut self.run);
            for helper in helpers {
                match helper.join() {
                    Ok(fft) => stats::charge(&fft),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        self.run_ends.clear();
        ExecutorReport {
            outputs: self.jobs.drain(..).map(|j| (j.slot, j.frames)).collect(),
            worker_fft: vec![stats::thread_snapshot().since(&self.fft_start)],
        }
    }
}

/// Message a worker sends back to the submitting thread.
enum WorkerMessage {
    /// Finished logits for one job slot.
    Output(usize, Vec<Vec<f32>>),
    /// Worker `i` drained its queue and exited; carries its exact FFT
    /// activity (thread-local delta over the worker's lifetime).
    Done(usize, FftStats),
}

/// Command sent to one pool worker over its job channel. Keeping state
/// migration on the same FIFO channel as batches is what makes failover
/// deterministic: an `Extract` queued after a session's last pre-crash
/// batch is guaranteed to observe that batch's output state.
enum WorkerCmd {
    /// One fusable run of inference jobs.
    Batch(Vec<InferenceJob>),
    /// Remove `session`'s state and send it back (None if absent).
    Extract {
        /// Session whose state to remove.
        session: u64,
        /// One-shot reply channel.
        reply: mpsc::Sender<Option<NetworkState>>,
    },
    /// Install `session`'s state (it migrated from another worker).
    Inject {
        /// Session whose state arrives.
        session: u64,
        /// The migrated recurrent state.
        state: Box<NetworkState>,
    },
}

/// A fixed pool of `std::thread` workers consuming jobs over channels.
///
/// Jobs are routed by `job.device % workers`, so all inference for one
/// virtual device lands on one worker (deterministic per-worker load and
/// FFT accounting) while distinct devices proceed in parallel. Each
/// worker owns a persistent [`ExecScratch`] for its whole lifetime, so
/// steady-state inference stops allocating in the FFT/matvec kernels, and
/// batch submissions ([`Executor::submit_batch`]) are batch-fused: one
/// pass over the cached weight spectra serves the whole batch. Every
/// worker shares the full model set read-only, so a heterogeneous pool
/// can run any registered model on any device slot.
#[derive(Debug)]
pub struct ThreadPoolExecutor {
    /// Per-worker command senders; `None` once `finish` closed the
    /// queues.
    job_txs: Vec<Option<mpsc::Sender<WorkerCmd>>>,
    result_rx: mpsc::Receiver<WorkerMessage>,
    handles: Vec<thread::JoinHandle<()>>,
    submitted: usize,
}

impl ThreadPoolExecutor {
    /// Spawns `workers` threads sharing the model set read-only.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `models` is empty.
    pub fn new(models: Vec<Arc<CompiledModel>>, workers: usize) -> Self {
        assert!(workers > 0, "thread pool needs at least one worker");
        assert!(!models.is_empty(), "executor needs at least one model");
        let models = Arc::new(models);
        let (result_tx, result_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (job_tx, job_rx) = mpsc::channel::<WorkerCmd>();
            let models = Arc::clone(&models);
            let result_tx = result_tx.clone();
            handles.push(thread::spawn(move || {
                let fft_start = stats::thread_snapshot();
                let mut scratch = ExecScratch::new();
                let mut run = RunScratch::default();
                let mut sessions = HashMap::new();
                while let Ok(cmd) = job_rx.recv() {
                    match cmd {
                        WorkerCmd::Batch(mut jobs) => {
                            infer_run(&models, &mut jobs, &mut scratch, &mut sessions, &mut run);
                            for job in jobs {
                                if result_tx
                                    .send(WorkerMessage::Output(job.slot, job.frames))
                                    .is_err()
                                {
                                    // Receiver gone: the executor was
                                    // dropped without finish(); nothing
                                    // left to report to.
                                    return;
                                }
                            }
                        }
                        WorkerCmd::Extract { session, reply } => {
                            // Sent synchronously by migrate_session; a
                            // dropped reply means the executor is gone.
                            let _ = reply.send(sessions.remove(&session));
                        }
                        WorkerCmd::Inject { session, state } => {
                            sessions.insert(session, *state);
                        }
                    }
                }
                let delta = stats::thread_snapshot().since(&fft_start);
                let _ = result_tx.send(WorkerMessage::Done(w, delta));
            }));
            job_txs.push(Some(job_tx));
        }
        ThreadPoolExecutor {
            job_txs,
            result_rx,
            handles,
            submitted: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.job_txs.len()
    }

    /// Sends one fusable run to its pinned worker.
    fn send_run(&mut self, run: Vec<InferenceJob>) {
        let device = run[0].device;
        self.submitted += run.len();
        let w = device % self.job_txs.len();
        let sent = self.job_txs[w]
            .as_ref()
            .expect("submit after finish")
            .send(WorkerCmd::Batch(run));
        if sent.is_err() {
            self.propagate_worker_panic();
        }
    }

    /// A closed channel means a worker died mid-run: close the remaining
    /// queues, join everyone, and re-raise the *original* worker panic so
    /// the failure points at the actual fault, not at the channel.
    fn propagate_worker_panic(&mut self) -> ! {
        for tx in &mut self.job_txs {
            tx.take();
        }
        let mut payload = None;
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                payload.get_or_insert(panic);
            }
        }
        match payload {
            Some(panic) => std::panic::resume_unwind(panic),
            None => unreachable!("executor channel closed but no worker panicked"),
        }
    }
}

impl Executor for ThreadPoolExecutor {
    fn submit_batch(&mut self, mut jobs: Vec<InferenceJob>) {
        // Runtime batches share (device, model) and go out whole, but
        // stay correct for arbitrary callers: split off each fusable run
        // so it lands on its pinned worker as one fused batch.
        while let Some(first) = jobs.first() {
            let len = jobs.iter().take_while(|j| same_run(first, j)).count();
            let rest = jobs.split_off(len);
            self.send_run(std::mem::replace(&mut jobs, rest));
        }
    }

    fn migrate_session(&mut self, session: u64, from_device: usize, to_device: usize) {
        let workers = self.job_txs.len();
        let (from_w, to_w) = (from_device % workers, to_device % workers);
        if from_w == to_w {
            return;
        }
        // Synchronous round-trip: Extract rides the old worker's FIFO
        // queue (so it sees every pre-crash chunk's output state), and
        // Inject is enqueued before any post-migration job can be.
        let (reply_tx, reply_rx) = mpsc::channel();
        let sent = self.job_txs[from_w]
            .as_ref()
            .expect("migrate after finish")
            .send(WorkerCmd::Extract {
                session,
                reply: reply_tx,
            });
        if sent.is_err() {
            self.propagate_worker_panic();
        }
        let state = match reply_rx.recv() {
            Ok(state) => state,
            Err(_) => self.propagate_worker_panic(),
        };
        // Absent state is legal: the session never actually computed on
        // the old worker (e.g. its first chunk was aborted pre-commit).
        if let Some(state) = state {
            let sent = self.job_txs[to_w]
                .as_ref()
                .expect("migrate after finish")
                .send(WorkerCmd::Inject {
                    session,
                    state: Box::new(state),
                });
            if sent.is_err() {
                self.propagate_worker_panic();
            }
        }
    }

    fn finish(&mut self) -> ExecutorReport {
        // Closing the job queues is what tells workers to drain and exit.
        for tx in &mut self.job_txs {
            tx.take();
        }
        let workers = self.handles.len();
        let mut outputs = Vec::with_capacity(self.submitted);
        let mut worker_fft = vec![FftStats::default(); workers];
        let mut done = 0usize;
        while done < workers {
            match self.result_rx.recv() {
                Ok(WorkerMessage::Output(slot, logits)) => outputs.push((slot, logits)),
                Ok(WorkerMessage::Done(w, fft)) => {
                    worker_fft[w] = fft;
                    done += 1;
                }
                Err(_) => self.propagate_worker_panic(),
            }
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
        debug_assert_eq!(outputs.len(), self.submitted, "every job must report");
        ExecutorReport {
            outputs,
            worker_fft,
        }
    }
}

impl Drop for ThreadPoolExecutor {
    /// Dropping without `finish` (e.g. an event-loop panic) still closes
    /// the queues and joins the workers so no thread outlives the run.
    fn drop(&mut self) {
        for tx in &mut self.job_txs {
            tx.take();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::XCKU060;
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use rand::SeedableRng;

    fn model_seeded(seed: u64) -> Arc<CompiledModel> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = ModelSpec::new(CellType::Gru, 8, 5)
            .layer_dims(&[16])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        Arc::new(CompiledModel::compile(
            &net,
            &DatapathConfig::paper_12bit(),
            XCKU060,
        ))
    }

    fn model() -> Arc<CompiledModel> {
        model_seeded(17)
    }

    fn jobs(n: usize, devices: usize) -> Vec<InferenceJob> {
        (0..n)
            .map(|i| InferenceJob {
                slot: i,
                device: i % devices,
                model: 0,
                frames: vec![vec![0.1 * (i as f32 + 1.0); 8]; 3 + i % 4],
                session: None,
            })
            .collect()
    }

    fn sorted_outputs(mut report: ExecutorReport) -> Vec<(usize, Vec<Vec<f32>>)> {
        report.outputs.sort_by_key(|(slot, _)| *slot);
        report.outputs
    }

    #[test]
    fn inline_and_pool_outputs_are_bit_identical() {
        let m = model();
        let mut inline = InlineExecutor::new(vec![Arc::clone(&m)]);
        let mut pool = ThreadPoolExecutor::new(vec![Arc::clone(&m)], 3);
        for job in jobs(10, 3) {
            inline.submit_batch(vec![job]);
        }
        for job in jobs(10, 3) {
            pool.submit_batch(vec![job]);
        }
        let a = sorted_outputs(inline.finish());
        let b = sorted_outputs(pool.finish());
        assert_eq!(a.len(), 10);
        // Bit-identical logits, slot for slot.
        assert_eq!(a, b);
    }

    #[test]
    fn multi_model_jobs_route_to_their_model_on_both_executors() {
        let models = vec![model_seeded(17), model_seeded(99)];
        // Same frames against two different models must give different
        // logits, and both executors must agree per slot.
        let make_jobs = || {
            (0..8)
                .map(|i| InferenceJob {
                    slot: i,
                    device: i % 2,
                    model: i % 2,
                    frames: vec![vec![0.3; 8]; 4],
                    session: None,
                })
                .collect::<Vec<_>>()
        };
        let mut inline = InlineExecutor::new(models.clone());
        inline.submit_batch(make_jobs());
        let a = sorted_outputs(inline.finish());

        let mut pool = ThreadPoolExecutor::new(models.clone(), 2);
        pool.submit_batch(make_jobs());
        let b = sorted_outputs(pool.finish());
        assert_eq!(a, b);

        // Model identity matters: slot 0 (model 0) differs from slot 1
        // (model 1) on identical frames.
        assert_ne!(a[0].1, a[1].1);
        // And each matches direct inference through its own model.
        let frames = vec![vec![0.3; 8]; 4];
        assert_eq!(a[0].1, models[0].infer(&frames));
        assert_eq!(a[1].1, models[1].infer(&frames));
    }

    #[test]
    fn pool_routes_by_device_and_accounts_fft_per_worker() {
        let m = model();
        let mut pool = ThreadPoolExecutor::new(vec![Arc::clone(&m)], 2);
        assert_eq!(pool.workers(), 2);
        // Devices 0 and 1 → workers 0 and 1; both must show FFT activity.
        for job in jobs(8, 2) {
            pool.submit_batch(vec![job]);
        }
        let report = pool.finish();
        assert_eq!(report.outputs.len(), 8);
        assert_eq!(report.worker_fft.len(), 2);
        for (w, fft) in report.worker_fft.iter().enumerate() {
            assert!(
                fft.forward_transforms > 0,
                "worker {w} ran no FFTs: {fft:?}"
            );
            // Workers only infer; they never build plans (spectra and
            // plans are baked into the shared model at compile time).
            assert_eq!(fft.plans_created, 0, "worker {w}: {fft:?}");
        }
    }

    #[test]
    fn session_chunks_chain_state_identically_on_both_executors() {
        let m = model();
        let utt: Vec<Vec<f32>> = (0..12).map(|t| vec![0.05 * t as f32; 8]).collect();
        let whole = m.infer(&utt);
        // Two interleaved sessions, chunked 4+4+4, mixed with a stateless
        // utterance lane in the same submissions, and after each chunk a
        // batch of stateless prefixes on both devices: two more runs for
        // the inline executor's shared queue.
        let prefix = |k: usize, device: usize| &utt[..4 * k + 2 * device + 1];
        let chunk_jobs = |base_slot: usize| -> Vec<Vec<InferenceJob>> {
            (0..3)
                .flat_map(|k| {
                    let mut batch: Vec<InferenceJob> = (0..2u64)
                        .map(|sess| InferenceJob {
                            slot: base_slot + (k * 2) + sess as usize,
                            device: sess as usize,
                            model: 0,
                            frames: utt[k * 4..(k + 1) * 4].to_vec(),
                            session: Some(SessionSlot {
                                id: sess,
                                last: k == 2,
                            }),
                        })
                        .collect();
                    batch.push(InferenceJob {
                        slot: base_slot + 6 + k,
                        device: 0,
                        model: 0,
                        frames: utt.clone(),
                        session: None,
                    });
                    let prefixes = (0..2)
                        .map(|device| InferenceJob {
                            slot: base_slot + 9 + k * 2 + device,
                            device,
                            model: 0,
                            frames: prefix(k, device).to_vec(),
                            session: None,
                        })
                        .collect();
                    [batch, prefixes]
                })
                .collect()
        };
        let run = |mut exec: Box<dyn Executor>| -> Vec<(usize, Vec<Vec<f32>>)> {
            for batch in chunk_jobs(0) {
                exec.submit_batch(batch);
            }
            sorted_outputs(exec.finish())
        };
        let inline = run(Box::new(InlineExecutor::new(vec![Arc::clone(&m)])));
        let pool = run(Box::new(ThreadPoolExecutor::new(vec![Arc::clone(&m)], 2)));
        assert_eq!(inline, pool, "executors must agree bit for bit");
        // Each session's chunk logits concatenate to the whole utterance.
        for sess in 0..2 {
            let chunks: Vec<Vec<f32>> = (0..3)
                .flat_map(|k| inline[k * 2 + sess].1.clone())
                .collect();
            assert_eq!(chunks, whole, "session {sess}: chunked != whole");
        }
        // The stateless lanes are unaffected by sharing batches with
        // streaming chunks.
        for k in 0..3 {
            assert_eq!(inline[6 + k].1, whole, "stateless lane {k}");
            for device in 0..2 {
                assert_eq!(
                    inline[9 + k * 2 + device].1,
                    m.infer(prefix(k, device)),
                    "stateless prefix {k} on device {device}"
                );
            }
        }
    }

    #[test]
    fn migrated_sessions_keep_chaining_state_bit_identically() {
        let m = model();
        let utt: Vec<Vec<f32>> = (0..12).map(|t| vec![0.07 * t as f32; 8]).collect();
        let whole = m.infer(&utt);
        let chunk = |slot: usize, device: usize, k: usize| InferenceJob {
            slot,
            device,
            model: 0,
            frames: utt[k * 4..(k + 1) * 4].to_vec(),
            session: Some(SessionSlot {
                id: 5,
                last: k == 2,
            }),
        };
        // Chunks 0–1 on device 0, then the session migrates to device 1
        // (different worker) for chunk 2.
        let mut pool = ThreadPoolExecutor::new(vec![Arc::clone(&m)], 2);
        pool.submit_batch(vec![chunk(0, 0, 0)]);
        pool.submit_batch(vec![chunk(1, 0, 1)]);
        pool.migrate_session(5, 0, 1);
        pool.submit_batch(vec![chunk(2, 1, 2)]);
        let out = sorted_outputs(pool.finish());
        let stitched: Vec<Vec<f32>> = out.into_iter().flat_map(|(_, l)| l).collect();
        assert_eq!(stitched, whole, "migrated session: stitched != whole");
        // Migrating a session that never computed is a clean no-op.
        let mut pool = ThreadPoolExecutor::new(vec![Arc::clone(&m)], 2);
        pool.migrate_session(99, 0, 1);
        let report = pool.finish();
        assert!(report.outputs.is_empty());
    }

    #[test]
    fn pool_with_zero_jobs_finishes_cleanly() {
        let mut pool = ThreadPoolExecutor::new(vec![model()], 4);
        let report = pool.finish();
        assert!(report.outputs.is_empty());
        assert_eq!(report.worker_fft.len(), 4);
        assert_eq!(report.worker_fft[0], FftStats::default());
    }

    #[test]
    fn dropping_an_unfinished_pool_joins_workers() {
        let m = model();
        let mut pool = ThreadPoolExecutor::new(vec![m], 2);
        for job in jobs(4, 2) {
            pool.submit_batch(vec![job]);
        }
        drop(pool); // must not hang or leak threads
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = ThreadPoolExecutor::new(vec![model()], 0);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_model_set_is_rejected() {
        let _ = InlineExecutor::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn worker_panics_resurface_with_the_original_message() {
        // Bad frame dimension slips past the executor (the runtime
        // validates at admission; raw executor use does not) and panics
        // inside the worker's matvec. finish() must re-raise that panic,
        // not a generic channel error.
        let mut pool = ThreadPoolExecutor::new(vec![model()], 2);
        pool.submit_batch(vec![InferenceJob {
            slot: 0,
            device: 0,
            model: 0,
            frames: vec![vec![0.0; 3]], // model expects dim 8
            session: None,
        }]);
        let _ = pool.finish();
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn scoped_thread_panics_resurface_with_the_original_message() {
        // A long session run keeps the calling thread busy, so on two or
        // more cores the scoped thread takes the first stateless run: the
        // bad one. finish() must re-raise that panic, not the scope's
        // generic one. (On one core the caller hits it itself.)
        let mut inline = InlineExecutor::new(vec![model()]);
        inline.submit_batch(vec![InferenceJob {
            slot: 0,
            device: 0,
            model: 0,
            frames: vec![vec![0.1; 8]; 4000],
            session: Some(SessionSlot { id: 1, last: true }),
        }]);
        for (slot, dim) in [(1, 3), (2, 8)] {
            inline.submit_batch(vec![InferenceJob {
                slot,
                device: 1,
                model: 0,
                frames: vec![vec![0.0; dim]], // the model expects dim 8
                session: None,
            }]);
        }
        let _ = inline.finish();
    }
}
