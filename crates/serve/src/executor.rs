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
//! * [`InlineExecutor`], the default, hands each dispatched run to the
//!   run's inference lane (`lane.rs`): one queue that `host cores − 1`
//!   scoped threads serve while the event loop keeps dispatching, so host
//!   inference overlaps routing. A [`ClusterRuntime`](crate::ClusterRuntime)
//!   opens one lane for all its shards. At [`Executor::finish`] the caller
//!   closes the lane and helps drain it; on one core no lane thread
//!   exists and the caller computes the whole run there.
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
//! reports it per worker, the lane credits each run's counts to the
//! executor that submitted it and charges its threads' totals to the
//! closing caller.

mod lane;

pub(crate) use lane::{scope as lane_scope, Lane};

use crate::cache::CompiledModel;
use ernn_fft::stats::{self, FftStats};
use ernn_fpga::exec::{ExecScratch, NetworkState};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;

/// Which host-side executor a [`SchedRuntime`](crate::sched::SchedRuntime)
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Hand each dispatched run to the run's inference lane, which one
    /// scoped thread per further host core serves while the event loop
    /// runs; the event-loop thread helps drain it at `finish`.
    #[default]
    Inline,
    /// One worker thread per device slot, fed over channels.
    ThreadPool,
}

impl ExecutorKind {
    /// How many threads a run's inference lane gets: one per host core
    /// beside the caller's for the inline executor, none for the pool,
    /// which brings its own workers.
    pub(crate) fn lane_threads(self) -> usize {
        match self {
            ExecutorKind::Inline => host_cores() - 1,
            ExecutorKind::ThreadPool => 0,
        }
    }
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
    /// the work of exactly its own runs, whichever lane thread ran them).
    /// Over every executor of a run the entries sum to the run's global
    /// FFT delta.
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
    /// so batch members share both). Queues them and returns at once —
    /// on the run's inference lane (inline) or with a worker (thread
    /// pool); either way logits are bit-identical to one-job batches.
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

/// Hands each maximal fusable run of `jobs` to `each`, in order. A list
/// that is one run — every runtime batch — goes on whole, unallocated.
fn for_each_run(mut jobs: Vec<InferenceJob>, mut each: impl FnMut(Vec<InferenceJob>)) {
    while let Some(first) = jobs.first() {
        let len = jobs.iter().take_while(|j| same_run(first, j)).count();
        let rest = jobs.split_off(len);
        each(std::mem::replace(&mut jobs, rest));
    }
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

/// Computes one fusable run's logits on `model` with a single
/// batch-fused, in-place inference call: every job's frame buffer is
/// moved into `run.utterances` and comes back to the job as its logits.
/// Runs with no session chunks take the stateless path; runs with chunks
/// pull each session's [`NetworkState`] out of `sessions` (materializing
/// a fresh one on first touch), thread it through the lockstep kernel,
/// and store it back unless the chunk was the session's last.
fn infer_run(
    model: &CompiledModel,
    jobs: &mut [InferenceJob],
    scratch: &mut ExecScratch,
    sessions: &mut HashMap<u64, NetworkState>,
    run: &mut RunScratch,
) {
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

/// The default executor: `submit_batch` hands each fusable run to an
/// inference lane and [`Executor::finish`] closes the lane, helps drain
/// it and collects this executor's logits.
///
/// Inside a runtime the lane is the run's own (see
/// [`ExecutorKind::Inline`]): its threads compute runs while the event
/// loop is still dispatching, and a cluster's shards all feed one lane.
/// Runs that carry session chunks go in submission order to one owner
/// thread, which keeps this executor's session table (so a session's
/// state needs no migration between devices); stateless runs go to any
/// lane thread or to the caller at `finish`. The FFT work of this
/// executor's runs is credited to it, whichever thread ran them, and the
/// lane threads' totals are charged to the caller at close, so the
/// calling thread counts what a serial run counts. A panic on a lane
/// thread resurfaces from `finish` with its original payload.
///
/// Built with [`InlineExecutor::new`], the executor gets a lane of its
/// own that no thread serves: `finish` computes every run on the calling
/// thread, in submission order.
#[derive(Debug)]
pub struct InlineExecutor {
    models: Vec<Arc<CompiledModel>>,
    lane: Arc<Lane>,
    /// This executor's account in the lane.
    account: usize,
    /// The last batch's job list, emptied — see [`Executor::job_buffer`].
    spare_jobs: Vec<InferenceJob>,
}

impl InlineExecutor {
    /// An executor computing on the calling thread at `finish`, over the
    /// given model set (jobs index into it).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<Arc<CompiledModel>>) -> Self {
        Self::on_lane(models, &Lane::serial())
    }

    /// An executor feeding `lane`, which a runtime opened for one run.
    pub(crate) fn on_lane(models: Vec<Arc<CompiledModel>>, lane: &Arc<Lane>) -> Self {
        assert!(!models.is_empty(), "executor needs at least one model");
        InlineExecutor {
            models,
            account: lane.open_account(),
            lane: Arc::clone(lane),
            spare_jobs: Vec::new(),
        }
    }
}

impl Executor for InlineExecutor {
    fn submit_batch(&mut self, jobs: Vec<InferenceJob>) {
        for_each_run(jobs, |mut run| {
            let model = Arc::clone(&self.models[run[0].model]);
            self.lane.submit(self.account, model, &mut run);
            self.spare_jobs = run;
        });
    }

    fn job_buffer(&mut self) -> Vec<InferenceJob> {
        std::mem::take(&mut self.spare_jobs)
    }

    fn finish(&mut self) -> ExecutorReport {
        self.lane.close();
        self.lane.settle(self.account)
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
                            let model = &models[jobs[0].model];
                            infer_run(model, &mut jobs, &mut scratch, &mut sessions, &mut run);
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
    fn submit_batch(&mut self, jobs: Vec<InferenceJob>) {
        // Each fusable run lands on its pinned worker as one fused batch.
        for_each_run(jobs, |run| self.send_run(run));
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
    use lane::WAKE_AT;
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

    /// A stateless job on `device` over `frames` frames of `dim` values.
    fn stateless(slot: usize, device: usize, frames: usize, dim: usize) -> InferenceJob {
        InferenceJob {
            slot,
            device,
            model: 0,
            frames: vec![vec![0.01 * (slot % 50) as f32; dim]; frames],
            session: None,
        }
    }

    #[test]
    fn lane_sessions_interleaved_with_stateless_runs_match_infer_bit_for_bit() {
        // Two executors on one lane with three threads, as two shards
        // feed a cluster's lane: each streams the *same* session ids, one
        // chunk of each per batch, with many stateless runs between the
        // chunks, and the caller helps drain at close. Every chunk must
        // chain its own executor's state in submission order, and every
        // stateless run must match direct inference.
        let models = [model_seeded(17), model_seeded(99)];
        const CHUNKS: usize = 16;
        const SESSION_SLOTS: usize = 100_000;
        let utt: Vec<Vec<f32>> = (0..3 * CHUNKS).map(|t| vec![0.02 * t as f32; 8]).collect();
        let batches = |k: usize| -> Vec<Vec<InferenceJob>> {
            let chunks = (0..2u64)
                .map(|id| InferenceJob {
                    slot: SESSION_SLOTS + 2 * k + id as usize,
                    device: 0,
                    model: 0,
                    frames: utt[k * 3..(k + 1) * 3].to_vec(),
                    session: Some(SessionSlot {
                        id,
                        last: k == CHUNKS - 1,
                    }),
                })
                .collect();
            let runs = (0..2 * WAKE_AT).map(|i| vec![stateless(k * 100 + i, 1, 1 + i % 5, 8)]);
            std::iter::once(chunks).chain(runs).collect()
        };
        let (outputs, ffts) = lane_scope(3, |lane| {
            let mut execs: Vec<InlineExecutor> = models
                .iter()
                .map(|m| InlineExecutor::on_lane(vec![Arc::clone(m)], lane))
                .collect();
            for k in 0..CHUNKS {
                for exec in &mut execs {
                    for batch in batches(k) {
                        exec.submit_batch(batch);
                    }
                }
            }
            let caller = stats::thread_snapshot();
            let reports: Vec<ExecutorReport> = execs.iter_mut().map(|e| e.finish()).collect();
            let ffts: Vec<FftStats> = reports.iter().map(|r| r.worker_fft[0]).collect();
            assert_eq!(
                stats::thread_snapshot().since(&caller),
                ffts[0].plus(&ffts[1]),
                "the lane threads' counts were not charged to the closing caller"
            );
            (
                reports.into_iter().map(sorted_outputs).collect::<Vec<_>>(),
                ffts,
            )
        });
        for ((m, out), fft) in models.iter().zip(&outputs).zip(&ffts) {
            let whole = m.infer(&utt);
            for id in 0..2 {
                let stitched: Vec<Vec<f32>> = out
                    .iter()
                    .filter(|(slot, _)| *slot >= SESSION_SLOTS && slot % 2 == id)
                    .flat_map(|(_, logits)| logits.clone())
                    .collect();
                assert_eq!(stitched, whole, "session {id}: chunked != whole");
            }
            // The same batches through a serial executor: the same
            // logits, and exactly the FFT work credited to the lane's.
            let mut serial = InlineExecutor::new(vec![Arc::clone(m)]);
            for batch in (0..CHUNKS).flat_map(batches) {
                serial.submit_batch(batch);
            }
            let serial = serial.finish();
            assert_eq!(&serial.worker_fft[0], fft, "FFT work credited elsewhere");
            assert_eq!(out, &sorted_outputs(serial));
            for (slot, logits) in out.iter().filter(|(slot, _)| *slot < SESSION_SLOTS) {
                let job = stateless(*slot, 1, 1 + slot % 100 % 5, 8);
                assert_eq!(logits, &m.infer(&job.frames), "stateless slot {slot}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn scoped_thread_panics_resurface_with_the_original_message() {
        // The bad-dimension job is the first run a lane thread takes
        // (the test waits until the thread has taken it), and the caller
        // runs only good ones at close: `finish` must re-raise the lane
        // thread's own panic, not a generic one.
        lane_scope(1, |lane| {
            let mut inline = InlineExecutor::on_lane(vec![model()], lane);
            inline.submit_batch(vec![stateless(0, 0, 1, 3)]); // the model expects dim 8
            for slot in 1..WAKE_AT {
                inline.submit_batch(vec![stateless(slot, 0, 2, 8)]);
            }
            while lane.queued() == WAKE_AT {
                thread::yield_now();
            }
            let _ = inline.finish();
        });
    }

    #[test]
    fn an_event_loop_that_unwinds_leaves_the_lane_promptly() {
        // The lane threads sleep (fewer runs than wake them are queued)
        // when the event loop panics; the scope must still join them
        // and hand the panic on, instead of waiting for a close.
        let (done_tx, done_rx) = mpsc::channel();
        let event_loop = thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                lane_scope(2, |lane| {
                    let mut inline = InlineExecutor::on_lane(vec![model()], lane);
                    inline.submit_batch(vec![stateless(0, 0, 2, 8)]);
                    panic!("event loop failed");
                })
            });
            let _ = done_tx.send(outcome.map_err(|p| p.downcast::<&str>().map(|s| *s)));
        });
        let outcome = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the scope hung on a lane that was never closed");
        event_loop.join().expect("the panic was caught inside");
        assert!(
            matches!(outcome, Err(Ok("event loop failed"))),
            "{outcome:?}"
        );
    }
}
