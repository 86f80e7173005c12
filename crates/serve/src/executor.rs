//! Host-side inference: *where* `forward_logits` runs.
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
//! An [`InlineExecutor`] owns the host side of that split. It is
//! constructed over the run's model set — the scheduler passes its whole
//! registry — and each [`InferenceJob`] names the model it targets by
//! index. The runtime submits one job per request at dispatch time and
//! collects every result once the virtual-time event loop has drained.
//! The executor hands each dispatched run to the run's inference lane
//! (`lane.rs`): one queue that `host cores − 1` scoped threads serve
//! while the event loop keeps dispatching, so host inference overlaps
//! routing. A [`ClusterRuntime`](crate::ClusterRuntime) opens one lane for
//! all its shards. At [`Executor::finish`] the caller closes the lane and
//! helps drain it; on one core, or under [`ExecutorKind::ThreadPool`], no
//! lane thread exists and the caller computes the whole run there — the
//! serial reference the default is checked against.
//!
//! Logits are a pure function of (model, frames) (`f32` arithmetic, no
//! reductions across threads), so every lane produces **bit-identical**
//! outputs whatever its thread count; only wall-clock host time differs.
//! FFT activity is tracked exactly via the thread-local counters in
//! [`ernn_fft::stats`]: the lane credits each run's counts to the executor
//! that submitted it and charges its threads' totals to the closing
//! caller.

mod lane;

pub(crate) use lane::{scope as lane_scope, Lane};

use crate::cache::CompiledModel;
use ernn_fft::stats::FftStats;
use ernn_fpga::exec::{ExecScratch, NetworkState};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread;

/// How many threads serve a [`SchedRuntime`](crate::sched::SchedRuntime)
/// run's inference lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// One scoped thread per further host core serves the lane while the
    /// event loop runs; the event-loop thread helps drain it at `finish`.
    #[default]
    Inline,
    /// No lane thread: the caller computes every run at `finish`, in
    /// submission order. The serial reference the default is checked
    /// against; it keeps this name only because
    /// `benchmark/src/workloads.rs` uses it.
    ThreadPool,
}

impl ExecutorKind {
    /// How many threads a run's inference lane gets: one per host core
    /// beside the caller's for the default, none for the serial
    /// reference.
    pub(crate) fn lane_threads(self) -> usize {
        match self {
            ExecutorKind::Inline => host_cores() - 1,
            ExecutorKind::ThreadPool => 0,
        }
    }
}

/// Session identity of one streaming-chunk job.
///
/// An executor keeps one `session id → NetworkState` table, whichever
/// device a chunk ran on, and its lane runs every session run in
/// submission order on one owner thread — which is what makes streaming
/// results bit-identical across lanes, and what lets a failover re-pin a
/// session to another device with no state to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSlot {
    /// The streaming session this chunk belongs to.
    pub id: u64,
    /// Final chunk: the executor drops the session's state after it.
    pub last: bool,
}

/// One unit of host-side inference work.
#[derive(Debug)]
pub struct InferenceJob {
    /// Index of the response this job's logits belong to.
    pub slot: usize,
    /// Device slot the batch ran on; one fusable run shares it.
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
    /// Host FFT activity of exactly this executor's runs, whichever lane
    /// thread ran them. Over every executor of a run these sum to the
    /// run's global FFT delta.
    pub fft: FftStats,
}

/// Runs host-side inference for a serving run. [`InlineExecutor`] is the
/// executor; the trait is what `benchmark/src/ledger.rs` drives it
/// through (`&mut dyn Executor`).
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
    /// so batch members share both). Queues them on the inference lane
    /// and returns at once; logits are bit-identical to one-job batches.
    fn submit_batch(&mut self, jobs: Vec<InferenceJob>);

    /// Waits for every submitted job and returns the collected outputs.
    /// Must be called exactly once, after the last `submit_batch`.
    fn finish(&mut self) -> ExecutorReport;
}

/// Whether two jobs may share one batch-fused inference call: same
/// device and same model. Runtime batches are one such run; the executor
/// splits arbitrary callers' job lists into maximal contiguous runs.
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

/// [`infer_run`]'s grow-once bookkeeping, one per lane thread next to its
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

/// The executor: `submit_batch` hands each fusable run to an inference
/// lane and [`Executor::finish`] closes the lane, helps drain it and
/// collects this executor's logits.
///
/// Inside a runtime the lane is the run's own (see [`ExecutorKind`]): its
/// threads compute runs while the event loop is still dispatching, and a
/// cluster's shards all feed one lane. Runs that carry session chunks go
/// in submission order to one owner thread, which keeps this executor's
/// session table (one per executor, not per device, so a session whose
/// device changes needs no migration); stateless runs go to any lane
/// thread or to the caller at `finish`. The FFT work of this executor's
/// runs is credited to it, whichever thread ran them, and the lane
/// threads' totals are charged to the caller at close, so the calling
/// thread counts what a serial run counts. A panic on a lane thread
/// resurfaces from `finish` with its original payload.
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
    /// The last batch's job list, emptied — see [`Self::job_buffer`].
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

    /// An empty job list to fill for the next [`Executor::submit_batch`]:
    /// the previous batch's, emptied once the lane took its jobs, so the
    /// runtime's dispatch path stops allocating one per batch.
    pub(crate) fn job_buffer(&mut self) -> Vec<InferenceJob> {
        std::mem::take(&mut self.spare_jobs)
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

    fn finish(&mut self) -> ExecutorReport {
        self.lane.close();
        self.lane.settle(self.account)
    }
}

/// The serial [`InlineExecutor::new`] under the name
/// `benchmark/src/ledger.rs` calls; it has no behaviour of its own.
#[derive(Debug)]
pub struct ThreadPoolExecutor(InlineExecutor);

impl ThreadPoolExecutor {
    /// [`InlineExecutor::new`] over `models`; `_workers` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(models: Vec<Arc<CompiledModel>>, _workers: usize) -> Self {
        ThreadPoolExecutor(InlineExecutor::new(models))
    }
}

impl Executor for ThreadPoolExecutor {
    fn submit_batch(&mut self, jobs: Vec<InferenceJob>) {
        self.0.submit_batch(jobs);
    }

    fn finish(&mut self) -> ExecutorReport {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fft::stats;
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::XCKU060;
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use lane::WAKE_AT;
    use rand::SeedableRng;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

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

    /// `(slot, logits)` of every job, sorted by slot.
    type Outputs = Vec<(usize, Vec<Vec<f32>>)>;

    fn sorted_outputs(mut report: ExecutorReport) -> Outputs {
        report.outputs.sort_by_key(|(slot, _)| *slot);
        report.outputs
    }

    /// `batches` through an executor on a lane that three threads serve,
    /// and through a serial one: both reports, outputs sorted by slot.
    fn on_three_threads_and_serially(
        models: &[Arc<CompiledModel>],
        batches: impl Fn() -> Vec<Vec<InferenceJob>>,
    ) -> [(Outputs, FftStats); 2] {
        let drive = |mut exec: InlineExecutor| {
            for batch in batches() {
                exec.submit_batch(batch);
            }
            let mut report = exec.finish();
            let fft = report.fft;
            report.outputs.sort_by_key(|(slot, _)| *slot);
            (report.outputs, fft)
        };
        let laned = lane_scope(3, |lane| {
            drive(InlineExecutor::on_lane(models.to_vec(), lane))
        });
        [laned, drive(InlineExecutor::new(models.to_vec()))]
    }

    #[test]
    fn lane_and_serial_outputs_are_bit_identical_to_infer() {
        let m = model();
        // Enough one-job batches over three devices to wake the lane
        // threads before the close.
        let n = 2 * WAKE_AT + 3;
        let batches = || {
            (0..n)
                .map(|i| {
                    vec![InferenceJob {
                        slot: i,
                        device: i % 3,
                        model: 0,
                        frames: vec![vec![0.1 * (i as f32 + 1.0); 8]; 3 + i % 4],
                        session: None,
                    }]
                })
                .collect()
        };
        let [laned, serial] = on_three_threads_and_serially(&[Arc::clone(&m)], batches);
        assert_eq!(laned, serial, "bit-identical logits and FFT work");
        assert_eq!(laned.0.len(), n);
        for ((slot, logits), batch) in laned.0.iter().zip(batches()) {
            assert_eq!(logits, &m.infer(&batch[0].frames), "slot {slot}");
        }
    }

    #[test]
    fn multi_model_jobs_route_to_their_model_on_both_executors() {
        let models = vec![model_seeded(17), model_seeded(99)];
        // Same frames against two different models must give different
        // logits, and the lane and the serial executor must agree per
        // slot.
        let batches = || {
            vec![(0..8)
                .map(|i| InferenceJob {
                    slot: i,
                    device: i % 2,
                    model: i % 2,
                    frames: vec![vec![0.3; 8]; 4],
                    session: None,
                })
                .collect()]
        };
        let [(a, _), (b, _)] = on_three_threads_and_serially(&models, batches);
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
    fn session_chunks_chain_state_identically_on_both_executors() {
        let m = model();
        let utt: Vec<Vec<f32>> = (0..12).map(|t| vec![0.05 * t as f32; 8]).collect();
        let whole = m.infer(&utt);
        // Two interleaved sessions, chunked 4+4+4, mixed with a stateless
        // utterance lane in the same submissions, and after each chunk a
        // batch of stateless prefixes on both devices: two more runs for
        // the lane's shared queue.
        let prefix = |k: usize, device: usize| &utt[..4 * k + 2 * device + 1];
        let chunk_jobs = || -> Vec<Vec<InferenceJob>> {
            (0..3)
                .flat_map(|k| {
                    let mut batch: Vec<InferenceJob> = (0..2u64)
                        .map(|sess| InferenceJob {
                            slot: (k * 2) + sess as usize,
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
                        slot: 6 + k,
                        device: 0,
                        model: 0,
                        frames: utt.clone(),
                        session: None,
                    });
                    let prefixes = (0..2)
                        .map(|device| InferenceJob {
                            slot: 9 + k * 2 + device,
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
        let [laned, serial] = on_three_threads_and_serially(&[Arc::clone(&m)], chunk_jobs);
        assert_eq!(laned, serial, "executors must agree bit for bit");
        let laned = laned.0;
        // Each session's chunk logits concatenate to the whole utterance.
        for sess in 0..2 {
            let chunks: Vec<Vec<f32>> =
                (0..3).flat_map(|k| laned[k * 2 + sess].1.clone()).collect();
            assert_eq!(chunks, whole, "session {sess}: chunked != whole");
        }
        // The stateless lanes are unaffected by sharing batches with
        // streaming chunks.
        for k in 0..3 {
            assert_eq!(laned[6 + k].1, whole, "stateless lane {k}");
            for device in 0..2 {
                assert_eq!(
                    laned[9 + k * 2 + device].1,
                    m.infer(prefix(k, device)),
                    "stateless prefix {k} on device {device}"
                );
            }
        }
    }

    #[test]
    fn a_session_whose_device_changes_keeps_chaining_with_no_migration_call() {
        // A failover re-pins a session: chunks 0–1 ran on device 0, chunk
        // 2 runs on device 1, and nothing tells the executor. The one
        // session table per executor must still hand chunk 2 the state
        // chunk 1 left.
        let m = model();
        let utt: Vec<Vec<f32>> = (0..12).map(|t| vec![0.07 * t as f32; 8]).collect();
        let whole = m.infer(&utt);
        let chunks = || {
            [0, 0, 1]
                .into_iter()
                .enumerate()
                .map(|(k, device)| {
                    vec![InferenceJob {
                        slot: k,
                        device,
                        model: 0,
                        frames: utt[k * 4..(k + 1) * 4].to_vec(),
                        session: Some(SessionSlot {
                            id: 5,
                            last: k == 2,
                        }),
                    }]
                })
                .collect()
        };
        for (out, _) in on_three_threads_and_serially(&[Arc::clone(&m)], chunks) {
            let stitched: Vec<Vec<f32>> = out.into_iter().flat_map(|(_, l)| l).collect();
            assert_eq!(stitched, whole, "re-pinned session: stitched != whole");
        }
    }

    #[test]
    fn zero_job_finish_is_clean() {
        for (outputs, fft) in on_three_threads_and_serially(&[model()], Vec::new) {
            assert!(outputs.is_empty());
            assert_eq!(fft, FftStats::default());
        }
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_model_set_is_rejected() {
        let _ = InlineExecutor::new(Vec::new());
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
            let ffts: Vec<FftStats> = reports.iter().map(|r| r.fft).collect();
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
            assert_eq!(&serial.fft, fft, "FFT work credited elsewhere");
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
    #[should_panic(expected = "input length")]
    fn a_submit_after_a_lane_thread_panicked_resurfaces_the_original_message() {
        // The lane thread takes the bad-dimension job, panics and
        // abandons the lane while the event loop is still dispatching:
        // the next submit must re-raise that panic, not report a closed
        // lane.
        lane_scope(1, |lane| {
            let mut inline = InlineExecutor::on_lane(vec![model()], lane);
            inline.submit_batch(vec![stateless(0, 0, 1, 3)]); // the model expects dim 8
            for slot in 1..WAKE_AT {
                inline.submit_batch(vec![stateless(slot, 0, 2, 8)]);
            }
            while lane.queued() > 0 {
                thread::yield_now();
            }
            inline.submit_batch(vec![stateless(WAKE_AT, 0, 2, 8)]);
        });
    }

    #[test]
    fn an_event_loop_that_unwinds_leaves_the_lane_promptly() {
        // The lane threads sleep (fewer runs than wake them are queued)
        // when the event loop panics; the scope must still join them
        // and hand the panic on, instead of waiting for a close. The
        // event loop runs on a thread of its own so that a hang fails
        // the test instead of stalling it.
        let outcome = Arc::new((Mutex::new(None), Condvar::new()));
        let report = Arc::clone(&outcome);
        let event_loop = thread::Builder::new()
            .name("event-loop".into())
            .spawn(move || {
                let result = std::panic::catch_unwind(|| {
                    lane_scope(2, |lane| {
                        let mut inline = InlineExecutor::on_lane(vec![model()], lane);
                        inline.submit_batch(vec![stateless(0, 0, 2, 8)]);
                        panic!("event loop failed");
                    })
                });
                let (slot, done) = &*report;
                *slot.lock().unwrap() = Some(result.map_err(|p| p.downcast::<&str>().map(|s| *s)));
                done.notify_all();
            })
            .expect("the test thread starts");
        let (slot, done) = &*outcome;
        let (mut result, _) = done
            .wait_timeout_while(slot.lock().unwrap(), Duration::from_secs(60), |r| {
                r.is_none()
            })
            .unwrap();
        let result = result
            .take()
            .expect("the scope hung on a lane that was never closed");
        event_loop.join().expect("the panic was caught inside");
        assert!(matches!(result, Err(Ok("event loop failed"))), "{result:?}");
    }
}
