//! The per-layer ledger (`--trace 1`).
//!
//! Two parts, both measured from outside by timing public entry points:
//!
//! 1. **Probes** — each layer's entry points on fixed shapes (the paper's
//!    1024-wide models, the `sched_mixed` and `cluster_tiny` set-ups),
//!    with inputs from the seed.
//! 2. **Re-drive** — the selected workload's round is run, then the same
//!    inference batches are driven again through each lower layer in
//!    isolation (executor → `forward_logits_batch_into` → matvecs → FFTs).
//!    A layer's self time is its total minus the total of the layer
//!    below; every call is a span in the Chrome trace.
//!
//! Host times are the minimum over repeats, like the end-to-end metrics.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ernn_bench::alloc::allocation_count;
use ernn_fft::stats::{thread_snapshot, FftStats};
use ernn_fft::{Complex32, RealFft, RealFftScratch};
use ernn_fpga::artifact::ModelArtifact;
use ernn_fpga::exec::{ExecScratch, NetworkState};
use ernn_fpga::sim::{simulate_batch_into, BatchTrace};
use ernn_linalg::{BlockCirculantMatrix, MatVec, MatVecScratch, WeightMatrix};
use ernn_model::{GruScratch, LstmScratch, RnnLayer};
use ernn_quant::PiecewiseLinear;
use ernn_serve::sched::{CostModel, DeviceResidency, PaddingModel, QueueDiscipline, SchedQueue};
use ernn_serve::{
    CompiledModel, Executor, FlightRecorder, HealthConfig, InferenceJob, InlineExecutor, Request,
    Response, RuntimeConfig, SessionSlot, ThreadPoolExecutor, TimelineConfig, TraceConfig,
    TraceEvent, Workload,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::roofline::{
    accel_muls_per_frame, accel_roofline, cell_weights, circulant_shapes, MatvecShape,
};
use crate::spans::{minus_calls, Recorder, SpanId};
use crate::stats::Rounds;
use crate::workloads::{self, Bench, CLUSTER_SHARDS, WORKLOADS};

/// Table III of the paper: per-frame latency of the FFT8 designs on the
/// XCKU060 (µs). The only reference the cycle model is compared with;
/// the model is otherwise unvalidated.
const PAPER_LSTM_LATENCY_US: f64 = 13.7;
const PAPER_GRU_LATENCY_US: f64 = 10.5;

/// Span buffer size. `cluster_tiny` records about 10 k spans per
/// re-driven round, so its trace holds the first six rounds (≈ 10 MB of
/// JSON) and counts the rest as dropped; the other workloads fit whole.
const SPAN_CAPACITY: usize = 1 << 16;

/// A per-layer metric's name, unit and the direction in which it improves.
pub struct LayerMetric {
    /// Metric name; the prefix is the layer (a crate of the workspace).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Every per-layer metric, in the order a traced run prints them.
pub const PER_LAYER: [LayerMetric; 63] = [
    lower("fft.fwd8_ns", "ns"),
    lower("fft.inv8_ns", "ns"),
    lower("fft.fwd16_ns", "ns"),
    lower("fft.inv16_ns", "ns"),
    lower("fft.transforms_per_frame", "count"),
    lower("fft.block_reads_per_frame", "count"),
    lower("linalg.matvec_b1_us", "us"),
    lower("linalg.matvec_b16_us", "us"),
    higher("linalg.fused_speedup_b16", "ratio"),
    lower("linalg.matvec_small_ns", "ns"),
    higher("linalg.matvec_gflops_b1", "GFLOP/s"),
    higher("linalg.matvec_gflops_b16", "GFLOP/s"),
    lower("linalg.matvec_bytes", "bytes"),
    lower("linalg.matvec_rel_err", "ratio"),
    lower("linalg.steady_allocs", "count"),
    lower("model.lstm_step_b1_us", "us"),
    lower("model.gru_step_b16_us", "us"),
    lower("model.cell_self_frac", "share"),
    lower("quant.act_ns_per_elem", "ns"),
    lower("fpga.exec.frame_us_b1", "us"),
    lower("fpga.exec.frame_us_b16", "us"),
    lower("fpga.sim.batch_ns", "ns"),
    lower("fpga.artifact.load_ms", "ms"),
    higher("fpga.accel.fps", "1/s"),
    higher("fpga.accel.gops", "GOP/s"),
    higher("fpga.accel.op_intensity", "op/byte"),
    higher("fpga.accel.dsp_eff", "share"),
    lower("fpga.accel.lstm_latency_us", "us"),
    lower("fpga.accel.lstm_latency_err_vs_paper", "ratio"),
    lower("fpga.accel.gru_latency_err_vs_paper", "ratio"),
    lower("core.pipeline.compile_ms", "ms"),
    lower("serve.executor.batch_us", "us"),
    lower("serve.executor.pool_over_inline", "ratio"),
    lower("serve.sched.queue_ns_per_req", "ns"),
    lower("serve.sched.cost_ns", "ns"),
    lower("serve.sched.residency_ns", "ns"),
    lower("serve.sched.run_us_per_req", "us"),
    lower("serve.sched.self_frac", "share"),
    higher("serve.sched.mean_batch", "count"),
    lower("serve.sched.model_loads", "count"),
    lower("serve.sched.model_evictions", "count"),
    lower("serve.cluster.run_us_per_req", "us"),
    lower("serve.cluster.self_frac", "share"),
    lower("serve.cluster.shards16_over_1", "ratio"),
    lower("serve.cluster.placement_ns", "ns"),
    lower("serve.cluster.forwards", "count"),
    lower("serve.cluster.replications", "count"),
    lower("serve.trace.on_over_off", "ratio"),
    lower("serve.trace.record_ns", "ns"),
    lower("layer.top_us_per_frame", "us"),
    lower("layer.serve.self_frac", "share"),
    lower("layer.executor.self_frac", "share"),
    lower("layer.fpga_exec.self_frac", "share"),
    lower("layer.quant.self_frac", "share"),
    lower("layer.linalg.self_frac", "share"),
    lower("layer.fft.self_frac", "share"),
    higher("layer.fft_linalg.share", "share"),
    higher("bench.rounds", "count"),
    lower("bench.round_us_p50", "us"),
    lower("bench.round_us_p90", "us"),
    lower("bench.round_cv", "ratio"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.harness_self_frac", "share"),
];

/// Smallest value `measure` returns over at least three calls and about
/// `budget` of wall time. `measure` times its own region, so untimed
/// preparation can sit inside it.
fn best_of(budget: Duration, mut measure: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut calls = 0;
    while calls < 3 || start.elapsed() < budget {
        best = best.min(measure());
        calls += 1;
    }
    best
}

/// Best time per call (ns) of `f`, called in timed groups of `inner`.
fn best_ns(budget: Duration, inner: u32, mut f: impl FnMut()) -> f64 {
    best_of(budget, || {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        start.elapsed().as_nanos() as f64 / f64::from(inner)
    })
}

/// [`best_of`] for two measurements whose *ratio* is wanted: the calls
/// alternate, so both sides sample the same stretches of machine noise.
fn best_of_pair(
    budget: Duration,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let start = Instant::now();
    let mut best = (f64::INFINITY, f64::INFINITY);
    let mut calls = 0;
    while calls < 3 || start.elapsed() < budget {
        best = (best.0.min(a()), best.1.min(b()));
        calls += 1;
    }
    best
}

/// Wall time (ns) of `f`.
fn wall_ns<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

fn random_vec(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn random_circulant(
    rng: &mut ChaCha8Rng,
    rows: usize,
    cols: usize,
    block: usize,
) -> BlockCirculantMatrix {
    let blocks = rows.div_ceil(block) * cols.div_ceil(block) * block;
    BlockCirculantMatrix::from_blocks(rows, cols, block, random_vec(rng, blocks))
}

// ---------------------------------------------------------------------
// Re-drive: a round's inference work, as data.

/// One request's inference input.
struct Item<'a> {
    frames: &'a [Vec<f32>],
    session: Option<SessionSlot>,
}

/// One dispatched batch: which model ran which items on which device.
struct Batch {
    model: usize,
    device: usize,
    items: Vec<usize>,
    /// Frames per item, and their sum.
    lens: Vec<usize>,
    frames: u64,
}

/// What re-driving needs to know about one model, looked up once.
struct ModelPlan<'a> {
    /// Per stacked layer, the weight matrices one cell step multiplies
    /// by, in call order.
    cells: Vec<Vec<&'a WeightMatrix>>,
    /// Shape and FFT plan of every block-circulant weight.
    transforms: Vec<(MatvecShape, Arc<RealFft>)>,
    /// PWL activation evaluations per frame: 5 per LSTM cell, 3 per GRU
    /// cell.
    activations_per_frame: u64,
}

impl<'a> ModelPlan<'a> {
    fn of(model: &'a CompiledModel) -> Self {
        let net = model.quantized().network();
        let cells = net.layers().iter().map(cell_weights).collect();
        let transforms = circulant_shapes(net)
            .into_iter()
            .map(|shape| (shape, RealFft::shared(shape.block)))
            .collect();
        let activations_per_frame = net
            .layers()
            .iter()
            .map(|layer| match layer {
                RnnLayer::Lstm(l) => 5 * l.config().hidden_dim as u64,
                RnnLayer::Gru(g) => 3 * g.hidden_dim() as u64,
            })
            .sum();
        ModelPlan {
            cells,
            transforms,
            activations_per_frame,
        }
    }
}

/// The inference work of one round of a workload.
struct Work<'a> {
    models: &'a [Arc<CompiledModel>],
    plans: Vec<ModelPlan<'a>>,
    items: Vec<Item<'a>>,
    /// Batches in dispatch order (a session's chunks stay in order).
    batches: Vec<Batch>,
}

impl Batch {
    fn new(model: usize, device: usize, items: Vec<usize>, all: &[Item]) -> Self {
        let lens: Vec<usize> = items.iter().map(|&i| all[i].frames.len()).collect();
        let frames = lens.iter().sum::<usize>() as u64;
        Batch {
            model,
            device,
            items,
            lens,
            frames,
        }
    }
}

/// Recovers the dispatched batches of a served load from its responses:
/// members of one batch share a device and a dispatch time.
fn batches_of<'a>(load: &'a [Request], responses: &[Response]) -> (Vec<Item<'a>>, Vec<Batch>) {
    let index: HashMap<u64, usize> = load.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let items: Vec<Item> = load
        .iter()
        .map(|r| Item {
            frames: &r.frames,
            session: match r.workload {
                Workload::Chunk { session, last, .. } => Some(SessionSlot { id: session, last }),
                _ => None,
            },
        })
        .collect();
    let mut order: Vec<&Response> = responses.iter().filter(|r| !r.shed).collect();
    order.sort_by(|a, b| {
        a.dispatch_us
            .total_cmp(&b.dispatch_us)
            .then(a.device.cmp(&b.device))
    });
    let mut batches = Vec::new();
    for members in order.chunk_by(|a, b| (a.dispatch_us, a.device) == (b.dispatch_us, b.device)) {
        let ids = members.iter().map(|r| index[&r.id]).collect();
        batches.push(Batch::new(
            members[0].model,
            members[0].device.unwrap_or(0),
            ids,
            &items,
        ));
    }
    (items, batches)
}

impl<'a> Work<'a> {
    /// The work of `bench`'s most recent round.
    fn of(bench: &'a Bench) -> Work<'a> {
        let (models, (items, batches)) = match bench {
            Bench::Asr(a) => {
                let items: Vec<Item> = a
                    .utterances
                    .iter()
                    .map(|u| Item {
                        frames: u,
                        session: None,
                    })
                    .collect();
                let batch = Batch::new(0, 0, (0..items.len()).collect(), &items);
                (std::slice::from_ref(&a.model), (items, vec![batch]))
            }
            Bench::Sched(s) => {
                let report = s.last.as_ref().expect("a round has run");
                (s.models.as_slice(), batches_of(&s.load, &report.responses))
            }
            Bench::Cluster(c) => {
                let report = c.last.as_ref().expect("a round has run");
                (c.models.as_slice(), batches_of(&c.load, &report.responses))
            }
        };
        Work {
            models,
            plans: models.iter().map(|m| ModelPlan::of(m)).collect(),
            items,
            batches,
        }
    }

    /// `serve.executor`: the batches through an [`Executor`], as the
    /// runtimes drive it. Returns the host ns inside the executor.
    fn drive_executor(
        &self,
        executor: &mut dyn Executor,
        rec: &mut Recorder,
        parent: Option<SpanId>,
        round: u32,
    ) -> u64 {
        let group = rec.open("serve.executor", parent, round);
        let mut total = 0;
        let mut slot = 0;
        for batch in &self.batches {
            let jobs: Vec<InferenceJob> = batch
                .items
                .iter()
                .map(|&i| {
                    slot += 1;
                    InferenceJob {
                        slot: slot - 1,
                        device: batch.device,
                        model: batch.model,
                        frames: self.items[i].frames.to_vec(),
                        session: self.items[i].session,
                    }
                })
                .collect();
            let start = rec.now_ns();
            executor.submit_batch(jobs);
            let end = rec.now_ns();
            rec.record("serve.executor/submit_batch", start, end, group, round);
            total += end - start;
        }
        let start = rec.now_ns();
        let report = executor.finish();
        let end = rec.now_ns();
        rec.record("serve.executor/finish", start, end, group, round);
        black_box(report);
        rec.close(group);
        total + (end - start)
    }

    /// `fpga.exec`: the batches through the quantized network's batched
    /// forward pass, with a warmed scratch and a fresh output vector per
    /// batch as the executor allocates one. Returns host ns and the exact
    /// FFT counts.
    fn drive_exec(
        &self,
        scratch: &mut ExecScratch,
        rec: &mut Recorder,
        parent: Option<SpanId>,
        round: u32,
    ) -> (u64, FftStats) {
        let group = rec.open("fpga.exec", parent, round);
        let mut sessions: HashMap<u64, NetworkState> = HashMap::new();
        let before = thread_snapshot();
        let mut total = 0;
        for batch in &self.batches {
            let qnet = self.models[batch.model].quantized();
            let frames: Vec<&[Vec<f32>]> =
                batch.items.iter().map(|&i| self.items[i].frames).collect();
            let slots: Vec<Option<SessionSlot>> =
                batch.items.iter().map(|&i| self.items[i].session).collect();
            let mut states: Vec<Option<NetworkState>> = slots
                .iter()
                .map(|s| s.map(|s| sessions.remove(&s.id).unwrap_or_else(|| qnet.fresh_state())))
                .collect();
            let mut out = Vec::new();
            let start = rec.now_ns();
            if slots.iter().all(Option::is_none) {
                qnet.forward_logits_batch_into(&frames, &mut out, scratch);
            } else {
                qnet.forward_logits_batch_states_into(&frames, &mut states, &mut out, scratch);
            }
            let end = rec.now_ns();
            rec.record("fpga.exec/forward_logits_batch", start, end, group, round);
            total += end - start;
            black_box(out);
            for (slot, state) in slots.into_iter().zip(states) {
                if let (Some(slot), Some(state)) = (slot, state) {
                    if !slot.last {
                        sessions.insert(slot.id, state);
                    }
                }
            }
        }
        let counts = thread_snapshot().since(&before);
        rec.close(group);
        (total, counts)
    }

    /// `linalg`: every matvec the batches' forward passes issue — per
    /// timestep, each cell weight at the number of lanes still active,
    /// then the classifier per frame — on buffers of the right shape.
    fn drive_linalg(
        &self,
        bufs: &mut MatvecBufs,
        rec: &mut Recorder,
        parent: Option<SpanId>,
        round: u32,
    ) -> u64 {
        let group = rec.open("linalg", parent, round);
        let mut total = 0;
        for batch in &self.batches {
            let classifier = &self.models[batch.model].quantized().network().classifier_w;
            let max_len = batch.lens.iter().copied().max().unwrap_or(0);
            let start = rec.now_ns();
            for cell in &self.plans[batch.model].cells {
                for t in 0..max_len {
                    let lanes = batch.lens.iter().filter(|&&l| l > t).count();
                    for w in cell {
                        bufs.matvec(*w, lanes);
                    }
                }
            }
            for _ in 0..batch.frames {
                bufs.matvec(classifier, 1);
            }
            let end = rec.now_ns();
            rec.record("linalg/matvecs", start, end, group, round);
            total += end - start;
        }
        rec.close(group);
        total
    }

    /// `fft`: as many forward and inverse real transforms as the batches'
    /// block-circulant matvecs perform. Returns host ns and the forward
    /// and inverse counts, which must equal `drive_exec`'s exact counters.
    fn drive_fft(
        &self,
        bufs: &mut FftBufs,
        rec: &mut Recorder,
        parent: Option<SpanId>,
        round: u32,
    ) -> (u64, u64, u64) {
        let group = rec.open("fft", parent, round);
        let (mut total, mut forward, mut inverse) = (0, 0, 0);
        for batch in &self.batches {
            let start = rec.now_ns();
            for (shape, plan) in &self.plans[batch.model].transforms {
                let (time, spectrum) = (
                    &mut bufs.time[..shape.block],
                    &mut bufs.spectrum[..plan.spectrum_len()],
                );
                for _ in 0..batch.frames * shape.q() {
                    plan.forward_into(black_box(time), spectrum, &mut bufs.scratch);
                }
                for _ in 0..batch.frames * shape.p() {
                    plan.inverse_into(black_box(spectrum), time, &mut bufs.scratch);
                }
                forward += batch.frames * shape.q();
                inverse += batch.frames * shape.p();
            }
            let end = rec.now_ns();
            rec.record("fft/transforms", start, end, group, round);
            total += end - start;
        }
        rec.close(group);
        (total, forward, inverse)
    }

    /// PWL activation evaluations of one round.
    fn activation_evals(&self) -> u64 {
        self.batches
            .iter()
            .map(|b| b.frames * self.plans[b.model].activations_per_frame)
            .sum()
    }
}

/// Input/output buffers for re-driven matvecs, grown on demand.
struct MatvecBufs {
    x: Vec<f32>,
    y: Vec<f32>,
    scratch: MatVecScratch,
}

impl MatvecBufs {
    fn new() -> Self {
        MatvecBufs {
            x: Vec::new(),
            y: Vec::new(),
            scratch: MatVecScratch::new(),
        }
    }

    fn matvec(&mut self, w: &impl MatVec, batch: usize) {
        let (xs, ys) = (batch * w.cols(), batch * w.rows());
        if self.x.len() < xs {
            self.x.resize(xs, 0.25);
        }
        if self.y.len() < ys {
            self.y.resize(ys, 0.0);
        }
        w.matvec_batch_into(&self.x[..xs], &mut self.y[..ys], batch, &mut self.scratch);
    }
}

/// Buffers for re-driven transforms, sized for the largest block the
/// paper considers.
struct FftBufs {
    time: Vec<f32>,
    spectrum: Vec<Complex32>,
    scratch: RealFftScratch,
}

impl FftBufs {
    const MAX_BLOCK: usize = 64;

    fn new() -> Self {
        FftBufs {
            time: vec![0.5; Self::MAX_BLOCK],
            spectrum: vec![Complex32::ZERO; Self::MAX_BLOCK / 2 + 1],
            scratch: RealFftScratch::new(),
        }
    }
}

/// Layer totals (ns) of one round, each the minimum over the re-driven
/// rounds, and the share of the re-drive spent in the harness itself.
struct LayerTotals {
    /// The round with its span recorded, and the same round without.
    top: f64,
    untraced: f64,
    executor: Option<f64>,
    exec: f64,
    linalg: f64,
    fft: f64,
    fft_counts: FftStats,
    harness_frac: f64,
}

/// Runs `bench`'s round and re-drives its batches through every layer
/// below, at least three times and until `budget` is spent.
fn redrive(
    bench: &mut Bench,
    rec: &mut Recorder,
    budget: Duration,
) -> Result<(LayerTotals, Vec<f64>), String> {
    let with_executor = !matches!(bench, Bench::Asr(_));
    let started = Instant::now();
    let (mut matvec_bufs, mut fft_bufs) = (MatvecBufs::new(), FftBufs::new());
    let mut exec_scratch = ExecScratch::new();
    let mut best = LayerTotals {
        top: f64::INFINITY,
        untraced: f64::INFINITY,
        executor: with_executor.then_some(f64::INFINITY),
        exec: f64::INFINITY,
        linalg: f64::INFINITY,
        fft: f64::INFINITY,
        fft_counts: FftStats::default(),
        harness_frac: 0.0,
    };
    let mut rounds_us = Vec::new();
    let (mut group_ns, mut group_self_ns) = (0u64, 0u64);
    let mut round = 0u32;
    while round < 3 || started.elapsed() < budget {
        best.untraced = best.untraced.min(bench.round().as_nanos() as f64);
        let outer = rec.open("redrive", None, round);
        let elapsed = bench.round();
        let end = rec.now_ns();
        let top_ns = elapsed.as_nanos() as u64;
        rec.record("round", end - top_ns, end, outer, round);
        rounds_us.push(top_ns as f64 / 1e3);
        best.top = best.top.min(top_ns as f64);

        let work = Work::of(bench);
        let first_group = rec.spans().len();
        if let Some(executor) = best.executor.as_mut() {
            let mut inline = InlineExecutor::new(work.models.to_vec());
            *executor = executor.min(work.drive_executor(&mut inline, rec, outer, round) as f64);
        }
        let (exec_ns, counts) = work.drive_exec(&mut exec_scratch, rec, outer, round);
        best.exec = best.exec.min(exec_ns as f64);
        best.linalg = best
            .linalg
            .min(work.drive_linalg(&mut matvec_bufs, rec, outer, round) as f64);
        let (fft_ns, forward, inverse) = work.drive_fft(&mut fft_bufs, rec, outer, round);
        best.fft = best.fft.min(fft_ns as f64);
        rec.close(outer);
        if (forward, inverse) != (counts.forward_transforms, counts.inverse_transforms) {
            return Err(format!(
                "re-driven FFT counts ({forward} forward, {inverse} inverse) differ from the exact counters ({} forward, {} inverse)",
                counts.forward_transforms, counts.inverse_transforms
            ));
        }
        best.fft_counts = counts;

        // Harness share: what the layer groups spent outside their
        // per-batch spans (building jobs, cloning frames, bookkeeping).
        if outer.is_some() {
            for id in first_group..rec.spans().len() {
                let span = &rec.spans()[id];
                if span.parent == outer && span.name != "round" {
                    group_ns += span.duration_ns();
                    group_self_ns += rec.self_ns(id as SpanId);
                }
            }
        }
        round += 1;
    }
    best.harness_frac = group_self_ns as f64 / group_ns.max(1) as f64;
    Ok((best, rounds_us))
}

// ---------------------------------------------------------------------
// The traced run.

/// Values of the per-layer metrics, looked up by name when printed.
#[derive(Default)]
pub struct Ledger {
    values: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.values.push((name, value));
    }

    /// The value of a declared metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Everything a traced run produces.
pub struct Traced {
    /// Per-layer metric values.
    pub ledger: Ledger,
    /// Human-readable per-layer table of the re-driven workload.
    pub table: String,
    /// Chrome-trace JSON of every recorded span.
    pub chrome_json: String,
    /// Units checked by the correctness gate and units that failed.
    pub tally: workloads::Tally,
}

/// Expected `fft` + `linalg` share of the top span, written down before
/// measuring (README, "Interaction").
fn predicted_fft_linalg_share(name: &str) -> &'static str {
    match name {
        "asr_lstm1024_stream" | "asr_gru1024_batch16" => "> 0.80",
        "sched_mixed" => "0.50 to 0.80",
        _ => "< 0.50",
    }
}

/// Runs the per-layer ledger for `name`: probes on fixed shapes, then
/// the re-drive of the workload's own round. `seconds` is shared equally
/// between the two parts.
pub fn run(name: &str, seed: u64, seconds: f64) -> Result<Traced, String> {
    let selected = WORKLOADS
        .iter()
        .position(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut ledger = Ledger::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1ed9e5);

    // All four set-ups: the probes use the paper's models and the two
    // serving configurations whichever workload is re-driven. The
    // binding order is the order of `WORKLOADS`.
    let [mut lstm, mut gru, mut sched, mut cluster] =
        WORKLOADS.map(|w| Bench::setup(w.name, seed).expect("a listed workload"));

    // Half of the measured time goes to the probes, in about this many
    // slices (some probes take several).
    const PROBES: f64 = 40.0;
    let slice = Duration::from_secs_f64(seconds / 2.0 / PROBES);

    probe_fft(&mut ledger, slice);
    probe_linalg(&mut ledger, &mut rng, slice);
    probe_quant(&mut ledger, &mut rng, slice);
    let (Bench::Asr(lstm_asr), Bench::Asr(gru_asr)) = (&lstm, &gru) else {
        unreachable!("asr_* set-ups are Bench::Asr");
    };
    probe_model(
        &mut ledger,
        &lstm_asr.model,
        &gru_asr.model,
        &mut rng,
        slice,
    );
    probe_fpga(&mut ledger, &lstm_asr.model, &gru_asr.model, seed, slice);
    ledger.set(
        "fpga.exec.frame_us_b1",
        best_of(slice * 2, || lstm.round().as_secs_f64() * 1e6) / lstm.size().frames as f64,
    );
    ledger.set(
        "fpga.exec.frame_us_b16",
        best_of(slice * 2, || gru.round().as_secs_f64() * 1e6) / gru.size().frames as f64,
    );
    probe_sched(&mut ledger, &sched, slice);
    probe_cluster(&mut ledger, &cluster, slice);

    // Re-drive the selected workload.
    let bench = [&mut lstm, &mut gru, &mut sched, &mut cluster]
        .into_iter()
        .nth(selected)
        .expect("index of a listed workload");
    let tally = bench.check()?;
    let mut rec = Recorder::with_capacity(name, SPAN_CAPACITY);
    let (totals, rounds_us) = redrive(bench, &mut rec, Duration::from_secs_f64(seconds / 2.0))?;
    let size = bench.size();
    let work = Work::of(bench);

    let act_ns = ledger.get("quant.act_ns_per_elem").expect("probed above");
    let quant = work.activation_evals() as f64 * act_ns;
    let below_top = totals.executor.unwrap_or(totals.exec);
    let rows = [
        (
            "serve (run / infer_batch_into)",
            totals.top,
            totals.top - below_top,
        ),
        (
            "serve.executor",
            totals.executor.unwrap_or(0.0),
            totals.executor.map_or(0.0, |x| x - totals.exec),
        ),
        (
            "fpga.exec",
            totals.exec,
            minus_calls(totals.exec - totals.linalg, work.activation_evals(), act_ns),
        ),
        ("quant (calls x probe)", quant, quant),
        ("linalg", totals.linalg, totals.linalg - totals.fft),
        ("fft", totals.fft, totals.fft),
    ];
    let frames = size.frames as f64;
    let mut table = format!(
        "per-layer table of {name}, best of {} re-driven rounds, µs per frame ({} frames per round)\n{:<32} {:>12} {:>12} {:>8}\n",
        rounds_us.len(),
        size.frames,
        "layer",
        "total",
        "self",
        "share"
    );
    for (layer, total, own) in rows {
        table += &format!(
            "{layer:<32} {:>12.3} {:>12.3} {:>8.3}\n",
            total / 1e3 / frames,
            own / 1e3 / frames,
            own / totals.top
        );
    }
    let self_sum: f64 = rows.iter().map(|r| r.2).sum();
    let fft_linalg = totals.linalg / totals.top;
    table += &format!(
        "self times sum to {:.3} of the top span; fft + linalg share {:.3} (predicted {}); {} spans recorded, {} dropped\n",
        self_sum / totals.top,
        fft_linalg,
        predicted_fft_linalg_share(name),
        rec.spans().len(),
        rec.dropped()
    );

    ledger.set(
        "fft.transforms_per_frame",
        totals.fft_counts.transforms() as f64 / frames,
    );
    ledger.set(
        "fft.block_reads_per_frame",
        totals.fft_counts.spectrum_block_reads as f64 / frames,
    );
    ledger.set("layer.top_us_per_frame", totals.top / 1e3 / frames);
    for (metric, row) in [
        "layer.serve.self_frac",
        "layer.executor.self_frac",
        "layer.fpga_exec.self_frac",
        "layer.quant.self_frac",
        "layer.linalg.self_frac",
        "layer.fft.self_frac",
    ]
    .into_iter()
    .zip(rows)
    {
        ledger.set(metric, row.2 / totals.top);
    }
    ledger.set("layer.fft_linalg.share", fft_linalg);
    let summary = Rounds::summarize(&rounds_us);
    ledger.set("bench.rounds", summary.count as f64);
    ledger.set("bench.round_us_p50", summary.p50_us);
    ledger.set("bench.round_us_p90", summary.p90_us);
    ledger.set("bench.round_cv", summary.cv);
    ledger.set(
        "bench.trace_overhead_frac",
        totals.top / totals.untraced - 1.0,
    );
    ledger.set("bench.harness_self_frac", totals.harness_frac);

    Ok(Traced {
        ledger,
        table,
        chrome_json: rec.chrome_json(),
        tally,
    })
}

fn probe_fft(ledger: &mut Ledger, slice: Duration) {
    for (size, forward, inverse) in [
        (8, "fft.fwd8_ns", "fft.inv8_ns"),
        (16, "fft.fwd16_ns", "fft.inv16_ns"),
    ] {
        let plan = RealFft::shared(size);
        let mut scratch = RealFftScratch::new();
        let time: Vec<f32> = (0..size).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut spectrum = vec![Complex32::ZERO; plan.spectrum_len()];
        let mut back = vec![0.0f32; size];
        ledger.set(
            forward,
            best_ns(slice, 4096, || {
                plan.forward_into(black_box(&time), &mut spectrum, &mut scratch)
            }),
        );
        ledger.set(
            inverse,
            best_ns(slice, 4096, || {
                plan.inverse_into(black_box(&spectrum), &mut back, &mut scratch)
            }),
        );
    }
}

fn probe_linalg(ledger: &mut Ledger, rng: &mut ChaCha8Rng, slice: Duration) {
    const BATCH: usize = 16;
    let big = random_circulant(rng, 1024, 1024, 8);
    let small = random_circulant(rng, 8, 8, 8);
    let xs = random_vec(rng, BATCH * 1024);
    let mut ys = vec![0.0f32; BATCH * 1024];
    let mut scratch = MatVecScratch::new();

    // Interleaved, so the fused speed-up is measured inside one stretch.
    let mut batch_scratch = MatVecScratch::new();
    let mut batch_ys = vec![0.0f32; BATCH * 1024];
    let (b1_ns, b16_ns) = best_of_pair(
        slice * 2,
        || wall_ns(|| big.matvec_into(black_box(&xs[..1024]), &mut ys[..1024], &mut scratch)),
        || {
            wall_ns(|| {
                big.matvec_batch_into(black_box(&xs), &mut batch_ys, BATCH, &mut batch_scratch)
            })
        },
    );
    ledger.set("linalg.matvec_b1_us", b1_ns / 1e3);
    ledger.set("linalg.matvec_b16_us", b16_ns / 1e3);
    ledger.set("linalg.fused_speedup_b16", BATCH as f64 * b1_ns / b16_ns);
    let (sx, mut sy) = (random_vec(rng, 8), vec![0.0f32; 8]);
    ledger.set(
        "linalg.matvec_small_ns",
        best_ns(slice, 1024, || {
            small.matvec_into(black_box(&sx), &mut sy, &mut scratch)
        }),
    );

    // Computed from the shape, not measured: see `roofline`.
    let shape = MatvecShape::of(&big);
    ledger.set("linalg.matvec_gflops_b1", shape.flops(1) / b1_ns);
    ledger.set(
        "linalg.matvec_gflops_b16",
        shape.flops(BATCH as u64) / b16_ns,
    );
    ledger.set("linalg.matvec_bytes", shape.bytes(1) as f64);

    let reference = big.matvec_direct(&xs[..1024]);
    big.matvec_into(&xs[..1024], &mut ys[..1024], &mut scratch);
    let scale = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let err = reference
        .iter()
        .zip(&ys[..1024])
        .fold(0.0f32, |m, (r, y)| m.max((r - y).abs()));
    ledger.set("linalg.matvec_rel_err", f64::from(err / scale));

    // Both scratches are warm by now: nothing may allocate.
    let before = allocation_count();
    for _ in 0..8 {
        big.matvec_into(&xs[..1024], &mut ys[..1024], &mut scratch);
        big.matvec_batch_into(&xs, &mut batch_ys, BATCH, &mut batch_scratch);
    }
    ledger.set("linalg.steady_allocs", (allocation_count() - before) as f64);
}

fn probe_quant(ledger: &mut Ledger, rng: &mut ChaCha8Rng, slice: Duration) {
    const LEN: usize = 4096;
    let sigmoid = PiecewiseLinear::sigmoid(64);
    let source: Vec<f32> = (0..LEN).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
    let mut buf = source.clone();
    let per_slice = best_ns(slice, 16, || {
        buf.copy_from_slice(&source);
        sigmoid.eval_slice(black_box(&mut buf));
    });
    ledger.set("quant.act_ns_per_elem", per_slice / LEN as f64);
}

fn probe_model(
    ledger: &mut Ledger,
    lstm: &CompiledModel,
    gru: &CompiledModel,
    rng: &mut ChaCha8Rng,
    slice: Duration,
) {
    const BATCH: usize = 16;
    let RnnLayer::Lstm(l) = &lstm.quantized().network().layers()[0] else {
        unreachable!("the LSTM workload's first layer is an LSTM");
    };
    let cfg = *l.config();
    let x = random_vec(rng, cfg.input_dim);
    let (c, y) = (
        random_vec(rng, cfg.hidden_dim),
        random_vec(rng, cfg.output_dim),
    );
    let (mut c_next, mut y_next) = (vec![0.0; cfg.hidden_dim], vec![0.0; cfg.output_dim]);
    let mut scratch = LstmScratch::new();
    let step_ns = best_ns(slice, 2, || {
        l.step_batch_into(
            black_box(&x),
            &c,
            &y,
            &mut c_next,
            &mut y_next,
            1,
            &mut scratch,
        )
    });
    ledger.set("model.lstm_step_b1_us", step_ns / 1e3);

    // The step's own share: what is left after its three matvecs.
    let mut bufs = MatvecBufs::new();
    let matvecs_ns = best_ns(slice, 2, || {
        for w in cell_weights(&lstm.quantized().network().layers()[0]) {
            bufs.matvec(w, 1);
        }
    });
    ledger.set("model.cell_self_frac", (step_ns - matvecs_ns) / step_ns);

    let RnnLayer::Gru(g) = &gru.quantized().network().layers()[0] else {
        unreachable!("the GRU workload's first layer is a GRU");
    };
    let xs = random_vec(rng, BATCH * g.input_dim());
    let cs = random_vec(rng, BATCH * g.hidden_dim());
    let mut cs_next = vec![0.0; BATCH * g.hidden_dim()];
    let mut scratch = GruScratch::new();
    let step_ns = best_ns(slice, 1, || {
        g.step_batch_into(black_box(&xs), &cs, &mut cs_next, BATCH, &mut scratch)
    });
    ledger.set("model.gru_step_b16_us", step_ns / 1e3);
}

fn probe_fpga(
    ledger: &mut Ledger,
    lstm: &CompiledModel,
    gru: &CompiledModel,
    seed: u64,
    slice: Duration,
) {
    // A typical `cluster_tiny` batch: four requests of one or two frames.
    let mut trace = BatchTrace::default();
    let stages = lstm.stage_cycles();
    ledger.set(
        "fpga.sim.batch_ns",
        best_ns(slice, 1024, || {
            simulate_batch_into(stages, black_box(&[1, 2, 1, 1]), &mut trace)
        }),
    );

    let bytes = workloads::compile_pipeline(workloads::lstm1024_spec(), seed).save_bytes();
    ledger.set(
        "fpga.artifact.load_ms",
        best_ns(slice, 1, || {
            let artifact = ModelArtifact::load_bytes(black_box(&bytes))
                .expect("a just-saved artifact decodes");
            black_box(CompiledModel::from_artifact(&artifact));
        }) / 1e6,
    );
    ledger.set(
        "core.pipeline.compile_ms",
        best_ns(slice, 1, || {
            black_box(workloads::compile(workloads::lstm1024_spec(), seed));
        }) / 1e6,
    );

    // Model-side roofline: outputs of the cycle model plus operation
    // counts computed from shapes. Nothing here is measured on hardware.
    let report = lstm.accelerator().report("lstm1024-fft8");
    let muls = accel_muls_per_frame(
        &circulant_shapes(lstm.quantized().network()),
        6 * lstm.spec().hidden_dim as u64,
    );
    let roofline = accel_roofline(lstm.spec(), &report, muls);
    ledger.set("fpga.accel.fps", report.fps);
    ledger.set("fpga.accel.gops", roofline.gops);
    ledger.set("fpga.accel.op_intensity", roofline.op_intensity);
    ledger.set("fpga.accel.dsp_eff", roofline.dsp_eff);
    ledger.set("fpga.accel.lstm_latency_us", report.latency_us);
    ledger.set(
        "fpga.accel.lstm_latency_err_vs_paper",
        (report.latency_us - PAPER_LSTM_LATENCY_US).abs() / PAPER_LSTM_LATENCY_US,
    );
    let gru_latency = gru.accelerator().report("gru1024-fft8").latency_us;
    ledger.set(
        "fpga.accel.gru_latency_err_vs_paper",
        (gru_latency - PAPER_GRU_LATENCY_US).abs() / PAPER_GRU_LATENCY_US,
    );
}

fn probe_sched(ledger: &mut Ledger, bench: &Bench, slice: Duration) {
    let Bench::Sched(s) = bench else {
        unreachable!("sched_mixed sets up Bench::Sched");
    };
    let report = s.last.as_ref().expect("a round has run");
    ledger.set("serve.sched.mean_batch", report.metrics.mean_batch_size);
    ledger.set("serve.sched.model_loads", report.sched.model_loads as f64);
    ledger.set(
        "serve.sched.model_evictions",
        report.sched.model_evictions as f64,
    );

    // Each comparison alternates its two sides. The run against the same
    // batches through the inline executor alone (host time inside it):
    let run_with = |runtime: &ernn_serve::sched::SchedRuntime| {
        let load = s.load.clone();
        wall_ns(|| runtime.run(load))
    };
    let plain = s.runtime(RuntimeConfig::new());
    let work = Work::of(bench);
    let drive = |executor: &mut dyn Executor| {
        work.drive_executor(executor, &mut Recorder::with_capacity("probe", 0), None, 0) as f64
    };
    let inline = || InlineExecutor::new(work.models.to_vec());
    let (run_ns, inline_ns) = best_of_pair(slice * 6, || run_with(&plain), || drive(&mut inline()));
    ledger.set(
        "serve.sched.run_us_per_req",
        run_ns / 1e3 / s.load.len() as f64,
    );
    ledger.set("serve.sched.self_frac", (run_ns - inline_ns) / run_ns);
    ledger.set(
        "serve.executor.batch_us",
        inline_ns / 1e3 / work.batches.len() as f64,
    );

    // The pool against the inline executor, on wall time from the first
    // submit until `finish` returns:
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let (inline_wall_ns, pool_wall_ns) = best_of_pair(
        slice * 6,
        || wall_ns(|| drive(&mut inline())),
        || wall_ns(|| drive(&mut ThreadPoolExecutor::new(work.models.to_vec(), workers))),
    );
    ledger.set(
        "serve.executor.pool_over_inline",
        pool_wall_ns / inline_wall_ns,
    );

    // The run with every observer on against the run with them off:
    let observed = s.runtime(
        RuntimeConfig::new()
            .tracing(TraceConfig::enabled(1 << 16))
            .timeline(TimelineConfig::enabled(50.0, 1 << 14))
            .health(HealthConfig::enabled()),
    );
    let (off_ns, on_ns) = best_of_pair(slice * 6, || run_with(&plain), || run_with(&observed));
    ledger.set("serve.trace.on_over_off", on_ns / off_ns);

    let mut recorder = FlightRecorder::new(TraceConfig::enabled(1 << 12));
    let mut id = 0u64;
    ledger.set(
        "serve.trace.record_ns",
        best_ns(slice, 4096, || {
            id += 1;
            recorder.record(black_box(TraceEvent::Admit {
                t_us: id as f64,
                id,
                model: 0,
                predicted_us: 1.0,
            }));
        }),
    );

    // Queue, cost model and residency on their own.
    let queued: Vec<Request> = s
        .load
        .iter()
        .take(64)
        .map(|r| {
            let mut small = r.clone();
            small.frames.truncate(1);
            small
        })
        .collect();
    let mut queue = SchedQueue::new(QueueDiscipline::Edf);
    let no_affinity = |_session: u64| None;
    ledger.set(
        "serve.sched.queue_ns_per_req",
        best_of(slice, || {
            let requests = queued.clone();
            let start = Instant::now();
            for (seq, r) in requests.into_iter().enumerate() {
                queue.push(r, seq as u64, 1.0);
            }
            while let Some(model) = queue.head().map(|r| r.model) {
                black_box(queue.take_batch(model, 8, &PaddingModel::none(), &no_affinity));
            }
            start.elapsed().as_nanos() as f64 / queued.len() as f64
        }),
    );
    let cost = CostModel::build(&s.platforms, plain.registry());
    ledger.set(
        "serve.sched.cost_ns",
        best_ns(slice, 4096, || {
            black_box(cost.estimate_batch_us(1, 1, black_box(&[40, 35, 50, 31, 44, 58, 39, 47])));
        }),
    );
    let bytes = [s.models[0].weight_bytes(), s.models[1].weight_bytes()];
    let mut residency =
        DeviceResidency::new(bytes[1] + bytes[0] / 2 + 4 * s.models[0].state_bytes());
    let mut session = 0u64;
    ledger.set(
        "serve.sched.residency_ns",
        best_ns(slice, 1024, || {
            // Two weight misses (each evicts the other model) and two
            // session-state inserts per cycle; report per operation.
            session += 2;
            black_box(residency.ensure(0, bytes[0]));
            black_box(residency.ensure_state(session, s.models[0].state_bytes(), false));
            black_box(residency.ensure(1, bytes[1]));
            black_box(residency.ensure_state(session + 1, s.models[0].state_bytes(), false));
        }) / 4.0,
    );
}

fn probe_cluster(ledger: &mut Ledger, bench: &Bench, slice: Duration) {
    let Bench::Cluster(c) = bench else {
        unreachable!("cluster_tiny sets up Bench::Cluster");
    };
    let report = c.last.as_ref().expect("a round has run");
    ledger.set("serve.cluster.forwards", report.stats.routed as f64);
    ledger.set(
        "serve.cluster.replications",
        report.stats.replications as f64,
    );

    let run_with = |runtime: &ernn_serve::ClusterRuntime| {
        let load = c.load.clone();
        wall_ns(|| runtime.run(load))
    };
    let one_shard = c.runtime(1, RuntimeConfig::new());
    let sixteen = c.runtime(CLUSTER_SHARDS, RuntimeConfig::new());
    let work = Work::of(bench);
    let (run_ns, executor_ns) = best_of_pair(
        slice * 6,
        || run_with(&sixteen),
        || {
            work.drive_executor(
                &mut InlineExecutor::new(work.models.to_vec()),
                &mut Recorder::with_capacity("probe", 0),
                None,
                0,
            ) as f64
        },
    );
    ledger.set(
        "serve.cluster.run_us_per_req",
        run_ns / 1e3 / c.load.len() as f64,
    );
    ledger.set("serve.cluster.self_frac", (run_ns - executor_ns) / run_ns);
    let (sixteen_ns, one_ns) =
        best_of_pair(slice * 6, || run_with(&sixteen), || run_with(&one_shard));
    ledger.set("serve.cluster.shards16_over_1", sixteen_ns / one_ns);

    let mut model = 0;
    ledger.set(
        "serve.cluster.placement_ns",
        best_ns(slice, 4096, || {
            model = (model + 1) % c.spec.len();
            black_box(sixteen.placement().replicas(black_box(model)));
        }),
    );
}
