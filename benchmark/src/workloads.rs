//! The four benchmark workloads: set-up from a seed, one timed round,
//! the correctness gate, and the virtual-clock statistics of a round.
//!
//! Every workload is a fixed round of work (fixed by the seed) that the
//! harness repeats; only calls into the workspace's public functions are
//! timed, and inputs are cloned before the clock starts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ernn_core::pipeline::{Pipeline, PipelineModel};
use ernn_fpga::exec::ExecScratch;
use ernn_fpga::sim::simulate_batch;
use ernn_fpga::{Device, ADM_PCIE_7V3, XCKU060};
use ernn_model::{CellType, ModelSpec};
use ernn_serve::loadgen::{
    open_loop_poisson, open_loop_sessions, synthetic_utterances, SessionLoad,
};
use ernn_serve::sched::{CostModel, DeviceResidency, ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{
    ClusterConfig, ClusterRuntime, ClusterSpec, CompiledModel, ExecutorKind, Request, Response,
    RuntimeConfig, ServeMetrics, Steering, TransferModel,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::quantile;

/// One utterance: frames of features.
pub type Utterance = Vec<Vec<f32>>;

/// A workload's fixed name and the one-sentence reason it exists.
pub struct WorkloadInfo {
    /// Name later issues cite; also the `--workload` argument.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// The benchmark's workloads, in the order `--repeat-check` runs them.
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "asr_lstm1024_stream",
        why: "paper's LSTM-1024 at batch 1: the latency path, where fft+linalg own the time and a batch-only trick must show nothing",
    },
    WorkloadInfo {
        name: "asr_gru1024_batch16",
        why: "paper's GRU-1024 with 16 utterances in lock-step: the fused matvec path a batch-major kernel rewrite should win on",
    },
    WorkloadInfo {
        name: "sched_mixed",
        why: "two tenants through executor, EDF queue, cost model and weight residency: kernel gains diluted, scheduler changes visible",
    },
    WorkloadInfo {
        name: "cluster_tiny",
        why: "16 shards serving GRU-8 models: router, shard event loops and per-call fixed cost dominate, large-matrix work predicts no change",
    },
];

/// ASR feature frames arrive every 10 ms; the real-time deadline of the
/// `asr_*` workloads is the utterance's own audio duration.
const ASR_FRAME_SHIFT_US: f64 = 10_000.0;
/// Input feature dimension and class count of the paper's acoustic model.
const ASR_DIM: usize = 153;
const ASR_CLASSES: usize = 61;

const SCHED_DIM: usize = 39;
const SCHED_CLASSES: usize = 40;
/// `sched_mixed`: requests per round and the open-loop offered rate on
/// the virtual clock.
const SCHED_REQUESTS: usize = 100;
const SCHED_RATE_RPS: f64 = 500_000.0;
/// Loads the virtual-clock statistics of `sched_mixed` are pooled over
/// (the timed round's load and fifteen more): a round is kept short so
/// that its fastest repeat converges, which leaves one load too few
/// latency samples for a steady median and p95.
const SCHED_VIRT_LOADS: usize = 16;
const SCHED_INTERACTIVE_SLO_US: f64 = 250.0;
const SCHED_BATCH_SLO_US: f64 = 2_500.0;

const CLUSTER_DIM: usize = 8;
const CLUSTER_CLASSES: usize = 8;
pub(crate) const CLUSTER_SHARDS: usize = 16;
const CLUSTER_REPLICATION: usize = 8;
const CLUSTER_SESSIONS: usize = 400;
const CLUSTER_SESSION_FRAMES: usize = 6;
const CLUSTER_UTTERANCES: usize = 5_600;
/// Offered load in busy-device equivalents: well under the 16 shards, so
/// the open loop builds no backlog and nothing is shed.
const CLUSTER_PARALLELISM: f64 = 6.0;
/// Deadline = this many worst-device service times plus fixed slack.
const CLUSTER_SLO_MULT: f64 = 3.0;

/// Compiles a model under the paper preset (block 8, 12-bit datapath,
/// XCKU060) with weights initialised from `seed`.
pub fn compile(spec: ModelSpec, seed: u64) -> CompiledModel {
    compile_pipeline(spec, seed).into_model()
}

/// [`compile`] keeping the pipeline's terminal stage, which also holds
/// the serializable artifact.
pub fn compile_pipeline(spec: ModelSpec, seed: u64) -> PipelineModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Pipeline::paper(spec)
        .expect("valid spec")
        .init(&mut rng)
        .project()
        .expect("paper block policy")
        .quantize()
        .expect("paper datapath")
        .compile()
        .expect("paper platform")
}

/// The paper's headline LSTM: 1024 cells, projection 512, peepholes.
pub fn lstm1024_spec() -> ModelSpec {
    ModelSpec::new(CellType::Lstm, ASR_DIM, ASR_CLASSES)
        .layer_dims(&[1024])
        .projection(512)
        .peephole(true)
}

/// The paper's GRU-1024.
pub fn gru1024_spec() -> ModelSpec {
    ModelSpec::new(CellType::Gru, ASR_DIM, ASR_CLASSES).layer_dims(&[1024])
}

fn gru_spec(dim: usize, classes: usize, hidden: usize) -> ModelSpec {
    ModelSpec::new(CellType::Gru, dim, classes).layer_dims(&[hidden])
}

/// Alternating Table-IV boards, one device per entry.
pub fn alternating_boards(n: usize) -> Vec<Device> {
    (0..n)
        .map(|d| if d % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 })
        .collect()
}

/// What one round of a workload amounts to, fixed by the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSize {
    /// Requests (utterances count as requests on the `asr_*` workloads).
    pub requests: u64,
    /// Feature frames inferred.
    pub frames: u64,
}

/// Virtual-clock statistics of one round; deterministic in the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtStats {
    /// Simulated device-busy µs per inferred frame.
    pub frame_us: f64,
    /// Median request latency on the virtual clock (µs).
    pub p50_us: f64,
    /// 95th-percentile request latency on the virtual clock (µs).
    pub p95_us: f64,
    /// Latency samples behind the quantiles.
    pub samples: usize,
    /// Share of deadline-tracked requests served by their deadline (a
    /// shed request misses).
    pub slo_met_share: f64,
}

impl VirtStats {
    fn from_latencies(mut latencies: Vec<f64>, frame_us: f64, met: usize, tracked: usize) -> Self {
        latencies.sort_by(f64::total_cmp);
        VirtStats {
            frame_us,
            p50_us: quantile(&latencies, 0.50),
            p95_us: quantile(&latencies, 0.95),
            samples: latencies.len(),
            slo_met_share: met as f64 / tracked.max(1) as f64,
        }
    }

    /// Statistics pooled over served loads: latencies from the responses,
    /// device busy time from the occupancy the runtime reports.
    fn from_reports<'a>(reports: impl Iterator<Item = (&'a [Response], &'a ServeMetrics)>) -> Self {
        let (mut latencies, mut busy_us, mut frames) = (Vec::new(), 0.0, 0usize);
        let (mut met, mut tracked) = (0, 0);
        for (responses, metrics) in reports {
            busy_us += metrics.device_occupancy.iter().sum::<f64>() * metrics.makespan_us;
            for r in responses {
                if !r.shed {
                    latencies.push(r.latency_us());
                    frames += r.logits.len();
                }
                tracked += usize::from(r.deadline_tracked);
                met += usize::from(r.deadline_tracked && r.deadline_met);
            }
        }
        Self::from_latencies(latencies, busy_us / frames.max(1) as f64, met, tracked)
    }
}

/// Outcome of the correctness gate: units checked and units that failed.
/// A unit is a frame on the `asr_*` workloads and a request elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed the check.
    pub failed: u64,
}

/// `asr_*`: one compiled model and a batch of utterances run through
/// [`CompiledModel::infer_batch_into`].
pub struct AsrBench {
    /// The model under test.
    pub model: Arc<CompiledModel>,
    /// The round's utterances (the batch).
    pub utterances: Vec<Utterance>,
    /// Held-out utterances for the arg-max agreement share only.
    agreement_set: Vec<Utterance>,
    out: Vec<Vec<Vec<f32>>>,
    scratch: ExecScratch,
}

/// `sched_mixed`: a two-tenant [`SchedRuntime`] and its open-loop load.
pub struct SchedBench {
    /// Shared tenant models, in registry order.
    pub models: Vec<Arc<CompiledModel>>,
    /// Device platforms of the pool.
    pub platforms: Vec<Device>,
    /// Scheduling policy (EDF + cost model, one-model BRAM budget).
    pub policy: SchedPolicy,
    /// The round's requests.
    pub load: Vec<Request>,
    /// Further loads from the same generator, pooled by `virt()`.
    virt_loads: Vec<Vec<Request>>,
    runtime: SchedRuntime,
    /// Responses of the most recent round.
    pub last: Option<ernn_serve::sched::SchedReport>,
}

/// `cluster_tiny`: a 16-shard [`ClusterRuntime`] and its open-loop load.
pub struct ClusterBench {
    /// The tenant set (models shared behind `Arc`s).
    pub spec: ClusterSpec,
    /// The tenants' models, in spec order.
    pub models: Vec<Arc<CompiledModel>>,
    /// Per-shard scheduling policy.
    pub policy: SchedPolicy,
    /// The round's requests.
    pub load: Vec<Request>,
    runtime: ClusterRuntime,
    /// Report of the most recent round.
    pub last: Option<ernn_serve::ClusterReport>,
}

/// A set-up workload.
pub enum Bench {
    /// `asr_lstm1024_stream` or `asr_gru1024_batch16`.
    Asr(AsrBench),
    /// `sched_mixed`.
    Sched(SchedBench),
    /// `cluster_tiny`.
    Cluster(ClusterBench),
}

fn sched_registry(models: &[Arc<CompiledModel>]) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    for (name, model) in ["gru-64-interactive", "gru-256-batch"].iter().zip(models) {
        reg.register_shared(*name, Arc::clone(model));
    }
    reg
}

impl SchedBench {
    /// A runtime over the same models, platforms and policy.
    pub fn runtime(&self, config: RuntimeConfig) -> SchedRuntime {
        SchedRuntime::with_config(
            sched_registry(&self.models),
            self.platforms.clone(),
            self.policy,
            config,
        )
    }
}

impl ClusterBench {
    /// A cluster over the same tenants and policy with `shards` shards.
    pub fn runtime(&self, shards: usize, shard_config: RuntimeConfig) -> ClusterRuntime {
        cluster_runtime(&self.spec, self.policy, shards, shard_config)
    }
}

fn cluster_runtime(
    spec: &ClusterSpec,
    policy: SchedPolicy,
    shards: usize,
    shard_config: RuntimeConfig,
) -> ClusterRuntime {
    ClusterRuntime::new(
        spec.clone(),
        alternating_boards(shards)
            .into_iter()
            .map(|d| vec![d])
            .collect(),
        policy,
        shard_config,
        ClusterConfig::new()
            .replication(CLUSTER_REPLICATION.min(shards))
            .steering(Steering::LoadFeedback),
    )
}

fn setup_asr(
    spec: ModelSpec,
    lanes: usize,
    frames: (usize, usize),
    seeds: &mut ChaCha8Rng,
) -> AsrBench {
    let model = Arc::new(compile(spec, seeds.next_u64()));
    let utterances = synthetic_utterances(lanes, frames, ASR_DIM, seeds.next_u64());
    let agreement_set = synthetic_utterances(16, (40, 40), ASR_DIM, seeds.next_u64());
    AsrBench {
        model,
        utterances,
        agreement_set,
        out: Vec::new(),
        scratch: ExecScratch::new(),
    }
}

fn setup_sched(seeds: &mut ChaCha8Rng) -> SchedBench {
    let models = vec![
        Arc::new(compile(
            gru_spec(SCHED_DIM, SCHED_CLASSES, 64),
            seeds.next_u64(),
        )),
        Arc::new(compile(
            gru_spec(SCHED_DIM, SCHED_CLASSES, 256),
            seeds.next_u64(),
        )),
    ];
    // A weight budget that holds exactly one model per device, so
    // placement pays weight loads and evictions (as `sched_sweep` does).
    let budget = models[1].weight_bytes() + models[0].weight_bytes() / 2;
    let policy = SchedPolicy::edf_cost_model(8, 200.0).with_bram_budget_bytes(budget);
    let platforms = vec![XCKU060, ADM_PCIE_7V3];

    let load = sched_load(seeds);
    let virt_loads = (1..SCHED_VIRT_LOADS).map(|_| sched_load(seeds)).collect();
    let runtime = SchedRuntime::with_config(
        sched_registry(&models),
        platforms.clone(),
        policy,
        RuntimeConfig::new(),
    );
    SchedBench {
        models,
        platforms,
        policy,
        load,
        virt_loads,
        runtime,
        last: None,
    }
}

/// One `sched_mixed` load: 3 interactive requests to every batch request,
/// open-loop Poisson arrivals; every request has its own utterance so the
/// frame total converges across seeds.
fn sched_load(seeds: &mut ChaCha8Rng) -> Vec<Request> {
    let batch_requests = SCHED_REQUESTS / 4;
    let interactive = synthetic_utterances(
        SCHED_REQUESTS - batch_requests,
        (5, 15),
        SCHED_DIM,
        seeds.next_u64(),
    );
    let batch = synthetic_utterances(batch_requests, (30, 60), SCHED_DIM, seeds.next_u64());
    let arrivals = open_loop_poisson(
        &interactive,
        SCHED_REQUESTS,
        SCHED_RATE_RPS,
        seeds.next_u64(),
    );
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let arrival = r.arrival_us;
            if i % 4 == 3 {
                Request::new(r.id, batch[i / 4].clone(), arrival)
                    .with_model(1)
                    .with_deadline(arrival + SCHED_BATCH_SLO_US)
            } else {
                let utt = interactive[i - i / 4].clone();
                Request::new(r.id, utt, arrival)
                    .with_model(0)
                    .with_deadline(arrival + SCHED_INTERACTIVE_SLO_US)
            }
        })
        .collect()
}

fn setup_cluster(seeds: &mut ChaCha8Rng) -> ClusterBench {
    let mut spec = ClusterSpec::new();
    for name in ["gru-8-stream", "gru-8-batch", "gru-8-tail"] {
        spec.register(
            name,
            compile(gru_spec(CLUSTER_DIM, CLUSTER_CLASSES, 8), seeds.next_u64()),
        );
    }

    // Timing constants come from the cost model, so the load stays
    // under capacity if the datapath or platforms change.
    let mut reg = ModelRegistry::new();
    for m in 0..spec.len() {
        reg.register_shared(spec.name(m).to_string(), Arc::clone(spec.model(m)));
    }
    let cost = CostModel::build(&alternating_boards(2), &reg);
    let worst_us = |model: usize, frames: u64| {
        cost.estimate_frames_us(0, model, frames)
            .max(cost.estimate_frames_us(1, model, frames))
    };
    let load_us = DeviceResidency::load_us(
        (0..spec.len())
            .map(|m| reg.weight_bytes(m))
            .fold(0, u64::max),
    );
    let transfer = TransferModel::intra_rack();
    let hop_us = |frames: usize| transfer.transfer_us((frames * CLUSTER_DIM * 4) as u64);

    let audio = synthetic_utterances(CLUSTER_UTTERANCES, (1, 2), CLUSTER_DIM, seeds.next_u64());
    let session_audio = synthetic_utterances(
        CLUSTER_SESSIONS,
        (CLUSTER_SESSION_FRAMES, CLUSTER_SESSION_FRAMES),
        CLUSTER_DIM,
        seeds.next_u64(),
    );
    let work_us: f64 = audio
        .iter()
        .enumerate()
        .map(|(i, u)| worst_us(i % spec.len(), u.len() as u64))
        .sum::<f64>()
        + (CLUSTER_SESSIONS * CLUSTER_SESSION_FRAMES) as f64 * worst_us(0, 1);
    let span_us = work_us / CLUSTER_PARALLELISM;
    let unit_us = work_us / (CLUSTER_UTTERANCES + CLUSTER_SESSIONS * CLUSTER_SESSION_FRAMES) as f64;
    let max_wait_us = (2.0 * unit_us).max(1.0);
    let slack_us = max_wait_us + load_us + unit_us;
    let slo_us = |model: usize, frames: usize| {
        CLUSTER_SLO_MULT * worst_us(model, frames as u64) + 2.0 * hop_us(frames) + slack_us
    };

    // Streaming sessions on model 0: 1-frame chunks, each session
    // spread over about a third of the run, starts over the first half.
    let mut load = open_loop_sessions(
        &session_audio,
        CLUSTER_SESSIONS,
        SessionLoad {
            session_rate_sps: CLUSTER_SESSIONS as f64 / (span_us / 2.0 * 1e-6),
            chunk_frames: 1,
            chunk_gap_us: span_us / (3.0 * CLUSTER_SESSION_FRAMES as f64),
            chunk_slo_us: Some(slo_us(0, 1)),
        },
        seeds.next_u64(),
    );
    // Utterances round-robin over the tenants, Poisson over the span.
    let id_base = load.len() as u64;
    let rate_rps = CLUSTER_UTTERANCES as f64 / (span_us * 1e-6);
    let utterances = open_loop_poisson(&audio, CLUSTER_UTTERANCES, rate_rps, seeds.next_u64());
    load.extend(utterances.into_iter().enumerate().map(|(i, r)| {
        let (arrival, model) = (r.arrival_us, i % spec.len());
        let slo = slo_us(model, r.num_frames());
        Request::new(id_base + r.id, r.frames, arrival)
            .with_model(model)
            .with_deadline(arrival + slo)
    }));

    let policy = SchedPolicy::edf_cost_model(4, max_wait_us);
    let runtime = cluster_runtime(&spec, policy, CLUSTER_SHARDS, RuntimeConfig::new());
    ClusterBench {
        models: (0..spec.len()).map(|m| Arc::clone(spec.model(m))).collect(),
        spec,
        policy,
        load,
        runtime,
        last: None,
    }
}

impl Bench {
    /// Builds the named workload from `seed` — models compiled through
    /// the lifecycle pipeline, load generated — and runs one untimed
    /// warm-up round so scratch buffers, the shared FFT plan cache and
    /// the weight spectra are in place before anything is timed.
    ///
    /// Returns `None` for an unknown name.
    pub fn setup(name: &str, seed: u64) -> Option<Bench> {
        let mut seeds = ChaCha8Rng::seed_from_u64(seed);
        let mut bench = match name {
            "asr_lstm1024_stream" => {
                Bench::Asr(setup_asr(lstm1024_spec(), 1, (39, 41), &mut seeds))
            }
            "asr_gru1024_batch16" => Bench::Asr(setup_asr(gru1024_spec(), 16, (7, 9), &mut seeds)),
            "sched_mixed" => Bench::Sched(setup_sched(&mut seeds)),
            "cluster_tiny" => Bench::Cluster(setup_cluster(&mut seeds)),
            _ => return None,
        };
        bench.round();
        Some(bench)
    }

    /// Requests and frames in one round.
    pub fn size(&self) -> RoundSize {
        let of_load = |load: &[Request]| RoundSize {
            requests: load.len() as u64,
            frames: load.iter().map(|r| r.num_frames() as u64).sum(),
        };
        match self {
            Bench::Asr(a) => RoundSize {
                requests: a.utterances.len() as u64,
                frames: a.utterances.iter().map(|u| u.len() as u64).sum(),
            },
            Bench::Sched(s) => of_load(&s.load),
            Bench::Cluster(c) => of_load(&c.load),
        }
    }

    /// Runs one round and returns the host time spent inside the
    /// workspace's entry point; input clones and result drops are
    /// outside the timed region.
    pub fn round(&mut self) -> Duration {
        match self {
            Bench::Asr(a) => {
                let batch: Vec<&[Vec<f32>]> = a.utterances.iter().map(Vec::as_slice).collect();
                timed(|| a.model.infer_batch_into(&batch, &mut a.out, &mut a.scratch)).1
            }
            // The previous report is dropped and the load cloned before
            // the clock starts.
            Bench::Sched(s) => {
                let load = s.load.clone();
                s.last = None;
                let (report, elapsed) = timed(|| s.runtime.run(load));
                s.last = Some(report);
                elapsed
            }
            Bench::Cluster(c) => {
                let load = c.load.clone();
                c.last = None;
                let (report, elapsed) = timed(|| c.runtime.run(load));
                c.last = Some(report);
                elapsed
            }
        }
    }

    /// Virtual-clock statistics of the most recent round.
    pub fn virt(&self) -> VirtStats {
        match self {
            Bench::Asr(a) => {
                // The round's utterances stream back-to-back through the
                // simulated CGPipe of the model's accelerator.
                let counts: Vec<u64> = a.utterances.iter().map(|u| u.len() as u64).collect();
                let trace = simulate_batch(a.model.stage_cycles(), &counts);
                let period_us = Device::clock_period_us();
                let latencies: Vec<f64> = trace
                    .completion_cycles
                    .iter()
                    .map(|&c| c as f64 * period_us)
                    .collect();
                let met = latencies
                    .iter()
                    .zip(&counts)
                    .filter(|(l, &f)| **l <= f as f64 * ASR_FRAME_SHIFT_US)
                    .count();
                let frames: u64 = counts.iter().sum();
                let frame_us = trace.makespan_cycles as f64 * period_us / frames as f64;
                VirtStats::from_latencies(latencies, frame_us, met, counts.len())
            }
            Bench::Sched(s) => {
                let report = s.last.as_ref().expect("a round has run");
                let more: Vec<_> = s
                    .virt_loads
                    .iter()
                    .map(|load| s.runtime.run(load.clone()))
                    .collect();
                VirtStats::from_reports(
                    std::iter::once(report)
                        .chain(&more)
                        .map(|r| (r.responses.as_slice(), &r.metrics)),
                )
            }
            Bench::Cluster(c) => {
                let report = c.last.as_ref().expect("a round has run");
                VirtStats::from_reports(std::iter::once((
                    report.responses.as_slice(),
                    &report.metrics,
                )))
            }
        }
    }

    /// The correctness gate on the most recent round.
    ///
    /// `asr_*`: every frame's logits must be finite and bit-equal between
    /// the batched `_into` path and the allocating single-utterance path.
    /// `sched_mixed` / `cluster_tiny`: every request id answered exactly
    /// once and not shed, and one extra run on the thread-pool executor
    /// must reproduce responses, metrics and stats bit for bit.
    pub fn check(&self) -> Result<Tally, String> {
        match self {
            Bench::Asr(a) => {
                let mut tally = Tally::default();
                if a.out.len() != a.utterances.len() {
                    return Err(format!(
                        "{} utterances in, {} out",
                        a.utterances.len(),
                        a.out.len()
                    ));
                }
                for (utt, batched) in a.utterances.iter().zip(&a.out) {
                    let single = a.model.infer(utt);
                    if single.len() != utt.len() || batched.len() != utt.len() {
                        return Err("logit frame count differs from the input".into());
                    }
                    for (s, b) in single.iter().zip(batched) {
                        tally.attempted += 1;
                        let same = s.len() == b.len()
                            && s.iter()
                                .zip(b)
                                .all(|(x, y)| x.is_finite() && x.to_bits() == y.to_bits());
                        tally.failed += u64::from(!same);
                    }
                }
                Ok(tally)
            }
            Bench::Sched(s) => {
                let report = s.last.as_ref().expect("a round has run");
                let tally = check_answers(&s.load, &report.responses);
                let pool = s
                    .runtime(RuntimeConfig::new().executor(ExecutorKind::ThreadPool))
                    .run(s.load.clone());
                if (&report.responses, &report.metrics, &report.sched)
                    != (&pool.responses, &pool.metrics, &pool.sched)
                {
                    return Err("sched_mixed: thread-pool executor changed the report".into());
                }
                Ok(tally)
            }
            Bench::Cluster(c) => {
                let report = c.last.as_ref().expect("a round has run");
                let tally = check_answers(&c.load, &report.responses);
                let pool = c
                    .runtime(
                        CLUSTER_SHARDS,
                        RuntimeConfig::new().executor(ExecutorKind::ThreadPool),
                    )
                    .run(c.load.clone());
                if (&report.responses, &report.metrics, &report.stats)
                    != (&pool.responses, &pool.metrics, &pool.stats)
                {
                    return Err("cluster_tiny: thread-pool executor changed the report".into());
                }
                Ok(tally)
            }
        }
    }

    /// Whether two rounds produced the same deterministic outputs; the
    /// harness compares the first timed round with the last.
    pub fn snapshot(&self) -> Snapshot {
        match self {
            Bench::Asr(a) => Snapshot::Logits(a.out.clone()),
            Bench::Sched(s) => {
                let r = s.last.as_ref().expect("a round has run");
                Snapshot::Sched(
                    r.responses.clone(),
                    Box::new((r.metrics.clone(), r.sched.clone())),
                )
            }
            Bench::Cluster(c) => {
                let r = c.last.as_ref().expect("a round has run");
                Snapshot::Cluster(r.responses.clone(), Box::new((r.metrics.clone(), r.stats)))
            }
        }
    }

    /// Share of frames whose arg-max class on the quantized FFT path
    /// equals the float network's (same quantized weights, float
    /// activations), and the number of frames compared. The `asr_*`
    /// workloads compare a held-out utterance set; the serving workloads
    /// compare the logits the last round returned.
    pub fn argmax_agreement(&self) -> (f64, usize) {
        let mut frames = 0usize;
        let mut agree = 0usize;
        let mut compare = |model: &CompiledModel, input: &[Vec<f32>], quantized: &[Vec<f32>]| {
            let float = model.quantized().network().forward_logits(input);
            for (q, f) in quantized.iter().zip(&float) {
                frames += 1;
                agree += usize::from(argmax(q) == argmax(f));
            }
        };
        match self {
            Bench::Asr(a) => {
                for utt in &a.agreement_set {
                    compare(&a.model, utt, &a.model.infer(utt));
                }
            }
            Bench::Sched(s) => {
                let report = s.last.as_ref().expect("a round has run");
                for (req, resp) in pair_by_id(&s.load, &report.responses) {
                    compare(&s.models[req.model], &req.frames, &resp.logits);
                }
            }
            Bench::Cluster(c) => {
                let report = c.last.as_ref().expect("a round has run");
                for (req, resp) in pair_by_id(&c.load, &report.responses) {
                    // Chunks resume recurrent state, which the stateless
                    // float pass cannot; compare whole utterances only.
                    if req.session().is_none() {
                        compare(&c.models[req.model], &req.frames, &resp.logits);
                    }
                }
            }
        }
        (agree as f64 / frames.max(1) as f64, frames)
    }
}

/// Deterministic outputs of one round, for round-to-round equality.
#[derive(PartialEq)]
pub enum Snapshot {
    /// `asr_*`: the batch's logits.
    Logits(Vec<Vec<Vec<f32>>>),
    /// `sched_mixed`: responses, metrics and scheduler stats.
    Sched(
        Vec<Response>,
        Box<(ServeMetrics, ernn_serve::sched::SchedStats)>,
    ),
    /// `cluster_tiny`: responses, metrics and router stats.
    Cluster(Vec<Response>, Box<(ServeMetrics, ernn_serve::ClusterStats)>),
}

/// Runs `f` and returns its result with the host time it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// Requests paired with their responses, both in id order. Only valid
/// after [`check_answers`] found every id answered exactly once.
fn pair_by_id<'a>(
    load: &'a [Request],
    responses: &'a [Response],
) -> Vec<(&'a Request, &'a Response)> {
    let mut requests: Vec<&Request> = load.iter().collect();
    requests.sort_by_key(|r| r.id);
    let mut answers: Vec<&Response> = responses.iter().collect();
    answers.sort_by_key(|r| r.id);
    requests.into_iter().zip(answers).collect()
}

/// Every submitted id must be answered exactly once; a request fails if
/// it is unanswered, answered twice, or shed. Answers to ids nobody
/// submitted fail too.
fn check_answers(load: &[Request], responses: &[Response]) -> Tally {
    let mut answers: BTreeMap<u64, (u32, bool)> = BTreeMap::new();
    for r in responses {
        let entry = answers.entry(r.id).or_insert((0, false));
        entry.0 += 1;
        entry.1 |= r.shed;
    }
    let mut failed = 0u64;
    for request in load {
        let ok = matches!(answers.remove(&request.id), Some((1, false)));
        failed += u64::from(!ok);
    }
    Tally {
        attempted: load.len() as u64,
        failed: failed + answers.len() as u64,
    }
}
