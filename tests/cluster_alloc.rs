//! Counting-allocator budget for the cluster tier's per-request path.
//!
//! Like `tests/kernel_alloc.rs`, this binary installs
//! [`ernn_bench::alloc::CountingAllocator`] and holds a **single**
//! `#[test]`, so no concurrent test thread pollutes the process-wide
//! counter.
//!
//! The claim under test (ISSUE 16, tightened by ISSUE 21): one round
//! over a `cluster_tiny`-shaped load — 16 single-device shards,
//! replication 8, load-feedback steering, three GRU-8 tenants, 400
//! streaming sessions of six 1-frame chunks plus 5600 utterances of 1–2
//! frames — costs at most **5 heap allocations per request**, everything
//! included. A round is what `benchmark/` counts as one: cloning the load
//! (one `Vec` per request plus one per frame, ≈ 2.35) and
//! [`ClusterRuntime::run`] on the clone — engine and executor
//! construction, routing, admission, batch formation, dispatch,
//! inference, and the merged report. A round cost 12.1 per request
//! before ISSUE 16 and 8.1 after it, ≈ 4.7 of that the logits rows (one
//! `Vec` per frame plus one per response, allocated by inference and
//! cloned again at the merge). Since ISSUE 21 a request's frame rows *are*
//! its logits rows and the merge moves them, and a batch's completion
//! times fill engine scratch, so a round is ≈ 3.05: the clone of the
//! load, and ≈ 0.7 inside `run` that is per batch (≈ 0.32 batches per
//! request) — the formed batch and B-tree nodes of a queue that keeps
//! running empty — plus per-run tables. When the default executor logged
//! jobs at dispatch and computed each shard's run at its `finish` on a
//! scoped thread beside the caller, a round was ≈ 3.16 (25 258
//! allocations, 6 416 inside `run`). Since the whole cluster feeds one
//! inference lane, whose queue holds the jobs back to back and hands each
//! batch's job list straight back, a round is ≈ 3.01 (24 047–24 095,
//! 5 205–5 253 inside `run`), on two cores and on one: one lane thread
//! and its scratch per round instead of one thread per shard, and the
//! lane's queue and outputs growing once.
//!
//! A regression here is what a per-request `Vec` in `Router::steer`, a
//! per-batch `collect()` in `SchedRuntime::dispatch`, or a lane that
//! keeps a batch's job list until `finish` looks like.

use ernn::fpga::exec::DatapathConfig;
use ernn::fpga::{TransferModel, ADM_PCIE_7V3, XCKU060};
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn::serve::loadgen::{
    open_loop_poisson, open_loop_sessions, synthetic_utterances, SessionLoad,
};
use ernn::serve::sched::{CostModel, ModelRegistry, SchedPolicy};
use ernn::serve::{ClusterConfig, ClusterRuntime, CompiledModel, Request, RuntimeConfig, Steering};
use ernn_bench::alloc::{allocation_count, CountingAllocator};
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DIM: usize = 8;
const SHARDS: usize = 16;
const SESSIONS: usize = 400;
const SESSION_CHUNKS: usize = 6;
const UTTERANCES: usize = 5_600;
/// Offered load in busy-device equivalents (of 16 devices).
const PARALLELISM: f64 = 6.0;
const BUDGET_PER_REQUEST: f64 = 5.0;

fn gru8(seed: u64) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dense = ModelSpec::new(CellType::Gru, DIM, 8)
        .layer_dims(&[8])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
}

#[test]
fn a_routed_request_costs_at_most_five_allocations() {
    let boards = |n: usize| -> Vec<_> {
        (0..n)
            .map(|d| if d % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 })
            .collect()
    };
    let mut registry = ModelRegistry::new();
    for (i, name) in ["gru-8-stream", "gru-8-batch", "gru-8-tail"]
        .iter()
        .enumerate()
    {
        registry.register(*name, gru8(160 + i as u64));
    }

    // Size the arrival rate from the cost model, as the benchmark's
    // `cluster_tiny` does: total work spread over PARALLELISM devices.
    let cost = CostModel::build(&boards(2), &registry);
    let worst_us = |model: usize, frames: u64| {
        cost.estimate_frames_us(0, model, frames)
            .max(cost.estimate_frames_us(1, model, frames))
    };
    let audio = synthetic_utterances(UTTERANCES, (1, 2), DIM, 16_001);
    let session_audio =
        synthetic_utterances(SESSIONS, (SESSION_CHUNKS, SESSION_CHUNKS), DIM, 16_002);
    let work_us: f64 = audio
        .iter()
        .enumerate()
        .map(|(i, u)| worst_us(i % registry.len(), u.len() as u64))
        .sum::<f64>()
        + (SESSIONS * SESSION_CHUNKS) as f64 * worst_us(0, 1);
    let span_us = work_us / PARALLELISM;
    let unit_us = work_us / (UTTERANCES + SESSIONS * SESSION_CHUNKS) as f64;
    let max_wait_us = (2.0 * unit_us).max(1.0);
    let hop_us = TransferModel::intra_rack().transfer_us((2 * DIM * 4) as u64);
    let slo_us = 3.0 * worst_us(0, 2) + 2.0 * hop_us + max_wait_us + 1_000.0;

    let mut load = open_loop_sessions(
        &session_audio,
        SESSIONS,
        SessionLoad {
            session_rate_sps: SESSIONS as f64 / (span_us / 2.0 * 1e-6),
            chunk_frames: 1,
            chunk_gap_us: span_us / (3.0 * SESSION_CHUNKS as f64),
            chunk_slo_us: Some(slo_us),
        },
        16_003,
    );
    let id_base = load.len() as u64;
    let rate_rps = UTTERANCES as f64 / (span_us * 1e-6);
    load.extend(
        open_loop_poisson(&audio, UTTERANCES, rate_rps, 16_004)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let arrival = r.arrival_us;
                Request::new(id_base + r.id, r.frames, arrival)
                    .with_model(i % registry.len())
                    .with_deadline(arrival + slo_us)
            }),
    );
    let requests = load.len();
    assert_eq!(requests, SESSIONS * SESSION_CHUNKS + UTTERANCES);

    let runtime = ClusterRuntime::new(
        registry,
        boards(SHARDS).into_iter().map(|d| vec![d]).collect(),
        SchedPolicy::edf_cost_model(4, max_wait_us),
        RuntimeConfig::new(),
        ClusterConfig::new()
            .replication(8)
            .steering(Steering::LoadFeedback),
    );

    // Warm-up round: the shared FFT plan cache and any other
    // process-wide lazy state fill here, not in the measured window.
    let warm = runtime.run(load.clone());
    assert_eq!(warm.responses.len(), requests);
    assert!(
        warm.responses.iter().all(|r| !r.shed),
        "the load must stay under capacity: a shed request skips the path under test"
    );
    let batches: usize = warm
        .shards
        .iter()
        .filter_map(|s| s.report.as_ref())
        .map(|r| r.metrics.batch_histogram.values().sum::<usize>())
        .sum();
    drop(warm);

    let before = allocation_count();
    let input = load.clone();
    let cloned = allocation_count() - before;
    let report = runtime.run(input);
    let allocations = allocation_count() - before;

    assert_eq!(report.responses.len(), requests);
    let per_request = allocations as f64 / requests as f64;
    let in_run = allocations - cloned;
    let summary = format!(
        "{per_request:.2} allocations per request (budget {BUDGET_PER_REQUEST}): \
         {allocations} for {requests} requests in {batches} batches, \
         {cloned} of them cloning the load (one per request and one per frame), \
         {in_run} inside run ({:.2} per batch: the formed batch, queue nodes, \
         per-run tables; none for logits)",
        in_run as f64 / batches as f64
    );
    println!("{summary}");
    assert!(per_request <= BUDGET_PER_REQUEST, "{summary}");
}
