//! Property tests for streaming stateful sessions.
//!
//! Two contracts anchor the streaming design:
//!
//! 1. **Chunking invariance** — splitting an utterance into session
//!    chunks and serving them through a runtime yields, once stitched
//!    back together, logits bit-identical to serving the whole utterance
//!    as one request (and to direct [`CompiledModel::infer`]). The
//!    recurrent state carried between chunks must therefore be exact,
//!    not approximate.
//! 2. **Executor independence** — the full virtual-time result of a
//!    streaming run (responses, metrics, scheduler stats, and the trace
//!    journal with its session state-load events) is bit-identical
//!    across [`ExecutorKind::Inline`] and [`ExecutorKind::ThreadPool`].

use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_sessions, synthetic_utterances, SessionLoad};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{CompiledModel, ExecutorKind, Request, RuntimeConfig, TraceConfig, Workload};
use proptest::prelude::*;
use rand::SeedableRng;

const DIM: usize = 8;

fn compiled(seed: u64, cell: CellType, hidden: usize) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dense = ModelSpec::new(cell, DIM, 5)
        .layer_dims(&[hidden])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
}

/// Plain FIFO dynamic batching of one model over `devices` identical
/// devices.
fn fifo_runtime(
    model: &CompiledModel,
    devices: usize,
    policy: SchedPolicy,
    config: RuntimeConfig,
) -> SchedRuntime {
    let mut registry = ModelRegistry::new();
    registry.register("model", model.clone());
    SchedRuntime::with_config(registry, vec![XCKU060; devices], policy, config)
}

/// Splits `utt` into chunks whose sizes cycle through `sizes`, arriving
/// every `gap_us` from `t0_us`.
fn chunk_requests(
    session: u64,
    base_id: u64,
    utt: &[Vec<f32>],
    sizes: &[usize],
    t0_us: f64,
    gap_us: f64,
) -> Vec<Request> {
    let mut out = Vec::new();
    let (mut at, mut i) = (0usize, 0usize);
    while at < utt.len() {
        let take = sizes[i % sizes.len()].clamp(1, utt.len() - at);
        let last = at + take == utt.len();
        out.push(Request::chunk(
            base_id + i as u64,
            session,
            i as u32,
            last,
            utt[at..at + take].to_vec(),
            t0_us + i as f64 * gap_us,
        ));
        at += take;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chunked streaming under plain FIFO batching reproduces the
    /// whole-utterance logits bit-exactly, for arbitrary chunkings, on
    /// both executors.
    #[test]
    fn chunked_streaming_matches_whole_utterance_logits(
        seed in 0u64..1000,
        sizes in proptest::collection::vec(1usize..7, 1..4),
        devices in 1usize..3,
        exec_pool in 0u8..2,
    ) {
        let model = compiled(3, CellType::Lstm, 16);
        let utts = synthetic_utterances(2, (9, 18), DIM, seed);
        let mut requests = Vec::new();
        for (s, utt) in utts.iter().enumerate() {
            requests.extend(chunk_requests(
                s as u64,
                100 * s as u64,
                utt,
                &sizes,
                7.0 * s as f64,
                120.0,
            ));
        }
        let exec = if exec_pool == 1 { ExecutorKind::ThreadPool } else { ExecutorKind::Inline };
        let rt = fifo_runtime(
            &model,
            devices,
            SchedPolicy::fifo_earliest_free(4, 60.0),
            RuntimeConfig::new().executor(exec),
        );
        let report = rt.run(requests);
        for (s, utt) in utts.iter().enumerate() {
            let mut chunks: Vec<_> = report
                .responses
                .iter()
                .filter(|r| r.workload.session() == Some(s as u64))
                .collect();
            chunks.sort_by_key(|r| r.id);
            let stitched: Vec<Vec<f32>> = chunks
                .iter()
                .flat_map(|r| r.logits.iter().cloned())
                .collect();
            prop_assert_eq!(&stitched, &model.infer(utt), "session {}", s);
        }
    }

    /// A streaming run's entire observable output — responses, metrics,
    /// scheduler stats, and the trace journal (session state loads
    /// included) — is bit-identical across executors.
    #[test]
    fn streaming_trace_journal_is_executor_independent(
        seed in 0u64..1000,
        chunk_frames in 1usize..6,
        // Below 300 means "no deadline"; otherwise the value is the
        // per-chunk SLO in µs.
        slo_sel in 0u64..3000,
    ) {
        let slo = (slo_sel >= 300).then_some(slo_sel as f64);
        let utts = synthetic_utterances(3, (6, 14), DIM, seed);
        let shape = SessionLoad {
            session_rate_sps: 8_000.0,
            chunk_frames,
            chunk_gap_us: 60.0,
            chunk_slo_us: slo,
        };
        let requests = open_loop_sessions(&utts, 5, shape, seed ^ 0xABCD);
        let run = |exec: ExecutorKind| {
            let mut registry = ModelRegistry::new();
            registry.register("lstm-16", compiled(3, CellType::Lstm, 16));
            SchedRuntime::with_config(registry, vec![XCKU060, ADM_PCIE_7V3], SchedPolicy::edf_cost_model(4, 80.0), RuntimeConfig::new().executor(exec).tracing(TraceConfig::enabled(8192)))
            .run(requests.clone())
        };
        let inline = run(ExecutorKind::Inline);
        let pooled = run(ExecutorKind::ThreadPool);
        prop_assert_eq!(&inline.responses, &pooled.responses);
        prop_assert_eq!(&inline.metrics, &pooled.metrics);
        prop_assert_eq!(&inline.sched, &pooled.sched);
        prop_assert_eq!(&inline.trace, &pooled.trace);
        // Sessions stay pinned: every served chunk of a session names
        // one device.
        for s in 0..5u64 {
            let devices: Vec<_> = inline
                .responses
                .iter()
                .filter(|r| r.workload.session() == Some(s) && !r.shed)
                .map(|r| r.device)
                .collect();
            prop_assert!(devices.windows(2).all(|w| w[0] == w[1]), "session {}", s);
        }
    }
}

/// Mixing streaming chunks with plain utterances in one load keeps both
/// correct: chunks stitch to the whole-utterance logits and utterances
/// are unaffected by interleaved session traffic.
#[test]
fn mixed_streaming_and_utterance_traffic_stays_bit_exact() {
    let model = compiled(9, CellType::Gru, 24);
    let utts = synthetic_utterances(4, (8, 16), DIM, 42);
    let mut requests = chunk_requests(0, 0, &utts[0], &[4], 0.0, 150.0);
    for (i, utt) in utts[1..].iter().enumerate() {
        requests.push(Request::new(
            500 + i as u64,
            utt.clone(),
            40.0 + 90.0 * i as f64,
        ));
    }
    let rt = fifo_runtime(
        &model,
        2,
        SchedPolicy::fifo_earliest_free(3, 100.0),
        RuntimeConfig::new()
            .executor(ExecutorKind::ThreadPool)
            .max_live_sessions(4),
    );
    let report = rt.run(requests);
    let mut chunks: Vec<_> = report
        .responses
        .iter()
        .filter(|r| matches!(r.workload, Workload::Chunk { .. }))
        .collect();
    chunks.sort_by_key(|r| r.id);
    let stitched: Vec<Vec<f32>> = chunks
        .iter()
        .flat_map(|r| r.logits.iter().cloned())
        .collect();
    assert_eq!(stitched, model.infer(&utts[0]));
    for (i, utt) in utts[1..].iter().enumerate() {
        let r = report
            .responses
            .iter()
            .find(|r| r.id == 500 + i as u64)
            .expect("served");
        assert_eq!(r.logits, model.infer(utt));
    }
    assert_eq!(report.metrics.sessions, 1);
    assert_eq!(report.metrics.chunks, chunks.len());
}
