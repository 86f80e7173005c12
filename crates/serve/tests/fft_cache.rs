//! Proves the FFT'd-weight cache: block-circulant weight spectra are
//! computed once per model load, never per request.
//!
//! Every count is read on the calling thread's ledger
//! ([`ernn_fft::stats::thread_snapshot`]), which other tests' FFT work
//! never reaches. One request's cost is measured on the serial lane,
//! whose caller computes every run itself, so that count is complete by
//! construction. Runs on the default executor and on a cluster (whose
//! lane threads charge their counts to the closing caller) must then
//! count exactly `n` times it on the calling thread: work a lane thread
//! did and did not charge back would show as a shortfall.

use ernn_fft::stats::{self, FftStats};
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::XCKU060;
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::synthetic_utterances;
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{
    ClusterConfig, ClusterRuntime, CompiledModel, ExecutorKind, Request, RuntimeConfig,
};
use rand::SeedableRng;
use std::sync::Arc;

/// A one-model registry serving `model`, which is already loaded.
fn registry(model: &Arc<CompiledModel>) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.register_shared("lstm-16", Arc::clone(model));
    registry
}

/// The transforms and plans of `stats`: the counts that scale with
/// requests (block reads scale with batches instead).
fn transforms(stats: &FftStats) -> (u64, u64, u64) {
    (
        stats.forward_transforms,
        stats.inverse_transforms,
        stats.plans_created,
    )
}

#[test]
fn weight_spectra_are_computed_at_load_not_per_request() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
    let dense = ModelSpec::new(CellType::Lstm, 8, 5)
        .layer_dims(&[16])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));

    // ---- Load: the cache fill. Quantization makes new matrices, whose
    // spectra nothing has read; the load FFTs every weight block exactly
    // once, and nothing before it did. ----
    let before_load = stats::thread_snapshot();
    let model = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
    let load = stats::thread_snapshot().since(&before_load);
    assert_eq!(
        model.load_stats.fft.forward_transforms as usize, model.load_stats.cached_spectra,
        "compilation FFTs every weight block once: {:?} vs {} spectra",
        model.load_stats.fft, model.load_stats.cached_spectra
    );
    assert_eq!(
        load.forward_transforms,
        model.load_stats.fft.forward_transforms
    );

    // ---- Serve: only input-side transforms may run. ----
    // (`register_shared`: the compile above already was the load, so
    // registration must not compute the spectra again.)
    let utterances = synthetic_utterances(4, (5, 9), 8, 3);
    let model = Arc::new(model);
    let before_register = stats::thread_snapshot();
    let runtime = SchedRuntime::new(
        registry(&model),
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 50.0),
    );
    assert_eq!(
        stats::thread_snapshot().since(&before_register),
        FftStats::default()
    );
    // The serial lane: no thread serves it, so the event-loop thread
    // computes every run itself and its delta is the run's whole count.
    let serial = SchedRuntime::with_config(
        registry(&model),
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 50.0),
        RuntimeConfig::new().executor(ExecutorKind::ThreadPool),
    );
    let requests = |n: u64| -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i, utterances[0].clone(), i as f64 * 10.0))
            .collect()
    };

    // One request on the serial lane measures the per-request cost.
    let before_one = stats::thread_snapshot();
    let report = serial.run(requests(1));
    let per_request = stats::thread_snapshot().since(&before_one);
    assert_eq!(per_request, report.host_fft());
    assert!(
        per_request.forward_transforms > 0,
        "serving performs input-side FFTs"
    );
    assert_eq!(
        per_request.plans_created, 0,
        "serving must not build new FFT plans"
    );

    // N identical requests must cost exactly N × the per-request
    // transforms — i.e. zero weight-spectrum recomputation amortized in —
    // on the serial lane, on the default executor and on a cluster.
    let n = 16u64;
    let want = (
        per_request.forward_transforms * n,
        per_request.inverse_transforms * n,
        0,
    );
    let before_serial = stats::thread_snapshot();
    let report = serial.run(requests(n));
    let delta = stats::thread_snapshot().since(&before_serial);
    assert_eq!(delta, report.host_fft(), "the caller != the report's count");
    assert_eq!(transforms(&delta), want, "serial lane");

    // The default executor hands the batches to the run's inference
    // lane, whose threads charge their counts back to the caller at
    // close: the calling thread's delta is the whole run's, as a serial
    // run's is.
    let before_batch = stats::thread_snapshot();
    let report = runtime.run(requests(n));
    assert_eq!(report.responses.len(), n as usize);
    let delta = stats::thread_snapshot().since(&before_batch);
    assert_eq!(
        transforms(&delta),
        want,
        "FFTs must scale with requests only (input side), and every lane \
         thread's count must be charged to the caller"
    );
    assert_eq!(delta, report.host_fft());

    // The same requests through a four-shard cluster, whose shards all
    // feed one lane: the caller counts them all, and the shards' ledgers
    // add up to its count with no run counted twice.
    let cluster = ClusterRuntime::new(
        registry(&model),
        vec![vec![XCKU060]; 4],
        SchedPolicy::fifo_earliest_free(4, 50.0),
        RuntimeConfig::new(),
        ClusterConfig::new().replication(4),
    );
    let before_cluster = stats::thread_snapshot();
    let report = cluster.run(requests(n));
    let delta = stats::thread_snapshot().since(&before_cluster);
    assert_eq!(transforms(&delta), want, "cluster");
    let shards = report
        .shards
        .iter()
        .filter_map(|s| s.report.as_ref())
        .fold(FftStats::default(), |acc, r| acc.plus(&r.host_fft()));
    assert_eq!(shards, delta, "the shards' ledgers != the run's FFT work");

    // The first request counted what every later one did: no weight
    // spectrum was computed by any of the requests above.
    let before_last = stats::thread_snapshot();
    let _ = runtime.run(requests(1));
    assert_eq!(
        stats::thread_snapshot().since(&before_last),
        per_request,
        "weight spectra must not be computed during serving"
    );
}
