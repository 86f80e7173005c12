//! Proves the FFT'd-weight cache: block-circulant weight spectra are
//! computed once per model load, never per request.
//!
//! This file deliberately holds a single `#[test]` so the process-wide
//! sum of the FFT counters in [`ernn_fft::stats`] sees no concurrent
//! activity and exact-delta assertions are sound. The same test therefore
//! also checks that sum against the calling thread's own delta on the
//! default executor (whose inference lane's threads charge their counts
//! to it), against a cluster run's shard ledgers added up (every shard
//! feeds one lane), and against a run on the serial lane, whose caller
//! computes every run itself.

use ernn_fft::stats;
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::XCKU060;
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::synthetic_utterances;
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{
    ClusterConfig, ClusterRuntime, CompiledModel, ExecutorKind, Request, RuntimeConfig,
};
use rand::SeedableRng;

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
    let before_load = stats::snapshot();
    let model = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
    let load = stats::snapshot().since(&before_load);
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
    let mut registry = ModelRegistry::new();
    let before_register = stats::snapshot();
    registry.register_shared("lstm-16", std::sync::Arc::new(model));
    assert_eq!(
        stats::snapshot().since(&before_register),
        stats::FftStats::default()
    );
    let runtime = SchedRuntime::new(
        registry,
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 50.0),
    );

    // Warm-up request to measure the per-request transform cost.
    let probe = utterances[0].clone();
    let before_one = stats::snapshot();
    let _ = runtime.run(vec![Request::new(0, probe.clone(), 0.0)]);
    let per_request = stats::snapshot().since(&before_one);
    assert!(
        per_request.forward_transforms > 0,
        "serving performs input-side FFTs"
    );
    assert_eq!(
        per_request.plans_created, 0,
        "serving must not build new FFT plans"
    );

    // N identical requests must cost exactly N × the per-request
    // transforms — i.e. zero weight-spectrum recomputation amortized in.
    let n = 16u64;
    let before_batch = stats::snapshot();
    let caller_before = stats::thread_snapshot();
    let reqs: Vec<Request> = (0..n)
        .map(|i| Request::new(i, probe.clone(), i as f64 * 10.0))
        .collect();
    let report = runtime.run(reqs);
    assert_eq!(report.responses.len(), n as usize);
    let delta = stats::snapshot().since(&before_batch);
    assert_eq!(
        delta.forward_transforms,
        per_request.forward_transforms * n,
        "forward FFTs must scale with requests only (input side)"
    );
    assert_eq!(
        delta.inverse_transforms,
        per_request.inverse_transforms * n,
        "inverse FFTs must scale with requests only"
    );
    assert_eq!(delta.plans_created, 0);
    // The default executor hands the batches to the run's inference
    // lane, whose threads are off the ledger and charge their counts
    // back at close: the calling thread's delta is the whole run's, as a
    // serial run's is.
    assert_eq!(
        stats::thread_snapshot().since(&caller_before),
        delta,
        "the lane threads' counts were not charged to the caller"
    );
    assert_eq!(delta, report.host_fft());

    // The same requests through a four-shard cluster, whose shards all
    // feed one lane: the process-wide delta is the caller's, and the
    // shards' ledgers add up to it with no run counted twice.
    let cluster = ClusterRuntime::new(
        {
            let mut registry = ModelRegistry::new();
            registry.register_shared(
                "lstm-16",
                std::sync::Arc::clone(runtime.registry().model(0)),
            );
            registry
        },
        vec![vec![XCKU060]; 4],
        SchedPolicy::fifo_earliest_free(4, 50.0),
        RuntimeConfig::new(),
        ClusterConfig::new().replication(4),
    );
    let before_cluster = stats::snapshot();
    let caller_before = stats::thread_snapshot();
    let report = cluster.run(
        (0..n)
            .map(|i| Request::new(i, probe.clone(), i as f64 * 10.0))
            .collect(),
    );
    let delta = stats::snapshot().since(&before_cluster);
    assert_eq!(delta.forward_transforms, per_request.forward_transforms * n);
    assert_eq!(stats::thread_snapshot().since(&caller_before), delta);
    let shards = report
        .shards
        .iter()
        .filter_map(|s| s.report.as_ref())
        .fold(stats::FftStats::default(), |acc, r| acc.plus(&r.host_fft()));
    assert_eq!(shards, delta, "the shards' ledgers != the run's FFT work");

    // The same requests on the serial lane: no thread serves it, so the
    // event-loop thread computes every run at the end, and its own delta
    // is the process-wide delta and the report's.
    let serial = SchedRuntime::with_config(
        {
            let mut registry = ModelRegistry::new();
            registry.register_shared(
                "lstm-16",
                std::sync::Arc::clone(runtime.registry().model(0)),
            );
            registry
        },
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 50.0),
        RuntimeConfig::new().executor(ExecutorKind::ThreadPool),
    );
    let before_serial = stats::snapshot();
    let loop_thread_before = stats::thread_snapshot();
    let report = serial.run(
        (0..n)
            .map(|i| Request::new(i, probe.clone(), i as f64 * 10.0))
            .collect(),
    );
    let delta = stats::snapshot().since(&before_serial);
    assert_eq!(delta, report.host_fft(), "snapshot != the report's count");
    assert_eq!(delta.forward_transforms, per_request.forward_transforms * n);
    assert_eq!(stats::thread_snapshot().since(&loop_thread_before), delta);

    // The first request counted what every later one did: no weight
    // spectrum was computed by any of the requests above.
    let before_last = stats::snapshot();
    let _ = runtime.run(vec![Request::new(0, probe, 0.0)]);
    assert_eq!(
        stats::snapshot().since(&before_last),
        per_request,
        "weight spectra must not be computed during serving"
    );
}
