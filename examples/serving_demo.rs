//! Serving demo: load a synthetic speech corpus, compress an acoustic
//! model into block-circulant form, compile it for the accelerator, and
//! serve an open-loop Poisson request stream across a pool of simulated
//! devices — printing latency percentiles, throughput, device occupancy,
//! the FFT'd-weight cache statistics, and the wall-clock host time of the
//! served inference lane against the serial one (virtual-time results are
//! bit-identical by construction; only `host_us` moves).
//!
//! Run with: `cargo run --release --example serving_demo`

use ernn::asr::{SynthCorpus, SynthCorpusConfig};
use ernn::fft::stats;
use ernn::fpga::XCKU060;
use ernn::model::{CellType, ModelSpec};
use ernn::pipeline::Pipeline;
use ernn::serve::loadgen::{open_loop_poisson, with_uniform_slo};
use ernn::serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn::serve::{CompiledModel, ExecutorKind, RuntimeConfig};
use rand::SeedableRng;
use std::sync::Arc;

/// One model under plain FIFO dynamic batching (batches of up to 8, a
/// 200 µs wait budget) on `devices` XCKU060s.
fn runtime(model: &Arc<CompiledModel>, devices: usize, executor: ExecutorKind) -> SchedRuntime {
    let mut registry = ModelRegistry::new();
    registry.register_shared("gru-64", Arc::clone(model));
    SchedRuntime::with_config(
        registry,
        vec![XCKU060; devices],
        SchedPolicy::fifo_earliest_free(8, 200.0),
        RuntimeConfig::new().executor(executor),
    )
}

fn main() {
    // 1. Load: a reproducible corpus and a compressed acoustic model.
    //    (A production system would load trained weights; random weights
    //    exercise exactly the same serving path.)
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(42));
    let utterances: Vec<Vec<Vec<f32>>> = corpus.test.iter().map(|u| u.features.clone()).collect();
    println!(
        "corpus: {} utterances, feature dim {}",
        utterances.len(),
        corpus.feature_dim
    );

    // 2. Build through the lifecycle pipeline under the paper preset
    //    (block 8, 12-bit datapath, XCKU060): compress, quantize,
    //    compile — the FFT'd-weight cache is filled here, once.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let spec =
        ModelSpec::new(CellType::Gru, corpus.feature_dim, corpus.num_classes()).layer_dims(&[64]);
    let model = Arc::new(
        Pipeline::paper(spec)
            .expect("valid spec")
            .init(&mut rng)
            .project()
            .expect("paper block policy")
            .quantize()
            .expect("paper datapath")
            .compile()
            .expect("paper platform")
            .into_model(),
    );
    println!(
        "compiled: {} circulant matrices, {} cached weight spectra, \
         {} weight FFTs at load",
        model.load_stats.circulant_matrices,
        model.load_stats.cached_spectra,
        model.load_stats.fft.forward_transforms
    );
    println!(
        "timing: stage cycles {:?}, II {} cycles",
        model.stage_cycles().as_array(),
        model.stage_cycles().ii()
    );

    // 3. Serve: 2 devices, batches of up to 8 with a 200 µs wait budget,
    //    open-loop Poisson traffic at 500k req/s — above one device's
    //    capacity, so the pool is what keeps latency bounded — with a
    //    5 ms latency SLO.
    let requests = with_uniform_slo(open_loop_poisson(&utterances, 400, 500_000.0, 11), 5_000.0);

    let before = stats::thread_snapshot();
    let report = runtime(&model, 2, ExecutorKind::Inline).run(requests);
    let during = stats::thread_snapshot().since(&before);

    println!("\n== serving report (2 devices, batch ≤ 8, wait ≤ 200 µs) ==");
    println!("{}", report.metrics);
    println!(
        "deadline misses: {:.1}% of requests against the 5 ms SLO",
        report.metrics.deadline_miss_rate * 100.0
    );
    println!(
        "FFT activity while serving: {} forward / {} inverse transforms, \
         {} new plans (weight spectra cached at load)",
        during.forward_transforms, during.inverse_transforms, during.plans_created
    );

    // 4. The same load on a single device, for contrast.
    let single_report = runtime(&model, 1, ExecutorKind::Inline).run(with_uniform_slo(
        open_loop_poisson(&utterances, 400, 500_000.0, 11),
        5_000.0,
    ));
    println!(
        "\n1 device drains in {:.1} ms vs {:.1} ms on 2 devices ({:.2}× speedup)",
        single_report.metrics.makespan_us / 1e3,
        report.metrics.makespan_us / 1e3,
        single_report.metrics.makespan_us / report.metrics.makespan_us
    );

    // 5. The same load on the serial lane: no thread serves it, so the
    //    event loop computes every batch at the end. The virtual-time
    //    report is bit-identical; only wall-clock host time changes (the
    //    served lane computes batches on every further core while the
    //    event loop runs).
    let serial_report = runtime(&model, 2, ExecutorKind::ThreadPool).run(with_uniform_slo(
        open_loop_poisson(&utterances, 400, 500_000.0, 11),
        5_000.0,
    ));
    assert_eq!(
        serial_report.metrics, report.metrics,
        "virtual-time metrics must not depend on the host's lane threads"
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "\n== host inference lane ({cores} cores) ==\n\
         served lane: {:.1} ms wall-clock host time\n\
         serial lane: {:.1} ms wall-clock host time ({:.2}× the served lane's speed; \
         virtual metrics bit-identical)",
        report.host_us / 1e3,
        serial_report.host_us / 1e3,
        report.host_us / serial_report.host_us
    );
    println!(
        "forward FFTs: {} served, {} serial",
        report.host_fft().forward_transforms,
        serial_report.host_fft().forward_transforms
    );
}
