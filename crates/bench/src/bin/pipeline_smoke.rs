//! Lifecycle-pipeline smoke harness: build a model through
//! `ernn::pipeline` (train → ADMM compress → quantize → compile),
//! serialize the resulting `ModelArtifact`, load it back, and serve a
//! short closed loop from the loaded copy — asserting the artifact
//! contract along the way:
//!
//! * `save_bytes → load_bytes` is the identity on the byte image,
//! * the loaded model's logits are **bit-identical** to the in-process
//!   build and its `StageCycles` are equal,
//! * registering the loaded artifact performs **zero** additional
//!   weight-spectrum refreshes (`spectrum_refresh_count` stays where
//!   decoding left it), and
//! * load time is a small fraction of the retrain-from-scratch time the
//!   artifact replaces.
//!
//! Run with: `cargo run --release -p ernn-bench --bin pipeline_smoke`
//! (flags: [`SweepArgs`]).

use ernn_admm::{AdmmConfig, Recipe};
use ernn_bench::json::JsonObject;
use ernn_bench::sweep::SweepArgs;
use ernn_core::pipeline::{Pipeline, PipelineModel};
use ernn_model::trainer::Sequence;
use ernn_model::{CellType, ModelSpec};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{CompiledModel, ModelArtifact};
use rand::SeedableRng;
use std::time::Instant;

const DIM: usize = 12;
const CLASSES: usize = 8;

fn toy_data(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
    use rand::Rng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let frames: Vec<Vec<f32>> = (0..len)
                .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let labels = (0..len).map(|t| t % CLASSES).collect();
            (frames, labels)
        })
        .collect()
}

/// The full in-process lifecycle: what a deployment without artifacts
/// would re-run at every startup.
fn build(quick: bool, data: &[Sequence]) -> PipelineModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let spec = ModelSpec::new(CellType::Gru, DIM, CLASSES).layer_dims(&[32]);
    let recipe = Recipe {
        pretrain_epochs: if quick { 2 } else { 6 },
        admm: AdmmConfig {
            iterations: if quick { 2 } else { 4 },
            epochs_per_iter: 1,
            retrain_epochs: 1,
            ..AdmmConfig::default()
        },
        ..Recipe::default()
    };
    Pipeline::paper(spec)
        .expect("valid spec")
        .block_policy(ernn_model::BlockPolicy::uniform(8))
        .source("ernn-bench pipeline_smoke")
        .train(data, &recipe, &mut rng)
        .expect("non-empty data")
        .compress(data, &recipe, &mut rng)
        .expect("non-empty data")
        .quantize()
        .expect("paper datapath")
        .compile()
        .expect("paper platform")
}

fn main() {
    let args = SweepArgs::from_env();
    let quick = args.quick;
    let data = toy_data(if quick { 8 } else { 24 }, 10, 5);

    // 1. Build in-process, timed: the cost the artifact amortizes away.
    let t0 = Instant::now();
    let built = build(quick, &data);
    let build_us = t0.elapsed().as_micros() as f64;

    // 2. Serialize; byte-determinism check.
    let bytes = built.save_bytes();
    let reloaded = ModelArtifact::load_bytes(&bytes).expect("artifact decodes");
    assert_eq!(
        reloaded.save_bytes(),
        bytes,
        "save(load(bytes)) must be the identity"
    );

    // 3. Load, timed, and check bit-identity of the served numbers.
    let t1 = Instant::now();
    let artifact = ModelArtifact::load_bytes(&bytes).expect("artifact decodes");
    let loaded = CompiledModel::from_artifact(&artifact);
    let load_us = t1.elapsed().as_micros() as f64;
    let probe: Vec<Vec<f32>> = data[0].0.clone();
    assert_eq!(
        loaded.infer(&probe),
        built.model().infer(&probe),
        "loaded artifact must produce byte-equal logits"
    );
    assert_eq!(
        loaded.stage_cycles(),
        built.model().stage_cycles(),
        "loaded artifact must report equal StageCycles"
    );

    // 4. Register: zero additional spectrum refreshes beyond the decode.
    let at_load = loaded.weight_spectrum_refreshes();
    let mut registry = ModelRegistry::new();
    let id = registry.register_artifact("pipeline-smoke", &artifact);
    assert_eq!(
        registry.model(id).weight_spectrum_refreshes(),
        at_load,
        "register_artifact must not refresh weight spectra"
    );

    // 5. Serve a short closed loop from the loaded copy.
    let runtime = SchedRuntime::new(
        registry,
        vec![ernn_fpga::XCKU060],
        SchedPolicy::edf_cost_model(4, 100.0),
    );
    let payloads: Vec<(usize, Vec<Vec<f32>>)> =
        data.iter().take(4).map(|(f, _)| (id, f.clone())).collect();
    let total = if quick { 48 } else { 160 };
    let report = runtime.run_closed_loop(&payloads, 4, total, Some(10_000.0));
    assert_eq!(report.responses.len(), total);

    let speedup = build_us / load_us.max(1.0);
    println!(
        "artifact: {} bytes; build {:.1} ms vs load {:.3} ms ({speedup:.0}× faster than \
         retraining in-process)",
        bytes.len(),
        build_us / 1e3,
        load_us / 1e3,
    );
    println!(
        "closed loop from loaded artifact: {} responses, p99 {:.1} µs, throughput {:.0} rps",
        report.metrics.completed, report.metrics.latency.p99_us, report.metrics.throughput_rps
    );
    println!("(assertions passed: byte identity, logit/StageCycles bit-identity, zero-refresh registration)");

    args.write_bench(
        JsonObject::new()
            .bench_header("pipeline_smoke")
            .int("artifact_bytes", bytes.len() as i64)
            .num("build_us", build_us)
            .num("load_us", load_us)
            .num("load_speedup", speedup)
            .int("closed_loop_responses", report.metrics.completed as i64)
            .num("throughput_rps", report.metrics.throughput_rps)
            .latency("", &report.metrics.latency),
    );
}
