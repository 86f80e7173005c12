//! Sweeps host-executor kind × device count for one model under plain
//! FIFO dynamic batching (`SchedPolicy::fifo_earliest_free`):
//! virtual-time throughput (which must be identical across executors —
//! asserted here) against wall-clock host time, where the `ThreadPool`
//! executor's overlap shows up as real speedup on multi-core hosts.
//!
//! Run with: `cargo run --release -p ernn-bench --bin executor_scaling`
//! (`--quick` shrinks the load for smoke runs, `--json PATH` writes the
//! rows as a bench artifact for CI trend tracking).

use ernn_bench::json::{array, json_path_arg, write_artifact, JsonObject};
use ernn_core::pipeline::Pipeline;
use ernn_fpga::XCKU060;
use ernn_model::{CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::ExecutorKind;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = json_path_arg(&args);
    let num_requests = if quick { 64 } else { 256 };

    // The serve_sweep acoustic model (GRU-64 under the paper preset).
    // One Arc'd compile: every runtime in the sweep shares the cached
    // weight spectra instead of deep-cloning them per run.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let model = std::sync::Arc::new(
        Pipeline::paper(ModelSpec::new(CellType::Gru, 52, 40).layer_dims(&[64]))
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

    // CPU-bound load: long utterances so host inference dominates the
    // event-loop bookkeeping, offered well above one device's capacity.
    let utterances = synthetic_utterances(12, (30, 60), 52, 21);
    let requests = open_loop_poisson(&utterances, num_requests, 400_000.0, 22);
    let policy = SchedPolicy::fifo_earliest_free(8, 200.0);

    println!(
        "host parallelism: {} cores, {} requests, batch ≤ {}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        num_requests,
        policy.max_batch
    );
    println!(
        "{:<8} {:<11} {:>12} {:>10} {:>10} {:>9}",
        "devices", "executor", "throughput", "p99 µs", "host ms", "speedup"
    );

    let mut rows: Vec<String> = Vec::new();
    for devices in [1usize, 2, 4] {
        let mut inline_host_us = 0.0f64;
        let mut inline_metrics = None;
        for kind in [ExecutorKind::Inline, ExecutorKind::ThreadPool] {
            let mut registry = ModelRegistry::new();
            registry.register_shared("gru-64", std::sync::Arc::clone(&model));
            let runtime =
                SchedRuntime::with_executor(registry, vec![XCKU060; devices], policy, kind);
            let report = runtime.run(requests.clone());
            let m = &report.metrics;
            let label = match kind {
                ExecutorKind::Inline => {
                    inline_host_us = report.host_us;
                    inline_metrics = Some(report.metrics.clone());
                    "inline"
                }
                ExecutorKind::ThreadPool => "threadpool",
            };
            let speedup = if kind == ExecutorKind::ThreadPool && report.host_us > 0.0 {
                inline_host_us / report.host_us
            } else {
                1.0
            };
            println!(
                "{:<8} {:<11} {:>10.0}/s {:>10.1} {:>10.1} {:>8.2}x",
                devices,
                label,
                m.throughput_rps,
                m.latency.p99_us,
                report.host_us / 1e3,
                speedup
            );
            rows.push(
                JsonObject::new()
                    .int("devices", devices as i64)
                    .str("executor", label)
                    .int("workers", report.worker_fft.len() as i64)
                    .num("throughput_rps", m.throughput_rps)
                    .latency("", &m.latency)
                    .num("makespan_us", m.makespan_us)
                    .num("host_us", report.host_us)
                    .num("host_speedup", speedup)
                    .render(),
            );

            // The sweep is also a correctness harness: virtual-time
            // metrics must not depend on the host executor (compared
            // against the inline run from this loop's first iteration).
            if kind == ExecutorKind::ThreadPool {
                assert_eq!(
                    inline_metrics.as_ref().expect("inline ran first"),
                    &report.metrics,
                    "executor changed virtual-time metrics at {devices} devices"
                );
            }
        }
    }
    println!("\n(virtual metrics asserted identical across executors per device count)");

    if let Some(path) = json_path {
        let doc = JsonObject::new()
            .bench_header("executor_scaling")
            .int("requests", num_requests as i64)
            .int(
                "host_cores",
                std::thread::available_parallelism().map_or(1, |p| p.get()) as i64,
            )
            .raw("rows", array(rows))
            .render();
        write_artifact(&path, doc);
    }
}
