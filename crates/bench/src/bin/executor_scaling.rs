//! Sweeps host-executor kind × device count for one model under plain
//! FIFO dynamic batching (`SchedPolicy::fifo_earliest_free`):
//! virtual-time throughput (executor-blind — [`assert_executor_blind`])
//! against wall-clock host time, where the `ThreadPool` executor's
//! overlap shows up as real speedup on multi-core hosts.
//!
//! Run with: `cargo run --release -p ernn-bench --bin executor_scaling`
//! (flags: [`SweepArgs`]).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{acoustic_gru, assert_executor_blind, SweepArgs, DIM};
use ernn_fpga::XCKU060;
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{ExecutorKind, RuntimeConfig};

fn main() {
    let args = SweepArgs::from_env();
    let num_requests = if args.quick { 64 } else { 256 };

    // The serve_sweep acoustic model (GRU-64 under the paper preset).
    // One Arc'd compile: every runtime in the sweep shares the cached
    // weight spectra instead of deep-cloning them per run.
    let model = std::sync::Arc::new(acoustic_gru(3, 64));

    // CPU-bound load: long utterances so host inference dominates the
    // event-loop bookkeeping, offered well above one device's capacity.
    let utterances = synthetic_utterances(12, (30, 60), DIM, 21);
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
        let run = |kind: ExecutorKind| {
            let mut registry = ModelRegistry::new();
            registry.register_shared("gru-64", std::sync::Arc::clone(&model));
            SchedRuntime::with_config(
                registry,
                vec![XCKU060; devices],
                policy,
                RuntimeConfig::new().executor(kind),
            )
            .run(requests.clone())
        };
        let inline = run(ExecutorKind::Inline);
        let pooled = run(ExecutorKind::ThreadPool);
        // The sweep is also a correctness harness: nothing on the
        // virtual clock may depend on the host executor.
        assert_executor_blind(&format!("{devices} devices"), &inline, &pooled);
        let speedup = if pooled.host_us > 0.0 {
            inline.host_us / pooled.host_us
        } else {
            1.0
        };
        for (label, report, speedup) in [("inline", &inline, 1.0), ("threadpool", &pooled, speedup)]
        {
            let m = &report.metrics;
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
        }
    }
    println!("\n(virtual metrics asserted identical across executors per device count)");

    args.write_bench(
        JsonObject::new()
            .bench_header("executor_scaling")
            .int("requests", num_requests as i64)
            .int(
                "host_cores",
                std::thread::available_parallelism().map_or(1, |p| p.get()) as i64,
            )
            .raw("rows", array(rows)),
    );
}
