//! Sweeps device count × batch policy for one model under plain FIFO
//! dynamic batching (`SchedPolicy::fifo_earliest_free`) and prints the
//! virtual-time throughput/latency frontier — the serving analogue of
//! the paper's design-space exploration.
//!
//! Run with: `cargo run --release -p ernn-bench --bin serve_sweep`
//! (flags: [`SweepArgs`]; `--trace-out` exports the 4-device `b8/w200`
//! run, timeline and health report included).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{acoustic_gru, SweepArgs, DIM};
use ernn_fpga::XCKU060;
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{HealthConfig, RuntimeConfig, TimelineConfig, TraceConfig};
use std::sync::Arc;

fn main() {
    let args = SweepArgs::from_env();
    let num_requests = if args.quick { 200 } else { 400 };

    // A GRU-64 acoustic model under the paper preset (block 8, 12-bit
    // datapath, XCKU060) — configuration lives in the pipeline, not here.
    // One Arc'd compile: every runtime in the sweep shares the cached
    // weight spectra.
    let model = Arc::new(acoustic_gru(3, 64));
    println!(
        "model: GRU-64 block 8, II {} cycles, {} cached weight spectra\n",
        model.stage_cycles().ii(),
        model.load_stats.cached_spectra
    );

    // Offered load: ~2× one device's capacity, so batching and sharding
    // both matter.
    let utterances = synthetic_utterances(12, (20, 60), DIM, 21);
    let requests = open_loop_poisson(&utterances, num_requests, 400_000.0, 22);

    println!(
        "{:<8} {:<14} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "devices", "policy", "throughput", "p50 µs", "p95 µs", "p99 µs", "mean batch", "occ %"
    );
    let mut rows: Vec<String> = Vec::new();
    for devices in [1usize, 2, 4] {
        for (policy, label) in [
            (SchedPolicy::fifo_earliest_free(1, 0.0), "unbatched"),
            (SchedPolicy::fifo_earliest_free(4, 100.0), "b4/w100"),
            (SchedPolicy::fifo_earliest_free(8, 200.0), "b8/w200"),
            (SchedPolicy::fifo_earliest_free(16, 400.0), "b16/w400"),
        ] {
            // Trace the middle-of-the-frontier config (4 devices,
            // b8/w200) when an export path was given.
            let traced = devices == 4 && label == "b8/w200" && args.exports();
            let config = if traced {
                // The exported snapshot carries the full observability
                // surface: trace counters plus the sampled timeline and
                // the health verdict.
                RuntimeConfig::new()
                    .tracing(TraceConfig::enabled(1 << 14))
                    .timeline(TimelineConfig::enabled(100.0, 1 << 13))
                    .health(HealthConfig::enabled())
            } else {
                RuntimeConfig::new()
            };
            let mut registry = ModelRegistry::new();
            registry.register_shared("gru-64", Arc::clone(&model));
            let runtime =
                SchedRuntime::with_config(registry, vec![XCKU060; devices], policy, config);
            let report = runtime.run(requests.clone());
            if traced {
                args.export(
                    &report.metrics,
                    &report.trace,
                    Some(&report.sched),
                    Some(&report.timeline),
                    Some(&report.health),
                    None,
                );
            }
            let m = &report.metrics;
            let mean_occ =
                m.device_occupancy.iter().sum::<f64>() / m.device_occupancy.len().max(1) as f64;
            println!(
                "{:<8} {:<14} {:>10.0}/s {:>10.1} {:>10.1} {:>10.1} {:>10.2} {:>7.0}%",
                devices,
                label,
                m.throughput_rps,
                m.latency.p50_us,
                m.latency.p95_us,
                m.latency.p99_us,
                m.mean_batch_size,
                mean_occ * 100.0
            );
            rows.push(
                JsonObject::new()
                    .int("devices", devices as i64)
                    .str("policy", label)
                    .num("throughput_rps", m.throughput_rps)
                    .latency("", &m.latency)
                    .num("mean_batch", m.mean_batch_size)
                    .num("mean_occupancy", mean_occ)
                    .num("host_us", report.host_us)
                    .render(),
            );
        }
    }
    println!(
        "\n({} open-loop Poisson requests at 400k req/s offered; virtual time)",
        num_requests
    );

    args.write_bench(
        JsonObject::new()
            .bench_header("serve_sweep")
            .int("requests", num_requests as i64)
            .raw("rows", array(rows)),
    );
}
