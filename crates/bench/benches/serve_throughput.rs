//! Criterion bench for the serving runtime (one model, FIFO dynamic
//! batching): event-loop + device-model overhead under batched and
//! unbatched policies, one to four devices.
//! (Virtual-time throughput is the `sched_sweep` binary's job; this
//! bench tracks the *host-side* cost of simulating a serving run.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ernn_bench::sweep::paper_model;
use ernn_fpga::XCKU060;
use ernn_model::{CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{CompiledModel, Request};
use std::time::Duration;

fn compiled() -> CompiledModel {
    paper_model(ModelSpec::new(CellType::Gru, 16, 8).layer_dims(&[32]), 3)
}

fn load() -> Vec<Request> {
    let utterances = synthetic_utterances(8, (10, 30), 16, 5);
    open_loop_poisson(&utterances, 64, 300_000.0, 6)
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group
        .sample_size(15)
        .measurement_time(Duration::from_millis(600));

    let requests = load();
    for (devices, policy, label) in [
        (1, SchedPolicy::fifo_earliest_free(1, 0.0), "1dev_unbatched"),
        (1, SchedPolicy::fifo_earliest_free(8, 200.0), "1dev_batch8"),
        (2, SchedPolicy::fifo_earliest_free(8, 200.0), "2dev_batch8"),
        (
            4,
            SchedPolicy::fifo_earliest_free(16, 400.0),
            "4dev_batch16",
        ),
    ] {
        let mut registry = ModelRegistry::new();
        registry.register("gru-32", compiled());
        let runtime = SchedRuntime::new(registry, vec![XCKU060; devices], policy);
        group.bench_with_input(BenchmarkId::from_parameter(label), &requests, |b, reqs| {
            b.iter(|| std::hint::black_box(runtime.run(reqs.clone())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
