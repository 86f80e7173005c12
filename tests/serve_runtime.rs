//! Integration tests for the serving runtime (`ernn::serve`), one model
//! under plain FIFO dynamic batching (`SchedPolicy::fifo_earliest_free`):
//!
//! * batched execution is **bit-identical** to sequential single-request
//!   execution through the quantized datapath (`fpga::exec`),
//! * sharding the same open-loop load over 2 devices finishes strictly
//!   sooner than over 1 device, and
//! * the parallel host executor (`ExecutorKind::ThreadPool`) reproduces
//!   the inline reference bit for bit — logits, completion times, and
//!   metrics — while beating it on wall-clock host time when the machine
//!   actually has cores to spare.

use ernn::fpga::exec::{DatapathConfig, QuantizedNetwork};
use ernn::fpga::XCKU060;
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn::serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn::serve::sched::{ModelRegistry, SchedPolicy, SchedReport, SchedRuntime};
use ernn::serve::{CompiledModel, ExecutorKind, RuntimeConfig};
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const INPUT_DIM: usize = 10;

/// Serializes the tests in this binary (cargo runs test binaries one at
/// a time, so holding this lock gives the wall-clock measurement below a
/// quiet machine instead of contending with sibling tests for cores).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn compiled(cell: CellType) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
    let dense = ModelSpec::new(cell, INPUT_DIM, 6)
        .layer_dims(&[16])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
}

/// One model on `devices` XCKU060s under FIFO batches of up to
/// `max_batch`, flushed after `max_wait_us`.
fn fifo_runtime(
    model: impl Into<Arc<CompiledModel>>,
    devices: usize,
    (max_batch, max_wait_us): (usize, f64),
    executor: ExecutorKind,
) -> SchedRuntime {
    let mut registry = ModelRegistry::new();
    registry.register_shared("model", model.into());
    SchedRuntime::with_config(
        registry,
        vec![XCKU060; devices],
        SchedPolicy::fifo_earliest_free(max_batch, max_wait_us),
        RuntimeConfig::new().executor(executor),
    )
}

#[test]
fn batched_results_are_bit_identical_to_sequential_exec() {
    let _quiet = serial();
    for cell in [CellType::Lstm, CellType::Gru] {
        // Reference: the raw quantized datapath, one utterance at a time.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(71);
        let dense = ModelSpec::new(cell, INPUT_DIM, 6)
            .layer_dims(&[16])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        let reference = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());

        let utterances = synthetic_utterances(12, (4, 12), INPUT_DIM, 201);
        let expected: Vec<Vec<Vec<f32>>> = utterances
            .iter()
            .map(|u| reference.forward_logits(u))
            .collect();

        // Serve the same utterances under aggressive batching.
        let runtime = fifo_runtime(compiled(cell), 2, (4, 500.0), ExecutorKind::Inline);
        let requests = open_loop_poisson(&utterances, 12, 1_000_000.0, 202);
        let report = runtime.run(requests);
        assert_eq!(report.responses.len(), 12);
        assert!(
            report.metrics.mean_batch_size > 1.0,
            "{cell}: load must actually batch (mean {})",
            report.metrics.mean_batch_size
        );

        for response in &report.responses {
            let want = &expected[response.id as usize % utterances.len()];
            assert_eq!(response.logits.len(), want.len());
            for (got, exp) in response.logits.iter().zip(want.iter()) {
                // Bit-identical, not approximately equal.
                assert_eq!(got, exp, "{cell}: request {}", response.id);
            }
        }
    }
}

#[test]
fn two_devices_beat_one_under_the_same_open_loop_load() {
    let _quiet = serial();
    // Heavy offered load: long utterances arriving far faster than one
    // device can serve them, so the drain time is capacity-bound.
    let utterances = synthetic_utterances(8, (40, 80), INPUT_DIM, 301);
    let requests = open_loop_poisson(&utterances, 96, 400_000.0, 302);
    let run = |devices| {
        fifo_runtime(
            compiled(CellType::Gru),
            devices,
            (4, 100.0),
            ExecutorKind::Inline,
        )
        .run(requests.clone())
    };
    let (one, two) = (run(1), run(2));

    assert_eq!(one.responses.len(), 96);
    assert_eq!(two.responses.len(), 96);
    assert!(
        two.metrics.makespan_us < one.metrics.makespan_us,
        "2-device makespan {} must be strictly below 1-device {}",
        two.metrics.makespan_us,
        one.metrics.makespan_us
    );
    // Under capacity-bound load the speedup should be substantial, and
    // both devices must have carried real work.
    assert!(
        two.metrics.makespan_us < 0.75 * one.metrics.makespan_us,
        "speedup too small: {} vs {}",
        two.metrics.makespan_us,
        one.metrics.makespan_us
    );
    let busy_devices = two
        .metrics
        .device_occupancy
        .iter()
        .filter(|&&o| o > 0.2)
        .count();
    assert_eq!(busy_devices, 2, "{:?}", two.metrics.device_occupancy);
}

fn assert_reports_bit_identical(served: &SchedReport, serial: &SchedReport) {
    assert_eq!(
        served.metrics, serial.metrics,
        "virtual-time metrics must not depend on the host's lane threads"
    );
    // Bit-identical responses (logits, timings, placement), not
    // approximately equal: `Response: PartialEq` covers every field.
    assert_eq!(served.responses, serial.responses);
}

#[test]
fn executors_agree_bit_for_bit_on_the_same_seeded_load() {
    let _quiet = serial();
    let utterances = synthetic_utterances(10, (10, 30), INPUT_DIM, 501);
    let run = |kind| {
        fifo_runtime(compiled(CellType::Gru), 4, (4, 100.0), kind).run(open_loop_poisson(
            &utterances,
            48,
            300_000.0,
            502,
        ))
    };
    let served = run(ExecutorKind::Inline);
    let serial = run(ExecutorKind::ThreadPool);

    assert_reports_bit_identical(&served, &serial);

    // FFT accounting: the served lane's count equals the serial run's,
    // whichever thread ran each batch — no FFT work is lost or
    // double-counted by parallel execution.
    assert_eq!(served.host_fft(), serial.host_fft());
    assert_eq!(
        served.host_fft().plans_created,
        0,
        "serving must never build FFT plans (spectra are cached at load)"
    );
}

#[test]
fn facade_reexports_the_serving_surface() {
    let _quiet = serial();
    // The facade path (`ernn::serve`) must expose the full serving API.
    let model = compiled(CellType::Gru);
    assert_eq!(model.input_dim(), INPUT_DIM);
    let runtime = fifo_runtime(model, 1, (1, 0.0), ExecutorKind::Inline);
    let utterances = synthetic_utterances(1, (3, 3), INPUT_DIM, 7);
    let payloads = [(0, utterances[0].clone())];
    let report = runtime.run_closed_loop(&payloads, 1, 3, None);
    assert_eq!(report.responses.len(), 3);
    assert!(report.metrics.latency.p99_us > 0.0);
}

#[test]
fn facade_exposes_the_scheduler() {
    let _quiet = serial();
    // The facade path (`ernn::serve::sched`) must expose the scheduling
    // subsystem end to end: registry, policy, runtime, per-model metrics.
    use ernn::serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
    let mut registry = ModelRegistry::new();
    registry.register("gru", compiled(CellType::Gru));
    let rt = SchedRuntime::new(
        registry,
        vec![XCKU060, ernn::fpga::ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(2, 50.0),
    );
    let utterances = synthetic_utterances(2, (3, 5), INPUT_DIM, 7);
    let report = rt.run(open_loop_poisson(&utterances, 6, 50_000.0, 8));
    assert_eq!(report.responses.len(), 6);
    assert!(report.metrics.latency.p999_us > 0.0);
    assert_eq!(report.metrics.per_model.len(), 1);
    assert_eq!(report.sched.admission_log.len(), 6);
}
