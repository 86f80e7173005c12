//! Counting-allocator proof that the steady-state serve hot path is
//! allocation-free.
//!
//! This binary installs [`ernn_bench::alloc::CountingAllocator`] as its
//! global allocator and holds a **single** `#[test]` so no concurrent
//! test thread can pollute the process-wide allocation counter during
//! the measured window.
//!
//! The claim under test (ISSUE 3 acceptance): after warmup, the batched
//! inference path a serving worker runs — input quantization, every
//! cell's FFT/matvec kernels, the classifier head, and the logits
//! buffers themselves — performs **zero** heap allocations when shapes
//! repeat, because every intermediate lives in a persistent
//! [`ExecScratch`] and outputs are written shape-reusingly in place.
//!
//! ISSUE 6 extends the claim to the observability layer: the same
//! measured window also drives the flight recorder past its ring
//! capacity (wraparound overwrite), streams samples into a
//! [`LatencyHistogram`], and charges warm [`StageAttribution`] cells —
//! still at zero allocations, so tracing can stay on in production.
//!
//! ISSUE 8 extends it again to fault injection: the scheduler's
//! per-dispatch fault-timeline queries (`is_down`, `cycle_multiplier`,
//! `abort_between`) run inside the same measured window against a
//! seeded, fully pre-materialized [`FaultTimeline`], so steady-state
//! serving stays zero-alloc even with a fault plan installed.
//!
//! ISSUE 9 extends it to the sampled-metrics layer: the same window
//! drives a [`MetricsTimeline`] past its ring capacity (grid sampling,
//! EWMA updates, wraparound overwrite) with the [`HealthMonitor`]
//! evaluating every emitted sample — so a runtime can leave timeline
//! capture and health rules on in production without perturbing the
//! hot path.

//!
//! ISSUE 13 re-proves the base claim for the lane-major kernels: one
//! [`MatVecScratch`]'s plane buffers (lane-batched FFT workspace, input
//! spectra, tile accumulators) are grow-only, so a batch that shrinks
//! 16 → 3 → 16 and a tiny matrix sharing the scratch with a large one
//! allocate nothing once the largest shape has been seen.
//!
//! The same window covers the matvec's helper thread (the counting
//! allocator is global, so it sees every thread): an LSTM-1024-shaped
//! quantized forward at B = 1, whose three matrices are large enough to
//! hand half their tiles to the helper, allocates nothing once warm —
//! the helper spawns inside warm-up and every buffer it writes is grown
//! by the caller that posts to it.
//!
//! The same holds for a forward that splits its lanes between the caller
//! and the lane helper thread (`ernn_fpga::exec`'s module docs, "Two
//! cores"): a GRU-1024 forward over 16 utterances allocates nothing once
//! warm — the job's scratch, frame rows and states are grown once and the
//! network travels as an `Arc` clone.
//!
//! ISSUE 21 adds the path the executors actually run,
//! [`CompiledModel::infer_batch_in_place`]: a request's frame rows become
//! its logits rows, so answering it allocates nothing when the feature
//! dimension holds the class count — and exactly one exactly-sized row
//! per frame, nothing else, when it does not.

use ernn::fpga::exec::{lane_split_stats, DatapathConfig, ExecScratch, QuantizedNetwork};
use ernn::fpga::{FaultPlan, FaultTimeline, XCKU060};
use ernn::linalg::{split_stats, BlockCirculantMatrix, MatVecScratch};
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn::serve::trace::{
    FlightRecorder, LatencyHistogram, StageAttribution, StageBreakdown, TraceConfig, TraceEvent,
};
use ernn::serve::{
    CompiledModel, HealthConfig, HealthMonitor, MetricsTimeline, TimelineConfig, TimelineSample,
};
use ernn_bench::alloc::{allocation_count, CountingAllocator};
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One scratch, two matrices on opposite sides of the 32-lane tile width
/// (ragged edges included), batches 16 → 3 → 16: after the warm-up call
/// nothing allocates, and a shrunken batch leaves no stale lanes behind.
fn lane_kernel_scratch_is_grow_only(rng: &mut impl Rng) {
    let mut random = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let big = BlockCirculantMatrix::from_blocks(300, 153, 8, random(38 * 20 * 8));
    let small = BlockCirculantMatrix::from_blocks(8, 8, 8, random(8));
    let xs = random(16 * 153);
    let mut ys = vec![0.0f32; 16 * 300];
    let mut small_y = [0.0f32; 8];
    let mut scratch = MatVecScratch::new();
    big.matvec_batch_into(&xs, &mut ys, 16, &mut scratch);
    let reference = ys.clone();
    // The first read of `small` computes (and allocates) its spectra.
    small.cache_spectra();

    let before = allocation_count();
    for batch in [3usize, 16, 1, 16] {
        ys.fill(f32::NAN);
        big.matvec_batch_into(
            &xs[..batch * 153],
            &mut ys[..batch * 300],
            batch,
            &mut scratch,
        );
        small.matvec_into(&xs[..8], &mut small_y, &mut scratch);
        assert_eq!(ys[..batch * 300], reference[..batch * 300], "batch {batch}");
    }
    let delta = allocation_count() - before;
    assert_eq!(delta, 0, "warm lane-major matvecs allocated {delta} times");
    assert_eq!(small_y.to_vec(), small.matvec(&xs[..8]));
}

/// The paper's LSTM-1024 (153 inputs, projection 512, peepholes, 61
/// classes, `L_b = 8`, 12 bits) at B = 1: after warm-up a forward pass
/// allocates nothing on any thread. Windows repeat until one of them saw
/// the helper run a delegated half (on a machine with a second core).
fn lstm1024_forward_with_the_helper_is_allocation_free(rng: &mut impl Rng) {
    let dense = ModelSpec::new(CellType::Lstm, 153, 61)
        .layer_dims(&[1024])
        .projection(512)
        .peephole(true)
        .build(rng);
    let net = QuantizedNetwork::new(
        &compress_network(&dense, BlockPolicy::uniform(8)),
        &DatapathConfig::paper_12bit(),
    );
    let utterance: Vec<Vec<f32>> = (0..3)
        .map(|_| (0..153).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let batch = [utterance.as_slice()];
    let (mut out, mut scratch) = (Vec::new(), ExecScratch::new());
    // Two warm-up passes: the second still allocates once, with or without
    // the helper (a serial kernel does the same); from the third on a pass
    // allocates nothing.
    for _ in 0..2 {
        net.forward_logits_batch_into(&batch, &mut out, &mut scratch);
    }
    let reference = out.clone();

    let two_cores = std::thread::available_parallelism().map_or(1, usize::from) >= 2;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let (before, split) = (allocation_count(), split_stats());
        net.forward_logits_batch_into(&batch, &mut out, &mut scratch);
        let delta = allocation_count() - before;
        let split = split_stats().since(&split);
        assert_eq!(
            delta, 0,
            "warm LSTM-1024 forward allocated {delta} times ({split:?})"
        );
        assert_eq!(out, reference);
        if split.helper_ran > 0 || !two_cores {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the helper ran no delegated half: {:?}",
            split_stats()
        );
    }
}

/// The paper's GRU-1024 (153 inputs, 61 classes, `L_b = 8`, 12 bits) at
/// B = 16, the `asr_gru1024_batch16` shape: after warm-up a forward that
/// splits its lanes allocates nothing on any thread, through the `_into`
/// kernel and the in-place one. Windows repeat until one of them saw the
/// lane helper run a delegated half (on a machine with a second core).
fn gru1024_batch16_forward_splitting_its_lanes_is_allocation_free(rng: &mut impl Rng) {
    let dense = ModelSpec::new(CellType::Gru, 153, 61)
        .layer_dims(&[1024])
        .build(rng);
    let net = QuantizedNetwork::new(
        &compress_network(&dense, BlockPolicy::uniform(8)),
        &DatapathConfig::paper_12bit(),
    );
    let utterances: Vec<Vec<Vec<f32>>> = (0..16)
        .map(|s| {
            (0..1 + s % 2)
                .map(|_| (0..153).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        })
        .collect();
    let batch: Vec<&[Vec<f32>]> = utterances.iter().map(Vec::as_slice).collect();
    let (mut out, mut scratch) = (Vec::new(), ExecScratch::new());
    let mut in_place = utterances.clone();
    for _ in 0..3 {
        net.forward_logits_batch_into(&batch, &mut out, &mut scratch);
        in_place.clone_from(&utterances);
        net.forward_logits_batch_in_place(&mut in_place, None, &mut scratch);
    }
    let reference = out.clone();
    assert_eq!(in_place, reference);

    let two_cores = std::thread::available_parallelism().map_or(1, usize::from) >= 2;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let (before, split) = (allocation_count(), lane_split_stats());
        net.forward_logits_batch_into(&batch, &mut out, &mut scratch);
        for (rows, frames) in in_place.iter_mut().zip(&utterances) {
            for (row, frame) in rows.iter_mut().zip(frames) {
                row.clear();
                row.extend_from_slice(frame);
            }
        }
        net.forward_logits_batch_in_place(&mut in_place, None, &mut scratch);
        let delta = allocation_count() - before;
        let split = lane_split_stats().since(&split);
        assert_eq!(
            delta, 0,
            "warm GRU-1024 B = 16 forwards allocated {delta} times ({split:?})"
        );
        assert_eq!(out, reference);
        assert_eq!(in_place, reference);
        if split.helper_ran > 0 || !two_cores {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the lane helper ran no delegated half: {:?}",
            lane_split_stats()
        );
    }
}

#[test]
fn steady_state_batched_inference_performs_zero_allocations() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
    lane_kernel_scratch_is_grow_only(&mut rng);
    lstm1024_forward_with_the_helper_is_allocation_free(&mut rng);
    gru1024_batch16_forward_splitting_its_lanes_is_allocation_free(&mut rng);
    for cell in [CellType::Gru, CellType::Lstm] {
        let dense = ModelSpec::new(cell, 12, 7)
            .layer_dims(&[16, 16])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(8));
        let model = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);

        // A served batch of ragged-length utterances.
        let utterances: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|s| {
                (0..5 + s * 2)
                    .map(|_| (0..12).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect()
            })
            .collect();
        let batch: Vec<&[Vec<f32>]> = utterances.iter().map(Vec::as_slice).collect();

        let mut scratch = ExecScratch::new();
        let mut out = Vec::new();
        // Warmup grows every scratch buffer and the output shape — on
        // both kernels: the in-place one steps a GRU through its stacked
        // x-side operand, which has a scratch plane of its own.
        model.infer_batch_into(&batch, &mut out, &mut scratch);
        model.infer_batch_in_place(&mut utterances.clone(), None, &mut scratch);

        // Tracing state, pre-sized at construction: a flight recorder
        // whose ring we will deliberately overflow, a histogram (fixed
        // bucket array), and an attribution table with its cell warmed.
        let mut recorder = FlightRecorder::new(TraceConfig::enabled(4096));
        let mut hist = LatencyHistogram::new();
        let mut attribution = StageAttribution::new();
        attribution.charge(0, 0, StageBreakdown::default());
        // A seeded fault timeline, fully materialized at construction.
        let faults = FaultTimeline::new(&FaultPlan::seeded(7, 2, 80_000.0, 6), 2);
        // The sampled-metrics layer, pre-sized at construction: a
        // 256-sample timeline ring we will wrap several times over, the
        // health monitor that evaluates each emitted sample, and the
        // per-device busy scratch the runtimes refill per capture.
        let mut timeline = MetricsTimeline::new(TimelineConfig::enabled(10.0, 256), 2);
        let mut health = HealthMonitor::new(HealthConfig::enabled(), 2);
        let busy = [0.0f64; 2];

        // The batch as a request hands it over: owned frame rows.
        let mut in_place = utterances.clone();

        let before = allocation_count();
        model.infer_batch_into(&batch, &mut out, &mut scratch);
        // 12 features ≥ 7 classes: every frame row is reused as is.
        model.infer_batch_in_place(&mut in_place, None, &mut scratch);
        // 2× ring capacity exercises both the fill and the wraparound
        // overwrite paths of the recorder.
        for i in 0..8192u64 {
            recorder.record(TraceEvent::Enqueue {
                t_us: i as f64,
                id: i,
                model: 0,
                depth: 1,
            });
            hist.record(1.0 + i as f64);
        }
        attribution.charge(
            0,
            0,
            StageBreakdown {
                requests: 4,
                batches: 1,
                queue_us: 12.5,
                load_us: 0.0,
                state_us: 0.0,
                compute_us: 90.0,
                padding_us: 3.0,
                aborted_us: 0.0,
            },
        );
        // Fault-timeline queries are the scheduler's per-dispatch hot
        // path under fault injection; they must stay allocation-free.
        let mut up = 0usize;
        for i in 0..8192u64 {
            let t = i as f64 * 10.0;
            up += usize::from(!faults.is_down(0, t));
            let _ = faults.cycle_multiplier(1, t);
            let _ = faults.abort_between(0, t, t + 10.0);
        }
        // Timeline sampling with health evaluation: one grid sample per
        // advance, 8192 samples through a 256-slot ring (32 full
        // wraparounds), each evaluated by every health rule.
        let mut fired = 0usize;
        for i in 0..8192u64 {
            timeline.observe_queue_delay(5.0 + (i % 7) as f64);
            let state = TimelineSample {
                live_sessions: 2,
                weights_bytes: 4096,
                state_bytes: 512,
                completed: i,
                weight_loads: 1,
                state_loads: 1,
                ..TimelineSample::default()
            };
            let emitted = timeline.advance((i + 1) as f64 * 10.0, &state, &busy);
            let (start, end) = health.on_samples(&timeline, emitted);
            fired += end - start;
        }
        let delta = allocation_count() - before;
        assert_eq!(
            delta, 0,
            "{cell}: steady-state batched inference + tracing allocated {delta} times"
        );
        assert_eq!(recorder.dropped(), 8192 - 4096);
        assert_eq!(hist.summary().count, 8192);
        assert!(up > 0, "device 0 was never up across the query sweep");
        // The ring wrapped: 8192 offered, newest 256 retained, and every
        // sample passed through the (quiet, healthy-probe) rule set.
        let ewma = timeline.ewma_queue_us();
        let exported = timeline.into_timeline();
        assert_eq!(exported.samples.len(), 256);
        assert_eq!(exported.dropped, 8192 - 256);
        assert!(ewma > 0.0, "EWMA queue delay never seeded");
        let verdict = health.into_report(ewma);
        assert_eq!(fired, 0, "healthy probes fired {fired} health events");
        assert!(verdict.healthy());
        assert_eq!(verdict.samples_evaluated, 8192);

        // And the in-place results are still bit-identical to the plain
        // allocating path, per utterance.
        for (s, utt) in utterances.iter().enumerate() {
            assert_eq!(out[s], model.infer(utt), "{cell} utterance {s}");
        }
        assert_eq!(
            in_place, out,
            "{cell}: frame rows did not become the logits"
        );

        // More classes than features: each frame row is replaced by one
        // exactly-sized logits row, and that is every allocation there is.
        let wide = ModelSpec::new(cell, 12, 20)
            .layer_dims(&[16])
            .build(&mut rng);
        let wide = compress_network(&wide, BlockPolicy::uniform(8));
        let wide = CompiledModel::compile(&wide, &DatapathConfig::paper_12bit(), XCKU060);
        wide.infer_batch_in_place(&mut utterances.clone(), None, &mut scratch);
        let mut in_place = utterances.clone();
        let rows: usize = in_place.iter().map(Vec::len).sum();
        let before = allocation_count();
        wide.infer_batch_in_place(&mut in_place, None, &mut scratch);
        let delta = allocation_count() - before;
        assert_eq!(
            delta, rows as u64,
            "{cell}: one logits row per frame expected"
        );
        assert!(in_place.iter().flatten().all(|row| row.capacity() == 20));
    }
}
