//! Sweeps the zero-allocation, batch-fused, lane-major FFT matvec kernel:
//! per-call heap-allocation counts for the allocating vs `_into` paths,
//! and fused-vs-sequential and direct-vs-FFT wall clock across block
//! sizes, batch sizes and the paper's matrix shapes.
//!
//! The sweep doubles as a correctness harness (CI runs it with `--quick`):
//!
//! * the steady-state allocation count of `matvec_batch_into` must be
//!   **zero** (counted by the [`ernn_bench::alloc`] global allocator);
//! * `matvec_batch_into` must stream the cached weight spectra exactly
//!   once per batch (`p·q` block reads, via `ernn_fft::stats`);
//! * one fused call must cost, per input, at most 1.10 × one
//!   `matvec_into` — the ratio is taken inside each rep, where the two
//!   sides run back to back, and the assert is on the median of those
//!   ratios, so a slow spell of the machine hits both sides of a ratio or
//!   is voted out. (The lane-major kernel is FP-issue bound and just as
//!   fast at batch 1, so "fused beats sequential" is a coin flip; "fusing
//!   never costs" is the property worth gating.)
//!
//! The header names the lane ISA the matvec tiles ran on
//! ([`ernn_linalg::lane_isa`]); the GRU-8 rows (8×8 and 16×8) are the
//! per-call fixed cost — one 4-lane tile, which runs the baseline
//! instantiation on every CPU.
//!
//! Then the "two cores" table: µs per call of the shapes on either side of
//! the split threshold, with the share of calls the helper thread ran and
//! the share the caller took back; every split call is asserted equal to
//! the serial kernel bit for bit and, with `available_parallelism` ≥ 2,
//! the helper must have run at least once. The header prints the core
//! count and the threshold.
//!
//! Below that it prints what the `ernn_fft::stats` counters
//! cost the 8×8 call: the call as it runs, and its pure-arithmetic floor
//! (the call minus its three counter updates, timed on their own).
//!
//! Then the lane transforms on their own: ns per
//! `RealFft::{forward,inverse}_lanes` tile at 4 and 32 lanes for
//! `L_b` ∈ {8, 16, 32} — 8 and 16 run the straight-line codelets, 32 the
//! radix-2 plan, so the 32 rows are the ones a codelet change must not
//! move — and the share of the 1024² `L_b = 8` batch-1 call that its
//! stage-1 and stage-3 transforms take (the call's `into µs` from the
//! table, then the eight tile transforms it issues timed on planes of the
//! same shape).
//!
//! After that it prices the fixed-point cell datapath around
//! those matvecs: ns per element of `FixedFormat::quantize_slice` and
//! `PiecewiseLinear::eval_slice` (≈ 0.7 and ≈ 1.1 when the loops
//! vectorise; the scalar forms they replaced cost ≈ 6 and ≈ 10), and for
//! the paper's LSTM-1024 at B = 1 and GRU-1024 at B = 16 the quantized
//! forward pass per frame, the cell matvecs inside it, and the share left
//! over for the pointwise work.
//!
//! Run with: `cargo run --release -p ernn-bench --bin kernel_sweep`
//! (`--quick` shrinks the configs for smoke runs, `--json PATH` writes
//! the rows as a bench artifact for CI trend tracking).

use ernn_bench::alloc::{allocation_count, CountingAllocator};
use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::SweepArgs;
use ernn_fft::{stats, RealFft};
use ernn_fpga::exec::{DatapathConfig, ExecScratch, QuantizedNetwork};
use ernn_linalg::{
    lane_isa, split_stats, BlockCirculantMatrix, MatVec, MatVecScratch, WeightMatrix, HELPER_SPIN,
    SPLIT_MIN_WORK,
};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_quant::{FixedFormat, PiecewiseLinear};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Wall time of one call of `f`, in microseconds.
fn once_us(f: impl FnMut()) -> f64 {
    per_call_us(1, f)
}

/// Wall time per call of `f` over `calls` back-to-back calls, in
/// microseconds (a sub-microsecond call is below the clock's resolution
/// on its own).
fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A time cell of the matvec table: three decimals below 10 µs, so the
/// GRU-8 rows read in nanoseconds.
fn us_cell(us: f64) -> String {
    let decimals = if us < 10.0 { 3 } else { 1 };
    format!("{us:.decimals$}")
}

/// Best-of-`reps` ns per element of `f` run in place over a fresh copy of
/// `source` (the copy is inside the timed region on purpose: it is what a
/// caller's preceding pass costs, and it keeps every rep on the same data).
fn slice_ns_per_elem(source: &[f32], reps: usize, mut f: impl FnMut(&mut [f32])) -> f64 {
    let mut buf = source.to_vec();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(once_us(|| {
            buf.copy_from_slice(source);
            f(black_box(&mut buf));
        }));
    }
    best * 1e3 / source.len() as f64
}

/// One paper-shaped single-layer model through the quantized datapath at
/// `batch` lanes × `frames` timesteps: µs per frame of the whole forward
/// pass, µs per frame of the cell's matvecs alone (same matrices, same
/// batch), and the share of the frame that is not those matvecs.
fn cell_datapath_row(
    name: &str,
    cell: CellType,
    batch: usize,
    frames: usize,
    reps: usize,
    rng: &mut impl Rng,
) -> String {
    const IN_DIM: usize = 153;
    let mut builder = ModelSpec::new(cell, IN_DIM, 61).layer_dims(&[1024]);
    if cell == CellType::Lstm {
        builder = builder.projection(512).peephole(true);
    }
    let net = compress_network(&builder.build(rng), BlockPolicy::uniform(8));
    let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
    let utts: Vec<Vec<Vec<f32>>> = (0..batch)
        .map(|_| {
            (0..frames)
                .map(|_| (0..IN_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        })
        .collect();
    let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
    let (mut out, mut scratch) = (Vec::new(), ExecScratch::new());
    q.forward_logits_batch_into(&refs, &mut out, &mut scratch);

    let weights: Vec<&WeightMatrix> = q
        .network()
        .weight_matrices()
        .into_iter()
        .map(|(_, _, w)| w)
        .collect();
    let xs: Vec<f32> = (0..batch * 1024)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut ys = vec![0.0f32; batch * 4096];
    let mut mv = MatVecScratch::new();

    let (mut frame_us, mut matvec_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        frame_us = frame_us.min(once_us(|| {
            q.forward_logits_batch_into(black_box(&refs), &mut out, &mut scratch);
        }));
        matvec_us = matvec_us.min(once_us(|| {
            for w in &weights {
                let (x, y) = (&xs[..batch * w.cols()], &mut ys[..batch * w.rows()]);
                w.matvec_batch_into(black_box(x), black_box(y), batch, &mut mv);
            }
        }));
    }
    let frame_us = frame_us / (batch * frames) as f64;
    let matvec_us = matvec_us / batch as f64;
    let pointwise_frac = (frame_us - matvec_us) / frame_us;
    println!("{name:<14} B={batch:<3} {frame_us:>9.1} {matvec_us:>10.1} {pointwise_frac:>14.2}");
    JsonObject::new()
        .str("model", name)
        .int("batch", batch as i64)
        .num("frame_us", frame_us)
        .num("matvec_us", matvec_us)
        .num("pointwise_frac", pointwise_frac)
        .render()
}

/// What the `ernn_fft::stats` counters cost the smallest call that carries
/// them — the GRU-8 kernel call (8×8, `L_b = 8`, batch 1), which counts
/// three times: one forward transform, one block read, one inverse
/// transform. The counters cannot be compiled out, so the call's
/// pure-arithmetic floor is the measured call minus three counter updates
/// timed back to back on their own (dependent through memory there, so if
/// anything this over-prices them: inside the kernel they overlap with
/// arithmetic).
fn cost_of_observing(reps: usize, rng: &mut impl Rng) -> String {
    const UPDATES_PER_CALL: u64 = 3;
    const CALLS: usize = 4096;
    let blocks: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let m = BlockCirculantMatrix::from_blocks(8, 8, 8, blocks);
    let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (mut y, mut scratch) = ([0.0f32; 8], MatVecScratch::new());
    m.cache_spectra();
    let s0 = stats::thread_snapshot();
    m.matvec_into(&x, &mut y, &mut scratch);
    let counted = stats::thread_snapshot().since(&s0);
    assert_eq!(
        (
            counted.forward_transforms,
            counted.spectrum_block_reads,
            counted.inverse_transforms
        ),
        (1, 1, 1),
        "an 8×8 single-block call counts once per counter"
    );

    let (mut call_ns, mut update_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        call_ns = call_ns.min(
            1e3 * per_call_us(CALLS, || {
                m.matvec_into(black_box(&x), black_box(&mut y), &mut scratch);
            }),
        );
        update_ns = update_ns
            .min(1e3 * per_call_us(CALLS, || stats::count_spectrum_block_reads(black_box(1))));
    }
    let floor_ns = call_ns - UPDATES_PER_CALL as f64 * update_ns;
    println!("\ncost of observing, 8×8 L_b=8 batch 1 (ns per call):");
    println!(
        "  with counting {call_ns:.1}   floor {floor_ns:.1}   \
         ({UPDATES_PER_CALL} counter updates at {update_ns:.2} ns each, {:.1} % of the call)",
        100.0 * (call_ns - floor_ns) / call_ns
    );
    JsonObject::new()
        .num("call_ns", call_ns)
        .num("floor_ns", floor_ns)
        .num("update_ns", update_ns)
        .int("updates_per_call", UPDATES_PER_CALL as i64)
        .render()
}

/// Best-of-`reps` ns per `forward_lanes::<W>` and per `inverse_lanes::<W>`
/// call of size `lb`. The plan's forward clobbers its time planes, so the
/// forward side refills them inside the timed region, as the matvec's
/// gather does before every transform it issues.
fn fft_lanes_ns<const W: usize>(lb: usize, reps: usize, rng: &mut impl Rng) -> (f64, f64) {
    const CALLS: usize = 1024;
    let rfft = RealFft::shared(lb);
    let signals: Vec<f32> = (0..lb * W).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut time = signals.clone();
    let mut spectrum = vec![0.0f32; rfft.spectrum_len() * 2 * W];
    let (mut forward_ns, mut inverse_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        forward_ns = forward_ns.min(
            1e3 * per_call_us(CALLS, || {
                time.copy_from_slice(&signals);
                rfft.forward_lanes::<W>(black_box(&mut time), &mut spectrum, W);
            }),
        );
        inverse_ns = inverse_ns.min(
            1e3 * per_call_us(CALLS, || {
                rfft.inverse_lanes::<W>(black_box(&spectrum), &mut time, W);
            }),
        );
    }
    (forward_ns, inverse_ns)
}

/// The lane transforms alone (see the module docs): one row per
/// (`L_b`, lane count), then what stages 1 and 3 take of the 1024²
/// `L_b = 8` batch-1 call (`call_us`, from the matvec table), which issues
/// 128 / 32 = 4 forward and 4 inverse 32-lane tiles.
fn fft_lanes_report(call_us: f64, reps: usize, rng: &mut impl Rng) -> (String, String) {
    println!("\nlane transforms, ns per tile (L_b = 32 runs the radix-2 plan):");
    println!(
        "{:<5} {:<6} {:>12} {:>12}",
        "L_b", "lanes", "forward ns", "inverse ns"
    );
    let mut rows = Vec::new();
    let mut tile8 = (f64::NAN, f64::NAN);
    for lb in [8, 16, 32] {
        let narrow = fft_lanes_ns::<4>(lb, reps, rng);
        let wide = fft_lanes_ns::<32>(lb, reps, rng);
        if lb == 8 {
            tile8 = wide;
        }
        for (lanes, (forward_ns, inverse_ns)) in [(4, narrow), (32, wide)] {
            println!("{lb:<5} {lanes:<6} {forward_ns:>12.1} {inverse_ns:>12.1}");
            rows.push(
                JsonObject::new()
                    .int("block_size", lb as i64)
                    .int("lanes", lanes)
                    .num("fft_forward_lanes_ns", forward_ns)
                    .num("fft_inverse_lanes_ns", inverse_ns)
                    .render(),
            );
        }
    }

    const TILES: f64 = 4.0;
    let (stage1_us, stage3_us) = (TILES * tile8.0 / 1e3, TILES * tile8.1 / 1e3);
    let (stage1_share, stage3_share) = (stage1_us / call_us, stage3_us / call_us);
    println!(
        "1024×1024 L_b=8 batch 1: call {call_us:.1} µs, stage-1 transforms {stage1_us:.2} µs \
         ({:.1} %), stage-3 transforms {stage3_us:.2} µs ({:.1} %)",
        100.0 * stage1_share,
        100.0 * stage3_share
    );
    let share = JsonObject::new()
        .num("call_us", call_us)
        .num("stage1_us", stage1_us)
        .num("stage3_us", stage3_us)
        .num("stage1_share", stage1_share)
        .num("stage3_share", stage3_share)
        .render();
    (array(rows), share)
}

/// The two-core split (`ernn_linalg`'s crate docs, "Two cores"): µs per
/// call of the shapes on either side of [`SPLIT_MIN_WORK`] — the LSTM-1024
/// matrices at B = 1, GRU-1024's stacked x-side operand at B = 16, a
/// GRU-256 matrix at B = 1 and 8, GRU-8's 8×8 — with the share of each
/// row's calls the helper ran, the share taken back (the caller ran the
/// helper's half too) and the share that found the helper busy or resting
/// and ran serially. Every row's output is asserted `to_bits` equal to the
/// serial kernel's, computed one 32-row tile at a time: a one-tile matrix
/// never splits, and a block row's bits do not depend on the tile it sits
/// in.
fn two_cores_report(reps: usize, rng: &mut impl Rng) -> String {
    const LB: usize = 8;
    const SHAPES: [(usize, usize, usize); 8] = [
        (1024, 1024, 1),
        (4096, 512, 1),
        (4096, 153, 1),
        (512, 1024, 1),
        (3072, 153, 16),
        (512, 256, 1),
        (512, 256, 8),
        (8, 8, 1),
    ];
    println!(
        "\ntwo cores, L_b = {LB}: a call of ≥ 2 tiles and p·q·batch ≥ {SPLIT_MIN_WORK} gives its \
         upper tiles to the helper (which spins at most {} µs, then parks)",
        HELPER_SPIN.as_micros()
    );
    println!(
        "{:<11} {:<6} {:>9} {:>6} {:>10} {:>11} {:>11} {:>7}",
        "shape", "batch", "p·q·B", "split", "µs/call", "helper ran", "taken back", "serial"
    );
    let mut rows_json = Vec::new();
    let mut scratch = MatVecScratch::new();
    for (rows, cols, batch) in SHAPES {
        let (p, q) = (rows.div_ceil(LB), cols.div_ceil(LB));
        let work = p * q * batch;
        let blocks: Vec<f32> = (0..p * q * LB).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = BlockCirculantMatrix::from_blocks(rows, cols, LB, blocks.clone());
        let xs: Vec<f32> = (0..batch * cols)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut ys = vec![0.0f32; batch * rows];

        // The serial bits, one 32-block-row tile at a time.
        let mut serial = vec![0.0f32; batch * rows];
        let tile_rows = 32 * LB;
        for (t, tile_blocks) in blocks.chunks(32 * q * LB).enumerate() {
            let first = t * tile_rows;
            let height = tile_rows.min(rows - first);
            let tile = BlockCirculantMatrix::from_blocks(height, cols, LB, tile_blocks.to_vec());
            let mut out = vec![0.0f32; batch * height];
            tile.matvec_batch_into(&xs, &mut out, batch, &mut scratch);
            for (y, o) in serial.chunks_mut(rows).zip(out.chunks(height)) {
                y[first..first + height].copy_from_slice(o);
            }
        }

        let calls = (2_000_000 / work).clamp(4, 4096);
        let before = split_stats();
        let mut us = f64::INFINITY;
        for _ in 0..reps {
            us = us.min(per_call_us(calls, || {
                m.matvec_batch_into(black_box(&xs), black_box(&mut ys), batch, &mut scratch);
            }));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&ys),
                bits(&serial),
                "the split {rows}×{cols} batch-{batch} call must equal the serial kernel bit for bit"
            );
        }
        let split = split_stats().since(&before);
        let share = |n: u64| n as f64 / (reps * calls) as f64;
        let (ran, taken_back) = (share(split.helper_ran), share(split.taken_back));
        let serial = share(split.busy + split.rested);
        let splits = split.helper_ran + split.taken_back + split.busy + split.rested > 0;
        println!(
            "{:<11} {:<6} {:>9} {:>6} {:>10} {:>11.2} {:>11.2} {:>7.2}",
            format!("{rows}×{cols}"),
            batch,
            work,
            if splits { "yes" } else { "no" },
            us_cell(us),
            ran,
            taken_back,
            serial
        );
        rows_json.push(
            JsonObject::new()
                .int("rows", rows as i64)
                .int("cols", cols as i64)
                .int("block_size", LB as i64)
                .int("batch", batch as i64)
                .int("work", work as i64)
                .num("us", us)
                .num("helper_ran_share", ran)
                .num("taken_back_share", taken_back)
                .num("serial_share", serial)
                .render(),
        );
    }
    array(rows_json)
}

/// Fused time per input must stay within this factor of one `matvec_into`.
const FUSED_PER_LANE_CEILING: f64 = 1.10;

fn main() {
    let args = SweepArgs::from_env();
    let quick = args.quick;
    let dim = if quick { 256 } else { 1024 };
    let block_sizes: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32, 64] };
    let reps = if quick { 15 } else { 40 };

    // (rows, cols, L_b, batch): the square sweep, the paper's shapes
    // (LSTM-1024 recurrent/input/projection-side matrices, Sec. VII), then
    // the GRU-8 shapes the cluster tier serves, where the per-call fixed
    // cost is all there is.
    let mut configs: Vec<(usize, usize, usize, usize)> = Vec::new();
    for &lb in block_sizes {
        configs.extend([1, 4, 8, 16].map(|batch| (dim, dim, lb, batch)));
    }
    for &lb in if quick { &[8][..] } else { &[8, 16][..] } {
        for (rows, cols) in [(1024, 1024), (2048, 153), (4096, 512)] {
            configs.extend([1, 16].map(|batch| (rows, cols, lb, batch)));
        }
    }
    for rows in [8, 16] {
        configs.extend([1, 3].map(|batch| (rows, 8, 8, batch)));
    }

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "kernel_sweep: block-circulant matvec, best of {reps} alternating reps, lane ISA {}, \
         available_parallelism {cores}, split at p·q·batch ≥ {SPLIT_MIN_WORK}\n",
        lane_isa()
    );
    println!(
        "{:<11} {:<5} {:<6} {:>10} {:>10} {:>10} {:>8} {:>10} {:>11} {:>7} {:>7}",
        "shape",
        "L_b",
        "batch",
        "seq µs",
        "fused µs",
        "into µs",
        "speedup",
        "fused/lane",
        "direct/fft",
        "seq al.",
        "fus al."
    );

    let mut rows_json: Vec<String> = Vec::new();
    let mut scratch = MatVecScratch::new();
    // `into µs` of the 1024² `L_b = 8` batch-1 row, for the FFT stage shares.
    let mut call_1024_us = f64::NAN;
    for (rows, cols, lb, batch) in configs {
        let (p, q) = (rows.div_ceil(lb), cols.div_ceil(lb));
        let blocks: Vec<f32> = (0..p * q * lb).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let m = BlockCirculantMatrix::from_blocks(rows, cols, lb, blocks);
        let xs: Vec<f32> = (0..batch * cols)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut ys = vec![0.0f32; batch * rows];

        // Warm the scratch, then count steady-state allocations and
        // spectrum-block reads for one fused call.
        m.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
        let (a0, s0) = (allocation_count(), stats::thread_snapshot());
        m.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
        let fused_allocs = allocation_count() - a0;
        let fused_reads = stats::thread_snapshot().since(&s0).spectrum_block_reads;
        assert_eq!(
            fused_allocs, 0,
            "steady-state matvec_batch_into must not allocate ({rows}×{cols} L_b={lb}, batch={batch})"
        );
        assert_eq!(
            fused_reads,
            (p * q) as u64,
            "fused matvec must stream the weight spectra once per batch"
        );

        // Allocation count of the B allocating sequential calls.
        let a0 = allocation_count();
        for x in xs.chunks(cols) {
            let _ = m.matvec(x);
        }
        let seq_allocs = allocation_count() - a0;

        // The three FFT sides alternate inside every rep; each keeps its
        // best, and fused-vs-into is also compared inside the rep. The
        // direct matvec is timed on its own afterwards: it runs 20–40×
        // longer, and on the AVX2 lane ISA a stretch that long without a
        // 256-bit instruction lets the core power its upper lanes down —
        // measured here, the next ≈ 0.3 ms of 1024² calls then read 63 µs
        // instead of 19.
        let calls = if rows * cols <= 256 { 1024 } else { 1 };
        let [mut seq_us, mut fused_us, mut into_us] = [f64::INFINITY; 3];
        let mut fused_per_lane: Vec<f64> = Vec::with_capacity(reps);
        for _ in 0..reps {
            seq_us = seq_us.min(per_call_us(calls, || {
                for x in xs.chunks(cols) {
                    black_box(m.matvec(x));
                }
            }));
            // Fused and `_into` alternate three times and each keeps its
            // best: both sides of this rep's ratio are measured warm and
            // over the same stretch of wall clock, so a stretch that is
            // slow for one side is slow for both.
            let (mut fused_rep, mut into_rep) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..3 {
                fused_rep = fused_rep.min(per_call_us(calls, || {
                    m.matvec_batch_into(black_box(&xs), black_box(&mut ys), batch, &mut scratch);
                }));
                into_rep = into_rep.min(per_call_us(calls, || {
                    m.matvec_into(
                        black_box(&xs[..cols]),
                        black_box(&mut ys[..rows]),
                        &mut scratch,
                    );
                }));
            }
            fused_us = fused_us.min(fused_rep);
            into_us = into_us.min(into_rep);
            fused_per_lane.push(fused_rep / batch as f64 / into_rep);
        }
        let direct_us = (0..reps)
            .map(|_| {
                per_call_us(calls, || {
                    black_box(m.matvec_direct(black_box(&xs[..cols])));
                })
            })
            .fold(f64::INFINITY, f64::min);
        let speedup = seq_us / fused_us;
        fused_per_lane.sort_by(f64::total_cmp);
        let fused_per_lane = fused_per_lane[reps / 2];
        let direct_over_fft = direct_us / into_us;
        if (rows, cols, lb, batch) == (1024, 1024, 8, 1) {
            call_1024_us = into_us;
        }
        assert!(
            fused_per_lane <= FUSED_PER_LANE_CEILING,
            "fusing {batch} inputs must not cost more per input than matvec_into \
             ({rows}×{cols} L_b={lb}: median per-rep ratio {fused_per_lane:.2}, \
             best {fused_us:.1}µs / {batch} vs {into_us:.1}µs)"
        );

        println!(
            "{:<11} {:<5} {:<6} {:>10} {:>10} {:>10} {:>7.2}x {:>10.2} {:>10.1}x {:>7} {:>7}",
            format!("{rows}×{cols}"),
            lb,
            batch,
            us_cell(seq_us),
            us_cell(fused_us),
            us_cell(into_us),
            speedup,
            fused_per_lane,
            direct_over_fft,
            seq_allocs,
            fused_allocs
        );
        rows_json.push(
            JsonObject::new()
                .int("rows", rows as i64)
                .int("cols", cols as i64)
                .int("block_size", lb as i64)
                .int("batch", batch as i64)
                .num("seq_us", seq_us)
                .num("fused_us", fused_us)
                .num("into_us", into_us)
                .num("speedup", speedup)
                .num("fused_per_lane_over_into", fused_per_lane)
                .num("direct_over_fft", direct_over_fft)
                .int("seq_allocs", seq_allocs as i64)
                .int("fused_steady_allocs", fused_allocs as i64)
                .int("fused_spectrum_reads", fused_reads as i64)
                .render(),
        );
    }

    let two_cores_json = two_cores_report(reps, &mut rng);
    let ran_total = split_stats().helper_ran;
    if cores >= 2 {
        assert!(
            ran_total > 0,
            "on {cores} cores the helper thread never ran a delegated half"
        );
    }
    let observing_json = cost_of_observing(reps, &mut rng);
    let (fft_lanes_json, fft_share_json) = fft_lanes_report(call_1024_us, reps, &mut rng);

    // FFT kernels alone: allocating vs `_into`, per call.
    let rfft = RealFft::new(if quick { 256 } else { 1024 });
    let signal: Vec<f32> = (0..rfft.size()).map(|i| (i as f32 * 0.7).sin()).collect();
    let mut spec = vec![ernn_fft::Complex32::ZERO; rfft.spectrum_len()];
    let mut back = vec![0.0f32; rfft.size()];
    let mut fft_scratch = ernn_fft::RealFftScratch::new();
    rfft.forward_into(&signal, &mut spec, &mut fft_scratch);
    rfft.inverse_into(&spec, &mut back, &mut fft_scratch);
    let a0 = allocation_count();
    let _ = rfft.forward(&signal);
    let fwd_allocs = allocation_count() - a0;
    let a0 = allocation_count();
    rfft.forward_into(&signal, &mut spec, &mut fft_scratch);
    rfft.inverse_into(&spec, &mut back, &mut fft_scratch);
    let into_allocs = allocation_count() - a0;
    println!(
        "\nRealFft({}) per call: forward {} allocs, forward_into+inverse_into {} allocs",
        rfft.size(),
        fwd_allocs,
        into_allocs
    );
    println!("(steady-state fused-matvec allocation counts asserted zero;");
    println!(" fused time per input asserted ≤ {FUSED_PER_LANE_CEILING:.2} × one matvec_into, median of per-rep ratios)");

    // The pointwise half of a frame: the paper's Q4.7 activation format
    // and 64-segment sigmoid over pre-activation-like data.
    let pre: Vec<f32> = (0..4096).map(|_| rng.gen_range(-9.0f32..9.0)).collect();
    let fmt = FixedFormat::for_range(12, 8.0);
    let sigmoid = PiecewiseLinear::sigmoid(64);
    let quantize_ns = slice_ns_per_elem(&pre, 20 * reps, |xs| fmt.quantize_slice(xs));
    let pwl_ns = slice_ns_per_elem(&pre, 20 * reps, |xs| sigmoid.eval_slice(xs));
    println!("\npointwise kernels over 4096 elements, ns per element:");
    println!(
        "  quantize_slice ({fmt}) {quantize_ns:.2}   eval_slice (sigmoid, 64 seg) {pwl_ns:.2}"
    );
    println!("\nquantized forward pass, per frame:");
    println!(
        "{:<14} {:<5} {:>9} {:>10} {:>14}",
        "model", "batch", "frame µs", "matvec µs", "pointwise frac"
    );
    let frames = if quick { 4 } else { 16 };
    let cells_json = vec![
        cell_datapath_row("lstm1024", CellType::Lstm, 1, frames, reps, &mut rng),
        cell_datapath_row("gru1024", CellType::Gru, 16, frames, reps, &mut rng),
    ];

    args.write_bench(
        JsonObject::new()
            .bench_header("kernel_sweep")
            .int("dim", dim as i64)
            .str("lane_isa", lane_isa())
            .int("available_parallelism", cores as i64)
            .int("split_min_work", SPLIT_MIN_WORK as i64)
            .num("helper_spin_us", HELPER_SPIN.as_secs_f64() * 1e6)
            .int("helper_ran", ran_total as i64)
            .int("fft_forward_allocs", fwd_allocs as i64)
            .int("fft_into_allocs", into_allocs as i64)
            .num("quantize_ns_per_elem", quantize_ns)
            .num("pwl_ns_per_elem", pwl_ns)
            .raw("two_cores", two_cores_json)
            .raw("observing", observing_json)
            .raw("fft_lanes", fft_lanes_json)
            .raw("fft_share_1024_lb8", fft_share_json)
            .raw("cells", array(cells_json))
            .raw("rows", array(rows_json)),
    );
}
