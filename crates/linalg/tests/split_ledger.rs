//! A split call's FFT ledger is the serial call's, on the calling thread
//! and in the process-wide sum: the helper thread is off the ledger and
//! its work is charged to the caller it did it for.
//!
//! This file deliberately holds a single `#[test]` so no other test's FFT
//! activity reaches the process-wide sum and exact equality is sound
//! (see `crates/fft/tests/stats_registry.rs` for the same arrangement).

use ernn_fft::stats::{self, FftStats};
use ernn_linalg::{split_stats, BlockCirculantMatrix, MatVecScratch, SPLIT_MIN_WORK};
use std::time::{Duration, Instant};

#[test]
fn a_split_call_counts_exactly_what_the_serial_call_counts() {
    // 4096×512 at L_b = 8 (the LSTM-1024 recurrent matrix): 16 tiles.
    let (rows, cols, lb, batch) = (4096, 512, 8, 1);
    let (p, q) = (rows / lb, cols / lb);
    assert!(p * q * batch >= SPLIT_MIN_WORK);
    let blocks = (0..p * q * lb).map(|i| (i % 7) as f32 - 3.0).collect();
    let m = BlockCirculantMatrix::from_blocks(rows, cols, lb, blocks);
    let xs: Vec<f32> = (0..batch * cols).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut ys = vec![0.0f32; batch * rows];
    let mut scratch = MatVecScratch::new();
    m.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
    let want = FftStats {
        forward_transforms: (batch * q) as u64,
        inverse_transforms: (batch * p) as u64,
        spectrum_block_reads: (p * q) as u64,
        ..FftStats::default()
    };

    // Call until the helper has run a delegated half at least once; every
    // call, whoever ran its tiles, counts exactly the serial call's work.
    let two_cores = std::thread::available_parallelism().map_or(1, usize::from) >= 2;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut helped = 0;
    for call in 0.. {
        let (process, this_thread, split) =
            (stats::snapshot(), stats::thread_snapshot(), split_stats());
        m.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
        assert_eq!(
            stats::thread_snapshot().since(&this_thread),
            want,
            "call {call}"
        );
        assert_eq!(stats::snapshot().since(&process), want, "call {call}");
        helped += split_stats().since(&split).helper_ran;
        if helped > 0 || !two_cores {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the helper ran none of {call} calls: {:?}",
            split_stats()
        );
    }
}
