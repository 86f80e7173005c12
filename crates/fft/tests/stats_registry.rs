//! `snapshot()` is the sum of every thread's counter cells — threads
//! still running and threads long gone alike.
//!
//! A thread that detaches from the ledger reaches the sum only through
//! the thread its work is charged to.
//!
//! This file deliberately holds a single `#[test]` so no other test's FFT
//! activity reaches the process-wide sum and exact equality is sound
//! (see `crates/serve/tests/fft_cache.rs` for the same arrangement).

use ernn_fft::stats::{self, FftStats};
use ernn_fft::RealFft;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn snapshot_sums_live_and_exited_threads_exactly() {
    const THREADS: usize = 4;
    let rfft = Arc::new(RealFft::new(16));
    let before = stats::snapshot();
    let main_before = stats::thread_snapshot();

    // Worker `w` runs w + 1 forward/inverse pairs, reports its own
    // thread-local delta, then stays alive at the barrier until the main
    // thread has compared the sum once.
    let counted = Arc::new(Barrier::new(THREADS + 1));
    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let (rfft, counted, tx) = (Arc::clone(&rfft), Arc::clone(&counted), tx.clone());
            thread::spawn(move || {
                let start = stats::thread_snapshot();
                for _ in 0..=w {
                    let spectrum = rfft.forward(&[0.25f32; 16]);
                    let _ = rfft.inverse(&spectrum);
                }
                stats::count_spectrum_block_reads(10 * (w as u64 + 1));
                let delta = stats::thread_snapshot().since(&start);
                tx.send(delta).expect("main thread is receiving");
                counted.wait();
            })
        })
        .collect();
    let deltas: Vec<FftStats> = (0..THREADS)
        .map(|_| rx.recv().expect("every worker reports"))
        .collect();
    let sum = deltas
        .iter()
        .fold(FftStats::default(), |acc, d| acc.plus(d));
    assert_eq!(sum.forward_transforms, 1 + 2 + 3 + 4);
    assert_eq!(sum.inverse_transforms, 1 + 2 + 3 + 4);
    assert_eq!(sum.spectrum_block_reads, 10 + 20 + 30 + 40);

    // All four are parked at the barrier: their cells are live.
    assert_eq!(stats::snapshot().since(&before), sum, "live threads");
    counted.wait();
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }
    // All four have exited: their counts were retired, not lost.
    assert_eq!(stats::snapshot().since(&before), sum, "exited threads");
    // And none of it landed on this thread's ledger.
    assert_eq!(stats::thread_snapshot(), main_before);

    // A helper counts one pair on the ledger, detaches, then does two more
    // on this thread's behalf: those reach the sum only once charged here,
    // and its exit does not retire the first pair a second time.
    let before = stats::snapshot();
    let helper = thread::spawn(move || {
        let pair = || {
            let spectrum = rfft.forward(&[0.5f32; 16]);
            let _ = rfft.inverse(&spectrum);
        };
        pair();
        stats::detach_thread();
        let start = stats::thread_snapshot();
        pair();
        pair();
        stats::thread_snapshot().since(&start)
    });
    let on_behalf = helper.join().expect("helper thread panicked");
    assert_eq!(on_behalf.transforms(), 4);
    let one_pair = FftStats {
        forward_transforms: 1,
        inverse_transforms: 1,
        ..FftStats::default()
    };
    assert_eq!(stats::snapshot().since(&before), one_pair, "detached");
    stats::charge(&on_behalf);
    assert_eq!(
        stats::snapshot().since(&before),
        one_pair.plus(&on_behalf),
        "charged"
    );
    assert_eq!(stats::thread_snapshot().since(&main_before), on_behalf);
}
