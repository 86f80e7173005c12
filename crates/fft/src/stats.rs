//! FFT invocation counters, one set per thread.
//!
//! The serving runtime's weight-spectrum cache (see `ernn-serve`) claims
//! that block-circulant weight FFTs run once per model load rather than
//! once per request. These counters make that claim *observable*: plan
//! construction and forward/inverse transform invocations are counted, so
//! a test or a demo can snapshot the counters around a serving run and
//! show that only input-side transforms grow with request count.
//!
//! Each thread has its own counter cells, a `const`-initialised thread
//! local with no destructor, and nothing else: there is no process-wide
//! sum. A thread is the only reader and writer of its cells, so an
//! increment is a plain load and a plain store — no locked
//! read-modify-write sits inside `forward_lanes`, `inverse_lanes` or the
//! block-circulant matvec, which count three to five times per 8 × 8
//! call (`kernel_sweep` prints what one count costs next to the call it
//! sits in: the cost of observing is a measured number, not an
//! adjective). [`thread_snapshot`] reads the caller's cells: a delta
//! between two of them is exactly the FFT work that thread did, whatever
//! other threads are doing, which is how the parallel host executor
//! attributes work to its workers and why exact-delta tests may share a
//! test binary.
//!
//! Work one thread does on another's behalf is charged to the thread it
//! was done for. The helper threads of the two-core mechanisms (the
//! block-circulant matvec's in `ernn-linalg`, the inference lane's in
//! `ernn-serve`) measure their work with [`thread_snapshot`], and the
//! caller it was done for adds that delta to its own cells with
//! [`charge`]. A call's counts are therefore the same whichever thread
//! ran which part of it.
//!
//! Counters are monotonically increasing; consumers should compare
//! [`FftStats`] snapshots rather than absolute values.

use std::cell::Cell;

/// One thread's counters; only that thread touches them (see [`bump`]).
struct Cells {
    plans_created: Cell<u64>,
    plan_cache_hits: Cell<u64>,
    forward_transforms: Cell<u64>,
    inverse_transforms: Cell<u64>,
    spectrum_block_reads: Cell<u64>,
}

thread_local! {
    static CELLS: Cells = const {
        Cells {
            plans_created: Cell::new(0),
            plan_cache_hits: Cell::new(0),
            forward_transforms: Cell::new(0),
            inverse_transforms: Cell::new(0),
            spectrum_block_reads: Cell::new(0),
        }
    };
}

/// Adds `n` to one of the calling thread's cells.
#[inline]
fn bump(cell: impl FnOnce(&Cells) -> &Cell<u64>, n: u64) {
    CELLS.with(|cells| {
        let cell = cell(cells);
        cell.set(cell.get() + n);
    });
}

/// A snapshot of one thread's FFT counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FftStats {
    /// [`crate::FftPlan`] / [`crate::RealFft`] constructions.
    pub plans_created: u64,
    /// [`crate::RealFft::shared`] lookups satisfied from the process-wide
    /// plan cache (no twiddle recomputation).
    pub plan_cache_hits: u64,
    /// Real-input forward transforms ([`crate::RealFft::forward`]; a
    /// [`crate::RealFft::forward_lanes`] call counts one per live lane).
    pub forward_transforms: u64,
    /// Real-output inverse transforms ([`crate::RealFft::inverse`]; a
    /// [`crate::RealFft::inverse_lanes`] call counts one per live lane).
    pub inverse_transforms: u64,
    /// Cached weight-spectrum blocks streamed by block-circulant matvec
    /// kernels (one count per `(i, j)` block visit, however many batch
    /// inputs that visit serves — see
    /// [`count_spectrum_block_reads`]). A batch-fused matvec reads `p·q`
    /// blocks per *batch*; B sequential matvecs read `B·p·q`.
    pub spectrum_block_reads: u64,
}

impl FftStats {
    /// Component-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &FftStats) -> FftStats {
        FftStats {
            plans_created: self.plans_created - earlier.plans_created,
            plan_cache_hits: self.plan_cache_hits - earlier.plan_cache_hits,
            forward_transforms: self.forward_transforms - earlier.forward_transforms,
            inverse_transforms: self.inverse_transforms - earlier.inverse_transforms,
            spectrum_block_reads: self.spectrum_block_reads - earlier.spectrum_block_reads,
        }
    }

    /// Component-wise sum (used to fold per-worker deltas back together).
    pub fn plus(&self, other: &FftStats) -> FftStats {
        FftStats {
            plans_created: self.plans_created + other.plans_created,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            forward_transforms: self.forward_transforms + other.forward_transforms,
            inverse_transforms: self.inverse_transforms + other.inverse_transforms,
            spectrum_block_reads: self.spectrum_block_reads + other.spectrum_block_reads,
        }
    }

    /// Total transform invocations (forward + inverse; plans excluded).
    pub fn transforms(&self) -> u64 {
        self.forward_transforms + self.inverse_transforms
    }
}

/// Takes a snapshot of the *calling thread's* counters.
///
/// Deltas between two `thread_snapshot` calls on the same thread count
/// exactly the FFT work that thread performed in between, regardless of
/// what other threads are doing — so exact-delta assertions are safe even
/// in multi-threaded test binaries.
pub fn thread_snapshot() -> FftStats {
    CELLS.with(|cells| FftStats {
        plans_created: cells.plans_created.get(),
        plan_cache_hits: cells.plan_cache_hits.get(),
        forward_transforms: cells.forward_transforms.get(),
        inverse_transforms: cells.inverse_transforms.get(),
        spectrum_block_reads: cells.spectrum_block_reads.get(),
    })
}

/// Adds `delta` to the calling thread's cells: work a helper thread
/// measured with [`thread_snapshot`] while doing it for this thread.
pub fn charge(delta: &FftStats) {
    bump(|c| &c.plans_created, delta.plans_created);
    bump(|c| &c.plan_cache_hits, delta.plan_cache_hits);
    bump(|c| &c.forward_transforms, delta.forward_transforms);
    bump(|c| &c.inverse_transforms, delta.inverse_transforms);
    bump(|c| &c.spectrum_block_reads, delta.spectrum_block_reads);
}

pub(crate) fn count_plan() {
    bump(|c| &c.plans_created, 1);
}

pub(crate) fn count_plan_cache_hit() {
    bump(|c| &c.plan_cache_hits, 1);
}

/// Records `n` forward transforms with one update — a lane-batched call
/// counts its live lanes at once, so totals stay exact per signal.
pub(crate) fn count_forward(n: u64) {
    bump(|c| &c.forward_transforms, n);
}

/// Records `n` inverse transforms (see [`count_forward`]).
pub(crate) fn count_inverse(n: u64) {
    bump(|c| &c.inverse_transforms, n);
}

/// Records `n` weight-spectrum block reads.
///
/// Instrumentation hook for downstream frequency-domain kernels (the
/// block-circulant matvec in `ernn-linalg`): each count is one visit to
/// one cached `FFT(w_ij)` block, regardless of how many batch inputs
/// that single visit serves. Tests use the delta to prove a batch-fused
/// matvec streams the weight spectra once per batch instead of once per
/// input.
pub fn count_spectrum_block_reads(n: u64) {
    bump(|c| &c.spectrum_block_reads, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealFft;

    #[test]
    fn counters_track_plan_and_transform_activity() {
        let before = thread_snapshot();
        let rfft = RealFft::new(16);
        let spec = rfft.forward(&[0.5f32; 16]);
        let _ = rfft.inverse(&spec);
        let delta = thread_snapshot().since(&before);
        assert!(delta.plans_created >= 1, "{delta:?}");
        assert_eq!(delta.forward_transforms, 1, "{delta:?}");
        assert_eq!(delta.inverse_transforms, 1, "{delta:?}");
    }

    #[test]
    fn thread_counters_are_exact_under_concurrency() {
        // Thread-local deltas are immune to other tests' FFT activity, so
        // exact equality is safe here.
        let before = thread_snapshot();
        let rfft = RealFft::new(8); // size 8 => one extra half plan inside
        let spec = rfft.forward(&[1.0f32; 8]);
        let spec2 = rfft.forward(&[2.0f32; 8]);
        let _ = rfft.inverse(&spec);
        let _ = spec2;
        let delta = thread_snapshot().since(&before);
        assert_eq!(delta.plans_created, 2, "{delta:?}"); // RealFft + half FftPlan
        assert_eq!(delta.forward_transforms, 2, "{delta:?}");
        assert_eq!(delta.inverse_transforms, 1, "{delta:?}");
        assert_eq!(delta.transforms(), 3);
    }

    #[test]
    fn fft_work_on_another_thread_stays_off_this_thread_ledger() {
        let before = thread_snapshot();
        std::thread::spawn(|| {
            let rfft = RealFft::new(16);
            let _ = rfft.forward(&[0.25f32; 16]);
        })
        .join()
        .expect("spawned FFT thread");
        let delta = thread_snapshot().since(&before);
        assert_eq!(delta, FftStats::default(), "{delta:?}");
    }

    #[test]
    fn plus_is_componentwise() {
        let a = FftStats {
            plans_created: 1,
            plan_cache_hits: 4,
            forward_transforms: 2,
            inverse_transforms: 3,
            spectrum_block_reads: 5,
        };
        let b = FftStats {
            plans_created: 10,
            plan_cache_hits: 40,
            forward_transforms: 20,
            inverse_transforms: 30,
            spectrum_block_reads: 50,
        };
        let sum = a.plus(&b);
        assert_eq!(sum.plans_created, 11);
        assert_eq!(sum.plan_cache_hits, 44);
        assert_eq!(sum.forward_transforms, 22);
        assert_eq!(sum.inverse_transforms, 33);
        assert_eq!(sum.spectrum_block_reads, 55);
        assert_eq!(sum.since(&a), b);
    }

    #[test]
    fn spectrum_block_reads_accumulate() {
        let before = thread_snapshot();
        count_spectrum_block_reads(3);
        count_spectrum_block_reads(4);
        let delta = thread_snapshot().since(&before);
        assert_eq!(delta.spectrum_block_reads, 7);
        assert_eq!(delta.plans_created, 0);
    }
}
