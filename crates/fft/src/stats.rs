//! Process-wide FFT invocation counters.
//!
//! The serving runtime's weight-spectrum cache (see `ernn-serve`) claims
//! that block-circulant weight FFTs run once per model load rather than
//! once per request. These counters make that claim *observable*: plan
//! construction and forward/inverse transform invocations are counted
//! globally (relaxed atomics, negligible cost), so a test or a demo can
//! snapshot the counters around a serving run and show that only
//! input-side transforms grow with request count.
//!
//! Counters are process-global and monotonically increasing; consumers
//! should compare [`FftStats`] snapshots rather than absolute values, and
//! tests that assert exact deltas must not run concurrently with other
//! FFT-using tests in the same process.
//!
//! Every increment is mirrored into a **thread-local** counter set
//! ([`thread_snapshot`]). Unlike the globals, a thread-local delta is
//! immune to concurrent FFT users on other threads, so a parallel host
//! executor (see `ernn-serve`) can attribute FFT work to individual
//! workers exactly: the per-worker deltas always sum to the global delta.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PLANS_CREATED: AtomicU64 = AtomicU64::new(0);
static PLAN_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static FORWARD_TRANSFORMS: AtomicU64 = AtomicU64::new(0);
static INVERSE_TRANSFORMS: AtomicU64 = AtomicU64::new(0);
static SPECTRUM_BLOCK_READS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_PLANS_CREATED: Cell<u64> = const { Cell::new(0) };
    static TL_PLAN_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static TL_FORWARD_TRANSFORMS: Cell<u64> = const { Cell::new(0) };
    static TL_INVERSE_TRANSFORMS: Cell<u64> = const { Cell::new(0) };
    static TL_SPECTRUM_BLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the process-wide FFT counters.
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

/// Takes a snapshot of the counters.
pub fn snapshot() -> FftStats {
    FftStats {
        plans_created: PLANS_CREATED.load(Ordering::Relaxed),
        plan_cache_hits: PLAN_CACHE_HITS.load(Ordering::Relaxed),
        forward_transforms: FORWARD_TRANSFORMS.load(Ordering::Relaxed),
        inverse_transforms: INVERSE_TRANSFORMS.load(Ordering::Relaxed),
        spectrum_block_reads: SPECTRUM_BLOCK_READS.load(Ordering::Relaxed),
    }
}

/// Takes a snapshot of the *calling thread's* counters.
///
/// Deltas between two `thread_snapshot` calls on the same thread count
/// exactly the FFT work that thread performed in between, regardless of
/// what other threads are doing — so exact-delta assertions are safe even
/// in multi-threaded test binaries.
pub fn thread_snapshot() -> FftStats {
    FftStats {
        plans_created: TL_PLANS_CREATED.get(),
        plan_cache_hits: TL_PLAN_CACHE_HITS.get(),
        forward_transforms: TL_FORWARD_TRANSFORMS.get(),
        inverse_transforms: TL_INVERSE_TRANSFORMS.get(),
        spectrum_block_reads: TL_SPECTRUM_BLOCK_READS.get(),
    }
}

pub(crate) fn count_plan() {
    PLANS_CREATED.fetch_add(1, Ordering::Relaxed);
    TL_PLANS_CREATED.set(TL_PLANS_CREATED.get() + 1);
}

pub(crate) fn count_plan_cache_hit() {
    PLAN_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    TL_PLAN_CACHE_HITS.set(TL_PLAN_CACHE_HITS.get() + 1);
}

/// Records `n` forward transforms with one atomic update — a lane-batched
/// call counts its live lanes at once, so totals stay exact per signal.
pub(crate) fn count_forward(n: u64) {
    FORWARD_TRANSFORMS.fetch_add(n, Ordering::Relaxed);
    TL_FORWARD_TRANSFORMS.set(TL_FORWARD_TRANSFORMS.get() + n);
}

/// Records `n` inverse transforms (see [`count_forward`]).
pub(crate) fn count_inverse(n: u64) {
    INVERSE_TRANSFORMS.fetch_add(n, Ordering::Relaxed);
    TL_INVERSE_TRANSFORMS.set(TL_INVERSE_TRANSFORMS.get() + n);
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
    SPECTRUM_BLOCK_READS.fetch_add(n, Ordering::Relaxed);
    TL_SPECTRUM_BLOCK_READS.set(TL_SPECTRUM_BLOCK_READS.get() + n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealFft;

    #[test]
    fn counters_track_plan_and_transform_activity() {
        // Other tests may run concurrently in this process, so assert
        // monotone growth by at-least the local activity, not equality.
        let before = snapshot();
        let rfft = RealFft::new(16);
        let spec = rfft.forward(&[0.5f32; 16]);
        let _ = rfft.inverse(&spec);
        let delta = snapshot().since(&before);
        assert!(delta.plans_created >= 1, "{delta:?}");
        assert!(delta.forward_transforms >= 1, "{delta:?}");
        assert!(delta.inverse_transforms >= 1, "{delta:?}");
    }

    #[test]
    fn thread_counters_are_exact_under_concurrency() {
        // Thread-local deltas are immune to other tests' FFT activity, so
        // exact equality is safe here (unlike the global counters above).
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
