//! FFT invocation counters, process-wide and per thread.
//!
//! The serving runtime's weight-spectrum cache (see `ernn-serve`) claims
//! that block-circulant weight FFTs run once per model load rather than
//! once per request. These counters make that claim *observable*: plan
//! construction and forward/inverse transform invocations are counted, so
//! a test or a demo can snapshot the counters around a serving run and
//! show that only input-side transforms grow with request count.
//!
//! There is one set of counter cells per thread and nothing else. A
//! thread registers its cells on first use and is their only writer, so
//! an increment is a plain load and a plain store — no locked
//! read-modify-write sits inside `forward_lanes`, `inverse_lanes` or the
//! block-circulant matvec, which count three to five times per 8 × 8
//! call (`kernel_sweep` prints what one count costs next to the call it
//! sits in: the cost of observing is a measured number, not an
//! adjective). [`thread_snapshot`] reads the caller's cells: a delta
//! between two of them is exactly the FFT work that thread did, whatever
//! other threads are doing, which is how the parallel host executor
//! attributes work to its workers. [`snapshot`] sums every thread's cells
//! under the registry lock; a thread that exits folds its counts into a
//! retired total on the way out, so the sum never loses them and the
//! registry stays as small as the set of live threads.
//!
//! Work one thread does on another's behalf is charged to the thread it
//! was done for. The block-circulant matvec's helper thread (the second
//! core of `ernn-linalg`) [`detach_thread`]s itself, so neither
//! [`snapshot`] nor any other thread sees its cells; the caller whose
//! tiles it ran adds the helper's measured delta to its own cells with
//! [`charge`]. A call's counts are therefore the same whichever thread
//! ran which part of it.
//!
//! Counters are monotonically increasing; consumers should compare
//! [`FftStats`] snapshots rather than absolute values, and tests that
//! assert exact [`snapshot`] deltas must not run concurrently with other
//! FFT-using tests in the same process.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One thread's counters. Atomics only so that [`snapshot`] may read them
/// from another thread; the owner is the sole writer (see [`bump`]).
#[derive(Debug, Default)]
struct Cells {
    plans_created: AtomicU64,
    plan_cache_hits: AtomicU64,
    forward_transforms: AtomicU64,
    inverse_transforms: AtomicU64,
    spectrum_block_reads: AtomicU64,
}

impl Cells {
    fn read(&self) -> FftStats {
        FftStats {
            plans_created: self.plans_created.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            forward_transforms: self.forward_transforms.load(Ordering::Relaxed),
            inverse_transforms: self.inverse_transforms.load(Ordering::Relaxed),
            spectrum_block_reads: self.spectrum_block_reads.load(Ordering::Relaxed),
        }
    }
}

/// Every live thread's cells, plus the folded counts of threads that
/// have exited.
struct Registry {
    live: Vec<Arc<Cells>>,
    retired: FftStats,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    retired: FftStats {
        plans_created: 0,
        plan_cache_hits: 0,
        forward_transforms: 0,
        inverse_transforms: 0,
        spectrum_block_reads: 0,
    },
});

/// The registry, poisoned or not: every update below leaves it valid at
/// each step (a push, an addition, a removal), so a panic elsewhere on a
/// thread holding the lock cannot have left it half-written.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's handle on its cells.
struct Owner {
    cells: Arc<Cells>,
    /// The cells are still in the registry (see [`detach_thread`]).
    registered: Cell<bool>,
}

impl Owner {
    fn register() -> Self {
        let cells = Arc::new(Cells::default());
        registry().live.push(Arc::clone(&cells));
        Owner {
            cells,
            registered: Cell::new(true),
        }
    }

    /// Moves the counts from the live list to the retired total in one
    /// critical section, so no [`snapshot`] sees them twice or not at all.
    fn retire(&self) {
        if self.registered.replace(false) {
            let mut reg = registry();
            reg.retired = reg.retired.plus(&self.cells.read());
            reg.live.retain(|cells| !Arc::ptr_eq(cells, &self.cells));
        }
    }
}

impl Drop for Owner {
    /// Thread exit: [`Owner::retire`], unless the thread detached first.
    fn drop(&mut self) {
        self.retire();
    }
}

thread_local! {
    static CELLS: Owner = Owner::register();
}

/// Adds `n` to one of the calling thread's cells. The thread is the
/// cell's only writer, so load-then-store loses nothing, and `Relaxed`
/// suffices because the value publishes no other data.
#[inline]
fn bump(cell: impl FnOnce(&Cells) -> &AtomicU64, n: u64) {
    CELLS.with(|owner| {
        let cell = cell(&owner.cells);
        cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    });
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

/// Takes a snapshot of the process-wide counters: the sum over every
/// thread that has ever counted, exited threads included.
pub fn snapshot() -> FftStats {
    let reg = registry();
    reg.live
        .iter()
        .fold(reg.retired, |sum, cells| sum.plus(&cells.read()))
}

/// Takes a snapshot of the *calling thread's* counters.
///
/// Deltas between two `thread_snapshot` calls on the same thread count
/// exactly the FFT work that thread performed in between, regardless of
/// what other threads are doing — so exact-delta assertions are safe even
/// in multi-threaded test binaries.
pub fn thread_snapshot() -> FftStats {
    CELLS.with(|owner| owner.cells.read())
}

/// Takes the calling thread off the ledger for good: its counts so far
/// are retired as at thread exit, and what it counts from now on reaches
/// only its own [`thread_snapshot`], never [`snapshot`]. For a helper
/// thread whose work the threads it serves [`charge`] to themselves.
pub fn detach_thread() {
    CELLS.with(Owner::retire);
}

/// Adds `delta` to the calling thread's cells: work a detached helper
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
