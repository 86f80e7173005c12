//! FFT substrate for the E-RNN reproduction.
//!
//! The block-circulant framework of E-RNN (Li et al., HPCA 2019) executes
//! every weight-matrix/vector product as
//! `IFFT(FFT(w) ∘ FFT(x))` (Eqn. 4 of the paper). This crate provides the
//! signal-processing kernels that the rest of the workspace builds on:
//!
//! * [`Complex32`] — a minimal single-precision complex number.
//! * [`FftPlan`] — an iterative radix-2 Cooley–Tukey FFT with precomputed
//!   twiddle factors and bit-reversal permutation.
//! * [`RealFft`] — real-input FFT using the packed half-size complex trick,
//!   exploiting the Hermitian symmetry the paper leverages in Sec. V-A2,
//!   one signal at a time or a tile of signals side by side; straight-line
//!   codelets with multiplier-free trivial twiddles at the paper's FFT8 and
//!   FFT16.
//! * [`cost`] — the multiplication-count model behind Fig. 8 of the paper
//!   (FFT/IFFT decoupling, real-valued symmetry, trivial-twiddle trimming).
//!
//! # Scratch / `_into` conventions
//!
//! Every transform has two forms. The allocating form (`forward`,
//! `inverse`) returns fresh `Vec`s and is the convenient API for setup
//! code and tests. The in-place form (`forward_into`, `inverse_into`)
//! writes into caller-provided buffers and borrows a [`RealFftScratch`]
//! for its internal packed half-length buffer, so steady-state transforms
//! perform **zero heap allocations** — the contract the serving hot path
//! in `ernn-serve` is built on. The allocating forms are thin wrappers
//! over the `_into` kernels, so the two are bit-identical by construction.
//!
//! # Lane-batched transforms
//!
//! The block-circulant matvec needs hundreds of size-`L_b` transforms per
//! call, each far too small to vectorise on its own. [`RealFft::forward_lanes`]
//! / [`RealFft::inverse_lanes`] transform `W` independent signals at once
//! from planes with the *signal index* in the stride-1 lane axis:
//!
//! ```text
//! time      [sample][lane]           N · W floats
//! spectrum  [bin][re|im][lane]       (N/2 + 1) · 2 · W floats
//! ```
//!
//! Every arithmetic statement of the scalar kernels becomes a loop over
//! lanes and nothing else changes, so per output element the
//! floating-point operation sequence is the scalar entry point's; lanes
//! only run side by side, and lane `l` is bit-identical to `forward_into`
//! / `inverse_into` of signal `l` (property-tested, also in `--release`).
//!
//! What that sequence *is* depends on the size. The definition, for every
//! size, is the radix-2 [`FftPlan`] on the packed half-length signal plus a
//! table-driven untangling loop: pack → bit-reverse → butterflies →
//! untangle, a full complex multiply even by `1 + 0i` (the tables hold
//! exact quarter turns, [`Complex32::twiddle`], so that multiply returns
//! its operand). The two sizes the paper builds — FFT8 and FFT16, which is
//! every served model — run a straight-line **codelet** instead (see
//! `real.rs`): quarter-turn twiddles as add / sub / swap (Sec. V's third
//! reduction, the one `cost::CostModel::trivial_twiddles` charges for),
//! even/odd untangling terms shared between bins `k` and `N/2 − k`, `1/N`
//! folded into the untangling's `1/2`, no permutation pass, one trip
//! through the planes. Contract: a codelet's outputs are `==` the plan's
//! on every input whose intermediates stay normal, the sign of an exact
//! zero excepted — nothing float `+`, `×`, a comparison or
//! `quantize_f32`'s closing `+ 0.0` can observe — and the plan stays in
//! the tests as the codelets' oracle. Per 32-lane tile at `L_b = 8` the
//! inverse went from ≈ 210–260 ns to ≈ 45–55 and the forward from
//! ≈ 220–280 to ≈ 60 (`kernel_sweep`, "lane transforms"); `L_b = 32`
//! still runs the plan, ≈ 1.5–1.8 µs.
//!
//! That contract is why there is no FMA, `target-cpu`, feature detection
//! or `unsafe` here: the autovectoriser on the build's baseline ISA is the
//! mechanism, and it needs the lane loops to run over fixed-width
//! `[f32; W]` views (runtime-length slices measured 2× slower). The one
//! wider instantiation in the stack, `ernn-linalg`'s AVX2 tile stage,
//! calls these transforms as they are — the codelets are `inline(never)`,
//! compiled once for the baseline ISA.
//! Counters stay exact without an atomic per transform: a lane call bumps
//! [`stats`] once, by its number of live lanes.
//!
//! Plans themselves are cheap to share: [`RealFft::shared`] returns a
//! process-wide cached `Arc<RealFft>` per size, so model clones stop
//! recomputing twiddle tables ([`stats::FftStats::plan_cache_hits`] makes
//! the reuse observable).
//!
//! # Example
//!
//! ```
//! use ernn_fft::{FftPlan, Complex32};
//!
//! let plan = FftPlan::new(8);
//! let mut buf: Vec<Complex32> = (0..8).map(|i| Complex32::new(i as f32, 0.0)).collect();
//! let orig = buf.clone();
//! plan.forward(&mut buf);
//! plan.inverse(&mut buf);
//! for (a, b) in buf.iter().zip(orig.iter()) {
//!     assert!((a.re - b.re).abs() < 1e-4);
//! }
//! ```

#![forbid(unsafe_code)]

mod complex;
mod plan;
mod real;

pub mod cost;
pub mod stats;

pub use complex::Complex32;
pub use plan::{dft_naive, FftPlan};
pub use real::{RealFft, RealFftScratch};

/// Returns `true` if `n` is a power of two (and non-zero).
///
/// Block sizes in the E-RNN framework are constrained to powers of two
/// (Sec. IV of the paper) so that the radix-2 FFT applies directly.
///
/// ```
/// assert!(ernn_fft::is_power_of_two(8));
/// assert!(!ernn_fft::is_power_of_two(12));
/// ```
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Integer base-2 logarithm of a power of two.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn log2(n: usize) -> u32 {
    assert!(is_power_of_two(n), "log2 requires a power of two, got {n}");
    n.trailing_zeros()
}
