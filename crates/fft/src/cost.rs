//! Multiplication-count model for the block-circulant matvec (paper Sec. V).
//!
//! Fig. 8 of the paper plots the number of multiplications in one RNN layer
//! as a function of block size, normalized to the dense (block size 1)
//! baseline, after applying three computation-reduction techniques:
//!
//! 1. **FFT/IFFT decoupling** (Sec. V-A1): `FFT(x_j)` is computed once per
//!    input block (q FFTs, not p·q) and the IFFT runs once per output block
//!    after frequency-domain accumulation (p IFFTs, not p·q).
//! 2. **Real-valued symmetry** (Sec. V-A2): Hermitian spectra halve the
//!    butterfly work and the element-wise multiply count.
//! 3. **Trivial twiddles**: butterflies whose twiddle factor is `±1` or
//!    `±i` need no multiplier; the first two FFT stages are multiplier-free,
//!    stage `s ≥ 3` has `2^(s-1) − 2` non-trivial twiddles.
//!
//! The model is exact combinatorial counting (not asymptotics), so it can be
//! cross-checked against an instrumented FFT in tests and reused by the
//! hardware cost model in `ernn-fpga`. The host executes all three
//! reductions: `ernn-linalg`'s matvec decouples the transforms, and at the
//! two sizes the paper builds `RealFft` runs straight-line FFT8 / FFT16
//! codelets whose quarter-turn twiddles are an add / sub / swap and whose
//! twiddle multiplications (2 and 14 distinct products) stay within what
//! [`CostModel::fft_real_mults`] charges (4 and 20).

use crate::{is_power_of_two, log2};

/// Which computation-reduction techniques to account for.
///
/// `CostModel::paper()` enables everything, matching the assumptions behind
/// Fig. 8; the ablation benches toggle individual flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Reuse `FFT(x_j)` across output blocks and defer the IFFT until after
    /// frequency-domain accumulation.
    pub fft_decoupling: bool,
    /// Exploit Hermitian symmetry of real-input spectra.
    pub real_symmetry: bool,
    /// Skip multiplications by the trivial twiddles `1, −1, i, −i`.
    pub trivial_twiddles: bool,
}

/// Real multiplications per general complex multiplication: the schoolbook
/// product the paper's PE uses.
const REAL_MULTS_PER_COMPLEX: u64 = 4;

impl CostModel {
    /// The full set of optimizations assumed by Fig. 8 of the paper.
    pub fn paper() -> Self {
        CostModel {
            fft_decoupling: true,
            real_symmetry: true,
            trivial_twiddles: true,
        }
    }

    /// No optimizations: every block op runs a fresh complex FFT/IFFT pair.
    pub fn unoptimized() -> Self {
        CostModel {
            fft_decoupling: false,
            real_symmetry: false,
            trivial_twiddles: false,
        }
    }

    /// Number of *complex* multiplications in one radix-2 FFT of length `n`.
    ///
    /// Counts exactly: stage `s` (1-indexed, `s = 1..=log2 n`) performs
    /// `n / 2^s` butterflies per distinct twiddle `W_{2^s}^k`,
    /// `k = 0..2^(s-1)`. With trivial-twiddle elimination, `k = 0` (W = 1)
    /// and, for `s ≥ 2`, `k = 2^(s-2)` (W = −i) are free.
    pub fn fft_complex_mults(&self, n: usize) -> u64 {
        assert!(is_power_of_two(n), "FFT size must be a power of two");
        if n <= 1 {
            return 0;
        }
        let stages = log2(n);
        let mut total = 0u64;
        for s in 1..=stages {
            let distinct = 1u64 << (s - 1);
            let trivial = if self.trivial_twiddles {
                if s >= 2 {
                    2
                } else {
                    1
                }
            } else {
                0
            };
            let non_trivial = distinct.saturating_sub(trivial);
            let reps = (n as u64) >> s;
            total += non_trivial * reps;
        }
        total
    }

    /// Real multiplications for one FFT (or IFFT) of length `n` on
    /// real-valued data.
    ///
    /// With `real_symmetry`, the Hermitian-symmetric half of the butterfly
    /// network is skipped, halving the multiplier count (Sec. V-A2: "the
    /// last level of the butterfly plot in FFT computation and the first
    /// level of IFFT can be reduced by half" generalizes to half the
    /// complex work for real data).
    pub fn fft_real_mults(&self, n: usize) -> u64 {
        let complex = self.fft_complex_mults(n) * REAL_MULTS_PER_COMPLEX;
        if self.real_symmetry {
            complex / 2
        } else {
            complex
        }
    }

    /// Real multiplications for the element-wise spectrum product of one
    /// block pair (`FFT(w_ij) ∘ FFT(x_j)` over a block of size `lb`).
    ///
    /// With `real_symmetry`, only `lb/2 + 1` unique bins are multiplied and
    /// the two endpoint bins are purely real (1 real multiply each).
    pub fn elementwise_real_mults(&self, lb: usize) -> u64 {
        assert!(is_power_of_two(lb), "block size must be a power of two");
        let c = REAL_MULTS_PER_COMPLEX;
        if !self.real_symmetry {
            return lb as u64 * c;
        }
        match lb {
            1 => 1,
            2 => 2, // both bins real
            _ => {
                let interior = (lb as u64 / 2).saturating_sub(1);
                interior * c + 2
            }
        }
    }

    /// Total real multiplications for one block-circulant matvec
    /// `W x` with `W ∈ R^{rows×cols}` partitioned into blocks of size `lb`.
    ///
    /// Dimensions that do not divide evenly are zero-padded up, matching the
    /// storage layout in `ernn-linalg`.
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not a power of two or any dimension is zero.
    pub fn matvec_real_mults(&self, rows: usize, cols: usize, lb: usize) -> u64 {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert!(is_power_of_two(lb), "block size must be a power of two");
        if lb == 1 {
            // Degenerate blocks: plain dense matvec.
            return rows as u64 * cols as u64;
        }
        let p = rows.div_ceil(lb) as u64;
        let q = cols.div_ceil(lb) as u64;
        let (n_fft, n_ifft) = if self.fft_decoupling {
            (q, p)
        } else {
            (p * q, p * q)
        };
        let transform = (n_fft + n_ifft) * self.fft_real_mults(lb);
        let elementwise = p * q * self.elementwise_real_mults(lb);
        transform + elementwise
    }

    /// Fig. 8's y-axis: multiplications normalized by the dense baseline
    /// (`rows × cols` multiplies).
    pub fn normalized_matvec_mults(&self, rows: usize, cols: usize, lb: usize) -> f64 {
        self.matvec_real_mults(rows, cols, lb) as f64 / (rows as f64 * cols as f64)
    }
}

/// One point of the Fig. 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultCurvePoint {
    /// Block size `L_b`.
    pub block_size: usize,
    /// Normalized multiplication count (1.0 = dense baseline).
    pub normalized_mults: f64,
}

/// Computes the Fig. 8 curve of [`CostModel::paper`] for a square layer of
/// the given size over block sizes `2, 4, …, max_block`.
///
/// ```
/// use ernn_fft::cost::fig8_curve;
/// let curve = fig8_curve(512, 256);
/// // Compression improves rapidly up to block size ~32 and then converges
/// // (paper Sec. V-B).
/// assert!(curve[0].normalized_mults > curve.last().unwrap().normalized_mults);
/// ```
pub fn fig8_curve(layer_size: usize, max_block: usize) -> Vec<MultCurvePoint> {
    assert!(
        is_power_of_two(max_block),
        "max block must be a power of two"
    );
    let model = CostModel::paper();
    let mut points = Vec::new();
    let mut lb = 2;
    while lb <= max_block && lb <= layer_size {
        points.push(MultCurvePoint {
            block_size: lb,
            normalized_mults: model.normalized_matvec_mults(layer_size, layer_size, lb),
        });
        lb <<= 1;
    }
    points
}

/// Absolute-gain threshold of [`block_size_upper_bound`]: doubling the
/// block size must save at least 1.5% of the dense multiply count.
/// Calibrated so the bound lands at 32–64 for the paper's 512/1024 layers.
const MIN_GAIN: f64 = 0.015;

/// The block-size upper bound implied by the bottom-up exploration
/// (Sec. V-B): the largest block size on [`fig8_curve`] whose *absolute*
/// multiply-count reduction (as a fraction of the dense baseline) still
/// exceeds 1.5 % of it. Past this point the curve has converged — larger
/// blocks buy almost nothing while costing accuracy.
///
/// The paper observes the convergence at 32 or 64 for ASR layer sizes and
/// uses it to cap Phase-I training trials.
pub fn block_size_upper_bound(layer_size: usize) -> usize {
    let curve = fig8_curve(layer_size, layer_size.min(1024));
    let mut best = curve.first().map_or(2, |p| p.block_size);
    for pair in curve.windows(2) {
        let improvement = pair[0].normalized_mults - pair[1].normalized_mults;
        if improvement > MIN_GAIN {
            best = pair[1].block_size;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_complex_mult_count_matches_closed_form() {
        // Exact trivial-twiddle counting reproduces the classic closed form
        // (N/2)(log2 N − 3) + 2 for N ≥ 8.
        let m = CostModel::paper();
        assert_eq!(m.fft_complex_mults(2), 0);
        assert_eq!(m.fft_complex_mults(4), 0);
        assert_eq!(m.fft_complex_mults(8), 2);
        assert_eq!(m.fft_complex_mults(16), 10);
        assert_eq!(m.fft_complex_mults(32), 34);
        for &n in &[8usize, 16, 32, 64, 128, 256, 512] {
            let expected = (n as u64 / 2) * (log2(n) as u64 - 3) + 2;
            // log2(8) - 3 = 0, closed form = 2. General check:
            assert_eq!(m.fft_complex_mults(n), expected, "n={n}");
        }
    }

    #[test]
    fn paper_sizes_charge_the_codelets_multiplication_budget() {
        // The FFT8 / FFT16 codelets in `real.rs` name their twiddle
        // multiplications against these two numbers.
        let m = CostModel::paper();
        assert_eq!(m.fft_real_mults(8), 4);
        assert_eq!(m.fft_real_mults(16), 20);
    }

    #[test]
    fn unoptimized_fft_counts_all_butterflies() {
        let m = CostModel::unoptimized();
        for &n in &[2usize, 4, 8, 16, 64] {
            assert_eq!(m.fft_complex_mults(n), (n as u64 / 2) * log2(n) as u64);
        }
    }

    #[test]
    fn block_size_one_is_dense() {
        let m = CostModel::paper();
        assert_eq!(m.matvec_real_mults(512, 512, 1), 512 * 512);
        assert_eq!(m.normalized_matvec_mults(512, 512, 1), 1.0);
    }

    #[test]
    fn decoupling_reduces_transform_count() {
        let with = CostModel::paper();
        let without = CostModel {
            fft_decoupling: false,
            ..CostModel::paper()
        };
        assert!(with.matvec_real_mults(512, 512, 16) < without.matvec_real_mults(512, 512, 16));
    }

    #[test]
    fn symmetry_halves_elementwise_work() {
        let with = CostModel::paper();
        let without = CostModel {
            real_symmetry: false,
            ..CostModel::paper()
        };
        // 4·(Lb/2 − 1) + 2 versus 4·Lb.
        assert_eq!(with.elementwise_real_mults(16), 4 * 7 + 2);
        assert_eq!(without.elementwise_real_mults(16), 4 * 16);
    }

    #[test]
    fn fig8_shape_matches_paper_observation() {
        // Paper Sec. V-B: the reduction converges when the block size
        // reaches 32 or 64. Check the big drops happen before 32 and the
        // marginal improvement after 64 is small.
        for &layer in &[512usize, 1024] {
            let curve = fig8_curve(layer, 256);
            let at = |lb: usize| {
                curve
                    .iter()
                    .find(|p| p.block_size == lb)
                    .unwrap()
                    .normalized_mults
            };
            assert!(at(2) > 0.4 && at(2) <= 0.55, "layer {layer}: {}", at(2));
            assert!(at(8) < 0.25, "layer {layer}");
            assert!(at(32) < 0.08, "layer {layer}");
            // Convergence: absolute improvement from 64 onwards is tiny
            // (< 1.5% of the dense count per doubling), versus ~13–25%
            // steps at small block sizes.
            assert!(at(64) - at(128) < 0.015, "layer {layer}");
            assert!(at(4) - at(8) > 0.1, "layer {layer}");
        }
    }

    #[test]
    fn fig8_curve_is_monotone_until_convergence() {
        let curve = fig8_curve(512, 256);
        for pair in curve.windows(2) {
            assert!(
                pair[1].normalized_mults <= pair[0].normalized_mults + 1e-9,
                "optimized curve should be non-increasing over this range"
            );
        }
    }

    #[test]
    fn undecoupled_computation_exceeds_dense_at_small_blocks() {
        // Without FFT/IFFT decoupling every block pair pays a fresh
        // transform; at small block sizes the total *exceeds* the dense
        // baseline — the "computation can even increase" effect the paper
        // uses to motivate bounding the block-size search (Sec. V-B).
        let m = CostModel::unoptimized();
        assert!(m.normalized_matvec_mults(512, 512, 2) > 1.0);
        // The optimized model dominates the unoptimized one everywhere.
        let opt = CostModel::paper();
        for lb in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            assert!(
                opt.normalized_matvec_mults(512, 512, lb) < m.normalized_matvec_mults(512, 512, lb),
                "lb={lb}"
            );
        }
    }

    #[test]
    fn upper_bound_lands_in_paper_range() {
        for &layer in &[512usize, 1024] {
            let ub = block_size_upper_bound(layer);
            assert!(
                (32..=64).contains(&ub),
                "layer {layer}: upper bound {ub} outside the paper's 32–64 window"
            );
        }
    }

    #[test]
    fn non_square_and_padded_dims_are_supported() {
        let m = CostModel::paper();
        // 100 is not divisible by 8; padded to 104.
        let padded = m.matvec_real_mults(100, 100, 8);
        let exact = m.matvec_real_mults(104, 104, 8);
        assert_eq!(padded, exact);
        // Tall matrices have more IFFTs than FFTs.
        let tall = m.matvec_real_mults(1024, 256, 16);
        let wide = m.matvec_real_mults(256, 1024, 16);
        assert_eq!(tall, wide, "FFT+IFFT counts are symmetric for transposes");
    }
}
