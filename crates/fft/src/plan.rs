//! Iterative radix-2 Cooley–Tukey FFT with a reusable plan.
//!
//! A [`FftPlan`] owns the twiddle-factor table and bit-reversal permutation
//! for one transform size, mirroring how the E-RNN hardware pre-computes and
//! stores `FFT(w_ij)` in BRAM (Sec. V-A1 of the paper): the expensive
//! set-up is paid once, each invocation is then multiplication/addition work
//! only.

use crate::{is_power_of_two, Complex32};

/// A reusable radix-2 decimation-in-time FFT plan for one size.
///
/// The forward transform computes `X[k] = Σ_n x[n]·e^{-2πikn/N}` in place;
/// the inverse applies the conjugate transform and the `1/N` scaling so that
/// `inverse(forward(x)) == x` up to floating-point rounding.
///
/// ```
/// use ernn_fft::{FftPlan, Complex32};
/// let plan = FftPlan::new(4);
/// let mut x = vec![
///     Complex32::new(1.0, 0.0),
///     Complex32::new(0.0, 0.0),
///     Complex32::new(0.0, 0.0),
///     Complex32::new(0.0, 0.0),
/// ];
/// plan.forward(&mut x);
/// // The DFT of a unit impulse is flat.
/// for bin in &x {
///     assert!((bin.re - 1.0).abs() < 1e-6 && bin.im.abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    /// Twiddles `e^{-2πik/N}` for `k in 0..N/2` (forward direction).
    twiddles: Vec<Complex32>,
    /// Bit-reversal permutation indices.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: usize) -> Self {
        assert!(
            is_power_of_two(size),
            "FFT size must be a power of two, got {size}"
        );
        let twiddles = (0..size / 2).map(|k| Complex32::twiddle(k, size)).collect();
        let bits = size.trailing_zeros();
        let bitrev = (0..size as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .map(|i| if size == 1 { 0 } else { i })
            .collect();
        crate::stats::count_plan();
        FftPlan {
            size,
            twiddles,
            bitrev,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.size()`.
    pub fn forward(&self, buf: &mut [Complex32]) {
        assert_eq!(buf.len(), self.size, "buffer length must match plan size");
        if self.size <= 1 {
            return;
        }
        self.permute(buf);
        self.butterflies(buf, false);
    }

    /// In-place inverse FFT including the `1/N` normalization.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.size()`.
    pub fn inverse(&self, buf: &mut [Complex32]) {
        assert_eq!(buf.len(), self.size, "buffer length must match plan size");
        if self.size <= 1 {
            return;
        }
        self.permute(buf);
        self.butterflies(buf, true);
        let scale = 1.0 / self.size as f32;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// Forward FFT of a real signal, convenience wrapper producing the full
    /// complex spectrum. Prefer [`crate::RealFft`] when only the unique half
    /// spectrum is needed.
    pub fn forward_real(&self, input: &[f32]) -> Vec<Complex32> {
        assert_eq!(input.len(), self.size, "input length must match plan size");
        let mut buf: Vec<Complex32> = input.iter().map(|&x| Complex32::from_real(x)).collect();
        self.forward(&mut buf);
        buf
    }

    /// Lane-batched [`Self::forward`]: `buf` holds `W` independent
    /// signals as `[sample][re|im][lane]` planes and every lane goes
    /// through the same permutation and butterflies as the scalar
    /// transform.
    pub(crate) fn forward_lanes<const W: usize>(&self, buf: &mut [f32]) {
        assert_eq!(buf.len(), self.size * 2 * W, "buffer must be size × 2 × W");
        if self.size <= 1 {
            return;
        }
        self.permute_lanes::<W>(buf);
        self.butterflies_lanes::<W>(buf, false);
    }

    /// Lane-batched [`Self::inverse`] (see [`Self::forward_lanes`]).
    pub(crate) fn inverse_lanes<const W: usize>(&self, buf: &mut [f32]) {
        assert_eq!(buf.len(), self.size * 2 * W, "buffer must be size × 2 × W");
        if self.size <= 1 {
            return;
        }
        self.permute_lanes::<W>(buf);
        self.butterflies_lanes::<W>(buf, true);
        let scale = 1.0 / self.size as f32;
        for v in buf.iter_mut() {
            *v *= scale;
        }
    }

    fn permute_lanes<const W: usize>(&self, buf: &mut [f32]) {
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                let (lo, hi) = buf.split_at_mut(j * 2 * W);
                let (a_re, a_im) = lane_planes_mut::<W>(&mut lo[i * 2 * W..]);
                let (b_re, b_im) = lane_planes_mut::<W>(hi);
                std::mem::swap(a_re, b_re);
                std::mem::swap(a_im, b_im);
            }
        }
    }

    fn butterflies_lanes<const W: usize>(&self, buf: &mut [f32], inverse: bool) {
        let n = self.size;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let w = if inverse { w.conj() } else { w };
                    let (lo, hi) = buf.split_at_mut((start + k + half) * 2 * W);
                    let (a_re, a_im) = lane_planes_mut::<W>(&mut lo[(start + k) * 2 * W..]);
                    let (b_re, b_im) = lane_planes_mut::<W>(hi);
                    for l in 0..W {
                        let a = Complex32::new(a_re[l], a_im[l]);
                        let b = Complex32::new(b_re[l], b_im[l]) * w;
                        let (sum, diff) = (a + b, a - b);
                        (a_re[l], a_im[l]) = (sum.re, sum.im);
                        (b_re[l], b_im[l]) = (diff.re, diff.im);
                    }
                }
            }
            len <<= 1;
        }
    }

    fn permute(&self, buf: &mut [Complex32]) {
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    fn butterflies(&self, buf: &mut [Complex32], inverse: bool) {
        let n = self.size;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let w = if inverse { w.conj() } else { w };
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// The leading `re` and `im` planes of a `[re|im][lane]` pair as
/// fixed-width arrays: a compile-time lane count is what lets the
/// autovectoriser run the per-lane loops side by side (runtime-length
/// slices measured more than 2× slower).
pub(crate) fn lane_planes<const W: usize>(s: &[f32]) -> (&[f32; W], &[f32; W]) {
    let (re, im) = s[..2 * W].split_at(W);
    (
        re.try_into().expect("W lanes"),
        im.try_into().expect("W lanes"),
    )
}

/// Mutable [`lane_planes`].
pub(crate) fn lane_planes_mut<const W: usize>(s: &mut [f32]) -> (&mut [f32; W], &mut [f32; W]) {
    let (re, im) = s[..2 * W].split_at_mut(W);
    (
        re.try_into().expect("W lanes"),
        im.try_into().expect("W lanes"),
    )
}

/// Reference O(N²) DFT used to validate the fast implementation in tests.
///
/// Exposed publicly so downstream crates' property tests can cross-check any
/// FFT-based computation against the definition.
pub fn dft_naive(input: &[Complex32]) -> Vec<Complex32> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex32::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += x * Complex32::cis(theta);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Complex32, b: Complex32, tol: f32) -> bool {
        (a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut buf = vec![Complex32::new(3.0, -2.0)];
        plan.forward(&mut buf);
        assert_eq!(buf[0], Complex32::new(3.0, -2.0));
        plan.inverse(&mut buf);
        assert_eq!(buf[0], Complex32::new(3.0, -2.0));
    }

    #[test]
    fn size_two_matches_hand_computation() {
        let plan = FftPlan::new(2);
        let mut buf = vec![Complex32::from_real(1.0), Complex32::from_real(2.0)];
        plan.forward(&mut buf);
        assert!(close(buf[0], Complex32::from_real(3.0), 1e-6));
        assert!(close(buf[1], Complex32::from_real(-1.0), 1e-6));
    }

    #[test]
    fn quarter_turn_twiddles_are_exact() {
        let bits = |w: Complex32| (w.re.to_bits(), w.im.to_bits());
        for n in [4usize, 8, 16, 32, 64, 128] {
            let plan = FftPlan::new(n);
            assert_eq!(
                bits(plan.twiddles[0]),
                bits(Complex32::new(1.0, 0.0)),
                "n={n}"
            );
            assert_eq!(
                bits(plan.twiddles[n / 4]),
                bits(Complex32::new(0.0, -1.0)),
                "n={n}"
            );
            // Every other entry is still `cis`'s.
            for (k, &w) in plan.twiddles.iter().enumerate() {
                if k % (n / 4) != 0 {
                    let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                    assert_eq!(bits(w), bits(Complex32::cis(theta)), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[2usize, 4, 8, 16, 32, 64] {
            let plan = FftPlan::new(n);
            let input: Vec<Complex32> = (0..n)
                .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.91).cos()))
                .collect();
            let expected = dft_naive(&input);
            let mut buf = input.clone();
            plan.forward(&mut buf);
            for (a, b) in buf.iter().zip(expected.iter()) {
                assert!(close(*a, *b, 1e-3), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let plan = FftPlan::new(n);
        let input: Vec<Complex32> = (0..n)
            .map(|i| Complex32::new((i as f32 * 1.3).sin(), 0.0))
            .collect();
        let time_energy: f32 = input.iter().map(|x| x.norm_sqr()).sum();
        let mut buf = input;
        plan.forward(&mut buf);
        let freq_energy: f32 = buf.iter().map(|x| x.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() < 1e-3 * time_energy.max(1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer_length() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex32::ZERO; 4];
        plan.forward(&mut buf);
    }

    proptest! {
        #[test]
        fn roundtrip_recovers_input(
            log_n in 0u32..8,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_n;
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let input: Vec<Complex32> = (0..n)
                .map(|_| Complex32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let plan = FftPlan::new(n);
            let mut buf = input.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (a, b) in buf.iter().zip(input.iter()) {
                prop_assert!(close(*a, *b, 1e-3));
            }
        }

        #[test]
        fn linearity_holds(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let n = 32;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a: Vec<Complex32> = (0..n)
                .map(|_| Complex32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let b: Vec<Complex32> = (0..n)
                .map(|_| Complex32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let plan = FftPlan::new(n);
            let mut sum: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
            plan.forward(&mut sum);
            let mut fa = a.clone();
            let mut fb = b.clone();
            plan.forward(&mut fa);
            plan.forward(&mut fb);
            for i in 0..n {
                prop_assert!(close(sum[i], fa[i] + fb[i], 1e-3));
            }
        }
    }
}
