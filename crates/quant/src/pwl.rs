//! Piecewise-linear activation approximation.
//!
//! ESE implements `sigmoid`/`tanh` with lookup tables that spill to off-chip
//! DDR under high parallelism; E-RNN instead uses piecewise-linear (PWL)
//! approximations evaluated entirely on-chip (paper Sec. VIII-B1: "Our
//! piecewise linear approximation method can support activation
//! implementation only using on-chip resources", worth "more than 2× energy
//! efficiency gain"). A PWL unit stores one slope/intercept pair per
//! segment; evaluation is one multiply and one add after a segment select.

/// Elements [`PiecewiseLinear::eval_slice`] evaluates side by side.
const LANES: usize = 64;

/// A uniform-segment piecewise-linear approximation of a scalar function.
///
/// Outside `[lo, hi]` the approximation clamps to the function's boundary
/// values, which is correct for the saturating activations used in RNNs.
///
/// ```
/// use ernn_quant::PiecewiseLinear;
/// let sigmoid = PiecewiseLinear::sigmoid(32);
/// let err = (sigmoid.eval(0.7) - 1.0 / (1.0 + (-0.7f32).exp())).abs();
/// assert!(err < 1e-2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    lo: f32,
    hi: f32,
    /// Segment width `(hi − lo) / segments`.
    width: f32,
    /// Per-segment slope `a` and intercept `b`: `y = a·x + b`.
    segments: Vec<(f32, f32)>,
    /// Clamped output below `lo` / above `hi`.
    left_value: f32,
    right_value: f32,
}

impl PiecewiseLinear {
    /// Builds a PWL approximation of `f` over `[lo, hi]` with `segments`
    /// uniform pieces, interpolating `f` at the segment endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`, `segments > 2²²` (the segment select
    /// works in `f32`) or `lo >= hi`.
    pub fn from_fn(lo: f32, hi: f32, segments: usize, f: impl Fn(f32) -> f32) -> Self {
        assert!(segments > 0, "need at least one segment");
        assert!(segments <= 1 << 22, "at most 2^22 segments");
        assert!(lo < hi, "invalid interval [{lo}, {hi}]");
        let width = (hi - lo) / segments as f32;
        let mut seg = Vec::with_capacity(segments);
        for s in 0..segments {
            let x0 = lo + s as f32 * width;
            let x1 = x0 + width;
            let y0 = f(x0);
            let y1 = f(x1);
            let a = (y1 - y0) / width;
            let b = y0 - a * x0;
            seg.push((a, b));
        }
        PiecewiseLinear {
            lo,
            hi,
            width,
            segments: seg,
            left_value: f(lo),
            right_value: f(hi),
        }
    }

    /// PWL approximation of the logistic sigmoid over `[-8, 8]`.
    pub fn sigmoid(segments: usize) -> Self {
        PiecewiseLinear::from_fn(-8.0, 8.0, segments, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// PWL approximation of `tanh` over `[-4, 4]`.
    pub fn tanh(segments: usize) -> Self {
        PiecewiseLinear::from_fn(-4.0, 4.0, segments, f32::tanh)
    }

    /// Number of linear segments (drives the LUT cost model in `ernn-fpga`).
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Table index of the segment containing `x`: `(x − lo) / width`
    /// truncated, saturated into `0..segments` (NaN reads segment 0), with
    /// no float-to-int cast — those saturate in Rust and do not vectorise
    /// on SSE2. Adding 2²³ to `0 ≤ t < 2²²` rounds `t` to an integer held
    /// in the sum's low mantissa bits; stepping back by one where that
    /// rounded up turns round-to-nearest into the truncation wanted.
    #[inline(always)]
    fn segment_index(&self, x: f32) -> u32 {
        const MAGIC: f32 = (1u32 << 23) as f32;
        let last = (self.segments.len() - 1) as f32;
        let t = (x - self.lo) / self.width;
        // `if`, not `max`/`min`: each is one `maxps`/`minps`, and NaN
        // falls to 0 through the first.
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < last { t } else { last };
        let shifted = t + MAGIC;
        let nearest = shifted.to_bits() - MAGIC.to_bits();
        nearest - u32::from(shifted - MAGIC > t)
    }

    /// The value at `x` given `y`, its segment's line evaluated there:
    /// the boundary values outside the open domain, chosen by selects.
    #[inline(always)]
    fn saturate(&self, x: f32, y: f32) -> f32 {
        let y = if x <= self.lo { self.left_value } else { y };
        if x >= self.hi {
            self.right_value
        } else {
            y
        }
    }

    /// Evaluates the approximation (clamping outside the domain).
    ///
    /// Branch-free: a segment is always selected and evaluated — the
    /// index saturates into the table, so out-of-domain and NaN inputs
    /// read a valid segment — and the boundary values are chosen
    /// afterwards. In-domain inputs take the same `(x − lo) / width` index
    /// and the same multiply-add as the textbook early-return form.
    #[inline]
    pub fn eval(&self, x: f32) -> f32 {
        let (a, b) = self.segments[self.segment_index(x) as usize];
        self.saturate(x, a * x + b)
    }

    /// Evaluates a whole slice in place: [`Self::eval`] on every element.
    ///
    /// Runs up to 64 elements at a time as three passes — segment
    /// indices, table reads, multiply-add and boundary selects — so that
    /// everything except the table reads vectorises.
    pub fn eval_slice(&self, xs: &mut [f32]) {
        let mut idx = [0u32; LANES];
        let mut line = [(0.0f32, 0.0f32); LANES];
        for chunk in xs.chunks_mut(LANES) {
            let (idx, line) = (&mut idx[..chunk.len()], &mut line[..chunk.len()]);
            for (i, &x) in idx.iter_mut().zip(chunk.iter()) {
                *i = self.segment_index(x);
            }
            for (l, &i) in line.iter_mut().zip(idx.iter()) {
                *l = self.segments[i as usize];
            }
            for (x, &(a, b)) in chunk.iter_mut().zip(line.iter()) {
                *x = self.saturate(*x, a * *x + b);
            }
        }
    }

    /// Maximum absolute error versus a reference function, estimated on a
    /// uniform grid of `samples` points across the domain.
    pub fn max_error_vs(&self, reference: impl Fn(f32) -> f32, samples: usize) -> f32 {
        let mut max = 0.0f32;
        for i in 0..samples {
            let x = self.lo + (self.hi - self.lo) * i as f32 / (samples - 1).max(1) as f32;
            max = max.max((self.eval(x) - reference(x)).abs());
        }
        max
    }

    /// Max error for the built-in constructors: compares against the exact
    /// sigmoid when the domain is `[-8, 8]`, otherwise against exact `tanh`.
    ///
    /// Prefer [`Self::max_error_vs`] with an explicit reference for custom
    /// functions.
    pub fn max_error(&self, samples: usize) -> f32 {
        if self.lo == -8.0 && self.hi == 8.0 {
            self.max_error_vs(|x| 1.0 / (1.0 + (-x).exp()), samples)
        } else {
            self.max_error_vs(f32::tanh, samples)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{for_each_block, SPECIAL_BITS};
    use proptest::prelude::*;

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// The scalar definition the lane kernel replaced, kept word for word:
    /// early returns, `width` recomputed, saturating `usize` cast.
    fn eval_oracle(pwl: &PiecewiseLinear, x: f32) -> f32 {
        if x <= pwl.lo {
            return pwl.left_value;
        }
        if x >= pwl.hi {
            return pwl.right_value;
        }
        let width = (pwl.hi - pwl.lo) / pwl.segments.len() as f32;
        let idx = (((x - pwl.lo) / width) as usize).min(pwl.segments.len() - 1);
        let (a, b) = pwl.segments[idx];
        a * x + b
    }

    /// Holds `eval` and `eval_slice` to the oracle's bits on every input
    /// of `bits`.
    fn assert_matches_oracle(pwl: &PiecewiseLinear, bits: impl Iterator<Item = u32>) {
        for_each_block(bits, |block| {
            let mut sliced = block.to_vec();
            pwl.eval_slice(&mut sliced);
            for (&x, &got) in block.iter().zip(sliced.iter()) {
                let want = eval_oracle(pwl, x).to_bits();
                let (input, n) = (x.to_bits(), pwl.segment_count());
                assert_eq!(got.to_bits(), want, "{n} seg slice, input {input:#010x}");
                let scalar = pwl.eval(x).to_bits();
                assert_eq!(scalar, want, "{n} seg scalar, input {input:#010x}");
            }
        });
    }

    /// The special values and — within two ulps — `lo`, `hi` and every
    /// knot in between.
    fn edge_bits(pwl: &PiecewiseLinear) -> Vec<u32> {
        let mut out = SPECIAL_BITS.to_vec();
        for s in 0..=pwl.segment_count() {
            let knot = if s == pwl.segment_count() {
                pwl.hi
            } else {
                pwl.lo + s as f32 * pwl.width
            };
            // Stepping the bit pattern crosses zero wrongly; ±0 are above.
            if knot != 0.0 {
                out.extend(knot.to_bits() - 2..=knot.to_bits() + 2);
            }
        }
        out
    }

    fn tables() -> Vec<PiecewiseLinear> {
        vec![
            PiecewiseLinear::sigmoid(64),
            PiecewiseLinear::tanh(64),
            PiecewiseLinear::sigmoid(48),
            PiecewiseLinear::tanh(7),
            PiecewiseLinear::tanh(100),
            PiecewiseLinear::from_fn(0.0, 1.0, 3, |x| x * x),
            PiecewiseLinear::from_fn(-1e-3, 3e4, 1, |x| x),
            PiecewiseLinear::from_fn(-2.5, 0.7, 1000, f32::exp),
        ]
    }

    #[test]
    fn lane_kernel_matches_scalar_oracle_on_a_strided_sweep() {
        for (n, pwl) in tables().iter().enumerate() {
            assert_matches_oracle(pwl, edge_bits(pwl).into_iter());
            assert_matches_oracle(pwl, (n as u32 * 977..=u32::MAX).step_by(16_411));
        }
    }

    /// Every `f32` there is, through the paper's two activation units.
    /// `cargo test --release -p ernn-quant -- --ignored`
    #[test]
    #[ignore = "exhaustive over 2^32 inputs per table: about a minute in release"]
    fn lane_kernel_matches_scalar_oracle_on_every_f32() {
        assert_matches_oracle(&PiecewiseLinear::sigmoid(64), 0..=u32::MAX);
        assert_matches_oracle(&PiecewiseLinear::tanh(64), 0..=u32::MAX);
    }

    proptest! {
        #[test]
        fn eval_slice_is_eval_per_element(
            table in 0usize..8,
            bits in collection::vec(any::<u32>(), 0..70),
        ) {
            let pwl = &tables()[table];
            let xs: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            let mut sliced = xs.clone();
            pwl.eval_slice(&mut sliced);
            for (x, got) in xs.iter().zip(sliced.iter()) {
                prop_assert_eq!(got.to_bits(), pwl.eval(*x).to_bits());
            }
        }
    }

    #[test]
    fn interpolates_exactly_at_knots() {
        let pwl = PiecewiseLinear::tanh(16);
        let width = 8.0 / 16.0;
        for s in 0..=16 {
            let x = -4.0 + s as f32 * width;
            assert!((pwl.eval(x) - x.tanh()).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn clamps_outside_domain() {
        let pwl = PiecewiseLinear::sigmoid(8);
        assert_eq!(pwl.eval(-100.0), sigmoid(-8.0));
        assert_eq!(pwl.eval(100.0), sigmoid(8.0));
    }

    #[test]
    fn error_shrinks_with_more_segments() {
        let coarse = PiecewiseLinear::tanh(8).max_error(2000);
        let medium = PiecewiseLinear::tanh(32).max_error(2000);
        let fine = PiecewiseLinear::tanh(128).max_error(2000);
        assert!(coarse > medium && medium > fine);
        // Linear interpolation error scales ~1/segments².
        assert!(fine < coarse / 16.0 * 1.5);
    }

    #[test]
    fn sixty_four_segments_meet_hardware_budget() {
        // The quantization step of a 12-bit Q1.10 datapath is ~1e-3; the
        // PWL error at 64 segments is comfortably below it for sigmoid and
        // of the same order for tanh.
        assert!(PiecewiseLinear::sigmoid(64).max_error(4000) < 1e-3);
        assert!(PiecewiseLinear::tanh(64).max_error(4000) < 2e-3);
    }

    #[test]
    fn preserves_monotonicity_on_grid() {
        let pwl = PiecewiseLinear::sigmoid(16);
        let mut prev = f32::NEG_INFINITY;
        for i in 0..200 {
            let x = -10.0 + i as f32 * 0.1;
            let y = pwl.eval(x);
            assert!(y >= prev - 1e-6, "non-monotone at x={x}");
            prev = y;
        }
    }

    #[test]
    fn odd_symmetry_of_tanh_approximation() {
        let pwl = PiecewiseLinear::tanh(32);
        for i in 0..50 {
            let x = i as f32 * 0.1;
            assert!((pwl.eval(x) + pwl.eval(-x)).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn eval_slice_matches_scalar() {
        let pwl = PiecewiseLinear::tanh(16);
        let xs: Vec<f32> = (0..10).map(|i| i as f32 * 0.3 - 1.5).collect();
        let mut ys = xs.clone();
        pwl.eval_slice(&mut ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert_eq!(pwl.eval(*x), *y);
        }
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn rejects_zero_segments() {
        let _ = PiecewiseLinear::from_fn(0.0, 1.0, 0, |x| x);
    }

    #[test]
    #[should_panic(expected = "at most 2^22 segments")]
    fn rejects_more_segments_than_the_f32_select_can_index() {
        let _ = PiecewiseLinear::from_fn(0.0, 1.0, (1 << 22) + 1, |x| x);
    }

    #[test]
    fn custom_function_uses_explicit_reference() {
        let pwl = PiecewiseLinear::from_fn(0.0, 1.0, 64, |x| x * x);
        assert!(pwl.max_error_vs(|x| x * x, 1000) < 1e-3);
    }
}
