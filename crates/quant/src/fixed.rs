//! Fixed-point number formats with saturation.
//!
//! The E-RNN accelerator replaces floating point with fixed-point units
//! (Sec. VII-D). A format is `Q(word − 1 − frac, frac)`: one sign bit,
//! `word − 1 − frac` integer bits and `frac` fractional bits. Values are
//! represented as scaled integers `round(x · 2^frac)` saturated to the word
//! range — exactly what a DSP-slice datapath does.
//!
//! [`FixedFormat::quantize_f32`] is defined as
//! `dequantize_raw(quantize_raw(x))`; it and [`FixedFormat::quantize_slice`]
//! compute that value with the call-free `f32` lane kernel described in the
//! crate docs, so a loop over them vectorises.

/// A signed fixed-point format.
///
/// ```
/// use ernn_quant::FixedFormat;
/// let fmt = FixedFormat::new(12, 10); // Q1.10, range ±2
/// assert_eq!(fmt.quantize_f32(0.5), 0.5);
/// assert_eq!(fmt.quantize_f32(100.0), fmt.max_value()); // saturation
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedFormat {
    /// Total word length in bits, including the sign bit (2..=32).
    word_bits: u8,
    /// Number of fractional bits (`< word_bits`).
    frac_bits: u8,
}

impl FixedFormat {
    /// Creates a format with `word_bits` total bits and `frac_bits`
    /// fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is outside `2..=32` or `frac_bits >= word_bits`.
    pub fn new(word_bits: u8, frac_bits: u8) -> Self {
        assert!(
            (2..=32).contains(&word_bits),
            "word length must be 2..=32 bits, got {word_bits}"
        );
        assert!(
            frac_bits < word_bits,
            "fractional bits ({frac_bits}) must leave room for the sign bit"
        );
        FixedFormat {
            word_bits,
            frac_bits,
        }
    }

    /// Chooses the format with `word_bits` total bits whose integer part
    /// just covers `max_abs` — the range analysis step of Sec. VII-D.
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is outside `2..=32` or `max_abs` is not finite
    /// and positive.
    pub fn for_range(word_bits: u8, max_abs: f32) -> Self {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "range must be a positive finite value, got {max_abs}"
        );
        // Integer bits needed so that max_abs < 2^int_bits.
        let int_bits = max_abs.log2().floor() as i32 + 1;
        let int_bits = int_bits.clamp(0, word_bits as i32 - 1) as u8;
        FixedFormat::new(word_bits, word_bits - 1 - int_bits)
    }

    /// Total word length in bits.
    #[inline]
    pub fn word_bits(&self) -> u8 {
        self.word_bits
    }

    /// Fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Integer bits (excluding sign).
    #[inline]
    pub fn int_bits(&self) -> u8 {
        self.word_bits - 1 - self.frac_bits
    }

    /// The quantization step `2^(−frac)`, built exactly from its exponent
    /// field (`frac ≤ 31`, so it is always a normal number).
    #[inline]
    pub fn step(&self) -> f32 {
        f32::from_bits((127 - self.frac_bits as u32) << 23)
    }

    /// Largest representable value.
    #[inline]
    pub fn max_value(&self) -> f32 {
        self.raw_max() as f32 * self.step()
    }

    /// Smallest (most negative) representable value.
    #[inline]
    pub fn min_value(&self) -> f32 {
        self.raw_min() as f32 * self.step()
    }

    #[inline]
    fn raw_max(&self) -> i64 {
        (1i64 << (self.word_bits - 1)) - 1
    }

    #[inline]
    fn raw_min(&self) -> i64 {
        -(1i64 << (self.word_bits - 1))
    }

    /// Quantizes to the raw scaled integer, rounding to nearest and
    /// saturating at the word boundaries.
    pub fn quantize_raw(&self, x: f32) -> i64 {
        if x.is_nan() {
            return 0;
        }
        let scaled = (x as f64 * (1i64 << self.frac_bits) as f64).round();
        (scaled as i64).clamp(self.raw_min(), self.raw_max())
    }

    /// Converts a raw scaled integer back to `f32`.
    #[inline]
    pub fn dequantize_raw(&self, raw: i64) -> f32 {
        raw as f32 * self.step()
    }

    /// Round-trips a value through the format (quantize then dequantize) —
    /// the standard way to simulate fixed-point behaviour inside an `f32`
    /// pipeline. Defined as `dequantize_raw(quantize_raw(x))` and
    /// bit-identical to it for every `f32`, but computed without leaving
    /// `f32` (no `round`/`powi` call, no `f64`, no float-to-int cast, no
    /// branch), so a loop over it vectorises:
    ///
    /// * saturate first: the bounds are multiples of `step`, so clamping
    ///   commutes with rounding to one (past 2²⁴ steps `max_value` is the
    ///   rounded `raw_max as f32` that `dequantize_raw` would produce);
    /// * with `magic = 2²³ · step`, `(a + magic) − magic` rounds
    ///   `0 ≤ a < magic` to the nearest multiple `t` of `step`, ties to
    ///   even (the sum has no bits below `step`; the subtraction is exact,
    ///   and so is `a − t`) — so a tie is exactly where `a − t` equals
    ///   `step / 2`, and there `t` is moved one step away from zero;
    /// * from `magic` up an `f32` has no bits below `step` left to round;
    /// * `+ 0.0` turns the −0 of a negative input that rounds to zero into
    ///   the +0 the integer path returns.
    #[inline]
    pub fn quantize_f32(&self, x: f32) -> f32 {
        let step = self.step();
        let magic = (1u32 << 23) as f32 * step;
        let x = if x.is_nan() { 0.0 } else { x };
        let c = x.clamp(self.min_value(), self.max_value());
        let a = c.abs();
        let t = (a + magic) - magic;
        let tie = if a - t == 0.5 * step { step } else { 0.0 };
        let r = if a >= magic { a } else { t + tie };
        r.copysign(c) + 0.0
    }

    /// Quantizes a slice in place: [`Self::quantize_f32`] on every element.
    pub fn quantize_slice(&self, xs: &mut [f32]) {
        for x in xs {
            *x = self.quantize_f32(*x);
        }
    }
}

impl std::fmt::Display for FixedFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Q{}.{} ({}b)",
            self.int_bits(),
            self.frac_bits,
            self.word_bits
        )
    }
}

/// Error statistics from quantizing a data set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantStats {
    /// Largest absolute quantization error observed.
    pub max_abs_error: f32,
    /// Fraction of values that hit the saturation bounds.
    pub saturation_rate: f32,
}

/// Applies a [`FixedFormat`] to data sets and reports error statistics —
/// used by Phase II to pick the shortest safe word length ("12-bit weight
/// quantization is in general a safe design", Sec. VII-D).
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    format: FixedFormat,
}

/// Lanes of [`Quantizer::apply`]'s running statistics.
const STAT_LANES: usize = 8;

impl Quantizer {
    /// Creates a quantizer for the given format.
    pub fn new(format: FixedFormat) -> Self {
        Quantizer { format }
    }

    /// The underlying format.
    pub fn format(&self) -> FixedFormat {
        self.format
    }

    /// Quantizes `xs` in place and returns the error statistics, in one
    /// pass that vectorises: each of eight lanes keeps its own
    /// running max error and saturation count, folded at the end. A max
    /// (NaN errors skipped) is order-free and the count is an integer, so
    /// the statistics are the element-by-element loop's bit for bit.
    pub fn apply(&self, xs: &mut [f32]) -> QuantStats {
        let (hi, lo) = (self.format.max_value(), self.format.min_value());
        let mut max_abs = [0.0f32; STAT_LANES];
        let mut saturated = [0u32; STAT_LANES];
        let step = |x: &mut f32, max_abs: &mut f32, saturated: &mut u32| {
            let q = self.format.quantize_f32(*x);
            *max_abs = max_abs.max((q - *x).abs());
            *saturated += u32::from(q >= hi || q <= lo);
            *x = q;
        };
        let mut chunks = xs.chunks_exact_mut(STAT_LANES);
        for chunk in &mut chunks {
            for ((x, m), s) in chunk.iter_mut().zip(&mut max_abs).zip(&mut saturated) {
                step(x, m, s);
            }
        }
        for ((x, m), s) in chunks
            .into_remainder()
            .iter_mut()
            .zip(&mut max_abs)
            .zip(&mut saturated)
        {
            step(x, m, s);
        }
        let saturated: usize = saturated.iter().map(|&s| s as usize).sum();
        QuantStats {
            max_abs_error: max_abs.into_iter().fold(0.0, f32::max),
            saturation_rate: saturated as f32 / xs.len().max(1) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{for_each_block, SPECIAL_BITS};
    use proptest::prelude::*;

    /// The scalar definition the lane kernel replaced, kept word for word:
    /// `f64` scale, libm `round`, saturating `i64`, `powi` step.
    fn quantize_oracle(fmt: FixedFormat, x: f32) -> f32 {
        let raw = if x.is_nan() {
            0
        } else {
            let scaled = (x as f64 * (1i64 << fmt.frac_bits) as f64).round();
            (scaled as i64).clamp(fmt.raw_min(), fmt.raw_max())
        };
        raw as f32 * (2.0f32).powi(-(fmt.frac_bits as i32))
    }

    /// The element-by-element `Quantizer::apply` the lane pass replaced,
    /// less the deleted `rms_error` (its `f64` sum of squares was what kept
    /// the loop scalar).
    fn apply_oracle(fmt: FixedFormat, xs: &mut [f32]) -> QuantStats {
        let mut max_abs = 0.0f32;
        let mut saturated = 0usize;
        let hi = fmt.max_value();
        let lo = fmt.min_value();
        for x in xs.iter_mut() {
            let orig = *x;
            let q = fmt.quantize_f32(orig);
            let err = (q - orig).abs();
            max_abs = max_abs.max(err);
            if q >= hi || q <= lo {
                saturated += 1;
            }
            *x = q;
        }
        let n = xs.len().max(1) as f64;
        QuantStats {
            max_abs_error: max_abs,
            saturation_rate: saturated as f32 / n as f32,
        }
    }

    /// Holds `quantize_f32`, its documented definition and `quantize_slice`
    /// to the oracle's bits on every input of `bits`.
    fn assert_matches_oracle(fmt: FixedFormat, bits: impl Iterator<Item = u32>) {
        for_each_block(bits, |block| {
            let mut sliced = block.to_vec();
            fmt.quantize_slice(&mut sliced);
            for (&x, &got) in block.iter().zip(sliced.iter()) {
                let want = quantize_oracle(fmt, x).to_bits();
                let input = x.to_bits();
                assert_eq!(got.to_bits(), want, "{fmt} slice, input {input:#010x}");
                let scalar = fmt.quantize_f32(x).to_bits();
                assert_eq!(scalar, want, "{fmt} scalar, input {input:#010x}");
                let defined = fmt.dequantize_raw(fmt.quantize_raw(x)).to_bits();
                assert_eq!(defined, want, "{fmt} definition, input {input:#010x}");
            }
        });
    }

    /// The special values and — within two ulps on both signs — the
    /// half-way points and saturation edges of `fmt`.
    fn edge_bits(fmt: FixedFormat) -> Vec<u32> {
        let mut out = SPECIAL_BITS.to_vec();
        let top = fmt.raw_max() as f64;
        let mut raws = vec![0.5, 1.0, 1.5, 2.5, 3.5, 126.5, 127.5];
        raws.extend([top - 1.5, top - 0.5, top, top + 0.5, top + 1.0, top + 1.5]);
        raws.extend([22, 23, 24, 25].map(|e| (1u64 << e) as f64));
        raws.extend([22, 23].map(|e| (1u64 << e) as f64 - 0.5));
        for raw in raws {
            let x = (raw * fmt.step() as f64) as f32;
            for near in x.to_bits() - 2..=x.to_bits() + 2 {
                out.extend([near, near | 0x8000_0000]);
            }
        }
        out
    }

    const FORMATS: [(u8, u8); 16] = [
        (2, 0),
        (2, 1),
        (8, 4),
        (8, 7),
        (12, 7),
        (12, 10),
        (16, 0),
        (16, 11),
        (24, 0),
        (24, 12),
        (24, 23),
        (25, 3),
        (28, 5),
        (32, 0),
        (32, 16),
        (32, 31),
    ];

    #[test]
    fn lane_kernel_matches_scalar_oracle_on_a_strided_sweep() {
        for (n, (word, frac)) in FORMATS.into_iter().enumerate() {
            let fmt = FixedFormat::new(word, frac);
            assert_matches_oracle(fmt, edge_bits(fmt).into_iter());
            // A different residue class per format, all exponents and
            // both signs in each.
            assert_matches_oracle(fmt, (n as u32 * 977..=u32::MAX).step_by(16_411));
        }
    }

    /// Every `f32` there is, through the paper's activation format.
    /// `cargo test --release -p ernn-quant -- --ignored`
    #[test]
    #[ignore = "exhaustive over 2^32 inputs: about a minute in release"]
    fn lane_kernel_matches_scalar_oracle_on_every_f32() {
        assert_matches_oracle(FixedFormat::for_range(12, 8.0), 0..=u32::MAX);
    }

    #[test]
    fn step_and_bounds_are_built_exactly() {
        for frac in 0..=31u8 {
            let fmt = FixedFormat::new(32, frac);
            let powi = (2.0f32).powi(-(frac as i32));
            assert_eq!(fmt.step().to_bits(), powi.to_bits(), "frac {frac}");
            for word in frac + 1..=32 {
                let fmt = FixedFormat::new(word.max(2), frac);
                let (lo, hi) = (fmt.raw_min() as f32 * powi, fmt.raw_max() as f32 * powi);
                assert_eq!(fmt.min_value().to_bits(), lo.to_bits(), "{fmt}");
                assert_eq!(fmt.max_value().to_bits(), hi.to_bits(), "{fmt}");
            }
        }
    }

    #[test]
    fn step_and_bounds_are_consistent() {
        let fmt = FixedFormat::new(12, 10);
        assert_eq!(fmt.step(), 1.0 / 1024.0);
        assert!((fmt.max_value() - (2.0 - fmt.step())).abs() < 1e-6);
        assert_eq!(fmt.min_value(), -2.0);
        assert_eq!(fmt.int_bits(), 1);
    }

    #[test]
    fn quantization_rounds_to_nearest() {
        let fmt = FixedFormat::new(8, 4); // step 1/16
        assert_eq!(fmt.quantize_f32(0.06), 0.0625); // 0.06·16 = 0.96 → 1
        assert_eq!(fmt.quantize_f32(0.03), 0.0); // 0.03·16 = 0.48 → 0
    }

    #[test]
    fn saturation_clamps() {
        let fmt = FixedFormat::new(8, 4);
        assert_eq!(fmt.quantize_f32(100.0), fmt.max_value());
        assert_eq!(fmt.quantize_f32(-100.0), fmt.min_value());
    }

    #[test]
    fn nan_maps_to_zero() {
        let fmt = FixedFormat::new(8, 4);
        assert_eq!(fmt.quantize_f32(f32::NAN), 0.0);
    }

    #[test]
    fn for_range_covers_the_range() {
        for &max_abs in &[0.1f32, 0.5, 0.99, 1.0, 1.5, 3.9, 7.2, 100.0] {
            let fmt = FixedFormat::for_range(12, max_abs);
            assert!(
                fmt.max_value() >= max_abs.min(fmt.max_value()),
                "range {max_abs} format {fmt}"
            );
            // Unless clamped by the word size, the format covers max_abs.
            if max_abs < (1 << 10) as f32 {
                assert!(fmt.max_value() + fmt.step() >= max_abs, "range {max_abs}");
            }
        }
    }

    #[test]
    fn for_range_maximizes_precision() {
        // max_abs = 0.9 fits in 0 integer bits: Q0.11 for a 12-bit word.
        let fmt = FixedFormat::for_range(12, 0.9);
        assert_eq!(fmt.frac_bits(), 11);
        // max_abs = 1.5 needs 1 integer bit.
        let fmt = FixedFormat::for_range(12, 1.5);
        assert_eq!(fmt.frac_bits(), 10);
    }

    #[test]
    fn twelve_bit_error_is_small() {
        // Paper: "The accuracy degradation from input/weight quantization is
        // very small" at 12 bits; the per-value error bound is step/2.
        let fmt = FixedFormat::for_range(12, 1.0);
        let mut xs: Vec<f32> = (0..1000).map(|i| (i as f32 / 500.0) - 1.0).collect();
        let stats = Quantizer::new(fmt).apply(&mut xs);
        assert!(stats.max_abs_error <= fmt.step() / 2.0 + 1e-7);
    }

    #[test]
    fn quantizer_reports_saturation() {
        let fmt = FixedFormat::new(8, 6); // range ±2
        let mut xs = vec![5.0f32, -5.0, 0.0, 1.0];
        let stats = Quantizer::new(fmt).apply(&mut xs);
        assert_eq!(stats.saturation_rate, 0.5);
    }

    #[test]
    #[should_panic(expected = "word length")]
    fn rejects_oversized_word() {
        let _ = FixedFormat::new(33, 5);
    }

    #[test]
    #[should_panic(expected = "fractional bits")]
    fn rejects_frac_equal_word() {
        let _ = FixedFormat::new(8, 8);
    }

    #[test]
    fn display_shows_q_format() {
        assert_eq!(FixedFormat::new(12, 10).to_string(), "Q1.10 (12b)");
    }

    proptest! {
        #[test]
        fn quantization_error_bounded_by_half_step(
            word in 4u8..16,
            x in -1.0f32..1.0,
        ) {
            let fmt = FixedFormat::for_range(word, 1.0);
            let q = fmt.quantize_f32(x);
            // In-range values are within half a step.
            if x.abs() <= fmt.max_value() {
                prop_assert!((q - x).abs() <= fmt.step() / 2.0 + 1e-7);
            }
        }

        #[test]
        fn quantization_is_idempotent(word in 4u8..16, frac in 0u8..8, x in -100.0f32..100.0) {
            prop_assume!(frac < word);
            let fmt = FixedFormat::new(word, frac);
            let once = fmt.quantize_f32(x);
            prop_assert_eq!(fmt.quantize_f32(once), once);
        }

        #[test]
        fn quantize_slice_is_quantize_f32_per_element(
            word in 2u8..33,
            frac in 0u8..32,
            bits in collection::vec(any::<u32>(), 0..70),
        ) {
            prop_assume!(frac < word);
            let fmt = FixedFormat::new(word, frac);
            let xs: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            let mut sliced = xs.clone();
            fmt.quantize_slice(&mut sliced);
            for (x, got) in xs.iter().zip(sliced.iter()) {
                prop_assert_eq!(got.to_bits(), fmt.quantize_f32(*x).to_bits());
            }
        }

        #[test]
        fn apply_is_the_element_by_element_loop(
            word in 2u8..33,
            frac in 0u8..32,
            bits in collection::vec(any::<u32>(), 0..70),
            scale in -40i32..8,
        ) {
            // Raw bit patterns (NaN, ±inf, subnormals) and values near the
            // format's range, so both the saturation and the error lanes work.
            prop_assume!(frac < word);
            let fmt = FixedFormat::new(word, frac);
            let xs: Vec<f32> = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    if i % 2 == 0 {
                        f32::from_bits(b)
                    } else {
                        (b as i32 as f32) * 2f32.powi(scale - 31)
                    }
                })
                .collect();
            let (mut got, mut want) = (xs.clone(), xs);
            let stats = Quantizer::new(fmt).apply(&mut got);
            let oracle = apply_oracle(fmt, &mut want);
            prop_assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(stats.max_abs_error.to_bits(), oracle.max_abs_error.to_bits());
            prop_assert_eq!(stats.saturation_rate.to_bits(), oracle.saturation_rate.to_bits());
        }

        #[test]
        fn quantization_is_monotone(word in 4u8..12, a in -4.0f32..4.0, b in -4.0f32..4.0) {
            let fmt = FixedFormat::for_range(word, 2.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(fmt.quantize_f32(lo) <= fmt.quantize_f32(hi));
        }
    }
}
