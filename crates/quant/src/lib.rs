//! Quantization substrate for the E-RNN reproduction.
//!
//! Phase II of the E-RNN framework (paper Sec. VII-D) replaces
//! floating-point arithmetic with fixed-point units and replaces the
//! `sigmoid`/`tanh` activations with piecewise-linear approximations that
//! fit in on-chip logic (Sec. VIII-B1 credits the PWL activations with a
//! large share of the efficiency gain over ESE's off-chip lookup tables).
//!
//! * [`FixedFormat`] — a `Q(int, frac)` fixed-point format with saturation,
//!   plus range-driven format selection as described in Sec. VII-D
//!   ("analyze the numerical range of inputs and trained weights ... then
//!   initialize the integer and fractional part").
//! * [`Quantizer`] — slice-level quantization with error statistics.
//! * [`PiecewiseLinear`] — uniform-segment PWL approximation of activation
//!   functions with max-error analysis.
//!
//! # Lane kernels
//!
//! The datapath spends one quantization per operator output and one PWL
//! evaluation per gate element, so [`FixedFormat::quantize_f32`] /
//! [`FixedFormat::quantize_slice`] and [`PiecewiseLinear::eval`] /
//! [`PiecewiseLinear::eval_slice`] are written as the hardware builds them
//! — a compare, a multiply-add, a select, no call and no branch — and the
//! loops over them vectorise on baseline SSE2. The contract: **every
//! element gets the value, bit for bit, of the scalar definition**
//! (`dequantize_raw(quantize_raw(x))`; clamp, segment select, `a·x + b`);
//! **slices only run lanes side by side.**
//!
//! Neither kernel casts a float to an integer (Rust's saturating casts
//! turn into per-element branches). Both round with the `f32` adder
//! instead: adding `2²³ · step` to `0 ≤ a < 2²³ · step` leaves no bits
//! below `step`, so the sum is `a` rounded to a multiple of `step`, ties
//! to even, and subtracting the constant back is exact. The quantizer
//! wants ties away from zero: a tie is exactly where the (also exact)
//! difference `a − rounded` equals `step / 2`, and one `step` is added
//! there. The PWL segment select wants truncation: it steps back by one
//! where the sum rounded up. Saturation happens first in both — its bounds
//! are themselves multiples of the step, so clamping commutes with the
//! rounding — which is also what keeps the operand inside the range where
//! the trick is exact. The definitions these replaced (libm `round`, `f64`,
//! `powi`, early returns) are kept as test oracles: a strided sweep of the
//! `f32` bit space in every test run, all 2³² inputs of the paper's Q4.7
//! format and 64-segment tables under `--ignored`.
//!
//! ```
//! use ernn_quant::{FixedFormat, PiecewiseLinear};
//!
//! // 12-bit weights as used in E-RNN's final design.
//! let fmt = FixedFormat::for_range(12, 0.9);
//! let q = fmt.quantize_f32(0.123456);
//! assert!((q - 0.123456).abs() < fmt.step());
//!
//! let tanh = PiecewiseLinear::tanh(64);
//! assert!(tanh.max_error(1000) < 5e-3);
//! ```

#![forbid(unsafe_code)]

mod fixed;
mod pwl;

pub use fixed::{FixedFormat, QuantStats, Quantizer};
pub use pwl::PiecewiseLinear;

/// What the two lane kernels' oracle sweeps share.
#[cfg(test)]
mod sweep {
    /// NaNs (quiet, signalling, both signs), infinities, zeros, the
    /// smallest and largest subnormals and the largest finite values.
    pub const SPECIAL_BITS: [u32; 14] = [
        0x7fc0_0000,
        0xffc0_0000,
        0x7f80_0001,
        0xffff_ffff,
        0x7f80_0000,
        0xff80_0000,
        0,
        0x8000_0000,
        1,
        0x007f_ffff,
        0x8000_0001,
        0x807f_ffff,
        0x7f7f_ffff,
        0xff7f_ffff,
    ];

    /// Feeds `bits` to `check` as `f32` blocks of an odd length, so that a
    /// slice kernel run over a block exercises its vector body, its tail
    /// and (for the PWL unit) a short last lane group.
    pub fn for_each_block(bits: impl Iterator<Item = u32>, mut check: impl FnMut(&[f32])) {
        let mut bits = bits.peekable();
        let mut block = Vec::with_capacity(1021);
        while bits.peek().is_some() {
            block.clear();
            block.extend(bits.by_ref().take(1021).map(f32::from_bits));
            check(&block);
        }
    }
}
