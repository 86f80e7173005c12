//! Minimal single-precision complex arithmetic.
//!
//! A dedicated type (rather than `(f32, f32)` tuples) keeps call sites
//! legible and lets us implement the exact operation set the E-RNN PE
//! datapath uses: multiply, conjugate, add/sub and scaling (Fig. 10 of the
//! paper: "two FFT operators, M multipliers, a conjugation operator ...").

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f32` components.
///
/// ```
/// use ernn_fft::Complex32;
/// let a = Complex32::new(1.0, 2.0);
/// let b = Complex32::new(3.0, -1.0);
/// let c = a * b;
/// assert_eq!(c, Complex32::new(5.0, 5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex32 {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex32 {
    /// The additive identity.
    pub const ZERO: Complex32 = Complex32 { re: 0.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex32 = Complex32 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f32, im: f32) -> Self {
        Complex32 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f32) -> Self {
        Complex32 { re, im: 0.0 }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex32::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f32) -> Self {
        Complex32::new(self.re * s, self.im * s)
    }

    /// `e^{iθ}` for a phase in radians, computed in `f64` for accuracy.
    ///
    /// Twiddle-factor tables are generated through this so that repeated
    /// angle accumulation does not erode precision.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex32::new(theta.cos() as f32, theta.sin() as f32)
    }

    /// The forward twiddle `W_n^k = e^{-2πik/n}`, with the quarter turns
    /// exact: `(1, 0)`, `(0, −1)`, `(−1, 0)`, `(0, 1)` where [`Self::cis`]
    /// would leave `cos(π/2) ≈ 6.1e-17` in the table. Multiplying by those
    /// four is an add / sub / swap (the paper's multiplier-free "trivial
    /// twiddles", Sec. V), and only with exact zeros does the full complex
    /// multiply the radix-2 plan runs agree with that shortcut.
    #[inline]
    pub fn twiddle(k: usize, n: usize) -> Self {
        if (4 * k).is_multiple_of(n) {
            let (re, im) = [(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 1.0)][4 * k / n % 4];
            return Complex32::new(re, im);
        }
        Complex32::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
    }

    /// Multiply by `i` without a full complex multiplication.
    #[inline]
    pub fn mul_i(self) -> Self {
        Complex32::new(-self.im, self.re)
    }

    /// Multiply by `-i` without a full complex multiplication.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        Complex32::new(self.im, -self.re)
    }
}

impl Add for Complex32 {
    type Output = Complex32;
    #[inline]
    fn add(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex32 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex32) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex32 {
    type Output = Complex32;
    #[inline]
    fn sub(self, rhs: Complex32) -> Complex32 {
        Complex32::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex32 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex32) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex32 {
    type Output = Complex32;
    #[inline]
    fn mul(self, rhs: Complex32) -> Complex32 {
        Complex32::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex32) {
        *self = *self * rhs;
    }
}

impl Neg for Complex32 {
    type Output = Complex32;
    #[inline]
    fn neg(self) -> Complex32 {
        Complex32::new(-self.re, -self.im)
    }
}

impl Sum for Complex32 {
    fn sum<I: Iterator<Item = Complex32>>(iter: I) -> Complex32 {
        iter.fold(Complex32::ZERO, |acc, x| acc + x)
    }
}

impl From<f32> for Complex32 {
    fn from(re: f32) -> Self {
        Complex32::from_real(re)
    }
}

impl fmt::Display for Complex32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex32::new(2.0, 3.0);
        let b = Complex32::new(-1.0, 4.0);
        let c = a * b;
        assert_eq!(c.re, -2.0 - 3.0 * 4.0);
        assert_eq!(c.im, 2.0 * 4.0 - 3.0);
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let a = Complex32::new(1.5, -2.5);
        assert_eq!(a.conj(), Complex32::new(1.5, 2.5));
        assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn mul_i_shortcuts_match_full_multiplication() {
        let a = Complex32::new(0.3, -0.7);
        assert_eq!(a.mul_i(), a * Complex32::I);
        assert_eq!(a.mul_neg_i(), a * Complex32::new(0.0, -1.0));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = 2.0 * std::f64::consts::PI * (k as f64) / 16.0;
            let w = Complex32::cis(theta);
            assert!((w.abs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sum_accumulates() {
        let xs = [
            Complex32::new(1.0, 1.0),
            Complex32::new(2.0, -1.0),
            Complex32::new(-0.5, 0.5),
        ];
        let s: Complex32 = xs.iter().copied().sum();
        assert_eq!(s, Complex32::new(2.5, 0.5));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex32::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex32::new(1.0, -2.0).to_string(), "1-2i");
    }
}
