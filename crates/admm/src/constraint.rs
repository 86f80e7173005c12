//! Constraint sets and their Euclidean projections.
//!
//! ADMM's second subproblem is `min_Z g(Z) + (ρ/2)‖Z − (W + U)‖²` where `g`
//! encodes membership of a constraint set; its solution is the Euclidean
//! projection of `W + U` onto the set. The paper proves the diagonal
//! averaging of Eqn. 6 is optimal for block-circulant structure and notes
//! that quantization fits the same template ("For special types of
//! combinatorial constraints, including structured matrices, quantization,
//! etc., the second subproblem can be optimally and analytically solved").

use ernn_linalg::{BlockCirculantMatrix, Matrix};

/// A combinatorial constraint set with an analytic Euclidean projection.
pub trait Constraint: std::fmt::Debug {
    /// The Euclidean projection `Π(m)` onto the constraint set.
    fn project(&self, m: &Matrix) -> Matrix;

    /// Projects a *gradient* onto the constraint set's tangent space, when
    /// the set is a linear subspace (block-circulant matrices are one).
    /// Updating with projected gradients keeps weights exactly on the
    /// manifold — the "retrain" phase of the paper's Fig. 6. Returns
    /// `None` for non-subspace sets (e.g. quantization).
    fn project_gradient(&self, g: &Matrix) -> Option<Matrix> {
        let _ = g;
        None
    }

    /// Human-readable description for reports.
    fn describe(&self) -> String;
}

/// Block-circulant structure with a fixed block size (paper Eqn. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CirculantConstraint {
    /// Block size `L_b` (power of two).
    pub block_size: usize,
}

impl CirculantConstraint {
    /// Creates the constraint.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn new(block_size: usize) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        CirculantConstraint { block_size }
    }
}

impl Constraint for CirculantConstraint {
    fn project(&self, m: &Matrix) -> Matrix {
        if self.block_size <= 1 {
            return m.clone();
        }
        BlockCirculantMatrix::project_dense(m, self.block_size).to_dense()
    }

    fn project_gradient(&self, g: &Matrix) -> Option<Matrix> {
        // The block-circulant matrices form a linear subspace, and the
        // orthogonal projection onto a subspace is the same diagonal
        // averaging as the point projection.
        Some(self.project(g))
    }

    fn describe(&self) -> String {
        format!("block-circulant L_b={}", self.block_size)
    }
}

/// Uniform symmetric quantization to `2^(bits−1) − 1` levels of step
/// `step` — the alternative constraint set the paper mentions. Projection
/// is round-to-nearest-level, which is the exact Euclidean minimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizeConstraint {
    /// Word length in bits (including sign).
    pub bits: u8,
    /// Quantization step between adjacent levels.
    pub step: f32,
}

impl QuantizeConstraint {
    /// Creates the constraint.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `step` is not positive.
    pub fn new(bits: u8, step: f32) -> Self {
        assert!(bits >= 2, "need at least a sign and one magnitude bit");
        assert!(step > 0.0, "step must be positive");
        QuantizeConstraint { bits, step }
    }
}

impl Constraint for QuantizeConstraint {
    fn project(&self, m: &Matrix) -> Matrix {
        let max_level = (1i64 << (self.bits - 1)) - 1;
        let mut out = m.clone();
        for v in out.as_mut_slice() {
            let level = (*v / self.step).round() as i64;
            let level = level.clamp(-max_level, max_level);
            *v = level as f32 * self.step;
        }
        out
    }

    fn describe(&self) -> String {
        format!("quantized {}b step {}", self.bits, self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn circulant_projection_is_idempotent() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let m = Matrix::xavier(8, 8, &mut rng);
        let c = CirculantConstraint::new(4);
        let once = c.project(&m);
        let twice = c.project(&once);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn circulant_projection_never_increases_distance_to_itself() {
        // Projection onto a convex-per-block linear subspace: the projected
        // point is the closest structured matrix.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let m = Matrix::xavier(8, 8, &mut rng);
        let c = CirculantConstraint::new(4);
        let p = c.project(&m);
        let d_direct: f32 = p
            .as_slice()
            .iter()
            .zip(m.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        // Any block-circulant competitor (here: the zero matrix) is at
        // least as far.
        let d_zero: f32 = m.as_slice().iter().map(|v| v * v).sum();
        assert!(d_direct <= d_zero);
    }

    #[test]
    fn block_size_one_is_identity() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let m = Matrix::xavier(5, 7, &mut rng);
        let c = CirculantConstraint::new(1);
        assert_eq!(c.project(&m), m);
    }

    #[test]
    fn quantize_projection_rounds_and_saturates() {
        let q = QuantizeConstraint::new(4, 0.25); // levels ±7 · 0.25
        let m = Matrix::from_rows(&[&[0.3, -0.12, 10.0]]);
        let p = q.project(&m);
        assert_eq!(p.row(0), &[0.25, 0.0, 1.75]);
    }

    #[test]
    fn quantize_projection_is_idempotent() {
        let q = QuantizeConstraint::new(8, 0.01);
        let m = Matrix::from_rows(&[&[0.123, -0.456]]);
        assert_eq!(q.project(&q.project(&m)), q.project(&m));
    }

    #[test]
    fn descriptions_are_informative() {
        assert!(CirculantConstraint::new(8).describe().contains('8'));
        assert!(QuantizeConstraint::new(12, 0.001).describe().contains("12"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn circulant_rejects_bad_block() {
        let _ = CirculantConstraint::new(6);
    }
}
