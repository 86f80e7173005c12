//! The block-circulant constraint set and its Euclidean projection.
//!
//! ADMM's second subproblem is `min_Z g(Z) + (ρ/2)‖Z − (W + U)‖²` where `g`
//! encodes membership of a constraint set; its solution is the Euclidean
//! projection of `W + U` onto the set. The paper proves the diagonal
//! averaging of Eqn. 6 is optimal for block-circulant structure. It also
//! notes that quantization fits the same template; this repository does
//! not reproduce that remark (word lengths are chosen after training, by
//! Phase II).

use ernn_linalg::{BlockCirculantMatrix, Matrix};

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

    /// The Euclidean projection `Π(m)` onto the block-circulant matrices
    /// (the identity at block size 1). They form a linear subspace, so the
    /// same diagonal averaging also projects a *gradient* onto it:
    /// updating with projected gradients keeps weights exactly on the
    /// manifold — the "retrain" phase of the paper's Fig. 6.
    pub fn project(&self, m: &Matrix) -> Matrix {
        if self.block_size <= 1 {
            return m.clone();
        }
        BlockCirculantMatrix::project_dense(m, self.block_size).to_dense()
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
    #[should_panic(expected = "power of two")]
    fn circulant_rejects_bad_block() {
        let _ = CirculantConstraint::new(6);
    }
}
