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
use ernn_model::{BlockPolicy, RnnNetwork};

/// The Euclidean projection `Π(m)` onto the block-circulant matrices of
/// block size `block_size` (the identity at 0 and 1). They form a linear
/// subspace, so the same diagonal averaging also projects a *gradient*
/// onto it: updating with projected gradients keeps weights exactly on
/// the manifold — the "retrain" phase of the paper's Fig. 6.
///
/// # Panics
///
/// Panics if `block_size` is above 1 and not a power of two.
pub(crate) fn project(m: &Matrix, block_size: usize) -> Matrix {
    if block_size <= 1 {
        return m.clone();
    }
    BlockCirculantMatrix::project_dense(m, block_size).to_dense()
}

/// One block size per compressible weight matrix (aligned with
/// `RnnNetwork::weight_matrices`): the one its layer's policy gives its
/// role.
///
/// # Panics
///
/// Panics if `policies.len()` differs from the network's layer count.
pub(crate) fn block_sizes(net: &RnnNetwork<Matrix>, policies: &[BlockPolicy]) -> Vec<usize> {
    assert_eq!(
        policies.len(),
        net.num_layers(),
        "need one block policy per layer"
    );
    net.weight_matrices()
        .into_iter()
        .map(|(layer, role, _)| policies[layer].for_role(role))
        .collect()
}

/// Snaps every compressible weight matrix onto its constraint set
/// (`W ← Π(W)`), `blocks` as [`block_sizes`] returns them.
pub(crate) fn project_matrices(net: &mut RnnNetwork<Matrix>, blocks: &[usize]) {
    for (w, &b) in net.weight_matrices_mut().into_iter().zip(blocks) {
        *w = project(w, b);
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
        let once = project(&m, 4);
        let twice = project(&once, 4);
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
        let p = project(&m, 4);
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
        assert_eq!(project(&m, 1), m);
        assert_eq!(project(&m, 0), m);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn circulant_rejects_bad_block() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let _ = project(&Matrix::xavier(6, 6, &mut rng), 6);
    }
}
