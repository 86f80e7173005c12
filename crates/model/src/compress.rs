//! Compression of a trained dense network into block-circulant form.
//!
//! Phase I of E-RNN ends with a model whose weight matrices carry
//! per-role block sizes: the fine-tuning step (Sec. VI-B step 3) may give
//! the input and output matrices a *larger* block size than the recurrent
//! matrices because they "will not propagate from each time t to the
//! subsequent time step" ("we limit the maximum type of block sizes to
//! 2"). [`BlockPolicy`] captures that decision and
//! [`compress_network`] applies it, producing a network whose forward pass
//! runs on FFT kernels.

use crate::network::{RnnNetwork, WeightRole};
use ernn_linalg::{BlockCirculantMatrix, Matrix, WeightMatrix};

/// Block sizes per weight role (1 = leave dense).
///
/// ```
/// use ernn_model::{BlockPolicy, WeightRole};
/// let uniform = BlockPolicy::uniform(8);
/// assert_eq!(uniform.for_role(WeightRole::Recurrent), 8);
/// let tuned = BlockPolicy::with_io_block(8, 16); // paper's step-3 variant
/// assert_eq!(tuned.for_role(WeightRole::Input), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPolicy {
    /// Block size for recurrent matrices (`W_*r`, `W_zr_c`, `W_c̃c`).
    pub recurrent: usize,
    /// Block size for input matrices (`W_*x`).
    pub input: usize,
    /// Block size for output/projection matrices (`W_ym`).
    pub output: usize,
}

impl BlockPolicy {
    /// The same block size everywhere.
    pub fn uniform(block: usize) -> Self {
        BlockPolicy {
            recurrent: block,
            input: block,
            output: block,
        }
    }

    /// The paper's fine-tuned variant: `base` for recurrent matrices, a
    /// (typically larger) `io_block` for input and output matrices.
    pub fn with_io_block(base: usize, io_block: usize) -> Self {
        BlockPolicy {
            recurrent: base,
            input: io_block,
            output: io_block,
        }
    }

    /// Block size for a given role.
    pub fn for_role(&self, role: WeightRole) -> usize {
        match role {
            WeightRole::Input => self.input,
            WeightRole::Recurrent => self.recurrent,
            WeightRole::Output => self.output,
        }
    }
}

fn compress_matrix(m: &Matrix, block: usize) -> WeightMatrix {
    if block <= 1 {
        WeightMatrix::Dense(m.clone())
    } else {
        WeightMatrix::Circulant(BlockCirculantMatrix::project_dense(m, block))
    }
}

/// Projects every compressible weight matrix of a dense network onto the
/// block-circulant manifold according to `policy`.
///
/// Biases, peepholes and the classifier stay dense (they are `O(n)`
/// already, "a small quantity of corresponding parameters", Sec. III-A).
///
/// Note: projecting a freshly trained *unconstrained* network loses
/// accuracy; run ADMM training first (`ernn-admm`) so that the weights are
/// already (near-)circulant and the projection is lossless.
pub fn compress_network(net: &RnnNetwork<Matrix>, policy: BlockPolicy) -> RnnNetwork<WeightMatrix> {
    compress_network_layers(net, &vec![policy; net.num_layers()])
}

/// Like [`compress_network`] but with one [`BlockPolicy`] per stacked
/// layer — the granularity of the paper's Table I ("Block Size 4-8" gives
/// layer 0 block 4 and layer 1 block 8).
///
/// # Panics
///
/// Panics if `policies.len() != net.num_layers()`.
pub fn compress_network_layers(
    net: &RnnNetwork<Matrix>,
    policies: &[BlockPolicy],
) -> RnnNetwork<WeightMatrix> {
    assert_eq!(
        policies.len(),
        net.num_layers(),
        "need one block policy per layer"
    );
    net.map(
        |li, role, w| compress_matrix(w, policies[li].for_role(role)),
        <[f32]>::to_vec,
        Matrix::clone,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellType, ModelSpec, RnnLayer};
    use rand::SeedableRng;

    fn dense_net(cell: CellType) -> RnnNetwork<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        ModelSpec::new(cell, 8, 5)
            .layer_dims(&[16, 16])
            .peephole(true)
            .build(&mut rng)
    }

    #[test]
    fn compression_reduces_params() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = dense_net(cell);
            let compressed = compress_network(&net, BlockPolicy::uniform(8));
            assert!(
                compressed.param_count() < net.param_count(),
                "{cell}: {} !< {}",
                compressed.param_count(),
                net.param_count()
            );
        }
    }

    #[test]
    fn uniform_policy_block_sizes_propagate() {
        let net = dense_net(CellType::Lstm);
        let compressed = compress_network(&net, BlockPolicy::uniform(4));
        for layer in compressed.layers() {
            if let RnnLayer::Lstm(l) = layer {
                assert_eq!(l.wx.block_size(), 4);
                assert_eq!(l.wr.block_size(), 4);
            }
        }
    }

    #[test]
    fn io_policy_gives_larger_input_blocks() {
        let net = dense_net(CellType::Gru);
        let policy = BlockPolicy::with_io_block(4, 8);
        let compressed = compress_network(&net, policy);
        if let RnnLayer::Gru(g) = &compressed.layers()[0] {
            assert_eq!(g.wzr_x.block_size(), 8);
            assert_eq!(g.wzr_c.block_size(), 4);
        } else {
            panic!("expected GRU layer");
        }
    }

    #[test]
    fn block_one_keeps_dense_and_exact() {
        let net = dense_net(CellType::Lstm);
        let compressed = compress_network(&net, BlockPolicy::uniform(1));
        let frames = vec![vec![0.3f32; 8]; 4];
        let a = net.forward_logits(&frames);
        let b = compressed.forward_logits(&frames);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn projection_of_circulant_weights_is_lossless() {
        // Make the dense weights exactly circulant, then compress: the
        // forward pass must be preserved (up to FFT rounding).
        let mut net = dense_net(CellType::Gru);
        for w in net.weight_matrices_mut() {
            let projected = BlockCirculantMatrix::project_dense(w, 4).to_dense();
            *w = projected;
        }
        let compressed = compress_network(&net, BlockPolicy::uniform(4));
        let frames = vec![vec![0.2f32; 8]; 6];
        let a = net.forward_logits(&frames);
        let b = compressed.forward_logits(&frames);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn compression_ratio_tracks_block_size() {
        let net = dense_net(CellType::Lstm);
        let c4 = compress_network(&net, BlockPolicy::uniform(4)).param_count();
        let c8 = compress_network(&net, BlockPolicy::uniform(8)).param_count();
        assert!(c8 < c4);
    }
}
