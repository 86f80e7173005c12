//! Property tests spanning `ernn-fft`, `ernn-linalg` and `ernn-model`:
//! every execution path of a block-circulant weight matrix computes the
//! same linear map.

use ernn::linalg::{BlockCirculantMatrix, MatVec, Matrix, WeightMatrix};
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_matvec_paths_agree(
        lb_pow in 1u32..5,
        p in 1usize..4,
        q in 1usize..4,
        seed in any::<u64>(),
    ) {
        let lb = 1usize << lb_pow;
        let (rows, cols) = (p * lb, q * lb);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = Matrix::xavier(rows, cols, &mut rng);
        let bc = BlockCirculantMatrix::project_dense(&dense, lb);
        let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let via_fft = bc.matvec(&x);
        let via_direct = bc.matvec_direct(&x);
        let via_dense = bc.to_dense().matvec(&x);
        let via_enum = WeightMatrix::Circulant(bc.clone()).matvec(&x);
        for i in 0..rows {
            prop_assert!((via_fft[i] - via_direct[i]).abs() < 1e-3);
            prop_assert!((via_fft[i] - via_dense[i]).abs() < 1e-3);
            prop_assert!((via_fft[i] - via_enum[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_is_idempotent_for_any_shape(
        rows in 1usize..24,
        cols in 1usize..24,
        lb_pow in 0u32..4,
        seed in any::<u64>(),
    ) {
        let lb = 1usize << lb_pow;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = Matrix::xavier(rows, cols, &mut rng);
        let once = BlockCirculantMatrix::project_dense(&dense, lb);
        let twice = BlockCirculantMatrix::project_dense(&once.to_dense(), lb);
        for (a, b) in once.blocks().iter().zip(twice.blocks()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }
}

#[test]
fn compressed_network_forward_matches_projected_dense() {
    // Projecting the dense weights and compressing must produce identical
    // framewise logits (FFT rounding aside) for both cell types.
    for cell in [CellType::Lstm, CellType::Gru] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut net = ModelSpec::new(cell, 6, 4)
            .layer_dims(&[8, 8])
            .peephole(true)
            .build(&mut rng);
        for w in net.weight_matrices_mut() {
            *w = BlockCirculantMatrix::project_dense(w, 4).to_dense();
        }
        let compressed = compress_network(&net, BlockPolicy::uniform(4));
        let frames: Vec<Vec<f32>> = (0..6)
            .map(|t| (0..6).map(|d| ((t * 6 + d) as f32 * 0.07).sin()).collect())
            .collect();
        let a = net.forward_logits(&frames);
        let b = compressed.forward_logits(&frames);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 2e-3, "{cell}: {x} vs {y}");
        }
    }
}
