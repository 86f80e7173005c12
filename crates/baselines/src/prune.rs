//! ESE-style magnitude pruning with masked retraining.
//!
//! The ESE baseline (Han et al., FPGA'17) prunes the smallest-magnitude
//! weights to a target sparsity and retrains with the pruning mask frozen.
//! The paper credits ESE with 9× weight reduction at 0.30% PER
//! degradation, but only ~4.5:1 *effective* compression once indices are
//! stored, and an irregular structure that caps hardware parallelism.

use crate::sparse::CsrMatrix;
use ernn_linalg::Matrix;
use ernn_model::trainer::{train_with_hook, Sequence, TrainOptions};
use ernn_model::{RnnNetwork, Sgd};
use rand::Rng;

/// Compression accounting for a pruned network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneReport {
    /// Fraction of weights removed (over compressible matrices).
    pub sparsity: f64,
    /// Weight-only compression ratio (the "9×" number).
    pub weight_compression: f64,
    /// Effective compression including per-weight indices.
    pub effective_compression: f64,
    /// Worst load imbalance over the weight matrices at 32 channels.
    pub load_imbalance: f64,
}

/// A pruned network: the dense model plus its pruning masks.
#[derive(Debug, Clone)]
pub struct PrunedNetwork {
    /// The pruned (masked) dense network.
    pub net: RnnNetwork<Matrix>,
    /// One mask per compressible weight matrix (`true` = weight survives),
    /// aligned with `RnnNetwork::weight_matrices`.
    pub masks: Vec<Vec<bool>>,
}

impl PrunedNetwork {
    /// Re-applies the masks (used after any update that may have
    /// resurrected pruned weights).
    pub fn enforce_masks(&mut self) {
        apply_masks(self.net.weight_matrices_mut(), &self.masks);
    }

    /// Masked retraining: gradients of pruned weights are zeroed so the
    /// sparsity pattern is preserved (Han et al.'s retraining step).
    pub fn retrain(
        &mut self,
        data: &[Sequence],
        epochs: usize,
        optimizer: &mut Sgd,
        rng: &mut impl Rng,
    ) {
        if epochs == 0 {
            return;
        }
        let masks = self.masks.clone();
        train_with_hook(
            &mut self.net,
            data,
            TrainOptions {
                epochs,
                lr_decay: 1.0,
            },
            optimizer,
            rng,
            |_net: &RnnNetwork<Matrix>, grads: &mut RnnNetwork<Matrix>| {
                apply_masks(grads.weight_matrices_mut(), &masks);
            },
        );
        // Momentum can leak tiny values into masked positions; snap back.
        self.enforce_masks();
    }

    /// Compression statistics (the Table III accounting for ESE).
    pub fn report(&self, weight_bits: u8, index_bits: u8) -> PruneReport {
        let mut total = 0u64;
        let mut kept = 0u64;
        let mut sparse_bits = 0u64;
        let mut dense_bits = 0u64;
        let mut worst_imbalance = 1.0f64;
        for (_, _, w) in self.net.weight_matrices() {
            let csr = CsrMatrix::from_dense(w);
            total += (w.rows() * w.cols()) as u64;
            kept += csr.nnz() as u64;
            sparse_bits += csr.nnz() as u64 * (weight_bits as u64 + index_bits as u64);
            dense_bits += (w.rows() * w.cols()) as u64 * weight_bits as u64;
            worst_imbalance = worst_imbalance.max(csr.load_imbalance(32));
        }
        PruneReport {
            sparsity: 1.0 - kept as f64 / total.max(1) as f64,
            weight_compression: total as f64 / kept.max(1) as f64,
            effective_compression: dense_bits as f64 / sparse_bits.max(1) as f64,
            load_imbalance: worst_imbalance,
        }
    }
}

/// Zeroes the pruned positions of each weight matrix (or of its gradient),
/// `weights` aligned with `masks` as [`RnnNetwork::weight_matrices`] is.
fn apply_masks(weights: Vec<&mut Matrix>, masks: &[Vec<bool>]) {
    for (w, mask) in weights.into_iter().zip(masks) {
        for (v, &keep) in w.as_mut_slice().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
    }
}

/// Prunes the smallest-magnitude fraction `sparsity` of every compressible
/// weight matrix.
///
/// # Panics
///
/// Panics if `sparsity` is not in `[0, 1)`.
pub fn magnitude_prune(net: &RnnNetwork<Matrix>, sparsity: f64) -> PrunedNetwork {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
    let mut pruned = net.clone();
    let mut masks = Vec::new();
    for w in pruned.weight_matrices_mut() {
        let mut magnitudes: Vec<f32> = w.as_slice().iter().map(|v| v.abs()).collect();
        magnitudes.sort_by(|a, b| a.partial_cmp(b).expect("no NaN weights"));
        let cut = (magnitudes.len() as f64 * sparsity) as usize;
        let threshold = if cut == 0 { -1.0 } else { magnitudes[cut - 1] };
        let mask: Vec<bool> = w.as_slice().iter().map(|v| v.abs() > threshold).collect();
        for (v, &keep) in w.as_mut_slice().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        masks.push(mask);
    }
    PrunedNetwork { net: pruned, masks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_model::{CellType, ModelSpec};
    use rand::SeedableRng;

    fn toy_net() -> RnnNetwork<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        ModelSpec::new(CellType::Lstm, 3, 2)
            .layer_dims(&[8])
            .build(&mut rng)
    }

    fn toy_data(n: usize, seed: u64) -> Vec<Sequence> {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let frames: Vec<Vec<f32>> = (0..6)
                    .map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let labels = (0..6).map(|_| rng.gen_range(0..2)).collect();
                (frames, labels)
            })
            .collect()
    }

    #[test]
    fn pruning_hits_target_sparsity() {
        let net = toy_net();
        for target in [0.5, 0.8, 0.889] {
            let pruned = magnitude_prune(&net, target);
            let report = pruned.report(12, 12);
            assert!(
                (report.sparsity - target).abs() < 0.02,
                "target {target}: got {}",
                report.sparsity
            );
        }
    }

    #[test]
    fn nine_x_pruning_gives_four_point_five_effective() {
        // The paper's ESE accounting: 9× weights → 4.5:1 with indices as
        // wide as weights.
        let net = toy_net();
        let pruned = magnitude_prune(&net, 1.0 - 1.0 / 9.0);
        let report = pruned.report(12, 12);
        assert!((report.weight_compression - 9.0).abs() < 0.5, "{report:?}");
        assert!(
            (report.effective_compression - 4.5).abs() < 0.3,
            "{report:?}"
        );
    }

    #[test]
    fn pruning_keeps_largest_weights() {
        let net = toy_net();
        let pruned = magnitude_prune(&net, 0.75);
        // Every surviving weight must be >= every pruned weight (per
        // matrix).
        for ((_, _, orig), (_, _, kept)) in net
            .weight_matrices()
            .iter()
            .zip(pruned.net.weight_matrices())
        {
            let surviving_min = kept
                .as_slice()
                .iter()
                .filter(|v| **v != 0.0)
                .map(|v| v.abs())
                .fold(f32::MAX, f32::min);
            let pruned_max = orig
                .as_slice()
                .iter()
                .zip(kept.as_slice())
                .filter(|(_, k)| **k == 0.0)
                .map(|(o, _)| o.abs())
                .fold(0.0f32, f32::max);
            assert!(surviving_min >= pruned_max);
        }
    }

    #[test]
    fn retraining_preserves_masks() {
        let net = toy_net();
        let mut pruned = magnitude_prune(&net, 0.8);
        let data = toy_data(4, 2);
        let mut opt = Sgd::new(0.05);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        pruned.retrain(&data, 2, &mut opt, &mut rng);
        let report = pruned.report(12, 12);
        assert!((report.sparsity - 0.8).abs() < 0.02, "{}", report.sparsity);
    }

    #[test]
    fn retraining_recovers_some_loss() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut net = toy_net();
        let data = toy_data(16, 5);
        let mut opt = Sgd::new(0.1);
        ernn_model::trainer::train(
            &mut net,
            &data,
            TrainOptions {
                epochs: 6,
                lr_decay: 1.0,
            },
            &mut opt,
            &mut rng,
        );
        let dense_loss = ernn_model::trainer::evaluate_set(&net, &data).mean_loss;
        let mut pruned = magnitude_prune(&net, 0.8);
        let pruned_loss = ernn_model::trainer::evaluate_set(&pruned.net, &data).mean_loss;
        let mut opt2 = Sgd::new(0.05);
        pruned.retrain(&data, 4, &mut opt2, &mut rng);
        let retrained_loss = ernn_model::trainer::evaluate_set(&pruned.net, &data).mean_loss;
        assert!(
            retrained_loss < pruned_loss || (pruned_loss - dense_loss).abs() < 1e-3,
            "retraining did not help: dense {dense_loss} pruned {pruned_loss} retrained {retrained_loss}"
        );
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn rejects_full_sparsity() {
        let _ = magnitude_prune(&toy_net(), 1.0);
    }
}
