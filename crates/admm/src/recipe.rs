//! The paper's Fig. 6 training recipe, written once: dense pre-training,
//! then ADMM iterations → hard projection → constrained retraining →
//! block-circulant extraction.
//!
//! Tables I–III, the Phase-I oracle and the lifecycle pipeline all train
//! through [`Recipe::pretrain`] and [`Recipe::compress`] with their own
//! rng, which is drawn in the order build → pre-training shuffles → ADMM
//! shuffles → retraining shuffles.

use crate::trainer::{AdmmConfig, AdmmReport, AdmmTrainer};
use ernn_linalg::{Matrix, WeightMatrix};
use ernn_model::trainer::{train, Sequence, TrainOptions};
use ernn_model::{compress_network_layers, BlockPolicy, ModelSpec, RnnNetwork, Sgd};
use rand::Rng;

/// SGD momentum of every training phase.
pub const MOMENTUM: f32 = 0.9;
/// Global gradient-norm clip of every training phase.
pub const CLIP_NORM: f32 = 2.0;
/// Per-epoch learning-rate decay of dense pre-training (the ADMM and
/// retraining phases run at a constant rate).
pub const PRETRAIN_LR_DECAY: f32 = 0.92;
/// Constrained retraining runs at this fraction of [`Recipe::admm_lr`].
pub const RETRAIN_LR_FACTOR: f32 = 0.75;

/// The settable part of the Fig. 6 recipe.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    /// Dense pre-training epochs.
    pub pretrain_epochs: usize,
    /// Initial pre-training learning rate.
    pub pretrain_lr: f32,
    /// The ADMM outer-loop schedule and the retraining epochs.
    pub admm: AdmmConfig,
    /// Subproblem-1 learning rate.
    pub admm_lr: f32,
}

impl Recipe {
    /// The recipe of the recorded experiment runs (tables, Phase I).
    pub fn full() -> Self {
        Recipe {
            pretrain_epochs: 24,
            pretrain_lr: 0.08,
            admm: AdmmConfig {
                rho: 0.05,
                rho_growth: 1.5,
                iterations: 8,
                epochs_per_iter: 2,
                retrain_epochs: 6,
                residual_tol: 1e-4,
            },
            admm_lr: 0.02,
        }
    }

    /// [`Self::full`] with the epoch counts cut for smoke runs
    /// (`--quick`).
    pub fn quick() -> Self {
        let full = Recipe::full();
        Recipe {
            pretrain_epochs: 8,
            admm: AdmmConfig {
                iterations: 3,
                epochs_per_iter: 1,
                retrain_epochs: 2,
                ..full.admm
            },
            ..full
        }
    }

    fn sgd(lr: f32) -> Sgd {
        Sgd::new(lr).momentum(MOMENTUM).clip_norm(CLIP_NORM)
    }

    /// Builds the spec's network and pre-trains it densely ("Pretrained
    /// model" in Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `data` is empty.
    pub fn pretrain(
        &self,
        spec: &ModelSpec,
        data: &[Sequence],
        rng: &mut impl Rng,
    ) -> RnnNetwork<Matrix> {
        let mut net = spec.build(rng);
        let opts = TrainOptions {
            epochs: self.pretrain_epochs,
            lr_decay: PRETRAIN_LR_DECAY,
        };
        train(
            &mut net,
            data,
            opts,
            &mut Recipe::sgd(self.pretrain_lr),
            rng,
        );
        net
    }

    /// Compresses a pre-trained network under one block policy per
    /// layer: [`AdmmTrainer::fit`], then the (lossless) block-circulant
    /// extraction. `dense` is left holding the exactly structured dense
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `policies.len()` differs from the network's layer count,
    /// a block size is not a power of two, or `data` is empty.
    pub fn compress(
        &self,
        dense: &mut RnnNetwork<Matrix>,
        policies: &[BlockPolicy],
        data: &[Sequence],
        rng: &mut impl Rng,
    ) -> (RnnNetwork<WeightMatrix>, AdmmReport) {
        let mut trainer = AdmmTrainer::with_layer_policies(dense, policies, self.admm);
        let report = trainer.fit(
            dense,
            data,
            &mut Recipe::sgd(self.admm_lr),
            &mut Recipe::sgd(self.admm_lr * RETRAIN_LR_FACTOR),
            rng,
        );
        (compress_network_layers(dense, policies), report)
    }
}

/// The lifecycle pipeline's recipe: a short pre-training pass and
/// [`AdmmConfig::default`].
impl Default for Recipe {
    fn default() -> Self {
        Recipe {
            pretrain_epochs: 8,
            admm: AdmmConfig::default(),
            ..Recipe::full()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::CirculantConstraint;
    use ernn_model::CellType;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_data(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let frames: Vec<Vec<f32>> = (0..len)
                    .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let labels = (0..len).map(|t| t % 3).collect();
                (frames, labels)
            })
            .collect()
    }

    fn bits(net: &mut RnnNetwork<Matrix>) -> Vec<Vec<u32>> {
        let slices = net.param_slices_mut();
        slices
            .iter()
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The sequence `Recipe::compress` replaced at its three call sites,
    /// chained from the primitives with its own optimizers: per-layer
    /// blocks 4-8, io block ≠ block, both cells.
    #[test]
    fn compress_equals_the_hand_chained_primitives_bit_for_bit() {
        let recipe = Recipe {
            pretrain_epochs: 2,
            admm: AdmmConfig {
                iterations: 3,
                ..Recipe::quick().admm
            },
            ..Recipe::quick()
        };
        let data = toy_data(6, 8, 1);
        let policies = [
            BlockPolicy::with_io_block(4, 8),
            BlockPolicy::with_io_block(8, 4),
        ];
        for cell in [CellType::Lstm, CellType::Gru] {
            let spec = ModelSpec::new(cell, 8, 3)
                .layer_dims(&[16, 16])
                .peephole(true);
            let dense = recipe.pretrain(&spec, &data, &mut ChaCha8Rng::seed_from_u64(2));

            let mut by_recipe = dense.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let (compressed, report) = recipe.compress(&mut by_recipe, &policies, &data, &mut rng);

            let mut by_hand = dense.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let constraints = by_hand
                .weight_matrices()
                .into_iter()
                .map(|(layer, role, _)| CirculantConstraint::new(policies[layer].for_role(role)))
                .collect();
            let mut trainer = AdmmTrainer::with_constraints(&by_hand, constraints, recipe.admm);
            let mut opt = Sgd::new(0.02).momentum(0.9).clip_norm(2.0);
            let expected_report = trainer.run(&mut by_hand, &data, &mut opt, &mut rng);
            trainer.finalize(&mut by_hand);
            let mut retrain_opt = Sgd::new(0.02 * 0.75).momentum(0.9).clip_norm(2.0);
            let epochs = recipe.admm.retrain_epochs;
            trainer.retrain_constrained(&mut by_hand, &data, epochs, &mut retrain_opt, &mut rng);
            let expected = compress_network_layers(&by_hand, &policies);

            assert_eq!(report, expected_report, "{cell}");
            assert_eq!(report.iterations.len(), 3, "{cell}: the loop ran");
            assert_ne!(bits(&mut by_recipe), bits(&mut dense.clone()), "{cell}");
            assert_eq!(bits(&mut by_recipe), bits(&mut by_hand), "{cell}");
            assert_eq!(compressed.layers(), expected.layers(), "{cell}");
            let logit_bits = |net: &RnnNetwork<WeightMatrix>| -> Vec<u32> {
                let logits = net.forward_logits(&data[0].0);
                logits.iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(logit_bits(&compressed), logit_bits(&expected), "{cell}");
        }
    }
}
