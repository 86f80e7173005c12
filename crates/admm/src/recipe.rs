//! The paper's Fig. 6 training recipe, written once: dense pre-training,
//! then ADMM iterations → hard projection → constrained retraining →
//! block-circulant extraction.
//!
//! Tables I and II (`ernn_bench::run_grid`, which also trains each row's
//! [`Recipe::control`]), the Phase-I oracle and the lifecycle pipeline
//! train through [`Recipe::pretrain`] and [`Recipe::compress`] with their
//! own rng, drawn build → pre-training → ADMM → retraining shuffles.

use crate::trainer::{admm, train_projected, AdmmConfig, AdmmReport};
use ernn_linalg::{Matrix, WeightMatrix};
use ernn_model::trainer::{train, Sequence, TrainOptions};
use ernn_model::{compress_network_layers, BlockPolicy, ModelSpec, RnnNetwork, Sgd};
use rand::Rng;

/// Multiplicative growth of ADMM's `ρ` per outer iteration.
pub const RHO_GROWTH: f32 = 1.5;
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
        train(&mut net, data, opts, &mut Sgd::new(self.pretrain_lr), rng);
        net
    }

    /// Compresses a pre-trained network under one block policy per
    /// layer: the ADMM iterations, then [`train_projected`] for the hard
    /// projection and `retrain_epochs` of constrained retraining at
    /// [`RETRAIN_LR_FACTOR`] of the ADMM learning rate, then the
    /// (lossless) block-circulant extraction. `rng` is drawn for the ADMM
    /// shuffles and then the retraining shuffles. `dense` is left holding
    /// the exactly structured dense weights.
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
        let report = admm(
            dense,
            policies,
            &self.admm,
            data,
            &mut Sgd::new(self.admm_lr),
            rng,
        );
        let retrain = TrainOptions {
            epochs: self.admm.retrain_epochs,
            lr_decay: 1.0,
        };
        let mut retrain_opt = Sgd::new(self.admm_lr * RETRAIN_LR_FACTOR);
        train_projected(dense, policies, data, retrain, &mut retrain_opt, rng);
        (compress_network_layers(dense, policies), report)
    }

    /// The equal-budget control of [`Self::compress`]: a clone of the
    /// pre-trained `dense` trained for the same epochs at the same rates,
    /// with neither the proximal term nor any projection. Each ADMM
    /// iteration's `epochs_per_iter` epochs at [`Self::admm_lr`] (one
    /// optimizer across iterations, as in the ADMM loop), then
    /// `retrain_epochs` at [`RETRAIN_LR_FACTOR`] of it, so an `rng` seeded
    /// as `compress`'s draws the same shuffles. The schedule is the
    /// configured one: an ADMM loop that converges early trains fewer
    /// epochs than its control. A compressed row's degradation is its PER
    /// minus its control's, which leaves out what the extra epochs alone
    /// would have changed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn control(
        &self,
        dense: &RnnNetwork<Matrix>,
        data: &[Sequence],
        rng: &mut impl Rng,
    ) -> RnnNetwork<Matrix> {
        let mut net = dense.clone();
        let mut opt = Sgd::new(self.admm_lr);
        for _ in 0..self.admm.iterations {
            let opts = TrainOptions {
                epochs: self.admm.epochs_per_iter,
                lr_decay: 1.0,
            };
            train(&mut net, data, opts, &mut opt, rng);
        }
        let retrain = TrainOptions {
            epochs: self.admm.retrain_epochs,
            lr_decay: 1.0,
        };
        let mut retrain_opt = Sgd::new(self.admm_lr * RETRAIN_LR_FACTOR);
        train(&mut net, data, retrain, &mut retrain_opt, rng);
        net
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
    use crate::constraint::project;
    use ernn_model::CellType;
    use rand::{RngCore, SeedableRng};
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

    /// Per-layer blocks 4-8, io block ≠ block, both cells.
    fn policies() -> [BlockPolicy; 2] {
        [
            BlockPolicy::with_io_block(4, 8),
            BlockPolicy::with_io_block(8, 4),
        ]
    }

    fn spec(cell: CellType) -> ModelSpec {
        ModelSpec::new(cell, 8, 3)
            .layer_dims(&[16, 16])
            .peephole(true)
    }

    /// `Recipe::compress` is the ADMM loop and then `train_projected` on
    /// one rng: the retraining shuffles follow the ADMM shuffles, at the
    /// recipe's learning rates.
    #[test]
    fn compress_draws_the_admm_shuffles_then_the_retrain_shuffles() {
        let recipe = Recipe {
            pretrain_epochs: 2,
            admm: AdmmConfig {
                iterations: 3,
                ..Recipe::quick().admm
            },
            ..Recipe::quick()
        };
        let data = toy_data(6, 8, 1);
        let policies = policies();
        for cell in [CellType::Lstm, CellType::Gru] {
            let dense = recipe.pretrain(&spec(cell), &data, &mut ChaCha8Rng::seed_from_u64(2));

            let mut by_recipe = dense.clone();
            let mut rng_recipe = ChaCha8Rng::seed_from_u64(3);
            let (compressed, report) =
                recipe.compress(&mut by_recipe, &policies, &data, &mut rng_recipe);

            let mut by_steps = dense.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut opt = Sgd::new(0.02);
            let expected_report = admm(
                &mut by_steps,
                &policies,
                &recipe.admm,
                &data,
                &mut opt,
                &mut rng,
            );
            let retrain = TrainOptions {
                epochs: recipe.admm.retrain_epochs,
                lr_decay: 1.0,
            };
            let mut retrain_opt = Sgd::new(0.02 * 0.75);
            train_projected(
                &mut by_steps,
                &policies,
                &data,
                retrain,
                &mut retrain_opt,
                &mut rng,
            );

            assert_eq!(report, expected_report, "{cell}");
            assert_eq!(report.iterations.len(), 3, "{cell}: the loop ran");
            assert_ne!(bits(&mut by_recipe), bits(&mut dense.clone()), "{cell}");
            assert_eq!(bits(&mut by_recipe), bits(&mut by_steps), "{cell}");
            assert_eq!(rng_recipe.next_u64(), rng.next_u64(), "{cell}: draw count");
            let expected = compress_network_layers(&by_steps, &policies);
            assert_eq!(compressed.layers(), expected.layers(), "{cell}");
        }
    }

    /// `Recipe::control` is plain `train` on `compress`'s schedule: it
    /// draws the shuffles `compress` draws, leaves `dense` alone, and
    /// trains to other weights than the compressed row's.
    #[test]
    fn control_trains_compress_s_epochs_without_the_constraint() {
        let recipe = Recipe {
            pretrain_epochs: 2,
            ..Recipe::quick()
        };
        let data = toy_data(6, 8, 1);
        for cell in [CellType::Lstm, CellType::Gru] {
            let dense = recipe.pretrain(&spec(cell), &data, &mut ChaCha8Rng::seed_from_u64(2));
            let mut rng_control = ChaCha8Rng::seed_from_u64(3);
            let control = recipe.control(&dense, &data, &mut rng_control);

            let mut by_steps = dense.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut opt = Sgd::new(0.02);
            for _ in 0..3 {
                let opts = TrainOptions {
                    epochs: 1,
                    lr_decay: 1.0,
                };
                train(&mut by_steps, &data, opts, &mut opt, &mut rng);
            }
            let retrain = TrainOptions {
                epochs: 2,
                lr_decay: 1.0,
            };
            train(
                &mut by_steps,
                &data,
                retrain,
                &mut Sgd::new(0.015),
                &mut rng,
            );
            assert_eq!(bits(&mut control.clone()), bits(&mut by_steps), "{cell}");

            let mut compressed = dense.clone();
            let mut rng_compress = ChaCha8Rng::seed_from_u64(3);
            let (_, report) =
                recipe.compress(&mut compressed, &policies(), &data, &mut rng_compress);
            assert!(!report.converged, "{cell}: the full schedule ran");
            assert_eq!(
                rng_control.next_u64(),
                rng_compress.next_u64(),
                "{cell}: draw count"
            );
            assert_ne!(bits(&mut control.clone()), bits(&mut compressed), "{cell}");
            assert_ne!(
                bits(&mut control.clone()),
                bits(&mut dense.clone()),
                "{cell}"
            );
        }
    }

    /// At zero epochs `train_projected` is one projection of each weight
    /// matrix onto its role's block size, and draws nothing.
    #[test]
    fn train_projected_at_zero_epochs_is_exactly_one_projection() {
        let policies = policies();
        for cell in [CellType::Lstm, CellType::Gru] {
            let mut net = spec(cell).build(&mut ChaCha8Rng::seed_from_u64(4));
            let mut expected = net.clone();
            let blocks: Vec<usize> = net
                .weight_matrices()
                .into_iter()
                .map(|(layer, role, _)| policies[layer].for_role(role))
                .collect();
            for (w, &b) in expected.weight_matrices_mut().into_iter().zip(&blocks) {
                *w = project(w, b);
            }
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let zero = TrainOptions {
                epochs: 0,
                lr_decay: 1.0,
            };
            let stats =
                train_projected(&mut net, &policies, &[], zero, &mut Sgd::new(0.1), &mut rng);
            assert!(stats.is_empty());
            assert_ne!(
                bits(&mut net),
                bits(&mut spec(cell).build(&mut ChaCha8Rng::seed_from_u64(4))),
                "{cell}"
            );
            assert_eq!(bits(&mut net), bits(&mut expected), "{cell}");
            assert_eq!(
                rng.next_u64(),
                ChaCha8Rng::seed_from_u64(5).next_u64(),
                "{cell}"
            );
        }
    }
}
