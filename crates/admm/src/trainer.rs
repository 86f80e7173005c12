//! The ADMM loop of Fig. 6 and the projected-training loop that follows
//! it.

use crate::constraint::{block_sizes, project, project_matrices};
use crate::recipe::RHO_GROWTH;
use ernn_linalg::Matrix;
use ernn_model::trainer::{train_with_hook, EpochStats, Sequence, TrainOptions};
use ernn_model::{BlockPolicy, RnnNetwork, Sgd};
use rand::Rng;

/// Hyperparameters of the ADMM loop.
#[derive(Debug, Clone, Copy)]
pub struct AdmmConfig {
    /// Penalty parameter `ρ` of the augmented Lagrangian (per matrix) at
    /// the first outer iteration; it grows by
    /// [`RHO_GROWTH`](crate::recipe::RHO_GROWTH) per iteration, a standard
    /// schedule that tightens the structure constraint as training settles.
    pub rho: f32,
    /// Number of ADMM outer iterations.
    pub iterations: usize,
    /// SGD epochs per subproblem-1 solve.
    pub epochs_per_iter: usize,
    /// Epochs of constrained fine-tuning after the final projection (the
    /// "retrain" phase of Fig. 6); gradients are projected onto the
    /// circulant subspace so weights stay exactly structured.
    pub retrain_epochs: usize,
    /// Convergence threshold on the relative residual `‖W − Z‖/‖W‖`.
    pub residual_tol: f32,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            rho: 0.02,
            iterations: 8,
            epochs_per_iter: 2,
            retrain_epochs: 2,
            residual_tol: 1e-3,
        }
    }
}

/// Statistics of one ADMM outer iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmIterStats {
    /// Mean training loss during subproblem 1.
    pub mean_loss: f32,
    /// Relative primal residual `‖W − Z‖_F / ‖W‖_F` (max over matrices).
    pub residual: f32,
}

/// Full record of an ADMM run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmmReport {
    /// Per-iteration statistics.
    pub iterations: Vec<AdmmIterStats>,
    /// Whether the residual tolerance was met before the iteration cap.
    pub converged: bool,
}

impl AdmmReport {
    /// Final relative residual (1.0 when no iteration ran).
    pub fn final_residual(&self) -> f32 {
        self.iterations.last().map_or(1.0, |s| s.residual)
    }
}

/// Relative primal residual `max_i ‖W_i − Z_i‖_F / ‖W_i‖_F`.
fn residual(net: &RnnNetwork<Matrix>, z: &[Matrix]) -> f32 {
    let mut worst = 0.0f32;
    for ((_, _, w), zi) in net.weight_matrices().into_iter().zip(z) {
        let mut diff = w.clone();
        diff.axpy(-1.0, zi);
        let denom = w.frobenius_norm().max(1e-12);
        worst = worst.max(diff.frobenius_norm() / denom);
    }
    worst
}

/// The ADMM outer loop of Fig. 6 over the network's compressible weight
/// matrices, each constrained to the block size its layer's policy gives
/// its role. From `Z = Π(W)` and `U = 0`, every iteration runs
/// subproblem-1 SGD on `f(W) + (ρ/2)‖W − Z + U‖²`, the subproblem-2
/// projection `Z ← Π(W + U)` and the dual update `U ← U + W − Z`, until
/// the residual meets `config.residual_tol` or the iteration cap.
/// [`Recipe::compress`](crate::Recipe::compress) is the only caller; it
/// snaps and retrains the weights afterwards with [`train_projected`].
///
/// # Panics
///
/// Panics if `policies.len()` differs from the network's layer count, a
/// block size is not a power of two, or `data` is empty.
pub(crate) fn admm(
    net: &mut RnnNetwork<Matrix>,
    policies: &[BlockPolicy],
    config: &AdmmConfig,
    data: &[Sequence],
    optimizer: &mut Sgd,
    rng: &mut impl Rng,
) -> AdmmReport {
    let blocks = block_sizes(net, policies);
    let mats = net.weight_matrices();
    let mut z: Vec<Matrix> = mats
        .iter()
        .zip(&blocks)
        .map(|((_, _, w), &b)| project(w, b))
        .collect();
    let mut u: Vec<Matrix> = mats
        .iter()
        .map(|(_, _, w)| Matrix::zeros(w.rows(), w.cols()))
        .collect();
    let mut report = AdmmReport::default();
    let mut rho = config.rho;
    for _ in 0..config.iterations {
        let opts = TrainOptions {
            epochs: config.epochs_per_iter,
            lr_decay: 1.0,
        };
        let stats = train_with_hook(net, data, opts, optimizer, rng, |net, grads| {
            let g = grads.weight_matrices_mut();
            for (((_, _, w), gw), (zi, ui)) in
                net.weight_matrices().iter().zip(g).zip(z.iter().zip(&u))
            {
                // ∇ of (ρ/2)‖W − Z + U‖² = ρ(W − Z + U).
                gw.axpy(rho, w);
                gw.axpy(-rho, zi);
                gw.axpy(rho, ui);
            }
        });

        // Subproblem 2 and the dual update.
        for (((_, _, w), &b), (zi, ui)) in net
            .weight_matrices()
            .into_iter()
            .zip(&blocks)
            .zip(z.iter_mut().zip(&mut u))
        {
            let mut wu = w.clone();
            wu.axpy(1.0, ui);
            *zi = project(&wu, b);
            ui.axpy(1.0, w);
            ui.axpy(-1.0, zi);
        }

        let residual = residual(net, &z);
        report.iterations.push(AdmmIterStats {
            mean_loss: stats.last().map_or(f32::NAN, |s| s.mean_loss),
            residual,
        });
        if residual < config.residual_tol {
            report.converged = true;
            break;
        }
        rho *= RHO_GROWTH;
    }
    report
}

/// The one projected-training loop: snaps every compressible weight
/// matrix onto the block size its layer's policy gives its role
/// (`W ← Π(W)`), trains with every weight gradient projected onto that
/// subspace, so the weights stay on it, and re-projects at the end
/// (momentum state may have drifted). At zero epochs it is the projection
/// alone. It is the "retrain" phase of Fig. 6 and all of C-LSTM-style
/// direct block-circulant training (Li et al., "Efficient RNNs using
/// structured matrices in FPGAs"), which parameterizes the weights as
/// circulant from the start; the projection of a gradient onto the
/// circulant subspace *is* the diagonal averaging, so dense BPTT with
/// projected gradients trains exactly that parameterization.
///
/// Returns one [`EpochStats`] per epoch.
///
/// # Panics
///
/// Panics if `policies.len()` differs from the network's layer count, a
/// block size is not a power of two, or `data` is empty while `opts`
/// asks for epochs.
pub fn train_projected(
    net: &mut RnnNetwork<Matrix>,
    policies: &[BlockPolicy],
    data: &[Sequence],
    opts: TrainOptions,
    optimizer: &mut Sgd,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    let blocks = block_sizes(net, policies);
    project_matrices(net, &blocks);
    if opts.epochs == 0 {
        return Vec::new();
    }
    let stats = train_with_hook(net, data, opts, optimizer, rng, |_, grads| {
        project_matrices(grads, &blocks);
    });
    project_matrices(net, &blocks);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recipe;
    use ernn_model::trainer::{evaluate_set, train};
    use ernn_model::{compress_network, CellType, ModelSpec};
    use rand::SeedableRng;

    fn toy_data(n_seqs: usize, seq_len: usize, seed: u64) -> Vec<Sequence> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n_seqs)
            .map(|_| {
                let mut running = 0.0f32;
                let mut frames = Vec::new();
                let mut labels = Vec::new();
                for _ in 0..seq_len {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    running += v;
                    frames.push(vec![v, rng.gen_range(-1.0..1.0)]);
                    labels.push(usize::from(running > 0.0));
                }
                (frames, labels)
            })
            .collect()
    }

    /// A recipe that runs only `admm` (no retraining) at `lr`.
    fn admm_only(admm: AdmmConfig, lr: f32) -> Recipe {
        Recipe {
            admm: AdmmConfig {
                retrain_epochs: 0,
                ..admm
            },
            admm_lr: lr,
            ..Recipe::default()
        }
    }

    #[test]
    fn residual_shrinks_over_iterations() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(12, 10, 11);
        // Pretrain densely first (Fig. 6 starts from a pretrained model).
        let opts = TrainOptions {
            epochs: 4,
            lr_decay: 1.0,
        };
        train(&mut net, &data, opts, &mut Sgd::new(0.1), &mut rng);
        let policies = [BlockPolicy::uniform(4)];
        let blocks = block_sizes(&net, &policies);
        let z: Vec<Matrix> = net
            .weight_matrices()
            .into_iter()
            .zip(&blocks)
            .map(|((_, _, w), &b)| project(w, b))
            .collect();
        let first_residual = residual(&net, &z);
        let recipe = admm_only(
            AdmmConfig {
                rho: 0.05,
                iterations: 6,
                epochs_per_iter: 2,
                residual_tol: 1e-4,
                ..AdmmConfig::default()
            },
            0.1,
        );
        let (_, report) = recipe.compress(&mut net, &policies, &data, &mut rng);
        assert!(!report.iterations.is_empty());
        assert!(
            report.final_residual() < first_residual,
            "residual did not shrink: {} -> {}",
            first_residual,
            report.final_residual()
        );
    }

    /// The weights are exactly on the constraint set — re-projection is
    /// the identity — and the extraction is lossless.
    fn assert_on_the_manifold(net: &RnnNetwork<Matrix>, block: usize, tol: f32, frame: [f32; 2]) {
        for (_, _, w) in net.weight_matrices() {
            let reproj = project(w, block);
            for (a, b) in w.as_slice().iter().zip(reproj.as_slice()) {
                assert!((a - b).abs() < tol, "the weights must land on the manifold");
            }
        }
        let compressed = compress_network(net, BlockPolicy::uniform(block));
        let frames = vec![frame.to_vec(); 5];
        let dense_logits = net.forward_logits(&frames);
        let comp_logits = compressed.forward_logits(&frames);
        for (a, b) in dense_logits
            .iter()
            .flatten()
            .zip(comp_logits.iter().flatten())
        {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// The projection that ends Fig. 6's ADMM phase leaves the weights
    /// exactly structured, so the extraction is lossless.
    #[test]
    fn finalize_makes_compression_lossless() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20);
        let mut net = ModelSpec::new(CellType::Lstm, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(8, 8, 21);
        let recipe = admm_only(
            AdmmConfig {
                rho: 0.05,
                iterations: 3,
                epochs_per_iter: 1,
                residual_tol: 1e-6,
                ..AdmmConfig::default()
            },
            0.05,
        );
        let policy = BlockPolicy::uniform(4);
        let (compressed, _) = recipe.compress(&mut net, &[policy], &data, &mut rng);
        assert_eq!(compressed.layers(), compress_network(&net, policy).layers());
        assert_on_the_manifold(&net, 4, 1e-6, [0.3, -0.1]);
    }

    /// C-LSTM-style direct training (`train_projected` from an untrained
    /// network) leaves the weights exactly circulant, so compression is
    /// lossless too.
    #[test]
    fn result_is_exactly_circulant() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut direct = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let opts = TrainOptions {
            epochs: 3,
            lr_decay: 1.0,
        };
        let data = toy_data(8, 8, 2);
        train_projected(
            &mut direct,
            &[BlockPolicy::uniform(4)],
            &data,
            opts,
            &mut Sgd::new(0.05),
            &mut rng,
        );
        assert_on_the_manifold(&direct, 4, 1e-5, [0.1, -0.4]);
    }

    /// C-LSTM-style direct training lowers the loss while every step stays
    /// on the manifold.
    #[test]
    fn direct_training_learns_on_the_manifold() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut net = ModelSpec::new(CellType::Lstm, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(20, 10, 4);
        let opts = TrainOptions {
            epochs: 8,
            lr_decay: 0.9,
        };
        let policies = [BlockPolicy::uniform(4)];
        let stats = train_projected(
            &mut net,
            &policies,
            &data,
            opts,
            &mut Sgd::new(0.1),
            &mut rng,
        );
        assert!(
            stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss,
            "{stats:?}"
        );
    }

    #[test]
    fn admm_preserves_task_accuracy_better_than_naive_projection() {
        // The paper's central claim for ADMM: training into the structure
        // beats projecting a trained model. Compare frame accuracy after
        // (a) hard projection of a dense model and (b) ADMM + projection.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(30);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[12])
            .build(&mut rng);
        let train_data = toy_data(24, 12, 31);
        let test_data = toy_data(8, 12, 32);
        let opts = TrainOptions {
            epochs: 8,
            lr_decay: 0.9,
        };
        train(&mut net, &train_data, opts, &mut Sgd::new(0.1), &mut rng);
        let policies = [BlockPolicy::uniform(8)];

        // (a) naive: project the dense model directly (projected training
        // at zero epochs).
        let mut naive = net.clone();
        let zero = TrainOptions {
            epochs: 0,
            lr_decay: 1.0,
        };
        let mut opt = Sgd::new(0.05);
        train_projected(&mut naive, &policies, &[], zero, &mut opt, &mut rng);
        let naive_acc = evaluate_set(&naive, &test_data).frame_accuracy;

        // (b) the full ADMM pipeline of Fig. 6: ADMM iterations, hard
        // projection, constrained retraining.
        let mut admm_net = net.clone();
        let recipe = Recipe {
            admm: AdmmConfig {
                rho: 0.05,
                iterations: 5,
                epochs_per_iter: 2,
                retrain_epochs: 3,
                residual_tol: 1e-5,
            },
            admm_lr: 0.05,
            ..Recipe::default()
        };
        recipe.compress(&mut admm_net, &policies, &train_data, &mut rng);
        let admm_acc = evaluate_set(&admm_net, &test_data).frame_accuracy;

        assert!(
            admm_acc >= naive_acc - 0.02,
            "ADMM ({admm_acc}) should not lose to naive projection ({naive_acc})"
        );
    }

    #[test]
    fn admm_is_competitive_with_direct_training() {
        // The paper's accuracy argument (Sec. VIII-B2): ADMM against
        // C-LSTM-style direct training from the same pretrained model. On
        // a toy task the gap is small; assert ADMM is not worse beyond
        // noise. The corpus-scale comparison lives in the table1 / table2
        // bench harnesses.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut pretrained = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[12])
            .build(&mut rng);
        let train_data = toy_data(24, 12, 6);
        let test_data = toy_data(12, 12, 7);
        let opts = TrainOptions {
            epochs: 6,
            lr_decay: 0.9,
        };
        train(
            &mut pretrained,
            &train_data,
            opts,
            &mut Sgd::new(0.1),
            &mut rng,
        );
        let policies = [BlockPolicy::uniform(4)];

        let mut direct = pretrained.clone();
        let opts = TrainOptions {
            epochs: 10,
            lr_decay: 0.95,
        };
        let mut opt = Sgd::new(0.05);
        train_projected(
            &mut direct,
            &policies,
            &train_data,
            opts,
            &mut opt,
            &mut rng,
        );
        let direct_acc = evaluate_set(&direct, &test_data).frame_accuracy;

        // The Fig. 6 ADMM pipeline with the same total epoch budget.
        let mut admm_net = pretrained.clone();
        let recipe = Recipe {
            admm: AdmmConfig {
                rho: 0.05,
                iterations: 4,
                epochs_per_iter: 2,
                retrain_epochs: 2,
                residual_tol: 1e-5,
            },
            admm_lr: 0.05,
            ..Recipe::default()
        };
        recipe.compress(&mut admm_net, &policies, &train_data, &mut rng);
        let admm_acc = evaluate_set(&admm_net, &test_data).frame_accuracy;
        assert!(
            admm_acc >= direct_acc - 0.10,
            "ADMM {admm_acc} vs direct {direct_acc}"
        );
    }
}
