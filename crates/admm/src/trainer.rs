//! The ADMM training loop over a stacked RNN (paper Fig. 6).

use crate::constraint::CirculantConstraint;
use ernn_linalg::Matrix;
use ernn_model::trainer::{train_with_hook, EpochStats, Sequence, TrainOptions};
use ernn_model::{BlockPolicy, RnnNetwork, Sgd};
use rand::Rng;

/// Hyperparameters of the ADMM loop.
#[derive(Debug, Clone, Copy)]
pub struct AdmmConfig {
    /// Penalty parameter `ρ` of the augmented Lagrangian (per matrix).
    pub rho: f32,
    /// Multiplicative growth of `ρ` per outer iteration (≥ 1): a standard
    /// schedule that tightens the structure constraint as training settles.
    pub rho_growth: f32,
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
            rho_growth: 1.5,
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

/// Trains the compressible weight matrices of a network onto per-matrix
/// block-circulant constraint sets with ADMM.
///
/// ```no_run
/// use ernn_admm::{AdmmConfig, AdmmTrainer};
/// use ernn_model::{BlockPolicy, CellType, ModelSpec, Sgd};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut net = ModelSpec::new(CellType::Gru, 4, 3).layer_dims(&[8]).build(&mut rng);
/// let data: Vec<(Vec<Vec<f32>>, Vec<usize>)> = vec![(vec![vec![0.0; 4]; 6], vec![0; 6])];
/// let mut trainer = AdmmTrainer::new(&net, BlockPolicy::uniform(4), AdmmConfig::default());
/// let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
/// let report = trainer.run(&mut net, &data, &mut opt, &mut rng);
/// trainer.finalize(&mut net);
/// println!("residual: {}", report.final_residual());
/// ```
#[derive(Debug)]
pub struct AdmmTrainer {
    config: AdmmConfig,
    /// One constraint per compressible weight matrix (aligned with
    /// `RnnNetwork::weight_matrices`).
    constraints: Vec<CirculantConstraint>,
    /// Structured copies `Z`.
    z: Vec<Matrix>,
    /// Scaled duals `U`.
    u: Vec<Matrix>,
}

/// One block-circulant constraint per compressible weight matrix (aligned
/// with `RnnNetwork::weight_matrices`): the block size its layer's policy
/// gives its role, with 0 and 1 both leaving the matrix dense.
///
/// # Panics
///
/// Panics if `policies.len()` differs from the network's layer count.
pub fn circulant_constraints(
    net: &RnnNetwork<Matrix>,
    policies: &[BlockPolicy],
) -> Vec<CirculantConstraint> {
    assert_eq!(
        policies.len(),
        net.num_layers(),
        "need one block policy per layer"
    );
    net.weight_matrices()
        .into_iter()
        .map(|(layer, role, _)| CirculantConstraint::new(policies[layer].for_role(role).max(1)))
        .collect()
}

/// Snaps every compressible weight matrix onto its constraint set
/// (`W ← Π(W)`).
pub fn project_weights(net: &mut RnnNetwork<Matrix>, constraints: &[CirculantConstraint]) {
    for (w, c) in net.weight_matrices_mut().into_iter().zip(constraints) {
        *w = c.project(w);
    }
}

/// Trains with every weight gradient projected onto its constraint's
/// subspace, so weights that start on the constraint sets stay on them —
/// the "retrain" phase of Fig. 6, and all of C-LSTM-style direct
/// training. The weights are re-projected after training (momentum state
/// may have drifted).
pub fn train_projected(
    net: &mut RnnNetwork<Matrix>,
    data: &[Sequence],
    opts: TrainOptions,
    optimizer: &mut Sgd,
    rng: &mut impl Rng,
    constraints: &[CirculantConstraint],
) -> Vec<EpochStats> {
    let stats = train_with_hook(
        net,
        data,
        opts,
        optimizer,
        rng,
        |_net: &RnnNetwork<Matrix>, grads: &mut RnnNetwork<Matrix>| {
            for (gw, c) in grads.weight_matrices_mut().into_iter().zip(constraints) {
                *gw = c.project(gw);
            }
        },
    );
    project_weights(net, constraints);
    stats
}

impl AdmmTrainer {
    /// Builds a trainer whose constraints follow the given block policy
    /// (per weight role) on every layer, initializing `Z = Π(W)` and
    /// `U = 0`.
    pub fn new(net: &RnnNetwork<Matrix>, policy: BlockPolicy, config: AdmmConfig) -> Self {
        Self::with_layer_policies(net, &vec![policy; net.num_layers()], config)
    }

    /// Builds a trainer with one block policy per stacked layer — the
    /// granularity of the paper's Table I (e.g. block sizes "4-8" for a
    /// two-layer model).
    ///
    /// # Panics
    ///
    /// Panics if `policies.len()` differs from the network's layer count.
    pub fn with_layer_policies(
        net: &RnnNetwork<Matrix>,
        policies: &[BlockPolicy],
        config: AdmmConfig,
    ) -> Self {
        Self::with_constraints(net, circulant_constraints(net, policies), config)
    }

    /// Builds a trainer with explicit per-matrix constraints, aligned with
    /// `RnnNetwork::weight_matrices`.
    ///
    /// # Panics
    ///
    /// Panics if the constraint count differs from the network's
    /// compressible-matrix count.
    pub fn with_constraints(
        net: &RnnNetwork<Matrix>,
        constraints: Vec<CirculantConstraint>,
        config: AdmmConfig,
    ) -> Self {
        let mats = net.weight_matrices();
        assert_eq!(
            constraints.len(),
            mats.len(),
            "need one constraint per compressible matrix ({} != {})",
            constraints.len(),
            mats.len()
        );
        let z: Vec<Matrix> = mats
            .iter()
            .zip(&constraints)
            .map(|((_, _, m), c)| c.project(m))
            .collect();
        let u = mats
            .iter()
            .map(|(_, _, m)| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        AdmmTrainer {
            config,
            constraints,
            z,
            u,
        }
    }

    /// Relative primal residual `max_i ‖W_i − Z_i‖_F / ‖W_i‖_F`.
    pub fn residual(&self, net: &RnnNetwork<Matrix>) -> f32 {
        let mats = net.weight_matrices();
        let mut worst = 0.0f32;
        for ((_, _, w), z) in mats.iter().zip(&self.z) {
            let mut diff = (*w).clone();
            diff.axpy(-1.0, z);
            let denom = w.frobenius_norm().max(1e-12);
            worst = worst.max(diff.frobenius_norm() / denom);
        }
        worst
    }

    /// Runs the ADMM loop (Fig. 6): alternating subproblem-1 SGD (with the
    /// proximal gradient hook), subproblem-2 projection, and dual updates.
    pub fn run(
        &mut self,
        net: &mut RnnNetwork<Matrix>,
        data: &[Sequence],
        optimizer: &mut Sgd,
        rng: &mut impl Rng,
    ) -> AdmmReport {
        let mut report = AdmmReport::default();
        let mut rho = self.config.rho;
        for _iter in 0..self.config.iterations {
            // Subproblem 1: SGD on f(W) + (ρ/2)‖W − Z + U‖².
            let z = &self.z;
            let u = &self.u;
            let stats = train_with_hook(
                net,
                data,
                TrainOptions {
                    epochs: self.config.epochs_per_iter,
                    lr_decay: 1.0,
                },
                optimizer,
                rng,
                |net_ref: &RnnNetwork<Matrix>, grads: &mut RnnNetwork<Matrix>| {
                    let mats = net_ref.weight_matrices();
                    let g = grads.weight_matrices_mut();
                    for (((_, _, w), gw), (zi, ui)) in
                        mats.iter().zip(g).zip(z.iter().zip(u.iter()))
                    {
                        // ∇ of (ρ/2)‖W − Z + U‖² = ρ(W − Z + U).
                        gw.axpy(rho, w);
                        gw.axpy(-rho, zi);
                        gw.axpy(rho, ui);
                    }
                },
            );

            // Subproblem 2 + dual update.
            {
                let mats = net.weight_matrices_mut();
                for (i, w) in mats.into_iter().enumerate() {
                    let mut wu = w.clone();
                    wu.axpy(1.0, &self.u[i]);
                    self.z[i] = self.constraints[i].project(&wu);
                    // U += W − Z.
                    self.u[i].axpy(1.0, w);
                    self.u[i].axpy(-1.0, &self.z[i]);
                }
            }

            let residual = self.residual(net);
            report.iterations.push(AdmmIterStats {
                mean_loss: stats.last().map_or(f32::NAN, |s| s.mean_loss),
                residual,
            });
            if residual < self.config.residual_tol {
                report.converged = true;
                break;
            }
            rho *= self.config.rho_growth.max(1.0);
        }
        report
    }

    /// The whole Fig.-6 compression recipe in one call: ADMM iterations
    /// ([`Self::run`]), hard projection onto the constraint sets
    /// ([`Self::finalize`]), then `retrain_epochs` of constrained
    /// fine-tuning ([`Self::retrain_constrained`]) with `retrain_opt` —
    /// bit-identical to calling the three steps yourself.
    /// [`Recipe::compress`](crate::Recipe::compress) is this with the
    /// recipe's optimizers, followed by the block-circulant extraction.
    pub fn fit(
        &mut self,
        net: &mut RnnNetwork<Matrix>,
        data: &[Sequence],
        optimizer: &mut Sgd,
        retrain_opt: &mut Sgd,
        rng: &mut impl Rng,
    ) -> AdmmReport {
        let report = self.run(net, data, optimizer, rng);
        self.finalize(net);
        self.retrain_constrained(net, data, self.config.retrain_epochs, retrain_opt, rng);
        report
    }

    /// Constrained fine-tuning after [`Self::finalize`]
    /// ([`train_projected`] at a constant learning rate): the weights
    /// remain exactly structured — the "retrain to obtain the block
    /// circulant model" phase of Fig. 6.
    pub fn retrain_constrained(
        &self,
        net: &mut RnnNetwork<Matrix>,
        data: &[Sequence],
        epochs: usize,
        optimizer: &mut Sgd,
        rng: &mut impl Rng,
    ) {
        if epochs == 0 {
            return;
        }
        let opts = TrainOptions {
            epochs,
            lr_decay: 1.0,
        };
        train_projected(net, data, opts, optimizer, rng, &self.constraints);
    }

    /// Snaps the weights exactly onto the constraint sets (`W ← Π(W)`),
    /// making the subsequent block-circulant extraction lossless. Call
    /// after [`Self::run`].
    pub fn finalize(&self, net: &mut RnnNetwork<Matrix>) {
        project_weights(net, &self.constraints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_model::{compress_network, CellType, ModelSpec, Sgd};
    use rand::SeedableRng;

    fn toy_data(n_seqs: usize, seq_len: usize, seed: u64) -> Vec<Sequence> {
        use rand::Rng;
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

    #[test]
    fn residual_shrinks_over_iterations() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(12, 10, 11);
        // Pretrain densely first (Fig. 6 starts from a pretrained model).
        let mut opt = Sgd::new(0.1).momentum(0.9).clip_norm(5.0);
        ernn_model::trainer::train(
            &mut net,
            &data,
            TrainOptions {
                epochs: 4,
                ..TrainOptions::default()
            },
            &mut opt,
            &mut rng,
        );
        let mut trainer = AdmmTrainer::new(
            &net,
            BlockPolicy::uniform(4),
            AdmmConfig {
                rho: 0.05,
                iterations: 6,
                epochs_per_iter: 2,
                residual_tol: 1e-4,
                ..AdmmConfig::default()
            },
        );
        let first_residual = trainer.residual(&net);
        let report = trainer.run(&mut net, &data, &mut opt, &mut rng);
        assert!(!report.iterations.is_empty());
        assert!(
            report.final_residual() < first_residual,
            "residual did not shrink: {} -> {}",
            first_residual,
            report.final_residual()
        );
    }

    #[test]
    fn finalize_makes_compression_lossless() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20);
        let mut net = ModelSpec::new(CellType::Lstm, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(8, 8, 21);
        let mut opt = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
        let mut trainer = AdmmTrainer::new(
            &net,
            BlockPolicy::uniform(4),
            AdmmConfig {
                rho: 0.05,
                iterations: 3,
                epochs_per_iter: 1,
                residual_tol: 1e-6,
                ..AdmmConfig::default()
            },
        );
        trainer.run(&mut net, &data, &mut opt, &mut rng);
        trainer.finalize(&mut net);
        // After finalize the weights are exactly on the constraint set:
        // re-projection is the identity.
        for (_, _, w) in net.weight_matrices() {
            let reproj = CirculantConstraint::new(4).project(w);
            for (a, b) in w.as_slice().iter().zip(reproj.as_slice()) {
                assert!((a - b).abs() < 1e-6, "finalize must land on the manifold");
            }
        }

        let compressed = compress_network(&net, BlockPolicy::uniform(4));
        let frames = vec![vec![0.3f32, -0.1]; 5];
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
        let mut opt = Sgd::new(0.1).momentum(0.9).clip_norm(5.0);
        ernn_model::trainer::train(
            &mut net,
            &train_data,
            TrainOptions {
                epochs: 8,
                lr_decay: 0.9,
            },
            &mut opt,
            &mut rng,
        );

        // (a) naive: project the dense model directly.
        let mut naive = net.clone();
        let naive_trainer =
            AdmmTrainer::new(&naive, BlockPolicy::uniform(8), AdmmConfig::default());
        naive_trainer.finalize(&mut naive);
        let naive_acc = ernn_model::trainer::evaluate_set(&naive, &test_data).frame_accuracy;

        // (b) the full ADMM pipeline of Fig. 6: ADMM iterations, hard
        // projection, constrained retraining.
        let mut admm_net = net.clone();
        let mut opt2 = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
        let cfg = AdmmConfig {
            rho: 0.05,
            rho_growth: 1.6,
            iterations: 5,
            epochs_per_iter: 2,
            retrain_epochs: 3,
            residual_tol: 1e-5,
        };
        let mut trainer = AdmmTrainer::new(&admm_net, BlockPolicy::uniform(8), cfg);
        trainer.run(&mut admm_net, &train_data, &mut opt2, &mut rng);
        trainer.finalize(&mut admm_net);
        let mut opt3 = Sgd::new(0.05).momentum(0.9).clip_norm(5.0);
        trainer.retrain_constrained(
            &mut admm_net,
            &train_data,
            cfg.retrain_epochs,
            &mut opt3,
            &mut rng,
        );
        let admm_acc = ernn_model::trainer::evaluate_set(&admm_net, &test_data).frame_accuracy;

        assert!(
            admm_acc >= naive_acc - 0.02,
            "ADMM ({admm_acc}) should not lose to naive projection ({naive_acc})"
        );
    }

    #[test]
    fn one_policy_is_that_policy_on_every_layer() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(45);
        let policy = BlockPolicy::with_io_block(4, 8);
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = ModelSpec::new(cell, 8, 3)
                .layer_dims(&[16, 8, 16])
                .build(&mut rng);
            let one = AdmmTrainer::new(&net, policy, AdmmConfig::default());
            let per_layer =
                AdmmTrainer::with_layer_policies(&net, &[policy; 3], AdmmConfig::default());
            assert_eq!(one.z, per_layer.z, "{cell}");
            assert_eq!(one.u, per_layer.u, "{cell}");
            assert_eq!(one.constraints, per_layer.constraints, "{cell}");
            assert_eq!(one.constraints.len(), net.weight_matrices().len());
            // And it is the role's block size: Z = Π_role(W), U = 0.
            for (((_, role, w), z), u) in net.weight_matrices().iter().zip(&one.z).zip(&one.u) {
                let c = CirculantConstraint::new(policy.for_role(*role));
                assert_eq!(z, &c.project(w), "{cell}");
                assert!(u.as_slice().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one constraint per")]
    fn with_constraints_validates_count() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(50);
        let net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[4])
            .build(&mut rng);
        let _ = AdmmTrainer::with_constraints(&net, vec![], AdmmConfig::default());
    }
}
