//! C-LSTM-style direct circulant training, tested against ADMM.
//!
//! C-LSTM (Wang et al., FPGA'18) trains the block-circulant weights
//! *directly*: the model is parameterized by the defining vectors and
//! gradients are accumulated along the circulant diagonals. There are no
//! auxiliary/dual variables, so the optimization must navigate the
//! constrained manifold from the start. The E-RNN paper argues ADMM's
//! relaxation reaches better minima ("ADMM-based training provides an
//! effective means to deal with the structure requirement ... enhancing
//! accuracy and training speed"), which is the accuracy delta of Table III
//! (0.14% vs 0.32% at block 8). `ernn_admm::train_projected` is that
//! training: weights hard-projected onto the manifold (C-LSTM initializes
//! the circulant parameters from the pretrained dense weights the same
//! way), then dense BPTT with every gradient projected onto it.

#[cfg(test)]
mod tests {
    use ernn_admm::{train_projected, AdmmConfig, Recipe};
    use ernn_linalg::{BlockCirculantMatrix, Matrix};
    use ernn_model::trainer::{evaluate_set, train, Sequence, TrainOptions};
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec, RnnNetwork, Sgd};
    use rand::{Rng, SeedableRng};

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

    /// C-LSTM-style direct training: [`train_projected`] with one policy
    /// on every layer.
    fn train_direct(
        net: &mut RnnNetwork<Matrix>,
        policy: BlockPolicy,
        data: &[Sequence],
        opts: TrainOptions,
        lr: f32,
        rng: &mut impl Rng,
    ) -> Vec<ernn_model::trainer::EpochStats> {
        let policies = vec![policy; net.num_layers()];
        train_projected(net, &policies, data, opts, &mut Sgd::new(lr), rng)
    }

    #[test]
    fn result_is_exactly_circulant() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[8])
            .build(&mut rng);
        let data = toy_data(8, 8, 2);
        let opts = TrainOptions {
            epochs: 3,
            lr_decay: 1.0,
        };
        train_direct(
            &mut net,
            BlockPolicy::uniform(4),
            &data,
            opts,
            0.05,
            &mut rng,
        );
        for (_, _, w) in net.weight_matrices() {
            let p = BlockCirculantMatrix::project_dense(w, 4).to_dense();
            for (a, b) in w.as_slice().iter().zip(p.as_slice()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        // Lossless compression follows.
        let compressed = compress_network(&net, BlockPolicy::uniform(4));
        let frames = vec![vec![0.1f32, -0.4]; 5];
        for (a, b) in net
            .forward_logits(&frames)
            .iter()
            .flatten()
            .zip(compressed.forward_logits(&frames).iter().flatten())
        {
            assert!((a - b).abs() < 1e-3);
        }
    }

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
        let stats = train_direct(
            &mut net,
            BlockPolicy::uniform(4),
            &data,
            opts,
            0.1,
            &mut rng,
        );
        assert!(
            stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss,
            "{stats:?}"
        );
    }

    #[test]
    fn admm_is_competitive_with_direct_training() {
        // The paper's accuracy argument (Sec. VIII-B2). On a toy task the
        // gap is small; assert ADMM is not worse beyond noise.
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

        // C-LSTM-style.
        let mut direct = pretrained.clone();
        let opts = TrainOptions {
            epochs: 10,
            lr_decay: 0.95,
        };
        let policy = BlockPolicy::uniform(4);
        train_direct(&mut direct, policy, &train_data, opts, 0.05, &mut rng);
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
        recipe.compress(&mut admm_net, &[policy], &train_data, &mut rng);
        let admm_acc = evaluate_set(&admm_net, &test_data).frame_accuracy;

        // On a toy task both land close; the corpus-scale comparison
        // (where ADMM's advantage shows, per the paper) lives in the
        // table1/table2 bench harnesses.
        assert!(
            admm_acc >= direct_acc - 0.10,
            "ADMM {admm_acc} vs direct {direct_acc}"
        );
    }
}
