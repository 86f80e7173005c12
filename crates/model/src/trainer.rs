//! Sequence-level training driver.
//!
//! Both the dense pre-training pass ("Pretrained model" in the paper's
//! Fig. 6) and ADMM's first subproblem are per-utterance SGD loops; the
//! only difference is a gradient hook that ADMM uses to add its proximal
//! term `ρ(W − Z + U)` before each update. [`train_with_hook`] exposes that
//! seam.

use crate::network::RnnNetwork;
use crate::optim::Sgd;
use ernn_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled training sequence: frames and framewise targets.
pub type Sequence = (Vec<Vec<f32>>, Vec<usize>);

/// Options for the sequence-training loop. The sequence order is
/// reshuffled from the caller's rng at the start of every epoch.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Number of passes over the data set.
    pub epochs: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
}

/// Per-epoch summary returned by the training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean framewise cross-entropy over the epoch.
    pub mean_loss: f32,
    /// Mean framewise accuracy over the epoch (training data).
    pub frame_accuracy: f32,
}

/// Trains with a gradient hook invoked after backprop and before the
/// optimizer step — ADMM's injection point. The hook sees the network and
/// its mean-loss gradients, a [`RnnNetwork::zero_grads`] network holding
/// `∂L/∂θ` in each parameter's place.
///
/// Returns one [`EpochStats`] per epoch.
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn train_with_hook(
    net: &mut RnnNetwork<Matrix>,
    data: &[Sequence],
    opts: TrainOptions,
    optimizer: &mut Sgd,
    rng: &mut impl Rng,
    mut hook: impl FnMut(&RnnNetwork<Matrix>, &mut RnnNetwork<Matrix>),
) -> Vec<EpochStats> {
    assert!(!data.is_empty(), "training data must be non-empty");
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut grads = net.zero_grads();
    let mut history = Vec::with_capacity(opts.epochs);
    for _ in 0..opts.epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f64;
        let mut frames_sum = 0usize;
        for &idx in &order {
            let (frames, targets) = &data[idx];
            grads.zero();
            let (loss, n) = net.forward_backward(frames, targets, &mut grads);
            grads.scale(1.0 / n as f32);
            hook(net, &mut grads);
            let g_slices = grads.param_slices();
            let mut p_slices = net.param_slices_mut();
            optimizer.step(&mut p_slices, &g_slices);
            loss_sum += loss as f64;
            frames_sum += n;
        }
        // Epoch-end accuracy on a sample (first few sequences) to keep the
        // loop cheap.
        let sample = &data[..data.len().min(8)];
        let mut acc_sum = 0.0f32;
        for (frames, targets) in sample {
            let (_, acc) = net.evaluate(frames, targets);
            acc_sum += acc;
        }
        history.push(EpochStats {
            mean_loss: (loss_sum / frames_sum.max(1) as f64) as f32,
            frame_accuracy: acc_sum / sample.len() as f32,
        });
        let lr = optimizer.learning_rate() * opts.lr_decay;
        optimizer.set_learning_rate(lr);
    }
    history
}

/// Plain dense training (no hook).
pub fn train(
    net: &mut RnnNetwork<Matrix>,
    data: &[Sequence],
    opts: TrainOptions,
    optimizer: &mut Sgd,
    rng: &mut impl Rng,
) -> Vec<EpochStats> {
    train_with_hook(net, data, opts, optimizer, rng, |_, _| {})
}

/// Mean framewise loss/accuracy over a data set.
pub fn evaluate_set<M: ernn_linalg::MatVec>(net: &RnnNetwork<M>, data: &[Sequence]) -> EpochStats {
    let mut loss_sum = 0.0f64;
    let mut acc_sum = 0.0f64;
    let mut n = 0usize;
    for (frames, targets) in data {
        let (loss, acc) = net.evaluate(frames, targets);
        loss_sum += loss as f64 * frames.len() as f64;
        acc_sum += acc as f64 * frames.len() as f64;
        n += frames.len();
    }
    EpochStats {
        mean_loss: (loss_sum / n.max(1) as f64) as f32,
        frame_accuracy: (acc_sum / n.max(1) as f64) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellType, ModelSpec, Sgd};
    use rand::SeedableRng;

    /// A learnable toy task: classify whether the running sum of the first
    /// input coordinate is positive — requires memory, solvable by tiny
    /// RNNs.
    fn toy_data(n_seqs: usize, seq_len: usize, seed: u64) -> Vec<Sequence> {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n_seqs)
            .map(|_| {
                let mut running = 0.0f32;
                let mut frames = Vec::with_capacity(seq_len);
                let mut labels = Vec::with_capacity(seq_len);
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
    fn training_reduces_loss() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
            let mut net = ModelSpec::new(cell, 2, 2).layer_dims(&[8]).build(&mut rng);
            let data = toy_data(20, 12, 1);
            let mut opt = Sgd::new(0.1);
            let stats = train(
                &mut net,
                &data,
                TrainOptions {
                    epochs: 10,
                    lr_decay: 0.85,
                },
                &mut opt,
                &mut rng,
            );
            assert!(
                stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss,
                "{cell}: {stats:?}"
            );
            assert!(
                stats.last().unwrap().frame_accuracy > 0.6,
                "{cell}: {stats:?}"
            );
        }
    }

    #[test]
    fn hook_sees_and_can_modify_grads() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[4])
            .build(&mut rng);
        let before = net.clone();
        let data = toy_data(3, 5, 3);
        let mut opt = Sgd::new(0.1);
        let mut calls = 0usize;
        train_with_hook(
            &mut net,
            &data,
            TrainOptions {
                epochs: 1,
                lr_decay: 1.0,
            },
            &mut opt,
            &mut rng,
            |_, grads| {
                calls += 1;
                grads.zero(); // zero all gradients -> no learning
            },
        );
        assert_eq!(calls, 3);
        // With zeroed grads, parameters are unchanged.
        assert_eq!(net.classifier_w, before.classifier_w);
    }

    #[test]
    fn evaluate_set_averages_over_frames() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let net = ModelSpec::new(CellType::Lstm, 2, 2)
            .layer_dims(&[4])
            .build(&mut rng);
        let data = toy_data(5, 7, 5);
        let stats = evaluate_set(&net, &data);
        assert!(stats.mean_loss > 0.0);
        assert!((0.0..=1.0).contains(&stats.frame_accuracy));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn train_rejects_empty_data() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let mut net = ModelSpec::new(CellType::Gru, 2, 2)
            .layer_dims(&[4])
            .build(&mut rng);
        let mut opt = Sgd::new(0.1);
        let opts = TrainOptions {
            epochs: 1,
            lr_decay: 1.0,
        };
        let _ = train(&mut net, &[], opts, &mut opt, &mut rng);
    }
}
