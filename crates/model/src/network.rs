//! Stacked RNN networks with a framewise classifier head.

use crate::cell::FloatArith;
use crate::layer::{RnnLayer, Tensor};
use crate::loss::softmax_cross_entropy;
use crate::seq::ExecScratch;
use ernn_linalg::{MatVec, Matrix};

/// Which recurrent cell the network stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellType {
    /// LSTM with optional peephole/projection (paper Eqn. 1).
    Lstm,
    /// The paper's GRU variant (Eqn. 2).
    Gru,
}

impl std::fmt::Display for CellType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellType::Lstm => write!(f, "LSTM"),
            CellType::Gru => write!(f, "GRU"),
        }
    }
}

/// A stack of RNN layers plus a dense softmax classifier producing
/// framewise phone posteriors — the acoustic-model shape used throughout
/// the paper's evaluation.
///
/// Generic over the weight representation `M`; training requires
/// `M = Matrix`, inference also runs with block-circulant weights.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnNetwork<M> {
    layers: Vec<RnnLayer<M>>,
    /// Classifier weights `(classes × top_dim)`. Kept dense: it is small
    /// and is not compressed in the paper either.
    pub classifier_w: Matrix,
    /// Classifier bias `(classes)`.
    pub classifier_b: Vec<f32>,
}

impl<M: MatVec> RnnNetwork<M> {
    /// Assembles a network from explicit parts (used by the compression
    /// pass).
    ///
    /// # Panics
    ///
    /// Panics if there is no layer, if a layer's input dimension is not the
    /// output dimension of the layer below it (the sequence walker indexes
    /// activation rows by the consumer's width, so a narrower consumer
    /// would read the wrong rows without failing), or if the classifier
    /// does not match the top layer's output dimension and the bias length.
    pub fn from_parts(
        layers: Vec<RnnLayer<M>>,
        classifier_w: Matrix,
        classifier_b: Vec<f32>,
    ) -> Self {
        for (i, pair) in layers.windows(2).enumerate() {
            assert_eq!(
                pair[1].input_dim(),
                pair[0].output_dim(),
                "layer {} input dim must equal layer {i} output dim",
                i + 1
            );
        }
        let top = layers
            .last()
            .expect("network needs at least one layer")
            .output_dim();
        assert_eq!(
            classifier_w.cols(),
            top,
            "classifier input dim must equal top layer output dim"
        );
        assert_eq!(
            classifier_w.rows(),
            classifier_b.len(),
            "classifier bias length must equal class count"
        );
        RnnNetwork {
            layers,
            classifier_w,
            classifier_b,
        }
    }

    /// The stacked layers.
    pub fn layers(&self) -> &[RnnLayer<M>] {
        &self.layers
    }

    /// Mutable access to the stacked layers (weight surgery: swapping a
    /// layer for a well-shaped replacement).
    pub fn layers_mut(&mut self) -> &mut [RnnLayer<M>] {
        &mut self.layers
    }

    /// Number of stacked RNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.classifier_w.rows()
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Total stored parameters (RNN layers + classifier).
    pub fn param_count(&self) -> usize {
        let rnn: usize = self.layers.iter().map(|l| l.param_count()).sum();
        rnn + self.classifier_w.rows() * self.classifier_w.cols() + self.classifier_b.len()
    }

    /// The weight matrices in list order (see [`Self::param_slices`]),
    /// each with its layer index and role — the compressible matrices ADMM
    /// constrains, one per constraint.
    pub fn weight_matrices(&self) -> Vec<(usize, WeightRole, &M)> {
        let layers = self.layers.iter().enumerate();
        let tensors = layers.flat_map(|(li, layer)| layer.tensors().map(move |t| (li, t)));
        let weights = tensors.filter_map(|(li, t)| match t {
            Tensor::Weight(role, w) => Some((li, role, w)),
            Tensor::Vector(_) => None,
        });
        weights.collect()
    }

    /// [`Self::weight_matrices`], mutably.
    pub fn weight_matrices_mut(&mut self) -> Vec<&mut M> {
        let tensors = self.layers.iter_mut().flat_map(RnnLayer::tensors_mut);
        let weights = tensors.filter_map(|t| match t {
            Tensor::Weight(_, w) => Some(w),
            Tensor::Vector(_) => None,
        });
        weights.collect()
    }

    /// The same network in another weight representation, each layer
    /// rebuilt through its `from_parts`: layer `li`'s weight matrices
    /// through `weight(li, role, w)` and every vector — biases, peepholes,
    /// then `classifier_b` — through `vector`, in list order (see
    /// [`Self::param_slices`]); the dense `classifier_w` through `head`.
    pub fn map<N: MatVec>(
        &self,
        mut weight: impl FnMut(usize, WeightRole, &M) -> N,
        mut vector: impl FnMut(&[f32]) -> Vec<f32>,
        head: impl FnOnce(&Matrix) -> Matrix,
    ) -> RnnNetwork<N> {
        let layers = self.layers.iter().enumerate();
        let layers = layers
            .map(|(li, layer)| layer.map(|role, w| weight(li, role, w), &mut vector))
            .collect();
        RnnNetwork::from_parts(layers, head(&self.classifier_w), vector(&self.classifier_b))
    }

    /// Forward pass producing framewise logits: the sequence walker
    /// ([`Self::hidden_batch_with`]) over one utterance in `f32`, then the
    /// classifier head.
    pub fn forward_logits(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut scratch = ExecScratch::new();
        let lane = std::iter::once(frames);
        self.hidden_batch_with(&FloatArith, lane, None, &[], &mut scratch, None);
        scratch
            .outputs()
            .chunks_exact(self.classifier_w.cols())
            .map(|h| {
                let mut logits = self.classifier_w.matvec(h);
                for (l, b) in logits.iter_mut().zip(self.classifier_b.iter()) {
                    *l += b;
                }
                logits
            })
            .collect()
    }

    /// Average framewise cross-entropy and accuracy on one labelled
    /// sequence (no gradients).
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != targets.len()`.
    pub fn evaluate(&self, frames: &[Vec<f32>], targets: &[usize]) -> (f32, f32) {
        assert_eq!(frames.len(), targets.len(), "frame/label length mismatch");
        let logits = self.forward_logits(frames);
        let mut loss = 0.0f32;
        let mut correct = 0usize;
        for (l, &t) in logits.iter().zip(targets.iter()) {
            loss += softmax_cross_entropy(l, t).0;
            if ernn_linalg::ops::argmax(l) == t {
                correct += 1;
            }
        }
        let n = frames.len().max(1) as f32;
        (loss / n, correct as f32 / n)
    }
}

impl RnnNetwork<Matrix> {
    /// Zero gradients: a network of this shape with every tensor zero
    /// ([`Self::map`]). Gradients are networks — each `∂L/∂θ` sits where
    /// its `θ` does — so the list and the folds over it serve both.
    pub fn zero_grads(&self) -> RnnNetwork<Matrix> {
        let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        self.map(|_, _, w| zeros(w), |v| vec![0.0; v.len()], zeros)
    }

    /// Full forward + backward on one labelled sequence.
    ///
    /// Accumulates gradients into `grads` (a [`Self::zero_grads`] network,
    /// so minibatches sum naturally) and returns `(summed loss, frame
    /// count)`.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != targets.len()` or the sequence is empty.
    pub fn forward_backward(
        &self,
        frames: &[Vec<f32>],
        targets: &[usize],
        grads: &mut RnnNetwork<Matrix>,
    ) -> (f32, usize) {
        assert_eq!(frames.len(), targets.len(), "frame/label length mismatch");
        assert!(!frames.is_empty(), "empty sequence");

        // Forward through the stack, taping what the backward pass reads.
        let (mut scratch, mut tape) = (ExecScratch::new(), Vec::new());
        let lane = std::iter::once(frames);
        self.hidden_batch_with(&FloatArith, lane, None, &[], &mut scratch, Some(&mut tape));
        let top = scratch.outputs().chunks_exact(self.classifier_w.cols());

        // Classifier + loss, building ∂L/∂h for the top layer.
        let mut loss = 0.0f32;
        let mut d_top: Vec<Vec<f32>> = Vec::with_capacity(frames.len());
        for (h, &t) in top.zip(targets.iter()) {
            let mut logits = self.classifier_w.matvec(h);
            for (l, b) in logits.iter_mut().zip(self.classifier_b.iter()) {
                *l += b;
            }
            let (l, dlogits) = softmax_cross_entropy(&logits, t);
            loss += l;
            grads.classifier_w.add_outer(1.0, &dlogits, h);
            for (b, d) in grads.classifier_b.iter_mut().zip(dlogits.iter()) {
                *b += d;
            }
            d_top.push(self.classifier_w.matvec_t(&dlogits));
        }

        // Backward through the stack.
        let mut d_seq = d_top;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            d_seq = layer.backward_seq(&tape[i], &d_seq, &mut grads.layers[i]);
        }
        (loss, frames.len())
    }

    /// Every parameter as a flat slice, in list order: each layer's
    /// tensors bottom layer first — LSTM `wx, wr, bias, p_i, p_f, p_o,
    /// wym` (absent ones skipped), GRU `wzr_x, wzr_c, bias_zr, wcx, wcc,
    /// bias_c` — then `classifier_w`, `classifier_b`. On a gradient
    /// network ([`Self::zero_grads`]) the same positions hold `∂L/∂θ`, so
    /// this and [`Self::param_slices_mut`] are what an
    /// [`Sgd`](crate::Sgd) steps, pair by pair.
    pub fn param_slices(&self) -> Vec<&[f32]> {
        let tensors = self.layers.iter().flat_map(RnnLayer::tensors);
        let mut out: Vec<&[f32]> = tensors
            .map(|t| match t {
                Tensor::Weight(_, w) => w.as_slice(),
                Tensor::Vector(v) => v,
            })
            .collect();
        out.extend([self.classifier_w.as_slice(), &self.classifier_b[..]]);
        out
    }

    /// [`Self::param_slices`], mutably.
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        let tensors = self.layers.iter_mut().flat_map(RnnLayer::tensors_mut);
        let mut out: Vec<&mut [f32]> = tensors
            .map(|t| match t {
                Tensor::Weight(_, w) => w.as_mut_slice(),
                Tensor::Vector(v) => v,
            })
            .collect();
        out.extend([self.classifier_w.as_mut_slice(), &mut self.classifier_b[..]]);
        out
    }

    /// Multiplies every parameter by `s` (a gradient network by `1/frames`
    /// for the mean loss).
    pub fn scale(&mut self, s: f32) {
        for p in self.param_slices_mut() {
            p.iter_mut().for_each(|v| *v *= s);
        }
    }

    /// Resets every parameter to zero, reusing the allocations (`× 0.0`,
    /// as [`Self::scale`]).
    pub fn zero(&mut self) {
        self.scale(0.0);
    }
}

/// The functional role of a weight matrix — Phase I's fine-tuning step
/// assigns larger block sizes to [`WeightRole::Input`] and
/// [`WeightRole::Output`] matrices, which "will not propagate from each
/// time t to the subsequent time step" (Sec. VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightRole {
    /// Consumes the layer input `x_t`.
    Input,
    /// Consumes the recurrent state.
    Recurrent,
    /// Produces the layer output (LSTM projection).
    Output,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GruLayer, ModelSpec};
    use rand::SeedableRng;

    fn tiny_net(cell: CellType, seed: u64) -> RnnNetwork<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        ModelSpec::new(cell, 4, 3)
            .layer_dims(&[5, 5])
            .peephole(true)
            .build(&mut rng)
    }

    #[test]
    fn forward_logits_shape() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = tiny_net(cell, 1);
            let frames = vec![vec![0.1f32; 4]; 7];
            let logits = net.forward_logits(&frames);
            assert_eq!(logits.len(), 7);
            assert!(logits.iter().all(|l| l.len() == 3));
        }
    }

    #[test]
    fn param_and_grad_slices_align() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let mut net = tiny_net(cell, 2);
            let grads = net.zero_grads();
            let g_slices = grads.param_slices();
            let p_slices = net.param_slices_mut();
            assert_eq!(p_slices.len(), g_slices.len(), "{cell}");
            for (p, g) in p_slices.iter().zip(g_slices.iter()) {
                assert_eq!(p.len(), g.len(), "{cell}");
            }
        }
    }

    #[test]
    fn weight_matrices_align_with_grads() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let mut net = tiny_net(cell, 3);
            let shapes = net
                .weight_matrices()
                .iter()
                .map(|(_, _, m)| (m.rows(), m.cols()))
                .collect::<Vec<_>>();
            let mut grads = net.zero_grads();
            let g = grads.weight_matrices_mut();
            assert_eq!(shapes.len(), g.len());
            for ((r, c), gm) in shapes.iter().zip(g.iter()) {
                assert_eq!((gm.rows(), gm.cols()), (*r, *c));
            }
            let w = net.weight_matrices_mut();
            assert_eq!(shapes.len(), w.len());
        }
    }

    /// Two LSTM layers with peepholes and a projection (`I = 4`, `H = 5`,
    /// `R = 3`, `C = 3`) and two GRU layers (`H = 5`): every tensor a cell
    /// owns, in the order the optimizer's momentum is laid out.
    fn listed_nets() -> [RnnNetwork<Matrix>; 2] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let lstm = ModelSpec::new(CellType::Lstm, 4, 3)
            .layer_dims(&[5, 5])
            .peephole(true)
            .projection(3)
            .build(&mut rng);
        [lstm, tiny_net(CellType::Gru, 11)]
    }

    #[test]
    fn param_slices_follow_the_hand_written_order() {
        let (i, h, r, c) = (4, 5, 3, 3);
        let lstm_layer = |i| [4 * h * i, 4 * h * r, 4 * h, h, h, h, r * h];
        let gru_layer = |i| [2 * h * i, 2 * h * h, 2 * h, h * i, h * h, h];
        let lstm = [&lstm_layer(i)[..], &lstm_layer(r), &[c * r, c]].concat();
        let gru = [&gru_layer(i)[..], &gru_layer(h), &[c * h, c]].concat();
        for (mut net, expected) in listed_nets().into_iter().zip([lstm, gru]) {
            let grads = net.zero_grads();
            let lens = |s: Vec<&[f32]>| s.iter().map(|s| s.len()).collect::<Vec<_>>();
            assert_eq!(lens(grads.param_slices()), expected);
            let p = net.param_slices_mut().into_iter().map(|s| &*s).collect();
            assert_eq!(lens(p), expected);
        }
    }

    #[test]
    fn weight_matrices_yield_layer_role_and_shape() {
        use WeightRole::{Input, Output, Recurrent};
        let (i, h, r) = (4, 5, 3);
        let lstm_layer = |li, i| {
            [
                (li, Input, 4 * h, i),
                (li, Recurrent, 4 * h, r),
                (li, Output, r, h),
            ]
        };
        let gru_layer = |li, i| {
            let (zr, c) = (2 * h, h);
            [
                (li, Input, zr, i),
                (li, Recurrent, zr, h),
                (li, Input, c, i),
                (li, Recurrent, c, h),
            ]
        };
        let lstm = [lstm_layer(0, i), lstm_layer(1, r)].concat();
        let gru = [gru_layer(0, i), gru_layer(1, h)].concat();
        for (net, expected) in listed_nets().iter().zip([lstm, gru]) {
            let listed: Vec<_> = net
                .weight_matrices()
                .into_iter()
                .map(|(li, role, w)| (li, role, w.rows(), w.cols()))
                .collect();
            assert_eq!(listed, expected);
        }
    }

    #[test]
    fn zero_grads_has_the_network_shapes_and_is_zero() {
        for net in listed_nets() {
            let grads = net.zero_grads();
            let shape = |n: &RnnNetwork<Matrix>| {
                let weights = n.weight_matrices().into_iter();
                let weights = weights.map(|(li, role, w)| (li, role, w.rows(), w.cols()));
                let dims = n.layers().iter().map(|l| (l.input_dim(), l.hidden_dim()));
                (weights.collect::<Vec<_>>(), dims.collect::<Vec<_>>())
            };
            assert_eq!(shape(&grads), shape(&net));
            let slices = grads.param_slices();
            assert_eq!(slices.len(), net.param_slices().len());
            assert!(slices
                .iter()
                .flat_map(|s| s.iter())
                .all(|&v| v.to_bits() == 0));
        }
    }

    /// Every bias / peephole vector in list order, then `classifier_b`.
    fn vectors<M: MatVec>(net: &RnnNetwork<M>) -> Vec<Vec<f32>> {
        let tensors = net.layers().iter().flat_map(RnnLayer::tensors);
        let vectors = tensors.filter_map(|t| match t {
            Tensor::Weight(..) => None,
            Tensor::Vector(v) => Some(v.to_vec()),
        });
        vectors.chain([net.classifier_b.clone()]).collect()
    }

    #[test]
    fn compress_visits_the_list_in_order() {
        use crate::{compress_network_layers, BlockPolicy};
        use ernn_linalg::{BlockCirculantMatrix, WeightMatrix};
        // A different block size per (layer, role), so a matrix compressed
        // out of order cannot land on the right block size.
        let policies = [
            BlockPolicy {
                recurrent: 2,
                input: 4,
                output: 1,
            },
            BlockPolicy {
                recurrent: 4,
                input: 1,
                output: 2,
            },
        ];
        for net in listed_nets() {
            let compressed = compress_network_layers(&net, &policies);
            let (dense, packed) = (net.weight_matrices(), compressed.weight_matrices());
            assert_eq!(dense.len(), packed.len());
            for ((li, role, w), (cli, crole, cw)) in dense.into_iter().zip(packed) {
                assert_eq!((cli, crole), (li, role));
                let block = policies[li].for_role(role);
                assert_eq!(cw.block_size(), block);
                let expected = match block {
                    1 => WeightMatrix::Dense(w.clone()),
                    _ => WeightMatrix::Circulant(BlockCirculantMatrix::project_dense(w, block)),
                };
                assert_eq!(*cw, expected);
            }
            assert_eq!(vectors(&compressed), vectors(&net));
            assert_eq!(compressed.classifier_w, net.classifier_w);
        }
    }

    #[test]
    fn network_gradients_match_finite_difference() {
        // End-to-end gradient check through two stacked layers and the
        // classifier.
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = tiny_net(cell, 4);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
            use rand::Rng;
            let frames: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let targets = vec![0usize, 2, 1, 2];
            let mut grads = net.zero_grads();
            net.forward_backward(&frames, &targets, &mut grads);

            let loss_of = |n: &RnnNetwork<Matrix>| -> f32 {
                let logits = n.forward_logits(&frames);
                logits
                    .iter()
                    .zip(targets.iter())
                    .map(|(l, &t)| softmax_cross_entropy(l, t).0)
                    .sum()
            };

            // Check classifier weight and first-layer weight entries.
            let eps = 1e-2f32;
            let mut p = net.clone();
            for idx in [0usize, 5, 11] {
                let orig = p.classifier_w.as_slice()[idx];
                p.classifier_w.as_mut_slice()[idx] = orig + eps;
                let lp = loss_of(&p);
                p.classifier_w.as_mut_slice()[idx] = orig - eps;
                let lm = loss_of(&p);
                p.classifier_w.as_mut_slice()[idx] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads.classifier_w.as_slice()[idx];
                assert!(
                    (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
                    "{cell} classifier[{idx}]: fd={fd} an={an}"
                );
            }
            {
                // First weight matrix of the first layer.
                let orig = p.weight_matrices_mut()[0].as_slice()[3];
                p.weight_matrices_mut()[0].as_mut_slice()[3] = orig + eps;
                let lp = loss_of(&p);
                p.weight_matrices_mut()[0].as_mut_slice()[3] = orig - eps;
                let lm = loss_of(&p);
                p.weight_matrices_mut()[0].as_mut_slice()[3] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads.weight_matrices_mut()[0].as_slice()[3];
                assert!(
                    (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
                    "{cell} layer0 w[3]: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn evaluate_reports_loss_and_accuracy() {
        let net = tiny_net(CellType::Gru, 5);
        let frames = vec![vec![0.0f32; 4]; 10];
        let targets = vec![1usize; 10];
        let (loss, acc) = net.evaluate(&frames, &targets);
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn builder_projection_chains_layer_dims() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let net = ModelSpec::new(CellType::Lstm, 8, 5)
            .layer_dims(&[16, 16])
            .projection(8)
            .build(&mut rng);
        // Second layer consumes the first layer's projected output.
        assert_eq!(net.layers()[1].input_dim(), 8);
        assert_eq!(net.classifier_w.cols(), 8);
    }

    #[test]
    #[should_panic(expected = "layer 1 input dim must equal layer 0 output dim")]
    fn from_parts_rejects_a_layer_that_does_not_read_what_the_one_below_writes() {
        // Narrower than its producer: every row index the walker computes
        // stays in bounds, so nothing else would stop this.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let layers = vec![
            RnnLayer::Gru(GruLayer::new_dense(4, 8, &mut rng)),
            RnnLayer::Gru(GruLayer::new_dense(6, 5, &mut rng)),
        ];
        let _ = RnnNetwork::from_parts(layers, Matrix::zeros(3, 5), vec![0.0; 3]);
    }

    #[test]
    fn grads_scale_and_zero() {
        let net = tiny_net(CellType::Lstm, 7);
        let mut grads = net.zero_grads();
        let frames = vec![vec![0.5f32; 4]; 3];
        net.forward_backward(&frames, &[0, 1, 2], &mut grads);
        let norm_before: f32 = grads
            .param_slices()
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v * v)
            .sum();
        assert!(norm_before > 0.0);
        grads.zero();
        let norm_after: f32 = grads
            .param_slices()
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v * v)
            .sum();
        assert_eq!(norm_after, 0.0);
    }
}
