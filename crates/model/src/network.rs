//! Stacked RNN networks with a framewise classifier head.

use crate::cell::FloatArith;
use crate::layer::{LayerGrads, RnnLayer};
use crate::loss::softmax_cross_entropy;
use crate::lstm::{LstmConfig, LstmLayer, ParamCount};
use crate::seq::ExecScratch;
use crate::{Act, GruLayer};
use ernn_linalg::{MatVec, Matrix};
use rand::Rng;

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

/// Gradients shaped like an [`RnnNetwork<Matrix>`].
#[derive(Debug, Clone)]
pub struct NetworkGrads {
    /// Per-layer gradients.
    pub layers: Vec<LayerGrads>,
    /// Classifier weight gradient.
    pub classifier_w: Matrix,
    /// Classifier bias gradient.
    pub classifier_b: Vec<f32>,
}

/// Builder for [`RnnNetwork`] (dense representation).
///
/// ```
/// use ernn_model::{NetworkBuilder, CellType};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let net = NetworkBuilder::new(CellType::Lstm, 26, 20)
///     .layer_dims(&[64, 64])
///     .peephole(true)
///     .projection(32)
///     .build(&mut rng);
/// assert_eq!(net.num_layers(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    cell: CellType,
    input_dim: usize,
    classes: usize,
    layer_dims: Vec<usize>,
    peephole: bool,
    projection: Option<usize>,
    cell_activation: Act,
}

impl NetworkBuilder {
    /// Starts a builder for a network mapping `input_dim` features to
    /// `classes` framewise posteriors.
    pub fn new(cell: CellType, input_dim: usize, classes: usize) -> Self {
        NetworkBuilder {
            cell,
            input_dim,
            classes,
            layer_dims: vec![128],
            peephole: false,
            projection: None,
            cell_activation: Act::Tanh,
        }
    }

    /// Hidden dimension of each stacked layer (the paper's "layer size",
    /// e.g. `256-256-256`).
    pub fn layer_dims(mut self, dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "need at least one layer");
        self.layer_dims = dims.to_vec();
        self
    }

    /// Enables LSTM peephole connections (ignored for GRU).
    pub fn peephole(mut self, on: bool) -> Self {
        self.peephole = on;
        self
    }

    /// Enables an LSTM recurrent projection of the given dimension
    /// (ignored for GRU).
    pub fn projection(mut self, dim: usize) -> Self {
        self.projection = Some(dim);
        self
    }

    /// Sets the cell-input activation (Eqn. 1c); see [`Act`].
    pub fn cell_activation(mut self, act: Act) -> Self {
        self.cell_activation = act;
        self
    }

    /// Instantiates the dense network with seeded random initialization.
    pub fn build(&self, rng: &mut impl Rng) -> RnnNetwork<Matrix> {
        let mut layers = Vec::with_capacity(self.layer_dims.len());
        let mut in_dim = self.input_dim;
        for &h in &self.layer_dims {
            let layer = match self.cell {
                CellType::Lstm => {
                    let out = self.projection.map_or(h, |p| p.min(h));
                    let cfg = LstmConfig {
                        input_dim: in_dim,
                        hidden_dim: h,
                        output_dim: out,
                        peephole: self.peephole,
                        cell_activation: self.cell_activation,
                    };
                    RnnLayer::Lstm(LstmLayer::new_dense(cfg, rng))
                }
                CellType::Gru => RnnLayer::Gru(GruLayer::new_dense(in_dim, h, rng)),
            };
            in_dim = layer.output_dim();
            layers.push(layer);
        }
        RnnNetwork {
            layers,
            classifier_w: Matrix::xavier(self.classes, in_dim, rng),
            classifier_b: vec![0.0; self.classes],
        }
    }
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

    /// Mutable access to the stacked layers (weight surgery: quantization
    /// rewrites, serving-side weight-cache refreshes).
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
    pub fn param_count(&self) -> usize
    where
        M: ParamCount,
    {
        let rnn: usize = self.layers.iter().map(|l| l.param_count()).sum();
        rnn + self.classifier_w.rows() * self.classifier_w.cols() + self.classifier_b.len()
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
    /// Zero gradients shaped like this network.
    pub fn zero_grads(&self) -> NetworkGrads {
        NetworkGrads {
            layers: self.layers.iter().map(|l| l.zero_grads()).collect(),
            classifier_w: Matrix::zeros(self.classifier_w.rows(), self.classifier_w.cols()),
            classifier_b: vec![0.0; self.classifier_b.len()],
        }
    }

    /// Full forward + backward on one labelled sequence.
    ///
    /// Accumulates gradients into `grads` (so minibatches sum naturally)
    /// and returns `(summed loss, frame count)`.
    ///
    /// # Panics
    ///
    /// Panics if `frames.len() != targets.len()` or the sequence is empty.
    pub fn forward_backward(
        &self,
        frames: &[Vec<f32>],
        targets: &[usize],
        grads: &mut NetworkGrads,
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

    /// All trainable parameters as mutable slices, in a stable order that
    /// matches [`NetworkGrads::slices`]. Optimizers iterate these pairs.
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out: Vec<&mut [f32]> = Vec::new();
        for layer in &mut self.layers {
            match layer {
                RnnLayer::Lstm(l) => {
                    out.push(l.wx.as_mut_slice());
                    out.push(l.wr.as_mut_slice());
                    out.push(l.bias.as_mut_slice());
                    if let Some(peeps) = &mut l.peepholes {
                        for p in peeps.iter_mut() {
                            out.push(p.as_mut_slice());
                        }
                    }
                    if let Some(w) = &mut l.wym {
                        out.push(w.as_mut_slice());
                    }
                }
                RnnLayer::Gru(g) => {
                    out.push(g.wzr_x.as_mut_slice());
                    out.push(g.wzr_c.as_mut_slice());
                    out.push(g.bias_zr.as_mut_slice());
                    out.push(g.wcx.as_mut_slice());
                    out.push(g.wcc.as_mut_slice());
                    out.push(g.bias_c.as_mut_slice());
                }
            }
        }
        out.push(self.classifier_w.as_mut_slice());
        out.push(self.classifier_b.as_mut_slice());
        out
    }

    /// The compressible weight matrices with stable names and roles, for
    /// ADMM and analysis. Order matches
    /// [`Self::weight_matrices_mut`] and
    /// [`NetworkGrads::weight_matrices_mut`].
    pub fn weight_matrices(&self) -> Vec<(String, WeightRole, &Matrix)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                RnnLayer::Lstm(l) => {
                    out.push((format!("layer{i}.wx"), WeightRole::Input, &l.wx));
                    out.push((format!("layer{i}.wr"), WeightRole::Recurrent, &l.wr));
                    if let Some(w) = &l.wym {
                        out.push((format!("layer{i}.wym"), WeightRole::Output, w));
                    }
                }
                RnnLayer::Gru(g) => {
                    out.push((format!("layer{i}.wzr_x"), WeightRole::Input, &g.wzr_x));
                    out.push((format!("layer{i}.wzr_c"), WeightRole::Recurrent, &g.wzr_c));
                    out.push((format!("layer{i}.wcx"), WeightRole::Input, &g.wcx));
                    out.push((format!("layer{i}.wcc"), WeightRole::Recurrent, &g.wcc));
                }
            }
        }
        out
    }

    /// The stacked-layer index of each compressible weight matrix, aligned
    /// with [`Self::weight_matrices`] — used for per-layer block-size
    /// policies (the paper's Table I assigns block sizes per layer, e.g.
    /// "4-8" for a two-layer model).
    pub fn weight_layer_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let count = match layer {
                RnnLayer::Lstm(l) => 2 + usize::from(l.wym.is_some()),
                RnnLayer::Gru(_) => 4,
            };
            out.extend(std::iter::repeat_n(i, count));
        }
        out
    }

    /// Mutable access to the compressible weight matrices (same order as
    /// [`Self::weight_matrices`]).
    pub fn weight_matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for layer in &mut self.layers {
            match layer {
                RnnLayer::Lstm(l) => {
                    out.push(&mut l.wx);
                    out.push(&mut l.wr);
                    if let Some(w) = &mut l.wym {
                        out.push(w);
                    }
                }
                RnnLayer::Gru(g) => {
                    out.push(&mut g.wzr_x);
                    out.push(&mut g.wzr_c);
                    out.push(&mut g.wcx);
                    out.push(&mut g.wcc);
                }
            }
        }
        out
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

impl NetworkGrads {
    /// Gradient slices in the order of
    /// [`RnnNetwork::param_slices_mut`].
    pub fn slices(&self) -> Vec<&[f32]> {
        let mut out: Vec<&[f32]> = Vec::new();
        for layer in &self.layers {
            match layer {
                LayerGrads::Lstm(g) => {
                    out.push(g.wx.as_slice());
                    out.push(g.wr.as_slice());
                    out.push(g.bias.as_slice());
                    if let Some(peeps) = &g.peepholes {
                        for p in peeps.iter() {
                            out.push(p.as_slice());
                        }
                    }
                    if let Some(w) = &g.wym {
                        out.push(w.as_slice());
                    }
                }
                LayerGrads::Gru(g) => {
                    out.push(g.wzr_x.as_slice());
                    out.push(g.wzr_c.as_slice());
                    out.push(g.bias_zr.as_slice());
                    out.push(g.wcx.as_slice());
                    out.push(g.wcc.as_slice());
                    out.push(g.bias_c.as_slice());
                }
            }
        }
        out.push(self.classifier_w.as_slice());
        out.push(self.classifier_b.as_slice());
        out
    }

    /// Mutable weight-matrix gradients in the order of
    /// [`RnnNetwork::weight_matrices`] — the hook ADMM uses to add its
    /// proximal term.
    pub fn weight_matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::new();
        for layer in &mut self.layers {
            match layer {
                LayerGrads::Lstm(g) => {
                    out.push(&mut g.wx);
                    out.push(&mut g.wr);
                    if let Some(w) = &mut g.wym {
                        out.push(w);
                    }
                }
                LayerGrads::Gru(g) => {
                    out.push(&mut g.wzr_x);
                    out.push(&mut g.wzr_c);
                    out.push(&mut g.wcx);
                    out.push(&mut g.wcc);
                }
            }
        }
        out
    }

    /// Scales every gradient by `s` (e.g. `1/frames` for mean loss).
    pub fn scale(&mut self, s: f32) {
        for layer in &mut self.layers {
            match layer {
                LayerGrads::Lstm(g) => {
                    g.wx.scale(s);
                    g.wr.scale(s);
                    g.bias.iter_mut().for_each(|v| *v *= s);
                    if let Some(peeps) = &mut g.peepholes {
                        for p in peeps.iter_mut() {
                            p.iter_mut().for_each(|v| *v *= s);
                        }
                    }
                    if let Some(w) = &mut g.wym {
                        w.scale(s);
                    }
                }
                LayerGrads::Gru(g) => {
                    g.wzr_x.scale(s);
                    g.wzr_c.scale(s);
                    g.bias_zr.iter_mut().for_each(|v| *v *= s);
                    g.wcx.scale(s);
                    g.wcc.scale(s);
                    g.bias_c.iter_mut().for_each(|v| *v *= s);
                }
            }
        }
        self.classifier_w.scale(s);
        self.classifier_b.iter_mut().for_each(|v| *v *= s);
    }

    /// Resets all gradients to zero (reusing allocations).
    pub fn zero(&mut self) {
        self.scale(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_net(cell: CellType, seed: u64) -> RnnNetwork<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        NetworkBuilder::new(cell, 4, 3)
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
            let g_slices = grads.slices();
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
            let named = net
                .weight_matrices()
                .iter()
                .map(|(n, _, m)| (n.clone(), m.rows(), m.cols()))
                .collect::<Vec<_>>();
            let mut grads = net.zero_grads();
            let g = grads.weight_matrices_mut();
            assert_eq!(named.len(), g.len());
            for ((_, r, c), gm) in named.iter().zip(g.iter()) {
                assert_eq!((gm.rows(), gm.cols()), (*r, *c));
            }
            let w = net.weight_matrices_mut();
            assert_eq!(named.len(), w.len());
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
        let net = NetworkBuilder::new(CellType::Lstm, 8, 5)
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
            .slices()
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v * v)
            .sum();
        assert!(norm_before > 0.0);
        grads.zero();
        let norm_after: f32 = grads
            .slices()
            .iter()
            .flat_map(|s| s.iter())
            .map(|v| v * v)
            .sum();
        assert_eq!(norm_after, 0.0);
    }
}
