//! The LSTM cell of paper Eqn. 1 (Sak et al. architecture, Fig. 3a).
//!
//! Gate pre-activations are computed with two fused matvecs, exactly the
//! structure the paper exploits on hardware (Sec. II-A: "the four gate/cell
//! matrices can be concatenated and calculated through one matrix-vector
//! multiplication as `W_(ifco)(xr)·[xᵀ, yᵀ₋₁]ᵀ`"): `wx` stacks the four
//! input matrices `(i, f, g, o)` and `wr` the four recurrent matrices.
//! Peephole connections are diagonal (stored as vectors, applied with `⊙`)
//! and the optional projection `W_ym` maps the cell output `m_t` to the
//! lower-dimensional recurrent output `y_t` (Eqn. 1g).

use crate::activation::Act;
use crate::cell::{CellArith, FloatArith, LstmScratch};
use crate::layer::Tensor;
use crate::network::WeightRole;
use crate::seq::LayerTape;
use ernn_linalg::ops::hadamard_acc;
use ernn_linalg::{MatVec, Matrix};
use rand::Rng;

/// Static configuration of one LSTM layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmConfig {
    /// Input dimension `|x_t|`.
    pub input_dim: usize,
    /// Hidden (cell) dimension `|c_t|` — the paper's "layer size".
    pub hidden_dim: usize,
    /// Recurrent output dimension `|y_t|`; equals `hidden_dim` unless a
    /// projection layer is present (paper Table I uses projection 512 for
    /// the 1024 models).
    pub output_dim: usize,
    /// Whether the diagonal peephole connections of Eqn. 1a/1b/1e exist.
    pub peephole: bool,
}

impl LstmConfig {
    /// A plain LSTM: no projection (`output_dim == hidden_dim`), no
    /// peepholes.
    pub fn simple(input_dim: usize, hidden_dim: usize) -> Self {
        LstmConfig {
            input_dim,
            hidden_dim,
            output_dim: hidden_dim,
            peephole: false,
        }
    }

    /// Whether a projection matrix `W_ym` is present.
    pub fn has_projection(&self) -> bool {
        self.output_dim != self.hidden_dim
    }
}

/// One LSTM layer, generic over the weight representation.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmLayer<M> {
    cfg: LstmConfig,
    /// Fused input weights `(4H × I)`, gate order `i, f, g, o`.
    pub wx: M,
    /// Fused recurrent weights `(4H × R)`.
    pub wr: M,
    /// Gate biases `(4H)`.
    pub bias: Vec<f32>,
    /// Peephole vectors `(p_i, p_f, p_o)`, present iff `cfg.peephole`.
    pub peepholes: Option<[Vec<f32>; 3]>,
    /// Projection `W_ym (R × H)`, present iff `cfg.has_projection()`.
    pub wym: Option<M>,
}

impl<M: MatVec> LstmLayer<M> {
    /// Assembles a layer from explicit parts (used by the compression pass
    /// to rebuild a layer with block-circulant weights).
    ///
    /// # Panics
    ///
    /// Panics if any tensor shape disagrees with `cfg`.
    pub fn from_parts(
        cfg: LstmConfig,
        wx: M,
        wr: M,
        bias: Vec<f32>,
        peepholes: Option<[Vec<f32>; 3]>,
        wym: Option<M>,
    ) -> Self {
        let h = cfg.hidden_dim;
        assert_eq!((wx.rows(), wx.cols()), (4 * h, cfg.input_dim), "wx shape");
        assert_eq!((wr.rows(), wr.cols()), (4 * h, cfg.output_dim), "wr shape");
        assert_eq!(bias.len(), 4 * h, "bias length");
        assert_eq!(cfg.peephole, peepholes.is_some(), "peephole presence");
        if let Some(p) = &peepholes {
            assert!(p.iter().all(|v| v.len() == h), "peephole length");
        }
        assert_eq!(cfg.has_projection(), wym.is_some(), "projection presence");
        if let Some(w) = &wym {
            assert_eq!((w.rows(), w.cols()), (cfg.output_dim, h), "wym shape");
        }
        LstmLayer {
            cfg,
            wx,
            wr,
            bias,
            peepholes,
            wym,
        }
    }

    /// Layer configuration.
    pub fn config(&self) -> &LstmConfig {
        &self.cfg
    }

    /// The tensors in list order: `wx, wr, bias, p_i, p_f, p_o, wym`
    /// (see [`RnnLayer::tensors`](crate::RnnLayer::tensors)).
    pub(crate) fn tensors(&self) -> impl Iterator<Item = Tensor<&M, &[f32]>> {
        let peepholes = self.peepholes.iter().flatten();
        [
            Tensor::Weight(WeightRole::Input, &self.wx),
            Tensor::Weight(WeightRole::Recurrent, &self.wr),
            Tensor::Vector(&self.bias[..]),
        ]
        .into_iter()
        .chain(peepholes.map(|p| Tensor::Vector(&p[..])))
        .chain(
            self.wym
                .iter()
                .map(|w| Tensor::Weight(WeightRole::Output, w)),
        )
    }

    /// [`Self::tensors`], mutably.
    pub(crate) fn tensors_mut(&mut self) -> impl Iterator<Item = Tensor<&mut M, &mut [f32]>> {
        let LstmLayer {
            wx,
            wr,
            bias,
            peepholes,
            wym,
            ..
        } = self;
        [
            Tensor::Weight(WeightRole::Input, wx),
            Tensor::Weight(WeightRole::Recurrent, wr),
            Tensor::Vector(&mut bias[..]),
        ]
        .into_iter()
        .chain(
            peepholes
                .iter_mut()
                .flatten()
                .map(|p| Tensor::Vector(&mut p[..])),
        )
        .chain(
            wym.iter_mut()
                .map(|w| Tensor::Weight(WeightRole::Output, w)),
        )
    }

    /// This layer through [`Self::from_parts`], each tensor mapped in
    /// [`Self::tensors`] order (see
    /// [`RnnLayer::map`](crate::RnnLayer::map)).
    pub(crate) fn map<N: MatVec>(
        &self,
        mut weight: impl FnMut(WeightRole, &M) -> N,
        mut vector: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> LstmLayer<N> {
        LstmLayer::from_parts(
            self.cfg,
            weight(WeightRole::Input, &self.wx),
            weight(WeightRole::Recurrent, &self.wr),
            vector(&self.bias),
            self.peepholes
                .as_ref()
                .map(|p| p.each_ref().map(|v| vector(v))),
            self.wym.as_ref().map(|w| weight(WeightRole::Output, w)),
        )
    }

    /// One timestep of Eqn. 1 in `f32` for `batch` independent states at
    /// once, over flat `batch × dim` buffers:
    /// [`Self::step_batch_with`] at the float arithmetic. Every lane's
    /// result is bit-identical to a batch of one.
    ///
    /// Allocation-free once `scratch` has grown to this shape and batch.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with `batch` and the config.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch_into(
        &self,
        xs: &[f32],
        c_prev: &[f32],
        y_prev: &[f32],
        c_next: &mut [f32],
        y_next: &mut [f32],
        batch: usize,
        scratch: &mut LstmScratch,
    ) {
        self.step_batch_with(
            &FloatArith,
            xs,
            c_prev,
            y_prev,
            c_next,
            y_next,
            batch,
            scratch,
        );
    }

    /// Eqn. 1, the one definition: a timestep for `batch` independent
    /// states over flat `batch × dim` buffers, evaluated in `arith`. The
    /// two gate matvecs are batch-fused (block-circulant weights stream
    /// their cached spectra once per batch, see
    /// [`matvec_batch_into`](ernn_linalg::MatVec::matvec_batch_into)); the
    /// gate math is whole-plane passes, one operator at a time, so every
    /// loop is straight-line per element and the activation units see
    /// contiguous gate planes.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with `batch` and the config.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch_with<A: CellArith>(
        &self,
        arith: &A,
        xs: &[f32],
        c_prev: &[f32],
        y_prev: &[f32],
        c_next: &mut [f32],
        y_next: &mut [f32],
        batch: usize,
        scratch: &mut LstmScratch,
    ) {
        let h = self.cfg.hidden_dim;
        let r = self.cfg.output_dim;
        assert_eq!(
            xs.len(),
            batch * self.cfg.input_dim,
            "input dimension mismatch"
        );
        assert_eq!(c_prev.len(), batch * h, "cell state dimension mismatch");
        assert_eq!(y_prev.len(), batch * r, "output dimension mismatch");
        assert_eq!(
            c_next.len(),
            batch * h,
            "next cell state dimension mismatch"
        );
        assert_eq!(y_next.len(), batch * r, "next output dimension mismatch");

        let LstmScratch {
            pre,
            rec,
            tanh_c,
            m,
            mv,
            ..
        } = scratch;
        pre.resize(batch * 4 * h, 0.0);
        rec.resize(batch * 4 * h, 0.0);
        tanh_c.resize(batch * h, 0.0);
        m.resize(batch * h, 0.0);

        // Fused pre-activations: W_(ifgo)x · x + W_(ifgo)r · y_{t-1} + b.
        self.wx.matvec_batch_into(xs, pre, batch, mv);
        self.wr.matvec_batch_into(y_prev, rec, batch, mv);
        arith.accumulate(pre, rec, &self.bias);
        for b in 0..batch {
            let c_prev = &c_prev[b * h..(b + 1) * h];
            let c = &mut c_next[b * h..(b + 1) * h];
            let tanh_c = &mut tanh_c[b * h..(b + 1) * h];
            let m = &mut m[b * h..(b + 1) * h];
            let (gates_if, rest) = pre[b * 4 * h..(b + 1) * 4 * h].split_at_mut(2 * h);
            let (g_cell, o_gate) = rest.split_at_mut(h);

            // Peepholes on i and f read c_{t-1} (Eqn. 1a/1b).
            if let Some([pi, pf, _]) = &self.peepholes {
                let (i_gate, f_gate) = gates_if.split_at_mut(h);
                arith.peephole(i_gate, pi, c_prev);
                arith.peephole(f_gate, pf, c_prev);
            }
            arith.sigmoid(gates_if);
            arith.activate(Act::Tanh, g_cell);

            // c_t = f ⊙ c_{t-1} + g ⊙ i   (Eqn. 1d)
            let (i_gate, f_gate) = gates_if.split_at(h);
            for ((((c, f), c_prev), g), i) in c
                .iter_mut()
                .zip(f_gate.iter())
                .zip(c_prev.iter())
                .zip(g_cell.iter())
                .zip(i_gate.iter())
            {
                *c = arith.round(f * c_prev + g * i);
            }

            // Peephole on o reads c_t (Eqn. 1e).
            if let Some([_, _, p_o]) = &self.peepholes {
                arith.peephole(o_gate, p_o, c);
            }
            arith.sigmoid(o_gate);

            // m_t = o ⊙ tanh(c_t)   (Eqn. 1f, h = tanh)
            tanh_c.copy_from_slice(c);
            arith.activate(Act::Tanh, tanh_c);
            for ((m, o), tc) in m.iter_mut().zip(o_gate.iter()).zip(tanh_c.iter()) {
                *m = arith.round(o * tc);
            }
        }

        // y_t = W_ym · m_t   (Eqn. 1g) or identity without projection.
        match &self.wym {
            Some(w) => {
                w.matvec_batch_into(m, y_next, batch, mv);
                for y in y_next.iter_mut() {
                    *y = arith.round(*y);
                }
            }
            None => y_next.copy_from_slice(m),
        }
    }

    /// A fresh layer whose weight matrices `weight(role, rows, cols, rng)`
    /// makes, drawn in the order every seeded model depends on: the
    /// peepholes, then `wym`, `wx` and `wr`. The forget gate bias is 1
    /// (standard practice for gradient flow), every other bias 0.
    pub(crate) fn new_with<R: Rng>(
        cfg: LstmConfig,
        rng: &mut R,
        mut weight: impl FnMut(WeightRole, usize, usize, &mut R) -> M,
    ) -> Self {
        let h = cfg.hidden_dim;
        let mut bias = vec![0.0; 4 * h];
        bias[h..2 * h].iter_mut().for_each(|b| *b = 1.0);
        let peepholes = cfg.peephole.then(|| {
            [
                (0..h).map(|_| rng.gen_range(-0.05..0.05)).collect(),
                (0..h).map(|_| rng.gen_range(-0.05..0.05)).collect(),
                (0..h).map(|_| rng.gen_range(-0.05..0.05)).collect(),
            ]
        });
        let wym = cfg
            .has_projection()
            .then(|| weight(WeightRole::Output, cfg.output_dim, h, rng));
        let wx = weight(WeightRole::Input, 4 * h, cfg.input_dim, rng);
        let wr = weight(WeightRole::Recurrent, 4 * h, cfg.output_dim, rng);
        LstmLayer::from_parts(cfg, wx, wr, bias, peepholes, wym)
    }
}

impl LstmLayer<Matrix> {
    /// Creates a dense layer with Xavier-initialized weights and the forget
    /// gate bias set to 1 (standard practice for gradient flow).
    pub fn new_dense(cfg: LstmConfig, rng: &mut impl Rng) -> Self {
        Self::new_with(cfg, rng, |_, rows, cols, rng| {
            Matrix::xavier(rows, cols, rng)
        })
    }

    /// Backpropagation through time over `tape`, what
    /// [`RnnNetwork::hidden_batch_with`](crate::RnnNetwork::hidden_batch_with)
    /// recorded for this layer walking one sequence (frame `t` is row `t`).
    ///
    /// `d_outputs[t]` is `∂L/∂y_t` from the layers above (classifier and/or
    /// next stacked layer). Accumulates parameter gradients into `grads`,
    /// a layer of this shape holding `∂L/∂θ` in each parameter's place,
    /// and returns `∂L/∂x_t` for the layer below.
    ///
    /// # Panics
    ///
    /// Panics if `tape` and `d_outputs` differ in length.
    pub(crate) fn backward_seq(
        &self,
        tape: &LayerTape,
        d_outputs: &[Vec<f32>],
        grads: &mut LstmLayer<Matrix>,
    ) -> Vec<Vec<f32>> {
        let h = self.cfg.hidden_dim;
        let r = self.cfg.output_dim;
        let in_dim = self.cfg.input_dim;
        let t_len = d_outputs.len();
        assert_eq!(tape.x.len(), t_len * in_dim, "sequence length mismatch");
        let mut dx_seq = vec![Vec::new(); t_len];
        let mut dy_rec = vec![0.0f32; r];
        let mut dc_next = vec![0.0f32; h];
        let zeros = vec![0.0f32; h.max(r)];

        for row in (0..t_len).rev() {
            let (gate_i, rest) = tape.gates[row * 4 * h..][..4 * h].split_at(h);
            let (gate_f, rest) = rest.split_at(h);
            let (gate_g, gate_o) = rest.split_at(h);
            let c = &tape.c[row * h..][..h];
            let tanh_c = &tape.tanh_c[row * h..][..h];
            // The lane starts from the zero state.
            let (c_prev, y_prev) = match row {
                0 => (&zeros[..h], &zeros[..r]),
                _ => (&tape.c[(row - 1) * h..][..h], &tape.y[(row - 1) * r..][..r]),
            };
            // Total gradient on y_t: external + recurrent from t+1.
            let mut dy = d_outputs[row].clone();
            for (a, b) in dy.iter_mut().zip(dy_rec.iter()) {
                *a += b;
            }

            // Through the projection (Eqn. 1g).
            let dm = match &self.wym {
                Some(w) => {
                    grads
                        .wym
                        .as_mut()
                        .expect("grads shaped like layer")
                        .add_outer(1.0, &dy, &tape.m[row * h..][..h]);
                    w.matvec_t(&dy)
                }
                None => dy,
            };

            // Through m = o ⊙ tanh(c).
            let mut dc = dc_next.clone();
            let mut dpre_o = vec![0.0f32; h];
            for k in 0..h {
                let d_o = dm[k] * tanh_c[k];
                dc[k] += dm[k] * gate_o[k] * (1.0 - tanh_c[k] * tanh_c[k]);
                dpre_o[k] = d_o * gate_o[k] * (1.0 - gate_o[k]);
            }
            // Peephole o feeds back into c_t.
            if let Some([_, _, p_o]) = &self.peepholes {
                let g_peep = grads.peepholes.as_mut().expect("grads shaped like layer");
                for k in 0..h {
                    dc[k] += dpre_o[k] * p_o[k];
                }
                hadamard_acc(&mut g_peep[2], &dpre_o, c);
            }

            // Through c = f ⊙ c_prev + g ⊙ i.
            let mut dpre_i = vec![0.0f32; h];
            let mut dpre_f = vec![0.0f32; h];
            let mut dpre_g = vec![0.0f32; h];
            let mut dc_prev = vec![0.0f32; h];
            for k in 0..h {
                let di = dc[k] * gate_g[k];
                let dg = dc[k] * gate_i[k];
                let df = dc[k] * c_prev[k];
                dc_prev[k] = dc[k] * gate_f[k];
                dpre_i[k] = di * gate_i[k] * (1.0 - gate_i[k]);
                dpre_f[k] = df * gate_f[k] * (1.0 - gate_f[k]);
                dpre_g[k] = dg * Act::Tanh.deriv_from_output(gate_g[k]);
            }
            if let Some([p_i, p_f, _]) = &self.peepholes {
                let g_peep = grads.peepholes.as_mut().expect("grads shaped like layer");
                for k in 0..h {
                    dc_prev[k] += dpre_i[k] * p_i[k] + dpre_f[k] * p_f[k];
                }
                hadamard_acc(&mut g_peep[0], &dpre_i, c_prev);
                hadamard_acc(&mut g_peep[1], &dpre_f, c_prev);
            }

            // Fused gate pre-activation gradient (i, f, g, o lanes).
            let mut dpre = vec![0.0f32; 4 * h];
            dpre[..h].copy_from_slice(&dpre_i);
            dpre[h..2 * h].copy_from_slice(&dpre_f);
            dpre[2 * h..3 * h].copy_from_slice(&dpre_g);
            dpre[3 * h..].copy_from_slice(&dpre_o);

            for (b, d) in grads.bias.iter_mut().zip(dpre.iter()) {
                *b += d;
            }
            grads
                .wx
                .add_outer(1.0, &dpre, &tape.x[row * in_dim..][..in_dim]);
            grads.wr.add_outer(1.0, &dpre, y_prev);

            dx_seq[row] = self.wx.matvec_t(&dpre);
            dy_rec = self.wr.matvec_t(&dpre);
            dc_next = dc_prev;
        }
        dx_seq
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::walk_layer;
    use crate::RnnLayer;
    use rand::SeedableRng;

    fn tiny_layer(peephole: bool, projection: bool, seed: u64) -> LstmLayer<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let cfg = LstmConfig {
            input_dim: 3,
            hidden_dim: 4,
            output_dim: if projection { 2 } else { 4 },
            peephole,
        };
        LstmLayer::new_dense(cfg, &mut rng)
    }

    /// One float step of a single lane from `(c, y)`.
    fn step(
        layer: &LstmLayer<Matrix>,
        x: &[f32],
        (c, y): &(Vec<f32>, Vec<f32>),
        scratch: &mut LstmScratch,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut next = zero_state(layer);
        layer.step_batch_into(x, c, y, &mut next.0, &mut next.1, 1, scratch);
        next
    }

    fn zero_state(layer: &LstmLayer<Matrix>) -> (Vec<f32>, Vec<f32>) {
        let cfg = layer.config();
        (vec![0.0; cfg.hidden_dim], vec![0.0; cfg.output_dim])
    }

    #[test]
    fn step_produces_correct_shapes() {
        let layer = tiny_layer(true, true, 1);
        let mut scratch = LstmScratch::new();
        let (c, y) = step(&layer, &[0.1, -0.2, 0.3], &zero_state(&layer), &mut scratch);
        assert_eq!(c.len(), 4);
        assert_eq!(y.len(), 2);
        // The planes a tape is appended from.
        assert_eq!(scratch.pre.len(), 16);
        assert_eq!((scratch.tanh_c.len(), scratch.m.len()), (4, 4));
    }

    #[test]
    fn zero_input_and_state_is_near_rest() {
        // With zero input/state, gates see only biases; cell state stays
        // small and bounded.
        let layer = tiny_layer(false, false, 2);
        let (c, _) = step(
            &layer,
            &[0.0, 0.0, 0.0],
            &zero_state(&layer),
            &mut LstmScratch::new(),
        );
        for &c in &c {
            assert!(c.abs() < 1.0);
        }
    }

    #[test]
    fn cell_state_is_bounded_over_long_sequences() {
        // Sigmoid gates keep |c| growth linear at worst; with tanh cell
        // input, |c_t| <= t. Check stability for a moderately long run.
        let layer = tiny_layer(true, false, 3);
        let mut state = zero_state(&layer);
        let mut scratch = LstmScratch::new();
        for t in 0..200 {
            let x = vec![(t as f32 * 0.1).sin(), 0.3, -0.5];
            state = step(&layer, &x, &state, &mut scratch);
        }
        for &c in &state.0 {
            assert!(c.is_finite() && c.abs() < 50.0);
        }
    }

    /// Finite-difference validation of the full BPTT path, the linchpin
    /// correctness test for training.
    fn check_gradients(peephole: bool, projection: bool) {
        let layer = tiny_layer(peephole, projection, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        use rand::Rng;
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        // Loss: sum of squares of outputs — simple and smooth.
        let forward =
            |layer: &LstmLayer<Matrix>| walk_layer(RnnLayer::Lstm(layer.clone()), &inputs);
        let loss = |layer: &LstmLayer<Matrix>| -> f32 {
            let (outs, _) = forward(layer);
            outs.iter()
                .flat_map(|o| o.iter())
                .map(|v| 0.5 * v * v)
                .sum()
        };

        let (outs, tape) = forward(&layer);
        let d_outputs: Vec<Vec<f32>> = outs.clone();
        let mut grads = layer.map(
            |_, w| Matrix::zeros(w.rows(), w.cols()),
            |v| vec![0.0; v.len()],
        );
        layer.backward_seq(&tape, &d_outputs, &mut grads);

        let eps = 1e-2f32;
        // Check a sample of wx, wr, bias and (if present) peephole params.
        let mut perturbed = layer.clone();
        for idx in [0usize, 7, 13] {
            let orig = perturbed.wx.as_slice()[idx];
            perturbed.wx.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&perturbed);
            perturbed.wx.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&perturbed);
            perturbed.wx.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.wx.as_slice()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "wx[{idx}] fd={fd} an={an} (peephole={peephole}, projection={projection})"
            );
        }
        for idx in [0usize, 5] {
            let orig = perturbed.bias[idx];
            perturbed.bias[idx] = orig + eps;
            let lp = loss(&perturbed);
            perturbed.bias[idx] = orig - eps;
            let lm = loss(&perturbed);
            perturbed.bias[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.bias[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "bias[{idx}] fd={fd} an={an}"
            );
        }
        if peephole {
            let orig = perturbed.peepholes.as_ref().unwrap()[0][1];
            perturbed.peepholes.as_mut().unwrap()[0][1] = orig + eps;
            let lp = loss(&perturbed);
            perturbed.peepholes.as_mut().unwrap()[0][1] = orig - eps;
            let lm = loss(&perturbed);
            perturbed.peepholes.as_mut().unwrap()[0][1] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.peepholes.as_ref().unwrap()[0][1];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "peephole fd={fd} an={an}"
            );
        }
        if projection {
            let orig = perturbed.wym.as_ref().unwrap().as_slice()[3];
            perturbed.wym.as_mut().unwrap().as_mut_slice()[3] = orig + eps;
            let lp = loss(&perturbed);
            perturbed.wym.as_mut().unwrap().as_mut_slice()[3] = orig - eps;
            let lm = loss(&perturbed);
            perturbed.wym.as_mut().unwrap().as_mut_slice()[3] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.wym.as_ref().unwrap().as_slice()[3];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "wym fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn gradients_match_finite_difference_plain() {
        check_gradients(false, false);
    }

    #[test]
    fn gradients_match_finite_difference_peephole() {
        check_gradients(true, false);
    }

    #[test]
    fn gradients_match_finite_difference_projection() {
        check_gradients(false, true);
    }

    #[test]
    fn gradients_match_finite_difference_full() {
        check_gradients(true, true);
    }

    #[test]
    fn param_count_accounts_for_all_tensors() {
        let layer = RnnLayer::Lstm(tiny_layer(true, true, 6));
        // wx: 16x3, wr: 16x2, bias: 16, peep: 3*4, wym: 2x4.
        assert_eq!(layer.param_count(), 48 + 32 + 16 + 12 + 8);
    }

    #[test]
    #[should_panic(expected = "input dimension")]
    fn step_rejects_bad_input_dim() {
        let layer = tiny_layer(false, false, 7);
        let _ = step(
            &layer,
            &[0.0; 5],
            &zero_state(&layer),
            &mut LstmScratch::new(),
        );
    }
}
