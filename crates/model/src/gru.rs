//! The GRU cell of paper Eqn. 2 (Fig. 3b).
//!
//! The paper's GRU variant feeds `[xᵀ, cᵀ₋₁]ᵀ` to the fused update/reset
//! gates (Sec. II-B: "the reset and update gate matrices can be
//! concatenated and calculated through one matrix-vector multiplication as
//! `W_(rz)(xc)·[xᵀ, cᵀ₋₁]ᵀ`") and computes the candidate state from
//! `W_c̃x·x` plus `W_c̃c·(r ⊙ c_{t−1})` — three matvecs per timestep versus
//! the LSTM's two larger ones.

use crate::activation::Act;
use crate::cell::{CellArith, FloatArith, GruScratch};
use crate::layer::Tensor;
use crate::network::WeightRole;
use crate::seq::LayerTape;
use ernn_linalg::{MatVec, Matrix, WeightMatrix};
use rand::Rng;

/// One GRU layer, generic over the weight representation.
///
/// Lane order in the fused gate matrices is `z` (update) then `r` (reset).
/// The candidate-state activation `h` of Eqn. 2c is tanh, as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GruLayer<M> {
    input_dim: usize,
    hidden_dim: usize,
    /// Fused gate input weights `(2H × I)`.
    pub wzr_x: M,
    /// Fused gate recurrent weights `(2H × H)`.
    pub wzr_c: M,
    /// Fused gate biases `(2H)`.
    pub bias_zr: Vec<f32>,
    /// Candidate input weights `W_c̃x (H × I)`.
    pub wcx: M,
    /// Candidate recurrent weights `W_c̃c (H × H)`.
    pub wcc: M,
    /// Candidate bias `(H)`.
    pub bias_c: Vec<f32>,
}

/// `[wzr_x; wcx]` of one [`GruLayer`] stacked as a single operand
/// ([`WeightMatrix::stack_rows`]): derived state for inference over fixed
/// weights, built by [`GruLayer::input_stack`] and consumed by
/// [`GruLayer::step_batch_stacked_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct GruInputStack {
    w: WeightMatrix,
    /// Output row at which `wcx`'s product starts (`2H` rounded up to a
    /// block boundary).
    candidate_row: usize,
}

impl<M: MatVec> GruLayer<M> {
    /// Assembles a layer from explicit parts (used by the compression pass
    /// to rebuild a layer with block-circulant weights).
    ///
    /// # Panics
    ///
    /// Panics if any tensor shape is inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        input_dim: usize,
        hidden_dim: usize,
        wzr_x: M,
        wzr_c: M,
        bias_zr: Vec<f32>,
        wcx: M,
        wcc: M,
        bias_c: Vec<f32>,
    ) -> Self {
        assert_eq!(
            (wzr_x.rows(), wzr_x.cols()),
            (2 * hidden_dim, input_dim),
            "wzr_x shape"
        );
        assert_eq!(
            (wzr_c.rows(), wzr_c.cols()),
            (2 * hidden_dim, hidden_dim),
            "wzr_c shape"
        );
        assert_eq!(bias_zr.len(), 2 * hidden_dim, "bias_zr length");
        assert_eq!(
            (wcx.rows(), wcx.cols()),
            (hidden_dim, input_dim),
            "wcx shape"
        );
        assert_eq!(
            (wcc.rows(), wcc.cols()),
            (hidden_dim, hidden_dim),
            "wcc shape"
        );
        assert_eq!(bias_c.len(), hidden_dim, "bias_c length");
        GruLayer {
            input_dim,
            hidden_dim,
            wzr_x,
            wzr_c,
            bias_zr,
            wcx,
            wcc,
            bias_c,
        }
    }

    /// Input dimension `|x_t|`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden dimension `|c_t|` (also the layer output dimension — GRUs
    /// take the cell state as output, Sec. II-B).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The tensors in list order: `wzr_x, wzr_c, bias_zr, wcx, wcc, bias_c`
    /// (see [`RnnLayer::tensors`](crate::RnnLayer::tensors)).
    pub(crate) fn tensors(&self) -> impl Iterator<Item = Tensor<&M, &[f32]>> {
        [
            Tensor::Weight(WeightRole::Input, &self.wzr_x),
            Tensor::Weight(WeightRole::Recurrent, &self.wzr_c),
            Tensor::Vector(&self.bias_zr[..]),
            Tensor::Weight(WeightRole::Input, &self.wcx),
            Tensor::Weight(WeightRole::Recurrent, &self.wcc),
            Tensor::Vector(&self.bias_c[..]),
        ]
        .into_iter()
    }

    /// [`Self::tensors`], mutably.
    pub(crate) fn tensors_mut(&mut self) -> impl Iterator<Item = Tensor<&mut M, &mut [f32]>> {
        let GruLayer {
            wzr_x,
            wzr_c,
            bias_zr,
            wcx,
            wcc,
            bias_c,
            ..
        } = self;
        [
            Tensor::Weight(WeightRole::Input, wzr_x),
            Tensor::Weight(WeightRole::Recurrent, wzr_c),
            Tensor::Vector(&mut bias_zr[..]),
            Tensor::Weight(WeightRole::Input, wcx),
            Tensor::Weight(WeightRole::Recurrent, wcc),
            Tensor::Vector(&mut bias_c[..]),
        ]
        .into_iter()
    }

    /// This layer through [`Self::from_parts`], each tensor mapped in
    /// [`Self::tensors`] order (see
    /// [`RnnLayer::map`](crate::RnnLayer::map)).
    pub(crate) fn map<N: MatVec>(
        &self,
        mut weight: impl FnMut(WeightRole, &M) -> N,
        mut vector: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> GruLayer<N> {
        GruLayer::from_parts(
            self.input_dim,
            self.hidden_dim,
            weight(WeightRole::Input, &self.wzr_x),
            weight(WeightRole::Recurrent, &self.wzr_c),
            vector(&self.bias_zr),
            weight(WeightRole::Input, &self.wcx),
            weight(WeightRole::Recurrent, &self.wcc),
            vector(&self.bias_c),
        )
    }

    /// One timestep of Eqn. 2 in `f32` for `batch` independent states at
    /// once, over flat `batch × dim` buffers:
    /// [`Self::step_batch_with`] at the float arithmetic. Every lane's
    /// result is bit-identical to a batch of one.
    ///
    /// Allocation-free once `scratch` has grown to this shape and batch.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with `batch` and the layer
    /// dimensions.
    pub fn step_batch_into(
        &self,
        xs: &[f32],
        c_prev: &[f32],
        c_next: &mut [f32],
        batch: usize,
        scratch: &mut GruScratch,
    ) {
        self.step_batch_with(&FloatArith, xs, c_prev, c_next, batch, scratch);
    }

    /// Eqn. 2, the one definition: a timestep for `batch` independent
    /// states over flat `batch × dim` buffers, evaluated in `arith` — the
    /// x-side projection through this layer's own two operands
    /// (`wzr_x`, `wcx`), then the recurrence (`recur_batch_with`).
    /// The four matvecs are batch-fused (block-circulant weights stream
    /// their cached spectra once per batch).
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with `batch` and the layer
    /// dimensions.
    pub fn step_batch_with<A: CellArith>(
        &self,
        arith: &A,
        xs: &[f32],
        c_prev: &[f32],
        c_next: &mut [f32],
        batch: usize,
        scratch: &mut GruScratch,
    ) {
        let h = self.hidden_dim;
        assert_eq!(xs.len(), batch * self.input_dim, "input dimension mismatch");
        let GruScratch { pre, pre_c, mv, .. } = scratch;
        pre.resize(batch * 2 * h, 0.0);
        pre_c.resize(batch * h, 0.0);
        self.wzr_x.matvec_batch_into(xs, pre, batch, mv);
        self.wcx.matvec_batch_into(xs, pre_c, batch, mv);
        self.recur_batch_with(arith, c_prev, c_next, batch, scratch);
    }

    /// [`Self::step_batch_with`] projecting `x_t` through `stack` — this
    /// layer's [`Self::input_stack`] — in one kernel call instead of two:
    /// one `FFT(x_t)` feeds the gate and the candidate matrices, as in the
    /// paper's PE (Sec. II-B, Fig. 10). Bit-identical to
    /// [`Self::step_batch_with`].
    ///
    /// # Panics
    ///
    /// Panics if `stack` was built for another shape, or as
    /// [`Self::step_batch_with`] does.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch_stacked_with<A: CellArith>(
        &self,
        arith: &A,
        stack: &GruInputStack,
        xs: &[f32],
        c_prev: &[f32],
        c_next: &mut [f32],
        batch: usize,
        scratch: &mut GruScratch,
    ) {
        let h = self.hidden_dim;
        let rows = stack.w.rows();
        assert_eq!(xs.len(), batch * self.input_dim, "input dimension mismatch");
        assert_eq!(
            (stack.w.cols(), rows),
            (self.input_dim, stack.candidate_row + h),
            "input stack shape"
        );
        let GruScratch {
            pre,
            pre_c,
            stacked,
            mv,
            ..
        } = scratch;
        stacked.resize(batch * rows, 0.0);
        stack.w.matvec_batch_into(xs, stacked, batch, mv);
        pre.clear();
        pre_c.clear();
        for lane in stacked.chunks_exact(rows) {
            pre.extend_from_slice(&lane[..2 * h]);
            pre_c.extend_from_slice(&lane[stack.candidate_row..]);
        }
        self.recur_batch_with(arith, c_prev, c_next, batch, scratch);
    }

    /// Everything of Eqn. 2 after the x-side projection, which the caller
    /// has left in `scratch.pre` (`W_(zr)x·x`) and `scratch.pre_c`
    /// (`W_c̃x·x`): the gate math as whole-plane passes, one operator at a
    /// time, the activation units taking every lane in one call.
    fn recur_batch_with<A: CellArith>(
        &self,
        arith: &A,
        c_prev: &[f32],
        c_next: &mut [f32],
        batch: usize,
        scratch: &mut GruScratch,
    ) {
        let h = self.hidden_dim;
        assert_eq!(c_prev.len(), batch * h, "state dimension mismatch");
        assert_eq!(c_next.len(), batch * h, "next state dimension mismatch");

        let GruScratch {
            pre,
            rec,
            rc,
            pre_c,
            rec_c,
            mv,
            ..
        } = scratch;
        rec.resize(batch * 2 * h, 0.0);
        rc.resize(batch * h, 0.0);
        rec_c.resize(batch * h, 0.0);

        // Fused gates: z, r = σ(W_(zr)x·x + W_(zr)c·c_{t-1} + b)  (2a, 2b).
        self.wzr_c.matvec_batch_into(c_prev, rec, batch, mv);
        arith.accumulate(pre, rec, &self.bias_zr);
        arith.sigmoid(pre);
        for ((zr, c), rc) in pre
            .chunks_exact(2 * h)
            .zip(c_prev.chunks_exact(h))
            .zip(rc.chunks_exact_mut(h))
        {
            for ((rc, r_gate), c) in rc.iter_mut().zip(zr[h..].iter()).zip(c.iter()) {
                *rc = arith.round(r_gate * c);
            }
        }

        // c̃ = tanh(W_c̃x·x + W_c̃c·(r ⊙ c_{t-1}) + b_c̃)   (2c, h = tanh).
        self.wcc.matvec_batch_into(rc, rec_c, batch, mv);
        arith.accumulate(pre_c, rec_c, &self.bias_c);
        arith.activate(Act::Tanh, pre_c);

        // c_t = (1 − z) ⊙ c_{t-1} + z ⊙ c̃   (2d).
        for (((c_new, zr), c), c_tilde) in c_next
            .chunks_exact_mut(h)
            .zip(pre.chunks_exact(2 * h))
            .zip(c_prev.chunks_exact(h))
            .zip(pre_c.chunks_exact(h))
        {
            for (((cn, z), c), ct) in c_new
                .iter_mut()
                .zip(zr[..h].iter())
                .zip(c.iter())
                .zip(c_tilde.iter())
            {
                *cn = arith.round((1.0 - z) * c + z * ct);
            }
        }
    }

    /// A fresh layer whose weight matrices `weight(role, rows, cols, rng)`
    /// makes, in the order every seeded model depends on: `wzr_x`,
    /// `wzr_c`, `wcx`, `wcc`. Every bias is 0.
    pub(crate) fn new_with<R: Rng>(
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
        mut weight: impl FnMut(WeightRole, usize, usize, &mut R) -> M,
    ) -> Self {
        let h = hidden_dim;
        let wzr_x = weight(WeightRole::Input, 2 * h, input_dim, rng);
        let wzr_c = weight(WeightRole::Recurrent, 2 * h, h, rng);
        let wcx = weight(WeightRole::Input, h, input_dim, rng);
        let wcc = weight(WeightRole::Recurrent, h, h, rng);
        let (bias_zr, bias_c) = (vec![0.0; 2 * h], vec![0.0; h]);
        GruLayer::from_parts(input_dim, h, wzr_x, wzr_c, bias_zr, wcx, wcc, bias_c)
    }
}

impl GruInputStack {
    /// The stacked operand, `[wzr_x; wcx]`.
    pub fn weights(&self) -> &WeightMatrix {
        &self.w
    }
}

impl GruLayer<WeightMatrix> {
    /// The x-side operands stacked for [`Self::step_batch_stacked_with`],
    /// or `None` when `wzr_x` and `wcx` do not share a representation and
    /// block size (then only the two-operand step applies). The stack
    /// copies the weights as they are now; rebuild it after changing them.
    pub fn input_stack(&self) -> Option<GruInputStack> {
        let (w, candidate_row) = self.wzr_x.stack_rows(&self.wcx)?;
        Some(GruInputStack { w, candidate_row })
    }
}

impl GruLayer<Matrix> {
    /// Creates a dense GRU layer with Xavier-initialized weights.
    pub fn new_dense(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self::new_with(input_dim, hidden_dim, rng, |_, rows, cols, rng| {
            Matrix::xavier(rows, cols, rng)
        })
    }

    /// Backpropagation through time over `tape`; see
    /// [`LstmLayer::backward_seq`](crate::LstmLayer::backward_seq) for the
    /// calling convention.
    ///
    /// # Panics
    ///
    /// Panics if `tape` and `d_outputs` differ in length.
    pub(crate) fn backward_seq(
        &self,
        tape: &LayerTape,
        d_outputs: &[Vec<f32>],
        grads: &mut GruLayer<Matrix>,
    ) -> Vec<Vec<f32>> {
        let h = self.hidden_dim;
        let in_dim = self.input_dim;
        let t_len = d_outputs.len();
        assert_eq!(tape.x.len(), t_len * in_dim, "sequence length mismatch");
        let mut dx_seq = vec![Vec::new(); t_len];
        let mut dc_rec = vec![0.0f32; h];
        let zeros = vec![0.0f32; h];

        for row in (0..t_len).rev() {
            let x = &tape.x[row * in_dim..][..in_dim];
            let (gate_z, gate_r) = tape.gates[row * 2 * h..][..2 * h].split_at(h);
            let rc = &tape.rc[row * h..][..h];
            let c_tilde = &tape.c_tilde[row * h..][..h];
            // The lane starts from the zero state.
            let c_prev = match row {
                0 => &zeros[..],
                _ => &tape.c[(row - 1) * h..][..h],
            };
            let mut dct = d_outputs[row].clone();
            for (a, b) in dct.iter_mut().zip(dc_rec.iter()) {
                *a += b;
            }

            // Through c = (1 − z) ⊙ c_prev + z ⊙ c̃.
            let mut dz = vec![0.0f32; h];
            let mut dc_tilde = vec![0.0f32; h];
            let mut dc_prev = vec![0.0f32; h];
            for k in 0..h {
                dz[k] = dct[k] * (c_tilde[k] - c_prev[k]);
                dc_tilde[k] = dct[k] * gate_z[k];
                dc_prev[k] = dct[k] * (1.0 - gate_z[k]);
            }

            // Through c̃ = tanh(pre_c).
            let dpre_c: Vec<f32> = (0..h)
                .map(|k| dc_tilde[k] * Act::Tanh.deriv_from_output(c_tilde[k]))
                .collect();
            grads.wcx.add_outer(1.0, &dpre_c, x);
            grads.wcc.add_outer(1.0, &dpre_c, rc);
            for (b, d) in grads.bias_c.iter_mut().zip(dpre_c.iter()) {
                *b += d;
            }
            let drc = self.wcc.matvec_t(&dpre_c);
            let mut dr = vec![0.0f32; h];
            for k in 0..h {
                dr[k] = drc[k] * c_prev[k];
                dc_prev[k] += drc[k] * gate_r[k];
            }

            // Through the fused gates.
            let mut dpre_zr = vec![0.0f32; 2 * h];
            for k in 0..h {
                dpre_zr[k] = dz[k] * gate_z[k] * (1.0 - gate_z[k]);
                dpre_zr[h + k] = dr[k] * gate_r[k] * (1.0 - gate_r[k]);
            }
            grads.wzr_x.add_outer(1.0, &dpre_zr, x);
            grads.wzr_c.add_outer(1.0, &dpre_zr, c_prev);
            for (b, d) in grads.bias_zr.iter_mut().zip(dpre_zr.iter()) {
                *b += d;
            }

            let mut dx = self.wzr_x.matvec_t(&dpre_zr);
            let dx_c = self.wcx.matvec_t(&dpre_c);
            for (a, b) in dx.iter_mut().zip(dx_c.iter()) {
                *a += b;
            }
            dx_seq[row] = dx;

            let dc_gate = self.wzr_c.matvec_t(&dpre_zr);
            for (a, b) in dc_prev.iter_mut().zip(dc_gate.iter()) {
                *a += b;
            }
            dc_rec = dc_prev;
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

    fn tiny_layer(seed: u64) -> GruLayer<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        GruLayer::new_dense(3, 4, &mut rng)
    }

    /// One float step of a single lane from `c_prev`.
    fn step(
        layer: &GruLayer<Matrix>,
        x: &[f32],
        c_prev: &[f32],
        scratch: &mut GruScratch,
    ) -> Vec<f32> {
        let mut c = vec![0.0; layer.hidden_dim()];
        layer.step_batch_into(x, c_prev, &mut c, 1, scratch);
        c
    }

    #[test]
    fn step_shapes_and_interpolation_bound() {
        // c_t is a convex combination of c_prev and c̃ ∈ (−1, 1), so with
        // |c_prev| ≤ 1 the state stays in (−1, 1) forever.
        let layer = tiny_layer(1);
        let mut c = vec![0.0; layer.hidden_dim()];
        let mut scratch = GruScratch::new();
        for t in 0..100 {
            let x = vec![(t as f32 * 0.3).sin(), -0.2, 0.7];
            c = step(&layer, &x, &c, &mut scratch);
            for &v in &c {
                assert!(v.abs() <= 1.0, "state escaped the invariant: {v}");
            }
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let layer = tiny_layer(3);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        use rand::Rng;
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let forward = |layer: &GruLayer<Matrix>| walk_layer(RnnLayer::Gru(layer.clone()), &inputs);
        let loss = |layer: &GruLayer<Matrix>| -> f32 {
            let (outs, _) = forward(layer);
            outs.iter()
                .flat_map(|o| o.iter())
                .map(|v| 0.5 * v * v)
                .sum()
        };

        let (outs, tape) = forward(&layer);
        let mut grads = layer.map(
            |_, w| Matrix::zeros(w.rows(), w.cols()),
            |v| vec![0.0; v.len()],
        );
        layer.backward_seq(&tape, &outs, &mut grads);

        let eps = 1e-2f32;
        let mut p = layer.clone();
        // Sample parameters across all six tensors.
        let checks: Vec<(&str, f32, f32)> = {
            let mut v = Vec::new();
            for idx in [0usize, 9] {
                let orig = p.wzr_x.as_slice()[idx];
                p.wzr_x.as_mut_slice()[idx] = orig + eps;
                let lp = loss(&p);
                p.wzr_x.as_mut_slice()[idx] = orig - eps;
                let lm = loss(&p);
                p.wzr_x.as_mut_slice()[idx] = orig;
                v.push((
                    "wzr_x",
                    (lp - lm) / (2.0 * eps),
                    grads.wzr_x.as_slice()[idx],
                ));
            }
            for idx in [2usize, 11] {
                let orig = p.wcc.as_slice()[idx];
                p.wcc.as_mut_slice()[idx] = orig + eps;
                let lp = loss(&p);
                p.wcc.as_mut_slice()[idx] = orig - eps;
                let lm = loss(&p);
                p.wcc.as_mut_slice()[idx] = orig;
                v.push(("wcc", (lp - lm) / (2.0 * eps), grads.wcc.as_slice()[idx]));
            }
            for idx in [1usize, 6] {
                let orig = p.bias_zr[idx];
                p.bias_zr[idx] = orig + eps;
                let lp = loss(&p);
                p.bias_zr[idx] = orig - eps;
                let lm = loss(&p);
                p.bias_zr[idx] = orig;
                v.push(("bias_zr", (lp - lm) / (2.0 * eps), grads.bias_zr[idx]));
            }
            {
                let orig = p.wcx.as_slice()[5];
                p.wcx.as_mut_slice()[5] = orig + eps;
                let lp = loss(&p);
                p.wcx.as_mut_slice()[5] = orig - eps;
                let lm = loss(&p);
                p.wcx.as_mut_slice()[5] = orig;
                v.push(("wcx", (lp - lm) / (2.0 * eps), grads.wcx.as_slice()[5]));
            }
            {
                let orig = p.wzr_c.as_slice()[3];
                p.wzr_c.as_mut_slice()[3] = orig + eps;
                let lp = loss(&p);
                p.wzr_c.as_mut_slice()[3] = orig - eps;
                let lm = loss(&p);
                p.wzr_c.as_mut_slice()[3] = orig;
                v.push(("wzr_c", (lp - lm) / (2.0 * eps), grads.wzr_c.as_slice()[3]));
            }
            v
        };
        for (name, fd, an) in checks {
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "{name}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn param_count_is_smaller_than_equivalent_lstm() {
        // The paper's Table III shows GRU-1024 at ~0.45M vs LSTM 0.73M top
        // layer params: GRUs have 3 gate matrices vs the LSTM's 4.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let gru = RnnLayer::Gru(GruLayer::new_dense(16, 32, &mut rng));
        let lstm_cfg = crate::LstmConfig::simple(16, 32);
        let lstm = RnnLayer::Lstm(crate::LstmLayer::new_dense(lstm_cfg, &mut rng));
        assert!(gru.param_count() < lstm.param_count());
    }

    #[test]
    #[should_panic(expected = "state dimension")]
    fn step_rejects_bad_state_dim() {
        let layer = tiny_layer(6);
        let _ = step(&layer, &[0.0; 3], &[0.0; 7], &mut GruScratch::new());
    }
}
