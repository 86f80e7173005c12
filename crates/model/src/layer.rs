//! Uniform wrapper over the two cell types, and the parameter list every
//! per-tensor walk goes through.

use crate::gru::GruLayer;
use crate::lstm::LstmLayer;
use crate::network::WeightRole;
use crate::seq::LayerTape;
use ernn_linalg::{MatVec, Matrix};

/// A stacked-RNN layer: either cell type behind one interface.
///
/// Phase I of the E-RNN framework switches between LSTM and GRU with the
/// rest of the pipeline unchanged (Fig. 2 step 3); this enum is that switch
/// point.
#[derive(Debug, Clone, PartialEq)]
pub enum RnnLayer<M> {
    /// An LSTM layer (paper Eqn. 1).
    Lstm(LstmLayer<M>),
    /// A GRU layer (paper Eqn. 2).
    Gru(GruLayer<M>),
}

/// One entry of a layer's parameter list ([`RnnLayer::tensors`]): a weight
/// matrix with its [`WeightRole`], or a bias / peephole vector. `W` and `V`
/// are shared (`&M`, `&[f32]`) or mutable (`&mut M`, `&mut [f32]`)
/// borrows.
pub(crate) enum Tensor<W, V> {
    /// A weight matrix and the role Phase I sizes its block by.
    Weight(WeightRole, W),
    /// A bias or peephole vector.
    Vector(V),
}

impl<M: MatVec> RnnLayer<M> {
    /// The layer's output dimension per frame.
    pub fn output_dim(&self) -> usize {
        match self {
            RnnLayer::Lstm(l) => l.config().output_dim,
            RnnLayer::Gru(g) => g.hidden_dim(),
        }
    }

    /// The layer's input dimension per frame.
    pub fn input_dim(&self) -> usize {
        match self {
            RnnLayer::Lstm(l) => l.config().input_dim,
            RnnLayer::Gru(g) => g.input_dim(),
        }
    }

    /// The layer's hidden ("layer size") dimension.
    pub fn hidden_dim(&self) -> usize {
        match self {
            RnnLayer::Lstm(l) => l.config().hidden_dim,
            RnnLayer::Gru(g) => g.hidden_dim(),
        }
    }

    /// The layer's parameter list, written once per cell: LSTM `wx, wr,
    /// bias, p_i, p_f, p_o, wym` (absent tensors skipped), GRU `wzr_x,
    /// wzr_c, bias_zr, wcx, wcc, bias_c`. Gradients, the optimizer's
    /// slices, ADMM, compression, quantization and the serving spectrum
    /// cache all walk this order; [`Self::map`] rebuilds a layer in it.
    pub(crate) fn tensors(&self) -> impl Iterator<Item = Tensor<&M, &[f32]>> {
        let (lstm, gru) = match self {
            RnnLayer::Lstm(l) => (Some(l.tensors()), None),
            RnnLayer::Gru(g) => (None, Some(g.tensors())),
        };
        lstm.into_iter().flatten().chain(gru.into_iter().flatten())
    }

    /// [`Self::tensors`], mutably.
    pub(crate) fn tensors_mut(&mut self) -> impl Iterator<Item = Tensor<&mut M, &mut [f32]>> {
        let (lstm, gru) = match self {
            RnnLayer::Lstm(l) => (Some(l.tensors_mut()), None),
            RnnLayer::Gru(g) => (None, Some(g.tensors_mut())),
        };
        lstm.into_iter().flatten().chain(gru.into_iter().flatten())
    }

    /// The same layer in another weight representation: each weight
    /// matrix through `weight` (given its role), each vector through
    /// `vector`, called in [`Self::tensors`] order.
    pub(crate) fn map<N: MatVec>(
        &self,
        weight: impl FnMut(WeightRole, &M) -> N,
        vector: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> RnnLayer<N> {
        match self {
            RnnLayer::Lstm(l) => RnnLayer::Lstm(l.map(weight, vector)),
            RnnLayer::Gru(g) => RnnLayer::Gru(g.map(weight, vector)),
        }
    }

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize {
        self.tensors()
            .map(|t| match t {
                Tensor::Weight(_, w) => w.param_count(),
                Tensor::Vector(v) => v.len(),
            })
            .sum()
    }
}

impl RnnLayer<Matrix> {
    /// Backpropagation through time over `tape`; dispatches on the cell
    /// type.
    ///
    /// # Panics
    ///
    /// Panics if the gradients were not shaped, or the tape not recorded,
    /// by this layer's cell type.
    pub(crate) fn backward_seq(
        &self,
        tape: &LayerTape,
        d_outputs: &[Vec<f32>],
        grads: &mut RnnLayer<Matrix>,
    ) -> Vec<Vec<f32>> {
        // A cell fills only its own planes of the tape.
        match (self, grads) {
            (RnnLayer::Lstm(l), RnnLayer::Lstm(g)) if tape.rc.is_empty() => {
                l.backward_seq(tape, d_outputs, g)
            }
            (RnnLayer::Gru(l), RnnLayer::Gru(g)) if tape.m.is_empty() => {
                l.backward_seq(tape, d_outputs, g)
            }
            _ => panic!("layer/tape/grads variant mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LstmConfig;
    use rand::SeedableRng;

    #[test]
    fn dims_dispatch_to_cells() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let lstm = RnnLayer::Lstm(LstmLayer::new_dense(LstmConfig::simple(3, 5), &mut rng));
        assert_eq!(lstm.input_dim(), 3);
        assert_eq!(lstm.output_dim(), 5);
        assert_eq!(lstm.hidden_dim(), 5);
        let gru = RnnLayer::Gru(GruLayer::new_dense(4, 6, &mut rng));
        assert_eq!(gru.input_dim(), 4);
        assert_eq!(gru.output_dim(), 6);
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn backward_rejects_mismatched_cache() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let lstm_layer = LstmLayer::new_dense(LstmConfig::simple(2, 3), &mut rng);
        let gru_layer = GruLayer::new_dense(2, 3, &mut rng);
        let inputs = vec![vec![0.0, 0.0]];
        let (_, gru_tape) = crate::seq::walk_layer(RnnLayer::Gru(gru_layer), &inputs);
        let layer = RnnLayer::Lstm(lstm_layer);
        let mut grads = layer.map(
            |_, w| Matrix::zeros(w.rows(), w.cols()),
            |v| vec![0.0; v.len()],
        );
        let _ = layer.backward_seq(&gru_tape, &[vec![0.0, 0.0, 0.0]], &mut grads);
    }
}
