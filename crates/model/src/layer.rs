//! Uniform wrapper over the two cell types.

use crate::gru::{GruGrads, GruLayer};
use crate::lstm::{LstmGrads, LstmLayer, ParamCount};
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

/// Gradients for one layer.
#[derive(Debug, Clone)]
pub enum LayerGrads {
    /// Gradients of an LSTM layer.
    Lstm(LstmGrads),
    /// Gradients of a GRU layer.
    Gru(GruGrads),
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

    /// Number of stored parameters.
    pub fn param_count(&self) -> usize
    where
        M: ParamCount,
    {
        match self {
            RnnLayer::Lstm(l) => l.param_count(),
            RnnLayer::Gru(g) => g.param_count(),
        }
    }
}

impl RnnLayer<Matrix> {
    /// Zero gradients shaped like this layer.
    pub fn zero_grads(&self) -> LayerGrads {
        match self {
            RnnLayer::Lstm(l) => LayerGrads::Lstm(l.zero_grads()),
            RnnLayer::Gru(g) => LayerGrads::Gru(g.zero_grads()),
        }
    }

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
        grads: &mut LayerGrads,
    ) -> Vec<Vec<f32>> {
        // A cell fills only its own planes of the tape.
        match (self, grads) {
            (RnnLayer::Lstm(l), LayerGrads::Lstm(g)) if tape.rc.is_empty() => {
                l.backward_seq(tape, d_outputs, g)
            }
            (RnnLayer::Gru(l), LayerGrads::Gru(g)) if tape.m.is_empty() => {
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
        let mut grads = layer.zero_grads();
        let _ = layer.backward_seq(&gru_tape, &[vec![0.0, 0.0, 0.0]], &mut grads);
    }
}
