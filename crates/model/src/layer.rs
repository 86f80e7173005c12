//! Uniform wrapper over the two cell types.

use crate::gru::{GruCache, GruGrads, GruLayer};
use crate::lstm::{LstmCache, LstmGrads, LstmLayer, ParamCount};
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

/// Forward caches for one layer over a sequence.
#[derive(Debug, Clone)]
pub enum LayerCaches {
    /// Caches of an LSTM layer.
    Lstm(Vec<LstmCache>),
    /// Caches of a GRU layer.
    Gru(Vec<GruCache>),
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

    /// Runs the layer over a sequence.
    pub fn forward_seq(
        &self,
        inputs: &[Vec<f32>],
        want_cache: bool,
    ) -> (Vec<Vec<f32>>, LayerCaches) {
        match self {
            RnnLayer::Lstm(l) => {
                let (out, caches) = l.forward_seq(inputs, want_cache);
                (out, LayerCaches::Lstm(caches))
            }
            RnnLayer::Gru(g) => {
                let (out, caches) = g.forward_seq(inputs, want_cache);
                (out, LayerCaches::Gru(caches))
            }
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

    /// Backpropagation through time; dispatches on the cell type.
    ///
    /// # Panics
    ///
    /// Panics if the cache variant does not match the layer type.
    pub fn backward_seq(
        &self,
        caches: &LayerCaches,
        d_outputs: &[Vec<f32>],
        grads: &mut LayerGrads,
    ) -> Vec<Vec<f32>> {
        match (self, caches, grads) {
            (RnnLayer::Lstm(l), LayerCaches::Lstm(c), LayerGrads::Lstm(g)) => {
                l.backward_seq(c, d_outputs, g)
            }
            (RnnLayer::Gru(l), LayerCaches::Gru(c), LayerGrads::Gru(g)) => {
                l.backward_seq(c, d_outputs, g)
            }
            _ => panic!("layer/cache/grads variant mismatch"),
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
        let (_, gru_caches) = gru_layer.forward_seq(&inputs, true);
        let layer = RnnLayer::Lstm(lstm_layer);
        let mut grads = layer.zero_grads();
        let _ = layer.backward_seq(
            &LayerCaches::Gru(gru_caches),
            &[vec![0.0, 0.0, 0.0]],
            &mut grads,
        );
    }
}
