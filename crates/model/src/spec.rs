//! The one description of a model's shape.
//!
//! [`ModelSpec`] is the "what" of a model — cell type, dimensions, layer
//! stack, structural options — separated from the "how" (training
//! hyperparameters, block policy, datapath). The same value builds the
//! dense network ([`ModelSpec::build`]), checks an externally trained
//! network against the shape ([`ModelSpec::matches`]), and travels inside
//! a serialized artifact as provenance of the deployed shape.

use crate::layer::RnnLayer;
use crate::network::{CellType, RnnNetwork, WeightRole};
use crate::{GruLayer, LstmConfig, LstmLayer};
use ernn_linalg::{MatVec, Matrix};
use rand::Rng;

/// The declarative shape of an acoustic model, as plain data; the
/// builder-style setters refine the [`Self::new`] defaults and
/// [`Self::build`] instantiates it.
///
/// ```
/// use ernn_model::{CellType, ModelSpec};
/// let spec = ModelSpec::new(CellType::Gru, 26, 40).layer_dims(&[64, 64]);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Recurrent cell type.
    pub cell: CellType,
    /// Input feature dimension per frame.
    pub input_dim: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Hidden dimension of each stacked layer.
    pub layer_dims: Vec<usize>,
    /// LSTM peephole connections (ignored for GRU).
    pub peephole: bool,
    /// LSTM recurrent projection dimension (ignored for GRU).
    pub projection: Option<usize>,
}

impl ModelSpec {
    /// A spec mapping `input_dim` features to `classes` framewise
    /// posteriors, with the defaults: one 128-wide layer, no peepholes, no
    /// projection.
    pub fn new(cell: CellType, input_dim: usize, classes: usize) -> Self {
        ModelSpec {
            cell,
            input_dim,
            classes,
            layer_dims: vec![128],
            peephole: false,
            projection: None,
        }
    }

    /// Replaces the stacked layer dimensions (the paper's "layer size",
    /// e.g. `256-256-256`).
    pub fn layer_dims(mut self, dims: &[usize]) -> Self {
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

    /// Checks the spec is instantiable (non-empty layer stack, non-zero
    /// dimensions). Returns a human-readable reason on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.input_dim == 0 {
            return Err("input dimension must be non-zero".into());
        }
        if self.classes == 0 {
            return Err("class count must be non-zero".into());
        }
        if self.layer_dims.is_empty() {
            return Err("need at least one layer".into());
        }
        if let Some(&bad) = self.layer_dims.iter().find(|&&d| d == 0) {
            return Err(format!("layer dimension must be non-zero, got {bad}"));
        }
        if self.projection == Some(0) {
            return Err("projection dimension must be non-zero".into());
        }
        Ok(())
    }

    /// Instantiates the dense network with seeded random initialization:
    /// [`Self::build_with`] with one [`Matrix::xavier`] draw per weight
    /// matrix.
    ///
    /// ```
    /// use ernn_model::{CellType, ModelSpec};
    /// use rand::SeedableRng;
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    /// let net = ModelSpec::new(CellType::Lstm, 26, 20)
    ///     .layer_dims(&[64, 64])
    ///     .peephole(true)
    ///     .projection(32)
    ///     .build(&mut rng);
    /// assert_eq!(net.num_layers(), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`Self::validate`]).
    pub fn build(&self, rng: &mut impl Rng) -> RnnNetwork<Matrix> {
        self.build_with(rng, |_, rows, cols, rng| Matrix::xavier(rows, cols, rng))
    }

    /// Instantiates the network with seeded random initialization, each
    /// weight matrix made by `weight(role, rows, cols, rng)`: layer by
    /// layer (an LSTM layer draws its peepholes, then `wym`, `wx`, `wr`; a
    /// GRU layer `wzr_x`, `wzr_c`, `wcx`, `wcc`), then the classifier, one
    /// [`Matrix::xavier`] draw. This is the one definition of the order in
    /// which a seeded model draws from `rng`: a `weight` that draws what
    /// `Matrix::xavier` draws leaves `rng` where [`Self::build`] does.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`Self::validate`]).
    pub fn build_with<M: MatVec, R: Rng>(
        &self,
        rng: &mut R,
        mut weight: impl FnMut(WeightRole, usize, usize, &mut R) -> M,
    ) -> RnnNetwork<M> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut layers = Vec::with_capacity(self.layer_dims.len());
        let mut in_dim = self.input_dim;
        for (i, &h) in self.layer_dims.iter().enumerate() {
            let layer = match self.cell {
                CellType::Lstm => {
                    let cfg = LstmConfig {
                        input_dim: in_dim,
                        hidden_dim: h,
                        output_dim: self.layer_output_dim(i),
                        peephole: self.peephole,
                    };
                    RnnLayer::Lstm(LstmLayer::new_with(cfg, rng, &mut weight))
                }
                CellType::Gru => RnnLayer::Gru(GruLayer::new_with(in_dim, h, rng, &mut weight)),
            };
            in_dim = layer.output_dim();
            layers.push(layer);
        }
        let classifier_w = Matrix::xavier(self.classes, in_dim, rng);
        RnnNetwork::from_parts(layers, classifier_w, vec![0.0; self.classes])
    }

    /// The output dimension of stacked layer `i` under this spec
    /// (projection-aware for LSTM).
    fn layer_output_dim(&self, i: usize) -> usize {
        let h = self.layer_dims[i];
        match (self.cell, self.projection) {
            (CellType::Lstm, Some(p)) => p.min(h),
            _ => h,
        }
    }

    /// Checks that `net` has exactly the shape this spec describes —
    /// cell types, dimensions, peepholes, projection, classifier shape.
    /// Returns a human-readable mismatch description on failure.
    pub fn matches<M: MatVec>(&self, net: &RnnNetwork<M>) -> Result<(), String> {
        self.validate()?;
        if net.num_layers() != self.layer_dims.len() {
            return Err(format!(
                "layer count mismatch: spec {} vs network {}",
                self.layer_dims.len(),
                net.num_layers()
            ));
        }
        if net.input_dim() != self.input_dim {
            return Err(format!(
                "input dim mismatch: spec {} vs network {}",
                self.input_dim,
                net.input_dim()
            ));
        }
        if net.num_classes() != self.classes {
            return Err(format!(
                "class count mismatch: spec {} vs network {}",
                self.classes,
                net.num_classes()
            ));
        }
        for (i, layer) in net.layers().iter().enumerate() {
            // Inter-layer chaining: layer i must consume exactly what the
            // previous layer (or the input) produces. `from_parts` asserts
            // it, but `layers_mut` can swap in a well-shaped layer that
            // disagrees here, and the sequence walker would read a narrower
            // consumer's rows from the wrong offsets without failing.
            let expect_in = if i == 0 {
                self.input_dim
            } else {
                self.layer_output_dim(i - 1)
            };
            if layer.input_dim() != expect_in {
                return Err(format!(
                    "layer {i} input dim mismatch: expected {expect_in} from the previous \
                     layer, network has {}",
                    layer.input_dim()
                ));
            }
            match (self.cell, layer) {
                (CellType::Lstm, RnnLayer::Lstm(l)) => {
                    let cfg = l.config();
                    if cfg.hidden_dim != self.layer_dims[i] {
                        return Err(format!(
                            "layer {i} hidden dim mismatch: spec {} vs network {}",
                            self.layer_dims[i], cfg.hidden_dim
                        ));
                    }
                    if cfg.output_dim != self.layer_output_dim(i) {
                        return Err(format!(
                            "layer {i} output dim mismatch: spec {} vs network {}",
                            self.layer_output_dim(i),
                            cfg.output_dim
                        ));
                    }
                    if cfg.peephole != self.peephole {
                        return Err(format!("layer {i} peephole presence mismatch"));
                    }
                }
                (CellType::Gru, RnnLayer::Gru(g)) => {
                    if g.hidden_dim() != self.layer_dims[i] {
                        return Err(format!(
                            "layer {i} hidden dim mismatch: spec {} vs network {}",
                            self.layer_dims[i],
                            g.hidden_dim()
                        ));
                    }
                }
                _ => return Err(format!("layer {i} cell type mismatch")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn builder_round_trips_the_spec() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let spec = ModelSpec::new(cell, 6, 4)
                .layer_dims(&[8, 8])
                .peephole(true);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
            let net = spec.build(&mut rng);
            assert_eq!(spec.matches(&net), Ok(()), "{cell}");
        }
    }

    #[test]
    fn build_draws_each_layer_in_order_then_the_classifier() {
        // The draw order every trained digit and served byte depends on:
        // one Xavier draw per weight tensor, layer by layer, classifier last.
        let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let spec = ModelSpec::new(CellType::Lstm, 5, 3)
            .layer_dims(&[8, 6])
            .peephole(true)
            .projection(4);
        let cfg = |input_dim, hidden_dim| LstmConfig {
            input_dim,
            hidden_dim,
            output_dim: 4,
            peephole: true,
        };
        let l0 = RnnLayer::Lstm(LstmLayer::new_dense(cfg(5, 8), &mut b));
        let l1 = RnnLayer::Lstm(LstmLayer::new_dense(cfg(4, 6), &mut b));
        let head = Matrix::xavier(3, 4, &mut b);
        let by_hand = RnnNetwork::from_parts(vec![l0, l1], head, vec![0.0; 3]);
        assert_eq!(spec.build(&mut a), by_hand);
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(ModelSpec::new(CellType::Gru, 0, 4).validate().is_err());
        assert!(ModelSpec::new(CellType::Gru, 4, 0).validate().is_err());
        assert!(ModelSpec::new(CellType::Gru, 4, 4)
            .layer_dims(&[])
            .validate()
            .is_err());
        assert!(ModelSpec::new(CellType::Gru, 4, 4)
            .layer_dims(&[8, 0])
            .validate()
            .is_err());
    }

    fn build(spec: ModelSpec) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let _ = spec.build(&mut rng);
    }

    #[test]
    #[should_panic(expected = "input dimension must be non-zero")]
    fn build_rejects_a_zero_input_dim() {
        build(ModelSpec::new(CellType::Gru, 0, 4));
    }

    #[test]
    #[should_panic(expected = "class count must be non-zero")]
    fn build_rejects_zero_classes() {
        build(ModelSpec::new(CellType::Gru, 4, 0));
    }

    #[test]
    #[should_panic(expected = "need at least one layer")]
    fn build_rejects_an_empty_layer_stack() {
        build(ModelSpec::new(CellType::Gru, 4, 4).layer_dims(&[]));
    }

    #[test]
    #[should_panic(expected = "layer dimension must be non-zero, got 0")]
    fn build_rejects_a_zero_layer() {
        build(ModelSpec::new(CellType::Gru, 4, 4).layer_dims(&[8, 0]));
    }

    #[test]
    #[should_panic(expected = "projection dimension must be non-zero")]
    fn build_rejects_a_zero_projection() {
        build(ModelSpec::new(CellType::Lstm, 4, 4).projection(0));
    }

    #[test]
    fn matches_rejects_shape_drift() {
        let spec = ModelSpec::new(CellType::Gru, 6, 4).layer_dims(&[8]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let net = spec.build(&mut rng);
        assert!(spec.matches(&net).is_ok());
        let wrong_dims = spec.clone().layer_dims(&[16]);
        assert!(wrong_dims.matches(&net).is_err());
        let wrong_cell = ModelSpec::new(CellType::Lstm, 6, 4).layer_dims(&[8]);
        assert!(wrong_cell.matches(&net).is_err());
    }

    #[test]
    fn matches_rejects_broken_inter_layer_chaining() {
        use crate::{GruLayer, Matrix, RnnLayer};
        // Two GRU layers, each internally consistent, but after the swap
        // layer 1 reads a 12-wide input while layer 0 outputs 8 — only the
        // chaining check can catch this before inference.
        let gru = |in_dim: usize, h: usize| {
            GruLayer::from_parts(
                in_dim,
                h,
                Matrix::zeros(2 * h, in_dim),
                Matrix::zeros(2 * h, h),
                vec![0.0; 2 * h],
                Matrix::zeros(h, in_dim),
                Matrix::zeros(h, h),
                vec![0.0; h],
            )
        };
        let mut net = RnnNetwork::from_parts(
            vec![RnnLayer::Gru(gru(6, 8)), RnnLayer::Gru(gru(8, 16))],
            Matrix::zeros(5, 16),
            vec![0.0; 5],
        );
        net.layers_mut()[1] = RnnLayer::Gru(gru(12, 16));
        let spec = ModelSpec::new(CellType::Gru, 6, 5).layer_dims(&[8, 16]);
        let err = spec.matches(&net).unwrap_err();
        assert!(err.contains("layer 1 input dim"), "{err}");
    }

    #[test]
    fn projection_aware_output_dims() {
        let spec = ModelSpec::new(CellType::Lstm, 6, 4)
            .layer_dims(&[16, 16])
            .projection(8);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let net = spec.build(&mut rng);
        assert_eq!(spec.matches(&net), Ok(()));
    }
}
