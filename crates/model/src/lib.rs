//! RNN cells, stacked networks and training for the E-RNN reproduction.
//!
//! Implements the two cell types the paper evaluates (Sec. II):
//!
//! * [`LstmLayer`] — the Google-style LSTM of Sak et al. with peephole
//!   connections and an optional recurrent projection layer (paper Eqn. 1,
//!   Fig. 3a). The fused weight layout follows the paper's observation that
//!   the four gate matrices concatenate into one matvec
//!   `W_(ifgo)(xr)·[xᵀ, yᵀ₋₁]ᵀ`.
//! * [`GruLayer`] — the paper's GRU variant (Eqn. 2, Fig. 3b) where the
//!   update/reset gates read `[xᵀ, cᵀ₋₁]ᵀ` and the candidate state applies
//!   the reset gate to the previous cell state before its recurrent matvec.
//!
//! Both cells are generic over [`MatVec`], so the identical forward code
//! runs dense training weights and block-circulant inference weights.
//!
//! Each equation is written **once**: Eqn. 1 is
//! [`LstmLayer::step_batch_with`] and Eqn. 2 is
//! [`GruLayer::step_batch_with`], whole-plane passes over the five hooks of
//! a statically dispatched [`CellArith`] — `accumulate` (`pre ⊕ rec ⊕
//! bias`), `peephole`, `sigmoid`, `activate` and `round` — which are the
//! only places float and fixed-point evaluation differ. The loop around
//! the step is written once too: [`RnnNetwork::hidden_batch_with`]
//! (`seq.rs`) walks a batch of utterances through the layer stack in
//! lock-step — ragged lengths, an optional carried [`NetworkState`] per
//! lane, allocation-free over an [`ExecScratch`] — in whatever
//! `CellArith` it is handed. It has three callers: float inference
//! ([`RnnNetwork::forward_logits`]) and the training forward
//! ([`RnnNetwork::forward_backward`], which has it record a [`LayerTape`]
//! of each layer's activated gate planes for BPTT) at the `f32` arithmetic, and
//! `ernn_fpga::exec` at (word length, PWL units). Tests hold the float
//! step to the bits of the per-element steps it replaced
//! (`lstm/reference.rs`, `gru/reference.rs`), the tape to the cache those
//! return, and a ragged batch to its lanes walked alone.
//! Full backpropagation through time is implemented for the dense
//! representation ([`RnnNetwork::forward_backward`]) and validated by
//! finite-difference tests.
//!
//! Each cell lists its tensors **once**, in `lstm.rs` / `gru.rs`: an
//! ordered list of its weight matrices (each with its [`WeightRole`]) and
//! bias / peephole vectors, and one `map` that rebuilds the layer in
//! another representation through `from_parts`. Gradients are an
//! `RnnNetwork<Matrix>` ([`RnnNetwork::zero_grads`]) — each `∂L/∂θ` sits
//! in its `θ`'s field — and everything else that visits every tensor
//! folds over that list or that map: the optimizer's slice pairs
//! ([`RnnNetwork::param_slices`] / [`RnnNetwork::param_slices_mut`]),
//! zeroing and scaling, [`RnnNetwork::weight_matrices`] (ADMM's
//! constraints, pruning masks, the serving spectrum cache), parameter
//! counts, [`compress_network_layers`] and the fixed-point quantization
//! pass ([`RnnNetwork::map`]).
//!
//! A model's shape is written down once, as a [`ModelSpec`] (cell type,
//! dimensions, layer stack, peepholes, projection); [`ModelSpec::build`]
//! instantiates it as a dense, Xavier-initialized network, and
//! [`ModelSpec::matches`] checks a network against it.
//!
//! ```
//! use ernn_model::{CellType, ModelSpec};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let net = ModelSpec::new(CellType::Lstm, 8, 10)
//!     .layer_dims(&[16, 16])
//!     .build(&mut rng);
//! let frames = vec![vec![0.1f32; 8]; 5];
//! let logits = net.forward_logits(&frames);
//! assert_eq!(logits.len(), 5);
//! assert_eq!(logits[0].len(), 10);
//! ```

#![forbid(unsafe_code)]

mod activation;
mod cell;
mod compress;
mod gru;
mod layer;
mod loss;
mod lstm;
mod network;
mod optim;
mod seq;
mod spec;
pub mod trainer;

pub use activation::Act;
pub use cell::{CellArith, CellScratch, GruScratch, LstmScratch};
pub use compress::{compress_network, compress_network_layers, BlockPolicy};
pub use gru::{GruInputStack, GruLayer};
pub use layer::RnnLayer;
pub use loss::softmax_cross_entropy;
pub use lstm::{LstmConfig, LstmLayer};
pub use network::{CellType, RnnNetwork, WeightRole};
pub use optim::{Sgd, CLIP_NORM, MOMENTUM};
pub use seq::{ExecScratch, LayerTape, NetworkState};
pub use spec::ModelSpec;

pub use ernn_linalg::{BlockCirculantMatrix, MatVec, Matrix, WeightMatrix};
