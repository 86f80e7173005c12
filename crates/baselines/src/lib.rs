//! Baseline compression methods the paper compares E-RNN against.
//!
//! * [`sparse`] — compressed sparse row storage and matvec, the execution
//!   format of ESE's pruned LSTM.
//! * [`prune`] — ESE-style magnitude pruning with masked retraining
//!   (Han et al.'s "learning both weights and connections" recipe) and
//!   index-aware compression accounting (the paper's 4.5:1 effective
//!   ratio for a 9× pruned model).
//!
//! C-LSTM-style training — the weights *directly* parameterized as
//! block-circulant (gradients projected onto the circulant subspace every
//! step) without ADMM's dual variables — is `ernn_admm::train_projected`,
//! the same loop as Fig. 6's constrained retraining. The paper's accuracy
//! comparison (0.14% vs 0.32% PER degradation at block 8) is between
//! `ernn_admm::Recipe::compress` and that loop; the `clstm` module's
//! tests hold the two side by side.

#![forbid(unsafe_code)]

mod clstm;
pub mod prune;
pub mod sparse;

pub use prune::{magnitude_prune, PruneReport, PrunedNetwork};
pub use sparse::CsrMatrix;
