//! ADMM-based structured training (paper Sec. III-B, Figs. 5 & 6).
//!
//! The block-circulant constraint is combinatorial, so E-RNN trains with
//! the alternating direction method of multipliers. Per weight matrix `W`
//! the algorithm keeps an auxiliary `Z` (the structured copy) and a scaled
//! dual `U`, iterating:
//!
//! 1. **Subproblem 1** — minimize `f(W) + (ρ/2)·‖W − Z + U‖²_F` by ordinary
//!    SGD; the quadratic term enters as an extra gradient `ρ(W − Z + U)`.
//! 2. **Subproblem 2** — `Z ← Π(W + U)`, the Euclidean projection onto the
//!    constraint set. For block-circulant structure the optimal projection
//!    is the diagonal averaging of Eqn. 6 (implemented in `ernn-linalg`).
//!    The paper notes ADMM handles quantization sets in the same framework;
//!    this repository does not reproduce that remark.
//! 3. **Dual update** — `U ← U + W − Z`.
//!
//! [`Recipe`] is the whole of Fig. 6 and the only way into this loop:
//! [`Recipe::pretrain`] trains the dense model, and [`Recipe::compress`]
//! runs the ADMM iterations, then [`train_projected`] — the hard
//! projection `W ← Π(W)` that snaps the weights exactly onto the
//! constraint set, and the constrained retraining (the "retrain to obtain
//! the block circulant model" box) — and the block-circulant extraction,
//! which is lossless on those weights. [`train_projected`] is also
//! C-LSTM-style direct block-circulant training, the baseline the paper
//! compares ADMM against.

#![forbid(unsafe_code)]

mod constraint;
pub mod recipe;
mod trainer;

pub use recipe::Recipe;
pub use trainer::{train_projected, AdmmConfig, AdmmIterStats, AdmmReport};
