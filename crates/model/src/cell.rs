//! The arithmetic a cell step is evaluated in, and the step's workspace.
//!
//! Eqn. 1 ([`LstmLayer::step_batch_with`](crate::LstmLayer::step_batch_with))
//! and Eqn. 2 ([`GruLayer::step_batch_with`](crate::GruLayer::step_batch_with))
//! are each written once, as whole-slice passes over the five hooks of
//! [`CellArith`]. Phase II of the paper injects a word length and
//! piecewise-linear sigmoid/tanh into the trained cell without changing the
//! cell; here that is a second `CellArith` (in `ernn_fpga::exec`) handed to
//! the same step, so the network that is trained is the network that is
//! quantized and served.

use crate::activation::Act;
use ernn_linalg::MatVecScratch;

/// The five places where float and fixed-point evaluation of a cell differ.
/// Everything else in Eqn. 1 / Eqn. 2 is the same expression in the same
/// order under every arithmetic.
///
/// Hooks are statically dispatched and take whole planes, so each
/// implementation's loops stay straight-line per element and vectorise.
pub trait CellArith {
    /// `pre ← pre ⊕ rec ⊕ bias` on every lane of a `lanes × bias.len()`
    /// plane: the accumulate after a cell's paired matvecs. The
    /// implementation owns the association and any re-rounding.
    fn accumulate(&self, pre: &mut [f32], rec: &[f32], bias: &[f32]);

    /// `gate ← gate ⊕ w ⊙ c`: one diagonal peephole connection over a
    /// gate plane.
    fn peephole(&self, gate: &mut [f32], w: &[f32], c: &[f32]);

    /// The activation unit `act`, in place: tanh for the cell input,
    /// candidate and output, σ for the gates.
    fn activate(&self, act: Act, xs: &mut [f32]);

    /// The σ unit of the gates, in place: the activation unit at
    /// [`Act::Sigmoid`].
    #[inline]
    fn sigmoid(&self, xs: &mut [f32]) {
        self.activate(Act::Sigmoid, xs);
    }

    /// Rounds one product or sum to the arithmetic's word.
    fn round(&self, v: f32) -> f32;
}

/// IEEE `f32` with libm `exp`/`tanh`: the arithmetic of training and of
/// float inference. Nothing is re-rounded.
pub(crate) struct FloatArith;

impl CellArith for FloatArith {
    #[inline]
    fn accumulate(&self, pre: &mut [f32], rec: &[f32], bias: &[f32]) {
        for (pre, rec) in pre
            .chunks_exact_mut(bias.len())
            .zip(rec.chunks_exact(bias.len()))
        {
            for ((p, r), b) in pre.iter_mut().zip(rec.iter()).zip(bias.iter()) {
                *p += r + b;
            }
        }
    }

    #[inline]
    fn peephole(&self, gate: &mut [f32], w: &[f32], c: &[f32]) {
        for ((p, w), c) in gate.iter_mut().zip(w.iter()).zip(c.iter()) {
            *p += w * c;
        }
    }

    #[inline]
    fn activate(&self, act: Act, xs: &mut [f32]) {
        act.eval_slice(xs);
    }

    #[inline]
    fn round(&self, v: f32) -> f32 {
        v
    }
}

/// Reusable workspace of the cell steps, serving either cell at any shape
/// and batch size: a step grows only the planes it uses, to the largest
/// size seen, and the embedded [`MatVecScratch`] threads straight down into
/// the FFT kernels.
///
/// After a step the gate planes hold the *activated* gates; the sequence
/// walker appends them, row by row, to the
/// [`LayerTape`](crate::LayerTape) the training forward asks for.
#[derive(Debug, Clone, Default)]
pub struct CellScratch {
    /// Fused gates (`batch ×` LSTM `4H` as `i, f, g, o` / GRU `2H` as
    /// `z, r`): pre-activations, then activated in place.
    pub(crate) pre: Vec<f32>,
    /// Recurrent matvec output, shaped like `pre`.
    pub(crate) rec: Vec<f32>,
    /// LSTM `tanh(c_t)` (`batch × H`).
    pub(crate) tanh_c: Vec<f32>,
    /// LSTM cell output `m_t` before projection (`batch × H`).
    pub(crate) m: Vec<f32>,
    /// GRU reset-gated state `r ⊙ c_{t-1}` (`batch × H`).
    pub(crate) rc: Vec<f32>,
    /// GRU candidate (`batch × H`): pre-activation, then `c̃` in place.
    pub(crate) pre_c: Vec<f32>,
    /// GRU candidate recurrent matvec output (`batch × H`).
    pub(crate) rec_c: Vec<f32>,
    /// GRU stacked x-side projection (`batch ×` the stack's rows), before
    /// it is split into `pre` and `pre_c`.
    pub(crate) stacked: Vec<f32>,
    /// Matvec workspace shared by all weight matrices.
    pub(crate) mv: MatVecScratch,
}

impl CellScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        CellScratch::default()
    }
}

/// The workspace [`LstmLayer::step_batch_into`](crate::LstmLayer::step_batch_into) takes.
pub type LstmScratch = CellScratch;

/// The workspace [`GruLayer::step_batch_into`](crate::GruLayer::step_batch_into) takes.
pub type GruScratch = CellScratch;
