//! Reusable workspace for the matvec kernels.

/// Caller-owned scratch space for the `_into` matvec kernels.
///
/// One scratch serves matrices of any shape and any batch size: every
/// buffer grows to the largest size seen and is then reused, so
/// steady-state [`BlockCirculantMatrix::matvec_into`](crate::BlockCirculantMatrix::matvec_into)
/// / [`matvec_batch_into`](crate::BlockCirculantMatrix::matvec_batch_into)
/// calls perform zero heap allocations. A serving worker keeps one
/// `MatVecScratch` (inside its cell/network scratch) for its whole
/// lifetime and threads it through every layer.
#[derive(Debug, Clone, Default)]
pub struct MatVecScratch {
    /// Time-domain lane planes of one FFT call, `[sample][lane]`.
    pub(crate) time: Vec<f32>,
    /// FFT'd input blocks of the whole batch, `[chunk][bin][re|im][lane]`.
    pub(crate) x_spectra: Vec<f32>,
    /// Frequency-domain accumulators of one tile, `[b][bin][re|im][lane]`.
    pub(crate) acc: Vec<f32>,
}

impl MatVecScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        MatVecScratch::default()
    }
}
