//! Weight-matrix abstraction shared by dense and compressed models.
//!
//! RNN cells in `ernn-model` are generic over [`MatVec`] so that the same
//! forward-pass code runs the uncompressed training model
//! ([`crate::Matrix`]), the compressed inference model
//! ([`crate::BlockCirculantMatrix`]), or a mixture chosen at run time
//! ([`WeightMatrix`]).

use crate::{BlockCirculantMatrix, MatVecScratch, Matrix};

/// A matrix that can multiply a vector. (BPTT's transpose product is the
/// inherent [`Matrix::matvec_t`]: training is dense.)
///
/// This is the only capability an RNN cell's forward pass needs from its
/// weights. The trait is sealed-by-convention: the workspace implements it
/// for [`Matrix`], [`BlockCirculantMatrix`] and [`WeightMatrix`].
///
/// The `_into` methods are the allocation-free forms used by the
/// inference hot path; they must be bit-identical to `matvec`. The
/// provided defaults fall back to the allocating path, and every
/// workspace implementation overrides them with true in-place kernels.
pub trait MatVec {
    /// Output dimension.
    fn rows(&self) -> usize;
    /// Input dimension.
    fn cols(&self) -> usize;
    /// Number of stored parameters (dense: `rows·cols`; block-circulant:
    /// the defining vectors).
    fn param_count(&self) -> usize;
    /// `y = A·x`.
    fn matvec(&self, x: &[f32]) -> Vec<f32>;

    /// `y = A·x` into a caller-provided buffer, borrowing `scratch` for
    /// intermediates. Bit-identical to [`Self::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        let _ = scratch;
        y.copy_from_slice(&self.matvec(x));
    }

    /// Batched `ys[b] = A·xs[b]` over contiguous `batch × cols` inputs
    /// and `batch × rows` outputs. Bit-identical per input to
    /// [`Self::matvec`]; implementations may fuse the batch (the
    /// block-circulant kernel streams its weight spectra once per batch).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `batch` and the shape.
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        let (rows, cols) = (self.rows(), self.cols());
        assert_eq!(
            xs.len(),
            batch * cols,
            "input length must equal batch × cols"
        );
        assert_eq!(
            ys.len(),
            batch * rows,
            "output length must equal batch × rows"
        );
        for b in 0..batch {
            self.matvec_into(
                &xs[b * cols..(b + 1) * cols],
                &mut ys[b * rows..(b + 1) * rows],
                scratch,
            );
        }
    }
}

impl MatVec for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn param_count(&self) -> usize {
        self.rows() * self.cols()
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        Matrix::matvec(self, x)
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], _scratch: &mut MatVecScratch) {
        Matrix::matvec_into(self, x, y);
    }
}

/// A weight matrix in either representation, chosen at run time.
///
/// Phase I of E-RNN may assign *different* block sizes to different weight
/// matrices (Sec. VI-B step 3 uses larger blocks for input/output matrices),
/// including leaving some dense; this enum is the uniform container.
///
/// ```
/// use ernn_linalg::{Matrix, MatVec, WeightMatrix, BlockCirculantMatrix};
/// let dense = Matrix::from_fn(4, 4, |r, c| (r + c) as f32);
/// let w = WeightMatrix::Circulant(BlockCirculantMatrix::project_dense(&dense, 2));
/// assert_eq!(w.rows(), 4);
/// assert_eq!(w.param_count(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum WeightMatrix {
    /// Uncompressed storage.
    Dense(Matrix),
    /// Block-circulant compressed storage.
    Circulant(BlockCirculantMatrix),
}

impl WeightMatrix {
    /// Block size of the representation (1 for dense).
    pub fn block_size(&self) -> usize {
        match self {
            WeightMatrix::Dense(_) => 1,
            WeightMatrix::Circulant(m) => m.block_size(),
        }
    }

    /// Materializes a dense copy.
    pub fn to_dense(&self) -> Matrix {
        match self {
            WeightMatrix::Dense(m) => m.clone(),
            WeightMatrix::Circulant(m) => m.to_dense(),
        }
    }

    /// `[self; below]` as one operand sharing one input, with the output
    /// row at which `below`'s product starts: a row concatenation for a
    /// dense pair, [`BlockCirculantMatrix::stack_block_rows`] for a
    /// block-circulant pair (whose second half starts on a block
    /// boundary). Both output slices are bit-identical to the separate
    /// matvecs. `None` when the representations, block sizes or column
    /// counts differ.
    pub fn stack_rows(&self, below: &WeightMatrix) -> Option<(WeightMatrix, usize)> {
        match (self, below) {
            (WeightMatrix::Dense(a), WeightMatrix::Dense(b)) if a.cols() == b.cols() => {
                let data = [a.as_slice(), b.as_slice()].concat();
                let stacked = Matrix::from_vec(a.rows() + b.rows(), a.cols(), data);
                Some((WeightMatrix::Dense(stacked), a.rows()))
            }
            (WeightMatrix::Circulant(a), WeightMatrix::Circulant(b)) => {
                let offset = a.grid().0 * a.block_size();
                Some((WeightMatrix::Circulant(a.stack_block_rows(b)?), offset))
            }
            _ => None,
        }
    }
}

impl MatVec for WeightMatrix {
    fn rows(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.rows(),
            WeightMatrix::Circulant(m) => m.rows(),
        }
    }
    fn cols(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.cols(),
            WeightMatrix::Circulant(m) => m.cols(),
        }
    }
    fn param_count(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.param_count(),
            WeightMatrix::Circulant(m) => m.param_count(),
        }
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        match self {
            WeightMatrix::Dense(m) => m.matvec(x),
            WeightMatrix::Circulant(m) => m.matvec(x),
        }
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        match self {
            WeightMatrix::Dense(m) => MatVec::matvec_into(m, x, y, scratch),
            WeightMatrix::Circulant(m) => m.matvec_into(x, y, scratch),
        }
    }
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        match self {
            WeightMatrix::Dense(m) => MatVec::matvec_batch_into(m, xs, ys, batch, scratch),
            WeightMatrix::Circulant(m) => m.matvec_batch_into(xs, ys, batch, scratch),
        }
    }
}

impl From<Matrix> for WeightMatrix {
    fn from(m: Matrix) -> Self {
        WeightMatrix::Dense(m)
    }
}

impl From<BlockCirculantMatrix> for WeightMatrix {
    fn from(m: BlockCirculantMatrix) -> Self {
        WeightMatrix::Circulant(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn enum_dispatch_matches_inner() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let dense = Matrix::xavier(8, 8, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let w = WeightMatrix::Dense(dense.clone());
        assert_eq!(w.matvec(&x), dense.matvec(&x));

        let bc = BlockCirculantMatrix::project_dense(&dense, 4);
        let w = WeightMatrix::Circulant(bc.clone());
        assert_eq!(w.matvec(&x), bc.matvec(&x));
        assert_eq!(w.param_count(), bc.param_count());
        assert_eq!(w.block_size(), 4);
    }

    /// A random `rows × cols` weight matrix: dense for `block ≤ 1`, else
    /// block-circulant with ragged edges wherever the dims do not divide.
    fn random_weight(rows: usize, cols: usize, block: usize, rng: &mut impl Rng) -> WeightMatrix {
        let mut random =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        if block <= 1 {
            return WeightMatrix::Dense(Matrix::from_vec(rows, cols, random(rows * cols)));
        }
        let blocks = random(rows.div_ceil(block) * cols.div_ceil(block) * block);
        WeightMatrix::Circulant(BlockCirculantMatrix::from_blocks(rows, cols, block, blocks))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One matvec through `[top; below]` against the two separate
        /// matvecs, in bits — dense pairs and block-circulant pairs, row
        /// counts on and off a block boundary, tiles on both sides of the
        /// 4-lane width, batches with their own scratch reuse.
        #[test]
        fn stacked_rows_are_bit_identical_to_the_two_matvecs(
            lb_pow in 0u32..5,
            h in 1usize..40,
            cols in 1usize..30,
            batch in 1usize..5,
            seed in any::<u64>(),
        ) {
            let block = 1usize << lb_pow;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let top = random_weight(2 * h, cols, block, &mut rng);
            let below = random_weight(h, cols, block, &mut rng);
            let (stacked, offset) = top.stack_rows(&below).expect("same representation");
            prop_assert_eq!(offset, (2 * h).div_ceil(block) * block);
            prop_assert_eq!((stacked.rows(), stacked.cols()), (offset + h, cols));

            let xs: Vec<f32> = (0..batch * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut scratch = MatVecScratch::new();
            let run = |w: &WeightMatrix, scratch: &mut MatVecScratch| {
                let mut ys = vec![f32::NAN; batch * w.rows()];
                w.matvec_batch_into(&xs, &mut ys, batch, scratch);
                ys
            };
            let (want_top, want_below) = (run(&top, &mut scratch), run(&below, &mut scratch));
            let got = run(&stacked, &mut scratch);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (b, lane) in got.chunks(stacked.rows()).enumerate() {
                prop_assert_eq!(bits(&lane[..2 * h]), bits(&want_top[b * 2 * h..][..2 * h]));
                prop_assert_eq!(bits(&lane[offset..]), bits(&want_below[b * h..][..h]));
            }
        }
    }

    #[test]
    fn operands_that_differ_in_kind_block_or_width_do_not_stack() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let bc8 = random_weight(16, 8, 8, &mut rng);
        for other in [
            random_weight(8, 8, 1, &mut rng),
            random_weight(8, 8, 4, &mut rng),
            random_weight(8, 16, 8, &mut rng),
        ] {
            assert!(bc8.stack_rows(&other).is_none());
            assert!(other.stack_rows(&bc8).is_none());
        }
        let dense = random_weight(16, 8, 1, &mut rng);
        assert!(dense
            .stack_rows(&random_weight(8, 9, 1, &mut rng))
            .is_none());
    }

    #[test]
    fn from_conversions() {
        let m = Matrix::zeros(2, 2);
        let w: WeightMatrix = m.into();
        assert_eq!(w.block_size(), 1);
        assert_eq!(w.param_count(), 4);
    }
}
