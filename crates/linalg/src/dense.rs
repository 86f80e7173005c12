//! Dense row-major matrix used for uncompressed weights and training state.

use crate::lanes::{lane_tiles, lanes, with_lane_width};
use rand::Rng;
use std::fmt;

/// A dense `rows × cols` matrix of `f32` in row-major order.
///
/// This is deliberately a small, explicit kernel set — matvec, transposed
/// matvec, rank-1 update — because those are exactly the operations BPTT
/// and ADMM need. No BLAS dependency keeps the reproduction self-contained.
///
/// ```
/// use ernn_linalg::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from explicit row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization: `U(-a, a)` with
    /// `a = sqrt(6 / (rows + cols))`, the standard choice for tanh/sigmoid
    /// RNNs.
    ///
    /// The entries are drawn in row-major order by one
    /// [`RngCore::fill_f32_range`](rand::RngCore::fill_f32_range), which
    /// draws what one `gen_range(-a..a)` per entry would.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let a = xavier_bound(rows, cols);
        let mut m = Matrix::zeros(rows, cols);
        rng.fill_f32_range(&mut m.data, -a, a);
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.rows];
        self.matvec_acc(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        y.iter_mut().for_each(|v| *v = 0.0);
        self.matvec_acc(x, y);
    }

    /// `y += A·x` (accumulating into the caller's buffer).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_acc(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        assert_eq!(y.len(), self.rows, "output length must equal rows");
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *out += acc;
        }
    }

    /// `y = Aᵀ·x` (used by backpropagation to push deltas through a layer).
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_acc(x, &mut y);
        y
    }

    /// `y += Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_t_acc(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "input length must equal rows");
        assert_eq!(y.len(), self.cols, "output length must equal cols");
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (out, &a) in y.iter_mut().zip(row.iter()) {
                *out += a * xv;
            }
        }
    }

    /// Rank-1 update `A += α · u·vᵀ` (the weight-gradient accumulation of
    /// BPTT: `dW += δ ⊗ input`).
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    pub fn add_outer(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "u length must equal rows");
        assert_eq!(v.len(), self.cols, "v length must equal cols");
        for (r, &uv) in u.iter().enumerate() {
            if uv == 0.0 {
                continue;
            }
            let s = alpha * uv;
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, &b) in row.iter_mut().zip(v.iter()) {
                *a += s * b;
            }
        }
    }

    /// `A += α·B`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply every entry by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Set every entry to zero (reusing the allocation).
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Frobenius norm `sqrt(Σ a²)`.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Largest absolute entry (used to size fixed-point formats).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, a| m.max(a.abs()))
    }
}

/// The `a` of [`Matrix::xavier`]'s `U(-a, a)`: `sqrt(6 / (rows + cols))`.
pub(crate) fn xavier_bound(rows: usize, cols: usize) -> f32 {
    (6.0 / (rows + cols) as f32).sqrt()
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// A lane-major copy of a dense matrix for `y = A·x`.
///
/// [`Matrix::matvec_into`] runs one latency-bound scalar add chain per
/// row. The panel stores the same entries as `[tile][col][lane]` — a tile
/// of up to 32 consecutive *rows* in the stride-1 lane axis, zero-padded
/// at the tail — so a tile's rows advance side by side through the
/// columns, each row still summing `a[r][c]·x[c]` over `c` ascending
/// from `+0.0`. Results are bit-identical to [`Matrix::matvec_into`]; only
/// which rows advance together changes.
///
/// ```
/// use ernn_linalg::{LanePanel, Matrix};
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let mut y = [0.0; 2];
/// LanePanel::from_matrix(&m).matvec_into(&[1.0, 1.0], &mut y);
/// assert_eq!(y, [3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LanePanel {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl LanePanel {
    /// Re-lays `m` out lane-major.
    pub fn from_matrix(m: &Matrix) -> Self {
        let mut data = Vec::new();
        for tile in lane_tiles(m.rows) {
            for c in 0..m.cols {
                data.extend((0..tile.live).map(|l| m.data[(tile.first + l) * m.cols + c]));
                data.resize(data.len() + tile.width - tile.live, 0.0);
            }
        }
        LanePanel {
            rows: m.rows,
            cols: m.cols,
            data,
        }
    }

    /// Number of rows of the represented matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the represented matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `y = A·x` into a caller-provided buffer (no allocation),
    /// bit-identical to [`Matrix::matvec_into`] on the source matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        assert_eq!(y.len(), self.rows, "output length must equal rows");
        let mut data = self.data.as_slice();
        for tile in lane_tiles(self.rows) {
            let (panel, rest) = data.split_at(tile.width * self.cols);
            data = rest;
            let y = &mut y[tile.first..][..tile.live];
            with_lane_width!(tile.width, W => {
                // Accumulators start at +0.0 and so never hold −0.0:
                // storing them equals `matvec_into`'s `0.0 + acc`.
                let mut acc = [0.0f32; W];
                for (col, &xv) in panel.chunks_exact(W).zip(x) {
                    let col = lanes::<W>(col);
                    for l in 0..W {
                        acc[l] += col[l] * xv;
                    }
                }
                y.copy_from_slice(&acc[..tile.live]);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn lane_panel_is_bitwise_matvec_into() {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(61);
        // The paper's classifier heads, then shapes on both sides of the
        // tile widths; weights and inputs include exact ±0.0.
        for (rows, cols) in [(61, 1024), (61, 512), (5, 16), (33, 7), (1, 1), (64, 3)] {
            let mut value = |_: usize, _: usize| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            };
            let m = Matrix::from_fn(rows, cols, &mut value);
            let x: Vec<f32> = (0..cols).map(|c| value(0, c)).collect();
            let panel = LanePanel::from_matrix(&m);
            assert_eq!((panel.rows(), panel.cols()), (rows, cols));
            let (mut want, mut got) = (vec![f32::NAN; rows], vec![f32::NAN; rows]);
            m.matvec_into(&x, &mut want);
            panel.matvec_into(&x, &mut got);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows}×{cols}");
        }
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, -1.0, 2.0];
        let via_t = m.matvec_t(&x);
        let explicit = m.transposed().matvec(&x);
        assert_eq!(via_t, explicit);
    }

    #[test]
    fn add_outer_is_rank_one_update() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(2.0, &[1.0, -1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(m.row(1), &[-2.0, -4.0, -6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, -1.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[2.0, 0.5]);
    }

    #[test]
    fn frobenius_norm_of_identity_like() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    /// The per-entry loop `xavier` replaced: one `gen_range` per entry,
    /// row-major.
    fn xavier_per_draw(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
    }

    #[test]
    fn xavier_draws_what_the_per_entry_loop_draws() {
        use rand::RngCore;
        // Both sides of the bulk fill's two-thread threshold, after an
        // odd number of words.
        for (rows, cols) in [(3, 5), (64, 153), (512, 1024)] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
            rng.next_u32();
            let mut oracle = rng.clone();
            let m = Matrix::xavier(rows, cols, &mut rng);
            let want = xavier_per_draw(rows, cols, &mut oracle);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&m), bits(&want), "{rows}x{cols}");
            assert_eq!(rng.next_u64(), oracle.next_u64(), "{rows}x{cols}");
        }
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let m = Matrix::xavier(64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(m.max_abs() <= a);
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn matvec_rejects_bad_length() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }

    proptest! {
        #[test]
        fn transpose_twice_is_identity(rows in 1usize..10, cols in 1usize..10, seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let m = Matrix::xavier(rows, cols, &mut rng);
            prop_assert_eq!(m.transposed().transposed(), m);
        }

        #[test]
        fn matvec_linearity(seed in any::<u64>()) {
            use rand::Rng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let m = Matrix::xavier(5, 7, &mut rng);
            let x: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let y: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let sum: Vec<f32> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            let lhs = m.matvec(&sum);
            let rx = m.matvec(&x);
            let ry = m.matvec(&y);
            for i in 0..5 {
                prop_assert!((lhs[i] - (rx[i] + ry[i])).abs() < 1e-4);
            }
        }
    }
}
