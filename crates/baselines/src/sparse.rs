//! Compressed sparse row (CSR) matrices — ESE's weight format.
//!
//! After pruning, ESE stores each surviving weight plus a column index and
//! executes matvecs by walking the irregular index structure. The paper
//! attributes ESE's performance ceiling to exactly this irregularity
//! (Sec. I: "the irregular network structure after pruning").

use ernn_linalg::Matrix;

/// A CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from the non-zero entries of a dense matrix.
    pub fn from_dense(dense: &Matrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Load imbalance across `channels` row-interleaved PEs: the ratio of
    /// the busiest channel's non-zeros to the mean — the quantity that
    /// throttles ESE's parallel efficiency.
    pub fn load_imbalance(&self, channels: usize) -> f64 {
        assert!(channels > 0, "need at least one channel");
        let mut per_channel = vec![0usize; channels];
        for r in 0..self.rows {
            per_channel[r % channels] += self.row_ptr[r + 1] - self.row_ptr[r];
        }
        let max = *per_channel.iter().max().unwrap_or(&0) as f64;
        let mean = self.nnz() as f64 / channels as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                m.set(r, self.col_idx[k] as usize, self.values[k]);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_matrix() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[0.0, 3.0, 0.0]]);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn imbalance_of_uniform_matrix_is_one() {
        let dense = Matrix::from_fn(8, 8, |_, _| 1.0);
        let csr = CsrMatrix::from_dense(&dense);
        assert!((csr.load_imbalance(4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_detects_skew() {
        // All non-zeros in row 0 -> channel 0 does all the work.
        let dense = Matrix::from_fn(4, 8, |r, _| if r == 0 { 1.0 } else { 0.0 });
        let csr = CsrMatrix::from_dense(&dense);
        assert!((csr.load_imbalance(4) - 4.0).abs() < 1e-9);
    }
}
