//! Roofline arithmetic. Everything here is **computed from shapes**, not
//! measured: floating-point operations and compulsory bytes of the host
//! block-circulant matvec, and operations, bytes and multiplier use of the
//! modelled accelerator. The accelerator figures are outputs of the cycle
//! model in `ernn_fpga`, not measurements of hardware.

use ernn_fpga::AccelReport;
use ernn_fpga::RnnSpec;
use ernn_linalg::{BlockCirculantMatrix, WeightMatrix};
use ernn_model::{RnnLayer, RnnNetwork};

/// Shape of one block-circulant matvec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatvecShape {
    /// Output dimension.
    pub rows: usize,
    /// Input dimension.
    pub cols: usize,
    /// Circulant block size `L_b` (a power of two).
    pub block: usize,
}

impl MatvecShape {
    /// The shape of an existing matrix.
    pub fn of(m: &BlockCirculantMatrix) -> Self {
        MatvecShape {
            rows: m.rows(),
            cols: m.cols(),
            block: m.block_size(),
        }
    }

    /// Block rows `p = ⌈rows / L_b⌉`.
    pub fn p(&self) -> u64 {
        self.rows.div_ceil(self.block) as u64
    }

    /// Block columns `q = ⌈cols / L_b⌉`.
    pub fn q(&self) -> u64 {
        self.cols.div_ceil(self.block) as u64
    }

    /// Unique spectrum bins per block, `L_b / 2 + 1`.
    pub fn bins(&self) -> u64 {
        self.block as u64 / 2 + 1
    }

    /// Complex multiply-accumulates of one matvec: `p · q · bins`.
    pub fn complex_macs(&self) -> u64 {
        self.p() * self.q() * self.bins()
    }

    /// Floating-point operations of `batch` FFT matvecs: `q` forward and
    /// `p` inverse real transforms at the conventional `2.5 · L · log2 L`
    /// each, plus 8 per complex multiply-accumulate.
    pub fn flops(&self, batch: u64) -> f64 {
        let l = self.block as f64;
        let per_transform = 2.5 * l * l.log2();
        batch as f64
            * ((self.p() + self.q()) as f64 * per_transform + 8.0 * self.complex_macs() as f64)
    }

    /// Compulsory bytes of one batch-fused call: the cached weight
    /// spectra once (8 bytes per complex bin) plus every input and output
    /// element once (4 bytes each).
    pub fn bytes(&self, batch: u64) -> u64 {
        8 * self.complex_macs() + 4 * batch * (self.rows + self.cols) as u64
    }
}

/// The weight matrices one cell step of `layer` multiplies by, in call
/// order.
pub fn cell_weights(layer: &RnnLayer<WeightMatrix>) -> Vec<&WeightMatrix> {
    match layer {
        RnnLayer::Lstm(l) => [Some(&l.wx), Some(&l.wr), l.wym.as_ref()]
            .into_iter()
            .flatten()
            .collect(),
        RnnLayer::Gru(g) => vec![&g.wzr_x, &g.wzr_c, &g.wcx, &g.wcc],
    }
}

/// Shapes of every block-circulant weight matrix of a network, in layer
/// order (dense matrices, i.e. the classifier, are not included).
pub fn circulant_shapes(net: &RnnNetwork<WeightMatrix>) -> Vec<MatvecShape> {
    net.layers()
        .iter()
        .flat_map(cell_weights)
        .filter_map(|w| match w {
            WeightMatrix::Circulant(c) => Some(MatvecShape::of(c)),
            WeightMatrix::Dense(_) => None,
        })
        .collect()
}

/// Model-side roofline point of one accelerator configuration, per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelRoofline {
    /// Dense-equivalent giga-operations per second (2 per dense weight).
    pub gops: f64,
    /// Operations per byte moved (on-chip weight image of one layer plus
    /// the frame's input and output words).
    pub op_intensity: f64,
    /// Real multiplications per frame over what the DSPs used could do
    /// in one initiation interval, at one multiplication per DSP per
    /// cycle (`muls / (dsp · mulPerDSP · cycles)` with `mulPerDSP = 1`).
    pub dsp_eff: f64,
}

/// Real multiplications the modelled datapath performs per frame: three
/// per complex multiply (the PE model's 3-multiplier complex product)
/// over every frequency-domain multiply-accumulate, plus the point-wise
/// gate products.
pub fn accel_muls_per_frame(shapes: &[MatvecShape], pointwise_muls: u64) -> u64 {
    3 * shapes.iter().map(MatvecShape::complex_macs).sum::<u64>() + pointwise_muls
}

/// Combines the cycle model's report with computed operation counts.
pub fn accel_roofline(spec: &RnnSpec, report: &AccelReport, muls_per_frame: u64) -> AccelRoofline {
    let ops = 2.0 * spec.dense_params() as f64;
    let word_bytes = spec.weight_bits as f64 / 8.0;
    let bytes = spec.weight_bytes() as f64 / spec.layers as f64
        + (spec.input_dim + spec.output_dim()) as f64 * word_bytes;
    AccelRoofline {
        gops: ops * report.fps / 1e9,
        op_intensity: ops / bytes,
        dsp_eff: muls_per_frame as f64 / (report.dsp_used as f64 * report.stages.ii() as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 16×16 at `L_b = 8`, worked by hand: p = q = 2, 5 bins per block.
    /// Transforms: (2 + 2) · 2.5 · 8 · 3 = 240 flops. Multiply-accumulate:
    /// 2 · 2 · 5 = 20 complex MACs · 8 = 160 flops. Bytes: 20 bins · 8 =
    /// 160 of spectra, 16 + 16 floats · 4 = 128 of vectors.
    #[test]
    fn flops_and_bytes_match_the_hand_worked_16x16_case() {
        let s = MatvecShape {
            rows: 16,
            cols: 16,
            block: 8,
        };
        assert_eq!((s.p(), s.q(), s.bins()), (2, 2, 5));
        assert_eq!(s.complex_macs(), 20);
        assert_eq!(s.flops(1), 400.0);
        assert_eq!(s.bytes(1), 288);
        // A fused batch repeats the arithmetic but streams the spectra once.
        assert_eq!(s.flops(16), 6400.0);
        assert_eq!(s.bytes(16), 160 + 16 * 128);
    }

    #[test]
    fn ragged_edges_round_the_block_grid_up() {
        let s = MatvecShape {
            rows: 20,
            cols: 9,
            block: 8,
        };
        assert_eq!((s.p(), s.q()), (3, 2));
        assert_eq!(s.complex_macs(), 30);
    }

    #[test]
    fn accelerator_multiplications_count_three_per_complex_mac() {
        let shapes = [MatvecShape {
            rows: 16,
            cols: 16,
            block: 8,
        }; 2];
        assert_eq!(accel_muls_per_frame(&shapes, 7), 3 * 40 + 7);
    }
}
