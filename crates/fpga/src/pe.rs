//! Processing-element cost and throughput model (paper Fig. 10).
//!
//! A PE contains two FFT operators (forward and inverse, shared across the
//! block ops it executes under time-division multiplexing), a bank of
//! complex multipliers, a conjugation unit, `log2(N)` shift registers and
//! an `N`-input adder tree. The PE streams one spectrum bin per cycle:
//! a block-pair multiply–accumulate (`conj(FFT(w_ij)) ∘ FFT(x_j)` plus
//! accumulation) of block size `L_b` therefore occupies the PE for
//! `L_b/2 + 1` cycles (Hermitian symmetry halves the bins, Sec. V-A2);
//! [`Accelerator::stage_cycles`](crate::Accelerator::stage_cycles)
//! applies that rule per matvec block.

use crate::device::Device;

/// Resource/throughput model of one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeDesign {
    /// Circulant block size `L_b` (the FFT size of the PE).
    pub block_size: usize,
    /// Fixed-point word length of the datapath.
    pub weight_bits: u8,
}

impl PeDesign {
    /// Creates a PE design.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two or `weight_bits` is
    /// outside `8..=32`.
    pub fn new(block_size: usize, weight_bits: u8) -> Self {
        assert!(
            ernn_fft::is_power_of_two(block_size),
            "block size must be a power of two"
        );
        assert!(
            (8..=32).contains(&weight_bits),
            "weight bits must be 8..=32"
        );
        PeDesign {
            block_size,
            weight_bits,
        }
    }

    /// DSP slices per PE.
    ///
    /// One streaming element-wise complex multiplier plus one
    /// spectrum-untangling multiplier (3 DSP48s each with the Karatsuba
    /// trick at ≤18-bit operands), plus one multiplier per FFT butterfly
    /// level past the two trivial-twiddle levels; the forward and inverse
    /// networks share their level multipliers under TDM (they serve
    /// opposite phases of the same stream). Wider-than-18-bit datapaths
    /// double the DSP cost (DSP48 cascading).
    pub fn dsp_per_pe(&self) -> u32 {
        let levels = ernn_fft::log2(self.block_size).saturating_sub(2);
        let complex_mult = if self.weight_bits <= 18 { 3 } else { 6 };
        (2 + levels) * complex_mult
    }

    /// LUTs per PE: butterfly add/sub datapaths, the adder tree, shift
    /// registers and control. Scales with `L_b·bits` (datapath width) plus
    /// a `log2(L_b)` control term. The real-valued symmetry of Sec. V-A2
    /// halves the butterfly network relative to a full complex FFT.
    pub fn lut_per_pe(&self) -> u32 {
        let n = self.block_size as u32;
        let bits = self.weight_bits as u32;
        let stages = ernn_fft::log2(n.max(2) as usize);
        // Adder tree: (N − 1) adders of `bits` width ≈ bits LUTs each.
        let adder_tree = (n - 1) * bits;
        // Two streaming FFT networks (forward + inverse), N/2·log2 N
        // butterflies halved by Hermitian symmetry, one add/sub pair each.
        let fft = n / 2 * stages * bits * 2;
        let control = 24 * stages + 220;
        adder_tree + fft + control
    }

    /// Flip-flops per PE (pipeline registers ≈ 0.9× the LUT count for a
    /// heavily pipelined streaming datapath).
    pub fn ff_per_pe(&self) -> u32 {
        (self.lut_per_pe() as f64 * 0.9) as u32
    }

    /// The paper's PE-count rule (Sec. VII-B):
    /// `#PE = min(⌊DSP/ΔDSP⌋, ⌊LUT/ΔLUT⌋)`, applied to the fraction of the
    /// device the accelerator may claim (`budget`, e.g. 0.75 leaves room
    /// for the controller, PCIe and buffers).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not in `(0, 1]`.
    pub fn num_pes(&self, device: &Device, budget: f64) -> u32 {
        assert!(budget > 0.0 && budget <= 1.0, "budget must be in (0, 1]");
        let by_dsp = (device.dsp as f64 * budget) as u32 / self.dsp_per_pe();
        let by_lut = (device.lut as f64 * budget) as u32 / self.lut_per_pe();
        by_dsp.min(by_lut).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{ADM_PCIE_7V3, XCKU060};

    #[test]
    fn dsp_cost_grows_with_block_size() {
        let small = PeDesign::new(8, 12).dsp_per_pe();
        let large = PeDesign::new(16, 12).dsp_per_pe();
        assert!(large > small);
    }

    #[test]
    fn wide_datapath_doubles_multiplier_cost() {
        let narrow = PeDesign::new(8, 12).dsp_per_pe();
        let wide = PeDesign::new(8, 24).dsp_per_pe();
        assert_eq!(wide, 2 * narrow);
    }

    #[test]
    fn pe_count_respects_both_constraints() {
        let pe = PeDesign::new(8, 12);
        let n = pe.num_pes(&XCKU060, 0.8);
        assert!(n * pe.dsp_per_pe() <= (XCKU060.dsp as f64 * 0.8) as u32 + pe.dsp_per_pe());
        assert!(n * pe.lut_per_pe() <= (XCKU060.lut as f64 * 0.8) as u32 + pe.lut_per_pe());
        assert!(n >= 1);
    }

    #[test]
    fn seven_v3_fits_more_pes_than_ku060() {
        // The 7V3 has 1.3× the DSPs and 2.6× the LUTs of the KU060.
        for lb in [8usize, 16] {
            let pe = PeDesign::new(lb, 12);
            let n_7v3 = pe.num_pes(&ADM_PCIE_7V3, 0.8);
            let n_ku = pe.num_pes(&XCKU060, 0.8);
            assert!(n_7v3 > n_ku, "lb={lb}: {n_7v3} vs {n_ku}");
        }
    }

    #[test]
    fn ku060_binds_on_dsp() {
        // The KU060 binds on DSPs at both FFT sizes — consistent with the
        // paper's ≥95% DSP utilization rows for the KU060 designs.
        for lb in [8usize, 16] {
            let pe = PeDesign::new(lb, 12);
            assert!(
                XCKU060.dsp / pe.dsp_per_pe() <= XCKU060.lut / pe.lut_per_pe(),
                "lb={lb}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block() {
        let _ = PeDesign::new(12, 12);
    }
}
