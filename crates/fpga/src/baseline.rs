//! Hardware models of the two prior designs E-RNN compares against.
//!
//! * **ESE** (Han et al., FPGA'17): pruned sparse LSTM on the KU060. The
//!   weights are irregularly sparse, so parallelism is bounded by the PE
//!   channel structure (32 channels in the published design) rather than
//!   by dense streaming; activations live in off-chip lookup tables.
//!   The paper's Table III quotes ESE's *theoretical* computation time
//!   (footnote b), which corresponds to perfectly load-balanced channels;
//!   that is the time modelled here (ESE reports ~1.2× more in practice).
//! * **C-LSTM** (Wang et al., FPGA'18): the same block-circulant framework
//!   as E-RNN but trained without ADMM and implemented without E-RNN's
//!   PE-level optimization. Per the paper's Sec. VIII-B2, the efficiency
//!   gap is mostly systematic design (PE/CU structure), with quantization
//!   (16b vs 12b) worth <10%.

use crate::accelerator::{AccelReport, Accelerator, RnnSpec, StageCycles};
use crate::device::Device;

/// ESE's published design parameters on the KU060.
#[derive(Debug, Clone, Copy)]
pub struct EseModel {
    /// Dense parameter count of the benchmarked layer.
    pub dense_params: u64,
    /// Pruning compression (9× weight reduction in ESE's LSTM).
    pub weight_compression: f64,
    /// Parallel MAC channels (ESE instantiates 32 PEs per channel group).
    pub mac_channels: u32,
    /// Bits per weight (12-bit fixed in ESE).
    pub weight_bits: u8,
    /// Bits per sparse index (at least one index per surviving weight).
    /// Table III footnote a is a pessimistic estimate that prices indices
    /// at the weight width, which is what reproduces its 4.5:1 figure.
    pub index_bits: u8,
}

impl EseModel {
    /// ESE benchmarking the same LSTM-1024/proj-512 layer as Table III.
    pub fn table_iii() -> Self {
        EseModel {
            dense_params: RnnSpec::lstm_1024(1, 12).dense_params(),
            weight_compression: 9.0,
            mac_channels: 32,
            weight_bits: 12,
            index_bits: 12,
        }
    }

    /// Surviving (non-zero) weights after pruning.
    pub fn nnz(&self) -> u64 {
        (self.dense_params as f64 / self.weight_compression) as u64
    }

    /// Effective compression ratio including index storage — the paper's
    /// 4.5:1 row ("there is at least one index per weight after
    /// compression in ESE").
    pub fn effective_compression(&self) -> f64 {
        let dense_bits = self.dense_params * self.weight_bits as u64;
        let sparse_bits = self.nnz() * (self.weight_bits + self.index_bits) as u64;
        dense_bits as f64 / sparse_bits as f64
    }

    /// Per-frame computation cycles: every non-zero weight is one MAC,
    /// spread evenly over the channels (the theoretical, load-balanced
    /// time Table III quotes).
    pub fn cycles_per_frame(&self) -> u64 {
        (self.nnz() as f64 / self.mac_channels as f64) as u64
    }

    /// Frame latency in µs. ESE does not overlap its phases the way
    /// E-RNN's CGPipe does, so latency ≈ 1/FPS (Table III: 57 µs ↔
    /// 17,544 FPS).
    pub fn latency_us(&self) -> f64 {
        self.cycles_per_frame() as f64 * Device::clock_period_us()
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        Device::CLOCK_HZ / self.cycles_per_frame() as f64
    }

    /// Published resource utilization on the KU060 (Table III column 1) —
    /// ESE's bitstream is not ours to re-synthesize, so the utilization
    /// row is quoted from the paper.
    pub fn published_utilization() -> (f64, f64, f64, f64) {
        (54.5, 87.7, 88.6, 68.3)
    }

    /// Published board power (W) — dominated by the DDR3 subsystem the
    /// activation tables and batching buffers live in.
    pub fn published_power_w() -> f64 {
        41.0
    }
}

/// C-LSTM modelled as the same circulant accelerator with 16-bit
/// quantization and without E-RNN's PE-level optimization.
///
/// The de-optimization multiplier covers the scheduling/PE structure gap
/// the paper attributes to its "systematic architecture including PE and
/// CU" (Sec. VIII-B2); it is calibrated once against C-LSTM's published
/// 16.7 µs and reused for every C-LSTM configuration.
pub const CLSTM_DEOPT_FACTOR: f64 = 1.30;

/// Builds the C-LSTM comparison design for a given block size on a device.
pub fn clstm_report(block_size: usize, device: Device) -> AccelReport {
    let spec = RnnSpec::lstm_1024(block_size, 16);
    let acc = Accelerator::new(spec, device);
    let mut report = acc.report(format!("C-LSTM FFT{block_size}"));
    let stages = StageCycles {
        stage1: (report.stages.stage1 as f64 * CLSTM_DEOPT_FACTOR) as u64,
        stage2: (report.stages.stage2 as f64 * CLSTM_DEOPT_FACTOR) as u64,
        stage3: (report.stages.stage3 as f64 * CLSTM_DEOPT_FACTOR) as u64,
    };
    report.stages = stages;
    report.latency_us = stages.latency_cycles() as f64 * Device::clock_period_us();
    report.fps = Device::CLOCK_HZ / stages.ii() as f64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ADM_PCIE_7V3;

    #[test]
    fn ese_effective_compression_matches_table_iii() {
        // Paper: 4.5:1 including indices.
        let ese = EseModel::table_iii();
        assert!(
            (ese.effective_compression() - 4.5).abs() < 0.3,
            "{}",
            ese.effective_compression()
        );
    }

    #[test]
    fn ese_latency_and_fps_match_table_iii() {
        // Paper: 57.0 µs theoretical, 17,544 FPS.
        let ese = EseModel::table_iii();
        assert!(
            (ese.latency_us() - 57.0).abs() / 57.0 < 0.05,
            "{}",
            ese.latency_us()
        );
        assert!(
            (ese.fps() - 17_544.0).abs() / 17_544.0 < 0.05,
            "{}",
            ese.fps()
        );
    }

    #[test]
    fn clstm_sits_between_ese_and_ernn() {
        // Paper Table III on the 7V3: C-LSTM 16.7 µs vs E-RNN 12.9 µs at
        // block 8; both orders of magnitude faster than ESE's 57 µs.
        let clstm = clstm_report(8, ADM_PCIE_7V3);
        let ernn = Accelerator::new(RnnSpec::lstm_1024(8, 12), ADM_PCIE_7V3).report("e");
        let ese = EseModel::table_iii();
        assert!(clstm.latency_us > ernn.latency_us);
        assert!(clstm.latency_us < ese.latency_us());
        // The published ratio E-RNN:C-LSTM is 1.29×; ours within ±15%.
        let ratio = clstm.latency_us / ernn.latency_us;
        assert!((ratio - 1.29).abs() < 0.20, "ratio {ratio}");
        assert!(
            (clstm.latency_us - 16.7).abs() / 16.7 < 0.35,
            "{}",
            clstm.latency_us
        );
    }
}
