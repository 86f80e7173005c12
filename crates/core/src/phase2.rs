//! Phase II: hardware-oriented optimization (paper Sec. VII).
//!
//! Given the Phase-I model, Phase II fixes the datapath: fixed-point word
//! length (smallest width whose accuracy loss stays under the budget —
//! "12-bit weight quantization is in general a safe design"), the
//! piecewise-linear activation resolution (error below the datapath
//! quantization step so the PWL units are never the precision
//! bottleneck), and the PE/CU structure from the resource model.

use crate::pipeline::DatapathChoice;
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::power::{board_power, energy_efficiency};
use ernn_fpga::{AccelReport, Accelerator, Device, RnnSpec};
use ernn_quant::{FixedFormat, PiecewiseLinear};

/// Candidate fixed-point word lengths, scanned ascending.
const BIT_OPTIONS: [u8; 4] = [8, 10, 12, 16];
/// Candidate PWL segment counts, scanned ascending.
const SEGMENT_OPTIONS: [usize; 4] = [16, 32, 64, 128];
/// Maximum acceptable PER degradation (percentage points) from
/// quantization (the paper uses < 0.1 %).
const MAX_QUANT_DEGRADATION: f64 = 0.1;

/// Phase-II output.
#[derive(Debug, Clone)]
pub struct Phase2Result {
    /// The chosen datapath (bits + PWL resolution).
    pub datapath: DatapathConfig,
    /// The accelerator performance/resource report.
    pub report: AccelReport,
    /// Estimated board power (W).
    pub power_w: f64,
    /// Energy efficiency (FPS/W) — the paper's headline metric.
    pub fps_per_w: f64,
    /// Quantization PERs measured per candidate bit width.
    pub quant_trials: Vec<(u8, f64)>,
}

impl Phase2Result {
    /// Carries the Phase-II decision into the lifecycle pipeline: the
    /// chosen datapath plus the quantization scan as provenance, ready
    /// for [`CompressedStage::quantize_chosen`](crate::pipeline::CompressedStage::quantize_chosen).
    pub fn into_pipeline(&self) -> DatapathChoice {
        DatapathChoice {
            datapath: self.datapath.clone(),
            quant_trials: self.quant_trials.clone(),
        }
    }
}

/// Runs Phase II for `device`.
///
/// `quant_oracle(bits)` returns the test PER (%) of the Phase-I model
/// executed with `bits`-wide fixed-point weights/activations (see
/// `ernn_fpga::exec::QuantizedNetwork`); `float_per` is the
/// floating-point reference. The word length is the smallest of 8, 10,
/// 12 and 16 bits whose PER is within 0.1 pp of `float_per` (16 when none
/// is), and the PWL resolution the smallest of 16, 32, 64 and 128
/// segments whose error fits under that word's step (128 when none does).
pub fn run_phase2(
    hw_spec: RnnSpec,
    float_per: f64,
    mut quant_oracle: impl FnMut(u8) -> f64,
    device: Device,
) -> Phase2Result {
    // Word length: smallest width within the quantization budget.
    let mut quant_trials = Vec::new();
    let mut chosen_bits = BIT_OPTIONS[BIT_OPTIONS.len() - 1];
    for bits in BIT_OPTIONS {
        let per = quant_oracle(bits);
        quant_trials.push((bits, per));
        if per - float_per <= MAX_QUANT_DEGRADATION {
            chosen_bits = bits;
            break;
        }
    }

    // PWL resolution: smallest segment count whose max error is below the
    // datapath quantization step (so activations never dominate error).
    // The fallback never runs: the widest count meets both bounds at every
    // listed width, which `the_widest_segment_count_fits_every_width` pins.
    let act_step = FixedFormat::for_range(chosen_bits, 8.0).step();
    let chosen_segments = SEGMENT_OPTIONS
        .into_iter()
        .find(|&segs| {
            PiecewiseLinear::sigmoid(segs).max_error(2048) <= act_step
                && PiecewiseLinear::tanh(segs).max_error(2048) <= 2.0 * act_step
        })
        .unwrap_or(SEGMENT_OPTIONS[SEGMENT_OPTIONS.len() - 1]);

    let spec = RnnSpec {
        weight_bits: chosen_bits,
        ..hw_spec
    };
    let accel = Accelerator::new(spec, device);
    let report = accel.report(format!("E-RNN FFT{} ({}b)", spec.block_size, chosen_bits));
    let power_w = board_power(&report, &device, false);
    let fps_per_w = energy_efficiency(report.fps, power_w);

    Phase2Result {
        datapath: DatapathConfig {
            weight_bits: chosen_bits,
            activation_bits: chosen_bits,
            pwl_segments: chosen_segments,
        },
        report,
        power_w,
        fps_per_w,
        quant_trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::XCKU060;

    /// A quantization oracle with a knee at 12 bits (the paper's
    /// observation: 12-bit is safe, below it accuracy collapses).
    fn knee_oracle(bits: u8) -> f64 {
        match bits {
            0..=9 => 25.0,
            10..=11 => 20.4,
            _ => 20.02,
        }
    }

    #[test]
    fn picks_twelve_bits_at_the_knee() {
        let result = run_phase2(RnnSpec::lstm_1024(8, 12), 20.0, knee_oracle, XCKU060);
        assert_eq!(result.datapath.weight_bits, 12);
        assert!(result.quant_trials.len() >= 3);
    }

    #[test]
    fn loose_budget_allows_fewer_bits() {
        // Every width within 0.1 pp: the smallest wins, and the scan stops
        // at the first.
        let result = run_phase2(RnnSpec::lstm_1024(8, 12), 20.0, |_| 20.09, XCKU060);
        assert_eq!(result.datapath.weight_bits, 8);
        assert_eq!(result.quant_trials, vec![(8, 20.09)]);
    }

    #[test]
    fn no_width_within_budget_falls_back_to_the_widest_choices() {
        // Every width scanned, none within budget: 16 bits, whose step only
        // the widest PWL resolution fits under.
        let result = run_phase2(RnnSpec::lstm_1024(8, 12), 20.0, |_| 25.0, XCKU060);
        assert_eq!(result.datapath.weight_bits, 16);
        assert_eq!(result.datapath.activation_bits, 16);
        assert_eq!(result.datapath.pwl_segments, 128);
        let step = FixedFormat::for_range(16, 8.0).step();
        assert!(PiecewiseLinear::sigmoid(64).max_error(2048) > step);
        let scanned: Vec<u8> = result.quant_trials.iter().map(|&(bits, _)| bits).collect();
        assert_eq!(scanned, [8, 10, 12, 16]);
    }

    #[test]
    fn the_widest_segment_count_fits_every_width() {
        let segs = SEGMENT_OPTIONS[SEGMENT_OPTIONS.len() - 1];
        let sigmoid = PiecewiseLinear::sigmoid(segs).max_error(2048);
        let tanh = PiecewiseLinear::tanh(segs).max_error(2048);
        for bits in BIT_OPTIONS {
            let step = FixedFormat::for_range(bits, 8.0).step();
            assert!(sigmoid <= step, "sigmoid at {bits} bits");
            assert!(tanh <= 2.0 * step, "tanh at {bits} bits");
        }
    }

    #[test]
    fn pwl_error_is_below_quant_step() {
        let result = run_phase2(RnnSpec::gru_1024(8, 12), 20.0, knee_oracle, XCKU060);
        let step = FixedFormat::for_range(result.datapath.weight_bits, 8.0).step();
        let err = PiecewiseLinear::sigmoid(result.datapath.pwl_segments).max_error(2048);
        assert!(err <= step);
    }

    #[test]
    fn report_carries_performance_and_power() {
        let result = run_phase2(RnnSpec::gru_1024(16, 12), 20.0, knee_oracle, XCKU060);
        assert!(result.report.latency_us > 0.0);
        assert!(result.report.fps > 0.0);
        assert!(result.power_w > 0.0);
        assert!((result.fps_per_w - result.report.fps / result.power_w).abs() < 1e-6);
    }

    #[test]
    fn efficiency_beats_ese_by_large_factor() {
        // The paper's headline: up to 37.4× energy efficiency vs ESE
        // (428 FPS/W). Our model should put E-RNN GRU FFT16 well above
        // 10× ESE.
        let result = run_phase2(RnnSpec::gru_1024(16, 12), 20.0, knee_oracle, XCKU060);
        let ese_eff = 428.0;
        assert!(
            result.fps_per_w > 10.0 * ese_eff,
            "E-RNN {} FPS/W vs ESE {}",
            result.fps_per_w,
            ese_eff
        );
    }
}
