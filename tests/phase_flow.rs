//! The *search logic* of the Phase I → Phase II framework — trial bound,
//! fallback, GRU switch, word-length scan — driven by stand-ins that are
//! fed the paper's own numbers (Table I, the 12-bit knee). Nothing here is
//! trained or measured, so nothing here is evidence for the paper's
//! accuracy claims: given those numbers, the flow must pick what the
//! paper picked, and that is all these tests say.

use ernn::core::phase1::{run_phase1, CandidateSpec, Phase1Config, TrainOracle};
use ernn::core::phase2::run_phase2;
use ernn::fpga::{RnnSpec, ADM_PCIE_7V3, XCKU060};
use ernn::model::CellType;

/// Answers every trial with Table I's degradations, hard-coded: PER
/// grows gently with block size and GRU is at parity. A stand-in for
/// training, not a result of it.
struct TableOneFedIn {
    evaluations: usize,
}

impl TrainOracle for TableOneFedIn {
    fn baseline_per(&mut self, _cell: CellType) -> f64 {
        20.01
    }
    fn evaluate(&mut self, spec: &CandidateSpec) -> f64 {
        self.evaluations += 1;
        // Mirrors Table I's 1024 rows: +0.00 at 4, +0.13 at 8, +0.31 at 16,
        // extrapolating upward.
        let deg_of = |b: usize| match b {
            0..=4 => 0.0,
            8 => 0.13,
            16 => 0.31,
            32 => 0.65,
            _ => 1.4,
        };
        20.01 + 0.75 * deg_of(spec.block) + 0.25 * deg_of(spec.io_block)
    }
}

#[test]
fn phase1_search_fed_table_one_picks_the_papers_point_within_six_trials() {
    // With the paper's 0.3 pp budget, block 16 is right at the edge and
    // block 8-with-io-16 is the fine-tuned pick when 16-16 misses.
    let mut oracle = TableOneFedIn { evaluations: 0 };
    for dev in [XCKU060, ADM_PCIE_7V3] {
        let result = run_phase1(
            &mut oracle,
            &Phase1Config {
                device: dev,
                deploy_hidden: 1024,
                layer_dims: vec![64, 64],
                accuracy_budget: 0.31,
                max_block: None,
            },
        );
        // The paper's bound on trials.
        assert!(result.trial_count() <= 6, "{:?}", result.trials);
        // The chosen model satisfies the budget and is compressed.
        assert!(result.degradation() <= 0.31 + 1e-9);
        assert!(result.chosen.block >= 8, "{:?}", result.chosen);
        // GRU parity means the switch is taken.
        assert_eq!(result.chosen.cell, CellType::Gru);
        // And it fits in BRAM.
        let spec = RnnSpec::gru_1024(result.chosen.block, 12);
        assert!(spec.fits_in_bram(&dev));
    }
}

#[test]
fn phase2_scan_fed_the_12_bit_knee_stops_at_12_bits() {
    let quant = |bits: u8| -> f64 {
        // The paper's quantization knee: <0.1% at 12 bits.
        match bits {
            0..=9 => 22.0,
            10..=11 => 20.4,
            _ => 20.05,
        }
    };
    let result = run_phase2(RnnSpec::gru_1024(16, 12), 20.0, quant, XCKU060);
    assert_eq!(result.datapath.weight_bits, 12);
    // The full design point is the paper's flagship: check the headline
    // energy-efficiency band (Table III: 15,300-16,020 FPS/W region; our
    // power model is a calibrated approximation, so accept 8k-40k).
    assert!(
        (8_000.0..40_000.0).contains(&result.fps_per_w),
        "{}",
        result.fps_per_w
    );
}
