//! Cross-crate integration: the analytical accelerator model and the
//! cycle-level simulator must tell one consistent story.

use ernn::fpga::sim::simulate_batch;
use ernn::fpga::{Accelerator, RnnSpec, ADM_PCIE_7V3, XCKU060};

#[test]
fn simulator_confirms_analytical_ii_and_latency() {
    for spec in [
        RnnSpec::lstm_1024(8, 12),
        RnnSpec::lstm_1024(16, 12),
        RnnSpec::gru_1024(8, 12),
        RnnSpec::gru_1024(16, 12),
    ] {
        for dev in [XCKU060, ADM_PCIE_7V3] {
            let acc = Accelerator::new(spec, dev);
            let stages = acc.stage_cycles();
            let sim = simulate_batch(stages, &[1; 5000]);
            // The first frame leaves after the raw stage sum, and every
            // later one II cycles after its predecessor.
            let sum: u64 = stages.as_array().iter().sum();
            assert_eq!(sim.completion_cycles[0], sum, "{}", dev.name);
            for w in sim.completion_cycles.windows(2) {
                assert_eq!(w[1] - w[0], stages.ii(), "{}", dev.name);
            }
        }
    }
}

#[test]
fn ernn_dominates_baselines_in_the_model() {
    // The paper's ordering must fall out of the models: ESE slowest,
    // C-LSTM in between, E-RNN fastest; GRU beats LSTM; FFT16 beats FFT8.
    use ernn::fpga::baseline::{clstm_report, EseModel};
    let ese_fps = EseModel::table_iii().fps();
    let clstm_fps = clstm_report(8, ADM_PCIE_7V3).fps;
    let ernn_fps = Accelerator::new(RnnSpec::lstm_1024(8, 12), ADM_PCIE_7V3)
        .report("e")
        .fps;
    assert!(ese_fps < clstm_fps && clstm_fps < ernn_fps);
    let gru = Accelerator::new(RnnSpec::gru_1024(8, 12), XCKU060)
        .report("g")
        .fps;
    let lstm = Accelerator::new(RnnSpec::lstm_1024(8, 12), XCKU060)
        .report("l")
        .fps;
    assert!(gru > lstm);
}
