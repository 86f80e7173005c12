//! Hardware modelling tour: configure the paper's accelerators, simulate
//! the CGPipe cycle by cycle, and compare against the ESE and C-LSTM
//! baselines.
//!
//! Run with: `cargo run --release --example hardware_sim`

use ernn::fpga::baseline::{clstm_report, EseModel};
use ernn::fpga::power::{board_power, energy_efficiency};
use ernn::fpga::sim::simulate_batch;
use ernn::fpga::{Accelerator, RnnSpec, ADM_PCIE_7V3, XCKU060};

fn main() {
    // 1. The paper's flagship design: E-RNN GRU, block 16, KU060.
    let spec = RnnSpec::gru_1024(16, 12);
    let acc = Accelerator::new(spec, XCKU060);
    let report = acc.report("E-RNN FFT16 GRU");
    println!(
        "{} on {}: {} PEs, stages {:?}, latency {:.1} µs, {:.0} FPS",
        report.name,
        report.platform,
        report.num_pes,
        report.stages.as_array(),
        report.latency_us,
        report.fps
    );
    let power = board_power(&report, &XCKU060, false);
    println!(
        "power {power:.1} W -> {:.0} FPS/W",
        energy_efficiency(report.fps, power)
    );

    // 2. Cycle-level simulation of 100k frames through the CGPipe.
    let sim = simulate_batch(report.stages, &[100_000]);
    println!(
        "cycle sim: makespan {} cycles, throughput {:.0} FPS, occupancy {:?}",
        sim.makespan_cycles,
        100_000.0 * 200e6 / sim.makespan_cycles as f64,
        sim.occupancy.map(|o| (o * 100.0).round())
    );

    // 3. The baselines it displaces.
    let ese = EseModel::table_iii();
    println!(
        "ESE baseline: {:.1} µs, {:.0} FPS, {:.0} FPS/W",
        ese.latency_us(),
        ese.fps(),
        ese.fps() / EseModel::published_power_w()
    );
    let clstm = clstm_report(16, ADM_PCIE_7V3);
    println!(
        "C-LSTM FFT16: {:.1} µs, {:.0} FPS",
        clstm.latency_us, clstm.fps
    );
}
