//! The two-phase E-RNN design-optimization flow (paper Fig. 2 + Sec. VII):
//! Phase I derives the model (cell type, block sizes) under an accuracy
//! budget with a bounded number of training trials; Phase II derives the
//! datapath (quantization, PWL activations) and reports the hardware.
//!
//! Run with: `cargo run --release --example design_explorer`
//! (add `--full` for the experiment-scale configuration)

use ernn::core::explore::block_size_bounds;
use ernn::core::flow::{run_flow_to_artifact, FlowConfig};
use ernn::fft::cost::fig8_curve;
use ernn::fpga::XCKU060;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    // The two explorations that bound Phase I's search:
    let bounds = block_size_bounds(1024, &XCKU060);
    println!(
        "block-size bounds on {}: BRAM floor {} .. compute ceiling {} ({} candidates)",
        XCKU060.name, bounds.lower, bounds.upper, bounds.candidates
    );
    println!("Layer size 1024\n  Lb    norm. mults");
    for p in fig8_curve(1024, 256) {
        println!("  {:<5} {:.4}", p.block_size, p.normalized_mults);
    }
    println!();

    // The full flow: Phase I (real ADMM training trials on the synthetic
    // corpus) + Phase II (quantization scan + hardware report), carried
    // through the lifecycle pipeline into a deployable artifact.
    let config = if full {
        FlowConfig::standard(11)
    } else {
        FlowConfig::quick(11)
    };
    let (report, built) = run_flow_to_artifact(config).expect("flow pipelines");
    println!("{}", report.render());
    println!("Phase-I trials:");
    for (i, t) in report.phase1.trials.iter().enumerate() {
        println!(
            "  trial {}: {:?} block {} io {} -> PER {:.2}% [{}]",
            i + 1,
            t.spec.cell,
            t.spec.block,
            t.spec.io_block,
            t.per,
            if t.accepted { "ok" } else { "rejected" }
        );
    }
    println!("Phase-II quantization scan:");
    for (bits, per) in &report.phase2.quant_trials {
        println!("  {bits:>2}-bit fixed point -> PER {per:.2}%");
    }

    // The flow's output is no longer just a report: the winning trained
    // model left as a versioned, loadable artifact.
    let bytes = built.save_bytes();
    println!(
        "deployable artifact: {} bytes ({} {:?} on {}, provenance: {} Phase-I trials, \
         {} quantization trials)",
        bytes.len(),
        built.artifact().spec.cell,
        built.artifact().spec.layer_dims,
        built.artifact().device.name,
        built
            .artifact()
            .provenance
            .phase1
            .as_ref()
            .map_or(0, |p| p.trials.len()),
        built.artifact().provenance.quant_trials.len(),
    );
}
