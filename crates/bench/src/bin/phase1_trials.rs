//! Verifies the paper's Sec. VI claim: the Phase-I design search needs
//! only ~5 training trials thanks to the two exploration bounds.
//!
//! Runs the full flow (Phase I with real ADMM training on the synthetic
//! corpus, then Phase II) and prints the trial log; `--json PATH` writes
//! the trials as trained rows (flags: [`SweepArgs`]).

use ernn_bench::sweep::SweepArgs;
use ernn_bench::{paper_rows, ModelRow, RowResult};
use ernn_core::flow::{run_flow_to_artifact, FlowConfig};
use ernn_model::{BlockPolicy, ModelSpec};

const SEED: u64 = 11;

fn main() {
    let args = SweepArgs::from_env();
    let config = if args.quick {
        FlowConfig::quick(SEED)
    } else {
        FlowConfig::standard(SEED)
    };
    eprintln!(
        "running the E-RNN flow{} ...",
        if args.quick { " [quick]" } else { "" }
    );
    let (report, built) = run_flow_to_artifact(config).expect("flow pipelines");
    println!("{}", report.render());
    println!("Phase-I trial log:");
    for (i, t) in report.phase1.trials.iter().enumerate() {
        println!(
            "  {}: {:?} block {} io {} -> PER {:.2}% [{}]",
            i + 1,
            t.spec.cell,
            t.spec.block,
            t.spec.io_block,
            t.per,
            if t.accepted { "accepted" } else { "rejected" }
        );
    }
    println!(
        "\ntotal trials: {} (paper: \"limited to around 5\")",
        report.phase1.trial_count()
    );
    println!(
        "block-size bounds used: [{}, {}] ({} candidates)",
        report.phase1.bounds.lower, report.phase1.bounds.upper, report.phase1.bounds.candidates
    );
    println!(
        "deployable artifact: {} bytes (trial log travels as provenance)",
        built.save_bytes().len()
    );

    // Every trial is scored against the LSTM baseline, whatever its cell.
    let shape = &built.artifact().spec;
    let trials = report.phase1.trials.iter().zip(&report.trial_admm);
    let rows: Vec<RowResult> = trials
        .enumerate()
        .map(|(i, (t, admm))| {
            let policy = BlockPolicy::with_io_block(t.spec.block, t.spec.io_block);
            RowResult {
                row: ModelRow {
                    id: i + 1,
                    spec: ModelSpec::new(t.spec.cell, shape.input_dim, shape.classes)
                        .layer_dims(&t.spec.layer_dims)
                        .peephole(true),
                    policies: Some(vec![policy; t.spec.layer_dims.len()]),
                },
                seed: SEED,
                baseline_per: report.phase1.baseline_per,
                control_per: None,
                per: t.per,
                admm: Some(admm.clone()),
            }
        })
        .collect();
    args.write_bench(paper_rows(&args, "phase1_trials", &rows));
}
