//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the experiment index):
//!
//! | binary          | artifact  |
//! |-----------------|-----------|
//! | `table1`        | Table I   (LSTM PER vs layer/block size) |
//! | `table2`        | Table II  (GRU PER vs layer/block size)  |
//! | `table3`        | Table III (hardware comparison)          |
//! | `table4`        | Table IV  (platform resources)           |
//! | `fig5`          | Fig. 5    (Euclidean mapping example)    |
//! | `fig8`          | Fig. 8    (multiplication-count curves)  |
//! | `phase1_trials` | Sec. VI   (Phase-I trial-count claim)    |

// The one exception is the `GlobalAlloc` impl in `alloc.rs`.
#![deny(unsafe_code)]

pub mod alloc;
pub mod diff;
pub mod json;
pub mod sweep;

use ernn_admm::{AdmmConfig, AdmmTrainer};
use ernn_asr::{evaluate_per, SynthCorpus};
use ernn_model::trainer::{train, TrainOptions};
use ernn_model::{
    compress_network_layers, BlockPolicy, CellType, Matrix, NetworkBuilder, RnnNetwork, Sgd,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Training recipe for one table row.
#[derive(Debug, Clone, Copy)]
pub struct RowRecipe {
    /// Dense pre-training epochs (for the shared baseline).
    pub pretrain_epochs: usize,
    /// ADMM outer iterations.
    pub admm_iterations: usize,
    /// Epochs per ADMM iteration.
    pub admm_epochs: usize,
    /// Constrained retraining epochs after projection.
    pub retrain_epochs: usize,
    /// Pre-training learning rate.
    pub pretrain_lr: f32,
    /// ADMM/retraining learning rate.
    pub admm_lr: f32,
}

impl RowRecipe {
    /// The recipe used for the recorded experiment runs.
    pub fn full() -> Self {
        RowRecipe {
            pretrain_epochs: 24,
            admm_iterations: 8,
            admm_epochs: 2,
            retrain_epochs: 6,
            pretrain_lr: 0.08,
            admm_lr: 0.02,
        }
    }

    /// A reduced recipe for smoke runs (`--quick`).
    pub fn quick() -> Self {
        RowRecipe {
            pretrain_epochs: 8,
            admm_iterations: 3,
            admm_epochs: 1,
            retrain_epochs: 2,
            pretrain_lr: 0.08,
            admm_lr: 0.02,
        }
    }
}

/// One row of a Table I/II-style model grid.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Row id, matching the paper's table.
    pub id: usize,
    /// Hidden dims per layer (the paper's "Layer Size", scaled ÷8).
    pub layer_dims: Vec<usize>,
    /// Per-layer block sizes; `None` marks the uncompressed baseline row.
    pub blocks: Option<Vec<usize>>,
    /// LSTM peephole connections.
    pub peephole: bool,
    /// LSTM projection dim.
    pub projection: Option<usize>,
}

/// Result of evaluating one row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The row definition.
    pub row: ModelRow,
    /// Measured test PER (%).
    pub per: f64,
    /// Degradation versus this row's baseline (PER percentage points);
    /// zero (by definition) for baseline rows.
    pub degradation: f64,
}

/// Builds and pre-trains the dense baseline for a layer-size group.
pub fn train_baseline(
    cell: CellType,
    row: &ModelRow,
    corpus: &SynthCorpus,
    recipe: &RowRecipe,
    seed: u64,
) -> (RnnNetwork<Matrix>, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = NetworkBuilder::new(cell, corpus.feature_dim, corpus.num_classes())
        .layer_dims(&row.layer_dims)
        .peephole(row.peephole);
    if let Some(p) = row.projection {
        builder = builder.projection(p);
    }
    let mut net = builder.build(&mut rng);
    let data = corpus.train_sequences();
    let mut opt = Sgd::new(recipe.pretrain_lr).momentum(0.9).clip_norm(2.0);
    train(
        &mut net,
        &data,
        TrainOptions {
            epochs: recipe.pretrain_epochs,
            lr_decay: 0.92,
            shuffle: true,
        },
        &mut opt,
        &mut rng,
    );
    let per = evaluate_per(&net, &corpus.test);
    (net, per)
}

/// Runs the ADMM pipeline for one compressed row starting from a
/// pre-trained baseline and returns the compressed-model PER (%).
pub fn evaluate_compressed_row(
    baseline: &RnnNetwork<Matrix>,
    blocks: &[usize],
    corpus: &SynthCorpus,
    recipe: &RowRecipe,
    seed: u64,
) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = baseline.clone();
    let policies: Vec<BlockPolicy> = blocks.iter().map(|&b| BlockPolicy::uniform(b)).collect();
    let cfg = AdmmConfig {
        rho: 0.05,
        rho_growth: 1.5,
        iterations: recipe.admm_iterations,
        epochs_per_iter: recipe.admm_epochs,
        retrain_epochs: recipe.retrain_epochs,
        residual_tol: 1e-4,
    };
    let mut trainer = AdmmTrainer::with_layer_policies(&net, &policies, cfg);
    let data = corpus.train_sequences();
    let mut opt = Sgd::new(recipe.admm_lr).momentum(0.9).clip_norm(2.0);
    trainer.run(&mut net, &data, &mut opt, &mut rng);
    trainer.finalize(&mut net);
    let mut opt2 = Sgd::new(recipe.admm_lr * 0.75).momentum(0.9).clip_norm(2.0);
    trainer.retrain_constrained(&mut net, &data, recipe.retrain_epochs, &mut opt2, &mut rng);
    let compressed = compress_network_layers(&net, &policies);
    evaluate_per(&compressed, &corpus.test)
}

/// Formats a block-size list like the paper ("4-8", "-" for baselines).
pub fn blocks_label(blocks: &Option<Vec<usize>>) -> String {
    match blocks {
        None => "-".to_string(),
        Some(bs) => bs
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join("-"),
    }
}

/// Formats a layer-dims list like the paper ("64-64").
pub fn dims_label(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("-")
}

/// The Table I (LSTM) grid, scaled ÷8 from the paper's layer sizes.
pub fn table1_grid() -> Vec<ModelRow> {
    let mut rows = Vec::new();
    let mut id = 1;
    // 256-256-256 group -> 32-32-32 (no peephole, no projection).
    for blocks in [None, Some(vec![2, 2, 2]), Some(vec![4, 4, 4])] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![32, 32, 32],
            blocks,
            peephole: false,
            projection: None,
        });
        id += 1;
    }
    // 512-512 group -> 64-64 (peephole).
    for blocks in [
        None,
        Some(vec![4, 4]),
        Some(vec![4, 8]),
        Some(vec![8, 4]),
        Some(vec![8, 8]),
    ] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![64, 64],
            blocks,
            peephole: true,
            projection: None,
        });
        id += 1;
    }
    // 1024-1024 group -> 128-128 with projection 64 (peephole+projection).
    for blocks in [
        None,
        Some(vec![4, 4]),
        Some(vec![4, 8]),
        Some(vec![8, 4]),
        Some(vec![8, 8]),
        Some(vec![8, 16]),
        Some(vec![16, 8]),
        Some(vec![16, 16]),
    ] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![128, 128],
            blocks,
            peephole: true,
            projection: Some(64),
        });
        id += 1;
    }
    rows
}

/// The Table II (GRU) grid — same structure, no peephole/projection
/// options (GRUs have neither).
pub fn table2_grid() -> Vec<ModelRow> {
    let mut rows = Vec::new();
    let mut id = 1;
    for blocks in [None, Some(vec![4, 4, 4]), Some(vec![8, 8, 8])] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![32, 32, 32],
            blocks,
            peephole: false,
            projection: None,
        });
        id += 1;
    }
    for blocks in [
        None,
        Some(vec![4, 4]),
        Some(vec![4, 8]),
        Some(vec![8, 4]),
        Some(vec![8, 8]),
    ] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![64, 64],
            blocks,
            peephole: false,
            projection: None,
        });
        id += 1;
    }
    for blocks in [
        None,
        Some(vec![4, 4]),
        Some(vec![4, 8]),
        Some(vec![8, 4]),
        Some(vec![8, 8]),
        Some(vec![8, 16]),
        Some(vec![16, 8]),
        Some(vec![16, 16]),
    ] {
        rows.push(ModelRow {
            id,
            layer_dims: vec![128, 128],
            blocks,
            peephole: false,
            projection: None,
        });
        id += 1;
    }
    rows
}

/// Runs a whole grid: baselines are trained once per layer-size group and
/// shared by that group's compressed rows; rows run on two worker threads.
pub fn run_grid(
    cell: CellType,
    rows: Vec<ModelRow>,
    corpus: &SynthCorpus,
    recipe: &RowRecipe,
    seed: u64,
) -> Vec<RowResult> {
    use std::collections::HashMap;
    // Baselines per (dims, peephole, projection) group.
    let mut baselines: HashMap<String, (RnnNetwork<Matrix>, f64)> = HashMap::new();
    for row in rows.iter().filter(|r| r.blocks.is_none()) {
        let key = format!("{:?}{:?}{:?}", row.layer_dims, row.peephole, row.projection);
        baselines
            .entry(key)
            .or_insert_with(|| train_baseline(cell, row, corpus, recipe, seed));
    }

    // Compressed rows in parallel (2 workers — the host has 2 cores).
    let jobs: Vec<(usize, ModelRow)> = rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.blocks.is_some())
        .map(|(i, r)| (i, r.clone()))
        .collect();
    let mut pers: Vec<Option<f64>> = vec![None; rows.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in jobs.chunks(jobs.len().div_ceil(2).max(1)) {
            let chunk = chunk.to_vec();
            let baselines = &baselines;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (i, row) in chunk {
                    let key = format!("{:?}{:?}{:?}", row.layer_dims, row.peephole, row.projection);
                    let (baseline, _) = &baselines[&key];
                    let blocks = row.blocks.clone().expect("compressed row");
                    let per = evaluate_compressed_row(
                        baseline,
                        &blocks,
                        corpus,
                        recipe,
                        seed.wrapping_add(row.id as u64),
                    );
                    out.push((i, per));
                }
                out
            }));
        }
        for h in handles {
            for (i, per) in h.join().expect("worker thread") {
                pers[i] = Some(per);
            }
        }
    });

    rows.into_iter()
        .enumerate()
        .map(|(i, row)| {
            let key = format!("{:?}{:?}{:?}", row.layer_dims, row.peephole, row.projection);
            let base_per = baselines[&key].1;
            let per = pers[i].unwrap_or(base_per);
            RowResult {
                degradation: if row.blocks.is_none() {
                    0.0
                } else {
                    per - base_per
                },
                per,
                row,
            }
        })
        .collect()
}

/// Renders a Table I/II-style report.
pub fn render_model_table(title: &str, results: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str("ID  Layer Size   Block Size  Peep  Proj  PER (%)  PER degradation (pp)\n");
    for r in results {
        out.push_str(&format!(
            "{:<3} {:<12} {:<11} {:<5} {:<5} {:<8.2} {}\n",
            r.row.id,
            dims_label(&r.row.layer_dims),
            blocks_label(&r.row.blocks),
            if r.row.peephole { "y" } else { "n" },
            r.row
                .projection
                .map(|p| p.to_string())
                .unwrap_or_else(|| "n".into()),
            r.per,
            if r.row.blocks.is_none() {
                "-".to_string()
            } else {
                format!("{:+.2}", r.degradation)
            },
        ));
    }
    out
}
