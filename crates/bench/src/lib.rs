//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each binary regenerates one table or figure of the paper and takes
//! the [`sweep::SweepArgs`] flags; `--json PATH` writes its numbers:
//!
//! | binary          | artifact                                 | `--json` rows |
//! |-----------------|------------------------------------------|---------------|
//! | `table1`        | Table I   (LSTM PER vs layer/block size) | trained rows |
//! | `table2`        | Table II  (GRU PER vs layer/block size)  | trained rows |
//! | `table3`        | Table III (hardware comparison)          | design points, headline ratios |
//! | `table4`        | Table IV  (platform resources)           | one per platform |
//! | `fig5`          | Fig. 5    (Euclidean mapping example)    | matrices, block vectors, distance² |
//! | `fig8`          | Fig. 8    (multiplication-count curves)  | `(layer, Lb, model)` points, upper bounds |
//! | `phase1_trials` | Sec. VI   (Phase-I trial-count claim)    | one trained row per trial |
//!
//! No row carries a wall-clock field, so each `--quick` artifact is
//! compared byte for byte with its baseline in `crates/bench/baselines/`.
//! The three that train (`table1`, `table2`, `phase1_trials`) do so
//! through [`ernn_admm::Recipe`] and share this crate's row type and
//! [`paper_rows`]; no two train the same row. `table3` trains nothing:
//! its E-RNN PER degradations are `table1` / `table2` rows.

// The one exception is the `GlobalAlloc` impl in `alloc.rs`.
#![deny(unsafe_code)]

pub mod alloc;
pub mod json;
pub mod sweep;

use ernn_admm::{AdmmReport, Recipe};
use ernn_asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn_model::{BlockPolicy, CellType, ModelSpec};
use json::{array, JsonObject};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use sweep::SweepArgs;

/// One row of a Table I/II-style model grid.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Row id, matching the paper's table.
    pub id: usize,
    /// The model's shape (layer dims are the paper's "Layer Size" ÷ 8).
    pub spec: ModelSpec,
    /// One block policy per layer; `None` marks the uncompressed
    /// baseline row.
    pub policies: Option<Vec<BlockPolicy>>,
}

/// Result of training one row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The row definition.
    pub row: ModelRow,
    /// Seed of the row's rng.
    pub seed: u64,
    /// Test PER (%) of the row's dense baseline.
    pub baseline_per: f64,
    /// Test PER (%) of the row's equal-budget control
    /// ([`Recipe::control`]); `None` on baseline rows and on rows trained
    /// without one.
    pub control_per: Option<f64>,
    /// Measured test PER (%); the baseline's own on baseline rows.
    pub per: f64,
    /// The ADMM record of a compressed row.
    pub admm: Option<AdmmReport>,
}

impl RowResult {
    /// PER degradation (percentage points) versus the row's control, or
    /// versus its baseline when it has no control; zero on baseline rows.
    pub fn degradation(&self) -> f64 {
        self.per - self.control_per.unwrap_or(self.baseline_per)
    }

    /// The row as a `--json` record, keyed by (cell, layer dims, blocks,
    /// io blocks, seed). A row with a control adds `control_per` after
    /// `baseline_per`. A compressed row adds its ADMM summary and
    /// `admm_trace`: one `{iteration, mean_loss, residual}` per outer
    /// iteration, numbered from 1. No field is wall-clock, so the
    /// record is a pure function of the code and the platform's libm.
    pub fn json(&self) -> JsonObject {
        let mut doc = JsonObject::new()
            .str("cell", &format!("{:?}", self.row.spec.cell))
            .str("layer_dims", &dims_label(&self.row.spec.layer_dims))
            .str("blocks", &self.row.blocks_label(|p| p.recurrent))
            .str("io_blocks", &self.row.blocks_label(|p| p.input))
            .int("seed", self.seed as i64)
            .num("baseline_per", self.baseline_per);
        if let Some(control_per) = self.control_per {
            doc = doc.num("control_per", control_per);
        }
        let doc = doc
            .num("per", self.per)
            .num("degradation", self.degradation());
        match &self.admm {
            None => doc,
            Some(admm) => doc
                .num("final_residual", admm.final_residual() as f64)
                .int("admm_iterations", admm.iterations.len() as i64)
                .raw("converged", admm.converged.to_string())
                .raw(
                    "admm_trace",
                    array(admm.iterations.iter().zip(1..).map(|(it, iteration)| {
                        JsonObject::new()
                            .int("iteration", iteration)
                            .num("mean_loss", it.mean_loss as f64)
                            .num("residual", it.residual as f64)
                            .render()
                    })),
                ),
        }
    }
}

impl ModelRow {
    /// Formats one block size per layer like the paper ("4-8", "-" for
    /// baselines).
    pub fn blocks_label(&self, block: impl Fn(&BlockPolicy) -> usize) -> String {
        match &self.policies {
            None => "-".to_string(),
            Some(ps) => dims_label(&ps.iter().map(block).collect::<Vec<_>>()),
        }
    }
}

/// Formats a layer-dims list like the paper ("64-64").
pub fn dims_label(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("-")
}

/// The Table I (LSTM) / Table II (GRU) grid, layer sizes scaled ÷8 from
/// the paper's: per layer-size group one baseline row, then one row per
/// block-size combination. The paper's LSTMs add peepholes from 512 up
/// and a projection at 1024; GRUs have neither. The 64-64 group ends
/// with 16-16 so that, with 8-8, it carries both of Table III's E-RNN
/// block sizes (FFT8 / FFT16) and `--quick` trains them; last in its
/// group, it leaves the ids (and so the seeds) of the rows before it
/// unchanged.
pub fn model_grid(cell: CellType, corpus: &SynthCorpus) -> Vec<ModelRow> {
    let lstm = cell == CellType::Lstm;
    let spec = ModelSpec::new(cell, corpus.feature_dim, corpus.num_classes());
    let mut large = spec.clone().layer_dims(&[128, 128]).peephole(lstm);
    if lstm {
        large = large.projection(64);
    }
    let small_blocks: &[&[usize]] = if lstm {
        &[&[2, 2, 2], &[4, 4, 4]]
    } else {
        &[&[4, 4, 4], &[8, 8, 8]]
    };
    let groups: [(ModelSpec, &[&[usize]]); 3] = [
        // 256-256-256 -> 32-32-32.
        (spec.clone().layer_dims(&[32, 32, 32]), small_blocks),
        // 512-512 -> 64-64.
        (
            spec.layer_dims(&[64, 64]).peephole(lstm),
            &[&[4, 4], &[4, 8], &[8, 4], &[8, 8], &[16, 16]],
        ),
        // 1024-1024 -> 128-128.
        (
            large,
            &[
                &[4, 4],
                &[4, 8],
                &[8, 4],
                &[8, 8],
                &[8, 16],
                &[16, 8],
                &[16, 16],
            ],
        ),
    ];
    let mut rows = Vec::new();
    for (spec, block_sets) in groups {
        let uniform = |bs: &&[usize]| Some(bs.iter().map(|&b| BlockPolicy::uniform(b)).collect());
        for policies in std::iter::once(None).chain(block_sets.iter().map(uniform)) {
            rows.push(ModelRow {
                id: rows.len() + 1,
                spec: spec.clone(),
                policies,
            });
        }
    }
    rows
}

/// Runs a whole grid through `recipe`: each baseline row is pre-trained
/// with an rng seeded `seed` and shared by the compressed rows of its
/// shape. Each compressed row and its [`Recipe::control`] are two jobs,
/// each with its own rng seeded `seed + id`; two worker threads pull the
/// jobs from one shared index, largest network first, so no result
/// depends on which worker ran it.
///
/// # Panics
///
/// Panics if a compressed row's shape has no baseline row.
pub fn run_grid(
    rows: Vec<ModelRow>,
    corpus: &SynthCorpus,
    recipe: &Recipe,
    seed: u64,
) -> Vec<RowResult> {
    let data = corpus.train_sequences();
    let mut results: Vec<Option<RowResult>> = vec![None; rows.len()];
    let mut baselines = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.policies.is_some() {
            continue;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = recipe.pretrain(&row.spec, &data, &mut rng);
        let per = evaluate_per(|f| net.forward_logits(f), &corpus.test);
        baselines.push((&row.spec, net, per));
        results[i] = Some(RowResult {
            row: row.clone(),
            seed,
            baseline_per: per,
            control_per: None,
            per,
            admm: None,
        });
    }
    let baseline = |row: &ModelRow| {
        baselines
            .iter()
            .find(|(spec, ..)| *spec == &row.spec)
            .expect("a baseline row for every shape")
    };

    // (row index, is the control), largest network first and, within a
    // size, the compressions (which also project) before the controls.
    let mut jobs: Vec<(usize, bool)> = (0..rows.len())
        .filter(|&i| rows[i].policies.is_some())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    jobs.sort_by_key(|&(i, control)| {
        let params = baseline(&rows[i]).1.param_count();
        (std::cmp::Reverse(params), control)
    });
    // The shared index publishes nothing else: the jobs are read-only and
    // each result comes back through its worker's join.
    let next = AtomicUsize::new(0);
    let run = |(i, control): (usize, bool)| {
        let row = &rows[i];
        let (_, dense, _) = baseline(row);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(row.id as u64));
        if control {
            let net = recipe.control(dense, &data, &mut rng);
            (evaluate_per(|f| net.forward_logits(f), &corpus.test), None)
        } else {
            let policies = row.policies.as_ref().expect("compressed row");
            let (net, admm) = recipe.compress(&mut dense.clone(), policies, &data, &mut rng);
            (
                evaluate_per(|f| net.forward_logits(f), &corpus.test),
                Some(admm),
            )
        }
    };
    let done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(|| jobs.get(next.fetch_add(1, Ordering::Relaxed)))
                        .map(|&job| (job, run(job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread"))
            .collect()
    });
    let mut control_pers = vec![None; rows.len()];
    for &((i, control), (per, _)) in &done {
        if control {
            control_pers[i] = Some(per);
        }
    }
    for ((i, _), (per, admm)) in done {
        if let Some(admm) = admm {
            let row = &rows[i];
            results[i] = Some(RowResult {
                row: row.clone(),
                seed: seed.wrapping_add(row.id as u64),
                baseline_per: baseline(row).2,
                control_per: control_pers[i],
                per,
                admm: Some(admm),
            });
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every row ran"))
        .collect()
}

/// Renders a Table I/II-style report.
pub fn render_model_table(title: &str, results: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(
        "ID  Layer Size   Block Size  Peep  Proj  PER (%)  Control (%)  PER degradation (pp)\n",
    );
    for r in results {
        let spec = &r.row.spec;
        out.push_str(&format!(
            "{:<3} {:<12} {:<11} {:<5} {:<5} {:<8.2} {:<12} {}\n",
            r.row.id,
            dims_label(&spec.layer_dims),
            r.row.blocks_label(|p| p.recurrent),
            if spec.peephole { "y" } else { "n" },
            spec.projection
                .map(|p| p.to_string())
                .unwrap_or_else(|| "n".into()),
            r.per,
            r.control_per.map_or("-".to_string(), |c| format!("{c:.2}")),
            if r.row.policies.is_none() {
                "-".to_string()
            } else {
                format!("{:+.2}", r.degradation())
            },
        ));
    }
    out
}

/// A paper bin's `--json` document: the bench header, `quick` and the
/// trained rows.
pub fn paper_rows(args: &SweepArgs, bench: &str, results: &[RowResult]) -> JsonObject {
    JsonObject::new()
        .bench_header(bench)
        .raw("quick", args.quick.to_string())
        .raw("rows", array(results.iter().map(|r| r.json().render())))
}

/// The body of `table1` / `table2`: trains the cell's [`model_grid`] on
/// the standard corpus (`--quick`: the reduced recipe, 64-64 group
/// only), prints the table, writes the `--json` rows and returns the
/// results.
pub fn run_model_table(cell: CellType, bench: &str, title: &str) -> Vec<RowResult> {
    let args = SweepArgs::from_env();
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::standard(42));
    let mut grid = model_grid(cell, &corpus);
    if args.quick {
        grid.retain(|r| r.spec.layer_dims == [64, 64]);
    }
    eprintln!(
        "{bench}: {} rows ({} corpus utterances){}",
        grid.len(),
        corpus.train.len(),
        if args.quick { " [quick]" } else { "" }
    );
    let results = run_grid(grid, &corpus, &args.recipe(), 7);
    println!("{}", render_model_table(title, &results));
    args.write_bench(paper_rows(&args, bench, &results));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whichever worker pulls a job, its row is what the job computes
    /// alone: `compress` and `control` on the shared baseline, each with
    /// an rng seeded `seed + id`, and the degradation is against control.
    #[test]
    fn run_grid_rows_are_each_job_run_alone() {
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(3));
        let spec = ModelSpec::new(CellType::Gru, corpus.feature_dim, corpus.num_classes())
            .layer_dims(&[8]);
        let rows: Vec<ModelRow> = [None, Some(2), Some(4), Some(8)]
            .into_iter()
            .enumerate()
            .map(|(i, block)| ModelRow {
                id: i + 1,
                spec: spec.clone(),
                policies: block.map(|b| vec![BlockPolicy::uniform(b)]),
            })
            .collect();
        let recipe = Recipe {
            pretrain_epochs: 1,
            ..Recipe::quick()
        };
        let results = run_grid(rows.clone(), &corpus, &recipe, 5);

        let data = corpus.train_sequences();
        let dense = recipe.pretrain(&spec, &data, &mut ChaCha8Rng::seed_from_u64(5));
        let dense_per = evaluate_per(|f| dense.forward_logits(f), &corpus.test);
        assert_eq!(results[0].per, dense_per);
        assert_eq!(results[0].control_per, None);
        for (row, result) in rows.iter().zip(&results).skip(1) {
            let seed = 5 + row.id as u64;
            let policies = row.policies.as_ref().unwrap();
            let (net, admm) = recipe.compress(
                &mut dense.clone(),
                policies,
                &data,
                &mut ChaCha8Rng::seed_from_u64(seed),
            );
            let control = recipe.control(&dense, &data, &mut ChaCha8Rng::seed_from_u64(seed));
            assert_eq!(result.seed, seed);
            let per = evaluate_per(|f| net.forward_logits(f), &corpus.test);
            let control_per = evaluate_per(|f| control.forward_logits(f), &corpus.test);
            assert_eq!(result.per, per, "row {}", row.id);
            assert_eq!(result.admm.as_ref(), Some(&admm), "row {}", row.id);
            assert_eq!(result.control_per, Some(control_per), "row {}", row.id);
            assert_eq!(result.degradation(), per - control_per);
        }
    }

    #[test]
    fn model_grid_trains_each_row_once_and_carries_table_iii_blocks() {
        // `model_grid` reads only the corpus's feature and class counts.
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(1));
        for cell in [CellType::Lstm, CellType::Gru] {
            let grid = model_grid(cell, &corpus);
            let ids: Vec<usize> = grid.iter().map(|r| r.id).collect();
            assert_eq!(ids, (1..=grid.len()).collect::<Vec<_>>(), "{cell:?}");

            let key = |r: &ModelRow| {
                (
                    dims_label(&r.spec.layer_dims),
                    r.blocks_label(|p| p.recurrent),
                    r.blocks_label(|p| p.input),
                )
            };
            let mut keys: Vec<_> = grid.iter().map(key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), grid.len(), "{cell:?}: a row is listed twice");

            // `run_grid` finds each compressed row's baseline by spec.
            for row in grid.iter().filter(|r| r.policies.is_some()) {
                assert!(
                    grid.iter()
                        .any(|b| b.policies.is_none() && b.spec == row.spec),
                    "{cell:?}: row {} has no baseline",
                    row.id
                );
            }

            // Table III's FFT8 / FFT16 degradations come from these rows.
            let blocks_64: Vec<String> = grid
                .iter()
                .filter(|r| r.spec.layer_dims == [64, 64])
                .map(|r| r.blocks_label(|p| p.recurrent))
                .collect();
            for blocks in ["8-8", "16-16"] {
                assert!(
                    blocks_64.iter().any(|b| b == blocks),
                    "{cell:?}: 64-64 lacks {blocks}"
                );
            }
        }
    }
}
