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

/// Base seeds `table1` / `table2` train each row from under `--quick`:
/// the largest count that kept both within ≈ 4 min on a 2-core machine
/// (two took 183 s, three 321 s).
const QUICK_SEEDS: usize = 2;

/// Base seeds of a full `table1` / `table2` run.
const FULL_SEEDS: usize = 5;

/// The first `n` base seeds of a Table I/II run: 7, 1 007, 2 007, …. A
/// row's rng is seeded `base + id` and ids run 1–17, so bases 1 000 apart
/// never share a stream, and base 7 trains exactly what one seed did.
fn base_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 7 + 1000 * i).collect()
}

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

    /// The row as a `--json` record: its key ([`ModelRow::key_json`])
    /// then [`Self::seed_json`]'s fields.
    pub fn json(&self) -> JsonObject {
        self.seed_json(self.row.key_json())
    }

    /// Appends this seed's fields to `doc`: `seed` and `baseline_per`; a
    /// row with a control adds `control_per`; then `per` and
    /// `degradation`. A compressed row adds its ADMM summary and
    /// `admm_trace`: one `{iteration, mean_loss, residual}` per outer
    /// iteration, numbered from 1. No field is wall-clock, so the record
    /// is a pure function of the code and the platform's libm.
    pub fn seed_json(&self, doc: JsonObject) -> JsonObject {
        let mut doc = doc
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

/// One grid row trained from each base seed.
#[derive(Debug, Clone)]
pub struct SeededRow {
    /// The row's result from each base seed, in seed order (never empty).
    pub runs: Vec<RowResult>,
}

impl SeededRow {
    /// The row definition.
    pub fn row(&self) -> &ModelRow {
        &self.runs[0].row
    }

    /// The median of the per-seed degradations (the mean of the middle
    /// two for an even count): the row's degradation.
    pub fn degradation(&self) -> f64 {
        median(self.runs.iter().map(RowResult::degradation))
    }

    /// The least and the greatest per-seed degradation.
    pub fn degradation_range(&self) -> (f64, f64) {
        let ds = self.runs.iter().map(RowResult::degradation);
        (
            ds.clone().fold(f64::INFINITY, f64::min),
            ds.fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// The row as a `--json` record: its key, `degradation` (the median),
    /// `degradation_min`, `degradation_max` and `seeds`, one
    /// [`RowResult::seed_json`] object per base seed.
    pub fn json(&self) -> JsonObject {
        let (min, max) = self.degradation_range();
        self.row()
            .key_json()
            .num("degradation", self.degradation())
            .num("degradation_min", min)
            .num("degradation_max", max)
            .raw(
                "seeds",
                array(
                    self.runs
                        .iter()
                        .map(|r| r.seed_json(JsonObject::new()).render()),
                ),
            )
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    assert!(!xs.is_empty(), "median of no values");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

impl ModelRow {
    /// The row's `--json` key: cell, layer dims, blocks and io blocks.
    pub fn key_json(&self) -> JsonObject {
        JsonObject::new()
            .str("cell", &format!("{:?}", self.spec.cell))
            .str("layer_dims", &dims_label(&self.spec.layer_dims))
            .str("blocks", &self.blocks_label(|p| p.recurrent))
            .str("io_blocks", &self.blocks_label(|p| p.input))
    }

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

/// Runs `jobs` on two threads and returns `run(job)` for each, in job
/// order. The threads take the jobs in list order from one shared index,
/// so put the longest first; no result depends on which thread ran it,
/// and a job's panic resurfaces on the caller.
pub(crate) fn run_jobs<J: Sync, T: Send>(jobs: &[J], run: impl Fn(&J) -> T + Sync) -> Vec<T> {
    // The shared index publishes nothing else: the jobs are read-only and
    // each result comes back through its thread's join.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(|| {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        jobs.get(i).map(|job| (i, run(job)))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Runs a whole grid through `recipe` once per base seed, in two rounds of
/// jobs on two threads, largest network first. First each baseline row is
/// pre-trained per seed, with an rng seeded `seed`, and shared by the
/// compressed rows of its shape. Then each compressed row and its
/// [`Recipe::control`] are two jobs per seed, each with its own rng seeded
/// `seed + id`. Returns one [`SeededRow`] per row, its runs in `seeds`
/// order.
///
/// # Panics
///
/// Panics if `seeds` is empty or a compressed row's shape has no baseline
/// row.
pub fn run_grid(
    rows: Vec<ModelRow>,
    corpus: &SynthCorpus,
    recipe: &Recipe,
    seeds: &[u64],
) -> Vec<SeededRow> {
    assert!(!seeds.is_empty(), "run_grid needs a seed");
    let data = corpus.train_sequences();
    let params = |row: &ModelRow| {
        row.spec
            .build(&mut ChaCha8Rng::seed_from_u64(0))
            .param_count()
    };
    let largest_first = |i: usize| std::cmp::Reverse(params(&rows[i]));

    // (baseline row index, seed index).
    let mut pretrain: Vec<(usize, usize)> = (0..rows.len())
        .filter(|&i| rows[i].policies.is_none())
        .flat_map(|i| (0..seeds.len()).map(move |k| (i, k)))
        .collect();
    pretrain.sort_by_cached_key(|&(i, _)| largest_first(i));
    let pretrained = run_jobs(&pretrain, |&(i, k)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seeds[k]);
        let net = recipe.pretrain(&rows[i].spec, &data, &mut rng);
        let per = evaluate_per(|f| net.forward_logits(f), &corpus.test);
        (net, per)
    });
    let baseline = |row: &ModelRow, k: usize| {
        let job = pretrain
            .iter()
            .position(|&(i, kk)| kk == k && rows[i].spec == row.spec)
            .expect("a baseline row for every shape");
        &pretrained[job]
    };

    // (compressed row index, seed index, is the control): within a size,
    // the compressions (which also project) before the controls.
    let mut jobs: Vec<(usize, usize, bool)> = (0..rows.len())
        .filter(|&i| rows[i].policies.is_some())
        .flat_map(|i| (0..seeds.len()).flat_map(move |k| [(i, k, false), (i, k, true)]))
        .collect();
    jobs.sort_by_cached_key(|&(i, _, control)| (largest_first(i), control));
    let trained = run_jobs(&jobs, |&(i, k, control)| {
        let row = &rows[i];
        let (dense, _) = baseline(row, k);
        let mut rng = ChaCha8Rng::seed_from_u64(seeds[k].wrapping_add(row.id as u64));
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
    });

    let result = |i: usize, k: usize| {
        let row = &rows[i];
        let baseline_per = baseline(row, k).1;
        let find = |control| {
            let job = jobs.iter().position(|&job| job == (i, k, control));
            &trained[job.expect("every compressed row ran")]
        };
        match &row.policies {
            None => RowResult {
                row: row.clone(),
                seed: seeds[k],
                baseline_per,
                control_per: None,
                per: baseline_per,
                admm: None,
            },
            Some(_) => RowResult {
                row: row.clone(),
                seed: seeds[k].wrapping_add(row.id as u64),
                baseline_per,
                control_per: Some(find(true).0),
                per: find(false).0,
                admm: find(false).1.clone(),
            },
        }
    };
    (0..rows.len())
        .map(|i| SeededRow {
            runs: (0..seeds.len()).map(|k| result(i, k)).collect(),
        })
        .collect()
}

/// Renders a Table I/II-style report: per row the median PER and control
/// PER over the seeds, and the median degradation with its range.
pub fn render_model_table(title: &str, rows: &[SeededRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(
        "ID  Layer Size   Block Size  Peep  Proj  PER (%)  Control (%)  PER degradation (pp) [min, max]\n",
    );
    for r in rows {
        let row = r.row();
        let spec = &row.spec;
        let controls: Vec<f64> = r.runs.iter().filter_map(|s| s.control_per).collect();
        let (min, max) = r.degradation_range();
        out.push_str(&format!(
            "{:<3} {:<12} {:<11} {:<5} {:<5} {:<8.2} {:<12} {}\n",
            row.id,
            dims_label(&spec.layer_dims),
            row.blocks_label(|p| p.recurrent),
            if spec.peephole { "y" } else { "n" },
            spec.projection
                .map(|p| p.to_string())
                .unwrap_or_else(|| "n".into()),
            median(r.runs.iter().map(|s| s.per)),
            if controls.is_empty() {
                "-".to_string()
            } else {
                format!("{:.2}", median(controls))
            },
            if row.policies.is_none() {
                "-".to_string()
            } else {
                format!("{:+.2} [{min:+.2}, {max:+.2}]", r.degradation())
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
/// the standard corpus from two base seeds under `--quick` (with the
/// reduced recipe, 64-64 group only), else five;
/// prints the table, writes the `--json` document (the bench header,
/// `quick`, `base_seeds` and one [`SeededRow::json`] per row) and returns
/// the rows.
pub fn run_model_table(cell: CellType, bench: &str, title: &str) -> Vec<SeededRow> {
    let args = SweepArgs::from_env();
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::standard(42));
    let mut grid = model_grid(cell, &corpus);
    if args.quick {
        grid.retain(|r| r.spec.layer_dims == [64, 64]);
    }
    let seeds = base_seeds(if args.quick { QUICK_SEEDS } else { FULL_SEEDS });
    eprintln!(
        "{bench}: {} rows × {} seeds ({} corpus utterances){}",
        grid.len(),
        seeds.len(),
        corpus.train.len(),
        if args.quick { " [quick]" } else { "" }
    );
    let rows = run_grid(grid, &corpus, &args.recipe(), &seeds);
    println!("{}", render_model_table(title, &rows));
    args.write_bench(
        JsonObject::new()
            .bench_header(bench)
            .raw("quick", args.quick.to_string())
            .raw("base_seeds", array(seeds.iter().map(u64::to_string)))
            .raw("rows", array(rows.iter().map(|r| r.json().render()))),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whichever thread runs a job, each seed's row is what its jobs
    /// compute alone: the baseline pre-trained with an rng seeded `seed`,
    /// `compress` and `control` on it, each with an rng seeded
    /// `seed + id`, and the degradation is against control.
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
        let seeds = [5, 1005];
        let grid = run_grid(rows.clone(), &corpus, &recipe, &seeds);
        assert_eq!(grid.len(), rows.len());

        let data = corpus.train_sequences();
        for (k, &base) in seeds.iter().enumerate() {
            let dense = recipe.pretrain(&spec, &data, &mut ChaCha8Rng::seed_from_u64(base));
            let dense_per = evaluate_per(|f| dense.forward_logits(f), &corpus.test);
            assert_eq!(grid[0].runs[k].seed, base);
            assert_eq!(grid[0].runs[k].per, dense_per);
            assert_eq!(grid[0].runs[k].control_per, None);
            for (row, seeded) in rows.iter().zip(&grid).skip(1) {
                let result = &seeded.runs[k];
                let seed = base + row.id as u64;
                let policies = row.policies.as_ref().unwrap();
                let (net, admm) = recipe.compress(
                    &mut dense.clone(),
                    policies,
                    &data,
                    &mut ChaCha8Rng::seed_from_u64(seed),
                );
                let control = recipe.control(&dense, &data, &mut ChaCha8Rng::seed_from_u64(seed));
                assert_eq!(result.seed, seed);
                assert_eq!(result.baseline_per, dense_per);
                let per = evaluate_per(|f| net.forward_logits(f), &corpus.test);
                let control_per = evaluate_per(|f| control.forward_logits(f), &corpus.test);
                assert_eq!(result.per, per, "row {}", row.id);
                assert_eq!(result.admm.as_ref(), Some(&admm), "row {}", row.id);
                assert_eq!(result.control_per, Some(control_per), "row {}", row.id);
                assert_eq!(result.degradation(), per - control_per);
            }
        }
    }

    /// Results come back in job order, whichever thread ran each job.
    #[test]
    fn run_jobs_returns_results_in_job_order() {
        let jobs: Vec<u64> = (0..40).collect();
        let slow_evens = |&j: &u64| {
            if j % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            j * j
        };
        let want: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        assert_eq!(run_jobs(&jobs, slow_evens), want);
        assert!(run_jobs(&[] as &[u64], slow_evens).is_empty());
    }

    /// A row's degradation is the median over its seeds, with the range
    /// beside it, and each seed's record is [`RowResult::json`] without
    /// the row key.
    #[test]
    fn a_seeded_row_reports_the_median_and_range_of_its_seeds() {
        let spec = ModelSpec::new(CellType::Lstm, 4, 3).layer_dims(&[8]);
        let run = |seed: u64, per: f64, control_per: f64| RowResult {
            row: ModelRow {
                id: 2,
                spec: spec.clone(),
                policies: Some(vec![BlockPolicy::uniform(4)]),
            },
            seed,
            baseline_per: 40.0,
            control_per: Some(control_per),
            per,
            admm: None,
        };
        let mut row = SeededRow {
            runs: vec![
                run(9, 30.0, 25.0),
                run(1009, 31.0, 30.0),
                run(2009, 40.0, 28.0),
            ],
        };
        assert_eq!(row.degradation(), 5.0);
        assert_eq!(row.degradation_range(), (1.0, 12.0));
        let doc = row.json().render();
        let key = r#"{"cell":"Lstm","layer_dims":"8","blocks":"4","io_blocks":"4","#;
        assert!(doc.starts_with(key), "{doc}");
        assert!(
            doc.contains(
                r#""degradation":5,"degradation_min":1,"degradation_max":12,"seeds":[{"seed":9,"#
            ),
            "{doc}"
        );
        let flat = row.runs[1].json().render();
        let seed_record = format!("{{{}", &flat[key.len()..]);
        assert!(doc.contains(&seed_record), "{doc}");

        row.runs.pop();
        assert_eq!(row.degradation(), 3.0);
        assert_eq!(median([7.5]), 7.5);
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
