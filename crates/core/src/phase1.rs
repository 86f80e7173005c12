//! Phase I: deriving the RNN model (paper Fig. 2, Sec. VI-B).
//!
//! Three steps under an accuracy budget:
//!
//! 1. **Sanity check** — the BRAM floor gives the block-size lower bound.
//! 2. **Block size optimization** — scan power-of-two block sizes from the
//!    bottom-up upper bound downwards; the largest block size meeting the
//!    accuracy budget wins. The bounds keep this to ≤ 3–4 trials.
//! 3. **Fine tuning** — one trial switching LSTM → GRU (kept if accuracy
//!    holds: "it is desirable to shift from LSTM to GRU because of less
//!    computation and storage"), and one trial doubling the block size of
//!    the input/output matrices only.
//!
//! Training is abstracted behind [`TrainOracle`], so the algorithm can be
//! unit-tested against a closed-form oracle and run for real against the
//! ADMM/ASR pipeline in [`crate::flow`].

use crate::explore::{block_size_bounds, BlockSizeBounds};
use crate::pipeline::{Pipeline, PipelineError, SpecStage};
use ernn_fpga::artifact::{Phase1Provenance, TrialRecord};
use ernn_fpga::Device;
use ernn_model::{BlockPolicy, CellType, ModelSpec};

/// A candidate model configuration Phase I may train.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSpec {
    /// Cell type.
    pub cell: CellType,
    /// Hidden dimension per stacked layer.
    pub layer_dims: Vec<usize>,
    /// Block size for recurrent matrices.
    pub block: usize,
    /// Block size for input/output matrices (≥ `block`).
    pub io_block: usize,
}

impl CandidateSpec {
    fn with_block(&self, block: usize) -> Self {
        CandidateSpec {
            block,
            io_block: block,
            ..self.clone()
        }
    }
}

/// Supplies (expensive) accuracy evaluations for candidates.
///
/// Implementations train the candidate to convergence — with ADMM for
/// compressed candidates — and return the test-set PER in percent.
pub trait TrainOracle {
    /// PER (%) of the uncompressed baseline for a cell type.
    fn baseline_per(&mut self, cell: CellType) -> f64;
    /// PER (%) of a trained compressed candidate.
    fn evaluate(&mut self, spec: &CandidateSpec) -> f64;
}

/// Phase-I configuration.
#[derive(Debug, Clone)]
pub struct Phase1Config {
    /// Target device (drives the BRAM floor).
    pub device: Device,
    /// Hidden size of the *deployed* model (the paper deploys 1024; the
    /// oracle may train a scaled-down proxy).
    pub deploy_hidden: usize,
    /// Stacked layer dims for the trained candidates.
    pub layer_dims: Vec<usize>,
    /// Maximum acceptable PER degradation (percentage points) versus the
    /// LSTM baseline.
    pub accuracy_budget: f64,
    /// Optional cap on the block-size scan below the bottom-up bound —
    /// used when the training proxy is much smaller than the deployed
    /// model, where huge blocks are structurally meaningless.
    pub max_block: Option<usize>,
}

/// One recorded training trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// What was trained.
    pub spec: CandidateSpec,
    /// The measured PER (%).
    pub per: f64,
    /// Whether the candidate met the accuracy budget.
    pub accepted: bool,
}

/// Phase-I output.
#[derive(Debug, Clone)]
pub struct Phase1Result {
    /// The chosen model.
    pub chosen: CandidateSpec,
    /// Its measured PER (%).
    pub chosen_per: f64,
    /// The LSTM baseline PER (%).
    pub baseline_per: f64,
    /// All training trials in order (the paper bounds these to ~5).
    pub trials: Vec<Trial>,
    /// The block-size search bounds used.
    pub bounds: BlockSizeBounds,
}

impl Phase1Result {
    /// Number of compressed-candidate training trials.
    pub fn trial_count(&self) -> usize {
        self.trials.len()
    }

    /// PER degradation of the chosen model versus the baseline.
    pub fn degradation(&self) -> f64 {
        self.chosen_per - self.baseline_per
    }

    /// The trial log as artifact provenance.
    pub fn provenance(&self) -> Phase1Provenance {
        Phase1Provenance {
            baseline_per: self.baseline_per,
            chosen_per: self.chosen_per,
            trials: self
                .trials
                .iter()
                .map(|t| TrialRecord {
                    cell: t.spec.cell,
                    block: t.spec.block,
                    io_block: t.spec.io_block,
                    per: t.per,
                    accepted: t.accepted,
                })
                .collect(),
        }
    }

    /// Carries the Phase-I decision into the lifecycle pipeline: a
    /// [`SpecStage`] whose model spec is the chosen candidate, whose
    /// block policy is the chosen (recurrent, io) block sizes, and whose
    /// provenance records the full trial log — so the design-optimization
    /// flow *produces* deployable artifacts instead of dead-ending in a
    /// report. `input_dim`/`classes` come from the corpus the oracle
    /// trained on (the candidate spec does not carry them); an LSTM gets
    /// the peepholes the oracle pre-trains with.
    pub fn into_pipeline(
        &self,
        input_dim: usize,
        classes: usize,
    ) -> Result<SpecStage, PipelineError> {
        let spec = ModelSpec::new(self.chosen.cell, input_dim, classes)
            .layer_dims(&self.chosen.layer_dims)
            .peephole(self.chosen.cell == CellType::Lstm);
        Ok(Pipeline::paper(spec)?
            .block_policy(BlockPolicy::with_io_block(
                self.chosen.block,
                self.chosen.io_block,
            ))
            .phase1_provenance(self.provenance()))
    }
}

/// Runs the Phase-I algorithm.
///
/// # Panics
///
/// Panics if `config.layer_dims` is empty.
pub fn run_phase1(oracle: &mut dyn TrainOracle, config: &Phase1Config) -> Phase1Result {
    assert!(!config.layer_dims.is_empty(), "need at least one layer");
    let bounds = block_size_bounds(config.deploy_hidden, &config.device);
    let baseline = oracle.baseline_per(CellType::Lstm);
    let budget = config.accuracy_budget;
    let mut trials = Vec::new();

    let base_candidate = CandidateSpec {
        cell: CellType::Lstm,
        layer_dims: config.layer_dims.clone(),
        block: bounds.lower,
        io_block: bounds.lower,
    };

    // Step 2: largest feasible block size, scanning downward from the
    // upper bound so the first acceptance wins.
    let mut chosen: Option<(CandidateSpec, f64)> = None;
    let effective_upper = config
        .max_block
        .map_or(bounds.upper, |m| m.min(bounds.upper))
        .max(bounds.lower);
    let mut block = effective_upper.max(bounds.lower);
    while block >= bounds.lower.max(2) {
        let spec = base_candidate.with_block(block);
        let per = oracle.evaluate(&spec);
        let accepted = per - baseline <= budget;
        trials.push(Trial {
            spec: spec.clone(),
            per,
            accepted,
        });
        if accepted {
            chosen = Some((spec, per));
            break;
        }
        if block == bounds.lower.max(2) {
            break;
        }
        block /= 2;
    }
    // Fall back to the BRAM floor if nothing met the budget (the model
    // must fit on chip regardless; the budget is then reported as missed).
    let (mut chosen_spec, mut chosen_per) = chosen.unwrap_or_else(|| {
        let spec = base_candidate.with_block(bounds.lower.max(2));
        let per = trials
            .iter()
            .find(|t| t.spec == spec)
            .map(|t| t.per)
            .unwrap_or_else(|| oracle.evaluate(&spec));
        (spec, per)
    });

    // Step 3a: try the GRU switch at the chosen block size.
    {
        let spec = CandidateSpec {
            cell: CellType::Gru,
            ..chosen_spec.clone()
        };
        let per = oracle.evaluate(&spec);
        let accepted = per - baseline <= budget;
        trials.push(Trial {
            spec: spec.clone(),
            per,
            accepted,
        });
        if accepted {
            chosen_spec = spec;
            chosen_per = per;
        }
    }

    // Step 3b: try a 2× block size for the input/output matrices only
    // (limited to one extra size — "we limit the maximum type of block
    // sizes to be 2").
    if chosen_spec.block * 2 <= bounds.upper * 2 {
        let spec = CandidateSpec {
            io_block: chosen_spec.block * 2,
            ..chosen_spec.clone()
        };
        let per = oracle.evaluate(&spec);
        let accepted = per - baseline <= budget;
        trials.push(Trial {
            spec: spec.clone(),
            per,
            accepted,
        });
        if accepted {
            chosen_spec = spec;
            chosen_per = per;
        }
    }

    Phase1Result {
        chosen: chosen_spec,
        chosen_per,
        baseline_per: baseline,
        trials,
        bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::XCKU060;

    /// A closed-form oracle: PER grows smoothly with effective block size;
    /// GRU matches LSTM (the paper's observation).
    struct SyntheticOracle {
        baseline: f64,
        /// Degradation added per log2(block).
        per_log_block: f64,
        /// Extra degradation for GRU (0 = parity with LSTM).
        gru_penalty: f64,
        evaluations: usize,
    }

    impl TrainOracle for SyntheticOracle {
        fn baseline_per(&mut self, _cell: CellType) -> f64 {
            self.baseline
        }
        fn evaluate(&mut self, spec: &CandidateSpec) -> f64 {
            self.evaluations += 1;
            let eff = (spec.block as f64).log2() * 0.75 + (spec.io_block as f64).log2() * 0.25;
            let gru = if spec.cell == CellType::Gru {
                self.gru_penalty
            } else {
                0.0
            };
            self.baseline + eff * self.per_log_block + gru
        }
    }

    fn config(budget: f64) -> Phase1Config {
        Phase1Config {
            device: XCKU060,
            deploy_hidden: 1024,
            layer_dims: vec![64, 64],
            accuracy_budget: budget,
            max_block: None,
        }
    }

    #[test]
    fn trial_count_is_bounded_like_the_paper() {
        // Paper Sec. VI-B: "the total number of training trials is limited
        // to around 5".
        let mut oracle = SyntheticOracle {
            baseline: 20.0,
            per_log_block: 0.08,
            gru_penalty: 0.0,
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.3));
        assert!(
            result.trial_count() <= 6,
            "{} trials: {:?}",
            result.trial_count(),
            result.trials
        );
    }

    #[test]
    fn picks_largest_block_within_budget() {
        // With 0.08 pp per log2(block), budget 0.3 admits blocks up to
        // 2^(0.3/0.08) ≈ 2^3.75 → block 8 among {8, 16, 32, 64}.
        let mut oracle = SyntheticOracle {
            baseline: 20.0,
            per_log_block: 0.08,
            gru_penalty: 10.0, // GRU unusable in this scenario
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.3));
        assert_eq!(result.chosen.cell, CellType::Lstm);
        assert_eq!(result.chosen.block, 8, "{:?}", result.trials);
    }

    #[test]
    fn switches_to_gru_when_free() {
        let mut oracle = SyntheticOracle {
            baseline: 20.0,
            per_log_block: 0.05,
            gru_penalty: 0.0,
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.3));
        assert_eq!(result.chosen.cell, CellType::Gru);
    }

    #[test]
    fn adopts_larger_io_block_when_cheap() {
        // io block contributes only 0.25 of the degradation slope, so
        // doubling it stays within budget here.
        let mut oracle = SyntheticOracle {
            baseline: 20.0,
            per_log_block: 0.06,
            gru_penalty: 0.0,
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.4));
        assert!(
            result.chosen.io_block > result.chosen.block,
            "{:?}",
            result.chosen
        );
    }

    #[test]
    fn tight_budget_falls_back_to_bram_floor() {
        let mut oracle = SyntheticOracle {
            baseline: 20.0,
            per_log_block: 5.0, // every compression hurts badly
            gru_penalty: 0.0,
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.1));
        assert_eq!(result.chosen.block, result.bounds.lower.max(2));
        assert!(result.degradation() > 0.1, "budget cannot be met");
    }

    #[test]
    fn degradation_is_chosen_minus_baseline() {
        let mut oracle = SyntheticOracle {
            baseline: 21.5,
            per_log_block: 0.02,
            gru_penalty: 0.0,
            evaluations: 0,
        };
        let result = run_phase1(&mut oracle, &config(0.3));
        assert!((result.degradation() - (result.chosen_per - 21.5)).abs() < 1e-12);
        assert!(result.degradation() <= 0.3 + 1e-9);
    }
}
