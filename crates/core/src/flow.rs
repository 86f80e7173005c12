//! End-to-end E-RNN flow on the synthetic ASR corpus.
//!
//! Wires the real training pipeline into Phase I's [`TrainOracle`]:
//! candidates are trained with ADMM (plus the constrained retraining of
//! Fig. 6), scored by test-set PER, and the chosen model proceeds to
//! Phase II's quantization scan and hardware report. This is the
//! programmatic equivalent of the paper's full methodology at laptop
//! scale.

use crate::phase1::{run_phase1, CandidateSpec, Phase1Config, Phase1Result, TrainOracle};
use crate::phase2::{run_phase2, Phase2Result};
use crate::pipeline::{PipelineError, PipelineModel};
use ernn_admm::{AdmmReport, Recipe};
use ernn_asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn_fpga::exec::{DatapathConfig, QuantizedNetwork};
use ernn_fpga::{Device, HwCell, RnnSpec};
use ernn_model::{BlockPolicy, CellType, Matrix, ModelSpec, RnnNetwork, WeightMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Configuration of the end-to-end flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Synthetic corpus parameters.
    pub corpus: SynthCorpusConfig,
    /// Hidden dims of the trained (scaled-down) candidates.
    pub layer_dims: Vec<usize>,
    /// The Fig. 6 recipe every candidate is trained with.
    pub recipe: Recipe,
    /// Accuracy budget for Phase I (PER percentage points).
    pub accuracy_budget: f64,
    /// Block-size cap for the scaled training proxy (see
    /// [`Phase1Config::max_block`]).
    pub max_block: Option<usize>,
    /// Target device.
    pub device: Device,
    /// Deployed hidden size used for the hardware model (the paper's
    /// 1024), independent of the trained proxy scale.
    pub deploy_hidden: usize,
    /// Seed for every random choice in the flow.
    pub seed: u64,
}

impl FlowConfig {
    /// A fast configuration for tests and the quickstart example
    /// (≈ seconds, not minutes).
    pub fn quick(seed: u64) -> Self {
        FlowConfig {
            corpus: SynthCorpusConfig {
                train_utterances: 40,
                test_utterances: 24,
                train_speakers: 6,
                test_speakers: 3,
                ..SynthCorpusConfig::tiny(seed)
            },
            layer_dims: vec![32],
            recipe: Recipe::quick(),
            accuracy_budget: 3.0,
            max_block: Some(16),
            device: ernn_fpga::XCKU060,
            deploy_hidden: 1024,
            seed,
        }
    }

    /// The experiment-scale configuration used by the table harnesses.
    pub fn standard(seed: u64) -> Self {
        FlowConfig {
            corpus: SynthCorpusConfig::standard(seed),
            layer_dims: vec![64, 64],
            recipe: Recipe::full(),
            accuracy_budget: 3.0,
            max_block: Some(32),
            device: ernn_fpga::XCKU060,
            deploy_hidden: 1024,
            seed,
        }
    }
}

/// The [`TrainOracle`] backed by the synthetic corpus and ADMM training.
pub struct AsrOracle {
    corpus: SynthCorpus,
    config: FlowConfig,
    rng: ChaCha8Rng,
    baselines: HashMap<&'static str, (RnnNetwork<Matrix>, f64)>,
    /// Trained compressed models with their ADMM records, keyed by
    /// candidate identity, so Phase II can reuse the Phase-I winner and
    /// the artifact can carry its compression provenance.
    trained: HashMap<String, (RnnNetwork<WeightMatrix>, AdmmReport)>,
}

fn cell_key(cell: CellType) -> &'static str {
    match cell {
        CellType::Lstm => "lstm",
        CellType::Gru => "gru",
    }
}

fn spec_key(spec: &CandidateSpec) -> String {
    format!(
        "{}-{:?}-b{}-io{}",
        cell_key(spec.cell),
        spec.layer_dims,
        spec.block,
        spec.io_block
    )
}

impl AsrOracle {
    /// Generates the corpus and prepares the oracle.
    pub fn new(config: FlowConfig) -> Self {
        let corpus = SynthCorpus::generate(&config.corpus);
        let rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        AsrOracle {
            corpus,
            config,
            rng,
            baselines: HashMap::new(),
            trained: HashMap::new(),
        }
    }

    /// The corpus backing the oracle.
    pub fn corpus(&self) -> &SynthCorpus {
        &self.corpus
    }

    fn pretrained(&mut self, cell: CellType) -> (RnnNetwork<Matrix>, f64) {
        if let Some(hit) = self.baselines.get(cell_key(cell)) {
            return hit.clone();
        }
        let spec = ModelSpec::new(cell, self.corpus.feature_dim, self.corpus.num_classes())
            .layer_dims(&self.config.layer_dims)
            .peephole(true);
        let data = self.corpus.train_sequences();
        let net = self.config.recipe.pretrain(&spec, &data, &mut self.rng);
        let per = evaluate_per(|f| net.forward_logits(f), &self.corpus.test);
        self.baselines.insert(cell_key(cell), (net.clone(), per));
        (net, per)
    }

    /// The trained compressed network for a candidate, if Phase I
    /// evaluated it.
    pub fn trained_network(&self, spec: &CandidateSpec) -> Option<&RnnNetwork<WeightMatrix>> {
        self.trained.get(&spec_key(spec)).map(|(net, _)| net)
    }

    /// The ADMM record of a candidate, if Phase I evaluated it.
    pub fn admm(&self, spec: &CandidateSpec) -> Option<&AdmmReport> {
        self.trained.get(&spec_key(spec)).map(|(_, admm)| admm)
    }
}

impl TrainOracle for AsrOracle {
    fn baseline_per(&mut self, cell: CellType) -> f64 {
        self.pretrained(cell).1
    }

    fn evaluate(&mut self, spec: &CandidateSpec) -> f64 {
        let (mut net, _) = self.pretrained(spec.cell);
        let policy = BlockPolicy::with_io_block(spec.block, spec.io_block);
        let policies = vec![policy; net.num_layers()];
        let data = self.corpus.train_sequences();
        let recipe = self.config.recipe;
        let (compressed, admm) = recipe.compress(&mut net, &policies, &data, &mut self.rng);
        let per = evaluate_per(|f| compressed.forward_logits(f), &self.corpus.test);
        self.trained.insert(spec_key(spec), (compressed, admm));
        per
    }
}

/// Output of the full flow.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Phase-I result (model choice + trials).
    pub phase1: Phase1Result,
    /// Phase-II result (datapath + hardware report).
    pub phase2: Phase2Result,
    /// The ADMM record of each Phase-I trial, in trial order.
    pub trial_admm: Vec<AdmmReport>,
}

impl FlowReport {
    /// A human-readable summary.
    pub fn render(&self) -> String {
        let p1 = &self.phase1;
        let p2 = &self.phase2;
        let mut out = String::new();
        out.push_str("=== E-RNN flow report ===\n");
        out.push_str(&format!(
            "Phase I : {} block {} (io {}), PER {:.2}% (baseline {:.2}%, Δ {:+.2}), {} trials\n",
            match p1.chosen.cell {
                CellType::Lstm => "LSTM",
                CellType::Gru => "GRU",
            },
            p1.chosen.block,
            p1.chosen.io_block,
            p1.chosen_per,
            p1.baseline_per,
            p1.degradation(),
            p1.trial_count(),
        ));
        out.push_str(&format!(
            "Phase II: {} bits, {} PWL segments, latency {:.1} µs, {:.0} FPS, {:.1} W, {:.0} FPS/W\n",
            p2.datapath.weight_bits,
            p2.datapath.pwl_segments,
            p2.report.latency_us,
            p2.report.fps,
            p2.power_w,
            p2.fps_per_w,
        ));
        out
    }
}

/// Runs the complete E-RNN methodology — Phase I over the ASR oracle,
/// Phase II with a real quantized-execution oracle on the winning model —
/// and then carries the result through the lifecycle pipeline
/// ([`crate::pipeline`]) into a deployable [`PipelineModel`]: the
/// Phase-I winner's trained weights, quantized for the Phase-II
/// datapath, compiled for the target device, with the full trial log
/// and ADMM residual as artifact provenance.
pub fn run_flow_to_artifact(
    config: FlowConfig,
) -> Result<(FlowReport, PipelineModel), PipelineError> {
    let device = config.device;
    let (report, winner, admm, input_dim, classes) = flow_phases(config);
    let choice = report.phase2.into_pipeline();
    let stage = report
        .phase1
        .into_pipeline(input_dim, classes)?
        .device(device)
        .source("ernn_core::flow::run_flow_to_artifact");
    let out = stage
        .with_compressed(winner)?
        .admm_provenance(&admm)
        .quantize_chosen(choice)?
        .compile()?;
    Ok((report, out))
}

/// Runs Phase I + Phase II only, returning the report and the winning
/// trained model (the search half of [`run_flow_to_artifact`]).
fn flow_phases(
    config: FlowConfig,
) -> (
    FlowReport,
    RnnNetwork<WeightMatrix>,
    AdmmReport,
    usize,
    usize,
) {
    let device = config.device;
    let deploy_hidden = config.deploy_hidden;
    let accuracy_budget = config.accuracy_budget;
    let layer_dims = config.layer_dims.clone();
    let max_block = config.max_block;
    let mut oracle = AsrOracle::new(config);

    let phase1 = run_phase1(
        &mut oracle,
        &Phase1Config {
            device,
            deploy_hidden,
            layer_dims,
            accuracy_budget,
            max_block,
        },
    );

    // Phase II: quantization oracle = fixed-point execution of the winner.
    let winner = oracle
        .trained_network(&phase1.chosen)
        .cloned()
        .expect("phase 1 trained its winner");
    let admm = oracle
        .admm(&phase1.chosen)
        .expect("phase 1 trained its winner")
        .clone();
    let trial_admm = phase1
        .trials
        .iter()
        .map(|t| oracle.admm(&t.spec).cloned())
        .collect::<Option<Vec<_>>>()
        .expect("phase 1 trained every trial");
    let input_dim = oracle.corpus().feature_dim;
    let classes = oracle.corpus().num_classes();
    let test = oracle.corpus().test.clone();
    let quant_oracle = |bits: u8| -> f64 {
        let q = QuantizedNetwork::new(
            &winner,
            &DatapathConfig {
                weight_bits: bits,
                activation_bits: bits,
                pwl_segments: 64,
            },
        );
        evaluate_per(|f| q.forward_logits(f), &test)
    };

    let hw_spec = RnnSpec {
        cell: match phase1.chosen.cell {
            CellType::Lstm => HwCell::Lstm {
                projection: Some(deploy_hidden / 2),
            },
            CellType::Gru => HwCell::Gru,
        },
        input_dim: 153,
        hidden_dim: deploy_hidden,
        block_size: phase1.chosen.block,
        io_block_size: phase1.chosen.io_block,
        weight_bits: 12,
        layers: 2,
    };
    let phase2 = run_phase2(hw_spec, phase1.chosen_per, quant_oracle, device);

    let report = FlowReport {
        phase1,
        phase2,
        trial_admm,
    };
    (report, winner, admm, input_dim, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_per_scores_the_quantized_datapath_like_the_loop_it_replaced() {
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(5));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let dense = ModelSpec::new(CellType::Gru, corpus.feature_dim, corpus.num_classes())
            .layer_dims(&[16])
            .build(&mut rng);
        let net = ernn_model::compress_network(&dense, BlockPolicy::uniform(4));
        let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());

        let refs: Vec<Vec<usize>> = corpus.test.iter().map(|u| u.phone_seq.clone()).collect();
        let hyps: Vec<Vec<usize>> = corpus
            .test
            .iter()
            .map(|u| {
                let logits = q.forward_logits(&u.features);
                ernn_asr::decode_frames(&logits, ernn_asr::PhoneSet::SILENCE, 2)
            })
            .collect();
        let by_hand = ernn_asr::phone_error_rate(&refs, &hyps) * 100.0;

        let per = evaluate_per(|f| q.forward_logits(f), &corpus.test);
        assert_eq!(per.to_bits(), by_hand.to_bits());
        assert!(per > 0.0, "an untrained model makes errors to count");
    }

    #[test]
    fn quick_flow_runs_end_to_end() {
        let (report, out) = run_flow_to_artifact(FlowConfig::quick(11)).expect("flow pipelines");
        // Phase I stayed within the paper's trial bound.
        assert!(
            report.phase1.trial_count() <= 6,
            "{:?}",
            report.phase1.trials
        );
        // The chosen model fits the device.
        let spec = RnnSpec {
            block_size: report.phase1.chosen.block,
            ..RnnSpec::lstm_1024(report.phase1.chosen.block, 12)
        };
        assert!(spec.fits_in_bram(&ernn_fpga::XCKU060));
        // Phase II produced a usable datapath and positive performance.
        assert!(report.phase2.datapath.weight_bits >= 8);
        assert!(report.phase2.report.fps > 0.0);
        assert!(report.phase2.fps_per_w > 0.0);
        // The render mentions both phases.
        let text = report.render();
        assert!(text.contains("Phase I"));
        assert!(text.contains("Phase II"));

        // The flow produced a deployable artifact carrying its own
        // provenance: the Phase-I trial log, the ADMM residual and the
        // Phase-II quantization scan.
        let artifact = out.artifact();
        let p1 = artifact.provenance.phase1.as_ref().expect("phase 1 ran");
        assert_eq!(p1.trials.len(), report.phase1.trial_count());
        assert!(artifact.provenance.admm.is_some());
        assert_eq!(artifact.provenance.quant_trials, report.phase2.quant_trials);
        assert_eq!(artifact.datapath, report.phase2.datapath);
        // And it round-trips through bytes into a working model.
        let bytes = out.save_bytes();
        let loaded = ernn_fpga::artifact::ModelArtifact::load_bytes(&bytes).expect("decodes");
        let reloaded = ernn_serve::CompiledModel::from_artifact(&loaded);
        let frames = vec![vec![0.1f32; artifact.spec.input_dim]; 3];
        assert_eq!(reloaded.infer(&frames), out.model().infer(&frames));
    }
}
