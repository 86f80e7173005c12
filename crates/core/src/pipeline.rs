//! The unified model-lifecycle pipeline: one typed path from a model
//! spec through the paper's Phase I/II steps to a deployable artifact.
//!
//! Every stage of the E-RNN lifecycle — specify, train, compress with
//! ADMM, quantize, compile — used to be a hand-chained sequence of free
//! functions (`NetworkBuilder → compress_network → AdmmTrainer →
//! QuantizedNetwork → CompiledModel::compile`) with configuration
//! literals duplicated at every call site. This module replaces that
//! with a **typestate builder**: each stage is its own type and only
//! offers the operations that are legal next, so an unquantized model
//! cannot be compiled and a spec cannot be compressed before it has
//! weights. Failures are values — every stage returns
//! [`PipelineError`] instead of panicking. The two training stages are
//! the two halves of the Fig. 6 [`Recipe`], which owns their
//! hyperparameters.
//!
//! ```text
//! Pipeline::spec(s)?                          SpecStage
//!   .train(data, &recipe, rng)? / .init(rng) / .with_pretrained(..)?   TrainedStage
//!   .compress(data, &recipe, rng)? / .project()?   CompressedStage
//!   .quantize()? / .quantize_with(..)?        QuantizedStage
//!   .compile()?                               PipelineModel
//! ```
//!
//! The terminal [`PipelineModel`] pairs the in-memory
//! [`CompiledModel`] (ready to serve) with its [`ModelArtifact`] (ready
//! to persist): `save_bytes → load_bytes → ModelRegistry::
//! register_artifact` round-trips bit-identically into the serving
//! tier with zero re-quantization and zero extra weight-spectrum
//! refreshes.
//!
//! [`PipelineSettings::paper`] is the single source of truth for the
//! paper's deployment defaults (block 8, 12-bit datapath, XCKU060) that
//! examples and benches previously spelled out literal by literal.

use ernn_admm::{AdmmReport, Recipe};
use ernn_fpga::artifact::{
    validate_datapath, validate_policy, validate_spec, AdmmProvenance, ModelArtifact,
    Phase1Provenance, Provenance,
};
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::Device;
use ernn_model::trainer::Sequence;
use ernn_model::{compress_network, BlockPolicy, Matrix, ModelSpec, RnnNetwork, WeightMatrix};
use ernn_serve::CompiledModel;
use rand::Rng;

pub use ernn_fpga::artifact::PipelineError;

/// Lifecycle settings a pipeline carries from spec to compile: the block
/// policy for compression, the datapath for quantization, the target
/// platform for compilation. Stages consume these unless an explicit
/// `_with` variant overrides them.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSettings {
    /// Block-circulant policy applied by the compression stage.
    pub block: BlockPolicy,
    /// Fixed-point/PWL datapath applied by the quantization stage.
    pub datapath: DatapathConfig,
    /// Platform the compile stage targets.
    pub device: Device,
}

impl PipelineSettings {
    /// The paper's deployment configuration — block size 8
    /// (Table I's accuracy/compression sweet spot), the 12-bit datapath
    /// of Sec. VII-D, and the XCKU060 platform. The one place these
    /// defaults are written down.
    pub fn paper() -> Self {
        PipelineSettings {
            block: BlockPolicy::uniform(8),
            datapath: DatapathConfig::paper_12bit(),
            device: ernn_fpga::XCKU060,
        }
    }
}

impl Default for PipelineSettings {
    fn default() -> Self {
        PipelineSettings::paper()
    }
}

/// A Phase-II outcome carried into the pipeline: the chosen datapath
/// plus the quantization scan that justified it (stored as provenance).
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathChoice {
    /// The chosen fixed-point/PWL datapath.
    pub datapath: DatapathConfig,
    /// The `(bits, PER %)` scan behind the choice.
    pub quant_trials: Vec<(u8, f64)>,
}

/// Entry point of the lifecycle pipeline.
pub struct Pipeline;

impl Pipeline {
    /// Starts a pipeline from a model spec with the
    /// [`PipelineSettings::paper`] defaults.
    pub fn spec(spec: ModelSpec) -> Result<SpecStage, PipelineError> {
        validate_spec(&spec)?;
        Ok(SpecStage {
            spec,
            settings: PipelineSettings::paper(),
            provenance: Provenance::default(),
        })
    }

    /// [`Self::spec`] spelled as what it is at the call sites that only
    /// need the paper's deployment defaults — the preset examples and
    /// benches route their configuration through.
    pub fn paper(spec: ModelSpec) -> Result<SpecStage, PipelineError> {
        Pipeline::spec(spec)
    }
}

/// Stage 0: the model is specified but has no weights yet.
#[derive(Debug, Clone)]
pub struct SpecStage {
    spec: ModelSpec,
    settings: PipelineSettings,
    provenance: Provenance,
}

impl SpecStage {
    /// Overrides the compression block policy.
    pub fn block_policy(mut self, policy: BlockPolicy) -> Self {
        self.settings.block = policy;
        self
    }

    /// Overrides the quantization datapath.
    pub fn datapath(mut self, datapath: DatapathConfig) -> Self {
        self.settings.datapath = datapath;
        self
    }

    /// Overrides the target platform.
    pub fn device(mut self, device: Device) -> Self {
        self.settings.device = device;
        self
    }

    /// Labels the artifact's provenance with its origin.
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.provenance.source = source.into();
        self
    }

    /// Attaches a Phase-I trial log to the artifact's provenance (done
    /// automatically by
    /// [`Phase1Result::into_pipeline`](crate::Phase1Result::into_pipeline)).
    pub fn phase1_provenance(mut self, phase1: Phase1Provenance) -> Self {
        self.provenance.phase1 = Some(phase1);
        self
    }

    /// Enables LSTM peepholes on the spec (ignored for GRU).
    pub fn peephole(mut self, on: bool) -> Self {
        self.spec = self.spec.peephole(on);
        self
    }

    /// Instantiates the spec with seeded random weights and **no**
    /// training — the serving-bench path, where random weights exercise
    /// exactly the same downstream lifecycle as trained ones.
    pub fn init(self, rng: &mut impl Rng) -> TrainedStage {
        let net = self.spec.builder().build(rng);
        TrainedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        }
    }

    /// Instantiates the spec and pre-trains it densely
    /// ([`Recipe::pretrain`], the start of the paper's Fig. 6).
    pub fn train(
        self,
        data: &[Sequence],
        recipe: &Recipe,
        rng: &mut impl Rng,
    ) -> Result<TrainedStage, PipelineError> {
        if data.is_empty() {
            return Err(PipelineError::EmptyTrainingSet);
        }
        let net = recipe.pretrain(&self.spec, data, rng);
        Ok(TrainedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        })
    }

    /// Adopts an externally trained dense network, checking it actually
    /// has the declared shape.
    pub fn with_pretrained(self, net: RnnNetwork<Matrix>) -> Result<TrainedStage, PipelineError> {
        self.spec
            .matches(&net)
            .map_err(PipelineError::ShapeMismatch)?;
        Ok(TrainedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        })
    }

    /// Adopts an already compressed network (e.g. the Phase-I winner the
    /// flow oracle trained), skipping straight to the compressed stage.
    pub fn with_compressed(
        self,
        net: RnnNetwork<WeightMatrix>,
    ) -> Result<CompressedStage, PipelineError> {
        validate_policy(&self.settings.block)?;
        self.spec
            .matches(&net)
            .map_err(PipelineError::ShapeMismatch)?;
        Ok(CompressedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        })
    }
}

/// Stage 1 complete: a dense network exists (trained or initialized).
#[derive(Debug, Clone)]
pub struct TrainedStage {
    spec: ModelSpec,
    settings: PipelineSettings,
    provenance: Provenance,
    net: RnnNetwork<Matrix>,
}

impl TrainedStage {
    /// The dense network at this stage.
    pub fn network(&self) -> &RnnNetwork<Matrix> {
        &self.net
    }

    /// Compresses with the rest of Fig. 6 ([`Recipe::compress`]: ADMM
    /// iterations, hard projection, constrained retraining) under the
    /// pipeline's block policy, recording the residual trace as
    /// provenance.
    pub fn compress(
        mut self,
        data: &[Sequence],
        recipe: &Recipe,
        rng: &mut impl Rng,
    ) -> Result<CompressedStage, PipelineError> {
        validate_policy(&self.settings.block)?;
        if data.is_empty() {
            return Err(PipelineError::EmptyTrainingSet);
        }
        let policies = vec![self.settings.block; self.net.num_layers()];
        let (net, report) = recipe.compress(&mut self.net, &policies, data, rng);
        let stage = CompressedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        };
        Ok(stage.admm_provenance(&report))
    }

    /// Projects directly onto the block-circulant manifold **without**
    /// ADMM training — lossy on trained weights (run [`Self::compress`]
    /// for those); exact for the random-weight bench path.
    pub fn project(self) -> Result<CompressedStage, PipelineError> {
        validate_policy(&self.settings.block)?;
        let net = compress_network(&self.net, self.settings.block);
        Ok(CompressedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        })
    }
}

/// Stage 2 complete: the weights are block-circulant.
#[derive(Debug, Clone)]
pub struct CompressedStage {
    spec: ModelSpec,
    settings: PipelineSettings,
    provenance: Provenance,
    net: RnnNetwork<WeightMatrix>,
}

impl CompressedStage {
    /// The compressed network at this stage.
    pub fn network(&self) -> &RnnNetwork<WeightMatrix> {
        &self.net
    }

    /// Records an ADMM run's residual trace — also for models whose
    /// compression ran outside the pipeline (the flow oracle's
    /// candidates).
    pub fn admm_provenance(mut self, report: &AdmmReport) -> Self {
        self.provenance.admm = Some(AdmmProvenance {
            final_residual: report.final_residual(),
            iterations: report.iterations.len(),
            converged: report.converged,
        });
        self
    }

    /// Fixes the datapath from the pipeline settings.
    pub fn quantize(self) -> Result<QuantizedStage, PipelineError> {
        let datapath = self.settings.datapath.clone();
        self.quantize_with(datapath)
    }

    /// Fixes the datapath Phase II chose, recording its quantization
    /// scan as provenance (see
    /// [`Phase2Result::into_pipeline`](crate::Phase2Result::into_pipeline)).
    pub fn quantize_chosen(
        mut self,
        choice: DatapathChoice,
    ) -> Result<QuantizedStage, PipelineError> {
        self.provenance.quant_trials = choice.quant_trials;
        self.quantize_with(choice.datapath)
    }

    /// Fixes an explicit datapath.
    pub fn quantize_with(self, datapath: DatapathConfig) -> Result<QuantizedStage, PipelineError> {
        validate_datapath(&datapath)?;
        Ok(QuantizedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net: self.net,
            datapath,
        })
    }
}

/// Stage 3 complete: the datapath is fixed; the model is ready to
/// compile. (Quantization itself runs inside [`Self::compile`] so the
/// numbers are produced by exactly the same pass `CompiledModel::compile`
/// always ran — bit-identical with the pre-pipeline entry points.)
#[derive(Debug, Clone)]
pub struct QuantizedStage {
    spec: ModelSpec,
    settings: PipelineSettings,
    provenance: Provenance,
    net: RnnNetwork<WeightMatrix>,
    datapath: DatapathConfig,
}

impl QuantizedStage {
    /// Compiles for the pipeline's target platform ([`SpecStage::device`]):
    /// quantizes the weights, derives the accelerator timing model, and
    /// packages the result as both a servable [`CompiledModel`] and a
    /// persistable [`ModelArtifact`].
    pub fn compile(self) -> Result<PipelineModel, PipelineError> {
        let device = self.settings.device;
        if Device::by_name(device.name) != Some(device) {
            return Err(PipelineError::UnknownDevice(device.name.to_string()));
        }
        let model = CompiledModel::compile(&self.net, &self.datapath, device);
        let artifact = ModelArtifact::from_quantized(
            self.spec,
            self.settings.block,
            self.datapath,
            device,
            model.quantized(),
            self.provenance,
        )?;
        Ok(PipelineModel { model, artifact })
    }
}

/// The pipeline's terminal stage: the servable model and its
/// persistable artifact, born from one quantization pass and therefore
/// bit-identical to each other.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    model: CompiledModel,
    artifact: ModelArtifact,
}

impl PipelineModel {
    /// The in-memory model, ready for
    /// [`ModelRegistry::register`](ernn_serve::sched::ModelRegistry::register)
    /// or direct inference.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// The versioned artifact, ready for
    /// [`ModelArtifact::save_bytes`].
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Serializes the artifact (see [`ModelArtifact::save_bytes`]).
    pub fn save_bytes(&self) -> Vec<u8> {
        self.artifact.save_bytes()
    }

    /// Consumes the pair, keeping the servable model.
    pub fn into_model(self) -> CompiledModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_admm::AdmmConfig;
    use ernn_model::{CellType, NetworkBuilder};
    use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
    use rand::SeedableRng;

    fn toy_data(n: usize, len: usize, seed: u64) -> Vec<Sequence> {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let frames: Vec<Vec<f32>> = (0..len)
                    .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect();
                let labels = (0..len).map(|t| t % 3).collect();
                (frames, labels)
            })
            .collect()
    }

    #[test]
    fn init_project_compile_matches_the_hand_chained_path_bit_for_bit() {
        // The pipeline must be a pure re-packaging of the old free
        // functions: same RNG stream, same calls, same bits.
        let spec = ModelSpec::new(CellType::Gru, 6, 4).layer_dims(&[16]);
        let mut rng_a = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let out = Pipeline::paper(spec)
            .expect("valid spec")
            .block_policy(BlockPolicy::uniform(4))
            .init(&mut rng_a)
            .project()
            .expect("pow2 block")
            .quantize()
            .expect("valid datapath")
            .compile()
            .expect("known device");

        let mut rng_b = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let dense = NetworkBuilder::new(CellType::Gru, 6, 4)
            .layer_dims(&[16])
            .build(&mut rng_b);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        let by_hand =
            CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), ernn_fpga::XCKU060);

        let frames = vec![vec![0.3f32; 6]; 5];
        assert_eq!(out.model().infer(&frames), by_hand.infer(&frames));
        assert_eq!(out.model().stage_cycles(), by_hand.stage_cycles());
        assert_eq!(out.model().spec(), by_hand.spec());
    }

    #[test]
    fn trained_compressed_pipeline_round_trips_through_bytes() {
        let data = toy_data(6, 8, 5);
        let spec = ModelSpec::new(CellType::Gru, 4, 3).layer_dims(&[8]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let recipe = Recipe {
            pretrain_epochs: 2,
            admm: AdmmConfig {
                iterations: 2,
                epochs_per_iter: 1,
                retrain_epochs: 1,
                ..AdmmConfig::default()
            },
            ..Recipe::default()
        };
        let out = Pipeline::spec(spec)
            .expect("valid spec")
            .block_policy(BlockPolicy::uniform(4))
            .source("pipeline unit test")
            .train(&data, &recipe, &mut rng)
            .expect("non-empty data")
            .compress(&data, &recipe, &mut rng)
            .expect("non-empty data")
            .quantize()
            .expect("valid datapath")
            .compile()
            .expect("known device");

        // ADMM provenance was captured.
        let admm = out.artifact().provenance.admm.expect("admm ran");
        assert!(admm.iterations >= 1);
        assert_eq!(out.artifact().provenance.source, "pipeline unit test");

        // Bytes round-trip into an identical servable model.
        let bytes = out.save_bytes();
        let loaded = ModelArtifact::load_bytes(&bytes).expect("decodes");
        assert_eq!(loaded.save_bytes(), bytes, "save(load(bytes)) == bytes");
        let reloaded = CompiledModel::from_artifact(&loaded);
        let frames = vec![vec![0.2f32; 4]; 6];
        assert_eq!(reloaded.infer(&frames), out.model().infer(&frames));
        assert_eq!(reloaded.stage_cycles(), out.model().stage_cycles());

        // Registering the decoded artifact refreshes no weight spectra
        // (decoding was the load event), and the registry serves.
        let mut registry = ModelRegistry::new();
        let id = registry.register_artifact("trained", &loaded);
        assert_eq!(
            registry.model(id).weight_spectrum_refreshes(),
            reloaded.weight_spectrum_refreshes()
        );
        let runtime = SchedRuntime::new(
            registry,
            vec![ernn_fpga::XCKU060],
            SchedPolicy::edf_cost_model(4, 100.0),
        );
        let payloads: Vec<_> = data.iter().take(4).map(|(f, _)| (id, f.clone())).collect();
        let report = runtime.run_closed_loop(&payloads, 4, 24, Some(10_000.0));
        assert_eq!(report.responses.len(), 24);
        assert_eq!(report.metrics.completed, 24);
    }

    #[test]
    fn stage_validation_returns_errors_not_panics() {
        // Invalid spec.
        let empty = ModelSpec::new(CellType::Gru, 0, 4);
        assert!(matches!(
            Pipeline::spec(empty),
            Err(PipelineError::InvalidSpec(_))
        ));
        // Empty training set.
        let spec = ModelSpec::new(CellType::Gru, 4, 3).layer_dims(&[8]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let err = Pipeline::spec(spec.clone())
            .expect("valid")
            .train(&[], &Recipe::default(), &mut rng)
            .unwrap_err();
        assert_eq!(err, PipelineError::EmptyTrainingSet);
        // Non-power-of-two block.
        let err = Pipeline::spec(spec.clone())
            .expect("valid")
            .block_policy(BlockPolicy::uniform(6))
            .init(&mut rng)
            .project()
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidBlockPolicy(_)));
        // Degenerate datapath.
        let err = Pipeline::spec(spec.clone())
            .expect("valid")
            .block_policy(BlockPolicy::uniform(4))
            .init(&mut rng)
            .project()
            .expect("pow2")
            .quantize_with(DatapathConfig {
                weight_bits: 0,
                activation_bits: 12,
                pwl_segments: 64,
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidDatapath(_)));
        // Mismatched pretrained network.
        let other = NetworkBuilder::new(CellType::Lstm, 4, 3)
            .layer_dims(&[8])
            .build(&mut rng);
        let err = Pipeline::spec(spec)
            .expect("valid")
            .with_pretrained(other)
            .unwrap_err();
        assert!(matches!(err, PipelineError::ShapeMismatch(_)));
    }
}
