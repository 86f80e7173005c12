//! The unified model-lifecycle pipeline: one typed path from a model
//! spec through the paper's Phase I/II steps to a deployable artifact.
//!
//! Every stage of the E-RNN lifecycle — specify, train, compress with
//! ADMM, quantize, compile — used to be a hand-chained sequence of free
//! functions (`ModelSpec::build → compress_network → ADMM →
//! QuantizedNetwork → CompiledModel::compile`) with configuration
//! literals duplicated at every call site. This module replaces that
//! with a **typestate builder**: each stage is its own type and only
//! offers the operations that are legal next, so an unquantized model
//! cannot be compiled and a spec cannot be compressed before it has
//! weights. Failures are values — every stage returns
//! [`PipelineError`] instead of panicking, malformed training data
//! included. The two training stages are the two halves of the Fig. 6
//! [`Recipe`], which owns their hyperparameters.
//!
//! ```text
//! Pipeline::paper(s)?                         SpecStage
//!   .train(data, &recipe, rng)?               TrainedStage
//!     .compress(data, &recipe, rng)?          CompressedStage
//!   or .init(rng)                             SeededStage
//!     .project()?                             CompressedStage
//!   or .with_compressed(net)?                 CompressedStage
//!   .quantize()? / .quantize_chosen(..)?      QuantizedStage
//!   .compile()?                               PipelineModel
//! ```
//!
//! Each stage holds one network: a [`TrainedStage`] its dense weights, a
//! [`SeededStage`] its weights already in block-circulant form.
//!
//! The terminal [`PipelineModel`] pairs the in-memory
//! [`CompiledModel`] (ready to serve) with its [`ModelArtifact`] (ready
//! to persist): `save_bytes → load_bytes → ModelRegistry::
//! register_artifact` round-trips bit-identically into the serving
//! tier with zero re-quantization, and the load computes each weight
//! spectrum once, as compiling does.
//!
//! [`Pipeline::paper`] is the single source of truth for the paper's
//! deployment defaults (block 8, 12-bit datapath, XCKU060) that examples
//! and benches previously spelled out literal by literal.

use ernn_admm::{AdmmReport, Recipe};
use ernn_fpga::artifact::{
    validate_datapath, validate_policy, validate_spec, AdmmProvenance, ModelArtifact,
    Phase1Provenance, Provenance,
};
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::Device;
use ernn_model::trainer::Sequence;
use ernn_model::{BlockCirculantMatrix, BlockPolicy, Matrix, ModelSpec, RnnNetwork, WeightMatrix};
use ernn_serve::CompiledModel;
use rand::Rng;

pub use ernn_fpga::artifact::PipelineError;

/// Lifecycle settings a pipeline carries from spec to compile: the block
/// policy for compression and the target platform for compilation.
#[derive(Debug, Clone, PartialEq)]
struct PipelineSettings {
    block: BlockPolicy,
    device: Device,
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
    /// Starts a pipeline from a model spec with the paper's deployment
    /// configuration — block size 8 (Table I's accuracy/compression sweet
    /// spot), the 12-bit datapath of Sec. VII-D
    /// ([`DatapathConfig::paper_12bit`], which [`CompressedStage::quantize`]
    /// applies), and the XCKU060 platform. The block policy and the
    /// platform can be overridden on the returned stage.
    pub fn paper(spec: ModelSpec) -> Result<SpecStage, PipelineError> {
        validate_spec(&spec)?;
        Ok(SpecStage {
            spec,
            settings: PipelineSettings {
                block: BlockPolicy::uniform(8),
                device: ernn_fpga::XCKU060,
            },
            provenance: Provenance::default(),
        })
    }
}

/// Checks a training set against the spec before any stage trains on it:
/// non-empty, every sequence non-empty with one label per frame, every
/// frame `input_dim` wide and every label below `classes`.
fn validate_data(spec: &ModelSpec, data: &[Sequence]) -> Result<(), PipelineError> {
    let invalid = |why: String| Err(PipelineError::InvalidTrainingData(why));
    if data.is_empty() {
        return invalid("the training set is empty".into());
    }
    for (i, (frames, labels)) in data.iter().enumerate() {
        if frames.is_empty() {
            return invalid(format!("sequence {i} has no frames"));
        }
        if frames.len() != labels.len() {
            return invalid(format!(
                "sequence {i} has {} frames but {} labels",
                frames.len(),
                labels.len()
            ));
        }
        if let Some((t, f)) = frames
            .iter()
            .enumerate()
            .find(|(_, f)| f.len() != spec.input_dim)
        {
            return invalid(format!(
                "sequence {i} frame {t} has width {}, the spec's input_dim is {}",
                f.len(),
                spec.input_dim
            ));
        }
        if let Some((t, &l)) = labels.iter().enumerate().find(|(_, &l)| l >= spec.classes) {
            return invalid(format!(
                "sequence {i} label {t} is {l}, the spec has {} classes",
                spec.classes
            ));
        }
    }
    Ok(())
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

    /// Instantiates the spec with seeded random weights and **no**
    /// training — the serving-bench path, where random weights exercise
    /// exactly the same downstream lifecycle as trained ones.
    ///
    /// Each weight matrix is drawn straight into its block-circulant form
    /// under the pipeline's block policy, in runs of whole block rows
    /// ([`BlockCirculantMatrix::project_xavier`]), so no dense network
    /// exists: [`SeededStage::project`] returns, bit for bit,
    /// `compress_network(&spec.build(rng), policy)`, and `rng` advances
    /// exactly as [`ModelSpec::build`] advances it. Under a policy
    /// `project` rejects, every matrix is drawn at block 1, which draws
    /// what `build` draws.
    pub fn init(self, rng: &mut impl Rng) -> SeededStage {
        let block = self.settings.block;
        let valid = validate_policy(&block).is_ok();
        let net = self.spec.build_with(rng, |role, rows, cols, rng| {
            let block = if valid { block.for_role(role) } else { 1 };
            seeded_matrix(rows, cols, block, rng)
        });
        SeededStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net,
        }
    }

    /// Instantiates the spec and pre-trains it densely
    /// ([`Recipe::pretrain`], the start of the paper's Fig. 6). Malformed
    /// data is a [`PipelineError::InvalidTrainingData`].
    pub fn train(
        self,
        data: &[Sequence],
        recipe: &Recipe,
        rng: &mut impl Rng,
    ) -> Result<TrainedStage, PipelineError> {
        validate_data(&self.spec, data)?;
        let net = recipe.pretrain(&self.spec, data, rng);
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

/// `compress_network`'s image of one [`Matrix::xavier`] draw under
/// `block`: dense at block 1, else projected without the dense matrix.
fn seeded_matrix(rows: usize, cols: usize, block: usize, rng: &mut impl Rng) -> WeightMatrix {
    if block <= 1 {
        WeightMatrix::Dense(Matrix::xavier(rows, cols, rng))
    } else {
        WeightMatrix::Circulant(BlockCirculantMatrix::project_xavier(rows, cols, block, rng))
    }
}

/// Stage 1 complete, trained: the dense network after
/// [`Recipe::pretrain`].
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
    /// provenance. Malformed data is a
    /// [`PipelineError::InvalidTrainingData`].
    pub fn compress(
        mut self,
        data: &[Sequence],
        recipe: &Recipe,
        rng: &mut impl Rng,
    ) -> Result<CompressedStage, PipelineError> {
        validate_policy(&self.settings.block)?;
        validate_data(&self.spec, data)?;
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
}

/// Stage 1 complete, seeded: the network [`SpecStage::init`] drew, already
/// projected under the pipeline's block policy.
#[derive(Debug, Clone)]
pub struct SeededStage {
    spec: ModelSpec,
    settings: PipelineSettings,
    provenance: Provenance,
    net: RnnNetwork<WeightMatrix>,
}

impl SeededStage {
    /// Moves the network on to the compressed stage; it was projected as
    /// it was drawn. A block policy that is not a power of two is a
    /// [`PipelineError::InvalidBlockPolicy`].
    pub fn project(self) -> Result<CompressedStage, PipelineError> {
        validate_policy(&self.settings.block)?;
        Ok(CompressedStage {
            spec: self.spec,
            settings: self.settings,
            provenance: self.provenance,
            net: self.net,
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

    /// Fixes the paper's 12-bit datapath
    /// ([`DatapathConfig::paper_12bit`]).
    pub fn quantize(self) -> Result<QuantizedStage, PipelineError> {
        self.quantize_with(DatapathConfig::paper_12bit())
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

    fn quantize_with(self, datapath: DatapathConfig) -> Result<QuantizedStage, PipelineError> {
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
    use ernn_model::{compress_network, CellType, ModelSpec};
    use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
    use proptest::prelude::*;
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
        let dense = ModelSpec::new(CellType::Gru, 6, 4)
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
    fn each_weight_block_is_ffted_once_from_seed_to_serving() {
        use ernn_fft::stats::thread_snapshot;
        let lstm = ModelSpec::new(CellType::Lstm, 26, 40)
            .layer_dims(&[64])
            .peephole(true)
            .projection(32);
        let gru = ModelSpec::new(CellType::Gru, 26, 40).layer_dims(&[64]);
        for spec in [lstm, gru] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(49);
            let before = thread_snapshot();
            let ffts = || thread_snapshot().since(&before).forward_transforms;
            let quantized = Pipeline::paper(spec.clone())
                .expect("valid spec")
                .init(&mut rng)
                .project()
                .expect("paper block policy")
                .quantize()
                .expect("paper datapath");
            assert_eq!(ffts(), 0, "{spec:?}: through init, project, quantize");
            let model = quantized.compile().expect("paper platform").into_model();
            let cached = model.load_stats.cached_spectra as u64;
            assert!(cached > 0, "{spec:?}");
            assert_eq!(ffts(), cached, "{spec:?}: seed to serving");
            assert_eq!(model.load_stats.fft.forward_transforms, cached, "{spec:?}");
        }
    }

    /// Each weight matrix's block size and stored parameters, as bits.
    fn weight_bits(net: &RnnNetwork<WeightMatrix>) -> Vec<(usize, Vec<u32>)> {
        let weights = net.weight_matrices().into_iter().map(|(_, _, w)| {
            let params = match w {
                WeightMatrix::Dense(m) => m.as_slice(),
                WeightMatrix::Circulant(c) => c.blocks(),
            };
            (w.block_size(), params.iter().map(|x| x.to_bits()).collect())
        });
        let head = net.classifier_w.as_slice().iter().map(|x| x.to_bits());
        weights.chain([(1, head.collect())]).collect()
    }

    /// Seeds `spec` under `policy` after `skip` words, and holds the
    /// seeded stage to the dense path from a twin of the rng: the
    /// projection bit for bit (`InvalidBlockPolicy` under a policy
    /// `project` rejects), and the rng after.
    fn assert_seeded_is_the_dense_path(
        spec: &ModelSpec,
        policy: BlockPolicy,
        seed: u64,
        skip: usize,
    ) {
        use rand::RngCore;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..skip {
            rng.next_u32();
        }
        let mut twin = rng.clone();
        let got = Pipeline::paper(spec.clone())
            .expect("valid spec")
            .block_policy(policy)
            .init(&mut rng)
            .project();
        let dense = spec.build(&mut twin);
        let case = format!("{spec:?} {policy:?} seed {seed}");
        if validate_policy(&policy).is_ok() {
            let got = got.unwrap_or_else(|e| panic!("{case}: {e:?}"));
            let want = compress_network(&dense, policy);
            assert_eq!(weight_bits(got.network()), weight_bits(&want), "{case}");
            assert_eq!(got.network(), &want, "{case}");
        } else {
            let err = got.expect_err(&case);
            assert!(
                matches!(err, PipelineError::InvalidBlockPolicy(_)),
                "{case}: {err:?}"
            );
        }
        for _ in 0..40 {
            assert_eq!(rng.next_u32(), twin.next_u32(), "{case}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn a_seeded_stage_is_the_projected_dense_build_bit_for_bit(
            cell in 0usize..5,
            dims in collection::vec(0usize..3, 3..5),
            seed in any::<u64>(),
            skip in 0usize..3,
        ) {
            // Ragged widths (input, classes, then one or two layers) on
            // every cell shape and policy, starting on and off a keystream
            // block boundary.
            let width = |i: usize| [13, 61, 153][dims[i]];
            let layers: Vec<usize> = (2..dims.len()).map(width).collect();
            let spec = ModelSpec::new(CellType::Lstm, width(0), width(1)).layer_dims(&layers);
            let spec = match cell {
                0 => ModelSpec { cell: CellType::Gru, ..spec },
                1 => spec,
                2 => spec.peephole(true),
                3 => spec.projection(width(0)),
                _ => spec.peephole(true).projection(width(0)),
            };
            // `uniform(6)` and `with_io_block(4, 12)` are rejected by
            // `project` and drawn at block 1.
            let policies = [1, 2, 4, 6, 8, 16].map(BlockPolicy::uniform);
            let io = [(4, 8), (4, 12)].map(|(base, io)| BlockPolicy::with_io_block(base, io));
            for policy in policies.into_iter().chain(io) {
                assert_seeded_is_the_dense_path(&spec, policy, seed, skip);
            }
        }
    }

    #[test]
    fn a_seeded_stage_draws_across_run_boundaries_bit_for_bit() {
        // At L_b = 8 a 1024-wide matrix is drawn 256 rows at a time and a
        // 384-wide one 680 rows at a time, so this GRU's `wzr_x`
        // (768 × 1024) is three whole runs, `wcx` (384 × 1024) ends
        // mid-run after a boundary inside it, and so does `wzr_c`
        // (768 × 384).
        let run_rows = |cols: usize| ernn_linalg::DRAW_CHUNK / (8 * cols) * 8;
        assert_eq!((run_rows(1024), run_rows(384)), (256, 680));
        let spec = ModelSpec::new(CellType::Gru, 1024, 40).layer_dims(&[384]);
        for policy in [BlockPolicy::uniform(8), BlockPolicy::with_io_block(4, 8)] {
            assert_seeded_is_the_dense_path(&spec, policy, 2019, 1);
        }
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
        let out = Pipeline::paper(spec)
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

        // Loading the artifact, into a model or into a registry, computes
        // what compiling did, and the registry serves.
        let stats = out.model().load_stats;
        assert_eq!(stats.fft.forward_transforms, stats.cached_spectra as u64);
        assert_eq!(reloaded.load_stats.fft, stats.fft);
        let mut registry = ModelRegistry::new();
        let decoded = ModelArtifact::load_bytes(&bytes).expect("decodes");
        let id = registry.register_artifact("trained", &decoded);
        assert_eq!(registry.model(id).load_stats.fft, stats.fft);
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
            Pipeline::paper(empty),
            Err(PipelineError::InvalidSpec(_))
        ));
        // Empty training set.
        let spec = ModelSpec::new(CellType::Gru, 4, 3).layer_dims(&[8]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let err = Pipeline::paper(spec.clone())
            .expect("valid")
            .train(&[], &Recipe::default(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidTrainingData(_)));
        // Non-power-of-two block.
        let err = Pipeline::paper(spec.clone())
            .expect("valid")
            .block_policy(BlockPolicy::uniform(6))
            .init(&mut rng)
            .project()
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidBlockPolicy(_)));
        // Degenerate datapath.
        let err = Pipeline::paper(spec.clone())
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
        // Mismatched compressed network.
        let other = ModelSpec::new(CellType::Lstm, 4, 3)
            .layer_dims(&[8])
            .build(&mut rng);
        let err = Pipeline::paper(spec)
            .expect("valid")
            .with_compressed(compress_network(&other, BlockPolicy::uniform(8)))
            .unwrap_err();
        assert!(matches!(err, PipelineError::ShapeMismatch(_)));
    }

    /// Both training stages reject `bad` with an `InvalidTrainingData`
    /// naming `needle`, before training starts.
    fn assert_rejected(bad: &[Sequence], needle: &str) {
        let spec = ModelSpec::new(CellType::Gru, 4, 3).layer_dims(&[8]);
        let recipe = Recipe {
            pretrain_epochs: 1,
            ..Recipe::quick()
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let trained = Pipeline::paper(spec.clone())
            .expect("valid")
            .train(bad, &recipe, &mut rng)
            .map(|_| ());
        let compressed = Pipeline::paper(spec)
            .expect("valid")
            .block_policy(BlockPolicy::uniform(4))
            .train(&toy_data(3, 5, 1), &recipe, &mut rng)
            .expect("valid data")
            .compress(bad, &recipe, &mut rng)
            .map(|_| ());
        for result in [trained, compressed] {
            match result {
                Err(PipelineError::InvalidTrainingData(why)) => {
                    assert!(why.contains(needle), "{why:?} lacks {needle:?}")
                }
                other => panic!("expected InvalidTrainingData, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_label_out_of_range_is_invalid_training_data() {
        let mut data = toy_data(3, 5, 11);
        data[2].1[4] = 3;
        assert_rejected(&data, "sequence 2 label 4 is 3, the spec has 3 classes");
    }

    #[test]
    fn a_frame_label_length_mismatch_is_invalid_training_data() {
        let mut data = toy_data(3, 5, 12);
        data[1].1.pop();
        assert_rejected(&data, "sequence 1 has 5 frames but 4 labels");
    }

    #[test]
    fn an_empty_sequence_is_invalid_training_data() {
        let mut data = toy_data(3, 5, 13);
        data[0] = (Vec::new(), Vec::new());
        assert_rejected(&data, "sequence 0 has no frames");
    }

    #[test]
    fn a_frame_of_the_wrong_width_is_invalid_training_data() {
        let mut data = toy_data(3, 5, 14);
        data[1].0[3].push(0.5);
        assert_rejected(
            &data,
            "sequence 1 frame 3 has width 5, the spec's input_dim is 4",
        );
    }
}
