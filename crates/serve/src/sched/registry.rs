//! The multi-model registry: every model a scheduler run — or a whole
//! cluster, across its shards — can serve, each under a unique name.
//!
//! Registration is the moment a model enters the serving tier: the
//! registry freezes it behind an `Arc` so executors and devices share it
//! read-only. Every block-circulant weight spectrum is computed once, by
//! the model's load: [`CompiledModel::compile`] before
//! [`ModelRegistry::register`] or [`ModelRegistry::register_shared`],
//! which run no FFT, or the [`CompiledModel::from_artifact`] inside
//! [`ModelRegistry::register_artifact`].
//! From that point on, device-level evict/reload cycles are a
//! *virtual-time* affair tracked by
//! [`DeviceResidency`](crate::sched::DeviceResidency): the host-side
//! spectra stay cached (recomputing them per reload would be exactly the
//! waste the FFT'd-weight cache exists to avoid); what a reload costs is
//! the BRAM streaming time.

use crate::cache::CompiledModel;
use ernn_fpga::artifact::ModelArtifact;
use std::sync::Arc;

/// Index of a registered model. Requests name their target model by id
/// ([`Request::with_model`](crate::Request::with_model)), and the id
/// doubles as the [`InferenceJob`](crate::InferenceJob) model index.
pub type ModelId = usize;

/// A named, registered model.
#[derive(Debug, Clone)]
struct ModelEntry {
    name: String,
    model: Arc<CompiledModel>,
    weight_bytes: u64,
    artifact_bytes: u64,
}

/// The set of models one scheduler run, or one cluster, serves. A clone
/// shares the compiled models behind their `Arc`s, so a cluster compiles
/// (and FFTs) each model exactly once however many shards hold a
/// replica.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a model and returns its id. Ids are dense and assigned
    /// in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — cluster placement hashes
    /// names, so they must be distinct. The same holds for the other two
    /// entry points.
    pub fn register(&mut self, name: impl Into<String>, model: CompiledModel) -> ModelId {
        self.register_shared(name, Arc::new(model))
    }

    /// Registers a model loaded from a serialized [`ModelArtifact`] — the
    /// deployment path: no recompression, no requantization, and each
    /// weight spectrum computed once, by
    /// [`CompiledModel::from_artifact`] (that load *is* the entry into the
    /// serving tier; its [`LoadStats`](crate::LoadStats) equal a compile's).
    /// The artifact's encoded length becomes the model's
    /// [`Self::artifact_bytes`].
    pub fn register_artifact(
        &mut self,
        name: impl Into<String>,
        artifact: &ModelArtifact,
    ) -> ModelId {
        let bytes = artifact.save_bytes().len() as u64;
        self.push(
            name.into(),
            Arc::new(CompiledModel::from_artifact(artifact)),
            bytes,
        )
    }

    /// Registers an already-shared model (e.g. one compile shared across
    /// sweeps or across a cluster's shards).
    pub fn register_shared(
        &mut self,
        name: impl Into<String>,
        model: Arc<CompiledModel>,
    ) -> ModelId {
        let bytes = model.weight_bytes();
        self.push(name.into(), model, bytes)
    }

    fn push(&mut self, name: String, model: Arc<CompiledModel>, artifact_bytes: u64) -> ModelId {
        assert!(
            self.entries.iter().all(|e| e.name != name),
            "model name {name:?} registered twice"
        );
        self.entries.push(ModelEntry {
            name,
            weight_bytes: model.weight_bytes(),
            model,
            artifact_bytes,
        });
        self.entries.len() - 1
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The model behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered.
    pub fn model(&self, id: ModelId) -> &Arc<CompiledModel> {
        &self.entries[id].model
    }

    /// The model's registered name.
    pub fn name(&self, id: ModelId) -> &str {
        &self.entries[id].name
    }

    /// On-chip bytes the model's weight image occupies — what residency
    /// tracking charges against a device's BRAM budget.
    pub fn weight_bytes(&self, id: ModelId) -> u64 {
        self.entries[id].weight_bytes
    }

    /// Bytes a cluster ships when it places the model on an extra shard:
    /// the serialized artifact image when registered through
    /// [`Self::register_artifact`], the on-chip weight-image size
    /// otherwise.
    pub fn artifact_bytes(&self, id: ModelId) -> u64 {
        self.entries[id].artifact_bytes
    }

    /// Every registered name, in id order — what cluster placement hashes.
    pub(crate) fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// A snapshot of all models in id order — the executor's model set.
    pub fn models(&self) -> Vec<Arc<CompiledModel>> {
        self.entries.iter().map(|e| Arc::clone(&e.model)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::XCKU060;
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use rand::SeedableRng;

    fn model(seed: u64) -> CompiledModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = ModelSpec::new(CellType::Gru, 8, 5)
            .layer_dims(&[16])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
    }

    /// Forward transforms `f` counts on this thread's FFT ledger, and what
    /// it returns.
    fn forward_ffts<T>(f: impl FnOnce() -> T) -> (u64, T) {
        let before = ernn_fft::stats::thread_snapshot();
        let out = f();
        let delta = ernn_fft::stats::thread_snapshot().since(&before);
        (delta.forward_transforms, out)
    }

    #[test]
    fn registration_assigns_dense_ids_and_bumps_spectra_once() {
        let (a, b) = (model(1), model(2));
        let mut reg = ModelRegistry::new();
        // Once in all — at compile: entering the serving tier computes
        // nothing.
        let (ffts, (ia, ib)) =
            forward_ffts(|| (reg.register("gru-a", a), reg.register("gru-b", b)));
        assert_eq!(ffts, 0);
        assert_eq!((ia, ib), (0, 1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.name(0), "gru-a");
        assert!(reg.weight_bytes(0) > 0);
        // Without an artifact, replication ships the weight image.
        assert_eq!(reg.artifact_bytes(0), reg.weight_bytes(0));
        assert_eq!(reg.models().len(), 2);
    }

    #[test]
    #[should_panic(expected = "model name \"gru-a\" registered twice")]
    fn a_name_registers_once() {
        let mut reg = ModelRegistry::new();
        reg.register("gru-a", model(1));
        reg.register_shared("gru-a", Arc::new(model(2)));
    }

    #[test]
    fn register_artifact_adds_zero_spectrum_refreshes() {
        use ernn_fpga::artifact::Provenance;
        use ernn_model::ModelSpec;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let spec = ModelSpec::new(CellType::Gru, 8, 5).layer_dims(&[16]);
        let dense = spec.build(&mut rng);
        let policy = BlockPolicy::uniform(4);
        let net = compress_network(&dense, policy);
        let datapath = DatapathConfig::paper_12bit();
        let compiled = CompiledModel::compile(&net, &datapath, XCKU060);
        let artifact = ModelArtifact::from_quantized(
            spec,
            policy,
            datapath,
            XCKU060,
            compiled.quantized(),
            Provenance::default(),
        )
        .expect("valid artifact");
        let bytes = artifact.save_bytes();

        // Decoding runs no FFT. Registration loads the artifact, which
        // computes every spectrum once, as compiling did, and records the
        // encoded length as the bytes replication ships.
        let (decoding, loaded) =
            forward_ffts(|| ModelArtifact::load_bytes(&bytes).expect("decodes"));
        assert_eq!(decoding, 0);
        let mut reg = ModelRegistry::new();
        let (registering, id) = forward_ffts(|| reg.register_artifact("from-bytes", &loaded));
        let cached = compiled.load_stats.cached_spectra;
        assert_eq!(registering, cached as u64);
        let at_load = reg.model(id).load_stats;
        assert_eq!(at_load.fft, compiled.load_stats.fft);
        assert_eq!(at_load.cached_spectra, cached);
        assert_eq!(reg.artifact_bytes(id), bytes.len() as u64);
        assert_eq!(reg.weight_bytes(id), compiled.weight_bytes());

        // And the loaded model is functionally the compiled one, bit for
        // bit, with the same per-request transforms.
        let frames = vec![vec![0.2f32; 8]; 5];
        let (served, logits) = forward_ffts(|| reg.model(id).infer(&frames));
        assert_eq!(forward_ffts(|| compiled.infer(&frames)), (served, logits));
        assert_eq!(reg.model(id).stage_cycles(), compiled.stage_cycles());
    }

    #[test]
    fn register_shared_leaves_spectra_alone() {
        let m = Arc::new(model(3));
        let mut reg = ModelRegistry::new();
        let (ffts, _) = forward_ffts(|| reg.register_shared("warm", Arc::clone(&m)));
        assert_eq!(ffts, 0);
    }
}
