//! Model loading with a once-per-load FFT'd-weight cache.
//!
//! [`CompiledModel`] is what the runtime serves: the quantized functional
//! twin of a compressed network ([`ernn_fpga::exec::QuantizedNetwork`])
//! plus the cycle-timing model of the accelerator that would run it
//! ([`ernn_fpga::Accelerator`]). Compilation is the *only* point where
//! block-circulant weight spectra are computed — every
//! [`BlockCirculantMatrix`](ernn_linalg::BlockCirculantMatrix) carries its
//! spectra from construction, and serving only ever calls `matvec`
//! (input-side FFTs). [`CompiledModel::weight_spectrum_refreshes`] exposes
//! the per-matrix refresh counters so tests can prove the cache holds:
//! the counts must not move between requests.

use ernn_fft::stats::{self, FftStats};
use ernn_fpga::artifact::ModelArtifact;
use ernn_fpga::exec::{DatapathConfig, ExecScratch, NetworkState, QuantizedNetwork};
use ernn_fpga::{Accelerator, Device, HwCell, RnnSpec, StageCycles};
use ernn_linalg::{BlockCirculantMatrix, WeightMatrix};
use ernn_model::{RnnLayer, RnnNetwork};

/// FFT activity recorded while compiling a model.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// FFT plan constructions and transforms performed during load
    /// (weight-spectrum computation dominates the forward count).
    ///
    /// Derived from the process-global counters in [`ernn_fft::stats`]:
    /// FFT activity on *other* threads during compilation leaks into
    /// this delta, so treat it as diagnostic unless compilation is the
    /// only FFT user at the time (the per-instance
    /// [`spectrum_refresh_count`](ernn_linalg::BlockCirculantMatrix::spectrum_refresh_count)
    /// counters are the race-free cache witness).
    pub fft: FftStats,
    /// Number of block-circulant weight matrices in the model.
    pub circulant_matrices: usize,
    /// Total cached weight-spectrum count (`p·q` blocks per matrix).
    pub cached_spectra: usize,
}

/// A loaded, quantized, timing-annotated model ready to serve.
///
/// `CompiledModel` is plain owned data with no interior mutability —
/// weight spectra are baked in at compile time and [`Self::infer`] takes
/// `&self` — so it is `Send + Sync` and can be shared read-only across
/// threads behind an `Arc` (the inference lane's threads rely on this;
/// the assertion below makes the guarantee compile-time).
#[derive(Debug, Clone)]
pub struct CompiledModel {
    qnet: QuantizedNetwork,
    spec: RnnSpec,
    accel: Accelerator,
    stages: StageCycles,
    /// FFT work done at load time (the cache fill).
    pub load_stats: LoadStats,
}

// Compile-time proof that a loaded model can be shared across the lane's
// threads; a regression (e.g. an Rc or RefCell smuggled into the weight
// path) fails the build here rather than deep inside the lane.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledModel>();
};

impl CompiledModel {
    /// Quantizes `net` for `datapath` and derives the accelerator timing
    /// model for `device`. All block-circulant weight spectra are
    /// computed here, once.
    ///
    /// # Panics
    ///
    /// Panics if the network has no RNN layers.
    pub fn compile(
        net: &RnnNetwork<WeightMatrix>,
        datapath: &DatapathConfig,
        device: Device,
    ) -> Self {
        let before = stats::snapshot();
        let qnet = QuantizedNetwork::new(net, datapath);
        Self::finish_load(qnet, datapath.weight_bits, device, before)
    }

    /// Wraps an **already quantized** functional model for serving —
    /// the artifact-loading path: no quantization pass runs and no
    /// weight spectra are recomputed beyond what constructing `qnet`
    /// already did. The accelerator timing model is derived exactly as
    /// [`Self::compile`] derives it, so a model loaded from a
    /// [`ModelArtifact`] reports the same [`StageCycles`] as its
    /// in-process twin.
    pub fn from_quantized(qnet: QuantizedNetwork, weight_bits: u8, device: Device) -> Self {
        let before = stats::snapshot();
        Self::finish_load(qnet, weight_bits, device, before)
    }

    /// Loads a deserialized [`ModelArtifact`] into serving form. The
    /// artifact's weights are already quantized; reconstructing their
    /// block-circulant matrices (done while decoding the artifact) was
    /// the load event of the FFT'd-weight cache, so this adds **zero**
    /// spectrum refreshes — `tests/pipeline_artifact.rs` and `ernn-core`'s
    /// `trained_compressed_pipeline_round_trips_through_bytes` pin that
    /// down.
    pub fn from_artifact(artifact: &ModelArtifact) -> Self {
        Self::from_quantized(
            artifact.to_quantized(),
            artifact.datapath.weight_bits,
            artifact.device,
        )
    }

    fn finish_load(
        qnet: QuantizedNetwork,
        weight_bits: u8,
        device: Device,
        before: FftStats,
    ) -> Self {
        let spec = derive_spec(qnet.network(), weight_bits);
        let accel = Accelerator::new(spec, device);
        let stages = accel.stage_cycles();
        let (circulant_matrices, cached_spectra) =
            circulant_matrices(qnet.network())
                .iter()
                .fold((0, 0), |(n, s), m| {
                    let (p, q) = m.grid();
                    (n + 1, s + p * q)
                });
        let load_stats = LoadStats {
            fft: stats::snapshot().since(&before),
            circulant_matrices,
            cached_spectra,
        };
        CompiledModel {
            qnet,
            spec,
            accel,
            stages,
            load_stats,
        }
    }

    /// The quantized functional model.
    pub fn quantized(&self) -> &QuantizedNetwork {
        &self.qnet
    }

    /// The derived hardware workload spec.
    pub fn spec(&self) -> &RnnSpec {
        &self.spec
    }

    /// The accelerator timing model.
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    /// Per-frame CGPipe stage cycles (top layer, the paper's convention).
    pub fn stage_cycles(&self) -> StageCycles {
        self.stages
    }

    /// The model's input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.qnet.network().input_dim()
    }

    /// Runs one utterance through the quantized datapath. This is the
    /// exact code path single-request execution uses, so batched and
    /// sequential results are bit-identical by construction.
    pub fn infer(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.qnet.forward_logits(frames)
    }

    /// Fully in-place batch inference: logits land in `out`, reusing its
    /// allocations when shapes repeat. With a warmed scratch and steady
    /// shapes this performs zero heap allocations end to end — the
    /// counting-allocator test in `tests/kernel_alloc.rs` pins that down.
    pub fn infer_batch_into(
        &self,
        batch: &[&[Vec<f32>]],
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut ExecScratch,
    ) {
        self.qnet.forward_logits_batch_into(batch, out, scratch);
    }

    /// Batch inference in place: each utterance's frame buffer becomes
    /// its logits buffer, so a served request's response costs no logits
    /// allocation when its feature dimension holds the class count (one
    /// exactly-sized row per frame otherwise). `states` as in
    /// [`QuantizedNetwork::forward_logits_batch_states_into`], `None` for an
    /// all-stateless batch. This is what the executors run; see
    /// [`QuantizedNetwork::forward_logits_batch_in_place`].
    pub fn infer_batch_in_place(
        &self,
        batch: &mut [Vec<Vec<f32>>],
        states: Option<&mut [Option<NetworkState>]>,
        scratch: &mut ExecScratch,
    ) {
        self.qnet
            .forward_logits_batch_in_place(batch, states, scratch);
    }

    /// A zero-initialized per-session recurrent state for this model.
    pub fn fresh_state(&self) -> NetworkState {
        self.qnet.fresh_state()
    }

    /// On-device footprint of one session's recurrent state in bytes —
    /// the quantity the scheduler's residency tracking charges for state
    /// images, alongside [`Self::weight_bytes`] for weight images.
    pub fn state_bytes(&self) -> u64 {
        self.qnet.state_bytes()
    }

    /// Lifetime spectrum-refresh count of every block-circulant weight
    /// matrix in the model, in layer order. Serving must not change
    /// these: a moving count would mean weight FFTs are being recomputed
    /// per request instead of cached.
    pub fn weight_spectrum_refreshes(&self) -> Vec<u64> {
        circulant_matrices(self.qnet.network())
            .iter()
            .map(|m| m.spectrum_refresh_count())
            .collect()
    }

    /// On-chip bytes this model's weight image occupies (all layers'
    /// block-circulant spectra at the datapath word length) — the
    /// quantity the scheduler's per-device residency tracking charges
    /// against a platform's BRAM budget.
    pub fn weight_bytes(&self) -> u64 {
        self.spec.weight_bytes()
    }
}

/// Every block-circulant weight matrix, in list order
/// ([`RnnNetwork::weight_matrices`]).
fn circulant_matrices(net: &RnnNetwork<WeightMatrix>) -> Vec<&BlockCirculantMatrix> {
    let weights = net.weight_matrices().into_iter();
    let circulant = weights.filter_map(|(_, _, w)| match w {
        WeightMatrix::Circulant(c) => Some(c),
        WeightMatrix::Dense(_) => None,
    });
    circulant.collect()
}

/// Derives the hardware workload spec from the network's top RNN layer
/// (performance is quoted per top layer, matching the paper's Table III;
/// storage accounts for all layers via `spec.layers`).
fn derive_spec(net: &RnnNetwork<WeightMatrix>, weight_bits: u8) -> RnnSpec {
    let top = net.layers().last().expect("network has at least one layer");
    let (cell, hidden_dim, input_dim, block_size, io_block_size) = match top {
        RnnLayer::Lstm(l) => {
            let cfg = l.config();
            let projection = l.wym.is_some().then_some(cfg.output_dim);
            (
                HwCell::Lstm { projection },
                cfg.hidden_dim,
                cfg.input_dim,
                l.wr.block_size(),
                l.wx.block_size(),
            )
        }
        RnnLayer::Gru(g) => (
            HwCell::Gru,
            g.hidden_dim(),
            g.input_dim(),
            g.wzr_c.block_size(),
            g.wcx.block_size(),
        ),
    };
    RnnSpec {
        cell,
        input_dim,
        hidden_dim,
        block_size,
        io_block_size,
        weight_bits,
        layers: net.num_layers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::XCKU060;
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use rand::SeedableRng;

    fn model(cell: CellType) -> CompiledModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let dense = ModelSpec::new(cell, 8, 5).layer_dims(&[16]).build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
    }

    #[test]
    fn compile_fills_the_spectrum_cache_once() {
        let m = model(CellType::Lstm);
        assert!(m.load_stats.circulant_matrices > 0);
        assert!(m.load_stats.cached_spectra > 0);
        // Quantization clones the training-time matrix (1 refresh at
        // construction) and rewrites its blocks (1 more); serving adds none.
        let baseline = m.weight_spectrum_refreshes();
        assert!(!baseline.is_empty());
        for _ in 0..10 {
            let _ = m.infer(&[vec![0.1; 8], vec![-0.2; 8]]);
        }
        assert_eq!(m.weight_spectrum_refreshes(), baseline);
    }

    #[test]
    fn spectrum_refreshes_follow_the_list_order() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let policy = BlockPolicy {
            recurrent: 4,
            input: 1,
            output: 4,
        };
        for cell in [CellType::Lstm, CellType::Gru] {
            let dense = ModelSpec::new(cell, 8, 5)
                .layer_dims(&[16, 16])
                .projection(8)
                .build(&mut rng);
            let mut net = compress_network(&dense, policy);
            // Matrix `i` carries `i` extra refreshes; quantization adds one.
            let mut expected = Vec::new();
            for (i, w) in net.weight_matrices_mut().into_iter().enumerate() {
                if let WeightMatrix::Circulant(c) = w {
                    (0..i).for_each(|_| c.refresh_spectra());
                    expected.push(i as u64 + 2);
                }
            }
            let m = CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060);
            assert_eq!(m.weight_spectrum_refreshes(), expected, "{cell}");
            assert_eq!(m.load_stats.circulant_matrices, expected.len(), "{cell}");
        }
    }

    #[test]
    fn derived_spec_matches_network_shape() {
        let m = model(CellType::Gru);
        assert_eq!(m.spec().cell, HwCell::Gru);
        assert_eq!(m.spec().hidden_dim, 16);
        assert_eq!(m.spec().input_dim, 8);
        assert_eq!(m.spec().block_size, 4);
        assert_eq!(m.input_dim(), 8);
        assert!(m.stage_cycles().ii() > 0);
    }

    #[test]
    fn lstm_spec_sees_projection_absence() {
        let m = model(CellType::Lstm);
        assert_eq!(m.spec().cell, HwCell::Lstm { projection: None });
    }

    #[test]
    fn weight_bytes_match_spec() {
        let m = model(CellType::Gru);
        assert_eq!(m.weight_bytes(), m.spec().weight_bytes());
        assert!(m.weight_bytes() > 0);
    }
}
