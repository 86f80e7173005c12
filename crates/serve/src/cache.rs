//! Model loading with a once-per-load FFT'd-weight cache.
//!
//! [`CompiledModel`] is what the runtime serves: the quantized functional
//! twin of a compressed network ([`ernn_fpga::exec::QuantizedNetwork`])
//! plus the cycle-timing model of the accelerator that would run it
//! ([`ernn_fpga::Accelerator`]). Loading — [`CompiledModel::compile`] or
//! [`CompiledModel::from_artifact`] — is the *only* point where
//! block-circulant weight spectra are computed: a
//! [`BlockCirculantMatrix`](ernn_linalg::BlockCirculantMatrix) computes
//! its spectra once, on first read, and the load reads those of every
//! operand a forward reads
//! ([`QuantizedNetwork::cache_spectra`]), so serving only ever runs
//! input-side FFTs. [`LoadStats`] records the load's transforms, one per
//! cached spectrum; tests prove the cache holds on the FFT ledger
//! ([`ernn_fft::stats`]): requests count the same transforms every time.

use ernn_fft::stats::{self, FftStats};
use ernn_fpga::artifact::ModelArtifact;
use ernn_fpga::exec::{DatapathConfig, ExecScratch, NetworkState, QuantizedNetwork};
use ernn_fpga::{Accelerator, Device, HwCell, RnnSpec, StageCycles};
use ernn_linalg::WeightMatrix;
use ernn_model::{RnnLayer, RnnNetwork};

/// FFT activity recorded while compiling a model.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// FFT plan constructions and transforms of computing the weight
    /// spectra, on the loading thread's ledger
    /// ([`ernn_fft::stats::thread_snapshot`]): one forward transform per
    /// cached spectrum, whether the model was compiled or decoded.
    pub fft: FftStats,
    /// Number of block-circulant weight matrices in the model.
    pub circulant_matrices: usize,
    /// Total cached weight-spectrum count: `p·q` blocks per
    /// block-circulant matrix, and per GRU layer's stacked input operand.
    pub cached_spectra: usize,
}

/// A loaded, quantized, timing-annotated model ready to serve.
///
/// `CompiledModel` is immutable once loaded — its weight spectra are
/// computed during the load, each behind a set-once cell that no later
/// read writes, and [`Self::infer`] takes `&self` — so it is
/// `Send + Sync` and can be shared read-only across threads behind an
/// `Arc` (the inference lane's threads rely on this; the assertion below
/// makes the guarantee compile-time).
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
    /// computed here, once: quantization makes new matrices, whose
    /// spectra the load computes.
    ///
    /// # Panics
    ///
    /// Panics if the network has no RNN layers.
    pub fn compile(
        net: &RnnNetwork<WeightMatrix>,
        datapath: &DatapathConfig,
        device: Device,
    ) -> Self {
        let qnet = QuantizedNetwork::new(net, datapath);
        Self::from_quantized(qnet, datapath.weight_bits, device)
    }

    /// Wraps an **already quantized** functional model for serving —
    /// the artifact-loading path: no quantization pass runs, and the
    /// weight spectra `qnet` has not read yet are computed here, once.
    /// The accelerator timing model is derived exactly as
    /// [`Self::compile`] derives it, so a model loaded from a
    /// [`ModelArtifact`] reports the same [`StageCycles`] as its
    /// in-process twin.
    pub fn from_quantized(qnet: QuantizedNetwork, weight_bits: u8, device: Device) -> Self {
        let spec = derive_spec(qnet.network(), weight_bits);
        let accel = Accelerator::new(spec, device);
        let stages = accel.stage_cycles();
        let before = stats::thread_snapshot();
        let cached_spectra = qnet.cache_spectra();
        let weights = qnet.network().weight_matrices().into_iter();
        let load_stats = LoadStats {
            fft: stats::thread_snapshot().since(&before),
            circulant_matrices: weights
                .filter(|(_, _, w)| matches!(w, WeightMatrix::Circulant(_)))
                .count(),
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

    /// Loads a deserialized [`ModelArtifact`] into serving form. The
    /// artifact's weights are already quantized; decoding them runs no
    /// FFT, and this load computes each spectrum once, so its
    /// [`LoadStats`] equal those of [`Self::compile`] —
    /// `tests/pipeline_artifact.rs` and `ernn-core`'s
    /// `trained_compressed_pipeline_round_trips_through_bytes` pin that
    /// down.
    pub fn from_artifact(artifact: &ModelArtifact) -> Self {
        Self::from_quantized(
            artifact.to_quantized(),
            artifact.datapath.weight_bits,
            artifact.device,
        )
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

    /// On-chip bytes this model's weight image occupies (all layers'
    /// block-circulant spectra at the datapath word length) — the
    /// quantity the scheduler's per-device residency tracking charges
    /// against a platform's BRAM budget.
    pub fn weight_bytes(&self) -> u64 {
        self.spec.weight_bytes()
    }
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
        for cell in [CellType::Lstm, CellType::Gru] {
            let m = model(cell);
            assert!(m.load_stats.circulant_matrices > 0);
            assert!(m.load_stats.cached_spectra > 0);
            // The load FFTs each cached spectrum once; every request then
            // counts the same input-side transforms, none of the weights'.
            let load = m.load_stats.fft.forward_transforms;
            assert_eq!(load, m.load_stats.cached_spectra as u64, "{cell}");
            let frames = [vec![0.1; 8], vec![-0.2; 8]];
            let per_request = |m: &CompiledModel| {
                let before = stats::thread_snapshot();
                let _ = m.infer(&frames);
                stats::thread_snapshot().since(&before)
            };
            let first = per_request(&m);
            assert!(first.forward_transforms > 0);
            for _ in 0..10 {
                assert_eq!(per_request(&m), first, "{cell}");
            }
            // A clone shares the spectra, as the registry's `Arc`s do.
            assert_eq!(per_request(&m.clone()), first, "{cell}");
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
