//! The versioned, deployable model artifact and the pipeline error type.
//!
//! E-RNN's two-phase flow ends with a *quantized, block-circulant,
//! datapath-annotated* model; [`ModelArtifact`] is that result as plain
//! data — spec, block policy, quantized weights, [`DatapathConfig`],
//! target platform, and the provenance of how the design was derived
//! (Phase-I trial log, ADMM residual, Phase-II quantization scan). It
//! byte-serializes deterministically with a hand-rolled little-endian
//! codec ([`ModelArtifact::save_bytes`] / [`ModelArtifact::load_bytes`]):
//! no dependencies, `save(load(bytes)) == bytes`, and a loaded artifact
//! reconstructs a [`QuantizedNetwork`] whose logits are **bit-identical**
//! to the in-process build — the weight values are stored exactly and the
//! weight spectra are recomputed from them by the same deterministic FFT.
//!
//! Every failure mode — truncated or corrupted bytes, unknown version or
//! platform, shape inconsistencies — surfaces as a [`PipelineError`]
//! rather than a panic, making artifact loading safe on untrusted input.

use crate::device::Device;
use crate::exec::{DatapathConfig, QuantizationReport, QuantizedNetwork};
use ernn_linalg::{BlockCirculantMatrix, Matrix, WeightMatrix};
use ernn_model::{
    BlockPolicy, CellType, GruLayer, LstmConfig, LstmLayer, ModelSpec, RnnLayer, RnnNetwork,
};

/// The single error type of the model-lifecycle pipeline: stage
/// validation, artifact encoding/decoding, and registry loading all
/// report through it instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The bytes do not start with the artifact magic.
    BadMagic,
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The byte stream ended before a field could be read.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The bytes decoded but describe an inconsistent artifact.
    Corrupt(String),
    /// The artifact targets a platform this build does not know
    /// (see [`crate::device::KNOWN_DEVICES`]).
    UnknownDevice(String),
    /// The model spec is not instantiable (empty layer stack, zero dims).
    InvalidSpec(String),
    /// A block policy size is not a power of two (or 1 for dense).
    InvalidBlockPolicy(String),
    /// The datapath configuration is outside the supported range.
    InvalidDatapath(String),
    /// A supplied network does not match the declared spec.
    ShapeMismatch(String),
    /// A training or compression stage was given no data, or data the
    /// spec cannot train on (an empty sequence, a frame/label count
    /// mismatch, a frame of the wrong width, a label out of range).
    InvalidTrainingData(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::BadMagic => write!(f, "not an E-RNN model artifact (bad magic)"),
            PipelineError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact version {found} unsupported (expected {supported})"
                )
            }
            PipelineError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "artifact truncated: needed {needed} bytes, {remaining} remaining"
                )
            }
            PipelineError::Corrupt(why) => write!(f, "corrupt artifact: {why}"),
            PipelineError::UnknownDevice(name) => write!(f, "unknown target platform {name:?}"),
            PipelineError::InvalidSpec(why) => write!(f, "invalid model spec: {why}"),
            PipelineError::InvalidBlockPolicy(why) => write!(f, "invalid block policy: {why}"),
            PipelineError::InvalidDatapath(why) => write!(f, "invalid datapath: {why}"),
            PipelineError::ShapeMismatch(why) => write!(f, "shape mismatch: {why}"),
            PipelineError::InvalidTrainingData(why) => write!(f, "invalid training data: {why}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Checks a [`ModelSpec`] is instantiable.
pub fn validate_spec(spec: &ModelSpec) -> Result<(), PipelineError> {
    spec.validate().map_err(PipelineError::InvalidSpec)
}

/// Checks every block size of a [`BlockPolicy`] is 1 (dense) or a power
/// of two.
pub fn validate_policy(policy: &BlockPolicy) -> Result<(), PipelineError> {
    for (role, b) in [
        ("recurrent", policy.recurrent),
        ("input", policy.input),
        ("output", policy.output),
    ] {
        if b == 0 || (b > 1 && !ernn_fft::is_power_of_two(b)) {
            return Err(PipelineError::InvalidBlockPolicy(format!(
                "{role} block size must be 1 or a power of two, got {b}"
            )));
        }
    }
    Ok(())
}

/// Checks a [`DatapathConfig`] is within the fixed-point/PWL ranges the
/// functional datapath supports.
pub fn validate_datapath(datapath: &DatapathConfig) -> Result<(), PipelineError> {
    for (what, bits) in [
        ("weight", datapath.weight_bits),
        ("activation", datapath.activation_bits),
    ] {
        if !(2..=32).contains(&bits) {
            return Err(PipelineError::InvalidDatapath(format!(
                "{what} word length must be in 2..=32 bits, got {bits}"
            )));
        }
    }
    if !(2..=65_536).contains(&datapath.pwl_segments) {
        return Err(PipelineError::InvalidDatapath(format!(
            "PWL segment count must be in 2..=65536, got {}",
            datapath.pwl_segments
        )));
    }
    Ok(())
}

/// One Phase-I training trial, as stored provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Cell type trained.
    pub cell: CellType,
    /// Block size of the recurrent matrices.
    pub block: usize,
    /// Block size of the input/output matrices.
    pub io_block: usize,
    /// Measured PER (%).
    pub per: f64,
    /// Whether the trial met the accuracy budget.
    pub accepted: bool,
}

/// Phase-I provenance: the accuracy numbers and the bounded trial log
/// that led to the deployed model choice.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Provenance {
    /// Uncompressed LSTM baseline PER (%).
    pub baseline_per: f64,
    /// PER (%) of the chosen model.
    pub chosen_per: f64,
    /// Every training trial in order.
    pub trials: Vec<TrialRecord>,
}

/// ADMM training provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmProvenance {
    /// Final relative primal residual `‖W − Z‖/‖W‖`.
    pub final_residual: f32,
    /// Outer iterations run.
    pub iterations: usize,
    /// Whether the residual tolerance was met.
    pub converged: bool,
}

/// How a deployed model came to be: free-form source label plus the
/// structured traces of each lifecycle stage that ran.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// Free-form origin label (e.g. `"ernn_core::flow::run_flow_to_artifact"`).
    pub source: String,
    /// Phase-I trial log, when the design-optimization flow produced
    /// this model.
    pub phase1: Option<Phase1Provenance>,
    /// ADMM residual trace, when the compression stage trained with ADMM.
    pub admm: Option<AdmmProvenance>,
    /// Phase-II quantization scan: `(bits, PER %)` per candidate width.
    pub quant_trials: Vec<(u8, f64)>,
}

/// A versioned, deployable model: the output of the lifecycle pipeline
/// and the unit the serving registry loads without recompressing.
///
/// See the [module docs](self) for the determinism and round-trip
/// guarantees; `tests/pipeline_artifact.rs` pins them down.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The declared model shape.
    pub spec: ModelSpec,
    /// The block-size policy the weights were compressed under.
    pub policy: BlockPolicy,
    /// The fixed-point/PWL datapath the weights are quantized for.
    pub datapath: DatapathConfig,
    /// Target platform (must be one of
    /// [`KNOWN_DEVICES`](crate::device::KNOWN_DEVICES)).
    pub device: Device,
    /// Statistics of the quantization pass that produced the weights.
    pub report: QuantizationReport,
    /// Design-flow provenance.
    pub provenance: Provenance,
    /// The quantized weights (private: mutating them would break the
    /// quantized-for-`datapath` invariant).
    net: RnnNetwork<WeightMatrix>,
}

/// Format version written by [`ModelArtifact::save_bytes`], and the only
/// one [`ModelArtifact::load_bytes`] reads. Version 2 records carry no
/// activation tag: every cell input is tanh.
pub const ARTIFACT_VERSION: u32 = 2;
const MAGIC: &[u8; 8] = b"ERNN-ART";

impl ModelArtifact {
    /// Packages a quantized model into an artifact, validating every
    /// component (spec, policy, datapath, platform, and that the network
    /// actually has the declared shape).
    pub fn from_quantized(
        spec: ModelSpec,
        policy: BlockPolicy,
        datapath: DatapathConfig,
        device: Device,
        qnet: &QuantizedNetwork,
        provenance: Provenance,
    ) -> Result<Self, PipelineError> {
        validate_parts(&spec, &policy, &datapath, device, qnet.network())?;
        Ok(ModelArtifact {
            spec,
            policy,
            datapath,
            device,
            report: qnet.report,
            provenance,
            net: qnet.network().clone(),
        })
    }

    /// The quantized weights.
    pub fn network(&self) -> &RnnNetwork<WeightMatrix> {
        &self.net
    }

    /// Rebuilds the functional quantized datapath — no quantization pass
    /// runs; weight spectra are recomputed once from the stored defining
    /// vectors (this *is* the load event of the FFT'd-weight cache).
    pub fn to_quantized(&self) -> QuantizedNetwork {
        QuantizedNetwork::from_quantized(self.net.clone(), &self.datapath, self.report)
    }

    /// Serializes to the deterministic byte format. Encoding the same
    /// artifact always produces the same bytes, and
    /// [`Self::load_bytes`] followed by `save_bytes` is the identity on
    /// any bytes this function produced.
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut e = Enc(Vec::with_capacity(256));
        e.0.extend_from_slice(MAGIC);
        e.u32(ARTIFACT_VERSION);
        e.str(self.device.name);
        e.u8(self.datapath.weight_bits);
        e.u8(self.datapath.activation_bits);
        e.u64(self.datapath.pwl_segments as u64);
        e.u64(self.policy.recurrent as u64);
        e.u64(self.policy.input as u64);
        e.u64(self.policy.output as u64);
        // Spec.
        e.u8(cell_tag(self.spec.cell));
        e.u64(self.spec.input_dim as u64);
        e.u64(self.spec.classes as u64);
        e.u64(self.spec.layer_dims.len() as u64);
        for &d in &self.spec.layer_dims {
            e.u64(d as u64);
        }
        e.u8(u8::from(self.spec.peephole));
        e.opt_u64(self.spec.projection.map(|p| p as u64));
        // Quantization report.
        e.f32(self.report.max_weight_error);
        e.f32(self.report.max_saturation);
        // Provenance.
        e.str(&self.provenance.source);
        match &self.provenance.phase1 {
            None => e.u8(0),
            Some(p1) => {
                e.u8(1);
                e.f64(p1.baseline_per);
                e.f64(p1.chosen_per);
                e.u64(p1.trials.len() as u64);
                for t in &p1.trials {
                    e.u8(cell_tag(t.cell));
                    e.u64(t.block as u64);
                    e.u64(t.io_block as u64);
                    e.f64(t.per);
                    e.u8(u8::from(t.accepted));
                }
            }
        }
        match &self.provenance.admm {
            None => e.u8(0),
            Some(a) => {
                e.u8(1);
                e.f32(a.final_residual);
                e.u64(a.iterations as u64);
                e.u8(u8::from(a.converged));
            }
        }
        e.u64(self.provenance.quant_trials.len() as u64);
        for &(bits, per) in &self.provenance.quant_trials {
            e.u8(bits);
            e.f64(per);
        }
        // Network.
        e.u64(self.net.layers().len() as u64);
        for layer in self.net.layers() {
            match layer {
                RnnLayer::Lstm(l) => {
                    e.u8(0);
                    let cfg = l.config();
                    e.u64(cfg.input_dim as u64);
                    e.u64(cfg.hidden_dim as u64);
                    e.u64(cfg.output_dim as u64);
                    e.u8(u8::from(cfg.peephole));
                    e.weight(&l.wx);
                    e.weight(&l.wr);
                    e.f32s(&l.bias);
                    match &l.peepholes {
                        None => e.u8(0),
                        Some(p) => {
                            e.u8(1);
                            for v in p.iter() {
                                e.f32s(v);
                            }
                        }
                    }
                    match &l.wym {
                        None => e.u8(0),
                        Some(w) => {
                            e.u8(1);
                            e.weight(w);
                        }
                    }
                }
                RnnLayer::Gru(g) => {
                    e.u8(1);
                    e.u64(g.input_dim() as u64);
                    e.u64(g.hidden_dim() as u64);
                    e.weight(&g.wzr_x);
                    e.weight(&g.wzr_c);
                    e.f32s(&g.bias_zr);
                    e.weight(&g.wcx);
                    e.weight(&g.wcc);
                    e.f32s(&g.bias_c);
                }
            }
        }
        e.dense(&self.net.classifier_w);
        e.f32s(&self.net.classifier_b);
        e.0
    }

    /// Decodes an artifact, validating structure, shapes and platform.
    /// Any defect in the bytes — truncation, corruption, an unknown
    /// version or platform — is a [`PipelineError`], never a panic.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, PipelineError> {
        let mut d = Dec { buf: bytes, pos: 0 };
        let magic = d.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(PipelineError::BadMagic);
        }
        let version = d.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(PipelineError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        let device_name = d.str()?;
        let device = Device::by_name(&device_name)
            .ok_or_else(|| PipelineError::UnknownDevice(device_name.clone()))?;
        let datapath = DatapathConfig {
            weight_bits: d.u8()?,
            activation_bits: d.u8()?,
            pwl_segments: d.usize()?,
        };
        let policy = BlockPolicy {
            recurrent: d.usize()?,
            input: d.usize()?,
            output: d.usize()?,
        };
        // Spec.
        let cell = cell_from_tag(d.u8()?)?;
        let input_dim = d.usize()?;
        let classes = d.usize()?;
        let n_dims = d.len(8)?;
        let mut layer_dims = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            layer_dims.push(d.usize()?);
        }
        let peephole = d.bool()?;
        let projection = d.opt_u64()?.map(|p| p as usize);
        let spec = ModelSpec {
            cell,
            input_dim,
            classes,
            layer_dims,
            peephole,
            projection,
        };
        // Quantization report.
        let report = QuantizationReport {
            max_weight_error: d.f32()?,
            max_saturation: d.f32()?,
        };
        // Provenance.
        let source = d.str()?;
        let phase1 = if d.bool()? {
            let baseline_per = d.f64()?;
            let chosen_per = d.f64()?;
            let n = d.len(1 + 8 + 8 + 8 + 1)?;
            let mut trials = Vec::with_capacity(n);
            for _ in 0..n {
                trials.push(TrialRecord {
                    cell: cell_from_tag(d.u8()?)?,
                    block: d.usize()?,
                    io_block: d.usize()?,
                    per: d.f64()?,
                    accepted: d.bool()?,
                });
            }
            Some(Phase1Provenance {
                baseline_per,
                chosen_per,
                trials,
            })
        } else {
            None
        };
        let admm = if d.bool()? {
            Some(AdmmProvenance {
                final_residual: d.f32()?,
                iterations: d.usize()?,
                converged: d.bool()?,
            })
        } else {
            None
        };
        let n_quant = d.len(1 + 8)?;
        let mut quant_trials = Vec::with_capacity(n_quant);
        for _ in 0..n_quant {
            quant_trials.push((d.u8()?, d.f64()?));
        }
        let provenance = Provenance {
            source,
            phase1,
            admm,
            quant_trials,
        };
        // Network.
        let n_layers = d.len(1)?;
        if n_layers == 0 {
            return Err(PipelineError::Corrupt("network has no layers".into()));
        }
        let mut layers: Vec<RnnLayer<WeightMatrix>> = Vec::with_capacity(n_layers);
        for i in 0..n_layers {
            let layer = match d.u8()? {
                0 => {
                    let cfg = LstmConfig {
                        input_dim: d.usize()?,
                        hidden_dim: d.usize()?,
                        output_dim: d.usize()?,
                        peephole: d.bool()?,
                    };
                    check_dim(cfg.input_dim, i)?;
                    check_dim(cfg.hidden_dim, i)?;
                    check_dim(cfg.output_dim, i)?;
                    let h = cfg.hidden_dim;
                    let wx = d.weight(4 * h, cfg.input_dim, &format!("layer {i} wx"))?;
                    let wr = d.weight(4 * h, cfg.output_dim, &format!("layer {i} wr"))?;
                    let bias = d.f32s_exact(4 * h, &format!("layer {i} bias"))?;
                    let peepholes = if d.bool()? {
                        let mut p: [Vec<f32>; 3] = Default::default();
                        for v in p.iter_mut() {
                            *v = d.f32s_exact(h, &format!("layer {i} peephole"))?;
                        }
                        Some(p)
                    } else {
                        None
                    };
                    let wym = if d.bool()? {
                        Some(d.weight(cfg.output_dim, h, &format!("layer {i} wym"))?)
                    } else {
                        None
                    };
                    if cfg.peephole != peepholes.is_some() {
                        return Err(PipelineError::Corrupt(format!(
                            "layer {i} peephole presence disagrees with its config"
                        )));
                    }
                    if cfg.has_projection() != wym.is_some() {
                        return Err(PipelineError::Corrupt(format!(
                            "layer {i} projection presence disagrees with its config"
                        )));
                    }
                    RnnLayer::Lstm(LstmLayer::from_parts(cfg, wx, wr, bias, peepholes, wym))
                }
                1 => {
                    let in_dim = d.usize()?;
                    let h = d.usize()?;
                    check_dim(in_dim, i)?;
                    check_dim(h, i)?;
                    let wzr_x = d.weight(2 * h, in_dim, &format!("layer {i} wzr_x"))?;
                    let wzr_c = d.weight(2 * h, h, &format!("layer {i} wzr_c"))?;
                    let bias_zr = d.f32s_exact(2 * h, &format!("layer {i} bias_zr"))?;
                    let wcx = d.weight(h, in_dim, &format!("layer {i} wcx"))?;
                    let wcc = d.weight(h, h, &format!("layer {i} wcc"))?;
                    let bias_c = d.f32s_exact(h, &format!("layer {i} bias_c"))?;
                    RnnLayer::Gru(GruLayer::from_parts(
                        in_dim, h, wzr_x, wzr_c, bias_zr, wcx, wcc, bias_c,
                    ))
                }
                t => {
                    return Err(PipelineError::Corrupt(format!(
                        "unknown layer tag {t} for layer {i}"
                    )))
                }
            };
            // `RnnNetwork::from_parts` asserts the chain; answer a corrupt
            // one here, before it can.
            if let Some(below) = layers.last() {
                if layer.input_dim() != below.output_dim() {
                    return Err(PipelineError::Corrupt(format!(
                        "layer {i} input dim {} disagrees with layer {} output dim {}",
                        layer.input_dim(),
                        i - 1,
                        below.output_dim()
                    )));
                }
            }
            layers.push(layer);
        }
        let top_dim = layers.last().expect("checked non-empty").output_dim();
        let classifier_w = d.dense()?;
        let classifier_b = d.f32s_exact(classes, "classifier bias")?;
        if (classifier_w.rows(), classifier_w.cols()) != (classes, top_dim) {
            return Err(PipelineError::Corrupt(format!(
                "classifier shape {}×{} disagrees with {classes} classes × top dim {top_dim}",
                classifier_w.rows(),
                classifier_w.cols()
            )));
        }
        if d.pos != d.buf.len() {
            return Err(PipelineError::Corrupt(format!(
                "{} trailing bytes after the payload",
                d.buf.len() - d.pos
            )));
        }
        let net = RnnNetwork::from_parts(layers, classifier_w, classifier_b);
        // Cross-validate the declared metadata against the decoded
        // network — same checks as the constructor, without cloning the
        // freshly decoded weights through a throwaway QuantizedNetwork.
        validate_parts(&spec, &policy, &datapath, device, &net)?;
        Ok(ModelArtifact {
            spec,
            policy,
            datapath,
            device,
            report,
            provenance,
            net,
        })
    }
}

/// The shared validation behind [`ModelArtifact::from_quantized`] and
/// [`ModelArtifact::load_bytes`]: instantiable spec, power-of-two policy,
/// in-range datapath, known platform, and a network that actually has
/// the declared shape (including inter-layer dimension chaining — a
/// chained mismatch would otherwise only surface as a matvec panic at
/// first inference).
fn validate_parts(
    spec: &ModelSpec,
    policy: &BlockPolicy,
    datapath: &DatapathConfig,
    device: Device,
    net: &RnnNetwork<WeightMatrix>,
) -> Result<(), PipelineError> {
    validate_spec(spec)?;
    validate_policy(policy)?;
    validate_datapath(datapath)?;
    if Device::by_name(device.name) != Some(device) {
        return Err(PipelineError::UnknownDevice(device.name.to_string()));
    }
    spec.matches(net).map_err(PipelineError::ShapeMismatch)
}

/// Rejects decoded layer dimensions that are zero or so large that
/// derived sizes (`4·h`, block grids) could overflow — far beyond any
/// model this workspace can represent anyway.
fn check_dim(dim: usize, layer: usize) -> Result<(), PipelineError> {
    if dim == 0 || dim > 1 << 24 {
        return Err(PipelineError::Corrupt(format!(
            "layer {layer} dimension {dim} is outside the supported range"
        )));
    }
    Ok(())
}

fn cell_tag(cell: CellType) -> u8 {
    match cell {
        CellType::Lstm => 0,
        CellType::Gru => 1,
    }
}

fn cell_from_tag(tag: u8) -> Result<CellType, PipelineError> {
    match tag {
        0 => Ok(CellType::Lstm),
        1 => Ok(CellType::Gru),
        t => Err(PipelineError::Corrupt(format!("unknown cell tag {t}"))),
    }
}

/// Little-endian encoder.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f32(x);
        }
    }
    fn dense(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.f32s(m.as_slice());
    }
    fn weight(&mut self, w: &WeightMatrix) {
        match w {
            WeightMatrix::Dense(m) => {
                self.u8(0);
                self.dense(m);
            }
            WeightMatrix::Circulant(c) => {
                self.u8(1);
                self.u64(c.rows() as u64);
                self.u64(c.cols() as u64);
                self.u64(c.block_size() as u64);
                self.f32s(c.blocks());
            }
        }
    }
}

/// Bounds-checked little-endian decoder.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PipelineError> {
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(PipelineError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PipelineError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, PipelineError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(PipelineError::Corrupt(format!(
                "flag byte must be 0/1, got {t}"
            ))),
        }
    }
    fn u32(&mut self) -> Result<u32, PipelineError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, PipelineError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn usize(&mut self) -> Result<usize, PipelineError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PipelineError::Corrupt(format!("{v} overflows usize")))
    }
    /// Reads a collection length and sanity-checks it against the bytes
    /// remaining (`min_item_bytes` per element), so a corrupted length
    /// cannot trigger a huge allocation.
    fn len(&mut self, min_item_bytes: usize) -> Result<usize, PipelineError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        let needed = n.saturating_mul(min_item_bytes.max(1));
        if needed > remaining {
            return Err(PipelineError::Truncated { needed, remaining });
        }
        Ok(n)
    }
    fn f32(&mut self) -> Result<f32, PipelineError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, PipelineError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, PipelineError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    fn str(&mut self) -> Result<String, PipelineError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PipelineError::Corrupt("string is not UTF-8".into()))
    }
    fn f32s(&mut self) -> Result<Vec<f32>, PipelineError> {
        let n = self.len(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }
    fn f32s_exact(&mut self, expect: usize, what: &str) -> Result<Vec<f32>, PipelineError> {
        let v = self.f32s()?;
        if v.len() != expect {
            return Err(PipelineError::Corrupt(format!(
                "{what}: expected {expect} values, got {}",
                v.len()
            )));
        }
        Ok(v)
    }
    fn dense(&mut self) -> Result<Matrix, PipelineError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let data = self.f32s()?;
        if data.len() != rows.saturating_mul(cols) {
            return Err(PipelineError::Corrupt(format!(
                "dense matrix {rows}×{cols} carries {} values",
                data.len()
            )));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
    /// Decodes a weight matrix and checks it against the expected shape
    /// *before* any constructor that would panic can run.
    fn weight(
        &mut self,
        rows: usize,
        cols: usize,
        what: &str,
    ) -> Result<WeightMatrix, PipelineError> {
        match self.u8()? {
            0 => {
                let m = self.dense()?;
                if (m.rows(), m.cols()) != (rows, cols) {
                    return Err(PipelineError::Corrupt(format!(
                        "{what}: dense shape {}×{} (expected {rows}×{cols})",
                        m.rows(),
                        m.cols()
                    )));
                }
                Ok(WeightMatrix::Dense(m))
            }
            1 => {
                let r = self.usize()?;
                let c = self.usize()?;
                let block = self.usize()?;
                let blocks = self.f32s()?;
                if (r, c) != (rows, cols) {
                    return Err(PipelineError::Corrupt(format!(
                        "{what}: circulant shape {r}×{c} (expected {rows}×{cols})"
                    )));
                }
                if block == 0 || !ernn_fft::is_power_of_two(block) {
                    return Err(PipelineError::Corrupt(format!(
                        "{what}: block size {block} is not a power of two"
                    )));
                }
                let expect = rows.div_ceil(block) * cols.div_ceil(block) * block;
                if blocks.len() != expect {
                    return Err(PipelineError::Corrupt(format!(
                        "{what}: {} block parameters (expected {expect})",
                        blocks.len()
                    )));
                }
                Ok(WeightMatrix::Circulant(BlockCirculantMatrix::from_blocks(
                    rows, cols, block, blocks,
                )))
            }
            t => Err(PipelineError::Corrupt(format!(
                "{what}: unknown weight tag {t}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::XCKU060;
    use ernn_model::{compress_network, ModelSpec};
    use rand::SeedableRng;

    fn artifact(cell: CellType) -> ModelArtifact {
        artifact_with_layers(cell, &[16])
    }

    fn artifact_with_layers(cell: CellType, layer_dims: &[usize]) -> ModelArtifact {
        let spec = ModelSpec::new(cell, 8, 5)
            .layer_dims(layer_dims)
            .peephole(cell == CellType::Lstm);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let dense = spec.build(&mut rng);
        let policy = BlockPolicy::uniform(4);
        let net = compress_network(&dense, policy);
        let datapath = DatapathConfig::paper_12bit();
        let qnet = QuantizedNetwork::new(&net, &datapath);
        ModelArtifact::from_quantized(
            spec,
            policy,
            datapath,
            XCKU060,
            &qnet,
            Provenance {
                source: "unit test".into(),
                phase1: Some(Phase1Provenance {
                    baseline_per: 20.0,
                    chosen_per: 20.2,
                    trials: vec![TrialRecord {
                        cell,
                        block: 4,
                        io_block: 4,
                        per: 20.2,
                        accepted: true,
                    }],
                }),
                admm: Some(AdmmProvenance {
                    final_residual: 1e-4,
                    iterations: 3,
                    converged: true,
                }),
                quant_trials: vec![(8, 21.0), (12, 20.2)],
            },
        )
        .expect("valid artifact")
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let a = artifact(cell);
            let bytes = a.save_bytes();
            let b = ModelArtifact::load_bytes(&bytes).expect("decodes");
            // Deterministic: re-encoding reproduces the bytes exactly.
            assert_eq!(b.save_bytes(), bytes, "{cell}");
            assert_eq!(b.spec, a.spec);
            assert_eq!(b.policy, a.policy);
            assert_eq!(b.datapath, a.datapath);
            assert_eq!(b.device, a.device);
            assert_eq!(b.provenance, a.provenance);
            // Functional equivalence, bit for bit.
            let frames = vec![vec![0.25f32; 8]; 4];
            let x = a.to_quantized().forward_logits(&frames);
            let y = b.to_quantized().forward_logits(&frames);
            assert_eq!(x, y, "{cell}");
        }
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let bytes = artifact(CellType::Gru).save_bytes();
        // Every strict prefix must fail cleanly. Step 7 keeps the test
        // fast while still covering field boundaries of every width.
        for cut in (0..bytes.len()).step_by(7) {
            let err = ModelArtifact::load_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn bad_magic_and_version_are_reported() {
        let bytes = artifact(CellType::Gru).save_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            ModelArtifact::load_bytes(&wrong_magic).unwrap_err(),
            PipelineError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert_eq!(
            ModelArtifact::load_bytes(&wrong_version).unwrap_err(),
            PipelineError::UnsupportedVersion {
                found: 99,
                supported: ARTIFACT_VERSION
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = artifact(CellType::Gru).save_bytes();
        bytes.push(0);
        assert!(matches!(
            ModelArtifact::load_bytes(&bytes),
            Err(PipelineError::Corrupt(_))
        ));
    }

    #[test]
    fn a_layer_that_does_not_chain_is_an_error_not_a_panic() {
        // Layer 1 of an 8 → 16 → 16 artifact replaced by layer 1 of an
        // 8 → 12 → 16 one: every record is well-shaped, the classifier
        // still fits, but layer 1 now reads 12 of layer 0's 16 outputs.
        let whole = artifact_with_layers(CellType::Gru, &[16, 16]).save_bytes();
        let donor = artifact_with_layers(CellType::Gru, &[12, 16]).save_bytes();
        // A GRU layer record opens with its tag, input dim and hidden dim,
        // then `wzr_x`'s own tag and row count.
        let layer_1 = |bytes: &[u8], in_dim: u64| {
            let mut head = vec![1u8];
            head.extend_from_slice(&in_dim.to_le_bytes());
            head.extend_from_slice(&16u64.to_le_bytes());
            head.push(1);
            head.extend_from_slice(&32u64.to_le_bytes());
            let at = bytes.windows(head.len()).rposition(|w| w == head);
            at.expect("layer 1 record")
        };
        let mut spliced = whole[..layer_1(&whole, 16)].to_vec();
        spliced.extend_from_slice(&donor[layer_1(&donor, 12)..]);
        match ModelArtifact::load_bytes(&spliced) {
            Err(PipelineError::Corrupt(why)) => {
                assert!(why.contains("layer 1 input dim 12"), "{why}")
            }
            other => panic!("expected a corrupt-artifact error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_device_is_rejected_at_construction() {
        let spec = ModelSpec::new(CellType::Gru, 8, 5).layer_dims(&[16]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let dense = spec.build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        let datapath = DatapathConfig::paper_12bit();
        let qnet = QuantizedNetwork::new(&net, &datapath);
        let bogus = Device {
            name: "made-up-board",
            ..XCKU060
        };
        let err = ModelArtifact::from_quantized(
            spec,
            BlockPolicy::uniform(4),
            datapath,
            bogus,
            &qnet,
            Provenance::default(),
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::UnknownDevice("made-up-board".into()));
    }

    #[test]
    fn shape_mismatch_is_rejected_at_construction() {
        let spec = ModelSpec::new(CellType::Gru, 8, 5).layer_dims(&[32]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let dense = ModelSpec::new(CellType::Gru, 8, 5)
            .layer_dims(&[16])
            .build(&mut rng);
        let net = compress_network(&dense, BlockPolicy::uniform(4));
        let datapath = DatapathConfig::paper_12bit();
        let qnet = QuantizedNetwork::new(&net, &datapath);
        let err = ModelArtifact::from_quantized(
            spec,
            BlockPolicy::uniform(4),
            datapath,
            XCKU060,
            &qnet,
            Provenance::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::ShapeMismatch(_)), "{err}");
    }

    #[test]
    fn validators_reject_bad_inputs() {
        assert!(validate_policy(&BlockPolicy::uniform(8)).is_ok());
        assert!(validate_policy(&BlockPolicy::uniform(1)).is_ok());
        assert!(validate_policy(&BlockPolicy::uniform(6)).is_err());
        assert!(validate_policy(&BlockPolicy::uniform(0)).is_err());
        assert!(validate_datapath(&DatapathConfig::paper_12bit()).is_ok());
        assert!(validate_datapath(&DatapathConfig {
            weight_bits: 1,
            activation_bits: 12,
            pwl_segments: 64
        })
        .is_err());
        assert!(validate_datapath(&DatapathConfig {
            weight_bits: 12,
            activation_bits: 12,
            pwl_segments: 1
        })
        .is_err());
    }
}
