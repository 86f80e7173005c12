//! Functional fixed-point execution of a compressed network.
//!
//! Phase II needs an *accuracy oracle* for quantization decisions: the
//! paper states 12-bit fixed point costs <0.1% accuracy (Sec. VII-D).
//! This module runs a trained network the way the hardware would —
//! quantized weights, quantized activations after every operator, and
//! piecewise-linear sigmoid/tanh — by materializing a quantized copy of
//! the network and stepping its cells in the fixed-point arithmetic.
//!
//! The twin is the model's network by construction, not by mirroring:
//! Eqn. 1 and Eqn. 2 exist once, in
//! [`LstmLayer::step_batch_with`](ernn_model::LstmLayer::step_batch_with)
//! and [`GruLayer::step_batch_with`](ernn_model::GruLayer::step_batch_with),
//! and the loop around them exists once, in
//! [`RnnNetwork::hidden_batch_with`] — the walker that also runs float
//! inference and the training forward. This module supplies the
//! [`CellArith`] they are evaluated in (a [`FixedFormat`] and the PWL
//! units), the GRU input stacks, and its own classifier head.
//! `exec/reference.rs` keeps the per-element datapath and the sequence
//! walker that preceded the shared ones as the bit-for-bit oracle.
//!
//! # Two cores
//!
//! Fig. 10's PEs take independent inputs side by side; a forward over
//! several utterances does the same with the host's second core. Lanes
//! are independent — per-utterance results are bit-identical to walking
//! each alone — so a forward may walk one contiguous part of its lanes on
//! the *lane helper*, the second instance of `ernn_linalg`'s helper
//! protocol (its crate docs, "Two cores"), and the rest on the calling
//! thread, and no output bit depends on where a lane ran. Every entry
//! point splits: [`QuantizedNetwork::forward_logits_batch_into`],
//! `_states_into` and `_in_place`, and so `ernn_serve`'s
//! `CompiledModel::infer_batch_*` and its executors.
//!
//! * **Partitioned from what the forward observes:** at least two lanes,
//!   `Σ frames × Σ p·q` over the network's block-circulant matrices at
//!   least [`LANE_SPLIT_MIN_WORK`], and a second core. No option. Such a
//!   forward is two walks, lanes `0..k` and `k..n`, `k` balancing their
//!   frame counts, each through the one walker
//!   ([`RnnNetwork::hidden_batch_with`]) and the one classifier. A forward
//!   of one lane (the streaming B = 1 path) keeps the matvec's tile split
//!   instead.
//! * **The helpers decide only who walks `k..n`:** the lane helper when
//!   this thread can claim it and the tile helper, else the caller after
//!   its own walk (as when the helper has not started the job in time).
//!   So the bits and the FFT counts below are a function of the batch —
//!   executors that place the same runs differently count alike.
//! * **Checked first:** the whole batch is checked
//!   ([`RnnNetwork::check_batch`]) before either walk, so a bad lane
//!   panics before any state is written, as in one walk.
//! * **No tile posts inside a split:** the forward holds the tile helper
//!   ([`ernn_linalg::claim_tiles`]) while the lane helper has its job, so
//!   neither walk's matvecs post tiles and two cores never serve three
//!   threads.
//! * **The job owns grow-once buffers** — its [`ExecScratch`], the part's
//!   frame rows (which become its logits rows) and its states — and holds
//!   the network as an `Arc` clone, so a warm split forward allocates
//!   nothing on either thread.
//! * **The FFT ledger:** the helper's counts are charged to the caller, so
//!   a split forward counts the one-walk forward and inverse transforms on
//!   the calling thread. Spectrum block reads count one `p·q` pass per
//!   matvec call, and each walk makes its own calls: a split forward reads
//!   `Σ p·q × (T_lo + T_hi)` blocks where one walk reads
//!   `Σ p·q × max(T_lo, T_hi)`, `T_lo` and `T_hi` the longest utterance in
//!   each part — one extra pass per step both walks run, twice the reads
//!   when every lane has the same length.
//!
//! [`lane_split_stats`] counts where the upper walk of every split forward
//! ran.

use ernn_linalg::{
    claim_tiles, BlockCirculantMatrix, Helper, HelperJob, LanePanel, SplitStats, WeightMatrix,
};
use ernn_model::{Act, CellArith, GruInputStack, RnnLayer, RnnNetwork};
use ernn_quant::{FixedFormat, PiecewiseLinear, Quantizer};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

pub use ernn_model::{ExecScratch, NetworkState};

/// The least work, `Σ frames × Σ p·q` block MACs over the network's
/// block-circulant matrices, at which a forward of at least two lanes
/// walks them in two parts, one on the lane helper (see the module docs,
/// "Two cores"). Measured like the tile split's threshold, alternating
/// against the one-walk forward: from 6 240 block MACs up, 17 of 18
/// probed GRU shapes won at least 9 of 10 runs (GRU-512 at 16 lanes won 7,
/// 1.39× in the median); below, three of nine won only 8 (README, "Two
/// cores"). `cluster_tiny`'s GRU-8 runs, a few dozen, stay far below.
pub const LANE_SPLIT_MIN_WORK: usize = 8192;

/// Hardware datapath configuration for functional simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatapathConfig {
    /// Weight word length in bits.
    pub weight_bits: u8,
    /// Activation word length in bits.
    pub activation_bits: u8,
    /// Segments in the PWL sigmoid/tanh units.
    pub pwl_segments: usize,
}

impl DatapathConfig {
    /// The paper's final configuration: 12-bit weights and activations.
    pub fn paper_12bit() -> Self {
        DatapathConfig {
            weight_bits: 12,
            activation_bits: 12,
            pwl_segments: 64,
        }
    }
}

/// Statistics of the weight quantization pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantizationReport {
    /// Worst per-matrix max quantization error.
    pub max_weight_error: f32,
    /// Worst saturation rate across matrices.
    pub max_saturation: f32,
}

fn quantize_weight(m: &WeightMatrix, bits: u8, report: &mut QuantizationReport) -> WeightMatrix {
    match m {
        WeightMatrix::Dense(d) => {
            let fmt = FixedFormat::for_range(bits, d.max_abs().max(1e-6));
            let mut data = d.clone();
            let stats = Quantizer::new(fmt).apply(data.as_mut_slice());
            report.max_weight_error = report.max_weight_error.max(stats.max_abs_error);
            report.max_saturation = report.max_saturation.max(stats.saturation_rate);
            WeightMatrix::Dense(data)
        }
        WeightMatrix::Circulant(c) => {
            let max_abs = c
                .blocks()
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()))
                .max(1e-6);
            let fmt = FixedFormat::for_range(bits, max_abs);
            let mut blocks = c.blocks().to_vec();
            let stats = Quantizer::new(fmt).apply(&mut blocks);
            report.max_weight_error = report.max_weight_error.max(stats.max_abs_error);
            report.max_saturation = report.max_saturation.max(stats.saturation_rate);
            let (rows, cols, lb) = (c.rows(), c.cols(), c.block_size());
            WeightMatrix::Circulant(BlockCirculantMatrix::from_blocks(rows, cols, lb, blocks))
        }
    }
}

/// `p·q` of a block-circulant matrix, 0 for a dense one.
fn blocks(w: &WeightMatrix) -> usize {
    match w {
        WeightMatrix::Circulant(c) => c.grid().0 * c.grid().1,
        WeightMatrix::Dense(_) => 0,
    }
}

fn quantize_vec(v: &[f32], bits: u8) -> Vec<f32> {
    let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs())).max(1e-6);
    let mut q = v.to_vec();
    FixedFormat::for_range(bits, max_abs).quantize_slice(&mut q);
    q
}

/// Each layer's [`GruLayer::input_stack`](ernn_model::GruLayer::input_stack)
/// (`None` for LSTM layers).
fn input_stacks(net: &RnnNetwork<WeightMatrix>) -> Vec<Option<GruInputStack>> {
    net.layers()
        .iter()
        .map(|layer| match layer {
            RnnLayer::Lstm(_) => None,
            RnnLayer::Gru(g) => g.input_stack(),
        })
        .collect()
}

/// The datapath's arithmetic, the second [`CellArith`] next to the model's
/// float one: every sum and product is re-rounded to the activation
/// format `Q`, and sigmoid/tanh are the piecewise-linear units.
struct FixedArith<'a> {
    fmt: FixedFormat,
    sigmoid: &'a PiecewiseLinear,
    tanh: &'a PiecewiseLinear,
}

impl CellArith for FixedArith<'_> {
    /// `pre ← Q((pre + rec) + bias)`.
    #[inline]
    fn accumulate(&self, pre: &mut [f32], rec: &[f32], bias: &[f32]) {
        let width = bias.len();
        for (pre, rec) in pre.chunks_exact_mut(width).zip(rec.chunks_exact(width)) {
            for ((p, rv), b) in pre.iter_mut().zip(rec.iter()).zip(bias.iter()) {
                *p = self.fmt.quantize_f32(*p + rv + b);
            }
        }
    }

    /// `gate ← Q(gate + w ⊙ c)`.
    #[inline]
    fn peephole(&self, gate: &mut [f32], w: &[f32], c: &[f32]) {
        for ((p, w), c) in gate.iter_mut().zip(w.iter()).zip(c.iter()) {
            *p = self.fmt.quantize_f32(*p + w * c);
        }
    }

    #[inline]
    fn activate(&self, act: Act, xs: &mut [f32]) {
        match act {
            Act::Sigmoid => self.sigmoid.eval_slice(xs),
            Act::Tanh => self.tanh.eval_slice(xs),
        }
    }

    #[inline]
    fn round(&self, v: f32) -> f32 {
        self.fmt.quantize_f32(v)
    }
}

/// A network whose weights are quantized and whose activations run through
/// PWL units — the functional twin of the FPGA datapath. Clones share
/// everything a forward reads.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    datapath: Arc<Datapath>,
    /// Quantization statistics gathered while building.
    pub report: QuantizationReport,
}

/// What a [`QuantizedNetwork`]'s forward reads, behind one `Arc` so that
/// the lane helper's job holds the network without copying it.
#[derive(Debug)]
struct Datapath {
    net: RnnNetwork<WeightMatrix>,
    /// Lane-major copy of `net.classifier_w` the datapath computes the
    /// logits from — derived state like the weight spectra.
    classifier_panel: LanePanel,
    /// Per layer, a GRU's `[wzr_x; wcx]` stacked as one operand so a step
    /// of [`QuantizedNetwork::forward_logits_batch_in_place`] projects
    /// `x_t` with one kernel call — derived from `net` like the panel,
    /// never serialized. `None` for an LSTM layer (its single `wx` already
    /// is one) and for a GRU whose pair cannot stack.
    input_stacks: Vec<Option<GruInputStack>>,
    activation_format: FixedFormat,
    sigmoid: PiecewiseLinear,
    tanh: PiecewiseLinear,
    /// `Σ p·q` over `net`'s block-circulant matrices: block MACs per frame,
    /// the work measure of the lane split.
    block_macs: usize,
}

impl QuantizedNetwork {
    /// Quantizes a compressed network for the given datapath: one
    /// [`RnnNetwork::map`] over its tensors in list order, each weight
    /// matrix and each vector to a word-length format fitted to its own
    /// range, the dense classifier likewise.
    pub fn new(net: &RnnNetwork<WeightMatrix>, config: &DatapathConfig) -> Self {
        let mut report = QuantizationReport::default();
        let bits = config.weight_bits;

        let quantized = net.map(
            |_, _, w| quantize_weight(w, bits, &mut report),
            |v| quantize_vec(v, bits),
            |w| {
                let mut q = w.clone();
                let fmt = FixedFormat::for_range(bits, q.max_abs().max(1e-6));
                Quantizer::new(fmt).apply(q.as_mut_slice());
                q
            },
        );
        Self::from_quantized(quantized, config, report)
    }

    /// Rebuilds the functional twin around weights that are **already
    /// quantized** for `config` — the artifact-loading path
    /// ([`crate::artifact::ModelArtifact`]), and the tail of [`Self::new`]:
    /// no quantization pass runs, the PWL units, the activation format and
    /// the derived operands (classifier panel, GRU input stacks) are built
    /// from `config` and `net`, and `report` restores the statistics
    /// recorded when the weights were first quantized. Feeding
    /// weights quantized for a *different* datapath silently produces a
    /// network that disagrees with the hardware; callers own that
    /// invariant.
    pub fn from_quantized(
        net: RnnNetwork<WeightMatrix>,
        config: &DatapathConfig,
        report: QuantizationReport,
    ) -> Self {
        let block_macs = net
            .weight_matrices()
            .into_iter()
            .map(|(_, _, w)| blocks(w))
            .sum();
        let datapath = Datapath {
            classifier_panel: LanePanel::from_matrix(&net.classifier_w),
            input_stacks: input_stacks(&net),
            net,
            // Activations in RNNs live in (−8, 8) comfortably. `for_range`
            // wants `max_abs < 2^int`, and 8 is not below 2³, so this is
            // four integer bits: Q4.7 at 12 bits, range ±16 — the format
            // every committed logit was computed in.
            activation_format: FixedFormat::for_range(config.activation_bits, 8.0),
            sigmoid: PiecewiseLinear::sigmoid(config.pwl_segments),
            tanh: PiecewiseLinear::tanh(config.pwl_segments),
            block_macs,
        };
        QuantizedNetwork {
            datapath: Arc::new(datapath),
            report,
        }
    }

    /// Computes the weight spectra that no read has yet (neither
    /// constructor computes any) of every block-circulant operand a forward
    /// reads — the network's matrices in list order, then each GRU layer's
    /// stacked input — and returns their block count `Σ p·q`.
    pub fn cache_spectra(&self) -> usize {
        let d = &*self.datapath;
        let matrices = d.net.weight_matrices().into_iter().map(|(_, _, w)| w);
        let stacks = d.input_stacks.iter().flatten().map(GruInputStack::weights);
        let cache = |w: &WeightMatrix| {
            if let WeightMatrix::Circulant(c) = w {
                c.cache_spectra();
            }
            blocks(w)
        };
        matrices.chain(stacks).map(cache).sum()
    }

    /// The quantized network (weights only; activation handling lives in
    /// [`Self::forward_logits`]).
    pub fn network(&self) -> &RnnNetwork<WeightMatrix> {
        &self.datapath.net
    }

    /// A zero-initialized [`NetworkState`] sized for this network — the
    /// state of a streaming session before its first chunk.
    pub fn fresh_state(&self) -> NetworkState {
        self.datapath.net.fresh_state()
    }

    /// On-device footprint of one session's [`NetworkState`] in bytes, at
    /// the datapath's activation word length (each state element is one
    /// activation word, rounded up to whole bytes).
    pub fn state_bytes(&self) -> u64 {
        let word = self.datapath.activation_format.word_bits().div_ceil(8) as u64;
        let elems: u64 = self
            .datapath
            .net
            .layers()
            .iter()
            .map(|layer| {
                let (h, r) = layer.state_dims();
                (h + r) as u64
            })
            .sum();
        elems * word
    }

    /// Forward pass the way the hardware computes it: quantized inputs,
    /// quantized intermediate vectors after every matvec/point-wise
    /// operator, and piecewise-linear sigmoid/tanh units.
    ///
    /// Thin wrapper over the batched, scratch-threaded kernel
    /// ([`Self::forward_logits_batch_into`]) with a batch of one and a
    /// throwaway scratch; results are bit-identical to every other entry
    /// point by construction.
    pub fn forward_logits(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.forward_logits_batch_into(&[frames], &mut out, &mut ExecScratch::new());
        out.pop().expect("one sequence in, one sequence out")
    }

    /// The quantized-datapath kernel: runs `utterances` in lockstep so
    /// every cell matvec fuses across the batch (block-circulant weights
    /// stream their cached spectra once per batch), writing framewise
    /// logits per utterance into `out` (shape-reusing: steady-state calls
    /// with unchanged shapes allocate nothing at all). Sequences may have
    /// unequal lengths. Per-utterance results are bit-identical to
    /// single-utterance execution — batching changes *when* work happens,
    /// never *what* is computed. A batch large enough runs part of its
    /// lanes on the second core (see the module docs, "Two cores"), with
    /// the same bits.
    ///
    /// This entry point multiplies by the weight matrices exactly as
    /// [`Self::network`] stores them, one kernel call and one set of
    /// input-block FFTs per matrix: `benchmark/`'s ledger derives the
    /// expected transform count from those matrices and checks it against
    /// [`ernn_fft::stats`] around this call. The served path,
    /// [`Self::forward_logits_batch_in_place`], shares a GRU step's
    /// `FFT(x_t)` between `wzr_x` and `wcx`; the logits are the same bits.
    ///
    /// # Panics
    ///
    /// Panics if any frame's dimension disagrees with the model.
    pub fn forward_logits_batch_into(
        &self,
        utterances: &[&[Vec<f32>]],
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut ExecScratch,
    ) {
        self.forward_batch_into(utterances, None, out, scratch);
    }

    /// [`Self::forward_logits_batch_into`] with per-lane recurrent state:
    /// lane `s` starts from `states[s]` (a fresh state behaves exactly
    /// like the stateless kernel) and, on return, `states[s]` holds the
    /// state after the lane's final frame, ready for the session's next
    /// chunk. `None` lanes run stateless (zero initial state, nothing
    /// written back), so mixed batches of streaming chunks and whole
    /// utterances fuse into one lockstep pass.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != utterances.len()`, if a state's shape
    /// disagrees with the network, or on a frame-dimension mismatch.
    pub fn forward_logits_batch_states_into(
        &self,
        utterances: &[&[Vec<f32>]],
        states: &mut [Option<NetworkState>],
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut ExecScratch,
    ) {
        self.forward_batch_into(utterances, Some(states), out, scratch);
    }

    /// The kernel in place: each utterance's frame buffer becomes its
    /// logits buffer. On return `utterances[s][t]` holds the logits of
    /// what was frame `t` of utterance `s` (the frames were copied,
    /// quantized, into `scratch` before the first layer ran, so nothing
    /// reads them afterwards). A row is reused when its capacity holds the
    /// class count and replaced by an exactly-sized one otherwise, so a
    /// request whose feature dimension is at least the class count is
    /// answered without allocating. A GRU step projects `x_t` through the
    /// layer's stacked `[wzr_x; wcx]` operand — one kernel call and one
    /// `FFT(x_t)` for the gate and the candidate matrices, as in the
    /// paper's PE — where the `_into` kernels make two. `states` as in
    /// [`Self::forward_logits_batch_states_into`]; `None` runs every lane
    /// stateless. Bit-identical to the `_into` kernels.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_logits_batch_states_into`].
    pub fn forward_logits_batch_in_place(
        &self,
        utterances: &mut [Vec<Vec<f32>>],
        states: Option<&mut [Option<NetworkState>]>,
        scratch: &mut ExecScratch,
    ) {
        self.forward_lanes(Lanes::InPlace(utterances), states, scratch);
    }

    /// The `_into` kernels: `out` shaped like `utterances`, then the lanes.
    fn forward_batch_into(
        &self,
        utterances: &[&[Vec<f32>]],
        states: Option<&mut [Option<NetworkState>]>,
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut ExecScratch,
    ) {
        out.resize_with(utterances.len(), Vec::new);
        for (seq, u) in out.iter_mut().zip(utterances) {
            seq.resize_with(u.len(), Vec::new);
        }
        let lanes = Lanes::Into {
            frames: utterances,
            out,
        };
        self.forward_lanes(lanes, states, scratch);
    }

    /// Every entry point's forward: split across the two cores when the
    /// batch qualifies (see the module docs, "Two cores"), else on this
    /// thread.
    fn forward_lanes(
        &self,
        mut lanes: Lanes<'_, '_>,
        states: Option<&mut [Option<NetworkState>]>,
        scratch: &mut ExecScratch,
    ) {
        let n = lanes.len();
        if n >= 2 && self.lane_work(&lanes) >= LANE_SPLIT_MIN_WORK {
            if let Some(helper) = lane_helper() {
                return self.forward_split(helper, lanes, states, scratch);
            }
        }
        lanes.run(self, 0..n, states, scratch);
    }

    /// `Σ frames × Σ p·q`: the block MACs of a forward over `lanes`.
    fn lane_work(&self, lanes: &Lanes<'_, '_>) -> usize {
        let frames: usize = (0..lanes.len()).map(|s| lanes.frames(s).len()).sum();
        frames * self.datapath.block_macs
    }

    /// The forward in two walks, lanes `0..k` and `k..n`, `k` balancing
    /// their frame counts. The caller walks and classifies lanes `0..k`
    /// while `helper` runs lanes `k..n` when this thread can claim it and
    /// the tile helper; the caller then copies the helper's logits and
    /// states in — or walks lanes `k..n` itself, when the helper was not
    /// free or had not started them or not finished them in time. Either
    /// way the bits and the FFT counts are those of the two walks.
    fn forward_split(
        &self,
        helper: &Helper<LaneJob>,
        mut lanes: Lanes<'_, '_>,
        mut states: Option<&mut [Option<NetworkState>]>,
        scratch: &mut ExecScratch,
    ) {
        let n = lanes.len();
        let frames = (0..n).map(|s| lanes.frames(s));
        self.datapath.net.check_batch(frames, states.as_deref());
        let k = balanced_split((0..n).map(|s| lanes.frames(s).len()));
        let claims = claim_tiles().and_then(|tiles| Some((tiles, helper.try_claim()?)));
        let mut posted = claims.map(|(tiles, mut claim)| {
            claim.post(|job| job.load(self, &lanes, k..n, states.as_deref()));
            (tiles, claim)
        });
        let (lo, hi) = match states.take() {
            Some(states) => {
                let (lo, hi) = states.split_at_mut(k);
                (Some(lo), Some(hi))
            }
            None => (None, None),
        };
        lanes.run(self, 0..k, lo, scratch);
        if let Some(mut job) = posted.as_mut().and_then(|(_, claim)| claim.collect()) {
            return job.unload(&mut lanes, k, hi);
        }
        // Both helpers free again for the second walk's matvecs.
        drop(posted);
        lanes.run(self, k..n, hi, scratch);
    }

    /// The arithmetic the network's sequence walker is evaluated in here.
    fn arith(&self) -> FixedArith<'_> {
        let d = &self.datapath;
        FixedArith {
            fmt: d.activation_format,
            sigmoid: &d.sigmoid,
            tanh: &d.tanh,
        }
    }

    /// The walker over `frames` ([`RnnNetwork::hidden_batch_with`]),
    /// leaving the top layer's activations in `scratch`. `stacked`: a GRU
    /// step projects `x_t` through its layer's input stack (the in-place
    /// kernel), else through its two matrices (the `_into` kernels).
    fn walk<'u>(
        &self,
        frames: impl ExactSizeIterator<Item = &'u [Vec<f32>]> + Clone,
        states: Option<&mut [Option<NetworkState>]>,
        stacked: bool,
        scratch: &mut ExecScratch,
    ) {
        let d = &*self.datapath;
        let stacks = if stacked { &d.input_stacks[..] } else { &[] };
        d.net
            .hidden_batch_with(&self.arith(), frames, states, stacks, scratch, None);
    }

    /// The classifier head over the activations the walker left in
    /// `scratch`, one logits row per frame into `rows`, which already
    /// follow the batch's frames (they hold anything — stale logits, the
    /// frames themselves, nothing).
    fn classify_into<'r>(
        &self,
        rows: impl Iterator<Item = &'r mut Vec<f32>>,
        scratch: &ExecScratch,
    ) {
        let d = &*self.datapath;
        let fmt = d.activation_format;
        let top_dim = d.net.classifier_w.cols();
        let classes = d.net.classifier_b.len();
        let mut hidden = scratch.outputs().chunks_exact(top_dim);
        for row in rows {
            let h = hidden.next().expect("one activation row per frame");
            let row = fit(row, classes);
            d.classifier_panel.matvec_into(h, row);
            for (v, b) in row.iter_mut().zip(d.net.classifier_b.iter()) {
                *v = fmt.quantize_f32(*v + b);
            }
        }
    }
}

/// `row` made `len` long: its buffer reused when it holds `len`, else
/// replaced by an exactly-sized one (not `resize`: growing a 39-wide row
/// to 40 classes would double it).
fn fit(row: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if row.capacity() < len {
        *row = vec![0.0; len];
    } else {
        row.resize(len, 0.0);
    }
    row
}

/// The `k` in `1..n` that splits lanes `0..k` / `k..n` most evenly by
/// frame count (the first such `k` on a tie).
fn balanced_split(lens: impl ExactSizeIterator<Item = usize> + Clone) -> usize {
    let total: usize = lens.clone().sum();
    let n = lens.len();
    let mut prefix = 0;
    let mut best = (usize::MAX, 1);
    for (k, len) in (1..n).zip(lens) {
        prefix += len;
        let gap = (2 * prefix).abs_diff(total);
        if gap < best.0 {
            best = (gap, k);
        }
    }
    best.1
}

/// A forward's lanes: where lane `s` reads its frames and where its logits
/// go.
enum Lanes<'a, 'u> {
    /// The `_into` kernels: frames borrowed, logits into `out`, already
    /// shaped like them.
    Into {
        frames: &'a [&'u [Vec<f32>]],
        out: &'a mut [Vec<Vec<f32>>],
    },
    /// The in-place kernel: each utterance's frame rows become its logits
    /// rows.
    InPlace(&'a mut [Vec<Vec<f32>>]),
}

impl Lanes<'_, '_> {
    fn len(&self) -> usize {
        match self {
            Lanes::Into { frames, .. } => frames.len(),
            Lanes::InPlace(utterances) => utterances.len(),
        }
    }

    fn frames(&self, s: usize) -> &[Vec<f32>] {
        match self {
            Lanes::Into { frames, .. } => frames[s],
            Lanes::InPlace(utterances) => &utterances[s],
        }
    }

    /// Lane `s`'s logits rows, one per frame.
    fn logits_mut(&mut self, s: usize) -> &mut [Vec<f32>] {
        match self {
            Lanes::Into { out, .. } => &mut out[s],
            Lanes::InPlace(utterances) => &mut utterances[s],
        }
    }

    /// A GRU step projects `x_t` through its input stack (see
    /// [`QuantizedNetwork::walk`]).
    fn stacked(&self) -> bool {
        matches!(self, Lanes::InPlace(_))
    }

    /// Lanes `range` walked and classified on this thread, `states` theirs.
    fn run(
        &mut self,
        net: &QuantizedNetwork,
        range: Range<usize>,
        states: Option<&mut [Option<NetworkState>]>,
        scratch: &mut ExecScratch,
    ) {
        match self {
            Lanes::Into { frames, out } => {
                net.walk(
                    frames[range.clone()].iter().copied(),
                    states,
                    false,
                    scratch,
                );
                net.classify_into(out[range].iter_mut().flatten(), scratch);
            }
            Lanes::InPlace(utterances) => {
                let frames = utterances[range.clone()].iter().map(Vec::as_slice);
                net.walk(frames, states, true, scratch);
                net.classify_into(utterances[range].iter_mut().flatten(), scratch);
            }
        }
    }
}

/// Lanes of a forward delegated to the lane helper. Every buffer is
/// grow-once: rows and states beyond the current job keep their
/// allocations for the next.
#[derive(Debug, Default)]
struct LaneJob {
    /// The network: a clone, which shares it.
    net: Option<QuantizedNetwork>,
    /// As [`Lanes::stacked`].
    stacked: bool,
    /// Per lane of the job, its frames in and its logits out: the first
    /// `lens[i]` rows of `rows[i]`.
    rows: Vec<Vec<Vec<f32>>>,
    lens: Vec<usize>,
    /// Per lane, its state in and out, when the forward carries states.
    states: Vec<Option<NetworkState>>,
    stateful: bool,
    scratch: ExecScratch,
}

impl LaneJob {
    /// Loads lanes `range` of `lanes` (and of `states`) for `net`, on the
    /// caller: every buffer the helper writes is grown here.
    fn load(
        &mut self,
        net: &QuantizedNetwork,
        lanes: &Lanes<'_, '_>,
        range: Range<usize>,
        states: Option<&[Option<NetworkState>]>,
    ) {
        let m = range.len();
        if self.rows.len() < m {
            self.rows.resize_with(m, Vec::new);
            self.states.resize_with(m, || None);
        }
        self.lens.clear();
        for (rows, s) in self.rows.iter_mut().zip(range.clone()) {
            let frames = lanes.frames(s);
            if rows.len() < frames.len() {
                rows.resize_with(frames.len(), Vec::new);
            }
            for (row, frame) in rows.iter_mut().zip(frames) {
                row.clear();
                row.extend_from_slice(frame);
            }
            self.lens.push(frames.len());
        }
        self.stateful = states.is_some();
        if let Some(states) = states {
            for (mine, theirs) in self.states.iter_mut().zip(&states[range]) {
                mine.clone_from(theirs);
            }
        }
        self.net = Some(net.clone());
        self.stacked = lanes.stacked();
    }

    /// Hands the finished lanes back from `k` on: logits into their rows,
    /// states swapped into `states` (the job keeps the old buffers).
    fn unload(
        &mut self,
        lanes: &mut Lanes<'_, '_>,
        k: usize,
        states: Option<&mut [Option<NetworkState>]>,
    ) {
        for (i, (rows, &len)) in self.rows.iter().zip(&self.lens).enumerate() {
            for (dst, src) in lanes.logits_mut(k + i).iter_mut().zip(&rows[..len]) {
                fit(dst, src.len()).copy_from_slice(src);
            }
        }
        if let Some(states) = states {
            for (theirs, mine) in states.iter_mut().zip(&mut self.states) {
                std::mem::swap(theirs, mine);
            }
        }
    }
}

impl HelperJob for LaneJob {
    fn run(&mut self) {
        let LaneJob {
            net,
            stacked,
            rows,
            lens,
            states,
            stateful,
            scratch,
        } = self;
        let net = net.as_ref().expect("a posted job holds its network");
        let frames = rows.iter().zip(&*lens).map(|(rows, &len)| &rows[..len]);
        let states = stateful.then_some(&mut states[..lens.len()]);
        net.walk(frames, states, *stacked, scratch);
        let rows = rows
            .iter_mut()
            .zip(&*lens)
            .flat_map(|(rows, &len)| &mut rows[..len]);
        net.classify_into(rows, scratch);
    }

    fn release(&mut self) {
        self.net = None;
    }
}

static LANE_HELPER: OnceLock<Option<&'static Helper<LaneJob>>> = OnceLock::new();

/// The process-wide lane helper: started by the first forward large enough
/// to split, `None` when the machine has one core.
fn lane_helper() -> Option<&'static Helper<LaneJob>> {
    Helper::process(&LANE_HELPER, "ernn-lane-helper")
}

/// The lane helper's [`SplitStats`] (see the module docs, "Two cores"):
/// all zero until a forward large enough to split has run, and forever on
/// a one-core machine. A split-size forward that found the tile helper
/// claimed counts in [`ernn_linalg::split_stats`] instead.
pub fn lane_split_stats() -> SplitStats {
    let helper = LANE_HELPER.get().copied().flatten();
    helper.map_or_else(SplitStats::default, Helper::stats)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use rand::SeedableRng;

    fn compressed_net(cell: CellType) -> RnnNetwork<WeightMatrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let dense = ModelSpec::new(cell, 8, 5)
            .layer_dims(&[16])
            .peephole(true)
            .build(&mut rng);
        compress_network(&dense, BlockPolicy::uniform(4))
    }

    #[test]
    fn twelve_bit_outputs_stay_close_to_float() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = compressed_net(cell);
            let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
            let frames = vec![vec![0.25f32; 8]; 6];
            let float_logits = net.forward_logits(&frames);
            let fixed_logits = q.forward_logits(&frames);
            for (a, b) in float_logits
                .iter()
                .flatten()
                .zip(fixed_logits.iter().flatten())
            {
                assert!((a - b).abs() < 0.05, "{cell}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn paper_datapath_activations_are_q4_7() {
        // `for_range(12, 8.0)` needs `8 < 2^int`, so four integer bits and
        // seven fractional ones — not the Q3.8 the range (−8, 8) suggests.
        // Every committed logit and baseline was computed in this format.
        let config = DatapathConfig::paper_12bit();
        let built = QuantizedNetwork::new(&compressed_net(CellType::Gru), &config);
        assert_eq!(built.datapath.activation_format, FixedFormat::new(12, 7));
        assert_eq!(built.datapath.activation_format.to_string(), "Q4.7 (12b)");
        let loaded =
            QuantizedNetwork::from_quantized(built.datapath.net.clone(), &config, built.report);
        assert_eq!(
            loaded.datapath.activation_format,
            built.datapath.activation_format
        );
    }

    #[test]
    fn both_constructors_derive_the_classifier_panel_from_classifier_w() {
        let config = DatapathConfig::paper_12bit();
        let built = QuantizedNetwork::new(&compressed_net(CellType::Gru), &config);
        let panel = LanePanel::from_matrix(&built.network().classifier_w);
        assert_eq!(built.datapath.classifier_panel, panel);
        let loaded =
            QuantizedNetwork::from_quantized(built.datapath.net.clone(), &config, built.report);
        assert_eq!(loaded.datapath.classifier_panel, panel);
        let frames = vec![vec![0.25f32; 8]; 3];
        assert_eq!(
            loaded.forward_logits(&frames),
            built.forward_logits(&frames)
        );
    }

    #[test]
    fn both_constructors_derive_the_input_stacks_from_the_quantized_gru_pairs() {
        let config = DatapathConfig::paper_12bit();
        let built = QuantizedNetwork::new(&compressed_net(CellType::Gru), &config);
        let RnnLayer::Gru(g) = &built.network().layers()[0] else {
            unreachable!("built as a GRU");
        };
        assert_eq!(built.datapath.input_stacks, vec![g.input_stack()]);
        assert!(built.datapath.input_stacks[0].is_some());
        let loaded =
            QuantizedNetwork::from_quantized(built.datapath.net.clone(), &config, built.report);
        assert_eq!(loaded.datapath.input_stacks, built.datapath.input_stacks);
        // An LSTM's single `wx` already takes `x_t` once.
        let lstm = QuantizedNetwork::new(&compressed_net(CellType::Lstm), &config);
        assert_eq!(lstm.datapath.input_stacks, vec![None]);
    }

    /// A GRU batch's logits and final states, for comparing datapaths.
    fn run_stateful(
        q: &QuantizedNetwork,
        refs: &[&[Vec<f32>]],
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Option<NetworkState>>) {
        let mut states: Vec<_> = refs.iter().map(|_| Some(q.fresh_state())).collect();
        let mut out = Vec::new();
        q.forward_logits_batch_states_into(refs, &mut states, &mut out, &mut ExecScratch::new());
        (out, states)
    }

    /// The in-place kernel (one stacked x-side call per GRU step) against
    /// the `_into` kernel (the layer's own two), in bits: logits, final
    /// states, and the forward transforms the stack saves.
    #[test]
    fn stacked_projection_is_bit_identical_to_the_two_call_projection() {
        use rand::Rng;
        let policies = [
            BlockPolicy::uniform(1),
            BlockPolicy::uniform(4),
            BlockPolicy::with_io_block(4, 8),
            BlockPolicy::with_io_block(8, 16),
        ];
        // 2H and H on and off the block boundaries; two layers, so the
        // second projects a hidden-wide input; 256 spans three lane tiles.
        for (in_dim, hidden) in [(8, 8), (12, 20), (7, 5), (12, 13), (153, 256)] {
            for policy in policies {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
                let dense = ModelSpec::new(CellType::Gru, in_dim, 5)
                    .layer_dims(&[hidden, hidden])
                    .build(&mut rng);
                let net = compress_network(&dense, policy);
                let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
                assert!(q.datapath.input_stacks.iter().all(Option::is_some));
                q.cache_spectra();
                // Ragged lengths: the active set shrinks to a tail of one.
                let utts: Vec<Vec<Vec<f32>>> = (0..5)
                    .map(|s| {
                        (0..1 + s * 2)
                            .map(|_| (0..in_dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
                let what = format!("I={in_dim} H={hidden} {policy:?}");

                let before = ernn_fft::stats::thread_snapshot();
                let (want, want_states) = run_stateful(&q, &refs);
                let two_calls = ernn_fft::stats::thread_snapshot().since(&before);
                let mut got = utts.clone();
                let mut got_states: Vec<_> = refs.iter().map(|_| Some(q.fresh_state())).collect();
                let mut scratch = ExecScratch::new();
                let before = ernn_fft::stats::thread_snapshot();
                q.forward_logits_batch_in_place(&mut got, Some(&mut got_states), &mut scratch);
                let one_call = ernn_fft::stats::thread_snapshot().since(&before);

                let bits = |rows: &[Vec<Vec<f32>>]| -> Vec<u32> {
                    rows.iter()
                        .flatten()
                        .flatten()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "{what}");
                assert_eq!(got_states, want_states, "{what}");
                // Per frame and layer the stack saves `wcx`'s input-block
                // FFTs; block reads and inverse transforms are the same.
                let frames: u64 = utts.iter().map(|u| u.len() as u64).sum();
                let saved = if policy.input > 1 {
                    frames * (in_dim.div_ceil(policy.input) + hidden.div_ceil(policy.input)) as u64
                } else {
                    0
                };
                assert_eq!(
                    two_calls.forward_transforms - one_call.forward_transforms,
                    saved,
                    "{what}"
                );
                assert_eq!(
                    (one_call.inverse_transforms, one_call.spectrum_block_reads),
                    (two_calls.inverse_transforms, two_calls.spectrum_block_reads),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn in_place_forward_turns_frame_rows_into_the_same_logits() {
        use rand::Rng;
        for (cell, in_dim, classes) in [(CellType::Gru, 8, 5), (CellType::Lstm, 6, 9)] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(37);
            let dense = ModelSpec::new(cell, in_dim, classes)
                .layer_dims(&[16])
                .build(&mut rng);
            let net = compress_network(&dense, BlockPolicy::uniform(4));
            let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
            let utts: Vec<Vec<Vec<f32>>> = (0..4)
                .map(|s| {
                    (0..2 + s * 3)
                        .map(|_| (0..in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                        .collect()
                })
                .collect();
            let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
            let (want, want_states) = run_stateful(&q, &refs);

            let mut in_place = utts.clone();
            let rows_before: Vec<*const f32> =
                in_place.iter().flatten().map(|row| row.as_ptr()).collect();
            let mut states: Vec<_> = refs.iter().map(|_| Some(q.fresh_state())).collect();
            let mut scratch = ExecScratch::new();
            q.forward_logits_batch_in_place(&mut in_place, Some(&mut states), &mut scratch);
            assert_eq!(in_place, want, "{cell}: in place != _into");
            assert_eq!(states, want_states, "{cell}: states");
            // A frame row that holds the class count is the logits row;
            // a narrower one is replaced by an exactly-sized row.
            for (row, before) in in_place.iter().flatten().zip(rows_before) {
                if in_dim >= classes {
                    assert_eq!(row.as_ptr(), before, "{cell}: row was reallocated");
                } else {
                    assert_eq!(row.capacity(), classes, "{cell}: row is over-sized");
                }
            }
            // Stateless, on the now logits-shaped rows of another batch.
            let mut again = utts.clone();
            q.forward_logits_batch_in_place(&mut again, None, &mut scratch);
            let mut stateless = Vec::new();
            q.forward_logits_batch_into(&refs, &mut stateless, &mut scratch);
            assert_eq!(again, stateless, "{cell}: stateless in place");
        }
    }

    #[test]
    fn argmax_decisions_survive_quantization() {
        // The paper's claim: 12-bit quantization costs <0.1% accuracy. On
        // a random network, the framewise argmax should rarely flip.
        let net = compressed_net(CellType::Gru);
        let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        use rand::Rng;
        let mut flips = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let frames: Vec<Vec<f32>> = (0..10)
                .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let a = net.forward_logits(&frames);
            let b = q.forward_logits(&frames);
            for (x, y) in a.iter().zip(b.iter()) {
                total += 1;
                if ernn_linalg::ops::argmax(x) != ernn_linalg::ops::argmax(y) {
                    flips += 1;
                }
            }
        }
        // Untrained random networks have near-tied logits, the hardest
        // case for argmax stability; trained networks separate classes
        // far more. Allow 5% here; the corpus-level check lives in the
        // Phase-II quantization scan.
        assert!(
            (flips as f64) < 0.05 * total as f64,
            "{flips}/{total} argmax flips at 12 bits"
        );
    }

    #[test]
    fn fewer_bits_means_more_error() {
        let net = compressed_net(CellType::Lstm);
        let frames = vec![vec![0.3f32; 8]; 5];
        let float_logits = net.forward_logits(&frames);
        let err_at = |bits: u8| {
            let cfg = DatapathConfig {
                weight_bits: bits,
                activation_bits: bits,
                pwl_segments: 64,
            };
            let q = QuantizedNetwork::new(&net, &cfg);
            let logits = q.forward_logits(&frames);
            logits
                .iter()
                .flatten()
                .zip(float_logits.iter().flatten())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err_at(8) > err_at(12));
        assert!(err_at(12) >= err_at(16) - 1e-6);
    }

    #[test]
    fn batched_forward_is_bit_identical_to_sequential() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = compressed_net(cell);
            let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
            use rand::Rng;
            // Ragged utterance lengths exercise the shrinking active set.
            let utts: Vec<Vec<Vec<f32>>> = (0..5)
                .map(|s| {
                    (0..2 + s * 3)
                        .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                        .collect()
                })
                .collect();
            let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
            let mut scratch = ExecScratch::new();
            let mut batched = Vec::new();
            q.forward_logits_batch_into(&refs, &mut batched, &mut scratch);
            let mut single = Vec::new();
            for (s, utt) in utts.iter().enumerate() {
                assert_eq!(batched[s], q.forward_logits(utt), "{cell} utterance {s}");
                // Scratch reuse across calls changes nothing either.
                q.forward_logits_batch_into(&[utt.as_slice()], &mut single, &mut scratch);
                assert_eq!(batched[s], single[0], "{cell} scratch reuse, utterance {s}");
            }
        }
    }

    #[test]
    fn chunked_stateful_forward_matches_whole_utterance() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = compressed_net(cell);
            let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
            use rand::Rng;
            let utt: Vec<Vec<f32>> = (0..13)
                .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            let whole = q.forward_logits(&utt);
            // Uneven chunk sizes, state carried across every boundary.
            let mut scratch = ExecScratch::new();
            let mut states = vec![Some(q.fresh_state())];
            let mut got: Vec<Vec<f32>> = Vec::new();
            for chunk in [&utt[..4], &utt[4..5], &utt[5..11], &utt[11..]] {
                let mut out = Vec::new();
                q.forward_logits_batch_states_into(&[chunk], &mut states, &mut out, &mut scratch);
                got.extend(out.pop().expect("one lane out"));
            }
            assert_eq!(got, whole, "{cell}: chunked != whole");
        }
    }

    #[test]
    fn fresh_state_lane_matches_stateless_lane_in_a_mixed_batch() {
        let net = compressed_net(CellType::Lstm);
        let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        use rand::Rng;
        let utts: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|s| {
                (0..4 + s)
                    .map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
        let mut stateless = Vec::new();
        q.forward_logits_batch_into(&refs, &mut stateless, &mut ExecScratch::new());
        // Middle lane stateful, outer lanes stateless: identical logits,
        // and only the stateful lane's state is written back.
        let mut states = vec![None, Some(q.fresh_state()), None];
        let mut out = Vec::new();
        q.forward_logits_batch_states_into(&refs, &mut states, &mut out, &mut ExecScratch::new());
        assert_eq!(out, stateless);
        assert!(states[0].is_none() && states[2].is_none());
        let advanced = states[1].take().expect("state written back");
        assert_ne!(advanced, q.fresh_state(), "state should have advanced");
    }

    #[test]
    fn a_state_of_another_shape_is_rejected_before_any_lane_is_written() {
        let config = DatapathConfig::paper_12bit();
        let build = |hidden: &[usize]| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
            let dense = ModelSpec::new(CellType::Gru, 8, 5)
                .layer_dims(hidden)
                .build(&mut rng);
            QuantizedNetwork::new(&compress_network(&dense, BlockPolicy::uniform(4)), &config)
        };
        let q = build(&[16, 16]);
        // Right in layer 0, so a check made layer by layer would have
        // written lane 0's layer-0 state before meeting lane 1's layer 1.
        let narrower_on_top = build(&[16, 8]).fresh_state();
        let utt = vec![vec![0.25f32; 8]; 3];
        let refs = [utt.as_slice(), utt.as_slice()];
        let mut states = vec![Some(q.fresh_state()), Some(narrower_on_top.clone())];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut out, mut scratch) = (Vec::new(), ExecScratch::new());
            q.forward_logits_batch_states_into(&refs, &mut states, &mut out, &mut scratch);
        }))
        .expect_err("a state from another model must be rejected");
        let why = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            why.contains("lane 1:")
                && why.contains("[(16, 0), (8, 0)], the network [(16, 0), (16, 0)]"),
            "{why}"
        );
        assert_eq!(states, [Some(q.fresh_state()), Some(narrower_on_top)]);
    }

    #[test]
    fn state_bytes_counts_activation_words() {
        let net = compressed_net(CellType::Gru);
        let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
        // One GRU layer of hidden 16 at 12-bit activations → 16 × 2 bytes.
        assert_eq!(q.state_bytes(), 32);
        assert_eq!(q.fresh_state().num_elements(), 16);
    }

    #[test]
    fn quantization_report_is_populated() {
        let net = compressed_net(CellType::Lstm);
        let q = QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit());
        assert!(q.report.max_weight_error > 0.0);
        assert!(q.report.max_weight_error < 0.01);
    }

    #[test]
    fn quantization_visits_the_list_in_order() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let config = DatapathConfig::paper_12bit();
        let policy = BlockPolicy {
            recurrent: 4,
            input: 8,
            output: 1,
        };
        for cell in [CellType::Lstm, CellType::Gru] {
            let dense = ModelSpec::new(cell, 8, 5)
                .layer_dims(&[16, 16])
                .peephole(true)
                .projection(8)
                .build(&mut rng);
            let net = compress_network(&dense, policy);
            // Quantizing runs no FFT: the quantized matrices are new
            // values whose spectra wait for their first read.
            let before = ernn_fft::stats::thread_snapshot();
            let q = QuantizedNetwork::new(&net, &config);
            let ffts = |since| {
                ernn_fft::stats::thread_snapshot()
                    .since(since)
                    .forward_transforms
            };
            assert_eq!(ffts(&before), 0, "{cell}");
            let (listed, quantized) = (net.weight_matrices(), q.network().weight_matrices());
            assert_eq!(listed.len(), quantized.len(), "{cell}");
            let mut report = QuantizationReport::default();
            let mut listed_blocks = 0;
            for ((li, role, w), (qli, qrole, qw)) in listed.into_iter().zip(quantized) {
                assert_eq!((qli, qrole), (li, role), "{cell}");
                assert_eq!(*qw, quantize_weight(w, config.weight_bits, &mut report));
                listed_blocks += blocks(qw);
            }
            assert_eq!(q.report, report, "{cell}");
            // Caching FFTs each block of the list and of the GRU stacks
            // once, and never again.
            let stacks = q.datapath.input_stacks.iter().flatten();
            let stacked: usize = stacks.map(|s| blocks(s.weights())).sum();
            assert_eq!(stacked > 0, cell == CellType::Gru, "{cell}");
            let all = listed_blocks + stacked;
            let before = ernn_fft::stats::thread_snapshot();
            assert_eq!(q.cache_spectra(), all, "{cell}");
            assert_eq!(ffts(&before), all as u64, "{cell}");
            let before = ernn_fft::stats::thread_snapshot();
            assert_eq!(q.cache_spectra(), all, "{cell}");
            assert_eq!(ffts(&before), 0, "{cell}");
            let bias = quantize_vec(&net.classifier_b, config.weight_bits);
            assert_eq!(q.network().classifier_b, bias, "{cell}");
        }
    }

    /// A small two-layer network of `cell` (8 features, 5 classes,
    /// hidden 16, `L_b = 4`; a GRU's layers stack their input pairs), its
    /// spectra cached as a compiled model's are, so that a forward counts
    /// only its own transforms.
    fn small_net(cell: CellType, seed: u64) -> QuantizedNetwork {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dense = ModelSpec::new(cell, 8, 5)
            .layer_dims(&[16, 16])
            .build(&mut rng);
        let q = QuantizedNetwork::new(
            &compress_network(&dense, BlockPolicy::uniform(4)),
            &DatapathConfig::paper_12bit(),
        );
        let stacks = q.datapath.input_stacks.iter().filter(|s| s.is_some());
        assert_eq!(stacks.count(), if cell == CellType::Gru { 2 } else { 0 });
        q.cache_spectra();
        q
    }

    /// Which kernel a test forward runs.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Entry {
        /// `forward_logits_batch_into`.
        Into,
        /// `forward_logits_batch_states_into`.
        StatesInto,
        /// `forward_logits_batch_in_place`, with states or without.
        InPlace { stateful: bool },
    }

    const ENTRIES: [Entry; 4] = [
        Entry::Into,
        Entry::StatesInto,
        Entry::InPlace { stateful: false },
        Entry::InPlace { stateful: true },
    ];

    /// Logits and states after one forward down `entry`'s path: all on
    /// this thread (`helper` `None`: the serial forward, the oracle), or
    /// down the split path on `helper` whatever the size.
    fn forward_on(
        q: &QuantizedNetwork,
        entry: Entry,
        utts: &[Vec<Vec<f32>>],
        states: &[Option<NetworkState>],
        helper: Option<&Helper<LaneJob>>,
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Option<NetworkState>>) {
        let (mut states, mut scratch) = (states.to_vec(), ExecScratch::new());
        let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
        let mut out: Vec<Vec<Vec<f32>>> = utts.iter().map(|u| vec![Vec::new(); u.len()]).collect();
        let mut rows = utts.to_vec();
        let (mut lanes, stateful) = match entry {
            Entry::Into => (
                Lanes::Into {
                    frames: &refs,
                    out: &mut out,
                },
                false,
            ),
            Entry::StatesInto => (
                Lanes::Into {
                    frames: &refs,
                    out: &mut out,
                },
                true,
            ),
            Entry::InPlace { stateful } => (Lanes::InPlace(&mut rows), stateful),
        };
        let lane_states = stateful.then_some(&mut states[..]);
        match helper {
            Some(helper) => q.forward_split(helper, lanes, lane_states, &mut scratch),
            None => {
                let n = lanes.len();
                lanes.run(q, 0..n, lane_states, &mut scratch);
            }
        }
        let logits = if matches!(entry, Entry::InPlace { .. }) {
            rows
        } else {
            out
        };
        (logits, states)
    }

    /// Every logit and state element, as bits.
    fn forward_bits(
        (logits, states): &(Vec<Vec<Vec<f32>>>, Vec<Option<NetworkState>>),
    ) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
        let logits = logits
            .iter()
            .flatten()
            .flatten()
            .map(|v| v.to_bits())
            .collect();
        let states = states
            .iter()
            .map(|s| {
                let layers = s.as_ref()?.layers();
                Some(
                    layers
                        .flat_map(|(c, y)| c.iter().chain(y))
                        .map(|v| v.to_bits())
                        .collect(),
                )
            })
            .collect();
        (logits, states)
    }

    /// `lanes` utterances of `lens` frames (one of them a single frame) and
    /// their session states: every third lane stateless, the others
    /// advanced past a random first frame, so no state is all zeros.
    fn ragged_batch(
        q: &QuantizedNetwork,
        lens: &[usize],
        rng: &mut impl rand::Rng,
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Option<NetworkState>>) {
        let mut frame = || -> Vec<f32> { (0..8).map(|_| rng.gen_range(-2.0f32..2.0)).collect() };
        let utts: Vec<Vec<Vec<f32>>> = lens
            .iter()
            .map(|&len| (0..len).map(|_| frame()).collect())
            .collect();
        let firsts: Vec<Vec<Vec<f32>>> = lens.iter().map(|_| vec![frame()]).collect();
        let refs: Vec<&[Vec<f32>]> = firsts.iter().map(Vec::as_slice).collect();
        let mut states: Vec<_> = lens.iter().map(|_| Some(q.fresh_state())).collect();
        let (mut out, mut scratch) = (Vec::new(), ExecScratch::new());
        q.forward_logits_batch_states_into(&refs, &mut states, &mut out, &mut scratch);
        for s in states.iter_mut().step_by(3) {
            *s = None;
        }
        (utts, states)
    }

    /// A started lane helper of these tests' own, so its counts are theirs.
    fn free_lane_helper() -> &'static Helper<LaneJob> {
        static FREE: OnceLock<&'static Helper<LaneJob>> = OnceLock::new();
        FREE.get_or_init(|| Helper::spawn("test-lanes"))
    }

    /// `f` while another thread holds `helper`'s claim.
    fn while_claimed<T>(helper: &Helper<LaneJob>, f: impl FnOnce() -> T) -> T {
        use std::sync::mpsc;
        std::thread::scope(|s| {
            let (claimed, release) = (mpsc::channel(), mpsc::channel::<()>());
            s.spawn(move || {
                let claim = helper.try_claim();
                claimed.0.send(claim.is_some()).expect("test thread waits");
                let _ = release.1.recv();
            });
            assert!(claimed.1.recv().expect("claimer reports"), "claim taken");
            let out = f();
            release.0.send(()).expect("claimer waits");
            out
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// 2–17 lanes of 1–6 frames, LSTM and GRU, each entry point (the
        /// GRU's in-place one through its input stacks), mixed `Some` /
        /// `None` states: the split forward is the serial forward bit for
        /// bit with the helper free, never starting the job (taken back),
        /// and claimed by another thread.
        #[test]
        fn split_forward_is_bitwise_the_serial_forward(
            lanes in 2usize..18,
            gru in 0usize..2,
            entry in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let cell = if gru == 1 { CellType::Gru } else { CellType::Lstm };
            let q = small_net(cell, seed % 4);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut lens: Vec<usize> = (0..lanes).map(|_| rng.gen_range(1..=6)).collect();
            lens[rng.gen_range(0..lanes)] = 1;
            let (utts, states) = ragged_batch(&q, &lens, &mut rng);
            let entry = ENTRIES[entry];
            let want = forward_bits(&forward_on(&q, entry, &utts, &states, None));

            // Free: it ran the upper lanes, or the caller took them back,
            // or the helper was resting or busy — at most one of the four
            // (none when another test held the tile helper).
            let free = free_lane_helper();
            let before = free.stats();
            let got = forward_bits(&forward_on(&q, entry, &utts, &states, Some(free)));
            proptest::prop_assert_eq!(&got, &want);
            let s = free.stats().since(&before);
            proptest::prop_assert!(s.helper_ran + s.taken_back + s.busy + s.rested <= 1);

            // A helper with no thread never starts the job: taken back
            // (unless another test held the tile helper just then).
            let never = Helper::new();
            let got = forward_bits(&forward_on(&q, entry, &utts, &states, Some(&never)));
            proptest::prop_assert_eq!(&got, &want);
            let s = never.stats();
            proptest::prop_assert!(s.helper_ran + s.busy + s.rested == 0 && s.taken_back <= 1);

            // Claimed by another thread: both walks on the caller.
            let held = Helper::new();
            let got = while_claimed(&held, || {
                forward_bits(&forward_on(&q, entry, &utts, &states, Some(&held)))
            });
            proptest::prop_assert_eq!(&got, &want);
            let s = held.stats();
            proptest::prop_assert!(s.helper_ran + s.taken_back + s.rested == 0 && s.busy <= 1);
        }
    }

    /// The split path's counters move: a started helper runs the upper
    /// lanes of some forward, and a threadless one has every job taken
    /// back (unless another test held the tile helper at that moment).
    #[test]
    fn the_lane_helper_runs_delegated_lanes() {
        use rand::SeedableRng;
        let q = small_net(CellType::Gru, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let (utts, states) = ragged_batch(&q, &[4, 1, 6, 3, 5], &mut rng);
        let entry = Entry::InPlace { stateful: true };
        let want = forward_bits(&forward_on(&q, entry, &utts, &states, None));
        let free = free_lane_helper();
        let (before, deadline) = (
            free.stats(),
            std::time::Instant::now() + std::time::Duration::from_secs(30),
        );
        while free.stats().since(&before).helper_ran == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the helper ran no delegated lanes: {:?}",
                free.stats().since(&before)
            );
            let got = forward_bits(&forward_on(&q, entry, &utts, &states, Some(free)));
            assert_eq!(got, want);
        }
        let never = Helper::new();
        while never.stats().taken_back == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "nothing was taken back"
            );
            let got = forward_bits(&forward_on(&q, entry, &utts, &states, Some(&never)));
            assert_eq!(got, want);
        }
    }

    /// On the calling thread a split forward counts the serial forward's
    /// forward and inverse transforms — the helper's are charged to it —
    /// and `Σ p·q × (T_lo + T_hi)` spectrum block reads against the serial
    /// `Σ p·q × max(T_lo, T_hi)`: one more pass per step both walks run.
    /// Whichever thread ran the upper walk — the helper, or the caller
    /// after taking it back or finding the helper claimed — the counts are
    /// the same.
    #[test]
    fn a_split_forward_counts_the_serial_transforms_and_one_read_pass_per_walk() {
        let lens = [3, 1, 4, 2, 5, 2];
        let k = balanced_split(lens.iter().copied());
        assert_eq!(k, 3, "3 + 1 + 4 frames against 2 + 5 + 2");
        let (t_lo, t_hi) = (4u64, 5u64);
        for cell in [CellType::Lstm, CellType::Gru] {
            let q = small_net(cell, 2);
            let block_macs = q.datapath.block_macs as u64;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
            let (utts, states) = ragged_batch(&q, &lens, &mut rng);
            for entry in ENTRIES {
                let counted = |helper: Option<&Helper<LaneJob>>| {
                    let before = ernn_fft::stats::thread_snapshot();
                    let bits = forward_bits(&forward_on(&q, entry, &utts, &states, helper));
                    (bits, ernn_fft::stats::thread_snapshot().since(&before))
                };
                let (want, serial) = counted(None);
                assert_eq!(serial.spectrum_block_reads, block_macs * t_lo.max(t_hi));
                let split = ernn_fft::stats::FftStats {
                    spectrum_block_reads: block_macs * (t_lo + t_hi),
                    ..serial
                };
                let (free, never, held) = (free_lane_helper(), Helper::new(), Helper::new());
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                let mut ran = false;
                while !ran {
                    assert!(std::time::Instant::now() < deadline, "{cell} {entry:?}");
                    let before = free.stats();
                    assert_eq!(
                        counted(Some(free)),
                        (want.clone(), split),
                        "{cell} {entry:?}"
                    );
                    ran = free.stats().since(&before).helper_ran == 1;
                }
                assert_eq!(
                    counted(Some(&never)),
                    (want.clone(), split),
                    "{cell} {entry:?}"
                );
                let claimed = while_claimed(&held, || counted(Some(&held)));
                assert_eq!(claimed, (want, split), "{cell} {entry:?}");
            }
        }
    }

    /// `cluster_tiny`'s tenants — GRU-8 over 8 features at the paper's
    /// `L_b = 8`, served in batches of at most 4 requests of 1–2 frames —
    /// never split their lanes: even 16 lanes of 64 frames stay below the
    /// threshold, so their per-call fixed cost does not grow a handoff.
    #[test]
    fn a_gru8_run_stays_below_the_lane_split() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(47);
        let dense = ModelSpec::new(CellType::Gru, 8, 8)
            .layer_dims(&[8])
            .build(&mut rng);
        let q = QuantizedNetwork::new(
            &compress_network(&dense, BlockPolicy::uniform(8)),
            &DatapathConfig::paper_12bit(),
        );
        assert_eq!(
            q.datapath.block_macs, 6,
            "wzr_x, wcx, wzr_h, wch: 2 + 1 + 2 + 1"
        );
        for lanes in 1..=16 {
            for frames in [1, 2, 64] {
                let utt = vec![vec![0.5f32; 8]; frames];
                let refs = vec![utt.as_slice(); lanes];
                let mut out = vec![Vec::new(); lanes];
                let work = q.lane_work(&Lanes::Into {
                    frames: &refs,
                    out: &mut out,
                });
                assert_eq!(work, lanes * frames * 6);
                assert!(work < LANE_SPLIT_MIN_WORK, "{lanes} × {frames}");
            }
        }
    }

    #[test]
    fn balanced_split_evens_the_frame_counts() {
        assert_eq!(balanced_split([1, 1].into_iter()), 1);
        assert_eq!(balanced_split([9, 1, 1, 1].into_iter()), 1);
        assert_eq!(balanced_split([1, 1, 1, 9].into_iter()), 3);
        assert_eq!(balanced_split([8; 16].into_iter()), 8);
        assert_eq!(balanced_split([7, 9, 8, 8, 9, 7].into_iter()), 3);
        assert_eq!(balanced_split([0, 0, 0].into_iter()), 1);
    }
}
