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

use ernn_linalg::{LanePanel, WeightMatrix};
use ernn_model::{Act, CellArith, GruInputStack, RnnLayer, RnnNetwork};
use ernn_quant::{FixedFormat, PiecewiseLinear, Quantizer};

pub use ernn_model::{ExecScratch, NetworkState};

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
            let mut q = c.clone();
            q.set_blocks(&blocks);
            WeightMatrix::Circulant(q)
        }
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
/// PWL units — the functional twin of the FPGA datapath.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    net: RnnNetwork<WeightMatrix>,
    /// Lane-major copy of `net.classifier_w` the datapath computes the
    /// logits from — derived state like the weight spectra.
    classifier_panel: LanePanel,
    /// Per layer, a GRU's `[wzr_x; wcx]` stacked as one operand so a step
    /// of [`Self::forward_logits_batch_in_place`] projects `x_t` with one
    /// kernel call — derived from `net` like the panel, never serialized.
    /// `None` for an LSTM layer (its single `wx` already is one) and for a
    /// GRU whose pair cannot stack.
    input_stacks: Vec<Option<GruInputStack>>,
    activation_format: FixedFormat,
    sigmoid: PiecewiseLinear,
    tanh: PiecewiseLinear,
    /// Quantization statistics gathered while building.
    pub report: QuantizationReport,
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
        QuantizedNetwork {
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
            report,
        }
    }

    /// The quantized network (weights only; activation handling lives in
    /// [`Self::forward_logits`]).
    pub fn network(&self) -> &RnnNetwork<WeightMatrix> {
        &self.net
    }

    /// A zero-initialized [`NetworkState`] sized for this network — the
    /// state of a streaming session before its first chunk.
    pub fn fresh_state(&self) -> NetworkState {
        self.net.fresh_state()
    }

    /// On-device footprint of one session's [`NetworkState`] in bytes, at
    /// the datapath's activation word length (each state element is one
    /// activation word, rounded up to whole bytes).
    pub fn state_bytes(&self) -> u64 {
        let word = self.activation_format.word_bits().div_ceil(8) as u64;
        let elems: u64 = self
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
    /// never *what* is computed.
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
        let frames = utterances.iter().map(Vec::as_slice);
        let stacks = &self.input_stacks;
        self.net
            .hidden_batch_with(&self.arith(), frames, states, stacks, scratch, None);
        self.classify_into(utterances, scratch);
    }

    /// The `_into` kernels: the one core without input stacks, and `out`
    /// shaped like `utterances` before the classifier fills it.
    fn forward_batch_into(
        &self,
        utterances: &[&[Vec<f32>]],
        states: Option<&mut [Option<NetworkState>]>,
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut ExecScratch,
    ) {
        let frames = utterances.iter().copied();
        self.net
            .hidden_batch_with(&self.arith(), frames, states, &[], scratch, None);
        out.resize_with(utterances.len(), Vec::new);
        for (seq, u) in out.iter_mut().zip(utterances) {
            seq.resize_with(u.len(), Vec::new);
        }
        self.classify_into(out, scratch);
    }

    /// The arithmetic the network's sequence walker is evaluated in here.
    fn arith(&self) -> FixedArith<'_> {
        FixedArith {
            fmt: self.activation_format,
            sigmoid: &self.sigmoid,
            tanh: &self.tanh,
        }
    }

    /// The classifier head over the activations the walker
    /// ([`RnnNetwork::hidden_batch_with`]) left in `scratch`, one logits row per frame
    /// into `out`, which already has the batch's shape (its rows hold
    /// anything — stale logits, the frames themselves, nothing).
    fn classify_into(&self, out: &mut [Vec<Vec<f32>>], scratch: &ExecScratch) {
        let fmt = self.activation_format;
        let top_dim = self.net.classifier_w.cols();
        let classes = self.net.classifier_b.len();
        let mut hidden = scratch.outputs().chunks_exact(top_dim);
        for row in out.iter_mut().flatten() {
            let h = hidden.next().expect("one activation row per frame");
            if row.capacity() < classes {
                // Not `resize`: growing a 39-wide row to 40 classes
                // would double it.
                *row = vec![0.0; classes];
            } else {
                row.resize(classes, 0.0);
            }
            self.classifier_panel.matvec_into(h, row);
            for (v, b) in row.iter_mut().zip(self.net.classifier_b.iter()) {
                *v = fmt.quantize_f32(*v + b);
            }
        }
    }
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
        assert_eq!(built.activation_format, FixedFormat::new(12, 7));
        assert_eq!(built.activation_format.to_string(), "Q4.7 (12b)");
        let loaded = QuantizedNetwork::from_quantized(built.net.clone(), &config, built.report);
        assert_eq!(loaded.activation_format, built.activation_format);
    }

    #[test]
    fn both_constructors_derive_the_classifier_panel_from_classifier_w() {
        let config = DatapathConfig::paper_12bit();
        let built = QuantizedNetwork::new(&compressed_net(CellType::Gru), &config);
        let panel = LanePanel::from_matrix(&built.network().classifier_w);
        assert_eq!(built.classifier_panel, panel);
        let loaded = QuantizedNetwork::from_quantized(built.net.clone(), &config, built.report);
        assert_eq!(loaded.classifier_panel, panel);
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
        assert_eq!(built.input_stacks, vec![g.input_stack()]);
        assert!(built.input_stacks[0].is_some());
        let loaded = QuantizedNetwork::from_quantized(built.net.clone(), &config, built.report);
        assert_eq!(loaded.input_stacks, built.input_stacks);
        // An LSTM's single `wx` already takes `x_t` once.
        let lstm = QuantizedNetwork::new(&compressed_net(CellType::Lstm), &config);
        assert_eq!(lstm.input_stacks, vec![None]);
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
                assert!(q.input_stacks.iter().all(Option::is_some));
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
            let mut net = compress_network(&dense, policy);
            // Matrix `i` carries `i` extra spectrum refreshes, which its
            // quantized clone inherits: a matrix out of place shows.
            for (i, w) in net.weight_matrices_mut().into_iter().enumerate() {
                if let WeightMatrix::Circulant(c) = w {
                    (0..i).for_each(|_| c.refresh_spectra());
                }
            }
            let q = QuantizedNetwork::new(&net, &config);
            let (listed, quantized) = (net.weight_matrices(), q.network().weight_matrices());
            assert_eq!(listed.len(), quantized.len(), "{cell}");
            let mut report = QuantizationReport::default();
            for (i, ((li, role, w), (qli, qrole, qw))) in
                listed.into_iter().zip(quantized).enumerate()
            {
                assert_eq!((qli, qrole), (li, role), "{cell}");
                assert_eq!(*qw, quantize_weight(w, config.weight_bits, &mut report));
                if let WeightMatrix::Circulant(c) = qw {
                    assert_eq!(c.spectrum_refresh_count(), i as u64 + 2, "{cell}");
                }
            }
            assert_eq!(q.report, report, "{cell}");
            let bias = quantize_vec(&net.classifier_b, config.weight_bits);
            assert_eq!(q.network().classifier_b, bias, "{cell}");
        }
    }
}
