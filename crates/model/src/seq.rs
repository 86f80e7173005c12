//! How a stacked network walks a batch of sequences: the one loop around
//! the cell step, [`RnnNetwork::hidden_batch_with`], with its workspace,
//! its carried per-lane state and the tape the training forward asks for.
//! The crate docs say who calls it.

use crate::cell::{CellArith, CellScratch};
use crate::gru::GruInputStack;
use crate::layer::RnnLayer;
use crate::network::RnnNetwork;
use ernn_linalg::MatVec;

/// Reusable workspace of [`RnnNetwork::hidden_batch_with`].
///
/// Holds the ping-pong inter-layer activation buffers, the per-timestep
/// gather/scatter buffers for lockstep batching, and the one
/// [`CellScratch`] (cell planes plus the matvec workspace that threads
/// down into the FFT kernels) every layer steps in. Every buffer
/// grows to the largest shape seen and is then reused, so post-warmup
/// inference performs zero heap allocations in the FFT/matvec kernels —
/// and, when paired with a shape-reusing classifier head such as
/// `QuantizedNetwork::forward_logits_batch_into` on a steady shape, zero
/// allocations altogether. Serving executors keep one `ExecScratch` per
/// worker for its whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    /// Ping-pong activation buffers (all sequences' frames, flattened).
    a: Vec<f32>,
    b: Vec<f32>,
    /// Per-sequence starting frame offset into the activation buffers.
    off: Vec<usize>,
    /// Sequence indices still active at the current timestep.
    active: Vec<usize>,
    /// Gathered inputs / states for the active lanes.
    xb: Vec<f32>,
    cb: Vec<f32>,
    yb: Vec<f32>,
    /// Next states for the active lanes.
    cn: Vec<f32>,
    yn: Vec<f32>,
    /// Persistent per-sequence recurrent state for the current layer.
    c_state: Vec<f32>,
    y_state: Vec<f32>,
    /// Cell planes and the matvec workspace shared by every weight matrix
    /// in the model.
    cell: CellScratch,
}

impl ExecScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// The top layer's activations as the last walk left them: one
    /// `output_dim`-wide row per frame, utterance after utterance in the
    /// order they were given — what a classifier head reads.
    pub fn outputs(&self) -> &[f32] {
        &self.a
    }
}

/// Persistent recurrent state of one streaming session.
///
/// Holds, per stacked layer, the cell state `c` and — for LSTM layers
/// with an output/projection dimension — the output state `y` (empty for
/// GRU layers, whose cell state doubles as the output). A fresh state
/// ([`RnnNetwork::fresh_state`]) is all zeros, so walking a sequence from
/// a fresh state is bit-identical to walking it stateless; carrying the
/// state across chunk boundaries continues the recurrence exactly where
/// the previous chunk left off.
#[derive(Debug, PartialEq)]
pub struct NetworkState {
    layers: Vec<LayerState>,
}

/// Recurrent state of a single stacked layer.
#[derive(Debug, PartialEq)]
struct LayerState {
    c: Vec<f32>,
    y: Vec<f32>,
}

// By hand for `clone_from`, which copies into the buffers a state of the
// same shape already has: a forward that hands lanes to another thread
// copies their states without allocating.
impl Clone for NetworkState {
    fn clone(&self) -> Self {
        NetworkState {
            layers: self.layers.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
    }
}

impl Clone for LayerState {
    fn clone(&self) -> Self {
        LayerState {
            c: self.c.clone(),
            y: self.y.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.c.clone_from(&source.c);
        self.y.clone_from(&source.y);
    }
}

impl NetworkState {
    /// Number of `f32` state elements across all layers.
    pub fn num_elements(&self) -> usize {
        self.layers.iter().map(|l| l.c.len() + l.y.len()).sum()
    }

    /// Each stacked layer's `(c, y)`, bottom layer first.
    pub fn layers(&self) -> impl Iterator<Item = (&[f32], &[f32])> {
        self.layers.iter().map(|l| (&l.c[..], &l.y[..]))
    }
}

/// What the training forward keeps of one layer for backpropagation
/// through time: time-major planes indexed like the walker's activation
/// planes (lane `s`, frame `t` is row `off[s] + t`), `rows ×` the width
/// given, appended to from the [`CellScratch`] after each step. The planes
/// of the other cell type stay empty. `c_{t−1}` / `y_{t−1}` are not copied:
/// they are row `t − 1` of `c` / `y`, and a taped lane starts from zeros.
#[derive(Debug, Clone, Default)]
pub struct LayerTape {
    /// The plane the layer read its `x_t` rows from (`I`).
    pub(crate) x: Vec<f32>,
    /// Activated gates: LSTM `i, f, g, o` (`4H`), GRU `z, r` (`2H`).
    pub(crate) gates: Vec<f32>,
    /// Cell state `c_t` (`H`) — a GRU's layer output.
    pub(crate) c: Vec<f32>,
    /// LSTM output `y_t` (`R`).
    pub(crate) y: Vec<f32>,
    /// LSTM `tanh(c_t)` (`H`).
    pub(crate) tanh_c: Vec<f32>,
    /// LSTM cell output `m_t` before projection (`H`).
    pub(crate) m: Vec<f32>,
    /// GRU `r ⊙ c_{t−1}` (`H`).
    pub(crate) rc: Vec<f32>,
    /// GRU candidate `c̃` (`H`).
    pub(crate) c_tilde: Vec<f32>,
}

impl<M: MatVec> RnnLayer<M> {
    /// Widths `(|c|, |y|)` of the layer's recurrent state. A GRU's cell
    /// state doubles as its output, so its `y` is zero-wide.
    pub fn state_dims(&self) -> (usize, usize) {
        match self {
            RnnLayer::Lstm(l) => (l.config().hidden_dim, l.config().output_dim),
            RnnLayer::Gru(g) => (g.hidden_dim(), 0),
        }
    }
}

impl<M: MatVec> RnnNetwork<M> {
    /// A zero-initialized [`NetworkState`] sized for this network — the
    /// state of a streaming session before its first chunk.
    pub fn fresh_state(&self) -> NetworkState {
        let layers = self
            .layers()
            .iter()
            .map(|layer| {
                let (h, r) = layer.state_dims();
                LayerState {
                    c: vec![0.0; h],
                    y: vec![0.0; r],
                }
            })
            .collect();
        NetworkState { layers }
    }

    /// What [`Self::hidden_batch_with`] asks of its inputs, checked before
    /// anything is written: one state slot per utterance, each state shaped
    /// like the network, each frame `input_dim` wide. A caller that walks a
    /// batch in parts checks the whole batch here first, so a bad lane in
    /// one part cannot leave another part's states written.
    ///
    /// # Panics
    ///
    /// Panics on the first mismatch, naming it.
    pub fn check_batch<'u>(
        &self,
        utterances: impl ExactSizeIterator<Item = &'u [Vec<f32>]>,
        states: Option<&[Option<NetworkState>]>,
    ) {
        if let Some(states) = states {
            assert_eq!(
                states.len(),
                utterances.len(),
                "one state slot per utterance"
            );
            let want = self.layers().iter().map(RnnLayer::state_dims);
            for (s, ns) in states.iter().enumerate() {
                let Some(ns) = ns else { continue };
                let have = ns.layers.iter().map(|l| (l.c.len(), l.y.len()));
                assert!(
                    have.clone().eq(want.clone()),
                    "lane {s}: state has (|c|, |y|) per layer {:?}, the network {:?}",
                    have.collect::<Vec<_>>(),
                    want.collect::<Vec<_>>()
                );
            }
        }
        let in_dim = self.input_dim();
        for f in utterances.flatten() {
            assert_eq!(f.len(), in_dim, "input length must equal the feature dim");
        }
    }

    /// The sequence walker: rounds every frame into `scratch`
    /// (`arith.round`: the identity in float, the activation quantizer in
    /// fixed point) and steps the `utterances` through the layer stack in
    /// lockstep — at each timestep, whichever lanes are still active —
    /// leaving the top layer's activations in [`ExecScratch::outputs`].
    /// Sequences may have unequal lengths; per-utterance results are
    /// bit-identical to walking each alone — batching changes *when* work
    /// happens, never *what* is computed.
    ///
    /// Lane `s` starts from `states[s]` when there is one (a fresh state
    /// behaves exactly like none) and, on return, `states[s]` holds the
    /// state after the lane's final frame; `None` lanes start from zeros
    /// and write nothing back. A GRU layer `li` projects `x_t` through
    /// `stacks[li]` when there is one (`&[]`: no layer does). With a
    /// `tape`, every step is recorded — one [`LayerTape`] per layer — for
    /// [`RnnNetwork::forward_backward`].
    ///
    /// # Panics
    ///
    /// Panics if a frame's dimension disagrees with the model, if
    /// `states.len()` is not the utterance count, if a state's shape
    /// disagrees with the network (checked before any layer runs, so no
    /// lane's state is half-written), or if both `states` and a `tape` are
    /// given (a taped lane starts from zeros).
    pub fn hidden_batch_with<'u, A: CellArith>(
        &self,
        arith: &A,
        utterances: impl ExactSizeIterator<Item = &'u [Vec<f32>]> + Clone,
        mut states: Option<&mut [Option<NetworkState>]>,
        stacks: &[Option<GruInputStack>],
        scratch: &mut ExecScratch,
        mut tape: Option<&mut Vec<LayerTape>>,
    ) {
        let n = utterances.len();
        self.check_batch(utterances.clone(), states.as_deref());
        assert!(
            states.is_none() || tape.is_none(),
            "a taped lane starts from the zero state"
        );
        if let Some(tape) = tape.as_deref_mut() {
            tape.clear();
            tape.resize_with(self.num_layers(), LayerTape::default);
        }
        let ExecScratch {
            a,
            b,
            off,
            active,
            xb,
            cb,
            yb,
            cn,
            yn,
            c_state,
            y_state,
            cell,
        } = scratch;

        // Rounded input frames into ping-pong buffer `a`. `off` holds
        // n+1 frame offsets (total as the sentinel), so per-sequence
        // lengths are derivable without a separate buffer.
        let in_dim = self.input_dim();
        off.clear();
        let mut total = 0usize;
        for u in utterances.clone() {
            off.push(total);
            total += u.len();
        }
        off.push(total);
        a.resize(total * in_dim, 0.0);
        for (s, u) in utterances.enumerate() {
            for (t, f) in u.iter().enumerate() {
                let dst = &mut a[(off[s] + t) * in_dim..][..in_dim];
                for (d, &v) in dst.iter_mut().zip(f.iter()) {
                    *d = arith.round(v);
                }
            }
        }
        let len_of = |s: usize| off[s + 1] - off[s];
        let max_t = (0..n).map(len_of).max().unwrap_or(0);

        // Through the stack: each layer consumes `a`, produces `b`, swap.
        for (li, layer) in self.layers().iter().enumerate() {
            let (h, r) = layer.state_dims();
            let in_dim = layer.input_dim();
            let out_dim = layer.output_dim();
            let stack = stacks.get(li).and_then(Option::as_ref);
            let mut tape = tape.as_deref_mut().map(|tape| &mut tape[li]);
            if let Some(tape) = tape.as_deref_mut() {
                tape.x.clone_from(a);
            }
            b.resize(total * out_dim, 0.0);
            // Lane `s` starts from zeros, or from layer `li` of `states[s]`.
            c_state.clear();
            c_state.resize(n * h, 0.0);
            y_state.clear();
            y_state.resize(n * r, 0.0);
            for (s, ns) in states.iter().flat_map(|st| st.iter().enumerate()) {
                if let Some(ns) = ns {
                    c_state[s * h..(s + 1) * h].copy_from_slice(&ns.layers[li].c);
                    y_state[s * r..(s + 1) * r].copy_from_slice(&ns.layers[li].y);
                }
            }

            for t in 0..max_t {
                active.clear();
                active.extend((0..n).filter(|&s| t < len_of(s)));
                let bsz = active.len();
                xb.clear();
                cb.clear();
                yb.clear();
                for &s in active.iter() {
                    xb.extend_from_slice(&a[(off[s] + t) * in_dim..][..in_dim]);
                    cb.extend_from_slice(&c_state[s * h..(s + 1) * h]);
                    yb.extend_from_slice(&y_state[s * r..(s + 1) * r]);
                }
                cn.resize(bsz * h, 0.0);
                yn.resize(bsz * r, 0.0);
                let out = match layer {
                    RnnLayer::Lstm(l) => {
                        l.step_batch_with(arith, xb, cb, yb, cn, yn, bsz, cell);
                        &*yn
                    }
                    RnnLayer::Gru(g) => {
                        match stack {
                            Some(stack) => {
                                g.step_batch_stacked_with(arith, stack, xb, cb, cn, bsz, cell)
                            }
                            None => g.step_batch_with(arith, xb, cb, cn, bsz, cell),
                        }
                        &*cn
                    }
                };
                for (bi, &s) in active.iter().enumerate() {
                    c_state[s * h..(s + 1) * h].copy_from_slice(&cn[bi * h..(bi + 1) * h]);
                    y_state[s * r..(s + 1) * r].copy_from_slice(&yn[bi * r..(bi + 1) * r]);
                    b[(off[s] + t) * out_dim..][..out_dim]
                        .copy_from_slice(&out[bi * out_dim..(bi + 1) * out_dim]);
                }
                if let Some(tape) = tape.as_deref_mut() {
                    // Lane `bi` of a `bsz × width` step plane is row
                    // `off[s] + t` of the taped one.
                    let put = |plane: &mut Vec<f32>, src: &[f32], width: usize| {
                        plane.resize(total * width, 0.0);
                        for (bi, &s) in active.iter().enumerate() {
                            plane[(off[s] + t) * width..][..width]
                                .copy_from_slice(&src[bi * width..][..width]);
                        }
                    };
                    put(&mut tape.c, cn, h);
                    put(&mut tape.y, yn, r);
                    match layer {
                        RnnLayer::Lstm(_) => {
                            put(&mut tape.gates, &cell.pre, 4 * h);
                            put(&mut tape.tanh_c, &cell.tanh_c, h);
                            put(&mut tape.m, &cell.m, h);
                        }
                        RnnLayer::Gru(_) => {
                            put(&mut tape.gates, &cell.pre, 2 * h);
                            put(&mut tape.rc, &cell.rc, h);
                            put(&mut tape.c_tilde, &cell.pre_c, h);
                        }
                    }
                }
            }
            for (s, ns) in states.iter_mut().flat_map(|st| st.iter_mut().enumerate()) {
                if let Some(ns) = ns {
                    let state = &mut ns.layers[li];
                    state.c.copy_from_slice(&c_state[s * h..(s + 1) * h]);
                    state.y.copy_from_slice(&y_state[s * r..(s + 1) * r]);
                }
            }
            std::mem::swap(a, b);
        }
    }
}

/// One layer walked over one sequence in `f32`, taped: its outputs per
/// frame and what [`RnnLayer::backward_seq`] reads.
#[cfg(test)]
pub(crate) fn walk_layer(
    layer: RnnLayer<ernn_linalg::Matrix>,
    inputs: &[Vec<f32>],
) -> (Vec<Vec<f32>>, LayerTape) {
    let out_dim = layer.output_dim();
    let head = ernn_linalg::Matrix::zeros(1, out_dim);
    let net = RnnNetwork::from_parts(vec![layer], head, vec![0.0]);
    let (mut scratch, mut tape) = (ExecScratch::new(), Vec::new());
    let lane = std::iter::once(inputs);
    net.hidden_batch_with(
        &crate::cell::FloatArith,
        lane,
        None,
        &[],
        &mut scratch,
        Some(&mut tape),
    );
    let outputs = scratch.outputs().chunks_exact(out_dim);
    let tape = tape.pop().expect("one layer, one tape");
    (outputs.map(<[f32]>::to_vec).collect(), tape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::FloatArith;
    use crate::{CellType, Matrix, ModelSpec};
    use rand::{Rng, SeedableRng};

    const IN_DIM: usize = 6;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// LSTM with peepholes and a projection, or GRU (which ignores both).
    fn network(cell: CellType, layers: &[usize]) -> RnnNetwork<Matrix> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(61);
        ModelSpec::new(cell, IN_DIM, 4)
            .layer_dims(layers)
            .peephole(true)
            .projection(5)
            .build(&mut rng)
    }

    fn utterance(rng: &mut impl Rng, frames: usize) -> Vec<Vec<f32>> {
        (0..frames)
            .map(|_| (0..IN_DIM).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect()
    }

    /// Every plane a taped float walk leaves behind, by name.
    fn walk(net: &RnnNetwork<Matrix>, lanes: &[&[Vec<f32>]]) -> Vec<(String, Vec<f32>)> {
        let (mut scratch, mut tape) = (ExecScratch::new(), Vec::new());
        let lanes = lanes.iter().copied();
        net.hidden_batch_with(&FloatArith, lanes, None, &[], &mut scratch, Some(&mut tape));
        let mut planes = vec![("outputs".to_string(), scratch.outputs().to_vec())];
        for (li, lt) in tape.iter().enumerate() {
            for (name, plane) in [
                ("x", &lt.x),
                ("gates", &lt.gates),
                ("c", &lt.c),
                ("y", &lt.y),
                ("tanh_c", &lt.tanh_c),
                ("m", &lt.m),
                ("rc", &lt.rc),
                ("c_tilde", &lt.c_tilde),
            ] {
                planes.push((format!("layer {li} {name}"), plane.clone()));
            }
        }
        planes
    }

    #[test]
    fn ragged_lanes_leave_the_outputs_and_tape_rows_of_three_single_walks() {
        for cell in [CellType::Lstm, CellType::Gru] {
            let net = network(cell, &[8, 8]);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(67);
            let utts: Vec<_> = [5, 1, 3].map(|t| utterance(&mut rng, t)).into();
            let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
            let batched = walk(&net, &refs);
            let total: usize = utts.iter().map(Vec::len).sum();
            let mut first = 0;
            for (s, utt) in refs.iter().enumerate() {
                let single = walk(&net, &[utt]);
                for ((name, all), (_, alone)) in batched.iter().zip(single.iter()) {
                    let width = all.len() / total;
                    assert_eq!(alone.len(), utt.len() * width, "{cell} lane {s}: {name}");
                    let rows = &all[first * width..][..alone.len()];
                    assert_eq!(bits(rows), bits(alone), "{cell} lane {s}: {name}");
                }
                first += utt.len();
            }
            // The planes a cell does not have stay empty, the rest do not.
            let empty = |name: &str| batched.iter().any(|(n, p)| n == name && p.is_empty());
            assert_eq!(empty("layer 1 rc"), cell == CellType::Lstm, "{cell}");
            assert_eq!(empty("layer 1 tanh_c"), cell == CellType::Gru, "{cell}");
        }
    }

    #[test]
    fn lstm_tape_rows_are_the_cache_fields_of_the_per_element_step() {
        let net = network(CellType::Lstm, &[8]);
        let RnnLayer::Lstm(layer) = &net.layers()[0] else {
            unreachable!("built as an LSTM");
        };
        let (h, r) = (layer.config().hidden_dim, layer.config().output_dim);
        let utt = utterance(&mut rand_chacha::ChaCha8Rng::seed_from_u64(71), 5);
        let (outputs, lt) = walk_layer(net.layers()[0].clone(), &utt);
        let mut state = layer.zero_state();
        for (t, frame) in utt.iter().enumerate() {
            let (next, cache) = layer.step_reference(frame, &state);
            let gates = &lt.gates[t * 4 * h..][..4 * h];
            let before = t.checked_sub(1);
            let zeros = vec![0.0; h.max(r)];
            let c_prev = before.map_or(&zeros[..h], |p| &lt.c[p * h..][..h]);
            let y_prev = before.map_or(&zeros[..r], |p| &lt.y[p * r..][..r]);
            for (plane, got, want) in [
                ("x", &lt.x[t * IN_DIM..][..IN_DIM], &cache.x),
                ("y_prev", y_prev, &cache.y_prev),
                ("c_prev", c_prev, &cache.c_prev),
                ("i", &gates[..h], &cache.i),
                ("f", &gates[h..2 * h], &cache.f),
                ("g", &gates[2 * h..3 * h], &cache.g),
                ("o", &gates[3 * h..], &cache.o),
                ("c", &lt.c[t * h..][..h], &cache.c),
                ("tanh_c", &lt.tanh_c[t * h..][..h], &cache.tanh_c),
                ("m", &lt.m[t * h..][..h], &cache.m),
                ("y", &lt.y[t * r..][..r], &next.y),
                ("output", &outputs[t][..], &next.y),
            ] {
                assert_eq!(bits(got), bits(want), "t={t}: {plane}");
            }
            state = next;
        }
    }

    #[test]
    fn gru_tape_rows_are_the_cache_fields_of_the_per_element_step() {
        let net = network(CellType::Gru, &[8]);
        let RnnLayer::Gru(layer) = &net.layers()[0] else {
            unreachable!("built as a GRU");
        };
        let h = layer.hidden_dim();
        let utt = utterance(&mut rand_chacha::ChaCha8Rng::seed_from_u64(73), 5);
        let (outputs, lt) = walk_layer(net.layers()[0].clone(), &utt);
        let mut state = vec![0.0; h];
        for (t, frame) in utt.iter().enumerate() {
            let (next, cache) = layer.step_reference(frame, &state);
            let gates = &lt.gates[t * 2 * h..][..2 * h];
            let zeros = vec![0.0; h];
            let c_prev = t.checked_sub(1).map_or(&zeros[..], |p| &lt.c[p * h..][..h]);
            for (plane, got, want) in [
                ("x", &lt.x[t * IN_DIM..][..IN_DIM], &cache.x),
                ("c_prev", c_prev, &cache.c_prev),
                ("z", &gates[..h], &cache.z),
                ("r", &gates[h..], &cache.r),
                ("rc", &lt.rc[t * h..][..h], &cache.rc),
                ("c_tilde", &lt.c_tilde[t * h..][..h], &cache.c_tilde),
                ("c", &lt.c[t * h..][..h], &next),
                ("output", &outputs[t][..], &next),
            ] {
                assert_eq!(bits(got), bits(want), "t={t}: {plane}");
            }
            state = next;
        }
    }
}
