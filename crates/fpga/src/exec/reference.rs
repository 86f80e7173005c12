//! The cell datapath as it stood before the slice passes, and the sequence
//! walker as it stood before it moved into `ernn-model`, kept word for
//! word as the oracle the vectorised [`QuantizedNetwork`] is held to: the
//! quantizer and the PWL units called once per `k` inside mixed loops.
//! The quantizer here is its `i64`
//! definition rather than the lane kernel; the PWL units' scalar `eval`
//! has its own oracle in `ernn-quant`. The walker's buffers and carried
//! states, which [`ExecScratch`] and [`NetworkState`] keep to themselves,
//! are this module's own; the cell planes and the matvec workspace are
//! locals.

use super::*;
use ernn_linalg::{MatVec, MatVecScratch};
use ernn_model::{compress_network, BlockPolicy, CellType, GruLayer, LstmLayer, ModelSpec};
use rand::{Rng, SeedableRng};

/// The walker's buffers, as [`ExecScratch`] declares them.
#[derive(Default)]
struct RefScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    off: Vec<usize>,
    active: Vec<usize>,
    xb: Vec<f32>,
    cb: Vec<f32>,
    yb: Vec<f32>,
    cn: Vec<f32>,
    yn: Vec<f32>,
    c_state: Vec<f32>,
    y_state: Vec<f32>,
}

/// One lane's carried state: `(c, y)` per layer, as [`NetworkState`] holds
/// it.
type RefState = Vec<(Vec<f32>, Vec<f32>)>;

impl QuantizedNetwork {
    fn q(&self, x: f32) -> f32 {
        let fmt = self.datapath.activation_format;
        fmt.dequantize_raw(fmt.quantize_raw(x))
    }

    fn forward_batch_core_reference(
        &self,
        utterances: &[&[Vec<f32>]],
        mut states: Option<&mut [Option<RefState>]>,
        out: &mut Vec<Vec<Vec<f32>>>,
        scratch: &mut RefScratch,
    ) {
        let n = utterances.len();
        let in_dim = self.datapath.net.input_dim();

        // Quantized input frames into ping-pong buffer `a`. `off` holds
        // n+1 frame offsets (total as the sentinel), so per-sequence
        // lengths are derivable without a separate buffer.
        scratch.off.clear();
        let mut total = 0usize;
        for u in utterances {
            scratch.off.push(total);
            total += u.len();
        }
        scratch.off.push(total);
        scratch.a.resize(total * in_dim, 0.0);
        for (s, u) in utterances.iter().enumerate() {
            for (t, f) in u.iter().enumerate() {
                assert_eq!(f.len(), in_dim, "input length must equal the feature dim");
                let dst = &mut scratch.a[(scratch.off[s] + t) * in_dim..][..in_dim];
                for (d, &v) in dst.iter_mut().zip(f.iter()) {
                    *d = self.q(v);
                }
            }
        }

        // Through the stack: each layer consumes `a`, produces `b`, swap.
        for (li, layer) in self.datapath.net.layers().iter().enumerate() {
            let st = states.as_deref_mut();
            match layer {
                RnnLayer::Lstm(l) => self.lstm_seq_batch_reference(l, li, n, st, scratch),
                RnnLayer::Gru(g) => self.gru_seq_batch_reference(g, li, n, st, scratch),
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }

        // Classifier head, reusing `out`'s allocations when shapes match.
        let top_dim = self
            .datapath
            .net
            .layers()
            .last()
            .expect("network has at least one layer")
            .output_dim();
        let classes = self.datapath.net.classifier_b.len();
        out.resize(n, Vec::new());
        for (s, seq) in out.iter_mut().enumerate() {
            seq.resize(utterances[s].len(), Vec::new());
            for (t, row) in seq.iter_mut().enumerate() {
                let h = &scratch.a[(scratch.off[s] + t) * top_dim..][..top_dim];
                row.resize(classes, 0.0);
                self.datapath.classifier_panel.matvec_into(h, row);
                for (v, b) in row.iter_mut().zip(self.datapath.net.classifier_b.iter()) {
                    *v = self.q(*v + b);
                }
            }
        }
    }

    fn lstm_seq_batch_reference(
        &self,
        l: &LstmLayer<WeightMatrix>,
        li: usize,
        n: usize,
        states: Option<&mut [Option<RefState>]>,
        scratch: &mut RefScratch,
    ) {
        let cfg = l.config();
        let h = cfg.hidden_dim;
        let r = cfg.output_dim;
        let in_dim = cfg.input_dim;
        let RefScratch {
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
            ..
        } = scratch;
        let (pre, rec, m) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        let mv = &mut MatVecScratch::default();
        let len_of = |s: usize| off[s + 1] - off[s];
        let max_t = (0..n).map(len_of).max().unwrap_or(0);
        b.resize(off[n] * r, 0.0);
        c_state.resize(n * h, 0.0);
        y_state.resize(n * r, 0.0);
        for s in 0..n {
            let cs = &mut c_state[s * h..(s + 1) * h];
            let ys = &mut y_state[s * r..(s + 1) * r];
            match states.as_ref().and_then(|st| st[s].as_ref()) {
                Some(ns) => {
                    cs.copy_from_slice(&ns[li].0);
                    ys.copy_from_slice(&ns[li].1);
                }
                None => {
                    cs.iter_mut().for_each(|v| *v = 0.0);
                    ys.iter_mut().for_each(|v| *v = 0.0);
                }
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
            pre.resize(bsz * 4 * h, 0.0);
            rec.resize(bsz * 4 * h, 0.0);
            cn.resize(bsz * h, 0.0);
            m.resize(bsz * h, 0.0);
            l.wx.matvec_batch_into(xb, pre, bsz, mv);
            l.wr.matvec_batch_into(yb, rec, bsz, mv);
            for bi in 0..bsz {
                let pre = &mut pre[bi * 4 * h..(bi + 1) * 4 * h];
                let rec = &rec[bi * 4 * h..(bi + 1) * 4 * h];
                let c = &cb[bi * h..(bi + 1) * h];
                let c_new = &mut cn[bi * h..(bi + 1) * h];
                let m = &mut m[bi * h..(bi + 1) * h];
                for ((p, rv), bias) in pre.iter_mut().zip(rec.iter()).zip(l.bias.iter()) {
                    *p = self.q(*p + rv + bias);
                }
                if let Some([pi, pf, _]) = &l.peepholes {
                    for k in 0..h {
                        pre[k] = self.q(pre[k] + pi[k] * c[k]);
                        pre[h + k] = self.q(pre[h + k] + pf[k] * c[k]);
                    }
                }
                for k in 0..h {
                    let i_gate = self.datapath.sigmoid.eval(pre[k]);
                    let f_gate = self.datapath.sigmoid.eval(pre[h + k]);
                    let g_cell = self.datapath.tanh.eval(pre[2 * h + k]);
                    c_new[k] = self.q(f_gate * c[k] + g_cell * i_gate);
                }
                for k in 0..h {
                    let mut po = pre[3 * h + k];
                    if let Some([_, _, p_o]) = &l.peepholes {
                        po = self.q(po + p_o[k] * c_new[k]);
                    }
                    let o_gate = self.datapath.sigmoid.eval(po);
                    m[k] = self.q(o_gate * self.datapath.tanh.eval(c_new[k]));
                }
            }
            match &l.wym {
                Some(w) => {
                    yn.resize(bsz * r, 0.0);
                    w.matvec_batch_into(m, yn, bsz, mv);
                    yn.iter_mut().for_each(|v| *v = self.q(*v));
                }
                None => {
                    yn.clear();
                    yn.extend_from_slice(m);
                }
            }
            for (bi, &s) in active.iter().enumerate() {
                c_state[s * h..(s + 1) * h].copy_from_slice(&cn[bi * h..(bi + 1) * h]);
                y_state[s * r..(s + 1) * r].copy_from_slice(&yn[bi * r..(bi + 1) * r]);
                b[(off[s] + t) * r..][..r].copy_from_slice(&yn[bi * r..(bi + 1) * r]);
            }
        }
        if let Some(st) = states {
            for s in 0..n {
                if let Some(ns) = st[s].as_mut() {
                    ns[li].0.copy_from_slice(&c_state[s * h..(s + 1) * h]);
                    ns[li].1.copy_from_slice(&y_state[s * r..(s + 1) * r]);
                }
            }
        }
    }

    fn gru_seq_batch_reference(
        &self,
        g: &GruLayer<WeightMatrix>,
        li: usize,
        n: usize,
        states: Option<&mut [Option<RefState>]>,
        scratch: &mut RefScratch,
    ) {
        let h = g.hidden_dim();
        let in_dim = g.input_dim();
        let RefScratch {
            a,
            b,
            off,
            active,
            xb,
            cb,
            cn,
            c_state,
            ..
        } = scratch;
        let (pre, rec, rc) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        let (pre_c, rec_c) = (&mut Vec::new(), &mut Vec::new());
        let mv = &mut MatVecScratch::default();
        let mut z = Vec::new();
        let len_of = |s: usize| off[s + 1] - off[s];
        let max_t = (0..n).map(len_of).max().unwrap_or(0);
        b.resize(off[n] * h, 0.0);
        c_state.resize(n * h, 0.0);
        for s in 0..n {
            let cs = &mut c_state[s * h..(s + 1) * h];
            match states.as_ref().and_then(|st| st[s].as_ref()) {
                Some(ns) => cs.copy_from_slice(&ns[li].0),
                None => cs.iter_mut().for_each(|v| *v = 0.0),
            }
        }

        for t in 0..max_t {
            active.clear();
            active.extend((0..n).filter(|&s| t < len_of(s)));
            let bsz = active.len();
            xb.clear();
            cb.clear();
            for &s in active.iter() {
                xb.extend_from_slice(&a[(off[s] + t) * in_dim..][..in_dim]);
                cb.extend_from_slice(&c_state[s * h..(s + 1) * h]);
            }
            pre.resize(bsz * 2 * h, 0.0);
            rec.resize(bsz * 2 * h, 0.0);
            z.resize(bsz * h, 0.0);
            rc.resize(bsz * h, 0.0);
            pre_c.resize(bsz * h, 0.0);
            rec_c.resize(bsz * h, 0.0);
            cn.resize(bsz * h, 0.0);
            g.wzr_x.matvec_batch_into(xb, pre, bsz, mv);
            g.wzr_c.matvec_batch_into(cb, rec, bsz, mv);
            for bi in 0..bsz {
                let pre = &mut pre[bi * 2 * h..(bi + 1) * 2 * h];
                let rec = &rec[bi * 2 * h..(bi + 1) * 2 * h];
                let c = &cb[bi * h..(bi + 1) * h];
                for ((p, rv), bias) in pre.iter_mut().zip(rec.iter()).zip(g.bias_zr.iter()) {
                    *p = self.q(*p + rv + bias);
                }
                for k in 0..h {
                    z[bi * h + k] = self.datapath.sigmoid.eval(pre[k]);
                    rc[bi * h + k] = self.q(self.datapath.sigmoid.eval(pre[h + k]) * c[k]);
                }
            }
            g.wcx.matvec_batch_into(xb, pre_c, bsz, mv);
            g.wcc.matvec_batch_into(rc, rec_c, bsz, mv);
            for bi in 0..bsz {
                let pre_c = &mut pre_c[bi * h..(bi + 1) * h];
                let rec_c = &rec_c[bi * h..(bi + 1) * h];
                let c = &cb[bi * h..(bi + 1) * h];
                let c_new = &mut cn[bi * h..(bi + 1) * h];
                for ((p, rv), bias) in pre_c.iter_mut().zip(rec_c.iter()).zip(g.bias_c.iter()) {
                    *p = self.q(*p + rv + bias);
                }
                for k in 0..h {
                    let c_tilde = self.datapath.tanh.eval(pre_c[k]);
                    c_new[k] = self.q((1.0 - z[bi * h + k]) * c[k] + z[bi * h + k] * c_tilde);
                }
            }
            for (bi, &s) in active.iter().enumerate() {
                c_state[s * h..(s + 1) * h].copy_from_slice(&cn[bi * h..(bi + 1) * h]);
                b[(off[s] + t) * h..][..h].copy_from_slice(&cn[bi * h..(bi + 1) * h]);
            }
        }
        if let Some(st) = states {
            for s in 0..n {
                if let Some(ns) = st[s].as_mut() {
                    ns[li].0.copy_from_slice(&c_state[s * h..(s + 1) * h]);
                }
            }
        }
    }
}

/// One model shape of the sweep.
#[derive(Debug, Clone, Copy)]
struct Shape {
    cell: CellType,
    hidden: usize,
    layers: usize,
    peephole: bool,
    projection: Option<usize>,
    block: usize,
}

impl Shape {
    fn build(self, rng: &mut impl Rng) -> QuantizedNetwork {
        let mut builder = ModelSpec::new(self.cell, IN_DIM, 5)
            .layer_dims(&vec![self.hidden; self.layers])
            .peephole(self.peephole);
        if let Some(r) = self.projection {
            builder = builder.projection(r);
        }
        let dense = builder.build(rng);
        let net = compress_network(&dense, BlockPolicy::uniform(self.block));
        QuantizedNetwork::new(&net, &DatapathConfig::paper_12bit())
    }
}

const IN_DIM: usize = 12;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Ragged batches of 1, 3 and 16 stateful lanes through both datapaths:
/// every logit and every element of every final state must agree in bits.
fn assert_bitwise_equal_to_reference(shape: Shape, max_frames: usize) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
    let q = shape.build(&mut rng);
    let (mut scratch, mut ref_scratch) = (ExecScratch::new(), RefScratch::default());
    for n in [1usize, 3, 16] {
        // Inputs past ±8 in places: saturation and both PWL boundaries.
        let utts: Vec<Vec<Vec<f32>>> = (0..n)
            .map(|s| {
                (0..1 + (s * 5 + n) % max_frames)
                    .map(|_| (0..IN_DIM).map(|_| rng.gen_range(-10.0f32..10.0)).collect())
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f32>]> = utts.iter().map(Vec::as_slice).collect();
        let mut states: Vec<_> = (0..n).map(|_| Some(q.fresh_state())).collect();
        let fresh = |state: &NetworkState| -> RefState {
            let layers = state.layers();
            layers.map(|(c, y)| (c.to_vec(), y.to_vec())).collect()
        };
        let mut ref_states: Vec<_> = states.iter().map(|s| s.as_ref().map(fresh)).collect();
        let (mut out, mut ref_out) = (Vec::new(), Vec::new());
        // Two chunks, so the second starts from a carried state.
        for _ in 0..2 {
            q.forward_logits_batch_states_into(&refs, &mut states, &mut out, &mut scratch);
            q.forward_batch_core_reference(
                &refs,
                Some(&mut ref_states),
                &mut ref_out,
                &mut ref_scratch,
            );
            for (got, want) in out.iter().flatten().zip(ref_out.iter().flatten()) {
                assert_eq!(bits(got), bits(want), "{shape:?} batch {n}: logits");
            }
            for (got, want) in states.iter().flatten().zip(ref_states.iter().flatten()) {
                for (g, w) in got.layers().zip(want.iter()) {
                    assert_eq!(bits(g.0), bits(&w.0), "{shape:?} batch {n}: c state");
                    assert_eq!(bits(g.1), bits(&w.1), "{shape:?} batch {n}: y state");
                }
            }
        }
    }
}

#[test]
fn slice_passes_are_bitwise_the_per_element_datapath_on_small_cells() {
    // 8 is two SSE lanes, 20 is not a multiple of the lane width.
    for hidden in [8, 20] {
        for peephole in [false, true] {
            for projection in [None, Some(hidden / 2)] {
                let shape = Shape {
                    cell: CellType::Lstm,
                    hidden,
                    layers: 2,
                    peephole,
                    projection,
                    block: 4,
                };
                assert_bitwise_equal_to_reference(shape, 7);
            }
        }
        let shape = Shape {
            cell: CellType::Gru,
            hidden,
            layers: 2,
            peephole: false,
            projection: None,
            block: 4,
        };
        assert_bitwise_equal_to_reference(shape, 7);
    }
}

#[test]
fn slice_passes_are_bitwise_the_per_element_datapath_on_the_paper_cells() {
    let lstm = Shape {
        cell: CellType::Lstm,
        hidden: 1024,
        layers: 1,
        peephole: true,
        projection: Some(512),
        block: 8,
    };
    assert_bitwise_equal_to_reference(lstm, 2);
    let gru = Shape {
        cell: CellType::Gru,
        projection: None,
        ..lstm
    };
    assert_bitwise_equal_to_reference(gru, 2);
}
