//! `LstmLayer::step` as it stood before Eqn. 1 was written once over
//! [`CellArith`], kept word for word as the float oracle: allocating
//! matvecs, the gate math in mixed per-`k` loops, every cache plane its own
//! `Vec`. The shared step at the float arithmetic is held to its bits, and
//! so is the sequence walker's tape (`seq.rs` loops this step by hand).

use super::*;
use crate::activation::sigmoid;
use crate::{compress_network, BlockPolicy, CellType, ModelSpec, RnnLayer};
use rand::{Rng, SeedableRng};

/// Recurrent state carried across timesteps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LstmState {
    pub(crate) c: Vec<f32>,
    pub(crate) y: Vec<f32>,
}

/// Per-timestep values the per-element step cached for BPTT.
#[derive(Debug, Clone)]
pub(crate) struct LstmCache {
    pub(crate) x: Vec<f32>,
    pub(crate) y_prev: Vec<f32>,
    pub(crate) c_prev: Vec<f32>,
    pub(crate) i: Vec<f32>,
    pub(crate) f: Vec<f32>,
    pub(crate) g: Vec<f32>,
    pub(crate) o: Vec<f32>,
    pub(crate) c: Vec<f32>,
    pub(crate) tanh_c: Vec<f32>,
    pub(crate) m: Vec<f32>,
}

impl<M: MatVec> LstmLayer<M> {
    pub(crate) fn zero_state(&self) -> LstmState {
        LstmState {
            c: vec![0.0; self.cfg.hidden_dim],
            y: vec![0.0; self.cfg.output_dim],
        }
    }

    pub(crate) fn step_reference(&self, x: &[f32], state: &LstmState) -> (LstmState, LstmCache) {
        let h = self.cfg.hidden_dim;
        assert_eq!(x.len(), self.cfg.input_dim, "input dimension mismatch");
        assert_eq!(state.c.len(), h, "cell state dimension mismatch");
        assert_eq!(
            state.y.len(),
            self.cfg.output_dim,
            "output dimension mismatch"
        );

        // Fused pre-activations: W_(ifgo)x · x + W_(ifgo)r · y_{t-1} + b.
        let mut pre = self.wx.matvec(x);
        let rec = self.wr.matvec(&state.y);
        for ((p, r), b) in pre.iter_mut().zip(rec.iter()).zip(self.bias.iter()) {
            *p += r + b;
        }

        // Peepholes on i and f read c_{t-1} (Eqn. 1a/1b).
        if let Some([pi, pf, _]) = &self.peepholes {
            for k in 0..h {
                pre[k] += pi[k] * state.c[k];
                pre[h + k] += pf[k] * state.c[k];
            }
        }

        let mut i_gate = vec![0.0f32; h];
        let mut f_gate = vec![0.0f32; h];
        let mut g_cell = vec![0.0f32; h];
        for k in 0..h {
            i_gate[k] = sigmoid(pre[k]);
            f_gate[k] = sigmoid(pre[h + k]);
            g_cell[k] = pre[2 * h + k].tanh();
        }

        // c_t = f ⊙ c_{t-1} + g ⊙ i   (Eqn. 1d)
        let mut c = vec![0.0f32; h];
        for k in 0..h {
            c[k] = f_gate[k] * state.c[k] + g_cell[k] * i_gate[k];
        }

        // Peephole on o reads c_t (Eqn. 1e).
        let mut o_gate = vec![0.0f32; h];
        for k in 0..h {
            let mut po = pre[3 * h + k];
            if let Some([_, _, p_o]) = &self.peepholes {
                po += p_o[k] * c[k];
            }
            o_gate[k] = sigmoid(po);
        }

        // m_t = o ⊙ tanh(c_t)   (Eqn. 1f, h = tanh)
        let tanh_c: Vec<f32> = c.iter().map(|&v| v.tanh()).collect();
        let m: Vec<f32> = o_gate
            .iter()
            .zip(tanh_c.iter())
            .map(|(&o, &tc)| o * tc)
            .collect();

        // y_t = W_ym · m_t   (Eqn. 1g) or identity without projection.
        let y = match &self.wym {
            Some(w) => w.matvec(&m),
            None => m.clone(),
        };

        let cache = LstmCache {
            x: x.to_vec(),
            y_prev: state.y.clone(),
            c_prev: state.c.clone(),
            i: i_gate,
            f: f_gate,
            g: g_cell,
            o: o_gate,
            c: c.clone(),
            tanh_c,
            m,
        };
        (LstmState { c, y }, cache)
    }
}

const IN_DIM: usize = 12;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_vec(rng: &mut impl Rng, len: usize, bound: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// A batch-1 `step_batch_into` over a carried state (next state and every
/// plane the tape is appended from) and every lane of it at batches 1, 3
/// and 16 against the oracle, in bits.
fn assert_bitwise_equal_to_reference<M: MatVec>(layer: &LstmLayer<M>, what: &str) {
    let cfg = *layer.config();
    let h = cfg.hidden_dim;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
    let mut scratch = LstmScratch::new();

    let mut state = layer.zero_state();
    for t in 0..3 {
        let x = random_vec(&mut rng, cfg.input_dim, 2.0);
        let (want, want_cache) = layer.step_reference(&x, &state);
        let mut got = layer.zero_state();
        layer.step_batch_into(
            &x,
            &state.c,
            &state.y,
            &mut got.c,
            &mut got.y,
            1,
            &mut scratch,
        );
        assert_eq!(bits(&got.c), bits(&want.c), "{what} t={t}: c");
        assert_eq!(bits(&got.y), bits(&want.y), "{what} t={t}: y");
        for (plane, got, want) in [
            ("i", &scratch.pre[..h], &want_cache.i),
            ("f", &scratch.pre[h..2 * h], &want_cache.f),
            ("g", &scratch.pre[2 * h..3 * h], &want_cache.g),
            ("o", &scratch.pre[3 * h..], &want_cache.o),
            ("c", &got.c[..], &want_cache.c),
            ("tanh_c", &scratch.tanh_c[..], &want_cache.tanh_c),
            ("m", &scratch.m[..], &want_cache.m),
        ] {
            assert_eq!(bits(got), bits(want), "{what} t={t}: cache plane {plane}");
        }
        state = want;
    }

    let r = cfg.output_dim;
    for batch in [1usize, 3, 16] {
        let xs = random_vec(&mut rng, batch * cfg.input_dim, 2.0);
        let c_prev = random_vec(&mut rng, batch * h, 1.0);
        let y_prev = random_vec(&mut rng, batch * r, 1.0);
        let (mut c_next, mut y_next) = (vec![0.0; batch * h], vec![0.0; batch * r]);
        layer.step_batch_into(
            &xs,
            &c_prev,
            &y_prev,
            &mut c_next,
            &mut y_next,
            batch,
            &mut scratch,
        );
        for b in 0..batch {
            let lane = LstmState {
                c: c_prev[b * h..(b + 1) * h].to_vec(),
                y: y_prev[b * r..(b + 1) * r].to_vec(),
            };
            let x = &xs[b * cfg.input_dim..(b + 1) * cfg.input_dim];
            let (want, _) = layer.step_reference(x, &lane);
            let (c, y) = (&c_next[b * h..(b + 1) * h], &y_next[b * r..(b + 1) * r]);
            assert_eq!(bits(c), bits(&want.c), "{what} batch {batch} lane {b}: c");
            assert_eq!(bits(y), bits(&want.y), "{what} batch {batch} lane {b}: y");
        }
    }
}

#[test]
fn shared_step_at_float_is_bitwise_the_per_element_step() {
    // 8 is two SSE lanes, 20 is not a multiple of the lane width, 256 is
    // more than one 32-row tile of the lane-major matvec kernels.
    for (hidden, block) in [(8, 4), (20, 4), (256, 8)] {
        for peephole in [false, true] {
            for projection in [None, Some(hidden / 2)] {
                let mut builder = ModelSpec::new(CellType::Lstm, IN_DIM, 5)
                    .layer_dims(&[hidden])
                    .peephole(peephole);
                if let Some(r) = projection {
                    builder = builder.projection(r);
                }
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
                let dense = builder.build(&mut rng);
                let what = format!("H={hidden} peep={peephole} proj={projection:?}");
                let RnnLayer::Lstm(layer) = &dense.layers()[0] else {
                    unreachable!("built as an LSTM");
                };
                assert_bitwise_equal_to_reference(layer, &format!("dense {what}"));
                let compressed = compress_network(&dense, BlockPolicy::uniform(block));
                let RnnLayer::Lstm(layer) = &compressed.layers()[0] else {
                    unreachable!("built as an LSTM");
                };
                assert_bitwise_equal_to_reference(layer, &format!("circulant {what}"));
            }
        }
    }
}
