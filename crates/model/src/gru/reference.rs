//! `GruLayer::step` as it stood before Eqn. 2 was written once over
//! [`CellArith`], kept word for word as the float oracle (see
//! `lstm/reference.rs`). The shared step at the float arithmetic is held
//! to its bits, and so is the sequence walker's tape.

use super::*;
use crate::activation::sigmoid;
use crate::{compress_network, BlockPolicy, CellType, ModelSpec, RnnLayer};
use rand::{Rng, SeedableRng};

/// Per-timestep values the per-element step cached for BPTT.
#[derive(Debug, Clone)]
pub(crate) struct GruCache {
    pub(crate) x: Vec<f32>,
    pub(crate) c_prev: Vec<f32>,
    pub(crate) z: Vec<f32>,
    pub(crate) r: Vec<f32>,
    pub(crate) rc: Vec<f32>,
    pub(crate) c_tilde: Vec<f32>,
}

impl<M: MatVec> GruLayer<M> {
    pub(crate) fn step_reference(&self, x: &[f32], c_prev: &[f32]) -> (Vec<f32>, GruCache) {
        let h = self.hidden_dim;
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(c_prev.len(), h, "state dimension mismatch");

        // Fused gates: z, r = σ(W_(zr)x·x + W_(zr)c·c_{t-1} + b)  (2a, 2b).
        let mut pre = self.wzr_x.matvec(x);
        let rec = self.wzr_c.matvec(c_prev);
        for ((p, r), b) in pre.iter_mut().zip(rec.iter()).zip(self.bias_zr.iter()) {
            *p += r + b;
        }
        let z: Vec<f32> = pre[..h].iter().map(|&v| sigmoid(v)).collect();
        let r: Vec<f32> = pre[h..].iter().map(|&v| sigmoid(v)).collect();

        // c̃ = tanh(W_c̃x·x + W_c̃c·(r ⊙ c_{t-1}) + b_c̃)   (2c, h = tanh).
        let rc: Vec<f32> = r.iter().zip(c_prev.iter()).map(|(a, b)| a * b).collect();
        let mut pre_c = self.wcx.matvec(x);
        let rec_c = self.wcc.matvec(&rc);
        for ((p, r), b) in pre_c.iter_mut().zip(rec_c.iter()).zip(self.bias_c.iter()) {
            *p += r + b;
        }
        let c_tilde: Vec<f32> = pre_c.iter().map(|&v| v.tanh()).collect();

        // c_t = (1 − z) ⊙ c_{t-1} + z ⊙ c̃   (2d).
        let c: Vec<f32> = (0..h)
            .map(|k| (1.0 - z[k]) * c_prev[k] + z[k] * c_tilde[k])
            .collect();

        let cache = GruCache {
            x: x.to_vec(),
            c_prev: c_prev.to_vec(),
            z,
            r,
            rc,
            c_tilde,
        };
        (c, cache)
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
fn assert_bitwise_equal_to_reference<M: MatVec>(layer: &GruLayer<M>, what: &str) {
    let h = layer.hidden_dim();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
    let mut scratch = GruScratch::new();

    let mut state = vec![0.0; h];
    for t in 0..3 {
        let x = random_vec(&mut rng, IN_DIM, 2.0);
        let (want, want_cache) = layer.step_reference(&x, &state);
        let mut got = vec![0.0; h];
        layer.step_batch_into(&x, &state, &mut got, 1, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "{what} t={t}: c");
        for (plane, got, want) in [
            ("z", &scratch.pre[..h], &want_cache.z),
            ("r", &scratch.pre[h..], &want_cache.r),
            ("rc", &scratch.rc[..], &want_cache.rc),
            ("c_tilde", &scratch.pre_c[..], &want_cache.c_tilde),
        ] {
            assert_eq!(bits(got), bits(want), "{what} t={t}: cache plane {plane}");
        }
        state = want;
    }

    for batch in [1usize, 3, 16] {
        let xs = random_vec(&mut rng, batch * IN_DIM, 2.0);
        let c_prev = random_vec(&mut rng, batch * h, 1.0);
        let mut c_next = vec![0.0; batch * h];
        layer.step_batch_into(&xs, &c_prev, &mut c_next, batch, &mut scratch);
        for b in 0..batch {
            let x = &xs[b * IN_DIM..(b + 1) * IN_DIM];
            let (want, _) = layer.step_reference(x, &c_prev[b * h..(b + 1) * h]);
            let c = &c_next[b * h..(b + 1) * h];
            assert_eq!(bits(c), bits(&want), "{what} batch {batch} lane {b}: c");
        }
    }
}

#[test]
fn shared_step_at_float_is_bitwise_the_per_element_step() {
    for (hidden, block) in [(8, 4), (20, 4), (256, 8)] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let dense = ModelSpec::new(CellType::Gru, IN_DIM, 5)
            .layer_dims(&[hidden])
            .build(&mut rng);
        let what = format!("H={hidden}");
        let RnnLayer::Gru(layer) = &dense.layers()[0] else {
            unreachable!("built as a GRU");
        };
        assert_bitwise_equal_to_reference(layer, &format!("dense {what}"));
        let compressed = compress_network(&dense, BlockPolicy::uniform(block));
        let RnnLayer::Gru(layer) = &compressed.layers()[0] else {
            unreachable!("built as a GRU");
        };
        assert_bitwise_equal_to_reference(layer, &format!("circulant {what}"));
    }
}

/// The stacked x-side projection against the layer's own two calls: the
/// next state and both gate planes, in bits, over one reused scratch with
/// the batch shrinking the way a lockstep driver's ragged tail does.
#[test]
fn stacked_projection_is_bitwise_the_two_call_projection() {
    let policies = [
        BlockPolicy::uniform(1),
        BlockPolicy::uniform(4),
        BlockPolicy::uniform(8),
        BlockPolicy::with_io_block(4, 8),
        BlockPolicy::with_io_block(8, 16),
    ];
    // 2H and H on and off every block boundary above, and an input width
    // that leaves a ragged block column.
    for (in_dim, hidden) in [(8, 8), (12, 20), (7, 5), (12, 13), (153, 64)] {
        for policy in policies {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(47);
            let dense = ModelSpec::new(CellType::Gru, in_dim, 5)
                .layer_dims(&[hidden])
                .build(&mut rng);
            let compressed = compress_network(&dense, policy);
            let RnnLayer::Gru(layer) = &compressed.layers()[0] else {
                unreachable!("built as a GRU");
            };
            let what = format!("I={in_dim} H={hidden} {policy:?}");
            let stack = layer
                .input_stack()
                .expect("one policy block for both operands");
            let (mut two, mut one) = (GruScratch::new(), GruScratch::new());
            for batch in [16usize, 3, 1, 16] {
                let xs = random_vec(&mut rng, batch * in_dim, 2.0);
                let c_prev = random_vec(&mut rng, batch * hidden, 1.0);
                let mut want = vec![0.0; batch * hidden];
                let mut got = vec![f32::NAN; batch * hidden];
                layer.step_batch_with(&FloatArith, &xs, &c_prev, &mut want, batch, &mut two);
                layer.step_batch_stacked_with(
                    &FloatArith,
                    &stack,
                    &xs,
                    &c_prev,
                    &mut got,
                    batch,
                    &mut one,
                );
                assert_eq!(bits(&got), bits(&want), "{what} batch {batch}: c");
                assert_eq!(bits(&one.pre), bits(&two.pre), "{what} batch {batch}: z, r");
                assert_eq!(
                    bits(&one.pre_c),
                    bits(&two.pre_c),
                    "{what} batch {batch}: c̃"
                );
            }
        }
    }
}

#[test]
fn operands_of_different_kinds_have_no_input_stack() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(53);
    let dense = ModelSpec::new(CellType::Gru, IN_DIM, 5)
        .layer_dims(&[8])
        .build(&mut rng);
    let compressed = compress_network(&dense, BlockPolicy::uniform(4));
    let RnnLayer::Gru(g) = &compressed.layers()[0] else {
        unreachable!("built as a GRU");
    };
    let mixed = GruLayer::from_parts(
        g.input_dim(),
        g.hidden_dim(),
        g.wzr_x.clone(),
        g.wzr_c.clone(),
        g.bias_zr.clone(),
        ernn_linalg::WeightMatrix::Dense(g.wcx.to_dense()),
        g.wcc.clone(),
        g.bias_c.clone(),
    );
    assert!(g.input_stack().is_some());
    assert!(mixed.input_stack().is_none());
}
