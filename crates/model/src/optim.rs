//! The gradient-descent optimizer.
//!
//! The ADMM first subproblem "can be solved by stochastic gradient descent
//! and the complexity is the same as training the original RNN"
//! (Sec. III-B). Every training phase here runs [`Sgd`]; the paper's
//! remark that ADAM also fits is not reproduced.
//!
//! Gradients are an `RnnNetwork<Matrix>` shaped like the parameters
//! ([`crate::RnnNetwork::zero_grads`]), and each cell lists its tensors
//! once, so the optimizer operates on the flattened parameter/gradient
//! slice pairs [`crate::RnnNetwork::param_slices_mut`] /
//! [`crate::RnnNetwork::param_slices`] yield from that one list, in one
//! order, keeping its momentum in a single flat buffer.

/// SGD momentum of every training phase.
pub const MOMENTUM: f32 = 0.9;
/// Global gradient-norm clip of every training phase.
pub const CLIP_NORM: f32 = 2.0;

fn global_norm(grads: &[&[f32]]) -> f32 {
    grads
        .iter()
        .flat_map(|g| g.iter())
        .map(|v| v * v)
        .sum::<f32>()
        .sqrt()
}

/// SGD with classical momentum [`MOMENTUM`] and the global-norm gradient
/// clip [`CLIP_NORM`] (standard for RNN training). [`Sgd::step`] holds
/// the only clip.
///
/// ```
/// use ernn_model::Sgd;
/// let mut opt = Sgd::new(0.5);
/// let mut w = vec![1.0f32, -1.0];
/// // Below the clip the first step is lr·g ...
/// opt.step(&mut [&mut w], &[&[0.5, -0.5]]);
/// assert_eq!(w, [0.75, -0.75]);
/// // ... and a gradient of norm 50 is scaled to norm 2.
/// let mut v = vec![0.0f32, 0.0];
/// Sgd::new(0.5).step(&mut [&mut v], &[&[30.0, 40.0]]);
/// assert!((v[0] + 0.6).abs() < 1e-6 && (v[1] + 0.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step: the gradients are scaled down to global
    /// norm [`CLIP_NORM`] when above it, then folded into the momentum.
    ///
    /// `params[i]` and `grads[i]` must have identical lengths and identical
    /// ordering across calls (the momentum is kept positionally).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn step(&mut self, params: &mut [&mut [f32]], grads: &[&[f32]]) {
        assert_eq!(params.len(), grads.len(), "param/grad group mismatch");
        let n = grads.iter().map(|g| g.len()).sum();
        if self.velocity.len() != n {
            self.velocity = vec![0.0; n];
        }
        let norm = global_norm(grads);
        let scale = if norm > CLIP_NORM {
            CLIP_NORM / norm
        } else {
            1.0
        };
        let mut off = 0usize;
        for (p, g) in params.iter_mut().zip(grads.iter()) {
            assert_eq!(p.len(), g.len(), "param/grad length mismatch");
            for (k, (pv, gv)) in p.iter_mut().zip(g.iter()).enumerate() {
                let v = &mut self.velocity[off + k];
                *v = MOMENTUM * *v + scale * gv;
                *pv -= self.lr * *v;
            }
            off += p.len();
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (learning-rate schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = 0.5‖w − target‖² with gradient w − target.
    fn run_to_convergence(opt: &mut Sgd, steps: usize) -> Vec<f32> {
        let target = [3.0f32, -2.0, 0.5];
        let mut w = vec![0.0f32; 3];
        for _ in 0..steps {
            let g: Vec<f32> = w.iter().zip(target.iter()).map(|(a, b)| a - b).collect();
            opt.step(&mut [&mut w], &[&g]);
        }
        w
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = run_to_convergence(&mut opt, 200);
        assert!((w[0] - 3.0).abs() < 1e-3, "{w:?}");
    }

    #[test]
    fn sgd_momentum_converges() {
        // The first gradient (norm ≈ 3.6) is clipped; momentum carries the
        // iterate the rest of the way.
        let mut opt = Sgd::new(0.05);
        let w = run_to_convergence(&mut opt, 300);
        assert!((w[1] + 2.0).abs() < 1e-2, "{w:?}");
    }

    #[test]
    fn first_step_below_the_clip_is_lr_times_g() {
        let mut opt = Sgd::new(0.25);
        let mut w = vec![1.0f32, 0.0];
        let g = [1.0f32, -1.5];
        opt.step(&mut [&mut w], &[&g]);
        assert_eq!(w, [1.0 - 0.25, 0.375]);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut opt = Sgd::new(1.0);
        let mut w = vec![0.0f32; 2];
        let g = vec![100.0f32, 0.0];
        opt.step(&mut [&mut w], &[&g]);
        // The clipped gradient has norm CLIP_NORM, so the update is
        // exactly lr · 2.
        assert_eq!(w, [-CLIP_NORM, 0.0]);
    }

    #[test]
    fn multiple_groups_share_state_positionally() {
        let mut opt = Sgd::new(0.5);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        // Global norm ≈ 1.12, below the clip.
        let ga = vec![0.5f32];
        let gb = vec![1.0f32];
        opt.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        opt.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        // Momentum accumulates separately per position: the second
        // velocity is 0.9·g + g.
        assert!(a[0] != b[0]);
        assert!((a[0] - (-0.25 - 0.475)).abs() < 1e-6, "{a:?}");
        assert!((b[0] - (-0.5 - 0.95)).abs() < 1e-6, "{b:?}");
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "param/grad group mismatch")]
    fn rejects_mismatched_groups() {
        let mut opt = Sgd::new(0.1);
        let mut w = vec![0.0f32];
        opt.step(&mut [&mut w], &[]);
    }
}
