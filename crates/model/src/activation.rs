//! Scalar activation functions and their derivatives.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^(−x))`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One of the two activation units a cell step evaluates: σ for the
/// gates, tanh for the LSTM cell input and output and the GRU candidate.
///
/// The paper writes the cell-input activation of Eqn. 1c with `σ`; the Sak
/// et al. architecture it cites uses `tanh` there, and so does every cell
/// here (better conditioning for training). The choice is fixed, not a
/// setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Act {
    /// Logistic sigmoid, output in `(0, 1)`.
    Sigmoid,
    /// Hyperbolic tangent, output in `(−1, 1)`.
    #[default]
    Tanh,
}

impl Act {
    /// Applies the activation.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Act::Sigmoid => sigmoid(x),
            Act::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *output* value `y = eval(x)`,
    /// the form BPTT uses (`σ' = y(1−y)`, `tanh' = 1−y²`).
    #[inline]
    pub fn deriv_from_output(self, y: f32) -> f32 {
        match self {
            Act::Sigmoid => y * (1.0 - y),
            Act::Tanh => 1.0 - y * y,
        }
    }

    /// Applies the activation to a slice in place.
    pub fn eval_slice(self, xs: &mut [f32]) {
        for x in xs {
            *x = self.eval(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_midpoint_and_symmetry() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for act in [Act::Sigmoid, Act::Tanh] {
            for i in -10..=10 {
                let x = i as f32 * 0.3;
                let eps = 1e-3;
                let fd = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let an = act.deriv_from_output(act.eval(x));
                assert!((fd - an).abs() < 1e-3, "{act:?} at {x}: {fd} vs {an}");
            }
        }
    }

    #[test]
    fn slice_eval_matches_scalar() {
        let mut xs = vec![-1.0f32, 0.0, 1.0];
        Act::Tanh.eval_slice(&mut xs);
        assert_eq!(xs, vec![(-1.0f32).tanh(), 0.0, 1.0f32.tanh()]);
    }

    #[test]
    fn default_is_tanh() {
        assert_eq!(Act::default(), Act::Tanh);
    }
}
