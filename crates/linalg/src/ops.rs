//! Element-wise vector operations.
//!
//! LSTM/GRU cells are dominated by matvecs plus a fixed menu of point-wise
//! operations (the `⊙` and `+` of the paper's Eqns. 1 and 2). Keeping them
//! as named free functions makes the cell implementations read like the
//! paper's equations and gives the benches a single place to measure.

/// `acc[i] += a[i] * b[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn hadamard_acc(acc: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert_eq!(acc.len(), a.len(), "length mismatch");
    for ((o, x), y) in acc.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += x * y;
    }
}

/// Dot product.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Index of the maximum element (ties resolve to the first).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(x: &[f32]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn argmax_returns_first_max() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
    }

    #[test]
    fn dot_matches_expansion() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }
}
