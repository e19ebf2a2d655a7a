//! Softmax cross-entropy loss and classification metrics.

use crate::error::NnError;
use crate::Result;
use insitu_tensor::Tensor;

/// Numerically stable softmax over the last dimension of a `(B, K)`
/// logit matrix.
///
/// Deliberately stays on libm `exp`: these probabilities feed training
/// gradients (via [`softmax_cross_entropy`]) and the diagnosis scores
/// that decide which samples a node uploads, so they sit inside the
/// seeded end-to-end feedback loop. A vectorized polynomial `exp` that
/// agrees with libm only to ~1e-7 per element is enough, over a few
/// incremental-update rounds, to fork an entire session trajectory
/// away from the seeds the regression suite pins; the historical libm
/// loop keeps every recorded trajectory bit-for-bit reproducible.
///
/// # Errors
///
/// Returns an error if `logits` is not 2-D.
pub fn softmax(logits: &Tensor) -> Result<Tensor> {
    let d = logits.dims();
    if d.len() != 2 {
        return Err(NnError::BadLabels { reason: format!("softmax expects (B, K), got {d:?}") });
    }
    let k = d[1];
    let mut out = logits.clone();
    if k > 0 {
        for row in out.as_mut_slice().chunks_mut(k) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    Ok(out)
}

/// Mean softmax cross-entropy loss and its gradient with respect to the
/// logits.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax - onehot) / B`.
///
/// # Errors
///
/// Returns an error if shapes disagree or a label is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let d = logits.dims();
    if d.len() != 2 || d[0] != labels.len() {
        return Err(NnError::BadLabels {
            reason: format!("logits {d:?} incompatible with {} labels", labels.len()),
        });
    }
    let (b, k) = (d[0], d[1]);
    if let Some(&bad) = labels.iter().find(|&&l| l >= k) {
        return Err(NnError::BadLabels { reason: format!("label {bad} out of range 0..{k}") });
    }
    let probs = softmax(logits)?;
    let p = probs.as_slice();
    let mut loss = 0.0f32;
    let mut dlogits = probs.clone();
    let g = dlogits.as_mut_slice();
    for (s, &label) in labels.iter().enumerate() {
        let pi = p[s * k + label].max(1e-12);
        loss -= pi.ln();
        g[s * k + label] -= 1.0;
    }
    let scale = 1.0 / b as f32;
    for v in g.iter_mut() {
        *v *= scale;
    }
    Ok((loss * scale, dlogits))
}

/// Fraction of rows whose argmax equals the label.
///
/// # Errors
///
/// Returns an error if shapes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let d = logits.dims();
    if d.len() != 2 || d[0] != labels.len() {
        return Err(NnError::BadLabels {
            reason: format!("logits {d:?} incompatible with {} labels", labels.len()),
        });
    }
    if labels.is_empty() {
        return Ok(0.0);
    }
    let k = d[1];
    let p = logits.as_slice();
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(s, &label)| {
            let row = &p[s * k..(s + 1) * k];
            let arg = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            arg == label
        })
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

/// Per-row predicted class (argmax of each logit row).
///
/// # Errors
///
/// Returns an error if `logits` is not 2-D.
pub fn predictions(logits: &Tensor) -> Result<Vec<usize>> {
    let d = logits.dims();
    if d.len() != 2 {
        return Err(NnError::BadLabels {
            reason: format!("predictions expects (B, K), got {d:?}"),
        });
    }
    let k = d[1];
    Ok(logits
        .as_slice()
        .chunks(k)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect())
}

/// Maximum softmax probability of each row; the standard confidence
/// score.
///
/// # Errors
///
/// Returns an error if `logits` is not 2-D.
pub fn confidence(logits: &Tensor) -> Result<Vec<f32>> {
    let probs = softmax(logits)?;
    let k = probs.dims()[1];
    Ok(probs
        .as_slice()
        .chunks(k)
        .map(|row| row.iter().copied().fold(0.0, f32::max))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_tensor::Rng;

    #[test]
    fn softmax_each_row_sums_to_one() {
        let mut rng = Rng::seed_from(1);
        let logits = Tensor::rand_uniform([5, 7], -10.0, 10.0, &mut rng);
        let p = softmax(&logits).unwrap();
        for row in p.as_slice().chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([1, 3], vec![101.0, 102.0, 103.0]).unwrap();
        let pa = softmax(&a).unwrap();
        let pb = softmax(&b).unwrap();
        assert!(pa.max_abs_diff(&pb).unwrap() < 1e-5);
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        // Extremely confident correct logits → near-zero loss.
        let logits = Tensor::from_vec([1, 3], vec![100.0, 0.0, 0.0]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Tensor::zeros([2, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[1, 3]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_cross_entropy() {
        let mut rng = Rng::seed_from(2);
        let logits = Tensor::rand_uniform([2, 5], -2.0, 2.0, &mut rng);
        let labels = [3usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels).unwrap();
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels).unwrap();
            let num = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 1e-3,
                "grad[{idx}]: num {num} vs ana {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn label_validation() {
        let logits = Tensor::zeros([2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err()); // count mismatch
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err()); // out of range
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits =
            Tensor::from_vec([3, 2], vec![2.0, 1.0, 0.0, 5.0, 1.0, 0.0]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert_eq!(predictions(&logits).unwrap(), vec![0, 1, 0]);
    }

    /// Confidence at the two entropy extremes: a near one-hot row and
    /// a uniform one.
    #[test]
    fn entropy_extremes() {
        let confident = Tensor::from_vec([1, 4], vec![100.0, 0.0, 0.0, 0.0]).unwrap();
        let uniform = Tensor::zeros([1, 4]);
        assert!(confidence(&confident).unwrap()[0] > 0.99);
        assert!((confidence(&uniform).unwrap()[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        let logits = Tensor::zeros([0, 3]);
        assert_eq!(accuracy(&logits, &[]).unwrap(), 0.0);
    }
}
