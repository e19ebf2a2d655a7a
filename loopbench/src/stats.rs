//! Order statistics over per-call samples.

/// A quantile of `samples` with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The quantile's value, in the samples' own unit.
    pub value: f64,
    /// How many samples it was taken over.
    pub n: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Some(Quantile {
        value,
        n: sorted.len(),
    })
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.0).unwrap().value, 1.0);
        assert_eq!(quantile(&s, 0.5).unwrap().value, 3.0);
        assert_eq!(quantile(&s, 1.0).unwrap().value, 5.0);
        assert!((quantile(&s, 0.1).unwrap().value - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&s, 0.9).unwrap().n, 5);
        assert!(quantile(&[], 0.5).is_none());
    }
}
