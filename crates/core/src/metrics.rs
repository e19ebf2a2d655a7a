//! Accounting: node→Cloud data movement and diagnosis-score summaries.
//!
//! Data movement is one of the metrics the paper's end-to-end
//! evaluation reports (its Table II); the update-time and energy
//! accounting of its Fig. 25 lives in `insitu_cloud::StageReport`.

use serde::{Deserialize, Serialize};

/// Bytes occupied by one image on the uplink (3×36×36 fp32).
pub const IMAGE_BYTES: u64 = (3 * 36 * 36 * 4) as u64;

/// Accumulates node→Cloud data movement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataMovementMeter {
    /// Images examined by the node.
    pub images_seen: u64,
    /// Images actually uploaded.
    pub images_uploaded: u64,
    /// Bytes uploaded.
    pub bytes_uploaded: u64,
}

impl DataMovementMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a processed stage: `seen` images examined, `uploaded`
    /// of them sent to the Cloud.
    pub fn record(&mut self, seen: u64, uploaded: u64) {
        self.images_seen += seen;
        self.images_uploaded += uploaded;
        self.bytes_uploaded += uploaded * IMAGE_BYTES;
    }

    /// Fraction of seen images that were uploaded (1.0 when nothing
    /// was seen, i.e. "everything moved" is the conservative default).
    pub fn upload_fraction(&self) -> f64 {
        if self.images_seen == 0 {
            1.0
        } else {
            self.images_uploaded as f64 / self.images_seen as f64
        }
    }
}

/// Summary statistics of a stage's diagnosis scores, computed with
/// the SIMD reductions in
/// [`insitu_tensor::simd`]: a deterministic 8-lane sum for the mean
/// and a NaN-skipping min/max scan. Stage telemetry and snapshots
/// report it so drift shows up as a shifting score distribution, not
/// just a valuable-count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScoreSummary {
    /// Scores summarized.
    pub count: usize,
    /// Mean score (0 when empty).
    pub mean: f32,
    /// Smallest score (0 when empty).
    pub min: f32,
    /// Largest score (0 when empty).
    pub max: f32,
}

impl ScoreSummary {
    /// Summarizes a slice of scores.
    pub fn from_scores(scores: &[f32]) -> Self {
        if scores.is_empty() {
            return Self::default();
        }
        let (min, max) = insitu_tensor::simd::min_max(scores);
        ScoreSummary {
            count: scores.len(),
            mean: insitu_tensor::simd::sum8(scores) / scores.len() as f32,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_summary_statistics() {
        let s = ScoreSummary::from_scores(&[0.25, 0.75, 0.5, 1.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 0.625).abs() < 1e-6);
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 1.0);
        assert_eq!(ScoreSummary::from_scores(&[]), ScoreSummary::default());
    }

    #[test]
    fn movement_accounting() {
        let mut m = DataMovementMeter::new();
        assert_eq!(m.upload_fraction(), 1.0);
        m.record(100, 25);
        m.record(100, 15);
        assert_eq!(m.images_seen, 200);
        assert_eq!(m.images_uploaded, 40);
        assert_eq!(m.bytes_uploaded, 40 * IMAGE_BYTES);
        assert!((m.upload_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn image_bytes_constant() {
        assert_eq!(IMAGE_BYTES, 15_552);
    }
}
