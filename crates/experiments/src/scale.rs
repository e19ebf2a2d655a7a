//! Experiment scale control.
//!
//! Training-based experiments run at three sizes:
//!
//! * [`Scale::Smoke`] — seconds; used by the unit tests to validate
//!   wiring and result shapes.
//! * [`Scale::Fast`] — a minute or two per experiment; the default for
//!   the `repro` binary.
//! * [`Scale::Full`] — the final-numbers configuration (paper counts
//!   scaled 1:100).
//!
//! Pure-analytical experiments (device-model figures) ignore the scale.

use std::fmt;

/// How large to run a training-based experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal wiring check (unit tests).
    Smoke,
    /// Default: fast but meaningful.
    Fast,
    /// Final numbers.
    Full,
}

impl Scale {
    /// Reads `INSITU_SCALE` from the environment (`smoke`, `fast`,
    /// `full`), defaulting to `Fast`.
    pub fn from_env() -> Scale {
        match std::env::var("INSITU_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            _ => Scale::Fast,
        }
    }

    /// Picks among the three per-scale values.
    pub fn pick<T: Copy>(&self, smoke: T, fast: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Fast => fast,
            Scale::Full => full,
        }
    }

    /// Image-count multiplier relative to the paper's thousands
    /// (paper 100k → `100 * images_per_k`).
    pub fn images_per_k(&self) -> usize {
        self.pick(1, 4, 10)
    }

    /// Epoch count for bootstrap-style training jobs.
    pub fn epochs(&self) -> usize {
        self.pick(2, 10, 16)
    }

    /// Epoch count for incremental fine-tuning jobs.
    pub fn fine_tune_epochs(&self) -> usize {
        self.pick(1, 5, 8)
    }

    /// Held-out evaluation samples.
    pub fn eval_images(&self) -> usize {
        self.pick(32, 200, 400)
    }

    /// Number of recognition classes.
    pub fn classes(&self) -> usize {
        self.pick(4, 6, 8)
    }

    /// Jigsaw permutation-set size.
    pub fn permutations(&self) -> usize {
        self.pick(4, 12, 16)
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scale::Smoke => "smoke",
            Scale::Fast => "fast",
            Scale::Full => "full",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Fast.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn knobs_grow_with_scale() {
        assert!(Scale::Smoke.images_per_k() < Scale::Fast.images_per_k());
        assert!(Scale::Fast.images_per_k() < Scale::Full.images_per_k());
        assert!(Scale::Smoke.epochs() <= Scale::Full.epochs());
    }

    #[test]
    fn display_names() {
        assert_eq!(Scale::Fast.to_string(), "fast");
    }
}
