//! Incremental fine-tuning of a deployed model on newly uploaded data.
//!
//! [`fine_tune`] trains on images. The Cloud's default path trains the
//! unfrozen suffix from its stored frozen-prefix activations instead
//! (`fine_tune_from_activations`). Both hold out the same rows
//! (`split_holdout`) and run the same training loop, so given the
//! activations the prefix would compute, they produce the same weights
//! and report bit for bit.

use crate::Result;
use insitu_data::Dataset;
use insitu_nn::{
    train, train_from_activations, LabeledBatch, NnError, Sequential, TrainConfig, TrainReport,
};
use insitu_tensor::{Rng, Tensor};
use insitu_telemetry as telemetry;
use std::ops::Range;

/// Configuration of one incremental update.
#[derive(Debug, Clone)]
pub struct IncrementalConfig {
    /// Fine-tuning passes over the uploaded data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate (typically lower than initial training).
    pub lr: f32,
    /// Kernel threads for the fine-tuning loop (`None` keeps the
    /// process-wide setting; see [`insitu_tensor::set_num_threads`]).
    /// Never affects results.
    pub threads: Option<usize>,
    /// Hold out up to this many samples (taken from the end of the
    /// fine-tune set, capped so at least one training sample remains)
    /// as a per-epoch eval split, so the update can report post-update
    /// accuracy without a second manual pass. `None` trains on
    /// everything and reports no accuracy.
    pub holdout: Option<usize>,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig { epochs: 6, batch_size: 16, lr: 0.005, threads: None, holdout: None }
    }
}

/// Fine-tunes `net` in place on `uploaded`. The network's freezing
/// pattern is honoured: with the shared conv prefix locked (In-situ
/// AI's deployment), only the suffix retrains — the source of the
/// paper's update-time advantage.
///
/// # Errors
///
/// Returns an error on shape disagreements.
pub fn fine_tune(
    net: &mut Sequential,
    uploaded: &Dataset,
    cfg: &IncrementalConfig,
    rng: &mut Rng,
) -> Result<TrainReport> {
    let _t = telemetry::span_with("cloud.fine_tune", || {
        format!("{} uploaded samples x{} epochs", uploaded.len(), cfg.epochs)
    });
    let set = LabeledBatch::new(uploaded.images(), uploaded.labels())?;
    split_holdout(set, cfg.holdout, |part, eval| train(net, part, eval, &train_config(cfg), rng))
}

/// [`fine_tune`] from the frozen prefix's activations of the fine-tune
/// set, in its order: trains the unfrozen suffix of `net` only.
///
/// # Errors
///
/// Returns an error on shape disagreements between the suffix and the
/// activations.
pub(crate) fn fine_tune_from_activations(
    net: &mut Sequential,
    acts: LabeledBatch<'_>,
    cfg: &IncrementalConfig,
    rng: &mut Rng,
) -> Result<TrainReport> {
    let _t = telemetry::span_with("cloud.fine_tune", || {
        format!("{} cached activations x{} epochs", acts.len(), cfg.epochs)
    });
    split_holdout(acts, cfg.holdout, |part, eval| {
        train_from_activations(net, part, eval, &train_config(cfg), rng)
    })
}

/// Runs `train` on `set` with its last `min(holdout, len - 1)` rows
/// held out as the per-epoch eval split, so at least one training
/// sample remains. With nothing held out, `set` is passed on borrowed;
/// otherwise its two row ranges are copied.
fn split_holdout(
    set: LabeledBatch<'_>,
    holdout: Option<usize>,
    run: impl FnOnce(LabeledBatch<'_>, Option<LabeledBatch<'_>>) -> insitu_nn::Result<TrainReport>,
) -> Result<TrainReport> {
    let n = set.len();
    let hold = holdout.unwrap_or(0).min(n.saturating_sub(1));
    if hold == 0 {
        return Ok(run(set, None)?);
    }
    let k = n - hold;
    let (head, tail) = (rows(set.inputs, 0..k)?, rows(set.inputs, k..n)?);
    let eval = LabeledBatch::new(&tail, &set.labels[k..])?;
    Ok(run(LabeledBatch::new(&head, &set.labels[..k])?, Some(eval))?)
}

/// Copies rows `range` of a batched tensor (first dimension = sample).
fn rows(t: &Tensor, range: Range<usize>) -> Result<Tensor> {
    let per = t.len() / t.dims()[0];
    let mut dims = t.dims().to_vec();
    dims[0] = range.len();
    let data = t.as_slice()[range.start * per..range.end * per].to_vec();
    Ok(Tensor::from_vec(dims, data).map_err(NnError::from)?)
}

fn train_config(cfg: &IncrementalConfig) -> TrainConfig {
    TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        threads: cfg.threads,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_data::Condition;
    use insitu_nn::models::mini_alexnet;
    use insitu_nn::Network;

    #[test]
    fn fine_tune_runs_and_counts_ops() {
        let mut rng = Rng::seed_from(41);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        let data = Dataset::generate(24, 4, &Condition::in_situ(), &mut rng).unwrap();
        let cfg = IncrementalConfig { epochs: 2, batch_size: 8, lr: 0.01, threads: None, holdout: None };
        let report = fine_tune(&mut net, &data, &cfg, &mut rng).unwrap();
        assert_eq!(report.history.len(), 2);
        assert!(report.total_ops > 0);
    }

    #[test]
    fn frozen_prefix_cuts_update_cost() {
        // The paper's weight-sharing speedup: CONV-3 locking reduces the
        // per-sample training ops, hence the modeled update time.
        let mut rng = Rng::seed_from(42);
        let mut full = mini_alexnet(4, &mut rng).unwrap();
        let mut shared = mini_alexnet(4, &mut rng).unwrap();
        shared.freeze_first_convs(3).unwrap();
        assert!(shared.training_ops_per_sample() < full.training_ops_per_sample());
        let data = Dataset::generate(16, 4, &Condition::in_situ(), &mut rng).unwrap();
        let cfg = IncrementalConfig { epochs: 1, batch_size: 8, lr: 0.01, threads: None, holdout: None };
        let r_full = fine_tune(&mut full, &data, &cfg, &mut rng).unwrap();
        let r_shared = fine_tune(&mut shared, &data, &cfg, &mut rng).unwrap();
        assert!(r_shared.total_ops < r_full.total_ops);
    }
}
