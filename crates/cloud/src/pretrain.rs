//! Unsupervised pre-training on big raw IoT data.
//!
//! The Cloud trains the jigsaw context-prediction network on *images
//! only* — no labels are ever consumed — which is the paper's answer
//! to the impracticality of hand-labelling IoT-scale data. The learned
//! trunk features then seed the supervised inference network via
//! transfer learning.

use crate::Result;
use insitu_data::{jigsaw_batch, Dataset, PermutationSet};
use insitu_nn::models::jigsaw_network;
use insitu_nn::{evaluate, train, JigsawNet, LabeledBatch, TrainConfig};
use insitu_tensor::Rng;
use insitu_telemetry as telemetry;

/// Configuration of the unsupervised pre-training job.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Size of the permutation set (the number of jigsaw classes; the
    /// paper uses 100, we default to a scale-appropriate 16).
    pub permutations: usize,
    /// Training passes over the raw data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Kernel threads for the training loop (`None` keeps the
    /// process-wide setting; see [`insitu_tensor::set_num_threads`]).
    /// The Cloud models abundant compute, so pre-training is the main
    /// beneficiary of the parallel kernels. Never affects results.
    pub threads: Option<usize>,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig { permutations: 16, epochs: 15, batch_size: 16, lr: 0.015, threads: None }
    }
}

/// The product of unsupervised pre-training.
#[derive(Debug, Clone)]
pub struct Pretrained {
    /// The trained jigsaw network (trunk + head).
    pub jigsaw: JigsawNet,
    /// The permutation set the network was trained against.
    pub set: PermutationSet,
    /// Held-out accuracy on the context-prediction task — the paper's
    /// "accuracy of the unsupervised pre-trained network" (its Fig. 5
    /// compares 71% vs 88% pre-trains).
    pub task_accuracy: f32,
    /// Multiply-accumulate operations spent training.
    pub ops: u64,
}

/// Pre-trains the jigsaw network on raw (unlabeled) IoT data.
///
/// # Errors
///
/// Returns an error if the configuration is degenerate or shapes
/// disagree.
pub fn pretrain(raw: &Dataset, cfg: &PretrainConfig, rng: &mut Rng) -> Result<Pretrained> {
    let _t = telemetry::span_with("cloud.pretrain", || {
        format!("{} raw samples, {} perms", raw.len(), cfg.permutations)
    });
    let set = PermutationSet::generate(cfg.permutations, rng)?;
    let mut jigsaw = jigsaw_network(cfg.permutations, rng)?;
    // Hold out ~20% of the raw data (as jigsaw samples) for the task
    // accuracy measurement.
    let holdout = (raw.len() / 5).max(1).min(raw.len());
    let (eval_raw, train_raw) = raw.split_at(holdout)?;
    let (train_x, train_y) = jigsaw_batch(&train_raw, &set, rng)?;
    let (eval_x, eval_y) = jigsaw_batch(&eval_raw, &set, rng)?;
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        threads: cfg.threads,
        ..Default::default()
    };
    let report = train(
        &mut jigsaw,
        LabeledBatch::new(&train_x, &train_y)?,
        None,
        &train_cfg,
        rng,
    )?;
    let task_accuracy =
        evaluate(&mut jigsaw, LabeledBatch::new(&eval_x, &eval_y)?, cfg.batch_size)?;
    Ok(Pretrained { jigsaw, set, task_accuracy, ops: report.total_ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_data::Condition;

    #[test]
    fn pretraining_learns_the_jigsaw_task() {
        let mut rng = Rng::seed_from(21);
        let raw = Dataset::generate(120, 4, &Condition::ideal(), &mut rng).unwrap();
        let cfg = PretrainConfig { permutations: 4, epochs: 12, batch_size: 16, lr: 0.015, threads: None };
        let out = pretrain(&raw, &cfg, &mut rng).unwrap();
        // 4 classes → chance is 25%; the trained net must beat it well.
        assert!(out.task_accuracy > 0.5, "jigsaw accuracy {}", out.task_accuracy);
        assert!(out.ops > 0);
        assert_eq!(out.set.len(), 4);
    }
}
