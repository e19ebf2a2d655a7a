//! The Cloud endpoint an [`InsituNode`](insitu_core::InsituNode)
//! talks to: holds the master inference model and serves incremental
//! updates of it.

use crate::cache::{sample_ids, ActivationCache, CacheStats, DEFAULT_CACHE_BUDGET};
use crate::incremental::{
    fine_tune, fine_tune_from_activations, split_holdout, IncrementalConfig,
};
use crate::pretrain::Pretrained;
use insitu_core::{CloudEndpoint, ModelUpdate};
use insitu_data::Dataset;
use insitu_nn::serialize::state_dict;
use insitu_nn::{LabeledBatch, Sequential, TrainReport};
use insitu_tensor::Rng;
use insitu_telemetry as telemetry;
use std::collections::HashSet;

/// The Cloud side of an In-situ AI deployment.
#[derive(Debug)]
pub struct Cloud {
    inference: Sequential,
    incremental: IncrementalConfig,
    /// Valuable data retained from previous updates; every incremental
    /// update trains over the retained history plus the new upload, so
    /// small hard uploads cannot erase previously learned behavior.
    /// Deduplicated by content id — identical re-uploads never grow it.
    archive: Option<Dataset>,
    /// Content ids of the archived samples, in archive order.
    archive_ids: Vec<u64>,
    /// Frozen-prefix activation cache; `None` recomputes every epoch.
    /// Results are bitwise identical either way.
    cache: Option<ActivationCache>,
    version: u32,
    total_training_ops: u64,
    rng: Rng,
}

impl Cloud {
    /// Creates the Cloud from the deployed master models. The frozen-
    /// prefix activation cache is on by default
    /// ([`DEFAULT_CACHE_BUDGET`]); see
    /// [`without_activation_cache`](Cloud::without_activation_cache).
    ///
    /// Only the inference model is kept and updated. The pre-trained
    /// diagnosis model stays as deployed: its trunk shares the frozen
    /// conv prefix with the inference net, so retraining it in the Cloud
    /// would break the weight sharing the node relies on. Updates
    /// therefore carry no `jigsaw_params`.
    pub fn new(
        inference: Sequential,
        _pretrained: Pretrained,
        incremental: IncrementalConfig,
        seed: u64,
    ) -> Cloud {
        Cloud {
            inference,
            incremental,
            archive: None,
            archive_ids: Vec::new(),
            cache: Some(ActivationCache::new(DEFAULT_CACHE_BUDGET)),
            version: 0,
            total_training_ops: 0,
            rng: Rng::seed_from(seed),
        }
    }

    /// Replaces the activation cache with one bounded to
    /// `budget_bytes` (0 keeps the cached code path but stores
    /// nothing).
    pub fn with_activation_cache(mut self, budget_bytes: usize) -> Cloud {
        self.cache = Some(ActivationCache::new(budget_bytes));
        self
    }

    /// Disables activation caching entirely: every fine-tune recomputes
    /// the frozen prefix per epoch, exactly as before the cache
    /// existed.
    pub fn without_activation_cache(mut self) -> Cloud {
        self.cache = None;
        self
    }

    /// Current model version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Cumulative training ops spent by this Cloud.
    pub fn total_training_ops(&self) -> u64 {
        self.total_training_ops
    }

    /// Lifetime activation-cache statistics (`None` when caching is
    /// disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(ActivationCache::stats)
    }

    /// Retained-archive size in samples.
    pub fn archive_len(&self) -> usize {
        self.archive.as_ref().map_or(0, Dataset::len)
    }

    /// The master inference model.
    pub fn inference_mut(&mut self) -> &mut Sequential {
        &mut self.inference
    }

    /// Runs one fine-tune over `train_set`, through the activation
    /// cache when one is configured. Both paths share the training
    /// loop, RNG trajectory and cost accounting, so the resulting
    /// weights and report are bitwise identical.
    fn run_fine_tune(&mut self, train_set: &Dataset) -> crate::Result<TrainReport> {
        let (train_part, hold_part) = split_holdout(train_set, self.incremental.holdout)?;
        match &mut self.cache {
            Some(cache) if self.inference.first_unfrozen() > 0 => {
                let acts = cache.prefix_activations(
                    &mut self.inference,
                    &train_part,
                    &sample_ids(&train_part),
                )?;
                let eval_acts = match &hold_part {
                    Some(h) => Some(cache.prefix_activations(
                        &mut self.inference,
                        h,
                        &sample_ids(h),
                    )?),
                    None => None,
                };
                let eval = match (&eval_acts, &hold_part) {
                    (Some(a), Some(h)) => Some(LabeledBatch::new(a, h.labels())?),
                    _ => None,
                };
                fine_tune_from_activations(
                    &mut self.inference,
                    LabeledBatch::new(&acts, train_part.labels())?,
                    eval,
                    &self.incremental,
                    &mut self.rng,
                )
            }
            _ => fine_tune(&mut self.inference, train_set, &self.incremental, &mut self.rng),
        }
    }
}

impl CloudEndpoint for Cloud {
    fn incremental_update(&mut self, uploaded: &Dataset) -> insitu_core::Result<ModelUpdate> {
        let _t = telemetry::span_with("cloud.update_cycle", || {
            format!("v{} +{} uploaded", self.version, uploaded.len())
        });
        // The latency of the cycle itself lands in the span-fed
        // histogram on close; the ingest volume is recorded explicitly
        // (the uplink's receive side of the node's `node.upload_bytes`).
        telemetry::hist_record(
            "cloud.received_bytes",
            "",
            uploaded.len() as u64 * insitu_core::IMAGE_BYTES,
        );
        let mut ops = 0u64;
        // Admit only genuinely new samples into the retained archive:
        // dedup by content id against the archive and within the upload
        // itself, so identical re-uploads never grow the archive (and
        // cache keys stay stable across cycles).
        let mut seen: HashSet<u64> = self.archive_ids.iter().copied().collect();
        let mut fresh_indices = Vec::new();
        let uploaded_ids = sample_ids(uploaded);
        for (i, &id) in uploaded_ids.iter().enumerate() {
            if seen.insert(id) {
                fresh_indices.push(i);
                self.archive_ids.push(id);
            }
        }
        let train_set = match (self.archive.take(), fresh_indices.len()) {
            (Some(archive), 0) => Some(archive),
            (Some(archive), _) => {
                let fresh = uploaded.subset(&fresh_indices).map_err(|e| to_core(e.into()))?;
                Some(archive.concat(&fresh).map_err(|e| to_core(e.into()))?)
            }
            (None, 0) => None,
            (None, _) => Some(uploaded.subset(&fresh_indices).map_err(|e| to_core(e.into()))?),
        };
        let mut eval_accuracy = None;
        if let Some(train_set) = &train_set {
            if !train_set.is_empty() {
                let report = self.run_fine_tune(train_set).map_err(to_core)?;
                ops += report.total_ops;
                eval_accuracy = report.final_eval_accuracy();
            }
        }
        self.archive = train_set;
        self.version += 1;
        self.total_training_ops += ops;
        telemetry::hist_record("cloud.training_ops", "", ops);
        Ok(ModelUpdate {
            version: self.version,
            inference_params: state_dict(&mut self.inference),
            jigsaw_params: None,
            training_ops: ops,
            eval_accuracy,
        })
    }
}

fn to_core(e: crate::CloudError) -> insitu_core::CoreError {
    match e {
        crate::CloudError::Nn(n) => insitu_core::CoreError::Nn(n),
        crate::CloudError::Data(d) => insitu_core::CoreError::Data(d),
        crate::CloudError::Core(c) => c,
        crate::CloudError::BadConfig { reason } => insitu_core::CoreError::BadConfig { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::{pretrain, PretrainConfig};
    use insitu_data::Condition;
    use insitu_nn::models::mini_alexnet;

    fn cloud() -> Cloud {
        let mut rng = Rng::seed_from(51);
        let raw = Dataset::generate(30, 4, &Condition::ideal(), &mut rng).unwrap();
        let pre = pretrain(
            &raw,
            &PretrainConfig { permutations: 4, epochs: 1, batch_size: 8, lr: 0.02, threads: None },
            &mut rng,
        )
        .unwrap();
        let inference = mini_alexnet(4, &mut rng).unwrap();
        Cloud::new(
            inference,
            pre,
            IncrementalConfig { epochs: 1, batch_size: 8, lr: 0.01, threads: None, holdout: None },
            5,
        )
    }

    #[test]
    fn update_bumps_version_and_returns_weights() {
        let mut c = cloud();
        let mut rng = Rng::seed_from(52);
        let data = Dataset::generate(12, 4, &Condition::in_situ(), &mut rng).unwrap();
        let u = c.incremental_update(&data).unwrap();
        assert_eq!(u.version, 1);
        assert!(u.training_ops > 0);
        assert!(!u.inference_params.is_empty());
        assert!(u.jigsaw_params.is_none());
        assert_eq!(c.total_training_ops(), u.training_ops);
    }

    #[test]
    fn empty_upload_is_a_cheap_noop_update() {
        let mut c = cloud();
        let empty = Dataset::generate(
            0,
            4,
            &Condition::ideal(),
            &mut Rng::seed_from(1),
        )
        .unwrap();
        let u = c.incremental_update(&empty).unwrap();
        assert_eq!(u.training_ops, 0);
        assert_eq!(u.version, 1);
    }

    #[test]
    fn holdout_reports_post_update_accuracy() {
        let mut c = cloud();
        c.incremental.holdout = Some(4);
        let mut rng = Rng::seed_from(54);
        let data = Dataset::generate(12, 4, &Condition::in_situ(), &mut rng).unwrap();
        let u = c.incremental_update(&data).unwrap();
        let acc = u.eval_accuracy.expect("holdout should produce accuracy");
        assert!((0.0..=1.0).contains(&acc));
        // Without a holdout no accuracy is reported.
        let mut plain = cloud();
        let u2 = plain.incremental_update(&data).unwrap();
        assert!(u2.eval_accuracy.is_none());
    }

    #[test]
    fn archive_reuse_hits_activation_cache_across_cycles() {
        let mut c = cloud();
        c.inference_mut().freeze_first_convs(3).unwrap();
        let mut rng = Rng::seed_from(55);
        let first = Dataset::generate(6, 4, &Condition::in_situ(), &mut rng).unwrap();
        c.incremental_update(&first).unwrap();
        let s1 = c.cache_stats().unwrap();
        // Cold first cycle: every sample is computed (once, not once
        // per epoch — the activations are shared across epochs).
        assert_eq!((s1.hits, s1.misses), (0, 6));
        let second = Dataset::generate(4, 4, &Condition::in_situ(), &mut rng).unwrap();
        c.incremental_update(&second).unwrap();
        let s2 = c.cache_stats().unwrap();
        // Second cycle recomputes only the new upload; the archived
        // six are served from the cache.
        assert_eq!((s2.hits, s2.misses), (6, 10));
        assert!(s2.resident_bytes > 0);
        assert!(s2.hit_rate() > 0.3);
    }
}
