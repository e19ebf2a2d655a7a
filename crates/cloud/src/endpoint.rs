//! The Cloud endpoint an [`InsituNode`](insitu_core::InsituNode)
//! talks to: holds the master inference model and the archive of
//! valuable data it retrains on, and serves incremental updates.
//!
//! The archive is append-only and kept in admission order. An upload is
//! checked against the model before anything is written, each of its
//! samples is hashed once (`sample_ids`), and only samples whose content
//! is new to the archive are appended. Every update retrains on the
//! whole archive, so small hard uploads cannot erase what earlier ones
//! taught.
//!
//! On the default path the archive also holds the frozen prefix's
//! activation of every sample, row for row (`PrefixStore`). The Cloud's
//! fine-tune never writes the frozen prefix, so a sample's activation is
//! computed once, by one batched `forward_prefix` over the rows the store
//! does not hold yet, and reused by every later update. The store keeps
//! the freeze cut and the prefix tensors its rows were computed under,
//! and compares them directly with the model's before each update. If
//! either changed (a moved cut, or a write through
//! [`Cloud::inference_mut`]), every row is computed again. Training then
//! starts at the first unfrozen layer, and its results are bitwise those
//! of [`Cloud::without_activation_cache`], which recomputes the prefix
//! every epoch.
//!
//! An update ships only what the fine-tune trains: the model's
//! state-dict tensors after the freeze cut. The frozen prefix is part of
//! the deployment the node already holds.

use crate::cache::{sample_ids, CacheStats};
use crate::incremental::{fine_tune, fine_tune_from_activations, IncrementalConfig};
use crate::pretrain::Pretrained;
use crate::CloudError;
use insitu_core::{CloudEndpoint, ModelUpdate};
use insitu_data::Dataset;
use insitu_nn::serialize::{leading_bits_equal, trained_dict};
use insitu_nn::{LabeledBatch, Network, Sequential, TrainReport};
use insitu_tensor::{Rng, Tensor};
use insitu_telemetry as telemetry;
use std::collections::HashSet;

/// The Cloud side of an In-situ AI deployment.
#[derive(Debug)]
pub struct Cloud {
    inference: Sequential,
    incremental: IncrementalConfig,
    /// Every admitted sample, in admission order; `None` until the
    /// first is admitted.
    archive: Option<Dataset>,
    /// Content ids of the archived samples.
    archive_ids: HashSet<u64>,
    /// The archive's frozen-prefix activations; `None` recomputes the
    /// prefix every epoch. Results are bitwise identical either way.
    store: Option<PrefixStore>,
    version: u32,
    total_training_ops: u64,
    rng: Rng,
}

/// The frozen prefix's activation of archive rows `0..rows`, and the
/// prefix they were computed under.
#[derive(Debug)]
struct PrefixStore {
    /// `(rows, C, H, W)`; row `i` belongs to archive row `i`.
    acts: Tensor,
    /// The freeze cut (`first_unfrozen`) the rows were computed under.
    cut: usize,
    /// The model's parameter tensors before the cut, as they were when
    /// the rows were computed.
    prefix: Vec<Tensor>,
    stats: CacheStats,
}

impl PrefixStore {
    fn new() -> PrefixStore {
        PrefixStore {
            acts: Tensor::zeros([0]),
            cut: 0,
            prefix: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Returns the activations of every row of `archive`. Stored rows
    /// are reused while `net`'s cut and prefix tensors are bitwise the
    /// ones they were computed under; the rest are computed by one
    /// batched `forward_prefix` and appended.
    fn sync(&mut self, net: &mut Sequential, archive: &Dataset) -> crate::Result<&Tensor> {
        let cut = net.first_unfrozen();
        let n = net.tensors_before(cut);
        if cut != self.cut || self.prefix.len() != n || !leading_bits_equal(net, &self.prefix, n) {
            self.cut = cut;
            self.prefix.clear();
            net.visit_all(&mut |p| {
                if self.prefix.len() < n {
                    self.prefix.push(p.clone());
                }
            });
            self.acts = Tensor::zeros([0]);
        }
        let (from, len) = (self.acts.dims()[0], archive.len());
        let missed = len - from;
        if missed > 0 {
            let _t = telemetry::span_with("cloud.prefix_forward", || {
                format!("{missed}/{len} samples missed")
            });
            let fresh = net.forward_prefix(archive.subset_range(from..len)?.images())?;
            telemetry::counter_add("cloud.cache.bytes", "", (fresh.len() * 4) as u64);
            self.acts = if from == 0 {
                fresh
            } else {
                let mut dims = self.acts.dims().to_vec();
                dims[0] = len;
                let mut data = std::mem::replace(&mut self.acts, Tensor::zeros([0])).into_vec();
                data.extend_from_slice(fresh.as_slice());
                Tensor::from_vec(dims, data).expect("whole rows appended")
            };
        }
        telemetry::counter_add("cloud.cache.request", "", len as u64);
        telemetry::counter_add("cloud.cache.hit", "", from as u64);
        telemetry::counter_add("cloud.cache.miss", "", missed as u64);
        self.stats.hits += from as u64;
        self.stats.misses += missed as u64;
        self.stats.resident_bytes = self.acts.len() * std::mem::size_of::<f32>();
        Ok(&self.acts)
    }
}

impl Cloud {
    /// Creates the Cloud from the deployed master models, with the
    /// archive's frozen-prefix activation store on; see
    /// [`without_activation_cache`](Cloud::without_activation_cache).
    ///
    /// Only the inference model is kept and updated. The pre-trained
    /// diagnosis model stays as deployed: its trunk shares the frozen
    /// conv prefix with the inference net, so retraining it in the Cloud
    /// would break the weight sharing the node relies on. Updates
    /// therefore carry no `jigsaw_params`, and of the inference model
    /// only the tensors after its freeze cut.
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
            archive_ids: HashSet::new(),
            store: Some(PrefixStore::new()),
            version: 0,
            total_training_ops: 0,
            rng: Rng::seed_from(seed),
        }
    }

    /// Turns the activation store off: every fine-tune recomputes the
    /// frozen prefix per epoch. This is the reference the store is
    /// tested against.
    pub fn without_activation_cache(mut self) -> Cloud {
        self.store = None;
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

    /// Lifetime activation-store statistics (`None` when the store is
    /// off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.store.as_ref().map(|s| s.stats)
    }

    /// Retained-archive size in samples.
    pub fn archive_len(&self) -> usize {
        self.archive.as_ref().map_or(0, Dataset::len)
    }

    /// The master inference model.
    pub fn inference_mut(&mut self) -> &mut Sequential {
        &mut self.inference
    }

    /// Rejects, before anything is written, an upload the archive cannot
    /// take: its images must have the per-sample shape the model takes,
    /// which every archived image has, and its class space must be the
    /// model's output width. That bounds every label too, since a
    /// `Dataset` holds no label outside its class space.
    fn check_upload(&self, uploaded: &Dataset) -> crate::Result<()> {
        let mut dims = uploaded.images().dims().to_vec();
        for i in 0..self.inference.len() {
            dims = self.inference.layer(i)?.output_shape(&dims)?;
        }
        if dims.len() != 2 || dims[1] != uploaded.num_classes() {
            return Err(CloudError::BadConfig {
                reason: format!(
                    "upload of {} classes for a model with output {dims:?}",
                    uploaded.num_classes()
                ),
            });
        }
        Ok(())
    }

    /// Appends `uploaded`'s samples at `fresh` to the archive, growing
    /// its storage in place.
    fn admit(&mut self, uploaded: &Dataset, fresh: &[usize]) -> crate::Result<()> {
        let Some(archive) = self.archive.take() else {
            self.archive = Some(uploaded.subset(fresh)?);
            return Ok(());
        };
        let classes = archive.num_classes();
        let (images, mut labels) = archive.into_parts();
        let mut dims = images.dims().to_vec();
        let sample: usize = dims[1..].iter().product();
        let mut data = images.into_vec();
        let src = uploaded.images().as_slice();
        for &i in fresh {
            data.extend_from_slice(&src[i * sample..(i + 1) * sample]);
            labels.push(uploaded.labels()[i]);
        }
        dims[0] = labels.len();
        let images = Tensor::from_vec(dims, data).expect("whole samples appended");
        self.archive =
            Some(Dataset::from_parts(images, labels, classes).expect("labels checked on upload"));
        Ok(())
    }

    /// Fine-tunes the master model on the whole archive (nothing when it
    /// is empty), from the stored prefix activations when the store is
    /// on and a prefix is frozen. Both paths share the training loop,
    /// RNG trajectory and cost accounting, so the resulting weights and
    /// report are bitwise identical.
    fn fine_tune_archive(&mut self) -> crate::Result<Option<TrainReport>> {
        let Some(archive) = &self.archive else { return Ok(None) };
        let net = &mut self.inference;
        let report = match &mut self.store {
            Some(store) if net.first_unfrozen() > 0 => {
                let acts = store.sync(net, archive)?;
                let set = LabeledBatch::new(acts, archive.labels())?;
                fine_tune_from_activations(net, set, &self.incremental, &mut self.rng)?
            }
            _ => fine_tune(net, archive, &self.incremental, &mut self.rng)?,
        };
        Ok(Some(report))
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
        self.check_upload(uploaded).map_err(to_core)?;
        // Admit only samples new to the archive and to the upload
        // itself, so identical re-uploads never grow the archive.
        let ids = sample_ids(uploaded);
        let fresh: Vec<usize> =
            (0..uploaded.len()).filter(|&i| self.archive_ids.insert(ids[i])).collect();
        if !fresh.is_empty() {
            self.admit(uploaded, &fresh).map_err(to_core)?;
        }
        let report = self.fine_tune_archive().map_err(to_core)?;
        let ops = report.as_ref().map_or(0, |r| r.total_ops);
        self.version += 1;
        self.total_training_ops += ops;
        telemetry::hist_record("cloud.training_ops", "", ops);
        Ok(ModelUpdate {
            version: self.version,
            inference_params: trained_dict(&mut self.inference),
            jigsaw_params: None,
            training_ops: ops,
            eval_accuracy: report.and_then(|r| r.final_eval_accuracy()),
        })
    }
}

fn to_core(e: CloudError) -> insitu_core::CoreError {
    match e {
        CloudError::Nn(n) => insitu_core::CoreError::Nn(n),
        CloudError::Data(d) => insitu_core::CoreError::Data(d),
        CloudError::Core(c) => c,
        CloudError::BadConfig { reason } => insitu_core::CoreError::BadConfig { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::{pretrain, PretrainConfig};
    use insitu_data::Condition;
    use insitu_nn::models::mini_alexnet;
    use insitu_nn::serialize::state_dict;

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
        // With nothing frozen the Cloud trains on images: the store is
        // not used.
        assert_eq!(c.cache_stats(), Some(CacheStats::default()));
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
    fn an_update_ships_the_tensors_after_the_freeze_cut() {
        let bits = |dict: &[Tensor]| -> Vec<Vec<u32>> {
            dict.iter().map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
        };
        let mut c = cloud();
        let mut rng = Rng::seed_from(56);
        let data = Dataset::generate(6, 4, &Condition::in_situ(), &mut rng).unwrap();
        // Nothing frozen: the whole dict.
        let u = c.incremental_update(&data).unwrap();
        assert_eq!(bits(&u.inference_params), bits(&state_dict(c.inference_mut())));
        // conv1-3 frozen: exactly the trained dict, without the prefix.
        c.inference_mut().freeze_first_convs(3).unwrap();
        let u = c.incremental_update(&data).unwrap();
        let net = c.inference_mut();
        assert!(u.inference_params.len() < state_dict(net).len());
        assert_eq!(bits(&u.inference_params), bits(&trained_dict(net)));
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
