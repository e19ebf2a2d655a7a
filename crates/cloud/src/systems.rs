//! The four deep-learning IoT system organizations of the paper's
//! Fig. 24, simulated end-to-end on the same data stream.
//!
//! | | upload to Cloud | retraining set | weight sharing |
//! |---|---|---|---|
//! | (a) Traditional | everything | everything | none (all layers retrain) |
//! | (b) Cloud diagnosis | everything | valuable only | none |
//! | (c) In-situ diagnosis | valuable only | valuable only | none |
//! | (d) **In-situ AI** | valuable only | valuable only | conv1–3 locked |
//!
//! "Valuable" is the data the current model mispredicts — the paper's
//! "incorrect predictions" (its Section III). Stage 0 is the initial
//! 100k-equivalent bootstrap: everyone uploads and trains on all of it.

use crate::incremental::{fine_tune, IncrementalConfig};
use crate::Result;
use insitu_core::IMAGE_BYTES;
use insitu_data::{Campaign, Dataset};
use insitu_devices::{CloudGpuSpec, UplinkSpec};
use insitu_nn::models::mini_alexnet;
use insitu_nn::{evaluate, predictions, LabeledBatch, Sequential};
use insitu_tensor::Rng;
use serde::{Deserialize, Serialize};

/// Which of the paper's four IoT system organizations to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// (a) Traditional: everything uploaded, everything retrained.
    Traditional,
    /// (b) Diagnosis in the Cloud: everything uploaded, valuable
    /// retrained.
    CloudDiagnosis,
    /// (c) Diagnosis at the node: valuable uploaded and retrained.
    InsituDiagnosis,
    /// (d) In-situ AI: (c) plus weight-shared (locked) conv1–3.
    InsituAi,
}

impl SystemKind {
    /// All four, in the paper's (a)–(d) order.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::Traditional,
            SystemKind::CloudDiagnosis,
            SystemKind::InsituDiagnosis,
            SystemKind::InsituAi,
        ]
    }

    /// The paper's subfigure letter.
    pub fn letter(&self) -> char {
        match self {
            SystemKind::Traditional => 'a',
            SystemKind::CloudDiagnosis => 'b',
            SystemKind::InsituDiagnosis => 'c',
            SystemKind::InsituAi => 'd',
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Traditional => "traditional",
            SystemKind::CloudDiagnosis => "cloud-diagnosis",
            SystemKind::InsituDiagnosis => "insitu-diagnosis",
            SystemKind::InsituAi => "in-situ-ai",
        }
    }

    /// Whether the node filters before uploading.
    pub fn diagnosis_at_node(&self) -> bool {
        matches!(self, SystemKind::InsituDiagnosis | SystemKind::InsituAi)
    }

    /// Whether retraining is restricted to valuable data.
    pub fn trains_on_valuable_only(&self) -> bool {
        !matches!(self, SystemKind::Traditional)
    }

    /// Conv layers locked during incremental updates.
    pub fn shared_convs(&self) -> usize {
        if matches!(self, SystemKind::InsituAi) {
            3
        } else {
            0
        }
    }
}

/// Cost/quality report of one update stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage index (0 = bootstrap).
    pub stage: usize,
    /// Stage name (e.g. `"400k"`).
    pub stage_name: String,
    /// Newly acquired images in this stage.
    pub new_images: usize,
    /// Images uploaded to the Cloud.
    pub uploaded_images: usize,
    /// Bytes uploaded.
    pub uploaded_bytes: u64,
    /// Images actually used for retraining.
    pub trained_images: usize,
    /// Multiply-accumulate operations spent retraining.
    pub training_ops: u64,
    /// Uplink transfer time, seconds.
    pub transfer_s: f64,
    /// Cloud training time, seconds.
    pub training_s: f64,
    /// Cloud training energy, joules.
    pub cloud_energy_j: f64,
    /// Radio transfer energy, joules.
    pub transfer_energy_j: f64,
    /// Held-out accuracy after the update, on this stage's environment.
    pub accuracy_after: f32,
}

impl StageReport {
    /// Total model-update latency (transfer + training).
    pub fn update_time_s(&self) -> f64 {
        self.transfer_s + self.training_s
    }

    /// Total modeled energy (Cloud + radio).
    pub fn total_energy_j(&self) -> f64 {
        self.cloud_energy_j + self.transfer_energy_j
    }

    /// Fraction of the stage's data that moved to the Cloud.
    pub fn movement_fraction(&self) -> f64 {
        if self.new_images == 0 {
            0.0
        } else {
            self.uploaded_images as f64 / self.new_images as f64
        }
    }
}

/// Shared simulation parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Incremental-update hyperparameters.
    pub incremental: IncrementalConfig,
    /// Bootstrap (stage 0) hyperparameters.
    pub bootstrap: IncrementalConfig,
    /// Uplink model for transfer time/energy.
    pub uplink: UplinkSpec,
    /// Cloud trainer model for training time/energy.
    pub cloud_gpu: CloudGpuSpec,
    /// Held-out evaluation samples per stage.
    pub eval_per_stage: usize,
    /// RNG seed for model initialization and training order.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            incremental: IncrementalConfig::default(),
            bootstrap: IncrementalConfig { epochs: 12, batch_size: 16, lr: 0.005, threads: None, holdout: None },
            uplink: UplinkSpec::lte(),
            cloud_gpu: CloudGpuSpec::titan_x(),
            eval_per_stage: 200,
            seed: 0xD1A6,
        }
    }
}

/// One simulated IoT system processing a campaign stage by stage.
#[derive(Debug)]
pub struct IotSystem {
    kind: SystemKind,
    model: Sequential,
    cfg: SystemConfig,
    rng: Rng,
    stages_done: usize,
    /// Everything the Cloud has retained for training so far. The
    /// Cloud keeps what was uploaded (the paper's organizations retrain
    /// on the accumulated IoT data), so incremental updates always mix
    /// the new valuable samples with the retained history — which is
    /// also what keeps fine-tuning on hard samples from erasing the
    /// model.
    archive: Option<Dataset>,
}

impl IotSystem {
    /// Creates a system with a freshly initialized model. All four
    /// kinds construct *identical* initial models for a given seed, so
    /// comparisons isolate the organizational differences.
    ///
    /// # Errors
    ///
    /// Returns an error only on internal geometry bugs.
    pub fn new(kind: SystemKind, num_classes: usize, cfg: SystemConfig) -> Result<IotSystem> {
        let mut model_rng = Rng::seed_from(cfg.seed);
        let model = mini_alexnet(num_classes, &mut model_rng)?;
        let rng = Rng::seed_from(cfg.seed ^ 0x5EED);
        Ok(IotSystem { kind, model, cfg, rng, stages_done: 0, archive: None })
    }

    /// The system's kind.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Selects the mispredicted ("valuable") samples under the current
    /// model.
    fn valuable(&mut self, data: &Dataset) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        let idx: Vec<usize> = (0..data.len()).collect();
        for chunk in idx.chunks(64) {
            let sub = data.subset(chunk)?;
            let logits = self.model.predict(sub.images())?;
            let preds = predictions(&logits)?;
            for (j, (&p, &l)) in preds.iter().zip(sub.labels()).enumerate() {
                if p != l {
                    out.push(chunk[j]);
                }
            }
        }
        Ok(out)
    }

    /// Processes one campaign stage: uploads per the system's
    /// organization, retrains, and reports costs + resulting accuracy.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn process_stage(
        &mut self,
        stage_name: &str,
        data: &Dataset,
        eval: &Dataset,
    ) -> Result<StageReport> {
        let stage = self.stages_done;
        let bootstrap = stage == 0;
        let n = data.len();

        // --- Upload decision -------------------------------------------------
        let (uploaded_images, train_indices): (usize, Vec<usize>) = if bootstrap {
            (n, (0..n).collect())
        } else {
            match self.kind {
                SystemKind::Traditional => (n, (0..n).collect()),
                SystemKind::CloudDiagnosis => {
                    // Everything moves; the Cloud filters for training.
                    let v = self.valuable(data)?;
                    (n, v)
                }
                SystemKind::InsituDiagnosis | SystemKind::InsituAi => {
                    // The node filters; only valuable data moves.
                    let v = self.valuable(data)?;
                    (v.len(), v)
                }
            }
        };
        let uploaded_bytes = uploaded_images as u64 * IMAGE_BYTES;
        let new_training = data.subset(&train_indices)?;

        // --- Retraining -------------------------------------------------------
        // The Cloud retains its training data: every update runs over
        // the retained history plus the newly selected samples. The
        // all-data organization therefore retrains over everything it
        // ever received (the source of its ballooning update times in
        // the paper's Fig. 25); the diagnosis-based ones only over the
        // accumulated valuable data.
        let train_set = match self.archive.take() {
            Some(archive) => archive.concat(&new_training)?,
            None => new_training,
        };
        // Weight sharing: In-situ AI locks conv1-3 for incremental
        // updates (the bootstrap trains everything, like the others).
        if bootstrap {
            self.model.freeze_first_convs(0)?;
        } else {
            self.model.freeze_first_convs(self.kind.shared_convs())?;
        }
        let inc = if bootstrap { &self.cfg.bootstrap } else { &self.cfg.incremental };
        let report = if train_set.is_empty() {
            None
        } else {
            Some(fine_tune(&mut self.model, &train_set, inc, &mut self.rng)?)
        };
        let training_ops = report.as_ref().map_or(0, |r| r.total_ops);
        let trained_images = train_set.len();
        self.archive = Some(train_set);

        // --- Accounting -------------------------------------------------------
        let transfer_s = self.cfg.uplink.transfer_time(uploaded_bytes);
        let training_s = self.cfg.cloud_gpu.training_time(training_ops);
        let cloud_energy_j = self.cfg.cloud_gpu.training_energy(training_ops);
        let transfer_energy_j = self.cfg.uplink.transfer_energy(uploaded_bytes);
        let accuracy_after = evaluate(
            &mut self.model,
            LabeledBatch::new(eval.images(), eval.labels())?,
            64,
        )?;
        self.stages_done += 1;
        Ok(StageReport {
            stage,
            stage_name: stage_name.to_string(),
            new_images: n,
            uploaded_images,
            uploaded_bytes,
            trained_images,
            training_ops,
            transfer_s,
            training_s,
            cloud_energy_j,
            transfer_energy_j,
            accuracy_after,
        })
    }
}

/// Runs a full campaign through one system organization.
///
/// # Errors
///
/// Returns an error on shape disagreements.
pub fn run_campaign(
    kind: SystemKind,
    campaign: &Campaign,
    cfg: SystemConfig,
) -> Result<Vec<StageReport>> {
    let mut system = IotSystem::new(kind, campaign.num_classes(), cfg.clone())?;
    let mut reports = Vec::with_capacity(campaign.stages().len());
    for (i, stage) in campaign.stages().iter().enumerate() {
        let data = campaign.stage_data(i)?;
        let eval = campaign.eval_data(i, cfg.eval_per_stage)?;
        reports.push(system.process_stage(&stage.name, &data, &eval)?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig {
            incremental: IncrementalConfig { epochs: 1, batch_size: 8, lr: 0.01, threads: None, holdout: None },
            bootstrap: IncrementalConfig { epochs: 2, batch_size: 8, lr: 0.02, threads: None, holdout: None },
            eval_per_stage: 24,
            ..Default::default()
        }
    }

    fn tiny_campaign() -> Campaign {
        Campaign::custom(
            vec![
                insitu_data::Stage {
                    name: "s0".into(),
                    new_images: 40,
                    condition: insitu_data::Condition::ideal(),
                },
                insitu_data::Stage {
                    name: "s1".into(),
                    new_images: 30,
                    condition: insitu_data::Condition::with_severity(0.5).unwrap(),
                },
            ],
            4,
            99,
        )
        .unwrap()
    }

    #[test]
    fn kind_properties() {
        assert_eq!(SystemKind::all().map(|k| k.letter()), ['a', 'b', 'c', 'd']);
        assert!(!SystemKind::Traditional.trains_on_valuable_only());
        assert!(SystemKind::CloudDiagnosis.trains_on_valuable_only());
        assert!(!SystemKind::CloudDiagnosis.diagnosis_at_node());
        assert!(SystemKind::InsituAi.diagnosis_at_node());
        assert_eq!(SystemKind::InsituAi.shared_convs(), 3);
        assert_eq!(SystemKind::InsituDiagnosis.shared_convs(), 0);
    }

    #[test]
    fn bootstrap_uploads_everything_for_all_kinds() {
        let campaign = tiny_campaign();
        for kind in SystemKind::all() {
            let reports = run_campaign(kind, &campaign, tiny_cfg()).unwrap();
            assert_eq!(reports[0].uploaded_images, 40, "{}", kind.name());
            assert_eq!(reports[0].trained_images, 40);
        }
    }

    #[test]
    fn insitu_kinds_upload_less_after_bootstrap() {
        let campaign = tiny_campaign();
        let a = run_campaign(SystemKind::Traditional, &campaign, tiny_cfg()).unwrap();
        let d = run_campaign(SystemKind::InsituAi, &campaign, tiny_cfg()).unwrap();
        assert_eq!(a[1].uploaded_images, 30);
        assert!(d[1].uploaded_images < 30, "d uploaded {}", d[1].uploaded_images);
        assert!(d[1].uploaded_bytes < a[1].uploaded_bytes);
        assert!(d[1].update_time_s() < a[1].update_time_s());
    }

    #[test]
    fn cloud_diagnosis_moves_all_but_trains_less() {
        let campaign = tiny_campaign();
        let b = run_campaign(SystemKind::CloudDiagnosis, &campaign, tiny_cfg()).unwrap();
        assert_eq!(b[1].uploaded_images, 30); // all data moved
        // Training covers the retained archive (40) plus at most the
        // 30 new images' valuable subset.
        assert!(b[1].trained_images <= 70);
        assert!(b[1].trained_images >= 40);
    }

    #[test]
    fn insitu_ai_trains_fewer_ops_than_insitu_diagnosis() {
        // Same valuable set, but conv1-3 locked → fewer ops per sample.
        let campaign = tiny_campaign();
        let c = run_campaign(SystemKind::InsituDiagnosis, &campaign, tiny_cfg()).unwrap();
        let d = run_campaign(SystemKind::InsituAi, &campaign, tiny_cfg()).unwrap();
        // Identical initial models → identical valuable sets at stage 1.
        assert_eq!(c[1].uploaded_images, d[1].uploaded_images);
        if d[1].trained_images > 0 {
            let ops_per_img_c = c[1].training_ops as f64 / c[1].trained_images as f64;
            let ops_per_img_d = d[1].training_ops as f64 / d[1].trained_images as f64;
            assert!(ops_per_img_d < ops_per_img_c);
        }
    }

    #[test]
    fn reports_account_consistently() {
        let campaign = tiny_campaign();
        let r = run_campaign(SystemKind::InsituAi, &campaign, tiny_cfg()).unwrap();
        for s in &r {
            assert_eq!(s.uploaded_bytes, s.uploaded_images as u64 * IMAGE_BYTES);
            assert!((s.update_time_s() - (s.transfer_s + s.training_s)).abs() < 1e-12);
            assert!(s.total_energy_j() >= 0.0);
            assert!((0.0..=1.0).contains(&s.accuracy_after));
            assert!(s.movement_fraction() <= 1.0);
        }
    }
}
