//! The In-situ AI node: inference + autonomous diagnosis at the edge.

use crate::diagnosis::{
    diagnose_with_logits, valuable_indices, DiagnosisPolicy, Verdict, DIAGNOSIS_CHUNK,
};
use crate::error::CoreError;
use crate::metrics::{DataMovementMeter, IMAGE_BYTES};
use crate::planner::{
    precision_label, CostSource, MeasuredProfile, NodePlan, PlanRequest, QuantProfile,
};
use crate::recorder;
use crate::update::ModelUpdate;
use crate::Result;
use insitu_data::{Dataset, PermutationSet};
use insitu_devices::NetworkShapes;
use insitu_nn::serialize::load_trained;
use insitu_nn::transfer::conv_prefix_identical;
use insitu_nn::{evaluate, JigsawNet, LabeledBatch, NnError, QuantizedNet, Sequential};
use insitu_tensor::{Rng, Tensor};
use insitu_telemetry as telemetry;
use insitu_telemetry::Histogram;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Numeric precision of the node's inference forward pass.
///
/// `F32` is the reference path; `I8` runs the deployed inference
/// network through the symmetric fixed-point kernels (the paper's
/// FPGA PEs operate in fixed point — Section V). Diagnosis always runs
/// in f32: the jigsaw verdicts and the RNG stream are part of the
/// bitwise equivalence contract with the unfused reference
/// ([`diagnose`](crate::diagnose)), and the diagnosis task is not on
/// the end-user latency path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum InferencePrecision {
    /// Full-precision f32 inference (the default and the reference).
    #[default]
    F32,
    /// Symmetric i8 fixed-point inference with i32 accumulation.
    /// Requires a calibrated [`QuantizedNet`] — see
    /// [`InsituNode::enable_quantized`].
    I8,
}

/// Configuration of the node's measurement-driven online re-plan loop.
///
/// With a config installed (see [`InsituNode::enable_replan`]) and an
/// active [`NodePlan`], the node checks every `every_stages` fused
/// stages whether the **measured** p90 per-image latency (from the
/// node's own per-image histogram at the deployed precision, over the
/// current session) has diverged from the plan's predicted per-image
/// cost by more than `divergence`× in either direction, and if so
/// re-runs the planner on the measurements ([`plan`](crate::plan) over
/// [`CostSource::Measured`]), emitting a `node.replan` instant with the
/// before/after plans. Queue pressure is not its job: that belongs to
/// the ingest shed ([`IngestPolicy::Degrade`](crate::IngestPolicy)).
/// The node measures itself whether or not tracing is on, and never
/// reads another node's samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanConfig {
    /// Check cadence, in fused stages (`>= 1`).
    pub every_stages: u64,
    /// Divergence threshold θ (`> 1`): re-plan when the measured/
    /// predicted per-image ratio leaves `[1/θ, θ]`.
    pub divergence: f64,
    /// The deployment constraints to re-plan under.
    pub request: PlanRequest,
    /// Shapes of the deployed inference network.
    pub inference_shapes: NetworkShapes,
    /// Measured i8 trade-off to fold in, if the node is calibrated.
    pub quant: Option<QuantProfile>,
}

/// The outcome of processing one acquisition stage on the node.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// The node's class prediction for every image.
    pub predictions: Vec<usize>,
    /// Per-image diagnosis verdicts.
    pub verdicts: Vec<Verdict>,
    /// Indices of the images the node decided to upload.
    pub valuable: Vec<usize>,
    /// Bytes the node sent to the Cloud for this stage.
    pub uploaded_bytes: u64,
}

impl StageOutcome {
    /// Fraction of the stage that was uploaded.
    pub fn upload_fraction(&self) -> f64 {
        if self.predictions.is_empty() {
            0.0
        } else {
            self.valuable.len() as f64 / self.predictions.len() as f64
        }
    }
}

/// An edge node running the two In-situ AI tasks over an IoT stream.
///
/// The node holds the deployed inference network and the unsupervised
/// diagnosis network; the first `shared_convs` convolutional layers of
/// the two hold bitwise-identical weights (the invariant the WSS
/// hardware's shared weight buffers rely on). [`InsituNode::new`]
/// verifies it at construction, together with that those layers lie in
/// the inference network's frozen prefix, which
/// [`InsituNode::install_update`] never writes.
#[derive(Debug)]
pub struct InsituNode {
    inference: Sequential,
    jigsaw: JigsawNet,
    perm_set: PermutationSet,
    policy: DiagnosisPolicy,
    shared_convs: usize,
    version: u32,
    movement: DataMovementMeter,
    rng: Rng,
    /// The deployed precision: what `set_precision`, plan installs and
    /// re-plans write. I8 only once a quantized network exists.
    precision: InferencePrecision,
    /// The ingest shed's i8 overlay, on only inside a session.
    shed_i8: bool,
    quantized: Option<QuantizedNet>,
    plan: Option<NodePlan>,
    replan: Option<ReplanConfig>,
    stages_processed: u64,
    /// Per-image latency (ns) of every fused stage, one histogram per
    /// running precision (indexed by `InferencePrecision as usize`):
    /// the re-plan loop's input. Restarted when a session starts.
    stage_per_image: [Histogram; 2],
    replans: u64,
    precision_flips: u64,
    injected_stage_delay: Option<std::time::Duration>,
}

impl InsituNode {
    /// Assembles a node from deployed models.
    ///
    /// The shared convs must lie in the inference network's frozen
    /// prefix (the layers before [`Sequential::first_unfrozen`]): updates
    /// carry only the tensors after the freeze cut, so this one check
    /// keeps the weight sharing for the node's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if the first `shared_convs`
    /// conv layers of the inference network and the jigsaw trunk are
    /// not weight-identical, or if the inference network does not
    /// freeze them all.
    pub fn new(
        inference: Sequential,
        jigsaw: JigsawNet,
        perm_set: PermutationSet,
        policy: DiagnosisPolicy,
        shared_convs: usize,
        seed: u64,
    ) -> Result<Self> {
        let cut = inference.first_unfrozen();
        if shared_convs > 0 {
            let identical = conv_prefix_identical(jigsaw.trunk(), &inference, shared_convs)?;
            // Both nets hold at least `shared_convs` convs: checked above.
            if !identical || inference.conv_indices()[shared_convs - 1] >= cut {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "first {shared_convs} conv layers of inference and diagnosis must be \
                         weight-identical and frozen in inference; deploy via \
                         transfer_and_freeze first"
                    ),
                });
            }
        }
        Ok(InsituNode {
            inference,
            jigsaw,
            perm_set,
            policy,
            shared_convs,
            version: 0,
            movement: DataMovementMeter::new(),
            rng: Rng::seed_from(seed),
            precision: InferencePrecision::F32,
            shed_i8: false,
            quantized: None,
            plan: None,
            replan: None,
            stages_processed: 0,
            stage_per_image: Default::default(),
            replans: 0,
            precision_flips: 0,
            injected_stage_delay: None,
        })
    }

    /// The precision the inference forward runs at: i8 when the
    /// deployed precision is i8, or when a session's load shed asks
    /// for it and a calibrated quantized network exists.
    pub fn precision(&self) -> InferencePrecision {
        if self.shed_i8 && self.quantized.is_some() {
            InferencePrecision::I8
        } else {
            self.precision
        }
    }

    /// The one flip path: counts and reports a change of the running
    /// precision since `before`, whichever write caused it.
    fn note_precision_change(&mut self, before: InferencePrecision, cause: &str) {
        let now = self.precision();
        if now == before {
            return;
        }
        self.precision_flips += 1;
        let flip = format!("{} -> {} ({cause})", precision_label(before), precision_label(now));
        telemetry::counter_add("node.precision_flips", "", 1);
        telemetry::instant_with("node.precision_flip", || flip.clone());
        recorder::record("precision_flip", flip);
    }

    /// Turns the ingest shed's i8 overlay on or off. The overlay sits
    /// on top of the deployed precision, so plan installs and re-plans
    /// during a shed neither lift it nor get undone when it lifts.
    pub(crate) fn set_shed_i8(&mut self, on: bool) {
        let before = self.precision();
        self.shed_i8 = on;
        self.note_precision_change(before, if on { "shed" } else { "shed lifted" });
    }

    /// Borrow of the calibrated quantized network, if one exists.
    pub fn quantized(&self) -> Option<&QuantizedNet> {
        self.quantized.as_ref()
    }

    /// Calibrates an i8 copy of the inference network over `calib`
    /// (a held-out split that should mirror the deployment's input
    /// distribution) and switches inference to
    /// [`InferencePrecision::I8`]. The [`QuantizedNet`] keeps the
    /// network's activation at the freeze cut over the calibration
    /// images, so [`install_update`](InsituNode::install_update)
    /// recalibrates in place, re-walking only the deployed network's
    /// layers above the cut.
    ///
    /// # Errors
    ///
    /// Returns an error if the calibration split is empty or does not
    /// flow through the network.
    pub fn enable_quantized(&mut self, calib: &Dataset) -> Result<()> {
        let _t = telemetry::span_with("node.quantize", || {
            format!("calibrate over {} images", calib.len())
        });
        let before = self.precision();
        self.quantized = Some(QuantizedNet::calibrate(&self.inference, calib.images())?);
        self.precision = InferencePrecision::I8;
        self.note_precision_change(before, "calibrated");
        Ok(())
    }

    /// Switches the deployed inference precision.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when asked for
    /// [`InferencePrecision::I8`] before
    /// [`enable_quantized`](InsituNode::enable_quantized) has
    /// calibrated a quantized network.
    pub fn set_precision(&mut self, precision: InferencePrecision) -> Result<()> {
        if precision == InferencePrecision::I8 && self.quantized.is_none() {
            return Err(CoreError::BadConfig {
                reason: "i8 inference requires calibration; call enable_quantized first"
                    .to_string(),
            });
        }
        let before = self.precision();
        self.precision = precision;
        self.note_precision_change(before, "set_precision");
        Ok(())
    }

    /// Installs a planner decision as the node's active plan. The
    /// plan's precision becomes the deployed precision when the node
    /// can honor it (i8 requires a calibrated quantized network; an i8
    /// plan on an uncalibrated node keeps f32). Records a
    /// `mode_decision` flight event.
    pub fn install_plan(&mut self, plan: NodePlan) {
        let before = self.precision();
        self.precision = match plan.precision {
            InferencePrecision::I8 if self.quantized.is_none() => InferencePrecision::F32,
            p => p,
        };
        recorder::record("mode_decision", plan.summary());
        self.plan = Some(plan);
        self.note_precision_change(before, "plan");
    }

    /// The active plan, if one was installed.
    pub fn plan(&self) -> Option<&NodePlan> {
        self.plan.as_ref()
    }

    /// The inference batch size the active plan prescribes; `None`
    /// while unplanned (callers fall back to their own batch size).
    pub fn active_batch(&self) -> Option<usize> {
        self.plan.as_ref().map(|p| p.inference_batch)
    }

    /// Turns the online re-plan loop on. Takes effect once a plan is
    /// installed ([`InsituNode::install_plan`]); `every_stages` is
    /// clamped to at least 1.
    pub fn enable_replan(&mut self, mut config: ReplanConfig) {
        config.every_stages = config.every_stages.max(1);
        self.replan = Some(config);
    }

    /// How many times the node has re-planned itself.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// How many times the running inference precision (see
    /// [`precision`](InsituNode::precision)) changed F32↔I8, whatever
    /// changed it: calibration, `set_precision`, a plan install or
    /// re-plan, or a session's load shed.
    pub fn precision_flips(&self) -> u64 {
        self.precision_flips
    }

    /// Fused stages processed since construction.
    pub fn stages_processed(&self) -> u64 {
        self.stages_processed
    }

    /// Restarts the measurement window the re-plan loop reads: a
    /// session prices its plan from its own stages only.
    pub(crate) fn restart_latency_window(&mut self) {
        self.stage_per_image = Default::default();
    }

    /// Test/fault-injection hook: sleep this long inside every fused
    /// stage span, inflating the measured stage latency without
    /// touching predictions, verdicts or the RNG stream. This is how
    /// the end-to-end re-plan test perturbs a seeded session
    /// deterministically; `None` (the default) disables it.
    pub fn set_injected_stage_delay(&mut self, delay: Option<std::time::Duration>) {
        self.injected_stage_delay = delay;
    }

    /// The deployed model version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The diagnosis policy in force.
    pub fn policy(&self) -> DiagnosisPolicy {
        self.policy
    }

    /// Replaces the diagnosis policy.
    pub fn set_policy(&mut self, policy: DiagnosisPolicy) {
        self.policy = policy;
    }

    /// Number of weight-shared convolutional layers.
    pub fn shared_convs(&self) -> usize {
        self.shared_convs
    }

    /// Cumulative data-movement accounting.
    pub fn movement(&self) -> &DataMovementMeter {
        &self.movement
    }

    /// Borrow of the deployed inference network.
    pub fn inference(&self) -> &Sequential {
        &self.inference
    }

    /// Mutable borrow of the deployed inference network.
    pub fn inference_mut(&mut self) -> &mut Sequential {
        &mut self.inference
    }

    /// Borrow of the deployed diagnosis network.
    pub fn jigsaw(&self) -> &JigsawNet {
        &self.jigsaw
    }

    /// Mutable borrow of the deployed diagnosis network.
    pub fn jigsaw_mut(&mut self) -> &mut JigsawNet {
        &mut self.jigsaw
    }

    /// Warms every kernel workspace by pushing zeroed batches through
    /// **both** deployed networks in Eval mode (outputs discarded).
    ///
    /// The conv workspaces and GEMM packing arenas inside the layers
    /// grow to their steady-state size on first use; running that first
    /// use here — before the stream starts — means the session's real
    /// batches hit the zero-allocation kernel path from image one. The
    /// diagnosis warm-up covers the shapes the fused stage runs: the
    /// trunk over one diagnosis chunk's 144 tiles, and the feature-gather
    /// head pass over that chunk's probes (16 images times the policy's
    /// probe count). On an i8 node it also runs the recalibration walk,
    /// which leaves the calibration bitwise as it is and grows the
    /// deployed network's workspaces above the freeze cut to the
    /// calibration batch, so installs allocate no kernel scratch either.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements (a network that cannot
    /// consume the deployment's image shape).
    pub fn prewarm(&mut self, batch: usize) -> Result<()> {
        use insitu_nn::models::{CHANNELS, IMAGE_SIZE, PATCHES, PATCH_SIZE};
        let _t = telemetry::span_with("node.prewarm", || format!("bs{batch}"));
        let zeros = Tensor::zeros([batch.max(1), CHANNELS, IMAGE_SIZE, IMAGE_SIZE]);
        self.inference.predict(&zeros)?;
        if let Some(q) = &mut self.quantized {
            q.predict(&zeros)?;
            q.recalibrate(&mut self.inference)?;
        }
        let tiles = Tensor::zeros([DIAGNOSIS_CHUNK * PATCHES, CHANNELS, PATCH_SIZE, PATCH_SIZE]);
        let feats = self.jigsaw.tile_features(&tiles)?;
        // The fused stage runs the head once per chunk over every probe
        // of its images (one GEMM); warm the probe count the policy uses.
        let probes = match self.policy {
            DiagnosisPolicy::JigsawProbe { probes } => probes.max(1),
            _ => 1,
        };
        let identity: Vec<u8> = (0..PATCHES as u8).collect();
        let perms = vec![identity.as_slice(); DIAGNOSIS_CHUNK * probes];
        self.jigsaw.predict_from_features(&feats, &perms)?;
        Ok(())
    }

    /// Held-out accuracy of the deployed inference model, evaluated at
    /// the node's current [`InferencePrecision`].
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn accuracy_on(&mut self, data: &Dataset, batch: usize) -> Result<f32> {
        let precision = self.precision();
        if let (Some(q), InferencePrecision::I8) = (&mut self.quantized, precision) {
            return Ok(q.accuracy_on(data.images(), data.labels(), batch)?);
        }
        Ok(evaluate(
            &mut self.inference,
            LabeledBatch::new(data.images(), data.labels())?,
            batch,
        )?)
    }

    /// Processes one acquisition stage: runs inference on every image,
    /// diagnoses which images are valuable, and accounts the upload.
    ///
    /// This is the **co-running fast path**: the inference forward runs
    /// exactly once per image and its logits are handed to the
    /// diagnosis policies as a per-stage cache, and the jigsaw policies
    /// evaluate every probe permutation from cached tile features, one
    /// trunk pass and one head pass per 16-image chunk (see
    /// [`diagnose_with_logits`]). At
    /// [`InferencePrecision::F32`] predictions and verdicts are bitwise
    /// identical to the unfused reference: a chunked inference forward
    /// followed by [`diagnose`](crate::diagnose) on the node's RNG.
    ///
    /// At [`InferencePrecision::I8`] the inference forward runs on the
    /// calibrated fixed-point network; its logits feed the application
    /// predictions *and* the logit-consuming diagnosis policies, while
    /// the jigsaw network stays f32. The contract there is statistical,
    /// not bitwise: held-out accuracy within two points of f32 (see
    /// the `quantized_inference` integration tests).
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn process_stage(&mut self, data: &Dataset, batch: usize) -> Result<StageOutcome> {
        let _t =
            telemetry::span_with("node.stage", || format!("{} images @bs{batch}", data.len()));
        // Stage timing for the re-plan loop's measured profile.
        let stage_start = Instant::now();
        let precision = self.precision();
        let label = precision_label(precision);
        // Inference task: predictions for the end application. The
        // per-chunk logits double as the diagnosis logit cache.
        let mut predictions = Vec::with_capacity(data.len());
        let bs = batch.max(1);
        let mut logit_chunks = Vec::with_capacity(data.len().div_ceil(bs));
        {
            let _inf = telemetry::span("node.inference");
            let mut start = 0;
            while start < data.len() {
                let end = (start + bs).min(data.len());
                let sub = data.subset_range(start..end)?;
                let chunk_start = Instant::now();
                let logits = match (&mut self.quantized, precision) {
                    (Some(q), InferencePrecision::I8) => q.predict(sub.images())?,
                    _ => self.inference.predict(sub.images())?,
                };
                telemetry::hist_record("node.infer_chunk", label, elapsed_ns(chunk_start));
                predictions.extend(insitu_nn::predictions(&logits)?);
                logit_chunks.push(logits);
                start = end;
            }
        }
        // Diagnosis task: select valuable data, reusing the shared work.
        let verdicts = {
            let _diag = telemetry::span("node.diagnosis");
            diagnose_with_logits(
                self.policy,
                &logit_chunks,
                &mut self.jigsaw,
                &self.perm_set,
                data,
                &mut self.rng,
            )?
        };
        // Fault-injection hook: inflate the measured stage latency
        // (inside the stage span, before the per-image sample lands).
        if let Some(delay) = self.injected_stage_delay {
            std::thread::sleep(delay);
        }
        let per_image = elapsed_ns(stage_start) / data.len().max(1) as u64;
        self.stage_per_image[precision as usize].record(per_image);
        telemetry::hist_record("node.stage_per_image", label, per_image);
        let outcome = self.finish_stage(data, predictions, verdicts)?;
        self.stages_processed += 1;
        self.maybe_replan();
        Ok(outcome)
    }

    /// The online re-plan check: every `every_stages` fused stages,
    /// compare this node's measured p90 per-image latency at the
    /// deployed precision with the active plan's prediction and
    /// re-plan from the measurements when they disagree by more than
    /// the configured divergence factor. Stages run under the shed's
    /// i8 overlay are not the plan's configuration, so they are not
    /// read as its cost.
    fn maybe_replan(&mut self) {
        let (Some(cfg), Some(plan)) = (&self.replan, &self.plan) else { return };
        if !self.stages_processed.is_multiple_of(cfg.every_stages)
            || plan.inference_batch == 0
            || plan.predicted_latency_s <= 0.0
        {
            return;
        }
        let deployed = &self.stage_per_image[self.precision as usize];
        let Some(measured) = MeasuredProfile::from_hist(deployed) else { return };
        let predicted_per_image = plan.predicted_latency_s / plan.inference_batch as f64;
        let ratio = measured.per_image_p90_s / predicted_per_image;
        let theta = cfg.divergence.max(1.0 + 1e-9);
        if (1.0 / theta..=theta).contains(&ratio) {
            return;
        }
        let before = plan.summary();
        match crate::planner::plan(
            &cfg.request,
            &cfg.inference_shapes,
            CostSource::Measured(&measured),
            cfg.quant.as_ref(),
        ) {
            Ok(new_plan) => {
                let change = format!("{before} -> {} (p90 ratio {ratio:.2})", new_plan.summary());
                telemetry::instant_with("node.replan", || change.clone());
                recorder::record("replan", change);
                self.replans += 1;
                self.install_plan(new_plan);
            }
            Err(e) => {
                // The measurements admit nothing: keep the old plan
                // but leave a trace of the failed attempt.
                telemetry::instant_with("node.replan_infeasible", || e.to_string());
                recorder::record("replan_infeasible", e.to_string());
            }
        }
    }

    /// Stage epilogue: upload selection and movement accounting.
    fn finish_stage(
        &mut self,
        data: &Dataset,
        predictions: Vec<usize>,
        verdicts: Vec<Verdict>,
    ) -> Result<StageOutcome> {
        let valuable = valuable_indices(&verdicts);
        let uploaded_bytes = valuable.len() as u64 * IMAGE_BYTES;
        self.movement.record(data.len() as u64, valuable.len() as u64);
        telemetry::hist_record("node.upload_bytes", "", uploaded_bytes);
        recorder::record(
            "stage",
            format!("{} images, {} uploaded (v{})", data.len(), valuable.len(), self.version),
        );
        Ok(StageOutcome { predictions, verdicts, valuable, uploaded_bytes })
    }

    /// Extracts the valuable subset chosen by
    /// [`process_stage`](InsituNode::process_stage) for upload.
    ///
    /// # Errors
    ///
    /// Returns an error if indices are out of range (a stale outcome).
    pub fn upload_payload(&self, data: &Dataset, outcome: &StageOutcome) -> Result<Dataset> {
        Ok(data.subset(&outcome.valuable)?)
    }

    /// Installs a model refresh from the Cloud, all or nothing.
    ///
    /// An update carries only the inference network's state-dict
    /// tensors after its freeze cut ([`ModelUpdate`]): the frozen prefix,
    /// which holds the convs shared with diagnosis, belongs to the
    /// deployment. An update that carries a diagnosis dict is rejected;
    /// otherwise [`load_trained`] writes the suffix after checking its
    /// count and shapes, so a rejected update leaves the node serving its
    /// last good model. On an i8 node the quantized network then
    /// recalibrates from the deployed network
    /// ([`QuantizedNet::recalibrate`]), which cannot fail: it was
    /// calibrated from this network, whose architecture no install
    /// changes. A successful install adds the update's downlink bytes to
    /// the [`movement`](InsituNode::movement) meter.
    ///
    /// # Errors
    ///
    /// Returns an error if the update carries a diagnosis dict or its
    /// suffix does not match the deployed architecture; the node is then
    /// unchanged.
    pub fn install_update(&mut self, update: &ModelUpdate) -> Result<()> {
        if update.jigsaw_params.is_some() {
            return Err(NnError::SnapshotMismatch {
                reason: "an update carries no diagnosis dict: diagnosis is fixed at deployment"
                    .to_string(),
            }
            .into());
        }
        load_trained(&mut self.inference, &update.inference_params)?;
        if let Some(q) = &mut self.quantized {
            let _t = telemetry::span("node.quantize_refresh");
            q.recalibrate(&mut self.inference)?;
        }
        self.version = update.version;
        self.movement.record_install(update.downlink_bytes());
        Ok(())
    }
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_data::Condition;
    use insitu_nn::models::{jigsaw_network, mini_alexnet};
    use insitu_nn::serialize::{state_dict, trained_dict};
    use insitu_nn::transfer::transfer_and_freeze;

    fn node() -> InsituNode {
        let mut rng = Rng::seed_from(3);
        let jigsaw = jigsaw_network(8, &mut rng).unwrap();
        let mut inference = mini_alexnet(4, &mut rng).unwrap();
        transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
        let set = PermutationSet::generate(8, &mut rng).unwrap();
        InsituNode::new(inference, jigsaw, set, DiagnosisPolicy::Oracle, 3, 7).unwrap()
    }

    fn data() -> Dataset {
        Dataset::generate(12, 4, &Condition::ideal(), &mut Rng::seed_from(5)).unwrap()
    }

    /// What the Cloud ships: the dict of a fresh Mini-AlexNet after the
    /// freeze cut it shares with `n`.
    fn update_suffix(n: &InsituNode, seed: u64) -> Vec<Tensor> {
        let mut other = mini_alexnet(4, &mut Rng::seed_from(seed)).unwrap();
        transfer_and_freeze(n.jigsaw().trunk(), &mut other, 3, 3).unwrap();
        trained_dict(&mut other)
    }

    #[test]
    fn construction_requires_shared_prefix() {
        let mut rng = Rng::seed_from(4);
        let jigsaw = jigsaw_network(8, &mut rng).unwrap();
        let inference = mini_alexnet(4, &mut rng).unwrap(); // NOT transferred
        let set = PermutationSet::generate(8, &mut rng).unwrap();
        assert!(matches!(
            InsituNode::new(inference, jigsaw.clone(), set.clone(), DiagnosisPolicy::Oracle, 3, 7),
            Err(CoreError::BadConfig { .. })
        ));
        // Transferred, but frozen only through conv2: an update could
        // then move the shared conv3.
        let mut inference = mini_alexnet(4, &mut rng).unwrap();
        transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 2).unwrap();
        assert!(matches!(
            InsituNode::new(inference, jigsaw, set, DiagnosisPolicy::Oracle, 3, 7),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn process_stage_accounts_movement() {
        let mut n = node();
        let d = data();
        let outcome = n.process_stage(&d, 4).unwrap();
        assert_eq!(outcome.predictions.len(), d.len());
        assert_eq!(outcome.verdicts.len(), d.len());
        assert_eq!(
            outcome.uploaded_bytes,
            outcome.valuable.len() as u64 * IMAGE_BYTES
        );
        assert_eq!(n.movement().images_seen, d.len() as u64);
        assert_eq!(n.movement().images_uploaded, outcome.valuable.len() as u64);
        // Oracle policy: valuable == mispredicted.
        for (i, v) in outcome.verdicts.iter().enumerate() {
            assert_eq!(v.valuable, outcome.predictions[i] != d.labels()[i]);
        }
    }

    #[test]
    fn upload_payload_matches_valuable() {
        let mut n = node();
        let d = data();
        let outcome = n.process_stage(&d, 4).unwrap();
        let payload = n.upload_payload(&d, &outcome).unwrap();
        assert_eq!(payload.len(), outcome.valuable.len());
    }

    #[test]
    fn install_update_bumps_version_and_weights() {
        let mut n = node();
        let update = ModelUpdate {
            version: 5,
            inference_params: update_suffix(&n, 9),
            jigsaw_params: None,
            training_ops: 1,
            eval_accuracy: None,
        };
        n.install_update(&update).unwrap();
        assert_eq!(n.version(), 5);
        assert_eq!(trained_dict(n.inference_mut()), update.inference_params);
        // Mismatched snapshot rejected.
        let bad = ModelUpdate {
            version: 6,
            inference_params: vec![],
            jigsaw_params: None,
            training_ops: 0,
            eval_accuracy: None,
        };
        assert!(n.install_update(&bad).is_err());
        assert_eq!(n.version(), 5);
    }

    #[test]
    fn rejected_update_leaves_the_node_unchanged() {
        let mut n = node();
        let (before, version) = (state_dict(n.inference_mut()), n.version());
        let mut update = ModelUpdate {
            version: 3,
            inference_params: update_suffix(&n, 21),
            jigsaw_params: Some(state_dict(n.jigsaw_mut())),
            training_ops: 1,
            eval_accuracy: None,
        };
        // A jigsaw dict, even the node's own, rejects the whole update
        // before the valid inference suffix is written.
        assert!(n.install_update(&update).is_err());
        assert_eq!(state_dict(n.inference_mut()), before);
        assert_eq!(n.version(), version);
        update.jigsaw_params = None;
        n.install_update(&update).unwrap();
        assert_eq!(trained_dict(n.inference_mut()), update.inference_params);
        assert_eq!(n.version(), 3);
    }

    #[test]
    fn policy_accessors() {
        let mut n = node();
        assert_eq!(n.policy(), DiagnosisPolicy::Oracle);
        n.set_policy(DiagnosisPolicy::JigsawProbe { probes: 1 });
        assert_eq!(n.policy(), DiagnosisPolicy::JigsawProbe { probes: 1 });
        assert_eq!(n.shared_convs(), 3);
    }

    #[test]
    fn accuracy_in_unit_interval() {
        let mut n = node();
        let acc = n.accuracy_on(&data(), 4).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn i8_precision_requires_calibration() {
        let mut n = node();
        assert_eq!(n.precision(), InferencePrecision::F32);
        assert!(matches!(
            n.set_precision(InferencePrecision::I8),
            Err(CoreError::BadConfig { .. })
        ));
        assert_eq!(n.precision(), InferencePrecision::F32);
    }

    #[test]
    fn enable_quantized_switches_precision_and_f32_reverts_bitwise() {
        let d = data();
        let calib = Dataset::generate(4, 4, &Condition::ideal(), &mut Rng::seed_from(11)).unwrap();
        let mut n = node();
        n.enable_quantized(&calib).unwrap();
        assert_eq!(n.precision(), InferencePrecision::I8);
        assert!(n.quantized().is_some());
        n.prewarm(4).unwrap();
        let quantized = n.process_stage(&d, 4).unwrap();
        assert_eq!(quantized.predictions.len(), d.len());

        // Dropping back to f32 restores the reference stage bitwise
        // (same predictions and verdict stream as a never-quantized
        // node at the same RNG position).
        n.set_precision(InferencePrecision::F32).unwrap();
        let mut reference2 = node();
        reference2.process_stage(&d, 4).unwrap(); // advance RNG like `n`
        let a = n.process_stage(&d, 4).unwrap();
        let b = reference2.process_stage(&d, 4).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(
            a.verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect::<Vec<_>>(),
            b.verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn install_update_recalibrates_quantized_net() {
        let mut n = node();
        let calib = Dataset::generate(4, 4, &Condition::ideal(), &mut Rng::seed_from(13)).unwrap();
        n.enable_quantized(&calib).unwrap();
        let before: Vec<f32> =
            n.quantized().unwrap().calibration().iter().map(|c| c.in_scale).collect();
        let update = ModelUpdate {
            version: 2,
            inference_params: update_suffix(&n, 17),
            jigsaw_params: None,
            training_ops: 1,
            eval_accuracy: None,
        };
        n.install_update(&update).unwrap();
        // Still quantized, still runnable, and the scales were re-measured.
        assert_eq!(n.precision(), InferencePrecision::I8);
        let after: Vec<f32> =
            n.quantized().unwrap().calibration().iter().map(|c| c.in_scale).collect();
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "update with new weights must refresh the scales");
        n.process_stage(&data(), 4).unwrap();
    }

    #[test]
    fn install_keeps_every_workspace_warm() {
        let mut n = node();
        // More calibration images than the prewarm batch: the walk, not
        // the prewarm forward, sets the deployed suffix's workspaces.
        let calib = Dataset::generate(6, 4, &Condition::ideal(), &mut Rng::seed_from(19)).unwrap();
        n.enable_quantized(&calib).unwrap();
        n.prewarm(4).unwrap();
        let counts = |n: &InsituNode| {
            (
                n.inference().workspace_reallocations(),
                n.quantized().unwrap().workspace_reallocations(),
            )
        };
        let warm = counts(&n);
        assert!(warm.0.iter().chain(&warm.1).all(|&g| g > 0), "every workspace warmed: {warm:?}");
        for (version, seed) in [(1, 23), (2, 29)] {
            let update = ModelUpdate {
                version,
                inference_params: update_suffix(&n, seed),
                jigsaw_params: None,
                training_ops: 1,
                eval_accuracy: None,
            };
            n.install_update(&update).unwrap();
            // Replaced workspaces would restart at 0; grown ones would
            // count up.
            assert_eq!(counts(&n), warm, "install {version}");
        }
        n.process_stage(&data(), 4).unwrap();
        assert_eq!(counts(&n), warm, "stage");
    }
}
