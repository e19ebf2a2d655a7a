//! The autonomous data-diagnosis task.
//!
//! The diagnosis task decides, **without labels**, whether an incoming
//! image is "valuable" — i.e. likely to be unrecognized by the current
//! model and therefore worth uploading for incremental training. The
//! paper's mechanism is the unsupervised context-prediction network:
//! if the network cannot recover a known tile permutation, its learned
//! features do not capture the sample, so the sample is out of the
//! learned distribution.
//!
//! Several policies are provided (the paper fixes one; the extras form
//! the design-space ablation in `insitu-experiments`):
//!
//! * [`DiagnosisPolicy::JigsawProbe`] — apply `probes` random known
//!   permutations; the sample is valuable if the network misidentifies
//!   more than half of them.
//! * [`DiagnosisPolicy::JigsawConfidence`] — valuable if the softmax
//!   probability assigned to the *true* permutation falls below a
//!   threshold (a graded version of the probe).
//! * [`DiagnosisPolicy::InferenceConfidence`] — valuable if the
//!   inference network's top softmax probability falls below a
//!   threshold (no second network; a classical baseline).
//! * [`DiagnosisPolicy::Oracle`] — valuable iff the inference
//!   prediction is wrong. Needs labels; the upper bound a deployed
//!   system cannot use (labels don't exist in situ).

use crate::error::CoreError;
use crate::Result;
use insitu_data::{
    canonical_tiles, normalize_tiles, patchify, permute_tiles, Dataset, PermutationSet,
};
use insitu_nn::{confidence, softmax, JigsawNet, Sequential};
use insitu_telemetry as telemetry;
use insitu_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Images per trunk pass and per head pass of the fused jigsaw policies:
/// 16 images are 144 tiles. A larger chunk measured slower (64 images
/// took about 1.5× the time of 16), so this is a constant and not the
/// stage's batch, which a measured plan can raise to 256.
pub(crate) const DIAGNOSIS_CHUNK: usize = 16;

/// How the node decides which samples are valuable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiagnosisPolicy {
    /// Majority vote over `probes` jigsaw probes.
    JigsawProbe {
        /// Number of random permutations probed per image.
        probes: usize,
    },
    /// True-permutation softmax probability below `threshold`.
    JigsawConfidence {
        /// Valuable when `p(true permutation) < threshold`.
        threshold: f32,
    },
    /// Inference top-1 softmax probability below `threshold`.
    InferenceConfidence {
        /// Valuable when `max softmax < threshold`.
        threshold: f32,
    },
    /// Ground-truth comparison (upper bound; unavailable in situ).
    Oracle,
}

impl Default for DiagnosisPolicy {
    fn default() -> Self {
        DiagnosisPolicy::JigsawProbe { probes: 3 }
    }
}

/// Per-sample diagnosis outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Whether the sample should be uploaded for incremental training.
    pub valuable: bool,
    /// Policy-specific confidence score in `[0, 1]`; higher means the
    /// node is more certain the sample is *recognized*.
    pub score: f32,
}

/// Runs a diagnosis policy over a dataset — the **unfused reference
/// path**.
///
/// `inference` is consulted by the inference-side policies;
/// `jigsaw`/`set` by the unsupervised policies. Inputs are processed in
/// batches of `batch_size`.
///
/// Every forward pass is recomputed from scratch: the inference-side
/// policies re-run the inference network and the jigsaw policies run
/// the full trunk once per probe. The co-running fast path
/// ([`diagnose_with_logits`]) must stay bitwise identical to this
/// function; it is kept public as the differential-testing oracle and
/// the diagnosis-policy ablation's entry point.
///
/// # Errors
///
/// Returns an error on shape disagreements between the networks and the
/// data.
pub fn diagnose(
    policy: DiagnosisPolicy,
    inference: &mut Sequential,
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    batch_size: usize,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    match policy {
        DiagnosisPolicy::Oracle => oracle(inference, data, batch_size),
        DiagnosisPolicy::InferenceConfidence { threshold } => {
            inference_confidence(inference, data, batch_size, threshold)
        }
        DiagnosisPolicy::JigsawProbe { probes } => {
            if probes == 0 {
                return Err(CoreError::BadConfig {
                    reason: "JigsawProbe requires at least one probe".into(),
                });
            }
            jigsaw_probe(jigsaw, set, data, batch_size, probes, rng)
        }
        DiagnosisPolicy::JigsawConfidence { threshold } => {
            jigsaw_confidence(jigsaw, set, data, batch_size, threshold, rng)
        }
    }
}

/// Runs a diagnosis policy reusing the co-running stage's work — the
/// **fused fast path**.
///
/// `logit_chunks` are the inference logits the caller already computed
/// for this stage, one tensor per consecutive batch (the stage's logit
/// cache); the inference-side policies read them instead of re-running
/// the network. The jigsaw policies take the tile-embedding fast path
/// in chunks of 16 images: one trunk pass over the chunk's canonical
/// tiles ([`JigsawNet::tile_features`], 144 tiles for a whole chunk),
/// then every probe permutation of every image in the chunk is a row
/// gather into one head pass ([`JigsawNet::predict_from_features`]).
///
/// Verdicts — including the `f32` score bits and the RNG draw order —
/// are bitwise identical to [`diagnose`] on the same inputs.
///
/// # Errors
///
/// Returns an error on shape disagreements, or
/// [`CoreError::BadConfig`] if the cached logit rows do not cover the
/// dataset exactly or a [`DiagnosisPolicy::JigsawProbe`] has zero
/// probes.
pub fn diagnose_with_logits(
    policy: DiagnosisPolicy,
    logit_chunks: &[Tensor],
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    match policy {
        DiagnosisPolicy::Oracle => {
            let _r = telemetry::span_with("node.reuse", || {
                format!("logit_cache oracle {} images", data.len())
            });
            oracle_from_logits(logit_chunks, data)
        }
        DiagnosisPolicy::InferenceConfidence { threshold } => {
            let _r = telemetry::span_with("node.reuse", || {
                format!("logit_cache confidence {} images", data.len())
            });
            inference_confidence_from_logits(logit_chunks, data, threshold)
        }
        DiagnosisPolicy::JigsawProbe { probes } => {
            if probes == 0 {
                return Err(CoreError::BadConfig {
                    reason: "JigsawProbe requires at least one probe".into(),
                });
            }
            let _r = telemetry::span_with("node.reuse", || {
                format!("tile_embeddings {} images x{probes} probes", data.len())
            });
            jigsaw_probe_fused(jigsaw, set, data, probes, rng)
        }
        DiagnosisPolicy::JigsawConfidence { threshold } => {
            let _r = telemetry::span_with("node.reuse", || {
                format!("tile_embeddings {} images x1 probe", data.len())
            });
            jigsaw_confidence_fused(jigsaw, set, data, threshold, rng)
        }
    }
}

fn oracle(
    inference: &mut Sequential,
    data: &Dataset,
    batch_size: usize,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    let bs = batch_size.max(1);
    let mut start = 0;
    while start < data.len() {
        let end = (start + bs).min(data.len());
        let sub = data.subset_range(start..end)?;
        let logits = inference.predict(sub.images())?;
        let preds = insitu_nn::predictions(&logits)?;
        for (p, &label) in preds.iter().zip(sub.labels()) {
            let correct = *p == label;
            verdicts.push(Verdict { valuable: !correct, score: f32::from(u8::from(correct)) });
        }
        start = end;
    }
    Ok(verdicts)
}

/// [`oracle`] over cached logits: no dataset copies, no forward pass.
fn oracle_from_logits(logit_chunks: &[Tensor], data: &Dataset) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    let mut offset = 0usize;
    for logits in logit_chunks {
        let preds = insitu_nn::predictions(logits)?;
        let labels = data.labels().get(offset..offset + preds.len()).ok_or_else(|| {
            CoreError::BadConfig {
                reason: format!(
                    "logit cache covers more rows than the {}-image stage",
                    data.len()
                ),
            }
        })?;
        for (p, &label) in preds.iter().zip(labels) {
            let correct = *p == label;
            verdicts.push(Verdict { valuable: !correct, score: f32::from(u8::from(correct)) });
        }
        offset += preds.len();
    }
    check_covered(offset, data.len())?;
    Ok(verdicts)
}

fn inference_confidence(
    inference: &mut Sequential,
    data: &Dataset,
    batch_size: usize,
    threshold: f32,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    let bs = batch_size.max(1);
    let mut start = 0;
    while start < data.len() {
        let end = (start + bs).min(data.len());
        let sub = data.subset_range(start..end)?;
        let logits = inference.predict(sub.images())?;
        for c in confidence(&logits)? {
            verdicts.push(Verdict { valuable: c < threshold, score: c });
        }
        start = end;
    }
    Ok(verdicts)
}

/// [`inference_confidence`] over cached logits.
fn inference_confidence_from_logits(
    logit_chunks: &[Tensor],
    data: &Dataset,
    threshold: f32,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    for logits in logit_chunks {
        for c in confidence(logits)? {
            verdicts.push(Verdict { valuable: c < threshold, score: c });
        }
    }
    check_covered(verdicts.len(), data.len())?;
    Ok(verdicts)
}

/// The logit cache must cover the stage exactly: a silent mismatch
/// would misalign verdicts and images.
fn check_covered(rows: usize, images: usize) -> Result<()> {
    if rows != images {
        return Err(CoreError::BadConfig {
            reason: format!("logit cache has {rows} rows for a {images}-image stage"),
        });
    }
    Ok(())
}

/// Builds the probe input for one image: tiles shuffled by `perm`.
fn probe_input(image: &Tensor, perm: &[u8; 9]) -> Result<Tensor> {
    let tiles = normalize_tiles(&patchify(image)?)?;
    let shuffled = permute_tiles(&tiles, perm)?;
    let d = shuffled.dims().to_vec();
    Ok(shuffled.reshape([1, d[0], d[1], d[2], d[3]]).map_err(insitu_nn::NnError::from)?)
}

fn jigsaw_probe(
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    _batch_size: usize,
    probes: usize,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    for i in 0..data.len() {
        let image = data.image(i)?;
        let mut correct = 0usize;
        for _ in 0..probes {
            let cls = rng.below(set.len());
            let input = probe_input(&image, set.permutation(cls))?;
            let logits = jigsaw.predict(&input)?;
            let pred = insitu_nn::predictions(&logits)?[0];
            if pred == cls {
                correct += 1;
            }
        }
        let score = correct as f32 / probes as f32;
        verdicts.push(Verdict { valuable: 2 * correct < probes || correct == 0, score });
    }
    Ok(verdicts)
}

fn jigsaw_confidence(
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    _batch_size: usize,
    threshold: f32,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    for i in 0..data.len() {
        let image = data.image(i)?;
        let cls = rng.below(set.len());
        let input = probe_input(&image, set.permutation(cls))?;
        let logits = jigsaw.predict(&input)?;
        let probs = softmax(&logits)?;
        let p_true = probs.at(&[0, cls]).map_err(insitu_nn::NnError::from)?;
        verdicts.push(Verdict { valuable: p_true < threshold, score: p_true });
    }
    Ok(verdicts)
}

/// The tile-embedding fast path both fused jigsaw policies share. Per
/// chunk of [`DIAGNOSIS_CHUNK`] images: one trunk pass over the chunk's
/// canonical tiles, `probes` classes drawn per image in image order,
/// and one head pass over every probe of every image. Predictions
/// consume no randomness, so drawing a chunk's classes before its head
/// pass consumes the RNG stream in exactly the reference order; the
/// trunk and the head are row-equivariant, so the logits are bitwise
/// the reference's. `judge(logits, classes, verdicts)` reads a chunk's
/// `(images·probes, permutations)` logits and its classes, and pushes
/// one verdict per image.
fn jigsaw_fused(
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    probes: usize,
    rng: &mut Rng,
    mut judge: impl FnMut(&Tensor, &[usize], &mut Vec<Verdict>) -> Result<()>,
) -> Result<Vec<Verdict>> {
    let mut verdicts = Vec::with_capacity(data.len());
    let mut classes = Vec::with_capacity(DIAGNOSIS_CHUNK * probes);
    let mut perms: Vec<&[u8]> = Vec::with_capacity(DIAGNOSIS_CHUNK * probes);
    for start in (0..data.len()).step_by(DIAGNOSIS_CHUNK) {
        let end = (start + DIAGNOSIS_CHUNK).min(data.len());
        let feats = jigsaw.tile_features(&canonical_tiles(data, start..end)?)?;
        classes.clear();
        classes.extend((0..(end - start) * probes).map(|_| rng.below(set.len())));
        perms.clear();
        perms.extend(classes.iter().map(|&cls| set.permutation(cls) as &[u8]));
        let logits = jigsaw.predict_from_features(&feats, &perms)?;
        judge(&logits, &classes, &mut verdicts)?;
    }
    Ok(verdicts)
}

/// [`jigsaw_probe`] via the tile-embedding fast path ([`jigsaw_fused`]).
fn jigsaw_probe_fused(
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    probes: usize,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    jigsaw_fused(jigsaw, set, data, probes, rng, |logits, classes, verdicts| {
        let preds = insitu_nn::predictions(logits)?;
        for (preds, classes) in preds.chunks(probes).zip(classes.chunks(probes)) {
            let correct = preds.iter().zip(classes).filter(|(p, cls)| p == cls).count();
            let score = correct as f32 / probes as f32;
            verdicts.push(Verdict { valuable: 2 * correct < probes || correct == 0, score });
        }
        Ok(())
    })
}

/// [`jigsaw_confidence`] via the tile-embedding fast path
/// ([`jigsaw_fused`]).
fn jigsaw_confidence_fused(
    jigsaw: &mut JigsawNet,
    set: &PermutationSet,
    data: &Dataset,
    threshold: f32,
    rng: &mut Rng,
) -> Result<Vec<Verdict>> {
    jigsaw_fused(jigsaw, set, data, 1, rng, |logits, classes, verdicts| {
        let probs = softmax(logits)?;
        for (j, &cls) in classes.iter().enumerate() {
            let p_true = probs.at(&[j, cls]).map_err(insitu_nn::NnError::from)?;
            verdicts.push(Verdict { valuable: p_true < threshold, score: p_true });
        }
        Ok(())
    })
}

/// Indices of the valuable samples in a verdict list.
pub fn valuable_indices(verdicts: &[Verdict]) -> Vec<usize> {
    verdicts
        .iter()
        .enumerate()
        .filter(|(_, v)| v.valuable)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_data::Condition;
    use insitu_nn::models::{jigsaw_network, mini_alexnet};

    fn setup() -> (Sequential, JigsawNet, PermutationSet, Dataset, Rng) {
        let mut rng = Rng::seed_from(11);
        let inference = mini_alexnet(4, &mut rng).unwrap();
        let jigsaw = jigsaw_network(8, &mut rng).unwrap();
        let set = PermutationSet::generate(8, &mut rng).unwrap();
        let data = Dataset::generate(10, 4, &Condition::ideal(), &mut rng).unwrap();
        (inference, jigsaw, set, data, rng)
    }

    #[test]
    fn oracle_matches_prediction_errors() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        let verdicts = diagnose(
            DiagnosisPolicy::Oracle,
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .unwrap();
        assert_eq!(verdicts.len(), data.len());
        let logits = inf.predict(data.images()).unwrap();
        let preds = insitu_nn::predictions(&logits).unwrap();
        for ((v, p), &l) in verdicts.iter().zip(preds).zip(data.labels()) {
            assert_eq!(v.valuable, p != l);
        }
    }

    #[test]
    fn confidence_threshold_extremes() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        let all = diagnose(
            DiagnosisPolicy::InferenceConfidence { threshold: 1.1 },
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .unwrap();
        assert!(all.iter().all(|v| v.valuable)); // everything below 1.1
        let none = diagnose(
            DiagnosisPolicy::InferenceConfidence { threshold: 0.0 },
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .unwrap();
        assert!(none.iter().all(|v| !v.valuable));
    }

    #[test]
    fn jigsaw_probe_runs_and_scores() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        let verdicts = diagnose(
            DiagnosisPolicy::JigsawProbe { probes: 3 },
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .unwrap();
        assert_eq!(verdicts.len(), data.len());
        assert!(verdicts.iter().all(|v| (0.0..=1.0).contains(&v.score)));
        // An untrained jigsaw should find most samples valuable.
        let frac =
            verdicts.iter().filter(|v| v.valuable).count() as f32 / verdicts.len() as f32;
        assert!(frac > 0.5, "untrained jigsaw flagged only {frac}");
    }

    #[test]
    fn zero_probes_rejected() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        assert!(diagnose(
            DiagnosisPolicy::JigsawProbe { probes: 0 },
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .is_err());
    }

    /// Chunked inference logits, as `process_stage` caches them.
    fn logit_chunks(inf: &mut Sequential, data: &Dataset, bs: usize) -> Vec<Tensor> {
        let mut chunks = Vec::new();
        let mut start = 0;
        while start < data.len() {
            let end = (start + bs).min(data.len());
            let sub = data.subset_range(start..end).unwrap();
            chunks.push(inf.predict(sub.images()).unwrap());
            start = end;
        }
        chunks
    }

    fn verdict_bits(verdicts: &[Verdict]) -> Vec<(bool, u32)> {
        verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect()
    }

    #[test]
    fn fused_matches_reference_for_every_policy() {
        let policies = [
            DiagnosisPolicy::Oracle,
            DiagnosisPolicy::InferenceConfidence { threshold: 0.5 },
            DiagnosisPolicy::JigsawProbe { probes: 3 },
            DiagnosisPolicy::JigsawConfidence { threshold: 0.5 },
        ];
        for policy in policies {
            let (mut inf, mut jig, set, data, _) = setup();
            let mut rng_ref = Rng::seed_from(77);
            let mut rng_fused = Rng::seed_from(77);
            let reference =
                diagnose(policy, &mut inf, &mut jig, &set, &data, 4, &mut rng_ref).unwrap();
            let chunks = logit_chunks(&mut inf, &data, 4);
            let fused =
                diagnose_with_logits(policy, &chunks, &mut jig, &set, &data, &mut rng_fused)
                    .unwrap();
            assert_eq!(
                verdict_bits(&fused),
                verdict_bits(&reference),
                "fused diverged under {policy:?}"
            );
        }
    }

    #[test]
    fn fused_rejects_mismatched_logit_cache() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        // One chunk short: the cache covers 8 of 10 images.
        let mut chunks = logit_chunks(&mut inf, &data, 4);
        chunks.pop();
        for policy in
            [DiagnosisPolicy::Oracle, DiagnosisPolicy::InferenceConfidence { threshold: 0.5 }]
        {
            assert!(matches!(
                diagnose_with_logits(policy, &chunks, &mut jig, &set, &data, &mut rng),
                Err(CoreError::BadConfig { .. })
            ));
        }
        // Zero probes rejected on the fused path too.
        assert!(diagnose_with_logits(
            DiagnosisPolicy::JigsawProbe { probes: 0 },
            &[],
            &mut jig,
            &set,
            &data,
            &mut rng,
        )
        .is_err());
    }

    #[test]
    fn valuable_indices_helper() {
        let verdicts = [
            Verdict { valuable: true, score: 0.0 },
            Verdict { valuable: false, score: 1.0 },
            Verdict { valuable: true, score: 0.2 },
        ];
        assert_eq!(valuable_indices(&verdicts), vec![0, 2]);
    }

    #[test]
    fn jigsaw_confidence_policy_runs() {
        let (mut inf, mut jig, set, data, mut rng) = setup();
        let verdicts = diagnose(
            DiagnosisPolicy::JigsawConfidence { threshold: 0.5 },
            &mut inf,
            &mut jig,
            &set,
            &data,
            4,
            &mut rng,
        )
        .unwrap();
        assert_eq!(verdicts.len(), data.len());
    }
}
