//! The co-running activation-reuse contract: the fused stage pipeline
//! (logit cache + tile-embedding fast path) must be **bitwise
//! identical** to the unfused reference for every diagnosis policy, at
//! any batch size, image count and kernel thread count.
//!
//! A node and the reference are built from the same seed. The node
//! runs [`InsituNode::process_stage`] (fused); the reference is the
//! unfused stage written out in this file ([`Reference::stage`]): the
//! inference forward in batch chunks for the predictions, then
//! [`diagnose`], which recomputes the inference forward and runs one
//! full jigsaw trunk pass per probe, on the RNG the node seeds itself
//! with. Everything the stage produces is compared at the bit level:
//! predictions, verdict flags, verdict score bits, upload selection and
//! byte accounting — and, because the jigsaw policies draw probe
//! permutations from the node RNG, equality also proves the fused path
//! consumes the RNG stream in exactly the reference order.

use insitu_core::{
    diagnose, valuable_indices, DiagnosisPolicy, InsituNode, StageOutcome, Verdict, IMAGE_BYTES,
};
use insitu_data::{Condition, Dataset, PermutationSet};
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::transfer::transfer_and_freeze;
use insitu_nn::{JigsawNet, Sequential};
use insitu_tensor::{num_threads, set_num_threads, Rng};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes access to the global kernel thread count.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

const PERMS: usize = 8;
const CLASSES: usize = 4;

/// The deployed networks and permutation set of `seed`, with the
/// first three convs shared the way `transfer_and_freeze` deploys them.
fn parts(seed: u64) -> (Sequential, JigsawNet, PermutationSet) {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(PERMS, &mut rng).unwrap();
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(PERMS, &mut rng).unwrap();
    (inference, jigsaw, set)
}

/// The seed of the node's diagnosis RNG.
fn node_seed(seed: u64) -> u64 {
    seed ^ 0xA5
}

fn make_node(seed: u64, policy: DiagnosisPolicy) -> InsituNode {
    let (inference, jigsaw, set) = parts(seed);
    InsituNode::new(inference, jigsaw, set, policy, 3, node_seed(seed)).unwrap()
}

/// Every bit the stage outcome carries, in comparable form:
/// (predictions, verdict bits, upload selection, uploaded bytes).
type OutcomeBits = (Vec<usize>, Vec<(bool, u32)>, Vec<usize>, u64);

fn outcome_bits(o: &StageOutcome) -> OutcomeBits {
    (o.predictions.clone(), verdict_bits(&o.verdicts), o.valuable.clone(), o.uploaded_bytes)
}

fn verdict_bits(verdicts: &[Verdict]) -> Vec<(bool, u32)> {
    verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect()
}

/// The unfused reference stage, sharing no stage code with the node:
/// the same networks and RNG as [`make_node`], no activation reuse.
struct Reference {
    inference: Sequential,
    jigsaw: JigsawNet,
    set: PermutationSet,
    policy: DiagnosisPolicy,
    rng: Rng,
}

impl Reference {
    fn new(seed: u64, policy: DiagnosisPolicy) -> Self {
        let (inference, jigsaw, set) = parts(seed);
        Reference { inference, jigsaw, set, policy, rng: Rng::seed_from(node_seed(seed)) }
    }

    /// Predictions from the inference forward in `batch`-image chunks,
    /// then verdicts from [`diagnose`], which recomputes that forward
    /// and runs the full jigsaw network once per probe.
    fn stage(&mut self, data: &Dataset, batch: usize) -> OutcomeBits {
        let mut predictions = Vec::with_capacity(data.len());
        let mut start = 0;
        while start < data.len() {
            let end = (start + batch).min(data.len());
            let chunk = data.subset_range(start..end).unwrap();
            let logits = self.inference.predict(chunk.images()).unwrap();
            predictions.extend(insitu_nn::predictions(&logits).unwrap());
            start = end;
        }
        let verdicts = diagnose(
            self.policy,
            &mut self.inference,
            &mut self.jigsaw,
            &self.set,
            data,
            batch,
            &mut self.rng,
        )
        .unwrap();
        let valuable = valuable_indices(&verdicts);
        let uploaded_bytes = valuable.len() as u64 * IMAGE_BYTES;
        (predictions, verdict_bits(&verdicts), valuable, uploaded_bytes)
    }
}

const POLICIES: [DiagnosisPolicy; 6] = [
    DiagnosisPolicy::Oracle,
    DiagnosisPolicy::InferenceConfidence { threshold: 0.6 },
    DiagnosisPolicy::JigsawProbe { probes: 3 },
    DiagnosisPolicy::JigsawConfidence { threshold: 0.4 },
    // Degenerate and larger probe counts exercise the batched head's
    // k=1 path and a head batch bigger than the perm pool.
    DiagnosisPolicy::JigsawProbe { probes: 1 },
    DiagnosisPolicy::JigsawProbe { probes: 5 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fused == unfused, bitwise, across seeds, ragged batch sizes and
    /// image counts, for each of six policy variants (including 1- and
    /// 5-probe jigsaw, which stress the batched head) at 1/2/4 kernel
    /// threads. Image counts reach past two 16-image diagnosis chunks,
    /// so several chunks and a ragged last one run. The single-thread
    /// outcome is also pinned across thread counts, so parallelism
    /// cannot smuggle in a divergence either.
    #[test]
    fn fused_stage_is_bitwise_identical_to_reference(
        seed in 0u64..500,
        batch in 1usize..9,
        images in 1usize..40,
    ) {
        let data = Dataset::generate(
            images,
            CLASSES,
            &Condition::in_situ(),
            &mut Rng::seed_from(seed.wrapping_add(991)),
        )
        .unwrap();
        for policy in POLICIES {
            let mut pinned: Option<OutcomeBits> = None;
            for threads in [1usize, 2, 4] {
                let (fused, reference) = with_threads(threads, || {
                    let mut node = make_node(seed, policy);
                    node.prewarm(batch).unwrap();
                    (
                        outcome_bits(&node.process_stage(&data, batch).unwrap()),
                        Reference::new(seed, policy).stage(&data, batch),
                    )
                });
                prop_assert!(
                    fused == reference,
                    "{policy:?} at {threads} threads:\n fused {fused:?}\n   ref {reference:?}"
                );
                match &pinned {
                    None => pinned = Some(fused),
                    Some(first) => prop_assert!(
                        *first == fused,
                        "{policy:?}: {threads} threads diverge from 1 thread"
                    ),
                }
            }
        }
    }
}

/// Repeated fused stages on one node keep matching a reference that
/// consumed the identical stream — the logit cache and embedding
/// buffers carry no state across stages.
#[test]
fn fused_path_is_stateless_across_stages() {
    let policy = DiagnosisPolicy::JigsawProbe { probes: 2 };
    let mut fused = make_node(41, policy);
    let mut reference = Reference::new(41, policy);
    fused.prewarm(4).unwrap();
    let mut rng = Rng::seed_from(1234);
    let (mut seen, mut uploaded) = (0u64, 0u64);
    for stage in 0..3 {
        let data = Dataset::generate(7, CLASSES, &Condition::in_situ(), &mut rng).unwrap();
        let a = fused.process_stage(&data, 4).unwrap();
        let b = reference.stage(&data, 4);
        assert_eq!(outcome_bits(&a), b, "stage {stage} diverged");
        seen += data.len() as u64;
        uploaded += b.2.len() as u64;
    }
    assert_eq!(fused.movement().images_seen, seen);
    assert_eq!(fused.movement().images_uploaded, uploaded);
}
