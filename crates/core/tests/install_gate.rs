//! The install gate: `InsituNode::install_update` validates the whole
//! update before it touches state, and a rejected update leaves the
//! node serving its last good model.
//!
//! A Cloud-style update carries only the inference dict after the
//! node's freeze cut, moved. Each corruption is applied to such an
//! update and offered to a node that runs f32 and to one that runs i8.
//! The node must reject it and stay bitwise equal to a twin built from
//! the same seed that never saw it: both state dicts, the version, the
//! movement meter, the i8 calibration records, and the next stage's
//! predictions and verdicts. A valid update must then install on both,
//! and leave them equal again. Besides the suffix corruptions, a whole
//! dict that still carries the frozen prefix and an update that carries
//! the node's own, unchanged jigsaw dict must be rejected too: the
//! prefix belongs to the deployment, not to any update.

use insitu_core::{DiagnosisPolicy, InsituNode, ModelUpdate, StageOutcome};
use insitu_data::{Condition, Dataset, PermutationSet};
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::{state_dict, trained_dict};
use insitu_nn::transfer::transfer_and_freeze;
use insitu_tensor::{Rng, Tensor};
use proptest::prelude::*;

const CLASSES: usize = 4;
const PERMS: usize = 8;
const SHARED_CONVS: usize = 3;
const BATCH: usize = 4;

/// A deployed node of `seed`, i8-calibrated when asked, prewarmed.
fn make_node(seed: u64, i8: bool) -> InsituNode {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(PERMS, &mut rng).unwrap();
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, SHARED_CONVS, SHARED_CONVS).unwrap();
    let set = PermutationSet::generate(PERMS, &mut rng).unwrap();
    let policy = DiagnosisPolicy::JigsawProbe { probes: 2 };
    let mut node = InsituNode::new(inference, jigsaw, set, policy, SHARED_CONVS, seed).unwrap();
    if i8 {
        let calib = Dataset::generate(4, CLASSES, &Condition::ideal(), &mut rng).unwrap();
        node.enable_quantized(&calib).unwrap();
    }
    node.prewarm(BATCH).unwrap();
    node
}

/// What the Cloud ships: the node's dict after the freeze cut, every
/// tensor moved.
fn valid_params(node: &mut InsituNode, seed: u64) -> Vec<Tensor> {
    let mut rng = Rng::seed_from(seed ^ 0xC10D);
    let mut suffix = trained_dict(node.inference_mut());
    for t in &mut suffix {
        for v in t.as_mut_slice() {
            *v += rng.uniform(-0.01, 0.01);
        }
    }
    suffix
}

fn update(version: u32, inference_params: Vec<Tensor>, jigsaw: Option<Vec<Tensor>>) -> ModelUpdate {
    ModelUpdate {
        version,
        inference_params,
        jigsaw_params: jigsaw,
        training_ops: 1,
        eval_accuracy: None,
    }
}

/// The ways an update can be wrong.
const CORRUPTIONS: [&str; 5] =
    ["truncated", "extra tensor", "wrong shape", "whole dict", "jigsaw dict"];

/// The valid update `node` would get, corrupted the `kind`-th way
/// (see [`CORRUPTIONS`]) at a position derived from `k`.
fn corrupted(node: &mut InsituNode, kind: usize, k: usize, seed: u64) -> ModelUpdate {
    let mut params = valid_params(node, seed);
    let len = params.len();
    let mut jigsaw = None;
    match kind {
        0 => params.truncate(k % len),
        1 => params.insert(k % (len + 1), Tensor::zeros([1 + k % 7])),
        2 => {
            let i = k % len;
            params[i] = Tensor::zeros([params[i].len() + 1]);
        }
        3 => {
            // The node's own frozen prefix in front of the moved suffix.
            let mut whole = state_dict(node.inference_mut());
            whole.truncate(whole.len() - len);
            whole.extend(params);
            params = whole;
        }
        4 => jigsaw = Some(state_dict(node.jigsaw_mut())),
        _ => unreachable!("{} corruptions", CORRUPTIONS.len()),
    }
    update(7, params, jigsaw)
}

type StageBits = (Vec<usize>, Vec<(bool, u32)>, Vec<usize>);

fn stage_bits(o: &StageOutcome) -> StageBits {
    let verdicts = o.verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect();
    (o.predictions.clone(), verdicts, o.valuable.clone())
}

fn dict_bits(dict: &[Tensor]) -> Vec<Vec<u32>> {
    dict.iter().map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect()).collect()
}

/// Everything the two nodes must agree on, bitwise, before their next
/// stage.
#[allow(clippy::type_complexity)]
fn node_bits(
    node: &mut InsituNode,
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, u32, String, Vec<(String, u32, u32)>) {
    let calibration = node.quantized().map_or_else(Vec::new, |q| {
        q.calibration()
            .iter()
            .map(|r| (r.name.clone(), r.in_scale.to_bits(), r.max_weight_scale.to_bits()))
            .collect()
    });
    (
        dict_bits(&state_dict(node.inference_mut())),
        dict_bits(&state_dict(node.jigsaw_mut())),
        node.version(),
        format!("{:?}", node.movement()),
        calibration,
    )
}

/// Asserts `node` and `twin` agree on their state and on a stage over
/// `data`, which both then process.
fn assert_twins(node: &mut InsituNode, twin: &mut InsituNode, data: &Dataset, what: &str) {
    assert!(node_bits(node) == node_bits(twin), "{what}: node state diverged from its twin");
    let (a, b) =
        (node.process_stage(data, BATCH).unwrap(), twin.process_stage(data, BATCH).unwrap());
    assert_eq!(stage_bits(&a), stage_bits(&b), "{what}: the next stage diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every corruption, at a random position `k`, on an f32 and an i8
    /// node: rejected, no trace left, and a valid update installs after.
    #[test]
    fn install_rejects_corrupted_updates(seed in 0u64..1000, k in 0usize..100_000) {
        let data = Dataset::generate(6, CLASSES, &Condition::in_situ(), &mut Rng::seed_from(seed))
            .unwrap();
        for i8 in [false, true] {
            for (kind, name) in CORRUPTIONS.iter().enumerate() {
                let what = format!("{name} at k={k} on the {} node", if i8 { "i8" } else { "f32" });
                let mut node = make_node(seed, i8);
                let mut twin = make_node(seed, i8);
                let bad = corrupted(&mut node, kind, k, seed);
                prop_assert!(node.install_update(&bad).is_err(), "{what}: installed");
                assert_twins(&mut node, &mut twin, &data, &what);
                let good = update(1, valid_params(&mut node, seed), None);
                node.install_update(&good).unwrap();
                twin.install_update(&good).unwrap();
                prop_assert_eq!(node.version(), 1);
                let installed = trained_dict(node.inference_mut());
                prop_assert!(
                    dict_bits(&installed) == dict_bits(&good.inference_params),
                    "{what}: the valid update did not install"
                );
                assert_twins(&mut node, &mut twin, &data, &format!("{what}, then a valid update"));
            }
        }
    }
}
