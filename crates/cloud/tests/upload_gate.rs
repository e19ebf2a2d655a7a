//! The upload gate: `Cloud::incremental_update` checks an upload
//! against the model before it writes anything, and a rejected upload
//! leaves the Cloud as it was.
//!
//! Each bad upload is offered to a Cloud that holds an archive and to a
//! fresh one. The Cloud must return an error and stay equal to a twin
//! built from the same seed that never saw the upload: version, archive
//! length, store statistics, training ops and the master weights, bit
//! for bit. The next valid upload (the archived samples again, plus new
//! ones) must then give both the same `ModelUpdate`.

use insitu_cloud::{CacheStats, Cloud, IncrementalConfig, Pretrained};
use insitu_core::{CloudEndpoint, ModelUpdate};
use insitu_data::{Condition, Dataset, PermutationSet};
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::state_dict;
use insitu_nn::transfer::transfer_and_freeze;
use insitu_tensor::{Rng, Tensor};

const CLASSES: usize = 4;
const PERMS: usize = 4;

/// A deployed Cloud: conv1–3 transferred from the jigsaw trunk and
/// frozen, the activation store on.
fn make_cloud(seed: u64) -> Cloud {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(PERMS, &mut rng).unwrap();
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(PERMS, &mut rng).unwrap();
    let pre = Pretrained { jigsaw, set, task_accuracy: 0.0, ops: 0 };
    let cfg = IncrementalConfig { epochs: 2, batch_size: 4, lr: 0.01, threads: None, holdout: None };
    Cloud::new(inference, pre, cfg, seed ^ 0x5A)
}

fn upload(n: usize, rng: &mut Rng) -> Dataset {
    Dataset::generate(n, CLASSES, &Condition::in_situ(), rng).unwrap()
}

/// The ways an upload can be wrong.
const BAD_UPLOADS: [&str; 3] = ["other class space", "label past the output", "image shape"];

/// The `kind`-th bad upload (see [`BAD_UPLOADS`]).
fn bad_upload(kind: usize, rng: &mut Rng) -> Dataset {
    let (images, mut labels) = upload(4, rng).into_parts();
    match kind {
        // Every label fits the model; the declared class space does not.
        0 => Dataset::from_parts(images, labels, CLASSES + 2).unwrap(),
        1 => {
            labels[1] = CLASSES + 1;
            Dataset::from_parts(images, labels, CLASSES + 2).unwrap()
        }
        2 => {
            let small = Tensor::rand_uniform([4, 3, 32, 32], 0.0, 1.0, rng);
            Dataset::from_parts(small, labels, CLASSES).unwrap()
        }
        _ => unreachable!("{} bad uploads", BAD_UPLOADS.len()),
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Everything a rejected upload must leave as it was.
type CloudBits = (u32, usize, Option<CacheStats>, u64, Vec<Vec<u32>>);

fn cloud_bits(c: &mut Cloud) -> CloudBits {
    let weights = state_dict(c.inference_mut()).iter().map(bits).collect();
    (c.version(), c.archive_len(), c.cache_stats(), c.total_training_ops(), weights)
}

fn update_bits(u: &ModelUpdate) -> (u32, Vec<Vec<u32>>, u64, Option<u32>) {
    let params = u.inference_params.iter().map(bits).collect();
    (u.version, params, u.training_ops, u.eval_accuracy.map(f32::to_bits))
}

#[test]
fn a_rejected_upload_leaves_the_cloud_as_it_was() {
    for (kind, name) in BAD_UPLOADS.iter().enumerate() {
        for archived in [true, false] {
            let mut cloud = make_cloud(31);
            let mut twin = make_cloud(31);
            let mut rng = Rng::seed_from(32);
            let first = upload(5, &mut rng);
            if archived {
                cloud.incremental_update(&first).unwrap();
                twin.incremental_update(&first).unwrap();
            }
            let bad = bad_upload(kind, &mut rng);
            assert!(cloud.incremental_update(&bad).is_err(), "{name} (archived {archived}) accepted");
            assert_eq!(
                cloud_bits(&mut cloud),
                cloud_bits(&mut twin),
                "{name} (archived {archived}) changed the Cloud"
            );
            let next = first.concat(&upload(3, &mut rng)).unwrap();
            let ua = cloud.incremental_update(&next).unwrap();
            let ub = twin.incremental_update(&next).unwrap();
            assert_eq!(update_bits(&ua), update_bits(&ub), "{name} (archived {archived})");
            assert_eq!(cloud.archive_len(), 8);
        }
    }
}
