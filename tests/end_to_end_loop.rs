//! Cross-crate integration: the full In-situ AI loop — pre-train,
//! transfer, deploy, diagnose, upload, update — improves accuracy on a
//! drifted environment while uploading only part of the stream.

use insitu::cloud::{
    build_inference, pretrain, Cloud, DeployConfig, IncrementalConfig, PretrainConfig,
};
use insitu::core::{CloudEndpoint, DiagnosisPolicy, InsituNode};
use insitu::data::{Condition, Dataset};
use insitu::nn::transfer::conv_prefix_identical;
use insitu::tensor::Rng;

struct Deployment {
    node: InsituNode,
    cloud: Cloud,
    rng: Rng,
}

fn deploy(seed: u64, classes: usize) -> Deployment {
    let mut rng = Rng::seed_from(seed);
    let raw = Dataset::generate(240, classes, &Condition::ideal(), &mut rng).unwrap();
    let pre = pretrain(
        &raw,
        &PretrainConfig { permutations: 8, epochs: 6, batch_size: 16, lr: 0.015, threads: None },
        &mut rng,
    )
    .unwrap();
    let labeled = Dataset::generate(160, classes, &Condition::ideal(), &mut rng).unwrap();
    // A deliberately short deployment budget: the initial model must
    // have real headroom on the drifted environment.
    let (inference, _) = build_inference(
        &pre,
        &labeled,
        &DeployConfig { epochs: 5, ..Default::default() },
        &mut rng,
    )
    .unwrap();
    let node = InsituNode::new(
        inference.clone(),
        pre.jigsaw.clone(),
        pre.set.clone(),
        DiagnosisPolicy::Oracle,
        3,
        seed ^ 1,
    )
    .unwrap();
    let cloud = Cloud::new(
        inference,
        pre,
        IncrementalConfig { epochs: 4, batch_size: 16, lr: 0.002, threads: None, holdout: None },
        seed ^ 2,
    );
    Deployment { node, cloud, rng }
}

#[test]
fn incremental_updates_improve_drifted_accuracy() {
    let classes = 4;
    let mut d = deploy(11, classes);
    let drift = Condition::with_severity(0.75).unwrap();
    let eval = Dataset::generate(160, classes, &drift, &mut d.rng).unwrap();
    let before = d.node.accuracy_on(&eval, 32).unwrap();

    let mut fractions = Vec::new();
    for _ in 0..3 {
        let stream = Dataset::generate(200, classes, &drift, &mut d.rng).unwrap();
        let outcome = d.node.process_stage(&stream, 32).unwrap();
        fractions.push(outcome.upload_fraction());
        let payload = d.node.upload_payload(&stream, &outcome).unwrap();
        let update = d.cloud.incremental_update(&payload).unwrap();
        d.node.install_update(&update).unwrap();
    }
    let after = d.node.accuracy_on(&eval, 32).unwrap();
    assert!(
        after > before + 0.08,
        "accuracy should improve on the drifted environment: {before} -> {after}"
    );
    // Upload fraction never exceeds 1 and the final round uploads less
    // than the first (the model recognizes more of the stream).
    assert!(fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
    assert!(
        fractions.last().unwrap() < fractions.first().unwrap(),
        "upload fraction should fall: {fractions:?}"
    );
    assert_eq!(d.node.version(), 3);
}

#[test]
fn weight_shared_prefix_survives_updates() {
    let classes = 4;
    let mut d = deploy(13, classes);
    // The Cloud's master keeps conv1-3 frozen, so every update must
    // leave the node's shared prefix identical to the jigsaw trunk —
    // the invariant the WSS hardware's shared weight buffers rely on.
    let drift = Condition::with_severity(0.5).unwrap();
    for _ in 0..2 {
        let stream = Dataset::generate(80, classes, &drift, &mut d.rng).unwrap();
        let outcome = d.node.process_stage(&stream, 32).unwrap();
        let payload = d.node.upload_payload(&stream, &outcome).unwrap();
        let update = d.cloud.incremental_update(&payload).unwrap();
        d.node.install_update(&update).unwrap();
        assert!(conv_prefix_identical(
            d.node.jigsaw().trunk(),
            d.node.inference(),
            d.node.shared_convs()
        )
        .unwrap());
    }
}

#[test]
fn movement_meter_accumulates_across_stages() {
    let classes = 4;
    let mut d = deploy(17, classes);
    let drift = Condition::with_severity(0.5).unwrap();
    let (mut total_seen, mut updates, mut downloaded) = (0u64, 0u64, 0u64);
    let mut last = None;
    for n in [60usize, 90] {
        let stream = Dataset::generate(n, classes, &drift, &mut d.rng).unwrap();
        let outcome = d.node.process_stage(&stream, 32).unwrap();
        total_seen += n as u64;
        let payload = d.node.upload_payload(&stream, &outcome).unwrap();
        if payload.is_empty() {
            continue;
        }
        let update = d.cloud.incremental_update(&payload).unwrap();
        d.node.install_update(&update).unwrap();
        // The downlink: 4 B per f32 element of every installed tensor.
        let tensors = update.inference_params.iter().chain(update.jigsaw_params.iter().flatten());
        downloaded += tensors.map(|t| t.len() as u64 * 4).sum::<u64>();
        updates += 1;
        last = Some(update);
    }
    let meter = *d.node.movement();
    assert_eq!(meter.images_seen, total_seen);
    assert!(meter.images_uploaded <= meter.images_seen);
    assert_eq!(
        meter.bytes_uploaded,
        meter.images_uploaded * insitu::core::IMAGE_BYTES
    );
    assert!(updates > 0, "the drifted stream uploaded nothing");
    assert_eq!((meter.updates_installed, meter.bytes_downloaded), (updates, downloaded));

    // A rejected install records nothing.
    let mut truncated = last.unwrap();
    truncated.inference_params.pop();
    assert!(d.node.install_update(&truncated).is_err());
    assert_eq!(*d.node.movement(), meter);
}
