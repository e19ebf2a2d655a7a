//! Telemetry proof of the tile-embedding reuse: under `JigsawProbe`
//! the fused stage runs **exactly one** jigsaw trunk pass per image
//! (`jigsaw.trunk_passes == images`, counted per image although one
//! call covers a 16-image chunk; 40 images make two whole chunks and a
//! ragged one), while the unfused reference ([`diagnose`] on the same
//! networks) pays one per probe (`images × probes`). Runs alone in its own process: the telemetry
//! registry is process-global, so no other test may record into the
//! windows captured here.

use insitu_core::{diagnose, DiagnosisPolicy, InsituNode};
use insitu_data::{Condition, Dataset, PermutationSet};
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::transfer::transfer_and_freeze;
use insitu_nn::{JigsawNet, Sequential};
use insitu_telemetry as telemetry;
use insitu_tensor::Rng;

const IMAGES: usize = 40;
const PROBES: usize = 3;
const POLICY: DiagnosisPolicy = DiagnosisPolicy::JigsawProbe { probes: PROBES };

fn parts(seed: u64) -> (Sequential, JigsawNet, PermutationSet) {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(8, &mut rng).unwrap();
    let mut inference = mini_alexnet(4, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(8, &mut rng).unwrap();
    (inference, jigsaw, set)
}

fn make_node(seed: u64) -> InsituNode {
    let (inference, jigsaw, set) = parts(seed);
    InsituNode::new(inference, jigsaw, set, POLICY, 3, seed).unwrap()
}

/// Counter total of `jigsaw.trunk_passes` over one recording window.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, telemetry::TelemetrySnapshot, R) {
    telemetry::set_enabled(true);
    telemetry::reset();
    let out = f();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    let total = snap.counter("jigsaw.trunk_passes", "").map_or(0, |c| c.total);
    (total, snap, out)
}

#[test]
fn trunk_passes_count_images_not_images_times_probes() {
    let mut node = make_node(21);
    let data =
        Dataset::generate(IMAGES, 4, &Condition::in_situ(), &mut Rng::seed_from(5)).unwrap();
    // Prewarm outside the recording windows: its warm-up passes are
    // not stage work.
    node.prewarm(4).unwrap();

    let (fused_passes, snap, _) = counted(|| node.process_stage(&data, 4).unwrap());
    assert_eq!(
        fused_passes, IMAGES as u64,
        "fused stage must run exactly one trunk pass per image"
    );
    // The reuse layer announces itself in the trace.
    assert!(
        snap.spans.iter().any(|s| s.name == "node.reuse"),
        "fused diagnosis must open a node.reuse span"
    );

    let (mut inference, mut jigsaw, set) = parts(21);
    let mut rng = Rng::seed_from(21);
    let (unfused_passes, _, _) = counted(|| {
        diagnose(POLICY, &mut inference, &mut jigsaw, &set, &data, 4, &mut rng).unwrap()
    });
    assert_eq!(
        unfused_passes,
        (IMAGES * PROBES) as u64,
        "reference stage pays one trunk pass per probe"
    );
}
