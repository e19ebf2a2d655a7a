//! The frozen-prefix activation store contract: a Cloud fine-tuning
//! from its archive's stored prefix activations must be **bitwise
//! identical** to one recomputing the frozen prefix every epoch — same
//! weights, same `ModelUpdate`s (version, params, ops, eval accuracy),
//! same seeded end-to-end session trajectory — across archive sizes,
//! epochs, holdout splits, duplicate re-uploads, 1/2/4 kernel threads
//! and changes of the frozen prefix between updates.
//!
//! Two Clouds are built from the same seed; one keeps the default
//! store, the other runs `without_activation_cache()`. Every update
//! they produce is compared with `ModelUpdate`'s `PartialEq` (tensor
//! contents compare exactly), or bit for bit where a signed zero is at
//! stake, and the final inference state dicts are compared bit for bit.

use insitu_cloud::{Cloud, IncrementalConfig, Pretrained};
use insitu_core::{CloudEndpoint, DiagnosisPolicy, InsituNode, ModelUpdate};
use insitu_data::{Condition, Dataset, PermutationSet};
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::{load_state_dict, state_dict};
use insitu_nn::Sequential;
use insitu_nn::transfer::transfer_and_freeze;
use insitu_tensor::{num_threads, set_num_threads, Rng, Tensor};
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

const CLASSES: usize = 4;
const PERMS: usize = 4;

/// Builds a deployed Cloud: jigsaw trunk transferred into the
/// inference net, conv1–3 frozen (the paper's deployment recipe).
fn make_cloud(seed: u64, cfg: IncrementalConfig) -> Cloud {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(PERMS, &mut rng).unwrap();
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(PERMS, &mut rng).unwrap();
    let pre = Pretrained { jigsaw, set, task_accuracy: 0.0, ops: 0 };
    Cloud::new(inference, pre, cfg, seed ^ 0x5A)
}

fn weights(c: &mut Cloud) -> Vec<Tensor> {
    state_dict(c.inference_mut())
}

/// Drives both Clouds through the same upload schedule and returns
/// (per-cycle update pairs, final weight pairs, cached-side hits and
/// misses).
#[allow(clippy::type_complexity)]
fn run_session(
    seed: u64,
    cycles: usize,
    upload: usize,
    cfg: &IncrementalConfig,
    duplicate_every: usize,
) -> (Vec<(ModelUpdate, ModelUpdate)>, (Vec<Tensor>, Vec<Tensor>), (u64, u64)) {
    let mut cached = make_cloud(seed, cfg.clone());
    let mut uncached = make_cloud(seed, cfg.clone()).without_activation_cache();
    let mut data_rng = Rng::seed_from(seed ^ 0x77);
    let mut previous: Option<Dataset> = None;
    let mut updates = Vec::new();
    for cycle in 0..cycles {
        // Every `duplicate_every`-th cycle re-uploads the previous
        // upload verbatim (dedup pressure: the archive must not grow,
        // and its stored rows must stay in step with it).
        let data = match (&previous, duplicate_every > 0 && cycle % duplicate_every.max(1) == 1) {
            (Some(prev), true) => prev.clone(),
            _ => Dataset::generate(upload, CLASSES, &Condition::in_situ(), &mut data_rng).unwrap(),
        };
        let ua = cached.incremental_update(&data).unwrap();
        let ub = uncached.incremental_update(&data).unwrap();
        previous = Some(data);
        updates.push((ua, ub));
    }
    let stats = cached.cache_stats().unwrap();
    assert_eq!(cached.archive_len(), uncached.archive_len());
    (updates, (weights(&mut cached), weights(&mut uncached)), (stats.hits, stats.misses))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: cached == uncached, bitwise, across
    /// archive growth, epochs, holdout splits, duplicate uploads and
    /// 1/2/4 kernel threads.
    #[test]
    fn cached_update_cycles_are_bitwise_identical(
        seed in 0u64..200,
        cycles in 1usize..4,
        upload in 2usize..7,
        epochs in 1usize..3,
        holdout_sel in 0usize..2,
        threads_sel in 0usize..3,
    ) {
        let holdout = [None, Some(2)][holdout_sel];
        let threads = [1usize, 2, 4][threads_sel];
        let cfg = IncrementalConfig {
            epochs,
            batch_size: 4,
            lr: 0.01,
            threads: None,
            holdout,
        };
        let (updates, (wa, wb), (hits, misses)) = with_threads(threads, || {
            run_session(seed, cycles, upload, &cfg, 2)
        });
        for (cycle, (ua, ub)) in updates.iter().enumerate() {
            prop_assert!(ua == ub, "cycle {} diverged", cycle);
            prop_assert_eq!(ua.eval_accuracy.is_some(), holdout.is_some());
        }
        prop_assert_eq!(&wa, &wb);
        // Later cycles reuse the archive's stored rows.
        if cycles > 1 {
            prop_assert!(hits > 0, "no hits: misses {}", misses);
        }
    }
}

/// A longer session than the property test covers, under constant
/// duplicate pressure and with a holdout split, stays bitwise identical.
#[test]
fn long_session_with_duplicates_and_holdout_stays_identical() {
    let cfg = IncrementalConfig {
        epochs: 2,
        batch_size: 4,
        lr: 0.01,
        threads: None,
        holdout: Some(1),
    };
    let (updates, (wa, wb), _) = run_session(9, 5, 3, &cfg, 2);
    for (cycle, (ua, ub)) in updates.iter().enumerate() {
        assert_eq!(ua, ub, "cycle {cycle} diverged");
    }
    assert_eq!(wa, wb, "final weights diverged");
}

fn next_ulp(v: f32) -> f32 {
    f32::from_bits(v.to_bits() + 1)
}

/// The ways a prefix change is made between two updates.
const PREFIX_CHANGES: [&str; 3] =
    ["conv1 weight one ulp up", "prefix bias +0.0 to -0.0", "cut at conv2"];

/// Changes the frozen prefix of `net` the `kind`-th way (see
/// [`PREFIX_CHANGES`]). Every one of them keeps the tensor shapes.
fn change_prefix(net: &mut Sequential, kind: usize) {
    let prefix = net.tensors_before(net.first_unfrozen());
    let mut dict = state_dict(net);
    match kind {
        0 => dict[0].as_mut_slice()[5] = next_ulp(dict[0].as_slice()[5]),
        1 => {
            // Conv biases deploy as +0.0 and stay there while frozen.
            let (i, j) = (0..prefix)
                .find_map(|i| {
                    let j = dict[i].as_slice().iter().position(|v| v.to_bits() == 0);
                    j.map(|j| (i, j))
                })
                .expect("the frozen prefix holds a +0.0");
            dict[i].as_mut_slice()[j] = -0.0;
        }
        2 => return net.freeze_first_convs(2).unwrap(),
        _ => unreachable!("{} prefix changes", PREFIX_CHANGES.len()),
    }
    load_state_dict(net, &dict).unwrap();
}

/// A `ModelUpdate` as bits: a signed zero or a NaN counts.
fn update_bits(u: &ModelUpdate) -> (u32, Vec<Vec<u32>>, u64, Option<u32>) {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
    let params = u.inference_params.iter().map(bits).collect();
    (u.version, params, u.training_ops, u.eval_accuracy.map(f32::to_bits))
}

/// The store is keyed on the prefix bits: after any change to the
/// frozen prefix between two updates — a weight one ulp off, a zero of
/// the other sign, a moved cut — the next update recomputes every
/// stored row and matches the recomputing twin bit for bit. An update
/// that leaves the prefix alone (every update moves only the suffix)
/// computes the fresh samples only.
#[test]
fn a_changed_prefix_recomputes_the_whole_store() {
    for (kind, change) in PREFIX_CHANGES.iter().enumerate() {
        for holdout in [None, Some(2)] {
            let cfg =
                IncrementalConfig { epochs: 2, batch_size: 4, lr: 0.01, threads: None, holdout };
            let mut cached = make_cloud(17, cfg.clone());
            let mut uncached = make_cloud(17, cfg).without_activation_cache();
            let mut data_rng = Rng::seed_from(18);
            let mut step = |cached: &mut Cloud, uncached: &mut Cloud, n: usize| {
                let data =
                    Dataset::generate(n, CLASSES, &Condition::in_situ(), &mut data_rng).unwrap();
                let before = cached.cache_stats().unwrap();
                let ua = cached.incremental_update(&data).unwrap();
                let ub = uncached.incremental_update(&data).unwrap();
                assert_eq!(update_bits(&ua), update_bits(&ub), "{change}: updates diverged");
                let after = cached.cache_stats().unwrap();
                (after.misses - before.misses, after.hits - before.hits)
            };
            assert_eq!(step(&mut cached, &mut uncached, 5), (5, 0), "{change}: first update");
            assert_eq!(step(&mut cached, &mut uncached, 3), (3, 5), "{change}: suffix-only");
            change_prefix(cached.inference_mut(), kind);
            change_prefix(uncached.inference_mut(), kind);
            assert_eq!(step(&mut cached, &mut uncached, 2), (10, 0), "{change}: prefix changed");
            assert_eq!(step(&mut cached, &mut uncached, 4), (4, 10), "{change}: rebuilt store");
        }
    }
}

/// The seeded end-to-end session: a node streaming stages against a
/// cached Cloud takes the exact trajectory of a node against an
/// uncached Cloud — predictions, upload selections, versions and
/// installed weights all match. (The sequential loop is used because
/// the threaded runtime's install timing is intentionally
/// opportunistic; bitwise-equal updates are what make even that racy
/// path distributionally identical.)
#[test]
fn seeded_session_trajectory_matches_uncached() {
    let make_node = |seed: u64| {
        let mut rng = Rng::seed_from(seed);
        let jigsaw = jigsaw_network(PERMS, &mut rng).unwrap();
        let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
        transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
        let set = PermutationSet::generate(PERMS, &mut rng).unwrap();
        InsituNode::new(
            inference,
            jigsaw,
            set,
            DiagnosisPolicy::InferenceConfidence { threshold: 0.8 },
            3,
            seed ^ 0xA5,
        )
        .unwrap()
    };
    let cfg = IncrementalConfig {
        epochs: 1,
        batch_size: 4,
        lr: 0.01,
        threads: None,
        holdout: Some(1),
    };
    let mut node_a = make_node(21);
    let mut node_b = make_node(21);
    let mut cloud_a = make_cloud(21, cfg.clone()); // cached (default)
    let mut cloud_b = make_cloud(21, cfg).without_activation_cache();
    let mut stream_rng = Rng::seed_from(4242);
    for stage in 0..4 {
        let data = Dataset::generate(6, CLASSES, &Condition::in_situ(), &mut stream_rng).unwrap();
        let oa = node_a.process_stage(&data, 3).unwrap();
        let ob = node_b.process_stage(&data, 3).unwrap();
        assert_eq!(oa.predictions, ob.predictions, "stage {stage}");
        assert_eq!(oa.valuable, ob.valuable, "stage {stage}");
        let pa = node_a.upload_payload(&data, &oa).unwrap();
        let pb = node_b.upload_payload(&data, &ob).unwrap();
        let ua = cloud_a.incremental_update(&pa).unwrap();
        let ub = cloud_b.incremental_update(&pb).unwrap();
        assert_eq!(ua, ub, "stage {stage}: updates diverged");
        node_a.install_update(&ua).unwrap();
        node_b.install_update(&ub).unwrap();
        assert_eq!(node_a.version(), node_b.version());
    }
    assert_eq!(
        state_dict(node_a.inference_mut()),
        state_dict(node_b.inference_mut()),
        "node weights diverged after the session"
    );
    let stats = cloud_a.cache_stats().unwrap();
    assert!(stats.hits > 0, "archive reuse produced no cache hits");
}

/// Identical re-uploads are deduplicated: the archive stops growing,
/// yet training results keep matching the uncached Cloud (which
/// deduplicates identically).
#[test]
fn duplicate_uploads_do_not_grow_archive() {
    let cfg = IncrementalConfig {
        epochs: 1,
        batch_size: 4,
        lr: 0.01,
        threads: None,
        holdout: None,
    };
    let mut cloud = make_cloud(33, cfg);
    let data = Dataset::generate(5, CLASSES, &Condition::in_situ(), &mut Rng::seed_from(1)).unwrap();
    cloud.incremental_update(&data).unwrap();
    assert_eq!(cloud.archive_len(), 5);
    // Same payload again, and once more with an internal duplicate.
    cloud.incremental_update(&data).unwrap();
    assert_eq!(cloud.archive_len(), 5);
    let doubled = data.concat(&data).unwrap();
    cloud.incremental_update(&doubled).unwrap();
    assert_eq!(cloud.archive_len(), 5);
}
