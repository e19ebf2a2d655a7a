//! The overlapped-ingestion contract, end to end.
//!
//! The load-bearing property: a session under the lossless `Block`
//! policy with lockstep uploads is a **bitwise drop-in** for a
//! hand-driven sequential loop written in this file — no threads, no
//! channels, just `prewarm` and then `process_stage` →
//! `upload_payload` → `incremental_update` → `install_update` per
//! frame — with identical counts and identical final model state,
//! across seeds, queue capacities and kernel thread counts. The oracle
//! shares no code with the session runner. The backpressure tests then
//! pin each policy's observable behavior under a deliberately slow
//! consumer: `Block` stalls the producer and loses nothing,
//! `DropOldest` sheds the oldest frames and counts them, `Degrade`
//! shrinks the node's batch (and, at the floor, runs inference at i8
//! on a calibrated node). Finally, the `Degrade` shed and the latency
//! re-plan loop run on one node together: neither undoes the other,
//! and every precision change is counted once.

use std::sync::{Arc, Mutex as StdMutex, MutexGuard, OnceLock};
use std::time::Duration;

use insitu_core::{
    run_ingested_session, Availability, CloudEndpoint, DegradeConfig, DiagnosisPolicy,
    InferencePrecision, IngestPolicy, IngestSessionConfig, InsituNode, ModelUpdate, NodePlan,
    PlanRequest, Platform, QuantProfile, ReplanConfig, SessionConfig, WorkingMode,
};
use insitu_data::{
    Condition, Dataset, DriftSchedule, PermutationSet, ReplaySource, StreamSource,
    SyntheticDriftSource,
};
use insitu_devices::NetworkShapes;
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::{state_dict, trained_dict};
use insitu_nn::transfer::transfer_and_freeze;
use insitu_telemetry as telemetry;
use insitu_tensor::{num_threads, set_num_threads, Rng};
use parking_lot::Mutex;
use proptest::prelude::*;

/// Serializes access to the global kernel thread count.
static THREADS_LOCK: StdMutex<()> = StdMutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

/// Serializes every test that runs a session: while tracing is on, a
/// session opens a fresh telemetry epoch, so one running beside an open
/// [`Window`] would wipe that window's registry (and run traced).
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<StdMutex<()>> = OnceLock::new();
    GATE.get_or_init(|| StdMutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// A recording window: enable + fresh epoch on entry, disabled and
/// reset on drop, so no state leaks into the next test.
struct Window(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Window {
    fn open() -> Self {
        let guard = gate();
        telemetry::set_enabled(true);
        telemetry::advance_epoch();
        Window(guard)
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        telemetry::set_enabled(false);
        telemetry::reset();
    }
}

const CLASSES: usize = 4;

fn make_node(seed: u64) -> InsituNode {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(8, &mut rng).unwrap();
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(8, &mut rng).unwrap();
    InsituNode::new(inference, jigsaw, set, DiagnosisPolicy::Oracle, 3, seed).unwrap()
}

/// A trivially fast Cloud double: echoes back the same weights. Fully
/// deterministic, so two sessions fed identical uploads in identical
/// order install identical updates.
#[derive(Debug)]
struct EchoCloud {
    params: Vec<insitu_tensor::Tensor>,
    version: u32,
}

impl EchoCloud {
    fn for_seed(seed: u64) -> Arc<Mutex<EchoCloud>> {
        let mut node = make_node(seed);
        // An update carries the dict after the freeze cut.
        let params = trained_dict(node.inference_mut());
        Arc::new(Mutex::new(EchoCloud { params, version: 0 }))
    }
}

impl CloudEndpoint for EchoCloud {
    fn incremental_update(&mut self, _uploaded: &Dataset) -> insitu_core::Result<ModelUpdate> {
        self.version += 1;
        Ok(ModelUpdate {
            version: self.version,
            inference_params: self.params.clone(),
            jigsaw_params: None,
            training_ops: 0,
            eval_accuracy: None,
        })
    }
}

fn drift_source(frames: usize, images: usize, seed: u64) -> SyntheticDriftSource {
    SyntheticDriftSource::new(
        frames,
        images,
        CLASSES,
        DriftSchedule { start: 0.1, step: 0.15 },
        seed,
    )
    .unwrap()
}

fn stream(stages: usize, images: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = Rng::seed_from(seed);
    (0..stages)
        .map(|_| Dataset::generate(images, CLASSES, &Condition::in_situ(), &mut rng).unwrap())
        .collect()
}

/// A materialized stream as a session source.
fn replay(stream: Vec<Dataset>) -> Box<dyn StreamSource> {
    Box::new(ReplaySource::new(Arc::new(stream)))
}

/// (batches, images seen, images uploaded, updates installed, final
/// version, final inference state dict).
type Fingerprint = (u64, u64, u64, u64, u32, Vec<insitu_tensor::Tensor>);

/// The differential oracle: the sequential loop driven by hand. No
/// threads and no channels — every update is trained and installed
/// right after its upload, which is what lockstep uploads promise.
fn hand_driven(seed: u64, frames: &[Dataset], batch: usize) -> Fingerprint {
    let mut node = make_node(seed);
    let cloud = EchoCloud::for_seed(seed);
    let mut cloud = cloud.lock();
    node.prewarm(batch).unwrap();
    let (mut images_seen, mut uploaded, mut installed) = (0u64, 0u64, 0u64);
    for frame in frames {
        let outcome = node.process_stage(frame, batch).unwrap();
        images_seen += frame.len() as u64;
        if !outcome.valuable.is_empty() {
            let payload = node.upload_payload(frame, &outcome).unwrap();
            uploaded += payload.len() as u64;
            let update = cloud.incremental_update(&payload).unwrap();
            node.install_update(&update).unwrap();
            installed += 1;
        }
    }
    let version = node.version();
    (
        frames.len() as u64,
        images_seen,
        uploaded,
        installed,
        version,
        state_dict(node.inference_mut()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// An overlapped `Block` session with lockstep uploads must be
    /// bitwise identical to the hand-driven loop over the materialized
    /// stream — same counts, same final model version and weights —
    /// whether it reads the live synthesizing source or replays the
    /// materialized frames, across seeds, queue capacities and 1/2/4
    /// kernel threads.
    #[test]
    fn block_overlapped_session_is_bitwise_identical_to_sequential(
        seed in 0u64..200,
        capacity in 1usize..5,
    ) {
        let frames = 4usize;
        let images = 8usize;
        let batch = 4usize;
        let _quiet = gate();
        let session = SessionConfig {
            batch_size: batch,
            uplink_capacity: 4,
            lockstep_uploads: true,
        };
        let overlapped = |source: Box<dyn StreamSource>| -> Fingerprint {
            let (mut node, stats, summary) = run_ingested_session(
                make_node(seed),
                EchoCloud::for_seed(seed),
                source,
                &IngestSessionConfig {
                    session: session.clone(),
                    queue_capacity: capacity,
                    policy: IngestPolicy::Block,
                },
            )
            .unwrap();
            // Block is lossless: every frame reaches the node and
            // arena recycling bounds fresh allocations by the queue
            // capacity, never the stream length.
            assert_eq!(summary.producer.frames, frames as u64);
            assert_eq!(summary.producer.dropped, 0);
            assert!(
                summary.producer.fresh_buffers <= capacity as u64 + 2,
                "fresh {} > cap {} + 2",
                summary.producer.fresh_buffers,
                capacity
            );
            let version = node.version();
            (
                stats.batches,
                stats.images_seen,
                stats.images_uploaded,
                stats.updates_installed,
                version,
                state_dict(node.inference_mut()),
            )
        };
        for threads in [1usize, 2, 4] {
            let (sequential, synthesized, replayed) = with_threads(threads, || {
                let source = drift_source(frames, images, seed.wrapping_add(17));
                let materialized = source.materialize().unwrap();
                (
                    hand_driven(seed, &materialized, batch),
                    overlapped(Box::new(source)),
                    overlapped(replay(materialized)),
                )
            });
            prop_assert_eq!(&sequential, &synthesized);
            prop_assert_eq!(&sequential, &replayed);
        }
    }
}

#[test]
fn block_policy_stalls_a_slow_consumer_without_loss() {
    let _quiet = gate();
    let mut node = make_node(21);
    // A consumer ~25x slower than the producer: the queue saturates.
    node.set_injected_stage_delay(Some(Duration::from_millis(25)));
    let cloud = EchoCloud::for_seed(21);
    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(8),
        queue_capacity: 2,
        policy: IngestPolicy::Block,
    };
    let (_, stats, summary) =
        run_ingested_session(node, cloud, replay(stream(8, 8, 22)), &config).unwrap();
    assert_eq!(stats.batches, 8, "Block must deliver every frame");
    assert_eq!(summary.producer.frames, 8);
    assert_eq!(summary.producer.dropped, 0, "Block never drops");
    assert!(
        summary.producer.max_queue_depth <= 2,
        "queue bound violated: depth {}",
        summary.producer.max_queue_depth
    );
    assert!(
        summary.producer.fresh_buffers <= 4,
        "arena must recycle: {} fresh",
        summary.producer.fresh_buffers
    );
}

#[test]
fn drop_oldest_sheds_frames_under_a_slow_consumer() {
    let _quiet = gate();
    let mut node = make_node(23);
    node.set_injected_stage_delay(Some(Duration::from_millis(30)));
    let cloud = EchoCloud::for_seed(23);
    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(8),
        queue_capacity: 1,
        policy: IngestPolicy::DropOldest,
    };
    let frames = 10u64;
    let (_, stats, summary) =
        run_ingested_session(node, cloud, replay(stream(frames as usize, 8, 24)), &config)
            .unwrap();
    assert_eq!(summary.producer.frames, frames);
    assert!(summary.producer.dropped > 0, "a 30 ms/frame consumer behind a cap-1 queue must drop");
    assert_eq!(
        stats.batches + summary.producer.dropped,
        frames,
        "every frame is either processed or counted dropped"
    );
}

#[test]
fn degrade_policy_halves_the_batch_under_pressure() {
    let _quiet = gate();
    let mut node = make_node(25);
    node.set_injected_stage_delay(Some(Duration::from_millis(25)));
    let cloud = EchoCloud::for_seed(25);
    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(8),
        queue_capacity: 3,
        policy: IngestPolicy::Degrade(DegradeConfig { high_watermark: 1, min_batch: 1 }),
    };
    let (_, stats, summary) =
        run_ingested_session(node, cloud, replay(stream(8, 8, 26)), &config).unwrap();
    assert_eq!(stats.batches, 8, "Degrade keeps every frame");
    assert_eq!(summary.producer.dropped, 0, "Degrade sheds load on the consumer, not the stream");
    assert!(summary.degrades >= 1, "a backed-up queue must shrink the batch");
}

/// The shed's i8 step, with tracing off: the depth-driven flip needs
/// no telemetry, and each step counts once each way.
#[test]
fn degrade_policy_flips_precision_at_the_batch_floor() {
    let _quiet = gate();
    let mut node = calibrated_f32_node(27);
    node.set_injected_stage_delay(Some(Duration::from_millis(25)));
    let cloud = EchoCloud::for_seed(27);
    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(8),
        queue_capacity: 3,
        // The floor equals the deployed batch: halving is already
        // exhausted, so the first degrade step is the flip.
        policy: IngestPolicy::Degrade(DegradeConfig { high_watermark: 1, min_batch: 8 }),
    };
    let (node, stats, summary) =
        run_ingested_session(node, cloud, replay(stream(8, 8, 29)), &config).unwrap();
    assert_eq!(stats.batches, 8);
    assert!(
        summary.precision_flips >= 1,
        "queue pressure at the batch floor must flip f32 -> i8"
    );
    assert_eq!(summary.degrades, summary.restores, "every step counts once each way");
    assert_eq!(node.precision(), InferencePrecision::F32, "the shed ends with the session");
}

/// A node deployed at f32 with a calibrated i8 network, so the shed's
/// i8 step is available.
fn calibrated_f32_node(seed: u64) -> InsituNode {
    let mut node = make_node(seed);
    let calib =
        Dataset::generate(16, CLASSES, &Condition::ideal(), &mut Rng::seed_from(seed + 1)).unwrap();
    node.enable_quantized(&calib).unwrap();
    node.set_precision(InferencePrecision::F32).unwrap();
    node
}

/// An f32 co-running FPGA plan at `batch` images per batch.
fn fpga_plan(batch: usize, predicted_latency_s: f64) -> NodePlan {
    NodePlan {
        mode: WorkingMode::CoRunning,
        platform: Platform::Fpga,
        inference_batch: batch,
        diagnosis_batch: batch,
        predicted_latency_s,
        predicted_throughput: batch as f64 / predicted_latency_s,
        predicted_perf_per_watt: 0.0,
        wss_group_size: 0,
        precision: InferencePrecision::F32,
        accuracy_delta: 0.0,
    }
}

/// The two controllers on one node: the `Degrade` shed at the batch
/// floor and a latency re-plan against an optimistic plan (0.1 ms per
/// image predicted, 25 ms per stage injected). A re-plan during the
/// shed must not lift it, lifting the shed must not undo a re-plan's
/// precision, and each change of running precision counts once.
#[test]
fn shed_and_replan_share_one_owner_of_precision() {
    let _w = Window::open();
    let session = |quant: Option<QuantProfile>| {
        let mut node = calibrated_f32_node(31);
        node.install_plan(fpga_plan(8, 0.0008));
        node.enable_replan(ReplanConfig {
            every_stages: 2,
            divergence: 1.5,
            request: PlanRequest {
                availability: Availability::AlwaysOn,
                t_user: 10.0,
                max_batch: 8,
            },
            inference_shapes: NetworkShapes::alexnet(),
            quant,
        });
        node.set_injected_stage_delay(Some(Duration::from_millis(25)));
        let config = IngestSessionConfig {
            session: SessionConfig::with_batch(8),
            queue_capacity: 3,
            policy: IngestPolicy::Degrade(DegradeConfig { high_watermark: 1, min_batch: 8 }),
        };
        run_ingested_session(node, EchoCloud::for_seed(31), replay(stream(8, 8, 33)), &config)
            .unwrap()
    };

    // An i8 re-plan outlives the shed lifting after it.
    let (node, _, _) = session(Some(QuantProfile { speedup: 1.5, accuracy_delta: -0.01 }));
    let plan = node.plan().expect("a plan stays installed");
    assert_eq!(node.precision(), plan.precision, "node and plan must agree after the session");

    // F32 plans only: the node starts and ends at f32, so its flips
    // pair up, and the shed's i8 step survives the re-plans.
    let (_, stats, summary) = session(None);
    assert!(summary.producer.max_queue_depth >= 1, "the slow consumer must back the queue up");
    assert!(summary.precision_flips >= 2, "queue pressure at the floor must flip to i8");
    assert_eq!(summary.precision_flips % 2, 0, "{} flips", summary.precision_flips);
    let stages_at =
        |label| stats.telemetry.hist("node.stage_per_image", label).map_or(0, |h| h.hist.count());
    assert!(
        stages_at("i8") > stages_at("f32"),
        "a re-plan undid the shed: {} i8 vs {} f32 stages",
        stages_at("i8"),
        stages_at("f32")
    );
    assert!(
        stats.telemetry.spans.iter().any(|s| s.name == "node.precision_flip"),
        "the flip must emit its telemetry instant"
    );
}

/// Prewarm runs at the batch the first stage runs at: the active
/// plan's, not the caller's fallback.
#[test]
fn prewarm_uses_the_planned_batch() {
    let _w = Window::open();
    let mut node = make_node(35);
    node.install_plan(fpga_plan(16, 0.0016));
    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(4),
        queue_capacity: 2,
        policy: IngestPolicy::Block,
    };
    let (_, stats, _) =
        run_ingested_session(node, EchoCloud::for_seed(35), replay(stream(2, 16, 36)), &config)
            .unwrap();
    let labels = |name| {
        let spans = stats.telemetry.spans.iter().filter(move |s| s.name == name);
        spans.map(|s| s.label.as_str()).collect::<Vec<_>>()
    };
    assert_eq!(labels("node.prewarm"), ["bs16"]);
    let stages = labels("node.stage");
    assert!(!stages.is_empty() && stages.iter().all(|l| l.ends_with("@bs16")), "{stages:?}");
}
