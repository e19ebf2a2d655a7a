//! Closed-loop observability, end to end: the latency histograms the
//! node records during a live session must (a) distil into a
//! [`MeasuredProfile`] the planner can re-plan from, (b) export as
//! valid Prometheus text and JSON through the session's
//! [`MetricsHub`], and (c) actually close the loop — a session whose
//! stage latency is perturbed mid-flight re-plans itself within the
//! configured cadence, and counts its re-plans per session.
//!
//! The telemetry registry is process-global, so every test here takes
//! the `GATE` mutex and runs its recording inside a fresh epoch.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use insitu_core::{
    run_ingested_session, validate_prometheus, Availability, CloudEndpoint, DiagnosisPolicy,
    InferencePrecision, IngestSessionConfig, InsituNode, MeasuredProfile, ModelUpdate, NodePlan,
    PlanRequest, Platform, ReplanConfig, SessionConfig, SessionStats, WorkingMode,
};
use insitu_data::{Condition, Dataset, PermutationSet, ReplaySource};
use insitu_devices::NetworkShapes;
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::state_dict;
use insitu_nn::transfer::transfer_and_freeze;
use insitu_telemetry as telemetry;
use insitu_tensor::Rng;

/// Serializes tests that enable the process-global telemetry registry.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
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

fn make_node(seed: u64) -> InsituNode {
    let mut rng = Rng::seed_from(seed);
    let jigsaw = jigsaw_network(8, &mut rng).unwrap();
    let mut inference = mini_alexnet(4, &mut rng).unwrap();
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).unwrap();
    let set = PermutationSet::generate(8, &mut rng).unwrap();
    InsituNode::new(inference, jigsaw, set, DiagnosisPolicy::Oracle, 3, seed).unwrap()
}

/// A trivially fast Cloud double: echoes back the same weights.
#[derive(Debug)]
struct EchoCloud {
    params: Vec<insitu_tensor::Tensor>,
    version: u32,
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

fn stream(stages: usize, images: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = Rng::seed_from(seed);
    (0..stages)
        .map(|_| Dataset::generate(images, 4, &Condition::in_situ(), &mut rng).unwrap())
        .collect()
}

/// Replays `stream` through `node` at batch 8 against an echoing
/// Cloud.
fn replay(mut node: InsituNode, stream: Vec<Dataset>) -> (InsituNode, SessionStats) {
    let params = state_dict(node.inference_mut());
    let cloud = Arc::new(parking_lot::Mutex::new(EchoCloud { params, version: 0 }));
    let config =
        IngestSessionConfig { session: SessionConfig::with_batch(8), ..Default::default() };
    let source = Box::new(ReplaySource::new(Arc::new(stream)));
    let (node, stats, _) = run_ingested_session(node, cloud, source, &config).unwrap();
    (node, stats)
}

/// `MeasuredProfile::from_snapshot` reads the per-image latency
/// histograms (by precision label) and the achieved uplink rate, with
/// exact values when every sample in a bucket is identical
/// (percentiles clamp to the observed max).
#[test]
fn measured_profile_distils_the_window() {
    let _w = Window::open();
    for _ in 0..10 {
        telemetry::hist_record("node.stage_per_image", "f32", 8_000_000); // 8 ms
        telemetry::hist_record("node.stage_per_image", "i8", 2_000_000); // 2 ms
    }
    telemetry::hist_record("node.upload_bytes", "", 3 * 15_552);
    telemetry::hist_record("node.stage", "", 1_000_000_000); // 1 s of stage time
    let snap = telemetry::snapshot();

    let f32_profile =
        MeasuredProfile::from_snapshot(&snap, InferencePrecision::F32).expect("f32 samples");
    assert_eq!(f32_profile.per_image_p50_s, 0.008);
    assert_eq!(f32_profile.per_image_p90_s, 0.008);
    assert_eq!(f32_profile.stages, 10);
    assert_eq!(f32_profile.uplink_bytes_per_s, (3 * 15_552) as f64);

    let i8_profile =
        MeasuredProfile::from_snapshot(&snap, InferencePrecision::I8).expect("i8 samples");
    assert_eq!(i8_profile.per_image_p90_s, 0.002);
}

/// A real session must come back with percentile rows in
/// its [`insitu_core::SessionStats::metrics`] hub, and both exports
/// must be machine-readable: the Prometheus text passes
/// [`validate_prometheus`], the JSON parses.
#[test]
fn session_exports_validate_and_carry_percentiles() {
    let _w = Window::open();
    let (_, stats) = replay(make_node(41), stream(4, 16, 42));

    assert!(stats.telemetry.epoch > 0, "session must run in a fresh telemetry epoch");
    assert_eq!(stats.metrics.epoch(), stats.telemetry.epoch);
    for field in ["count", "p50", "p90", "p99", "p100"] {
        assert!(
            stats.metrics.get("node.stage_per_image", "f32", field).is_some(),
            "missing node.stage_per_image {field} row"
        );
    }
    assert!(stats.metrics.get("node.infer_chunk", "f32", "p99").is_some());
    assert!(stats.metrics.get("node.upload_bytes", "", "sum").is_some());

    let text = stats.metrics.to_prometheus();
    let samples = validate_prometheus(&text).expect("Prometheus export must parse");
    assert!(samples > 20, "suspiciously few samples ({samples}):\n{text}");
    assert!(text.contains("insitu_h_node_stage_per_image"), "{text}");
    assert!(text.contains("quantile=\"0.99\""), "{text}");

    let v = telemetry::json::parse(&stats.metrics.to_json()).expect("JSON export must parse");
    let series = v.get("series").and_then(|s| s.as_array()).expect("series array");
    assert_eq!(series.len(), stats.metrics.len());
}

/// A node with a deliberately optimistic plan — 8-image batches at a
/// predicted 0.1 ms/image — and the re-plan loop on: every 2 stages,
/// divergence θ = 1.5, a 10 s deadline.
fn optimistic_replanning_node(seed: u64) -> InsituNode {
    let mut node = make_node(seed);
    node.install_plan(NodePlan {
        mode: WorkingMode::CoRunning,
        platform: Platform::Fpga,
        inference_batch: 8,
        diagnosis_batch: 8,
        predicted_latency_s: 0.0008,
        predicted_throughput: 10_000.0,
        predicted_perf_per_watt: 0.0,
        wss_group_size: 0,
        precision: InferencePrecision::F32,
        accuracy_delta: 0.0,
    });
    node.enable_replan(ReplanConfig {
        every_stages: 2,
        divergence: 1.5,
        request: PlanRequest { availability: Availability::AlwaysOn, t_user: 10.0, max_batch: 64 },
        inference_shapes: NetworkShapes::alexnet(),
        quant: None,
    });
    node
}

/// The acceptance loop: a seeded session whose stage latency is
/// perturbed (injected 40 ms delay per stage against a plan that
/// predicted 0.1 ms/image) must re-plan within the configured cadence,
/// change its batch, emit the `node.replan` instant, and still export
/// valid metrics.
#[test]
fn perturbed_session_replans_online() {
    let _w = Window::open();
    // The injected 40 ms/stage delay pushes the measured p90 per image
    // to >= 5 ms, a ratio far outside theta = 1.5.
    let mut node = optimistic_replanning_node(43);
    node.set_injected_stage_delay(Some(Duration::from_millis(40)));

    let (node, stats) = replay(node, stream(6, 8, 44));

    assert!(stats.replans >= 1, "the perturbed session never re-planned");
    assert_eq!(stats.replans, node.replans());
    assert_eq!(node.stages_processed(), 6);
    // The measured p90 (~5 ms/image) against a 10 s deadline admits
    // far more than max_batch: the new plan clamps to it.
    let plan = node.plan().expect("a plan stays installed after re-planning");
    assert_eq!(plan.inference_batch, 64, "re-plan must adopt the measured batch");
    assert!(plan.predicted_latency_s > 0.0008, "prediction must track the measurement");

    assert!(
        stats.telemetry.spans.iter().any(|s| s.name == "node.replan"),
        "re-planning must emit the node.replan instant"
    );
    assert!(stats.metrics.get("node.stage_per_image", "f32", "p90").is_some());

    let text = stats.metrics.to_prometheus();
    validate_prometheus(&text).expect("Prometheus export must parse");
    assert!(text.contains("insitu_h_node_stage_per_image"), "{text}");
}

/// `SessionStats::replans` counts the re-plans of *this* session, not
/// the node's lifetime total: a second session on the same
/// re-planning node reports only the re-plans it caused.
#[test]
fn replans_are_counted_per_session() {
    let _w = Window::open();
    let mut node = optimistic_replanning_node(45);
    node.set_injected_stage_delay(Some(Duration::from_millis(40)));
    let (mut node, first) = replay(node, stream(4, 8, 46));
    assert!(first.replans >= 1, "the first session never re-planned");
    assert_eq!(first.replans, node.replans());
    // Five times the delay: the measured p90 leaves the re-planned
    // prediction behind again, so the second session re-plans too.
    node.set_injected_stage_delay(Some(Duration::from_millis(200)));
    let (node, second) = replay(node, stream(4, 8, 47));
    assert!(second.replans >= 1, "the second session never re-planned");
    assert_eq!(second.replans, node.replans() - first.replans);
}
