//! Closed-loop observability, end to end: a per-image latency
//! histogram must (a) distil into a [`MeasuredProfile`] the planner can
//! re-plan from, a live session's telemetry must (b) export as valid
//! Prometheus text and JSON through its [`TelemetrySnapshot`], and the
//! node must (c) actually close the loop — a session whose stage
//! latency is perturbed mid-flight re-plans itself within the
//! configured cadence, with tracing on or off, from its own
//! measurements only, and counts its re-plans per session.
//!
//! The telemetry registry is process-global, so every test here that
//! runs the node takes the `GATE` mutex; traced ones record inside a
//! fresh epoch.
//!
//! [`TelemetrySnapshot`]: insitu_telemetry::TelemetrySnapshot

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use insitu_core::{
    run_ingested_session, Availability, CloudEndpoint, DiagnosisPolicy, InferencePrecision,
    IngestSessionConfig, InsituNode, MeasuredProfile, ModelUpdate, NodePlan, PlanRequest, Platform,
    ReplanConfig, SessionConfig, SessionStats, WorkingMode,
};
use insitu_data::{Condition, Dataset, PermutationSet, ReplaySource};
use insitu_devices::NetworkShapes;
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::state_dict;
use insitu_nn::transfer::transfer_and_freeze;
use insitu_telemetry::{self as telemetry, validate_prometheus, Histogram};
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

/// `MeasuredProfile::from_hist` reads per-image latency percentiles
/// from a histogram of nanosecond samples, exact when every sample in
/// a bucket is identical (percentiles clamp to the observed max).
#[test]
fn measured_profile_distils_the_window() {
    let window = |ns| {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(ns);
        }
        h
    };
    let f32_profile = MeasuredProfile::from_hist(&window(8_000_000)).expect("samples"); // 8 ms
    assert_eq!(f32_profile.per_image_p50_s, 0.008);
    assert_eq!(f32_profile.per_image_p90_s, 0.008);
    assert_eq!(f32_profile.stages, 10);
    let i8_profile = MeasuredProfile::from_hist(&window(2_000_000)).expect("samples"); // 2 ms
    assert_eq!(i8_profile.per_image_p90_s, 0.002);
    assert!(MeasuredProfile::from_hist(&Histogram::new()).is_none());
}

/// A real traced session must come back with percentile rows in its
/// [`insitu_core::SessionStats::telemetry`], and both exports must be
/// machine-readable: the Prometheus text passes
/// [`validate_prometheus`], the JSON parses.
#[test]
fn session_exports_validate_and_carry_percentiles() {
    let _w = Window::open();
    let (_, stats) = replay(make_node(41), stream(4, 16, 42));

    assert!(stats.telemetry.epoch > 0, "session must run in a fresh telemetry epoch");
    let per_image = stats.telemetry.hist("node.stage_per_image", "f32").expect("per-image rows");
    assert_eq!(per_image.hist.count(), 4);
    assert!(stats.telemetry.hist("node.infer_chunk", "f32").is_some());
    assert!(stats.telemetry.hist("node.upload_bytes", "").is_some());

    let text = stats.telemetry.to_prometheus();
    let samples = validate_prometheus(&text).expect("Prometheus export must parse");
    assert!(samples > 20, "suspiciously few samples ({samples}):\n{text}");
    for quantile in ["0.5", "0.9", "0.99"] {
        let row = format!("insitu_h_node_stage_per_image{{label=\"f32\",quantile=\"{quantile}\"}}");
        assert!(text.contains(&row), "missing {row}:\n{text}");
    }
    assert!(text.contains("insitu_h_node_stage_per_image_max{label=\"f32\"}"), "{text}");
    // The `node.stage` span feeds a latency summary of its own.
    assert!(text.contains("\n# TYPE insitu_h_node_stage summary\n"), "{text}");

    let v = telemetry::json::parse(&stats.telemetry.to_json()).expect("JSON export must parse");
    let hists = v.get("hists").and_then(|h| h.as_array()).expect("hists array");
    assert_eq!(hists.len(), stats.telemetry.hists.len());
    let counters = v.get("counters").and_then(|c| c.as_array()).expect("counters array");
    assert_eq!(counters.len(), stats.telemetry.counters.len());
}

/// An f32 Co-running plan at `batch` images for `predicted_latency_s`.
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

/// The re-plan loop every 2 stages at divergence θ, under a 10 s
/// deadline and a 64-image batch cap.
fn replan_every_2(divergence: f64) -> ReplanConfig {
    ReplanConfig {
        every_stages: 2,
        divergence,
        request: PlanRequest { availability: Availability::AlwaysOn, t_user: 10.0, max_batch: 64 },
        inference_shapes: NetworkShapes::alexnet(),
        quant: None,
    }
}

/// A node with a deliberately optimistic plan — 8-image batches at a
/// predicted 0.1 ms/image — and the re-plan loop on: every 2 stages,
/// divergence θ = 1.5, a 10 s deadline.
fn optimistic_replanning_node(seed: u64) -> InsituNode {
    let mut node = make_node(seed);
    node.install_plan(fpga_plan(8, 0.0008));
    node.enable_replan(replan_every_2(1.5));
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
    assert!(stats.telemetry.hist("node.stage_per_image", "f32").is_some());

    let text = stats.telemetry.to_prometheus();
    validate_prometheus(&text).expect("Prometheus export must parse");
    assert!(text.contains("insitu_h_node_stage_per_image"), "{text}");
}

/// The loop needs no tracing: the same perturbed session with telemetry
/// off still re-plans to the measured batch, and records no telemetry.
#[test]
fn untraced_session_replans() {
    let _g = gate();
    telemetry::set_enabled(false);
    let mut node = optimistic_replanning_node(43);
    node.set_injected_stage_delay(Some(Duration::from_millis(40)));

    let (node, stats) = replay(node, stream(6, 8, 44));

    assert!(stats.replans >= 1, "the untraced session never re-planned");
    let plan = node.plan().expect("a plan stays installed after re-planning");
    assert_eq!(plan.inference_batch, 64, "re-plan must adopt the measured batch");
    assert!(stats.telemetry.is_empty() && stats.telemetry.hists.is_empty());
}

/// Two nodes in one traced process each price their plan from their
/// own latency. A fast node whose plan is priced at its own measured
/// per-image cost does not re-plan, however slow the node beside it:
/// a slow neighbour's samples are not its cost.
#[test]
fn replanning_reads_only_this_nodes_latency() {
    let _w = Window::open();
    let frame = |images, seed| stream(1, images, seed).remove(0);
    let (fast_frame, slow_frame) = (frame(16, 51), frame(1, 52));
    let mut fast = make_node(50);
    // A 10 ms floor per 16-image stage keeps a host hiccup from
    // reading as a 20x divergence of the fast node's own cost.
    fast.set_injected_stage_delay(Some(Duration::from_millis(10)));
    fast.prewarm(16).unwrap();
    for _ in 0..2 {
        fast.process_stage(&fast_frame, 16).unwrap();
    }
    let own = telemetry::snapshot().hist("node.stage_per_image", "f32").expect("samples").p90;
    telemetry::advance_epoch();
    fast.install_plan(fpga_plan(16, 16.0 * own as f64 / 1e9));
    fast.enable_replan(replan_every_2(20.0));
    let mut slow = make_node(53);
    slow.install_plan(fpga_plan(1, 0.2));
    slow.enable_replan(replan_every_2(20.0));
    slow.set_injected_stage_delay(Some(Duration::from_millis(200)));

    for _ in 0..4 {
        fast.process_stage(&fast_frame, 16).unwrap();
        slow.process_stage(&slow_frame, 1).unwrap();
    }

    let summary = |node: &InsituNode| node.plan().map(NodePlan::summary).unwrap_or_default();
    assert_eq!(fast.replans(), 0, "fast node re-planned to {}", summary(&fast));
    assert_eq!(slow.replans(), 0, "slow node re-planned to {}", summary(&slow));
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
