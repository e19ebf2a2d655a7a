//! Streaming deployment: producer, node and Cloud as live threads.
//!
//! Uses [`insitu::core::run_ingested_session`] to run the node against
//! a producer thread that synthesizes drifting sensor frames into a
//! bounded ingest queue (the node computes stage *N* while the
//! producer materializes *N+1*), while a concurrent Cloud thread
//! consumes the valuable uploads and pushes model updates back
//! mid-stream. The session runs the `Degrade` backpressure policy, the
//! node's one queue-pressure controller: if the node falls behind, it
//! halves its batch down to a floor and — being i8-calibrated — runs
//! inference at fixed point, undoing each step once the queue drains.
//! The node starts from the analytical plan and closes the loop on its
//! own measurements: every few stages it re-plans from its measured
//! per-image p90.
//!
//! Run with: `cargo run --release -p insitu --example streaming_node`
//!
//! Set `INSITU_TRACE=1` to trace the session: a hierarchical summary
//! is printed, the full Chrome trace is written to
//! `streaming_trace.json` (load it in chrome://tracing or
//! <https://ui.perfetto.dev>), and the session's telemetry is exported
//! to `streaming_metrics.prom` (Prometheus text) and
//! `streaming_metrics.json`.

use insitu::cloud::{
    build_inference, pretrain, Cloud, DeployConfig, IncrementalConfig, PretrainConfig,
};
use insitu::core::{
    plan, run_ingested_session, Availability, CostSource, DegradeConfig, DiagnosisPolicy,
    IngestPolicy, IngestSessionConfig, InsituNode, PlanRequest, QuantProfile, ReplanConfig,
    SessionConfig,
};
use insitu::data::{Condition, Dataset, DriftSchedule, SyntheticDriftSource};
use insitu::devices::NetworkShapes;
use insitu::tensor::Rng;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tracing = insitu::telemetry::init_from_env();
    let mut rng = Rng::seed_from(31);
    let classes = 6;

    println!("preparing deployment (pre-train + transfer) …");
    let raw = Dataset::generate(400, classes, &Condition::ideal(), &mut rng)?;
    let pre = pretrain(
        &raw,
        &PretrainConfig { permutations: 8, epochs: 8, batch_size: 16, lr: 0.015, threads: None },
        &mut rng,
    )?;
    let labeled = Dataset::generate(200, classes, &Condition::ideal(), &mut rng)?;
    let (inference, _) = build_inference(
        &pre,
        &labeled,
        &DeployConfig { epochs: 8, ..Default::default() },
        &mut rng,
    )?;
    let mut node = InsituNode::new(
        inference.clone(),
        pre.jigsaw.clone(),
        pre.set.clone(),
        DiagnosisPolicy::Oracle,
        3,
        77,
    )?;
    // Calibrate the fixed-point path up front so the shed's last step
    // can run inference at i8.
    let calib = Dataset::generate(32, classes, &Condition::ideal(), &mut rng)?;
    node.enable_quantized(&calib)?;
    node.set_precision(insitu::core::InferencePrecision::F32)?;
    // Close the loop: start from the analytical plan, then let the node
    // re-plan from its measured per-image p90 (1.5x divergence); the
    // quant profile lets a re-plan adopt i8.
    let shapes = NetworkShapes::alexnet();
    let request = PlanRequest { availability: Availability::AlwaysOn, t_user: 0.5, max_batch: 64 };
    let diagnosis = NetworkShapes::diagnosis_of(&shapes, 9);
    let analytical =
        plan(&request, &shapes, CostSource::Analytical { diagnosis: &diagnosis }, None)?;
    println!("analytical plan: {}", analytical.summary());
    node.install_plan(analytical);
    node.enable_replan(ReplanConfig {
        every_stages: 2,
        divergence: 1.5,
        request,
        inference_shapes: shapes,
        quant: Some(QuantProfile { speedup: 1.3, accuracy_delta: -0.01 }),
    });
    let cloud = Arc::new(Mutex::new(Cloud::new(
        inference,
        pre,
        IncrementalConfig { epochs: 3, batch_size: 16, lr: 0.002, threads: None, holdout: None },
        78,
    )));

    // Ten bursts of 40 images from a drifting camera, materialized by
    // the producer thread while the node computes the previous stage.
    println!("streaming 10 produced bursts of 40 drifting images through the node …");
    let source =
        SyntheticDriftSource::new(10, 40, classes, DriftSchedule { start: 0.5, step: 0.03 }, 41)?;
    let eval = Dataset::generate(200, classes, &Condition::with_severity(0.65)?, &mut rng)?;

    let config = IngestSessionConfig {
        session: SessionConfig::with_batch(16),
        queue_capacity: 4,
        policy: IngestPolicy::Degrade(DegradeConfig { high_watermark: 2, min_batch: 4 }),
    };
    let (mut node, stats, ingest) = run_ingested_session(node, cloud, Box::new(source), &config)?;
    println!(
        "session: {} batches, {}/{} images uploaded ({:.0}%), {} live updates installed",
        stats.batches,
        stats.images_uploaded,
        stats.images_seen,
        stats.images_uploaded as f64 / stats.images_seen as f64 * 100.0,
        stats.updates_installed
    );
    println!(
        "ingest: {} frames produced ({} dropped), queue depth peaked at {}, \
         {} fresh / {} recycled arena buffers, {:.1} ms producing in total",
        ingest.producer.frames,
        ingest.producer.dropped,
        ingest.producer.max_queue_depth,
        ingest.producer.fresh_buffers,
        ingest.producer.reused_buffers,
        ingest.producer.produce_ns_total as f64 / 1e6
    );
    println!(
        "backpressure: {} degrade step(s), {} restore(s), {} precision flip(s); \
         node ended at {}",
        ingest.degrades,
        ingest.restores,
        ingest.precision_flips,
        insitu::core::precision_label(node.precision())
    );
    if let Some(p) = node.plan() {
        println!("final plan after {} re-plan(s): {}", stats.replans, p.summary());
    }
    println!(
        "node ended at model v{} with {:.1}% accuracy on the drifted environment",
        node.version(),
        node.accuracy_on(&eval, 32)? * 100.0
    );
    if tracing {
        println!("{}", stats.telemetry.summary());
        // The ingest histograms the overlapped pipeline feeds: queue
        // depth (frames waiting when the node came back for more) and
        // producer latency per frame.
        for (name, unit, scale) in [
            ("node.ingest.queue_depth", "frames", 1.0),
            ("node.ingest.produce", "ms", 1e6),
            ("node.ingest.wait", "ms", 1e6),
        ] {
            if let Some(h) = stats.telemetry.hist(name, "") {
                println!(
                    "{name}: count {} p50 {:.2} p90 {:.2} p99 {:.2} ({unit})",
                    h.hist.count(),
                    h.p50 as f64 / scale,
                    h.p90 as f64 / scale,
                    h.p99 as f64 / scale,
                );
            }
        }
        std::fs::write("streaming_trace.json", stats.telemetry.chrome_trace_json())?;
        println!("Chrome trace written to streaming_trace.json (open in ui.perfetto.dev)");
        let prometheus = stats.telemetry.to_prometheus();
        let samples = insitu::telemetry::validate_prometheus(&prometheus)
            .map_err(|e| format!("invalid metrics export: {e}"))?;
        std::fs::write("streaming_metrics.prom", &prometheus)?;
        std::fs::write("streaming_metrics.json", stats.telemetry.to_json())?;
        println!(
            "metrics: {samples} Prometheus samples (epoch {}) written to \
             streaming_metrics.prom / .json",
            stats.telemetry.epoch
        );
    }
    Ok(())
}
