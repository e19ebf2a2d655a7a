//! A threaded deployment runtime: a stream producer, the node and the
//! Cloud as concurrent actors exchanging messages over channels.
//!
//! The batch-oriented APIs ([`InsituNode::process_stage`],
//! [`CloudEndpoint::incremental_update`]) are what the experiments
//! drive; this module wires them into a live system the way a real
//! deployment would run — the node consuming a sensor stream on its
//! own thread, shipping valuable data upstream, and hot-swapping model
//! updates as they arrive. [`run_ingested_session`] is the one entry
//! point: a [`StreamSource`] producer thread fills a bounded
//! [`insitu_data::IngestQueue`] so the node computes stage *N* while
//! the producer materializes stage *N+1* (stage wall-clock ≈
//! max(compute, ingest) instead of their sum). A pre-materialized
//! `Vec<Dataset>` streams through [`ReplaySource`](insitu_data::ReplaySource).
//!
//! Because updates install *opportunistically* (the node drains the
//! downlink with `try_recv` between batches), which batch first sees
//! update `k` depends on the wall-clock race between Cloud training
//! and node inference. A session's trajectory is therefore stable
//! across reruns of one build but **not** byte-stable across hosts,
//! thread counts or kernel selections — unlike the tensor layer, whose
//! results are bitwise identical under all of those knobs. For
//! differential testing, [`SessionConfig::lockstep_uploads`] removes
//! the race: the node blocks for each update right after uploading,
//! which makes a whole session trajectory deterministic — under the
//! lossless `Block` policy the session then produces a [`SessionStats`]
//! and final model bitwise identical to a hand-driven sequential loop
//! over the same frames (`prewarm`, then per frame `process_stage` →
//! `upload_payload` → `incremental_update` → `install_update`).

use crate::error::CoreError;
use crate::node::InsituNode;
use crate::planner::precision_label;
use crate::recorder;
use crate::update::{CloudEndpoint, ModelUpdate};
use crate::Result;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use insitu_data::{Dataset, IngestConfig, IngestPipeline, QueueFullPolicy, StreamSource};
use insitu_telemetry as telemetry;
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// A message from the node to the Cloud uplink.
#[derive(Debug)]
enum Uplink {
    /// Valuable data for incremental training.
    Valuable(Dataset),
    /// End of stream.
    Shutdown,
}

/// Tuning knobs of the node/Cloud side of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Inference batch size while the node is unplanned; a planned
    /// node prewarms and runs at its active plan's batch instead.
    pub batch_size: usize,
    /// Capacity of the bounded node→Cloud uplink channel, in pending
    /// uploads (clamped to at least 1). The bound is what applies
    /// backpressure to a node that uploads faster than the Cloud
    /// trains.
    ///
    /// The Cloud→node **downlink has no such knob by design**: it must
    /// stay unbounded, because a bounded downlink filling up would
    /// block the Cloud while the node is blocked on this full uplink —
    /// a circular wait. Updates are small snapshots and the node
    /// drains them between batches, so the unbounded side stays flat
    /// (this is the no-circular-wait invariant; the ingest pipeline's
    /// recycle channel follows the same rule).
    pub uplink_capacity: usize,
    /// Deterministic update installs for differential testing: after
    /// each upload the node blocks until the Cloud's update arrives
    /// and installs it immediately, instead of draining the downlink
    /// opportunistically. This removes the wall-clock race from the
    /// session trajectory — at the cost of serializing node and Cloud,
    /// so leave it off in production-shaped runs.
    pub lockstep_uploads: bool,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig { batch_size: 8, uplink_capacity: 4, lockstep_uploads: false }
    }
}

impl SessionConfig {
    /// The default config at a given batch size.
    pub fn with_batch(batch_size: usize) -> SessionConfig {
        SessionConfig { batch_size, ..SessionConfig::default() }
    }
}

/// What a session's consumer does when the producer runs ahead of it
/// (the queue backs up).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum IngestPolicy {
    /// Stall the producer at the queue bound; the node sees every
    /// frame. Lossless — the differential-testing mode, bitwise
    /// comparable to a hand-driven sequential loop.
    #[default]
    Block,
    /// Evict the oldest queued frame and keep producing; the node
    /// always sees the freshest frames. Lossy — the real-time sensor
    /// semantics. Drops are counted and recorded.
    DropOldest,
    /// Keep every frame (the producer blocks like `Block`) but shed
    /// load on the node instead: under queue pressure the consumer
    /// halves its batch size down to a floor, then — if the node has a
    /// calibrated i8 network — runs inference at i8; steps are undone
    /// one at a time, most recent first, whenever the queue is empty.
    /// This is the node's one queue-pressure controller, and it needs
    /// no telemetry.
    Degrade(DegradeConfig),
}

/// Tuning of [`IngestPolicy::Degrade`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeConfig {
    /// Queue depth (observed after popping a frame) at or above which
    /// one degrade step is taken (clamped to at least 1).
    pub high_watermark: usize,
    /// Floor for batch shrinking (clamped to at least 1). Once the
    /// batch cannot halve further, the next step is i8 inference.
    pub min_batch: usize,
}

impl Default for DegradeConfig {
    fn default() -> DegradeConfig {
        DegradeConfig { high_watermark: 3, min_batch: 1 }
    }
}

/// Tuning knobs of a [`run_ingested_session`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestSessionConfig {
    /// The node/Cloud knobs: batch size, uplink bound, lockstep.
    pub session: SessionConfig,
    /// Frame capacity of the bounded ingest queue (clamped to at
    /// least 1). Deeper queues absorb burstier producers at the cost
    /// of staleness under pressure.
    pub queue_capacity: usize,
    /// Backpressure policy when the node falls behind the producer.
    pub policy: IngestPolicy,
}

/// Statistics of one completed session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Batches the node processed.
    pub batches: u64,
    /// Images the node examined.
    pub images_seen: u64,
    /// Images uploaded to the Cloud.
    pub images_uploaded: u64,
    /// Model updates installed on the node.
    pub updates_installed: u64,
    /// Times the node re-planned itself during this session (see
    /// [`InsituNode::enable_replan`]); [`InsituNode::replans`] keeps
    /// the node's lifetime count.
    pub replans: u64,
    /// Telemetry captured over the session — empty unless tracing was
    /// enabled (see [`insitu_telemetry::set_enabled`]). This is the
    /// session's metrics export: Prometheus text via
    /// [`to_prometheus`](telemetry::TelemetrySnapshot::to_prometheus),
    /// JSON via [`to_json`](telemetry::TelemetrySnapshot::to_json).
    pub telemetry: telemetry::TelemetrySnapshot,
}

/// What the ingestion pipeline of a [`run_ingested_session`] did.
///
/// Kept separate from [`SessionStats`] so a session's stats stay
/// field-for-field comparable (bitwise, under the `Block` policy with
/// lockstep uploads) to a hand-driven sequential loop's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Frames the producer materialized (including dropped ones).
    pub frames: u64,
    /// Frames evicted under [`IngestPolicy::DropOldest`].
    pub drops: u64,
    /// Degrade steps taken (batch halvings and the i8 step) under
    /// [`IngestPolicy::Degrade`].
    pub degrades: u64,
    /// Degrade steps undone after the queue drained. A shed still in
    /// force at the end of the stream is lifted without counting here.
    pub restores: u64,
    /// Changes of the node's running precision during the session
    /// ([`InsituNode::precision_flips`] over the session), whichever
    /// controller caused them.
    pub precision_flips: u64,
    /// High-water mark of the ingest queue depth.
    pub max_queue_depth: u64,
    /// Arena buffers the producer minted fresh (the
    /// zero-steady-state-allocation gate: bounded by
    /// `queue_capacity + 2`, never the stream length).
    pub fresh_buffers: u64,
    /// Arena acquisitions served by recycled buffers.
    pub reused_buffers: u64,
    /// Total producer wall-clock spent materializing frames, ns.
    pub produce_ns_total: u64,
}

/// Runs a live session: a producer thread materializes frames from
/// `source` into a bounded ingest queue while the node computes on
/// this thread and a Cloud thread trains on the uploads and pushes
/// back model updates, which the node installs between frames. Stage
/// wall-clock approaches max(compute, ingest) instead of their sum.
/// A pre-materialized `Vec<Dataset>` runs as
/// `Box::new(ReplaySource::new(Arc::new(stream)))` (see
/// [`insitu_data::ReplaySource`]).
///
/// The configured [`IngestPolicy`] governs what happens when the node
/// falls behind; queue depth, producer latency and drop/degrade counts
/// land in telemetry (`node.ingest.*`) and the flight recorder, and the
/// pipeline's bookkeeping comes back as an [`IngestSummary`] next to
/// the ordinary [`SessionStats`]. A `Degrade` shed is session-scoped:
/// its batch lives here, and its i8 overlay is lifted before the node
/// is handed back. Frame storage is recycled through the producer's
/// arena: in steady state ingestion allocates nothing (see
/// [`insitu_data::ProducerReport::fresh_buffers`]).
///
/// Under `IngestPolicy::Block` with
/// [`SessionConfig::lockstep_uploads`], the session reproduces the
/// hand-driven sequential loop over the same frames bitwise: identical
/// [`SessionStats`] counts and final model state.
///
/// The Cloud is shared behind a mutex so callers keep ownership of
/// whatever state their [`CloudEndpoint`] carries. The producer and
/// Cloud threads are joined on **every** exit path — errors and node
/// panics included — so no actor thread outlives the call. A panicking
/// Cloud actor surfaces as [`CoreError::ActorPanicked`] (carrying the
/// panic message); a node panic is re-raised here after the other
/// actors have shut down.
///
/// # Errors
///
/// Returns the first error raised by any actor, the stream source
/// included; when both the node and the Cloud fail, the Cloud's
/// failure wins (a node-side "cloud hung up" error is usually its
/// symptom). Every error leaves a flight-recorder post-mortem.
pub fn run_ingested_session<C>(
    mut node: InsituNode,
    cloud: Arc<Mutex<C>>,
    source: Box<dyn StreamSource>,
    config: &IngestSessionConfig,
) -> Result<(InsituNode, SessionStats, IngestSummary)>
where
    C: CloudEndpoint + Send + 'static,
{
    let queue_policy = match config.policy {
        IngestPolicy::DropOldest => QueueFullPolicy::DropOldest,
        // Degrade sheds load on the consumer side; the producer still
        // keeps every frame.
        IngestPolicy::Block | IngestPolicy::Degrade(_) => QueueFullPolicy::Block,
    };
    let capacity = config.queue_capacity.max(1);
    // The batch the first stage runs at: the active plan's, else the
    // caller's. Prewarm sizes the workspaces at exactly this batch.
    let batch_size = node.active_batch().unwrap_or(config.session.batch_size);
    let start_detail = format!(
        "{} frames @bs{batch_size} cap{capacity} {queue_policy:?}",
        source.frames_hint().map_or_else(|| "?".to_string(), |n| n.to_string()),
    );
    // Resolve the kernel thread count (INSITU_THREADS / core count) up
    // front, on the session thread: all actors' tensor work — node
    // inference, Cloud incremental training, producer synthesis — then
    // shares one already-configured worker pool instead of racing to
    // create it under the first batch.
    let _kernel_threads = insitu_tensor::num_threads();
    // Start fresh measurement windows: the node prices re-plans from
    // this session's stages only, and back-to-back sessions in one
    // process must not merge each other's telemetry (nothing to
    // isolate while tracing is off, and resetting the registry then
    // would race tests that record around a disabled session).
    node.restart_latency_window();
    if telemetry::enabled() {
        telemetry::advance_epoch();
    }
    recorder::record(
        "mode_decision",
        node.plan().map_or_else(
            || {
                format!(
                    "unplanned: bs={batch_size} {} v{}",
                    precision_label(node.precision()),
                    node.version()
                )
            },
            |p| p.summary(),
        ),
    );
    recorder::record("session_start", start_detail.clone());
    let session_span = telemetry::span_with("runtime.session", move || start_detail);
    let pipeline = IngestPipeline::spawn(source, IngestConfig { capacity, policy: queue_policy });
    let (up_tx, up_rx): (Sender<Uplink>, Receiver<Uplink>) =
        bounded(config.session.uplink_capacity.max(1));
    // The downlink must never apply backpressure — see the
    // [`SessionConfig::uplink_capacity`] rustdoc for the
    // no-circular-wait invariant.
    let (down_tx, down_rx) = unbounded::<ModelUpdate>();
    // Uploads sent but not yet consumed by the Cloud; the node samples
    // it at each send as the uplink queue-depth telemetry.
    let in_flight = Arc::new(AtomicU64::new(0));

    // Cloud actor: train on whatever arrives, ship updates back.
    let cloud_thread = {
        let in_flight = Arc::clone(&in_flight);
        thread::spawn(move || -> Result<u64> {
            let mut served = 0u64;
            while let Ok(msg) = up_rx.recv() {
                match msg {
                    Uplink::Shutdown => break,
                    Uplink::Valuable(data) => {
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        let update = cloud.lock().incremental_update(&data)?;
                        served += 1;
                        // The node may have exited; a closed channel is fine.
                        if down_tx.send(update).is_err() {
                            break;
                        }
                    }
                }
            }
            Ok(served)
        })
    };

    // The one install step, shared by the in-loop drains and the
    // end-of-session drain.
    let install =
        |node: &mut InsituNode, stats: &mut SessionStats, update: &ModelUpdate| -> Result<()> {
            node.install_update(update)?;
            telemetry::instant_with("runtime.model_swap", || format!("v{}", update.version));
            recorder::record("model_swap", format!("v{}", update.version));
            stats.updates_installed += 1;
            Ok(())
        };
    let hung_up = || CoreError::BadConfig { reason: "cloud thread hung up early".into() };

    // Node actor (this thread): process the stream, install updates
    // opportunistically between frames (or in lockstep after each
    // upload). The loop runs under `catch_unwind` so that even a panic
    // still shuts the Cloud actor down and joins it before
    // propagating; the pipeline is likewise dropped by the unwind,
    // which joins the producer thread.
    let flips_before = node.precision_flips();
    let replans_before = node.replans();
    let mut stats = SessionStats::default();
    let node_run = catch_unwind(AssertUnwindSafe(|| {
        let mut node = node;
        let mut summary = IngestSummary::default();
        let run = (|| -> Result<()> {
            // Size every conv workspace and GEMM packing arena before
            // the stream starts: real batches then run the
            // zero-allocation kernel path from the first image.
            node.prewarm(batch_size)?;
            // Shed state: the current shed batch (None while unshed)
            // and whether the i8 step is in force. The i8 step is the
            // top rung of the ladder, so undoing it first is undoing
            // the most recent step.
            let mut shed_batch: Option<usize> = None;
            let mut shed_i8 = false;
            let mut drops_seen = 0u64;
            loop {
                // Fetch the next frame. This blocks only while the
                // producer is still materializing it — the overlap
                // window — and the observed wait and queue depth feed
                // the ingest telemetry and the shed.
                let wait_start = telemetry::enabled().then(std::time::Instant::now);
                let Some(frame) = pipeline.next_frame() else { break };
                if let Some(t0) = wait_start {
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    telemetry::hist_record("node.ingest.wait", "", ns);
                }
                let depth = pipeline.depth() as u64;
                summary.max_queue_depth = summary.max_queue_depth.max(depth);
                telemetry::hist_record("node.ingest.queue_depth", "", depth);
                telemetry::hist_record("node.ingest.produce", "", frame.produce_ns);
                telemetry::counter_add("node.ingest.frames", "", 1);
                let dropped = pipeline.dropped();
                if dropped > drops_seen {
                    telemetry::counter_add("node.ingest.drops", "", dropped - drops_seen);
                    recorder::record(
                        "ingest_drop",
                        format!("{} frame(s) dropped, {dropped} total", dropped - drops_seen),
                    );
                    drops_seen = dropped;
                }
                if let IngestPolicy::Degrade(dc) = &config.policy {
                    let base = node.active_batch().unwrap_or(batch_size).max(1);
                    let current = shed_batch.unwrap_or(base);
                    if depth as usize >= dc.high_watermark.max(1) && !shed_i8 {
                        // One step up per frame: halve the batch to the
                        // floor, then run inference at i8.
                        let next = (current / 2).max(dc.min_batch.max(1));
                        let step = if next < current {
                            shed_batch = Some(next);
                            Some(format!("batch {current} -> {next}"))
                        } else if node.quantized().is_some() {
                            shed_i8 = true;
                            node.set_shed_i8(true);
                            Some("i8 inference".to_string())
                        } else {
                            None
                        };
                        if let Some(step) = step {
                            summary.degrades += 1;
                            telemetry::counter_add("node.ingest.degrades", "", 1);
                            recorder::record("degrade", format!("queue depth {depth}: {step}"));
                        }
                    } else if depth == 0 && (shed_i8 || shed_batch.is_some()) {
                        // One step down per frame, most recent first.
                        let step = if shed_i8 {
                            shed_i8 = false;
                            node.set_shed_i8(false);
                            "i8 inference lifted".to_string()
                        } else {
                            let next = (current * 2).min(base);
                            shed_batch = (next < base).then_some(next);
                            format!("batch {current} -> {next}")
                        };
                        summary.restores += 1;
                        recorder::record("restore", format!("queue depth {depth}: {step}"));
                    }
                }
                // Install any updates that arrived while we were busy.
                while let Ok(update) = down_rx.try_recv() {
                    install(&mut node, &mut stats, &update)?;
                }
                // A re-planning node can change its own batch size mid
                // session; honor the shed first, then the active plan,
                // then the caller's value.
                let bs = shed_batch.unwrap_or_else(|| node.active_batch().unwrap_or(batch_size));
                let outcome = node.process_stage(&frame.data, bs)?;
                stats.batches += 1;
                stats.images_seen += frame.data.len() as u64;
                stats.images_uploaded += outcome.valuable.len() as u64;
                if !outcome.valuable.is_empty() {
                    let payload = node.upload_payload(&frame.data, &outcome)?;
                    let in_flight_depth = in_flight.fetch_add(1, Ordering::Relaxed);
                    telemetry::counter_add("runtime.uplink_depth", "", in_flight_depth);
                    recorder::record(
                        "uplink",
                        format!("{} images, {} in flight", payload.len(), in_flight_depth + 1),
                    );
                    up_tx.send(Uplink::Valuable(payload)).map_err(|_| hung_up())?;
                    if config.session.lockstep_uploads {
                        // Deterministic trajectory: wait for this
                        // upload's update and install it before the
                        // next stage.
                        let update = down_rx.recv().map_err(|_| hung_up())?;
                        install(&mut node, &mut stats, &update)?;
                    }
                }
                // Hand the frame's storage back to the producer arena.
                pipeline.recycle(frame);
            }
            // End of stream: harvest the producer's report.
            let report = pipeline.finish()?;
            summary.frames = report.frames;
            summary.drops = report.dropped;
            summary.fresh_buffers = report.fresh_buffers;
            summary.reused_buffers = report.reused_buffers;
            summary.produce_ns_total = report.produce_ns_total;
            summary.max_queue_depth = summary.max_queue_depth.max(report.max_queue_depth);
            Ok(())
        })();
        (node, run.err(), summary)
    }));

    // Single shutdown path: whatever happened above, stop the Cloud
    // actor and join its thread before reporting anything.
    let _ = up_tx.send(Uplink::Shutdown);
    let cloud_error = match cloud_thread.join() {
        Ok(Ok(_served)) => None,
        Ok(Err(e)) => Some(e),
        Err(payload) => {
            Some(CoreError::ActorPanicked { actor: "cloud", message: panic_message(&*payload) })
        }
    };
    let (mut node, node_error, mut summary) = match node_run {
        Ok(triple) => triple,
        // The Cloud thread is already joined; let the caller see the
        // original node panic (after leaving a post-mortem).
        Err(payload) => {
            recorder::dump(&format!("node panicked: {}", panic_message(&*payload)));
            resume_unwind(payload);
        }
    };
    // The Cloud's failure wins: a node-side send error is usually just
    // the symptom of the Cloud dying first. Without either, drain the
    // final updates so the returned node is as fresh as possible. Every
    // error exit leaves a flight-recorder post-mortem before surfacing.
    let error = cloud_error.or(node_error).or_else(|| {
        std::iter::from_fn(|| down_rx.try_recv().ok())
            .find_map(|update| install(&mut node, &mut stats, &update).err())
    });
    if let Some(e) = error {
        recorder::dump(&e.to_string());
        return Err(e);
    }
    // The shed ends with the session.
    node.set_shed_i8(false);
    drop(session_span);
    stats.replans = node.replans() - replans_before;
    summary.precision_flips = node.precision_flips() - flips_before;
    stats.telemetry = telemetry::snapshot();
    Ok((node, stats, summary))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::DiagnosisPolicy;
    use insitu_data::{Condition, PermutationSet};
    use insitu_nn::models::{jigsaw_network, mini_alexnet};
    use insitu_nn::serialize::state_dict;
    use insitu_nn::transfer::transfer_and_freeze;
    use insitu_tensor::Rng;

    /// Finds this test's flight-recorder post-mortem (the dump store
    /// is process-global and tests run concurrently, so scan for the
    /// matching reason), parses it, and asserts the coarse history a
    /// post-mortem must carry: the session's mode decision and at
    /// least one processed stage.
    fn assert_post_mortem(reason_fragment: &str) {
        let dumps = recorder::last_dumps();
        let dump = dumps
            .iter()
            .rev()
            .find(|d| d.contains(reason_fragment))
            .unwrap_or_else(|| panic!("no flight dump mentioning {reason_fragment:?}"));
        let v = telemetry::json::parse(dump).expect("post-mortem must be valid JSON");
        let reason = v.get("reason").and_then(|r| r.as_str()).expect("reason field");
        assert!(reason.contains(reason_fragment), "{reason}");
        let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
        let kinds: Vec<&str> =
            events.iter().filter_map(|e| e.get("kind").and_then(|k| k.as_str())).collect();
        assert!(kinds.contains(&"mode_decision"), "no mode decision in {kinds:?}");
        assert!(kinds.contains(&"stage"), "no stage event in {kinds:?}");
    }

    /// A trivially fast Cloud double: echoes back the same weights.
    #[derive(Debug)]
    struct EchoCloud {
        params: Vec<insitu_tensor::Tensor>,
        version: u32,
    }

    impl CloudEndpoint for EchoCloud {
        fn incremental_update(&mut self, _uploaded: &Dataset) -> Result<ModelUpdate> {
            self.version += 1;
            Ok(ModelUpdate {
                version: self.version,
                inference_params: self.params.clone(),
                jigsaw_params: None,
                training_ops: 1,
                eval_accuracy: None,
            })
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

    fn echo_cloud(node: &mut InsituNode) -> Arc<Mutex<EchoCloud>> {
        // An update carries the dict after the freeze cut.
        let net = node.inference_mut();
        let first = net.tensors_before(net.first_unfrozen());
        let params = state_dict(net).split_off(first);
        Arc::new(Mutex::new(EchoCloud { params, version: 0 }))
    }

    fn stream(stages: usize, images: usize, seed: u64) -> Vec<Dataset> {
        let mut rng = Rng::seed_from(seed);
        (0..stages)
            .map(|_| Dataset::generate(images, 4, &Condition::in_situ(), &mut rng).unwrap())
            .collect()
    }

    /// Replays a materialized stream through a two-frame ingest queue.
    fn replay<C: CloudEndpoint + Send + 'static>(
        node: InsituNode,
        cloud: Arc<Mutex<C>>,
        stream: Vec<Dataset>,
        session: SessionConfig,
    ) -> Result<(InsituNode, SessionStats, IngestSummary)> {
        let config =
            IngestSessionConfig { session, queue_capacity: 2, policy: IngestPolicy::Block };
        let source = insitu_data::ReplaySource::new(Arc::new(stream));
        run_ingested_session(node, cloud, Box::new(source), &config)
    }

    #[test]
    fn streaming_session_processes_and_updates() {
        let mut node = make_node(5);
        let cloud = echo_cloud(&mut node);
        let (node, stats, summary) =
            replay(node, cloud, stream(3, 20, 9), SessionConfig::with_batch(8)).unwrap();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.images_seen, 60);
        assert_eq!(summary.frames, 3);
        assert!(stats.images_uploaded > 0); // untrained model errs plenty
        assert!(stats.updates_installed >= 1);
        assert!(node.version() >= 1);
    }

    #[test]
    fn long_streams_do_not_deadlock() {
        // Regression test: with a bounded downlink, a stream longer
        // than the channel capacity deadlocked (node blocked on the
        // uplink, Cloud blocked on the downlink).
        let mut node = make_node(8);
        let cloud = echo_cloud(&mut node);
        let (_, stats, _) =
            replay(node, cloud, stream(12, 8, 10), SessionConfig::with_batch(8)).unwrap();
        assert_eq!(stats.batches, 12);
    }

    #[test]
    fn uplink_capacity_is_configurable() {
        // The tightest legal uplink (capacity 1, and 0 clamps to 1)
        // must still complete a stream that uploads on most stages.
        let mut node = make_node(8);
        let cloud = echo_cloud(&mut node);
        let config =
            SessionConfig { batch_size: 8, uplink_capacity: 0, lockstep_uploads: false };
        assert_eq!(SessionConfig::default().uplink_capacity, 4);
        let (_, stats, _) = replay(node, cloud, stream(6, 8, 10), config).unwrap();
        assert_eq!(stats.batches, 6);
        assert!(stats.updates_installed >= 1);
    }

    /// A Cloud double that panics on the first upload (injected fault).
    #[derive(Debug)]
    struct PanickingCloud;

    impl CloudEndpoint for PanickingCloud {
        fn incremental_update(&mut self, _uploaded: &Dataset) -> Result<ModelUpdate> {
            panic!("injected cloud panic");
        }
    }

    #[test]
    fn cloud_panic_surfaces_as_error() {
        // Regression test: a panicking Cloud actor must be joined and
        // reported, not leave the session hanging or return a generic
        // "hung up" error with the cause swallowed.
        let cloud = Arc::new(Mutex::new(PanickingCloud));
        match replay(make_node(11), cloud, stream(6, 8, 12), SessionConfig::with_batch(8)) {
            Err(CoreError::ActorPanicked { actor, message }) => {
                assert_eq!(actor, "cloud");
                assert!(message.contains("injected cloud panic"), "{message}");
            }
            other => panic!("expected ActorPanicked, got {other:?}"),
        }
        assert_post_mortem("injected cloud panic");
    }

    /// A Cloud double that fails with a plain error on every upload.
    #[derive(Debug)]
    struct FailingCloud;

    impl CloudEndpoint for FailingCloud {
        fn incremental_update(&mut self, _uploaded: &Dataset) -> Result<ModelUpdate> {
            Err(CoreError::BadConfig { reason: "cloud says no".into() })
        }
    }

    #[test]
    fn cloud_error_wins_over_node_send_failure() {
        // When the Cloud dies first, the node's subsequent "hung up"
        // send failure is a symptom; the session must report the
        // cause, and the producer thread must be joined (the test
        // would hang otherwise).
        let cloud = Arc::new(Mutex::new(FailingCloud));
        match replay(make_node(13), cloud, stream(8, 8, 14), SessionConfig::with_batch(8)) {
            Err(CoreError::BadConfig { reason }) => {
                assert!(reason.contains("cloud says no"), "{reason}");
            }
            other => panic!("expected the cloud's error, got {other:?}"),
        }
        assert_post_mortem("cloud says no");
    }

    /// A Cloud double that ships back updates no node can install.
    #[derive(Debug)]
    struct BadUpdateCloud {
        version: u32,
    }

    impl CloudEndpoint for BadUpdateCloud {
        fn incremental_update(&mut self, _uploaded: &Dataset) -> Result<ModelUpdate> {
            self.version += 1;
            Ok(ModelUpdate {
                version: self.version,
                inference_params: vec![], // wrong arity: install must fail
                jigsaw_params: None,
                training_ops: 0,
                eval_accuracy: None,
            })
        }
    }

    #[test]
    fn bad_update_surfaces_node_error_and_joins_cloud() {
        // A node-side install failure must still shut the Cloud actor
        // down (no leaked thread) and report the node's error.
        let cloud = Arc::new(Mutex::new(BadUpdateCloud { version: 0 }));
        match replay(make_node(15), cloud, stream(8, 8, 16), SessionConfig::with_batch(8)) {
            Err(CoreError::Nn(_)) => {}
            other => panic!("expected the node's install error, got {other:?}"),
        }
        assert_post_mortem("network error");
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let cloud = echo_cloud(&mut make_node(6));
        let (node, stats, summary) =
            replay(make_node(6), cloud, vec![], SessionConfig::with_batch(8)).unwrap();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.images_seen, 0);
        assert_eq!(summary.frames, 0);
        assert_eq!(node.version(), 0);
    }
}
