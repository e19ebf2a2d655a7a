//! The In-situ AI loop on a trained deployment, timed per call.
//!
//! ```text
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload drift --seed 1 --seconds 36 --trace 0
//! ```
//!
//! One run builds a trained deployment (pre-train the jigsaw network,
//! transfer and fine-tune the inference network, i8-calibrate where the
//! workload needs it, build the Cloud, prewarm), synthesizes the
//! workload's stream from `--seed` once, then drives the paper's loop
//! over that stream, through public calls only, in lockstep:
//!
//! ```text
//! IngestPipeline::next_frame → InsituNode::process_stage → upload_payload
//!   → CloudEndpoint::incremental_update → InsituNode::install_update → recycle
//! ```
//!
//! This is a closed loop with one client: the next frame is taken only
//! after the previous frame's update is installed. Kernels run on one
//! thread and the Cloud runs inline on the loop thread; the only other
//! thread is the ingest producer, which replays the prepared frames
//! (`ReplaySource`) and blocks at the queue bound. Synthesizing frames
//! live would run the load generator, memory-heavy, beside every timed
//! stage. On
//! one small host a concurrent node and Cloud would measure each
//! other's load, while in a deployment they are separate machines;
//! lockstep also fixes the work of every run, because the jigsaw
//! verdicts never read the inference model, so the seed alone fixes the
//! upload sequence.
//!
//! The loop runs in *episodes*: one pass over the workload's fixed
//! stream from a freshly deployed node and Cloud. Episodes repeat while
//! the next one is expected to end within `--seconds`, and every episode
//! of a run must end in the same state (upload count, final weights
//! hash, accuracy).
//!
//! Host noise only ever adds time, so every timing metric is the
//! fastest of many identical per-call samples. A shared host has slow
//! phases that outlast a run; in them most calls slow down, but a few
//! still run at full speed, so the fastest call holds where any fixed
//! quantile moves with the share of quiet moments. A cost that does not
//! hit every call does not move these metrics; the traced run's p50/p90
//! shows such costs.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` prints the
//! per-layer metrics instead: it records a span around every call of
//! every other frame, writes them as a Chrome trace under `out/`, prints
//! the per-layer self-time table, checks that each frame's child spans
//! reconcile with the frame's root span, times the inference forward and
//! the diagnosis on replicas of the deployed networks, and checks that
//! `run_ingested_session` (`Block`, `lockstep_uploads`) reproduces the
//! hand-driven loop.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Any failed call or output check makes the run exit non-zero.

mod stats;
mod trace;

use insitu_cloud::{
    build_inference, pretrain, CacheStats, Cloud, DeployConfig, IncrementalConfig, PretrainConfig,
    Pretrained,
};
use insitu_core::{
    diagnose_with_logits, run_ingested_session, CloudEndpoint, DiagnosisPolicy, IngestPolicy,
    IngestSessionConfig, InsituNode, ModelUpdate, SessionConfig, IMAGE_BYTES,
};
use insitu_data::{
    Condition, Dataset, DriftSchedule, IngestConfig, IngestPipeline, PermutationSet,
    ProducerReport, QueueFullPolicy, ReplaySource, SyntheticDriftSource, CHANNELS, IMAGE_SIZE,
};
use insitu_nn::serialize::state_dict;
use insitu_nn::{Network, QuantizedNet, Sequential};
use insitu_telemetry as telemetry;
use insitu_tensor::simd::simd_isa_name;
use insitu_tensor::{gemm_kernel_name, Rng, Tensor};
use parking_lot::Mutex;
use stats::{ms, quantile};
use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{reconcile, self_times, Tracer};

type BoxResult<T> = Result<T, Box<dyn Error>>;

/// Classes of the deployment's recognition task.
const CLASSES: usize = 6;
/// Images per streamed frame (one acquisition stage).
const FRAME_IMAGES: usize = 64;
/// Inference chunk size inside a stage.
const BATCH: usize = 16;
/// Diagnosis policy: majority vote over this many jigsaw probes.
const PROBES: usize = 3;
/// Jigsaw permutation classes.
const PERMUTATIONS: usize = 8;
/// Conv layers shared (and frozen) between the two networks.
const SHARED_CONVS: usize = 3;
/// Raw images for unsupervised pre-training, and its epochs.
const RAW_IMAGES: usize = 240;
const PRETRAIN_EPOCHS: usize = 8;
/// Labeled images for the transfer fine-tune, and its epochs.
const LABELED_IMAGES: usize = 192;
const DEPLOY_EPOCHS: usize = 10;
/// i8 calibration split size.
const CALIB_IMAGES: usize = 32;
/// Held-out evaluation split size.
const EVAL_IMAGES: usize = 256;
/// Ingest queue bound, in frames.
const QUEUE_CAPACITY: usize = 2;
/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The quantile every per-call timing reports: the fastest call.
const FASTEST: f64 = 0.0;
/// Largest tolerated share of a frame's root span not covered by its
/// child spans, percent.
const MAX_RECONCILE_GAP_PCT: f64 = 5.0;

/// Kernel threads. One: on a 2-vCPU host the default pool of two
/// shares both vCPUs with the ingest producer, and its parallel
/// regions stall whenever either vCPU is taken; interleaved runs of
/// identical work spread 12% in p10 `frame_ms` with two kernel threads
/// and under 1% with one. Results never depend on the thread count.
const KERNEL_THREADS: usize = 1;
/// Seed of the deployment recipe. Every workload seed runs on the same
/// trained deployment: at this training scale the quality of a trained
/// pair varies from seed to seed (over ten seeds of one recipe,
/// held-out accuracy 0.80–1.00 and upload rate 1.4–10%), which would
/// make the loop's work, and every per-image metric, depend on the
/// training lottery rather than on the stream.
const DEPLOYMENT_SEED: u64 = 2018;
/// Salts that derive each component's seed from the workload seed.
const NODE_SALT: u64 = 0x6E6F_6465;
const CLOUD_SALT: u64 = 0x636C_6F75;
const STREAM_SALT: u64 = 0x7374_7265;
const PROBE_SALT: u64 = 0x7072_6F62;

/// One benchmark workload: a stream shape and a node precision.
struct Workload {
    name: &'static str,
    /// Severity ramp of the stream.
    schedule: DriftSchedule,
    /// Severity of the held-out evaluation split.
    eval_severity: f32,
    /// Run inference on the i8-calibrated network.
    i8: bool,
    /// Frames per episode.
    frames: usize,
}

const WORKLOADS: [Workload; 2] = [
    // Severity ramp: many uploads, a growing archive, the Cloud dominates;
    // the node runs the f32 stage.
    Workload {
        name: "drift",
        schedule: DriftSchedule {
            start: 0.3,
            step: 0.015,
        },
        eval_severity: 0.7,
        i8: false,
        frames: 32,
    },
    // In-distribution stream on an i8 node: few uploads, the node stage
    // dominates, it runs i8 kernels, and every install recalibrates.
    Workload {
        name: "steady_i8",
        schedule: DriftSchedule {
            start: 0.0,
            step: 0.0,
        },
        eval_severity: 0.0,
        i8: true,
        frames: 96,
    },
];

const USAGE: &str =
    "usage: loopbench --workload <drift|steady_i8> --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The trained models and splits a deployment is built from.
struct Parts {
    inference: Sequential,
    pretrained: Pretrained,
    calib: Dataset,
    eval: Dataset,
}

/// A deployed node and its Cloud.
struct Deployment {
    node: InsituNode,
    cloud: Cloud,
}

fn incremental_config() -> IncrementalConfig {
    IncrementalConfig {
        epochs: 1,
        batch_size: 16,
        lr: 0.005,
        threads: None,
        holdout: None,
    }
}

/// Trains the deployment's models.
fn train_parts(w: &Workload) -> BoxResult<Parts> {
    let mut rng = Rng::seed_from(DEPLOYMENT_SEED);
    let raw = Dataset::generate(RAW_IMAGES, CLASSES, &Condition::ideal(), &mut rng)?;
    let pretrained = pretrain(
        &raw,
        &PretrainConfig {
            permutations: PERMUTATIONS,
            epochs: PRETRAIN_EPOCHS,
            batch_size: 16,
            lr: 0.015,
            threads: None,
        },
        &mut rng,
    )?;
    let labeled = Dataset::generate(LABELED_IMAGES, CLASSES, &Condition::ideal(), &mut rng)?;
    let (inference, _) = build_inference(
        &pretrained,
        &labeled,
        &DeployConfig {
            epochs: DEPLOY_EPOCHS,
            ..DeployConfig::default()
        },
        &mut rng,
    )?;
    let calib = Dataset::generate(CALIB_IMAGES, CLASSES, &Condition::ideal(), &mut rng)?;
    let eval_condition = Condition::with_severity(w.eval_severity)?;
    let eval = Dataset::generate(EVAL_IMAGES, CLASSES, &eval_condition, &mut rng)?;
    Ok(Parts {
        inference,
        pretrained,
        calib,
        eval,
    })
}

/// Deploys fresh copies of the trained models: node (i8-calibrated
/// when the workload asks) and Cloud, prewarmed.
fn deploy(parts: &Parts, seed: u64, w: &Workload) -> BoxResult<Deployment> {
    let mut node = InsituNode::new(
        parts.inference.clone(),
        parts.pretrained.jigsaw.clone(),
        parts.pretrained.set.clone(),
        DiagnosisPolicy::JigsawProbe { probes: PROBES },
        SHARED_CONVS,
        seed ^ NODE_SALT,
    )?;
    if w.i8 {
        node.enable_quantized(&parts.calib)?;
    }
    node.prewarm(BATCH)?;
    let cloud = Cloud::new(
        parts.inference.clone(),
        parts.pretrained.clone(),
        incremental_config(),
        seed ^ CLOUD_SALT,
    );
    Ok(Deployment { node, cloud })
}

/// One timed setup: train the parts and deploy them once. Returns the
/// parts, the wall time in seconds and a hash of the trained inference
/// weights.
fn setup(seed: u64, w: &Workload) -> BoxResult<(Parts, f64, u64)> {
    let t0 = Instant::now();
    let mut parts = train_parts(w)?;
    let deployment = deploy(&parts, seed, w)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(deployment);
    let hash = weights_hash(&mut parts.inference);
    Ok((parts, secs, hash))
}

fn stream_source(seed: u64, w: &Workload) -> BoxResult<SyntheticDriftSource> {
    Ok(SyntheticDriftSource::new(
        w.frames,
        FRAME_IMAGES,
        CLASSES,
        w.schedule,
        seed ^ STREAM_SALT,
    )?)
}

/// The workload's stream, synthesized once per run. Episodes replay it
/// through the ingest pipeline, so the producer only copies prepared
/// frames and the load generator does not run beside the timed calls.
fn materialize_stream(seed: u64, w: &Workload) -> BoxResult<Arc<Vec<Dataset>>> {
    Ok(Arc::new(stream_source(seed, w)?.materialize()?))
}

/// FNV-1a over the bit patterns of every parameter tensor.
fn weights_hash(net: &mut dyn Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in state_dict(net) {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn update_bytes(u: &ModelUpdate) -> u64 {
    let tensors = u
        .inference_params
        .iter()
        .chain(u.jigsaw_params.iter().flatten());
    tensors.map(|t| t.len() as u64 * 4).sum()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call timings of one frame, ns.
#[derive(Debug, Clone, Copy)]
struct FrameTimes {
    wait: u64,
    stage: u64,
    payload: Option<u64>,
    recycle: u64,
    /// The whole iteration, Cloud and install included.
    total: u64,
    traced: bool,
}

impl FrameTimes {
    /// The node's service time: everything but the Cloud and the install.
    fn service(&self) -> u64 {
        self.wait + self.stage + self.payload.unwrap_or(0) + self.recycle
    }
}

/// One Cloud round trip.
#[derive(Debug, Clone, Copy)]
struct UpdateTimes {
    update: u64,
    install: u64,
    /// Retained archive after the update, samples.
    archive: usize,
    traced: bool,
}

/// Replica-timed layer probes of the traced frames, ns.
#[derive(Debug, Default)]
struct ProbeTimes {
    forward: Vec<f64>,
    diagnosis: Vec<f64>,
}

/// Replicas of the deployed networks for the traced run's layer probes.
/// Dense kernels do not depend on weight values, so replicas deployed
/// at episode start time the same work as the live networks.
struct Probes {
    node: InsituNode,
    quantized: Option<QuantizedNet>,
    perm_set: PermutationSet,
    rng: Rng,
}

impl Probes {
    fn new(parts: &Parts, seed: u64, w: &Workload) -> BoxResult<Probes> {
        let node = deploy(parts, seed, w)?.node;
        let quantized = if w.i8 {
            let mut q = QuantizedNet::calibrate(node.inference(), parts.calib.images())?;
            q.predict(&Tensor::zeros([BATCH, CHANNELS, IMAGE_SIZE, IMAGE_SIZE]))?;
            Some(q)
        } else {
            None
        };
        Ok(Probes {
            node,
            quantized,
            perm_set: parts.pretrained.set.clone(),
            rng: Rng::seed_from(seed ^ PROBE_SALT),
        })
    }

    /// Times the inference forward (in `BATCH` chunks, at the node's
    /// precision) and the diagnosis over `data`, each recorded as a root
    /// span of `frame`.
    fn step(
        &mut self,
        tracer: &mut Tracer,
        times: &mut ProbeTimes,
        frame: u64,
        data: &Dataset,
    ) -> BoxResult<()> {
        let s = Instant::now();
        let mut logits = Vec::with_capacity(data.len().div_ceil(BATCH));
        for start in (0..data.len()).step_by(BATCH) {
            let sub = data.subset_range(start..(start + BATCH).min(data.len()))?;
            logits.push(match &mut self.quantized {
                Some(q) => q.predict(sub.images())?,
                None => self.node.inference_mut().predict(sub.images())?,
            });
        }
        let e = Instant::now();
        tracer.record("nn.forward", s, e, None, frame);
        times.forward.push(nanos(e - s) as f64);
        let policy = self.node.policy();
        let s = Instant::now();
        let verdicts = diagnose_with_logits(
            policy,
            &logits,
            self.node.jigsaw_mut(),
            &self.perm_set,
            data,
            &mut self.rng,
        )?;
        let e = Instant::now();
        std::hint::black_box(verdicts);
        tracer.record("diagnosis.diagnose", s, e, None, frame);
        times.diagnosis.push(nanos(e - s) as f64);
        Ok(())
    }
}

/// Calls made into the program, and how many returned an error.
#[derive(Debug, Default)]
struct Calls {
    attempted: u64,
    failed: u64,
}

impl Calls {
    fn attempt<T, E: Into<Box<dyn Error>>>(&mut self, r: Result<T, E>) -> BoxResult<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            e.into()
        })
    }
}

/// Everything one episode did and ended with.
#[derive(Debug)]
struct Episode {
    frames: Vec<FrameTimes>,
    updates: Vec<UpdateTimes>,
    images: u64,
    uploaded: u64,
    update_bytes: u64,
    training_ops: u64,
    installs: u64,
    weights_hash: u64,
    final_accuracy: f32,
    archive: usize,
    cache: Option<CacheStats>,
    producer: ProducerReport,
}

impl Episode {
    /// The state every episode of one seed must reproduce exactly.
    fn outcome(&self) -> (u64, u64, u64, u64, u32, usize) {
        (
            self.uploaded,
            self.installs,
            self.update_bytes,
            self.weights_hash,
            self.final_accuracy.to_bits(),
            self.archive,
        )
    }

    /// Uplink image bytes plus downlink update bytes, per streamed image.
    fn link_bytes_per_image(&self) -> f64 {
        (self.uploaded * IMAGE_BYTES + self.update_bytes) as f64 / self.images.max(1) as f64
    }
}

/// Tracing state of a traced run.
struct Traced<'a> {
    tracer: &'a mut Tracer,
    probes: Probes,
    times: &'a mut ProbeTimes,
}

/// Runs one episode: deploys fresh copies of the trained models and
/// drives the workload's whole stream through the lockstep loop.
/// Output-check violations are appended to `violations`; a failed call
/// ends the episode with its error.
fn run_episode(
    parts: &Parts,
    stream: &Arc<Vec<Dataset>>,
    seed: u64,
    w: &Workload,
    calls: &mut Calls,
    mut traced: Option<Traced<'_>>,
    frame_base: u64,
    violations: &mut Vec<String>,
) -> BoxResult<Episode> {
    let Deployment {
        mut node,
        mut cloud,
    } = deploy(parts, seed, w)?;
    let pipeline = IngestPipeline::spawn(
        Box::new(ReplaySource::new(Arc::clone(stream))),
        IngestConfig {
            capacity: QUEUE_CAPACITY,
            policy: QueueFullPolicy::Block,
        },
    );
    let mut frames = Vec::with_capacity(w.frames);
    let mut updates = Vec::new();
    let (mut images, mut valuable, mut uploaded, mut update_total, mut ops, mut installs) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for i in 0u64.. {
        let frame_id = frame_base + i;
        let trace_frame = traced.is_some() && i % 2 == 0;
        let root_start = Instant::now();
        let wait_s = Instant::now();
        let frame = pipeline.next_frame();
        let wait_e = Instant::now();
        calls.attempted += 1;
        let Some(frame) = frame else { break };
        images += frame.data.len() as u64;
        let stage_s = Instant::now();
        let r = node.process_stage(&frame.data, BATCH);
        let stage_e = Instant::now();
        let outcome = calls.attempt(r)?;
        valuable += outcome.valuable.len() as u64;
        let mut round_trip = None;
        if !outcome.valuable.is_empty() {
            let payload_s = Instant::now();
            let r = node.upload_payload(&frame.data, &outcome);
            let payload_e = Instant::now();
            let payload = calls.attempt(r)?;
            uploaded += payload.len() as u64;
            let update_s = Instant::now();
            let r = cloud.incremental_update(&payload);
            let update_e = Instant::now();
            let update = calls.attempt(r)?;
            let install_s = Instant::now();
            let r = node.install_update(&update);
            let install_e = Instant::now();
            calls.attempt(r)?;
            installs += 1;
            update_total += update_bytes(&update);
            ops += update.training_ops;
            updates.push(UpdateTimes {
                update: nanos(update_e - update_s),
                install: nanos(install_e - install_s),
                archive: cloud.archive_len(),
                traced: trace_frame,
            });
            round_trip = Some([
                (payload_s, payload_e),
                (update_s, update_e),
                (install_s, install_e),
            ]);
        }
        let recycle_s = Instant::now();
        pipeline.recycle(frame);
        let recycle_e = Instant::now();
        calls.attempted += 1;
        let root_end = Instant::now();
        frames.push(FrameTimes {
            wait: nanos(wait_e - wait_s),
            stage: nanos(stage_e - stage_s),
            payload: round_trip.map(|r| nanos(r[0].1 - r[0].0)),
            recycle: nanos(recycle_e - recycle_s),
            total: nanos(root_end - root_start),
            traced: trace_frame,
        });
        if let Some(t) = traced.as_mut().filter(|_| trace_frame) {
            let root = t.tracer.open("loop.frame", root_start, frame_id);
            let mut child = |name, (s, e)| {
                t.tracer.record(name, s, e, Some(root), frame_id);
            };
            child("data.next_frame", (wait_s, wait_e));
            child("node.process_stage", (stage_s, stage_e));
            if let Some([payload, update, install]) = round_trip {
                child("node.upload_payload", payload);
                child("cloud.incremental_update", update);
                child("node.install_update", install);
            }
            child("data.recycle", (recycle_s, recycle_e));
            t.tracer.close(root, root_end);
            let data = &stream[usize::try_from(i)?];
            t.probes.step(t.tracer, t.times, frame_id, data)?;
        }
    }
    let producer = calls.attempt(pipeline.finish())?;

    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    check(
        frames.len() == w.frames && producer.frames == w.frames as u64 && producer.dropped == 0,
        format!(
            "stream: {} frames processed, {} produced, {} dropped; expected {}",
            frames.len(),
            producer.frames,
            producer.dropped,
            w.frames
        ),
    );
    check(
        uploaded == valuable,
        format!("uploads {uploaded} != sum of valuable {valuable}"),
    );
    let movement = node.movement();
    check(
        movement.images_seen == images
            && movement.images_uploaded == uploaded
            && movement.bytes_uploaded == uploaded * IMAGE_BYTES,
        format!(
            "movement meter {movement:?} disagrees with {images} images streamed, \
             {uploaded} uploaded ({} bytes)",
            uploaded * IMAGE_BYTES
        ),
    );
    check(
        u64::from(node.version()) == installs && u64::from(cloud.version()) == installs,
        format!(
            "{installs} updates installed, node at v{}, Cloud at v{}",
            node.version(),
            cloud.version()
        ),
    );
    let final_accuracy = node.accuracy_on(&parts.eval, BATCH)?;
    Ok(Episode {
        frames,
        updates,
        images,
        uploaded,
        update_bytes: update_total,
        training_ops: ops,
        installs,
        weights_hash: weights_hash(node.inference_mut()),
        final_accuracy,
        archive: cloud.archive_len(),
        cache: cloud.cache_stats(),
        producer,
    })
}

/// Runs the same seed through the product's session path
/// (`run_ingested_session` under `Block` + `lockstep_uploads`), fed by
/// the live synthesizing source, and returns how its outcome differs
/// from the hand-driven episode's over the replayed stream.
fn session_gate(
    parts: &Parts,
    seed: u64,
    w: &Workload,
    reference: &Episode,
) -> BoxResult<Vec<String>> {
    let Deployment { node, cloud } = deploy(parts, seed, w)?;
    let cloud = Arc::new(Mutex::new(cloud));
    let config = IngestSessionConfig {
        session: SessionConfig {
            batch_size: BATCH,
            uplink_capacity: 4,
            lockstep_uploads: true,
        },
        queue_capacity: QUEUE_CAPACITY,
        policy: IngestPolicy::Block,
    };
    let (mut node, stats, _) = run_ingested_session(
        node,
        Arc::clone(&cloud),
        Box::new(stream_source(seed, w)?),
        &config,
    )?;
    let session = (
        stats.batches,
        stats.images_seen,
        stats.images_uploaded,
        stats.updates_installed,
        weights_hash(node.inference_mut()),
    );
    let hand = (
        reference.frames.len() as u64,
        reference.images,
        reference.uploaded,
        reference.installs,
        reference.weights_hash,
    );
    let mut diffs = Vec::new();
    if session != hand {
        diffs.push(format!(
            "session (batches, images, uploaded, installs, weights hash) {session:?} != \
             hand-driven loop {hand:?}"
        ));
    }
    let cloud_version = u64::from(cloud.lock().version());
    if cloud_version != reference.installs {
        diffs.push(format!(
            "session Cloud at v{cloud_version}, hand-driven loop installed {}",
            reference.installs
        ));
    }
    Ok(diffs)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> BoxResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .ok_or("malformed VmHWM")?
        .parse()?;
    Ok(kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How it was taken, e.g. `fastest frame (n=96; …)`.
    note: String,
}

/// The reported metrics, in order, and the output-check violations.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    violations: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds the `q`-quantile of `samples`, noting the sample count and
    /// the p10/p50/p90 beside it; no samples is a violation.
    fn quantile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
        what: &str,
    ) {
        let at = |q| quantile(samples, q).map_or(f64::NAN, |x| x.value);
        match quantile(samples, q) {
            Some(x) => self.add(
                name,
                x.value,
                unit,
                format!(
                    "{what} (n={}; p10 {:.4}, p50 {:.4}, p90 {:.4})",
                    x.n,
                    at(0.1),
                    at(0.5),
                    at(0.9)
                ),
            ),
            None => self
                .violations
                .push(format!("{name}: no samples of {what}")),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let precision = if args.workload.i8 { "i8" } else { "f32" };
    vec![
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("kernel_threads", insitu_tensor::num_threads().to_string()),
        ("gemm_kernel", gemm_kernel_name().to_string()),
        ("simd_isa", simd_isa_name().to_string()),
        ("INSITU_SIMD", env("INSITU_SIMD")),
        ("INSITU_GEMM_KERNEL", env("INSITU_GEMM_KERNEL")),
        ("deployment_seed", DEPLOYMENT_SEED.to_string()),
        ("classes", CLASSES.to_string()),
        ("frame_images", FRAME_IMAGES.to_string()),
        ("frames_per_episode", args.workload.frames.to_string()),
        ("batch", BATCH.to_string()),
        ("diagnosis", format!("JigsawProbe{{{PROBES}}}")),
        ("precision", precision.to_string()),
        ("queue_capacity", QUEUE_CAPACITY.to_string()),
        (
            "incremental_epochs",
            incremental_config().epochs.to_string(),
        ),
    ]
}

/// What the loop phase of a run produced.
struct LoopRun {
    episodes: Vec<Episode>,
    calls: Calls,
    tracer: Tracer,
    probe_times: ProbeTimes,
}

/// Runs episodes while the next one is expected to end within the
/// budget (at least one). A failed call ends the loop and is reported.
fn run_loop(
    args: &Args,
    parts: &Parts,
    stream: &Arc<Vec<Dataset>>,
    report: &mut Report,
) -> LoopRun {
    let w = args.workload;
    let mut run = LoopRun {
        episodes: Vec::new(),
        calls: Calls::default(),
        tracer: Tracer::new(Instant::now()),
        probe_times: ProbeTimes::default(),
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    loop {
        let traced = if args.trace {
            match Probes::new(parts, args.seed, w) {
                Ok(probes) => Some(Traced {
                    tracer: &mut run.tracer,
                    probes,
                    times: &mut run.probe_times,
                }),
                Err(e) => {
                    report.violations.push(format!("probe set-up failed: {e}"));
                    break;
                }
            }
        } else {
            None
        };
        let base = (run.episodes.len() * w.frames) as u64;
        let episode = run_episode(
            parts,
            stream,
            args.seed,
            w,
            &mut run.calls,
            traced,
            base,
            &mut report.violations,
        );
        match episode {
            Ok(ep) => run.episodes.push(ep),
            Err(e) => {
                report.violations.push(format!("call failed: {e}"));
                break;
            }
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / run.episodes.len() as u32 > budget {
            break;
        }
    }
    println!(
        "# loop: {} episodes in {:.3} s",
        run.episodes.len(),
        start.elapsed().as_secs_f64()
    );
    run
}

/// Every episode of a run must end in the same state; on `drift` the
/// loop must also beat the accuracy it started from.
fn check_episodes(w: &Workload, episodes: &[Episode], accuracy_before: f32, report: &mut Report) {
    let Some(first) = episodes.first() else {
        report.violations.push("no episode completed".into());
        return;
    };
    println!(
        "# outcome: uploads={} installs={} weights_hash={:#018x} final_accuracy={:.4} archive={}",
        first.uploaded, first.installs, first.weights_hash, first.final_accuracy, first.archive
    );
    for (k, ep) in episodes.iter().enumerate().skip(1) {
        report.check(ep.outcome() == first.outcome(), || {
            format!(
                "episode {k} ended in (uploads, installs, update bytes, weights hash, \
                 accuracy bits, archive) {:?}, episode 0 in {:?}",
                ep.outcome(),
                first.outcome()
            )
        });
    }
    if w.name == "drift" {
        report.check(first.final_accuracy > accuracy_before, || {
            format!(
                "drift: final accuracy {} does not exceed the accuracy before the loop {}",
                first.final_accuracy, accuracy_before
            )
        });
    }
}

/// The end-to-end metrics of an untraced run.
fn report_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    run: &LoopRun,
    eval_images: usize,
    accuracy_before: f32,
) -> BoxResult<()> {
    let updates: Vec<&UpdateTimes> = run.episodes.iter().flat_map(|e| &e.updates).collect();
    let setup = quantile(setup_s, 0.5).ok_or("no set-up ran")?;
    report.add(
        "setup_s",
        setup.value,
        "s",
        format!("median of {} set-ups {setup_s:?}", setup.n),
    );
    let service: Vec<f64> = run
        .episodes
        .iter()
        .flat_map(|e| &e.frames)
        .map(|f| ms(f.service()))
        .collect();
    report.quantile("frame_ms", &service, FASTEST, "ms", "fastest frame");
    let learn: Vec<f64> = updates
        .iter()
        .map(|u| u.update as f64 / 1e3 / u.archive.max(1) as f64)
        .collect();
    report.quantile("learn_us_per_sample", &learn, FASTEST, "us", "fastest update");
    let install: Vec<f64> = updates.iter().map(|u| ms(u.install)).collect();
    report.quantile("install_ms", &install, FASTEST, "ms", "fastest install");
    if let Some(ep) = run.episodes.first() {
        report.add(
            "link_bytes_per_image",
            ep.link_bytes_per_image(),
            "B/img",
            format!(
                "({} uploads x {IMAGE_BYTES} B + {} B of updates) / {} images",
                ep.uploaded, ep.update_bytes, ep.images
            ),
        );
    }
    report.add("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM at exit");
    if let Some(ep) = run.episodes.first() {
        report.add(
            "final_accuracy",
            f64::from(ep.final_accuracy),
            "fraction",
            format!("{eval_images} held-out images, {accuracy_before:.4} before the loop"),
        );
    }
    Ok(())
}

/// The per-layer metrics of a traced run, from its traced frames.
fn report_layers(report: &mut Report, run: &LoopRun) {
    let frames: Vec<&FrameTimes> = run.episodes.iter().flat_map(|e| &e.frames).collect();
    let traced: Vec<&FrameTimes> = frames.iter().copied().filter(|f| f.traced).collect();
    let updates: Vec<&UpdateTimes> = run
        .episodes
        .iter()
        .flat_map(|e| &e.updates)
        .filter(|u| u.traced)
        .collect();
    let of_frames = |f: fn(&FrameTimes) -> Option<u64>| -> Vec<f64> {
        traced.iter().filter_map(|t| f(t)).map(ms).collect()
    };
    let wait = of_frames(|f| Some(f.wait));
    let stage = of_frames(|f| Some(f.stage));
    let payload = of_frames(|f| f.payload);
    let install: Vec<f64> = updates.iter().map(|u| ms(u.install)).collect();
    let update: Vec<f64> = updates.iter().map(|u| ms(u.update)).collect();
    let forward: Vec<f64> = run.probe_times.forward.iter().map(|&ns| ns / 1e6).collect();
    let diagnosis: Vec<f64> = run
        .probe_times
        .diagnosis
        .iter()
        .map(|&ns| ns / 1e6)
        .collect();

    report.quantile("data.wait_ms", &wait, 0.5, "ms", "next_frame");
    let produced: u64 = run.episodes.iter().map(|e| e.producer.frames).sum();
    let produce_ns: u64 = run
        .episodes
        .iter()
        .map(|e| e.producer.produce_ns_total)
        .sum();
    report.add(
        "data.produce_ms",
        ms(produce_ns) / produced.max(1) as f64,
        "ms",
        format!("producer time per frame over {produced} frames"),
    );
    let fresh = run.episodes.iter().map(|e| e.producer.fresh_buffers).max();
    report.add(
        "data.fresh_buffers",
        fresh.unwrap_or(0) as f64,
        "count",
        format!("max over {} episodes", run.episodes.len()),
    );
    report.quantile("node.stage_ms.p50", &stage, 0.5, "ms", "process_stage");
    report.quantile("node.stage_ms.p90", &stage, 0.9, "ms", "process_stage");
    report.quantile("node.payload_ms.p50", &payload, 0.5, "ms", "upload_payload");
    report.quantile("node.install_ms.p50", &install, 0.5, "ms", "install_update");
    report.quantile("node.install_ms.p90", &install, 0.9, "ms", "install_update");
    if let Some(ep) = run.episodes.first() {
        report.add(
            "node.upload_fraction",
            ep.uploaded as f64 / ep.images.max(1) as f64,
            "fraction",
            format!("{} uploaded of {} seen", ep.uploaded, ep.images),
        );
    }
    report.quantile("nn.forward_ms.p50", &forward, 0.5, "ms", "replica forward");
    report.quantile(
        "diagnosis.ms.p50",
        &diagnosis,
        0.5,
        "ms",
        "replica diagnosis",
    );
    report.quantile(
        "cloud.update_ms.p50",
        &update,
        0.5,
        "ms",
        "incremental_update",
    );
    report.quantile(
        "cloud.update_ms.p90",
        &update,
        0.9,
        "ms",
        "incremental_update",
    );
    if let Some(ep) = run.episodes.first() {
        report.add(
            "cloud.archive_samples",
            ep.archive as f64,
            "count",
            "retained archive at episode end",
        );
        report.add(
            "cloud.training_gop",
            ep.training_ops as f64 / 1e9,
            "Gop",
            "sum of ModelUpdate::training_ops per episode",
        );
        let cache = ep.cache.unwrap_or_default();
        report.add(
            "cloud.cache_hit_rate",
            cache.hit_rate(),
            "fraction",
            format!(
                "{} hits of {} requests",
                cache.hits,
                cache.hits + cache.misses
            ),
        );
        report.add(
            "cloud.cache_mb",
            cache.resident_bytes as f64 / 1e6,
            "MB",
            "resident at episode end",
        );
        report.add(
            "cloud.update_kb",
            ep.update_bytes as f64 / 1e3 / ep.installs.max(1) as f64,
            "kB",
            format!("downlink bytes per update over {} updates", ep.installs),
        );
    }
    let images: u64 = run.episodes.iter().map(|e| e.images).sum();
    let loop_ns: u64 = frames.iter().map(|f| f.total).sum();
    report.add(
        "loop.images_per_s",
        images as f64 / (loop_ns.max(1) as f64 / 1e9),
        "1/s",
        format!("{images} images over the frames' wall time"),
    );
    let fastest = |traced: bool| {
        let service: Vec<f64> = frames
            .iter()
            .filter(|f| f.traced == traced)
            .map(|f| ms(f.service()))
            .collect();
        quantile(&service, FASTEST)
    };
    match (fastest(true), fastest(false)) {
        (Some(t), Some(u)) => report.add(
            "trace.overhead_pct",
            100.0 * (t.value / u.value - 1.0),
            "%",
            format!(
                "fastest frame_ms traced {:.4} (n={}) vs untraced {:.4} (n={})",
                t.value, t.n, u.value, u.n
            ),
        ),
        _ => report
            .violations
            .push("trace.overhead_pct: no traced/untraced frame pair".into()),
    }
}

/// Gates the per-frame reconciliation, prints the self-time table and
/// writes the Chrome trace.
fn write_trace(
    report: &mut Report,
    tracer: &Tracer,
    args: &Args,
    prov: &[(&str, String)],
) -> BoxResult<()> {
    let spans = tracer.spans();
    let rec = reconcile(spans, "loop.frame");
    println!(
        "# reconciliation: {} frames, children cover the root within median {:.4}% \
         max {:.4}% (gate {MAX_RECONCILE_GAP_PCT}%)",
        rec.roots, rec.median_gap_pct, rec.max_gap_pct
    );
    report.check(
        rec.roots > 0 && rec.max_gap_pct <= MAX_RECONCILE_GAP_PCT,
        || {
            format!(
                "reconciliation: max gap {:.4}% over {} frames",
                rec.max_gap_pct, rec.roots
            )
        },
    );
    let rows = self_times(spans);
    let root_ns: u64 = rows
        .iter()
        .filter(|r| r.name == "loop.frame")
        .map(|r| r.total_ns)
        .sum();
    println!(
        "# {:<26} {:>7} {:>12} {:>12} {:>11}",
        "span", "count", "total_ms", "self_ms", "%_of_frames"
    );
    for r in &rows {
        println!(
            "# {:<26} {:>7} {:>12.3} {:>12.3} {:>11.2}",
            r.name,
            r.count,
            ms(r.total_ns),
            ms(r.self_ns),
            100.0 * r.self_ns as f64 / root_ns.max(1) as f64
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    std::fs::write(&path, tracer.chrome_json(prov))?;
    println!("# chrome trace: {} ({} spans)", path.display(), spans.len());
    Ok(())
}

/// Prints the metrics table, the violations and, last, the JSON result.
fn emit(report: &Report, calls: &Calls) {
    for m in &report.metrics {
        println!("{:<24} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    for v in &report.violations {
        println!("# CHECK FAILED: {v}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.violations.is_empty(),
        calls.attempted.max(1),
        calls.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Runs the benchmark; returns the exit code.
fn run(args: &Args) -> BoxResult<i32> {
    let w = args.workload;
    let prov = provenance(args);
    let header: Vec<String> = prov.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# loopbench {}", header.join(" "));
    let mut report = Report::default();

    // Set-up is identical work every time, so every rep must train the
    // same weights.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut trained = None;
    for _ in 0..reps {
        let (parts, secs, hash) = setup(args.seed, w)?;
        setup_s.push(secs);
        if let Some((_, first)) = &trained {
            report.check(*first == hash, || {
                format!("set-up reps trained {first:#x} and {hash:#x}")
            });
        }
        trained = Some((parts, hash));
    }
    let (parts, hash) = trained.ok_or("no set-up ran")?;
    let accuracy_before = deploy(&parts, args.seed, w)?
        .node
        .accuracy_on(&parts.eval, BATCH)?;
    println!("# deployment: weights_hash={hash:#018x} accuracy_before={accuracy_before:.4}");

    let t0 = Instant::now();
    let stream = materialize_stream(args.seed, w)?;
    println!(
        "# stream: {} frames synthesized in {:.3} s",
        stream.len(),
        t0.elapsed().as_secs_f64()
    );
    let run = run_loop(args, &parts, &stream, &mut report);
    check_episodes(w, &run.episodes, accuracy_before, &mut report);
    if args.trace {
        // Session-equivalence gate: the product's session path must
        // reproduce the hand-driven loop.
        if let Some(first) = run.episodes.first() {
            let diffs = session_gate(&parts, args.seed, w, first)?;
            let verdict = if diffs.is_empty() {
                "identical"
            } else {
                "DIVERGED"
            };
            println!("# session gate: {verdict}");
            report.violations.extend(diffs);
        }
        report_layers(&mut report, &run);
        write_trace(&mut report, &run.tracer, args, &prov)?;
    } else {
        report_end_to_end(
            &mut report,
            &setup_s,
            &run,
            parts.eval.len(),
            accuracy_before,
        )?;
    }
    emit(&report, &run.calls);
    Ok(if report.violations.is_empty() { 0 } else { 1 })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The program's own telemetry stays off: the benchmark's spans are
    // its only instrumentation.
    telemetry::set_enabled(false);
    insitu_tensor::set_num_threads(KERNEL_THREADS);
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(1);
        }
    }
}
