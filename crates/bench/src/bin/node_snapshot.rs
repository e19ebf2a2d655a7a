//! Emits a machine-readable timing snapshot of the co-running stage
//! pipeline as JSON on stdout: one record per diagnosis policy,
//! comparing the fused fast path (per-stage logit cache +
//! tile-embedding reuse) against the unfused reference that recomputes
//! every forward.
//!
//! ```text
//! cargo run --release -p insitu-bench --bin node_snapshot > BENCH_node.json
//! ```
//!
//! Paper shapes: Mini-AlexNet inference over 36×36×3 images, the
//! 24-permutation jigsaw diagnosis network sharing conv1–conv3, one
//! acquisition stage of 32 images at batch 8. Timed loops run with
//! telemetry disabled; a separate counted pass per pipeline records
//! `jigsaw.trunk_passes`, the direct witness of the reuse (fused:
//! one per image; unfused under `JigsawProbe{3}`: three per image),
//! plus the stage latency histograms (`stage_p50/p90/p99_ns`,
//! `per_image_p50/p99_ns` per row). The header carries the GEMM
//! kernel and SIMD ISA in force and the counted pass's telemetry
//! totals; a `replan` record re-runs the planner on the measured
//! profile, and the counted probe pass's snapshot must export valid
//! Prometheus text (dumped on stderr under `INSITU_METRICS=1`) or the
//! process exits non-zero.
//!
//! Before any timing, both pipelines are run once from the same seed
//! and their outcomes compared bit-for-bit; a divergence makes the
//! process exit non-zero, so CI smoke-running this binary doubles as
//! an end-to-end equivalence check.
//!
//! A final `precision_compare` record times the same fused stage at
//! `InferencePrecision::I8` against f32 on one node pair
//! (interleaved reps, so the ratio is host-drift-free) and reports the
//! held-out accuracy delta in points — the measured numbers behind the
//! planner's `QuantProfile`.
//!
//! An `update_cache` record compares the Cloud's incremental update
//! cycle with and without the frozen-prefix activation cache:
//! interleaved cycles over the same upload schedule, per-cycle
//! `ModelUpdate`s compared bit-for-bit (divergence exits non-zero),
//! warm-cycle ns plus hit rate and resident cache bytes reported.
//!
//! An `ingest_overlap` record compares the sequential
//! materialize-then-replay session with the producer synthesizing
//! frames while the node computes, over the same synthetic drift
//! stream, gated on the Block-policy lockstep trajectories (counts and
//! final weights bit-for-bit equal, or the process exits non-zero),
//! and reports the ingest queue-depth percentiles and the frame
//! arena's allocation discipline.
//!
//! `--quick` shortens the timing sweep for CI smoke: same fields,
//! noisier numbers.

use insitu_cloud::{Cloud, IncrementalConfig, Pretrained};
use insitu_core::{
    diagnose, diagnose_with_logits, plan, run_ingested_session, Availability, CloudEndpoint,
    CostSource, DiagnosisPolicy, IngestPolicy, IngestSessionConfig, InsituNode, MeasuredProfile,
    ModelUpdate, PlanRequest, SessionConfig, StageOutcome,
};
use insitu_data::{
    Condition, Dataset, DriftSchedule, PermutationSet, ReplaySource, SyntheticDriftSource,
};
use insitu_devices::NetworkShapes;
use insitu_nn::models::{jigsaw_network, mini_alexnet};
use insitu_nn::serialize::state_dict;
use insitu_nn::transfer::transfer_and_freeze;
use insitu_nn::{JigsawNet, Sequential};
use insitu_telemetry as telemetry;
use insitu_tensor::{gemm_kernel_name, Rng, Tensor};
use insitu_tensor::simd::simd_isa_name;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const IMAGES: usize = 32;
const BATCH: usize = 8;
const CLASSES: usize = 8;
const PERMS: usize = 24;
const SEED: u64 = 1337;

const POLICIES: &[(&str, DiagnosisPolicy)] = &[
    ("jigsaw_probe_3", DiagnosisPolicy::JigsawProbe { probes: 3 }),
    ("jigsaw_confidence", DiagnosisPolicy::JigsawConfidence { threshold: 0.5 }),
    ("inference_confidence", DiagnosisPolicy::InferenceConfidence { threshold: 0.5 }),
    ("oracle", DiagnosisPolicy::Oracle),
];

/// The deployed pair plus the permutation set, freshly seeded.
fn make_parts() -> (Sequential, JigsawNet, PermutationSet) {
    let mut rng = Rng::seed_from(SEED);
    let jigsaw = jigsaw_network(PERMS, &mut rng).expect("jigsaw net");
    let mut inference = mini_alexnet(CLASSES, &mut rng).expect("inference net");
    transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3).expect("transfer");
    let set = PermutationSet::generate(PERMS, &mut rng).expect("perm set");
    (inference, jigsaw, set)
}

fn make_node(policy: DiagnosisPolicy) -> InsituNode {
    let (inference, jigsaw, set) = make_parts();
    let mut node =
        InsituNode::new(inference, jigsaw, set, policy, 3, SEED ^ 0x5A).expect("node");
    node.prewarm(BATCH).expect("prewarm");
    node
}

fn stage_data() -> Dataset {
    Dataset::generate(IMAGES, CLASSES, &Condition::in_situ(), &mut Rng::seed_from(SEED + 1))
        .expect("stage data")
}

/// (predictions, verdict bits, upload selection, uploaded bytes).
type OutcomeBits = (Vec<usize>, Vec<(bool, u32)>, Vec<usize>, u64);

fn outcome_bits(o: &StageOutcome) -> OutcomeBits {
    (
        o.predictions.clone(),
        o.verdicts.iter().map(|v| (v.valuable, v.score.to_bits())).collect(),
        o.valuable.clone(),
        o.uploaded_bytes,
    )
}

/// Median-of-reps wall time of one full stage, in nanoseconds.
fn time_stage(
    node: &mut InsituNode,
    data: &Dataset,
    quick: bool,
    run: impl Fn(&mut InsituNode, &Dataset) -> StageOutcome,
) -> u128 {
    // Warm-up beyond prewarm: settle the branch predictors and any
    // first-touch page faults in the freshly grown workspaces.
    std::hint::black_box(run(node, data));
    let reps = if quick { 3 } else { 9 };
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run(node, data));
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median-of-reps wall time of the diagnosis layer alone (the part the
/// reuse layer accelerates; the stage numbers fold in the inference
/// forward both pipelines pay identically), in nanoseconds.
fn time_diagnosis(data: &Dataset, policy: DiagnosisPolicy, quick: bool, fused: bool) -> u128 {
    let (mut inference, mut jigsaw, set) = make_parts();
    // Warm the workspaces the same way the node does, then precompute
    // the logit cache the fused path would receive from the stage.
    inference
        .predict(&Tensor::zeros([BATCH, 3, 36, 36]))
        .expect("inference prewarm");
    let mut logit_chunks = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let end = (start + BATCH).min(data.len());
        let sub = data.subset_range(start..end).expect("chunk");
        logit_chunks.push(inference.predict(sub.images()).expect("logits"));
        start = end;
    }
    let mut rng = Rng::seed_from(SEED ^ 0x5A);
    let mut run = |rng: &mut Rng| {
        if fused {
            diagnose_with_logits(policy, &logit_chunks, &mut jigsaw, &set, data, rng)
        } else {
            diagnose(policy, &mut inference, &mut jigsaw, &set, data, BATCH, rng)
        }
        .expect("diagnosis")
    };
    std::hint::black_box(run(&mut rng));
    let reps = if quick { 3 } else { 9 };
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run(&mut rng));
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times the fused stage at i8 against f32 on two identically seeded
/// nodes, interleaving the reps so clock drift cancels out of the
/// ratio. Returns (f32 ns, i8 ns, median per-rep speedup).
fn time_stage_i8_vs_f32(
    f32_node: &mut InsituNode,
    i8_node: &mut InsituNode,
    data: &Dataset,
    quick: bool,
) -> (u128, u128, f64) {
    let run = |n: &mut InsituNode| std::hint::black_box(n.process_stage(data, BATCH).expect("stage"));
    run(f32_node);
    run(i8_node);
    let reps = if quick { 3 } else { 9 };
    let mut f32_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut i8_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        run(f32_node);
        let f = t0.elapsed().as_nanos();
        let t0 = Instant::now();
        run(i8_node);
        let q = t0.elapsed().as_nanos();
        f32_ns.push(f);
        i8_ns.push(q);
        ratios.push(f.max(1) as f64 / q.max(1) as f64);
    }
    f32_ns.sort_unstable();
    i8_ns.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (f32_ns[reps / 2], i8_ns[reps / 2], ratios[reps / 2])
}

/// Interleaves cached and uncached Cloud update cycles on the paper
/// shapes: two identically seeded Clouds (conv1–3 frozen, the
/// deployment recipe) consume the identical upload schedule; one
/// serves fine-tunes through the frozen-prefix activation cache, the
/// other recomputes the prefix every epoch. Every cycle's
/// `ModelUpdate` pair is compared bit-for-bit (the cache's contract),
/// and the warm cycles — where the retained archive produces hits —
/// are timed pairwise. Returns the JSON record plus the equivalence
/// verdict.
fn update_cache_row(quick: bool) -> (String, bool) {
    const UPLOAD: usize = 16;
    const EPOCHS: usize = 2;
    let cycles: usize = if quick { 3 } else { 5 };
    let make_cloud = || {
        let (inference, jigsaw, set) = make_parts();
        let pre = Pretrained { jigsaw, set, task_accuracy: 0.0, ops: 0 };
        let cfg = IncrementalConfig {
            epochs: EPOCHS,
            batch_size: BATCH,
            lr: 0.01,
            threads: None,
            holdout: None,
        };
        Cloud::new(inference, pre, cfg, SEED ^ 0x33)
    };
    let mut cached = make_cloud();
    let mut uncached = make_cloud().without_activation_cache();
    let uploads: Vec<Dataset> = {
        let mut rng = Rng::seed_from(SEED + 4);
        (0..cycles)
            .map(|_| {
                Dataset::generate(UPLOAD, CLASSES, &Condition::in_situ(), &mut rng)
                    .expect("upload data")
            })
            .collect()
    };
    let mut identical = true;
    let (mut cached_warm_ns, mut uncached_warm_ns) = (0u128, 0u128);
    for (cycle, upload) in uploads.iter().enumerate() {
        let t0 = Instant::now();
        let ua = cached.incremental_update(upload).expect("cached update");
        let cached_ns = t0.elapsed().as_nanos();
        let t0 = Instant::now();
        let ub = uncached.incremental_update(upload).expect("uncached update");
        let uncached_ns = t0.elapsed().as_nanos();
        identical &= ua == ub;
        // Cycle 0 is cold for both sides; the archive-reuse cycles are
        // where the cache pays off.
        if cycle > 0 {
            cached_warm_ns += cached_ns;
            uncached_warm_ns += uncached_ns;
        }
    }
    let stats = cached.cache_stats().expect("cache enabled");
    let warm = cycles.saturating_sub(1).max(1) as u128;
    let speedup = uncached_warm_ns as f64 / cached_warm_ns.max(1) as f64;
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"cycles\": {cycles}, \"upload_per_cycle\": {UPLOAD}, \"epochs\": {EPOCHS}, \
         \"archive_len\": {}, \"cached_ns_per_cycle\": {}, \"uncached_ns_per_cycle\": {}, \
         \"speedup\": {speedup:.2}, \"hit_rate\": {:.4}, \"cache_bytes\": {}, \
         \"cache_entries\": {}, \"evictions\": {}, \"identical\": {identical}}}",
        cached.archive_len(),
        cached_warm_ns / warm,
        uncached_warm_ns / warm,
        stats.hit_rate(),
        stats.resident_bytes,
        stats.entries,
        stats.evictions
    );
    (row, identical)
}

/// A trivially fast Cloud double for the ingestion sessions: echoes
/// back the same weights, so two sessions fed identical uploads in
/// identical order install identical updates.
#[derive(Debug)]
struct EchoCloud {
    params: Vec<Tensor>,
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

/// The overlapped-ingestion record: sequential (materialize the whole
/// synthetic stream, then replay it through the session) against the
/// producer generating frame *N+1* while the node computes stage *N*,
/// interleaved reps. Gated on the lockstep trajectories — the
/// synthesized and the replayed `Block` sessions with lockstep uploads
/// must agree on `SessionStats` and final weights bit for bit — and
/// reports the counted pass's queue-depth percentiles plus the arena's
/// allocation discipline (`fresh_buffers` stays bounded by the queue
/// capacity, never the stream length). Returns the JSON record plus
/// the equivalence verdict.
fn ingest_overlap_row(quick: bool) -> (String, bool) {
    let frames = if quick { 4 } else { 8 };
    const QUEUE_CAP: usize = 4;
    let policy = DiagnosisPolicy::JigsawProbe { probes: 3 };
    let schedule = DriftSchedule { start: 0.2, step: 0.1 };
    let make_source = || {
        SyntheticDriftSource::new(frames, IMAGES, CLASSES, schedule, SEED + 5).expect("source")
    };
    // Sequential ingestion: the whole stream up front, then replayed.
    let replayed = || {
        let stream = make_source().materialize().expect("materialize");
        Box::new(ReplaySource::new(Arc::new(stream)))
    };
    let params = {
        let mut n = make_node(policy);
        state_dict(n.inference_mut())
    };
    let echo = || Arc::new(Mutex::new(EchoCloud { params: params.clone(), version: 0 }));
    // Equivalence gate first: lockstep uploads + the lossless Block
    // policy make a session's trajectory deterministic; the replayed
    // and the live-synthesized sessions must agree bit for bit.
    let lockstep = SessionConfig { batch_size: BATCH, uplink_capacity: 4, lockstep_uploads: true };
    let identical = {
        let cfg = IngestSessionConfig {
            session: lockstep,
            queue_capacity: QUEUE_CAP,
            policy: IngestPolicy::Block,
        };
        let (mut na, sa, _) = run_ingested_session(make_node(policy), echo(), replayed(), &cfg)
            .expect("sequential session");
        let (mut nb, sb, _) =
            run_ingested_session(make_node(policy), echo(), Box::new(make_source()), &cfg)
                .expect("overlapped session");
        sa == sb
            && na.version() == nb.version()
            && state_dict(na.inference_mut()) == state_dict(nb.inference_mut())
    };
    // Timed interleaved reps, production-shaped (no lockstep): the
    // sequential side pays materialize-then-compute in series, the
    // overlapped side hides generation behind the stage compute. Node
    // and Cloud construction stay outside the clock.
    let session = SessionConfig { batch_size: BATCH, uplink_capacity: 4, lockstep_uploads: false };
    let cfg = IngestSessionConfig {
        session,
        queue_capacity: QUEUE_CAP,
        policy: IngestPolicy::Block,
    };
    let reps = if quick { 3 } else { 5 };
    let mut seq_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut ovl_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut summary = insitu_core::IngestSummary::default();
    for _ in 0..reps {
        let node = make_node(policy);
        let cloud = echo();
        let t0 = Instant::now();
        let _ = run_ingested_session(node, cloud, replayed(), &cfg).expect("sequential session");
        seq_ns.push(t0.elapsed().as_nanos());
        let node = make_node(policy);
        let cloud = echo();
        let t0 = Instant::now();
        let (_, _, s) = run_ingested_session(node, cloud, Box::new(make_source()), &cfg)
            .expect("overlapped session");
        ovl_ns.push(t0.elapsed().as_nanos());
        summary = s;
    }
    seq_ns.sort_unstable();
    ovl_ns.sort_unstable();
    let sequential_ns = seq_ns[reps / 2];
    let overlapped_ns = ovl_ns[reps / 2];
    let overlap_speedup = sequential_ns as f64 / overlapped_ns.max(1) as f64;
    // Counted pass: one telemetry-enabled overlapped session for the
    // queue-depth distribution the Degrade shed watches.
    telemetry::set_enabled(true);
    telemetry::advance_epoch();
    let (_, stats, _) = run_ingested_session(make_node(policy), echo(), Box::new(make_source()), &cfg)
        .expect("counted overlapped session");
    telemetry::set_enabled(false);
    telemetry::reset();
    let (depth_p50, depth_p90, _) =
        hist_percentiles(&stats.telemetry, "node.ingest.queue_depth", "");
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"frames\": {frames}, \"images_per_frame\": {IMAGES}, \"batch\": {BATCH}, \
         \"queue_capacity\": {QUEUE_CAP}, \"sequential_ns\": {sequential_ns}, \
         \"overlapped_ns\": {overlapped_ns}, \"overlap_speedup\": {overlap_speedup:.2}, \
         \"queue_depth_p50\": {depth_p50}, \"queue_depth_p90\": {depth_p90}, \
         \"drops\": {}, \"fresh_buffers\": {}, \"reused_buffers\": {}, \"identical\": {identical}}}",
        summary.drops, summary.fresh_buffers, summary.reused_buffers
    );
    (row, identical)
}

/// Stage repetitions of the telemetry-enabled counted pass — enough
/// for the latency histograms to hold a small population while the
/// counter totals stay exact multiples of one stage.
const COUNTED_REPS: u64 = 3;

/// Runs [`COUNTED_REPS`] telemetry-enabled stages in a fresh epoch and
/// returns the snapshot (kept apart from the timed loops so tracing
/// overhead never touches the ns numbers).
fn counted_stage(
    node: &mut InsituNode,
    data: &Dataset,
    run: impl Fn(&mut InsituNode, &Dataset) -> StageOutcome,
) -> telemetry::TelemetrySnapshot {
    telemetry::set_enabled(true);
    telemetry::advance_epoch();
    for _ in 0..COUNTED_REPS {
        std::hint::black_box(run(node, data));
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    snap
}

/// `jigsaw.trunk_passes` per stage in a counted snapshot.
fn trunk_passes(snap: &telemetry::TelemetrySnapshot) -> u64 {
    snap.counter("jigsaw.trunk_passes", "").map_or(0, |c| c.total) / COUNTED_REPS
}

/// `(p50, p90, p99)` of a histogram in a counted snapshot, in ns.
fn hist_percentiles(snap: &telemetry::TelemetrySnapshot, name: &str, label: &str) -> (u64, u64, u64) {
    snap.hist(name, label).map_or((0, 0, 0), |h| (h.p50, h.p90, h.p99))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    telemetry::set_enabled(false);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = insitu_tensor::num_threads();
    let data = stage_data();
    let fused = |n: &mut InsituNode, d: &Dataset| n.process_stage(d, BATCH).expect("stage");
    let unfused =
        |n: &mut InsituNode, d: &Dataset| n.process_stage_unfused(d, BATCH).expect("stage");
    let mut rows = String::new();
    let mut all_identical = true;
    let mut probe_snap = telemetry::TelemetrySnapshot::default();
    for &(name, policy) in POLICIES {
        // Equivalence gate first: same seed, both pipelines, bit-equal
        // outcomes — the reuse layer's contract, checked end to end.
        let identical = {
            let mut a = make_node(policy);
            let mut b = make_node(policy);
            outcome_bits(&fused(&mut a, &data)) == outcome_bits(&unfused(&mut b, &data))
        };
        all_identical &= identical;
        let fused_ns = time_stage(&mut make_node(policy), &data, quick, fused);
        let unfused_ns = time_stage(&mut make_node(policy), &data, quick, unfused);
        let speedup = unfused_ns as f64 / fused_ns.max(1) as f64;
        let diag_fused_ns = time_diagnosis(&data, policy, quick, true);
        let diag_unfused_ns = time_diagnosis(&data, policy, quick, false);
        let diag_speedup = diag_unfused_ns as f64 / diag_fused_ns.max(1) as f64;
        let fused_snap = counted_stage(&mut make_node(policy), &data, fused);
        let unfused_snap = counted_stage(&mut make_node(policy), &data, unfused);
        let passes_fused = trunk_passes(&fused_snap);
        let passes_unfused = trunk_passes(&unfused_snap);
        // Latency histograms from the counted pass: per-stage wall time
        // (span auto-feed) and the per-image samples the re-planner eats.
        let (stage_p50, stage_p90, stage_p99) = hist_percentiles(&fused_snap, "node.stage", "");
        let (img_p50, _, img_p99) = hist_percentiles(&fused_snap, "node.stage_per_image", "f32");
        if name == "jigsaw_probe_3" {
            probe_snap = fused_snap;
        }
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"policy\": \"{name}\", \"images\": {IMAGES}, \"batch\": {BATCH}, \
             \"fused_ns_per_stage\": {fused_ns}, \"unfused_ns_per_stage\": {unfused_ns}, \
             \"speedup\": {speedup:.2}, \"diag_fused_ns\": {diag_fused_ns}, \
             \"diag_unfused_ns\": {diag_unfused_ns}, \"diag_speedup\": {diag_speedup:.2}, \
             \"stage_p50_ns\": {stage_p50}, \"stage_p90_ns\": {stage_p90}, \
             \"stage_p99_ns\": {stage_p99}, \"per_image_p50_ns\": {img_p50}, \
             \"per_image_p99_ns\": {img_p99}, \"trunk_passes_fused\": {passes_fused}, \
             \"trunk_passes_unfused\": {passes_unfused}, \"identical\": {identical}}}"
        );
    }
    // The fixed-point row: same fused stage, i8 inference vs f32, plus
    // the held-out accuracy delta the planner's QuantProfile consumes.
    let precision_row = {
        let calib = Dataset::generate(
            IMAGES,
            CLASSES,
            &Condition::ideal(),
            &mut Rng::seed_from(SEED + 2),
        )
        .expect("calibration data");
        let eval = Dataset::generate(
            2 * IMAGES,
            CLASSES,
            &Condition::ideal(),
            &mut Rng::seed_from(SEED + 3),
        )
        .expect("eval data");
        let policy = DiagnosisPolicy::JigsawProbe { probes: 3 };
        let mut f32_node = make_node(policy);
        let mut i8_node = make_node(policy);
        i8_node.enable_quantized(&calib).expect("calibrate");
        i8_node.prewarm(BATCH).expect("i8 prewarm");
        let acc_f32 = f32_node.accuracy_on(&eval, BATCH).expect("f32 accuracy");
        let acc_i8 = i8_node.accuracy_on(&eval, BATCH).expect("i8 accuracy");
        let delta_points = (acc_i8 - acc_f32) * 100.0;
        let (f32_ns, i8_ns, speedup) =
            time_stage_i8_vs_f32(&mut f32_node, &mut i8_node, &data, quick);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"policy\": \"jigsaw_probe_3\", \"images\": {IMAGES}, \"batch\": {BATCH}, \
             \"f32_ns_per_stage\": {f32_ns}, \"i8_ns_per_stage\": {i8_ns}, \
             \"speedup\": {speedup:.2}, \"acc_f32\": {acc_f32:.4}, \"acc_i8\": {acc_i8:.4}, \
             \"accuracy_delta_points\": {delta_points:.2}}}"
        );
        row
    };
    // The frozen-prefix activation cache: cached vs uncached update
    // cycles, bitwise-gated like the fused/unfused stage pipelines.
    let (update_cache_record, cache_identical) = update_cache_row(quick);
    all_identical &= cache_identical;
    // The overlapped ingestion pipeline: sequential vs producer-driven
    // wall-clock, gated on the Block-policy differential oracle.
    let (ingest_overlap_record, ingest_identical) = ingest_overlap_row(quick);
    all_identical &= ingest_identical;
    // The closed observability loop, exercised on this host's own
    // measurements: distil the counted probe pass into a
    // MeasuredProfile and let the planner re-admit a batch from the
    // measured p90 instead of the analytical device model.
    let replan_row = {
        let measured = probe_snap
            .hist("node.stage_per_image", "f32")
            .and_then(|h| MeasuredProfile::from_hist(&h.hist))
            .expect("counted pass must yield per-image samples");
        let request =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 1.0, max_batch: 128 };
        let mut row = String::new();
        let costs = CostSource::Measured(&measured);
        match plan(&request, &NetworkShapes::alexnet(), costs, None) {
            Ok(plan) => {
                let _ = write!(
                    row,
                    "{{\"measured_per_image_p50_s\": {:.6}, \"measured_per_image_p90_s\": {:.6}, \
                     \"admitted_batch\": {}, \"plan\": \"{}\", \"feasible\": true}}",
                    measured.per_image_p50_s,
                    measured.per_image_p90_s,
                    plan.inference_batch,
                    plan.summary()
                );
            }
            Err(e) => {
                let _ = write!(
                    row,
                    "{{\"measured_per_image_p90_s\": {:.6}, \"feasible\": false, \
                     \"reason\": \"{}\"}}",
                    measured.per_image_p90_s,
                    e.to_string().replace('"', "'")
                );
            }
        }
        row
    };
    // Exporter gate: the counted probe pass must render Prometheus
    // text the checker accepts — this binary doubles as the CI smoke
    // for the export pipeline. `INSITU_METRICS=1` dumps the text on
    // stderr (stdout stays pure snapshot JSON).
    let prometheus = probe_snap.to_prometheus();
    if let Err(e) = telemetry::validate_prometheus(&prometheus) {
        eprintln!("node_snapshot: invalid Prometheus export: {e}");
        std::process::exit(1);
    }
    if std::env::var_os("INSITU_METRICS").is_some() {
        eprint!("{prometheus}");
    }
    let telemetry_header = {
        let stage_spans: u64 =
            probe_snap.counters.iter().filter(|c| c.name == "node.stage").map(|c| c.calls).sum();
        let stage_ns: u64 =
            probe_snap.counters.iter().filter(|c| c.name == "node.stage").map(|c| c.total).sum();
        format!(
            "{{\"epoch\": {}, \"counted_reps\": {COUNTED_REPS}, \"stage_spans\": {stage_spans}, \
             \"stage_total_ns\": {stage_ns}, \"trunk_passes_per_stage\": {}, \
             \"counter_series\": {}, \"hist_series\": {}, \"dropped_events\": {}}}",
            probe_snap.epoch,
            trunk_passes(&probe_snap),
            probe_snap.counters.len(),
            probe_snap.hists.len(),
            probe_snap.dropped_events
        )
    };
    // Plain write, not println!: a downstream `head` closing the pipe
    // early is not worth a panic.
    use std::io::Write as _;
    let _ = writeln!(
        std::io::stdout(),
        "{{\n  \"bench\": \"node_stage\",\n  \"host_cores\": {cores},\n  \
         \"kernel_threads\": {threads},\n  \"kernel\": \"{}\",\n  \"simd_isa\": \"{}\",\n  \
         \"quick\": {quick},\n  \"telemetry\": {telemetry_header},\n  \"results\": [\n{rows}\n  ],\n  \
         \"precision_compare\": {precision_row},\n  \"update_cache\": {update_cache_record},\n  \
         \"ingest_overlap\": {ingest_overlap_record},\n  \"replan\": {replan_row}\n}}",
        gemm_kernel_name(),
        simd_isa_name()
    );
    if !all_identical {
        eprintln!(
            "node_snapshot: an optimized pipeline diverged from its reference \
             (fused stage or cached update cycle)"
        );
        std::process::exit(1);
    }
}
