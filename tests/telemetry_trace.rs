//! End-to-end telemetry: a traced session produces a valid
//! Chrome trace spanning every layer — tensor kernels, the worker
//! pool, node stages and the Cloud's incremental-update cycles — and
//! disabled telemetry records exactly nothing.
//!
//! Telemetry state is process-global, so the whole scenario lives in
//! one test function (this file is its own test binary).

use insitu::cloud::{pretrain, Cloud, IncrementalConfig, PretrainConfig};
use insitu::core::{
    run_ingested_session, DiagnosisPolicy, IngestSessionConfig, InsituNode, SessionConfig,
    SessionStats,
};
use insitu::data::{Condition, Dataset, ReplaySource};
use insitu::nn::models::mini_alexnet;
use insitu::nn::transfer::transfer_and_freeze;
use insitu::telemetry;
use insitu::telemetry::json::Value;
use insitu::tensor::Rng;
use parking_lot::Mutex;
use std::sync::Arc;

const CLASSES: usize = 4;

fn deployment(seed: u64) -> (InsituNode, Arc<Mutex<Cloud>>) {
    let mut rng = Rng::seed_from(seed);
    let raw = Dataset::generate(30, CLASSES, &Condition::ideal(), &mut rng).unwrap();
    let pre = pretrain(
        &raw,
        &PretrainConfig { permutations: 4, epochs: 1, batch_size: 8, lr: 0.02, threads: None },
        &mut rng,
    )
    .unwrap();
    // An untrained inference net: the Oracle policy then uploads most
    // of the stream, guaranteeing incremental-update traffic.
    let mut inference = mini_alexnet(CLASSES, &mut rng).unwrap();
    transfer_and_freeze(pre.jigsaw.trunk(), &mut inference, 3, 3).unwrap();
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
        IncrementalConfig { epochs: 1, batch_size: 8, lr: 0.01, threads: None, holdout: None },
        seed ^ 2,
    );
    (node, Arc::new(Mutex::new(cloud)))
}

/// Replays three seeded 16-image stages through a fresh deployment at
/// batch 8.
fn session(deployment_seed: u64, stream_seed: u64) -> SessionStats {
    let (node, cloud) = deployment(deployment_seed);
    let mut rng = Rng::seed_from(stream_seed);
    let stream: Vec<Dataset> = (0..3)
        .map(|_| Dataset::generate(16, CLASSES, &Condition::in_situ(), &mut rng).unwrap())
        .collect();
    let config =
        IngestSessionConfig { session: SessionConfig::with_batch(8), ..Default::default() };
    let source = Box::new(ReplaySource::new(Arc::new(stream)));
    run_ingested_session(node, cloud, source, &config).unwrap().1
}

#[test]
fn traced_session_exports_chrome_trace() {
    // --- Disabled: a full session records zero events. ----------------
    telemetry::set_enabled(false);
    telemetry::reset();
    let stats = session(61, 62);
    assert!(stats.images_uploaded > 0, "oracle policy should upload");
    assert!(
        stats.telemetry.is_empty(),
        "disabled telemetry recorded events: {:?}",
        stats.telemetry
    );

    // --- Enabled: the same session traces every layer. ----------------
    // Two kernel threads so the conv batch loop engages the worker pool.
    insitu::tensor::set_num_threads(2);
    telemetry::set_enabled(true);
    telemetry::reset();
    let stats = session(63, 64);
    telemetry::set_enabled(false);
    insitu::tensor::set_num_threads(1);

    let snap = &stats.telemetry;
    for prefix in [
        "tensor.",
        "tensor.pack",
        "tensor.simd.",
        "pool.job",
        "node.stage",
        "cloud.update_cycle",
        "runtime.session",
    ] {
        assert!(snap.has_span(prefix), "missing {prefix} spans:\n{}", snap.summary());
    }
    assert!(snap.counter("pool.jobs", "").unwrap().calls >= 1);
    // The SIMD dispatch layer accounts its traffic per op: the session
    // runs ReLU and maxpool forward on every image, so both ops must
    // show up with nonzero bytes.
    for op in ["tensor.simd.relu", "tensor.simd.maxpool"] {
        assert!(snap.has_span(op), "missing {op} spans:\n{}", snap.summary());
        let bytes: u64 = snap
            .counters
            .iter()
            .filter(|c| c.name == "tensor.simd.bytes" && c.label == op)
            .map(|c| c.total)
            .sum();
        assert!(bytes > 0, "{op} should account bytes:\n{}", snap.summary());
    }
    let gemm_bytes: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "tensor.bytes")
        .map(|c| c.total)
        .sum();
    assert!(gemm_bytes > 0, "kernels should account bytes");
    // The packing arenas grew from cold during this session, and every
    // growth is accounted: pack-vs-compute time and scratch footprints
    // are both visible in the trace.
    let scratch_bytes: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name == "tensor.scratch_bytes")
        .map(|c| c.total)
        .sum();
    assert!(scratch_bytes > 0, "scratch growth should be accounted:\n{}", snap.summary());
    // The frozen-prefix activation cache accounts every sample it is
    // asked for: hits + misses always equals requests, the miss
    // batches ran under the cloud.prefix_forward span (auto-fed into
    // the latency histogram), and admitted entries were billed.
    let cache_total = |name: &str| -> u64 {
        snap.counters.iter().filter(|c| c.name == name).map(|c| c.total).sum()
    };
    let requests = cache_total("cloud.cache.request");
    assert!(requests > 0, "update cycles should route through the cache:\n{}", snap.summary());
    assert_eq!(
        cache_total("cloud.cache.hit") + cache_total("cloud.cache.miss"),
        requests,
        "cache accounting leak:\n{}",
        snap.summary()
    );
    assert!(snap.has_span("cloud.prefix_forward"), "missing prefix-forward spans");
    assert!(cache_total("cloud.cache.bytes") > 0, "admitted entries should be billed");
    // Later update cycles reuse the retained archive's entries.
    assert!(cache_total("cloud.cache.hit") > 0, "archive reuse produced no hits");

    // Node and Cloud actors recorded on distinct threads.
    let session_tid =
        snap.spans.iter().find(|s| s.name == "runtime.session").unwrap().tid;
    let cloud_tid =
        snap.spans.iter().find(|s| s.name == "cloud.update_cycle").unwrap().tid;
    assert_ne!(session_tid, cloud_tid);

    // --- The Chrome trace round-trips through the JSON parser. --------
    let json = snap.chrome_trace_json();
    let doc = telemetry::json::parse(&json).expect("exporter emits valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    for expected in ["node.stage", "cloud.update_cycle", "pool.job", "thread_name"] {
        assert!(names.contains(&expected), "trace lacks {expected}");
    }
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap();
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(ev.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
    }
    // The machine-readable report is valid JSON too.
    assert!(telemetry::json::parse(&snap.to_json()).is_ok());

    telemetry::reset();
}
