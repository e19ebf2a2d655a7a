//! Emits a machine-readable timing snapshot of the packed GEMM
//! kernels as JSON on stdout: one record per (shape, thread-count)
//! pair, in nanoseconds per iteration.
//!
//! ```text
//! cargo run --release -p insitu-bench --bin kernels_snapshot > BENCH_kernels.json
//! ```
//!
//! The snapshot is for diffing across commits. The host core count is
//! recorded, and the thread sweep skips counts above it — on a
//! single-core host a t2/t4 row
//! would measure pool overhead, not speedup (and `plan_parts` caps
//! kernel splits at the host cores anyway, so such rows would just
//! duplicate t1).
//!
//! Each row carries `gflops` (2·M·K·N per iteration over the measured
//! wall time) and, for the shapes with an embedded pre-packing
//! baseline, `baseline_ns_per_iter` + `speedup_vs_baseline` — the
//! before/after record of the packed-kernel rewrite. Every f32 row is
//! paired with a `"precision": "i8"` row timing the fixed-point GEMM
//! on the same shape; i8 rows carry `speedup_vs_f32` measured against
//! the f32 packed time at the same thread count *in this run*, so the
//! ratio is host-noise-free. Rows also carry
//! telemetry counter totals (GEMM calls, bytes per iteration, pool
//! jobs) and dispatch-latency percentiles (`p50_ns`/`p90_ns`/`p99_ns`
//! from the span-fed histogram) from a separate *counted* pass — the timed loop always runs
//! with telemetry disabled, so the ns/iter numbers stay comparable to
//! earlier snapshots. With `INSITU_TRACE=1` the final counted pass's
//! Chrome trace is written to stderr.
//!
//! Every row carries an `isa` field naming the vector body it timed
//! (the GEMM kernel name for GEMM rows, the dispatched ISA for op
//! rows). Besides the env-selected kernel, the sweep emits one
//! `"kind": "kernel"` row per *detected* GEMM kernel per
//! (shape, threads), timed interleaved against the portable
//! `scalar_8x4` kernel — `speedup_vs_scalar` there is a median of
//! per-rep ratios, so cross-ISA comparisons (AVX-512 vs AVX2 vs
//! scalar) are clock-drift-free within a row and can be compared
//! across rows of the same run.
//!
//! After the GEMM sweep the snapshot times the dispatched SIMD ops
//! (`op` rows: relu, maxpool, quantize_i8) at the paper's
//! activation shapes: each row measures the op's scalar body against
//! the auto-selected body interleaved — `speedup_vs_scalar` is a
//! median of per-rep ratios, so clock drift cancels — and reports
//! `gbps` from the op's own byte accounting. The header records which
//! ISA `speedup_vs_scalar` compares against (`simd_isa`); under
//! `INSITU_SIMD=scalar` both legs run the same body and the ratio
//! hovers at 1.
//!
//! `--quick` runs a shortened sweep (fewer timing reps) for CI smoke:
//! same fields, noisier numbers.

use insitu_telemetry as telemetry;
use insitu_tensor::simd::{
    dispatch_on, simd_isa_name, Isa, MaxPool2d, QuantizeI8, ReluTrain, SimdOp,
};
use insitu_tensor::{
    gemm_kernel_name, gemm_kernels_supported, matmul_i8_with_kernel, matmul_with_kernel,
    matmul_ws, max_abs, quant_scale, quantize_i8, set_num_threads, GemmScratch, PoolGeometry, Rng,
    Tensor,
};
use std::fmt::Write as _;
use std::time::Instant;

/// im2col GEMM shapes of the reproduction's networks (per-sample
/// position count × batch 8), plus one square control.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("alex_conv2_b8", 24, 144, 324 * 8),
    ("alex_conv3_b8", 32, 216, 81 * 8),
    ("jigsaw_conv2_b8", 24, 144, 16 * 8),
    ("square_128", 128, 128, 128),
];

/// Single-thread ns/iter of the pre-packing cache-blocked kernel on
/// the reference host (commit 7dce89d), kept as the fixed "before" the
/// `speedup_vs_baseline` field is measured against.
const BASELINE_NS: &[(&str, u128)] = &[
    ("alex_conv2_b8", 1_812_097),
    ("alex_conv3_b8", 855_665),
    ("jigsaw_conv2_b8", 89_263),
    ("square_128", 404_629),
];

const THREADS: &[usize] = &[1, 2, 4];

/// Median-of-reps wall time per call, in nanoseconds.
fn time_matmul(a: &Tensor, b: &Tensor, scratch: &mut GemmScratch, quick: bool) -> u128 {
    // Warm-up: touches the buffers, grows the packing scratch to its
    // steady-state size and spins up any pool workers.
    for _ in 0..3 {
        std::hint::black_box(matmul_ws(a, b, scratch).unwrap());
    }
    let (reps, iters) = if quick { (3, 3u32) } else { (7, 10u32) };
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(matmul_ws(a, b, scratch).unwrap());
            }
            start.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times the i8 GEMM (on the process-selected kernel) interleaved
/// with the f32 GEMM on the same operands: each rep measures both back
/// to back, so `speedup_vs_f32` is a median of per-rep ratios and clock
/// drift between the two measurements cancels out. Returns (i8
/// ns/iter, speedup vs f32).
fn time_matmul_i8_vs_f32(
    a: &Tensor,
    b: &Tensor,
    qa: &[i8],
    qb: &[i8],
    scratch: &mut GemmScratch,
    quick: bool,
) -> (u128, f64) {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let kernel = gemm_kernel_name();
    let i8_gemm = |s: &mut GemmScratch| matmul_i8_with_kernel(qa, qb, m, k, n, kernel, s).unwrap();
    for _ in 0..3 {
        std::hint::black_box(matmul_ws(a, b, scratch).unwrap());
        std::hint::black_box(i8_gemm(scratch));
    }
    let (reps, iters) = if quick { (3, 3u32) } else { (7, 10u32) };
    let mut i8_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(matmul_ws(a, b, scratch).unwrap());
        }
        let f32_sample = start.elapsed().as_nanos() / u128::from(iters);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(i8_gemm(scratch));
        }
        let i8_sample = start.elapsed().as_nanos() / u128::from(iters);
        i8_ns.push(i8_sample);
        ratios.push(f32_sample.max(1) as f64 / i8_sample.max(1) as f64);
    }
    i8_ns.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (i8_ns[i8_ns.len() / 2], ratios[ratios.len() / 2])
}

/// Times one named GEMM kernel interleaved with the portable
/// `scalar_8x4` kernel on the same operands, so the reported speedup
/// is a drift-free median of per-rep ratios. Returns
/// `(kernel ns/iter, scalar ns/iter, speedup_vs_scalar)`.
fn time_kernel_vs_scalar(
    a: &Tensor,
    b: &Tensor,
    kernel: &str,
    scratch: &mut GemmScratch,
    quick: bool,
) -> (u128, u128, f64) {
    for _ in 0..3 {
        std::hint::black_box(matmul_with_kernel(a, b, "scalar_8x4", scratch).unwrap());
        std::hint::black_box(matmul_with_kernel(a, b, kernel, scratch).unwrap());
    }
    let (reps, iters) = if quick { (3, 3u32) } else { (7, 10u32) };
    let mut ker_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut sca_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(matmul_with_kernel(a, b, "scalar_8x4", scratch).unwrap());
        }
        let s = start.elapsed().as_nanos() / u128::from(iters);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(matmul_with_kernel(a, b, kernel, scratch).unwrap());
        }
        let v = start.elapsed().as_nanos() / u128::from(iters);
        sca_ns.push(s);
        ker_ns.push(v);
        ratios.push(s.max(1) as f64 / v.max(1) as f64);
    }
    ker_ns.sort_unstable();
    sca_ns.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (ker_ns[ker_ns.len() / 2], sca_ns[sca_ns.len() / 2], ratios[ratios.len() / 2])
}

/// Times a SIMD op's scalar body against its auto-selected body,
/// interleaved per rep so the ratio is drift-free. Returns
/// `(selected ns/iter, scalar ns/iter, speedup_vs_scalar)`.
fn time_simd_pair(
    quick: bool,
    scalar: &mut dyn FnMut(),
    selected: &mut dyn FnMut(),
) -> (u128, u128, f64) {
    for _ in 0..3 {
        scalar();
        selected();
    }
    let (reps, iters) = if quick { (3, 5u32) } else { (7, 20u32) };
    let mut sel_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut sca_ns: Vec<u128> = Vec::with_capacity(reps);
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            scalar();
        }
        let s = start.elapsed().as_nanos() / u128::from(iters);
        let start = Instant::now();
        for _ in 0..iters {
            selected();
        }
        let v = start.elapsed().as_nanos() / u128::from(iters);
        sca_ns.push(s);
        sel_ns.push(v);
        ratios.push(s.max(1) as f64 / v.max(1) as f64);
    }
    sel_ns.sort_unstable();
    sca_ns.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (sel_ns[sel_ns.len() / 2], sca_ns[sca_ns.len() / 2], ratios[ratios.len() / 2])
}

/// Appends one `op` row.
#[allow(clippy::too_many_arguments)]
fn push_op_row(
    rows: &mut String,
    op: &str,
    isa: &str,
    n: usize,
    threads: usize,
    bytes: u64,
    ns: u128,
    scalar_ns: u128,
    speedup: f64,
) {
    if !rows.is_empty() {
        rows.push_str(",\n");
    }
    let gbps = bytes as f64 / ns.max(1) as f64;
    let _ = write!(
        rows,
        "    {{\"op\": \"{op}\", \"isa\": \"{isa}\", \"n\": {n}, \"threads\": {threads}, \
         \"ns_per_iter\": {ns}, \"scalar_ns_per_iter\": {scalar_ns}, \
         \"gbps\": {gbps:.2}, \"speedup_vs_scalar\": {speedup:.2}}}"
    );
}

/// Iterations of the separately-counted (telemetry-enabled) pass.
const COUNT_ITERS: u64 = 10;

/// Runs a telemetry-enabled pass over the same GEMM and returns its
/// snapshot. Kept apart from [`time_matmul`] so tracing overhead never
/// touches the timed numbers.
fn counted_pass(
    a: &Tensor,
    b: &Tensor,
    scratch: &mut GemmScratch,
) -> telemetry::TelemetrySnapshot {
    telemetry::set_enabled(true);
    telemetry::reset();
    for _ in 0..COUNT_ITERS {
        std::hint::black_box(matmul_ws(a, b, scratch).unwrap());
    }
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);
    telemetry::reset();
    snap
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let want_trace = telemetry::init_from_env();
    telemetry::set_enabled(false); // the counted passes open their own windows
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rng = Rng::seed_from(7);
    let mut rows = String::new();
    let mut last_snap = telemetry::TelemetrySnapshot::default();
    // One warm arena for every timed GEMM, as a layer in a training
    // loop owns one.
    let mut scratch = GemmScratch::new();
    for &(name, m, k, n) in SHAPES {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        // Fixed-point copies of the same operands for the i8 rows.
        let mut qa = vec![0i8; m * k];
        let mut qb = vec![0i8; k * n];
        quantize_i8(a.as_slice(), quant_scale(max_abs(a.as_slice())), &mut qa);
        quantize_i8(b.as_slice(), quant_scale(max_abs(b.as_slice())), &mut qb);
        let baseline =
            BASELINE_NS.iter().find(|(bn, _)| *bn == name).map(|&(_, ns)| ns);
        for &t in THREADS {
            if t > cores {
                continue; // the row would duplicate t1 (plan_parts caps at cores)
            }
            set_num_threads(t);
            let ns = time_matmul(&a, &b, &mut scratch, quick);
            let flops = 2.0 * m as f64 * k as f64 * n as f64;
            let gflops = flops / ns.max(1) as f64;
            let snap = counted_pass(&a, &b, &mut scratch);
            let gemm_calls = snap
                .counter("tensor.gemm_nn", &format!("{m}x{k}x{n}"))
                .map_or(0, |c| c.calls);
            let bytes_per_iter =
                snap.counter("tensor.bytes", "gemm_nn").map_or(0, |c| c.total / COUNT_ITERS);
            let pool_jobs = snap.counter("pool.jobs", "").map_or(0, |c| c.calls);
            // Dispatch-latency percentiles from the span auto-feed
            // histogram of the same counted pass.
            let (p50_ns, p90_ns, p99_ns) =
                snap.hist("tensor.gemm_nn", "").map_or((0, 0, 0), |h| (h.p50, h.p90, h.p99));
            last_snap = snap;
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "    {{\"shape\": \"{name}\", \"precision\": \"f32\", \
                 \"isa\": \"{kernel}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"threads\": {t}, \"ns_per_iter\": {ns}, \"gflops\": {gflops:.2}, \
                 \"gemm_calls\": {gemm_calls}, \"bytes_per_iter\": {bytes_per_iter}, \
                 \"pool_jobs\": {pool_jobs}, \"p50_ns\": {p50_ns}, \"p90_ns\": {p90_ns}, \
                 \"p99_ns\": {p99_ns}",
                kernel = gemm_kernel_name()
            );
            // The baseline is single-threaded; compare only t1 rows.
            if let (Some(base), 1) = (baseline, t) {
                let speedup = base as f64 / ns.max(1) as f64;
                let _ = write!(
                    rows,
                    ", \"baseline_ns_per_iter\": {base}, \"speedup_vs_baseline\": {speedup:.2}"
                );
            }
            rows.push('}');
            // Paired i8 row: same shape and thread count, fixed-point
            // kernel, timed interleaved with f32 so the ratio is
            // drift-free.
            let (ns_i8, speedup_vs_f32) =
                time_matmul_i8_vs_f32(&a, &b, &qa, &qb, &mut scratch, quick);
            let gops_i8 = flops / ns_i8.max(1) as f64;
            let _ = write!(
                rows,
                ",\n    {{\"shape\": \"{name}\", \"precision\": \"i8\", \
                 \"isa\": \"{kernel}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"threads\": {t}, \"ns_per_iter\": {ns_i8}, \"gflops\": {gops_i8:.2}, \
                 \"speedup_vs_f32\": {speedup_vs_f32:.2}}}",
                kernel = gemm_kernel_name()
            );
            // One cross-ISA row per detected kernel, each timed
            // interleaved with the portable kernel so the speedups are
            // drift-free and comparable across rows of this run.
            for kernel in gemm_kernels_supported() {
                let (kns, sns, sp) = time_kernel_vs_scalar(&a, &b, kernel, &mut scratch, quick);
                let kgf = flops / kns.max(1) as f64;
                let _ = write!(
                    rows,
                    ",\n    {{\"shape\": \"{name}\", \"precision\": \"f32\", \
                     \"kind\": \"kernel\", \"isa\": \"{kernel}\", \
                     \"m\": {m}, \"k\": {k}, \"n\": {n}, \"threads\": {t}, \
                     \"ns_per_iter\": {kns}, \"gflops\": {kgf:.2}, \
                     \"scalar_ns_per_iter\": {sns}, \"speedup_vs_scalar\": {sp:.2}}}"
                );
            }
        }
    }

    // ---- Dispatched SIMD ops at the paper's activation shapes. ------
    // conv1 activation of the mini-AlexNet at batch 8: (8, 16, 36, 36).
    let sel = Isa::select();
    let n_act: usize = 8 * 16 * 36 * 36;
    let act: Vec<f32> = (0..n_act).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let inv_scale = 1.0 / quant_scale(max_abs(&act));
    let g = PoolGeometry::new(16, 36, 36, 2, 2).unwrap();
    let planes = 8 * 16;
    let out_len = planes * g.out_h * g.out_w;
    for &t in THREADS {
        if t > cores {
            continue;
        }
        set_num_threads(t);

        // relu: train-mode forward (clamp + bit-packed keep mask).
        {
            let mut buf_s = act.clone();
            let mut mask_s = vec![0u8; n_act.div_ceil(8)];
            let mut buf_v = act.clone();
            let mut mask_v = vec![0u8; n_act.div_ceil(8)];
            let bytes = ReluTrain { buf: &mut buf_s, mask: &mut mask_s }.bytes();
            let (ns, sns, sp) = time_simd_pair(
                quick,
                &mut || {
                    dispatch_on(
                        Isa::Scalar,
                        ReluTrain { buf: &mut buf_s, mask: &mut mask_s },
                    )
                },
                &mut || dispatch_on(sel, ReluTrain { buf: &mut buf_v, mask: &mut mask_v }),
            );
            push_op_row(&mut rows, "relu", sel.name(), n_act, t, bytes, ns, sns, sp);
        }

        // maxpool: 2x2 stride-2 forward with argmax.
        {
            let mut out_s = vec![0f32; out_len];
            let mut arg_s = vec![0usize; out_len];
            let mut out_v = vec![0f32; out_len];
            let mut arg_v = vec![0usize; out_len];
            let bytes =
                MaxPool2d { x: &act, g, planes, out: &mut out_s, argmax: &mut arg_s }.bytes();
            let (ns, sns, sp) = time_simd_pair(
                quick,
                &mut || {
                    dispatch_on(
                        Isa::Scalar,
                        MaxPool2d { x: &act, g, planes, out: &mut out_s, argmax: &mut arg_s },
                    )
                },
                &mut || {
                    dispatch_on(
                        sel,
                        MaxPool2d { x: &act, g, planes, out: &mut out_v, argmax: &mut arg_v },
                    )
                },
            );
            push_op_row(&mut rows, "maxpool", sel.name(), n_act, t, bytes, ns, sns, sp);
        }

        // quantize_i8: f32 -> i8 at the calibration scale.
        {
            let mut dst_s = vec![0i8; n_act];
            let mut dst_v = vec![0i8; n_act];
            let bytes = QuantizeI8 { src: &act, inv_scale, dst: &mut dst_s }.bytes();
            let (ns, sns, sp) = time_simd_pair(
                quick,
                &mut || {
                    dispatch_on(Isa::Scalar, QuantizeI8 { src: &act, inv_scale, dst: &mut dst_s })
                },
                &mut || dispatch_on(sel, QuantizeI8 { src: &act, inv_scale, dst: &mut dst_v }),
            );
            push_op_row(&mut rows, "quantize_i8", sel.name(), n_act, t, bytes, ns, sns, sp);
        }
    }
    set_num_threads(1);
    if want_trace {
        // Smoke for the exporter pipeline: the last counted pass as a
        // Chrome trace on stderr (stdout stays pure snapshot JSON).
        eprintln!("{}", last_snap.chrome_trace_json());
    }
    // Plain write, not println!: a downstream `head` closing the pipe
    // early is not worth a panic.
    use std::io::Write as _;
    let isas: Vec<String> =
        Isa::supported().iter().map(|i| format!("\"{}\"", i.name())).collect();
    let kernels: Vec<String> =
        gemm_kernels_supported().iter().map(|k| format!("\"{k}\"")).collect();
    let _ = writeln!(
        std::io::stdout(),
        "{{\n  \"bench\": \"packed_gemm\",\n  \"host_cores\": {cores},\n  \
         \"kernel\": \"{}\",\n  \"simd_isa\": \"{}\",\n  \
         \"isas_supported\": [{}],\n  \"gemm_kernels\": [{}],\n  \"quick\": {quick},\n  \
         \"results\": [\n{rows}\n  ]\n}}",
        gemm_kernel_name(),
        simd_isa_name(),
        isas.join(", "),
        kernels.join(", ")
    );
}
