//! Emits a machine-readable timing snapshot of the packed GEMM
//! kernels as JSON on stdout: one record per (shape, thread-count)
//! pair, in nanoseconds per call.
//!
//! ```text
//! cargo run --release -p insitu-bench --bin kernels_snapshot > BENCH_kernels.json
//! ```
//!
//! The snapshot is for diffing across commits. The host core count is
//! recorded, and the thread sweep skips counts above it — on a
//! single-core host a t2/t4 row
//! would measure pool overhead, not speedup (and the kernels' split
//! is capped at the host cores anyway, so such rows would just
//! duplicate t1).
//!
//! Every row reports one statistic: the fastest of 300 single calls
//! after warm-up (20 under `--quick`), as loopbench does. Host noise
//! only ever adds time, so the fastest call holds through a slow phase
//! where a mean moves with it. A row that compares two bodies (i8
//! against f32, a GEMM kernel or a SIMD op against its scalar body)
//! alternates single calls of the two, so both sides run in the same
//! host phase, and its speedup is the ratio of the two fastest calls.
//!
//! Each GEMM row carries `gflops` (2·M·K·N per call over the fastest
//! call). Every f32 row is paired with a `"precision": "i8"` row timing
//! the fixed-point GEMM on the same shape, alternated with the f32 one:
//! its `speedup_vs_f32` is the f32 row's time over its own. Rows also
//! carry telemetry counter totals (GEMM calls, bytes per call, pool
//! jobs) and dispatch-latency percentiles (`p50_ns`/`p90_ns`/`p99_ns`
//! from the span-fed histogram) from a separate *counted* pass — the
//! timed calls always run with telemetry disabled. With
//! `INSITU_TRACE=1` the final counted pass's Chrome trace is written to
//! stderr.
//!
//! Every row carries an `isa` field naming the vector body it timed
//! (the GEMM kernel name for GEMM rows, the dispatched ISA for op
//! rows). Besides the env-selected kernel, the sweep emits one
//! `"kind": "kernel"` row per *detected* GEMM kernel per
//! (shape, threads), alternated with the portable `scalar_8x4` kernel:
//! `speedup_vs_scalar` there compares the ISAs (AVX-512 vs AVX2 vs
//! scalar) within one run.
//!
//! After the GEMM sweep the snapshot times the dispatched SIMD ops
//! (`op` rows: relu, maxpool, quantize_i8) at the paper's
//! activation shapes: each row alternates the op's scalar body with the
//! auto-selected body, reports `speedup_vs_scalar` as the ratio of
//! their fastest calls and `gbps` from the op's own byte accounting.
//! The header records which ISA `speedup_vs_scalar` compares against
//! (`simd_isa`); under `INSITU_SIMD=scalar` both sides run the same
//! body and the ratio hovers at 1.
//!
//! Last come the `"kind": "conv_layer"` rows: whole calls of the conv
//! entry points at the shapes the loop runs them, each layer on its
//! own warm workspace as a network layer owns one. Inference conv1–5
//! run `conv2d_forward_ws` and `conv2d_forward_i8_ws` on one
//! 16-image chunk; the jigsaw trunk's conv1–5 run both on one
//! diagnosis chunk's 144 tiles (16 images of 9 tiles: diagnosis makes
//! one such call per chunk, and on the trunk's 3×3 planes conv3–5's
//! f32 forward is the dense lowering against the cached filter bank);
//! the Cloud's suffix training runs `conv2d_backward_ws` through
//! conv4–5 at batch 16.
//!
//! `--quick` runs a shortened sweep (20 timed calls per row) for CI
//! smoke: same fields, noisier numbers.

use insitu_telemetry as telemetry;
use insitu_tensor::simd::{
    dispatch_on, simd_isa_name, Isa, MaxPool2d, QuantizeI8, ReluTrain, SimdOp,
};
use insitu_tensor::{
    conv2d_backward_ws, conv2d_forward_i8_ws, conv2d_forward_ws, gemm_kernel_name,
    gemm_kernels_supported, matmul_i8_with_kernel, matmul_with_kernel, matmul_ws, max_abs,
    quant_scale, quantize_i8, set_num_threads, ConvGeometry, ConvWorkspace, GemmScratch,
    PoolGeometry, QuantizedMatrix, Rng, Tensor,
};
use std::fmt::Write as _;
use std::time::Instant;

/// GEMM shapes sized like the networks' conv lowerings folded over a
/// batch of 8 (`n` = positions × 8), plus one square control. They
/// time the GEMM kernels alone: a convolution runs one GEMM per
/// sample, and the `conv_layer` rows time those calls whole.
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("alex_conv2_b8", 24, 144, 324 * 8),
    ("alex_conv3_b8", 32, 216, 81 * 8),
    ("jigsaw_conv2_b8", 24, 144, 16 * 8),
    ("square_128", 128, 128, 128),
];

const THREADS: &[usize] = &[1, 2, 4];

/// The loop's convolutions, all 3×3 with stride 1 and pad 1 (the
/// mini-AlexNet widths 16/24/32/32/24): `(layer, in_channels, plane
/// edge, out_channels)`. Inference runs on 36×36 images, the trunk on
/// 12×12 tiles.
const INFER_CONVS: [(&str, usize, usize, usize); 5] = [
    ("infer_conv1", 3, 36, 16),
    ("infer_conv2", 16, 18, 24),
    ("infer_conv3", 24, 9, 32),
    ("infer_conv4", 32, 9, 32),
    ("infer_conv5", 32, 9, 24),
];
const TRUNK_CONVS: [(&str, usize, usize, usize); 5] = [
    ("trunk_conv1", 3, 12, 16),
    ("trunk_conv2", 16, 6, 24),
    ("trunk_conv3", 24, 3, 32),
    ("trunk_conv4", 32, 3, 32),
    ("trunk_conv5", 32, 3, 24),
];
/// The Cloud trains the suffix behind the freeze cut: conv4–5 of the
/// inference network.
const CLOUD_CONVS: [(&str, usize, usize, usize); 2] =
    [("cloud_conv4", 32, 9, 32), ("cloud_conv5", 32, 9, 24)];

/// Images per inference chunk, tiles per trunk call (one 16-image
/// diagnosis chunk), and the Cloud's training batch.
const INFER_BATCH: usize = 16;
const TRUNK_BATCH: usize = 16 * 9;
const TRAIN_BATCH: usize = 16;

/// Times every `conv_layer` row at one thread count, appending to `rows`.
fn push_conv_rows(rows: &mut String, threads: usize, quick: bool, rng: &mut Rng) {
    let layers = INFER_CONVS
        .iter()
        .map(|&l| (l, INFER_BATCH))
        .chain(TRUNK_CONVS.iter().map(|&l| (l, TRUNK_BATCH)));
    for ((layer, cin, edge, cout), b) in layers {
        let g = ConvGeometry::new(cin, edge, edge, cout, 3, 1, 1).expect("a valid 3x3 geometry");
        let x = Tensor::rand_uniform([b, cin, edge, edge], -1.0, 1.0, rng);
        let w = Tensor::rand_uniform([cout, cin, 3, 3], -0.5, 0.5, rng);
        let bias = Tensor::rand_uniform([cout], -0.1, 0.1, rng);
        let qw = QuantizedMatrix::from_rows(w.as_slice(), cout, g.col_rows())
            .expect("the filter bank flattens to (M, N·K²)");
        let in_scale = quant_scale(max_abs(x.as_slice()));
        let mut ws = ConvWorkspace::new();
        let ns = time_fastest(quick, &mut || {
            std::hint::black_box(conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap());
        });
        push_conv_row(rows, layer, "forward", b, &g, threads, ns);
        let mut ws_i8 = ConvWorkspace::new();
        let ns = time_fastest(quick, &mut || {
            std::hint::black_box(
                conv2d_forward_i8_ws(&x, &qw, &bias, &g, in_scale, &mut ws_i8).unwrap(),
            );
        });
        push_conv_row(rows, layer, "forward_i8", b, &g, threads, ns);
    }
    for (layer, cin, edge, cout) in CLOUD_CONVS {
        let b = TRAIN_BATCH;
        let g = ConvGeometry::new(cin, edge, edge, cout, 3, 1, 1).expect("a valid 3x3 geometry");
        let x = Tensor::rand_uniform([b, cin, edge, edge], -1.0, 1.0, rng);
        let w = Tensor::rand_uniform([cout, cin, 3, 3], -0.5, 0.5, rng);
        let bias = Tensor::rand_uniform([cout], -0.1, 0.1, rng);
        let dout = Tensor::rand_uniform([b, cout, edge, edge], -1.0, 1.0, rng);
        let mut ws = ConvWorkspace::new();
        // The backward reads what this forward leaves in the workspace.
        conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        let ns = time_fastest(quick, &mut || {
            std::hint::black_box(conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap());
        });
        push_conv_row(rows, layer, "backward", b, &g, threads, ns);
    }
}

/// Appends one `conv_layer` row. A backward pass counts two GEMMs
/// (dW and dX) per sample, a forward pass one.
fn push_conv_row(
    rows: &mut String,
    layer: &str,
    pass: &str,
    batch: usize,
    g: &ConvGeometry,
    threads: usize,
    ns: u128,
) {
    let gemms = if pass == "backward" { 2 } else { 1 };
    let gflops = (gemms * batch as u64 * g.ops()) as f64 / ns.max(1) as f64;
    let _ = write!(
        rows,
        ",\n    {{\"kind\": \"conv_layer\", \"layer\": \"{layer}\", \"pass\": \"{pass}\", \
         \"isa\": \"{kernel}\", \"batch\": {batch}, \
         \"geometry\": \"{}x{}x{} -> {}x{}x{} k{} s{} p{}\", \"threads\": {threads}, \
         \"ns_per_iter\": {ns}, \"stat\": \"fastest call\", \"gflops\": {gflops:.2}}}",
        g.in_channels,
        g.in_h,
        g.in_w,
        g.out_channels,
        g.out_h,
        g.out_w,
        g.kernel,
        g.stride,
        g.pad,
        kernel = gemm_kernel_name()
    );
}

/// Timed calls behind each row, after warm-up.
const FASTEST_CALLS: usize = 300;

/// Timed calls per row: [`FASTEST_CALLS`], or 20 under `--quick`.
fn timed_calls(quick: bool) -> usize {
    if quick {
        20
    } else {
        FASTEST_CALLS
    }
}

/// Wall time of one call of `f`, in nanoseconds.
fn time_once(f: &mut dyn FnMut()) -> u128 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos()
}

/// The fastest of [`timed_calls`] single calls of `f` after warm-up,
/// in nanoseconds. The warm-up touches the buffers, grows the packing
/// scratch or conv workspace to its steady-state size and spins up any
/// pool workers.
fn time_fastest(quick: bool, f: &mut dyn FnMut()) -> u128 {
    for _ in 0..3 {
        f();
    }
    (0..timed_calls(quick)).map(|_| time_once(f)).min().unwrap_or(0)
}

/// Alternates single calls of `a` and `b` after warm-up,
/// [`timed_calls`] each, and returns each side's fastest, in
/// nanoseconds. Both sides run in the same host phases, so the ratio
/// of the two compares like with like.
fn time_pair(quick: bool, a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (u128, u128) {
    for _ in 0..3 {
        a();
        b();
    }
    (0..timed_calls(quick))
        .map(|_| (time_once(a), time_once(b)))
        .fold((u128::MAX, u128::MAX), |(fa, fb), (ta, tb)| (fa.min(ta), fb.min(tb)))
}

/// How many times faster the `fast` time is than the `slow` one.
fn speedup(slow: u128, fast: u128) -> f64 {
    slow.max(1) as f64 / fast.max(1) as f64
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
) {
    if !rows.is_empty() {
        rows.push_str(",\n");
    }
    let gbps = bytes as f64 / ns.max(1) as f64;
    let speedup = speedup(scalar_ns, ns);
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
/// snapshot. Kept apart from the timed calls so tracing overhead never
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
    // One warm arena per timed GEMM body, as a layer in a training loop
    // owns one (and its fixed-point twin another).
    let (mut scratch, mut scratch_i8, mut scratch_scalar) =
        (GemmScratch::new(), GemmScratch::new(), GemmScratch::new());
    for &(name, m, k, n) in SHAPES {
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        // Fixed-point copies of the same operands for the i8 rows.
        let mut qa = vec![0i8; m * k];
        let mut qb = vec![0i8; k * n];
        quantize_i8(a.as_slice(), quant_scale(max_abs(a.as_slice())), &mut qa);
        quantize_i8(b.as_slice(), quant_scale(max_abs(b.as_slice())), &mut qb);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        for &t in THREADS {
            if t > cores {
                continue; // the row would duplicate t1 (splits cap at cores)
            }
            set_num_threads(t);
            // The f32 row and its paired i8 row: the same shape and
            // thread count on the process-selected kernel, alternated.
            let kernel = gemm_kernel_name();
            let (ns, ns_i8) = time_pair(
                quick,
                &mut || {
                    std::hint::black_box(matmul_ws(&a, &b, &mut scratch).unwrap());
                },
                &mut || {
                    std::hint::black_box(
                        matmul_i8_with_kernel(&qa, &qb, m, k, n, kernel, &mut scratch_i8)
                            .unwrap(),
                    );
                },
            );
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
            let gops_i8 = flops / ns_i8.max(1) as f64;
            let speedup_vs_f32 = speedup(ns, ns_i8);
            let _ = write!(
                rows,
                "    {{\"shape\": \"{name}\", \"precision\": \"f32\", \
                 \"isa\": \"{kernel}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"threads\": {t}, \"ns_per_iter\": {ns}, \"gflops\": {gflops:.2}, \
                 \"gemm_calls\": {gemm_calls}, \"bytes_per_iter\": {bytes_per_iter}, \
                 \"pool_jobs\": {pool_jobs}, \"p50_ns\": {p50_ns}, \"p90_ns\": {p90_ns}, \
                 \"p99_ns\": {p99_ns}}},\n    \
                 {{\"shape\": \"{name}\", \"precision\": \"i8\", \
                 \"isa\": \"{kernel}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
                 \"threads\": {t}, \"ns_per_iter\": {ns_i8}, \"gflops\": {gops_i8:.2}, \
                 \"speedup_vs_f32\": {speedup_vs_f32:.2}}}"
            );
            // One cross-ISA row per detected kernel, each alternated
            // with the portable kernel, so the speedups are comparable
            // across rows of this run.
            for kernel in gemm_kernels_supported() {
                let (sns, kns) = time_pair(
                    quick,
                    &mut || {
                        std::hint::black_box(
                            matmul_with_kernel(&a, &b, "scalar_8x4", &mut scratch_scalar).unwrap(),
                        );
                    },
                    &mut || {
                        std::hint::black_box(
                            matmul_with_kernel(&a, &b, kernel, &mut scratch).unwrap(),
                        );
                    },
                );
                let kgf = flops / kns.max(1) as f64;
                let sp = speedup(sns, kns);
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
            let (sns, ns) = time_pair(
                quick,
                &mut || {
                    dispatch_on(
                        Isa::Scalar,
                        ReluTrain { buf: &mut buf_s, mask: &mut mask_s },
                    )
                },
                &mut || dispatch_on(sel, ReluTrain { buf: &mut buf_v, mask: &mut mask_v }),
            );
            push_op_row(&mut rows, "relu", sel.name(), n_act, t, bytes, ns, sns);
        }

        // maxpool: 2x2 stride-2 forward with argmax.
        {
            let mut out_s = vec![0f32; out_len];
            let mut arg_s = vec![0usize; out_len];
            let mut out_v = vec![0f32; out_len];
            let mut arg_v = vec![0usize; out_len];
            let bytes =
                MaxPool2d { x: &act, g, planes, out: &mut out_s, argmax: &mut arg_s }.bytes();
            let (sns, ns) = time_pair(
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
            push_op_row(&mut rows, "maxpool", sel.name(), n_act, t, bytes, ns, sns);
        }

        // quantize_i8: f32 -> i8 at the calibration scale.
        {
            let mut dst_s = vec![0i8; n_act];
            let mut dst_v = vec![0i8; n_act];
            let bytes = QuantizeI8 { src: &act, inv_scale, dst: &mut dst_s }.bytes();
            let (sns, ns) = time_pair(
                quick,
                &mut || {
                    dispatch_on(Isa::Scalar, QuantizeI8 { src: &act, inv_scale, dst: &mut dst_s })
                },
                &mut || dispatch_on(sel, QuantizeI8 { src: &act, inv_scale, dst: &mut dst_v }),
            );
            push_op_row(&mut rows, "quantize_i8", sel.name(), n_act, t, bytes, ns, sns);
        }
    }

    // ---- Whole conv calls at the loop's shapes. ---------------------
    for &t in THREADS {
        if t > cores {
            continue;
        }
        set_num_threads(t);
        push_conv_rows(&mut rows, t, quick, &mut rng);
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
