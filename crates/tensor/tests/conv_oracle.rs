//! Every convolution entry point against a naive oracle, bit for bit.
//!
//! The oracle shares no lowering, packing or tiling code with the
//! kernels: it stretches each sample into an explicit im2col matrix
//! (taps that land in the padding are zeros), multiplies with
//! [`matmul_naive`] / [`matmul_i8_naive`] and adds the bias, after the
//! per-channel dequantization for i8. The backward oracle reduces dW
//! and db over samples in ascending order and scatters dX through
//! col2im in ascending `(c, ky, kx)` order — the accumulation orders
//! the kernels promise.
//!
//! The sweep crosses kernel 1/3/5 with stride 1/2/3 and pad 0/1/2 over
//! square and non-square planes from 1×1 to 36×36, with channel counts
//! ragged around the tile height MR = 8 and the panel widths NR =
//! 4, 8, 16, batches of 1–3 and 1/2/4 threads. Each ISA packs panels of
//! its own width, so CI runs the suite under every `INSITU_SIMD` value
//! the host supports. One workspace serves the whole sweep, so every
//! geometry and batch switch runs on warm buffers.
//!
//! The forward reads B straight from each sample's staging slot, and
//! the last panel of a plane reads up to NR−1 elements past its last
//! position, into the slot's zeroed tail. A second case runs geometries
//! whose last read ends at the very end of a fresh workspace's staging.
//!
//! A plane no larger than one kernel window (`H·W ≤ K²`: the sweep's
//! 1×1 planes, and its 2×5, 4×4 and 5×3 planes under a 5×5 kernel)
//! takes the f32 forward's dense lowering, one GEMM against a spread
//! filter bank cached in the workspace. A third case runs it at the
//! jigsaw trunk's 3×3 planes with inputs and weights holding exact ±0,
//! up to 144-sample batches, and a fourth changes the weights of one
//! warm workspace by one ulp and by a zero's sign between calls.

use insitu_tensor::{
    conv2d_backward_ws, conv2d_forward_i8_ws, conv2d_forward_ws, gemm_kernel_name, matmul_i8_naive,
    matmul_naive, max_abs, num_threads, quant_scale, quantize_i8, set_num_threads, ConvGeometry,
    ConvWorkspace, QuantizedMatrix, Rng, Tensor,
};

/// Planes `(h, w)`, square and not, from 1×1 to 36×36.
const PLANES: [(usize, usize); 10] = [
    (1, 1),
    (2, 5),
    (4, 4),
    (5, 3),
    (7, 9),
    (9, 9),
    (12, 12),
    (11, 18),
    (18, 18),
    (36, 36),
];

/// Input channels, ragged around NR (with a 1×1 kernel they are the
/// GEMM's k and the backward's padded panel rows).
const IN_CHANNELS: [usize; 8] = [1, 3, 4, 5, 8, 9, 16, 17];

/// Output channels, ragged around MR.
const OUT_CHANNELS: [usize; 7] = [1, 3, 7, 8, 9, 16, 17];

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

/// Raw bit patterns: stricter than `==`, which lets `-0.0 == 0.0` slip.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The `(N·K², R·C)` im2col matrix of one flattened `(C, H, W)` sample:
/// row `(c, ky, kx)`, column `(oy, ox)`; taps in the padding are zeros.
fn im2col<T: Copy + Default>(x: &[T], g: &ConvGeometry) -> Vec<T> {
    let (k, positions) = (g.kernel, g.col_cols());
    let mut col = vec![T::default(); g.col_rows() * positions];
    for c in 0..g.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let iy = (oy * g.stride + ky)
                            .checked_sub(g.pad)
                            .filter(|&y| y < g.in_h);
                        let ix = (ox * g.stride + kx)
                            .checked_sub(g.pad)
                            .filter(|&x| x < g.in_w);
                        if let (Some(iy), Some(ix)) = (iy, ix) {
                            col[row * positions + oy * g.out_w + ox] =
                                x[(c * g.in_h + iy) * g.in_w + ix];
                        }
                    }
                }
            }
        }
    }
    col
}

/// col2im: scatters a `(N·K², R·C)` matrix back onto a zeroed sample,
/// accumulating in ascending `(c, ky, kx)`, then `(oy, ox)`, order.
fn col2im(col: &[f32], g: &ConvGeometry) -> Vec<f32> {
    let (k, positions) = (g.kernel, g.col_cols());
    let mut x = vec![0.0f32; g.in_channels * g.in_h * g.in_w];
    for c in 0..g.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let iy = (oy * g.stride + ky)
                            .checked_sub(g.pad)
                            .filter(|&y| y < g.in_h);
                        let ix = (ox * g.stride + kx)
                            .checked_sub(g.pad)
                            .filter(|&x| x < g.in_w);
                        if let (Some(iy), Some(ix)) = (iy, ix) {
                            x[(c * g.in_h + iy) * g.in_w + ix] +=
                                col[row * positions + oy * g.out_w + ox];
                        }
                    }
                }
            }
        }
    }
    x
}

fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|j| (0..rows).map(move |i| a[i * cols + j]))
        .collect()
}

fn matrix(rows: usize, cols: usize, v: Vec<f32>) -> Tensor {
    Tensor::from_vec([rows, cols], v).unwrap()
}

fn sample<T>(v: &[T], s: usize, len: usize) -> &[T] {
    &v[s * len..][..len]
}

/// The f32 forward: per sample, `Fm × im2col(x)` plus the bias.
fn forward_oracle(x: &Tensor, w: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Vec<f32> {
    let (m, nk2, positions) = (g.out_channels, g.col_rows(), g.col_cols());
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let fm = matrix(m, nk2, w.as_slice().to_vec());
    let mut out = Vec::new();
    for s in 0..x.dims()[0] {
        let col = matrix(
            nk2,
            positions,
            im2col(sample(x.as_slice(), s, sample_len), g),
        );
        let y = matmul_naive(&fm, &col).unwrap();
        for (row, &b) in y.as_slice().chunks(positions).zip(bias.as_slice()) {
            out.extend(row.iter().map(|&v| v + b));
        }
    }
    out
}

/// The backward: per sample `dW_s = dY · colᵀ`, `db_s` the row sums of
/// `dY` and `dX_s = col2im(Wᵀ · dY)`; dW and db reduced over samples in
/// ascending order from zero.
fn backward_oracle(
    x: &Tensor,
    w: &Tensor,
    dout: &Tensor,
    g: &ConvGeometry,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (m, nk2, positions) = (g.out_channels, g.col_rows(), g.col_cols());
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let wt = matrix(nk2, m, transpose(w.as_slice(), m, nk2));
    let (mut dx, mut dw, mut db) = (Vec::new(), vec![0.0f32; m * nk2], vec![0.0f32; m]);
    for s in 0..x.dims()[0] {
        let col = im2col(sample(x.as_slice(), s, sample_len), g);
        let dy = sample(dout.as_slice(), s, m * positions);
        let dys = matrix(m, positions, dy.to_vec());
        let colt = matrix(positions, nk2, transpose(&col, nk2, positions));
        let dw_s = matmul_naive(&dys, &colt).unwrap();
        for (acc, &v) in dw.iter_mut().zip(dw_s.as_slice()) {
            *acc += v;
        }
        for (acc, row) in db.iter_mut().zip(dy.chunks(positions)) {
            *acc += row.iter().sum::<f32>();
        }
        let dcol = matmul_naive(&wt, &dys).unwrap();
        dx.extend(col2im(dcol.as_slice(), g));
    }
    (dx, dw, db)
}

/// The i8 forward: quantize each sample once, im2col in i8, the i32
/// product, then `acc · (in_scale · w_scale[m]) + bias[m]`.
fn forward_i8_oracle(
    x: &Tensor,
    qw: &QuantizedMatrix,
    bias: &Tensor,
    g: &ConvGeometry,
    in_scale: f32,
) -> Vec<f32> {
    let (m, nk2, positions) = (g.out_channels, g.col_rows(), g.col_cols());
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let mut out = Vec::new();
    for s in 0..x.dims()[0] {
        let mut q = vec![0i8; sample_len];
        quantize_i8(sample(x.as_slice(), s, sample_len), in_scale, &mut q);
        let acc = matmul_i8_naive(qw.data(), &im2col(&q, g), m, nk2, positions);
        for (ch, row) in acc.chunks(positions).enumerate() {
            let factor = in_scale * qw.scales()[ch];
            let b = bias.as_slice()[ch];
            out.extend(row.iter().map(|&a| a as f32 * factor + b));
        }
    }
    out
}

#[test]
fn every_conv_entry_point_matches_the_naive_oracle_bitwise() {
    let kernel = gemm_kernel_name();
    let mut rng = Rng::seed_from(2020);
    let mut ws = ConvWorkspace::new();
    let (mut tried, mut checked) = (0usize, 0usize);
    for (i, (h, w)) in PLANES.into_iter().enumerate() {
        for (j, k) in [1usize, 3, 5].into_iter().enumerate() {
            for pad in [0usize, 1, 2] {
                // Stride is the innermost axis, so consecutive passes on
                // the shared workspace differ in stride alone.
                let cin = IN_CHANNELS[(i + j + pad) % IN_CHANNELS.len()];
                let cout = OUT_CHANNELS[(3 * i + j + pad) % OUT_CHANNELS.len()];
                for stride in [1usize, 2, 3] {
                    tried += 1;
                    let Ok(g) = ConvGeometry::new(cin, h, w, cout, k, stride, pad) else {
                        continue; // the kernel does not fit the padded plane
                    };
                    let b = 1 + (i + stride) % 3;
                    let x = Tensor::rand_uniform([b, cin, h, w], -1.0, 1.0, &mut rng);
                    let wt = Tensor::rand_uniform([cout, cin, k, k], -0.5, 0.5, &mut rng);
                    let bias = Tensor::rand_uniform([cout], -0.1, 0.1, &mut rng);
                    let dout =
                        Tensor::rand_uniform([b, cout, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
                    let qw = QuantizedMatrix::from_rows(wt.as_slice(), cout, g.col_rows()).unwrap();
                    let in_scale = quant_scale(max_abs(x.as_slice()));

                    let y_want = bits(&forward_oracle(&x, &wt, &bias, &g));
                    let (dx, dw, db) = backward_oracle(&x, &wt, &dout, &g);
                    let (dx_want, dw_want, db_want) = (bits(&dx), bits(&dw), bits(&db));
                    let q_want = bits(&forward_i8_oracle(&x, &qw, &bias, &g, in_scale));
                    for threads in [1usize, 2, 4] {
                        let at = format!(
                            "{kernel} k{k} s{stride} p{pad} {h}x{w} {cin}->{cout} b{b} t{threads}"
                        );
                        with_threads(threads, || {
                            let y = conv2d_forward_ws(&x, &wt, &bias, &g, &mut ws).unwrap();
                            assert_eq!(bits(y.as_slice()), y_want, "forward {at}");
                            let (dx, dw, db) = conv2d_backward_ws(&dout, &wt, &g, &mut ws).unwrap();
                            assert_eq!(bits(dx.as_slice()), dx_want, "dx {at}");
                            assert_eq!(bits(dw.as_slice()), dw_want, "dW {at}");
                            assert_eq!(bits(db.as_slice()), db_want, "db {at}");
                            let q = conv2d_forward_i8_ws(&x, &qw, &bias, &g, in_scale, &mut ws)
                                .unwrap();
                            assert_eq!(bits(q.as_slice()), q_want, "i8 forward {at}");
                        });
                    }
                    checked += 1;
                }
            }
        }
    }
    // Every (kernel, stride, pad) runs on most planes; only kernels
    // wider than the padded plane are skipped.
    assert!(checked > 220, "only {checked} of {tried} geometries ran");
}

#[test]
fn the_last_panel_reads_to_the_end_of_a_fresh_staging() {
    // The forward computes n' = (R−1)·s·(W+2p) + (C−1)·s + 1 positions
    // per plane. With n' ≡ 1 (mod 16) — a multiple of no panel width
    // 4, 8 or 16 — and the last output's window in the padded plane's
    // bottom-right corner, the last panel's read ends exactly at the end
    // of a batch-1 staging buffer, so a slot without its NR−1 tail would
    // read past it.
    let kernel = gemm_kernel_name();
    let mut rng = Rng::seed_from(2021);
    // (in channels, h, w, out channels, kernel, stride, pad)
    let cases = [(3, 5, 5, 16, 3, 1, 1), (2, 3, 11, 5, 1, 1, 0), (4, 9, 9, 9, 3, 2, 1)];
    for (cin, h, w, cout, k, stride, pad) in cases {
        let g = ConvGeometry::new(cin, h, w, cout, k, stride, pad).unwrap();
        let wp = w + 2 * pad;
        let wide = (g.out_h - 1) * stride * wp + (g.out_w - 1) * stride + 1;
        assert_eq!(wide % 16, 1, "n' = {wide}");
        assert_eq!(((g.out_h - 1) * stride + k, (g.out_w - 1) * stride + k), (h + 2 * pad, wp));
        let x = Tensor::rand_uniform([1, cin, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform([cout, cin, k, k], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([cout], -0.1, 0.1, &mut rng);
        let dout = Tensor::rand_uniform([1, cout, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
        let qw = QuantizedMatrix::from_rows(wt.as_slice(), cout, g.col_rows()).unwrap();
        let in_scale = quant_scale(max_abs(x.as_slice()));
        let (dx, dw, db) = backward_oracle(&x, &wt, &dout, &g);
        let at = format!("{kernel} k{k} s{stride} p{pad} {h}x{w} {cin}->{cout} n'{wide}");
        // A fresh workspace per entry point, so each pass sizes the
        // staging it reads to exactly one slot.
        let mut ws = ConvWorkspace::new();
        let y = conv2d_forward_ws(&x, &wt, &bias, &g, &mut ws).unwrap();
        assert_eq!(bits(y.as_slice()), bits(&forward_oracle(&x, &wt, &bias, &g)), "forward {at}");
        let (dx_got, dw_got, db_got) = conv2d_backward_ws(&dout, &wt, &g, &mut ws).unwrap();
        assert_eq!(bits(dx_got.as_slice()), bits(&dx), "dx {at}");
        assert_eq!(bits(dw_got.as_slice()), bits(&dw), "dW {at}");
        assert_eq!(bits(db_got.as_slice()), bits(&db), "db {at}");
        let q = conv2d_forward_i8_ws(&x, &qw, &bias, &g, in_scale, &mut ConvWorkspace::new())
            .unwrap();
        let q_want = forward_i8_oracle(&x, &qw, &bias, &g, in_scale);
        assert_eq!(bits(q.as_slice()), bits(&q_want), "i8 forward {at}");
    }
}

/// `t` with each element that `hit` picks replaced by a zero whose
/// sign alternates with the index.
fn signed_zeros(mut t: Tensor, hit: impl Fn(usize, f32) -> bool) -> Tensor {
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if hit(i, *v) {
            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    t
}

#[test]
fn window_sized_planes_take_the_dense_lowering_bitwise() {
    // The jigsaw trunk's conv3-5 (24->32, 32->32, 32->24 on 3x3 planes,
    // k3 p1 s1) and ragged channel counts around MR and NR, at one- to
    // three-sample batches and at 144 (16 images' tiles), on one warm
    // workspace. Zero products stand in for the window's missing taps,
    // so exact zeros of either sign in the inputs and weights are the
    // case that must not move a bit.
    let kernel = gemm_kernel_name();
    let mut rng = Rng::seed_from(2022);
    let mut ws = ConvWorkspace::new();
    let channels = [(24, 32), (32, 32), (32, 24), (1, 1), (5, 9), (17, 7)];
    for (cin, cout) in channels {
        let g = ConvGeometry::new(cin, 3, 3, cout, 3, 1, 1).unwrap();
        for b in [1usize, 2, 3, 144] {
            // ReLU'd inputs, and weights with every third one zeroed.
            let x = Tensor::rand_uniform([b, cin, 3, 3], -1.0, 1.0, &mut rng);
            let x = signed_zeros(x, |_, v| v < 0.0);
            let wt = Tensor::rand_uniform([cout, cin, 3, 3], -0.5, 0.5, &mut rng);
            let wt = signed_zeros(wt, |i, _| i % 3 == 0);
            let bias = Tensor::rand_uniform([cout], -0.1, 0.1, &mut rng);
            let dout = Tensor::rand_uniform([b, cout, 3, 3], -1.0, 1.0, &mut rng);
            let y_want = bits(&forward_oracle(&x, &wt, &bias, &g));
            let (dx, dw, db) = backward_oracle(&x, &wt, &dout, &g);
            for threads in [1usize, 2, 4] {
                let at = format!("{kernel} 3x3 {cin}->{cout} b{b} t{threads}");
                with_threads(threads, || {
                    let y = conv2d_forward_ws(&x, &wt, &bias, &g, &mut ws).unwrap();
                    assert_eq!(bits(y.as_slice()), y_want, "forward {at}");
                    let (dx_got, dw_got, db_got) =
                        conv2d_backward_ws(&dout, &wt, &g, &mut ws).unwrap();
                    assert_eq!(bits(dx_got.as_slice()), bits(&dx), "dx {at}");
                    assert_eq!(bits(dw_got.as_slice()), bits(&dw), "dW {at}");
                    assert_eq!(bits(db_got.as_slice()), bits(&db), "db {at}");
                });
            }
        }
    }
}

#[test]
fn a_warm_dense_workspace_follows_every_weight_change() {
    // The spread filter bank is cached per weight change: one warm
    // workspace sees a weight move by one ulp, a zero weight turn from
    // +0 to -0, and both undone, with a repeated call at each step. A
    // stale bank would answer for the previous weights.
    let kernel = gemm_kernel_name();
    let mut rng = Rng::seed_from(2023);
    let g = ConvGeometry::new(8, 3, 3, 9, 3, 1, 1).unwrap();
    // Sample 0 is 1 at the centre of channel 0 and 0 elsewhere, so with
    // a zero bias its outputs are channel 0's weights exactly, and a
    // one-ulp change to weight (1, 0, 1, 1) shows in output (1, 1, 1).
    let mut x = Tensor::rand_uniform([5, 8, 3, 3], -1.0, 1.0, &mut rng);
    x.as_mut_slice()[..72].fill(0.0);
    x.as_mut_slice()[4] = 1.0;
    let bias = Tensor::zeros([9]);
    let mut wt = Tensor::rand_uniform([9, 8, 3, 3], -0.5, 0.5, &mut rng);
    wt.as_mut_slice()[40] = 0.0;
    let w76 = wt.as_slice()[76];
    let before = bits(&forward_oracle(&x, &wt, &bias, &g));
    // (step, weight index, new value)
    let steps = [
        ("one ulp", 76, f32::from_bits(w76.to_bits() + 1)),
        ("+0 to -0", 40, -0.0),
        ("-0 back to +0", 40, 0.0),
        ("the ulp undone", 76, w76),
    ];
    let mut ws = ConvWorkspace::new();
    conv2d_forward_ws(&x, &wt, &bias, &g, &mut ws).unwrap();
    for (step, i, v) in steps {
        wt.as_mut_slice()[i] = v;
        let want = bits(&forward_oracle(&x, &wt, &bias, &g));
        if step == "one ulp" {
            assert_ne!(want, before, "a one-ulp weight change must move an output");
        }
        for call in 0..2 {
            let y = conv2d_forward_ws(&x, &wt, &bias, &g, &mut ws).unwrap();
            assert_eq!(bits(y.as_slice()), want, "{kernel} after {step}, call {call}");
        }
    }
}
