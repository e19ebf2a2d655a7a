//! Symmetric i8 quantization and the fixed-point GEMM path.
//!
//! The paper's FPGA architecture (Section IV) runs fixed-point PEs;
//! this module is the software twin of that datapath. The scheme is
//! the standard symmetric affine-free one:
//!
//! * **Activations** are quantized per tensor with one static scale
//!   obtained from calibration data: `scale = max|x| / 127`,
//!   `q = round(x / scale)` clamped to `[-127, 127]`.
//! * **Weights** are quantized per row (a Linear output feature or a
//!   conv output channel), which costs nothing at inference time —
//!   the per-row scale folds into the dequantization of that output
//!   row — and noticeably tightens the error of rows with small
//!   dynamic range ([`QuantizedMatrix`]).
//! * **Accumulation is i32 and exact.** `|a·b| ≤ 127²`, so any
//!   `k ≤ i32::MAX / 127²` (≈ 133 000, far beyond every shape here)
//!   cannot overflow, and — unlike f32 — *every* summation order
//!   yields the same bits. The packed i8 GEMM is therefore bitwise
//!   identical to the naive [`matmul_i8_naive`] oracle at any shape,
//!   micro-kernel and thread count, which is the same contract the
//!   f32 packed kernels carry, only cheaper to uphold.
//!
//! Production reaches the i8 GEMM through [`linear_forward_i8_ws`] and
//! [`conv2d_forward_i8_ws`](crate::conv2d_forward_i8_ws);
//! [`matmul_i8_with_kernel`] exposes the bare product on a named
//! micro-kernel for tests and benchmarks. The packed path reuses
//! everything the f32 GEMM built: the same BLIS panel layout (the
//! packers in [`crate::pack`] are generic over the element type), the
//! same [`Kernel`] runtime dispatch (so `INSITU_SIMD=scalar` pins the
//! portable i8 kernel together with the f32 one), the same row-band
//! parallel split, and the same grow-only [`GemmScratch`] arena —
//! steady state allocates nothing. Kernel activity is traced under
//! `tensor.quant.*` spans with a `tensor.quant.bytes` counter.

use crate::error::TensorError;
use crate::microkernel::Kernel;
use crate::pack::{pack_a_i8, pack_b_i8, packed_a_len, packed_b_len, GemmScratch};
use crate::parallel::{parallel_for, plan_parts, split_range, SendPtr};
use crate::tensor::Tensor;
use crate::Result;
use insitu_telemetry as telemetry;

/// Largest representable quantized magnitude. The symmetric scheme
/// uses `[-127, 127]` (not -128) so that negation is closed and the
/// AVX2 `vpmaddwd` pair sums stay well inside i16-product range.
pub const QUANT_MAX: f32 = 127.0;

/// The quantization scale mapping `[-max_abs, max_abs]` onto the i8
/// range. Guards against degenerate inputs: an all-zero (or
/// non-finite) range maps to a tiny positive scale so quantization
/// stays well-defined and dequantization returns zeros.
pub fn quant_scale(max_abs: f32) -> f32 {
    if max_abs.is_finite() && max_abs > 0.0 {
        max_abs / QUANT_MAX
    } else {
        f32::MIN_POSITIVE
    }
}

/// Largest absolute value in `values` (0.0 for an empty slice);
/// non-finite entries are ignored so one corrupt activation cannot
/// blow up a layer's scale. Dispatched through the SIMD layer — the
/// calibration scan walks every activation of every layer.
pub fn max_abs(values: &[f32]) -> f32 {
    crate::simd::dispatch(crate::simd::MaxAbs { src: values })
}

/// Quantizes `src` into `dst` with round-to-nearest (ties to even, the
/// hardware rounding mode) and saturation at ±127. `scale` must be
/// positive (see [`quant_scale`]). Non-finite inputs quantize to 0
/// (NaN) or ±127 (infinities).
///
/// Runs on every activation tensor of every quantized forward, so it
/// goes through the SIMD dispatch layer
/// ([`simd::QuantizeI8`](crate::simd::QuantizeI8)): rounding uses the
/// `1.5·2²³` magic constant (adding and subtracting it forces the
/// mantissa to integer granularity in the hardware rounding mode) in
/// both bodies, because both `f32::round` and `f32::round_ties_even`
/// lower to a libcall per element without SSE4.1. Clamping *before*
/// the round keeps the value inside the trick's exact range
/// (`|v| ≤ 2²²`), and the AVX2 body is bitwise identical to the
/// scalar loop for every input.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize_i8(src: &[f32], scale: f32, dst: &mut [i8]) {
    let inv = 1.0 / scale;
    crate::simd::dispatch(crate::simd::QuantizeI8 { src, inv_scale: inv, dst });
}

/// Reconstructs f32 values from quantized `src`: `x ≈ q · scale`. The
/// round-trip error of [`quantize_i8`] → `dequantize_i8` is bounded by
/// `scale / 2` per element for inputs within `±127·scale`.
pub fn dequantize_i8(src: &[i8], scale: f32, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = f32::from(q) * scale;
    }
}

/// A weight matrix quantized symmetrically **per row**, ready for the
/// i8 GEMM. For a Linear layer the rows are output features (the
/// `(out, in)` weight as stored); for a conv layer the caller flattens
/// the filter bank to `(out_channels, in_channels·K²)` first, making
/// rows the output channels.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `(rows, cols)` f32 matrix, one symmetric
    /// scale per row.
    ///
    /// # Errors
    ///
    /// Returns an error if `src.len() != rows * cols`.
    pub fn from_rows(src: &[f32], rows: usize, cols: usize) -> Result<Self> {
        if src.len() != rows * cols {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "QuantizedMatrix: {} elements cannot form {rows}x{cols}",
                    src.len()
                ),
            });
        }
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            let row = &src[r * cols..][..cols];
            let s = quant_scale(max_abs(row));
            quantize_i8(row, s, &mut data[r * cols..][..cols]);
            scales[r] = s;
        }
        Ok(Self { rows, cols, data, scales })
    }

    /// Number of rows (output features / channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input features per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantized elements, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Reference `O(M·N·K)` i8 triple-loop product with i32 accumulation —
/// the oracle [`matmul_i8_with_kernel`] must match bitwise.
pub fn matmul_i8_naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "matmul_i8_naive: A length");
    assert_eq!(b.len(), k * n, "matmul_i8_naive: B length");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = i32::from(a[i * k + kk]);
            for j in 0..n {
                out[i * n + j] += aik * i32::from(b[kk * n + j]);
            }
        }
    }
    out
}

/// The compute half of the packed i8 GEMM: drives i8 micro-kernel
/// `kern` over panel-aligned row bands, in parallel when the
/// product is large enough. Bitwise equal to the naive oracle at any
/// split (integer accumulation is exact).
fn gemm_packed_prepacked_i8(
    kern: Kernel,
    pa: &[i8],
    pb: &[i8],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) {
    let mr = kern.mr();
    let mp = m.div_ceil(mr);
    let parts = plan_parts(mp, 2 * m as u64 * k as u64 * n as u64);
    if parts <= 1 {
        kern.run_band_i8(pa, pb, k, n, 0..m, out);
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    parallel_for(parts, move |p| {
        let pr = split_range(mp, parts, p);
        let (r0, r1) = (pr.start * mr, (pr.end * mr).min(m));
        // SAFETY: `split_range` partitions the panel index space, so
        // each task's row band `r0..r1` of `out` is disjoint.
        let band =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(r0 * n), (r1 - r0) * n) };
        kern.run_band_i8(pa, pb, k, n, r0..r1, band);
    });
}

/// Packed i8 matrix product `C = A·B` with i32 accumulation on a
/// specific micro-kernel variant by name (one of
/// [`gemm_kernels_supported`](crate::gemm_kernels_supported)), packing
/// into a caller-owned scratch — the i8 twin of
/// [`matmul_with_kernel`](crate::matmul_with_kernel). Bitwise identical
/// to [`matmul_i8_naive`] at any shape, kernel and thread count.
///
/// # Errors
///
/// Returns an error if `kernel` is not a host-supported kernel name or
/// a slice length disagrees with `(m, k, n)`.
pub fn matmul_i8_with_kernel(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    kernel: &str,
    scratch: &mut GemmScratch,
) -> Result<Vec<i32>> {
    let kern = Kernel::from_name(kernel)?;
    if a.len() != m * k || b.len() != k * n {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "matmul_i8: A {} / B {} incompatible with {m}x{k}x{n}",
                a.len(),
                b.len()
            ),
        });
    }
    let _t = telemetry::span_with("tensor.quant.gemm_i8", || format!("{m}x{k}x{n}"));
    telemetry::counter_add("tensor.quant.bytes", "gemm_i8", (m * k + k * n + 4 * m * n) as u64);
    let mut out = vec![0i32; m * n];
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let (pa, pb) = scratch.panels_i8(packed_a_len(m, k, kern.mr()), packed_b_len(k, n, kern.nr()));
    {
        let _p = telemetry::span_with("tensor.quant.pack", || format!("{m}x{k}x{n}"));
        pack_a_i8(a, m, k, false, kern.mr(), pa);
        pack_b_i8(b, k, n, false, kern.nr(), pb);
    }
    gemm_packed_prepacked_i8(kern, pa, pb, m, k, n, &mut out);
    Ok(out)
}

/// Quantized Linear forward: `y = dequant(quant(x) · Wqᵀ) + bias`.
///
/// `input` is `(batch, in)` f32, quantized per tensor with the static
/// `in_scale` from calibration; `qweight` is the `(out, in)` weight
/// quantized per row. Row `o` of the i32 accumulator dequantizes with
/// `in_scale · w_scale[o]` before the bias is added — all f32 work is
/// element-wise, so the output is deterministic at any thread count.
///
/// # Errors
///
/// Returns an error if shapes disagree.
pub fn linear_forward_i8_ws(
    input: &Tensor,
    qweight: &QuantizedMatrix,
    bias: &Tensor,
    in_scale: f32,
    scratch: &mut GemmScratch,
) -> Result<Tensor> {
    if input.shape().ndim() != 2 || input.dims()[1] != qweight.cols() {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "linear_forward_i8: input {} incompatible with quantized weight {}x{}",
                input.shape(),
                qweight.rows(),
                qweight.cols()
            ),
        });
    }
    let (b, inf, outf) = (input.dims()[0], qweight.cols(), qweight.rows());
    if bias.len() != outf {
        return Err(TensorError::InvalidGeometry {
            reason: format!("linear_forward_i8: bias {} != out features {outf}", bias.len()),
        });
    }
    let _t = telemetry::span_with("tensor.quant.linear_fwd", || format!("{b}x{inf}x{outf}"));
    telemetry::counter_add(
        "tensor.quant.bytes",
        "linear_i8",
        (b * inf + outf * inf + 4 * b * outf) as u64,
    );
    let kern = Kernel::select();
    let (pa, pb, qa, acc) = scratch.quant_buffers(
        packed_a_len(b, inf, kern.mr()),
        packed_b_len(inf, outf, kern.nr()),
        b * inf,
        b * outf,
    );
    quantize_i8(input.as_slice(), in_scale, qa);
    {
        let _p = telemetry::span_with("tensor.quant.pack", || format!("{b}x{inf}x{outf}"));
        pack_a_i8(qa, b, inf, false, kern.mr(), pa);
        pack_b_i8(qweight.data(), inf, outf, true, kern.nr(), pb);
    }
    gemm_packed_prepacked_i8(kern, pa, pb, b, inf, outf, acc);
    let mut out = vec![0.0f32; b * outf];
    let (bv, scales) = (bias.as_slice(), qweight.scales());
    for s in 0..b {
        let row = &acc[s * outf..][..outf];
        let dst = &mut out[s * outf..][..outf];
        for (((d, &a), &sc), &bo) in dst.iter_mut().zip(row).zip(scales).zip(bv) {
            *d = a as f32 * (in_scale * sc) + bo;
        }
    }
    Tensor::from_vec([b, outf], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_i8(rng: &mut Rng, len: usize) -> Vec<i8> {
        (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
    }

    #[test]
    fn every_supported_kernel_matches_the_oracle_bitwise() {
        let mut rng = Rng::seed_from(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (8, 8, 8), (9, 19, 13), (16, 7, 33)] {
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, k * n);
            let oracle = matmul_i8_naive(&a, &b, m, k, n);
            for kern in Kernel::supported() {
                let mut pa = vec![0i8; packed_a_len(m, k, kern.mr())];
                let mut pb = vec![0i8; packed_b_len(k, n, kern.nr())];
                pack_a_i8(&a, m, k, false, kern.mr(), &mut pa);
                pack_b_i8(&b, k, n, false, kern.nr(), &mut pb);
                let mut out = vec![0i32; m * n];
                kern.run_band_i8(&pa, &pb, k, n, 0..m, &mut out);
                assert_eq!(out, oracle, "{} {m}x{k}x{n}", kern.name());
            }
        }
    }

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let mut rng = Rng::seed_from(11);
        let x: Vec<f32> = (0..257).map(|_| (rng.below(2001) as f32 - 1000.0) / 300.0).collect();
        let scale = quant_scale(max_abs(&x));
        let mut q = vec![0i8; x.len()];
        let mut back = vec![0.0f32; x.len()];
        quantize_i8(&x, scale, &mut q);
        dequantize_i8(&q, scale, &mut back);
        for (orig, rt) in x.iter().zip(&back) {
            assert!((orig - rt).abs() <= scale * 0.5 + f32::EPSILON, "{orig} vs {rt}");
        }
    }

    #[test]
    fn quantize_saturates_and_degenerate_scales_are_safe() {
        let mut q = [0i8; 3];
        quantize_i8(&[10.0, -10.0, 0.4], 0.01, &mut q);
        assert_eq!(q, [127, -127, 40]);
        assert!(quant_scale(0.0) > 0.0);
        assert!(quant_scale(f32::NAN) > 0.0);
        assert_eq!(max_abs(&[]), 0.0);
        assert_eq!(max_abs(&[1.0, f32::INFINITY, -3.0]), 3.0);
    }

    #[test]
    fn per_row_scales_follow_each_rows_range() {
        let w = [1.0, -0.5, 0.25, 0.1, 100.0, -7.0];
        let qm = QuantizedMatrix::from_rows(&w, 2, 3).unwrap();
        assert_eq!(qm.rows(), 2);
        assert_eq!(qm.cols(), 3);
        assert!((qm.scales()[0] - 1.0 / 127.0).abs() < 1e-7);
        assert!((qm.scales()[1] - 100.0 / 127.0).abs() < 1e-5);
        assert_eq!(qm.data()[0], 127); // 1.0 at scale 1/127
        assert_eq!(qm.data()[4], 127); // 100.0 at scale 100/127
    }

    #[test]
    fn linear_forward_i8_tracks_f32_linear() {
        let mut rng = Rng::seed_from(23);
        let x = Tensor::rand_uniform([5, 16], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([8, 16], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([8], -0.1, 0.1, &mut rng);
        let qw = QuantizedMatrix::from_rows(w.as_slice(), 8, 16).unwrap();
        let in_scale = quant_scale(max_abs(x.as_slice()));
        let mut scratch = GemmScratch::new();
        let got = linear_forward_i8_ws(&x, &qw, &bias, in_scale, &mut scratch).unwrap();
        let mut reference = crate::matmul_nt_ws(&x, &w, &mut GemmScratch::new()).unwrap();
        for s in 0..5 {
            for o in 0..8 {
                let v = reference.at(&[s, o]).unwrap() + bias.as_slice()[o];
                reference.set(&[s, o], v).unwrap();
            }
        }
        // Worst-case per-element error: k · (quantization noise), far
        // below 2% of the activation range for these magnitudes.
        assert!(got.max_abs_diff(&reference).unwrap() < 0.05);
        assert_eq!(got.dims(), &[5, 8]);
    }
}
