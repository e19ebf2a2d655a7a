//! 2-D convolution via im2col lowering.
//!
//! This is the same lowering the paper describes for GPU execution
//! (its Fig. 8): `im2col` stretches local input regions into the columns
//! of a data matrix `Dm`, the filters are flattened into a filter matrix
//! `Fm`, and the convolution becomes the GEMM `Fm × Dm`. The backward
//! pass uses the adjoint scatter `col2im`.
//!
//! The entry points are [`conv2d_forward_ws`] and [`conv2d_backward_ws`]
//! (f32, the pair a training step runs) and [`conv2d_forward_i8_ws`]
//! (fixed point). All three run through a [`ConvWorkspace`], which
//! reuses the im2col and scratch buffers across calls — eliminating
//! steady-state allocations — and carries the forward pass's im2col
//! matrices to the backward pass. Batched passes parallelize over the
//! batch dimension on the shared worker pool (see [`crate::parallel`]):
//! samples are independent, and the per-sample gradients are reduced
//! in ascending sample order, so results are bitwise identical for any
//! thread count.

use crate::error::TensorError;
use crate::microkernel::Kernel;
use crate::pack::{grow_scratch, pack_a, pack_a_i8, pack_b, pack_b_i8, packed_a_len, packed_b_len};
use crate::parallel::{parallel_for, plan_parts, SendPtr};
use crate::quant::{quantize_i8, QuantizedMatrix};
use crate::tensor::Tensor;
use crate::Result;
use insitu_telemetry as telemetry;

/// Opens the per-call telemetry span and bytes counter for one batched
/// convolution pass (inert while telemetry is disabled). `bytes` counts
/// the f32 traffic of the pass: activations, weights and outputs (the
/// backward pass also reads the saved im2col matrices).
fn conv_telemetry(kernel: &'static str, b: usize, g: &ConvGeometry, bytes: u64) -> telemetry::Span {
    let span = telemetry::span_with(kernel, || {
        format!(
            "b{b} {}x{}x{} -> {}x{}x{} k{} s{} p{}",
            g.in_channels, g.in_h, g.in_w, g.out_channels, g.out_h, g.out_w, g.kernel, g.stride,
            g.pad
        )
    });
    let short = kernel.rsplit('.').next().unwrap_or(kernel);
    telemetry::counter_add("tensor.bytes", short, bytes);
    span
}

/// Static description of one 2-D convolution: input geometry, kernel,
/// stride and zero padding.
///
/// # Examples
///
/// ```
/// use insitu_tensor::ConvGeometry;
/// # fn main() -> Result<(), insitu_tensor::TensorError> {
/// let g = ConvGeometry::new(3, 36, 36, 8, 3, 1, 1)?; // 3→8 channels, 3x3 kernel
/// assert_eq!((g.out_h, g.out_w), (36, 36));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels (the paper's `N`).
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels / number of filters (the paper's `M`).
    pub out_channels: usize,
    /// Square kernel edge (the paper's `K`).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every edge.
    pub pad: usize,
    /// Output height (the paper's `R`).
    pub out_h: usize,
    /// Output width (the paper's `C`).
    pub out_w: usize,
}

impl ConvGeometry {
    /// Computes output geometry, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the stride is zero or
    /// the kernel does not fit in the padded input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry { reason: "stride must be nonzero".into() });
        }
        if kernel == 0 || in_channels == 0 || out_channels == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "channels and kernel must be nonzero".into(),
            });
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if kernel > padded_h || kernel > padded_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!(
                    "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
                ),
            });
        }
        Ok(ConvGeometry {
            in_channels,
            in_h,
            in_w,
            out_channels,
            kernel,
            stride,
            pad,
            out_h: (padded_h - kernel) / stride + 1,
            out_w: (padded_w - kernel) / stride + 1,
        })
    }

    /// Rows of the im2col matrix: `N·K²`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `R·C` output positions.
    pub fn col_cols(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Multiply-accumulate operation count for one sample, following the
    /// paper's Eq. (1): `CONVops = 2·M·N·K²·R·C`.
    pub fn ops(&self) -> u64 {
        2 * self.out_channels as u64
            * self.in_channels as u64
            * (self.kernel * self.kernel) as u64
            * self.out_h as u64
            * self.out_w as u64
    }
}

/// im2col: stretches one flattened `(C, H, W)` sample into the
/// `(N·K², R·C)` data matrix `out`. Only the taps that land inside the
/// input are written — padding positions are left untouched, so `out`
/// must hold zeros there (a fresh zeroed buffer, or a workspace last
/// used with the same geometry).
/// Generic over the element so the fixed-point forward can stretch
/// already-quantized samples (`quantize(0) == 0`, so the zero-padding
/// contract is the same in both domains).
fn im2col_into<T: Copy>(x: &[T], g: &ConvGeometry, out: &mut [T]) {
    let cols = g.col_cols();
    let (h, w, k) = (g.in_h, g.in_w, g.kernel);
    for c in 0..g.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..g.out_h {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..g.out_w {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out_row[oy * g.out_w + ox] =
                            x[(c * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
}

/// col2im, the adjoint of [`im2col_into`]: scatters a flattened
/// `(N·K², R·C)` matrix into the flattened `(C, H, W)` buffer `o`,
/// *accumulating* values that came from the same input element.
fn col2im_into(c_: &[f32], g: &ConvGeometry, o: &mut [f32]) {
    let (h, w, k, cols) = (g.in_h, g.in_w, g.kernel, g.col_cols());
    for c in 0..g.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let col_row = &c_[row * cols..(row + 1) * cols];
                for oy in 0..g.out_h {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..g.out_w {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        o[(c * h + iy as usize) * w + ix as usize] +=
                            col_row[oy * g.out_w + ox];
                    }
                }
            }
        }
    }
}

/// Reusable scratch buffers for batched convolution passes.
///
/// A fresh workspace allocates on first use; subsequent passes with the
/// same batch size and geometry reuse every buffer, so the steady-state
/// training loop performs no per-call conv allocations beyond the output
/// tensors themselves. The forward pass also records its im2col matrices
/// here, which the backward pass consumes (the paper's C-INTERMEDIATE
/// reuse) — call [`conv2d_forward_ws`] before [`conv2d_backward_ws`].
///
/// Workspaces are cheap to create (`Default`) and independent; use one
/// per layer (or per thread when running models concurrently).
#[derive(Debug, Clone, Default)]
pub struct ConvWorkspace {
    /// Batched im2col matrices, `b × (N·K² · R·C)`. Padding positions
    /// are zeroed on (re)allocation and never dirtied afterwards, since
    /// under a fixed geometry `im2col_into` writes only valid taps.
    cols: Vec<f32>,
    /// Batch size and geometry `cols` currently holds, if any.
    key: Option<(usize, ConvGeometry)>,
    /// Per-sample `dcol` scratch (assigned by the packed kernel, then
    /// scattered by `col2im_into`).
    dcols: Vec<f32>,
    /// Per-sample flattened weight-gradient partials (fully overwritten
    /// each backward pass, then reduced in sample order).
    dw_parts: Vec<f32>,
    /// Per-sample bias-gradient partials (fully overwritten each pass).
    db_parts: Vec<f32>,
    /// Packed filter matrix `Fm` (forward A-operand, shared by the
    /// whole batch).
    packed_w: Vec<f32>,
    /// Packed `Fmᵀ` (backward dcol A-operand, shared by the batch).
    packed_wt: Vec<f32>,
    /// Per-sample packed im2col matrices (forward B-operand).
    packed_cols: Vec<f32>,
    /// Per-sample packed `dY` as A-operand (dW GEMM).
    packed_dy_a: Vec<f32>,
    /// Per-sample packed `colᵀ` (dW B-operand).
    packed_colt: Vec<f32>,
    /// Per-sample packed `dY` as B-operand (dcol GEMM).
    packed_dy_b: Vec<f32>,
    /// Packed quantized filter matrix (i8 forward A-operand).
    packed_w_i8: Vec<i8>,
    /// Per-sample quantized input samples (i8 forward staging): the
    /// input is quantized *once* here, then stretched by `im2col_into`
    /// — quantizing the im2col matrix instead would round every input
    /// element K² times.
    qx: Vec<i8>,
    /// Per-sample quantized im2col matrices (i8 forward staging).
    /// Padding positions are zeroed on (re)allocation and never
    /// dirtied afterwards, exactly like `cols`.
    qcols: Vec<i8>,
    /// Batch size and geometry `qcols` currently holds, if any. Kept
    /// apart from `key`: an f32 pass at a new geometry re-zeros only
    /// `cols`, so the i8 staging must track its own validity.
    key_i8: Option<(usize, ConvGeometry)>,
    /// Per-sample packed quantized im2col matrices (i8 B-operand).
    packed_cols_i8: Vec<i8>,
    /// Per-sample i32 accumulators of the i8 forward, dequantized into
    /// the f32 output.
    acc_i32: Vec<i32>,
    /// How many times any buffer above has grown (see
    /// [`ConvWorkspace::reallocations`]).
    grows: usize,
}

impl ConvWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any internal buffer has grown. Constant between
    /// two passes ⇒ the kernel path performed no heap allocation in
    /// between (the zero-steady-state-allocation guarantee).
    pub fn reallocations(&self) -> usize {
        self.grows
    }

    /// Grows `buf` (never shrinks) via the shared scratch accounting.
    fn grow(buf: &mut Vec<f32>, len: usize, grows: &mut usize) {
        grow_scratch(buf, len, grows, "conv");
    }

    /// Readies `cols` for `b` samples of geometry `g` (zeroing it only
    /// when the batch size or geometry changed since the last pass) and
    /// sizes the forward packing buffers.
    fn prepare_forward(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) {
        let want = Some((b, *g));
        if self.key != want {
            let len = b * g.col_rows() * g.col_cols();
            // Geometry switches re-zero `cols`, so they intentionally
            // bypass the grow-only accounting.
            self.cols.clear();
            self.cols.resize(len, 0.0);
            self.key = want;
        }
        Self::grow(
            &mut self.packed_w,
            packed_a_len(g.out_channels, g.col_rows(), kern.mr()),
            &mut self.grows,
        );
        Self::grow(
            &mut self.packed_cols,
            b * packed_b_len(g.col_rows(), g.col_cols(), kern.nr()),
            &mut self.grows,
        );
    }

    /// Readies the quantized-forward buffers: the i8 input staging and
    /// im2col matrices (re-zeroing the latter only when the batch size
    /// or geometry changed, mirroring `prepare_forward`) plus the i8
    /// panels and i32 accumulators.
    fn prepare_forward_i8(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) {
        let want = Some((b, *g));
        if self.key_i8 != want {
            let len = b * g.col_rows() * g.col_cols();
            // Geometry switches re-zero `qcols` (padding positions
            // must hold zeros), so they intentionally bypass the
            // grow-only accounting.
            self.qcols.clear();
            self.qcols.resize(len, 0);
            self.key_i8 = want;
        }
        let (nk2, p) = (g.col_rows(), g.col_cols());
        let grows = &mut self.grows;
        grow_scratch(
            &mut self.packed_w_i8,
            packed_a_len(g.out_channels, nk2, kern.mr()),
            grows,
            "conv_i8",
        );
        grow_scratch(&mut self.qx, b * g.in_channels * g.in_h * g.in_w, grows, "conv_i8");
        grow_scratch(&mut self.packed_cols_i8, b * packed_b_len(nk2, p, kern.nr()), grows, "conv_i8");
        grow_scratch(&mut self.acc_i32, b * g.out_channels * p, grows, "conv_i8");
    }

    /// Sizes the backward scratch and packing buffers (contents need no
    /// zeroing: the packed kernels and packers assign every element).
    fn prepare_backward(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) {
        let (m, nk2, p) = (g.out_channels, g.col_rows(), g.col_cols());
        let (mr, nr) = (kern.mr(), kern.nr());
        let grows = &mut self.grows;
        Self::grow(&mut self.dcols, b * nk2 * p, grows);
        Self::grow(&mut self.dw_parts, b * m * nk2, grows);
        Self::grow(&mut self.db_parts, b * m, grows);
        Self::grow(&mut self.packed_wt, packed_a_len(nk2, m, mr), grows);
        Self::grow(&mut self.packed_dy_a, b * packed_a_len(m, p, mr), grows);
        Self::grow(&mut self.packed_colt, b * packed_b_len(p, nk2, nr), grows);
        Self::grow(&mut self.packed_dy_b, b * packed_b_len(m, p, nr), grows);
    }
}

/// Batched convolution forward pass into a reusable [`ConvWorkspace`].
///
/// * `input`: `(B, C, H, W)`
/// * `weight`: `(M, C, K, K)`
/// * `bias`: `(M,)`
///
/// Returns the output `(B, M, R, C)`. The per-sample im2col matrices
/// stay in `ws` for [`conv2d_backward_ws`] to reuse (the paper's
/// C-INTERMEDIATE reuse), so repeated calls with a stable batch size
/// and geometry do not allocate. Samples are processed in parallel on
/// the shared worker pool when the batch is large enough; the output is
/// bitwise identical for any thread count.
///
/// # Errors
///
/// Returns an error on any shape disagreement with the geometry.
pub fn conv2d_forward_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    ws: &mut ConvWorkspace,
) -> Result<Tensor> {
    let b = batch_of(input, g)?;
    check_weight_bias(weight, bias, g)?;
    let kern = Kernel::select();
    ws.prepare_forward(b, g, kern);
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let out_len = g.out_channels * g.out_h * g.out_w;
    let _t = conv_telemetry(
        "tensor.conv2d_fwd",
        b,
        g,
        4 * (b * sample_len + weight.len() + bias.len() + b * out_len) as u64,
    );
    let nk2 = g.col_rows();
    let positions = g.col_cols();
    let col_len = nk2 * positions;
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let pb_len = packed_b_len(nk2, positions, kern.nr());
    let mut out = Tensor::zeros([b, g.out_channels, g.out_h, g.out_w]);
    let xv = input.as_slice();
    {
        // (M, N, K, K) weights are row-major, so the flat slice *is* the
        // (M, N·K²) filter matrix Fm; pack it once for the whole batch.
        let _p = telemetry::span_with("tensor.pack", || format!("conv_fwd_w b{b}"));
        pack_a(weight.as_slice(), g.out_channels, nk2, false, kern.mr(), &mut ws.packed_w[..pa_len]);
    }
    let bv = bias.as_slice();
    let parts = plan_parts(b, b as u64 * g.ops());
    {
        let out_base = SendPtr(out.as_mut_slice().as_mut_ptr());
        let cols_base = SendPtr(ws.cols.as_mut_ptr());
        let pcols_base = SendPtr(ws.packed_cols.as_mut_ptr());
        let pw = &ws.packed_w[..pa_len];
        let run = |s: usize| {
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // buffer; samples are disjoint.
            let col = unsafe {
                std::slice::from_raw_parts_mut(cols_base.get().add(s * col_len), col_len)
            };
            let pcol = unsafe {
                std::slice::from_raw_parts_mut(pcols_base.get().add(s * pb_len), pb_len)
            };
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out_base.get().add(s * out_len), out_len)
            };
            let xs = &xv[s * sample_len..(s + 1) * sample_len];
            im2col_into(xs, g, col);
            // Fm × Dm: the micro-kernel assigns every output element,
            // then the bias is added on top.
            pack_b(col, nk2, positions, false, kern.nr(), pcol);
            kern.run_band(pw, pcol, nk2, positions, 0..g.out_channels, dst);
            for m in 0..g.out_channels {
                let bm = bv[m];
                for v in &mut dst[m * positions..(m + 1) * positions] {
                    *v += bm;
                }
            }
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }
    Ok(out)
}

/// Batched **quantized** convolution forward pass (the software twin of
/// the paper's fixed-point FPGA PEs).
///
/// * `input`: `(B, C, H, W)` f32 activations, quantized per tensor with
///   the static `in_scale` from calibration (see [`crate::quant`]).
/// * `qweight`: the filter bank flattened to `(M, N·K²)` and quantized
///   per output channel ([`QuantizedMatrix`]).
///
/// Each sample is quantized once, then im2col runs in the i8 domain
/// (it only moves values, and `quantize(0) == 0` keeps the padding
/// contract — quantizing the stretched matrix instead would round each
/// element K² times for bit-identical output), the GEMM runs in i8
/// with i32 accumulation, and each output channel dequantizes with
/// `in_scale · w_scale[m]` before the f32 bias is added. Integer
/// accumulation is exact and the dequantization is element-wise, so the
/// result is deterministic at any kernel and thread count. Buffers live
/// in `ws` and only ever grow: steady state allocates nothing beyond
/// the returned output tensor.
///
/// # Errors
///
/// Returns an error on any shape disagreement with the geometry.
pub fn conv2d_forward_i8_ws(
    input: &Tensor,
    qweight: &QuantizedMatrix,
    bias: &Tensor,
    g: &ConvGeometry,
    in_scale: f32,
    ws: &mut ConvWorkspace,
) -> Result<Tensor> {
    let b = batch_of(input, g)?;
    if qweight.rows() != g.out_channels || qweight.cols() != g.col_rows() {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "conv2d_forward_i8: quantized weight {}x{} incompatible with geometry \
                 ({} filters of {} taps)",
                qweight.rows(),
                qweight.cols(),
                g.out_channels,
                g.col_rows()
            ),
        });
    }
    if bias.len() != g.out_channels {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "conv2d_forward_i8: bias {} != out channels {}",
                bias.len(),
                g.out_channels
            ),
        });
    }
    let kern = Kernel::select();
    ws.prepare_forward_i8(b, g, kern);
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let out_len = g.out_channels * g.out_h * g.out_w;
    let _t = telemetry::span_with("tensor.quant.conv2d_fwd", || {
        format!(
            "b{b} {}x{}x{} -> {}x{}x{} k{} s{} p{}",
            g.in_channels, g.in_h, g.in_w, g.out_channels, g.out_h, g.out_w, g.kernel, g.stride,
            g.pad
        )
    });
    telemetry::counter_add(
        "tensor.quant.bytes",
        "conv_i8",
        (4 * b * sample_len + qweight.data().len() + b * g.col_rows() * g.col_cols()
            + 4 * b * out_len) as u64,
    );
    let nk2 = g.col_rows();
    let positions = g.col_cols();
    let col_len = nk2 * positions;
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let pb_len = packed_b_len(nk2, positions, kern.nr());
    let acc_len = g.out_channels * positions;
    let mut out = Tensor::zeros([b, g.out_channels, g.out_h, g.out_w]);
    let xv = input.as_slice();
    {
        let _p = telemetry::span_with("tensor.quant.pack", || format!("conv_fwd_w_i8 b{b}"));
        pack_a_i8(
            qweight.data(),
            g.out_channels,
            nk2,
            false,
            kern.mr(),
            &mut ws.packed_w_i8[..pa_len],
        );
    }
    let bv = bias.as_slice();
    let scales = qweight.scales();
    let parts = plan_parts(b, b as u64 * g.ops());
    {
        let out_base = SendPtr(out.as_mut_slice().as_mut_ptr());
        let qx_base = SendPtr(ws.qx.as_mut_ptr());
        let qcols_base = SendPtr(ws.qcols.as_mut_ptr());
        let pcols_base = SendPtr(ws.packed_cols_i8.as_mut_ptr());
        let acc_base = SendPtr(ws.acc_i32.as_mut_ptr());
        let pw = &ws.packed_w_i8[..pa_len];
        let run = |s: usize| {
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // buffer; samples are disjoint.
            let qxs = unsafe {
                std::slice::from_raw_parts_mut(qx_base.get().add(s * sample_len), sample_len)
            };
            let qcol = unsafe {
                std::slice::from_raw_parts_mut(qcols_base.get().add(s * col_len), col_len)
            };
            let pcol = unsafe {
                std::slice::from_raw_parts_mut(pcols_base.get().add(s * pb_len), pb_len)
            };
            let acc = unsafe {
                std::slice::from_raw_parts_mut(acc_base.get().add(s * acc_len), acc_len)
            };
            let dst = unsafe {
                std::slice::from_raw_parts_mut(out_base.get().add(s * out_len), out_len)
            };
            let xs = &xv[s * sample_len..(s + 1) * sample_len];
            // Quantize the sample once, then stretch in the i8 domain:
            // im2col duplicates each element up to K² times, so
            // rounding after the stretch would do K² times the work
            // for bit-identical output.
            quantize_i8(xs, in_scale, qxs);
            im2col_into(qxs, g, qcol);
            pack_b_i8(qcol, nk2, positions, false, kern.nr(), pcol);
            kern.run_band_i8(pw, pcol, nk2, positions, 0..g.out_channels, acc);
            for m in 0..g.out_channels {
                let factor = in_scale * scales[m];
                let bm = bv[m];
                let arow = &acc[m * positions..(m + 1) * positions];
                let drow = &mut dst[m * positions..(m + 1) * positions];
                for (d, &a) in drow.iter_mut().zip(arow) {
                    *d = a as f32 * factor + bm;
                }
            }
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }
    Ok(out)
}

/// Gradients of a batched convolution, reading the im2col matrices that
/// [`conv2d_forward_ws`] saved in `ws`.
///
/// Given the upstream gradient `dout: (B, M, R, C)`, returns
/// `(dinput, dweight, dbias)`, bitwise identical for any thread count:
/// samples run in parallel into per-sample partial buffers, which are
/// then reduced in ascending sample order exactly as the sequential
/// loop accumulates them.
///
/// # Errors
///
/// Returns an error if `ws` holds no forward pass for this geometry, or
/// on any shape disagreement with the geometry.
pub fn conv2d_backward_ws(
    dout: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    ws: &mut ConvWorkspace,
) -> Result<(Tensor, Tensor, Tensor)> {
    let b = match ws.key {
        Some((b, key_g)) if key_g == *g => b,
        _ => {
            return Err(TensorError::InvalidGeometry {
                reason: "conv2d_backward_ws: workspace holds no forward pass for this geometry"
                    .into(),
            })
        }
    };
    let expected = [b, g.out_channels, g.out_h, g.out_w];
    if dout.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: dout.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let nk2 = g.col_rows();
    if weight.len() != g.out_channels * nk2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![g.out_channels, g.in_channels, g.kernel, g.kernel],
            actual: weight.dims().to_vec(),
            op: "conv2d_backward(weight)",
        });
    }
    let kern = Kernel::select();
    ws.prepare_backward(b, g, kern);
    let (mr, nr) = (kern.mr(), kern.nr());
    let m_ch = g.out_channels;
    let positions = g.col_cols();
    let out_len = m_ch * positions;
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let col_len = nk2 * positions;
    let dw_len = m_ch * nk2;
    let _t = conv_telemetry(
        "tensor.conv2d_bwd",
        b,
        g,
        4 * (b * (out_len + col_len + sample_len) + weight.len() + dw_len) as u64,
    );

    let mut dinput = Tensor::zeros([b, g.in_channels, g.in_h, g.in_w]);
    let dv = dout.as_slice();
    let pwt_len = packed_a_len(nk2, m_ch, mr);
    {
        // W is flat (M, N·K²) — i.e. (k, m) for the dcol GEMM — so the
        // transposed packing of it serves every sample; pack it once.
        let _p = telemetry::span_with("tensor.pack", || format!("conv_bwd_wt b{b}"));
        pack_a(weight.as_slice(), nk2, m_ch, true, mr, &mut ws.packed_wt[..pwt_len]);
    }
    let pdya_len = packed_a_len(m_ch, positions, mr);
    let pcolt_len = packed_b_len(positions, nk2, nr);
    let pdyb_len = packed_b_len(m_ch, positions, nr);
    let parts = plan_parts(b, 2 * b as u64 * g.ops());
    {
        let din_base = SendPtr(dinput.as_mut_slice().as_mut_ptr());
        let dcol_base = SendPtr(ws.dcols.as_mut_ptr());
        let dw_base = SendPtr(ws.dw_parts.as_mut_ptr());
        let db_base = SendPtr(ws.db_parts.as_mut_ptr());
        let pdya_base = SendPtr(ws.packed_dy_a.as_mut_ptr());
        let pcolt_base = SendPtr(ws.packed_colt.as_mut_ptr());
        let pdyb_base = SendPtr(ws.packed_dy_b.as_mut_ptr());
        let cols = &ws.cols;
        let pwt = &ws.packed_wt[..pwt_len];
        let run = |s: usize| {
            let dy = &dv[s * out_len..(s + 1) * out_len]; // (M, P)
            let col = &cols[s * col_len..(s + 1) * col_len]; // (N·K², P)
            // SAFETY: task `s` touches only sample `s`'s slice of each
            // scratch/output buffer; samples are disjoint.
            let pdya = unsafe {
                std::slice::from_raw_parts_mut(pdya_base.get().add(s * pdya_len), pdya_len)
            };
            let pcolt = unsafe {
                std::slice::from_raw_parts_mut(pcolt_base.get().add(s * pcolt_len), pcolt_len)
            };
            let pdyb = unsafe {
                std::slice::from_raw_parts_mut(pdyb_base.get().add(s * pdyb_len), pdyb_len)
            };
            let dw = unsafe { std::slice::from_raw_parts_mut(dw_base.get().add(s * dw_len), dw_len) };
            // dW_s = dY · colᵀ → (M, N·K²); col is (N·K², P) = (n, k),
            // so its transposed packing is the B-operand. The kernel
            // assigns every element, so `dw` needs no pre-zeroing.
            pack_a(dy, m_ch, positions, false, mr, pdya);
            pack_b(col, positions, nk2, true, nr, pcolt);
            kern.run_band(pdya, pcolt, positions, nk2, 0..m_ch, dw);
            // db_s = row sums of dY.
            let db = unsafe {
                std::slice::from_raw_parts_mut(db_base.get().add(s * m_ch), m_ch)
            };
            for m in 0..m_ch {
                db[m] = dy[m * positions..(m + 1) * positions].iter().sum::<f32>();
            }
            // dX_s = col2im(Wᵀ · dY); the kernel assigns every element
            // of dcol, which col2im then scatters into dx.
            let dcol =
                unsafe { std::slice::from_raw_parts_mut(dcol_base.get().add(s * col_len), col_len) };
            pack_b(dy, m_ch, positions, false, nr, pdyb);
            kern.run_band(pwt, pdyb, m_ch, positions, 0..nk2, dcol);
            let dx = unsafe {
                std::slice::from_raw_parts_mut(din_base.get().add(s * sample_len), sample_len)
            };
            col2im_into(dcol, g, dx);
        };
        if parts == 1 {
            for s in 0..b {
                run(s);
            }
        } else {
            parallel_for(b, run);
        }
    }

    // Deterministic reduction: ascending sample order, independent of
    // which worker produced each partial — the same fold the sequential
    // loop performs.
    let mut dwmat = vec![0.0f32; dw_len];
    let mut dbias = Tensor::zeros([g.out_channels]);
    let dbv = dbias.as_mut_slice();
    for s in 0..b {
        for (acc, &p) in dwmat.iter_mut().zip(&ws.dw_parts[s * dw_len..(s + 1) * dw_len]) {
            *acc += p;
        }
        let db = &ws.db_parts[s * g.out_channels..(s + 1) * g.out_channels];
        for (acc, &p) in dbv.iter_mut().zip(db) {
            *acc += p;
        }
    }
    let dweight =
        Tensor::from_vec([g.out_channels, g.in_channels, g.kernel, g.kernel], dwmat)?;
    Ok((dinput, dweight, dbias))
}

fn batch_of(input: &Tensor, g: &ConvGeometry) -> Result<usize> {
    let d = input.dims();
    if d.len() != 4 || d[1] != g.in_channels || d[2] != g.in_h || d[3] != g.in_w {
        return Err(TensorError::ShapeMismatch {
            expected: vec![0, g.in_channels, g.in_h, g.in_w],
            actual: d.to_vec(),
            op: "conv2d",
        });
    }
    Ok(d[0])
}

fn check_weight_bias(weight: &Tensor, bias: &Tensor, g: &ConvGeometry) -> Result<()> {
    let expected = [g.out_channels, g.in_channels, g.kernel, g.kernel];
    if weight.dims() != expected {
        return Err(TensorError::ShapeMismatch {
            expected: expected.to_vec(),
            actual: weight.dims().to_vec(),
            op: "conv2d(weight)",
        });
    }
    if bias.dims() != [g.out_channels] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![g.out_channels],
            actual: bias.dims().to_vec(),
            op: "conv2d(bias)",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    fn small_geom() -> ConvGeometry {
        ConvGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap()
    }

    /// im2col of one flattened `(C, H, W)` sample into a fresh zeroed
    /// matrix.
    fn im2col(x: &[f32], g: &ConvGeometry) -> Vec<f32> {
        let mut out = vec![0.0; g.col_rows() * g.col_cols()];
        im2col_into(x, g, &mut out);
        out
    }

    /// col2im of one flattened `(N·K², R·C)` matrix into a fresh zeroed
    /// sample.
    fn col2im(col: &[f32], g: &ConvGeometry) -> Vec<f32> {
        let mut out = vec![0.0; g.in_channels * g.in_h * g.in_w];
        col2im_into(col, g, &mut out);
        out
    }

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    /// The forward pass on a fresh workspace.
    fn forward(x: &Tensor, w: &Tensor, b: &Tensor, g: &ConvGeometry) -> Result<Tensor> {
        conv2d_forward_ws(x, w, b, g, &mut ConvWorkspace::new())
    }

    #[test]
    fn geometry_math() {
        let g = ConvGeometry::new(3, 36, 36, 8, 3, 1, 1).unwrap();
        assert_eq!((g.out_h, g.out_w), (36, 36));
        let g2 = ConvGeometry::new(3, 227, 227, 96, 11, 4, 0).unwrap();
        assert_eq!((g2.out_h, g2.out_w), (55, 55)); // AlexNet conv1
        assert!(ConvGeometry::new(1, 4, 4, 1, 3, 0, 0).is_err());
        assert!(ConvGeometry::new(1, 2, 2, 1, 5, 1, 0).is_err());
    }

    #[test]
    fn ops_matches_eq1() {
        // AlexNet conv1: 2*96*3*11^2*55*55 = 210,830,400 ops
        let g = ConvGeometry::new(3, 227, 227, 96, 11, 4, 0).unwrap();
        assert_eq!(g.ops(), 2 * 96 * 3 * 121 * 55 * 55);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col matrix equals input flattened.
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 1, 0).unwrap();
        let x: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let col = im2col(&x, &g);
        assert_eq!((g.col_rows(), g.col_cols()), (2, 9));
        assert_eq!(col, x);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad.
        let g = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let x: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let col = im2col(&x, &g);
        // Rows: k-position; cols: 4 output positions (2x2).
        assert_eq!((g.col_rows(), g.col_cols()), (4, 4));
        assert_eq!(&col[0..4], &[1.0, 2.0, 4.0, 5.0]); // top-left taps
        assert_eq!(&col[12..16], &[5.0, 6.0, 8.0, 9.0]); // bottom-right taps
    }

    #[test]
    fn conv_forward_known_values() {
        // Sum filter over 2x2 windows.
        let g = ConvGeometry::new(1, 3, 3, 1, 2, 1, 0).unwrap();
        let x = Tensor::from_vec([1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let w = Tensor::filled([1, 1, 2, 2], 1.0);
        let bias = Tensor::zeros([1]);
        let y = forward(&x, &w, &bias, &g).unwrap();
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_per_filter() {
        let g = ConvGeometry::new(1, 2, 2, 2, 1, 1, 0).unwrap();
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([2, 1, 1, 1]);
        let bias = Tensor::from_vec([2], vec![0.5, -1.5]).unwrap();
        let y = forward(&x, &w, &bias, &g).unwrap();
        assert_eq!(&y.as_slice()[0..4], &[0.5; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-1.5; 4]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let g = small_geom();
        let mut rng = Rng::seed_from(6);
        let x = Tensor::rand_uniform([2, 5, 5], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform([g.col_rows(), g.col_cols()], -1.0, 1.0, &mut rng);
        let lhs = dot(&im2col(x.as_slice(), &g), y.as_slice());
        let rhs = dot(x.as_slice(), &col2im(y.as_slice(), &g));
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn im2col_col2im_adjoint(
            c in 1usize..4, h in 3usize..8, k in 1usize..4, pad in 0usize..2, seed in 0u64..500
        ) {
            prop_assume!(k <= h + 2 * pad);
            let g = ConvGeometry::new(c, h, h, 1, k, 1, pad).unwrap();
            let mut rng = Rng::seed_from(seed);
            let x = Tensor::rand_uniform([c, h, h], -1.0, 1.0, &mut rng);
            let y = Tensor::rand_uniform([g.col_rows(), g.col_cols()], -1.0, 1.0, &mut rng);
            let lhs = dot(&im2col(x.as_slice(), &g), y.as_slice());
            let rhs = dot(x.as_slice(), &col2im(y.as_slice(), &g));
            prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
        }
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Central finite differences against analytic gradients on a tiny conv.
        let g = ConvGeometry::new(2, 4, 4, 2, 3, 1, 1).unwrap();
        let mut rng = Rng::seed_from(7);
        let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([2, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([2], -0.1, 0.1, &mut rng);
        // Loss = sum(output); so dout = ones.
        let mut ws = ConvWorkspace::new();
        conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        let dout = Tensor::filled([1, 2, g.out_h, g.out_w], 1.0);
        let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();

        let eps = 1e-2f32;
        let loss =
            |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 { forward(x, w, b, &g).unwrap().sum() };
        // Check a scattering of weight coordinates.
        for idx in [0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &bias) - loss(&x, &wm, &bias)) / (2.0 * eps);
            let ana = dw.as_slice()[idx];
            assert!((num - ana).abs() < 2e-2, "dW[{idx}]: num {num} vs ana {ana}");
        }
        for idx in [0usize, 9, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &w, &bias) - loss(&xm, &w, &bias)) / (2.0 * eps);
            let ana = dx.as_slice()[idx];
            assert!((num - ana).abs() < 2e-2, "dX[{idx}]: num {num} vs ana {ana}");
        }
        for idx in [0usize, 1] {
            let mut bp = bias.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bias.clone();
            bm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            let ana = db.as_slice()[idx];
            assert!((num - ana).abs() < 2e-1, "db[{idx}]: num {num} vs ana {ana}");
        }
    }

    #[test]
    fn batch_independence() {
        // Convolving a batch equals convolving each sample separately.
        let g = small_geom();
        let mut rng = Rng::seed_from(8);
        let x = Tensor::rand_uniform([3, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let y = forward(&x, &w, &bias, &g).unwrap();
        let sample_len = 2 * 5 * 5;
        let out_len = 3 * g.out_h * g.out_w;
        for s in 0..3 {
            let xs = Tensor::from_vec(
                [1, 2, 5, 5],
                x.as_slice()[s * sample_len..(s + 1) * sample_len].to_vec(),
            )
            .unwrap();
            let ys = forward(&xs, &w, &bias, &g).unwrap();
            assert_eq!(&y.as_slice()[s * out_len..(s + 1) * out_len], ys.as_slice());
        }
    }

    #[test]
    fn shape_errors() {
        let g = small_geom();
        let bad_x = Tensor::zeros([1, 3, 5, 5]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let bias = Tensor::zeros([3]);
        assert!(forward(&bad_x, &w, &bias, &g).is_err());
        let x = Tensor::zeros([1, 2, 5, 5]);
        assert!(forward(&x, &Tensor::zeros([3, 2, 2, 2]), &bias, &g).is_err());
        assert!(forward(&x, &w, &Tensor::zeros([4]), &g).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        // The whole point of the workspace is that reusing it across
        // passes — same geometry, different inputs — changes nothing.
        let g = small_geom();
        let mut rng = Rng::seed_from(31);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let mut ws = ConvWorkspace::new();
        for _ in 0..4 {
            let x = Tensor::rand_uniform([2, 2, 5, 5], -1.0, 1.0, &mut rng);
            let dout = Tensor::rand_uniform([2, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            let (dx, dw, db) = conv2d_backward_ws(&dout, &w, &g, &mut ws).unwrap();
            let mut fresh = ConvWorkspace::new();
            let y2 = conv2d_forward_ws(&x, &w, &bias, &g, &mut fresh).unwrap();
            let (dx2, dw2, db2) = conv2d_backward_ws(&dout, &w, &g, &mut fresh).unwrap();
            assert_eq!(bits(&y), bits(&y2));
            assert_eq!(bits(&dx), bits(&dx2));
            assert_eq!(bits(&dw), bits(&dw2));
            assert_eq!(bits(&db), bits(&db2));
        }
    }

    #[test]
    fn workspace_survives_geometry_switch() {
        // Switching batch size or geometry must re-zero the column
        // buffer; stale padding taps from the previous shape would
        // otherwise leak into the new pass.
        let g1 = small_geom();
        let g2 = ConvGeometry::new(2, 7, 7, 4, 3, 1, 1).unwrap();
        let mut rng = Rng::seed_from(32);
        let mut ws = ConvWorkspace::new();
        for (g, b, m) in [(&g1, 3usize, 3usize), (&g2, 2, 4), (&g1, 1, 3), (&g1, 3, 3)] {
            let x = Tensor::rand_uniform([b, 2, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([m, 2, 3, 3], -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform([m], -0.1, 0.1, &mut rng);
            let y = conv2d_forward_ws(&x, &w, &bias, g, &mut ws).unwrap();
            let y2 = forward(&x, &w, &bias, g).unwrap();
            assert_eq!(bits(&y), bits(&y2));
        }
    }

    #[test]
    fn workspace_backward_needs_matching_forward() {
        let g = small_geom();
        let mut rng = Rng::seed_from(33);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let dout = Tensor::rand_uniform([2, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
        // No forward pass at all.
        let mut ws = ConvWorkspace::new();
        assert!(conv2d_backward_ws(&dout, &w, &g, &mut ws).is_err());
        // Forward ran, but with a different batch size than dout claims.
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let bias = Tensor::zeros([3]);
        conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        assert!(conv2d_backward_ws(&dout, &w, &g, &mut ws).is_err());
    }
}
