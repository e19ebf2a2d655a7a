//! 2-D convolution lowered to GEMM.
//!
//! This is the lowering the paper describes for GPU execution (its
//! Fig. 8): each output position's receptive field becomes one column
//! of a data matrix `Dm`, the filters are flattened into a filter
//! matrix `Fm`, and the convolution becomes the GEMM `Fm × Dm`.
//!
//! `Dm` itself is never built. Each sample is copied once into the
//! interior of a zero-bordered `(H+2p)×(W+2p)` staging slot, and two
//! offset tables are built once per geometry: `rows[r]`, the offset of
//! `Dm` row `r = (c, ky, kx)` from a position's top-left tap, and
//! `lanes[j]`, the top-left tap `(oy·s)·(W+2p) + ox·s` of output
//! position `j = (oy, ox)`. Tap `(r, j)` is `slot[rows[r] + lanes[j]]`,
//! bit for bit the element im2col would put in `Dm`, padding taps
//! included.
//!
//! The forward computes each output plane over the padded width: at
//! every position `j' < n' = (R−1)·s·(W+2p) + (C−1)·s + 1`, so row `r`
//! of B panel `q` is the contiguous run `slot[rows[r] + q·NR..][..NR]`,
//! and the micro-kernel loads B straight from the slot through `rows`
//! (see [`crate::microkernel`]'s `Taps`); nothing is packed. Positions
//! between the output grid's points, and the last panel's lanes past
//! `n'`, are computed and dropped: one write-back keeps position
//! `lanes[j]` of each plane and adds the bias (the i8 forward
//! dequantizes in the same pass). Each slot ends in a zeroed tail of
//! NR−1 elements that the last panel's lanes past `n'` read, so a
//! sample reads only its own slot. Each kept output sums the same taps
//! in the same `(c, ky, kx)` order as `Fm × Dm`, so the result is the
//! GEMM's bit for bit, at any stride.
//!
//! A plane no larger than one kernel window (`H·W ≤ K²`, such as the
//! jigsaw trunk's 3×3 planes under a 3×3 kernel) takes a dense lowering
//! in the f32 forward instead: the conv is then a linear map from a
//! sample's `N·H·W` inputs to its `M·R·C` outputs, and the batch runs
//! as one GEMM `X (B × N·H·W) · Wd (N·H·W × M·R·C)`, no more multiplies
//! than `Fm × Dm`. `X` is the input tensor itself, and each output row
//! is already a sample's NCHW output, so only the bias is added after.
//! `Wd[(c, iy, ix), (m, oy, ox)]` is the weight that tap `(iy, ix)` of
//! output `(oy, ox)` meets, or 0 outside its window; the workspace keeps
//! it packed, keyed by the filter bank's bits, so it is rebuilt once per
//! weight change. Each output's chain meets its in-window taps in the
//! same ascending `(c, ky, kx)` order as `Fm × Dm`, and every extra term
//! on either side (a padding tap there, a tap outside the window here)
//! is a product with a zero, ±0 for finite operands. The accumulator
//! starts at +0 and in round-to-nearest never becomes −0, so adding ±0
//! never changes it: for finite inputs and weights the dense result is
//! the GEMM's bit for bit. A non-finite input or weight can differ
//! (0·∞ is NaN, so an infinite input reaches outputs whose window does
//! not cover it), and the oracle draws only finite values. The forward
//! still stages every sample, so the backward pass is the same for
//! both lowerings, and the i8 forward keeps the staged lowering.
//!
//! The weight gradient gathers packed `Dmᵀ` panels from the slot with
//! the two tables swapped; the input gradient goes back through the
//! adjoint scatter `col2im`.
//!
//! The entry points are [`conv2d_forward_ws`] and [`conv2d_backward_ws`]
//! (f32, the pair a training step runs) and [`conv2d_forward_i8_ws`]
//! (fixed point). All three run through a [`ConvWorkspace`], which
//! keeps the tables, the staging and the GEMM scratch across calls —
//! eliminating steady-state allocations — and carries the forward
//! pass's staged samples to the backward pass. Batched passes
//! parallelize over the batch dimension on the shared worker pool (see
//! [`crate::parallel`]): samples are independent, and the per-sample
//! gradients are reduced in ascending sample order, so results are
//! bitwise identical for any thread count.

use crate::error::TensorError;
use crate::microkernel::{Kernel, Packed, Taps};
use crate::pack::{grow_scratch, pack_a, pack_a_i8, pack_b, packed_a_len, packed_b_len};
use crate::parallel::{par_split, PerUnit};
use crate::quant::{quantize_i8, QuantizedMatrix};
use crate::tensor::Tensor;
use crate::Result;
use insitu_telemetry as telemetry;

/// Opens the per-call telemetry span and bytes counter for one batched
/// convolution pass (inert while telemetry is disabled). `bytes` counts
/// the f32 traffic of the pass: activations, weights and outputs (the
/// backward pass also reads the staged samples its forward left).
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

    /// Row length and plane size of one zero-bordered staging channel:
    /// `(W+2p, (H+2p)·(W+2p))`.
    fn padded_plane(&self) -> (usize, usize) {
        let wp = self.in_w + 2 * self.pad;
        (wp, (self.in_h + 2 * self.pad) * wp)
    }

    /// Elements of one sample's zero-bordered copy: `N·(H+2p)·(W+2p)`.
    fn staging_len(&self) -> usize {
        self.in_channels * self.padded_plane().1
    }

    /// Stride of the staging slots: the zero-bordered copy plus a zeroed
    /// tail of `nr − 1` elements, which the last B panel's lanes past
    /// the last position read at panel width `nr`.
    fn slot_len(&self, nr: usize) -> usize {
        self.staging_len() + nr - 1
    }

    /// Positions the forward computes per output plane: `n' =
    /// (R−1)·s·(W+2p) + (C−1)·s + 1`, from the first output's top-left
    /// tap to the last's, over the padded width.
    fn padded_cols(&self) -> usize {
        let (wp, _) = self.padded_plane();
        (self.out_h - 1) * self.stride * wp + (self.out_w - 1) * self.stride + 1
    }

    /// Whether the input plane is no larger than one kernel window,
    /// `H·W ≤ K²`: the dense GEMM `X · Wd` then does no more multiplies
    /// than `Fm × Dm` (`N·H·W` against `N·K²` per output), and the f32
    /// forward takes it.
    fn fits_one_window(&self) -> bool {
        self.in_h * self.in_w <= self.kernel * self.kernel
    }
}

/// Copies one flattened `(C, H, W)` sample into the interior of its
/// zero-bordered staging slot. Only the interior is written, so the
/// border and the tail keep the zeros they were given when the
/// geometry was set or the staging grew.
fn stage_sample<T: Copy>(x: &[T], g: &ConvGeometry, slot: &mut [T]) {
    let (wp, plane) = g.padded_plane();
    let (h, w, p) = (g.in_h, g.in_w, g.pad);
    for c in 0..g.in_channels {
        for y in 0..h {
            let src = &x[(c * h + y) * w..][..w];
            slot[c * plane + (y + p) * wp + p..][..w].copy_from_slice(src);
        }
    }
}

/// Fills packed B panels (the [`crate::pack`] layout) straight from a
/// staging slot: `dst[q][kk][j] = slot[ks[kk] + cols[q·NR + j]]`, with
/// the lanes past the last column zeroed. With `ks = lanes` and
/// `cols = rows` this packs `Dmᵀ`, the weight gradient's B operand
/// (with the tables the other way round, `Dm`).
fn gather_panels<T: Copy + Default>(
    slot: &[T],
    ks: &[usize],
    cols: &[usize],
    nr: usize,
    dst: &mut [T],
) {
    debug_assert_eq!(dst.len(), packed_b_len(ks.len(), cols.len(), nr));
    for (panel, cols) in dst.chunks_exact_mut(nr * ks.len()).zip(cols.chunks(nr)) {
        for (d, &k0) in panel.chunks_exact_mut(nr).zip(ks) {
            let (taps, pad) = d.split_at_mut(cols.len());
            for (v, &c) in taps.iter_mut().zip(cols) {
                *v = slot[k0 + c];
            }
            pad.fill(T::default());
        }
    }
}

/// Spreads the filter bank `w (M, N, K, K)` into the packed B panels
/// (the [`crate::pack`] layout, panel width `nr`) of the dense
/// forward's `Wd (N·H·W × M·R·C)`: `Wd[(c, iy, ix), (m, oy, ox)] =
/// w[m, c, iy − oy·s + p, ix − ox·s + p]` where that tap lies in the
/// kernel window, 0 elsewhere and in the lanes past the last column.
fn spread_filters(w: &[f32], g: &ConvGeometry, nr: usize, dst: &mut [f32]) {
    let (k, s, p, h, wd) = (g.kernel, g.stride, g.pad, g.in_h, g.in_w);
    let (taps, positions) = (g.col_rows(), g.col_cols());
    let rows = g.in_channels * h * wd;
    debug_assert_eq!(dst.len(), packed_b_len(rows, g.out_channels * positions, nr));
    dst.fill(0.0);
    // The set-up's training steps change the weights before every
    // forward, so this runs once per step there: the loops below walk
    // the taps in order and divide only once per column.
    let mut col = 0;
    for filter in w.chunks_exact(taps) {
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                // Row `kk` of column `col` sits at `lane[kk·nr]`.
                let lane = &mut dst[col / nr * nr * rows + col % nr..];
                col += 1;
                for (c, taps) in filter.chunks_exact(k * k).enumerate() {
                    for (ky, taps) in taps.chunks_exact(k).enumerate() {
                        let Some(iy) = (oy * s + ky).checked_sub(p).filter(|&y| y < h) else {
                            continue;
                        };
                        for (kx, &v) in taps.iter().enumerate() {
                            if let Some(ix) = (ox * s + kx).checked_sub(p).filter(|&x| x < wd) {
                                lane[((c * h + iy) * wd + ix) * nr] = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// col2im, the adjoint of the `Dm` gather: scatters a flattened
/// `(N·K², R·C)` matrix into the flattened `(C, H, W)` buffer `o`,
/// *accumulating* values that came from the same input element, in
/// ascending `(c, ky, kx)` order.
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

/// The write-back of a forward pass: each output `(m, oy, ox)` is
/// `plane(m)(v)` of the product `v` at position `(oy·s)·(W+2p) + ox·s`
/// of plane `m` of `acc`, the `(M, n')` products over the padded width.
/// `plane` runs once per output channel, so its constants stay out of
/// the element loop.
fn write_back<T: Copy, G: Fn(T) -> f32>(
    acc: &[T],
    g: &ConvGeometry,
    dst: &mut [f32],
    plane: impl Fn(usize) -> G,
) {
    let (wp, _) = g.padded_plane();
    let s = g.stride;
    let planes = dst.chunks_exact_mut(g.col_cols()).zip(acc.chunks_exact(g.padded_cols()));
    for (m, (dplane, aplane)) in planes.enumerate() {
        let f = plane(m);
        // Output row oy starts at position oy·s·(W+2p).
        for (drow, arow) in dplane.chunks_exact_mut(g.out_w).zip(aplane.chunks(s * wp)) {
            // Unit stride gets its own zip because it vectorizes; a single
            // loop over `step_by(s)` or `arow[ox * s]` does not, and made
            // a whole `infer_conv1` call (36-wide rows) 1.2–1.6× slower.
            if s == 1 {
                for (d, &v) in drow.iter_mut().zip(arow) {
                    *d = f(v);
                }
            } else {
                for (d, &v) in drow.iter_mut().zip(arow.iter().step_by(s)) {
                    *d = f(v);
                }
            }
        }
    }
}

/// Reusable scratch buffers for batched convolution passes.
///
/// A fresh workspace allocates on first use; later passes with the
/// same geometry reuse every buffer at any batch size up to the
/// largest seen, so the steady-state training loop performs no
/// per-call conv allocations beyond the output tensors themselves.
/// The f32 forward pass also leaves its staged samples here, which the
/// backward pass consumes (the paper's C-INTERMEDIATE reuse) — call
/// [`conv2d_forward_ws`] before [`conv2d_backward_ws`].
///
/// Workspaces are cheap to create (`Default`) and independent; use one
/// per layer (or per thread when running models concurrently).
///
/// Cloning yields a fresh empty workspace, as
/// [`GemmScratch`](crate::GemmScratch)'s clone does: scratch is not
/// model state, so a cloned layer neither copies warm buffers nor
/// inherits the saved forward pass.
#[derive(Debug, Default)]
pub struct ConvWorkspace {
    /// Geometry the tables are built for and the staging borders and
    /// tails are zeroed for, if any.
    key: Option<ConvGeometry>,
    /// Per output position `j = (oy, ox)`: the offset of its top-left
    /// tap in a zero-bordered channel plane, `(oy·s)·(W+2p) + ox·s`.
    /// The forward's write-back keeps these positions; the weight
    /// gradient's gather reads its k-steps through them.
    lanes: Vec<usize>,
    /// Per `Dm` row `r = (c, ky, kx)`: `c·(H+2p)·(W+2p) + ky·(W+2p) + kx`,
    /// so `rows[r] + lanes[j]` is the staging offset of tap `(r, j)`.
    /// The forward's micro-kernel loads B row `r` at `rows[r]`.
    rows: Vec<usize>,
    /// Per-sample slots of the f32 input, `b ×` [`slot_len`]: a
    /// zero-bordered copy `N·(H+2p)·(W+2p)`, then a zeroed tail of
    /// NR−1 elements. Zeroed whole when the geometry changes, and grown
    /// with zeros; passes write only interiors, so borders and tails
    /// stay zero across batch sizes. The forward's micro-kernel reads B
    /// from here, and the backward pass gathers `Dmᵀ` from here.
    ///
    /// [`slot_len`]: ConvGeometry::slot_len
    staging: Vec<f32>,
    /// Batch size of the last f32 forward pass, whose samples
    /// `staging` holds for the backward pass.
    saved_batch: Option<usize>,
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
    /// Per-sample `(M, n')` products of the f32 forward over the padded
    /// width (see [`ConvGeometry::padded_cols`]), which the write-back
    /// reads.
    acc_f32: Vec<f32>,
    /// Packed B panels of the spread filter bank `Wd` (see
    /// [`spread_filters`]) that the dense forward multiplies every
    /// sample by, for a plane no larger than one kernel window. Built
    /// once per weight change, not per call.
    dense_w: Vec<f32>,
    /// Bit patterns of the filter bank `dense_w` was spread from, its
    /// first `M·N·K²` elements. Compared bit for bit, so a weight that
    /// changes only from +0 to −0 still rebuilds `dense_w`.
    dense_key: Vec<u32>,
    /// Whether `dense_w` and `dense_key` hold a bank spread for the
    /// current geometry; a geometry change clears it.
    dense_ready: bool,
    /// Packed A panels of the dense forward's input rows: the batch is
    /// the row-major `X (B × N·H·W)`, packed one MR-row band at a time.
    dense_x: Vec<f32>,
    /// Per-sample packed `dY` as A-operand (dW GEMM).
    packed_dy_a: Vec<f32>,
    /// Per-sample packed `Dmᵀ` panels (dW B-operand).
    packed_colt: Vec<f32>,
    /// Per-sample packed `dY` as B-operand (dcol GEMM).
    packed_dy_b: Vec<f32>,
    /// Packed quantized filter matrix (i8 forward A-operand).
    packed_w_i8: Vec<i8>,
    /// Per-sample quantized input samples: the input is quantized
    /// *once* here, then staged.
    qx: Vec<i8>,
    /// Per-sample slots of the quantized input, laid out, zeroed and
    /// read exactly like `staging` (`quantize(0) == 0`).
    staging_i8: Vec<i8>,
    /// Per-sample `(M, n')` i32 accumulators of the i8 forward, which
    /// the write-back dequantizes into the f32 output.
    acc_i32: Vec<i32>,
    /// How many times any buffer above has grown (see
    /// [`ConvWorkspace::reallocations`]).
    grows: usize,
}

impl Clone for ConvWorkspace {
    fn clone(&self) -> Self {
        ConvWorkspace::new()
    }
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
    fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize, grows: &mut usize) {
        grow_scratch(buf, len, grows, "conv");
    }

    /// Builds the tables for `g` and zeroes both stagings, borders and
    /// tails included, unless they already serve `g`. A new geometry
    /// also forgets the saved forward pass. The slot stride depends on
    /// the kernel's NR as well, which [`Kernel::select`] fixes once per
    /// process.
    fn set_geometry(&mut self, g: &ConvGeometry) {
        if self.key == Some(*g) {
            return;
        }
        let (wp, plane) = g.padded_plane();
        let (k, s) = (g.kernel, g.stride);
        let (nk2, positions) = (g.col_rows(), g.col_cols());
        Self::grow(&mut self.lanes, positions, &mut self.grows);
        Self::grow(&mut self.rows, nk2, &mut self.grows);
        for (j, lane) in self.lanes[..positions].iter_mut().enumerate() {
            *lane = (j / g.out_w * s) * wp + j % g.out_w * s;
        }
        for (r, row) in self.rows[..nk2].iter_mut().enumerate() {
            *row = r / (k * k) * plane + r / k % k * wp + r % k;
        }
        self.staging.fill(0.0);
        self.staging_i8.fill(0);
        self.saved_batch = None;
        self.dense_ready = false;
        self.key = Some(*g);
    }

    /// Readies the tables and staging for `b` samples of geometry `g`
    /// and sizes the packed weights and the products.
    fn prepare_forward(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) {
        self.set_geometry(g);
        let grows = &mut self.grows;
        Self::grow(&mut self.staging, b * g.slot_len(kern.nr()), grows);
        Self::grow(
            &mut self.packed_w,
            packed_a_len(g.out_channels, g.col_rows(), kern.mr()),
            grows,
        );
        Self::grow(&mut self.acc_f32, b * g.out_channels * g.padded_cols(), grows);
    }

    /// Readies the dense forward for `b` samples of geometry `g`: the
    /// tables, the staging and the input panels, and `Wd`, re-spread
    /// from `w` unless it already holds `w` bit for bit.
    fn prepare_dense(&mut self, b: usize, g: &ConvGeometry, kern: Kernel, w: &[f32]) {
        self.set_geometry(g);
        let (rows, cols) = (g.in_channels * g.in_h * g.in_w, g.out_channels * g.col_cols());
        let grows = &mut self.grows;
        Self::grow(&mut self.staging, b * g.slot_len(kern.nr()), grows);
        Self::grow(&mut self.dense_x, packed_a_len(b, rows, kern.mr()), grows);
        let key = || w.iter().map(|v| v.to_bits());
        if self.dense_ready && self.dense_key.iter().copied().take(w.len()).eq(key()) {
            return;
        }
        let wd_len = packed_b_len(rows, cols, kern.nr());
        Self::grow(&mut self.dense_w, wd_len, grows);
        Self::grow(&mut self.dense_key, w.len(), grows);
        let _p = telemetry::span_with("tensor.pack", || "conv_dense_w".to_string());
        spread_filters(w, g, kern.nr(), &mut self.dense_w[..wd_len]);
        for (k, bits) in self.dense_key.iter_mut().zip(key()) {
            *k = bits;
        }
        self.dense_ready = true;
    }

    /// Readies the quantized-forward buffers: the tables, the i8 input
    /// and its staging, the packed i8 weights and the i32 accumulators.
    fn prepare_forward_i8(&mut self, b: usize, g: &ConvGeometry, kern: Kernel) {
        self.set_geometry(g);
        let grows = &mut self.grows;
        grow_scratch(
            &mut self.packed_w_i8,
            packed_a_len(g.out_channels, g.col_rows(), kern.mr()),
            grows,
            "conv_i8",
        );
        grow_scratch(&mut self.qx, b * g.in_channels * g.in_h * g.in_w, grows, "conv_i8");
        grow_scratch(&mut self.staging_i8, b * g.slot_len(kern.nr()), grows, "conv_i8");
        grow_scratch(&mut self.acc_i32, b * g.out_channels * g.padded_cols(), grows, "conv_i8");
    }

    /// Sizes the backward scratch and packing buffers (contents need no
    /// zeroing: the micro-kernels, packers and gather assign every
    /// element).
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
/// Returns the output `(B, M, R, C)`. The staged samples stay in `ws`
/// for [`conv2d_backward_ws`] to reuse (the paper's C-INTERMEDIATE
/// reuse), so repeated calls with a stable geometry do not allocate.
/// Samples are processed in parallel on the shared worker pool when the
/// batch is large enough; the output is bitwise identical for any
/// thread count. A plane no larger than one kernel window runs as one
/// dense GEMM against the filter bank spread and cached in `ws` (see
/// the module docs); its result is the staged lowering's bit for bit
/// when the input and weights are finite.
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
    let sample_len = g.in_channels * g.in_h * g.in_w;
    let out_len = g.out_channels * g.out_h * g.out_w;
    let _t = conv_telemetry(
        "tensor.conv2d_fwd",
        b,
        g,
        4 * (b * sample_len + weight.len() + bias.len() + b * out_len) as u64,
    );
    let mut out = Tensor::zeros([b, g.out_channels, g.out_h, g.out_w]);
    if g.fits_one_window() {
        forward_dense(input.as_slice(), weight.as_slice(), bias.as_slice(), g, kern, ws, &mut out);
        ws.saved_batch = Some(b);
        return Ok(out);
    }
    ws.prepare_forward(b, g, kern);
    let nk2 = g.col_rows();
    let (nr, wide) = (kern.nr(), g.padded_cols());
    let slot = g.slot_len(nr);
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let acc_len = g.out_channels * wide;
    let xv = input.as_slice();
    {
        // (M, N, K, K) weights are row-major, so the flat slice *is* the
        // (M, N·K²) filter matrix Fm; pack it once for the whole batch.
        let _p = telemetry::span_with("tensor.pack", || format!("conv_fwd_w b{b}"));
        pack_a(weight.as_slice(), g.out_channels, nk2, false, kern.mr(), &mut ws.packed_w[..pa_len]);
    }
    let bv = bias.as_slice();
    let pw = &ws.packed_w[..pa_len];
    let rows = &ws.rows[..nk2];
    let bufs = (
        PerUnit::new(out.as_mut_slice(), out_len),
        PerUnit::new(&mut ws.staging[..b * slot], slot),
        PerUnit::new(&mut ws.acc_f32[..b * acc_len], acc_len),
    );
    par_split(b, b as u64 * g.ops(), bufs, |samples, (dst, stage, accs)| {
        for (i, s) in samples.enumerate() {
            let dst = &mut dst[i * out_len..][..out_len];
            let stage = &mut stage[i * slot..][..slot];
            let acc = &mut accs[i * acc_len..][..acc_len];
            stage_sample(&xv[s * sample_len..][..sample_len], g, stage);
            // Fm × Dm over the padded width, B read from the slot; the
            // micro-kernel assigns every product, and the write-back
            // keeps the outputs and adds the bias.
            kern.run_band(pw, Taps::new(stage, rows, wide, nr), 0..g.out_channels, acc);
            write_back(acc, g, dst, |m| {
                let bm = bv[m];
                move |v: f32| v + bm
            });
        }
    });
    ws.saved_batch = Some(b);
    Ok(out)
}

/// The f32 forward of a plane no larger than one kernel window (see
/// [`ConvGeometry::fits_one_window`]): one GEMM `X · Wd` over the whole
/// batch, split into MR-row bands of samples. Each band stages its
/// samples for the backward pass, packs its rows of `X`, and runs the
/// micro-kernel against the cached `Wd` panels; its output rows are
/// already the samples' `(M, R, C)` outputs, to which the bias is added
/// per plane.
fn forward_dense(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    g: &ConvGeometry,
    kern: Kernel,
    ws: &mut ConvWorkspace,
    out: &mut Tensor,
) {
    let b = out.dims()[0];
    ws.prepare_dense(b, g, kern, w);
    let (mr, nr) = (kern.mr(), kern.nr());
    let (rows, positions) = (g.in_channels * g.in_h * g.in_w, g.col_cols());
    let cols = g.out_channels * positions;
    let slot = g.slot_len(nr);
    let wd = Packed::new(&ws.dense_w[..packed_b_len(rows, cols, nr)], rows, cols, nr);
    let bufs = (
        PerUnit::new(out.as_mut_slice(), mr * cols),
        PerUnit::new(&mut ws.staging[..b * slot], mr * slot),
        PerUnit::new(&mut ws.dense_x[..packed_a_len(b, rows, mr)], mr * rows),
    );
    let flops = 2 * (b * rows * cols) as u64;
    par_split(b.div_ceil(mr), flops, bufs, |panels, (band, stage, xp)| {
        let samples = panels.start * mr..(panels.end * mr).min(b);
        let xs = &x[samples.start * rows..samples.end * rows];
        for (sample, slot) in xs.chunks_exact(rows).zip(stage.chunks_exact_mut(slot)) {
            stage_sample(sample, g, slot);
        }
        pack_a(xs, samples.len(), rows, false, mr, xp);
        kern.run_band(xp, wd, 0..samples.len(), band);
        for (plane, &bm) in band.chunks_exact_mut(positions).zip(bias.iter().cycle()) {
            for v in plane {
                *v += bm;
            }
        }
    });
}

/// Batched **quantized** convolution forward pass (the software twin of
/// the paper's fixed-point FPGA PEs).
///
/// * `input`: `(B, C, H, W)` f32 activations, quantized per tensor with
///   the static `in_scale` from calibration (see [`crate::quant`]).
/// * `qweight`: the filter bank flattened to `(M, N·K²)` and quantized
///   per output channel ([`QuantizedMatrix`]).
///
/// Each sample is quantized once and staged in the i8 domain (staging
/// only moves values, and `quantize(0) == 0` keeps the zero border),
/// the GEMM runs in i8 with i32 accumulation, reading its B operand
/// from the i8 slot as the f32 forward does, and the write-back
/// dequantizes each output channel with `in_scale · w_scale[m]` before
/// the f32 bias is added. Integer accumulation is exact and the
/// dequantization is element-wise, so the result is deterministic at
/// any kernel and thread count. Buffers live in `ws` and only ever grow: steady state
/// allocates nothing beyond the returned output tensor.
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
    let (nr, wide) = (kern.nr(), g.padded_cols());
    let slot = g.slot_len(nr);
    telemetry::counter_add(
        "tensor.quant.bytes",
        "conv_i8",
        (4 * b * sample_len + qweight.data().len() + b * g.staging_len() + 4 * b * out_len) as u64,
    );
    let nk2 = g.col_rows();
    let pa_len = packed_a_len(g.out_channels, nk2, kern.mr());
    let acc_len = g.out_channels * wide;
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
    let pw = &ws.packed_w_i8[..pa_len];
    let rows = &ws.rows[..nk2];
    let bufs = (
        PerUnit::new(out.as_mut_slice(), out_len),
        PerUnit::new(&mut ws.qx[..b * sample_len], sample_len),
        PerUnit::new(&mut ws.staging_i8[..b * slot], slot),
        PerUnit::new(&mut ws.acc_i32[..b * acc_len], acc_len),
    );
    par_split(b, b as u64 * g.ops(), bufs, |samples, (dst, qx, stage, accs)| {
        for (i, s) in samples.enumerate() {
            let dst = &mut dst[i * out_len..][..out_len];
            let qxs = &mut qx[i * sample_len..][..sample_len];
            let stage = &mut stage[i * slot..][..slot];
            let acc = &mut accs[i * acc_len..][..acc_len];
            quantize_i8(&xv[s * sample_len..][..sample_len], in_scale, qxs);
            stage_sample(qxs, g, stage);
            kern.run_band_i8(pw, Taps::new(stage, rows, wide, nr), 0..g.out_channels, acc);
            write_back(acc, g, dst, |m| {
                let (factor, bm) = (in_scale * scales[m], bv[m]);
                move |a: i32| a as f32 * factor + bm
            });
        }
    });
    Ok(out)
}

/// Gradients of a batched convolution, reading the staged samples that
/// [`conv2d_forward_ws`] left in `ws`.
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
    let b = match (ws.key, ws.saved_batch) {
        (Some(key_g), Some(b)) if key_g == *g => b,
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
    let slot = g.slot_len(nr);
    let dw_len = m_ch * nk2;
    let _t = conv_telemetry(
        "tensor.conv2d_bwd",
        b,
        g,
        4 * (b * (out_len + g.staging_len() + sample_len) + weight.len() + dw_len) as u64,
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
    let (staging, pwt) = (&ws.staging[..b * slot], &ws.packed_wt[..pwt_len]);
    let (rows, lanes) = (&ws.rows[..nk2], &ws.lanes[..positions]);
    let bufs = (
        PerUnit::new(dinput.as_mut_slice(), sample_len),
        PerUnit::new(&mut ws.dcols[..b * col_len], col_len),
        PerUnit::new(&mut ws.dw_parts[..b * dw_len], dw_len),
        PerUnit::new(&mut ws.db_parts[..b * m_ch], m_ch),
        PerUnit::new(&mut ws.packed_dy_a[..b * pdya_len], pdya_len),
        PerUnit::new(&mut ws.packed_colt[..b * pcolt_len], pcolt_len),
        PerUnit::new(&mut ws.packed_dy_b[..b * pdyb_len], pdyb_len),
    );
    let flops = 2 * b as u64 * g.ops();
    par_split(b, flops, bufs, |samples, (dxs, dcols, dws, dbs, pdyas, pcolts, pdybs)| {
        for (i, s) in samples.enumerate() {
            let dy = &dv[s * out_len..(s + 1) * out_len]; // (M, P)
            let stage = &staging[s * slot..][..slot];
            let pdya = &mut pdyas[i * pdya_len..][..pdya_len];
            let pcolt = &mut pcolts[i * pcolt_len..][..pcolt_len];
            let pdyb = &mut pdybs[i * pdyb_len..][..pdyb_len];
            let dw = &mut dws[i * dw_len..][..dw_len];
            let db = &mut dbs[i * m_ch..][..m_ch];
            let dcol = &mut dcols[i * col_len..][..col_len];
            let dx = &mut dxs[i * sample_len..][..sample_len];
            // dW_s = dY · Dmᵀ → (M, N·K²): gathering with the tables
            // swapped packs Dmᵀ, positions as the k-steps. The kernel
            // assigns every element, so `dw` needs no pre-zeroing.
            pack_a(dy, m_ch, positions, false, mr, pdya);
            gather_panels(stage, lanes, rows, nr, pcolt);
            kern.run_band(pdya, Packed::new(pcolt, positions, nk2, nr), 0..m_ch, dw);
            // db_s = row sums of dY.
            for m in 0..m_ch {
                db[m] = dy[m * positions..(m + 1) * positions].iter().sum::<f32>();
            }
            // dX_s = col2im(Wᵀ · dY); the kernel assigns every element
            // of dcol, which col2im then scatters into dx.
            pack_b(dy, m_ch, positions, false, nr, pdyb);
            kern.run_band(pwt, Packed::new(pdyb, m_ch, positions, nr), 0..nk2, dcol);
            col2im_into(dcol, g, dx);
        }
    });

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

    /// The row-major `(N·K², R·C)` matrix `Dm` of one flattened
    /// `(C, H, W)` sample, through the production staging and gather: a
    /// single panel as wide as the matrix is the matrix itself.
    fn im2col(x: &[f32], g: &ConvGeometry) -> Vec<f32> {
        let mut ws = ConvWorkspace::new();
        ws.set_geometry(g);
        let mut slot = vec![0.0; g.staging_len()];
        stage_sample(x, g, &mut slot);
        let (nk2, positions) = (g.col_rows(), g.col_cols());
        let mut out = vec![f32::NAN; nk2 * positions];
        gather_panels(&slot, &ws.rows[..nk2], &ws.lanes[..positions], positions, &mut out);
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

    /// Every pass the workspace serves, on `ws`: the f32 forward, its
    /// backward, and the i8 forward.
    fn all_passes(
        x: &Tensor,
        w: &Tensor,
        bias: &Tensor,
        dout: &Tensor,
        g: &ConvGeometry,
        ws: &mut ConvWorkspace,
    ) -> Vec<Vec<u32>> {
        let y = conv2d_forward_ws(x, w, bias, g, ws).unwrap();
        let (dx, dw, db) = conv2d_backward_ws(dout, w, g, ws).unwrap();
        let qw = QuantizedMatrix::from_rows(w.as_slice(), g.out_channels, g.col_rows()).unwrap();
        let in_scale = crate::quant::quant_scale(crate::quant::max_abs(x.as_slice()));
        let yq = conv2d_forward_i8_ws(x, &qw, bias, g, in_scale, ws).unwrap();
        [y, dx, dw, db, yq].iter().map(bits).collect()
    }

    #[test]
    fn batch_switches_on_a_warm_workspace_grow_nothing() {
        // The staging is keyed on geometry alone: a smaller batch uses a
        // prefix of it and a larger one (up to the warm size) finds its
        // borders still zero, so the Cloud's ragged last batch neither
        // grows nor re-zeroes anything.
        let g = small_geom();
        let mut rng = Rng::seed_from(35);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
        let mut inputs = |b: usize| {
            let x = Tensor::rand_uniform([b, 2, 5, 5], -1.0, 1.0, &mut rng);
            let dout = Tensor::rand_uniform([b, 3, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            (x, dout)
        };
        let mut ws = ConvWorkspace::new();
        let (x, dout) = inputs(16);
        all_passes(&x, &w, &bias, &dout, &g, &mut ws);
        let warm = ws.reallocations();
        for b in [5, 16, 5] {
            let (x, dout) = inputs(b);
            let got = all_passes(&x, &w, &bias, &dout, &g, &mut ws);
            assert_eq!(ws.reallocations(), warm, "batch {b} grew a buffer");
            let want = all_passes(&x, &w, &bias, &dout, &g, &mut ConvWorkspace::new());
            assert_eq!(got, want, "batch {b} differs from a fresh workspace");
        }
    }

    #[test]
    fn staging_growth_is_counted() {
        // The staging is the workspace's largest input-sized buffer; its
        // first growth must show in `reallocations()` and in
        // `tensor.scratch_bytes` like every other buffer's.
        let g = small_geom();
        let mut rng = Rng::seed_from(36);
        let x = Tensor::rand_uniform([2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = Tensor::zeros([3]);
        let mut ws = ConvWorkspace::new();
        telemetry::set_enabled(true);
        telemetry::reset();
        conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
        let counted =
            telemetry::snapshot().counter("tensor.scratch_bytes", "conv").map_or(0, |c| c.total);
        telemetry::set_enabled(false);
        telemetry::reset();
        // Two slots, each zero-bordered to 2 × 7 × 7 with an NR−1 tail.
        assert_eq!(ws.staging.len(), 2 * (2 * 7 * 7 + Kernel::select().nr() - 1));
        let grown = [
            4 * ws.staging.len(),
            4 * ws.packed_w.len(),
            4 * ws.acc_f32.len(),
            std::mem::size_of::<usize>() * ws.lanes.len(),
            std::mem::size_of::<usize>() * ws.rows.len(),
        ];
        assert_eq!(ws.reallocations(), grown.len());
        // Only this test records in this crate, but a concurrent conv
        // test can add its own growth while recording is on.
        let total = grown.iter().sum::<usize>() as u64;
        assert!(counted >= total, "scratch_bytes counted {counted} of {total} grown bytes");
    }

    #[test]
    fn poisoned_slot_tails_reach_no_output() {
        // The last B panel's lanes past the last position read the slot's
        // tail, and the write-back drops them: NaN (f32) or −128 (i8) in
        // every tail must leave the f32 forward, its backward and the i8
        // forward bitwise equal to a clean workspace's. Each geometry has
        // n' ≡ 1 (mod 16), so the last panel reads the whole tail at every
        // panel width (4, 8, 16).
        let nr = Kernel::select().nr();
        let mut rng = Rng::seed_from(37);
        for g in [small_geom(), ConvGeometry::new(3, 9, 9, 5, 3, 2, 1).unwrap()] {
            assert_eq!(g.padded_cols() % 16, 1);
            let b = 3;
            let x = Tensor::rand_uniform([b, g.in_channels, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([g.out_channels, g.in_channels, 3, 3], -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform([g.out_channels], -0.1, 0.1, &mut rng);
            let dout = Tensor::rand_uniform([b, g.out_channels, g.out_h, g.out_w], -1.0, 1.0, &mut rng);
            let mut ws = ConvWorkspace::new();
            all_passes(&x, &w, &bias, &dout, &g, &mut ws);
            let slot = g.slot_len(nr);
            let tail = g.staging_len()..slot;
            for s in 0..b {
                ws.staging[s * slot..][tail.clone()].fill(f32::NAN);
                ws.staging_i8[s * slot..][tail.clone()].fill(-128);
            }
            let got = all_passes(&x, &w, &bias, &dout, &g, &mut ws);
            let want = all_passes(&x, &w, &bias, &dout, &g, &mut ConvWorkspace::new());
            assert_eq!(got, want, "a poisoned tail reached an output at {g:?}");
            // Staging writes interiors only: the poison is still there.
            for s in 0..b {
                assert!(ws.staging[s * slot..][tail.clone()].iter().all(|v| v.is_nan()));
                assert!(ws.staging_i8[s * slot..][tail.clone()].iter().all(|&v| v == -128));
            }
        }
    }

    #[test]
    fn a_cloned_workspace_starts_empty() {
        // Both forwards: a 5×5 plane, and a 3×3 one whose forward spreads
        // and caches the filter bank.
        for g in [small_geom(), ConvGeometry::new(2, 3, 3, 3, 3, 1, 1).unwrap()] {
            let mut rng = Rng::seed_from(34);
            let x = Tensor::rand_uniform([2, 2, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut rng);
            let bias = Tensor::rand_uniform([3], -0.1, 0.1, &mut rng);
            let mut ws = ConvWorkspace::new();
            let y = conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            assert!(ws.reallocations() > 0);
            assert_eq!(ws.dense_ready, g.fits_one_window());
            let mut cloned = ws.clone();
            assert_eq!(cloned.reallocations(), 0, "a clone must not copy warm buffers");
            assert!(!cloned.dense_ready && cloned.dense_w.is_empty(), "a clone holds no Wd");
            // No saved forward pass travels with the clone.
            let dout = Tensor::zeros([2, 3, g.out_h, g.out_w]);
            assert!(conv2d_backward_ws(&dout, &w, &g, &mut cloned).is_err());
            let y2 = conv2d_forward_ws(&x, &w, &bias, &g, &mut cloned).unwrap();
            assert_eq!(bits(&y), bits(&y2));
        }
    }

    #[test]
    fn the_cached_filter_bank_follows_every_weight_bit() {
        // A weight's zero sign never shows in an output (a ±0 product
        // cannot move a sum that starts at +0), so compare the cached
        // panels themselves: after every call they are the spread of the
        // weights that call saw, bit for bit, a zero's sign included.
        // The same filter bank then meets a 2×2 plane: its bits match the
        // key, but the geometry changed, so the bank must be re-spread.
        let square = ConvGeometry::new(3, 3, 3, 4, 3, 1, 1).unwrap();
        let small = ConvGeometry::new(3, 2, 2, 4, 3, 1, 1).unwrap();
        let nr = Kernel::select().nr();
        let mut rng = Rng::seed_from(38);
        let bias = Tensor::zeros([4]);
        let mut w = Tensor::rand_uniform([4, 3, 3, 3], -0.5, 0.5, &mut rng);
        let mut ws = ConvWorkspace::new();
        let steps = [(square, 0.0), (square, -0.0), (square, 0.0), (square, 0.25), (small, 0.25)];
        for (g, v) in steps {
            w.as_mut_slice()[5] = v;
            let x = Tensor::rand_uniform([2, 3, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            conv2d_forward_ws(&x, &w, &bias, &g, &mut ws).unwrap();
            let len = packed_b_len(3 * g.in_h * g.in_w, 4 * g.col_cols(), nr);
            let mut want = vec![f32::NAN; len];
            spread_filters(w.as_slice(), &g, nr, &mut want);
            let got: Vec<u32> = ws.dense_w[..len].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "w[5] = {v:?} on {}x{}", g.in_h, g.in_w);
        }
    }

    #[test]
    fn workspace_survives_geometry_switch() {
        // Switching geometry must re-zero the staging borders; stale
        // interior values from the previous shape would otherwise leak
        // into the new pass as padding taps.
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
