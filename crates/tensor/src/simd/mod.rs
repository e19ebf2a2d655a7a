//! The SIMD dispatch layer: every non-GEMM hot op as a [`SimdOp`]
//! with a scalar oracle body and runtime-detected vector bodies
//! (AVX2 and AVX-512 on x86-64, NEON on aarch64).
//!
//! # Equivalence policy
//!
//! The scalar body of each op is the reference semantics — it is what
//! the op *means* — and every vector body is **bitwise exact** against
//! it (compared with `to_bits`): ReLU forward / train / backward,
//! clamp, affine, `quantize_i8`, max-abs, max-abs-diff, the 8-lane
//! sum, and maxpool (values *and* argmax). Exactness includes
//! NaN, infinities and `-0.0` for the elementwise ops, and holds at
//! any thread count — parallel splits are aligned so no partial result
//! crosses a task boundary, and ragged tails replicate the vector
//! computation lane for lane. The property tests in
//! `tests/simd_ops.rs` hold every op to this under both
//! `INSITU_SIMD` modes.
//!
//! # Selection
//!
//! [`Isa::select`] resolves the ISA once per process: the widest the
//! host supports (AVX-512 > AVX2 > scalar on x86-64, NEON > scalar on
//! aarch64), and `INSITU_SIMD=scalar|avx2|avx512|neon` pins it
//! explicitly — an unrecognized or host-unsupported value is a
//! startup error, never a silent fallback (the GEMM micro-kernels
//! obey the same knob; their legacy `INSITU_GEMM_KERNEL` override
//! still works on top, with the same validation). Each dispatch runs
//! under a `tensor.simd.*` telemetry span labeled with the ISA, and
//! feeds the `tensor.simd.bytes` counter. DESIGN.md §12 has the
//! op-by-op ISA support matrix.

mod dispatch;
mod elementwise;
mod maxpool;
mod quantize;
mod reduce;

pub use dispatch::{dispatch, dispatch_on, simd_isa_name, Isa, SimdOp, ISA_NAMES};
pub(crate) use dispatch::parse_isa_request;
pub use elementwise::{Affine, Clamp, Relu, ReluBackward, ReluTrain};
pub use maxpool::MaxPool2d;
pub use quantize::QuantizeI8;
pub use reduce::{MaxAbs, MaxAbsDiff, MinMax, Sum8};

/// In-place eval-mode ReLU.
pub fn relu(buf: &mut [f32]) {
    dispatch(Relu { buf });
}

/// In-place train-mode ReLU; writes the bit-packed keep mask
/// (`mask.len() == buf.len().div_ceil(8)`).
pub fn relu_train(buf: &mut [f32], mask: &mut [u8]) {
    dispatch(ReluTrain { buf, mask });
}

/// Zeroes `grad` wherever the bit-packed `mask` says the forward
/// input was not positive.
pub fn relu_backward(grad: &mut [f32], mask: &[u8]) {
    dispatch(ReluBackward { grad, mask });
}

/// In-place `x = x * gain + bias`.
pub fn affine(buf: &mut [f32], gain: f32, bias: f32) {
    dispatch(Affine { buf, gain, bias });
}

/// In-place clamp to `[lo, hi]` with `f32::clamp` semantics.
pub fn clamp(buf: &mut [f32], lo: f32, hi: f32) {
    dispatch(Clamp { buf, lo, hi });
}

/// `max |x|` over finite elements.
pub fn max_abs(src: &[f32]) -> f32 {
    dispatch(MaxAbs { src })
}

/// `max |a - b|` over two equal-length slices.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    dispatch(MaxAbsDiff { a, b })
}

/// Deterministic 8-lane-accumulator sum.
pub fn sum8(src: &[f32]) -> f32 {
    dispatch(Sum8 { src })
}

/// `(min, max)` over a slice, NaN skipped; `(inf, -inf)` when empty.
pub fn min_max(src: &[f32]) -> (f32, f32) {
    dispatch(MinMax { src })
}
