//! The SIMD dispatch layer: every non-GEMM hot op the loop runs as a
//! [`SimdOp`] that splits its work once and runs a per-range kernel: a
//! scalar oracle or a runtime-detected vector kernel (AVX2 and AVX-512
//! on x86-64, NEON on aarch64).
//!
//! An op earns its vector bodies here only when the paper's loop runs
//! it: ReLU forward / train / backward (node forward and Cloud
//! fine-tune), maxpool, `quantize_i8` (the i8 stage) and max-abs
//! (every i8 install's calibration scan). One-off passes off that path
//! are plain loops at their call sites.
//!
//! # Equivalence policy
//!
//! The scalar body of each op is the reference semantics — it is what
//! the op *means* — and every vector body is **bitwise exact** against
//! it (compared with `to_bits`): ReLU forward / train / backward,
//! `quantize_i8`, max-abs, and maxpool (values *and* argmax).
//! Exactness includes NaN, infinities and `-0.0` for the elementwise
//! ops, and holds at any thread count — parallel splits are aligned so
//! no partial result crosses a task boundary, and ragged tails
//! replicate the vector computation lane for lane. The property tests
//! in `tests/simd_ops.rs` hold every op to this under both
//! `INSITU_SIMD` modes.
//!
//! # Selection
//!
//! [`Isa::select`] resolves the ISA once per process: the widest the
//! host supports (AVX-512 > AVX2 > scalar on x86-64, NEON > scalar on
//! aarch64), and `INSITU_SIMD=scalar|avx2|avx512|neon` pins it
//! explicitly — an unrecognized or host-unsupported value is a
//! startup error, never a silent fallback. The GEMM micro-kernels
//! obey the same knob. Each dispatch runs under a `tensor.simd.*`
//! telemetry span labeled with the ISA, and feeds the
//! `tensor.simd.bytes` counter. DESIGN.md §12 has the op-by-op ISA
//! support matrix.

mod dispatch;
mod elementwise;
mod maxpool;
mod quantize;
mod reduce;

pub use dispatch::{dispatch, dispatch_on, simd_isa_name, Isa, SimdOp, ISA_NAMES};
pub use elementwise::{Relu, ReluBackward, ReluTrain};
pub use maxpool::MaxPool2d;
pub use quantize::QuantizeI8;
pub use reduce::MaxAbs;

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
