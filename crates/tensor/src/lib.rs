//! # insitu-tensor
//!
//! Dense `f32` tensors and the numeric kernels used by the In-situ AI
//! reproduction: packed register-tiled GEMM (BLIS-style operand packing
//! into a reusable [`GemmScratch`] arena feeding an MR×NR micro-kernel),
//! im2col convolution (the exact lowering the paper's Fig. 8 describes
//! for GPU execution, with the forward's micro-kernel reading its B
//! operand in place from a zero-bordered copy of each sample rather
//! than from a materialized im2col matrix, and a plane no larger than
//! one kernel window run as one dense GEMM against a cached spread
//! filter bank), max pooling, and a deterministic PCG32
//! random number generator so every experiment is reproducible from a
//! single seed.
//!
//! Large GEMMs and batched convolutions run on a shared worker pool (see
//! [`parallel`]); thread count comes from [`set_num_threads`] or the
//! `INSITU_THREADS` environment variable, and results are bitwise
//! identical for any setting.
//!
//! Each kernel has one entry point, and it takes its reusable arena
//! from the caller: [`matmul_ws`] / [`matmul_tn_ws`] / [`matmul_nt_ws`]
//! on a [`GemmScratch`], [`conv2d_forward_ws`] / [`conv2d_backward_ws`]
//! on a [`ConvWorkspace`]. [`matmul_with_kernel`] and
//! [`matmul_i8_with_kernel`] pin a named micro-kernel for the
//! cross-kernel tests and the benchmark.
//!
//! The non-GEMM hot ops the loop runs (ReLU, maxpool, quantization
//! and its calibration scan) go through the [`simd`] dispatch layer:
//! one [`simd::SimdOp`] trait, a scalar oracle kernel per op,
//! runtime-detected vector kernels of the same signature (AVX2 and
//! AVX-512 on x86-64, NEON on aarch64) and one parallel split per op,
//! all pinnable with `INSITU_SIMD=scalar|avx2|avx512|neon`.
//!
//! A symmetric-i8 fixed-point inference path
//! ([`conv2d_forward_i8_ws`], [`linear_forward_i8_ws`]) mirrors the
//! paper's fixed-point FPGA PEs: same packed panel layout and kernel
//! dispatch, i32 accumulation, bitwise identical to its naive oracle
//! at any shape, kernel and thread count.
//!
//! ## Example
//!
//! ```
//! use insitu_tensor::{conv2d_forward_ws, ConvGeometry, ConvWorkspace, Rng, Tensor};
//!
//! # fn main() -> Result<(), insitu_tensor::TensorError> {
//! let mut rng = Rng::seed_from(42);
//! let x = Tensor::randn([1, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let w = Tensor::randn([4, 3, 3, 3], 0.0, 0.1, &mut rng);
//! let b = Tensor::zeros([4]);
//! let g = ConvGeometry::new(3, 8, 8, 4, 3, 1, 1)?;
//! let mut ws = ConvWorkspace::new();
//! let y = conv2d_forward_ws(&x, &w, &b, &g, &mut ws)?;
//! assert_eq!(y.dims(), &[1, 4, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod conv;
mod error;
mod matmul;
mod microkernel;
mod pack;
pub mod parallel;
mod pool;
mod quant;
mod rng;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{
    conv2d_backward_ws, conv2d_forward_i8_ws, conv2d_forward_ws, ConvGeometry, ConvWorkspace,
};
pub use error::TensorError;
pub use matmul::{
    gemm_kernel_name, gemm_kernels_supported, matmul_naive, matmul_nt_ws, matmul_tn_ws,
    matmul_with_kernel, matmul_ws, GemmScratch,
};
pub use parallel::{num_threads, par_chunks_mut, set_num_threads};
pub use pool::{maxpool2d_backward, maxpool2d_forward, PoolGeometry};
pub use quant::{
    dequantize_i8, linear_forward_i8_ws, matmul_i8_naive, matmul_i8_with_kernel, max_abs,
    quant_scale, quantize_i8, QuantizedMatrix, QUANT_MAX,
};
pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
