//! Matrix multiplication kernels.
//!
//! The convolution layers lower to GEMM via im2col (exactly the lowering
//! the paper describes for GPU execution in its Fig. 8), so GEMM is the
//! hot kernel of the whole reproduction. The production path is a
//! BLIS-style packed kernel: both operands are packed into register-tile
//! panels inside a reusable [`GemmScratch`] arena (see [`crate::pack`]),
//! then a fixed-order MR×NR micro-kernel (see [`crate::microkernel`])
//! computes every output tile with its accumulators in registers.
//! Production code calls [`matmul_ws`], [`matmul_tn_ws`] and
//! [`matmul_nt_ws`] (the transposed readings are the backward pass's
//! gradient products); [`matmul_with_kernel`] pins one micro-kernel for
//! tests and benchmarks, and [`matmul_naive`] is the trivially-correct
//! reference used by the property tests.
//!
//! ## Determinism
//!
//! Every output element is one ascending-k accumulation chain starting
//! at `0.0` — the same chain [`matmul_naive`] performs — so the packed
//! kernels are **bitwise identical to the naive oracle**, for every
//! operand transpose, ragged edge, micro-kernel variant and thread
//! count (large products split over output-row panel bands on the
//! shared worker pool; see [`crate::parallel`]). Relative to the
//! pre-packing cache-blocked kernel the only representable difference
//! is that zero `A` elements are no longer skipped, which can flip
//! `-0.0` to `+0.0` or materialize NaN/∞ propagation for non-finite
//! inputs; for finite data results match that kernel bitwise too.
//!
//! ## Allocation
//!
//! Every entry point packs into a caller-owned [`GemmScratch`] that
//! only ever grows, so steady-state training/inference performs zero
//! heap allocations in the kernel path (the returned output tensor is
//! the one remaining allocation).

use crate::error::TensorError;
use crate::microkernel::{Kernel, Packed};
use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
pub use crate::pack::GemmScratch;
use crate::parallel::{par_split, PerUnit};
use crate::tensor::Tensor;
use crate::Result;
use insitu_telemetry as telemetry;

/// Name of the GEMM micro-kernel variant this process selected (e.g.
/// `"avx2_8x8"` on an AVX2+FMA host, `"scalar_8x4"` otherwise or under
/// `INSITU_SIMD=scalar`). Selection happens once; benchmarks record
/// this so results are attributable to a kernel.
pub fn gemm_kernel_name() -> &'static str {
    Kernel::select().name()
}

/// Names of every GEMM micro-kernel variant the current host can run,
/// portable baseline first (e.g. `["scalar_8x4", "avx2_8x8",
/// "avx512_8x16"]` on an AVX-512 host). The cross-kernel property
/// tests and the benchmark iterate this together with
/// [`matmul_with_kernel`].
pub fn gemm_kernels_supported() -> Vec<&'static str> {
    Kernel::supported().into_iter().map(Kernel::name).collect()
}

fn check_2d(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.shape().ndim() != 2 {
        return Err(TensorError::InvalidGeometry {
            reason: format!("`{op}` requires 2-D operands, got {}", t.shape()),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Reference `O(M·N·K)` triple-loop matrix product, `C = A·B`.
///
/// Use [`matmul_ws`] in production code; this exists as the oracle for
/// property tests and for readability. The packed production kernels
/// reproduce this function's results bitwise (see the module docs).
///
/// # Errors
///
/// Returns an error if either operand is not 2-D or the inner dimensions
/// disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_2d(a, "matmul_naive")?;
    let (kb, n) = check_2d(b, "matmul_naive")?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, ka],
            actual: vec![kb, n],
            op: "matmul_naive",
        });
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for k in 0..ka {
            let aik = av[i * ka + k];
            for j in 0..n {
                out[i * n + j] += aik * bv[k * n + j];
            }
        }
    }
    Tensor::from_vec([m, n], out)
}

/// Packs both operands into `scratch` and drives micro-kernel `kern`
/// over the whole output, splitting panel-aligned row bands across the
/// worker pool when the product is large enough.
///
/// `a_trans`/`b_trans` select the `Aᵀ`/`Bᵀ` readings of the flat
/// operand slices; `out` is the row-major `m × n` output buffer, every
/// element of which is assigned.
#[allow(clippy::too_many_arguments)] // flat GEMM signature: kernel + operands + dims + scratch
fn gemm_packed(
    kern: Kernel,
    av: &[f32],
    a_trans: bool,
    bv: &[f32],
    b_trans: bool,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let (mr, nr) = (kern.mr(), kern.nr());
    let (pa, pb) = scratch.panels(packed_a_len(m, k, mr), packed_b_len(k, n, nr));
    {
        let _p = telemetry::span_with("tensor.pack", || format!("{m}x{k}x{n}"));
        pack_a(av, m, k, a_trans, mr, pa);
        pack_b(bv, k, n, b_trans, nr, pb);
    }
    let (pa, pb) = (&*pa, &*pb);
    // The split's unit is one MR-row panel, so bands start on panel
    // boundaries; only the last panel may be short.
    let flops = 2 * m as u64 * k as u64 * n as u64;
    par_split(m.div_ceil(mr), flops, PerUnit::new(out, mr * n), |panels, band| {
        let rows = panels.start * mr..(panels.end * mr).min(m);
        kern.run_band(pa, Packed::new(pb, k, n, nr), rows, band);
    });
}

/// The one shape-checked body behind every public GEMM: `op` names the
/// entry point in errors, `span` is its telemetry span (whose bytes
/// counter accounts both operands plus the output at `f32` width), and
/// the transpose flags say how `a` and `b` are read.
#[allow(clippy::too_many_arguments)] // kernel + names + operands with their readings + scratch
fn gemm(
    kern: Kernel,
    op: &'static str,
    span: &'static str,
    a: &Tensor,
    a_trans: bool,
    b: &Tensor,
    b_trans: bool,
    scratch: &mut GemmScratch,
) -> Result<Tensor> {
    let (ar, ac) = check_2d(a, op)?;
    let (br, bc) = check_2d(b, op)?;
    let (m, ka) = if a_trans { (ac, ar) } else { (ar, ac) };
    let (kb, n) = if b_trans { (bc, br) } else { (br, bc) };
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            expected: a.dims().to_vec(),
            actual: b.dims().to_vec(),
            op,
        });
    }
    let _t = telemetry::span_with(span, || format!("{m}x{ka}x{n}"));
    let short = span.rsplit('.').next().unwrap_or(span);
    telemetry::counter_add("tensor.bytes", short, 4 * (m * ka + ka * n + m * n) as u64);
    let mut out = vec![0.0f32; m * n];
    gemm_packed(kern, a.as_slice(), a_trans, b.as_slice(), b_trans, m, ka, n, scratch, &mut out);
    Tensor::from_vec([m, n], out)
}

/// Packed register-tiled matrix product, `C = A·B`, packing into a
/// caller-owned [`GemmScratch`], so repeated calls with stable shapes
/// perform no kernel-path allocations.
///
/// # Errors
///
/// Returns an error if either operand is not 2-D or the inner dimensions
/// disagree.
///
/// # Examples
///
/// ```
/// use insitu_tensor::{matmul_ws, GemmScratch, Tensor};
/// # fn main() -> Result<(), insitu_tensor::TensorError> {
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let i = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// let mut scratch = GemmScratch::new();
/// assert_eq!(matmul_ws(&a, &i, &mut scratch)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul_ws(a: &Tensor, b: &Tensor, scratch: &mut GemmScratch) -> Result<Tensor> {
    gemm(Kernel::select(), "matmul", "tensor.gemm_nn", a, false, b, false, scratch)
}

/// [`matmul_ws`] forced onto a specific micro-kernel variant by name
/// (one of [`gemm_kernels_supported`]), regardless of the process-wide
/// selection. This is how the property tests and the benchmark sweep
/// every runnable kernel in one process; production code should use
/// [`matmul_ws`] and let selection pick the widest.
///
/// # Errors
///
/// Returns an error if `kernel` is not a host-supported kernel name,
/// either operand is not 2-D, or the inner dimensions disagree.
pub fn matmul_with_kernel(
    a: &Tensor,
    b: &Tensor,
    kernel: &str,
    scratch: &mut GemmScratch,
) -> Result<Tensor> {
    gemm(Kernel::from_name(kernel)?, "matmul", "tensor.gemm_nn", a, false, b, false, scratch)
}

/// Computes `C = Aᵀ·B` without materializing the transpose, packing
/// into a caller-owned [`GemmScratch`].
///
/// With `A: (K, M)` and `B: (K, N)`, the result is `(M, N)`. This is the
/// shape that appears in weight-gradient computations
/// (`dW = dYᵀ·X` style products); the packing stage absorbs the
/// transpose, so it costs nothing over the plain product.
///
/// # Errors
///
/// Returns an error if either operand is not 2-D or the shared leading
/// dimensions disagree.
pub fn matmul_tn_ws(a: &Tensor, b: &Tensor, scratch: &mut GemmScratch) -> Result<Tensor> {
    gemm(Kernel::select(), "matmul_tn", "tensor.gemm_tn", a, true, b, false, scratch)
}

/// Computes `C = A·Bᵀ` without materializing the transpose, packing
/// into a caller-owned [`GemmScratch`].
///
/// With `A: (M, K)` and `B: (N, K)`, the result is `(M, N)`. This is the
/// shape that appears in input-gradient computations; as with
/// [`matmul_tn_ws`], the packing stage absorbs the transpose.
///
/// # Errors
///
/// Returns an error if either operand is not 2-D or the trailing
/// dimensions disagree.
pub fn matmul_nt_ws(a: &Tensor, b: &Tensor, scratch: &mut GemmScratch) -> Result<Tensor> {
    gemm(Kernel::select(), "matmul_nt", "tensor.gemm_nt", a, false, b, true, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The production entry point on a fresh arena.
    fn mm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        matmul_ws(a, b, &mut GemmScratch::new())
    }

    #[test]
    fn identity_product() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(mm(&a, &i).unwrap(), a);
        assert_eq!(mm(&i, &a).unwrap(), a);
    }

    #[test]
    fn known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = mm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn rectangular_matches_naive_bitwise() {
        let mut rng = Rng::seed_from(2);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (70, 65, 130), (128, 64, 1), (8, 9, 4)] {
            let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
            let fast = mm(&a, &b).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            assert_eq!(bits(&fast), bits(&slow), "{m}x{k}x{n} diverged from the oracle");
        }
    }

    #[test]
    fn all_supported_kernels_agree_bitwise() {
        // Every runnable micro-kernel variant (scalar baseline plus any
        // runtime-detected SIMD tile) must produce identical bits: the
        // per-element op chain does not depend on tile width.
        let mut rng = Rng::seed_from(9);
        let (m, k, n) = (13, 27, 21);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([n, k], -1.0, 1.0, &mut rng); // (N, K): packed transposed
        let oracle = bits(&matmul_naive(&a, &b.transpose2d().unwrap()).unwrap());
        for kern in Kernel::supported() {
            let mut out = vec![0.0f32; m * n];
            let mut scratch = GemmScratch::new();
            gemm_packed(kern, a.as_slice(), false, b.as_slice(), true, m, k, n, &mut scratch, &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, oracle, "kernel {} diverged", kern.name());
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(3);
        let a = Tensor::rand_uniform([7, 4], -1.0, 1.0, &mut rng); // (K, M)
        let b = Tensor::rand_uniform([7, 5], -1.0, 1.0, &mut rng); // (K, N)
        let via_tn = matmul_tn_ws(&a, &b, &mut GemmScratch::new()).unwrap();
        let via_t = mm(&a.transpose2d().unwrap(), &b).unwrap();
        assert_eq!(bits(&via_tn), bits(&via_t));
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(4);
        let a = Tensor::rand_uniform([4, 7], -1.0, 1.0, &mut rng); // (M, K)
        let b = Tensor::rand_uniform([5, 7], -1.0, 1.0, &mut rng); // (N, K)
        let via_nt = matmul_nt_ws(&a, &b, &mut GemmScratch::new()).unwrap();
        let via_t = mm(&a, &b.transpose2d().unwrap()).unwrap();
        assert_eq!(bits(&via_nt), bits(&via_t));
    }

    #[test]
    fn explicit_scratch_reuse_matches_and_stops_allocating() {
        let mut rng = Rng::seed_from(6);
        let a = Tensor::rand_uniform([17, 23], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([23, 11], -1.0, 1.0, &mut rng);
        let fresh = mm(&a, &b).unwrap();
        let mut s = GemmScratch::new();
        let first = matmul_ws(&a, &b, &mut s).unwrap();
        let grows = s.reallocations();
        assert!(grows >= 1);
        for _ in 0..3 {
            let again = matmul_ws(&a, &b, &mut s).unwrap();
            assert_eq!(bits(&again), bits(&first));
        }
        assert_eq!(s.reallocations(), grows, "steady state must not grow the arena");
        assert_eq!(bits(&first), bits(&fresh));
    }

    #[test]
    fn dimension_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(mm(&a, &b).is_err()); // inner dims 3 vs 2
        assert!(mm(&a, &Tensor::zeros([3])).is_err()); // not 2-D
    }
}
