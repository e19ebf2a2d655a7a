//! The packed register-tiled GEMM kernels against the naive oracle.
//!
//! The micro-kernel computes 8×NR register tiles over zero-padded
//! packed panels, so the dangerous shapes are the ragged ones: a
//! dimension of 1, one lane below/at/above the tile edge, and sizes
//! that leave partial panels at both edges. This suite sweeps exactly
//! that ladder — `{1, MR−1, MR, MR+1, 2·MR+3, …}` in every dimension —
//! and demands **bitwise** equality with [`matmul_naive`] at 1, 2 and
//! 4 threads: packing, tile shape and panel partitioning must never
//! change the per-element accumulation chain.
//!
//! The scratch-arena tests pin the other half of the contract: with
//! stable shapes, the kernel path stops allocating after the first
//! call ([`GemmScratch::reallocations`] goes flat).

use insitu_tensor::{
    gemm_kernels_supported, matmul_naive, matmul_nt_ws, matmul_tn_ws, matmul_with_kernel,
    matmul_ws, num_threads, set_num_threads, GemmScratch, Rng, Tensor,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Micro-kernel tile height (fixed across kernel variants; tile width
/// is 4 or 8 depending on the selected kernel, both divide 8's ladder).
const MR: usize = 8;

/// The ragged ladder: dimension 1, tile-edge straddles (MR−1, MR,
/// MR+1), and two-panel-plus-tail sizes.
const RAGGED: &[usize] = &[1, MR - 1, MR, MR + 1, 2 * MR + 3, 4 * MR + 5];

/// Serializes tests that sweep the global kernel thread count.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(prev);
    out
}

/// Raw bit patterns — equality here is bitwise, stricter than `==`
/// (which would let `-0.0 == 0.0` slip through).
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every (m, k, n) in the ragged ladder, all three GEMM variants, at
/// 1/2/4 threads: bitwise equal to the oracle.
#[test]
fn ragged_ladder_matches_naive_bitwise_at_all_thread_counts() {
    let mut rng = Rng::seed_from(101);
    let mut s = GemmScratch::new();
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
                let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
                let a_tn = Tensor::rand_uniform([k, m], -2.0, 2.0, &mut rng);
                let b_nt = Tensor::rand_uniform([n, k], -2.0, 2.0, &mut rng);
                let oracle = bits(&matmul_naive(&a, &b).unwrap());
                let oracle_tn =
                    bits(&matmul_naive(&a_tn.transpose2d().unwrap(), &b).unwrap());
                let oracle_nt =
                    bits(&matmul_naive(&a, &b_nt.transpose2d().unwrap()).unwrap());
                for threads in [1usize, 2, 4] {
                    let (nn, tn, nt) = with_threads(threads, || {
                        (
                            matmul_ws(&a, &b, &mut s).unwrap(),
                            matmul_tn_ws(&a_tn, &b, &mut s).unwrap(),
                            matmul_nt_ws(&a, &b_nt, &mut s).unwrap(),
                        )
                    });
                    assert_eq!(bits(&nn), oracle, "matmul {m}x{k}x{n} @ t{threads}");
                    assert_eq!(bits(&tn), oracle_tn, "matmul_tn {m}x{k}x{n} @ t{threads}");
                    assert_eq!(bits(&nt), oracle_nt, "matmul_nt {m}x{k}x{n} @ t{threads}");
                }
            }
        }
    }
}

/// Every GEMM kernel variant that could exist on any target; entries
/// absent from [`gemm_kernels_supported`] are skipped with a note so
/// CI logs show the coverage this host actually provided.
const KERNEL_UNIVERSE: &[&str] = &["scalar_8x4", "avx2_8x8", "avx512_8x16", "neon_8x8"];

/// The ragged ladder through **every** detected kernel — not just the
/// env-selected one — via [`matmul_with_kernel`], at 1/2/4 threads:
/// each kernel's tile shape must preserve the oracle's per-element
/// accumulation chain bitwise.
#[test]
fn ragged_ladder_all_detected_kernels_bitwise() {
    let supported = gemm_kernels_supported();
    for name in KERNEL_UNIVERSE {
        if !supported.contains(name) {
            eprintln!("skipped: GEMM kernel `{name}` not detected on this host");
        }
    }
    let mut rng = Rng::seed_from(606);
    let mut s = GemmScratch::new();
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
                let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
                let oracle = bits(&matmul_naive(&a, &b).unwrap());
                for kernel in &supported {
                    for threads in [1usize, 2, 4] {
                        let got = with_threads(threads, || {
                            matmul_with_kernel(&a, &b, kernel, &mut s).unwrap()
                        });
                        assert_eq!(
                            bits(&got),
                            oracle,
                            "kernel {kernel} {m}x{k}x{n} @ t{threads}"
                        );
                    }
                }
            }
        }
    }
}

/// Unknown kernel names must be a hard error naming the supported set,
/// not a silent fallback.
#[test]
fn unknown_kernel_name_is_an_error() {
    let mut rng = Rng::seed_from(707);
    let a = Tensor::rand_uniform([4, 4], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([4, 4], -1.0, 1.0, &mut rng);
    let err = matmul_with_kernel(&a, &b, "avx1024_64x64", &mut GemmScratch::new()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("avx1024_64x64"), "error must name the request: {msg}");
    assert!(msg.contains("scalar_8x4"), "error must list supported kernels: {msg}");
}

/// One warm scratch serves an arbitrary mix of shapes and variants; its
/// growth counter goes flat once the largest shape has been seen, and
/// reuse never changes a bit of any result.
#[test]
fn scratch_reuse_is_allocation_free_and_bitwise_stable() {
    let mut rng = Rng::seed_from(202);
    let mut scratch = GemmScratch::new();
    let shapes: Vec<(Tensor, Tensor, Tensor, Tensor)> = RAGGED
        .iter()
        .map(|&d| {
            (
                Tensor::rand_uniform([d, 2 * MR + 3], -1.0, 1.0, &mut rng),
                Tensor::rand_uniform([2 * MR + 3, d], -1.0, 1.0, &mut rng),
                Tensor::rand_uniform([2 * MR + 3, d], -1.0, 1.0, &mut rng), // tn A: (K, M)
                Tensor::rand_uniform([d, 2 * MR + 3], -1.0, 1.0, &mut rng), // nt B: (N, K)
            )
        })
        .collect();
    let first: Vec<_> = shapes
        .iter()
        .map(|(a, b, atn, bnt)| {
            (
                bits(&matmul_ws(a, b, &mut scratch).unwrap()),
                bits(&matmul_tn_ws(atn, b, &mut scratch).unwrap()),
                bits(&matmul_nt_ws(a, bnt, &mut scratch).unwrap()),
            )
        })
        .collect();
    let warm_grows = scratch.reallocations();
    assert!(warm_grows >= 1, "first pass must size the arena");
    assert!(scratch.capacity_bytes() > 0);
    for _ in 0..3 {
        let again: Vec<_> = shapes
            .iter()
            .map(|(a, b, atn, bnt)| {
                (
                    bits(&matmul_ws(a, b, &mut scratch).unwrap()),
                    bits(&matmul_tn_ws(atn, b, &mut scratch).unwrap()),
                    bits(&matmul_nt_ws(a, bnt, &mut scratch).unwrap()),
                )
            })
            .collect();
        assert_eq!(again, first, "scratch reuse changed results");
    }
    assert_eq!(
        scratch.reallocations(),
        warm_grows,
        "steady-state kernel path must not allocate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized ragged shapes (biased to hug the tile edges by the
    /// small ranges) stay bitwise equal to the oracle at every thread
    /// count, including through the transpose-absorbing packers.
    #[test]
    fn random_shapes_match_naive_bitwise(
        m in 1usize..(4 * MR + 6), k in 1usize..40, n in 1usize..(4 * MR + 6),
        seed in 0u64..10_000
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Tensor::rand_uniform([m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -2.0, 2.0, &mut rng);
        let oracle = bits(&matmul_naive(&a, &b).unwrap());
        let mut s = GemmScratch::new();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || matmul_ws(&a, &b, &mut s).unwrap());
            prop_assert_eq!(bits(&got), oracle.clone());
        }
        // And through every detected kernel, not just the selected one.
        for kernel in gemm_kernels_supported() {
            let got = matmul_with_kernel(&a, &b, kernel, &mut s).unwrap();
            prop_assert!(bits(&got) == oracle, "kernel {}", kernel);
        }
    }
}
