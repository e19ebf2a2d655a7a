//! The fixed-point i8 GEMM against its naive oracle.
//!
//! Integer accumulation is exact, so the contract is stronger than the
//! f32 suite's: [`matmul_i8_with_kernel`] must equal [`matmul_i8_naive`]
//! **exactly** at any shape, any kernel — the process-selected one
//! ([`gemm_kernel_name`], which one CI leg pins to the portable kernel
//! via `INSITU_SIMD=scalar`) and every detected one — and any thread
//! count: packing, the vectorized `madd` pairing and panel
//! partitioning can reorder the sum freely without changing a single
//! accumulator bit. The same ragged ladder as `packed_gemm.rs` is swept
//! so partial tiles at every edge are covered.
//!
//! The quantize/dequantize round-trip tests pin the numeric half of the
//! scheme: symmetric scale `max_abs/127`, error at most half a step.

use insitu_tensor::{
    dequantize_i8, gemm_kernel_name, gemm_kernels_supported, matmul_i8_naive,
    matmul_i8_with_kernel, max_abs, num_threads, quant_scale, quantize_i8, set_num_threads,
    GemmScratch, Rng, QUANT_MAX,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Micro-kernel tile height (shared with the f32 kernels).
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

/// Deterministic i8 matrix spanning the full value range (±127).
fn rand_i8(len: usize, rng: &mut Rng) -> Vec<i8> {
    (0..len).map(|_| (rng.below(255) as i32 - 127) as i8).collect()
}

/// Every (m, k, n) in the ragged ladder at 1/2/4 threads: exactly
/// equal to the oracle's i32 accumulators.
#[test]
fn ragged_ladder_matches_naive_exactly_at_all_thread_counts() {
    let mut rng = Rng::seed_from(303);
    let mut s = GemmScratch::new();
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = rand_i8(m * k, &mut rng);
                let b = rand_i8(k * n, &mut rng);
                let oracle = matmul_i8_naive(&a, &b, m, k, n);
                for threads in [1usize, 2, 4] {
                    let got = with_threads(threads, || {
                        matmul_i8_with_kernel(&a, &b, m, k, n, gemm_kernel_name(), &mut s).unwrap()
                    });
                    assert_eq!(got, oracle, "matmul_i8 {m}x{k}x{n} @ t{threads}");
                }
            }
        }
    }
}

/// Every GEMM kernel variant that could exist on any target; entries
/// absent from [`gemm_kernels_supported`] are skipped with a note.
const KERNEL_UNIVERSE: &[&str] = &["scalar_8x4", "avx2_8x8", "avx512_8x16", "neon_8x8"];

/// The ragged ladder through **every** detected kernel via
/// [`matmul_i8_with_kernel`], at 1/2/4 threads: i32 accumulation is
/// exact, so each kernel's `madd` pairing and tile width must never
/// change an accumulator.
#[test]
fn ragged_ladder_all_detected_kernels_exact() {
    let supported = gemm_kernels_supported();
    for name in KERNEL_UNIVERSE {
        if !supported.contains(name) {
            eprintln!("skipped: GEMM kernel `{name}` not detected on this host");
        }
    }
    let mut rng = Rng::seed_from(808);
    let mut s = GemmScratch::new();
    for &m in RAGGED {
        for &k in RAGGED {
            for &n in RAGGED {
                let a = rand_i8(m * k, &mut rng);
                let b = rand_i8(k * n, &mut rng);
                let oracle = matmul_i8_naive(&a, &b, m, k, n);
                for kernel in &supported {
                    for threads in [1usize, 2, 4] {
                        let got = with_threads(threads, || {
                            matmul_i8_with_kernel(&a, &b, m, k, n, kernel, &mut s).unwrap()
                        });
                        assert_eq!(got, oracle, "kernel {kernel} {m}x{k}x{n} @ t{threads}");
                    }
                }
            }
        }
    }
}

/// Unknown kernel names must be a hard error naming the supported set.
#[test]
fn unknown_i8_kernel_name_is_an_error() {
    let err = matmul_i8_with_kernel(&[1i8], &[1i8], 1, 1, 1, "mmx_2x2", &mut GemmScratch::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("mmx_2x2"), "error must name the request: {msg}");
    assert!(msg.contains("scalar_8x4"), "error must list supported kernels: {msg}");
}

/// One warm scratch serves the whole ladder; growth goes flat after
/// the first pass and reuse never changes an accumulator.
#[test]
fn i8_scratch_reuse_is_allocation_free_and_exact() {
    let mut rng = Rng::seed_from(404);
    let mut scratch = GemmScratch::new();
    let shapes: Vec<(usize, Vec<i8>, Vec<i8>)> = RAGGED
        .iter()
        .map(|&d| {
            (
                d,
                rand_i8(d * (2 * MR + 3), &mut rng),
                rand_i8((2 * MR + 3) * d, &mut rng),
            )
        })
        .collect();
    let k = 2 * MR + 3;
    let run = |scratch: &mut GemmScratch| -> Vec<Vec<i32>> {
        shapes
            .iter()
            .map(|(d, a, b)| {
                matmul_i8_with_kernel(a, b, *d, k, *d, gemm_kernel_name(), scratch).unwrap()
            })
            .collect()
    };
    let first = run(&mut scratch);
    for ((d, a, b), got) in shapes.iter().zip(&first) {
        assert_eq!(got, &matmul_i8_naive(a, b, *d, k, *d), "d={d}");
    }
    let warm_grows = scratch.reallocations();
    assert!(warm_grows >= 1, "first pass must size the arena");
    for _ in 0..3 {
        assert_eq!(run(&mut scratch), first, "scratch reuse changed results");
    }
    assert_eq!(
        scratch.reallocations(),
        warm_grows,
        "steady-state i8 kernel path must not allocate"
    );
}

/// Symmetric round-trip: `dequant(quant(x))` is within half a
/// quantization step of `x` for every in-range value, and the scale
/// maps `max_abs` to exactly ±127.
#[test]
fn quantize_round_trip_stays_within_half_a_step() {
    let mut rng = Rng::seed_from(505);
    let src: Vec<f32> = (0..1000)
        .map(|_| (rng.below(20001) as f32 - 10000.0) / 1234.5)
        .collect();
    let scale = quant_scale(max_abs(&src));
    let mut q = vec![0i8; src.len()];
    quantize_i8(&src, scale, &mut q);
    let mut back = vec![0.0f32; src.len()];
    dequantize_i8(&q, scale, &mut back);
    for (i, (&x, &y)) in src.iter().zip(&back).enumerate() {
        assert!(
            (x - y).abs() <= scale * 0.5 + f32::EPSILON,
            "element {i}: {x} -> {y}, step {scale}"
        );
    }
    // The extreme value uses the full i8 range.
    let peak = src.iter().cloned().fold(0.0f32, |m, v| m.max(v.abs()));
    let qpeak = q.iter().map(|&v| i32::from(v).unsigned_abs()).max().unwrap();
    assert_eq!(qpeak, QUANT_MAX as u32);
    assert!((peak / scale - QUANT_MAX).abs() < 1e-3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized ragged shapes stay exactly equal to the oracle at
    /// every thread count.
    #[test]
    fn random_shapes_match_naive_exactly(
        m in 1usize..(4 * MR + 6), k in 1usize..40, n in 1usize..(4 * MR + 6),
        seed in 0u64..10_000
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = rand_i8(m * k, &mut rng);
        let b = rand_i8(k * n, &mut rng);
        let oracle = matmul_i8_naive(&a, &b, m, k, n);
        let mut s = GemmScratch::new();
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || {
                matmul_i8_with_kernel(&a, &b, m, k, n, gemm_kernel_name(), &mut s).unwrap()
            });
            prop_assert_eq!(&got, &oracle);
        }
        // And through every detected kernel, not just the selected one.
        for kernel in gemm_kernels_supported() {
            let got = matmul_i8_with_kernel(&a, &b, m, k, n, kernel, &mut s).unwrap();
            prop_assert!(got == oracle, "kernel {}", kernel);
        }
    }
}
