//! Scalar↔SIMD equivalence for every dispatched op.
//!
//! The scalar body of each [`SimdOp`] is the reference semantics;
//! these properties hold every other runnable body
//! ([`Isa::supported`]) to it **bitwise** (compared via `to_bits`)
//! across ragged shapes and 1/2/4 threads, per the policy in
//! `insitu_tensor::simd`: relu forward / train / backward,
//! quantize_i8, max_abs, and maxpool values *and* argmax.
//!
//! Beyond scalar↔vector, `cross_isa_all_pairs_bitwise` holds every
//! *pair* of host-supported ISAs to each other at 1/2/4 threads, and
//! prints a `skipped:` note for universe ISAs the host cannot run.
//!
//! CI runs this suite several times: with auto detection, with
//! `INSITU_SIMD=scalar` (which `dispatch_env_override_is_honored`
//! checks is actually in force), and — where the host supports it —
//! with `INSITU_SIMD=avx512`.

use insitu_tensor::simd::{
    dispatch_on, simd_isa_name, Isa, MaxAbs, MaxPool2d, QuantizeI8, Relu, ReluBackward, ReluTrain,
    ISA_NAMES,
};
use insitu_tensor::{maxpool2d_forward, num_threads, set_num_threads, PoolGeometry, Rng, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

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

/// Values with sign changes, exact zeros (both signs) and magnitude
/// spread down to the denormal range, from the repo's seeded RNG.
fn values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    (0..len)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.uniform(-1e-30, 1e-30),
            _ => rng.uniform(-100.0, 100.0),
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relu_eval_bitwise(n in 0usize..300, seed in 0u64..1000) {
        let src = values(n, seed);
        let mut oracle = src.clone();
        dispatch_on(Isa::Scalar, Relu { buf: &mut oracle });
        for isa in Isa::supported() {
            let mut got = src.clone();
            dispatch_on(isa, Relu { buf: &mut got });
            assert_bits_eq(&got, &oracle, isa.name());
        }
    }

    #[test]
    fn relu_train_and_backward_bitwise(n in 0usize..300, seed in 0u64..1000) {
        let src = values(n, seed);
        let grad = values(n, seed.wrapping_add(7001));
        let (src, grad) = (&src[..], &grad[..]);
        let mut obuf = src.to_vec();
        let mut omask = vec![0u8; n.div_ceil(8)];
        dispatch_on(Isa::Scalar, ReluTrain { buf: &mut obuf, mask: &mut omask });
        let mut ograd = grad.to_vec();
        dispatch_on(Isa::Scalar, ReluBackward { grad: &mut ograd, mask: &omask });
        for isa in Isa::supported() {
            let mut buf = src.to_vec();
            let mut mask = vec![0u8; n.div_ceil(8)];
            dispatch_on(isa, ReluTrain { buf: &mut buf, mask: &mut mask });
            assert_bits_eq(&buf, &obuf, "relu_train values");
            prop_assert!(mask == omask, "relu_train mask @ {}", isa.name());
            let mut g = grad.to_vec();
            dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
            assert_bits_eq(&g, &ograd, "relu_backward");
        }
    }

    #[test]
    fn quantize_i8_bitwise(
        n in 0usize..300,
        seed in 0u64..1000,
        scale in 1e-3f32..10.0,
    ) {
        let src = values(n, seed);
        let mut oracle = vec![0i8; src.len()];
        dispatch_on(
            Isa::Scalar,
            QuantizeI8 { src: &src, inv_scale: 1.0 / scale, dst: &mut oracle },
        );
        for isa in Isa::supported() {
            let mut got = vec![0i8; src.len()];
            dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 1.0 / scale, dst: &mut got });
            prop_assert!(got == oracle, "quantize_i8 @ {}", isa.name());
        }
    }

    #[test]
    fn reductions_match_scalar(n in 1usize..300, seed in 0u64..1000) {
        let a = values(n, seed);
        let o_abs = dispatch_on(Isa::Scalar, MaxAbs { src: &a });
        for isa in Isa::supported() {
            prop_assert_eq!(dispatch_on(isa, MaxAbs { src: &a }).to_bits(), o_abs.to_bits());
        }
    }

    #[test]
    fn maxpool_bitwise_across_geometries(
        b in 1usize..3,
        c in 1usize..3,
        hw_pick in 0usize..6,
        ws_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        const HW: [(usize, usize); 6] = [(4, 4), (5, 7), (16, 16), (17, 19), (36, 36), (37, 18)];
        const WS: [(usize, usize); 3] = [(2, 2), (3, 2), (2, 1)];
        let (h, w) = HW[hw_pick];
        let (window, stride) = WS[ws_pick];
        prop_assume!(window <= h && window <= w);
        let g = PoolGeometry::new(c, h, w, window, stride).unwrap();
        let mut rng = Rng::seed_from(seed);
        let x: Vec<f32> = (0..b * c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let out_len = b * c * g.out_h * g.out_w;
        let mut o_out = vec![0f32; out_len];
        let mut o_arg = vec![0usize; out_len];
        dispatch_on(
            Isa::Scalar,
            MaxPool2d { x: &x, g, planes: b * c, out: &mut o_out, argmax: &mut o_arg },
        );
        for isa in Isa::supported() {
            let mut out = vec![0f32; out_len];
            let mut arg = vec![0usize; out_len];
            dispatch_on(
                isa,
                MaxPool2d { x: &x, g, planes: b * c, out: &mut out, argmax: &mut arg },
            );
            assert_bits_eq(&out, &o_out, "maxpool values");
            prop_assert!(arg == o_arg, "maxpool argmax @ {}", isa.name());
        }
    }
}

/// Large enough to cross the parallel-split threshold: every op must
/// produce identical bits at 1, 2 and 4 threads on every runnable ISA.
#[test]
fn thread_count_never_changes_bits() {
    let mut rng = Rng::seed_from(77);
    let n: usize = 300_000;
    let src: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let grad: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    for isa in Isa::supported() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut relu = src.clone();
                let mut mask = vec![0u8; n.div_ceil(8)];
                dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
                let mut g = grad.clone();
                dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
                let mut q = vec![0i8; n];
                dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 93.7, dst: &mut q });
                (relu, mask, g, q)
            })
        };
        let base = run(1);
        for threads in [2usize, 4] {
            let got = run(threads);
            assert_eq!(got.1, base.1, "mask @ t{threads} {}", isa.name());
            assert_eq!(got.3, base.3, "quantize @ t{threads} {}", isa.name());
            for (name, a, b) in [("relu", &got.0, &base.0), ("relu_bwd", &got.2, &base.2)] {
                assert_bits_eq(a, b, &format!("{name} @ t{threads} {}", isa.name()));
            }
        }
    }
}

/// Maxpool at a parallel-sized shape: the public entry point must be
/// thread-invariant too (values and argmax).
#[test]
fn maxpool_thread_invariance_at_scale() {
    let g = PoolGeometry::new(32, 64, 64, 2, 2).unwrap();
    let mut rng = Rng::seed_from(78);
    let x = Tensor::rand_uniform([8, 32, 64, 64], -1.0, 1.0, &mut rng);
    let (base_y, base_arg) = with_threads(1, || maxpool2d_forward(&x, &g).unwrap());
    for threads in [2usize, 4] {
        let (y, arg) = with_threads(threads, || maxpool2d_forward(&x, &g).unwrap());
        assert_bits_eq(y.as_slice(), base_y.as_slice(), "maxpool values");
        assert_eq!(arg, base_arg, "maxpool argmax @ t{threads}");
    }
}

/// Special values: NaN, infinities and -0.0 follow the scalar oracle
/// bit for bit through the bitwise ops.
#[test]
fn special_values_follow_the_oracle() {
    let src = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.5,
        -1.5,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        42.0,
        -42.0,
        7.25,
        -7.25,
        1e-40,
        -1e-40,
    ];
    let mut o_relu = src.clone();
    let mut o_mask = vec![0u8; src.len().div_ceil(8)];
    dispatch_on(Isa::Scalar, ReluTrain { buf: &mut o_relu, mask: &mut o_mask });
    let mut o_q = vec![0i8; src.len()];
    dispatch_on(Isa::Scalar, QuantizeI8 { src: &src, inv_scale: 2.0, dst: &mut o_q });
    let o_abs = dispatch_on(Isa::Scalar, MaxAbs { src: &src });
    assert_eq!(o_q[0], 0, "NaN must quantize to 0");
    assert_eq!(o_q[1], 127, "inf must saturate to 127");
    assert_eq!(o_q[2], -127, "-inf must saturate to -127");
    assert!(o_abs.is_finite(), "max_abs must skip non-finite values");
    for isa in Isa::supported() {
        let mut relu = src.clone();
        let mut mask = vec![0u8; src.len().div_ceil(8)];
        dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
        assert_bits_eq(&relu, &o_relu, "relu specials");
        assert_eq!(mask, o_mask, "relu mask specials @ {}", isa.name());
        let mut q = vec![0i8; src.len()];
        dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 2.0, dst: &mut q });
        assert_eq!(q, o_q, "quantize specials @ {}", isa.name());
        assert_eq!(
            dispatch_on(isa, MaxAbs { src: &src }).to_bits(),
            o_abs.to_bits(),
            "max_abs specials @ {}",
            isa.name()
        );
    }
}

/// The `INSITU_SIMD=scalar` CI leg must actually pin the portable
/// path (and the default leg must resolve to a supported ISA).
#[test]
fn dispatch_env_override_is_honored() {
    let want = std::env::var("INSITU_SIMD").unwrap_or_default();
    if want.trim() == "scalar" {
        assert_eq!(simd_isa_name(), "scalar");
        assert_eq!(Isa::select(), Isa::Scalar);
    } else {
        assert!(Isa::supported().contains(&Isa::select()));
    }
}

/// Every output of one [`op_battery`] run, so ISAs can be compared
/// pairwise field by field.
struct Battery {
    relu_eval: Vec<f32>,
    relu: Vec<f32>,
    mask: Vec<u8>,
    bwd: Vec<f32>,
    quant: Vec<i8>,
    pool: Vec<f32>,
    argmax: Vec<usize>,
    max_abs: u32,
}

/// One battery of every dispatched op on one ISA at one thread count.
fn op_battery(isa: Isa, threads: usize) -> Battery {
    // Sized past the parallel-split threshold so the thread count is
    // exercised, with denormals / signed zeros from `values`.
    let n: usize = 120_000;
    let src = values(n, 0xC0FFEE);
    let grad = values(n, 0xBEEF);
    with_threads(threads, || {
        let mut relu_eval = src.clone();
        dispatch_on(isa, Relu { buf: &mut relu_eval });
        let mut relu = src.clone();
        let mut mask = vec![0u8; n.div_ceil(8)];
        dispatch_on(isa, ReluTrain { buf: &mut relu, mask: &mut mask });
        let mut g = grad.clone();
        dispatch_on(isa, ReluBackward { grad: &mut g, mask: &mask });
        let mut q = vec![0i8; n];
        dispatch_on(isa, QuantizeI8 { src: &src, inv_scale: 37.5, dst: &mut q });
        let pg = PoolGeometry::new(4, 50, 100, 2, 2).unwrap();
        let planes = 6 * 4;
        let mut pool = vec![0f32; planes * pg.out_h * pg.out_w];
        let mut arg = vec![0usize; pool.len()];
        dispatch_on(
            isa,
            MaxPool2d { x: &src[..planes * 50 * 100], g: pg, planes, out: &mut pool, argmax: &mut arg },
        );
        Battery {
            relu_eval,
            relu,
            mask,
            bwd: g,
            quant: q,
            pool,
            argmax: arg,
            max_abs: dispatch_on(isa, MaxAbs { src: &src }).to_bits(),
        }
    })
}

/// Cross-ISA equivalence matrix: every host-supported ISA pair must
/// agree **bitwise** on every dispatched op at 1, 2 and 4 threads.
/// ISAs in the universe (`ISA_NAMES` minus `auto`) that this host
/// cannot run are skipped with a visible note, so CI logs show
/// exactly which cells of the matrix were exercised.
#[test]
fn cross_isa_all_pairs_bitwise() {
    let supported = Isa::supported();
    for name in ISA_NAMES.iter().filter(|&&n| n != "auto") {
        if !supported.iter().any(|i| i.name() == *name) {
            eprintln!("skipped: ISA `{name}` not supported on this host");
        }
    }
    for threads in [1usize, 2, 4] {
        let batteries: Vec<_> =
            supported.iter().map(|&isa| (isa, op_battery(isa, threads))).collect();
        for (ai, (isa_a, a)) in batteries.iter().enumerate() {
            for (isa_b, b) in &batteries[ai + 1..] {
                let pair = format!("{} vs {} @ t{threads}", isa_a.name(), isa_b.name());
                assert_bits_eq(&a.relu_eval, &b.relu_eval, &format!("relu {pair}"));
                assert_bits_eq(&a.relu, &b.relu, &format!("relu_train {pair}"));
                assert_eq!(a.mask, b.mask, "mask {pair}");
                assert_bits_eq(&a.bwd, &b.bwd, &format!("relu_bwd {pair}"));
                assert_eq!(a.quant, b.quant, "quantize {pair}");
                assert_bits_eq(&a.pool, &b.pool, &format!("maxpool {pair}"));
                assert_eq!(a.argmax, b.argmax, "argmax {pair}");
                assert_eq!(a.max_abs, b.max_abs, "max_abs {pair}");
            }
        }
    }
}
