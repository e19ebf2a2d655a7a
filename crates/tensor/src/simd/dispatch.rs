//! The instruction-set selector and the [`SimdOp`] dispatcher.
//!
//! Every vectorized non-GEMM kernel in this crate is a [`SimdOp`]: a
//! small struct borrowing its operands, with one `scalar` body (the
//! portable oracle, always available) and optional vector bodies
//! (hand-written intrinsics, runtime-detected: AVX2 and AVX-512 on
//! x86-64, NEON on aarch64). [`dispatch`] resolves the ISA once per
//! process and runs the matching body under a `tensor.simd.*`
//! telemetry span, so traces show exactly how much time each op spends
//! on which path.
//!
//! The GEMM micro-kernels predate this layer and keep their own
//! [`Kernel`](crate::microkernel::Kernel) enum (their dispatch carries
//! tile-geometry state no other op needs), but their ISA choice comes
//! from [`Isa::select`] too, so one knob governs the whole crate:
//! `INSITU_SIMD=scalar` pins every op — GEMM included — to the
//! portable path.
//!
//! The knob is validated, not best-effort: an unrecognized or
//! host-unsupported value aborts at first use with a message listing
//! the valid set, instead of silently degrading to a different ISA
//! than the operator asked for.

use insitu_telemetry as telemetry;
use std::sync::OnceLock;

/// Every ISA name `INSITU_SIMD` accepts, in precedence-note order.
/// `auto` (or an unset/empty variable) means "detect the widest".
pub const ISA_NAMES: &[&str] = &["scalar", "avx2", "avx512", "neon", "auto"];

/// An instruction set the op bodies can be compiled for.
///
/// `Scalar` is plain safe Rust — whatever the autovectorizer makes of
/// it at the portable baseline (SSE2 on x86-64). It is the bitwise (or
/// documented-ULP, see the module docs of [`crate::simd`]) oracle every
/// other variant is property-tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable baseline; always available.
    Scalar,
    /// AVX2 + FMA, runtime-detected on x86-64.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 (F+BW+DQ+VL, implying AVX2+FMA for the fallback chain),
    /// runtime-detected on x86-64.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// Arm Advanced SIMD, runtime-detected on aarch64.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

/// Resolves an `INSITU_SIMD` value into an ISA, or panics with the
/// valid set.
fn parse_isa_request(want: &str) -> Isa {
    match want {
        "" | "auto" => Isa::detect(),
        "scalar" => Isa::Scalar,
        "avx2" => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
                {
                    return Isa::Avx2;
                }
                panic!("INSITU_SIMD=avx2: this x86-64 host does not support AVX2+FMA");
            }
            #[cfg(not(target_arch = "x86_64"))]
            panic!("INSITU_SIMD=avx2: AVX2 is an x86-64 ISA; this build targets {}", ARCH);
        }
        "avx512" => {
            #[cfg(target_arch = "x86_64")]
            {
                if avx512_detected() {
                    return Isa::Avx512;
                }
                panic!("INSITU_SIMD=avx512: this x86-64 host does not support AVX-512 F+BW+DQ+VL");
            }
            #[cfg(not(target_arch = "x86_64"))]
            panic!("INSITU_SIMD=avx512: AVX-512 is an x86-64 ISA; this build targets {}", ARCH);
        }
        "neon" => {
            #[cfg(target_arch = "aarch64")]
            {
                if std::arch::is_aarch64_feature_detected!("neon") {
                    return Isa::Neon;
                }
                panic!("INSITU_SIMD=neon: this aarch64 host does not report NEON support");
            }
            #[cfg(not(target_arch = "aarch64"))]
            panic!("INSITU_SIMD=neon: NEON is an aarch64 ISA; this build targets {}", ARCH);
        }
        other => panic!("INSITU_SIMD={other}: unrecognized ISA; valid values are {ISA_NAMES:?}"),
    }
}

const ARCH: &str = std::env::consts::ARCH;

/// True when the host supports the AVX-512 subset our bodies compile
/// for (F+BW+DQ+VL), plus AVX2+FMA so the default fallback chain
/// (`avx512` body defaulting to the `avx2` body) is always sound.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
}

impl Isa {
    /// The ISA every dispatched op in this process uses: the widest the
    /// host supports, resolved once and cached. The `INSITU_SIMD`
    /// environment variable (`scalar` / `avx2` / `avx512` / `neon` /
    /// `auto`) overrides detection; an unrecognized or host-unsupported
    /// request panics with the valid set rather than silently running a
    /// different ISA than the one asked for.
    pub fn select() -> Isa {
        static SELECTED: OnceLock<Isa> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            let want = std::env::var("INSITU_SIMD").unwrap_or_default();
            parse_isa_request(want.trim())
        })
    }

    /// The widest ISA the host supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if avx512_detected() {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return Isa::Neon;
            }
        }
        Isa::Scalar
    }

    /// Every ISA the current host can run — the portable baseline is
    /// always included, and narrower vector ISAs are listed before
    /// wider ones. The equivalence tests iterate this to assert that
    /// every runnable body agrees with every other, all pairs.
    pub fn supported() -> Vec<Isa> {
        let mut v = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                v.push(Isa::Avx2);
            }
            if avx512_detected() {
                v.push(Isa::Avx512);
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                v.push(Isa::Neon);
            }
        }
        v
    }

    /// Stable name, for telemetry labels and benchmark rows.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => "neon",
        }
    }
}

/// The name of the ISA the dispatcher resolved for this process.
pub fn simd_isa_name() -> &'static str {
    Isa::select().name()
}

/// One vectorizable operation: operands borrowed in the struct, one
/// body per ISA. `scalar` is mandatory and is the oracle; each vector
/// body defaults to the next-narrower one (`avx512` → `avx2` →
/// `scalar`, `neon` → `scalar`) so an op can be added portably first
/// and gain vector bodies later without touching its call sites.
pub trait SimdOp {
    /// Span name recorded by the dispatcher, e.g. `"tensor.simd.relu"`.
    const NAME: &'static str;

    /// What the op produces (often `()` for in-place ops).
    type Output;

    /// Bytes the op reads plus writes; fed to the
    /// `tensor.simd.bytes` counter so traces can derive per-op
    /// bandwidth.
    fn bytes(&self) -> u64;

    /// The portable body — the oracle all other bodies must match.
    fn scalar(self) -> Self::Output;

    /// The AVX2+FMA body.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the host supports AVX2 and
    /// FMA (the dispatcher only passes ISAs from [`Isa::select`] or
    /// [`Isa::supported`], which both check).
    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) -> Self::Output
    where
        Self: Sized,
    {
        self.scalar()
    }

    /// The AVX-512 body. Defaults to the AVX2 body: [`avx512_detected`]
    /// requires AVX2+FMA alongside the AVX-512 subset, so the fallback
    /// is always sound.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the host supports AVX-512
    /// F+BW+DQ+VL and AVX2+FMA (the dispatcher only passes ISAs from
    /// [`Isa::select`] or [`Isa::supported`], which both check).
    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) -> Self::Output
    where
        Self: Sized,
    {
        // SAFETY: the avx512 contract includes AVX2+FMA support.
        unsafe { self.avx2() }
    }

    /// The NEON body.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the host supports NEON (the
    /// dispatcher only passes ISAs from [`Isa::select`] or
    /// [`Isa::supported`], which both check).
    #[cfg(target_arch = "aarch64")]
    unsafe fn neon(self) -> Self::Output
    where
        Self: Sized,
    {
        self.scalar()
    }
}

/// Runs `op` on the process-wide ISA from [`Isa::select`].
pub fn dispatch<O: SimdOp>(op: O) -> O::Output {
    dispatch_on(Isa::select(), op)
}

/// Runs `op` on an explicit ISA — the entry point the equivalence
/// tests and the benchmark's scalar-vs-vector timing use. The ISA must
/// come from [`Isa::select`] or [`Isa::supported`] so the vector
/// body's feature requirement is known to hold.
pub fn dispatch_on<O: SimdOp>(isa: Isa, op: O) -> O::Output {
    let _t = telemetry::span_with(O::NAME, || isa.name().to_string());
    telemetry::counter_add("tensor.simd.bytes", O::NAME, op.bytes());
    match isa {
        Isa::Scalar => op.scalar(),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` values only come from `select`/`supported`,
        // which gate Avx2 behind runtime detection of AVX2 and FMA.
        Isa::Avx2 => unsafe { op.avx2() },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa` values only come from `select`/`supported`,
        // which gate Avx512 behind runtime detection of the AVX-512
        // subset plus AVX2+FMA.
        Isa::Avx512 => unsafe { op.avx512() },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `isa` values only come from `select`/`supported`,
        // which gate Neon behind runtime detection of NEON.
        Isa::Neon => unsafe { op.neon() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        let isas = Isa::supported();
        assert_eq!(isas[0], Isa::Scalar);
        assert!(isas.contains(&Isa::select()) || Isa::select() == Isa::Scalar);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert!(!simd_isa_name().is_empty());
        for isa in Isa::supported() {
            assert!(ISA_NAMES.contains(&isa.name()));
        }
    }

    #[test]
    fn auto_and_empty_resolve_to_detection() {
        assert_eq!(parse_isa_request(""), Isa::detect());
        assert_eq!(parse_isa_request("auto"), Isa::detect());
        assert_eq!(parse_isa_request("scalar"), Isa::Scalar);
    }

    #[test]
    #[should_panic(expected = "unrecognized ISA")]
    fn unknown_isa_request_panics_with_valid_set() {
        parse_isa_request("sse42");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "aarch64 ISA")]
    fn wrong_arch_request_panics() {
        parse_isa_request("neon");
    }

    struct Double<'a>(&'a mut [f32]);
    impl SimdOp for Double<'_> {
        const NAME: &'static str = "tensor.simd.test_double";
        type Output = ();
        fn bytes(&self) -> u64 {
            8 * self.0.len() as u64
        }
        fn scalar(self) {
            for v in self.0 {
                *v *= 2.0;
            }
        }
        // No vector bodies: every default must fall back to scalar.
    }

    #[test]
    fn default_vector_bodies_fall_back_to_scalar() {
        for isa in Isa::supported() {
            let mut x = [1.0f32, -2.0, 3.5];
            dispatch_on(isa, Double(&mut x));
            assert_eq!(x, [2.0, -4.0, 7.0]);
        }
    }
}
