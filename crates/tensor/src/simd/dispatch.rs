//! The instruction-set selector and the [`SimdOp`] dispatcher.
//!
//! Every vectorized non-GEMM kernel in this crate is a [`SimdOp`]: a
//! small struct borrowing its operands, with one scalar per-range
//! kernel (the portable oracle, always available), optional vector
//! kernels (hand-written intrinsics, runtime-detected: AVX2 and AVX-512
//! on x86-64, NEON on aarch64) of the same signature, and one `run`
//! that splits the op once and applies whichever kernel it is given.
//! [`dispatch`] resolves the ISA once per process, picks the kernel
//! and runs it under a `tensor.simd.*` telemetry span, so traces show
//! exactly how much time each op spends on which path.
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
/// for (F+BW+DQ+VL), plus AVX2+FMA so the fallback from a missing
/// AVX-512 kernel to the AVX2 one is always sound.
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
/// per-range kernel per ISA, and one [`run`](SimdOp::run) that splits
/// the op once and applies the kernel it is given to every range.
///
/// `SCALAR` is mandatory and is the oracle. A vector kernel left `None`
/// falls back to the next-narrower one (`AVX512` → `AVX2` → `SCALAR`,
/// `NEON` → `SCALAR`; see [`dispatch_on`]), so an op can be added
/// portably first and gain vector kernels later without touching its
/// call sites.
pub trait SimdOp: Sized {
    /// Span name recorded by the dispatcher, e.g. `"tensor.simd.relu"`.
    const NAME: &'static str;

    /// What the op produces (often `()` for in-place ops).
    type Output;

    /// The per-range kernel signature every ISA shares, e.g.
    /// `unsafe fn(&mut [f32])`.
    type Kernel: Copy;

    /// The portable kernel — the oracle all others must match.
    const SCALAR: Self::Kernel;

    /// The AVX2+FMA kernel.
    #[cfg(target_arch = "x86_64")]
    const AVX2: Option<Self::Kernel> = None;

    /// The AVX-512 (F+BW+DQ+VL) kernel.
    #[cfg(target_arch = "x86_64")]
    const AVX512: Option<Self::Kernel> = None;

    /// The NEON kernel.
    #[cfg(target_arch = "aarch64")]
    const NEON: Option<Self::Kernel> = None;

    /// Bytes the op reads plus writes; fed to the
    /// `tensor.simd.bytes` counter so traces can derive per-op
    /// bandwidth.
    fn bytes(&self) -> u64;

    /// Splits the op once and runs `kernel` over every range.
    ///
    /// # Safety
    ///
    /// `kernel` must be `SCALAR` or a vector kernel of an ISA the host
    /// supports ([`dispatch_on`] checks this).
    unsafe fn run(self, kernel: Self::Kernel) -> Self::Output;
}

/// The host's supported ISAs, resolved once.
fn host_isas() -> &'static [Isa] {
    static HOST: OnceLock<Vec<Isa>> = OnceLock::new();
    HOST.get_or_init(Isa::supported)
}

/// Panics, naming `isa`, unless it is in `supported`.
fn require_supported(isa: Isa, supported: &[Isa]) {
    if !supported.contains(&isa) {
        let names: Vec<_> = supported.iter().map(|i| i.name()).collect();
        let isa = isa.name();
        panic!("dispatch_on({isa}): this host does not support it; supported ISAs are {names:?}");
    }
}

/// Runs `op` on the process-wide ISA from [`Isa::select`].
pub fn dispatch<O: SimdOp>(op: O) -> O::Output {
    // `select` only resolves host-supported ISAs.
    run_on(Isa::select(), op)
}

/// Runs `op` on an explicit ISA — the entry point the equivalence
/// tests and the benchmark's scalar-vs-vector timing use.
///
/// # Panics
///
/// Panics if the host does not support `isa`, exactly as a bad
/// `INSITU_SIMD` does, rather than running instructions it lacks.
pub fn dispatch_on<O: SimdOp>(isa: Isa, op: O) -> O::Output {
    require_supported(isa, host_isas());
    run_on(isa, op)
}

/// Picks `op`'s kernel for a host-supported `isa`, falling back to the
/// next-narrower kernel where the op has none, and runs it.
fn run_on<O: SimdOp>(isa: Isa, op: O) -> O::Output {
    let _t = telemetry::span_with(O::NAME, || isa.name().to_string());
    telemetry::counter_add("tensor.simd.bytes", O::NAME, op.bytes());
    let kernel = match isa {
        Isa::Scalar => O::SCALAR,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => O::AVX2.unwrap_or(O::SCALAR),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => O::AVX512.or(O::AVX2).unwrap_or(O::SCALAR),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => O::NEON.unwrap_or(O::SCALAR),
    };
    // SAFETY: `isa` is host-supported (`select` resolves only supported
    // ISAs and `dispatch_on` checks), and an AVX-512 host also has the
    // AVX2+FMA its fallback kernel needs (`avx512_detected`).
    unsafe { op.run(kernel) }
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

    #[test]
    fn dispatch_on_rejects_an_isa_the_host_lacks() {
        require_supported(Isa::Scalar, &[Isa::Scalar]);
        for isa in Isa::supported() {
            require_supported(isa, host_isas());
        }
        #[cfg(target_arch = "x86_64")]
        {
            let err = std::panic::catch_unwind(|| {
                require_supported(Isa::Avx512, &[Isa::Scalar, Isa::Avx2]);
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains("dispatch_on(avx512)"), "{msg}");
            assert!(msg.contains(r#"["scalar", "avx2"]"#), "{msg}");
        }
    }

    struct Double<'a>(&'a mut [f32]);

    fn double(buf: &mut [f32]) {
        for v in buf {
            *v *= 2.0;
        }
    }

    impl SimdOp for Double<'_> {
        const NAME: &'static str = "tensor.simd.test_double";
        type Output = ();
        type Kernel = unsafe fn(&mut [f32]);
        const SCALAR: Self::Kernel = double;
        // No vector kernels: every ISA must fall back to scalar.
        fn bytes(&self) -> u64 {
            8 * self.0.len() as u64
        }
        unsafe fn run(self, kernel: Self::Kernel) {
            // SAFETY: forwarded from the caller.
            unsafe { kernel(self.0) }
        }
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
