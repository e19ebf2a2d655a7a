//! Register-tiled GEMM micro-kernels.
//!
//! A [`Kernel`] computes MR×NR output tiles of `C = A·B` from a *packed*
//! A operand (see [`crate::pack`]): an A-panel stores MR rows k-major
//! (`ap[k*MR + r]`). B comes through a [`BRows`] accessor that hands the
//! body the NR contiguous elements of k-step `kk` in column panel `jp`:
//! [`Packed`] reads packed panels (`bp[jp·NR·k + kk·NR..]`), and [`Taps`]
//! reads a convolution's zero-bordered staging slot in place
//! (`slot[rows[kk] + jp·NR..]`, see [`crate::conv`]). Each body is
//! generic over the accessor, so one body per ISA and precision serves
//! both, and the packed instance compiles to plain panel loads.
//!
//! The k loop is one ascending pass with the whole tile of
//! accumulators held in registers, so every output element is the
//! plain left-to-right sum `((0 + a₀·b₀) + a₁·b₁) + …` — exactly
//! the chain [`matmul_naive`](crate::matmul_naive) produces. That makes
//! the packed kernels bitwise-reproducible against the oracle for any
//! tile shape, panel partition or thread count: parallelism and tiling
//! only change *which* element is computed *when*, never the f32 op
//! sequence behind one element.
//!
//! Ragged edges are handled by full tiles: panels are always full
//! MR/NR wide, the micro-kernel always computes a full tile, and only
//! the valid sub-rectangle is stored. The lanes past `n` read zero
//! padding (packed panels) or whatever lies past the last column in the
//! slot (taps); either way the lane is computed on its own and
//! discarded, so it cannot perturb a valid element.
//!
//! Four kernel variants share the determinism contract:
//!
//! * [`Kernel::Scalar8x4`] — the portable baseline. Plain safe Rust;
//!   on x86-64 the autovectorizer emits SSE2 for it.
//! * [`Kernel::Avx2_8x8`] (x86-64 only) — the *same* generic body
//!   compiled under `#[target_feature(enable = "avx2,fma")]` with a
//!   wider tile, selected at runtime when the host supports it. Wider
//!   vectors change speed only: Rust never contracts `acc + a*b` into
//!   an FMA, so the per-element f32 op sequence — and therefore every
//!   bit of the result — is identical across kernels.
//! * [`Kernel::Avx512_8x16`] (x86-64 only) — hand-written zmm
//!   intrinsics. It cannot reuse the generic body: under the `avx512f`
//!   target feature LLVM still prefers 256-bit vectors
//!   (`prefer-vector-width=256`), so only explicit `_mm512_*` ops
//!   guarantee 16-wide lanes. The body uses separate
//!   `_mm512_mul_ps` + `_mm512_add_ps` — never `_mm512_fmadd_ps` —
//!   keeping the one-rounding-per-op scalar chain.
//! * [`Kernel::Neon8x8`] (aarch64 only) — hand-written NEON
//!   intrinsics, `vmulq_f32` + `vaddq_f32`. `vfmaq_f32` would be
//!   faster but fuses into a single rounding, which breaks bitwise
//!   equality with the scalar oracle; the crate-wide determinism
//!   contract wins.
//!
//! Anything that keeps a single ascending-k accumulation chain per
//! element inherits the determinism guarantee for free.
//!
//! Selection follows the crate-wide [`Isa`](crate::simd::Isa) choice,
//! resolved once per process: the `INSITU_SIMD` knob (`scalar` /
//! `avx2` / `avx512` / `neon` / `auto`) pins the GEMM together with
//! every other dispatched op and hard-errors on unrecognized or
//! host-unsupported values. Tests and benchmarks that need every
//! kernel in one process name them explicitly
//! ([`matmul_with_kernel`](crate::matmul_with_kernel)).
//!
//! # i8 tiles
//!
//! Each variant also carries an i8 micro-kernel ([`Kernel::run_band_i8`])
//! over the *same* operand layouts, accumulating in i32. Integer
//! accumulation is exact, so — unlike f32 — **any** summation order is
//! bitwise identical to the naive reference; the AVX2 variant exploits
//! that by pairing adjacent k-steps for `vpmaddwd` (16 i16 products per
//! instruction). The caller must keep `k ≤ i32::MAX / 127² (≈ 133k)`
//! so a worst-case accumulation cannot overflow; every shape in this
//! codebase is orders of magnitude below that.

use crate::error::TensorError;
use crate::pack::packed_b_len;
use crate::simd::Isa;
use std::ops::Range;

/// Where a band body finds B: the NR contiguous elements of k-step `kk`
/// in column panel `jp`, for `jp < ⌈n/NR⌉` and `kk < k`. Each
/// implementation checks once, at construction, that every such row
/// lies inside its buffer; the bodies then load rows unchecked.
pub(crate) trait BRows<T>: Copy {
    /// The GEMM depth `k`, width `n` and panel width NR the rows were
    /// checked for.
    fn dims(&self) -> (usize, usize, usize);

    /// The first element of row `kk` of panel `jp`.
    ///
    /// # Safety
    ///
    /// `NR` must be the checked panel width, `jp < ⌈n/NR⌉` and `kk < k`.
    unsafe fn row<const NR: usize>(self, jp: usize, kk: usize) -> *const T;
}

/// B packed into NR-wide k-major panels (the [`crate::pack`] layout):
/// row `kk` of panel `jp` is `bp[jp·NR·k + kk·NR..][..NR]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed<'a, T> {
    bp: &'a [T],
    k: usize,
    n: usize,
    nr: usize,
}

impl<'a, T> Packed<'a, T> {
    /// Panels of a `k × n` operand at panel width `nr`.
    ///
    /// # Panics
    ///
    /// Panics if `bp` is shorter than [`packed_b_len`]`(k, n, nr)`.
    pub(crate) fn new(bp: &'a [T], k: usize, n: usize, nr: usize) -> Self {
        let need = packed_b_len(k, n, nr);
        assert!(bp.len() >= need, "packed B holds {} of {need} elements", bp.len());
        Packed { bp, k, n, nr }
    }
}

impl<T: Copy> BRows<T> for Packed<'_, T> {
    fn dims(&self) -> (usize, usize, usize) {
        (self.k, self.n, self.nr)
    }

    #[inline(always)]
    unsafe fn row<const NR: usize>(self, jp: usize, kk: usize) -> *const T {
        // SAFETY: `new` checked that the ⌈n/NR⌉ panels of NR·k
        // elements fit in `bp`, and the caller keeps (jp, kk) inside.
        unsafe { self.bp.as_ptr().add(jp * NR * self.k + kk * NR) }
    }
}

/// B read in place from a convolution's staging slot: row `kk` of panel
/// `jp` is `slot[rows[kk] + jp·NR..][..NR]`, so column `j` of row `kk`
/// is `slot[rows[kk] + j]` (see [`crate::conv`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Taps<'a, T> {
    slot: &'a [T],
    rows: &'a [usize],
    n: usize,
    nr: usize,
}

impl<'a, T> Taps<'a, T> {
    /// The `rows.len() × n` operand over `slot` at panel width `nr`.
    ///
    /// # Panics
    ///
    /// Panics unless the last panel's row at the largest offset in
    /// `rows` ends inside `slot`: `max(rows) + ⌈n/nr⌉·nr ≤ slot.len()`.
    /// The lanes of that panel past `n` read the slot's tail.
    pub(crate) fn new(slot: &'a [T], rows: &'a [usize], n: usize, nr: usize) -> Self {
        let end = rows.iter().max().map_or(0, |&r| r + n.div_ceil(nr) * nr);
        assert!(
            end <= slot.len(),
            "B taps read to element {end} of a {}-element slot",
            slot.len()
        );
        Taps { slot, rows, n, nr }
    }
}

impl<T: Copy> BRows<T> for Taps<'_, T> {
    fn dims(&self) -> (usize, usize, usize) {
        (self.rows.len(), self.n, self.nr)
    }

    #[inline(always)]
    unsafe fn row<const NR: usize>(self, jp: usize, kk: usize) -> *const T {
        // SAFETY: `kk < k = rows.len()`, and `new` checked that the
        // last panel's row at every offset in `rows` fits in `slot`.
        unsafe { self.slot.as_ptr().add(*self.rows.get_unchecked(kk) + jp * NR) }
    }
}

/// Generic MR×NR register tile of panel `jp`: one ascending pass over
/// the `k` k-steps. Kept `#[inline(always)]` so each instantiation
/// inlines into its (possibly `target_feature`-annotated) wrapper and
/// vectorizes under that wrapper's instruction set.
#[inline(always)]
fn tile_body<const MR: usize, const NR: usize, B: BRows<f32>>(
    ap: &[f32],
    b: B,
    jp: usize,
    k: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (kk, a) in ap.chunks_exact(MR).take(k).enumerate() {
        // SAFETY: the band body passes jp < ⌈n/NR⌉ and kk < k, with NR
        // the width `run_band` checked `b` for.
        let brow = unsafe { &*b.row::<NR>(jp, kk).cast::<[f32; NR]>() };
        for r in 0..MR {
            let ar = a[r];
            for (accc, &bc) in acc[r].iter_mut().zip(brow) {
                *accc += ar * bc;
            }
        }
    }
    acc
}

/// Computes every tile of a panel-aligned row band of `C`.
///
/// `ap` is the *full* packed A operand, `b` the B rows (which carry the
/// GEMM dimensions `k`/`n`), `rows` the absolute output-row range (its
/// start must be MR-aligned; its end is the band edge, clipped to M on
/// the last band), and `band` the `rows`-slice of the row-major `C`
/// buffer. Every element of `band` is assigned (not accumulated).
#[inline(always)]
fn band_body<const MR: usize, const NR: usize, B: BRows<f32>>(
    ap: &[f32],
    b: B,
    rows: Range<usize>,
    band: &mut [f32],
) {
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % MR, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    let np = n.div_ceil(NR);
    for i0 in rows.clone().step_by(MR) {
        let tile_rows = MR.min(rows.end - i0);
        let apanel = &ap[(i0 / MR) * MR * k..][..MR * k];
        for jp in 0..np {
            let j0 = jp * NR;
            let tile_cols = NR.min(n - j0);
            let acc = tile_body::<MR, NR, B>(apanel, b, jp, k);
            let out = &mut band[(i0 - rows.start) * n + j0..];
            for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                out[r * n..r * n + tile_cols].copy_from_slice(&acc_row[..tile_cols]);
            }
        }
    }
}

/// Generic MR×NR i8 register tile with i32 accumulators: the integer
/// twin of [`tile_body`]. Exact, so any instruction-level reordering
/// the autovectorizer applies is still bitwise-faithful.
#[inline(always)]
fn tile_body_i8<const MR: usize, const NR: usize, B: BRows<i8>>(
    ap: &[i8],
    b: B,
    jp: usize,
    k: usize,
) -> [[i32; NR]; MR] {
    let mut acc = [[0i32; NR]; MR];
    for (kk, a) in ap.chunks_exact(MR).take(k).enumerate() {
        // SAFETY: as in `tile_body`.
        let brow = unsafe { &*b.row::<NR>(jp, kk).cast::<[i8; NR]>() };
        for r in 0..MR {
            let ar = i32::from(a[r]);
            for (accc, &bc) in acc[r].iter_mut().zip(brow) {
                *accc += ar * i32::from(bc);
            }
        }
    }
    acc
}

/// i8 twin of [`band_body`]: every tile of a panel-aligned row band of
/// the i32 output. Same argument contract, i8 operands in, i32 band out.
#[inline(always)]
fn band_body_i8<const MR: usize, const NR: usize, B: BRows<i8>>(
    ap: &[i8],
    b: B,
    rows: Range<usize>,
    band: &mut [i32],
) {
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % MR, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    let np = n.div_ceil(NR);
    for i0 in rows.clone().step_by(MR) {
        let tile_rows = MR.min(rows.end - i0);
        let apanel = &ap[(i0 / MR) * MR * k..][..MR * k];
        for jp in 0..np {
            let j0 = jp * NR;
            let tile_cols = NR.min(n - j0);
            let acc = tile_body_i8::<MR, NR, B>(apanel, b, jp, k);
            let out = &mut band[(i0 - rows.start) * n + j0..];
            for (r, acc_row) in acc.iter().enumerate().take(tile_rows) {
                out[r * n..r * n + tile_cols].copy_from_slice(&acc_row[..tile_cols]);
            }
        }
    }
}

/// Hand-written AVX2 i8 band: 8×8 tiles via `vpmaddwd`, pairing two
/// adjacent k-steps per instruction (each madd lane computes
/// `a_k·b_k[c] + a_{k+1}·b_{k+1}[c]` — 16 widened i16 products per
/// accumulator update). i16 intermediates cannot overflow
/// (|a·b| ≤ 127², pair sum ≤ 2·127² < i16-pair range in i32 lanes) and
/// i32 accumulation is exact, so this is bitwise identical to the
/// scalar tile for any k within the module-doc bound.
///
/// Both operands are pair-interleaved with a byte shuffle
/// (`vpshufb` + sign-extend turns 16 bytes of two adjacent k-steps
/// directly into madd-ready dword lanes). B's two k-steps come from two
/// 8-byte row loads joined with `_mm_unpacklo_epi64`, which serves
/// packed panels and staging slots alike. The A side is
/// interleaved once per row band into a stack buffer — the hot loop
/// then runs one broadcast-load, one madd and one add per row, with no
/// scalar pair assembly on the critical path. The buffer is a fixed
/// 8 KiB block; larger k accumulates block partials into the output
/// band, which is still exact (integer adds in a fixed order).
///
/// # Safety
///
/// The caller must have verified that the host supports AVX2 (see
/// [`Kernel::select`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn band_avx2_i8_8x8<B: BRows<i8>>(ap: &[i8], b: B, rows: Range<usize>, band: &mut [i32]) {
    use std::arch::x86_64::*;
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % 8, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    if k == 0 {
        // The k-block loop below never runs; the contract (every band
        // element assigned) still must hold.
        band.fill(0);
        return;
    }
    let np = n.div_ceil(8);
    // Byte-shuffle masks: `interleave` turns the 16 bytes of two
    // adjacent k-steps (8 each) into (x_k[i], x_{k+1}[i]) byte pairs;
    // `spread` does the same for a lone final k-step with a zero
    // partner (0x80 index ⇒ pshufb writes 0).
    #[rustfmt::skip]
    let interleave =
        _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
    #[rustfmt::skip]
    let spread = _mm_setr_epi8(
        0, -128, 1, -128, 2, -128, 3, -128, 4, -128, 5, -128, 6, -128, 7, -128,
    );
    // A-pair staging: dword p·8+r holds rows' (a_k, a_{k+1}) i16 pair
    // for pair index p within the current k block.
    const KBLK_PAIRS: usize = 256;
    let mut apairs = [0i32; 8 * KBLK_PAIRS];
    for i0 in rows.clone().step_by(8) {
        let tile_rows = 8.min(rows.end - i0);
        let apanel = &ap[(i0 / 8) * 8 * k..][..8 * k];
        let mut k0 = 0usize;
        while k0 < k {
            let kc = (2 * KBLK_PAIRS).min(k - k0);
            let kend = k0 + kc;
            // Interleave this block's A pairs once; every column tile
            // of the band reuses them.
            let mut p = 0usize;
            let mut kk = k0;
            while kk + 1 < kend {
                // SAFETY: apanel holds 8·k bytes and kk+2 ≤ k, so the
                // 16-byte load covering both k-steps is in bounds.
                let raw = _mm_loadu_si128(apanel.as_ptr().add(kk * 8).cast());
                let wide = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, interleave));
                _mm256_storeu_si256(apairs.as_mut_ptr().add(p * 8).cast(), wide);
                kk += 2;
                p += 1;
            }
            if kk < kend {
                let raw = _mm_loadl_epi64(apanel.as_ptr().add(kk * 8).cast());
                let wide = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, spread));
                _mm256_storeu_si256(apairs.as_mut_ptr().add(p * 8).cast(), wide);
            }
            for jp in 0..np {
                let j0 = jp * 8;
                let tile_cols = 8.min(n - j0);
                let mut acc = [_mm256_setzero_si256(); 8];
                let mut p = 0usize;
                let mut kk = k0;
                while kk + 1 < kend {
                    // SAFETY: jp < ⌈n/8⌉ and kk+1 < k, with 8 the width
                    // `run_band_i8` checked `b` for.
                    let raw = _mm_unpacklo_epi64(
                        _mm_loadl_epi64(b.row::<8>(jp, kk).cast()),
                        _mm_loadl_epi64(b.row::<8>(jp, kk + 1).cast()),
                    );
                    let bpair = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, interleave));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let apair = _mm256_set1_epi32(*apairs.get_unchecked(p * 8 + r));
                        *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(apair, bpair));
                    }
                    kk += 2;
                    p += 1;
                }
                if kk < kend {
                    let raw = _mm_loadl_epi64(b.row::<8>(jp, kk).cast());
                    let bpair = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, spread));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let apair = _mm256_set1_epi32(*apairs.get_unchecked(p * 8 + r));
                        *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(apair, bpair));
                    }
                }
                let out = &mut band[(i0 - rows.start) * n + j0..];
                if k0 == 0 && tile_cols == 8 {
                    // Full-width first-block tile: store straight into
                    // the output rows, no staging.
                    for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                        // SAFETY: row r spans out[r·n .. r·n+8], in
                        // bounds because tile_cols == 8 columns remain.
                        _mm256_storeu_si256(out.as_mut_ptr().add(r * n).cast(), *accr);
                    }
                } else {
                    for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                        let mut lane = [0i32; 8];
                        _mm256_storeu_si256(lane.as_mut_ptr().cast(), *accr);
                        let dst = &mut out[r * n..r * n + tile_cols];
                        if k0 == 0 {
                            dst.copy_from_slice(&lane[..tile_cols]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(&lane[..tile_cols]) {
                                *d += v;
                            }
                        }
                    }
                }
            }
            k0 = kend;
        }
    }
}

/// The same band computation compiled with AVX2 + FMA enabled, so the
/// autovectorizer can use 256-bit lanes for the 8-wide accumulator
/// rows. FMA is enabled for register-allocation freedom only — Rust
/// performs no float contraction, so results stay bitwise identical to
/// the scalar body (see the module docs).
///
/// # Safety
///
/// The caller must have verified that the host supports AVX2 and FMA
/// (see [`Kernel::select`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn band_avx2_8x8<B: BRows<f32>>(ap: &[f32], b: B, rows: Range<usize>, band: &mut [f32]) {
    band_body::<8, 8, B>(ap, b, rows, band);
}

/// Hand-written AVX-512 f32 band: 8×16 tiles in zmm registers. The
/// accumulator update is explicit `_mm512_mul_ps` + `_mm512_add_ps` —
/// **not** `_mm512_fmadd_ps` — so each element remains the plain
/// one-rounding-per-op ascending-k chain the scalar oracle produces
/// (an FMA's single rounding would diverge). Hand-written because
/// LLVM keeps `prefer-vector-width=256` even under the `avx512f`
/// feature, so the generic body would autovectorize to ymm at best.
///
/// # Safety
///
/// The caller must have verified that the host supports AVX-512F (see
/// [`Kernel::select`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn band_avx512_8x16<B: BRows<f32>>(ap: &[f32], b: B, rows: Range<usize>, band: &mut [f32]) {
    use std::arch::x86_64::*;
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % 8, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    let np = n.div_ceil(16);
    for i0 in rows.clone().step_by(8) {
        let tile_rows = 8.min(rows.end - i0);
        let apanel = &ap[(i0 / 8) * 8 * k..][..8 * k];
        for jp in 0..np {
            let j0 = jp * 16;
            let tile_cols = 16.min(n - j0);
            let mut acc = [_mm512_setzero_ps(); 8];
            for kk in 0..k {
                // SAFETY: jp < ⌈n/16⌉ and kk < k, with 16 the width
                // `run_band` checked `b` for.
                let brow = _mm512_loadu_ps(b.row::<16>(jp, kk));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let a = _mm512_set1_ps(*apanel.get_unchecked(kk * 8 + r));
                    *accr = _mm512_add_ps(*accr, _mm512_mul_ps(a, brow));
                }
            }
            let out = &mut band[(i0 - rows.start) * n + j0..];
            if tile_cols == 16 {
                for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                    // SAFETY: row r spans out[r·n .. r·n+16], in bounds
                    // because tile_cols == 16 columns remain.
                    _mm512_storeu_ps(out.as_mut_ptr().add(r * n), *accr);
                }
            } else {
                for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                    let mut lane = [0f32; 16];
                    _mm512_storeu_ps(lane.as_mut_ptr(), *accr);
                    out[r * n..r * n + tile_cols].copy_from_slice(&lane[..tile_cols]);
                }
            }
        }
    }
}

/// Hand-written AVX-512 i8 band: 8×16 tiles via the 512-bit
/// `vpmaddwd` (`_mm512_madd_epi16`), pairing two adjacent k-steps per
/// instruction exactly like [`band_avx2_i8_8x8`] but over 16 columns
/// at once. The host this targets carries AVX-512 F+BW but not VNNI,
/// so `vpmaddwd` on sign-extended i16 pairs is the widest exact
/// multiply-accumulate available; i32 accumulation is exact, so the
/// result is bitwise identical to the scalar tile for any k within
/// the module-doc bound.
///
/// The A side reuses the AVX2 kernel's pair-interleaved staging
/// (A panels are still 8 rows); the B side loads the 16-byte rows of
/// two adjacent k-steps one at a time, interleaves them with
/// `unpacklo/hi` and sign-extends the 32 bytes to 16 madd-ready dword
/// lanes in one `_mm512_cvtepi8_epi16`.
///
/// # Safety
///
/// The caller must have verified that the host supports AVX2,
/// AVX-512F and AVX-512BW (see [`Kernel::select`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw")]
unsafe fn band_avx512_i8_8x16<B: BRows<i8>>(
    ap: &[i8],
    b: B,
    rows: Range<usize>,
    band: &mut [i32],
) {
    use std::arch::x86_64::*;
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % 8, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    if k == 0 {
        band.fill(0);
        return;
    }
    let np = n.div_ceil(16);
    #[rustfmt::skip]
    let interleave =
        _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
    #[rustfmt::skip]
    let spread = _mm_setr_epi8(
        0, -128, 1, -128, 2, -128, 3, -128, 4, -128, 5, -128, 6, -128, 7, -128,
    );
    // A-pair staging, shared layout with the AVX2 kernel: dword p·8+r
    // holds row r's (a_k, a_{k+1}) i16 pair for pair index p.
    const KBLK_PAIRS: usize = 256;
    let mut apairs = [0i32; 8 * KBLK_PAIRS];
    for i0 in rows.clone().step_by(8) {
        let tile_rows = 8.min(rows.end - i0);
        let apanel = &ap[(i0 / 8) * 8 * k..][..8 * k];
        let mut k0 = 0usize;
        while k0 < k {
            let kc = (2 * KBLK_PAIRS).min(k - k0);
            let kend = k0 + kc;
            let mut p = 0usize;
            let mut kk = k0;
            while kk + 1 < kend {
                // SAFETY: apanel holds 8·k bytes and kk+2 ≤ k, so the
                // 16-byte load covering both k-steps is in bounds.
                let raw = _mm_loadu_si128(apanel.as_ptr().add(kk * 8).cast());
                let wide = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, interleave));
                _mm256_storeu_si256(apairs.as_mut_ptr().add(p * 8).cast(), wide);
                kk += 2;
                p += 1;
            }
            if kk < kend {
                let raw = _mm_loadl_epi64(apanel.as_ptr().add(kk * 8).cast());
                let wide = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(raw, spread));
                _mm256_storeu_si256(apairs.as_mut_ptr().add(p * 8).cast(), wide);
            }
            for jp in 0..np {
                let j0 = jp * 16;
                let tile_cols = 16.min(n - j0);
                let mut acc = [_mm512_setzero_si512(); 8];
                let mut p = 0usize;
                let mut kk = k0;
                while kk + 1 < kend {
                    // SAFETY: jp < ⌈n/16⌉ and kk+1 < k, with 16 the width
                    // `run_band_i8` checked `b` for.
                    let raw0 = _mm_loadu_si128(b.row::<16>(jp, kk).cast());
                    let raw1 = _mm_loadu_si128(b.row::<16>(jp, kk + 1).cast());
                    let lo = _mm_unpacklo_epi8(raw0, raw1);
                    let hi = _mm_unpackhi_epi8(raw0, raw1);
                    let bpair = _mm512_cvtepi8_epi16(_mm256_set_m128i(hi, lo));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let apair = _mm512_set1_epi32(*apairs.get_unchecked(p * 8 + r));
                        *accr = _mm512_add_epi32(*accr, _mm512_madd_epi16(apair, bpair));
                    }
                    kk += 2;
                    p += 1;
                }
                if kk < kend {
                    // Lone final k-step: zero partner, exact.
                    let raw0 = _mm_loadu_si128(b.row::<16>(jp, kk).cast());
                    let zero = _mm_setzero_si128();
                    let lo = _mm_unpacklo_epi8(raw0, zero);
                    let hi = _mm_unpackhi_epi8(raw0, zero);
                    let bpair = _mm512_cvtepi8_epi16(_mm256_set_m128i(hi, lo));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let apair = _mm512_set1_epi32(*apairs.get_unchecked(p * 8 + r));
                        *accr = _mm512_add_epi32(*accr, _mm512_madd_epi16(apair, bpair));
                    }
                }
                let out = &mut band[(i0 - rows.start) * n + j0..];
                if k0 == 0 && tile_cols == 16 {
                    for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                        // SAFETY: row r spans out[r·n .. r·n+16], in
                        // bounds because tile_cols == 16 columns remain.
                        _mm512_storeu_epi32(out.as_mut_ptr().add(r * n), *accr);
                    }
                } else {
                    for (r, accr) in acc.iter().enumerate().take(tile_rows) {
                        let mut lane = [0i32; 16];
                        _mm512_storeu_epi32(lane.as_mut_ptr(), *accr);
                        let dst = &mut out[r * n..r * n + tile_cols];
                        if k0 == 0 {
                            dst.copy_from_slice(&lane[..tile_cols]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(&lane[..tile_cols]) {
                                *d += v;
                            }
                        }
                    }
                }
            }
            k0 = kend;
        }
    }
}

/// Hand-written NEON f32 band: 8×8 tiles as 16 `float32x4`
/// accumulators. The update is `vaddq_f32(acc, vmulq_f32(a, b))` —
/// **not** `vfmaq_f32` — because NEON's fused multiply-add rounds
/// once, which would break bitwise equality with the scalar oracle's
/// mul-then-add chain (see the module docs).
///
/// # Safety
///
/// The caller must have verified that the host supports NEON (see
/// [`Kernel::select`]).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn band_neon_8x8<B: BRows<f32>>(ap: &[f32], b: B, rows: Range<usize>, band: &mut [f32]) {
    use std::arch::aarch64::*;
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % 8, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    let np = n.div_ceil(8);
    for i0 in rows.clone().step_by(8) {
        let tile_rows = 8.min(rows.end - i0);
        let apanel = &ap[(i0 / 8) * 8 * k..][..8 * k];
        for jp in 0..np {
            let j0 = jp * 8;
            let tile_cols = 8.min(n - j0);
            // acc[2r] holds row r columns 0..4, acc[2r+1] columns 4..8.
            let mut acc = [vdupq_n_f32(0.0); 16];
            for kk in 0..k {
                // SAFETY: jp < ⌈n/8⌉ and kk < k, with 8 the width
                // `run_band` checked `b` for: both 4-wide loads of the
                // row are in bounds.
                let brow = b.row::<8>(jp, kk);
                let b0 = vld1q_f32(brow);
                let b1 = vld1q_f32(brow.add(4));
                for r in 0..8 {
                    let a = vdupq_n_f32(*apanel.get_unchecked(kk * 8 + r));
                    acc[2 * r] = vaddq_f32(acc[2 * r], vmulq_f32(a, b0));
                    acc[2 * r + 1] = vaddq_f32(acc[2 * r + 1], vmulq_f32(a, b1));
                }
            }
            let out = &mut band[(i0 - rows.start) * n + j0..];
            if tile_cols == 8 {
                for r in 0..tile_rows {
                    // SAFETY: row r spans out[r·n .. r·n+8], in bounds
                    // because tile_cols == 8 columns remain.
                    vst1q_f32(out.as_mut_ptr().add(r * n), acc[2 * r]);
                    vst1q_f32(out.as_mut_ptr().add(r * n + 4), acc[2 * r + 1]);
                }
            } else {
                for r in 0..tile_rows {
                    let mut lane = [0f32; 8];
                    vst1q_f32(lane.as_mut_ptr(), acc[2 * r]);
                    vst1q_f32(lane.as_mut_ptr().add(4), acc[2 * r + 1]);
                    out[r * n..r * n + tile_cols].copy_from_slice(&lane[..tile_cols]);
                }
            }
        }
    }
}

/// Hand-written NEON i8 band: 8×8 tiles via the widening
/// multiply-accumulate `vmlal_s16` over sign-extended i16 lanes, 16
/// `int32x4` accumulators. Integer accumulation is exact, so the
/// result is bitwise identical to the scalar tile regardless of lane
/// order.
///
/// # Safety
///
/// The caller must have verified that the host supports NEON (see
/// [`Kernel::select`]).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn band_neon_i8_8x8<B: BRows<i8>>(ap: &[i8], b: B, rows: Range<usize>, band: &mut [i32]) {
    use std::arch::aarch64::*;
    let (k, n, _) = b.dims();
    debug_assert_eq!(rows.start % 8, 0, "bands must start on a panel boundary");
    debug_assert_eq!(band.len(), rows.len() * n);
    let np = n.div_ceil(8);
    for i0 in rows.clone().step_by(8) {
        let tile_rows = 8.min(rows.end - i0);
        let apanel = &ap[(i0 / 8) * 8 * k..][..8 * k];
        for jp in 0..np {
            let j0 = jp * 8;
            let tile_cols = 8.min(n - j0);
            // acc[2r] holds row r columns 0..4, acc[2r+1] columns 4..8.
            let mut acc = [vdupq_n_s32(0); 16];
            for kk in 0..k {
                // SAFETY: jp < ⌈n/8⌉ and kk < k, with 8 the width
                // `run_band_i8` checked `b` for.
                let b16 = vmovl_s8(vld1_s8(b.row::<8>(jp, kk)));
                let blo = vget_low_s16(b16);
                let bhi = vget_high_s16(b16);
                for r in 0..8 {
                    let a = vdup_n_s16(i16::from(*apanel.get_unchecked(kk * 8 + r)));
                    acc[2 * r] = vmlal_s16(acc[2 * r], blo, a);
                    acc[2 * r + 1] = vmlal_s16(acc[2 * r + 1], bhi, a);
                }
            }
            let out = &mut band[(i0 - rows.start) * n + j0..];
            if tile_cols == 8 {
                for r in 0..tile_rows {
                    // SAFETY: row r spans out[r·n .. r·n+8], in bounds
                    // because tile_cols == 8 columns remain.
                    vst1q_s32(out.as_mut_ptr().add(r * n), acc[2 * r]);
                    vst1q_s32(out.as_mut_ptr().add(r * n + 4), acc[2 * r + 1]);
                }
            } else {
                for r in 0..tile_rows {
                    let mut lane = [0i32; 8];
                    vst1q_s32(lane.as_mut_ptr(), acc[2 * r]);
                    vst1q_s32(lane.as_mut_ptr().add(4), acc[2 * r + 1]);
                    out[r * n..r * n + tile_cols].copy_from_slice(&lane[..tile_cols]);
                }
            }
        }
    }
}

/// A register-tiled GEMM micro-kernel variant. See the module docs for
/// the determinism contract shared by all variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Portable 8×4 scalar tile (SSE2 via autovectorization on x86-64).
    Scalar8x4,
    /// 8×8 tile compiled under AVX2+FMA; runtime-detected on x86-64.
    #[cfg(target_arch = "x86_64")]
    Avx2_8x8,
    /// Hand-written 8×16 zmm tile; runtime-detected AVX-512 on x86-64.
    #[cfg(target_arch = "x86_64")]
    Avx512_8x16,
    /// Hand-written 8×8 NEON tile; runtime-detected on aarch64.
    #[cfg(target_arch = "aarch64")]
    Neon8x8,
}

impl Kernel {
    /// Tile height: the A-panel row count the packers must produce.
    pub(crate) fn mr(self) -> usize {
        match self {
            Kernel::Scalar8x4 => 8,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2_8x8 | Kernel::Avx512_8x16 => 8,
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon8x8 => 8,
        }
    }

    /// Tile width: the B-panel column count the packers must produce.
    pub(crate) fn nr(self) -> usize {
        match self {
            Kernel::Scalar8x4 => 4,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2_8x8 => 8,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512_8x16 => 16,
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon8x8 => 8,
        }
    }

    /// Stable name, for benchmarks and traces.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Scalar8x4 => "scalar_8x4",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2_8x8 => "avx2_8x8",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512_8x16 => "avx512_8x16",
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon8x8 => "neon_8x8",
        }
    }

    /// Runs the micro-kernel over one panel-aligned row band (see
    /// [`band_body`] for the argument contract).
    ///
    /// # Panics
    ///
    /// Panics unless `b` was checked for this kernel's panel width NR:
    /// that check is what keeps the bodies' unchecked B loads in bounds.
    pub(crate) fn run_band<B: BRows<f32>>(
        self,
        ap: &[f32],
        b: B,
        rows: Range<usize>,
        band: &mut [f32],
    ) {
        assert_eq!(b.dims().2, self.nr(), "B rows checked for another panel width");
        match self {
            Kernel::Scalar8x4 => band_body::<8, 4, B>(ap, b, rows, band),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of AVX2 and FMA (or an explicit override, which
            // also re-checks support).
            Kernel::Avx2_8x8 => unsafe { band_avx2_8x8(ap, b, rows, band) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of the AVX-512 subset (F+BW+DQ+VL).
            Kernel::Avx512_8x16 => unsafe { band_avx512_8x16(ap, b, rows, band) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of NEON.
            Kernel::Neon8x8 => unsafe { band_neon_8x8(ap, b, rows, band) },
        }
    }

    /// Runs the i8 micro-kernel over one panel-aligned row band: same
    /// contract as [`run_band`](Kernel::run_band), i8 operands in, i32
    /// band out. Dispatching through the same selected variant is what
    /// makes `INSITU_SIMD=scalar` pin the portable i8 path together
    /// with the f32 one.
    ///
    /// # Panics
    ///
    /// As [`run_band`](Kernel::run_band).
    pub(crate) fn run_band_i8<B: BRows<i8>>(
        self,
        ap: &[i8],
        b: B,
        rows: Range<usize>,
        band: &mut [i32],
    ) {
        assert_eq!(b.dims().2, self.nr(), "B rows checked for another panel width");
        match self {
            Kernel::Scalar8x4 => band_body_i8::<8, 4, B>(ap, b, rows, band),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of AVX2 (and FMA, a superset of what the i8
            // band needs).
            Kernel::Avx2_8x8 => unsafe { band_avx2_i8_8x8(ap, b, rows, band) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of AVX-512 F+BW (plus AVX2 for the staging).
            Kernel::Avx512_8x16 => unsafe { band_avx512_i8_8x16(ap, b, rows, band) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `select` only yields this variant after runtime
            // detection of NEON.
            Kernel::Neon8x8 => unsafe { band_neon_i8_8x8(ap, b, rows, band) },
        }
    }

    /// The kernel every GEMM in this process uses: the tile geometry of
    /// the ISA the crate-wide dispatcher resolved ([`Isa::select`],
    /// governed by `INSITU_SIMD` and cached once per process).
    pub(crate) fn select() -> Kernel {
        Kernel::from_isa(Isa::select())
    }

    /// The tile geometry matching an ISA chosen by the dispatcher.
    pub(crate) fn from_isa(isa: Isa) -> Kernel {
        match isa {
            Isa::Scalar => Kernel::Scalar8x4,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => Kernel::Avx2_8x8,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => Kernel::Avx512_8x16,
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => Kernel::Neon8x8,
        }
    }

    /// Every variant the current host can run — the portable kernel is
    /// always included. The property tests and the benchmark iterate
    /// this to assert/measure every runnable kernel.
    pub(crate) fn supported() -> Vec<Kernel> {
        Isa::supported().into_iter().map(Kernel::from_isa).collect()
    }

    /// Looks a kernel up by its stable [`name`](Kernel::name) among the
    /// host-supported set.
    ///
    /// # Errors
    ///
    /// Returns an error naming the request and listing the supported
    /// set, never a silent fallback to another kernel.
    pub(crate) fn from_name(name: &str) -> crate::Result<Kernel> {
        let supported = Kernel::supported();
        if let Some(&kern) = supported.iter().find(|kern| kern.name() == name) {
            return Ok(kern);
        }
        let names: Vec<_> = supported.into_iter().map(Kernel::name).collect();
        Err(TensorError::InvalidGeometry {
            reason: format!(
                "unknown or host-unsupported GEMM kernel `{name}`; this host supports {names:?}"
            ),
        })
    }
}
