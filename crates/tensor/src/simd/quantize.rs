//! Fixed-point quantization: `f32 -> i8` with magic-constant rounding.
//!
//! Every vector body (AVX2, AVX-512, NEON) is **bitwise exact**
//! against the scalar oracle for every input, NaN and infinities
//! included. The subtle parts:
//!
//! * the scalar `clamp` is replicated with compare+blend (not
//!   `min`/`max` ps, whose NaN operand rules differ): NaN stays NaN
//!   through the clamp, exactly like `f32::clamp`;
//! * scalar `NaN as i8` saturates to 0, but `_mm256_cvtps_epi32(NaN)`
//!   yields `i32::MIN`, which would pack-saturate to -128 — so NaN
//!   lanes are zeroed (ordered-compare mask) *before* the convert;
//! * rounding is the same `(v + 1.5·2^23) - 1.5·2^23` trick in both
//!   bodies, so ties break identically (to even).

use super::dispatch::SimdOp;
use crate::parallel::{par_split, PerUnit};

/// Clamp limit: i8 range is symmetric at ±127 so a negated scale
/// never overflows.
const QUANT_MAX: f32 = 127.0;
/// 1.5 * 2^23 — add/subtract rounds to nearest-even for |v| <= 127.
const MAGIC: f32 = 12_582_912.0;

fn quantize_scalar_range(src: &[f32], inv: f32, dst: &mut [i8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let v = (s * inv).clamp(-QUANT_MAX, QUANT_MAX);
        *d = ((v + MAGIC) - MAGIC) as i8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2_range(src: &[f32], inv: f32, dst: &mut [i8]) {
    use std::arch::x86_64::*;
    let vinv = _mm256_set1_ps(inv);
    let lo = _mm256_set1_ps(-QUANT_MAX);
    let hi = _mm256_set1_ps(QUANT_MAX);
    let magic = _mm256_set1_ps(MAGIC);
    // Restores sequential byte order after the two 128-bit-lane packs.
    let fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i + 32 <= n {
        let mut q = [_mm256_setzero_si256(); 4];
        for (u, qu) in q.iter_mut().enumerate() {
            // SAFETY: i + 32 <= n bounds all four 8-lane loads.
            let v = _mm256_mul_ps(_mm256_loadu_ps(sp.add(i + 8 * u)), vinv);
            // f32::clamp replica: blend on ordered compares so NaN
            // lanes pass through untouched.
            let v = _mm256_blendv_ps(v, lo, _mm256_cmp_ps(v, lo, _CMP_LT_OQ));
            let v = _mm256_blendv_ps(v, hi, _mm256_cmp_ps(v, hi, _CMP_GT_OQ));
            let v = _mm256_sub_ps(_mm256_add_ps(v, magic), magic);
            // Zero NaN lanes: scalar `NaN as i8` is 0, while cvtps
            // would give i32::MIN and pack to -128.
            let v = _mm256_and_ps(v, _mm256_cmp_ps(v, v, _CMP_ORD_Q));
            *qu = _mm256_cvtps_epi32(v);
        }
        // 4×8 i32 -> 32 i8; values are already in [-127, 127] so the
        // saturating packs never clip.
        let ab = _mm256_packs_epi32(q[0], q[1]);
        let cd = _mm256_packs_epi32(q[2], q[3]);
        let bytes = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), fix);
        _mm256_storeu_si256(dp.add(i).cast(), bytes);
        i += 32;
    }
    quantize_scalar_range(&src[i..], inv, &mut dst[i..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_avx512_range(src: &[f32], inv: f32, dst: &mut [i8]) {
    use std::arch::x86_64::*;
    let vinv = _mm512_set1_ps(inv);
    let lo = _mm512_set1_ps(-QUANT_MAX);
    let hi = _mm512_set1_ps(QUANT_MAX);
    let magic = _mm512_set1_ps(MAGIC);
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the 16-lane load and 16-byte store.
        let v = _mm512_mul_ps(_mm512_loadu_ps(sp.add(i)), vinv);
        // f32::clamp replica: masked moves on ordered compares, so NaN
        // lanes fail both compares and pass through untouched.
        let v = _mm512_mask_mov_ps(v, _mm512_cmp_ps_mask::<_CMP_LT_OQ>(v, lo), lo);
        let v = _mm512_mask_mov_ps(v, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, hi), hi);
        let v = _mm512_sub_ps(_mm512_add_ps(v, magic), magic);
        // Zero NaN lanes: scalar `NaN as i8` is 0, while cvtps would
        // give i32::MIN and saturate to -128.
        let v = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(v, v), v);
        let q = _mm512_cvtps_epi32(v);
        // Saturating 16×i32 -> 16×i8 narrow in one instruction; values
        // are already in [-127, 127] so it never clips.
        _mm_storeu_si128(dp.add(i).cast(), _mm512_cvtsepi32_epi8(q));
        i += 16;
    }
    quantize_scalar_range(&src[i..], inv, &mut dst[i..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn quantize_neon_range(src: &[f32], inv: f32, dst: &mut [i8]) {
    use std::arch::aarch64::*;
    let vinv = vdupq_n_f32(inv);
    let lo = vdupq_n_f32(-QUANT_MAX);
    let hi = vdupq_n_f32(QUANT_MAX);
    let magic = vdupq_n_f32(MAGIC);
    let n = src.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let mut q = [vdupq_n_s32(0); 2];
        for (u, qu) in q.iter_mut().enumerate() {
            // SAFETY: i + 8 <= n bounds both 4-lane loads.
            let v = vmulq_f32(vld1q_f32(sp.add(i + 4 * u)), vinv);
            // f32::clamp replica: bit-select on ordered compares, so
            // NaN lanes fail both compares and pass through untouched.
            let v = vbslq_f32(vcltq_f32(v, lo), lo, v);
            let v = vbslq_f32(vcgtq_f32(v, hi), hi, v);
            let v = vsubq_f32(vaddq_f32(v, magic), magic);
            // Zero NaN lanes (vceqq is false for NaN): scalar
            // `NaN as i8` is 0.
            let v =
                vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(v), vceqq_f32(v, v)));
            // Truncating convert — exact, the value is already integral
            // after the magic round.
            *qu = vcvtq_s32_f32(v);
        }
        // 2×4 i32 -> 8 i8 via saturating narrows; never clips in ±127.
        let h = vcombine_s16(vqmovn_s32(q[0]), vqmovn_s32(q[1]));
        vst1_s8(dp.add(i), vqmovn_s16(h));
        i += 8;
    }
    quantize_scalar_range(&src[i..], inv, &mut dst[i..]);
}

/// Quantize `src` to `dst[i] = round(src[i] * inv_scale)` clamped to
/// ±127, with NaN mapping to 0.
pub struct QuantizeI8<'a> {
    /// Source activations.
    pub src: &'a [f32],
    /// Reciprocal of the quantization scale.
    pub inv_scale: f32,
    /// Destination, same length as `src`.
    pub dst: &'a mut [i8],
}

impl SimdOp for QuantizeI8<'_> {
    const NAME: &'static str = "tensor.simd.quantize_i8";
    type Output = ();
    type Kernel = unsafe fn(&[f32], f32, &mut [i8]);
    const SCALAR: Self::Kernel = quantize_scalar_range;
    #[cfg(target_arch = "x86_64")]
    const AVX2: Option<Self::Kernel> = Some(quantize_avx2_range);
    #[cfg(target_arch = "x86_64")]
    const AVX512: Option<Self::Kernel> = Some(quantize_avx512_range);
    #[cfg(target_arch = "aarch64")]
    const NEON: Option<Self::Kernel> = Some(quantize_neon_range);

    fn bytes(&self) -> u64 {
        5 * self.src.len() as u64
    }

    unsafe fn run(self, kernel: Self::Kernel) {
        assert_eq!(self.src.len(), self.dst.len());
        let (n, src, inv) = (self.src.len(), self.src, self.inv_scale);
        par_split(n.div_ceil(8), 4 * n as u64, PerUnit::new(self.dst, 8), |groups, dst| {
            let src = &src[groups.start * 8..][..dst.len()];
            // SAFETY: the caller vouches that `kernel` runs on this host.
            unsafe { kernel(src, inv, dst) }
        });
    }
}
