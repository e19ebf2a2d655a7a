//! Reductions: max-abs, the quantization calibration scan.
//!
//! A max over the filtered inputs is order-independent, so the vector
//! bodies (AVX2, AVX-512, NEON) are bitwise exact. Calibration scans
//! run over small buffers, so the op stays sequential.

use super::dispatch::SimdOp;

/// `max |x|` over finite elements (NaN and infinities are skipped) —
/// the quantization calibration scan. Returns 0 for an empty or
/// all-non-finite slice.
pub struct MaxAbs<'a> {
    /// Values to scan.
    pub src: &'a [f32],
}

fn max_abs_scalar(src: &[f32]) -> f32 {
    src.iter().map(|v| v.abs()).filter(|v| v.is_finite()).fold(0.0, f32::max)
}

impl SimdOp for MaxAbs<'_> {
    const NAME: &'static str = "tensor.simd.max_abs";
    type Output = f32;

    fn bytes(&self) -> u64 {
        4 * self.src.len() as u64
    }

    fn scalar(self) -> f32 {
        max_abs_scalar(self.src)
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) -> f32 {
        use std::arch::x86_64::*;
        let sign = _mm256_set1_ps(-0.0);
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut acc = _mm256_setzero_ps();
        let n = self.src.len();
        let p = self.src.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n bounds the load.
            let a = _mm256_andnot_ps(sign, _mm256_loadu_ps(p.add(i)));
            // Non-finite lanes (|x| not < inf, including NaN) drop to
            // 0, which is the fold's identity — same as scalar's
            // filter.
            let finite = _mm256_cmp_ps(a, inf, _CMP_LT_OQ);
            acc = _mm256_max_ps(acc, _mm256_and_ps(a, finite));
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut best = lanes.iter().copied().fold(0.0, f32::max);
        best = best.max(max_abs_scalar(&self.src[i..]));
        best
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) -> f32 {
        use std::arch::x86_64::*;
        let inf = _mm512_set1_ps(f32::INFINITY);
        let mut acc = _mm512_setzero_ps();
        let n = self.src.len();
        let p = self.src.as_ptr();
        let mut i = 0;
        while i + 16 <= n {
            // SAFETY: i + 16 <= n bounds the load.
            let a = _mm512_abs_ps(_mm512_loadu_ps(p.add(i)));
            // Non-finite lanes (|x| not < inf, including NaN) drop to
            // 0, the fold's identity — same as scalar's filter.
            let finite = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, inf);
            acc = _mm512_max_ps(acc, _mm512_maskz_mov_ps(finite, a));
            i += 16;
        }
        let mut lanes = [0.0f32; 16];
        _mm512_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut best = lanes.iter().copied().fold(0.0, f32::max);
        best = best.max(max_abs_scalar(&self.src[i..]));
        best
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn neon(self) -> f32 {
        use std::arch::aarch64::*;
        // SAFETY: caller verified NEON; loads below stay in bounds.
        unsafe {
            let inf = vdupq_n_f32(f32::INFINITY);
            let mut acc = vdupq_n_f32(0.0);
            let n = self.src.len();
            let p = self.src.as_ptr();
            let mut i = 0;
            while i + 4 <= n {
                let a = vabsq_f32(vld1q_f32(p.add(i)));
                // Non-finite lanes drop to 0 — same as scalar's filter.
                let finite = vcltq_f32(a, inf);
                acc = vmaxq_f32(acc, vreinterpretq_f32_u32(vandq_u32(
                    vreinterpretq_u32_f32(a),
                    finite,
                )));
                i += 4;
            }
            // No NaN survives the mask, so the horizontal max is exact.
            let mut best = vmaxvq_f32(acc);
            best = best.max(max_abs_scalar(&self.src[i..]));
            best
        }
    }
}
