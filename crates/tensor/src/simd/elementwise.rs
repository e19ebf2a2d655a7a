//! Elementwise ops: ReLU (eval, fused train forward, backward).
//!
//! The train-mode ReLU is fused: one pass writes the rectified values
//! *and* a bit-packed keep mask (bit `i % 8` of byte `i / 8`, 1 ⇔
//! `x > 0`). Packing the mask to bits is what makes the op worth a
//! hand-written body twice over — the mask costs 1/32 the memory
//! traffic of the `Vec<bool>` it replaces, and the scalar byte
//! accumulation is a serial dependency chain the autovectorizer cannot
//! break, while AVX2 gets the whole byte in one `movmskps`, AVX-512
//! gets two bytes straight from the `__mmask16` compare result, and
//! NEON sums per-lane bit weights with `vaddvq_u32` (no movemask on
//! aarch64; the weights are disjoint powers of two, so the sum *is*
//! the OR).
//!
//! All bodies here are **bitwise exact** against the scalar oracle for
//! every input (NaN and `-0.0` included) at any thread count: elements
//! are independent, and the parallel split is aligned to mask-byte
//! boundaries so no two tasks touch one byte.

use super::dispatch::SimdOp;
use crate::parallel::{parallel_for, plan_parts, split_range, SendPtr};

/// Runs `f` over 8-aligned element sub-ranges of `0..n`, in parallel
/// when `flops` is large enough. Alignment keeps mask bytes (one per 8
/// elements) private to one task; only the final range is ragged.
pub(crate) fn par_groups(n: usize, flops: u64, f: impl Fn(std::ops::Range<usize>) + Sync) {
    let groups = n.div_ceil(8);
    let parts = plan_parts(groups, flops);
    if parts <= 1 {
        if n > 0 {
            f(0..n);
        }
        return;
    }
    parallel_for(parts, |p| {
        let gr = split_range(groups, parts, p);
        let (e0, e1) = (gr.start * 8, (gr.end * 8).min(n));
        if e0 < e1 {
            f(e0..e1);
        }
    });
}

/// In-place eval-mode ReLU: `x = if x > 0 { x } else { 0.0 }`.
///
/// (Maps NaN and `-0.0` to `+0.0`, like the training mask's `x > 0`
/// convention — forward and mask can never disagree.)
pub struct Relu<'a> {
    /// The activation buffer, rectified in place.
    pub buf: &'a mut [f32],
}

fn relu_scalar_range(buf: &mut [f32]) {
    for v in buf {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relu_avx2_range(buf: &mut [f32]) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the 8-lane load/store.
        let v = _mm256_loadu_ps(p.add(i));
        let keep = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(p.add(i), _mm256_and_ps(v, keep));
        i += 8;
    }
    relu_scalar_range(&mut buf[i..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn relu_avx512_range(buf: &mut [f32]) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_ps();
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the 16-lane load/store.
        let v = _mm512_loadu_ps(p.add(i));
        let keep = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
        // maskz_mov writes +0.0 into non-keep lanes, exactly the
        // scalar `else { 0.0 }` (NaN and -0.0 both fail `> 0`).
        _mm512_storeu_ps(p.add(i), _mm512_maskz_mov_ps(keep, v));
        i += 16;
    }
    relu_scalar_range(&mut buf[i..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn relu_neon_range(buf: &mut [f32]) {
    use std::arch::aarch64::*;
    let zero = vdupq_n_f32(0.0);
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds the 4-lane load/store. Compare+AND,
        // not vmaxq_f32: max would propagate NaN, the oracle zeroes it.
        let v = vld1q_f32(p.add(i));
        let keep = vcgtq_f32(v, zero);
        let r = vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(v), keep));
        vst1q_f32(p.add(i), r);
        i += 4;
    }
    relu_scalar_range(&mut buf[i..]);
}

impl SimdOp for Relu<'_> {
    const NAME: &'static str = "tensor.simd.relu";
    type Output = ();

    fn bytes(&self) -> u64 {
        8 * self.buf.len() as u64
    }

    fn scalar(self) {
        let base = SendPtr(self.buf.as_mut_ptr());
        par_groups(self.buf.len(), self.buf.len() as u64, move |r| {
            // SAFETY: par_groups hands out disjoint sub-ranges of buf.
            relu_scalar_range(unsafe {
                std::slice::from_raw_parts_mut(base.get().add(r.start), r.len())
            });
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) {
        let base = SendPtr(self.buf.as_mut_ptr());
        par_groups(self.buf.len(), self.buf.len() as u64, move |r| {
            // SAFETY: disjoint sub-ranges; AVX2 verified by the caller.
            unsafe {
                relu_avx2_range(std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()));
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) {
        let base = SendPtr(self.buf.as_mut_ptr());
        par_groups(self.buf.len(), self.buf.len() as u64, move |r| {
            // SAFETY: disjoint sub-ranges; AVX-512 verified by the caller.
            unsafe {
                relu_avx512_range(std::slice::from_raw_parts_mut(
                    base.get().add(r.start),
                    r.len(),
                ));
            }
        });
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn neon(self) {
        let base = SendPtr(self.buf.as_mut_ptr());
        par_groups(self.buf.len(), self.buf.len() as u64, move |r| {
            // SAFETY: disjoint sub-ranges; NEON verified by the caller.
            unsafe {
                relu_neon_range(std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()));
            }
        });
    }
}

/// Fused train-mode ReLU: rectifies `buf` in place and writes the
/// bit-packed keep mask (`mask.len() == buf.len().div_ceil(8)`; bit
/// `i % 8` of `mask[i / 8]` is 1 ⇔ input element `i` was `> 0`).
/// Trailing bits of a ragged final byte are 0.
pub struct ReluTrain<'a> {
    /// The activation buffer, rectified in place.
    pub buf: &'a mut [f32],
    /// Bit-packed keep mask, one bit per element.
    pub mask: &'a mut [u8],
}

fn relu_train_scalar_range(buf: &mut [f32], mask: &mut [u8]) {
    debug_assert_eq!(mask.len(), buf.len().div_ceil(8));
    for (chunk, m) in buf.chunks_mut(8).zip(mask) {
        let mut bits = 0u8;
        for (b, v) in chunk.iter_mut().enumerate() {
            let keep = *v > 0.0;
            bits |= u8::from(keep) << b;
            *v = if keep { *v } else { 0.0 };
        }
        *m = bits;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relu_train_avx2_range(buf: &mut [f32], mask: &mut [u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(mask.len(), buf.len().div_ceil(8));
    let zero = _mm256_setzero_ps();
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the lanes; mi = i / 8 < mask.len().
        let v = _mm256_loadu_ps(p.add(i));
        let keep = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(p.add(i), _mm256_and_ps(v, keep));
        // movmskps collects the 8 lane sign bits — exactly the packed
        // `x > 0` byte the scalar chain assembles bit by bit.
        *mask.get_unchecked_mut(mi) = _mm256_movemask_ps(keep) as u8;
        i += 8;
        mi += 1;
    }
    relu_train_scalar_range(&mut buf[i..], &mut mask[mi..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn relu_train_avx512_range(buf: &mut [f32], mask: &mut [u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(mask.len(), buf.len().div_ceil(8));
    let zero = _mm512_setzero_ps();
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the lanes; mi + 1 = i / 8 + 1 is
        // within mask. The __mmask16 compare result *is* the two
        // packed `x > 0` bytes, low lanes in the low byte.
        let v = _mm512_loadu_ps(p.add(i));
        let keep = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, zero);
        _mm512_storeu_ps(p.add(i), _mm512_maskz_mov_ps(keep, v));
        *mask.get_unchecked_mut(mi) = (keep & 0xFF) as u8;
        *mask.get_unchecked_mut(mi + 1) = (keep >> 8) as u8;
        i += 16;
        mi += 2;
    }
    relu_train_scalar_range(&mut buf[i..], &mut mask[mi..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn relu_train_neon_range(buf: &mut [f32], mask: &mut [u8]) {
    use std::arch::aarch64::*;
    debug_assert_eq!(mask.len(), buf.len().div_ceil(8));
    let zero = vdupq_n_f32(0.0);
    // Per-lane bit weights: ANDed with the all-ones compare lanes and
    // summed across the vector, they assemble the packed mask byte —
    // the weights are disjoint powers of two, so the sum is the OR.
    let (lo_w, hi_w) = ([1u32, 2, 4, 8], [16u32, 32, 64, 128]);
    let bits_lo = vld1q_u32(lo_w.as_ptr());
    let bits_hi = vld1q_u32(hi_w.as_ptr());
    let n = buf.len();
    let p = buf.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the lanes; mi = i / 8 < mask.len().
        let v0 = vld1q_f32(p.add(i));
        let v1 = vld1q_f32(p.add(i + 4));
        let k0 = vcgtq_f32(v0, zero);
        let k1 = vcgtq_f32(v1, zero);
        vst1q_f32(p.add(i), vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(v0), k0)));
        vst1q_f32(p.add(i + 4), vreinterpretq_f32_u32(vandq_u32(vreinterpretq_u32_f32(v1), k1)));
        let byte = vaddvq_u32(vandq_u32(k0, bits_lo)) + vaddvq_u32(vandq_u32(k1, bits_hi));
        *mask.get_unchecked_mut(mi) = byte as u8;
        i += 8;
        mi += 1;
    }
    relu_train_scalar_range(&mut buf[i..], &mut mask[mi..]);
}

impl SimdOp for ReluTrain<'_> {
    const NAME: &'static str = "tensor.simd.relu_train";
    type Output = ();

    fn bytes(&self) -> u64 {
        8 * self.buf.len() as u64 + self.mask.len() as u64
    }

    fn scalar(self) {
        assert_eq!(self.mask.len(), self.buf.len().div_ceil(8), "mask must be 1 bit per element");
        let (base, mbase) = (SendPtr(self.buf.as_mut_ptr()), SendPtr(self.mask.as_mut_ptr()));
        let n = self.buf.len();
        par_groups(n, n as u64, move |r| {
            // SAFETY: 8-aligned disjoint ranges — each task owns its
            // elements and the mask bytes covering exactly them.
            unsafe {
                relu_train_scalar_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    std::slice::from_raw_parts_mut(
                        mbase.get().add(r.start / 8),
                        r.len().div_ceil(8),
                    ),
                );
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) {
        assert_eq!(self.mask.len(), self.buf.len().div_ceil(8), "mask must be 1 bit per element");
        let (base, mbase) = (SendPtr(self.buf.as_mut_ptr()), SendPtr(self.mask.as_mut_ptr()));
        let n = self.buf.len();
        par_groups(n, n as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges as above; AVX2 verified.
            unsafe {
                relu_train_avx2_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    std::slice::from_raw_parts_mut(
                        mbase.get().add(r.start / 8),
                        r.len().div_ceil(8),
                    ),
                );
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) {
        assert_eq!(self.mask.len(), self.buf.len().div_ceil(8), "mask must be 1 bit per element");
        let (base, mbase) = (SendPtr(self.buf.as_mut_ptr()), SendPtr(self.mask.as_mut_ptr()));
        let n = self.buf.len();
        par_groups(n, n as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges as above; AVX-512
            // verified. (Ranges are 8-aligned, not 16-: the 16-lane
            // loop just leaves a ≤15-element scalar tail per range.)
            unsafe {
                relu_train_avx512_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    std::slice::from_raw_parts_mut(
                        mbase.get().add(r.start / 8),
                        r.len().div_ceil(8),
                    ),
                );
            }
        });
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn neon(self) {
        assert_eq!(self.mask.len(), self.buf.len().div_ceil(8), "mask must be 1 bit per element");
        let (base, mbase) = (SendPtr(self.buf.as_mut_ptr()), SendPtr(self.mask.as_mut_ptr()));
        let n = self.buf.len();
        par_groups(n, n as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges as above; NEON verified.
            unsafe {
                relu_train_neon_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    std::slice::from_raw_parts_mut(
                        mbase.get().add(r.start / 8),
                        r.len().div_ceil(8),
                    ),
                );
            }
        });
    }
}

/// ReLU backward through a bit-packed mask: zeroes `grad[i]` wherever
/// mask bit `i` is 0.
pub struct ReluBackward<'a> {
    /// Upstream gradient, masked in place.
    pub grad: &'a mut [f32],
    /// Bit-packed keep mask from [`ReluTrain`].
    pub mask: &'a [u8],
}

fn relu_bwd_scalar_range(grad: &mut [f32], mask: &[u8]) {
    debug_assert_eq!(mask.len(), grad.len().div_ceil(8));
    for (chunk, &bits) in grad.chunks_mut(8).zip(mask) {
        for (b, v) in chunk.iter_mut().enumerate() {
            *v = if bits & (1 << b) != 0 { *v } else { 0.0 };
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relu_bwd_avx2_range(grad: &mut [f32], mask: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(mask.len(), grad.len().div_ceil(8));
    // Expand bit b of the mask byte to lane b: broadcast the byte,
    // AND with each lane's bit, compare-equal against the bit.
    let bitsel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let n = grad.len();
    let p = grad.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the lanes; mi = i / 8 < mask.len().
        let byte = _mm256_set1_epi32(i32::from(*mask.get_unchecked(mi)));
        let keep = _mm256_cmpeq_epi32(_mm256_and_si256(byte, bitsel), bitsel);
        let g = _mm256_and_ps(_mm256_loadu_ps(p.add(i)), _mm256_castsi256_ps(keep));
        _mm256_storeu_ps(p.add(i), g);
        i += 8;
        mi += 1;
    }
    relu_bwd_scalar_range(&mut grad[i..], &mask[mi..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn relu_bwd_avx512_range(grad: &mut [f32], mask: &[u8]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(mask.len(), grad.len().div_ceil(8));
    let n = grad.len();
    let p = grad.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the lanes; mi + 1 is within mask.
        // Two packed mask bytes reassemble into the __mmask16 directly
        // — the inverse of the train body's mask split.
        let keep = u16::from_le_bytes([*mask.get_unchecked(mi), *mask.get_unchecked(mi + 1)]);
        let g = _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(p.add(i)));
        _mm512_storeu_ps(p.add(i), g);
        i += 16;
        mi += 2;
    }
    relu_bwd_scalar_range(&mut grad[i..], &mask[mi..]);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn relu_bwd_neon_range(grad: &mut [f32], mask: &[u8]) {
    use std::arch::aarch64::*;
    debug_assert_eq!(mask.len(), grad.len().div_ceil(8));
    // Expand bit b of the mask byte to lane b: broadcast the byte, AND
    // with each lane's bit weight, compare-equal against the weight.
    let (lo_w, hi_w) = ([1u32, 2, 4, 8], [16u32, 32, 64, 128]);
    let bits_lo = vld1q_u32(lo_w.as_ptr());
    let bits_hi = vld1q_u32(hi_w.as_ptr());
    let n = grad.len();
    let p = grad.as_mut_ptr();
    let mut i = 0;
    let mut mi = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the lanes; mi = i / 8 < mask.len().
        let byte = vdupq_n_u32(u32::from(*mask.get_unchecked(mi)));
        let k0 = vceqq_u32(vandq_u32(byte, bits_lo), bits_lo);
        let k1 = vceqq_u32(vandq_u32(byte, bits_hi), bits_hi);
        let g0 = vandq_u32(vreinterpretq_u32_f32(vld1q_f32(p.add(i))), k0);
        let g1 = vandq_u32(vreinterpretq_u32_f32(vld1q_f32(p.add(i + 4))), k1);
        vst1q_f32(p.add(i), vreinterpretq_f32_u32(g0));
        vst1q_f32(p.add(i + 4), vreinterpretq_f32_u32(g1));
        i += 8;
        mi += 1;
    }
    relu_bwd_scalar_range(&mut grad[i..], &mask[mi..]);
}

impl SimdOp for ReluBackward<'_> {
    const NAME: &'static str = "tensor.simd.relu_bwd";
    type Output = ();

    fn bytes(&self) -> u64 {
        8 * self.grad.len() as u64 + self.mask.len() as u64
    }

    fn scalar(self) {
        assert_eq!(self.mask.len(), self.grad.len().div_ceil(8), "mask must be 1 bit per element");
        let base = SendPtr(self.grad.as_mut_ptr());
        let mask = self.mask;
        par_groups(self.grad.len(), self.grad.len() as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges of grad; mask is shared
            // read-only.
            unsafe {
                relu_bwd_scalar_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    &mask[r.start / 8..r.start / 8 + r.len().div_ceil(8)],
                );
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx2(self) {
        assert_eq!(self.mask.len(), self.grad.len().div_ceil(8), "mask must be 1 bit per element");
        let base = SendPtr(self.grad.as_mut_ptr());
        let mask = self.mask;
        par_groups(self.grad.len(), self.grad.len() as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges; AVX2 verified.
            unsafe {
                relu_bwd_avx2_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    &mask[r.start / 8..r.start / 8 + r.len().div_ceil(8)],
                );
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self) {
        assert_eq!(self.mask.len(), self.grad.len().div_ceil(8), "mask must be 1 bit per element");
        let base = SendPtr(self.grad.as_mut_ptr());
        let mask = self.mask;
        par_groups(self.grad.len(), self.grad.len() as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges; AVX-512 verified.
            unsafe {
                relu_bwd_avx512_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    &mask[r.start / 8..r.start / 8 + r.len().div_ceil(8)],
                );
            }
        });
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn neon(self) {
        assert_eq!(self.mask.len(), self.grad.len().div_ceil(8), "mask must be 1 bit per element");
        let base = SendPtr(self.grad.as_mut_ptr());
        let mask = self.mask;
        par_groups(self.grad.len(), self.grad.len() as u64, move |r| {
            // SAFETY: disjoint 8-aligned ranges; NEON verified.
            unsafe {
                relu_bwd_neon_range(
                    std::slice::from_raw_parts_mut(base.get().add(r.start), r.len()),
                    &mask[r.start / 8..r.start / 8 + r.len().div_ceil(8)],
                );
            }
        });
    }
}
