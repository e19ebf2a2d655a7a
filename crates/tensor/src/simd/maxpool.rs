//! Max-pool forward: window max plus argmax, vectorized for the
//! window-2 / stride-2 geometry every pool layer in the paper's
//! networks uses.
//!
//! The AVX2 body computes 8 output columns at once: two unaligned row
//! loads are deinterleaved into even/odd columns
//! (`shuffle_ps` + `permute4x64`), and the four window candidates are
//! folded with the same first-strictly-greater compare chain the
//! scalar loop runs (`_CMP_GT_OQ` ≡ `>`), carrying i32 absolute-index
//! lanes alongside the values. That makes value *and* argmax selection
//! — including NaN windows and the all-`-inf` `best_idx = 0` corner —
//! **bitwise exact** against the scalar oracle. Other geometries, and
//! tensors whose linear indices overflow `i32`, fall back to the
//! scalar plane kernel inside the AVX2 body.
//!
//! The NEON body runs the same scheme 4 outputs at a time: `vld2q_f32`
//! deinterleaves even/odd columns in one load, and the candidate fold
//! uses `vcgtq`/`vbslq` — the identical first-strictly-greater chain.
//! There is no dedicated AVX-512 body: maxpool is load-bound and the
//! AVX2 body (the dispatcher's AVX-512 fallback) already saturates the
//! two load ports, so wider registers buy nothing.
//!
//! Planes (batch × channel) are independent, so parallelism splits
//! planes; outputs never depend on the split.

use super::dispatch::SimdOp;
use crate::parallel::{par_split, PerUnit};
use crate::pool::PoolGeometry;

/// One output plane, naive windows. `x` is the full input slice;
/// `plane` the linear offset of this plane; `out`/`arg` the plane's
/// own output slices.
///
/// Each window step is the first-strictly-greater chain written as two
/// selects on `v > best`, with no data-dependent branch; the planes
/// narrower than the vector bodies' minimum (every jigsaw-trunk pool)
/// run here.
fn pool_plane_scalar(x: &[f32], plane: usize, g: &PoolGeometry, out: &mut [f32], arg: &mut [usize]) {
    let mut oi = 0;
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0;
            for wy in 0..g.window {
                let iy = oy * g.stride + wy;
                for wx in 0..g.window {
                    let idx = plane + iy * g.in_w + ox * g.stride + wx;
                    let v = x[idx];
                    let gt = v > best;
                    best = if gt { v } else { best };
                    best_idx = if gt { idx } else { best_idx };
                }
            }
            out[oi] = best;
            arg[oi] = best_idx;
            oi += 1;
        }
    }
}

/// True when the vector plane kernels apply: window 2, stride 2, rows of
/// at least `min_w` inputs, and every input index fits the i32 index
/// lanes (no real workload here comes close to the limit).
fn w2s2_fits(x: &[f32], g: &PoolGeometry, min_w: usize) -> bool {
    g.window == 2 && g.stride == 2 && g.in_w >= min_w && x.len() <= i32::MAX as usize
}

/// Window-2 / stride-2 plane: 8 outputs per step; any other plane
/// (see [`w2s2_fits`]) takes the scalar chain.
///
/// # Safety
///
/// The host must support AVX2, `x` must hold the plane at `plane`, and
/// `out`/`arg` must be exactly one output plane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pool_plane_avx2(
    x: &[f32],
    plane: usize,
    g: &PoolGeometry,
    out: &mut [f32],
    arg: &mut [usize],
) {
    use std::arch::x86_64::*;
    if !w2s2_fits(x, g, 16) {
        return pool_plane_scalar(x, plane, g, out, arg);
    }
    // Even/odd column deinterleave of two consecutive 8-float loads.
    let deint = |v0: __m256, v1: __m256, imm_evens: bool| -> __m256 {
        let s = if imm_evens {
            _mm256_shuffle_ps(v0, v1, 0x88)
        } else {
            _mm256_shuffle_ps(v0, v1, 0xDD)
        };
        _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(s), 0xD8))
    };
    let iota = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
    let xp = x.as_ptr();
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    for oy in 0..g.out_h {
        let row0 = plane + (2 * oy) * g.in_w;
        let row1 = row0 + g.in_w;
        let orow = oy * g.out_w;
        let mut ox = 0;
        while ox + 8 <= g.out_w && 2 * ox + 16 <= g.in_w {
            // SAFETY: 2*ox + 16 <= in_w keeps both 8-lane loads of each
            // row inside the plane; row1 < in_h rows by geometry.
            let t0 = _mm256_loadu_ps(xp.add(row0 + 2 * ox));
            let t1 = _mm256_loadu_ps(xp.add(row0 + 2 * ox + 8));
            let b0 = _mm256_loadu_ps(xp.add(row1 + 2 * ox));
            let b1 = _mm256_loadu_ps(xp.add(row1 + 2 * ox + 8));
            let cands = [
                (deint(t0, t1, true), row0 + 2 * ox),
                (deint(t0, t1, false), row0 + 2 * ox + 1),
                (deint(b0, b1, true), row1 + 2 * ox),
                (deint(b0, b1, false), row1 + 2 * ox + 1),
            ];
            let mut best = neg_inf;
            let mut bidx = _mm256_setzero_si256();
            for (v, base) in cands {
                // Same order and predicate as the scalar `if x > best`.
                let vidx = _mm256_add_epi32(_mm256_set1_epi32(base as i32), iota);
                let m = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
                best = _mm256_blendv_ps(best, v, m);
                bidx = _mm256_castps_si256(_mm256_blendv_ps(
                    _mm256_castsi256_ps(bidx),
                    _mm256_castsi256_ps(vidx),
                    m,
                ));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(orow + ox), best);
            let mut idx_lanes = [0i32; 8];
            _mm256_storeu_si256(idx_lanes.as_mut_ptr().cast(), bidx);
            for (l, &il) in idx_lanes.iter().enumerate() {
                *arg.get_unchecked_mut(orow + ox + l) = il as usize;
            }
            ox += 8;
        }
        // Ragged output columns: the identical scalar chain.
        while ox < g.out_w {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0;
            for (row, base) in [(row0, 2 * ox), (row1, 2 * ox)] {
                for dx in 0..2 {
                    let idx = row + base + dx;
                    if x[idx] > best {
                        best = x[idx];
                        best_idx = idx;
                    }
                }
            }
            out[orow + ox] = best;
            arg[orow + ox] = best_idx;
            ox += 1;
        }
    }
}

/// Window-2 / stride-2 plane: 4 outputs per step; any other plane
/// (see [`w2s2_fits`]) takes the scalar chain.
///
/// # Safety
///
/// The host must support NEON, `x` must hold the plane at `plane`, and
/// `out`/`arg` must be exactly one output plane.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn pool_plane_neon(
    x: &[f32],
    plane: usize,
    g: &PoolGeometry,
    out: &mut [f32],
    arg: &mut [usize],
) {
    use std::arch::aarch64::*;
    if !w2s2_fits(x, g, 8) {
        return pool_plane_scalar(x, plane, g, out, arg);
    }
    // SAFETY: geometry checked above; every load below is
    // bounds-justified at its site.
    unsafe {
        let iota = vld1q_s32([0i32, 2, 4, 6].as_ptr());
        let xp = x.as_ptr();
        let neg_inf = vdupq_n_f32(f32::NEG_INFINITY);
        for oy in 0..g.out_h {
            let row0 = plane + (2 * oy) * g.in_w;
            let row1 = row0 + g.in_w;
            let orow = oy * g.out_w;
            let mut ox = 0;
            while ox + 4 <= g.out_w && 2 * ox + 8 <= g.in_w {
                // SAFETY: 2*ox + 8 <= in_w keeps each deinterleaving
                // 8-float load inside the plane row; row1 < in_h rows
                // by geometry. `.0` holds even columns, `.1` odd.
                let top = vld2q_f32(xp.add(row0 + 2 * ox));
                let bot = vld2q_f32(xp.add(row1 + 2 * ox));
                let cands = [
                    (top.0, row0 + 2 * ox),
                    (top.1, row0 + 2 * ox + 1),
                    (bot.0, row1 + 2 * ox),
                    (bot.1, row1 + 2 * ox + 1),
                ];
                let mut best = neg_inf;
                let mut bidx = vdupq_n_s32(0);
                for (v, base) in cands {
                    // Same order and predicate as the scalar
                    // `if x > best` (vcgtq is false for NaN, like `>`).
                    let vidx = vaddq_s32(vdupq_n_s32(base as i32), iota);
                    let m = vcgtq_f32(v, best);
                    best = vbslq_f32(m, v, best);
                    bidx = vbslq_s32(m, vidx, bidx);
                }
                vst1q_f32(out.as_mut_ptr().add(orow + ox), best);
                let mut idx_lanes = [0i32; 4];
                vst1q_s32(idx_lanes.as_mut_ptr(), bidx);
                for (l, &il) in idx_lanes.iter().enumerate() {
                    *arg.get_unchecked_mut(orow + ox + l) = il as usize;
                }
                ox += 4;
            }
            // Ragged output columns: the identical scalar chain.
            while ox < g.out_w {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for (row, base) in [(row0, 2 * ox), (row1, 2 * ox)] {
                    for dx in 0..2 {
                        let idx = row + base + dx;
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                out[orow + ox] = best;
                arg[orow + ox] = best_idx;
                ox += 1;
            }
        }
    }
}

/// Batched max-pool forward over `planes = batch * channels`
/// independent planes of `x`, writing window maxima to `out` and the
/// absolute input index of each maximum to `argmax`.
pub struct MaxPool2d<'a> {
    /// Full input, `planes * in_h * in_w` elements.
    pub x: &'a [f32],
    /// Pooling geometry.
    pub g: PoolGeometry,
    /// Batch × channels.
    pub planes: usize,
    /// Output values, `planes * out_h * out_w`.
    pub out: &'a mut [f32],
    /// Argmax indices, same length as `out`.
    pub argmax: &'a mut [usize],
}

impl SimdOp for MaxPool2d<'_> {
    const NAME: &'static str = "tensor.simd.maxpool";
    type Output = ();
    type Kernel = unsafe fn(&[f32], usize, &PoolGeometry, &mut [f32], &mut [usize]);
    const SCALAR: Self::Kernel = pool_plane_scalar;
    #[cfg(target_arch = "x86_64")]
    const AVX2: Option<Self::Kernel> = Some(pool_plane_avx2);
    // No `AVX512` kernel: load-bound op, the AVX2 fallback already
    // saturates the load ports.
    #[cfg(target_arch = "aarch64")]
    const NEON: Option<Self::Kernel> = Some(pool_plane_neon);

    fn bytes(&self) -> u64 {
        4 * self.x.len() as u64 + 12 * self.out.len() as u64
    }

    unsafe fn run(self, kernel: Self::Kernel) {
        let g = self.g;
        let (in_sz, out_sz) = (g.in_h * g.in_w, g.out_h * g.out_w);
        // Exact sizes: the vector kernels store a whole plane unchecked.
        assert_eq!(self.x.len(), self.planes * in_sz);
        assert_eq!(self.out.len(), self.planes * out_sz);
        assert_eq!(self.argmax.len(), self.out.len());
        let flops = self.out.len() as u64 * (g.window * g.window) as u64;
        let x = self.x;
        let bufs = (PerUnit::new(self.out, out_sz), PerUnit::new(self.argmax, out_sz));
        par_split(self.planes, flops, bufs, |planes, (outs, args)| {
            for (i, pi) in planes.enumerate() {
                let out = &mut outs[i * out_sz..][..out_sz];
                let arg = &mut args[i * out_sz..][..out_sz];
                // SAFETY: the caller vouches that `kernel` runs on this
                // host; `out`/`arg` are exactly one plane.
                unsafe { kernel(x, pi * in_sz, &g, out, arg) }
            }
        });
    }
}
