//! Operand packing and the reusable GEMM scratch arena.
//!
//! The packed layouts are the classic BLIS panels the micro-kernel
//! (see [`crate::microkernel`]) consumes:
//!
//! ```text
//! A (M×K)  → ⌈M/MR⌉ panels, each MR rows stored k-major:
//!            pa[p·MR·K + k·MR + r] = A[p·MR + r, k]
//! B (K×N)  → ⌈N/NR⌉ panels, each NR columns stored k-major:
//!            pb[q·NR·K + k·NR + c] = B[k, q·NR + c]
//! ```
//!
//! so the micro-kernel's k loop reads both operands with stride-1
//! streams regardless of the original layout. Transposed operands
//! (`Aᵀ·B`, `A·Bᵀ`) are handled *here*, by reading the source with
//! swapped strides — packing makes the transpose free and lets one
//! micro-kernel serve the whole GEMM family. Rows/columns beyond the
//! matrix edge are zero-filled, which is what lets the micro-kernel
//! always compute full tiles (padded lanes contribute `0·x` to lanes
//! that are then discarded).
//!
//! [`GemmScratch`] owns the packed-panel buffers. It only ever grows
//! ([`grow_scratch`]), so a workload with stable shapes reaches a
//! steady state in which the kernel path performs **zero heap
//! allocations**; [`GemmScratch::reallocations`] exposes the growth
//! count so tests can assert exactly that. Growth is also accounted to
//! the `tensor.scratch_bytes` telemetry counter, making arena
//! footprints visible in traces.
//!
//! The packers are generic over the element type: the i8 quantized
//! GEMM (see [`crate::quant`]) packs `i8` operands into the *same*
//! panel layout, so one pair of packers and one set of layout tests
//! covers both datapaths.

use insitu_telemetry as telemetry;

/// Length of the packed-A buffer for an `m × k` operand at tile height
/// `mr`: whole panels, zero-padded in the row direction.
pub(crate) fn packed_a_len(m: usize, k: usize, mr: usize) -> usize {
    m.div_ceil(mr) * mr * k
}

/// Length of the packed-B buffer for a `k × n` operand at tile width
/// `nr`: whole panels, zero-padded in the column direction.
pub(crate) fn packed_b_len(k: usize, n: usize, nr: usize) -> usize {
    n.div_ceil(nr) * nr * k
}

/// Packs the left operand into MR-tall k-major panels.
///
/// `src` is row-major `(m, k)` — or `(k, m)` when `trans` is set, in
/// which case the packed result represents `srcᵀ`. `dst` must hold
/// [`packed_a_len`] elements; every element is written (valid lanes
/// copied, padding zeroed), so `dst` needs no pre-clearing.
pub(crate) fn pack_a<T: Copy + Default>(
    src: &[T],
    m: usize,
    k: usize,
    trans: bool,
    mr: usize,
    dst: &mut [T],
) {
    debug_assert_eq!(src.len(), m * k);
    debug_assert_eq!(dst.len(), packed_a_len(m, k, mr));
    if k == 0 {
        return; // degenerate product: nothing to pack (dst is empty)
    }
    for (p, panel) in dst.chunks_exact_mut(mr * k).enumerate() {
        let i0 = p * mr;
        let rows = mr.min(m - i0);
        if trans {
            // src[k', i]: a packed k-step is a contiguous run of src.
            for (kk, d) in panel.chunks_exact_mut(mr).enumerate() {
                d[..rows].copy_from_slice(&src[kk * m + i0..][..rows]);
                d[rows..].fill(T::default());
            }
        } else {
            // src[i, k']: gather one source row into lane r of every
            // k-step (a small strided transpose, O(M·K) total).
            for r in 0..rows {
                let row = &src[(i0 + r) * k..][..k];
                for (kk, &v) in row.iter().enumerate() {
                    panel[kk * mr + r] = v;
                }
            }
            for r in rows..mr {
                for kk in 0..k {
                    panel[kk * mr + r] = T::default();
                }
            }
        }
    }
}

/// Packs the right operand into NR-wide k-major panels.
///
/// `src` is row-major `(k, n)` — or `(n, k)` when `trans` is set, in
/// which case the packed result represents `srcᵀ`. `dst` must hold
/// [`packed_b_len`] elements; every element is written.
pub(crate) fn pack_b<T: Copy + Default>(
    src: &[T],
    k: usize,
    n: usize,
    trans: bool,
    nr: usize,
    dst: &mut [T],
) {
    debug_assert_eq!(src.len(), k * n);
    debug_assert_eq!(dst.len(), packed_b_len(k, n, nr));
    if k == 0 {
        return; // degenerate product: nothing to pack (dst is empty)
    }
    for (q, panel) in dst.chunks_exact_mut(nr * k).enumerate() {
        let j0 = q * nr;
        let cols = nr.min(n - j0);
        if trans {
            // src[j, k']: one source row feeds lane c of every k-step.
            for c in 0..cols {
                let row = &src[(j0 + c) * k..][..k];
                for (kk, &v) in row.iter().enumerate() {
                    panel[kk * nr + c] = v;
                }
            }
            for c in cols..nr {
                for kk in 0..k {
                    panel[kk * nr + c] = T::default();
                }
            }
        } else {
            // src[k', j]: a packed k-step is a contiguous run of src.
            for (kk, d) in panel.chunks_exact_mut(nr).enumerate() {
                d[..cols].copy_from_slice(&src[kk * n + j0..][..cols]);
                d[cols..].fill(T::default());
            }
        }
    }
}

/// Transposes an 8×8 byte square held as eight little-endian u64 rows
/// in place: byte `j` of output word `r` = byte `r` of input word `j`.
/// Three levels of block swaps (4-, 2-, 1-byte blocks), ~9 bit ops per
/// level — about one op per byte, versus one strided load *and* store
/// per byte for the scalar gather.
#[inline(always)]
fn transpose8x8_bytes(w: &mut [u64; 8]) {
    const M4: u64 = 0x0000_0000_FFFF_FFFF;
    const M2: u64 = 0x0000_FFFF_0000_FFFF;
    const M1: u64 = 0x00FF_00FF_00FF_00FF;
    for r in 0..4 {
        let (u, v) = (w[r], w[r + 4]);
        w[r] = (u & M4) | ((v & M4) << 32);
        w[r + 4] = ((u >> 32) & M4) | (v & !M4);
    }
    for r in [0usize, 1, 4, 5] {
        let (u, v) = (w[r], w[r + 2]);
        w[r] = (u & M2) | ((v & M2) << 16);
        w[r + 2] = ((u >> 16) & M2) | (v & !M2);
    }
    for r in [0usize, 2, 4, 6] {
        let (u, v) = (w[r], w[r + 1]);
        w[r] = (u & M1) | ((v & M1) << 8);
        w[r + 1] = ((u >> 8) & M1) | (v & !M1);
    }
}

/// Packs one 8-row k-major half-band from contiguous source rows into
/// a panel of `lanes` byte lanes per k-step, starting at lane `lane0`:
/// `panel[kk·lanes + lane0 + r] = src[(row0 + r)·k + kk]`, lanes
/// `lane0 + r` for `r ≥ nrows` zeroed. Full bands go through
/// [`transpose8x8_bytes`] eight k-steps at a time; ragged edges fall
/// back to the scalar gather. `lanes == 8, lane0 == 0` is the classic
/// 8-wide panel; a 16-wide panel is two calls at `lane0 ∈ {0, 8}`.
fn pack_band_transpose_i8(
    src: &[i8],
    row0: usize,
    nrows: usize,
    k: usize,
    lanes: usize,
    lane0: usize,
    panel: &mut [i8],
) {
    debug_assert!(nrows <= 8);
    debug_assert!(lane0 + 8 <= lanes);
    debug_assert_eq!(panel.len(), lanes * k);
    if nrows == 8 {
        let k8 = k - k % 8;
        let mut kk = 0;
        while kk < k8 {
            let mut w = [0u64; 8];
            for (r, wr) in w.iter_mut().enumerate() {
                let s: &[i8; 8] = src[(row0 + r) * k + kk..][..8].try_into().unwrap();
                *wr = u64::from_le_bytes(s.map(|b| b as u8));
            }
            transpose8x8_bytes(&mut w);
            for (j, wj) in w.iter().enumerate() {
                let d: &mut [i8; 8] =
                    (&mut panel[(kk + j) * lanes + lane0..][..8]).try_into().unwrap();
                *d = wj.to_le_bytes().map(|b| b as i8);
            }
            kk += 8;
        }
        for r in 0..8 {
            let row = &src[(row0 + r) * k..][..k];
            for kk in k8..k {
                panel[kk * lanes + lane0 + r] = row[kk];
            }
        }
    } else {
        for r in 0..nrows {
            let row = &src[(row0 + r) * k..][..k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * lanes + lane0 + r] = v;
            }
        }
        for r in nrows..8 {
            for kk in 0..k {
                panel[kk * lanes + lane0 + r] = 0;
            }
        }
    }
}

/// i8 left-operand packer: the layout contract of [`pack_a`], with a
/// word-at-a-time byte transpose on the dominant non-transposed
/// `mr == 8` path (the strided scalar gather is the packing cost that
/// dilutes the i8 kernel's edge on small GEMMs). Other configurations
/// delegate to the generic packer.
pub(crate) fn pack_a_i8(src: &[i8], m: usize, k: usize, trans: bool, mr: usize, dst: &mut [i8]) {
    if trans || mr != 8 {
        return pack_a(src, m, k, trans, mr, dst);
    }
    debug_assert_eq!(src.len(), m * k);
    debug_assert_eq!(dst.len(), packed_a_len(m, k, 8));
    if k == 0 {
        return; // degenerate product: nothing to pack (dst is empty)
    }
    for (p, panel) in dst.chunks_exact_mut(8 * k).enumerate() {
        let i0 = p * 8;
        pack_band_transpose_i8(src, i0, 8.min(m - i0), k, 8, 0, panel);
    }
}

/// i8 right-operand packer: the layout contract of [`pack_b`]. The
/// transposed `nr == 8` case (Linear weights stored `(out, in)`) is
/// the same band transpose as [`pack_a_i8`], and `nr == 16` (the
/// AVX-512 tile) is two such half-band transposes at lane offsets 0
/// and 8; the non-transposed full panel copies fixed-width words
/// instead of runtime-length slices. Other configurations delegate to
/// the generic packer.
pub(crate) fn pack_b_i8(src: &[i8], k: usize, n: usize, trans: bool, nr: usize, dst: &mut [i8]) {
    if nr != 8 && nr != 16 {
        return pack_b(src, k, n, trans, nr, dst);
    }
    debug_assert_eq!(src.len(), k * n);
    debug_assert_eq!(dst.len(), packed_b_len(k, n, nr));
    if k == 0 {
        return; // degenerate product: nothing to pack (dst is empty)
    }
    for (q, panel) in dst.chunks_exact_mut(nr * k).enumerate() {
        let j0 = q * nr;
        let cols = nr.min(n - j0);
        if trans {
            pack_band_transpose_i8(src, j0, cols.min(8), k, nr, 0, panel);
            if nr == 16 {
                pack_band_transpose_i8(src, j0 + 8, cols.saturating_sub(8), k, nr, 8, panel);
            }
        } else if cols == nr {
            for (kk, d) in panel.chunks_exact_mut(nr).enumerate() {
                d.copy_from_slice(&src[kk * n + j0..][..nr]);
            }
        } else {
            for (kk, d) in panel.chunks_exact_mut(nr).enumerate() {
                d[..cols].copy_from_slice(&src[kk * n + j0..][..cols]);
                d[cols..].fill(0);
            }
        }
    }
}

/// Grows `buf` to at least `len` elements, counting the growth in
/// `grows` and accounting the new bytes to the `tensor.scratch_bytes`
/// telemetry counter under `label`. Never shrinks: with stable shapes
/// the second and every later call is free, which is the property the
/// zero-steady-state-allocation tests pin down.
pub(crate) fn grow_scratch<T: Copy + Default>(
    buf: &mut Vec<T>,
    len: usize,
    grows: &mut usize,
    label: &'static str,
) {
    if buf.len() < len {
        *grows += 1;
        let bytes = (len - buf.len()) * std::mem::size_of::<T>();
        telemetry::counter_add("tensor.scratch_bytes", label, bytes as u64);
        buf.resize(len, T::default());
    }
}

/// Reusable packed-operand arena for the GEMM family.
///
/// One scratch serves any sequence of GEMM calls: each call packs its
/// operands into the arena, growing it only when a larger shape than
/// ever before arrives. Every GEMM entry point takes the caller's
/// scratch; layers that sit in a training loop (see `insitu-nn`'s
/// `Linear`) own one so their steady state allocates nothing in the
/// kernel path.
///
/// Cloning yields a fresh empty scratch: the buffers hold no data that
/// outlives a call, so there is nothing meaningful to copy and cloned
/// layers should not drag warmed-up capacity around.
#[derive(Debug, Default)]
pub struct GemmScratch {
    pa: Vec<f32>,
    pb: Vec<f32>,
    pa_i8: Vec<i8>,
    pb_i8: Vec<i8>,
    qa: Vec<i8>,
    acc: Vec<i32>,
    grows: usize,
}

impl Clone for GemmScratch {
    fn clone(&self) -> Self {
        GemmScratch::new()
    }
}

impl GemmScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any internal buffer has grown. Constant between
    /// two calls ⇒ the kernel path performed no heap allocation in
    /// between.
    pub fn reallocations(&self) -> usize {
        self.grows
    }

    /// Current arena footprint in bytes.
    pub fn capacity_bytes(&self) -> usize {
        4 * (self.pa.len() + self.pb.len() + self.acc.len())
            + self.pa_i8.len()
            + self.pb_i8.len()
            + self.qa.len()
    }

    /// The packed-A / packed-B destination slices for one GEMM call,
    /// growing the arena if this is the largest shape seen so far.
    pub(crate) fn panels(&mut self, a_len: usize, b_len: usize) -> (&mut [f32], &mut [f32]) {
        grow_scratch(&mut self.pa, a_len, &mut self.grows, "gemm");
        grow_scratch(&mut self.pb, b_len, &mut self.grows, "gemm");
        (&mut self.pa[..a_len], &mut self.pb[..b_len])
    }

    /// The i8 packed-A / packed-B destination slices for one quantized
    /// GEMM call. Separate from the f32 panels so mixed f32/i8
    /// workloads on one scratch never thrash each other's capacity.
    pub(crate) fn panels_i8(&mut self, a_len: usize, b_len: usize) -> (&mut [i8], &mut [i8]) {
        grow_scratch(&mut self.pa_i8, a_len, &mut self.grows, "gemm_i8");
        grow_scratch(&mut self.pb_i8, b_len, &mut self.grows, "gemm_i8");
        (&mut self.pa_i8[..a_len], &mut self.pb_i8[..b_len])
    }

    /// Every buffer one quantized layer forward needs, in one borrow:
    /// (packed-A i8, packed-B i8, quantized-activation staging, i32
    /// accumulator). Split this way because the caller quantizes into
    /// `qa`, packs it into the panels, then accumulates into `acc` —
    /// all four must be live at once.
    pub(crate) fn quant_buffers(
        &mut self,
        a_len: usize,
        b_len: usize,
        qa_len: usize,
        acc_len: usize,
    ) -> (&mut [i8], &mut [i8], &mut [i8], &mut [i32]) {
        grow_scratch(&mut self.pa_i8, a_len, &mut self.grows, "gemm_i8");
        grow_scratch(&mut self.pb_i8, b_len, &mut self.grows, "gemm_i8");
        grow_scratch(&mut self.qa, qa_len, &mut self.grows, "gemm_i8");
        grow_scratch(&mut self.acc, acc_len, &mut self.grows, "gemm_i8");
        (
            &mut self.pa_i8[..a_len],
            &mut self.pb_i8[..b_len],
            &mut self.qa[..qa_len],
            &mut self.acc[..acc_len],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layout_and_padding() {
        // 3×2 matrix, mr = 2: two panels, second padded with one row.
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows [1 2] [3 4] [5 6]
        let mut dst = vec![f32::NAN; packed_a_len(3, 2, 2)];
        pack_a(&src, 3, 2, false, 2, &mut dst);
        // Panel 0: k0 -> [1, 3], k1 -> [2, 4]; panel 1: [5, 0], [6, 0].
        assert_eq!(dst, vec![1.0, 3.0, 2.0, 4.0, 5.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn pack_a_trans_matches_explicit_transpose() {
        // src (k=2, m=3) packed with trans == its transpose packed flat.
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // (2,3): [[1 2 3],[4 5 6]]
        let t = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // (3,2)
        let mut a = vec![0.0; packed_a_len(3, 2, 2)];
        let mut b = vec![0.0; packed_a_len(3, 2, 2)];
        pack_a(&src, 3, 2, true, 2, &mut a);
        pack_a(&t, 3, 2, false, 2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 2×3 matrix, nr = 2: panel 0 = cols {0,1}, panel 1 = col 2 + pad.
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // (2,3): [[1 2 3],[4 5 6]]
        let mut dst = vec![f32::NAN; packed_b_len(2, 3, 2)];
        pack_b(&src, 2, 3, false, 2, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 4.0, 5.0, 3.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn pack_b_trans_matches_explicit_transpose() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // (n=3, k=2)
        let t = [1.0, 3.0, 5.0, 2.0, 4.0, 6.0]; // (k=2, n=3)
        let mut a = vec![0.0; packed_b_len(2, 3, 2)];
        let mut b = vec![0.0; packed_b_len(2, 3, 2)];
        pack_b(&src, 2, 3, true, 2, &mut a);
        pack_b(&t, 2, 3, false, 2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn generic_packers_give_same_layout_for_i8() {
        // Same panel layout as the f32 packers, element type aside.
        let src = [1i8, 2, 3, 4, 5, 6];
        let mut a = vec![i8::MIN; packed_a_len(3, 2, 2)];
        pack_a(&src, 3, 2, false, 2, &mut a);
        assert_eq!(a, vec![1, 3, 2, 4, 5, 0, 6, 0]);
        let mut b = vec![i8::MIN; packed_b_len(2, 3, 2)];
        pack_b(&src, 2, 3, false, 2, &mut b);
        assert_eq!(b, vec![1, 2, 4, 5, 3, 0, 6, 0]);
    }

    #[test]
    fn i8_packers_match_the_generic_packers_bitwise() {
        // The specialized word-transpose / fixed-copy paths must
        // produce exactly the generic layout at every raggedness:
        // full and partial bands, k tails, both orientations.
        let mut rng = crate::rng::Rng::seed_from(91);
        for &(m, k) in &[(1, 1), (7, 9), (8, 8), (8, 19), (9, 16), (24, 21), (17, 40)] {
            let src: Vec<i8> =
                (0..m * k).map(|_| (rng.below(255) as i32 - 127) as i8).collect();
            for mr in [4usize, 8] {
                let mut want = vec![i8::MIN; packed_a_len(m, k, mr)];
                let mut got = vec![i8::MAX; packed_a_len(m, k, mr)];
                pack_a(&src, m, k, false, mr, &mut want);
                pack_a_i8(&src, m, k, false, mr, &mut got);
                assert_eq!(got, want, "pack_a_i8 {m}x{k} mr{mr}");
                pack_a(&src, m, k, true, mr, &mut want);
                pack_a_i8(&src, m, k, true, mr, &mut got);
                assert_eq!(got, want, "pack_a_i8ᵀ {m}x{k} mr{mr}");
            }
            let (kk, n) = (m, k); // reuse the buffer as a (k, n) operand
            for nr in [4usize, 8, 16] {
                let mut want = vec![i8::MIN; packed_b_len(kk, n, nr)];
                let mut got = vec![i8::MAX; packed_b_len(kk, n, nr)];
                pack_b(&src, kk, n, false, nr, &mut want);
                pack_b_i8(&src, kk, n, false, nr, &mut got);
                assert_eq!(got, want, "pack_b_i8 {kk}x{n} nr{nr}");
                pack_b(&src, kk, n, true, nr, &mut want);
                pack_b_i8(&src, kk, n, true, nr, &mut got);
                assert_eq!(got, want, "pack_b_i8ᵀ {kk}x{n} nr{nr}");
            }
        }
    }

    #[test]
    fn byte_transpose_is_an_exact_transpose() {
        let mut w = [0u64; 8];
        for (r, wr) in w.iter_mut().enumerate() {
            let row: [u8; 8] = std::array::from_fn(|j| (r * 8 + j) as u8);
            *wr = u64::from_le_bytes(row);
        }
        transpose8x8_bytes(&mut w);
        for (r, wr) in w.iter().enumerate() {
            let row = wr.to_le_bytes();
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, (j * 8 + r) as u8, "({r},{j})");
            }
        }
    }

    #[test]
    fn quant_buffers_grow_only_on_larger_shapes() {
        let mut s = GemmScratch::new();
        let _ = s.quant_buffers(16, 32, 8, 8);
        let g1 = s.reallocations();
        assert!(g1 >= 1);
        let _ = s.quant_buffers(16, 32, 8, 8);
        let _ = s.quant_buffers(4, 4, 4, 4);
        assert_eq!(s.reallocations(), g1, "smaller or equal shapes must not grow");
        let _ = s.panels_i8(17, 32);
        assert!(s.reallocations() > g1);
        assert!(s.capacity_bytes() >= 17 + 32 + 8 + 4 * 8);
    }

    #[test]
    fn scratch_grows_only_on_larger_shapes() {
        let mut s = GemmScratch::new();
        let _ = s.panels(64, 128);
        let g1 = s.reallocations();
        assert!(g1 >= 1);
        let _ = s.panels(64, 128);
        let _ = s.panels(32, 16);
        assert_eq!(s.reallocations(), g1, "smaller or equal shapes must not grow");
        let _ = s.panels(65, 128);
        assert!(s.reallocations() > g1);
        assert!(s.capacity_bytes() >= 4 * (65 + 128));
        // Clones start cold: scratch capacity is not model state.
        assert_eq!(s.clone().capacity_bytes(), 0);
    }
}
