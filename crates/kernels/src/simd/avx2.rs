//! AVX2 + FMA `f64` microkernels.
//!
//! One register tile serves every shape of the dispatched GEMM:
//! [`tile::<NC, MASKED>`](tile) holds up to 8 rows × `NC ≤ 4` columns of
//! `C` (two `ymm` halves per column, so at most 8 accumulator registers)
//! while the `k` loop streams columns of `A` (contiguous 8-element loads
//! — `A` is column-major and untransposed) and broadcasts elements of
//! `op(B)`. Column tails (`n % 4`) instantiate a narrower tile; row tails
//! (`m % 8`) use the `MASKED` instance, which loads and stores through
//! `_mm256_maskload_pd` / `_mm256_maskstore_pd`, so no shape falls back
//! to a scalar loop. `op(B)` is read through [`BLayout`], so the same
//! tile covers the `NoTrans×Trans` outer product of the supernodal update
//! *and* the `NoTrans×NoTrans` packed-panel product — only the broadcast
//! address differs.
//!
//! Accumulation **association is fixed per output element**: the C value
//! is loaded first (β applied on the first `kc` chunk), then one FMA per
//! `k` step in ascending order with `s = α·op(B)[l, j]` — the same
//! per-`l` axpy order as [`crate::gemm`]'s `gemm_a_notrans`, with the
//! multiply-add pair contracted into a single rounding. Lanes are
//! independent, so the result of an element does not depend on the tile
//! (full or masked, 1–4 columns) that computed it; the differential fuzz
//! suite checks it bit for bit against a scalar `mul_add` reference.
//!
//! Everything here is `unsafe fn` + raw pointers: callers (the dispatch
//! shims in [`super`]) re-assert the LAPACK shape contracts before any
//! pointer is formed, and `isa()` certifies the CPU features.

use super::{blocking, MR, NR};
use core::arch::x86_64::*;

/// How `op(B)[l, j]` maps onto the `b` buffer.
#[derive(Copy, Clone, Debug)]
pub(crate) enum BLayout {
    /// `op(B)[l, j] = b[j*ldb + l]` — `B` stored `k×n` column-major
    /// (the packed-panel case has `ldb == k`).
    NoTrans {
        /// Leading dimension of `b`.
        ldb: usize,
    },
    /// `op(B)[l, j] = b[l*ldb + j]` — `B` stored `n×k` column-major,
    /// used as its transpose (the `L_{i,k}·L_{j,k}ᵀ` outer product).
    Trans {
        /// Leading dimension of `b`.
        ldb: usize,
    },
}

impl BLayout {
    /// Read `op(B)[l, j]`.
    ///
    /// # Safety
    /// `(l, j)` must satisfy the shape contract the caller asserted for
    /// `b` under this layout.
    #[inline(always)]
    unsafe fn at(self, b: *const f64, l: usize, j: usize) -> f64 {
        match self {
            // SAFETY: caller contract (doc above).
            BLayout::NoTrans { ldb } => unsafe { *b.add(j * ldb + l) },
            // SAFETY: caller contract (doc above).
            BLayout::Trans { ldb } => unsafe { *b.add(l * ldb + j) },
        }
    }
}

/// `C ← α·A·op(B) + β·C`, `A` untransposed `m×k` column-major.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`), and the usual LAPACK shape
/// contracts: `lda ≥ m`, `ldc ≥ m`, buffers sized for the described
/// shapes (asserted by the dispatching `gemm`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    let op = Operands {
        alpha,
        a,
        lda,
        b,
        bl,
        beta,
        c,
        ldc,
    };
    let blk = blocking();
    let mut jc = 0;
    while jc < n {
        let ncb = blk.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = blk.kc.min(k - pc);
            let chunk = Chunk {
                l0: pc,
                kk: kcb,
                first: pc == 0,
            };
            let mut ic = 0;
            while ic < m {
                let mcb = blk.mc.min(m - ic);
                let mut jr = 0;
                while jr < ncb {
                    let j0 = jc + jr;
                    // SAFETY: rows ic..ic+mcb ≤ m, columns j0..j0+nt ≤ n
                    // and the chunk's k range stay inside the caller's
                    // shape contracts.
                    unsafe {
                        match NR.min(ncb - jr) {
                            4 => column_block::<4>(&op, chunk, ic, mcb, j0),
                            3 => column_block::<3>(&op, chunk, ic, mcb, j0),
                            2 => column_block::<2>(&op, chunk, ic, mcb, j0),
                            _ => column_block::<1>(&op, chunk, ic, mcb, j0),
                        }
                    }
                    jr += NR;
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// The operands of one [`gemm_f64`] call, shared by all of its tiles.
#[derive(Copy, Clone)]
struct Operands {
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    beta: f64,
    c: *mut f64,
    ldc: usize,
}

/// The `k` range one tile pass accumulates: `l0..l0+kk`; `first` marks
/// the chunk that applies β.
#[derive(Copy, Clone)]
struct Chunk {
    l0: usize,
    kk: usize,
    first: bool,
}

/// Rows `i0..i0+mt` × columns `j0..j0+NC` of `C` in full 8-row tiles and
/// one masked tile for the `mt % 8` remainder.
///
/// # Safety
/// Caller guarantees AVX2+FMA and that the rows, columns and the chunk's
/// `k` range lie inside the shape contracts of `op`.
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn column_block<const NC: usize>(op: &Operands, ch: Chunk, i0: usize, mt: usize, j0: usize) {
    let full = i0 + mt - mt % MR;
    let mut i = i0;
    // SAFETY: (both calls) every tile's rows lie in i0..i0+mt.
    while i < full {
        unsafe { tile::<NC, false>(op, ch, i, MR, j0) };
        i += MR;
    }
    if i < i0 + mt {
        unsafe { tile::<NC, true>(op, ch, i, i0 + mt - i, j0) };
    }
}

/// The register tile: rows `i0..i0+mt` (`mt ≤ 8`; `mt == 8` unless
/// `MASKED`) × columns `j0..j0+NC` of `C` live in `2·NC` `ymm`
/// accumulators across the chunk's whole `k` loop. The masked instance
/// reads and writes only the first `mt` lanes.
///
/// # Safety
/// Caller guarantees AVX2+FMA, `mt` rows × `NC` columns of C at
/// `(i0, j0)`, the same rows of A over the chunk's `k` range, and op(B)
/// coverage of that range × columns `j0..j0+NC`.
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
unsafe fn tile<const NC: usize, const MASKED: bool>(
    op: &Operands,
    ch: Chunk,
    i0: usize,
    mt: usize,
    j0: usize,
) {
    // SAFETY: (whole body) the caller contract above; masked lanes are
    // neither read nor written.
    unsafe {
        let (mask_lo, mask_hi) = if MASKED {
            let rows = _mm256_set1_epi64x(mt as i64);
            (
                _mm256_cmpgt_epi64(rows, _mm256_setr_epi64x(0, 1, 2, 3)),
                _mm256_cmpgt_epi64(rows, _mm256_setr_epi64x(4, 5, 6, 7)),
            )
        } else {
            (_mm256_set1_epi64x(-1), _mm256_set1_epi64x(-1))
        };
        let load = |p: *const f64, mask: __m256i| {
            if MASKED {
                _mm256_maskload_pd(p, mask)
            } else {
                _mm256_loadu_pd(p)
            }
        };
        // The `+ 4` half pointers use `wrapping_add`: in a masked tile of
        // ≤ 4 rows they may point past the buffer, but no lane reads there.
        let c = op.c.add(j0 * op.ldc + i0);
        let mut acc = [[_mm256_setzero_pd(); 2]; NC];
        for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
            let cj = c.add(jj * op.ldc);
            if ch.first && op.beta == 0.0 {
                // leave zeros: β=0 must not read (possibly garbage) C
                continue;
            }
            *lo = load(cj, mask_lo);
            *hi = load(cj.wrapping_add(4), mask_hi);
            if ch.first && op.beta != 1.0 {
                let vb = _mm256_set1_pd(op.beta);
                *lo = _mm256_mul_pd(*lo, vb);
                *hi = _mm256_mul_pd(*hi, vb);
            }
        }
        let a = op.a.add(ch.l0 * op.lda + i0);
        for ll in 0..ch.kk {
            let al = a.add(ll * op.lda);
            let a0 = load(al, mask_lo);
            let a1 = load(al.wrapping_add(4), mask_hi);
            for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
                let s = op.alpha * op.bl.at(op.b, ch.l0 + ll, j0 + jj);
                let vs = _mm256_set1_pd(s);
                *lo = _mm256_fmadd_pd(a0, vs, *lo);
                *hi = _mm256_fmadd_pd(a1, vs, *hi);
            }
        }
        for (jj, &[lo, hi]) in acc.iter().enumerate() {
            let cj = c.add(jj * op.ldc);
            if MASKED {
                _mm256_maskstore_pd(cj, mask_lo, lo);
                _mm256_maskstore_pd(cj.wrapping_add(4), mask_hi, hi);
            } else {
                _mm256_storeu_pd(cj, lo);
                _mm256_storeu_pd(cj.add(4), hi);
            }
        }
    }
}

/// Fused GEMM-scatter: `C[row_map[i], col_offset + j] += Σ_l s(l,j)·A[i,l]`
/// with `s(l, j) = α·op(B)[l, j]·d?[l]`, the full `k` reduction held in
/// the register tile and only the final tile scattered through
/// `row_map` — the direct-scatter pressure rung at SIMD speed with zero
/// scratch memory.
///
/// # Safety
/// Requires AVX2+FMA; `row_map.len() == m`, `d.len() ≥ k` when present,
/// and the destination must cover every `(row_map[i], col_offset + j)`
/// element under `ldc` (asserted by the dispatching update kernel).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn update_scatter_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    d: Option<*const f64>,
    c: *mut f64,
    ldc: usize,
    row_map: &[usize],
    col_offset: usize,
) {
    let m_main = m - m % MR;
    let mut j0 = 0;
    while j0 < n {
        let nt = NR.min(n - j0);
        if nt == NR {
            let mut i0 = 0;
            while i0 < m_main {
                // SAFETY: 8 rows at i0 and 4 cols at j0 are inside the
                // m×n update; the caller's contracts cover A/op(B)/d and
                // every scattered destination element.
                unsafe {
                    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
                    for ll in 0..k {
                        let al = a.add(ll * lda + i0);
                        let a0 = _mm256_loadu_pd(al);
                        let a1 = _mm256_loadu_pd(al.add(4));
                        let dl = d.map_or(1.0, |d| *d.add(ll));
                        for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
                            // Match the portable kernel's scaling order:
                            // (α·b) · d.
                            let s = match d {
                                Some(_) => (alpha * bl.at(b, ll, j0 + jj)) * dl,
                                None => alpha * bl.at(b, ll, j0 + jj),
                            };
                            let vs = _mm256_set1_pd(s);
                            *lo = _mm256_fmadd_pd(a0, vs, *lo);
                            *hi = _mm256_fmadd_pd(a1, vs, *hi);
                        }
                    }
                    let mut tile = [0.0f64; MR * NR];
                    for (jj, &[lo, hi]) in acc.iter().enumerate() {
                        _mm256_storeu_pd(tile.as_mut_ptr().add(jj * MR), lo);
                        _mm256_storeu_pd(tile.as_mut_ptr().add(jj * MR + 4), hi);
                    }
                    // BOUNDS: i0+ii < m == row_map.len(); jj*MR+ii < 32.
                    for jj in 0..NR {
                        let cj = c.add((col_offset + j0 + jj) * ldc);
                        for ii in 0..MR {
                            *cj.add(row_map[i0 + ii]) += tile[jj * MR + ii];
                        }
                    }
                }
                i0 += MR;
            }
        }
        // Remainder rows (nt == NR) or the whole narrow column block:
        // the portable per-`l` scatter loops, preserving its exact
        // association on the edge region.
        let (it0, mt) = if nt == NR { (m_main, m - m_main) } else { (0, m) };
        if mt > 0 {
            // SAFETY: same contracts as above, restricted to the edge.
            unsafe {
                for jj in 0..nt {
                    let cj = c.add((col_offset + j0 + jj) * ldc);
                    for ll in 0..k {
                        let mut s = alpha * bl.at(b, ll, j0 + jj);
                        if let Some(d) = d {
                            s *= *d.add(ll);
                        }
                        if s == 0.0 {
                            continue;
                        }
                        let al = a.add(ll * lda + it0);
                        // BOUNDS: it0+ii < m == row_map.len().
                        for ii in 0..mt {
                            *cj.add(row_map[it0 + ii]) =
                                f64::mul_add(*al.add(ii), s, *cj.add(row_map[it0 + ii]));
                        }
                    }
                }
            }
        }
        j0 += NR;
    }
}

/// `y += s·x` over equal-length slices, 4-wide FMA.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn axpy_f64(s: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let vs = _mm256_set1_pd(s);
    let main = n - n % 4;
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + 4 ≤ main ≤ both lengths.
        unsafe {
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(xv, vs, yv));
        }
        i += 4;
    }
    while i < n {
        // SAFETY: i < n ≤ both lengths.
        unsafe { *yp.add(i) = f64::mul_add(*xp.add(i), s, *yp.add(i)) };
        i += 1;
    }
}

/// `x *= s`, 4-wide.
///
/// # Safety
/// Requires AVX2 (certified by `isa()`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn scale_f64(s: f64, x: &mut [f64]) {
    let n = x.len();
    let vs = _mm256_set1_pd(s);
    let main = n - n % 4;
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < main {
        // SAFETY: i + 4 ≤ main ≤ x.len().
        unsafe { _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), vs)) };
        i += 4;
    }
    while i < n {
        // SAFETY: i < n == x.len().
        unsafe { *xp.add(i) *= s };
        i += 1;
    }
}
