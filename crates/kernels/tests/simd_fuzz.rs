//! Differential fuzz: the SIMD tier against the portable kernels.
//!
//! The dispatched [`dagfact_kernels::gemm`] front door is compared against
//! [`dagfact_kernels::gemm_portable`] over a SplitMix64-seeded sweep of all
//! `Trans` combinations, the shape set `{0,1,2,3,7,8,9,31,32,33}` for each
//! of `m,n,k` (crossing register-tile edges 7/8/9 and cache-ish 31/32/33),
//! odd leading-dimension strides, and `alpha/beta ∈ {0,1,-1,0.5}`.
//!
//! Tolerance: where the dispatch *declines* (transposed-A arms, tiny `m`,
//! scalar hosts) both calls run the identical code path and must agree
//! **bitwise**. Where the AVX2 tier runs, the only licensed difference is
//! FMA contraction with the portable accumulation order preserved, so the
//! error is bounded by a few ulp *of the accumulated magnitude*: we assert
//! `|Δ| ≤ 4·ulp(|y|)` or `|Δ| ≤ 4ε·(|αβ|-scaled magnitude bound)` —
//! far below any indexing or tile-edge bug, which shows up at the
//! magnitude of the operands themselves.

use dagfact_kernels::gemm::{gemm, gemm_portable, Trans};
use dagfact_kernels::update::{
    pack_b, update_scatter_direct, update_scatter_packed, update_via_buffer,
    update_via_buffer_packed, Scatter,
};

/// SplitMix64 — the seeded generator of the sweep.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in (-1, 1), never exactly zero (keeps the skip-zero
    /// shortcuts of the portable kernel out of play).
    fn unit(&mut self) -> f64 {
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let s = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        s * (v * 0.999 + 0.001)
    }

    fn fill(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }
}

const SIZES: [usize; 10] = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33];
const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

/// `|x - y|` within 4 ulp of either value, or within a 4ε-scaled bound of
/// the accumulated magnitude `mag` (covers catastrophic cancellation,
/// where value-relative ulp comparison is meaningless).
fn close(x: f64, y: f64, mag: f64) -> bool {
    if x == y {
        return true;
    }
    let diff = (x - y).abs();
    let ulp = f64::EPSILON * x.abs().max(y.abs());
    diff <= 4.0 * ulp || diff <= 4.0 * f64::EPSILON * mag
}

/// Magnitude bound of one GEMM output element: `|α|·k·max|a|·max|b| +
/// |β|·max|c₀|`.
fn mag_bound(k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c0: &[f64]) -> f64 {
    let amax = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    let bmax = b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    let cmax = c0.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    alpha.abs() * k as f64 * amax * bmax + beta.abs() * cmax
}

#[test]
fn gemm_simd_matches_portable_across_shapes_trans_and_strides() {
    let trans = [Trans::NoTrans, Trans::Trans, Trans::ConjTrans];
    let mut rng = SplitMix64(0xDA6F_AC75_9E37_79B9);
    let mut coeff_ix = 0usize;
    let mut cases = 0usize;
    for &ta in &trans {
        for &tb in &trans {
            for &m in &SIZES {
                for &n in &SIZES {
                    for &k in &SIZES {
                        // Round-robin the coefficient grid so every
                        // (α, β) pair recurs many times across shapes.
                        let alpha = COEFFS[coeff_ix % 4];
                        let beta = COEFFS[(coeff_ix / 4) % 4];
                        coeff_ix += 1;
                        // Odd strides beyond the minimal leading dimension.
                        let pad = 1 + 2 * ((coeff_ix / 16) % 3); // 1, 3, 5
                        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
                        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
                        let lda = ar + pad;
                        let ldb = br + pad;
                        let ldc = m + pad;
                        let a = rng.fill(lda * ac.max(1));
                        let b = rng.fill(ldb * bc.max(1));
                        let c0 = rng.fill(ldc * n.max(1));
                        let mut c_simd = c0.clone();
                        let mut c_port = c0.clone();
                        gemm(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_simd, ldc,
                        );
                        gemm_portable(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_port, ldc,
                        );
                        let mag = mag_bound(k, alpha, &a, &b, beta, &c0);
                        let shared_path = dagfact_kernels::isa() != dagfact_kernels::Isa::Avx2
                            || ta != Trans::NoTrans
                            || m < dagfact_kernels::simd::MR;
                        for (i, (&x, &y)) in c_simd.iter().zip(&c_port).enumerate() {
                            if shared_path {
                                assert!(
                                    x == y || (x.is_nan() && y.is_nan()),
                                    "shared path must be bitwise equal: \
                                     {ta:?}x{tb:?} m={m} n={n} k={k} @{i}: {x:?} vs {y:?}"
                                );
                            } else {
                                assert!(
                                    close(x, y, mag),
                                    "SIMD drift beyond bound: {ta:?}x{tb:?} m={m} n={n} k={k} \
                                     α={alpha} β={beta} @{i}: {x:?} vs {y:?} (mag {mag:e})"
                                );
                            }
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 9 * SIZES.len().pow(3));
}

/// Build a strictly-increasing gappy row map of length `m` into `rows`
/// storage rows.
fn gappy_row_map(rng: &mut SplitMix64, m: usize, rows: usize) -> Vec<usize> {
    assert!(rows > 2 * m);
    let mut map = Vec::with_capacity(m);
    let mut next = 0usize;
    let slack = rows - 2 * m;
    for i in 0..m {
        next += (rng.next_u64() as usize % (slack / m.max(1) + 2)).min(2) + (i > 0) as usize;
        map.push(next.min(rows - (m - i)));
        next = *map.last().unwrap();
    }
    map
}

#[test]
fn update_scatter_direct_matches_buffer_variant_over_sweep() {
    let mut rng = SplitMix64(0x5EED_CAFE);
    for &m in &[1usize, 7, 8, 9, 16, 33] {
        for &n in &[1usize, 3, 4, 5, 32] {
            for &k in &[1usize, 2, 8, 31] {
                for d_present in [false, true] {
                    let lda1 = m + 1;
                    let lda2 = n + 3;
                    let a1 = rng.fill(lda1 * k);
                    let a2 = rng.fill(lda2 * k);
                    let d = rng.fill(k);
                    let dref = d_present.then_some(&d[..]);
                    let rows = 2 * m + 3;
                    let row_map = gappy_row_map(&mut rng, m, rows);
                    let ldc = rows;
                    let ncols = n + 2;
                    let c0 = rng.fill(ldc * ncols);
                    let scatter = Scatter { row_map: &row_map, col_offset: 1 };
                    let mut c_dir = c0.clone();
                    update_scatter_direct(
                        m, n, k, -1.0, &a1, lda1, &a2, lda2, dref, &mut c_dir, ldc, scatter,
                    );
                    let mut c_buf = c0.clone();
                    let mut work = Vec::new();
                    update_via_buffer(
                        m, n, k, -1.0, &a1, lda1, &a2, lda2, dref, &mut work, &mut c_buf, ldc,
                        scatter,
                    );
                    let mag = mag_bound(k, 1.0, &a1, &a2, 1.0, &c0)
                        * if d_present { 2.0 } else { 1.0 };
                    for (i, (&x, &y)) in c_dir.iter().zip(&c_buf).enumerate() {
                        assert!(
                            close(x, y, mag),
                            "direct vs buffer: m={m} n={n} k={k} d={d_present} @{i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn packed_variants_match_unpacked_over_sweep() {
    let mut rng = SplitMix64(0xBADC_0FFE);
    for &m in &[1usize, 8, 9, 33] {
        for &n in &[1usize, 4, 5, 17] {
            for &k in &[1usize, 8, 31] {
                for d_present in [false, true] {
                    let lda1 = m + 3;
                    let lda2 = n + 1;
                    let a1 = rng.fill(lda1 * k);
                    let a2 = rng.fill(lda2 * k);
                    let d = rng.fill(k);
                    let dref = d_present.then_some(&d[..]);
                    let mut pack = vec![0.0f64; k * n];
                    pack_b(n, k, dref, &a2, lda2, &mut pack);
                    let rows = 2 * m + 2;
                    let row_map = gappy_row_map(&mut rng, m, rows);
                    let ldc = rows;
                    let c0 = rng.fill(ldc * (n + 1));
                    let scatter = Scatter { row_map: &row_map, col_offset: 0 };
                    let mag = mag_bound(k, 1.0, &a1, &a2, 1.0, &c0)
                        * if d_present { 2.0 } else { 1.0 };

                    // Buffered: packed vs unpacked.
                    let mut c_ref = c0.clone();
                    let mut work = Vec::new();
                    update_via_buffer(
                        m, n, k, -0.5, &a1, lda1, &a2, lda2, dref, &mut work, &mut c_ref, ldc,
                        scatter,
                    );
                    let mut c_pk = c0.clone();
                    let mut work2 = Vec::new();
                    update_via_buffer_packed(
                        m, n, k, -0.5, &a1, lda1, &pack, &mut work2, &mut c_pk, ldc, scatter,
                    );
                    for (i, (&x, &y)) in c_pk.iter().zip(&c_ref).enumerate() {
                        assert!(
                            close(x, y, mag),
                            "buffered packed: m={m} n={n} k={k} d={d_present} @{i}: {x} vs {y}"
                        );
                    }

                    // Direct-scatter: packed vs unpacked.
                    let mut c_dref = c0.clone();
                    update_scatter_direct(
                        m, n, k, -0.5, &a1, lda1, &a2, lda2, dref, &mut c_dref, ldc, scatter,
                    );
                    let mut c_dpk = c0.clone();
                    update_scatter_packed(
                        m, n, k, -0.5, &a1, lda1, &pack, &mut c_dpk, ldc, scatter,
                    );
                    for (i, (&x, &y)) in c_dpk.iter().zip(&c_dref).enumerate() {
                        assert!(
                            close(x, y, mag),
                            "scatter packed: m={m} n={n} k={k} d={d_present} @{i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bitwise oracles: the register tile and the blocked panel TRSM
// ---------------------------------------------------------------------

/// `C ← α·A·op(B) + β·C` in the SIMD tier's association: `β·C` (β = 0
/// writes zero, never reading C), then one fused multiply-add per `l` in
/// ascending order with `s = α·op(B)[l, j]`.
#[allow(clippy::too_many_arguments)]
fn fma_gemm_reference(
    b_trans: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        for i in 0..m {
            let cij = &mut c[j * ldc + i];
            let mut x = if beta == 0.0 { 0.0 } else { beta * *cij };
            for l in 0..k {
                let bl = if b_trans { b[l * ldb + j] } else { b[j * ldb + l] };
                x = f64::mul_add(a[l * lda + i], alpha * bl, x);
            }
            *cij = x;
        }
    }
}

/// Every ragged edge of the register tile: all `m` in 8..=41 (row tails
/// 0..7 after full tiles) × all `n` in 1..=9 (column tails 1..3) × `k`
/// across the `kc = 256` chunk boundary, both `op(B)` layouts, padded
/// strides and every (α, β) pair. The dispatched GEMM must equal the
/// FMA reference bit for bit on the AVX2 tier; below `MR` rows (the
/// dispatch declines) it must equal `gemm_portable` bit for bit.
#[test]
fn gemm_tile_matches_fma_reference_bitwise() {
    const ALPHAS: [f64; 3] = [1.0, -1.0, 0.5];
    const BETAS: [f64; 4] = [0.0, 1.0, 0.5, -1.0];
    let avx2 = dagfact_kernels::isa() == dagfact_kernels::Isa::Avx2;
    if !avx2 {
        eprintln!(
            "gemm_tile_matches_fma_reference_bitwise: SKIPPING the FMA cases — \
             the active tier is {}; only the m < 8 portable cases run",
            dagfact_kernels::isa().name()
        );
    }
    let mut rng = SplitMix64(0x7111_E0F5_EED5_0001);
    let mut case = 0usize;
    for m in 1..=41usize {
        if m >= dagfact_kernels::simd::MR && !avx2 {
            continue;
        }
        for n in 1..=9usize {
            for k in [1usize, 7, 33, 300] {
                for b_trans in [false, true] {
                    let alpha = ALPHAS[case % 3];
                    let beta = BETAS[(case / 3) % 4];
                    case += 1;
                    let (lda, ldc) = (m + 1 + case % 3, m + 2);
                    let ldb = if b_trans { n + 3 } else { k + 1 };
                    let a = rng.fill(lda * k);
                    let b = rng.fill(ldb * if b_trans { k } else { n });
                    let c0 = rng.fill(ldc * n);
                    let tb = if b_trans { Trans::Trans } else { Trans::NoTrans };
                    let mut got = c0.clone();
                    gemm(Trans::NoTrans, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut got, ldc);
                    let mut want = c0.clone();
                    if m < dagfact_kernels::simd::MR {
                        gemm_portable(
                            Trans::NoTrans, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want,
                            ldc,
                        );
                    } else {
                        fma_gemm_reference(
                            b_trans, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut want, ldc,
                        );
                    }
                    for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "m={m} n={n} k={k} b_trans={b_trans} α={alpha} β={beta} @{i}: \
                             {x:?} vs {y:?}"
                        );
                    }
                }
            }
        }
    }
}

/// A well-conditioned `k×k` triangle in `uplo` with leading dimension
/// `ldt`: diagonal in [2, 3), off-diagonal entries of order `1/k` (so
/// long solves neither overflow nor underflow), NaN outside the triangle
/// (never read).
fn triangle(rng: &mut SplitMix64, k: usize, ldt: usize, upper: bool) -> Vec<f64> {
    let mut t = vec![f64::NAN; ldt * k];
    for j in 0..k {
        for i in 0..k {
            if (upper && i <= j) || (!upper && i >= j) {
                let r = rng.unit();
                t[j * ldt + i] = if i == j { 2.0 + r.abs() } else { r / k as f64 };
            }
        }
    }
    t
}

/// `X·op(T) = B` column by column: for each `j` in solve order, one
/// multiply-add per already-solved `l` in ascending order (fused when
/// `fused`), then the scale by `1/op(T)[j, j]`.
#[allow(clippy::too_many_arguments)]
fn trsm_right_reference(
    upper_stored: bool,
    trans: Trans,
    unit: bool,
    fused: bool,
    m: usize,
    n: usize,
    t: &[f64],
    ldt: usize,
    b: &mut [f64],
    ldb: usize,
) {
    let op = |l: usize, j: usize| match trans {
        Trans::NoTrans => t[j * ldt + l],
        _ => t[l * ldt + j],
    };
    // op(T) effectively upper ⇔ the solve runs ascending.
    let ascending = upper_stored == (trans == Trans::NoTrans);
    for jj in 0..n {
        let j = if ascending { jj } else { n - 1 - jj };
        let solved = if ascending { 0..j } else { j + 1..n };
        for l in solved {
            let s = -op(l, j);
            for i in 0..m {
                let (x, y) = (b[l * ldb + i], b[j * ldb + i]);
                b[j * ldb + i] = if fused { f64::mul_add(x, s, y) } else { y + s * x };
            }
        }
        if !unit {
            let d = 1.0 / op(j, j);
            for i in 0..m {
                b[j * ldb + i] *= d;
            }
        }
    }
}

/// The right-side TRSM against the per-column reference, bit for bit:
/// the four ascending panel variants (Cholesky and LDLᵀ `Lower·Trans`,
/// LU's `Upper·NoTrans` sides) cross the NB = 32 block edges, plus the
/// descending variants and `m < 8`, which stay column by column. The
/// reference fuses on the AVX2 tier and does plain multiply-add on the
/// portable tier (the `--no-default-features` leg).
#[test]
fn trsm_right_matches_per_column_reference_bitwise() {
    use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
    let fused = dagfact_kernels::isa() == dagfact_kernels::Isa::Avx2;
    let ascending = [
        (Uplo::Lower, Trans::Trans, Diag::NonUnit),
        (Uplo::Lower, Trans::Trans, Diag::Unit),
        (Uplo::Upper, Trans::NoTrans, Diag::NonUnit),
        (Uplo::Upper, Trans::NoTrans, Diag::Unit),
    ];
    let descending = [
        (Uplo::Lower, Trans::NoTrans, Diag::NonUnit),
        (Uplo::Upper, Trans::Trans, Diag::Unit),
    ];
    let mut rng = SplitMix64(0x7125_3B10_C4ED_0002);
    for &(uplo, trans, diag) in ascending.iter().chain(&descending) {
        for n in [1usize, 31, 32, 33, 64, 65, 130] {
            for m in [1usize, 7, 8, 9, 37, 257] {
                let (ldt, ldb) = (n + 3, m + 5);
                let t = triangle(&mut rng, n, ldt, uplo == Uplo::Upper);
                let b0 = rng.fill(ldb * n);
                let mut got = b0.clone();
                trsm(Side::Right, uplo, trans, diag, m, n, &t, ldt, &mut got, ldb);
                let mut want = b0;
                trsm_right_reference(
                    uplo == Uplo::Upper,
                    trans,
                    diag == Diag::Unit,
                    fused,
                    m,
                    n,
                    &t,
                    ldt,
                    &mut want,
                    ldb,
                );
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert!(x.is_finite(), "{uplo:?}·{trans:?} m={m} n={n}: non-finite @{i}");
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{uplo:?}·{trans:?}·{diag:?} m={m} n={n} @{i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shape-contract regressions (the PR 9 bug burn-down)
// ---------------------------------------------------------------------

/// Pre-fix, a short `d` silently left stale pooled-workspace contents in
/// the tail of the D·Lᵀ staging block (`d.iter().take(k)` stops early);
/// the GEMM then consumed garbage. Post-fix it must refuse up front —
/// this test *fails* on the pre-fix code, which completes without
/// panicking.
#[test]
#[should_panic(expected = "update_via_buffer: d.len()")]
fn update_via_buffer_rejects_short_d() {
    let (m, n, k) = (4, 3, 5);
    let a1 = vec![1.0f64; m * k];
    let a2 = vec![1.0f64; n * k];
    let d_short = vec![2.0f64; k - 2];
    let row_map = [0usize, 1, 2, 3];
    // Poisoned pooled workspace: pre-fix these NaNs flowed into C.
    let mut work = vec![f64::NAN; m * n + k * n];
    let mut c = vec![0.0f64; 8 * n];
    update_via_buffer(
        m,
        n,
        k,
        -1.0,
        &a1,
        m,
        &a2,
        n,
        Some(&d_short),
        &mut work,
        &mut c,
        8,
        Scatter { row_map: &row_map, col_offset: 0 },
    );
}

/// Same audit on the direct-scatter variant: a short `d` would have
/// index-panicked mid-scatter *after* partially mutating C; it must fail
/// before the first write.
#[test]
#[should_panic(expected = "update_scatter_direct: d.len()")]
fn update_scatter_direct_rejects_short_d() {
    let (m, n, k) = (4, 2, 6);
    let a1 = vec![1.0f64; m * k];
    let a2 = vec![1.0f64; n * k];
    let d_short = vec![2.0f64; 1];
    let row_map = [0usize, 2, 3, 5];
    let mut c = vec![0.0f64; 6 * n];
    update_scatter_direct(
        m,
        n,
        k,
        -1.0,
        &a1,
        m,
        &a2,
        n,
        Some(&d_short),
        &mut c,
        6,
        Scatter { row_map: &row_map, col_offset: 0 },
    );
}

/// The `c.len()` contract is a real assert now: an undersized `C` with a
/// large `ldc` must fail before any element is written, not slice-panic
/// mid-update in release.
#[test]
#[should_panic(expected = "gemm: C buffer too small")]
fn gemm_rejects_undersized_c_before_writing() {
    let a = vec![1.0f64; 4];
    let b = vec![1.0f64; 4];
    // m=2, n=2 with ldc=100: needs 102 elements, only 4 supplied.
    let mut c = vec![0.0f64; 4];
    gemm(
        Trans::NoTrans,
        Trans::Trans,
        2,
        2,
        2,
        1.0,
        &a,
        2,
        &b,
        2,
        0.0,
        &mut c,
        100,
    );
}

/// Row-map / m mismatches fail up front on both variants.
#[test]
#[should_panic(expected = "row_map/m mismatch")]
fn update_scatter_direct_rejects_short_row_map() {
    let (m, n, k) = (4, 2, 2);
    let a1 = vec![1.0f64; m * k];
    let a2 = vec![1.0f64; n * k];
    let row_map = [0usize, 1]; // too short for m = 4
    let mut c = vec![0.0f64; 8 * n];
    update_scatter_direct(
        m,
        n,
        k,
        -1.0,
        &a1,
        m,
        &a2,
        n,
        None,
        &mut c,
        8,
        Scatter { row_map: &row_map, col_offset: 0 },
    );
}
