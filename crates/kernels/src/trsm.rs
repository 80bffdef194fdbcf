//! Triangular solve with multiple right-hand sides (column-major TRSM).
//!
//! The panel task of the supernodal factorization (Figure 1, step 2) applies
//! the freshly factorized diagonal block to every off-diagonal block of the
//! panel: `A_i ← A_i · L_kkᵀ⁻¹` for Cholesky, `A_i · U_kk⁻¹` for the L side
//! of LU, and the analogous unit-diagonal solves for LDLᵀ and the
//! (transposed-stored) U side of LU. All eight side/uplo/trans combinations
//! are provided so the solve phase can reuse the kernel.

use crate::gemm::{axpy, gemm};
use crate::scalar::Scalar;
use crate::simd;

/// Which side the triangular matrix multiplies from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(T)·X = B`.
    Left,
    /// Solve `X·op(T) = B`.
    Right,
}

/// Which triangle of `t` holds the data.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are taken from `t`.
    NonUnit,
    /// Diagonal entries are implicitly one (e.g. the `L` factor of LU/LDLᵀ).
    Unit,
}

pub use crate::gemm::Trans;

/// Solve a triangular system in place: `B` (`m×n`, leading dimension `ldb`)
/// is overwritten with the solution `X` of `op(T)·X = B` (left) or
/// `X·op(T) = B` (right), where `T` is the `k×k` triangle (`k = m` for left,
/// `k = n` for right) stored in `t` with leading dimension `ldt`.
#[allow(clippy::too_many_arguments)]
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    match side {
        Side::Left => trsm_left(uplo, trans, diag, m, n, t, ldt, b, ldb),
        Side::Right => trsm_right(uplo, trans, diag, m, n, t, ldt, b, ldb),
    }
}

/// Effective triangle entry `op(T)[i, j]`, honoring transposition and
/// conjugation; callers guarantee `(i, j)` is inside the stored triangle of
/// the *transposed* view.
#[inline]
fn tval<T: Scalar>(t: &[T], ldt: usize, trans: Trans, i: usize, j: usize) -> T {
    // BOUNDS: (i, j) inside the stored triangle and the ldt shape
    // contract debug-asserted by trsm_left/trsm_right (doc above).
    match trans {
        Trans::NoTrans => t[j * ldt + i],
        Trans::Trans => t[i * ldt + j],
        Trans::ConjTrans => t[i * ldt + j].conj(),
    }
}

/// Is `op(T)` lower triangular?
#[inline]
fn effective_lower(uplo: Uplo, trans: Trans) -> bool {
    match (uplo, trans) {
        (Uplo::Lower, Trans::NoTrans) => true,
        (Uplo::Lower, _) => false,
        (Uplo::Upper, Trans::NoTrans) => false,
        (Uplo::Upper, _) => true,
    }
}

#[allow(clippy::too_many_arguments)]
fn trsm_left<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    debug_assert!(ldt >= m && t.len() >= ldt * (m - 1) + m);
    debug_assert!(ldb >= m && b.len() >= ldb * (n - 1) + m);
    let lower = effective_lower(uplo, trans);
    for j in 0..n {
        // BOUNDS: j < n and the ldb shape contract asserted above; col
        // has length m so col[k] with k < m is in range.
        let col = &mut b[j * ldb..j * ldb + m];
        if lower {
            // Forward substitution.
            // BOUNDS: k < m == col.len().
            for k in 0..m {
                let mut xk = col[k];
                if diag == Diag::NonUnit {
                    xk /= tval(t, ldt, trans, k, k);
                }
                col[k] = xk;
                if xk != T::zero() {
                    for (i, ci) in col.iter_mut().enumerate().skip(k + 1) {
                        let lik = tval(t, ldt, trans, i, k);
                        *ci -= lik * xk;
                    }
                }
            }
        } else {
            // Backward substitution.
            // BOUNDS: k < m == col.len().
            for k in (0..m).rev() {
                let mut xk = col[k];
                if diag == Diag::NonUnit {
                    xk /= tval(t, ldt, trans, k, k);
                }
                col[k] = xk;
                if xk != T::zero() {
                    for (i, ci) in col.iter_mut().enumerate().take(k) {
                        let uik = tval(t, ldt, trans, i, k);
                        *ci -= uik * xk;
                    }
                }
            }
        }
    }
}

/// `B[:, dst] += s · B[:, src]` for two distinct columns of a column-major
/// buffer.
#[inline]
fn col_axpy<T: Scalar>(b: &mut [T], ldb: usize, m: usize, s: T, src: usize, dst: usize) {
    debug_assert_ne!(src, dst);
    let (lo, hi) = (src.min(dst), src.max(dst));
    // BOUNDS: src/dst are column indices < n under trsm_right's ldb
    // shape contract, so both column slices are inside b.
    let (head, tail) = b.split_at_mut(hi * ldb);
    let (col_lo, col_hi) = (&mut head[lo * ldb..lo * ldb + m], &mut tail[..m]);
    let (x, y) = if src < dst { (col_lo, col_hi) } else { (col_hi, col_lo) };
    if !simd::try_axpy(s, x, y) {
        axpy(s, x, y);
    }
}

/// Column-block width of the left-looking ascending [`trsm_right`] sweep.
const NB: usize = 32;

#[allow(clippy::too_many_arguments)]
fn trsm_right<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    debug_assert!(ldt >= n && t.len() >= ldt * (n - 1) + n);
    debug_assert!(ldb >= m && b.len() >= ldb * (n - 1) + m);
    // X · op(T) = B. Column j of B couples X[:, l] for l on one side of j:
    //   B[:, j] = Σ_l X[:, l] · op(T)[l, j]
    // op(T) effectively *lower* → l ≥ j → solve j descending;
    // op(T) effectively *upper* → l ≤ j → solve j ascending.
    let lower = effective_lower(uplo, trans);
    if lower {
        // Descending, column by column.
        for j in (0..n).rev() {
            solve_column(trans, diag, m, t, ldt, b, ldb, j, j + 1..n);
        }
        return;
    }
    // Ascending, left-looking in blocks of NB columns: one GEMM subtracts
    // every solved column from the whole block, then the block's own
    // columns solve one by one. Each element of column j still receives
    // one multiply-add per solved l in ascending order (the GEMM's l
    // range precedes the block's), rounded the same way on both sides.
    // Where the two would round differently, the solve is one block: the
    // plain column sweep.
    let nb = if simd::gemm_rounds_like_axpy(m) { NB } else { n };
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + nb).min(n);
        if j0 > 0 {
            // B[:, j0..j1] -= X[:, 0..j0] · op(T)[0..j0, j0..j1].
            // op(T)[l, j] is t[j*ldt + l] untransposed, t[l*ldt + j]
            // (conjugated) otherwise.
            let toff = if trans == Trans::NoTrans { j0 * ldt } else { j0 };
            let (x, blk) = b.split_at_mut(j0 * ldb);
            // BOUNDS: toff ≤ j0·ldt < t.len() under the ldt contract
            // asserted above; gemm re-asserts every operand's extent.
            gemm(
                Trans::NoTrans,
                trans,
                m,
                j1 - j0,
                j0,
                -T::one(),
                x,
                ldb,
                &t[toff..],
                ldt,
                T::one(),
                blk,
                ldb,
            );
        }
        for j in j0..j1 {
            solve_column(trans, diag, m, t, ldt, b, ldb, j, j0..j);
        }
        j0 = j1;
    }
}

/// `X[:, j] = (B[:, j] − Σ_{l ∈ solved} X[:, l]·op(T)[l, j]) / op(T)[j, j]`,
/// one axpy per `l` in ascending order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn solve_column<T: Scalar>(
    trans: Trans,
    diag: Diag,
    m: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
    j: usize,
    solved: core::ops::Range<usize>,
) {
    for l in solved {
        let coef = tval(t, ldt, trans, l, j);
        if coef == T::zero() {
            continue;
        }
        // col_j -= coef * col_l; the two columns are disjoint (l != j).
        col_axpy(b, ldb, m, -coef, l, j);
    }
    if diag == Diag::NonUnit {
        let d = tval(t, ldt, trans, j, j).inv();
        // BOUNDS: j < n against trsm_right's ldb/b-length contract.
        let col = &mut b[j * ldb..j * ldb + m];
        if !simd::try_scale(d, col) {
            for v in col {
                *v *= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Build a well-conditioned k×k triangle (identity + small noise).
    fn make_triangle(k: usize, uplo: Uplo, seed: u64) -> Vec<f64> {
        let mut t = rand_vec(k * k, seed);
        for j in 0..k {
            for i in 0..k {
                let keep = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if !keep {
                    t[j * k + i] = f64::NAN; // must never be read
                } else if i == j {
                    t[j * k + i] = 2.0 + t[j * k + i].abs();
                } else {
                    t[j * k + i] *= 0.3;
                }
            }
        }
        t
    }

    /// op(T) as a dense matrix with unit-diag handling, for verification.
    fn dense_op(
        t: &[f64],
        k: usize,
        uplo: Uplo,
        trans: Trans,
        diag: Diag,
    ) -> Vec<f64> {
        let mut full = vec![0.0; k * k];
        for j in 0..k {
            for i in 0..k {
                let inside = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if inside {
                    full[j * k + i] = if i == j && diag == Diag::Unit {
                        1.0
                    } else {
                        t[j * k + i]
                    };
                }
            }
        }
        if trans == Trans::NoTrans {
            full
        } else {
            let mut tr = vec![0.0; k * k];
            for j in 0..k {
                for i in 0..k {
                    tr[j * k + i] = full[i * k + j];
                }
            }
            tr
        }
    }

    #[test]
    fn all_combinations_solve_correctly() {
        let m = 6;
        let n = 4;
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &trans in &[Trans::NoTrans, Trans::Trans] {
                    for &diag in &[Diag::NonUnit, Diag::Unit] {
                        let k = if side == Side::Left { m } else { n };
                        let t = make_triangle(k, uplo, 42);
                        let b0 = rand_vec(m * n, 7);
                        let mut x = b0.clone();
                        trsm(side, uplo, trans, diag, m, n, &t, k, &mut x, m);
                        // Verify op(T)·X = B (left) or X·op(T) = B (right).
                        let opt = dense_op(&t, k, uplo, trans, diag);
                        let mut prod = vec![0.0; m * n];
                        match side {
                            Side::Left => gemm(
                                Trans::NoTrans,
                                Trans::NoTrans,
                                m,
                                n,
                                m,
                                1.0,
                                &opt,
                                m,
                                &x,
                                m,
                                0.0,
                                &mut prod,
                                m,
                            ),
                            Side::Right => gemm(
                                Trans::NoTrans,
                                Trans::NoTrans,
                                m,
                                n,
                                n,
                                1.0,
                                &x,
                                m,
                                &opt,
                                n,
                                0.0,
                                &mut prod,
                                m,
                            ),
                        }
                        for (p, b) in prod.iter().zip(b0.iter()) {
                            assert!(
                                (p - b).abs() < 1e-10,
                                "{side:?} {uplo:?} {trans:?} {diag:?}: {p} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn complex_conj_trans_right_lower() {
        // The Hermitian panel solve used by a complex Cholesky:
        // X · L^H = B.
        let n = 3;
        let m = 2;
        let mut l = vec![C64::new(0.0, 0.0); n * n];
        for j in 0..n {
            for i in j..n {
                l[j * n + i] = if i == j {
                    C64::new(2.0 + i as f64, 0.0)
                } else {
                    C64::new(0.1 * i as f64, 0.2 * j as f64 + 0.1)
                };
            }
        }
        let b0: Vec<C64> = (0..m * n)
            .map(|i| C64::new(i as f64 + 1.0, -(i as f64)))
            .collect();
        let mut x = b0.clone();
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::ConjTrans,
            Diag::NonUnit,
            m,
            n,
            &l,
            n,
            &mut x,
            m,
        );
        // Check X·L^H = B.
        let mut prod = vec![C64::new(0.0, 0.0); m * n];
        gemm(
            Trans::NoTrans,
            Trans::ConjTrans,
            m,
            n,
            n,
            C64::new(1.0, 0.0),
            &x,
            m,
            &l,
            n,
            C64::new(0.0, 0.0),
            &mut prod,
            m,
        );
        for (p, b) in prod.iter().zip(b0.iter()) {
            assert!((*p - *b).modulus() < 1e-10);
        }
    }
}
