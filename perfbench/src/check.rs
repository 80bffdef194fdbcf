//! The answer check. Every op's solution is certified here, with the
//! public `spmv`, never by trusting the solver's own residual history.

use dagfact_kernels::Scalar;
use dagfact_sparse::CscMatrix;

/// Bar on the normwise backward error ‖b−Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞).
pub const BERR_BAR: f64 = 1e-12;

/// Bar on the forward error ‖x−x_true‖∞ / ‖x_true‖∞ (served-mix, whose
/// working set is well conditioned: every member is diagonally
/// dominant).
pub const FERR_BAR: f64 = 1e-8;

/// ‖v‖∞ over scalar moduli.
pub fn inf_norm<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).fold(0.0, f64::max)
}

/// Normwise backward error of `x` for `A·x = b`; infinite when `x` has
/// the wrong length or is not finite.
pub fn backward_error<T: Scalar>(a: &CscMatrix<T>, x: &[T], b: &[T]) -> f64 {
    // f64::max skips NaN, so a non-finite entry must be caught up front.
    if x.len() != a.ncols() || b.len() != a.nrows() || !x.iter().all(|v| v.is_finite()) {
        return f64::INFINITY;
    }
    let mut r = vec![T::zero(); b.len()];
    a.spmv(x, &mut r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let berr = inf_norm(&r) / (a.norm_inf() * inf_norm(x) + inf_norm(b)).max(f64::MIN_POSITIVE);
    if berr.is_finite() {
        berr
    } else {
        f64::INFINITY
    }
}

/// Relative forward error of `x` against the known solution.
pub fn forward_error<T: Scalar>(x: &[T], x_true: &[T]) -> f64 {
    if x.len() != x_true.len() || !x.iter().all(|v| v.is_finite()) {
        return f64::INFINITY;
    }
    let diff = x
        .iter()
        .zip(x_true)
        .map(|(&a, &b)| (a - b).modulus())
        .fold(0.0, f64::max);
    let ferr = diff / inf_norm(x_true).max(f64::MIN_POSITIVE);
    if ferr.is_finite() {
        ferr
    } else {
        f64::INFINITY
    }
}

/// `true` when `x` solves `A·x = b` to the backward-error bar.
pub fn certify<T: Scalar>(a: &CscMatrix<T>, x: &[T], b: &[T]) -> bool {
    backward_error(a, x, b) <= BERR_BAR
}
