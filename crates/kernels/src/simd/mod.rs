//! Runtime-dispatched SIMD microkernels (ROADMAP item 2).
//!
//! The portable kernels in [`crate::gemm`] / [`crate::update`] are safe
//! blocked Rust compiled for the baseline target (SSE2 on x86-64). This
//! module adds explicit `std::arch` AVX2+FMA microkernels behind *runtime*
//! feature detection, so one binary runs everywhere and uses the wide
//! path where the host supports it:
//!
//! * [`isa()`] — the cached dispatch decision. Detection
//!   (`is_x86_feature_detected!`) runs once; every later call is a single
//!   relaxed atomic load, so dispatch is legal inside the hot-path purity
//!   roots (no allocation, no locks, no panics).
//! * [`avx2`] — the f64 GEMM microkernel: one masked register tile of
//!   up to 8×4 for every shape, with mc/kc/nc cache blocking, plus the
//!   fused GEMM-scatter epilogue used by the direct-scatter pressure rung.
//! * [`Blocking`] — the autotunable block sizes. Defaults suit a
//!   ~32 KiB L1 / ~1 MiB L2 core; `kernels_bench --tune` sweeps
//!   candidates and persists the winner, which replays through the
//!   `DAGFACT_KERNELS_BLOCK=mc,kc,nc` environment variable (read once,
//!   at first dispatch).
//!
//! Scalar fallback is the portable kernel itself: every entry point here
//! returns `false` (or routes to plain loops) when the host lacks AVX2,
//! the element type is not `f64`, or the crate is built with
//! `--no-default-features` (feature `simd` off) — that build is how CI
//! keeps the fallback tested on any host.
//!
//! Numerical note: the AVX2 path contracts multiply-add pairs into FMAs
//! and vectorizes the row loop; results can differ from the portable
//! kernel by a few ulp (the differential fuzz suite pins the bound at
//! ≤ 4 ulp). Accumulation *order* over `k` is preserved, so the drift is
//! rounding-only, never catastrophic.

use crate::scalar::Scalar;
use core::any::TypeId;
use core::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;

/// Instruction-set tier selected by runtime dispatch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable blocked Rust (the baseline-target build of the crate).
    Scalar,
    /// AVX2 + FMA f64 microkernels.
    Avx2,
}

impl Isa {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = undetected, 1 = scalar, 2 = avx2.
static ISA_CACHE: AtomicU8 = AtomicU8::new(0);

/// The active instruction-set tier. First call detects and caches;
/// every later call is one relaxed load — cheap enough for the GEMM
/// entry point.
#[inline]
pub fn isa() -> Isa {
    // ORDERING: one-time monotonic cache of a pure hardware property;
    // racing initializers write the same value, readers need no
    // happens-before beyond the value itself.
    match ISA_CACHE.load(Ordering::Relaxed) {
        1 => Isa::Scalar,
        2 => Isa::Avx2,
        _ => detect_and_cache(),
    }
}

/// Force the dispatch decision (tests and the bench harness compare the
/// portable and SIMD paths in one process). Overrides detection until
/// the next call.
pub fn force_isa(isa: Isa) {
    // A force ahead of the first isa() call skips detect_and_cache()
    // entirely, so the persisted autotune choice must be seeded here
    // too (once-guarded — see load_env_blocking).
    load_env_blocking();
    let v = match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
    };
    // ORDERING: same monotonic-cache discipline as `isa()`.
    ISA_CACHE.store(v, Ordering::Relaxed);
}

/// Cold path of [`isa()`]: probe the CPU, honor overrides, seed the
/// blocking knobs from the environment, cache the verdict.
#[cold]
fn detect_and_cache() -> Isa {
    load_env_blocking();
    let detected = detect();
    let v = match detected {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
    };
    // Install only if still unseeded: a concurrent force_isa() racing
    // ahead of first detection must win, not be clobbered (bench/test
    // tier pinning).
    // ORDERING: same monotonic-cache discipline as `isa()` — the value
    // itself is the only payload, no happens-before needed.
    match ISA_CACHE.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => detected,
        Err(1) => Isa::Scalar,
        Err(_) => Isa::Avx2,
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect() -> Isa {
    if std::env::var_os("DAGFACT_FORCE_SCALAR").is_some() {
        return Isa::Scalar;
    }
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn detect() -> Isa {
    Isa::Scalar
}

// ---------------------------------------------------------------------
// Autotunable cache blocking
// ---------------------------------------------------------------------

/// Cache-blocking parameters of the AVX2 GEMM: the `k`-panel depth
/// (`kc`, L1-resident B columns), the row-block height (`mc`,
/// L2-resident A block) and the column-block width (`nc`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Row-block height (multiple of the 8-row register tile).
    pub mc: usize,
    /// Inner-dimension panel depth.
    pub kc: usize,
    /// Column-block width (multiple of the 4-column register tile).
    pub nc: usize,
}

impl Default for Blocking {
    fn default() -> Self {
        // 8×kc A-tile stream (one cache line per column) against kc×4
        // B columns: kc=256 keeps the active B block at 8 KiB; mc=128
        // holds a 128×256 f64 A block in 256 KiB of L2; nc=512 bounds
        // the C working set.
        Blocking { mc: 128, kc: 256, nc: 512 }
    }
}

/// 0 means "use the built-in default".
static MC: AtomicUsize = AtomicUsize::new(0);
static KC: AtomicUsize = AtomicUsize::new(0);
static NC: AtomicUsize = AtomicUsize::new(0);

/// The blocking currently in effect.
#[inline]
pub fn blocking() -> Blocking {
    let d = Blocking::default();
    // ORDERING: independent tuning knobs; any torn combination of old
    // and new values is still a valid (merely untuned) blocking.
    let pick = |a: &AtomicUsize, def: usize| match a.load(Ordering::Relaxed) {
        0 => def,
        v => v,
    };
    Blocking {
        mc: pick(&MC, d.mc),
        kc: pick(&KC, d.kc),
        nc: pick(&NC, d.nc),
    }
}

/// Upper bound on any blocking dimension — far above any cache-sane
/// value, low enough that tile rounding (and mc·kc panel products)
/// cannot overflow `usize`. A multiple of both register-tile sizes, so
/// `next_multiple_of` below is overflow-free after the clamp.
const MAX_BLOCK: usize = 1 << 24;

/// Install autotuned block sizes (values are clamped into
/// `[tile, MAX_BLOCK]` and rounded to the register-tile granularity —
/// absurd values from a corrupted `DAGFACT_KERNELS_BLOCK` degrade to the
/// cap rather than panicking at first dispatch).
pub fn set_blocking(b: Blocking) {
    // ORDERING: see `blocking()`.
    MC.store(b.mc.clamp(MR, MAX_BLOCK).next_multiple_of(MR), Ordering::Relaxed);
    KC.store(b.kc.clamp(8, MAX_BLOCK), Ordering::Relaxed);
    NC.store(b.nc.clamp(NR, MAX_BLOCK).next_multiple_of(NR), Ordering::Relaxed);
}

/// Once-guard for [`load_env_blocking`].
static ENV_BLOCKING_LOADED: AtomicU8 = AtomicU8::new(0);

/// Parse `DAGFACT_KERNELS_BLOCK=mc,kc,nc` (the persisted autotune
/// choice) once, at the first dispatch *or* the first [`force_isa`] —
/// whichever comes first. Malformed values are ignored.
fn load_env_blocking() {
    // Once-only: both detect_and_cache() and force_isa() call here; the
    // guard keeps a later caller from clobbering set_blocking() tuning
    // installed in between.
    // ORDERING: the blocking knobs it guards are themselves relaxed and
    // self-contained (any torn combination is a valid blocking), so the
    // once-flag needs no happens-before either; racing initializers at
    // worst both read the same env value.
    if ENV_BLOCKING_LOADED.swap(1, Ordering::Relaxed) != 0 {
        return;
    }
    let Some(raw) = std::env::var_os("DAGFACT_KERNELS_BLOCK") else {
        return;
    };
    let Some(raw) = raw.to_str() else { return };
    let mut parts = raw.split(',');
    let mut next = || parts.next().and_then(parse_usize);
    if let (Some(mc), Some(kc), Some(nc)) = (next(), next(), next()) {
        if mc > 0 && kc > 0 && nc > 0 {
            set_blocking(Blocking { mc, kc, nc });
        }
    }
}

/// Decimal-only `usize` parser. `str::parse` would do, but several
/// workspace types also have a `parse` and the hot-path lint resolves
/// method calls by name — a local free function keeps the dispatch
/// path's call graph self-contained (and allocation-free).
fn parse_usize(s: &str) -> Option<usize> {
    let s = s.trim_ascii();
    if s.is_empty() {
        return None;
    }
    let mut v: usize = 0;
    for b in s.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add((b - b'0') as usize)?;
    }
    Some(v)
}

/// Register-tile height of the AVX2 microkernel (rows of C per tile).
pub const MR: usize = 8;
/// Register-tile width of the AVX2 microkernel (columns of C per tile).
pub const NR: usize = 4;

// ---------------------------------------------------------------------
// f64 element-type witness
// ---------------------------------------------------------------------

/// View a generic scalar slice as `&[f64]` when `T` *is* `f64`.
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
#[inline]
pub(crate) fn as_f64<T: Scalar>(s: &[T]) -> Option<&[f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; same layout, same
        // lifetime, shared reference.
        Some(unsafe { core::slice::from_raw_parts(s.as_ptr().cast::<f64>(), s.len()) })
    } else {
        None
    }
}

/// Mutable counterpart of [`as_f64`].
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
#[inline]
pub(crate) fn as_f64_mut<T: Scalar>(s: &mut [T]) -> Option<&mut [f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; same layout, same
        // lifetime, and the &mut borrow is carried through.
        Some(unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f64>(), s.len()) })
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Dispatch entry points (called by the portable kernels)
// ---------------------------------------------------------------------

/// Attempt the AVX2 GEMM for `C ← α·A·op(B) + β·C` with `A` untransposed.
/// Returns `true` when the SIMD path handled the call; `false` sends the
/// caller down the portable kernel (wrong type, unsupported layout, host
/// without AVX2, or a problem too small to win from vectorization).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_gemm_a_notrans<T: Scalar>(
    b_trans: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 || m < MR {
            return false;
        }
        let (Some(af), Some(bf)) = (as_f64(a), as_f64(b)) else {
            return false;
        };
        let Some(cf) = as_f64_mut(c) else { return false };
        let layout = if b_trans {
            avx2::BLayout::Trans { ldb }
        } else {
            avx2::BLayout::NoTrans { ldb }
        };
        // SAFETY: isa() == Avx2 certifies avx2+fma on this CPU; the
        // shape contracts (lda/ldb/ldc vs m/n/k and the slice lengths)
        // were asserted by the calling `gemm` before any dispatch.
        unsafe {
            avx2::gemm_f64(
                m,
                n,
                k,
                alpha.re(),
                af.as_ptr(),
                lda,
                bf.as_ptr(),
                layout,
                beta.re(),
                cf.as_mut_ptr(),
                ldc,
            );
        }
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (b_trans, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// Attempt the fused AVX2 GEMM-scatter: `C[row_map, col_offset..] +=
/// α · A · diag(d?) · op(B)` with the scatter folded into the register
/// tile's epilogue (zero scratch memory — the direct-scatter pressure
/// rung). `b_trans` selects `op(B)[l,j] = b[l*ldb+j]` (outer-product
/// layout) vs `b[j*ldb+l]` (packed panel). Returns `false` when the
/// caller must run the portable scalar loops.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_update_scatter<T: Scalar>(
    b_trans: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a1: &[T],
    lda1: usize,
    b: &[T],
    ldb: usize,
    d: Option<&[T]>,
    c: &mut [T],
    ldc: usize,
    row_map: &[usize],
    col_offset: usize,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 || m < MR {
            return false;
        }
        let (Some(af), Some(bf)) = (as_f64(a1), as_f64(b)) else {
            return false;
        };
        let df = match d {
            None => None,
            Some(d) => match as_f64(d) {
                Some(df) => Some(df),
                None => return false,
            },
        };
        let Some(cf) = as_f64_mut(c) else { return false };
        let layout = if b_trans {
            avx2::BLayout::Trans { ldb }
        } else {
            avx2::BLayout::NoTrans { ldb }
        };
        // SAFETY: isa() == Avx2 certifies avx2+fma; shape contracts
        // (row_map.len() == m, d.len() >= k, the A/B strides, and the
        // destination: every row_map value < ldc and the last written
        // element (col_offset+n-1, max row_map) inside `c`) were
        // asserted by the calling update kernel before dispatch.
        unsafe {
            avx2::update_scatter_f64(
                m,
                n,
                k,
                alpha.re(),
                af.as_ptr(),
                lda1,
                bf.as_ptr(),
                layout,
                df.map(|d| d.as_ptr()),
                cf.as_mut_ptr(),
                ldc,
                row_map,
                col_offset,
            );
        }
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (
            b_trans, m, n, k, alpha, a1, lda1, b, ldb, d, c, ldc, row_map, col_offset,
        );
        false
    }
}

/// Whether an `m`-row [`crate::gemm::gemm`] with `A` untransposed rounds
/// each element exactly like the [`try_axpy`]-or-portable axpy loop: both
/// fuse on the AVX2 tier once the GEMM dispatch takes the call
/// (`m ≥ MR`), and neither fuses on the portable tier.
#[inline]
pub(crate) fn gemm_rounds_like_axpy(m: usize) -> bool {
    m >= MR || isa() != Isa::Avx2
}

/// SIMD `y += s·x`; `true` when handled.
#[inline]
pub(crate) fn try_axpy<T: Scalar>(s: T, x: &[T], y: &mut [T]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 {
            return false;
        }
        let Some(xf) = as_f64(x) else { return false };
        let Some(yf) = as_f64_mut(y) else { return false };
        // SAFETY: isa() == Avx2 certifies avx2+fma on this CPU.
        unsafe { avx2::axpy_f64(s.re(), xf, yf) };
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (s, x, y);
        false
    }
}

/// SIMD in-place scale `x *= s`; `true` when handled.
#[inline]
pub(crate) fn try_scale<T: Scalar>(s: T, x: &mut [T]) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 {
            return false;
        }
        let Some(xf) = as_f64_mut(x) else { return false };
        // SAFETY: isa() == Avx2 certifies avx2 on this CPU.
        unsafe { avx2::scale_f64(s.re(), xf) };
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (s, x);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_is_cached_and_forcible() {
        let first = isa();
        assert_eq!(isa(), first, "second call must replay the cache");
        force_isa(Isa::Scalar);
        assert_eq!(isa(), Isa::Scalar);
        force_isa(first);
        assert_eq!(isa(), first);
    }

    #[test]
    fn blocking_roundtrip_and_clamps() {
        let prev = blocking();
        set_blocking(Blocking { mc: 1, kc: 1, nc: 1 });
        let b = blocking();
        assert_eq!(b.mc, MR, "mc clamps to the register tile");
        assert_eq!(b.nc, NR, "nc clamps to the register tile");
        assert_eq!(b.kc, 8);
        set_blocking(Blocking { mc: 96, kc: 192, nc: 384 });
        assert_eq!(blocking(), Blocking { mc: 96, kc: 192, nc: 384 });
        // Absurd (e.g. corrupted-env) values clamp to the cap instead of
        // overflowing in next_multiple_of.
        set_blocking(Blocking {
            mc: usize::MAX,
            kc: usize::MAX,
            nc: usize::MAX,
        });
        let b = blocking();
        assert_eq!(b, Blocking { mc: MAX_BLOCK, kc: MAX_BLOCK, nc: MAX_BLOCK });
        set_blocking(prev);
    }

    #[test]
    fn f64_witness_accepts_f64_rejects_complex() {
        let v = [1.0f64, 2.0];
        assert!(as_f64(&v).is_some());
        let c = [crate::scalar::C64::new(1.0, 2.0)];
        assert!(as_f64(&c).is_none());
        let mut v = [1.0f64];
        assert!(as_f64_mut(&mut v).is_some());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_matches_cpu_when_simd_enabled() {
        let det = detect();
        #[cfg(feature = "simd")]
        {
            let want = if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && std::env::var_os("DAGFACT_FORCE_SCALAR").is_none()
            {
                Isa::Avx2
            } else {
                Isa::Scalar
            };
            assert_eq!(det, want);
        }
        #[cfg(not(feature = "simd"))]
        assert_eq!(det, Isa::Scalar);
    }
}
