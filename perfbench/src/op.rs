//! One op: factorize on an engine, solve with refinement, certify. The
//! analysis comes from the caller (fresh per op on the cold path, shared
//! on refactorization).

use crate::check;
use dagfact_core::{Analysis, ExecOptions};
use dagfact_kernels::Scalar;
use dagfact_rt::{RunConfig, RuntimeKind, Trace, TraceRecorder};
use dagfact_sparse::CscMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every factorization (the host has 2 CPUs).
pub const THREADS: usize = 2;
/// Refinement step cap of `solve_refined`.
pub const MAX_REFINE: usize = 3;
/// Refinement stopping tolerance on the backward error.
pub const REFINE_TOL: f64 = 1e-14;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Run `f`, turning a panic into an error message: an op that panics is
/// a failed op, never a crashed benchmark.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// What one factorize + refined solve produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The solution passed [`check::certify`].
    pub certified: bool,
    /// Refinement steps performed.
    pub refine_iters: usize,
    /// Pivots bumped by static pivoting.
    pub pivots_repaired: usize,
    /// Factorization attempts the solver made.
    pub attempts: u32,
    /// Factorize start → `solve_refined` return, ms (the check excluded).
    pub solver_ms: f64,
    /// Spans of the factorization and solve, when traced.
    pub trace: Option<Trace>,
    /// `Factors::solve` and `Factors::solve_parallel` on the same factors
    /// and RHS, ms, when probed.
    pub solves: Option<(f64, f64)>,
}

/// Factorize `a` with `an` on `engine`, solve `A·x = b` with refinement
/// and certify `x`. With `rec`, the run records into it; with `probe`,
/// the sequential and parallel solves are timed afterwards.
pub fn factor_solve<T: Scalar>(
    an: &Analysis,
    a: &CscMatrix<T>,
    b: &[T],
    engine: RuntimeKind,
    rec: Option<&Arc<TraceRecorder>>,
    probe: bool,
) -> Result<Outcome, String> {
    let exec = ExecOptions {
        run: RunConfig {
            trace: rec.cloned(),
            ..RunConfig::default()
        },
        ..ExecOptions::default()
    };
    let t0 = Instant::now();
    let f = an
        .factorize_with(a, engine, THREADS, &exec)
        .map_err(|e| e.to_string())?;
    let refined = f.solve_refined(a, b, MAX_REFINE, REFINE_TOL);
    let solver_ms = ms_since(t0);
    let trace = rec.map(|r| r.snapshot());
    let certified = check::certify(a, &refined.x, b);
    let solves = probe.then(|| {
        let t = Instant::now();
        std::hint::black_box(f.solve(b));
        let seq = ms_since(t);
        let t = Instant::now();
        std::hint::black_box(f.solve_parallel(b, THREADS));
        (seq, ms_since(t))
    });
    Ok(Outcome {
        certified,
        refine_iters: refined.iterations,
        pivots_repaired: f.pivots_repaired,
        attempts: f.stats.attempts,
        solver_ms,
        trace,
        solves,
    })
}
