//! # dagfact-bench
//!
//! The evaluation harness: everything needed to regenerate the paper's
//! Table I and Figures 2-4 with the `dagfact` stack. See `EXPERIMENTS.md`
//! at the repository root for the recorded paper-vs-measured comparison.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — matrix inventory: size, nnz(A), nnz(L), flops;
//! * `fig2`   — CPU strong scaling of the three schedulers (simulated
//!   Mirage node, 1→12 cores);
//! * `fig3`   — multi-stream GPU GEMM kernel study (cuBLAS-like /
//!   ASTRA-like / sparse kernels × 1-3 streams);
//! * `fig4`   — hybrid scaling, 12 cores + 0-3 GPUs;
//! * `ablation` — design-choice studies beyond the paper (amalgamation
//!   ratio sweep, 1D vs 2D task split, data-reuse on/off);
//! * `memsweep` — memory-budget sweep: proxy factorizations under
//!   descending caps, per-phase peak/spill accounting recorded as JSON
//!   (`results/memsweep.json`).
//!
//! The library half hosts the proxy-matrix registry substituting for the
//! University of Florida set (DESIGN.md §2).

pub mod json;
pub mod matrices;
pub mod microbench;
pub mod traceviz;

pub use json::{write_results, Json};
pub use matrices::{proxies, MatrixProxy};
pub use microbench::Bench;
pub use traceviz::{chrome_trace, sim_chrome_trace};
