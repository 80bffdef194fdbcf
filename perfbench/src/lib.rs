//! End-to-end benchmark of the dagfact solver stack: a matrix (or a
//! served job) in, a certified solution out, on three workloads. An
//! untraced run reports the end-to-end metrics; a traced run reports the
//! per-layer ones, measured from outside the program.

pub mod check;
pub mod cold;
pub mod inputs;
pub mod layers;
pub mod op;
pub mod refactor;
pub mod report;
pub mod rng;
pub mod served;
pub mod workload;

pub use workload::{Config, RunResult};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["cold-analysis", "refactor-3d", "served-mix"];

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &Config) -> Option<RunResult> {
    match name {
        "cold-analysis" => Some(cold::run(cfg)),
        "refactor-3d" => Some(refactor::run(cfg)),
        "served-mix" => Some(served::run(cfg)),
        _ => None,
    }
}
