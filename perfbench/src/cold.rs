//! `cold-analysis`: one caller sends patterns never seen before, each
//! through `Analysis::new` → `factorize_with` → `solve_refined`.

use crate::inputs::{Family, Problem};
use crate::layers::{gemm_ref_gflops, per_layer_metrics, update_shape};
use crate::op::guarded;
use crate::report::{end_to_end, Samples, ENGINES};
use crate::rng::Rng;
use crate::workload::{
    closed_loop, input_entry, inventory, repeated_setup, timed_op, traced_pair, Config, RunResult,
    Tally,
};
use dagfact_core::{Analysis, SolverOptions};

/// Why the workload was chosen.
pub const WHY: &str = "ordering and symbolic analysis dominate each op (the cold path); random graphs stress amalgamation on structure unlike grids";

const STREAM_OPS: u64 = 1;
const STREAM_WARM: u64 = 2;

/// The input families, in the order ops rotate through them.
pub fn families(small: bool) -> Vec<Family> {
    if small {
        vec![
            Family::Grid2d { nx: 12, ny: 12 },
            Family::Shell { nx: 8, ny: 8 },
            Family::Grid3d { n: 5 },
            Family::RandomSpd { n: 150, per_col: 2 },
        ]
    } else {
        vec![
            Family::Grid2d { nx: 110, ny: 110 },
            Family::Shell { nx: 51, ny: 51 },
            Family::Grid3d { n: 18 },
            Family::RandomSpd {
                n: 2500,
                per_col: 2,
            },
        ]
    }
}

/// Input of op `k` of stream `stream`: its family's matrix under a seeded
/// symmetric relabelling (random graphs are drawn afresh), so no two ops
/// share a pattern, and a seeded right-hand side.
pub fn op_input(seed: u64, stream: u64, k: usize, families: &[Family]) -> (Family, Problem) {
    let family = families[k % families.len()];
    let mut rng = Rng::derive(seed, stream, k as u64);
    let m = family.generate(&mut rng);
    let m = match family {
        Family::RandomSpd { .. } => m,
        _ => m.relabel(&mut rng),
    };
    (family, Problem::new(m, &mut rng))
}

/// Run the workload.
pub fn run(cfg: &Config) -> RunResult {
    let fams = families(cfg.small);
    let opts = SolverOptions::default();
    let mut tally = Tally::default();
    // Set-up: one warm-up op per family (first-touch allocations, worker
    // threads), which also yields the inventory.
    let (entries, setup_s) = repeated_setup(|| {
        let mut entries = Vec::new();
        for i in 0..fams.len() {
            let (family, p) = op_input(cfg.seed, STREAM_WARM, i, &fams);
            let out = guarded(|| {
                let an = Analysis::new(p.pattern(), family.facto(), &opts);
                let out = p.solve(&an, ENGINES[i % ENGINES.len()], None, false)?;
                entries.push(input_entry(family, &an));
                Ok(out)
            });
            tally.count(out.is_ok_and(|o| o.certified));
        }
        entries
    });
    let cycle = fams.len() * ENGINES.len();
    let metrics = if cfg.trace {
        let mut s = Samples::default();
        let mut largest: Option<(f64, (usize, usize, usize))> = None;
        closed_loop(cfg.seconds, cycle, |k| {
            let (family, p) = op_input(cfg.seed, STREAM_OPS, k, &fams);
            let engine = ENGINES[k % ENGINES.len()];
            let flip = (k / cycle) % 2 == 1;
            if let Some(an) =
                traced_pair(&mut s, &mut tally, &p, family.facto(), None, engine, flip)
            {
                let flops = an.costs(p.is_complex()).total;
                if largest.is_none_or(|(f, _)| flops > f) {
                    largest = Some((flops, update_shape(&an)));
                }
            }
        });
        if let Some((_, shape)) = largest {
            s.push("kernels.gemm_ref.gflops", gemm_ref_gflops(shape, 0.3));
        }
        per_layer_metrics(&s)
    } else {
        let mut ops = Vec::new();
        closed_loop(cfg.seconds, cycle, |k| {
            let (family, p) = op_input(cfg.seed, STREAM_OPS, k, &fams);
            let engine = ENGINES[k % ENGINES.len()];
            timed_op(&mut ops, &mut tally, k % fams.len(), engine, || {
                let an = Analysis::new(p.pattern(), family.facto(), &opts);
                p.solve(&an, engine, None, false)
            });
        });
        // One caller: the timed wall is the sum of its ops (input
        // generation between ops is the benchmark's, not the solver's).
        let timed_s = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
        end_to_end(&ops, timed_s, setup_s)
    };
    RunResult {
        tally,
        metrics,
        inventory: inventory("cold-analysis", cfg, WHY, &entries, ""),
    }
}
