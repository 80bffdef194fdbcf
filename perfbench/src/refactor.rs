//! `refactor-3d`: Newton / time-stepping traffic. A fixed set of
//! matrices is analysed once; each op refactorizes one of them with
//! seeded new values and solves with refinement.

use crate::inputs::{Family, Matrix, Problem};
use crate::layers::{
    gemm_ref_gflops, per_layer_metrics, record_staged, same_analysis, staged_analysis, update_shape,
};
use crate::op::{guarded, ms_since};
use crate::report::{end_to_end, Samples, ENGINES};
use crate::rng::Rng;
use crate::workload::{
    closed_loop, input_entry, inventory, repeated_setup, timed_op, traced_pair, Config, RunResult,
    Tally,
};
use dagfact_core::{Analysis, SolverOptions};
use std::time::Instant;

/// Why the workload was chosen.
pub const WHY: &str = "kernels, runtime and numeric factorization dominate and analysis is paid once; complex and KKT members use the kernel and refine layers differently";

const STREAM_MEMBER: u64 = 10;
const STREAM_OPS: u64 = 11;
const STREAM_WARM: u64 = 12;

/// The analysed set, in the order ops rotate through it.
pub fn members(small: bool) -> Vec<Family> {
    if small {
        vec![
            Family::Grid3d { n: 6 },
            Family::Mhd27 { n: 4 },
            Family::Serena { n: 5 },
            Family::Helmholtz { n: 4 },
            Family::Kkt {
                nx: 8,
                constraints: 10,
            },
        ]
    } else {
        vec![
            Family::Grid3d { n: 32 },
            Family::Mhd27 { n: 16 },
            Family::Serena { n: 24 },
            Family::Helmholtz { n: 20 },
            Family::Kkt {
                nx: 60,
                constraints: 900,
            },
        ]
    }
}

/// One analysed member.
pub struct Member {
    /// Generator.
    pub family: Family,
    /// Base matrix; ops rescale its values.
    pub base: Matrix,
    /// Its analysis, shared by every op.
    pub analysis: Analysis,
}

/// Base matrix of member `i`.
pub fn member_matrix(seed: u64, i: usize, family: Family) -> Matrix {
    family.generate(&mut Rng::derive(seed, STREAM_MEMBER, i as u64))
}

/// The values and right-hand side of op `k` on member `m`: the base
/// values under a seeded scaling that keeps the factorization kind
/// valid, and a seeded right-hand side.
pub fn op_problem(seed: u64, stream: u64, k: usize, m: &Member) -> Problem {
    let mut rng = Rng::derive(seed, stream, k as u64);
    let a = m.base.rescale(m.family.facto(), &mut rng);
    Problem::new(a, &mut rng)
}

/// Run the workload.
pub fn run(cfg: &Config) -> RunResult {
    let fams = members(cfg.small);
    let opts = SolverOptions::default();
    let mut tally = Tally::default();
    let mut s = Samples::default();
    // Set-up: generate and analyse every member, then one warm-up op per
    // member. A traced run also rebuilds each analysis stage by stage.
    let ((set, entries), setup_s) = repeated_setup(|| {
        let mut set = Vec::new();
        let mut entries = Vec::new();
        for (i, &family) in fams.iter().enumerate() {
            let base = member_matrix(cfg.seed, i, family);
            let t0 = Instant::now();
            let analysis = Analysis::new(base.pattern(), family.facto(), &opts);
            let analysis_ms = ms_since(t0);
            if cfg.trace {
                let st = staged_analysis(base.pattern(), family.facto(), &opts);
                tally.oracle_ok &= same_analysis(&analysis, &st.analysis);
                record_staged(&mut s, &st, family.is_complex());
                s.push("core.analysis_ms", analysis_ms);
            }
            let m = Member {
                family,
                base,
                analysis,
            };
            let p = op_problem(cfg.seed, STREAM_WARM, i, &m);
            let out = guarded(|| p.solve(&m.analysis, ENGINES[i % ENGINES.len()], None, false));
            tally.count(out.is_ok_and(|o| o.certified));
            entries.push(input_entry(family, &m.analysis));
            set.push(m);
        }
        (set, entries)
    });
    let cycle = set.len() * ENGINES.len();
    let metrics = if cfg.trace {
        closed_loop(cfg.seconds, cycle, |k| {
            let m = &set[k % set.len()];
            let p = op_problem(cfg.seed, STREAM_OPS, k, m);
            let engine = ENGINES[k % ENGINES.len()];
            let flip = (k / cycle) % 2 == 1;
            traced_pair(
                &mut s,
                &mut tally,
                &p,
                m.family.facto(),
                Some(&m.analysis),
                engine,
                flip,
            );
        });
        // Reference GEMM at the update shape of the largest member.
        let largest = set
            .iter()
            .max_by(|a, b| {
                a.analysis
                    .costs(false)
                    .total
                    .total_cmp(&b.analysis.costs(false).total)
            })
            .expect("non-empty member set");
        s.push(
            "kernels.gemm_ref.gflops",
            gemm_ref_gflops(update_shape(&largest.analysis), 0.3),
        );
        per_layer_metrics(&s)
    } else {
        let mut ops = Vec::new();
        closed_loop(cfg.seconds, cycle, |k| {
            let m = &set[k % set.len()];
            let p = op_problem(cfg.seed, STREAM_OPS, k, m);
            let engine = ENGINES[k % ENGINES.len()];
            timed_op(&mut ops, &mut tally, k % set.len(), engine, || {
                p.solve(&m.analysis, engine, None, false)
            });
        });
        let timed_s = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
        end_to_end(&ops, timed_s, setup_s)
    };
    RunResult {
        tally,
        metrics,
        inventory: inventory("refactor-3d", cfg, WHY, &entries, ""),
    }
}
