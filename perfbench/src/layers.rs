//! Per-layer measurement from outside the program: the analysis stage
//! functions timed one by one (checked against `Analysis::new` by the
//! stage oracle), the phase and worker spans the program already
//! records, and a reference GEMM rate.

use crate::op::{Outcome, THREADS};
use crate::report::{engine_label, Metric, Samples, ENGINES};
use dagfact_core::{Analysis, SolverOptions};
use dagfact_kernels::{gemm, Trans};
use dagfact_order::{compute_ordering, Permutation};
use dagfact_rt::{RuntimeKind, SpanKind, Trace};
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::counts::column_counts;
use dagfact_symbolic::etree::{elimination_tree, postorder, relabel_parent};
use dagfact_symbolic::structure::SymbolMatrix;
use dagfact_symbolic::supernode::{amalgamate, build_partition, detect_supernodes};
use dagfact_symbolic::FactoKind;
use std::time::Instant;

/// Analysis stages in the order `Analysis::new` runs them, with the
/// metric each is reported under.
pub const STAGES: [&str; 7] = [
    "sparse.symmetrize_ms",
    "order.nd_ms",
    "symbolic.etree_ms",
    "symbolic.colcounts_ms",
    "symbolic.partition_ms",
    "symbolic.amalgamate_ms",
    "symbolic.split_ms",
];

/// Kernel families the engines label their tasks with.
pub const KERNELS: [&str; 3] = ["panel", "update", "1d-panel"];

/// Solves on inputs of at least this order count as "large".
pub const LARGE_N: usize = 10_000;

/// The analysis rebuilt from its public stage functions, with each
/// stage's wall time in [`STAGES`] order.
pub struct Staged {
    /// The rebuilt analysis.
    pub analysis: Analysis,
    /// Stage wall times, ms.
    pub ms: [f64; 7],
}

/// Rebuild `Analysis::new(pattern, facto, options)` stage by stage,
/// timing each public call.
pub fn staged_analysis(
    pattern: &SparsityPattern,
    facto: FactoKind,
    options: &SolverOptions,
) -> Staged {
    let mut ms = [0.0; 7];
    let mut t = Instant::now();
    let mut lap = |i: usize, t: &mut Instant| {
        ms[i] = t.elapsed().as_secs_f64() * 1e3;
        *t = Instant::now();
    };
    let sym = pattern.symmetrize();
    lap(0, &mut t);
    let fill_perm = compute_ordering(&sym, options.ordering);
    let permuted = sym.permute_symmetric(fill_perm.perm());
    lap(1, &mut t);
    let parent = elimination_tree(&permuted);
    let post = postorder(&parent);
    let post_perm = Permutation::from_iperm(post.clone());
    let permuted = permuted.permute_symmetric(post_perm.perm());
    let parent = relabel_parent(&parent, &post);
    let perm = fill_perm.then(&post_perm);
    lap(2, &mut t);
    let (cc, _) = column_counts(&permuted, &parent);
    let first = detect_supernodes(&parent, &cc);
    lap(3, &mut t);
    let partition = build_partition(&permuted, &parent, first);
    lap(4, &mut t);
    let partition = amalgamate(partition, &options.amalgamation);
    lap(5, &mut t);
    let symbol = SymbolMatrix::from_partition(&partition, &options.split);
    lap(6, &mut t);
    Staged {
        analysis: Analysis {
            facto,
            perm,
            symbol,
            nnz_a: sym.nnz(),
            options: options.clone(),
        },
        ms,
    }
}

/// The stage oracle: the staged rebuild must equal `Analysis::new`'s
/// permutation and block structure exactly.
pub fn same_analysis(a: &Analysis, b: &Analysis) -> bool {
    a.facto == b.facto
        && a.nnz_a == b.nnz_a
        && a.perm == b.perm
        && a.symbol.n == b.symbol.n
        && a.symbol.cblks == b.symbol.cblks
        && a.symbol.blocks == b.symbol.blocks
        && a.symbol.col_to_cblk == b.symbol.col_to_cblk
}

/// Record a staged analysis: stage times and the analysis' output counts.
pub fn record_staged(s: &mut Samples, staged: &Staged, complex: bool) {
    for (name, &v) in STAGES.iter().zip(&staged.ms) {
        s.push(*name, v);
    }
    let st = staged.analysis.stats();
    s.push("symbolic.ncblk", st.ncblk as f64);
    s.push("symbolic.nnz_l", st.nnz_l as f64);
    let flops = if complex {
        st.flops_complex
    } else {
        st.flops_real
    };
    s.push("symbolic.flops_g", flops / 1e9);
}

/// Sum of the phase spans labelled `label`, ms.
fn phase_ms(trace: &Trace, label: &str) -> f64 {
    trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Phase && s.label == label)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Record a traced op: phase spans, runtime worker statistics, kernel
/// breakdown, solve probes and the op's unaccounted time.
///
/// `analysis_ms` is the op's analysis wall time (0 on refactorization)
/// and `model_flops` the cost model's factorization flops.
pub fn record_traced(
    s: &mut Samples,
    engine: RuntimeKind,
    out: &Outcome,
    n: usize,
    analysis_ms: f64,
    model_flops: f64,
) {
    s.push("core.refine_iters", out.refine_iters as f64);
    s.push("core.pivots_repaired", out.pivots_repaired as f64);
    s.push("core.attempts", out.attempts as f64);
    s.push("core.certified", f64::from(u8::from(out.certified)));
    if let Some((seq, par)) = out.solves {
        let size = if n >= LARGE_N { "large" } else { "small" };
        s.push(format!("core.solve_ms.{size}"), seq);
        s.push(format!("core.psolve_ms.{size}"), par);
    }
    let Some(trace) = &out.trace else { return };
    let mut accounted = analysis_ms;
    for phase in ["assembly", "numeric", "solve", "refine"] {
        let v = phase_ms(trace, phase);
        accounted += v;
        s.push(format!("core.{phase}_ms"), v);
    }
    s.push(
        "core.unaccounted_ms",
        out.solver_ms + analysis_ms - accounted,
    );
    s.push("numeric.flops", model_flops);
    s.push("numeric.ns", phase_ms(trace, "numeric") * 1e6);

    let e = engine_label(engine);
    let wall = trace.wall_ns() as f64;
    let busy = trace.total_busy_ns() as f64;
    let workers = trace.worker_stats();
    let tasks: usize = workers.iter().map(|w| w.tasks).sum();
    let idle_present: f64 = workers.iter().map(|w| w.idle_frac).sum();
    let idle = (idle_present + THREADS.saturating_sub(workers.len()) as f64) / THREADS as f64;
    let slots = THREADS as f64 * wall;
    s.push(format!("rt.{e}.tasks"), tasks as f64);
    s.push(
        format!("rt.{e}.busy_frac"),
        if slots > 0.0 { busy / slots } else { 0.0 },
    );
    s.push(
        format!("rt.{e}.queue_wait_ms"),
        workers.iter().map(|w| w.wait_ns as f64).sum::<f64>() / 1e6,
    );
    s.push(
        format!("rt.{e}.steal_ms"),
        workers.iter().map(|w| w.steal_ns as f64).sum::<f64>() / 1e6,
    );
    s.push(format!("rt.{e}.idle_frac"), idle);
    s.push(
        format!("rt.{e}.critical_path_ms"),
        trace.critical_path().length_ns as f64 / 1e6,
    );
    s.push(format!("rt.{e}.sched_overhead_ms"), (slots - busy) / 1e6);
    for k in trace.kernel_breakdown() {
        s.push(format!("kernels.{}.tasks", k.kernel), k.count as f64);
        s.push(format!("kernels.{}.ms", k.kernel), k.total_ns as f64 / 1e6);
        s.push(format!("kernels.{}.flops", k.kernel), k.flops);
        s.push(format!("kernels.{}.ns", k.kernel), k.total_ns as f64);
    }
}

/// The flop-weighted median update shape `(m, n, k)` of an analysis: an
/// update from block `b` of a panel of width `k` multiplies the `m` rows
/// from `b` down by the `n` rows of `b`.
pub fn update_shape(an: &Analysis) -> (usize, usize, usize) {
    let sym = &an.symbol;
    let mut shapes: Vec<(f64, usize, usize, usize)> = Vec::new();
    for cb in &sym.cblks {
        let k = cb.width();
        let mut below = cb.stride;
        for (i, b) in sym.blocks[cb.block_begin..cb.block_end].iter().enumerate() {
            let h = b.nrows();
            if i > 0 {
                shapes.push((2.0 * (below * h * k) as f64, below, h, k));
            }
            below -= h;
        }
    }
    if shapes.is_empty() {
        return (1, 1, 1);
    }
    shapes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = shapes.iter().map(|s| s.0).sum();
    let mut acc = 0.0;
    for &(f, m, n, k) in &shapes {
        acc += f;
        if acc >= total / 2.0 {
            return (m, n, k);
        }
    }
    let last = shapes[shapes.len() - 1];
    (last.1, last.2, last.3)
}

/// GFLOP/s of the public `gemm` (`C -= A·Bᵀ`, the update's product) at
/// shape `(m, n, k)`, timed over at least `min_s` seconds.
pub fn gemm_ref_gflops(shape: (usize, usize, usize), min_s: f64) -> f64 {
    let (m, n, k) = shape;
    let a: Vec<f64> = (0..m * k).map(|i| ((i % 7) as f64 - 3.0) * 0.1).collect();
    let b: Vec<f64> = (0..n * k).map(|i| ((i % 5) as f64 - 2.0) * 0.1).collect();
    let mut c = vec![0.0f64; m * n];
    let t0 = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || t0.elapsed().as_secs_f64() < min_s {
        gemm(
            Trans::NoTrans,
            Trans::Trans,
            m,
            n,
            k,
            -1.0,
            &a,
            m,
            &b,
            n,
            1.0,
            &mut c,
            m,
        );
        std::hint::black_box(&mut c);
        reps += 1;
    }
    2.0 * (m * n * k) as f64 * reps as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Reduce a traced run's samples to the per-layer metrics, in
/// `BENCHMARK.json` order. A layer the workload never entered reads 0.
pub fn per_layer_metrics(s: &Samples) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in STAGES {
        out.push(Metric::new(name, "ms", s.mean(name)));
    }
    out.push(Metric::new(
        "symbolic.ncblk",
        "count",
        s.mean("symbolic.ncblk"),
    ));
    out.push(Metric::new(
        "symbolic.nnz_l",
        "count",
        s.mean("symbolic.nnz_l"),
    ));
    out.push(Metric::new(
        "symbolic.flops_g",
        "GFLOP",
        s.mean("symbolic.flops_g"),
    ));
    for phase in ["analysis", "assembly", "numeric", "solve", "refine"] {
        let name = format!("core.{phase}_ms");
        out.push(Metric::new(name.clone(), "ms", s.mean(&name)));
    }
    out.push(Metric::new(
        "core.numeric.gflops",
        "GFLOP/s",
        s.ratio("numeric.flops", "numeric.ns"),
    ));
    for size in ["small", "large"] {
        for kind in ["solve", "psolve"] {
            let name = format!("core.{kind}_ms.{size}");
            out.push(Metric::new(name.clone(), "ms", s.mean(&name)));
        }
    }
    out.push(Metric::new(
        "core.refine_iters",
        "count",
        s.mean("core.refine_iters"),
    ));
    out.push(Metric::new(
        "core.pivots_repaired",
        "count",
        s.mean("core.pivots_repaired"),
    ));
    // Factorizations per certified op.
    out.push(Metric::new(
        "core.attempts",
        "count",
        s.ratio("core.attempts", "core.certified"),
    ));
    out.push(Metric::new(
        "core.unaccounted_ms",
        "ms",
        s.mean("core.unaccounted_ms"),
    ));
    for engine in ENGINES {
        let e = engine_label(engine);
        for (field, unit) in [
            ("tasks", "count"),
            ("busy_frac", "frac"),
            ("queue_wait_ms", "ms"),
            ("steal_ms", "ms"),
            ("idle_frac", "frac"),
            ("critical_path_ms", "ms"),
            ("sched_overhead_ms", "ms"),
        ] {
            let name = format!("rt.{e}.{field}");
            out.push(Metric::new(name.clone(), unit, s.mean(&name)));
        }
    }
    for k in KERNELS {
        let tasks = format!("kernels.{k}.tasks");
        let ms = format!("kernels.{k}.ms");
        out.push(Metric::new(tasks.clone(), "count", s.mean(&tasks)));
        out.push(Metric::new(ms.clone(), "ms", s.mean(&ms)));
        out.push(Metric::new(
            format!("kernels.{k}.gflops"),
            "GFLOP/s",
            s.ratio(&format!("kernels.{k}.flops"), &format!("kernels.{k}.ns")),
        ));
    }
    let gemm_ref = s.median("kernels.gemm_ref.gflops");
    let update = s.ratio("kernels.update.flops", "kernels.update.ns");
    out.push(Metric::new("kernels.gemm_ref.gflops", "GFLOP/s", gemm_ref));
    out.push(Metric::new(
        "kernels.update.ref_ratio",
        "ratio",
        if gemm_ref > 0.0 {
            update / gemm_ref
        } else {
            0.0
        },
    ));
    for name in [
        "serve.queue_wait_ms.p50",
        "serve.service_ms.p50",
        "serve.cold_ms",
        "serve.pattern_hit_ms",
        "serve.factor_hit_ms",
    ] {
        out.push(Metric::new(name, "ms", s.median(name)));
    }
    for (name, unit) in [
        ("serve.pattern_hit_ratio", "frac"),
        ("serve.factor_hit_ratio", "frac"),
        ("serve.batched_frac", "frac"),
        ("serve.evictions", "count"),
        ("serve.rejected", "count"),
    ] {
        out.push(Metric::new(name, unit, s.mean(name)));
    }
    out.push(Metric::new(
        "trace.overhead_frac",
        "frac",
        s.median("trace.overhead_frac"),
    ));
    out
}
