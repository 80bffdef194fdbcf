//! The benchmark's own tests: every workload emits every named metric,
//! the answer check and the stage oracle have teeth, and the seed alone
//! determines the inputs.

use dagfact_core::{Analysis, SolverOptions};
use dagfact_perfbench::check::{backward_error, certify, forward_error};
use dagfact_perfbench::inputs::{fnv, Family, Matrix, Problem};
use dagfact_perfbench::layers::{same_analysis, staged_analysis};
use dagfact_perfbench::op::factor_solve;
use dagfact_perfbench::report::{engine_latency, Metric, OpLog};
use dagfact_perfbench::rng::Rng;
use dagfact_perfbench::{cold, refactor, run, served, Config, WORKLOADS};
use dagfact_rt::RuntimeKind;
use dagfact_symbolic::FactoKind;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn small(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.05,
        trace,
        small: true,
    }
}

fn assert_emits(section: &str, metrics: &[Metric], workload: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{workload}: {section} names/units");
    for m in metrics {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in WORKLOADS {
        let r = run(w, &small(false)).expect("known workload");
        assert!(r.correct(), "{w}: {:?}", r.tally);
        assert_emits("end_to_end", &r.metrics, w);
        for m in &r.metrics {
            assert!(
                m.value > 0.0,
                "{w}: end-to-end metric {} must not be 0",
                m.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for w in WORKLOADS {
        let r = run(w, &small(true)).expect("known workload");
        assert!(r.correct(), "{w}: {:?}", r.tally);
        assert!(r.tally.oracle_ok, "{w}: stage oracle");
        assert_emits("per_layer", &r.metrics, w);
    }
}

#[test]
fn unknown_workload_is_rejected() {
    assert!(run("warm-analysis", &small(false)).is_none());
}

#[test]
fn perturbed_solution_is_counted_as_failed() {
    let mut rng = Rng::new(3);
    let p = Problem::new(Family::Grid2d { nx: 9, ny: 7 }.generate(&mut rng), &mut rng);
    let Problem::Real { a, x_true, b } = &p else {
        unreachable!("grid2d is real")
    };
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let out = factor_solve(&an, a, b, RuntimeKind::Ptg, None, false).expect("solve");
    assert!(out.certified);
    assert!(certify(a, x_true, b));

    let mut x = x_true.clone();
    x[5] += 1e-6;
    assert!(!certify(a, &x, b), "berr {}", backward_error(a, &x, b));
    assert!(forward_error(&x, x_true) > 1e-8);
    x[5] = f64::NAN;
    assert!(!certify(a, &x, b));
    assert!(!certify(a, &x_true[1..], b), "wrong length");
}

#[test]
fn stage_oracle_matches_and_has_teeth() {
    let opts = SolverOptions::default();
    for family in [
        Family::Grid3d { n: 6 },
        Family::RandomSpd { n: 200, per_col: 2 },
        Family::Kkt {
            nx: 8,
            constraints: 12,
        },
    ] {
        let m = family.generate(&mut Rng::new(11));
        let reference = Analysis::new(m.pattern(), family.facto(), &opts);
        let staged = staged_analysis(m.pattern(), family.facto(), &opts);
        assert!(same_analysis(&reference, &staged.analysis), "{family:?}");
        let mut broken = staged.analysis.clone();
        let last = broken.symbol.cblks.len() - 1;
        broken.symbol.cblks[last].stride += 1;
        assert!(!same_analysis(&reference, &broken));
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let fams = cold::families(true);
    // Fingerprints of every seeded input: cold ops, refactorization
    // values and right-hand sides, the served working set.
    let prints = |seed: u64| -> Vec<u64> {
        let mut v: Vec<u64> = (0..8)
            .map(|k| problem_print(&cold::op_input(seed, 1, k, &fams).1))
            .collect();
        for (i, &family) in refactor::members(true).iter().enumerate() {
            let base = refactor::member_matrix(seed, i, family);
            let analysis = Analysis::new(base.pattern(), family.facto(), &SolverOptions::default());
            let m = refactor::Member {
                family,
                base,
                analysis,
            };
            v.push(problem_print(&refactor::op_problem(seed, 11, i, &m)));
        }
        for e in served::build_working_set(seed, true) {
            v.push(Matrix::Real(e.a).fingerprint());
        }
        v
    };
    let plans = |seed: u64| -> Vec<served::JobPlan> {
        (0..2)
            .flat_map(|c| (0..90).map(move |j| served::job_plan(seed, c, j, 4)))
            .collect()
    };
    assert_eq!(prints(5), prints(5));
    assert_eq!(plans(5), plans(5));
    let (a, b) = (prints(5), prints(6));
    assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    assert_ne!(plans(5), plans(6));
    // No two cold ops share a pattern.
    let patterns: std::collections::HashSet<Vec<usize>> = (0..24)
        .map(|k| cold::op_input(5, 1, k, &fams).1.pattern().rowind().to_vec())
        .collect();
    assert_eq!(patterns.len(), 24);
}

#[test]
fn served_stream_keeps_the_class_shares() {
    let plans: Vec<served::JobPlan> = (0..400).map(|j| served::job_plan(9, 0, j, 4)).collect();
    let share = |c: served::Class| plans.iter().filter(|p| p.class == c).count();
    assert_eq!(share(served::Class::FactorHit), 240);
    assert_eq!(share(served::Class::PatternHit), 120);
    assert_eq!(share(served::Class::Cold), 40);
}

#[test]
fn engine_latency_combines_group_medians_not_a_pooled_median() {
    // Group 0 (3 of 4 ops) near 10 ms, group 1 near 40 ms on native;
    // dataflow ops only pad group 0's share.
    let op = |group, engine, latency_ms| OpLog {
        engine,
        group,
        latency_ms,
        certified: true,
    };
    let mut ops = Vec::new();
    for (i, ms) in [9.0, 10.0, 11.0].into_iter().enumerate() {
        ops.push(op(0, RuntimeKind::Native, ms));
        ops.push(op(1, RuntimeKind::Native, 39.0 + i as f64));
        ops.push(op(0, RuntimeKind::Dataflow, 1.0));
        ops.push(op(0, RuntimeKind::Dataflow, 1.0));
    }
    // Weights 9/12 and 3/12 over the group medians 10 and 40.
    let want = (0.75 * 10f64.ln() + 0.25 * 40f64.ln()).exp();
    let got = engine_latency(&ops, RuntimeKind::Native);
    assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    // An engine with no ops reads 0; one group alone gives its median.
    assert_eq!(engine_latency(&ops, RuntimeKind::Ptg), 0.0);
    assert_eq!(engine_latency(&ops, RuntimeKind::Dataflow), 1.0);
}

/// Fingerprint of a problem's matrix and right-hand side.
fn problem_print(p: &Problem) -> u64 {
    match p {
        Problem::Real { a, b, .. } => fnv(
            Matrix::Real(a.clone()).fingerprint(),
            b.iter().map(|v| v.to_bits()),
        ),
        Problem::Complex { a, b, .. } => fnv(
            Matrix::Complex(a.clone()).fingerprint(),
            b.iter().flat_map(|v| [v.re.to_bits(), v.im.to_bits()]),
        ),
    }
}
