//! Degenerate orders: a 0×0 and a 1×1 matrix go through the analysis and
//! the `Solver` on every engine and end in a solution of the right length
//! or a typed error — never a panic.

use dagfact_core::solver::Solver;
use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_sparse::{CscMatrix, TripletBuilder};
use dagfact_symbolic::FactoKind;

const FACTOS: [FactoKind; 3] = [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu];

fn diagonal(values: &[f64]) -> CscMatrix<f64> {
    let n = values.len();
    let mut b = TripletBuilder::new(n, n);
    for (j, &v) in values.iter().enumerate() {
        b.push(j, j, v);
    }
    b.build()
}

#[test]
fn empty_and_single_entry_matrices_never_panic() {
    for values in [&[][..], &[4.0][..]] {
        let a = diagonal(values);
        let n = values.len();
        for facto in FACTOS {
            let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
            assert_eq!(an.symbol.n, n);
            assert_eq!(an.symbol.ncblk(), n, "n = {n}: one panel per column");
            assert_eq!(an.perm.len(), n);
        }
        let b: Vec<f64> = values.iter().map(|v| 2.0 * v).collect();
        let opts = SolverOptions::default();
        for rt in RuntimeKind::ALL {
            for facto in [None, Some(FactoKind::Lu)] {
                let solver = match Solver::with_options(&a, facto, &opts, rt, 2) {
                    Ok(s) => s,
                    Err(e) => {
                        // A typed error is an acceptable outcome.
                        eprintln!("n = {n}, {rt:?}, {facto:?}: {e}");
                        continue;
                    }
                };
                let x = solver.solve(&b);
                assert_eq!(x.len(), n, "n = {n}, {rt:?}");
                for xi in &x {
                    assert!((xi - 2.0).abs() < 1e-14, "n = {n}, {rt:?}: x = {x:?}");
                }
                let refined = solver.solve_refined(&b, 2, 1e-14);
                assert_eq!(refined.x.len(), n, "n = {n}, {rt:?}");
            }
        }
    }
}
