//! Workspace-level property-style tests: random problems through the
//! whole stack, plus structural invariants that must hold for *any*
//! input. Cases come from a deterministic seeded sweep so failures
//! reproduce exactly.

use dagfact_suite::core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_suite::order::{compute_ordering, OrderingKind};
use dagfact_suite::sparse::gen::random_spd;
use dagfact_suite::sparse::SparsityPattern;
use dagfact_suite::symbolic::counts::column_counts;
use dagfact_suite::symbolic::etree::{
    elimination_tree, is_topological, postorder, relabel_parent, NO_PARENT,
};
use dagfact_suite::symbolic::supernode::{build_partition, detect_supernodes};
use dagfact_suite::symbolic::FactoKind;

/// Deterministic parameter source (SplitMix64).
struct Params {
    state: u64,
}

impl Params {
    fn new(case: u64) -> Params {
        Params {
            state: 0xE2E_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Random sparse symmetric pattern with a full diagonal.
fn sym_pattern(p: &mut Params, max_n: usize) -> SparsityPattern {
    let n = p.range(2, max_n);
    let per_col = p.range(1, 5);
    let seed = p.next_u64();
    let mut s = seed | 1;
    let mut entries = Vec::new();
    for j in 0..n {
        entries.push((j, j));
        for _ in 0..per_col {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s as usize) % n;
            entries.push((i, j));
            entries.push((j, i));
        }
    }
    SparsityPattern::from_entries(n, n, entries)
}

const CASES: u64 = 24;

#[test]
fn random_spd_factorizes_and_solves() {
    for case in 0..CASES {
        let mut p = Params::new(case);
        let n = p.range(20, 160);
        let per_col = p.range(2, 6);
        let seed = p.next_u64() % 10_000;
        let rt = RuntimeKind::ALL[p.range(0, 3)];
        let a = random_spd(n, per_col, seed);
        let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let f = analysis.factorize(&a, rt, 2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 13) as f64 - 6.0).collect();
        let x = f.solve(&b);
        let mut ax = vec![0.0; n];
        a.spmv(&x, &mut ax);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-8, "case {case}: {rt:?}");
        }
    }
}

#[test]
fn analysis_invariants_on_random_patterns() {
    for case in 0..CASES {
        let mut params = Params::new(1000 + case);
        let p = sym_pattern(&mut params, 120);
        let analysis = Analysis::new(&p, FactoKind::Cholesky, &SolverOptions::default());
        // Panels tile the columns exactly.
        analysis.symbol.validate().unwrap();
        // nnz(L) is at least nnz(lower triangle of the symmetrized A).
        let sym = p.symmetrize();
        let lower = (sym.nnz() - sym.ncols()) / 2 + sym.ncols();
        assert!(analysis.symbol.nnz_factor() >= lower, "case {case}");
        // Factor flops positive for any nonempty pattern.
        assert!(analysis.stats().flops_real > 0.0, "case {case}");
    }
}

#[test]
fn etree_pipeline_invariants() {
    for case in 0..CASES {
        let mut params = Params::new(2000 + case);
        let p = sym_pattern(&mut params, 140);
        let sym = p.symmetrize();
        let perm = compute_ordering(&sym, OrderingKind::NestedDissection);
        let permuted = sym.permute_symmetric(perm.perm());
        let parent = elimination_tree(&permuted);
        let post = postorder(&parent);
        let relabeled = relabel_parent(&parent, &post);
        assert!(is_topological(&relabeled), "case {case}");
        // Column counts are at least 1 and sum to at least n.
        let mut scatter = vec![0usize; post.len()];
        for (new, &old) in post.iter().enumerate() {
            scatter[old] = new;
        }
        let reperm = permuted.permute_symmetric(&scatter);
        let (cc, nnzl) = column_counts(&reperm, &relabeled);
        assert!(cc.iter().all(|&c| c >= 1), "case {case}");
        assert_eq!(nnzl, cc.iter().sum::<usize>(), "case {case}");
        assert!(nnzl >= reperm.ncols(), "case {case}");
    }
}

#[test]
fn orderings_are_bijections() {
    for case in 0..CASES {
        let mut params = Params::new(3000 + case);
        let p = sym_pattern(&mut params, 100);
        let kind = [
            OrderingKind::NestedDissection,
            OrderingKind::MinimumDegree,
            OrderingKind::ReverseCuthillMcKee,
        ][params.range(0, 3)];
        let sym = p.symmetrize();
        let perm = compute_ordering(&sym, kind);
        // Permutation::from_* validates bijectivity internally; round-trip
        // a vector as a behavioural check.
        let v: Vec<usize> = (0..perm.len()).collect();
        let w = perm.apply_vec(&v);
        let back = perm.apply_inverse_vec(&w);
        assert_eq!(back, v, "case {case}");
    }
}

#[test]
fn partition_rows_nest_along_the_supernode_tree() {
    // The corpus of the pattern tests above: rows of a supernode beyond its
    // parent's columns must be rows of the parent (what amalgamation's
    // O(1) merge pricing relies on).
    for (base, max_n) in [(1000, 120), (2000, 140), (3000, 100)] {
        for case in 0..CASES {
            let mut params = Params::new(base + case);
            let sym = sym_pattern(&mut params, max_n).symmetrize();
            let perm = compute_ordering(&sym, OrderingKind::NestedDissection);
            let permuted = sym.permute_symmetric(perm.perm());
            let parent = elimination_tree(&permuted);
            let post = postorder(&parent);
            let mut scatter = vec![0usize; post.len()];
            for (new, &old) in post.iter().enumerate() {
                scatter[old] = new;
            }
            let permuted = permuted.permute_symmetric(&scatter);
            let parent = relabel_parent(&parent, &post);
            let (cc, _) = column_counts(&permuted, &parent);
            let part = build_partition(&permuted, &parent, detect_supernodes(&parent, &cc));
            for s in 0..part.len() {
                assert!(
                    part.rows[s].windows(2).all(|w| w[0] < w[1]),
                    "case {base}+{case}"
                );
                let p = part.parent[s];
                if p == NO_PARENT {
                    continue;
                }
                for &i in part.rows[s].iter().filter(|&&i| i >= part.first[p + 1]) {
                    assert!(
                        part.rows[p].binary_search(&i).is_ok(),
                        "case {base}+{case}: row {i} of supernode {s} missing from parent {p}"
                    );
                }
            }
        }
    }
}
