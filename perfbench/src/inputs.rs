//! Input generators: the matrix families of the three workloads, the
//! seeded transformations applied to them (relabelling, value rescaling)
//! and the right-hand sides `b = A·x_true`.

use crate::rng::Rng;
use dagfact_kernels::{Scalar, C64};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_2d, grid_laplacian_3d, grid_operator_3d, helmholtz_3d,
    random_spd, shifted_laplacian_3d, Stencil,
};
use dagfact_sparse::{CscMatrix, SparsityPattern, TripletBuilder};
use dagfact_symbolic::FactoKind;

/// One input family: a generator and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// 2D 5-point SPD Laplacian, `nx × ny` (Cholesky).
    Grid2d { nx: usize, ny: usize },
    /// afshell10-like thin shell: `convection_diffusion_3d(nx, ny, 3)` (LU).
    Shell { nx: usize, ny: usize },
    /// 3D 7-point SPD Laplacian, `n³` (Cholesky).
    Grid3d { n: usize },
    /// Irregular random SPD graph (Cholesky).
    RandomSpd { n: usize, per_col: usize },
    /// MHD-like 27-point unsymmetric grid, `n³` (LU).
    Mhd27 { n: usize },
    /// Serena-like indefinite shifted Laplacian, `n³` (LDLᵀ).
    Serena { n: usize },
    /// pmlDF-like complex symmetric Helmholtz, `n³` (complex LDLᵀ).
    Helmholtz { n: usize },
    /// Saddle point: 2D Laplacian block on an `nx²` grid, `constraints`
    /// constraint rows, zero (2,2) block (LDLᵀ with static pivoting).
    Kkt { nx: usize, constraints: usize },
}

/// Convection coefficient of the shell family.
const SHELL_CONVECTION: f64 = 0.3;

impl Family {
    /// Factorization kind the family needs.
    pub fn facto(self) -> FactoKind {
        match self {
            Family::Grid2d { .. } | Family::Grid3d { .. } | Family::RandomSpd { .. } => {
                FactoKind::Cholesky
            }
            Family::Shell { .. } | Family::Mhd27 { .. } => FactoKind::Lu,
            Family::Serena { .. } | Family::Helmholtz { .. } | Family::Kkt { .. } => {
                FactoKind::Ldlt
            }
        }
    }

    /// Complex arithmetic.
    pub fn is_complex(self) -> bool {
        matches!(self, Family::Helmholtz { .. })
    }

    /// Short family label.
    pub fn label(self) -> &'static str {
        match self {
            Family::Grid2d { .. } => "grid2d",
            Family::Shell { .. } => "shell",
            Family::Grid3d { .. } => "grid3d",
            Family::RandomSpd { .. } => "random_spd",
            Family::Mhd27 { .. } => "mhd27",
            Family::Serena { .. } => "serena",
            Family::Helmholtz { .. } => "helmholtz",
            Family::Kkt { .. } => "kkt",
        }
    }

    /// The generator call with its parameters, as recorded in the input
    /// inventory.
    pub fn generator(self) -> String {
        match self {
            Family::Grid2d { nx, ny } => format!("grid_laplacian_2d({nx},{ny})"),
            Family::Shell { nx, ny } => {
                format!("convection_diffusion_3d({nx},{ny},3,{SHELL_CONVECTION})")
            }
            Family::Grid3d { n } => format!("grid_laplacian_3d({n},{n},{n})"),
            Family::RandomSpd { n, per_col } => format!("random_spd({n},{per_col},seeded)"),
            Family::Mhd27 { n } => format!("grid_operator_3d({n},{n},{n},Box,unsymmetric)"),
            Family::Serena { n } => format!("shifted_laplacian_3d({n},{n},{n},1.0)"),
            Family::Helmholtz { n } => format!("helmholtz_3d({n},{n},{n},4.0,0.5)"),
            Family::Kkt { nx, constraints } => {
                format!("kkt(grid_laplacian_2d({nx},{nx}),{constraints} seeded constraints)")
            }
        }
    }

    /// Generate the family's matrix (`rng` drives the random families).
    pub fn generate(self, rng: &mut Rng) -> Matrix {
        Matrix::Real(match self {
            Family::Grid2d { nx, ny } => grid_laplacian_2d(nx, ny),
            Family::Shell { nx, ny } => convection_diffusion_3d(nx, ny, 3, SHELL_CONVECTION),
            Family::Grid3d { n } => grid_laplacian_3d(n, n, n),
            Family::RandomSpd { n, per_col } => random_spd(n, per_col, rng.next_u64()),
            Family::Mhd27 { n } => grid_operator_3d(
                n,
                n,
                n,
                Stencil::Box,
                |i, j| if j > i { -0.65 } else { -0.35 },
                |_, deg| 0.65 * deg as f64 + 1.0,
            ),
            Family::Serena { n } => shifted_laplacian_3d(n, n, n, 1.0),
            Family::Helmholtz { n } => return Matrix::Complex(helmholtz_3d(n, n, n, 4.0, 0.5)),
            Family::Kkt { nx, constraints } => kkt(nx, constraints, rng),
        })
    }
}

/// Saddle-point matrix `[[K, Bᵀ], [B, 0]]`: `K` a 2D Laplacian on an
/// `nx²` grid, each row of `B` a seeded pair of grid nodes with weights
/// `±s`. The pairs are disjoint, so `B` has full row rank and the matrix
/// is nonsingular; its (2,2) block is structurally zero.
pub fn kkt(nx: usize, constraints: usize, rng: &mut Rng) -> CscMatrix<f64> {
    let k = grid_laplacian_2d(nx, nx);
    let m = k.nrows();
    assert!(
        2 * constraints <= m,
        "kkt: {constraints} disjoint pairs need 2x nodes"
    );
    let n = m + constraints;
    let mut b = TripletBuilder::with_capacity(n, n, k.nnz() + 4 * constraints);
    for j in 0..m {
        for (&i, &v) in k.col_rows(j).iter().zip(k.col_values(j)) {
            b.push(i, j, v);
        }
    }
    let nodes = rng.permutation(m);
    for r in 0..constraints {
        let (u, w) = (nodes[2 * r], nodes[2 * r + 1]);
        let c = m + r;
        let s = rng.range(0.5, 2.0);
        b.push(c, u, s);
        b.push(u, c, s);
        b.push(c, w, -s);
        b.push(w, c, -s);
    }
    b.build()
}

/// A real or complex input matrix.
#[derive(Debug, Clone)]
pub enum Matrix {
    /// Real double precision.
    Real(CscMatrix<f64>),
    /// Double complex.
    Complex(CscMatrix<C64>),
}

impl Matrix {
    /// Sparsity pattern.
    pub fn pattern(&self) -> &SparsityPattern {
        match self {
            Matrix::Real(a) => a.pattern(),
            Matrix::Complex(a) => a.pattern(),
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.pattern().nrows()
    }

    /// Symmetric relabelling by a seeded random permutation.
    pub fn relabel(&self, rng: &mut Rng) -> Matrix {
        let perm = rng.permutation(self.n());
        match self {
            Matrix::Real(a) => Matrix::Real(a.permute_symmetric(&perm)),
            Matrix::Complex(a) => Matrix::Complex(a.permute_symmetric(&perm)),
        }
    }

    /// New values on the same pattern; see [`rescaled`].
    pub fn rescale(&self, facto: FactoKind, rng: &mut Rng) -> Matrix {
        match self {
            Matrix::Real(a) => Matrix::Real(rescaled(a, facto, rng)),
            Matrix::Complex(a) => Matrix::Complex(rescaled(a, facto, rng)),
        }
    }

    /// Content hash of pattern and values (for the determinism tests and
    /// the inventory).
    pub fn fingerprint(&self) -> u64 {
        let p = self.pattern();
        let mut h = fnv(0, p.colptr().iter().chain(p.rowind()).map(|&v| v as u64));
        h = match self {
            Matrix::Real(a) => fnv(h, a.values().iter().map(|v| v.to_bits())),
            Matrix::Complex(a) => fnv(
                h,
                a.values()
                    .iter()
                    .flat_map(|v| [v.re.to_bits(), v.im.to_bits()]),
            ),
        };
        h
    }
}

/// FNV-1a over 64-bit words.
pub fn fnv(seed: u64, words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// New values on the same pattern: `D_r·A·D_c` with seeded diagonal
/// scalings in `[0.5, 2]`. `D_r = D_c` for the symmetric kinds, so a
/// congruence keeps symmetry, definiteness and inertia, and the
/// factorization kind stays valid.
pub fn rescaled<T: Scalar>(a: &CscMatrix<T>, facto: FactoKind, rng: &mut Rng) -> CscMatrix<T> {
    let n = a.ncols();
    let dc: Vec<f64> = (0..n).map(|_| rng.range(0.5, 2.0)).collect();
    let dr = if facto == FactoKind::Lu {
        (0..n).map(|_| rng.range(0.5, 2.0)).collect()
    } else {
        dc.clone()
    };
    let mut values = Vec::with_capacity(a.nnz());
    for (j, &cj) in dc.iter().enumerate() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            values.push(v.scale(dr[i] * cj));
        }
    }
    CscMatrix::new(a.pattern().clone(), values)
}

/// Seeded solution vector with entries in `[-1, 1)` (both parts for
/// complex scalars).
pub fn random_vector<T: Scalar>(n: usize, rng: &mut Rng) -> Vec<T> {
    (0..n)
        .map(|_| {
            let re = rng.range(-1.0, 1.0);
            let im = rng.range(-1.0, 1.0);
            T::from_parts(re, im)
        })
        .collect()
}

/// `b = A·x`.
pub fn rhs<T: Scalar>(a: &CscMatrix<T>, x: &[T]) -> Vec<T> {
    let mut b = vec![T::zero(); a.nrows()];
    a.spmv(x, &mut b);
    b
}

/// A generated system `A·x = b` (`b = A·x_true`), real or complex.
#[derive(Debug, Clone)]
pub enum Problem {
    /// Real double precision.
    Real {
        /// The matrix.
        a: CscMatrix<f64>,
        /// Seeded true solution.
        x_true: Vec<f64>,
        /// `A·x_true`.
        b: Vec<f64>,
    },
    /// Double complex.
    Complex {
        /// The matrix.
        a: CscMatrix<C64>,
        /// Seeded true solution.
        x_true: Vec<C64>,
        /// `A·x_true`.
        b: Vec<C64>,
    },
}

impl Problem {
    /// `A·x = b` for `m` with a seeded `x_true` drawn from `rng`.
    pub fn new(m: Matrix, rng: &mut Rng) -> Problem {
        match m {
            Matrix::Real(a) => {
                let x_true = random_vector(a.nrows(), rng);
                let b = rhs(&a, &x_true);
                Problem::Real { a, x_true, b }
            }
            Matrix::Complex(a) => {
                let x_true = random_vector(a.nrows(), rng);
                let b = rhs(&a, &x_true);
                Problem::Complex { a, x_true, b }
            }
        }
    }

    /// Sparsity pattern of `A`.
    pub fn pattern(&self) -> &SparsityPattern {
        match self {
            Problem::Real { a, .. } => a.pattern(),
            Problem::Complex { a, .. } => a.pattern(),
        }
    }

    /// Order of `A`.
    pub fn n(&self) -> usize {
        self.pattern().nrows()
    }

    /// Complex arithmetic.
    pub fn is_complex(&self) -> bool {
        matches!(self, Problem::Complex { .. })
    }

    /// Factorize with `an` on `engine`, solve with refinement, certify.
    pub fn solve(
        &self,
        an: &dagfact_core::Analysis,
        engine: dagfact_rt::RuntimeKind,
        rec: Option<&std::sync::Arc<dagfact_rt::TraceRecorder>>,
        probe: bool,
    ) -> Result<crate::op::Outcome, String> {
        match self {
            Problem::Real { a, b, .. } => crate::op::factor_solve(an, a, b, engine, rec, probe),
            Problem::Complex { a, b, .. } => crate::op::factor_solve(an, a, b, engine, rec, probe),
        }
    }
}
