//! Adjacency-graph view of a symmetric sparsity pattern.
//!
//! Nested dissection (the SCOTCH substitute in `dagfact-order`) operates on
//! the undirected connectivity graph of `A + Aᵀ` with self-loops removed.
//! This module provides that view; the traversals over it (BFS level
//! structures, pseudo-peripheral search, components) live with the
//! orderings in `dagfact-order`.

use crate::pattern::SparsityPattern;

/// Undirected graph in CSR-like adjacency form (no self-loops; every edge
/// stored in both directions).
#[derive(Debug, Clone)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl Graph {
    /// Build the connectivity graph of a square pattern: symmetrizes and
    /// drops the diagonal.
    pub fn from_pattern(pattern: &SparsityPattern) -> Self {
        let symmetrized;
        let sym = if pattern.is_symmetric() {
            pattern
        } else {
            symmetrized = pattern.symmetrize();
            &symmetrized
        };
        let n = sym.ncols();
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::with_capacity(sym.nnz());
        for j in 0..n {
            for &i in sym.col(j) {
                if i != j {
                    adjncy.push(i);
                }
            }
            xadj.push(adjncy.len());
        }
        Graph { xadj, adjncy }
    }

    /// Build directly from adjacency arrays (must be symmetric and
    /// loop-free; only checked in debug builds).
    pub fn from_adjacency(xadj: Vec<usize>, adjncy: Vec<usize>) -> Self {
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adjncy.len());
        Graph { xadj, adjncy }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of directed adjacency entries (2× the undirected edge count).
    pub fn nadjacency(&self) -> usize {
        self.adjncy.len()
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid_laplacian_2d;

    #[test]
    fn pattern_to_graph_drops_diagonal() {
        let a = grid_laplacian_2d(3, 3);
        let g = Graph::from_pattern(a.pattern());
        assert_eq!(g.nvertices(), 9);
        for v in 0..9 {
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
        // Corner has 2 neighbors, center has 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 4);
    }
}
