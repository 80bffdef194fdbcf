//! Reverse Cuthill-McKee ordering (bandwidth reduction).
//!
//! Kept as a baseline ordering: it produces long thin elimination trees
//! with little task parallelism, which the ablation benches contrast
//! against nested dissection to show why the paper's DAG shape depends on
//! the ordering.

use crate::nd::Scratch;
use crate::perm::Permutation;
use dagfact_sparse::graph::Graph;

/// Compute the reverse Cuthill-McKee ordering. Each connected component is
/// traversed from a pseudo-peripheral vertex, visiting neighbors by
/// increasing degree; the concatenated visit order is then reversed.
pub fn reverse_cuthill_mckee(graph: &Graph) -> Permutation {
    let n = graph.nvertices();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // The traversal set is the unvisited vertices: from `start`, the
    // pseudo-peripheral search reaches exactly its component.
    let mut scratch = Scratch::new(n);
    scratch.in_set.fill(true);
    for start in 0..n {
        if !scratch.in_set[start] {
            continue;
        }
        let first = scratch.bfs(graph, start, 0);
        let (root, _, _) = scratch.pseudo_peripheral(graph, start, first);
        let mut queue = std::collections::VecDeque::new();
        scratch.in_set[root] = false;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| scratch.in_set[w])
                .collect();
            nbrs.sort_unstable_by_key(|&w| (graph.degree(w), w));
            for w in nbrs {
                if scratch.in_set[w] {
                    scratch.in_set[w] = false;
                    queue.push_back(w);
                }
            }
        }
    }
    order.reverse();
    Permutation::from_iperm(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_sparse::graph::Graph;

    fn bandwidth(graph: &Graph, perm: &Permutation) -> usize {
        let mut bw = 0usize;
        for v in 0..graph.nvertices() {
            for &w in graph.neighbors(v) {
                bw = bw.max(perm.new_of(v).abs_diff(perm.new_of(w)));
            }
        }
        bw
    }

    #[test]
    fn reduces_bandwidth_of_shuffled_grid() {
        let a = grid_laplacian_2d(10, 10);
        // Shuffle the grid with a deterministic stride permutation so the
        // natural bandwidth is destroyed.
        let n = a.ncols();
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        let shuffled = a.pattern().permute_symmetric(&shuffle);
        let g = Graph::from_pattern(&shuffled);
        let ident = Permutation::identity(n);
        let rcm = reverse_cuthill_mckee(&g);
        assert!(
            bandwidth(&g, &rcm) < bandwidth(&g, &ident) / 2,
            "rcm {} vs natural {}",
            bandwidth(&g, &rcm),
            bandwidth(&g, &ident)
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for base in [0usize, 3] {
            for v in 0..3 {
                for w in 0..3 {
                    if v != w {
                        adj.push(base + w);
                    }
                }
                let _ = v;
                xadj.push(adj.len());
            }
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = reverse_cuthill_mckee(&g);
        assert_eq!(p.len(), 6);
        // Valid permutation check is implicit in construction.
    }
}
