//! Minimum-degree ordering on the elimination graph.
//!
//! A deliberately simple (no quotient graph, no supervariables) exact
//! minimum-degree: at each step the lowest-degree vertex is eliminated and
//! its neighborhood turned into a clique, one sorted merge per neighbor.
//! Complexity is fine for the two places it is used — ordering
//! nested-dissection leaves (≤ a few hundred vertices) and small
//! standalone problems — and the simplicity keeps it obviously correct,
//! which matters more here than AMD-grade speed.

use crate::perm::Permutation;
use dagfact_sparse::graph::Graph;

/// Rest value of [`MdScratch::local_of`] entries.
const NONE: usize = usize::MAX;

/// Reusable work arrays of [`minimum_degree_subset`], sized once per
/// ordering so that ordering many small subsets allocates nothing per
/// subset.
pub(crate) struct MdScratch {
    /// Dense local index of each vertex of the current subset (`NONE` at
    /// rest).
    local_of: Vec<usize>,
    /// Elimination-graph adjacency over local indices, each list sorted;
    /// a pool whose lists keep their capacity between subsets.
    adj: Vec<Vec<usize>>,
    /// Current degree of each local vertex, `NONE` once eliminated.
    deg: Vec<usize>,
    /// The eliminated vertex's live neighbors, and a merge buffer.
    nbrs: Vec<usize>,
    merged: Vec<usize>,
}

impl MdScratch {
    /// Work arrays for subsets of a graph with `n` vertices.
    pub(crate) fn new(n: usize) -> MdScratch {
        MdScratch {
            local_of: vec![NONE; n],
            adj: Vec::new(),
            deg: Vec::new(),
            nbrs: Vec::new(),
            merged: Vec::new(),
        }
    }
}

/// Order all vertices of `graph` by minimum degree. Ties break toward the
/// smallest vertex id, making the ordering deterministic.
pub fn minimum_degree(graph: &Graph) -> Permutation {
    let n = graph.nvertices();
    let mut order = Vec::with_capacity(n);
    let all: Vec<usize> = (0..n).collect();
    minimum_degree_subset(graph, &all, &mut MdScratch::new(n), &mut order);
    Permutation::from_iperm(order)
}

/// Order the given vertex subset (which must be closed: edges leaving the
/// subset are ignored) by minimum degree, appending the vertex ids to
/// `order` in elimination order. Ties break toward the earliest vertex of
/// `vertices`.
pub(crate) fn minimum_degree_subset(
    graph: &Graph,
    vertices: &[usize],
    work: &mut MdScratch,
    order: &mut Vec<usize>,
) {
    let k = vertices.len();
    let MdScratch {
        local_of,
        adj,
        deg,
        nbrs,
        merged,
    } = work;
    if adj.len() < k {
        adj.resize_with(k, Vec::new);
    }
    // Local adjacency as sorted vectors over local indices.
    for (li, &v) in vertices.iter().enumerate() {
        local_of[v] = li;
    }
    for (li, &v) in vertices.iter().enumerate() {
        let a = &mut adj[li];
        a.clear();
        a.extend(
            graph
                .neighbors(v)
                .iter()
                .map(|&w| local_of[w])
                .filter(|&lw| lw != NONE),
        );
        a.sort_unstable();
        a.dedup();
    }
    for &v in vertices {
        local_of[v] = NONE;
    }
    deg.clear();
    deg.extend(adj[..k].iter().map(Vec::len));
    for _ in 0..k {
        // The minimum-degree live vertex, smallest local index on ties.
        let Some((v, _)) = deg.iter().enumerate().min_by_key(|&(li, &d)| (d, li)) else {
            break;
        };
        deg[v] = NONE;
        order.push(vertices[v]);
        // Form the clique among v's live neighbors and detach v:
        // adj[w] ← (adj[w] ∪ nbrs) ∖ {v, w}, one sorted merge per neighbor.
        nbrs.clear();
        nbrs.extend(adj[v].iter().copied().filter(|&w| deg[w] != NONE));
        for &w in nbrs.iter() {
            let aw = &mut adj[w];
            merged.clear();
            let (mut i, mut j) = (0, 0);
            loop {
                let x = match (aw.get(i), nbrs.get(j)) {
                    (Some(&a), Some(&b)) => {
                        i += usize::from(a <= b);
                        j += usize::from(b <= a);
                        a.min(b)
                    }
                    (Some(&a), None) => {
                        i += 1;
                        a
                    }
                    (None, Some(&b)) => {
                        j += 1;
                        b
                    }
                    (None, None) => break,
                };
                if x != v && x != w {
                    merged.push(x);
                }
            }
            std::mem::swap(aw, merged);
            deg[w] = aw.len();
        }
        adj[v].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{grid_laplacian_2d, random_spd};
    use dagfact_sparse::graph::Graph;

    #[test]
    fn star_graph_center_last() {
        // Star: center 0 connected to 1..=4. MD must eliminate leaves first.
        let mut xadj = vec![0usize];
        let mut adjncy = vec![1, 2, 3, 4];
        xadj.push(4);
        for _ in 1..=4 {
            adjncy.push(0);
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy);
        let p = minimum_degree(&g);
        // The hub may legally tie with the final leaf (eliminating it then
        // causes no fill), but it must never go while ≥ 2 leaves remain.
        assert!(p.new_of(0) >= 3, "hub eliminated too early: {}", p.new_of(0));
    }

    #[test]
    fn ordering_is_a_valid_permutation() {
        let a = random_spd(80, 4, 3);
        let g = Graph::from_pattern(a.pattern());
        let p = minimum_degree(&g);
        let mut seen = [false; 80];
        for new in 0..80 {
            let old = p.old_of(new);
            assert!(!seen[old]);
            seen[old] = true;
        }
    }

    #[test]
    fn subset_ordering_only_touches_subset() {
        let a = grid_laplacian_2d(5, 5);
        let g = Graph::from_pattern(a.pattern());
        let subset = vec![0, 1, 2, 5, 6, 7];
        let mut order = Vec::new();
        minimum_degree_subset(&g, &subset, &mut MdScratch::new(25), &mut order);
        assert_eq!(order.len(), subset.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut expect = subset.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one() {
        let a = grid_laplacian_2d(8, 8);
        let g = Graph::from_pattern(a.pattern());
        let mut shared = MdScratch::new(64);
        let subsets: [Vec<usize>; 3] = [
            (0..64).collect(),
            (0..64).filter(|v| v % 3 != 0).collect(),
            vec![9, 10, 11, 17, 18, 19],
        ];
        for subset in &subsets {
            let (mut reused, mut fresh) = (Vec::new(), Vec::new());
            minimum_degree_subset(&g, subset, &mut shared, &mut reused);
            minimum_degree_subset(&g, subset, &mut MdScratch::new(64), &mut fresh);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn path_graph_avoids_fill() {
        // On a path, MD produces zero fill; a correct implementation will
        // never eliminate an interior vertex while endpoints remain.
        let n = 7;
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for v in 0..n {
            if v > 0 {
                adj.push(v - 1);
            }
            if v + 1 < n {
                adj.push(v + 1);
            }
            xadj.push(adj.len());
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = minimum_degree(&g);
        // First eliminated vertex must be an endpoint (degree 1).
        let first = p.old_of(0);
        assert!(first == 0 || first == n - 1);
    }
}
