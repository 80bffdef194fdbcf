//! Supernode detection, supernodal row structures, and amalgamation.
//!
//! A supernode is a maximal range of consecutive columns sharing the same
//! below-diagonal structure; each becomes a *panel* (tall skinny dense
//! block) of the factor. The amalgamation step (He´non-Ramet-Roman \[25\] in
//! the paper) merges small supernodes into their parent, accepting bounded
//! extra fill-in: "the default parameter for amalgamation has been slightly
//! increased to allow up to 12% more fill-in to build larger blocks" (§V).

use crate::etree::NO_PARENT;
use dagfact_sparse::SparsityPattern;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options controlling supernode amalgamation.
#[derive(Debug, Clone)]
pub struct AmalgamationOptions {
    /// Global extra-fill budget, as a fraction of the un-amalgamated
    /// factor nnz. The paper raises the default "to allow up to 12% more
    /// fill-in to build larger blocks" for the GPUs (§V).
    pub fill_ratio: f64,
    /// Merges producing a panel at most this wide are free (don't draw
    /// from the budget): panels below this width make tasks too small for
    /// any scheduler, so they are coalesced unconditionally.
    pub min_width: usize,
}

impl Default for AmalgamationOptions {
    fn default() -> Self {
        AmalgamationOptions {
            fill_ratio: 0.12,
            min_width: 8,
        }
    }
}

/// A supernode partition of the columns `0..n`, with per-supernode row
/// structures: `rows[s]` lists the factor rows *below* the supernode's own
/// columns (sorted, global indices).
#[derive(Debug, Clone)]
pub struct SupernodePartition {
    /// First column of each supernode, ascending; an extra terminal entry
    /// equals `n` so `cols(s) = first[s]..first[s+1]`.
    pub first: Vec<usize>,
    /// `snode_of[j]`: supernode containing column `j`.
    pub snode_of: Vec<usize>,
    /// Below-diagonal row structure of each supernode.
    pub rows: Vec<Vec<usize>>,
    /// Supernode-tree parent (the supernode of the parent of the last
    /// column), `NO_PARENT` for roots.
    pub parent: Vec<usize>,
}

impl SupernodePartition {
    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// `true` when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column range of supernode `s`.
    pub fn cols(&self, s: usize) -> core::ops::Range<usize> {
        self.first[s]..self.first[s + 1]
    }

    /// Width (number of columns) of supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.first[s + 1] - self.first[s]
    }

    /// nnz(L) under this partition (panels are dense: width·(width+1)/2
    /// diagonal entries plus width·|rows| below). Saturates instead of
    /// wrapping on degenerate partitions.
    pub fn nnz_factor(&self) -> usize {
        (0..self.len()).fold(0usize, |acc, s| {
            acc.saturating_add(group_nnz(self.width(s), self.rows[s].len()))
        })
    }
}

/// Detect *fundamental-style* supernodes from the elimination tree and
/// column counts: columns `j` and `j+1` share a supernode iff
/// `parent[j] == j+1` and `cc[j+1] == cc[j] - 1` (then
/// `struct(j+1) = struct(j) ∖ {j}`). Requires a topologically-labeled
/// (postordered) tree. An empty tree has no supernodes (`[0]`).
pub fn detect_supernodes(parent: &[usize], cc: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut first = vec![0usize];
    for j in 1..n {
        let fused = parent[j - 1] == j && cc[j] + 1 == cc[j - 1];
        if !fused {
            first.push(j);
        }
    }
    if n > 0 {
        first.push(n);
    }
    first
}

/// Build the full partition: row structures via bottom-up merging (children
/// structures minus own columns, union the original pattern columns), and
/// the supernode tree.
pub fn build_partition(
    pattern: &SparsityPattern,
    parent: &[usize],
    first: Vec<usize>,
) -> SupernodePartition {
    let n = pattern.ncols();
    let nsup = first.len() - 1;
    let mut snode_of = vec![0usize; n];
    for s in 0..nsup {
        snode_of[first[s]..first[s + 1]].fill(s);
    }
    // Supernode-tree parent: parent of the last column.
    let mut sparent = vec![NO_PARENT; nsup];
    for s in 0..nsup {
        let last = first[s + 1] - 1;
        if parent[last] != NO_PARENT {
            sparent[s] = snode_of[parent[last]];
        }
    }
    // Row structures bottom-up. The tree is topologically labeled, so an
    // ascending sweep finalizes every child before its parent: each child
    // appends its rows beyond the parent's columns to `rows[parent]`, and
    // the parent's own pass dedups them with its pattern entries.
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nsup];
    // `mark[i] == s`: row `i` is already in `rows[s]`.
    let mut mark = vec![usize::MAX; n];
    for s in 0..nsup {
        let (fc, lc) = (first[s], first[s + 1]);
        let r = &mut rows[s];
        r.retain(|&i| {
            let fresh = mark[i] != s;
            mark[i] = s;
            fresh
        });
        for j in fc..lc {
            for &i in pattern.col(j) {
                if i >= lc && mark[i] != s {
                    mark[i] = s;
                    r.push(i);
                }
            }
        }
        r.sort_unstable();
        // Rows inside the parent's columns are absorbed by its diagonal
        // block; the rest flow into its structure.
        let p = sparent[s];
        if p != NO_PARENT {
            let (done, pending) = rows.split_at_mut(p);
            let r = &done[s];
            pending[0].extend_from_slice(&r[r.partition_point(|&i| i < first[p + 1])..]);
        }
    }
    SupernodePartition {
        first,
        snode_of,
        rows,
        parent: sparent,
    }
}

/// Check that the row structures nest along the supernode tree: for every
/// supernode `c` with parent `p`, the rows of `c` beyond `p`'s columns are
/// rows of `p` — the supernodal form of `struct(L_j) ∖ {parent(j)} ⊆
/// struct(L_parent(j))`. Returns the first `c` (in parent order) that
/// breaks it. Children are visited grouped by parent, so each parent's
/// rows are stamped once: O(Σ|rows| + n) plus a sort of the supernodes.
fn nesting_violation(partition: &SupernodePartition) -> Option<usize> {
    let parent = &partition.parent;
    let mut children: Vec<usize> = (0..partition.len())
        .filter(|&c| parent[c] != NO_PARENT)
        .collect();
    children.sort_unstable_by_key(|&c| (parent[c], c));
    // `stamp[i] == p`: row `i` is a row of `p`.
    let mut stamp = vec![NO_PARENT; partition.snode_of.len()];
    let mut stamped = NO_PARENT;
    children.into_iter().find(|&c| {
        let p = parent[c];
        if p != stamped {
            for &i in &partition.rows[p] {
                stamp[i] = p;
            }
            stamped = p;
        }
        let end = partition.first[p + 1];
        partition.rows[c].iter().any(|&i| i >= end && stamp[i] != p)
    })
}

/// Amalgamation following Hénon-Ramet-Roman \[25\]: repeatedly apply the
/// *cheapest* child→parent merge (smallest extra fill) while the total
/// extra fill stays within `fill_ratio` of the original factor nnz. A
/// merge requires the parent's columns to start right after the child's so
/// the merged panel stays contiguous.
///
/// Cheapest-first with a global budget concentrates the allowance on the
/// tiny supernodes at the bottom of the tree (the ones whose tasks would
/// otherwise be too small for any runtime — and far too small for a GPU,
/// §V), which is exactly how PaStiX uses it.
///
/// The partition must come from [`build_partition`]: its row structures
/// nest along the tree (checked on entry, panics otherwise), so the rows
/// of a child group beyond its parent group's columns are already rows of
/// the parent group, and a merged group's structure is exactly its
/// parent's. A merge's fill is then priced in O(1) from the widths and
/// row counts, and committing it just drops the child's rows.
pub fn amalgamate(
    partition: SupernodePartition,
    options: &AmalgamationOptions,
) -> SupernodePartition {
    if let Some(c) = nesting_violation(&partition) {
        panic!(
            "amalgamate: rows of supernode {c} beyond its parent's columns are not rows of \
             its parent; the partition must come from build_partition"
        );
    }
    let nsup = partition.len();
    let n = partition.snode_of.len();
    let SupernodePartition {
        first,
        mut snode_of,
        rows,
        parent,
    } = partition;
    let mut g = Groups {
        cur_nnz: (0..nsup)
            .map(|s| group_nnz(first[s + 1] - first[s], rows[s].len()))
            .collect(),
        live_first: first[..nsup].to_vec(),
        live_last: first[1..].to_vec(),
        rows,
        parent,
        merged_into: (0..nsup).collect(),
        generation: vec![0; nsup],
        alive: vec![true; nsup],
    };
    let total_orig: usize = g.cur_nnz.iter().fold(0usize, |a, &x| a.saturating_add(x));
    let mut budget = (options.fill_ratio * total_orig as f64) as i64;

    // Min-heap of candidate merges keyed by extra fill; entries carry the
    // generation stamps they were computed under.
    let mut heap: BinaryHeap<Candidate> = (0..nsup).filter_map(|s| g.candidate(s)).collect();
    // Live group ending at a given column (live_last never changes for a
    // live group): used to discover children whose contiguity with a
    // grown parent group only becomes true after a merge.
    let mut group_ending_at = vec![NO_PARENT; n + 1];
    for s in 0..nsup {
        group_ending_at[g.live_last[s]] = s;
    }

    while let Some(Reverse((fill, s, gen_s, _gen_p))) = heap.pop() {
        if !g.alive[s] || g.generation[s] != gen_s {
            continue;
        }
        let p = g.find(g.parent[s]);
        if p == s || !g.alive[p] || g.live_first[p] != g.live_last[s] {
            continue;
        }
        // Re-price: the parent group may have changed since this entry
        // was pushed (its generation moved on).
        let fill_now = g.fill(s, p);
        if fill_now > fill {
            // Stale optimistic entry: reinsert with the fresh cost.
            heap.push(Reverse((fill_now, s, g.generation[s], g.generation[p])));
            continue;
        }
        // Tiny groups may always merge (their absolute fill is small and
        // the resulting task would otherwise be un-schedulable); larger
        // merges draw from the global budget.
        let w = g.live_last[p] - g.live_first[s];
        let tiny = w <= options.min_width;
        if !tiny && fill_now > budget {
            continue; // too expensive now; cheaper candidates also popped
        }
        if !tiny {
            budget -= fill_now.max(0);
        }
        // Commit the merge: p absorbs s and keeps its own rows.
        g.live_first[p] = g.live_first[s];
        g.cur_nnz[p] = group_nnz(w, g.rows[p].len());
        g.rows[s] = Vec::new();
        g.alive[s] = false;
        g.merged_into[s] = p;
        g.generation[p] += 1;
        group_ending_at[g.live_last[s]] = NO_PARENT;
        // New candidates: the merged group into *its* parent, and the
        // group that now abuts p from below (if its tree parent resolves
        // to p, it is a candidate).
        heap.extend(g.candidate(p));
        let below = group_ending_at[g.live_first[p]];
        if below != NO_PARENT && g.alive[below] {
            heap.extend(g.candidate(below));
        }
    }

    // Rebuild a compact partition.
    let mut order: Vec<usize> = (0..nsup).filter(|&s| g.alive[s]).collect();
    order.sort_by_key(|&s| g.live_first[s]);
    let mut first = Vec::with_capacity(order.len() + 1);
    let mut new_rows = Vec::with_capacity(order.len());
    for &s in &order {
        first.push(g.live_first[s]);
        new_rows.push(std::mem::take(&mut g.rows[s]));
    }
    first.push(n);
    for (new_s, w) in first.windows(2).enumerate() {
        snode_of[w[0]..w[1]].fill(new_s);
    }
    // Recompute the supernode tree from the merged structures: parent =
    // supernode of the smallest row (first ancestor receiving an update),
    // falling back to NO_PARENT for top supernodes.
    let nlive = order.len();
    let mut sparent = vec![NO_PARENT; nlive];
    for s in 0..nlive {
        if let Some(&r) = new_rows[s].first() {
            sparent[s] = snode_of[r];
        }
    }
    SupernodePartition {
        first,
        snode_of,
        rows: new_rows,
        parent: sparent,
    }
}

/// A candidate merge `(extra fill, child group, child generation, parent
/// generation)`, ordered cheapest first.
type Candidate = Reverse<(i64, usize, u32, u32)>;

/// nnz of a dense panel `w` columns wide with `r` rows below it. Checked
/// arithmetic: a pathological partition (widths near the usize range)
/// must price a merge as "infinitely expensive" instead of wrapping and
/// looking cheap.
fn group_nnz(w: usize, r: usize) -> usize {
    let tri = w
        .checked_add(1)
        .and_then(|w1| w.checked_mul(w1))
        .map(|x| x / 2);
    tri.and_then(|t| w.checked_mul(r).and_then(|wr| t.checked_add(wr)))
        .unwrap_or(usize::MAX)
}

/// Amalgamation state: groups of merged supernodes, indexed by the
/// group's *root* (topmost) supernode. A live group's row structure is its
/// root's `rows` entry (nesting).
struct Groups {
    live_first: Vec<usize>,
    live_last: Vec<usize>,
    rows: Vec<Vec<usize>>,
    cur_nnz: Vec<usize>,
    /// Supernode-tree parent of each supernode.
    parent: Vec<usize>,
    /// Union-find links from a merged group to the group that absorbed it.
    merged_into: Vec<usize>,
    /// Bumped when a group absorbs another, invalidating its heap entries.
    generation: Vec<u32>,
    alive: Vec<bool>,
}

impl Groups {
    /// Union-find root with path halving.
    fn find(&mut self, mut s: usize) -> usize {
        while self.merged_into[s] != s {
            self.merged_into[s] = self.merged_into[self.merged_into[s]];
            s = self.merged_into[s];
        }
        s
    }

    /// Extra fill of merging child group `c` into parent group `p`: the
    /// merged structure is `rows[p]` (nesting), so only sizes change.
    fn fill(&self, c: usize, p: usize) -> i64 {
        let wc = self.live_last[c] - self.live_first[c];
        let wp = self.live_last[p] - self.live_first[p];
        let new_nnz = group_nnz(wc.saturating_add(wp), self.rows[p].len());
        let old_nnz = self.cur_nnz[c].saturating_add(self.cur_nnz[p]);
        i64::try_from(new_nnz)
            .unwrap_or(i64::MAX)
            .saturating_sub(i64::try_from(old_nnz).unwrap_or(i64::MAX))
    }

    /// The merge of group `s` into its parent group, if their columns are
    /// contiguous.
    fn candidate(&mut self, s: usize) -> Option<Candidate> {
        if self.parent[s] == NO_PARENT {
            return None;
        }
        let p = self.find(self.parent[s]);
        if p == s || self.live_first[p] != self.live_last[s] {
            return None;
        }
        let fill = self.fill(s, p);
        Some(Reverse((fill, s, self.generation[s], self.generation[p])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::column_counts;
    use crate::etree::{elimination_tree, is_topological, postorder, relabel_parent};
    use dagfact_sparse::gen::{grid_laplacian_2d, random_spd};

    fn prepared(pattern: &SparsityPattern) -> (SparsityPattern, Vec<usize>, Vec<usize>) {
        let sym = pattern.symmetrize();
        let parent = elimination_tree(&sym);
        let post = postorder(&parent);
        let mut perm = vec![0usize; post.len()];
        for (new, &old) in post.iter().enumerate() {
            perm[old] = new;
        }
        let permuted = sym.permute_symmetric(&perm);
        let parent2 = relabel_parent(&parent, &post);
        assert!(is_topological(&parent2));
        let (cc, _) = column_counts(&permuted, &parent2);
        (permuted, parent2, cc)
    }

    /// struct(L[:, j]) from dense symbolic factorization (diag excluded).
    fn naive_struct_below(pattern: &SparsityPattern) -> Vec<Vec<usize>> {
        let n = pattern.ncols();
        let mut cols: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for j in 0..n {
            for &i in pattern.col(j) {
                if i > j {
                    cols[j][i] = true;
                }
            }
            for k in 0..j {
                if cols[k][j] {
                    let (head, tail) = cols.split_at_mut(j);
                    for (s, d) in head[k].iter().zip(tail[0].iter_mut()).skip(j + 1) {
                        if *s {
                            *d = true;
                        }
                    }
                }
            }
        }
        cols.into_iter()
            .map(|c| c.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect())
            .collect()
    }

    #[test]
    fn partition_covers_columns_contiguously() {
        let a = grid_laplacian_2d(7, 7);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        assert_eq!(*part.first.first().unwrap(), 0);
        assert_eq!(*part.first.last().unwrap(), 49);
        for s in 0..part.len() {
            assert!(part.width(s) >= 1);
            for j in part.cols(s) {
                assert_eq!(part.snode_of[j], s);
            }
        }
    }

    #[test]
    fn supernode_structures_match_naive_symbolic() {
        for seed in [1u64, 9, 23] {
            let a = random_spd(30, 3, seed);
            let (p, parent, cc) = prepared(a.pattern());
            let first = detect_supernodes(&parent, &cc);
            let part = build_partition(&p, &parent, first);
            let naive = naive_struct_below(&p);
            for s in 0..part.len() {
                let fc = part.cols(s).start;
                let lc = part.cols(s).end;
                // struct of the FIRST column below the supernode's columns
                // must equal the supernode's row list.
                let expect: Vec<usize> =
                    naive[fc].iter().copied().filter(|&i| i >= lc).collect();
                assert_eq!(part.rows[s], expect, "seed {seed} snode {s}");
            }
        }
    }

    #[test]
    fn nnz_factor_matches_column_counts() {
        let a = grid_laplacian_2d(8, 6);
        let (p, parent, cc) = prepared(a.pattern());
        let nnz_cc: usize = cc.iter().sum();
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        assert_eq!(part.nnz_factor(), nnz_cc);
    }

    #[test]
    fn amalgamation_reduces_supernode_count_with_bounded_fill() {
        let a = grid_laplacian_2d(12, 12);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        let nnz0 = part.nnz_factor();
        let count0 = part.len();
        let opts = AmalgamationOptions {
            fill_ratio: 0.12,
            min_width: 4,
        };
        let merged = amalgamate(part, &opts);
        assert!(merged.len() < count0, "no merge happened");
        // Every column still covered, tree still topological on snodes.
        assert_eq!(*merged.first.last().unwrap(), 144);
        for s in 0..merged.len() {
            if merged.parent[s] != NO_PARENT {
                assert!(merged.parent[s] > s, "snode tree not topological");
            }
        }
        // Fill growth respects a loose global bound (per-merge bound is
        // 12%, but min-width merges may add a bit more).
        let nnz1 = merged.nnz_factor();
        assert!(nnz1 >= nnz0);
        assert!(
            (nnz1 as f64) < 2.0 * nnz0 as f64,
            "unreasonable fill growth: {nnz0} -> {nnz1}"
        );
    }

    #[test]
    fn zero_ratio_amalgamation_only_merges_tiny_snodes() {
        let a = random_spd(40, 3, 5);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        let nnz0 = part.nnz_factor();
        let merged = amalgamate(
            part,
            &AmalgamationOptions {
                fill_ratio: 0.0,
                min_width: 1,
            },
        );
        // ratio 0 + min_width 1 accepts only zero-fill merges.
        assert_eq!(merged.nnz_factor(), nnz0);
    }

    #[test]
    fn empty_tree_has_no_supernodes() {
        let first = detect_supernodes(&[], &[]);
        assert_eq!(first, vec![0]);
        let part = build_partition(&SparsityPattern::empty(0), &[], first);
        assert!(part.is_empty());
        assert!(amalgamate(part, &AmalgamationOptions::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "must come from build_partition")]
    fn amalgamate_rejects_unnested_rows() {
        // Three single-column supernodes in a chain 0 → 1 → 2 → 3: row 3 of
        // supernode 0 lies beyond its parent's column but is missing from
        // the parent's rows.
        let part = SupernodePartition {
            first: vec![0, 1, 2, 3, 4],
            snode_of: vec![0, 1, 2, 3],
            rows: vec![vec![1, 3], vec![2], vec![3], vec![]],
            parent: vec![1, 2, 3, NO_PARENT],
        };
        amalgamate(part, &AmalgamationOptions::default());
    }

    use dagfact_sparse::SparsityPattern;
}
