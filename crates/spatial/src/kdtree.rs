//! The query-space kd-tree of NeuroSketch.
//!
//! Alg. 2 of the paper builds a kd-tree of fixed height `h` over the
//! training query set, splitting each node at the *median* of its queries
//! along a cyclically chosen dimension — so every leaf is (approximately)
//! equally probable under the workload distribution, diverting model
//! capacity toward frequent queries. Alg. 3 then merges sibling leaves
//! whose query function is estimated easy (small AQC) until `s` leaves
//! remain.
//!
//! The merge step is generic over the complexity score: the tree calls a
//! caller-provided `score(&[query indices]) -> f64`; NeuroSketch passes
//! its AQC estimator.

use serde::{Deserialize, Serialize};

/// Arena-allocated kd-tree over query vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: usize,
    dims: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    parent: Option<usize>,
    kind: NodeKind,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum NodeKind {
    Internal {
        dim: usize,
        val: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        queries: Vec<usize>,
    },
}

impl KdTree {
    /// Build a kd-tree of height `height` over `queries` (Alg. 2).
    /// With height 0 the tree is a single leaf holding every query.
    ///
    /// # Panics
    /// Panics if `queries` is empty or the vectors are ragged.
    pub fn build(queries: &[Vec<f64>], height: usize) -> KdTree {
        assert!(!queries.is_empty(), "cannot partition an empty query set");
        let dims = queries[0].len();
        assert!(
            queries.iter().all(|q| q.len() == dims),
            "ragged query vectors"
        );
        let mut tree = KdTree {
            nodes: Vec::new(),
            root: 0,
            dims,
        };
        let all: Vec<usize> = (0..queries.len()).collect();
        tree.root = tree.split_node(queries, all, height, 0, None);
        tree
    }

    /// Recursive splitting per Alg. 2: median along `dim`, children split
    /// on `(dim + 1) mod d`.
    fn split_node(
        &mut self,
        queries: &[Vec<f64>],
        subset: Vec<usize>,
        height: usize,
        dim: usize,
        parent: Option<usize>,
    ) -> usize {
        // Stop at the requested height, or when a further split could not
        // separate queries (degenerate duplicates).
        if height == 0 || subset.len() < 2 {
            let id = self.nodes.len();
            self.nodes.push(Node {
                parent,
                kind: NodeKind::Leaf { queries: subset },
            });
            return id;
        }
        // Median of the subset along `dim` (paper: N.val <- median of
        // N.Q). A dimension where all queries coincide (e.g. the constant
        // width of a fixed-width workload) cannot separate anything, so
        // fall through to the next dimensions before giving up — a small
        // robustness refinement over the paper's strict cycling.
        let mut chosen: Option<(usize, f64, Vec<usize>, Vec<usize>)> = None;
        for offset in 0..self.dims {
            let d = (dim + offset) % self.dims;
            let mut vals: Vec<f64> = subset.iter().map(|&i| queries[i][d]).collect();
            let mid = (vals.len() - 1) / 2;
            let (_, median, _) =
                vals.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("no NaN"));
            let median = *median;
            let (left_q, right_q): (Vec<usize>, Vec<usize>) =
                subset.iter().partition(|&&i| queries[i][d] <= median);
            if !left_q.is_empty() && !right_q.is_empty() {
                chosen = Some((d, median, left_q, right_q));
                break;
            }
        }
        let Some((dim, median, left_q, right_q)) = chosen else {
            // Identical queries along every dimension.
            let id = self.nodes.len();
            self.nodes.push(Node {
                parent,
                kind: NodeKind::Leaf { queries: subset },
            });
            return id;
        };

        let id = self.nodes.len();
        // Placeholder; children are patched in below.
        self.nodes.push(Node {
            parent,
            kind: NodeKind::Internal {
                dim,
                val: median,
                left: usize::MAX,
                right: usize::MAX,
            },
        });
        let next_dim = (dim + 1) % self.dims;
        let left = self.split_node(queries, left_q, height - 1, next_dim, Some(id));
        let right = self.split_node(queries, right_q, height - 1, next_dim, Some(id));
        if let NodeKind::Internal {
            left: l, right: r, ..
        } = &mut self.nodes[id].kind
        {
            *l = left;
            *r = right;
        }
        id
    }

    /// Query dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Locate the leaf a query falls into (Alg. 5's descent). Returns the
    /// node id, stable across merges.
    pub fn locate(&self, q: &[f64]) -> usize {
        assert_eq!(q.len(), self.dims, "query dim mismatch");
        let mut cur = self.root;
        loop {
            match &self.nodes[cur].kind {
                NodeKind::Internal {
                    dim,
                    val,
                    left,
                    right,
                } => {
                    cur = if q[*dim] <= *val { *left } else { *right };
                }
                NodeKind::Leaf { .. } => return cur,
            }
        }
    }

    /// Ids of all leaves, in depth-first order.
    pub fn leaf_ids(&self) -> Vec<usize> {
        self.subtree_leaves(self.root)
    }

    fn collect_leaves(&self, node: usize, out: &mut Vec<usize>) {
        match &self.nodes[node].kind {
            NodeKind::Internal { left, right, .. } => {
                self.collect_leaves(*left, out);
                self.collect_leaves(*right, out);
            }
            NodeKind::Leaf { .. } => out.push(node),
        }
    }

    /// The training-query indices owned by a leaf.
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf node id.
    pub fn leaf_queries(&self, leaf: usize) -> &[usize] {
        match &self.nodes[leaf].kind {
            NodeKind::Leaf { queries } => queries,
            NodeKind::Internal { .. } => panic!("node {leaf} is not a leaf"),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_ids().len()
    }

    /// Merge sibling leaves until `target_leaves` remain (Alg. 3).
    ///
    /// Repeatedly: score every unmarked leaf with `score` (lower = easier
    /// to approximate), mark the lowest-scoring one, and whenever two
    /// sibling leaves are both marked replace their parent with a merged
    /// (unmarked) leaf. Matches the paper's loop with the natural reading
    /// that marking skips already-marked leaves.
    ///
    /// Scores are memoized per node and fresh leaves are scored in
    /// parallel on up to `threads` workers, so an expensive scorer (AQC
    /// over sampled query pairs) is paid once per node instead of once
    /// per pass.
    ///
    /// A target of 1 or 2 leaves leaves the scores no choice: merging
    /// siblings can only end at the root, or at the root's two
    /// children, and a merged leaf owns its subtree's queries left to
    /// right whatever order the merges ran in. Those targets collapse
    /// the tree directly and never call `score`; the reachable tree is
    /// the scored loop's, node for node.
    pub fn merge_leaves(
        &mut self,
        score: impl Fn(&[usize]) -> f64 + Sync,
        target_leaves: usize,
        threads: usize,
    ) {
        let target = target_leaves.max(1);
        if self.leaf_count() <= target {
            return;
        }
        match (target, &self.nodes[self.root].kind) {
            (1, _) => self.collapse(self.root),
            (2, &NodeKind::Internal { left, right, .. }) => {
                self.collapse(left);
                self.collapse(right);
            }
            _ => self.merge_scored(score, target, threads),
        }
    }

    /// Turn `node` into a leaf owning its subtree's queries, leaf by
    /// leaf in depth-first order — what any sequence of sibling merges
    /// up to `node` leaves there.
    fn collapse(&mut self, node: usize) {
        let mut queries = Vec::new();
        for leaf in self.subtree_leaves(node) {
            queries.extend_from_slice(self.leaf_queries(leaf));
        }
        self.nodes[node].kind = NodeKind::Leaf { queries };
    }

    fn subtree_leaves(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(node, &mut out);
        out
    }

    /// Alg. 3's scored loop behind [`KdTree::merge_leaves`], for a tree
    /// with more than `target` leaves.
    fn merge_scored(
        &mut self,
        score: impl Fn(&[usize]) -> f64 + Sync,
        target: usize,
        threads: usize,
    ) {
        // Merging never allocates nodes (a parent is converted to a leaf
        // in place), so per-node state sized once here stays valid.
        let mut marked: Vec<bool> = vec![false; self.nodes.len()];
        // Each node is scored at most once (a leaf's query set never
        // changes while it remains a leaf; a merge turns the parent into
        // a *new* leaf that gets scored on the next pass), and every
        // pass's unscored leaves are scored together on the shared worker
        // pool — the expensive part of AQC-guided merging scales with the
        // build's thread budget.
        let mut scores: Vec<Option<f64>> = vec![None; self.nodes.len()];
        // Bound iterations: each pass either marks one leaf or merges one
        // pair, and both can happen at most `nodes` times.
        let max_iters = 4 * self.nodes.len() + 16;
        for _ in 0..max_iters {
            let leaves = self.leaf_ids();
            if leaves.len() <= target {
                return;
            }
            let unscored: Vec<usize> = leaves
                .iter()
                .copied()
                .filter(|&l| !marked[l] && scores[l].is_none())
                .collect();
            if !unscored.is_empty() {
                let this = &*self;
                let fresh = par::par_map(&unscored, threads, |_, &l| score(this.leaf_queries(l)));
                for (&l, s) in unscored.iter().zip(fresh) {
                    scores[l] = Some(s);
                }
            }
            // Mark the unmarked leaf with the smallest complexity.
            let candidate = leaves
                .iter()
                .filter(|&&l| !marked[l])
                .map(|&l| (l, scores[l].expect("scored above")))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
            if let Some((leaf, _)) = candidate {
                marked[leaf] = true;
            }
            // Merge any sibling pair that is fully marked.
            let mut merged_any = false;
            for &l in &self.leaf_ids() {
                if !marked[l] {
                    continue;
                }
                let Some(parent) = self.nodes[l].parent else {
                    continue;
                };
                let NodeKind::Internal { left, right, .. } = self.nodes[parent].kind else {
                    continue;
                };
                let sibling = if left == l { right } else { left };
                if !marked[sibling] || !self.is_leaf(sibling) || !self.is_leaf(l) {
                    continue;
                }
                // Merge: the parent becomes a leaf owning both query sets.
                let mut qs = self.leaf_queries(left).to_vec();
                qs.extend_from_slice(self.leaf_queries(right));
                self.nodes[parent].kind = NodeKind::Leaf { queries: qs };
                marked[parent] = false;
                scores[parent] = None;
                merged_any = true;
                if self.leaf_count() <= target {
                    return;
                }
                break; // leaf list changed; rescan
            }
            if candidate.is_none() && !merged_any {
                // Everything marked and no mergeable siblings — cannot
                // reach the target; stop rather than loop.
                return;
            }
        }
    }

    fn is_leaf(&self, id: usize) -> bool {
        matches!(self.nodes[id].kind, NodeKind::Leaf { .. })
    }

    /// Render the *reachable* tree as a flat node table in depth-first
    /// preorder (root first, each internal node immediately followed by
    /// its left subtree, then its right subtree).
    ///
    /// This is the serialization-friendly form consumed by persistent
    /// sketch formats: orphaned arena slots left behind by
    /// [`KdTree::merge_leaves`] are dropped, node ids are renumbered
    /// densely, and training-query ownership lists are **not** included —
    /// a flattened tree describes the routing structure only.
    pub fn to_flat(&self) -> Vec<FlatNode> {
        fn walk(tree: &KdTree, node: usize, out: &mut Vec<FlatNode>) {
            match &tree.nodes[node].kind {
                NodeKind::Internal {
                    dim,
                    val,
                    left,
                    right,
                } => {
                    let slot = out.len();
                    out.push(FlatNode::Internal {
                        dim: *dim,
                        val: *val,
                        left: 0,
                        right: 0,
                    });
                    let l = out.len();
                    walk(tree, *left, out);
                    let r = out.len();
                    walk(tree, *right, out);
                    if let FlatNode::Internal { left, right, .. } = &mut out[slot] {
                        *left = l;
                        *right = r;
                    }
                }
                NodeKind::Leaf { .. } => out.push(FlatNode::Leaf),
            }
        }
        let mut out = Vec::new();
        walk(self, self.root, &mut out);
        out
    }

    /// Rebuild a tree from a flat table produced by [`KdTree::to_flat`].
    ///
    /// Validates the table structurally — child indices in range and
    /// strictly increasing (preorder), every slot reachable exactly once,
    /// split dimensions below `dims` — so corrupt input yields a typed
    /// error, never a panic or an inconsistent tree. The rebuilt leaves
    /// own no training queries (see [`KdTree::to_flat`]); [`KdTree::locate`]
    /// and [`KdTree::leaf_ids`] behave identically to the source tree.
    pub fn from_flat(nodes: &[FlatNode], dims: usize) -> Result<KdTree, FlatTreeError> {
        if nodes.is_empty() {
            return Err(FlatTreeError::Empty);
        }
        if dims == 0 {
            return Err(FlatTreeError::ZeroDims);
        }
        let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut reached = vec![false; nodes.len()];
        // Preorder invariant (children strictly after their parent) makes
        // an explicit stack walk cycle-free by construction.
        let mut stack = vec![0usize];
        reached[0] = true;
        while let Some(i) = stack.pop() {
            if let FlatNode::Internal {
                dim, left, right, ..
            } = nodes[i]
            {
                if dim >= dims {
                    return Err(FlatTreeError::BadSplitDim { node: i, dim });
                }
                for child in [left, right] {
                    if child <= i || child >= nodes.len() {
                        return Err(FlatTreeError::BadChild { node: i, child });
                    }
                    if reached[child] {
                        return Err(FlatTreeError::SharedChild { child });
                    }
                    reached[child] = true;
                    parent[child] = Some(i);
                    stack.push(child);
                }
            }
        }
        if let Some(orphan) = reached.iter().position(|r| !r) {
            return Err(FlatTreeError::Unreachable { node: orphan });
        }
        let rebuilt = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| Node {
                parent: parent[i],
                kind: match *n {
                    FlatNode::Internal {
                        dim,
                        val,
                        left,
                        right,
                    } => NodeKind::Internal {
                        dim,
                        val,
                        left,
                        right,
                    },
                    FlatNode::Leaf => NodeKind::Leaf {
                        queries: Vec::new(),
                    },
                },
            })
            .collect();
        Ok(KdTree {
            nodes: rebuilt,
            root: 0,
            dims,
        })
    }
}

/// One node of a flattened kd-tree (see [`KdTree::to_flat`]): either an
/// internal split or a leaf, with children addressed by table index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlatNode {
    /// An internal split node.
    Internal {
        /// Attribute the node splits on.
        dim: usize,
        /// Split value (queries with `q[dim] <= val` go left).
        val: f64,
        /// Table index of the left child.
        left: usize,
        /// Table index of the right child.
        right: usize,
    },
    /// A leaf (partition). Query ownership lists are not part of the
    /// flat form.
    Leaf,
}

/// Structural defects [`KdTree::from_flat`] detects in a flat node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatTreeError {
    /// The node table was empty.
    Empty,
    /// The tree claimed zero query dimensions.
    ZeroDims,
    /// A split dimension was out of range for the declared dimensionality.
    BadSplitDim {
        /// Offending node index.
        node: usize,
        /// The out-of-range split dimension.
        dim: usize,
    },
    /// A child index pointed out of range or not strictly forward
    /// (preorder requires children after their parent).
    BadChild {
        /// Offending node index.
        node: usize,
        /// The invalid child index.
        child: usize,
    },
    /// Two internal nodes claimed the same child.
    SharedChild {
        /// The doubly-claimed child index.
        child: usize,
    },
    /// A table slot was not reachable from the root.
    Unreachable {
        /// The unreachable node index.
        node: usize,
    },
}

impl std::fmt::Display for FlatTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlatTreeError::Empty => write!(f, "empty node table"),
            FlatTreeError::ZeroDims => write!(f, "zero query dimensions"),
            FlatTreeError::BadSplitDim { node, dim } => {
                write!(f, "node {node} splits on out-of-range dimension {dim}")
            }
            FlatTreeError::BadChild { node, child } => {
                write!(f, "node {node} has invalid child index {child}")
            }
            FlatTreeError::SharedChild { child } => {
                write!(f, "node {child} is claimed by two parents")
            }
            FlatTreeError::Unreachable { node } => {
                write!(f, "node {node} is unreachable from the root")
            }
        }
    }
}

impl std::error::Error for FlatTreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A deterministic pseudo-random query set in [0,1]^2.
    fn queries(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let a = ((i as f64 * 0.754_877_666) % 1.0 + 1.0) % 1.0;
                let b = ((i as f64 * 0.569_840_290) % 1.0 + 1.0) % 1.0;
                vec![a, b]
            })
            .collect()
    }

    #[test]
    fn height_h_gives_2h_leaves() {
        let qs = queries(256);
        for h in 0..=4 {
            let t = KdTree::build(&qs, h);
            assert_eq!(t.leaf_count(), 1 << h, "height {h}");
        }
    }

    #[test]
    fn leaves_partition_the_query_set() {
        let qs = queries(100);
        let t = KdTree::build(&qs, 3);
        let mut seen = vec![false; qs.len()];
        for l in t.leaf_ids() {
            for &qi in t.leaf_queries(l) {
                assert!(!seen[qi], "query {qi} in two leaves");
                seen[qi] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some query not in any leaf");
    }

    #[test]
    fn locate_agrees_with_ownership() {
        // Every training query must locate to the leaf that owns it.
        let qs = queries(128);
        let t = KdTree::build(&qs, 4);
        for (i, q) in qs.iter().enumerate() {
            let leaf = t.locate(q);
            assert!(
                t.leaf_queries(leaf).contains(&i),
                "query {i} located to leaf {leaf} that does not own it"
            );
        }
    }

    #[test]
    fn median_split_balances_leaves() {
        let qs = queries(256);
        let t = KdTree::build(&qs, 3);
        for l in t.leaf_ids() {
            let n = t.leaf_queries(l).len();
            assert!((24..=40).contains(&n), "leaf size {n} far from 32");
        }
    }

    #[test]
    fn merging_reaches_target() {
        let qs = queries(256);
        let mut t = KdTree::build(&qs, 4);
        assert_eq!(t.leaf_count(), 16);
        // Score: constant — merging order arbitrary but count must drop.
        t.merge_leaves(|_| 1.0, 8, 2);
        assert_eq!(t.leaf_count(), 8);
    }

    #[test]
    fn merging_prefers_low_scores() {
        // Diagonal queries: every median split keeps query ids
        // contiguous, so a height-2 tree has 4 leaves holding ids
        // [0,16), [16,32), [32,48), [48,64) — and the two low-id
        // leaves are siblings.
        let qs: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![i as f64 / 64.0, i as f64 / 64.0])
            .collect();
        let mut t = KdTree::build(&qs, 2);
        assert_eq!(t.leaf_count(), 4);
        // Score each leaf by its mean query id: the two low-id sibling
        // leaves are cheapest and must be the ones merged.
        t.merge_leaves(
            |qids| qids.iter().sum::<usize>() as f64 / qids.len() as f64,
            3,
            2,
        );
        assert_eq!(t.leaf_count(), 3);
        let merged = t.leaf_queries(t.locate(&qs[0]));
        assert_eq!(merged.len(), 32, "low-score siblings should have merged");
        assert!(merged.contains(&0) && merged.contains(&31));
    }

    #[test]
    fn locate_still_works_after_merge() {
        let qs = queries(200);
        let mut t = KdTree::build(&qs, 4);
        t.merge_leaves(|qids| qids.len() as f64, 5, 1);
        assert_eq!(t.leaf_count(), 5);
        for (i, q) in qs.iter().enumerate() {
            let leaf = t.locate(q);
            assert!(
                t.leaf_queries(leaf).contains(&i),
                "query {i} lost after merge"
            );
        }
    }

    #[test]
    fn merge_to_one_leaf() {
        let qs = queries(64);
        let mut t = KdTree::build(&qs, 3);
        t.merge_leaves(|_| 0.0, 1, 1);
        assert_eq!(t.leaf_count(), 1);
        let l = t.leaf_ids()[0];
        assert_eq!(t.leaf_queries(l).len(), 64);
    }

    /// A score with no structure: a seeded hash of a leaf's query ids.
    fn arbitrary_score(seed: u64) -> impl Fn(&[usize]) -> f64 + Sync {
        move |qids: &[usize]| {
            let h = qids.iter().fold(seed, |h, &q| {
                (h ^ q as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(29)
            });
            (h >> 11) as f64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Merging to 1 or 2 leaves without a score is the scored loop
        /// under any score: the same routing table and the same query
        /// lists, in order. Coordinates come from a coarse grid, so
        /// duplicates stop some splits early and trees come out
        /// unbalanced too.
        #[test]
        fn unscored_merge_is_the_scored_merge(
            cells in prop::collection::vec((0u32..6, 0u32..6), 1..160),
            height in 1usize..6,
            target in 1usize..3,
            seed in 0u64..1 << 32,
        ) {
            let qs: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(a, b)| vec![a as f64 / 6.0, b as f64 / 6.0])
                .collect();
            let mut unscored = KdTree::build(&qs, height);
            let mut scored = unscored.clone();
            unscored.merge_leaves(|_| panic!("a merge with no choice scores nothing"), target, 1);
            scored.merge_scored(arbitrary_score(seed), target, 1);
            prop_assert_eq!(unscored.to_flat(), scored.to_flat());
            prop_assert_eq!(unscored.leaf_ids(), scored.leaf_ids());
            for l in unscored.leaf_ids() {
                prop_assert_eq!(unscored.leaf_queries(l), scored.leaf_queries(l));
            }
            prop_assert!(unscored.leaf_count() <= target);
        }
    }

    #[test]
    fn height_zero_single_leaf() {
        let qs = queries(10);
        let t = KdTree::build(&qs, 0);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.locate(&[0.5, 0.5]), t.leaf_ids()[0]);
    }

    #[test]
    fn duplicate_queries_stop_splitting_gracefully() {
        let qs = vec![vec![0.5, 0.5]; 16];
        let t = KdTree::build(&qs, 4);
        assert_eq!(t.leaf_count(), 1, "identical queries cannot be split");
    }

    #[test]
    #[should_panic(expected = "empty query set")]
    fn empty_build_panics() {
        let _ = KdTree::build(&[], 2);
    }

    #[test]
    fn flat_roundtrip_preserves_routing() {
        let qs = queries(200);
        let mut t = KdTree::build(&qs, 4);
        t.merge_leaves(|qids| qids.len() as f64, 5, 1);
        let flat = t.to_flat();
        // Reachable full binary tree: leaves + internals = 2 * leaves - 1.
        assert_eq!(flat.len(), 2 * t.leaf_count() - 1);
        let back = KdTree::from_flat(&flat, t.dims()).unwrap();
        assert_eq!(back.leaf_count(), t.leaf_count());
        // Same routing: probe a grid and compare leaf *positions* (ids are
        // renumbered, positions in leaf order are stable).
        let orig_leaves = t.leaf_ids();
        let back_leaves = back.leaf_ids();
        for i in 0..20 {
            for j in 0..20 {
                let q = [i as f64 / 20.0, j as f64 / 20.0];
                let a = orig_leaves.iter().position(|&l| l == t.locate(&q));
                let b = back_leaves.iter().position(|&l| l == back.locate(&q));
                assert_eq!(a, b, "query {q:?} routed differently");
            }
        }
    }

    #[test]
    fn flat_drops_orphaned_arena_slots() {
        let qs = queries(128);
        let mut t = KdTree::build(&qs, 3);
        t.merge_leaves(|_| 1.0, 2, 1);
        // The arena still holds every pre-merge node; the flat form only
        // the reachable ones.
        assert_eq!(t.to_flat().len(), 2 * t.leaf_count() - 1);
    }

    #[test]
    fn from_flat_rejects_structural_corruption() {
        assert!(matches!(
            KdTree::from_flat(&[], 2),
            Err(FlatTreeError::Empty)
        ));
        assert!(matches!(
            KdTree::from_flat(&[FlatNode::Leaf], 0),
            Err(FlatTreeError::ZeroDims)
        ));
        // Child pointing backwards (cycle attempt).
        let cyc = [
            FlatNode::Internal {
                dim: 0,
                val: 0.5,
                left: 0,
                right: 2,
            },
            FlatNode::Leaf,
            FlatNode::Leaf,
        ];
        assert!(matches!(
            KdTree::from_flat(&cyc, 2),
            Err(FlatTreeError::BadChild { .. })
        ));
        // Child out of range.
        let oob = [FlatNode::Internal {
            dim: 0,
            val: 0.5,
            left: 1,
            right: 9,
        }];
        assert!(matches!(
            KdTree::from_flat(&oob, 2),
            Err(FlatTreeError::BadChild { .. })
        ));
        // Split dimension out of range.
        let bad_dim = [
            FlatNode::Internal {
                dim: 5,
                val: 0.5,
                left: 1,
                right: 2,
            },
            FlatNode::Leaf,
            FlatNode::Leaf,
        ];
        assert!(matches!(
            KdTree::from_flat(&bad_dim, 2),
            Err(FlatTreeError::BadSplitDim { .. })
        ));
        // Unreachable trailing slot.
        let orphan = [FlatNode::Leaf, FlatNode::Leaf];
        assert!(matches!(
            KdTree::from_flat(&orphan, 2),
            Err(FlatTreeError::Unreachable { .. })
        ));
        // Two parents claiming one child.
        let shared = [
            FlatNode::Internal {
                dim: 0,
                val: 0.5,
                left: 1,
                right: 2,
            },
            FlatNode::Internal {
                dim: 1,
                val: 0.5,
                left: 2,
                right: 3,
            },
            FlatNode::Leaf,
            FlatNode::Leaf,
        ];
        assert!(matches!(
            KdTree::from_flat(&shared, 2),
            Err(FlatTreeError::SharedChild { .. })
        ));
    }

    #[test]
    fn single_leaf_flat_roundtrip() {
        let t = KdTree::build(&queries(10), 0);
        let flat = t.to_flat();
        assert_eq!(flat, vec![FlatNode::Leaf]);
        let back = KdTree::from_flat(&flat, 2).unwrap();
        assert_eq!(back.leaf_count(), 1);
    }
}
