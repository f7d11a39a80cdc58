//! The Figure-3 tree construction (Section 5.2).
//!
//! Given `ε ∈ (0, 8)`, set `p = ⌈72/ε⌉ + 6` and `q = ⌈48/ε⌉ − 4`. The
//! graph is a root `u` with `p·q` paths `T_{i,j}` hanging off it: path
//! `(i, j)` has `n^{(iq+j+1)/(pq)} − n^{(iq+j)/(pq)}` nodes, internal
//! edges of weight `1/n`, and is attached at its middle node by an edge of
//! weight `w_{i,j} = 2^i(q + j)`.
//!
//! To keep exact integer arithmetic we scale all weights by `n`: path
//! edges get weight 1 and the attachment edge of `T_{i,j}` gets
//! `n·w_{i,j}`. Normalized quantities (Δ, stretch) are invariant under
//! the scaling.

use doubling_metric::graph::{Dist, Graph, GraphBuilder, NodeId};

/// Parameters of the construction, derived from a rational `ε ∈ (0, 8)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbParams {
    /// Numerator of `ε`.
    pub eps_num: u64,
    /// Denominator of `ε`.
    pub eps_den: u64,
    /// `p = ⌈72/ε⌉ + 6` — number of weight octaves.
    pub p: usize,
    /// `q = ⌈48/ε⌉ − 4` — subtrees per octave.
    pub q: usize,
}

impl LbParams {
    /// Derives `(p, q)` from `ε = num/den ∈ (0, 8)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < 8`.
    pub fn from_eps(eps_num: u64, eps_den: u64) -> Self {
        assert!(eps_den > 0 && eps_num > 0, "epsilon must be positive");
        assert!(eps_num < 8 * eps_den, "epsilon must be below 8");
        let ceil_div = |a: u64, num: u64, den: u64| (a * den).div_ceil(num);
        let p = ceil_div(72, eps_num, eps_den) as usize + 6;
        let q = (ceil_div(48, eps_num, eps_den) as usize).saturating_sub(4).max(1);
        LbParams { eps_num, eps_den, p, q }
    }

    /// `c = p·q`, the number of subtrees; Theorem 1.3 checks
    /// `c < (60/ε)²`.
    pub fn c(&self) -> usize {
        self.p * self.q
    }

    /// The unscaled attachment weight `w_{i,j} = 2^i(q + j)`.
    ///
    /// # Panics
    ///
    /// Panics on shift overflow.
    pub fn w(&self, i: usize, j: usize) -> u64 {
        (1u64.checked_shl(i as u32).expect("weight overflow")) * (self.q + j) as u64
    }
}

/// One subtree `T_{i,j}` of the construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subtree {
    /// Octave index `i ∈ [p]`.
    pub i: usize,
    /// Within-octave index `j ∈ [q]`.
    pub j: usize,
    /// Unscaled attachment weight `w_{i,j} = 2^i(q + j)`.
    pub w: u64,
    /// Number of path nodes (at least 1).
    pub len: usize,
}

/// The assembled lower-bound tree.
///
/// # Examples
///
/// ```rust
/// use lowerbound::{game, LbParams, LowerBoundTree};
///
/// let params = LbParams::from_eps(4, 1); // ε = 4 ⇒ floor 9 − ε = 5
/// let t = LowerBoundTree::new(params, 1 << 12);
/// let order = game::increasing_weight_order(&t);
/// let (stretch, _) = game::worst_case_stretch(&t, &order);
/// assert!(stretch >= 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct LowerBoundTree {
    params: LbParams,
    n_scale: u64,
    subtrees: Vec<Subtree>,
    total_nodes: usize,
}

impl LowerBoundTree {
    /// Builds the construction targeting `n` nodes.
    ///
    /// Path populations follow the paper's `n^{(iq+j+1)/(pq)} −
    /// n^{(iq+j)/(pq)}` profile (computed in floating point and clamped to
    /// at least one node per path, so small `n` with large `p·q` still
    /// yields a well-formed tree); the population *profile*, not its exact
    /// rounding, is what the counting argument uses.
    pub fn new(params: LbParams, n: usize) -> Self {
        assert!(n >= 2, "need at least two nodes");
        let c = params.c() as f64;
        let nf = n as f64;
        let mut subtrees = Vec::with_capacity(params.c());
        let mut total = 1usize; // root
        for i in 0..params.p {
            for j in 0..params.q {
                let k = (i * params.q + j) as f64;
                let lo = nf.powf(k / c);
                let hi = nf.powf((k + 1.0) / c);
                let len = ((hi.round() - lo.round()) as isize).max(1) as usize;
                total += len;
                subtrees.push(Subtree { i, j, w: params.w(i, j), len });
            }
        }
        LowerBoundTree { params, n_scale: n as u64, subtrees, total_nodes: total }
    }

    /// The parameters.
    pub fn params(&self) -> &LbParams {
        &self.params
    }

    /// The subtrees in `(i, j)` lexicographic order (increasing weight
    /// within an octave).
    pub fn subtrees(&self) -> &[Subtree] {
        &self.subtrees
    }

    /// Total node count (root + all paths).
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// The scaled attachment weight of a subtree (`n·w_{i,j}`).
    pub fn scaled_w(&self, s: &Subtree) -> Dist {
        self.n_scale * s.w
    }

    /// The normalized diameter `Δ` of the construction (in scaled units,
    /// `min weight = 1`): twice the largest root-to-leaf distance.
    pub fn normalized_diameter(&self) -> u128 {
        let mut max_depth: u128 = 0;
        for s in &self.subtrees {
            let depth = self.scaled_w(s) as u128 + (s.len as u128) / 2;
            max_depth = max_depth.max(depth);
        }
        2 * max_depth
    }

    /// Theorem 1.3's diameter envelope `2^{6+1/ε}·(96/ε)·n` (the explicit
    /// constant behind `O(2^{1/ε} n)`): `Δ ≤ 2·n·w_{p−1,q−1} + n ≤
    /// 2·n·2^{p−1}·(2q−1) + n`, with `p − 1 ≤ 72/ε + 6` and
    /// `2q − 1 ≤ 96/ε`.
    pub fn delta_envelope(&self) -> u128 {
        let wmax = self.params.w(self.params.p - 1, self.params.q - 1) as u128;
        2 * self.n_scale as u128 * wmax + self.n_scale as u128
    }

    /// Materializes the construction as a weighted graph. Node 0 is the
    /// root; each subtree's nodes are contiguous, attached at the middle.
    ///
    /// Only call for modest `total_nodes` (the metric layer is `Θ(n²)`).
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.total_nodes);
        let mut next: NodeId = 1;
        for s in &self.subtrees {
            let first = next;
            for k in 0..s.len.saturating_sub(1) {
                b.edge(first + k as NodeId, first + k as NodeId + 1, 1).expect("valid path edge");
            }
            let middle = first + (s.len / 2) as NodeId;
            b.edge(0, middle, self.scaled_w(s)).expect("valid attachment edge");
            next += s.len as NodeId;
        }
        b.build().expect("construction is a tree")
    }

    /// The node-id range of a subtree in [`Self::to_graph`]'s numbering.
    pub fn subtree_node_range(&self, index: usize) -> std::ops::Range<NodeId> {
        let mut start: NodeId = 1;
        for s in &self.subtrees[..index] {
            start += s.len as NodeId;
        }
        start..start + self.subtrees[index].len as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::doubling;
    use doubling_metric::space::MetricSpace;

    #[test]
    fn params_match_paper_formulas() {
        // ε = 4: p = 18 + 6 = 24, q = 12 − 4 = 8.
        let p = LbParams::from_eps(4, 1);
        assert_eq!(p.p, 24);
        assert_eq!(p.q, 8);
        assert_eq!(p.c(), 192);
        // c < (60/ε)² = 225.
        assert!(p.c() < 225);
        // ε = 2: p = 42, q = 20.
        let p2 = LbParams::from_eps(2, 1);
        assert_eq!(p2.p, 42);
        assert_eq!(p2.q, 20);
        assert!(p2.c() < (60.0f64 / 2.0).powi(2) as usize);
    }

    #[test]
    fn weights_are_strictly_increasing_in_lex_order() {
        let params = LbParams::from_eps(4, 1);
        let t = LowerBoundTree::new(params, 512);
        let ws: Vec<u64> = t.subtrees().iter().map(|s| s.w).collect();
        for w in ws.windows(2) {
            assert!(w[0] < w[1], "weights must strictly increase: {} {}", w[0], w[1]);
        }
        // Octave boundary: w_{i+1,0} = 2^{i+1}·q vs w_{i,q−1} = 2^i(2q−1):
        // 2q > 2q−1 ✓ handled by the strict check above.
    }

    #[test]
    fn population_profile_is_nondecreasing_overall() {
        let params = LbParams::from_eps(6, 1);
        let t = LowerBoundTree::new(params, 4096);
        // Later subtrees hold (weakly) more nodes, and the last holds the
        // bulk (n − n^{(c−1)/c}).
        let lens: Vec<usize> = t.subtrees().iter().map(|s| s.len).collect();
        assert!(lens.last().unwrap() > &1);
        assert!(lens.iter().rev().take(3).sum::<usize>() > lens.len());
    }

    #[test]
    fn diameter_within_theorem_envelope() {
        for &(num, den) in &[(2u64, 1u64), (4, 1), (6, 1)] {
            let params = LbParams::from_eps(num, den);
            let t = LowerBoundTree::new(params, 1024);
            assert!(
                t.normalized_diameter() <= t.delta_envelope(),
                "Δ {} exceeds envelope {} at ε={num}/{den}",
                t.normalized_diameter(),
                t.delta_envelope()
            );
        }
    }

    #[test]
    fn graph_materialization_is_consistent() {
        let params = LbParams::from_eps(6, 1);
        let t = LowerBoundTree::new(params, 256);
        let g = t.to_graph();
        assert_eq!(g.node_count(), t.total_nodes());
        assert_eq!(g.edge_count(), t.total_nodes() - 1, "must be a tree");
        // Root degree equals the number of subtrees.
        assert_eq!(g.degree(0), t.subtrees().len());
        // Subtree ranges partition 1..n.
        let mut seen = vec![false; g.node_count()];
        seen[0] = true;
        for k in 0..t.subtrees().len() {
            for v in t.subtree_node_range(k) {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn doubling_dimension_obeys_lemma_5_8() {
        // Lemma 5.8: α ≤ 6 − log ε, i.e. doubling constant ≤ 64/ε.
        // ε = 4 → constant ≤ 16; ε = 2 → ≤ 32. The greedy estimator
        // upper-bounds the true constant, so it must stay within a small
        // factor of the bound.
        for &(num, bound) in &[(4u64, 16.0f64), (2, 32.0)] {
            let params = LbParams::from_eps(num, 1);
            let t = LowerBoundTree::new(params, 192);
            let g = t.to_graph();
            let m = MetricSpace::new(&g);
            let est = doubling::estimate(&m, Some(20));
            assert!(
                (est.max_cover as f64) <= 2.0 * bound,
                "greedy cover {} far above Lemma 5.8 bound {bound} at ε={num}",
                est.max_cover
            );
        }
    }

    #[test]
    fn distances_match_construction() {
        let params = LbParams::from_eps(6, 1);
        let t = LowerBoundTree::new(params, 128);
        let g = t.to_graph();
        let m = MetricSpace::new(&g);
        // Root to a subtree's middle node = scaled attachment weight.
        for (k, s) in t.subtrees().iter().enumerate() {
            let range = t.subtree_node_range(k);
            let middle = range.start + (s.len / 2) as NodeId;
            assert_eq!(m.dist(0, middle), t.scaled_w(s));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_eps_out_of_range() {
        LbParams::from_eps(8, 1);
    }
}
