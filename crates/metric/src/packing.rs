//! Ball packings `ℬ_j` (Lemma 2.3, "Packing Lemma") and their Voronoi
//! assignment.
//!
//! For each `j ∈ [log n]`, `ℬ_j` is a maximal set of pairwise-disjoint
//! size-`2^j` balls, selected greedily by increasing radius from the
//! candidate set `{B_u(r_u(j)) : u ∈ V}`. Lemma 2.3 guarantees that for
//! every node `u` there is a packed ball `B ∈ ℬ_j` with center `c` such that
//! `r_c(j) ≤ r_u(j)` and `d(u, c) ≤ 2·r_u(j)` — the "witness" ball.
//!
//! Because real inputs have distance ties (grids!), a metric ball of radius
//! `r_u(j)` can contain more than `2^j` nodes. We therefore realize each
//! candidate as the canonical *nearest set*: the `2^j` nodes closest to the
//! center in `(distance, id)` order. The greedy argument of Lemma 2.3 only
//! uses that (a) each ball has exactly `2^j` nodes within radius `r_u(j)` of
//! its center and (b) balls are chosen by increasing radius, so both
//! properties survive the substitution (see DESIGN.md).
//!
//! The packing also provides, per Section 4.1, the Voronoi assignment of
//! every node to its nearest packed center (ties by least center id), which
//! induces the disjoint shortest-path trees `T_c(j)`.

use crate::graph::{Dist, NodeId};
use crate::space::MetricSpace;

/// One packed ball: `2^j` nodes nearest to `center`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBall {
    /// Ball center `c`.
    pub center: NodeId,
    /// `r_c(j)`: distance from the center to the farthest member.
    pub radius: Dist,
    /// The members, in `(distance, id)` order from the center.
    pub nodes: Vec<NodeId>,
}

/// The ball packing `ℬ_j` for one size exponent `j`.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
/// use doubling_metric::packing::BallPacking;
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let p = BallPacking::new(&m, 2); // disjoint balls of 4 nodes each
/// for b in p.balls() {
///     assert_eq!(b.nodes.len(), 4);
/// }
/// // Lemma 2.3(2): every node has a nearby packed ball of no larger radius.
/// let w = p.witness(&m, 5);
/// assert!(w.radius <= m.r_small(5, 2));
/// assert!(m.dist(5, w.center) <= 2 * m.r_small(5, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallPacking {
    j: u32,
    balls: Vec<PackedBall>,
    /// `ball_of[v]` = index of the packed ball containing `v`, if any
    /// (packed balls are disjoint).
    ball_of: Vec<Option<u32>>,
    /// `voronoi[v]` = index (into `balls`) of the packed ball whose center
    /// is nearest to `v` (ties by least center id).
    voronoi: Vec<u32>,
}

impl BallPacking {
    /// Builds `ℬ_j` greedily per Lemma 2.3.
    pub fn new(m: &MetricSpace, j: u32) -> Self {
        let n = m.n();
        // Candidates sorted by (radius, center id) — the greedy order.
        let mut order: Vec<(Dist, NodeId)> =
            (0..n as NodeId).map(|u| (m.r_small(u, j), u)).collect();
        order.sort_unstable();

        let mut ball_of: Vec<Option<u32>> = vec![None; n];
        let mut balls: Vec<PackedBall> = Vec::new();
        for &(radius, u) in &order {
            let members = m.nearest_set(u, j);
            if members.iter().any(|&x| ball_of[x as usize].is_some()) {
                continue; // intersects an earlier (smaller-radius) ball
            }
            let idx = balls.len() as u32;
            let nodes = members.to_vec();
            for &x in &nodes {
                ball_of[x as usize] = Some(idx);
            }
            balls.push(PackedBall { center: u, radius, nodes });
        }
        // The packing keeps its balls: hold them at their length.
        balls.shrink_to_fit();

        // Voronoi assignment to nearest center.
        let centers: Vec<NodeId> = balls.iter().map(|b| b.center).collect();
        let mut voronoi = vec![0u32; n];
        for v in 0..n as NodeId {
            let mut best: Option<(Dist, NodeId, u32)> = None;
            for (k, &c) in centers.iter().enumerate() {
                let d = m.dist(v, c);
                if best.is_none_or(|(bd, bc, _)| (d, c) < (bd, bc)) {
                    best = Some((d, c, k as u32));
                }
            }
            voronoi[v as usize] = best.expect("at least one ball").2;
        }

        BallPacking { j, balls, ball_of, voronoi }
    }

    /// The size exponent `j` (each ball has `min(2^j, n)` nodes).
    #[inline]
    pub fn j(&self) -> u32 {
        self.j
    }

    /// The packed balls, in greedy selection order (increasing radius).
    #[inline]
    pub fn balls(&self) -> &[PackedBall] {
        &self.balls
    }

    /// The packed ball containing `v`, if any.
    pub fn ball_of(&self, v: NodeId) -> Option<&PackedBall> {
        self.ball_of[v as usize].map(|k| &self.balls[k as usize])
    }

    /// Index (into [`Self::balls`]) of the packed ball containing `v`.
    pub fn ball_index_of(&self, v: NodeId) -> Option<u32> {
        self.ball_of[v as usize]
    }

    /// Index of the Voronoi ball of `v` (nearest center, ties by least id).
    #[inline]
    pub fn voronoi_index(&self, v: NodeId) -> u32 {
        self.voronoi[v as usize]
    }

    /// The Voronoi ball of `v`.
    #[inline]
    pub fn voronoi_ball(&self, v: NodeId) -> &PackedBall {
        &self.balls[self.voronoi[v as usize] as usize]
    }

    /// Every Voronoi region `V(c, j)`, indexed like [`Self::balls`]: entry
    /// `k` lists the nodes assigned to the `k`-th ball in ascending id
    /// order. One pass over the assignment groups all regions.
    pub fn voronoi_regions(&self) -> Vec<Vec<NodeId>> {
        let mut regions = vec![Vec::new(); self.balls.len()];
        for (v, &k) in self.voronoi.iter().enumerate() {
            regions[k as usize].push(v as NodeId);
        }
        regions
    }

    /// The Lemma 2.3(2) witness for `u`: a packed ball `B` with center `c`
    /// such that `r_c(j) ≤ r_u(j)` and `d(u, c) ≤ 2·r_u(j)`.
    ///
    /// If `u`'s own candidate was selected this is `u`'s ball; otherwise it
    /// is the smallest-radius packed ball intersecting `u`'s candidate.
    pub fn witness(&self, m: &MetricSpace, u: NodeId) -> &PackedBall {
        if let Some(b) = self.ball_of(u) {
            if b.center == u {
                return b;
            }
        }
        let mut best: Option<(Dist, NodeId, u32)> = None;
        for &x in m.nearest_set(u, self.j) {
            if let Some(k) = self.ball_of[x as usize] {
                let b = &self.balls[k as usize];
                if best.is_none_or(|(br, bc, _)| (b.radius, b.center) < (br, bc)) {
                    best = Some((b.radius, b.center, k));
                }
            }
        }
        let (_, _, k) = best.expect("maximality: candidate intersects some packed ball");
        &self.balls[k as usize]
    }
}

/// All packings `ℬ_0, …, ℬ_{⌈log n⌉}`. The default holds none, and
/// allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packings {
    packings: Vec<BallPacking>,
}

impl Packings {
    /// Builds `ℬ_j` for every `j ∈ 0..=⌈log₂ n⌉`.
    pub fn new(m: &MetricSpace) -> Self {
        let packings = (0..=m.log2_n()).map(|j| BallPacking::new(m, j)).collect();
        Packings { packings }
    }

    /// The packing for size exponent `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j > ⌈log₂ n⌉`.
    #[inline]
    pub fn at(&self, j: u32) -> &BallPacking {
        &self.packings[j as usize]
    }

    /// Number of packings (`⌈log₂ n⌉ + 1`).
    #[inline]
    pub fn len(&self) -> usize {
        self.packings.len()
    }

    /// Whether there are no packings (never true after [`Packings::new`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packings.is_empty()
    }

    /// Iterate over `(j, packing)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &BallPacking> {
        self.packings.iter()
    }

    /// The packings `ℬ_0, …, ℬ_{⌈log₂ n⌉}`, indexed by `j`.
    #[inline]
    pub fn as_slice(&self) -> &[BallPacking] {
        &self.packings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn balls_have_exact_size_and_are_disjoint() {
        let g = gen::random_geometric(60, 230, 17);
        let m = MetricSpace::new(&g);
        for j in 0..=m.log2_n() {
            let p = BallPacking::new(&m, j);
            let want = (1usize << j).min(m.n());
            let mut seen = vec![false; m.n()];
            for b in p.balls() {
                assert_eq!(b.nodes.len(), want, "property (1) of Lemma 2.3");
                for &x in &b.nodes {
                    assert!(!seen[x as usize], "balls must be disjoint");
                    seen[x as usize] = true;
                    assert!(m.dist(b.center, x) <= b.radius);
                }
            }
        }
    }

    #[test]
    fn witness_satisfies_lemma_2_3_property_2() {
        let g = gen::grid(7, 7);
        let m = MetricSpace::new(&g);
        for j in 0..=m.log2_n() {
            let p = BallPacking::new(&m, j);
            for u in 0..m.n() as NodeId {
                let ru = m.r_small(u, j);
                let w = p.witness(&m, u);
                assert!(w.radius <= ru, "witness radius must be ≤ r_u(j)");
                assert!(
                    m.dist(u, w.center) <= 2 * ru,
                    "witness center must be within 2·r_u(j): j={j} u={u}"
                );
            }
        }
    }

    #[test]
    fn packing_is_maximal() {
        // Every node's candidate ball intersects some packed ball.
        let g = gen::spider(6, 5);
        let m = MetricSpace::new(&g);
        for j in 0..=m.log2_n() {
            let p = BallPacking::new(&m, j);
            for u in 0..m.n() as NodeId {
                let intersects = m.nearest_set(u, j).iter().any(|&x| p.ball_index_of(x).is_some());
                assert!(intersects, "maximality violated at j={j}, u={u}");
            }
        }
    }

    #[test]
    fn j_zero_packs_every_singleton() {
        let g = gen::grid(4, 4);
        let m = MetricSpace::new(&g);
        let p = BallPacking::new(&m, 0);
        assert_eq!(p.balls().len(), 16);
        for b in p.balls() {
            assert_eq!(b.radius, 0);
            assert_eq!(b.nodes, vec![b.center]);
        }
    }

    #[test]
    fn voronoi_assignment_is_nearest_center() {
        let g = gen::grid(6, 5);
        let m = MetricSpace::new(&g);
        let p = BallPacking::new(&m, 3);
        for v in 0..m.n() as NodeId {
            let mine = p.voronoi_ball(v);
            for b in p.balls() {
                let dv = m.dist(v, mine.center);
                let db = m.dist(v, b.center);
                assert!((dv, mine.center) <= (db, b.center), "voronoi not nearest for v={v}");
            }
        }
    }

    #[test]
    fn voronoi_regions_partition() {
        let g = gen::random_geometric(45, 250, 23);
        let m = MetricSpace::new(&g);
        let p = BallPacking::new(&m, 2);
        let regions = p.voronoi_regions();
        assert_eq!(regions.len(), p.balls().len());
        let mut seen = vec![false; m.n()];
        for (k, region) in regions.iter().enumerate() {
            assert!(region.windows(2).all(|w| w[0] < w[1]), "region {k} not id-sorted");
            for &v in region {
                assert_eq!(p.voronoi_index(v), k as u32);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn voronoi_regions_are_shortest_path_closed() {
        // Every node on the deterministic shortest path from a Voronoi
        // center to a member of its region is itself in the region — the
        // property that makes the trees T_c(j) well-defined and disjoint.
        let g = gen::grid(6, 6);
        let m = MetricSpace::new(&g);
        for j in [1u32, 2, 3] {
            let p = BallPacking::new(&m, j);
            for v in 0..m.n() as NodeId {
                let k = p.voronoi_index(v);
                let c = p.balls()[k as usize].center;
                for x in m.path(c, v) {
                    assert_eq!(
                        p.voronoi_index(x),
                        k,
                        "path from center {c} to {v} leaves region at {x} (j={j})"
                    );
                }
            }
        }
    }

    #[test]
    fn packings_cover_all_exponents() {
        let g = gen::grid(5, 5);
        let m = MetricSpace::new(&g);
        let ps = Packings::new(&m);
        assert_eq!(ps.len() as u32, m.log2_n() + 1);
        assert!(!ps.is_empty());
        for (j, p) in ps.iter().enumerate() {
            assert_eq!(p.j(), j as u32);
        }
    }
}
