//! Ring tables: the per-node, per-level routing entries.
//!
//! The *`i`-th ring* of `u` is `X_i(u) = B_u(2^i/ε) ∩ Y_i` (Section 4.1).
//! For each ring member `x`, a node stores `Range(x, i)` (the label
//! interval of the netting-tree subtree under `x`), the neighbour of `u` on
//! the shortest path toward `x`, and `d(u, x)` (needed by Algorithm 5's
//! stopping rule). By Lemma 2.2, `|X_i(u)| ≤ (4/ε)^α`.
//!
//! A ring is stored as a boxed slice at its exact size, sorted by range
//! start: 24 bytes per entry and no spare capacity. Rings are never grown
//! in place; a repair that changes a ring's members builds its replacement
//! ([`patch_ring`]).
//!
//! [`RingBuilder`] builds every ring of a scheme in one pass per node. It
//! lists each level `Y_i` once, as `(lo, hi, x)` with `Range(x, i) =
//! [lo, hi]`, in range-start (DFS-label) order, so a ring filtered out of
//! that list is already sorted. For each node it fills one first-hop row
//! ([`MetricSpace::first_hop_row`]), so every entry's next hop is an array
//! read. A node's rings then cost `O(n + Σ_i |Y_i|)`, with no sort, no
//! binary search and no parent-chain walk.

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::{LevelDelta, NetHierarchy};
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

/// One ring entry: a net point visible from `u` at level `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEntry {
    /// The net point `x ∈ X_i(u)`.
    pub x: NodeId,
    /// `Range(x, i)` — inclusive label interval of `x`'s netting subtree.
    pub range: (u32, u32),
    /// The neighbour of `u` on the shortest path toward `x` (`u` itself if
    /// `x == u`).
    pub next: NodeId,
    /// `d(u, x)`.
    pub dist: Dist,
}

/// Builds the rings `X_i(u)` of one hierarchy, node by node.
///
/// Ask for a node's rings consecutively: [`Self::ring`] fills the node's
/// first-hop row when the node changes and reuses it for every further
/// level of the same node. The level lists and the row are scratch,
/// dropped with the builder; each ring is allocated at its exact size.
#[derive(Debug)]
pub struct RingBuilder<'a> {
    m: &'a MetricSpace,
    eps: Eps,
    /// `levels[i]`: every `x ∈ Y_i` as `(lo, hi, x)` with
    /// `Range(x, i) = [lo, hi]`, ascending by `lo`.
    levels: Vec<Box<[(u32, u32, NodeId)]>>,
    /// The node whose first-hop row `first_hop` holds.
    node: Option<NodeId>,
    first_hop: Vec<NodeId>,
    entries: Vec<RingEntry>,
}

impl<'a> RingBuilder<'a> {
    /// Lists every level of `nets` in range-start order.
    pub fn new(m: &'a MetricSpace, nets: &NetHierarchy, eps: Eps) -> Self {
        let levels = (0..nets.num_levels())
            .map(|i| {
                let mut level: Box<[_]> = nets
                    .level(i)
                    .iter()
                    .map(|&x| {
                        let (lo, hi) = nets.range(i, x).expect("x is in Y_i");
                        (lo, hi, x)
                    })
                    .collect();
                level.sort_unstable_by_key(|&(lo, _, _)| lo);
                level
            })
            .collect();
        RingBuilder { m, eps, levels, node: None, first_hop: vec![0; m.n()], entries: Vec::new() }
    }

    /// `X_i(u)`, sorted by range start (ranges at one level are disjoint,
    /// so this supports binary-search lookup), at its exact size.
    pub fn ring(&mut self, u: NodeId, i: usize) -> Box<[RingEntry]> {
        if self.node != Some(u) {
            self.m.first_hop_row(u, &mut self.first_hop);
            self.node = Some(u);
        }
        let (s_i, dist) = (self.m.scale(i), self.m.apsp().row(u));
        let (eps, first_hop) = (self.eps, &self.first_hop);
        self.entries.clear();
        self.entries.extend(self.levels[i].iter().filter_map(|&(lo, hi, x)| {
            let d = dist[x as usize];
            // d ≤ s_i / ε, exactly.
            let next = first_hop[x as usize];
            eps.mul_le(d, s_i).then_some(RingEntry { x, range: (lo, hi), next, dist: d })
        }));
        self.entries.as_slice().into()
    }
}

/// The exact ring radius at level `i`: the largest `d` with
/// `ε·d ≤ s_i`, i.e. `⌊s_i·den/num⌋` (clamped at `Dist::MAX`) —
/// membership of `X_i(u)` is `d(u, x) ≤ ring_radius(i)`, the same test as
/// [`RingBuilder::ring`]'s filter.
pub fn ring_radius(m: &MetricSpace, eps: Eps, i: usize) -> Dist {
    let r = m.scale(i) as u128 * eps.den() as u128 / eps.num() as u128;
    r.min(Dist::MAX as u128) as Dist
}

/// Marks the nodes whose ring `X_i(u)` could change membership after the
/// level-`i` net members in `changed` were added or removed: exactly the
/// nodes within the ring radius of some changed member. Rings of unmarked
/// nodes keep the same member set (only their stored ranges can shift).
pub fn affected_nodes(m: &MetricSpace, eps: Eps, i: usize, changed: &[NodeId]) -> Vec<bool> {
    let r = ring_radius(m, eps, i);
    let mut out = vec![false; m.n()];
    for &y in changed {
        for &u in m.ball(y, r) {
            out[u as usize] = true;
        }
    }
    out
}

/// `Range(x, i)` for every `x ∈ Y_i`, indexed by node id (entries of
/// other nodes are unused). Built once per level per repair, it turns each
/// ring entry's range refresh into an array read instead of a binary
/// search over `Y_i`.
pub fn level_ranges(nets: &NetHierarchy, n: usize, i: usize) -> Vec<(u32, u32)> {
    let mut ranges = vec![(0, 0); n];
    for &x in nets.level(i) {
        ranges[x as usize] = nets.range(i, x).expect("x is in Y_i");
    }
    ranges
}

/// Refreshes the stored `Range(x, i)` fields of a ring whose *member set*
/// is known to be unchanged (labels are renumbered by every hierarchy
/// repair, so ranges shift even when membership does not) and restores the
/// range-start sort order. `ranges` is the level's [`level_ranges`] table.
/// The result is byte-identical to rebuilding the ring from scratch
/// against the repaired hierarchy.
pub fn refresh_ring_ranges(ring: &mut [RingEntry], ranges: &[(u32, u32)]) {
    for e in ring.iter_mut() {
        e.range = ranges[e.x as usize];
    }
    ring.sort_unstable_by_key(|e| e.range.0);
}

/// Patches `X_i(u)` by its level's net membership delta, returning the
/// new ring at its exact size: keeps the members that did not leave `Y_i`,
/// appends the arrivals within the ring radius (computing `dist` and
/// `next` for those alone), then refreshes every range from the level's
/// [`level_ranges`] table and restores the sort order. Because
/// `X_i(u) = B_u(2^i/ε) ∩ Y_i` and `delta` is the exact set difference of
/// `Y_i`, the result is byte-identical to [`RingBuilder::ring`] against
/// the repaired hierarchy.
pub fn patch_ring(
    ring: &[RingEntry],
    m: &MetricSpace,
    ranges: &[(u32, u32)],
    eps: Eps,
    u: NodeId,
    i: usize,
    delta: &LevelDelta,
) -> Box<[RingEntry]> {
    let mut out = Vec::with_capacity(ring.len() + delta.added.len());
    out.extend(ring.iter().filter(|e| delta.removed.binary_search(&e.x).is_err()));
    let s_i = m.scale(i);
    for &x in &delta.added {
        let d = m.dist(u, x);
        if eps.mul_le(d, s_i) {
            let next = m.next_hop(u, x).unwrap_or(u);
            out.push(RingEntry { x, range: (0, 0), next, dist: d });
        }
    }
    refresh_ring_ranges(&mut out, ranges);
    out.into_boxed_slice()
}

/// Binary-searches a ring for the entry whose range contains `label`.
pub fn ring_lookup(ring: &[RingEntry], label: u32) -> Option<&RingEntry> {
    let idx = ring.partition_point(|e| e.range.0 <= label);
    if idx == 0 {
        return None;
    }
    let e = &ring[idx - 1];
    (e.range.0 <= label && label <= e.range.1).then_some(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::gen;

    #[test]
    fn ring_members_are_net_points_within_radius() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let nets = NetHierarchy::new(&m);
        let eps = Eps::one_over(2);
        let mut rings = RingBuilder::new(&m, &nets, eps);
        for u in [0u32, 13, 63] {
            for i in 0..m.num_scales() {
                let ring = rings.ring(u, i);
                for e in &ring {
                    assert!(nets.in_level(i, e.x));
                    assert!(eps.mul_le(m.dist(u, e.x), m.scale(i)));
                    assert_eq!(e.dist, m.dist(u, e.x));
                }
                // Completeness: every qualifying net point is present.
                let count =
                    nets.level(i).iter().filter(|&&x| eps.mul_le(m.dist(u, x), m.scale(i))).count();
                assert_eq!(ring.len(), count);
            }
        }
    }

    #[test]
    fn lookup_finds_exactly_the_containing_range() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let nets = NetHierarchy::new(&m);
        let mut rings = RingBuilder::new(&m, &nets, Eps::one_over(3));
        for u in 0..m.n() as NodeId {
            for i in 0..m.num_scales() {
                let ring = rings.ring(u, i);
                for v in 0..m.n() as NodeId {
                    let l = nets.label(v);
                    let hit = ring_lookup(&ring, l);
                    let expected = ring.iter().find(|e| e.range.0 <= l && l <= e.range.1);
                    assert_eq!(hit, expected, "u={u} i={i} v={v}");
                    // A hit identifies v(i).
                    if let Some(e) = hit {
                        assert_eq!(e.x, nets.zoom(v, i));
                    }
                }
            }
        }
    }

    #[test]
    fn next_hop_points_along_shortest_path() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nets = NetHierarchy::new(&m);
        let ring = RingBuilder::new(&m, &nets, Eps::one_over(2)).ring(0, m.num_scales() - 1);
        for e in &ring {
            if e.x == 0 {
                assert_eq!(e.next, 0);
            } else {
                assert_eq!(
                    m.dist(0, e.x),
                    m.graph().edge_weight(0, e.next).unwrap() + m.dist(e.next, e.x)
                );
            }
        }
    }

    #[test]
    fn ring_size_bounded_by_lemma_2_2() {
        // |X_i(u)| ≤ (4/ε)^α; for the grid (α ≈ 2) and ε = 1/2 that is 64.
        let m = MetricSpace::new(&gen::grid(10, 10));
        let nets = NetHierarchy::new(&m);
        let mut rings = RingBuilder::new(&m, &nets, Eps::one_over(2));
        for u in 0..m.n() as NodeId {
            for i in 0..m.num_scales() {
                let ring = rings.ring(u, i);
                assert!(ring.len() <= 64, "ring too large: {}", ring.len());
            }
        }
    }
}
