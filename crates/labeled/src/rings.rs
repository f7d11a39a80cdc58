//! Ring tables: the per-node, per-level routing entries.
//!
//! The *`i`-th ring* of `u` is `X_i(u) = B_u(2^i/ε) ∩ Y_i` (Section 4.1).
//! For each ring member `x`, a node stores `Range(x, i)` (the label
//! interval of the netting-tree subtree under `x`), the neighbour of `u` on
//! the shortest path toward `x`, and `d(u, x)` (needed by Algorithm 5's
//! stopping rule). By Lemma 2.2, `|X_i(u)| ≤ (4/ε)^α`.

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::{LevelDelta, NetHierarchy};
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

/// Counters from a ring-table repair pass: how many `(node, level)` rings
/// lay in a blast zone (patched by their level delta) vs merely
/// range-refreshed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingRepair {
    /// Rings within the ring radius of a churned net member, patched by
    /// the level delta ([`patch_ring`]). They count as the repair's blast
    /// zone, as a from-scratch rebuild of the ring would.
    pub rebuilt: u64,
    /// Rings whose membership was provably unchanged (ranges refreshed).
    pub refreshed: u64,
}

impl RingRepair {
    /// Merges another pass's counters into this one.
    pub fn merge(&mut self, other: RingRepair) {
        self.rebuilt += other.rebuilt;
        self.refreshed += other.refreshed;
    }
}

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

/// Builds `X_i(u)`, sorted by range start (ranges at one level are
/// disjoint, so this supports binary-search lookup).
pub fn build_ring(
    m: &MetricSpace,
    nets: &NetHierarchy,
    eps: Eps,
    u: NodeId,
    i: usize,
) -> Vec<RingEntry> {
    let s_i = m.scale(i);
    let mut out: Vec<RingEntry> = nets
        .level(i)
        .iter()
        .filter_map(|&x| {
            let d = m.dist(u, x);
            // d ≤ s_i / ε, exactly.
            if !eps.mul_le(d, s_i) {
                return None;
            }
            let range = nets.range(i, x).expect("x is in Y_i");
            let next = m.next_hop(u, x).unwrap_or(u);
            Some(RingEntry { x, range, next, dist: d })
        })
        .collect();
    out.sort_unstable_by_key(|e| e.range.0);
    out
}

/// The exact ring radius at level `i`: the largest `d` with
/// `ε·d ≤ s_i`, i.e. `⌊s_i·den/num⌋` — membership of `X_i(u)` is
/// `d(u, x) ≤ ring_radius(i)` by definition of [`build_ring`]'s filter.
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
        for &(_, u) in m.ball(y, r) {
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

/// Patches `X_i(u)` by its level's net membership delta: drops the members
/// that left `Y_i`, appends the arrivals within the ring radius (computing
/// `dist` and `next` for those alone), then refreshes every range from the
/// level's [`level_ranges`] table and restores the sort order. Because
/// `X_i(u) = B_u(2^i/ε) ∩ Y_i` and `delta` is the exact set difference of
/// `Y_i`, the result is byte-identical to [`build_ring`] against the
/// repaired hierarchy.
pub fn patch_ring(
    ring: &mut Vec<RingEntry>,
    m: &MetricSpace,
    ranges: &[(u32, u32)],
    eps: Eps,
    u: NodeId,
    i: usize,
    delta: &LevelDelta,
) {
    if !delta.removed.is_empty() {
        ring.retain(|e| delta.removed.binary_search(&e.x).is_err());
    }
    let s_i = m.scale(i);
    for &x in &delta.added {
        let d = m.dist(u, x);
        if eps.mul_le(d, s_i) {
            let next = m.next_hop(u, x).unwrap_or(u);
            ring.push(RingEntry { x, range: (0, 0), next, dist: d });
        }
    }
    refresh_ring_ranges(ring, ranges);
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
        for u in [0u32, 13, 63] {
            for i in 0..m.num_scales() {
                let ring = build_ring(&m, &nets, eps, u, i);
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
        let eps = Eps::one_over(3);
        for u in 0..m.n() as NodeId {
            for i in 0..m.num_scales() {
                let ring = build_ring(&m, &nets, eps, u, i);
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
        let ring = build_ring(&m, &nets, Eps::one_over(2), 0, m.num_scales() - 1);
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
        for u in 0..m.n() as NodeId {
            for i in 0..m.num_scales() {
                let ring = build_ring(&m, &nets, Eps::one_over(2), u, i);
                assert!(ring.len() <= 64, "ring too large: {}", ring.len());
            }
        }
    }
}
