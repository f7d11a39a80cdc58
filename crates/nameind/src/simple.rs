//! The simpler (non-scale-free) name-independent scheme — **Theorem 1.4**,
//! Sections 3.1–3.2 of the paper.
//!
//! For every search round `k` (see [`crate::rounds::Rounds`]) and every net
//! point `y` of the hosting level there is a search tree `T(y, ρ_k)` over
//! the ball `B_y(ρ_k)`, storing the pair `(name(v), label(v))` for every
//! node `v` in the ball — the paper's `T(u, 2^i/ε)` family, with the radii
//! anchored at the minimum-distance scale so that the first successful
//! round always costs `O(d)` (Lemma 3.4's envelope; see the rounds module
//! for why the literal `2^i/ε` start breaks adjacent pairs).
//!
//! Routing (**Algorithm 3**): the source walks its zooming sequence; at
//! the round-`k` host `u(i_k)` it runs Algorithm 2 on `T(u(i_k), ρ_k)`;
//! the first successful round yields the destination's label, and the
//! underlying labeled scheme finishes the job. Every movement —
//! zooming-hop, search-tree virtual edge, final leg — is executed as a
//! real route of the underlying labeled scheme and charged its true cost.
//!
//! Storage (Lemma 3.3): each node appears in `(1/ε)^{O(α)}` search trees
//! per round and `O(log Δ + log 1/ε)` rounds —
//! `(1/ε)^{O(α)}·log Δ·log n` bits.
//!
//! This is Theorem 1.1's scheme ([`NameIndependent`]) over
//! [`NetLabeled`](labeled_routing::NetLabeled), the labeled scheme under
//! [`AllLevels`]:
//! that layer packs no balls, so no round links to a ℬ-type tree and every
//! facility is the host's own tree `T(y, ρ_k)`.

use labeled_routing::AllLevels;

use crate::scale_free::NameIndependent;

#[cfg(test)]
use {
    doubling_metric::{graph::NodeId, space::MetricSpace, Eps},
    netsim::{maintain::Maintainable, naming::Naming, scheme::NameIndependentScheme},
};

/// The `(9+O(ε))`-stretch non-scale-free name-independent scheme.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::SimpleNameIndependent;
/// use netsim::{NameIndependentScheme, Naming};
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let naming = Naming::random(25, 7);
/// let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone())?;
/// // Route by *name*: the scheme discovers where the name lives.
/// let route = s.route(&m, 0, 17)?;
/// assert_eq!(route.dst, naming.node_of(17));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SimpleNameIndependent = NameIndependent<AllLevels>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch_envelope;
    use doubling_metric::gen;
    use netsim::scheme::Named;
    use netsim::stats::{all_pairs, eval, sample_pairs};

    fn check(g: &doubling_metric::Graph, eps: Eps, seed: u64) -> netsim::stats::EvalResult {
        let m = MetricSpace::new(g);
        let naming = Naming::random(m.n(), seed);
        let s = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let pairs = if m.n() <= 36 { all_pairs(m.n()) } else { sample_pairs(m.n(), 300, 7) };
        let res = eval(&Named(&s, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver");
        assert!(
            res.max_stretch <= stretch_envelope(eps),
            "stretch {} exceeds envelope {} on eps {}",
            res.max_stretch,
            stretch_envelope(eps),
            eps
        );
        res
    }

    #[test]
    fn delivers_on_grid_within_envelope() {
        check(&gen::grid(6, 6), Eps::one_over(8), 3);
    }

    #[test]
    fn delivers_on_all_families() {
        for f in gen::Family::all() {
            let g = f.build(50, 11);
            check(&g, Eps::one_over(8), 5);
        }
    }

    #[test]
    fn adjacent_pairs_have_bounded_stretch() {
        // The round-schedule fix: nearest-neighbour routes must not pay the
        // Θ(1/ε) of a radius-2⁰/ε search, even for tiny ε.
        let m = MetricSpace::new(&gen::grid(7, 7));
        let naming = Naming::random(49, 2);
        for k in [8u64, 16, 32] {
            let s = SimpleNameIndependent::new(&m, Eps::one_over(k), naming.clone()).unwrap();
            for (u, v, _) in m.graph().edges() {
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert!(r.stretch(&m) <= 6.0, "adjacent stretch {} at eps 1/{k}", r.stretch(&m));
            }
        }
    }

    #[test]
    fn max_stretch_does_not_blow_up_as_eps_shrinks() {
        let m = MetricSpace::new(&gen::grid(7, 7));
        let naming = Naming::random(49, 2);
        let pairs = all_pairs(49);
        let mut maxes = Vec::new();
        for k in [4u64, 8, 16, 32] {
            let s = SimpleNameIndependent::new(&m, Eps::one_over(k), naming.clone()).unwrap();
            let r = eval(&Named(&s, &naming), &m, &pairs, 1, |_, _, _| {});
            assert_eq!(r.failures, 0);
            maxes.push(r.max_stretch);
        }
        // The 9+O(ε) envelope: every measured max must stay below ~13 and
        // must not grow as ε shrinks beyond noise.
        for &mx in &maxes {
            assert!(mx <= 13.0, "max stretch {mx} out of envelope: {maxes:?}");
        }
        assert!(
            *maxes.last().unwrap() <= maxes[0] + 1.0,
            "stretch should not degrade as eps shrinks: {maxes:?}"
        );
    }

    #[test]
    fn naming_is_respected() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let naming = Naming::random(16, 9);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), naming.clone()).unwrap();
        for v in 0..16u32 {
            let r = s.route(&m, 3, naming.name_of(v)).unwrap();
            assert_eq!(r.dst, v, "route must end at the named node");
        }
    }

    #[test]
    fn self_route_is_free() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let naming = Naming::identity(9);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), naming).unwrap();
        let r = s.route(&m, 5, 5).unwrap();
        assert_eq!(r.cost, 0);
        assert_eq!(r.dst, 5);
    }

    #[test]
    fn segments_follow_zoom_search_final_pattern() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let naming = Naming::random(36, 4);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
        for (u, v) in sample_pairs(36, 40, 1) {
            let r = s.route(&m, u, naming.name_of(v)).unwrap();
            let labels: Vec<&str> = r.segments.iter().map(|sg| sg.label).collect();
            assert_eq!(*labels.last().unwrap(), "final", "route must end with the final leg");
            for l in &labels {
                assert!(["zoom", "search", "final"].contains(l));
            }
        }
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let eps = Eps::one_over(8);
        let naming = Naming::random(36, 5);
        let all: Vec<NodeId> = (0..36).collect();
        let mut s = SimpleNameIndependent::new_over(&m, eps, naming.clone(), &all).unwrap();
        assert_eq!(s, SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap());

        use doubling_metric::nets::ChurnBatch;
        let mut active = [true; 36];
        for (joins, leaves) in
            [(vec![], vec![7u32, 21, 0]), (vec![7u32, 0], vec![30, 31]), (vec![31u32], vec![2, 3])]
        {
            let batch = ChurnBatch::new(joins, leaves);
            s.repair(&m, &batch);
            batch.apply(&mut active);
            let ids: Vec<NodeId> = (0..36u32).filter(|&v| active[v as usize]).collect();
            let fresh = SimpleNameIndependent::new_over(&m, eps, naming.clone(), &ids).unwrap();
            assert_eq!(s, fresh, "repair must be byte-identical to rebuild");
            // Active-pair routes still deliver with the repaired tables.
            for (a, b) in [(0usize, ids.len() - 1), (1, ids.len() / 2), (2, ids.len() - 2)] {
                let (u, v) = (ids[a], ids[b]);
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert_eq!(r.dst, v);
            }
        }
    }

    #[test]
    fn table_bits_scale_with_log_delta() {
        // Same n, exponentially larger Δ → more rounds → bigger tables.
        let m_small = MetricSpace::new(&gen::path(32));
        let m_big = MetricSpace::new(&gen::exp_weight_path(32));
        let eps = Eps::one_over(4);
        let s_small = SimpleNameIndependent::new(&m_small, eps, Naming::identity(32)).unwrap();
        let s_big = SimpleNameIndependent::new(&m_big, eps, Naming::identity(32)).unwrap();
        let max_small = (0..32).map(|u| s_small.table_bits(u)).max().unwrap();
        let max_big = (0..32).map(|u| s_big.table_bits(u)).max().unwrap();
        assert!(
            max_big > 2 * max_small,
            "exp-Δ tables ({max_big}) should dwarf poly-Δ tables ({max_small})"
        );
    }
}
