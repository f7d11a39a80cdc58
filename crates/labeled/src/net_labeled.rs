//! The non-scale-free labeled scheme (the workspace's Lemma 3.1).
//!
//! Every node stores its ring `X_i(u) = B_u(2^i/ε) ∩ Y_i` for **all**
//! levels `i ∈ [log Δ]`. Routing is the pure greedy ring walk:
//!
//! 1. At `u`, find the minimal level `i` such that some `x ∈ X_i(u)` has
//!    `l(v) ∈ Range(x, i)`; that `x` is `v(i)`.
//! 2. Step one hop along the shortest path toward `x`; repeat from the new
//!    node.
//!
//! A hit always exists at the top level (`Y_L` is a singleton whose range
//! covers every label and is within `2^L/ε ≥ Δ` of everyone). Progress: the
//! minimal hit level never increases along the walk (moving toward `x`
//! keeps `x` in the ring), the target at a fixed level is the unique
//! `v(i)`, and upon reaching `v(i)` the level strictly drops (for
//! `ε ≤ 1/2`, `v(i−1)` is inside `X_{i−1}(v(i))`), so the walk reaches
//! `v(0) = v`. The stretch analysis is the paper's Eqns. (19)–(21)
//! specialized to `t = final`, giving `1 + O(ε)`.
//!
//! This is Algorithm 5 ([`Labeled`]) under [`AllLevels`]: with every level
//! stored, the first phase alone delivers, so no balls are packed and the
//! walk takes no stall test.
//!
//! Storage: `O(log Δ)` rings of `(4/ε)^α` entries of `O(log n)` bits —
//! `(1/ε)^{O(α)}·log Δ·log n` bits per node, matching Lemma 3.1. Labels are
//! `⌈log n⌉` bits and headers carry just the destination label.

use doubling_metric::graph::NodeId;

use crate::rings::RingEntry;
use crate::scale_free::{AllLevels, Labeled};

/// The non-scale-free `(1+O(ε))`-stretch labeled scheme.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use labeled_routing::NetLabeled;
/// use netsim::LabeledScheme;
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let s = NetLabeled::new(&m, Eps::one_over(8))?;
/// let route = s.route(&m, 0, s.label_of(24))?;
/// assert_eq!(route.dst, 24);
/// assert!(route.stretch(&m) <= 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type NetLabeled = Labeled<AllLevels>;

impl NetLabeled {
    /// Number of ring levels stored per node (`Θ(log Δ)` — the
    /// non-scale-free factor).
    pub fn num_levels(&self) -> usize {
        self.nets().num_levels()
    }

    /// The ring `X_i(u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn ring(&self, u: NodeId, i: usize) -> &[RingEntry] {
        &self.rings_of(u)[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SchemeError;
    use crate::rings::ring_lookup;
    use crate::NetLabeledPlane;
    use doubling_metric::{gen, Eps, MetricSpace};
    use netsim::maintain::Maintainable;
    use netsim::plane::ForwardingPlane;
    use netsim::scheme::{Labeled, LabeledScheme};
    use netsim::stats::{all_pairs, eval, sample_pairs};

    fn check_graph(g: &doubling_metric::Graph, eps: Eps, max_allowed: f64) {
        let m = MetricSpace::new(g);
        let s = NetLabeled::new(&m, eps).unwrap();
        let pairs = if m.n() <= 40 { all_pairs(m.n()) } else { sample_pairs(m.n(), 400, 7) };
        let res = eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver");
        assert!(
            res.max_stretch <= max_allowed,
            "stretch {} exceeds {} (eps {})",
            res.max_stretch,
            max_allowed,
            eps
        );
    }

    #[test]
    fn delivers_on_grid() {
        check_graph(&gen::grid(6, 6), Eps::one_over(8), 1.0 + 20.0 / 8.0);
    }

    #[test]
    fn stretch_shrinks_with_eps_on_grid() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let pairs = sample_pairs(m.n(), 500, 3);
        let s8 = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let s16 = NetLabeled::new(&m, Eps::one_over(16)).unwrap();
        let r8 = eval(&Labeled(&s8), &m, &pairs, 1, |_, _, _| {});
        let r16 = eval(&Labeled(&s16), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r8.failures + r16.failures, 0);
        assert!(r16.max_stretch <= r8.max_stretch + 1e-9);
        // 1 + O(ε): comfortably small at ε = 1/16.
        assert!(r16.max_stretch <= 1.6, "max stretch {}", r16.max_stretch);
    }

    #[test]
    fn delivers_on_all_families() {
        for f in gen::Family::all() {
            let g = f.build(60, 11);
            check_graph(&g, Eps::one_over(8), 4.0);
        }
    }

    /// Every pair delivers, at n = 40 for ε = 1/2, 1/4 and 1/8 and at
    /// n = 80 for ε = 1/2 (the largest ε the scheme accepts, and one the
    /// scale-free policy rejects), and the plane routes as the scheme
    /// does. With every level stored, Algorithm 5's continuation test
    /// holds on every hop: the hit is the destination itself, or its
    /// level does not rise and its net point is still far
    /// (`2ε·(d(u, x) + s_i) ≥ s_i`). That is why the walk takes no stall
    /// test under [`AllLevels`]. The hits are recomputed here from the
    /// rings and the metric, not read from the walk.
    #[test]
    fn delivers_every_pair_without_a_stall() {
        for f in gen::Family::all() {
            for (n, invs) in [(40, &[2, 4, 8][..]), (80, &[2][..])] {
                let m = MetricSpace::new(&f.build(n, 11));
                for eps in invs.iter().map(|&inv| Eps::one_over(inv)) {
                    let s = NetLabeled::new(&m, eps).unwrap();
                    let plane = NetLabeledPlane::compile(&m, &s, None, 0);
                    let (num, den) = (eps.num() as u128, eps.den() as u128);
                    for (src, dst) in all_pairs(m.n()) {
                        let target = s.label_of(dst);
                        let route = s.route(&m, src, target).unwrap();
                        let at = || format!("{f:?} n={n} eps {eps}: {src}->{dst}");
                        assert_eq!(route.dst, dst, "{}", at());
                        assert_eq!(plane.route(&m, src, target).as_ref(), Ok(&route), "{}", at());
                        let mut i_prev = usize::MAX;
                        for &u in &route.hops[..route.hops.len() - 1] {
                            let (i, x) = (0..s.num_levels())
                                .find_map(|i| ring_lookup(s.ring(u, i), target).map(|e| (i, e.x)))
                                .unwrap();
                            let (d, s_i) = (m.dist(u, x) as u128, m.scale(i) as u128);
                            assert!(
                                s.label_of(x) == target
                                    || (i <= i_prev && 2 * (d + s_i) * num >= s_i * den),
                                "{} stalls at {u} (level {i})",
                                at()
                            );
                            i_prev = i;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exp_path_works_but_tables_grow_with_log_delta() {
        let m_small = MetricSpace::new(&gen::exp_weight_path(8));
        let m_big = MetricSpace::new(&gen::exp_weight_path(32));
        let eps = Eps::one_over(4);
        let s_small = NetLabeled::new(&m_small, eps).unwrap();
        let s_big = NetLabeled::new(&m_big, eps).unwrap();
        // More levels (log Δ grows linearly in n here).
        assert!(s_big.num_levels() > 3 * s_small.num_levels());
        let res = eval(&Labeled(&s_big), &m_big, &all_pairs(m_big.n()), 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn rejects_large_eps() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        assert!(matches!(
            NetLabeled::new(&m, Eps::new(3, 4).unwrap()),
            Err(SchemeError::EpsTooLarge { .. })
        ));
        assert!(NetLabeled::new(&m, Eps::one_over(2)).is_ok());
    }

    #[test]
    fn labels_are_compact() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        assert_eq!(s.label_bits(), 6); // ⌈log₂ 64⌉
        let mut seen = [false; 64];
        for v in 0..64 {
            let l = s.label_of(v);
            assert!(!seen[l as usize]);
            seen[l as usize] = true;
        }
    }

    #[test]
    fn header_is_one_label() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let r = s.route(&m, 0, s.label_of(24)).unwrap();
        assert_eq!(r.max_header_bits, 5);
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let eps = Eps::one_over(8);
        let all: Vec<NodeId> = (0..36).collect();
        let mut s = NetLabeled::new_over(&m, eps, &all).unwrap();
        assert_eq!(s, NetLabeled::new(&m, eps).unwrap());

        let mut active: Vec<NodeId> = all.clone();
        for batch in [
            doubling_metric::nets::ChurnBatch::new(vec![], vec![7, 20]),
            doubling_metric::nets::ChurnBatch::new(vec![7], vec![0, 35]),
            doubling_metric::nets::ChurnBatch::new(vec![0, 20], vec![1]),
        ] {
            let stats = s.repair(&m, &batch);
            assert!(stats.rings_rebuilt + stats.rings_refreshed > 0);
            active.retain(|v| batch.leaves.binary_search(v).is_err());
            active.extend(&batch.joins);
            active.sort_unstable();
            let fresh = NetLabeled::new_over(&m, eps, &active).unwrap();
            assert_eq!(s, fresh, "repair diverged from rebuild");
            // Routes between active nodes still deliver.
            for (u, v) in sample_pairs(36, 40, 9) {
                if active.binary_search(&u).is_ok() && active.binary_search(&v).is_ok() && u != v {
                    let r = s.route(&m, u, s.label_of(v)).unwrap();
                    assert_eq!(r.dst, v);
                }
            }
        }
    }

    #[test]
    fn route_segments_have_nonincreasing_levels() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        for (u, v) in sample_pairs(64, 60, 5) {
            let r = s.route(&m, u, s.label_of(v)).unwrap();
            let levels: Vec<u32> = r.segments.iter().filter_map(|s| s.level).collect();
            for w in levels.windows(2) {
                assert!(w[0] >= w[1], "levels must not increase: {levels:?}");
            }
        }
    }
}
