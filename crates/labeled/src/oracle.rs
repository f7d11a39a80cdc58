//! Approximate distance estimation from ring tables — an extension
//! corollary of the labeled scheme.
//!
//! The paper's related work (Slivkins's "rings of neighbors") treats
//! distance estimation and compact routing as siblings built on the same
//! structures; our ring tables make the connection executable. Given the
//! destination's `⌈log n⌉`-bit label, a node can *estimate* `d(u, v)` from
//! its local table alone, with no packet sent:
//!
//! * find the minimal level `i` such that some `x ∈ X_i(u)` has
//!   `l(v) ∈ Range(x, i)` — so `x = v(i)` — and return the stored
//!   `d(u, x)`;
//! * by Eqn. (2), `d(x, v) < 2^{i+1}`, so the additive error is below
//!   `2·2^i`;
//! * by minimality, `v(i−1) ∉ X_{i−1}(u)`, so
//!   `d(u, v) > 2^{i−1}/ε − 2^i`, making the *relative* error at most
//!   `4ε/(1 − 2ε) = O(ε)`.
//!
//! A level-0 hit means `x = v` and the estimate is exact. The oracle
//! costs nothing beyond the routing tables the scheme already stores.

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::MetricSpace;

use netsim::scheme::{Label, LabeledScheme};

use crate::net_labeled::NetLabeled;
use crate::scale_free::ScaleFreeLabeled;

/// The result of a local distance query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceEstimate {
    /// The estimated distance (the stored `d(u, v(i))`).
    pub estimate: Dist,
    /// The level the estimate was read from (0 means exact).
    pub level: u32,
    /// Additive error bound `2·2^i` implied by the level.
    pub error_bound: Dist,
}

impl NetLabeled {
    /// Estimates `d(u, v)` from `u`'s ring tables given `v`'s label, with
    /// relative error `4ε/(1−2ε)` (exact when the hit is at level 0).
    ///
    /// Returns `None` only if the hierarchy is broken (cannot happen for
    /// `ε ≤ 1/2`; surfaced as an option rather than a panic so misuse is
    /// observable).
    pub fn distance_estimate(
        &self,
        m: &MetricSpace,
        u: NodeId,
        target: Label,
    ) -> Option<DistanceEstimate> {
        if self.label_of(u) == target {
            return Some(DistanceEstimate { estimate: 0, level: 0, error_bound: 0 });
        }
        let (hit, estimate) = self.ring_hit(u, target)?;
        let error_bound = if self.label_of(hit.x) == target {
            0 // the hit is the destination itself
        } else {
            2 * m.scale(hit.level as usize)
        };
        Some(DistanceEstimate { estimate, level: hit.level, error_bound })
    }
}

impl ScaleFreeLabeled {
    /// Certified distance bounds from the sparse `R(u)` rings: returns
    /// `(lo, hi)` with `lo ≤ d(u, v) ≤ hi`, computed from `u`'s local
    /// table alone.
    ///
    /// Unlike [`NetLabeled::distance_estimate`], the sparse rings cannot
    /// always pin the distance to a `1+O(ε)` point estimate — a level in a
    /// ball-population plateau may be missing from `R(u)` — so the honest
    /// product is an interval: the stored `d(u, v(i))` at the minimal hit
    /// level, widened by the zooming-telescope error `Σ_{k≤i} 2^k < 2^{i+1}`
    /// (Eqn. (2)). Exact when the hit is the destination itself.
    ///
    /// Returns `None` only on a broken hierarchy (cannot happen for
    /// `ε ≤ 1/4`).
    pub fn distance_bounds(
        &self,
        m: &MetricSpace,
        u: NodeId,
        target: Label,
    ) -> Option<(Dist, Dist)> {
        if self.label_of(u) == target {
            return Some((0, 0));
        }
        let (hit, dist) = self.ring_hit(u, target)?;
        if self.label_of(hit.x) == target {
            return Some((dist, dist));
        }
        let err = 2 * m.scale(hit.level as usize);
        let lo = dist.saturating_sub(err).max(m.min_dist());
        let hi = dist + err;
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps};

    fn check_oracle(g: &doubling_metric::Graph, inv: u64) {
        let m = MetricSpace::new(g);
        let eps = Eps::one_over(inv);
        let s = NetLabeled::new(&m, eps).unwrap();
        // Paper-derived envelope: relative error ≤ 4ε/(1−2ε).
        let rel_bound = 4.0 / (inv as f64 - 2.0);
        for u in 0..m.n() as NodeId {
            for v in 0..m.n() as NodeId {
                let est = s.distance_estimate(&m, u, s.label_of(v)).unwrap();
                let d = m.dist(u, v);
                if u == v {
                    assert_eq!(est.estimate, 0);
                    continue;
                }
                // Additive error within the level bound.
                let err = est.estimate.abs_diff(d);
                assert!(
                    err <= est.error_bound,
                    "additive error {err} above bound {} at ({u},{v})",
                    est.error_bound
                );
                // Relative error within the ε envelope.
                assert!(
                    err as f64 <= rel_bound * d as f64 + 1e-9,
                    "relative error {} above {rel_bound} at ({u},{v})",
                    err as f64 / d as f64
                );
            }
        }
    }

    #[test]
    fn oracle_is_accurate_on_grid() {
        check_oracle(&gen::grid(7, 7), 8);
    }

    #[test]
    fn oracle_is_accurate_on_geometric() {
        check_oracle(&gen::random_geometric(50, 250, 4), 8);
    }

    #[test]
    fn oracle_is_accurate_on_exp_path() {
        check_oracle(&gen::exp_weight_path(24), 8);
    }

    #[test]
    fn oracle_tightens_with_eps() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let mut prev_worst = f64::INFINITY;
        for inv in [4u64, 8, 16] {
            let s = NetLabeled::new(&m, Eps::one_over(inv)).unwrap();
            let mut worst: f64 = 0.0;
            for u in 0..m.n() as NodeId {
                for v in 0..m.n() as NodeId {
                    if u == v {
                        continue;
                    }
                    let est = s.distance_estimate(&m, u, s.label_of(v)).unwrap();
                    let d = m.dist(u, v) as f64;
                    worst = worst.max((est.estimate as f64 - d).abs() / d);
                }
            }
            assert!(
                worst <= prev_worst + 1e-9,
                "smaller eps must not worsen the oracle: {worst} vs {prev_worst}"
            );
            prev_worst = worst;
        }
        assert!(prev_worst <= 0.5, "eps=1/16 worst relative error {prev_worst}");
    }

    #[test]
    fn scale_free_bounds_are_certified() {
        for g in [gen::grid(7, 7), gen::exp_weight_path(20), gen::random_geometric(40, 260, 2)] {
            let m = MetricSpace::new(&g);
            let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
            for u in 0..m.n() as NodeId {
                for v in 0..m.n() as NodeId {
                    let (lo, hi) = s.distance_bounds(&m, u, s.label_of(v)).unwrap();
                    let d = m.dist(u, v);
                    assert!(lo <= d && d <= hi, "bounds [{lo},{hi}] miss d={d} at ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn scale_free_bounds_tight_for_close_pairs() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
        for (u, v, w) in m.graph().edges() {
            let (lo, hi) = s.distance_bounds(&m, u, s.label_of(v)).unwrap();
            assert_eq!((lo, hi), (w, w), "adjacent pairs are exact");
        }
    }

    #[test]
    fn close_pairs_are_exact() {
        // Adjacent pairs on a unit-weight graph hit level 0 (the ring of
        // radius 1/ε covers them), so the estimate is the true distance.
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        for (u, v, w) in m.graph().edges() {
            let est = s.distance_estimate(&m, u, s.label_of(v)).unwrap();
            assert_eq!(est.estimate, w);
            assert_eq!(est.error_bound, 0);
        }
    }
}
