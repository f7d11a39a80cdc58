//! Search-round schedule for Algorithm 3.
//!
//! Lemma 3.4 lower-bounds `d(u, v)` by the *failure* of the previous
//! round's search (`d(u(j−1), v) > 2^{j−1}/ε`), which exists only for
//! `j ≥ 1`: a literal reading that starts the first search at radius
//! `2^0/ε` pays `Θ(1/ε)` against adjacent pairs (`d = min_dist`), and the
//! measured stretch *grows* as `ε → 0`. The paper's normalization glosses
//! this; the fix consistent with its analysis is to start the search radii
//! at the minimum-distance scale:
//!
//! * round `k` searches a ball of radius `ρ_k = min_dist · 2^k`,
//! * hosted at the zooming net point `u(i_k)` with
//!   `i_k = max(0, k − ⌈log₂(1/ε)⌉)` — so the host's net radius is
//!   `≈ ε·ρ_k` and the zoom deviation stays an `ε`-fraction of the search
//!   radius, exactly the relation `2^i` vs `2^i/ε` that Lemma 3.4 uses.
//!
//! The first `⌈log₂(1/ε)⌉` rounds are hosted by the source itself with
//! geometrically small radii, so a round-0 success costs `O(d)`; from
//! round 1 on, the previous round's failure gives
//! `d > ρ_{j−1}·(1 − O(ε))` and the telescoping sums give `9 + O(ε)` as in
//! the paper. The extra rounds add a `log(1/ε)` factor to the number of
//! search trees, absorbed in `(1/ε)^{O(α)}`.

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;
use doubling_metric::{ceil_log2, Eps};

/// The round schedule shared by both name-independent schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rounds {
    /// `⌈log₂(1/ε)⌉` — number of sub-net-scale rounds.
    lb: u32,
    /// Top net level `L`.
    top: u32,
    /// `min_dist` (the scale unit).
    s0: Dist,
}

impl Rounds {
    /// Builds the schedule for a metric and `ε`.
    pub fn new(m: &MetricSpace, eps: Eps) -> Self {
        let inv = eps.den().div_ceil(eps.num()).max(2);
        Rounds { lb: ceil_log2(inv), top: (m.num_scales() - 1) as u32, s0: m.min_dist() }
    }

    /// Total number of rounds (`⌈log 1/ε⌉ + log Δ + 1`). The last round's
    /// ball, hosted at the hierarchy root, covers the whole graph.
    pub fn count(&self) -> usize {
        (self.lb + self.top) as usize + 1
    }

    /// The net level hosting round `k`.
    pub fn host_level(&self, k: usize) -> usize {
        (k as u32).saturating_sub(self.lb).min(self.top) as usize
    }

    /// The search-ball radius `ρ_k = min_dist · 2^k` of round `k`.
    ///
    /// # Panics
    ///
    /// Panics on shift overflow (diameters beyond `~2^55`).
    pub fn radius(&self, k: usize) -> Dist {
        self.s0.checked_shl(k as u32).expect("round radius overflow")
    }

    /// Node `u`'s round-`k` host in `nets` as `(y, index of y in its
    /// level)`: the zoom `u(i_k)`. A departed node has no zooming
    /// sequence; its row names the level's first host.
    pub fn zoom_row(&self, nets: &NetHierarchy, u: NodeId, k: usize) -> (NodeId, usize) {
        let host = self.host_level(k);
        if !nets.is_active(u) {
            return (nets.level(host)[0], 0);
        }
        let y = nets.zoom(u, host);
        (y, nets.level(host).binary_search(&y).expect("zoom lands in Y_i"))
    }

    /// `⌈log₂(1/ε)⌉`.
    pub fn sub_scale_rounds(&self) -> u32 {
        self.lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::gen;

    #[test]
    fn schedule_shape() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let r = Rounds::new(&m, Eps::one_over(8));
        assert_eq!(r.sub_scale_rounds(), 3);
        assert_eq!(r.count(), 3 + m.num_scales());
        // First lb rounds hosted at the source (level 0).
        for k in 0..3 {
            assert_eq!(r.host_level(k), 0);
        }
        assert_eq!(r.host_level(3), 0);
        assert_eq!(r.host_level(4), 1);
        // Host never exceeds the top level.
        assert_eq!(r.host_level(r.count() - 1), m.num_scales() - 1);
    }

    #[test]
    fn radii_are_geometric_from_min_dist() {
        let m = MetricSpace::new(&gen::exp_weight_path(10));
        let r = Rounds::new(&m, Eps::one_over(4));
        assert_eq!(r.radius(0), m.min_dist());
        assert_eq!(r.radius(3), 8 * m.min_dist());
    }

    #[test]
    fn last_round_covers_from_the_root() {
        for f in gen::Family::all() {
            let m = MetricSpace::new(&f.build(40, 3));
            for k in [2u64, 4, 8] {
                let r = Rounds::new(&m, Eps::one_over(k));
                let last = r.count() - 1;
                assert_eq!(r.host_level(last), m.num_scales() - 1);
                assert!(
                    r.radius(last) >= 2 * m.diameter(),
                    "{}: last radius {} vs diameter {}",
                    f.name(),
                    r.radius(last),
                    m.diameter()
                );
            }
        }
    }

    #[test]
    fn non_unit_eps_fraction() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let r = Rounds::new(&m, Eps::new(2, 7).unwrap()); // 1/ε = 3.5 → lb = 2
        assert_eq!(r.sub_scale_rounds(), 2);
    }
}
