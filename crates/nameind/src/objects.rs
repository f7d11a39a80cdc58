//! Nearby-copy object location — the application the paper's introduction
//! motivates name-independent routing with ("locating nearby copies of
//! replicated objects and tracking of mobile objects").
//!
//! An object with key `K` is replicated at a set of host nodes. Each
//! replica registers the pair `(K, label(host))` in every search tree of
//! the round hierarchy whose ball contains the host — the same trees,
//! same Algorithm-1 storage, same cost profile as name resolution. A
//! lookup from `u` runs Algorithm 3 over the object key: the first round
//! whose ball contains *any* replica returns that replica's label, and
//! the underlying labeled scheme routes there.
//!
//! The locality guarantee mirrors Lemma 3.4: if the nearest replica is at
//! distance `d*`, it enters the round-`k` ball once `ρ_k ≳ d*`, and the
//! failure of round `k−1` lower-bounds `d*`, so the total cost is
//! `O(1)·d*` — the lookup finds a *nearby* copy, not just any copy.

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use labeled_routing::NetLabeled;
use netsim::bits::BitTally;
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Label, LabeledScheme, Name};
use searchtree::{SearchTree, SearchTreeConfig};

use crate::simple::SimpleNameIndependent;
use crate::view::{search_rounds, Facility, NameIndependentView};

/// An application-level object key (independent of node names).
pub type ObjectKey = u32;

/// A directory of replicated objects layered on a name-independent
/// scheme's hierarchy.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::{ObjectDirectory, SimpleNameIndependent};
/// use netsim::Naming;
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let s = SimpleNameIndependent::new(&m, Eps::one_over(8), Naming::identity(25))?;
/// let dir = ObjectDirectory::new(&m, &s, &[(7, vec![0, 24])]); // two replicas
/// let (route, replica) = dir.locate(&m, 4, 7)?;
/// assert!([0, 24].contains(&replica));
/// assert_eq!(route.dst, replica);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ObjectDirectory<'s> {
    scheme: &'s SimpleNameIndependent,
    /// `trees[k][j]`: object search tree of the `j`-th host of round `k`
    /// (parallel to the scheme's own trees).
    trees: Vec<Vec<SearchTree<Label>>>,
    /// Registered `(key, host)` pairs, in registration order; a move
    /// re-stores the trees it touches from them.
    placements: Vec<(ObjectKey, NodeId)>,
}

/// The `(key, label(host))` pairs of the placements whose host lies in a
/// tree's ball, in placement order.
fn ball_pairs(
    underlying: &NetLabeled,
    placements: &[(ObjectKey, NodeId)],
    in_ball: impl Fn(NodeId) -> bool,
) -> Vec<(ObjectKey, Label)> {
    placements
        .iter()
        .filter(|&&(_, h)| in_ball(h))
        .map(|&(key, h)| (key, underlying.label_of(h)))
        .collect()
}

impl<'s> ObjectDirectory<'s> {
    /// Builds the directory: every replica `(key, host)` is indexed in
    /// every round-ball containing its host.
    ///
    /// # Panics
    ///
    /// Panics if a host id is out of range.
    pub fn new(
        m: &MetricSpace,
        scheme: &'s SimpleNameIndependent,
        replicas: &[(ObjectKey, Vec<NodeId>)],
    ) -> Self {
        let underlying = scheme.underlying();
        let nets = underlying.nets();
        let rounds = scheme.rounds();

        let mut placements = Vec::new();
        for (key, hosts) in replicas {
            for &h in hosts {
                assert!((h as usize) < m.n(), "host out of range");
                placements.push((*key, h));
            }
        }

        let trees = (0..rounds.count())
            .map(|k| {
                let radius = rounds.radius(k);
                let config = SearchTreeConfig {
                    eps_r: scheme.eps().mul_floor(radius).max(1),
                    max_levels: None,
                };
                nets.level(rounds.host_level(k))
                    .iter()
                    .map(|&y| {
                        let pairs = ball_pairs(underlying, &placements, |h| m.dist(y, h) <= radius);
                        SearchTree::new(m, y, m.ball(y, radius), config, pairs)
                    })
                    .collect()
            })
            .collect();
        ObjectDirectory { scheme, trees, placements }
    }

    /// Registered placements (key, host) — for tests and inspection.
    pub fn placements(&self) -> &[(ObjectKey, NodeId)] {
        &self.placements
    }

    /// Moves a replica of `key` from `from` to `to` — the paper's "tracking
    /// of mobile objects" application. Every round-tree whose ball covers
    /// `from` or `to` re-stores (Algorithm 1) the placements inside its
    /// ball, so the directory equals one built afresh over the moved
    /// placements, and lookups find the object with the same locality
    /// guarantee relative to its *new* position.
    ///
    /// Returns the number of trees updated — the control-message cost of
    /// the move, `O(log Δ · (1/ε)^{O(α)})` updates per move.
    ///
    /// # Panics
    ///
    /// Panics if `(key, from)` is not a registered placement.
    pub fn move_object(&mut self, key: ObjectKey, from: NodeId, to: NodeId) -> usize {
        let slot = self
            .placements
            .iter()
            .position(|&(k, h)| k == key && h == from)
            .expect("placement (key, from) must exist");
        self.placements[slot] = (key, to);

        let underlying = self.scheme.underlying();
        let mut updated = 0usize;
        for tree in self.trees.iter_mut().flatten() {
            if tree.contains(from) || tree.contains(to) {
                let pairs = ball_pairs(underlying, &self.placements, |h| tree.contains(h));
                tree.refresh_pairs(pairs);
                updated += 1;
            }
        }
        updated
    }

    /// Additional directory bits stored at node `v` (beyond the routing
    /// scheme's own tables).
    pub fn directory_bits(&self, v: NodeId, node_bits: u64) -> u64 {
        let mut t = BitTally::new();
        for level in &self.trees {
            for tree in level {
                if tree.contains(v) {
                    t.raw(tree.storage_bits(v, node_bits, node_bits, |_| node_bits));
                }
                t.raw(tree.relay_bits(v, node_bits));
            }
        }
        t.total()
    }

    /// Looks up `key` from `src`: routes to *some nearby replica* and
    /// returns the route together with the replica reached.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::LookupFailed`] if the key was never
    /// registered.
    pub fn locate(
        &self,
        m: &MetricSpace,
        src: NodeId,
        key: ObjectKey,
    ) -> Result<(Route, NodeId), RouteError> {
        let mut rec = RouteRecorder::new(m, src);
        rec.note_header_bits(32 + 8); // object key + round counter
        if search_rounds(self, &mut rec, src, key)? {
            let replica = rec.current();
            return Ok((rec.finish(), replica));
        }
        Err(RouteError::LookupFailed {
            at: rec.current(),
            detail: format!("object key {key} is not registered anywhere"),
        })
    }
}

/// The directory's rounds are the scheme's; each host's facility is its
/// own object tree.
impl NameIndependentView for ObjectDirectory<'_> {
    type Labeled = NetLabeled;
    type Tree<'a>
        = &'a SearchTree<Label>
    where
        Self: 'a;

    fn underlying(&self) -> &NetLabeled {
        self.scheme.underlying()
    }

    fn name_at(&self, u: NodeId) -> Name {
        self.scheme.name_at(u)
    }

    fn round_count(&self) -> usize {
        self.scheme.round_count()
    }

    fn hosts(&self, k: usize) -> usize {
        self.scheme.hosts(k)
    }

    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize) {
        self.scheme.zoom_row(u, k)
    }

    fn facility(&self, k: usize, j: usize) -> Facility<&SearchTree<Label>> {
        Facility::Own(&self.trees[k][j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps};
    use netsim::Naming;

    fn setup(n_side: usize) -> (MetricSpace, SimpleNameIndependent) {
        let m = MetricSpace::new(&gen::grid(n_side, n_side));
        let naming = Naming::random(m.n(), 7);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming).unwrap();
        (m, s)
    }

    #[test]
    fn locates_single_replica_exactly() {
        let (m, s) = setup(6);
        let dir = ObjectDirectory::new(&m, &s, &[(77, vec![20])]);
        for src in [0u32, 7, 35] {
            let (route, replica) = dir.locate(&m, src, 77).unwrap();
            assert_eq!(replica, 20);
            assert_eq!(route.dst, 20);
            route.verify(&m).unwrap();
        }
    }

    #[test]
    fn unknown_key_errors() {
        let (m, s) = setup(4);
        let dir = ObjectDirectory::new(&m, &s, &[(1, vec![3])]);
        assert!(matches!(dir.locate(&m, 0, 99), Err(RouteError::LookupFailed { .. })));
    }

    #[test]
    fn finds_a_nearby_copy_not_a_far_one() {
        // Replicas at opposite corners of an 8×8 grid; lookups near a
        // corner must pay O(distance-to-the-near-copy), far below the
        // cross-grid distance.
        let (m, s) = setup(8);
        let corners = vec![0u32, 63];
        let dir = ObjectDirectory::new(&m, &s, &[(5, corners.clone())]);
        for src in [1u32, 8, 9] {
            let (route, replica) = dir.locate(&m, src, 5).unwrap();
            route.verify(&m).unwrap();
            assert!(corners.contains(&replica));
            let d_near = corners.iter().map(|&c| m.dist(src, c)).min().unwrap();
            assert!(
                route.cost <= 8 * d_near,
                "lookup cost {} vs nearest copy at {}",
                route.cost,
                d_near
            );
            // Locality: reached the *near* corner, not the far one.
            assert_eq!(replica, 0, "src {src} should find the nearby corner copy");
        }
    }

    #[test]
    fn locality_approximation_over_all_sources() {
        let (m, s) = setup(7);
        let hosts = vec![3u32, 24, 49 - 1];
        let dir = ObjectDirectory::new(&m, &s, &[(9, hosts.clone())]);
        for src in 0..m.n() as u32 {
            let (route, _) = dir.locate(&m, src, 9).unwrap();
            let d_near = hosts.iter().map(|&h| m.dist(src, h)).min().unwrap();
            if d_near == 0 {
                assert_eq!(route.cost, 0);
            } else {
                let ratio = route.cost as f64 / d_near as f64;
                assert!(
                    ratio <= crate::stretch_envelope(Eps::one_over(8)),
                    "locality ratio {ratio} at src {src}"
                );
            }
        }
    }

    #[test]
    fn multiple_objects_coexist() {
        let (m, s) = setup(5);
        let dir = ObjectDirectory::new(&m, &s, &[(1, vec![0]), (2, vec![24]), (3, vec![12, 4])]);
        assert_eq!(dir.placements().len(), 4);
        let (_, r1) = dir.locate(&m, 13, 1).unwrap();
        let (_, r2) = dir.locate(&m, 13, 2).unwrap();
        let (_, r3) = dir.locate(&m, 13, 3).unwrap();
        assert_eq!(r1, 0);
        assert_eq!(r2, 24);
        assert!([12u32, 4].contains(&r3));
    }

    #[test]
    fn mobile_object_stays_locatable_after_moves() {
        let (m, s) = setup(7);
        let mut dir = ObjectDirectory::new(&m, &s, &[(8, vec![0])]);
        // Walk the object along a tour of the grid.
        let tour = [0u32, 3, 24, 48, 27, 6];
        for w in tour.windows(2) {
            let updated = dir.move_object(8, w[0], w[1]);
            assert!(updated > 0, "a move must touch some trees");
            // Every client still finds it, and finds it *near its new home*.
            for src in [0u32, 10, 30, 48] {
                let (route, replica) = dir.locate(&m, src, 8).unwrap();
                assert_eq!(replica, w[1], "object must be found at its new host");
                route.verify(&m).unwrap();
                let d = m.dist(src, w[1]);
                if d > 0 {
                    assert!(
                        route.cost as f64 / d as f64
                            <= 3.0 * crate::stretch_envelope(Eps::one_over(8)),
                        "locality after move: cost {} vs d {}",
                        route.cost,
                        d
                    );
                }
            }
        }
        assert_eq!(dir.placements(), &[(8, 6)]);
    }

    #[test]
    fn moving_one_replica_keeps_the_other() {
        let (m, s) = setup(6);
        let mut dir = ObjectDirectory::new(&m, &s, &[(5, vec![0, 35])]);
        dir.move_object(5, 0, 1);
        // Both replicas remain locatable; a client next to 35 finds 35.
        let (_, near35) = dir.locate(&m, 34, 5).unwrap();
        assert_eq!(near35, 35);
        let (_, near1) = dir.locate(&m, 2, 5).unwrap();
        assert_eq!(near1, 1);
    }

    #[test]
    fn a_moved_directory_equals_a_fresh_one() {
        let (m, s) = setup(6);
        // Key 5 has two replicas; key 8 tours the grid.
        let mut dir = ObjectDirectory::new(&m, &s, &[(5, vec![0, 35]), (8, vec![14])]);
        for (key, from, to) in [(5, 0, 1), (8, 14, 20), (5, 35, 30), (8, 20, 0), (5, 1, 2)] {
            dir.move_object(key, from, to);
        }
        assert_eq!(dir.placements(), &[(5, 2), (5, 30), (8, 0)]);
        let replicas: Vec<(ObjectKey, Vec<NodeId>)> =
            dir.placements().iter().map(|&(key, h)| (key, vec![h])).collect();
        let fresh = ObjectDirectory::new(&m, &s, &replicas);
        assert!(dir.trees == fresh.trees, "moves must re-store the trees as a fresh build would");
    }

    #[test]
    #[should_panic]
    fn moving_unregistered_placement_panics() {
        let (m, s) = setup(4);
        let mut dir = ObjectDirectory::new(&m, &s, &[(1, vec![3])]);
        dir.move_object(1, 5, 6);
    }

    #[test]
    fn directory_bits_are_accounted() {
        let (m, s) = setup(5);
        let dir = ObjectDirectory::new(&m, &s, &[(1, vec![0, 12, 24])]);
        let total: u64 = (0..25u32).map(|v| dir.directory_bits(v, 5)).sum();
        assert!(total > 0, "directory must occupy storage");
    }
}
