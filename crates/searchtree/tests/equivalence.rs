//! Equivalence of [`SearchTree`] construction with a naive reference.
//!
//! The reference below is the textbook reading of Definitions 3.2/4.2,
//! Lemma 4.3 and Algorithm 1: greedy nets by scanning the whole net,
//! parents and tail sites by `MetricSpace::nearest_in`, relay entries by
//! materializing every realizing shortest path, and one pair list per
//! node. The library builds the same trees from bounded balls and sorted
//! rows; this test checks that the two agree field for field — tree
//! shape, edge weights, levels, relay entries, subtree ranges and stored
//! pairs — on grids, random geometric graphs and exponential-weight paths,
//! capped and uncapped, over full balls and balls filtered to a random
//! active subset, and after a `refresh_pairs` with a fresh pair set.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::{gen, Eps, MetricSpace};
use searchtree::{SearchTree, SearchTreeConfig};

/// The naive search tree, keyed by graph node id throughout.
struct Reference {
    center: NodeId,
    /// child → (parent, edge weight).
    parent: BTreeMap<NodeId, (NodeId, Dist)>,
    /// node → children in ascending id order.
    children: BTreeMap<NodeId, Vec<NodeId>>,
    level: BTreeMap<NodeId, u32>,
    levels: u32,
    has_tails: bool,
    relay: BTreeMap<NodeId, u64>,
    pairs: BTreeMap<NodeId, Vec<(u32, u32)>>,
    range: BTreeMap<NodeId, Option<(u32, u32)>>,
}

impl Reference {
    fn new(
        m: &MetricSpace,
        center: NodeId,
        ball: &[NodeId],
        config: SearchTreeConfig,
        pairs: Vec<(u32, u32)>,
    ) -> Self {
        let mut remaining: Vec<NodeId> = ball.iter().copied().filter(|&x| x != center).collect();
        remaining.sort_unstable();
        let mut level_sets: Vec<Vec<NodeId>> = vec![vec![center]];
        let mut edges: Vec<(NodeId, NodeId, Dist)> = Vec::new();
        let mut level = BTreeMap::from([(center, 0u32)]);
        let cap = config.max_levels.unwrap_or(u32::MAX);
        let mut i: u32 = 1;
        while !remaining.is_empty() && i <= cap {
            let rho = if i >= 64 { 0 } else { config.eps_r >> i };
            let mut net: Vec<NodeId> = Vec::new();
            let mut rest: Vec<NodeId> = Vec::new();
            for &x in &remaining {
                if net.iter().all(|&y| m.dist(x, y) >= rho) {
                    net.push(x);
                } else {
                    rest.push(x);
                }
            }
            let prev = &level_sets[i as usize - 1];
            for &v in &net {
                let p = m.nearest_in(v, prev).unwrap();
                edges.push((v, p, m.dist(v, p)));
                level.insert(v, i);
            }
            level_sets.push(net);
            remaining = rest;
            i += 1;
        }
        let levels = (level_sets.len() - 1) as u32;
        let has_tails = !remaining.is_empty();
        if has_tails {
            let sites = &level_sets[levels as usize];
            let mut tails: Vec<Vec<NodeId>> = vec![Vec::new(); sites.len()];
            for &x in &remaining {
                let u = m.nearest_in(x, sites).unwrap();
                tails[sites.iter().position(|&s| s == u).unwrap()].push(x);
            }
            for (k, members) in tails.iter().enumerate() {
                let mut prev = sites[k];
                for &x in members {
                    edges.push((x, prev, m.dist(x, prev)));
                    level.insert(x, levels + 1);
                    prev = x;
                }
            }
        }
        let mut relay = BTreeMap::new();
        for &(child, parent, _) in &edges {
            let path = m.path(parent, child);
            for &x in &path[1..path.len() - 1] {
                *relay.entry(x).or_insert(0) += 2;
            }
        }
        let mut children: BTreeMap<NodeId, Vec<NodeId>> =
            level.keys().map(|&v| (v, Vec::new())).collect();
        let mut parent = BTreeMap::new();
        for &(c, p, w) in &edges {
            parent.insert(c, (p, w));
            children.get_mut(&p).unwrap().push(c);
        }
        for list in children.values_mut() {
            list.sort_unstable();
        }
        let mut r = Reference {
            center,
            parent,
            children,
            level,
            levels,
            has_tails,
            relay,
            pairs: BTreeMap::new(),
            range: BTreeMap::new(),
        };
        r.store(pairs);
        r
    }

    fn dfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut stack = vec![self.center];
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend(self.children[&u].iter().rev());
        }
        order
    }

    fn store(&mut self, mut items: Vec<(u32, u32)>) {
        items.sort_by_key(|&(k, _)| k);
        let per_node = if items.is_empty() { 0 } else { items.len().div_ceil(self.level.len()) };
        let order = self.dfs_order();
        let mut it = items.into_iter();
        self.pairs =
            order.iter().map(|&u| (u, it.by_ref().take(per_node).collect::<Vec<_>>())).collect();
        self.range.clear();
        for &u in order.iter().rev() {
            let mut keys: Vec<u32> = self.pairs[&u].iter().map(|&(k, _)| k).collect();
            for c in &self.children[&u] {
                if let Some((lo, hi)) = self.range[c] {
                    keys.extend([lo, hi]);
                }
            }
            let range = keys.iter().min().map(|&lo| (lo, *keys.iter().max().unwrap()));
            self.range.insert(u, range);
        }
    }
}

/// Asserts that `st` and `r` agree on every field.
fn assert_same(m: &MetricSpace, st: &SearchTree<u32>, r: &Reference) {
    let t = st.tree();
    assert_eq!(st.center(), r.center);
    assert_eq!(t.root(), r.center);
    assert_eq!(t.len(), r.level.len());
    assert_eq!(st.levels(), r.levels);
    assert_eq!(st.has_tails(), r.has_tails);
    for u in 0..t.len() as u32 {
        let v = t.node(u);
        assert_eq!(t.local(v), Some(u));
        if u == 0 {
            assert_eq!(t.parent(u), 0);
            assert_eq!(t.weight_up(u), 0);
        } else {
            assert_eq!((t.node(t.parent(u)), t.weight_up(u)), r.parent[&v], "edge of {v}");
        }
        let kids: Vec<NodeId> = t.children(u).iter().map(|&c| t.node(c)).collect();
        assert_eq!(&kids, &r.children[&v], "children of {v}");
        assert_eq!(st.level_of(v), r.level[&v], "level of {v}");
        assert_eq!(st.pairs_at(v), &r.pairs[&v][..], "pairs at {v}");
        assert_eq!(st.subtree_range_of(u), r.range[&v], "range of {v}");
    }
    for v in 0..m.n() as NodeId {
        assert_eq!(st.relay_bits(v, 1), r.relay.get(&v).copied().unwrap_or(0), "relay at {v}");
    }
}

fn graph(family: usize, seed: u64) -> MetricSpace {
    MetricSpace::new(&match family {
        0 => gen::grid(9, 9),
        1 => gen::random_geometric(90, 180, seed),
        2 => gen::exp_weight_path(40),
        _ => gen::grid_with_holes(10, 10, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn construction_and_mutation_match_the_naive_reference(
        family in 0usize..4,
        graph_seed in 0u64..1_000,
        center_raw in 0u32..u32::MAX,
        radius_pct in 10u64..=100,
        eps_inv in 1u64..=9,
        cap in proptest::option::of(1u32..8),
        keep_pct in 40u64..=100,
        op_seed in 0u64..u64::MAX,
    ) {
        let m = graph(family, graph_seed);
        let mut rng = StdRng::seed_from_u64(op_seed);
        let center = center_raw % m.n() as NodeId;
        let radius = (m.diameter() * radius_pct / 100).max(1);
        // Balls filtered to an active subset, as the name-independent
        // schemes filter them to active nodes during churn.
        let ball: Vec<NodeId> = m
            .ball(center, radius)
            .iter()
            .copied()
            .filter(|&x| x == center || rng.gen_range(0u64..100) < keep_pct)
            .collect();
        let eps = if eps_inv == 1 { Eps::new(3, 4).unwrap() } else { Eps::one_over(eps_inv) };
        let config = SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: cap };
        // Keys collide on purpose (x / 2), so duplicate keys are covered.
        let pairs: Vec<(u32, u32)> = ball
            .iter()
            .map(|&x| (x / 2 * 7, x))
            .chain(
                (0..rng.gen_range(0usize..20)).map(|i| (rng.gen_range(0u64..800) as u32, i as u32)),
            )
            .collect();

        let mut st = SearchTree::new(&m, center, &ball, config, pairs.clone());
        let mut r = Reference::new(&m, center, &ball, config, pairs);
        assert_same(&m, &st, &r);

        let fresh: Vec<(u32, u32)> =
            ball.iter().map(|&x| (rng.gen_range(0u64..800) as u32, x)).collect();
        st.refresh_pairs(fresh.clone());
        r.store(fresh);
        assert_same(&m, &st, &r);
    }
}
