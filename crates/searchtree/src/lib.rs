//! Search trees over metric balls (Section 3.1.1 and Definition 4.2 of the
//! paper).
//!
//! A *search tree* `T(c, r)` over a ball `B_c(r)` (Definition 3.2) layers
//! the ball into nets of geometrically shrinking radius: `U_0 = {c}` and
//! `U_i` is a net of radius `≈ εr/2^i` of the ball minus all earlier
//! layers; each `v ∈ U_i` hangs off its nearest node in `U_{i−1}`. The
//! root-to-leaf cost is at most `(1+O(ε))·r` (Eqn. (3)) and the maximum
//! degree is `(1/ε)^{O(α)}` by Lemma 2.2.
//!
//! `(key, data)` pairs are distributed over the tree by a DFS traversal
//! (**Algorithm 1**: `⌈k/m⌉` pairs per node in sorted key order) and
//! retrieved by a root-to-holder descent that reports back to the root
//! (**Algorithm 2**), costing at most `2(1+O(ε))·r`. A tree's pairs change
//! only by [`SearchTree::refresh_pairs`], which re-runs Algorithm 1 over
//! the same skeleton, so every tree is an Algorithm 1 tree and the one
//! descent, [`descend`], is exact on it.
//!
//! *Search tree II* `T'(c, r)` (Definition 4.2) truncates the layering at
//! `⌈log n⌉` levels — necessary when `ε·r` is super-polynomial in `n`,
//! i.e. in the scale-free regime — and links the leftover nodes into
//! per-Voronoi tail paths whose edges cost `O(εr/n)` each (Lemma 4.3).
//! Pass [`SearchTreeConfig::max_levels`] to select this variant.
//!
//! # Construction cost
//!
//! Every step of [`SearchTree::new`] costs `O(b)` or the length of the
//! shortest paths it walks, for a ball of `b` nodes, plus one id sort of
//! the ball and one key sort of the pairs. No step searches or sorts per
//! node:
//!
//! * **Nets.** A candidate `x` for the level-`i` net of radius `ρ` reads
//!   its sorted row from the front, one level-map lookup per entry, until
//!   a net point or an entry at distance `ρ`; once it has read more
//!   entries than the net built so far has points, it scans the net
//!   instead. So it costs `min(|B_x(ρ − 1)|, |net|) + 1` reads: coarse
//!   levels have few net points (by Lemma 2.2 a `ρ`-net of a radius-`r`
//!   ball has `(r/ρ)^{O(α)}` of them) and fine levels have small balls.
//!   Levels with `ρ ≤ min_dist` take every remaining node without any
//!   check.
//! * **Parents and tail sites.** The nearest previous-level node (least
//!   `(distance, id)`) is the first entry of `v`'s sorted row that the
//!   level map places on that level, and the row entry carries the edge
//!   weight; the scan is cut off after as many entries as the level has
//!   nodes, then falls back to a plain scan of the level. Definition 4.2
//!   tails chain onto their site's current end.
//! * **Relays (Lemma 4.3).** Each virtual edge's interior is walked along
//!   the shortest-path parent pointers into a dense counter; only the
//!   distinct relays (its touched list) are sorted.
//! * **Tree.** Local indices are the center, then the id-sorted ball, so
//!   [`Tree::from_parents`] assembles the CSR child lists, DFS check and
//!   subtree sizes in `O(b)` with no sort of edges or endpoints.
//! * **Pairs (Algorithm 1).** One sort of the keys; each node's share is a
//!   span of a single flat vector.
//!
//! The level map, the local-index map and the relay counter are dense
//! node-id arrays in one scratch per thread. They grow to `n` once per
//! thread, and each build resets exactly the entries it set (its ball and
//! its relay touched list), so no tree pays `O(n)` to allocate or clear
//! them. A build that panics drops the scratch rather than return it
//! dirty.
//!
//! # Memory
//!
//! Keys are `u32`: every key the schemes store is a name, a label or an
//! object key, and all three are `u32`. A tree of `m` members holding `k`
//! pairs, whose virtual edges pass `r` relay nodes, retains
//! `44·m + size_of::<(u32, D)>()·k + 8·r` bytes plus the heap its payloads
//! own, with no spare capacity:
//!
//! * per member, 28 B of skeleton (node id, parent, child-list slot and
//!   start, edge weight, subtree size), 4 B of net level, 4 B for where
//!   its Algorithm 1 share starts (one `⌈k/m⌉` per tree gives the
//!   lengths) and 8 B of subtree key range (`lo > hi` when empty);
//! * per pair, its key and payload: 8 B for a `u32` label. The pairs are
//!   the caller's vector, shrunk to its length;
//! * per relay node, its id and a `u32` count of next-hop entries.
//!
//! The tree is *virtual*: its edges are generally not graph edges.
//! [`descend`] streams the walk to the calling scheme one tree node at a
//! time, and the scheme executes each virtual hop with its underlying
//! routing machinery (shortest-path next hops or an underlying labeled
//! scheme) and charges the true cost; [`SearchTree::search`] collects the
//! same walk as a sequence of tree nodes.

#![warn(missing_docs)]

pub mod packed;

pub use packed::{
    PackedSearchTree, PackedTreeView, PackedTreeWidths, PayloadCodec, PortLabelCodec, U32Codec,
};

use std::cell::Cell;

use doubling_metric::graph::{Dist, NodeId, INFINITY};
use doubling_metric::space::MetricSpace;
use treeroute::Tree;

/// Construction parameters for a [`SearchTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchTreeConfig {
    /// `⌊ε·r⌋` in metric units: the top net radius of the layering.
    pub eps_r: Dist,
    /// Maximum number of net levels (Definition 4.2's `⌈log n⌉` cap), or
    /// `None` for the unbounded Definition 3.2 tree.
    pub max_levels: Option<u32>,
}

/// The outcome of one Algorithm-2 lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchWalk<D> {
    /// The tree nodes visited, starting and ending at the center (descent
    /// followed by the reversed ascent).
    pub nodes: Vec<NodeId>,
    /// The retrieved data, or `None` if no pair with the key exists.
    pub result: Option<D>,
    /// Deepest tree level (edges below the root) the lookup descended to —
    /// the per-lookup depth statistic the observability layer aggregates.
    pub depth: usize,
}

/// What one tree node's record says about a key: the payload it stores
/// under the key, or else the first child (local index, children in
/// graph-id order) whose subtree key range contains the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeScan<D> {
    /// The payload stored under the key at this node (first match).
    pub hit: Option<D>,
    /// The child to descend into; always `None` when `hit` is `Some`.
    pub descend: Option<u32>,
}

/// A read-only view of a search tree's per-node records — exactly what
/// the Algorithm 2 descent reads. A `&`[`SearchTree`] implements it over
/// the in-memory vectors and a [`PackedTreeView`] over a plane's bits, so
/// [`descend`] is the single lookup both run.
pub trait TreeScan {
    /// The stored payload type.
    type Item;

    /// The graph node at local index `local` (`0` is the root).
    fn node_of(&self, local: u32) -> NodeId;

    /// Scans the record of local index `local` for `key`.
    fn scan(&self, local: u32, key: u32) -> NodeScan<Self::Item>;
}

/// Tree depth [`descend`] keeps on the call stack; only a deeper path (a
/// long Definition 4.2 tail) spills the rest to the heap.
const STACK_DEPTH: usize = 32;

/// Algorithm 2 over any [`TreeScan`] view, streamed: descend from the root
/// while the current holder misses and a child range covers the key, then
/// report back to the root along the same path. `visit` is called with
/// every tree node the packet moves to, in travel order (the root itself
/// is where the packet starts), and each record is scanned only after the
/// packet has reached its node. Returns the retrieved payload, or `None`
/// if no pair has the key.
///
/// # Errors
///
/// The first error `visit` returns; the walk stops there.
pub fn descend<T: TreeScan + ?Sized, E>(
    tree: &T,
    key: u32,
    mut visit: impl FnMut(NodeId) -> Result<(), E>,
) -> Result<Option<T::Item>, E> {
    // Graph nodes above the packet, root first, for the report back up.
    let mut above = [0 as NodeId; STACK_DEPTH];
    let mut spill: Vec<NodeId> = Vec::new();
    let mut depth = 0;
    let mut local = 0;
    let result = loop {
        let s = tree.scan(local, key);
        if s.hit.is_some() {
            break s.hit;
        }
        let Some(child) = s.descend else { break None };
        let here = tree.node_of(local);
        match above.get_mut(depth) {
            Some(slot) => *slot = here,
            None => spill.push(here),
        }
        depth += 1;
        local = child;
        visit(tree.node_of(local))?;
    };
    while depth > 0 {
        depth -= 1;
        visit(above.get(depth).copied().or_else(|| spill.pop()).expect("pushed on descent"))?;
    }
    Ok(result)
}

impl<D> SearchWalk<D> {
    /// Collects [`descend`] over `tree` into the whole walk.
    fn collect<T: TreeScan<Item = D> + ?Sized>(tree: &T, key: u32) -> Self {
        let mut nodes = vec![tree.node_of(0)];
        let Ok(result) = descend(tree, key, |x| {
            nodes.push(x);
            Ok::<(), std::convert::Infallible>(())
        });
        let depth = nodes.len() / 2;
        SearchWalk { nodes, result, depth }
    }
}

/// A search tree over a ball, with stored `(key, data)` pairs.
///
/// Type parameter `D` is the stored payload (a routing label of the
/// underlying scheme, in both of the paper's uses).
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
/// use searchtree::{SearchTree, SearchTreeConfig};
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let ball = m.ball(12, 3);
/// let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x, x)).collect();
/// let st = SearchTree::new(
///     &m,
///     12,
///     &ball,
///     SearchTreeConfig { eps_r: 1, max_levels: None },
///     pairs,
/// );
/// let walk = st.search(14);
/// assert_eq!(walk.result, Some(14));          // found the datum
/// assert_eq!(*walk.nodes.last().unwrap(), 12); // and reported back to the root
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchTree<D> {
    center: NodeId,
    tree: Tree,
    /// Net level per local index (`0` for the root; tails get
    /// `levels + 1` where `levels` is the last net level).
    level_of: Vec<u32>,
    /// Number of net levels actually used (excluding tails).
    levels: u32,
    /// Whether Definition 4.2 tails were attached.
    has_tails: bool,
    /// Every stored pair, in ascending key order. Algorithm 1 hands them
    /// out in DFS order, so each node's share is one contiguous span.
    pairs: Box<[(u32, D)]>,
    /// Algorithm 1's share length `⌈k/m⌉` (`0` with no pairs): every
    /// span holds this many pairs, except that the last nonempty one may
    /// hold fewer and the ones after it none.
    per_node: u32,
    /// Where each local index's share of `pairs` starts.
    starts: Box<[u32]>,
    /// Min/max stored key in each local subtree; [`NO_KEYS`] if it
    /// stores none.
    subtree_range: Box<[(u32, u32)]>,
    /// Lemma 4.3 relay accounting: for every *graph* node lying strictly
    /// inside the shortest path realizing a virtual tree edge, the number
    /// of next-hop entries it must store (two directions per edge it
    /// relays). Sorted by graph node id.
    relay_entries: Box<[(NodeId, u32)]>,
}

/// The stored range of a subtree without keys: empty, since `lo > hi`, so
/// no key tests inside it.
const NO_KEYS: (u32, u32) = (u32::MAX, 0);

impl<D: Clone> SearchTree<D> {
    /// Builds the search tree over `ball` (which must contain `center`)
    /// and distributes `pairs` per Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `ball` does not contain `center` or contains duplicates.
    pub fn new(
        m: &MetricSpace,
        center: NodeId,
        ball: &[NodeId],
        config: SearchTreeConfig,
        pairs: Vec<(u32, D)>,
    ) -> Self {
        // Local indexing: the center first, then the id-sorted rest of the
        // ball — the convention `Tree` uses, so no edge is ever sorted.
        let mut nodes: Vec<NodeId> = Vec::with_capacity(ball.len());
        nodes.push(center);
        nodes.extend(ball.iter().copied().filter(|&x| x != center));
        assert!(nodes.len() <= ball.len(), "ball must contain its center");
        nodes[1..].sort_unstable();
        assert!(
            nodes.len() == ball.len() && nodes[1..].windows(2).all(|w| w[0] < w[1]),
            "ball must not contain duplicates"
        );

        // A panic mid-build drops the taken scratch instead of returning a
        // dirty one to the thread.
        let mut scratch = SCRATCH.with(Cell::take);
        let mut st = scratch.layer(m, nodes, config);
        SCRATCH.with(|cell| cell.set(scratch));
        st.store(pairs);
        st
    }

    /// Algorithm 1: distribute the pairs over the tree in DFS order,
    /// `⌈k/m⌉` per node, and record subtree key ranges.
    ///
    /// The sorted pairs stay in one flat slice: the caller's vector,
    /// shrunk to its length. DFS order makes each node's share a
    /// contiguous span of it.
    fn store(&mut self, mut items: Vec<(u32, D)>) {
        items.sort_by_key(|&(k, _)| k);
        let m = self.tree.len();
        let k = items.len();
        assert!(u32::try_from(k).is_ok(), "{k} pairs overflow the u32 spans");
        let per_node = if k == 0 { 0 } else { k.div_ceil(m) };

        let mut starts = vec![0u32; m].into_boxed_slice();
        let order = self.dfs_order();
        for (t, &u) in order.iter().enumerate() {
            starts[u as usize] = (t * per_node).min(k) as u32;
        }
        self.pairs = items.into_boxed_slice();
        self.per_node = per_node as u32;
        self.starts = starts;

        // Subtree ranges bottom-up (children appear after parents in
        // `order`, so reverse iteration is a valid bottom-up order).
        let mut range = vec![NO_KEYS; m].into_boxed_slice();
        for &u in order.iter().rev() {
            let own = self.local_pairs(u);
            let (mut lo, mut hi) = match (own.first(), own.last()) {
                (Some(&(first, _)), Some(&(last, _))) => (first, last),
                _ => NO_KEYS,
            };
            for &c in self.tree.children(u) {
                let (clo, chi) = range[c as usize];
                lo = lo.min(clo);
                hi = hi.max(chi);
            }
            range[u as usize] = (lo, hi);
        }
        self.subtree_range = range;
    }

    /// The pairs stored at local index `u`, in ascending key order.
    #[inline]
    fn local_pairs(&self, u: u32) -> &[(u32, D)] {
        let start = self.starts[u as usize] as usize;
        let end = (start + self.per_node as usize).min(self.pairs.len());
        &self.pairs[start..end]
    }

    /// Pre-order DFS over local indices, children in graph-id order — the
    /// traversal Algorithm 1 distributes pairs along.
    fn dfs_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.tree.len());
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            order.push(u);
            for &c in self.tree.children(u).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Algorithm 2: look up `key` starting from the root, returning the
    /// walk (down and back up) and the retrieved data if present — the
    /// shared [`descend`] over this tree's records, collected.
    pub fn search(&self, key: u32) -> SearchWalk<D> {
        SearchWalk::collect(&self, key)
    }

    /// Wholesale pair refresh over the **existing** tree skeleton: rebuilds
    /// the Algorithm 1 distribution and subtree ranges from `items` exactly
    /// as construction would. A tree refreshed with some pair set is
    /// byte-identical to one freshly built over the same skeleton with that
    /// pair set, which is what incremental table repair relies on when only
    /// keys/data changed (e.g. relabeled destinations or a moved object)
    /// but the metric ball the tree spans did not.
    pub fn refresh_pairs(&mut self, items: Vec<(u32, D)>) {
        self.store(items);
    }

    /// The ball center (tree root).
    #[inline]
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The underlying virtual tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of net levels used (excluding the root level and tails).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Whether Definition 4.2 tails were attached.
    #[inline]
    pub fn has_tails(&self) -> bool {
        self.has_tails
    }

    /// The net level of a member (tails report `levels() + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn level_of(&self, v: NodeId) -> u32 {
        self.level_of[self.tree.local(v).expect("member") as usize]
    }

    /// Whether `v` is a member of this tree.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.tree.contains(v)
    }

    /// The pairs stored at member `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn pairs_at(&self, v: NodeId) -> &[(u32, D)] {
        self.local_pairs(self.tree.local(v).expect("member"))
    }

    /// The key range covered by the subtree rooted at local index `local`
    /// (`None` when the subtree stores no pairs) — the interval the
    /// Algorithm 2 descent tests. Exposed so the plane compiler can pack
    /// the exact ranges the search uses.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn subtree_range_of(&self, local: u32) -> Option<(u32, u32)> {
        let (lo, hi) = self.subtree_range[local as usize];
        (lo <= hi).then_some((lo, hi))
    }

    /// Maximum number of children of any tree node (the paper bounds this
    /// by `(1/ε)^{O(α)}` via Lemma 2.2).
    pub fn max_degree(&self) -> usize {
        (0..self.tree.len() as u32).map(|u| self.tree.children(u).len()).max().unwrap_or(0)
    }

    /// Exact tree-path cost from the root to `v` (sum of virtual edge
    /// weights — each the true metric distance between its endpoints).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn depth_cost(&self, v: NodeId) -> Dist {
        let mut u = self.tree.local(v).expect("member");
        let mut total = 0;
        while self.tree.parent(u) != u {
            total += self.tree.weight_up(u);
            u = self.tree.parent(u);
        }
        total
    }

    /// The maximum [`Self::depth_cost`] over all members — the height that
    /// Eqn. (3) bounds by `(1+O(ε))·r`.
    pub fn height(&self) -> Dist {
        self.tree.nodes().iter().map(|&v| self.depth_cost(v)).max().unwrap_or(0)
    }

    /// Serialized table bits a member contributes, given field widths and a
    /// per-datum size function: own range + per-child `(link, range)` +
    /// parent link + stored pairs + the node's Lemma 4.3 relay entries.
    pub fn storage_bits(
        &self,
        v: NodeId,
        node_bits: u64,
        key_bits: u64,
        data_bits: impl Fn(&D) -> u64,
    ) -> u64 {
        let u = self.tree.local(v).expect("member");
        self.local_table_bits(u, node_bits, key_bits, &data_bits) + self.relay_bits(v, node_bits)
    }

    /// Adds every node's share of this tree's storage into `bits` (indexed
    /// by graph node id): [`Self::storage_bits`] for each member, and
    /// [`Self::relay_bits`] for each relay that is not a member. Walks
    /// local indices and the relay list once each.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than the largest node id involved.
    pub fn add_storage_bits(
        &self,
        bits: &mut [u64],
        node_bits: u64,
        key_bits: u64,
        data_bits: impl Fn(&D) -> u64,
    ) {
        for u in 0..self.tree.len() as u32 {
            bits[self.tree.node(u) as usize] +=
                self.local_table_bits(u, node_bits, key_bits, &data_bits);
        }
        // Members' relay bits belong to their storage_bits; everyone
        // else's are their whole share.
        for &(v, count) in &self.relay_entries {
            bits[v as usize] += u64::from(count) * node_bits;
        }
    }

    /// [`Self::storage_bits`] of local index `u` without its relay bits.
    fn local_table_bits(
        &self,
        u: u32,
        node_bits: u64,
        key_bits: u64,
        data_bits: &impl Fn(&D) -> u64,
    ) -> u64 {
        let deg = self.tree.children(u).len() as u64;
        let ranges = 2 * key_bits * (deg + 1);
        let links = node_bits * (deg + 1);
        let stored: u64 = self.local_pairs(u).iter().map(|(_, d)| key_bits + data_bits(d)).sum();
        ranges + links + stored
    }

    /// Lemma 4.3 relay bits stored at graph node `v` for this tree's
    /// virtual edges (next-hop entries for every edge whose realizing
    /// shortest path passes strictly through `v`). Defined for *any* graph
    /// node, member or not.
    pub fn relay_bits(&self, v: NodeId, node_bits: u64) -> u64 {
        let count = match self.relay_entries.binary_search_by_key(&v, |&(x, _)| x) {
            Ok(idx) => self.relay_entries[idx].1,
            Err(_) => 0,
        };
        u64::from(count) * node_bits
    }
}

impl<D: Clone> TreeScan for &SearchTree<D> {
    type Item = D;

    #[inline]
    fn node_of(&self, local: u32) -> NodeId {
        self.tree.node(local)
    }

    fn scan(&self, local: u32, key: u32) -> NodeScan<D> {
        let own = self.local_pairs(local);
        if let Ok(idx) = own.binary_search_by_key(&key, |&(k, _)| k) {
            return NodeScan { hit: Some(own[idx].1.clone()), descend: None };
        }
        let descend = self.tree.children(local).iter().copied().find(|&c| {
            let (lo, hi) = self.subtree_range[c as usize];
            lo <= key && key <= hi
        });
        NodeScan { hit: None, descend }
    }
}

/// Marks a node that is not (yet) placed in the tree being built.
const UNPLACED: u32 = u32::MAX;

thread_local! {
    /// The calling thread's [`Scratch`], taken for the length of one build.
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Dense node-id-indexed maps one [`SearchTree::new`] call works in. They
/// grow to `n` once per thread and are handed back clean: every build
/// resets exactly the entries it set (its ball, and its relay touched
/// list), so no tree pays `O(n)` for allocating or clearing them.
#[derive(Default)]
struct Scratch {
    /// Net level of each placed ball member (tails: last level `+ 1`);
    /// [`UNPLACED`] everywhere else between builds.
    level: Vec<u32>,
    /// Local index of each ball member. Only members' entries are read,
    /// and each build writes them first, so this is never reset.
    local: Vec<u32>,
    /// Lemma 4.3 relay entries per graph node; nonzero exactly at
    /// `touched` during a build, and all zero between builds.
    relays: Vec<u32>,
    /// The graph nodes with a nonzero relay count.
    touched: Vec<NodeId>,
}

impl Scratch {
    /// Lays out the ball `nodes` (center first, the rest id-sorted) per
    /// Definition 3.2, or 4.2 when `config` caps the levels, and tallies
    /// the Lemma 4.3 relays of every virtual edge. The tree stores no
    /// pairs yet.
    fn layer<D>(
        &mut self,
        m: &MetricSpace,
        nodes: Vec<NodeId>,
        config: SearchTreeConfig,
    ) -> SearchTree<D> {
        let n = m.n();
        if self.level.len() < n {
            self.level.resize(n, UNPLACED);
            self.local.resize(n, 0);
            self.relays.resize(n, 0);
        }
        for (i, &x) in nodes.iter().enumerate() {
            self.local[x as usize] = i as u32;
        }
        let b = nodes.len();
        let mut parent = vec![0u32; b];
        let mut weight_up = vec![0 as Dist; b];
        let mut attach = |v: NodeId, (w, p): (Dist, NodeId), local: &[u32]| {
            let lv = local[v as usize] as usize;
            parent[lv] = local[p as usize];
            weight_up[lv] = w;
        };

        // --- Layering (Definition 3.2 / 4.2): the levels concatenated,
        // each id-sorted; the previous level starts at `prev_lo`.
        self.level[nodes[0] as usize] = 0;
        let mut by_level: Vec<NodeId> = Vec::with_capacity(b);
        by_level.push(nodes[0]);
        let mut prev_lo = 0;
        let mut remaining: Vec<NodeId> = nodes[1..].to_vec();
        let mut rest: Vec<NodeId> = Vec::new();
        let cap = config.max_levels.unwrap_or(u32::MAX);
        let mut i: u32 = 1;
        while !remaining.is_empty() && i <= cap {
            let rho = if i >= 64 { 0 } else { config.eps_r >> i };
            let lo = by_level.len();
            // Greedy rho-net in id order: `x` joins unless a net point lies
            // within `< rho`. Everything else stays for later levels
            // (greedy maximality guarantees covering). Distinct nodes are at
            // least min_dist apart, so a small rho takes everyone. Otherwise
            // `x`'s sorted row is read up to its first net point or first
            // entry at distance `rho`, giving up for a scan of the net once
            // it has read more entries than the net has points.
            for &x in &remaining {
                let covered = rho > m.min_dist() && {
                    let (net, dist) = (&by_level[lo..], m.apsp().row(x));
                    match m
                        .sorted_row(x)
                        .iter()
                        .take(net.len() + 1)
                        .find(|&&y| dist[y as usize] >= rho || self.level[y as usize] == i)
                    {
                        Some(&y) => dist[y as usize] < rho,
                        None => net.iter().any(|&y| dist[y as usize] < rho),
                    }
                };
                if covered {
                    rest.push(x);
                } else {
                    self.level[x as usize] = i;
                    by_level.push(x);
                }
            }
            std::mem::swap(&mut remaining, &mut rest);
            rest.clear();
            let prev = &by_level[prev_lo..lo];
            for &v in &by_level[lo..] {
                attach(v, self.nearest(m, v, i - 1, prev), &self.local);
            }
            prev_lo = lo;
            i += 1;
        }
        let levels = i - 1;

        // --- Definition 4.2 tails: each leftover joins the Voronoi cell of
        // its nearest last-level site, chained in id order.
        let has_tails = !remaining.is_empty();
        if has_tails {
            let sites = &by_level[prev_lo..];
            assert!(!sites.is_empty(), "tails require a nonempty last net level");
            // The current end of each site's chain, by the site's local index.
            let mut end: Vec<NodeId> = nodes.to_vec();
            for &x in &remaining {
                let (_, u) = self.nearest(m, x, levels, sites);
                let lu = self.local[u as usize] as usize;
                attach(x, (m.dist(x, end[lu]), end[lu]), &self.local);
                end[lu] = x;
                self.level[x as usize] = levels + 1;
            }
        }

        // --- Lemma 4.3: each virtual edge `(child, parent)` is realized by
        // the shortest path from `parent` to `child`, whose interior nodes
        // store next-hop entries in both directions.
        let apsp = m.apsp();
        for (c, &child) in nodes.iter().enumerate().skip(1) {
            let p = nodes[parent[c] as usize];
            assert_ne!(
                weight_up[c], INFINITY,
                "no path from {p} to {child}: graph is disconnected"
            );
            let mut cur = apsp.parent(p, child);
            while cur != p {
                let count = &mut self.relays[cur as usize];
                if *count == 0 {
                    self.touched.push(cur);
                }
                *count += 2;
                cur = apsp.parent(p, cur);
            }
        }
        self.touched.sort_unstable();
        let relay_entries = self
            .touched
            .iter()
            .map(|&x| (x, std::mem::take(&mut self.relays[x as usize])))
            .collect();
        self.touched.clear();

        let level_of = nodes.iter().map(|&x| self.level[x as usize]).collect();
        for &x in &nodes {
            self.level[x as usize] = UNPLACED;
        }
        SearchTree {
            center: nodes[0],
            tree: Tree::from_parents(nodes, parent, weight_up).expect("layering forms a tree"),
            level_of,
            levels,
            has_tails,
            pairs: Box::default(),
            per_node: 0,
            starts: Box::default(),
            subtree_range: Box::default(),
            relay_entries,
        }
    }

    /// The member of `set` — the nonempty, id-sorted level `lv` — nearest
    /// to `v`, least id on ties ([`MetricSpace::nearest_in`]'s choice), with
    /// its distance. `v`'s sorted row lists nodes by `(distance, id)`, so
    /// its first entry at level `lv` is the answer; the scan gives up after
    /// `|set|` row entries and falls back to a plain scan of `set`, so a
    /// miss adds at most `|set|` probes to the plain scan.
    fn nearest(&self, m: &MetricSpace, v: NodeId, lv: u32, set: &[NodeId]) -> (Dist, NodeId) {
        let dist = m.apsp().row(v);
        m.sorted_row(v)
            .iter()
            .take(set.len())
            .find(|&&y| self.level[y as usize] == lv)
            .map(|&y| (dist[y as usize], y))
            .unwrap_or_else(|| {
                set.iter().map(|&y| (dist[y as usize], y)).min().expect("set nonempty")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps, MetricSpace};

    fn ball_of(m: &MetricSpace, c: NodeId, r: Dist) -> Vec<NodeId> {
        m.ball(c, r).to_vec()
    }

    fn make(m: &MetricSpace, c: NodeId, r: Dist, eps: Eps, cap: Option<u32>) -> SearchTree<u32> {
        let ball = ball_of(m, c, r);
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x * 10, x)).collect();
        SearchTree::new(
            m,
            c,
            &ball,
            SearchTreeConfig { eps_r: eps.mul_floor(r), max_levels: cap },
            pairs,
        )
    }

    #[test]
    fn covers_ball_and_finds_everything() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let st = make(&m, 27, 6, Eps::one_over(2), None);
        assert_eq!(st.tree().len(), ball_of(&m, 27, 6).len());
        for &x in st.tree().nodes() {
            let walk = st.search(x * 10);
            assert_eq!(walk.result, Some(x), "lookup of {x} failed");
            assert_eq!(*walk.nodes.first().unwrap(), 27);
            assert_eq!(*walk.nodes.last().unwrap(), 27, "walk must report back to root");
        }
    }

    #[test]
    fn missing_keys_return_none() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let st = make(&m, 14, 5, Eps::one_over(2), None);
        for bad in [1, 7, 999_999] {
            let walk = st.search(bad);
            assert_eq!(walk.result, None);
            assert_eq!(*walk.nodes.last().unwrap(), 14);
        }
    }

    #[test]
    fn height_bound_eqn_3() {
        // Height ≤ (1 + O(ε))·r: with our εr/2^i radii the bound is r + εr.
        let m = MetricSpace::new(&gen::random_geometric(80, 230, 5));
        for &(c, frac) in &[(3u32, 2u64), (40, 4), (11, 8)] {
            let eps = Eps::one_over(frac);
            let r = m.diameter() / 2;
            let st = make(&m, c, r, eps, None);
            let bound = r + eps.mul_floor(r) + m.min_dist();
            assert!(st.height() <= bound, "height {} exceeds (1+ε)r bound {bound}", st.height());
        }
    }

    #[test]
    fn walk_cost_bounded_by_twice_height() {
        let m = MetricSpace::new(&gen::grid(7, 7));
        let st = make(&m, 24, 6, Eps::one_over(2), None);
        for &x in st.tree().nodes() {
            let walk = st.search(x * 10);
            let mut cost = 0;
            for w in walk.nodes.windows(2) {
                cost += m.dist(w[0], w[1]);
            }
            assert!(cost <= 2 * st.height());
        }
    }

    #[test]
    fn algorithm1_distributes_evenly() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let ball = ball_of(&m, 14, 4);
        let pairs: Vec<(u32, u32)> = (0..3 * ball.len() as u32).map(|k| (k, k)).collect();
        let st =
            SearchTree::new(&m, 14, &ball, SearchTreeConfig { eps_r: 2, max_levels: None }, pairs);
        for &v in st.tree().nodes() {
            assert!(st.pairs_at(v).len() <= 3, "⌈k/m⌉ = 3 pairs per node");
        }
        for k in 0..3 * ball.len() as u32 {
            assert_eq!(st.search(k).result, Some(k));
        }
    }

    #[test]
    fn def_4_2_cap_truncates_levels_and_attaches_tails() {
        // Huge eps_r forces many natural levels; a cap of 2 must truncate.
        let m = MetricSpace::new(&gen::exp_weight_path(32));
        let c = 0;
        let r = m.diameter();
        let ball = ball_of(&m, c, r);
        assert_eq!(ball.len(), 32);
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x, x)).collect();
        let capped = SearchTree::new(
            &m,
            c,
            &ball,
            SearchTreeConfig { eps_r: r / 2, max_levels: Some(2) },
            pairs.clone(),
        );
        assert!(capped.levels() <= 2);
        assert!(capped.has_tails(), "truncation must produce tails");
        // All lookups still succeed.
        for &x in &ball {
            assert_eq!(capped.search(x).result, Some(x));
        }
        // Tail members are at level levels()+1.
        let tail_count =
            ball.iter().filter(|&&x| capped.level_of(x) == capped.levels() + 1).count();
        assert!(tail_count > 0);
    }

    #[test]
    fn descent_deeper_than_the_stack_reports_back_exactly() {
        // One level-1 net point, so the other 98 nodes hang off it as one
        // Definition 4.2 tail, far deeper than the descent's fixed stack.
        let m = MetricSpace::new(&gen::path(100));
        let ball: Vec<NodeId> = (0..100).collect();
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x, x)).collect();
        let config = SearchTreeConfig { eps_r: 200, max_levels: Some(1) };
        let st = SearchTree::new(&m, 0, &ball, config, pairs);
        let mut deepest = 0;
        for key in 0..100 {
            let walk = st.search(key);
            assert_eq!(walk.result, Some(key), "key {key}");
            // Down the tree path to the holder, and back up the same way.
            let mut path = st.tree().path(0, walk.nodes[walk.depth]);
            path.extend(path.clone().into_iter().rev().skip(1));
            assert_eq!(walk.nodes, path, "key {key}");
            deepest = deepest.max(walk.depth);
        }
        assert!(deepest > STACK_DEPTH, "deepest walk {deepest}");
    }

    #[test]
    fn uncapped_tree_has_no_tails() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let st = make(&m, 12, 4, Eps::one_over(2), None);
        assert!(!st.has_tails());
    }

    #[test]
    fn max_degree_grows_as_eps_shrinks() {
        // Degree is (1/ε)^{O(α)} (Lemma 2.2): smaller ε → coarser first
        // level relative to r → wider, shallower tree.
        let m = MetricSpace::new(&gen::grid(9, 9));
        let big = make(&m, 40, 8, Eps::new(3, 4).unwrap(), None);
        let small = make(&m, 40, 8, Eps::one_over(8), None);
        assert!(
            small.max_degree() >= big.max_degree(),
            "ε=1/8 degree {} vs ε=3/4 degree {}",
            small.max_degree(),
            big.max_degree()
        );
    }

    #[test]
    fn singleton_ball() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let st = SearchTree::new(
            &m,
            4,
            &[4],
            SearchTreeConfig { eps_r: 1, max_levels: None },
            vec![(99u32, 4u32)],
        );
        assert_eq!(st.search(99).result, Some(4));
        assert_eq!(st.search(99).nodes, vec![4]);
        assert_eq!(st.height(), 0);
    }

    #[test]
    #[should_panic(expected = "ball must contain its center")]
    fn ball_without_its_center_is_rejected() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let config = SearchTreeConfig { eps_r: 1, max_levels: None };
        SearchTree::<u32>::new(&m, 4, &[1, 3, 5], config, Vec::new());
    }

    #[test]
    #[should_panic(expected = "ball must not contain duplicates")]
    fn ball_with_a_duplicate_is_rejected() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let config = SearchTreeConfig { eps_r: 1, max_levels: None };
        SearchTree::<u32>::new(&m, 4, &[4, 1, 5, 1], config, Vec::new());
    }

    #[test]
    #[should_panic(expected = "ball must not contain duplicates")]
    fn ball_with_its_center_twice_is_rejected() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let config = SearchTreeConfig { eps_r: 1, max_levels: None };
        SearchTree::<u32>::new(&m, 4, &[4, 1, 4], config, Vec::new());
    }

    #[test]
    fn a_build_that_panics_leaves_no_dirty_scratch() {
        // A path 0..=9 and a separate node 10: the relay walks of the
        // virtual edges 0 → 1..=9 count relays, then the edge 0 → 10 meets
        // an infinite distance with the layering and the counts in place.
        let mut b = doubling_metric::graph::GraphBuilder::new(11);
        for u in 0..9 {
            b.edge(u, u + 1, 1).unwrap();
        }
        let m = MetricSpace::new(&b.build_any().unwrap());
        let config = SearchTreeConfig { eps_r: 1, max_levels: None };
        let all: Vec<NodeId> = (0..=10).collect();
        let err =
            std::panic::catch_unwind(|| SearchTree::<u32>::new(&m, 0, &all, config, Vec::new()))
                .unwrap_err();
        assert!(err.downcast_ref::<String>().unwrap().contains("graph is disconnected"));
        // The same relays again, on this thread and on a fresh one.
        let path = || SearchTree::<u32>::new(&m, 0, &all[..10], config, Vec::new());
        let fresh = std::thread::scope(|s| s.spawn(path).join().unwrap());
        assert_eq!(path(), fresh);
    }

    #[test]
    fn storage_bits_accounting() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let st = make(&m, 5, 3, Eps::one_over(2), None);
        let total: u64 = st.tree().nodes().iter().map(|&v| st.storage_bits(v, 4, 8, |_| 4)).sum();
        assert!(total > 0);
        // Every member stores at least its own range + parent link.
        for &v in st.tree().nodes() {
            assert!(st.storage_bits(v, 4, 8, |_| 4) >= 2 * 8 + 4);
        }
    }

    #[test]
    fn duplicate_keys_first_match_wins() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let ball = ball_of(&m, 4, 2);
        let pairs = vec![(5u32, 100u32), (5, 100), (7, 200)];
        let st =
            SearchTree::new(&m, 4, &ball, SearchTreeConfig { eps_r: 1, max_levels: None }, pairs);
        assert_eq!(st.search(5).result, Some(100));
        assert_eq!(st.search(7).result, Some(200));
    }

    #[test]
    fn walk_depth_matches_descent() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let st = make(&m, 27, 6, Eps::one_over(2), None);
        let mut some_deep = false;
        for &x in st.tree().nodes() {
            let w = st.search(x * 10);
            // depth edges down + depth edges back = whole walk.
            assert_eq!(w.nodes.len(), 2 * w.depth + 1);
            assert!(w.depth <= (st.levels() + 1) as usize);
            some_deep |= w.depth > 0;
        }
        assert!(some_deep, "a multi-node tree must have non-root holders");
        // The root-stored key is found at depth 0.
        let singleton = SearchTree::new(
            &m,
            27,
            &[27],
            SearchTreeConfig { eps_r: 1, max_levels: None },
            vec![(1u32, 27u32)],
        );
        assert_eq!(singleton.search(1).depth, 0);
    }

    #[test]
    fn relay_accounting_covers_virtual_edges() {
        // On a path graph, a wide search tree's virtual edges pass through
        // interior nodes, which must each carry two next-hop entries per
        // relayed edge (Lemma 4.3).
        let m = MetricSpace::new(&gen::path(16));
        let st = make(&m, 0, 15, Eps::one_over(2), None);
        // Total relayed entries = 2 × Σ over virtual edges of interior
        // path length.
        let mut expected: u64 = 0;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                let interior = m.path(st.tree().node(p), v).len().saturating_sub(2);
                expected += 2 * interior as u64;
            }
        }
        let total: u64 = (0..16u32).map(|v| st.relay_bits(v, 1)).sum();
        assert_eq!(total, expected);
        // Endpoints never count as their own relays.
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            if st.tree().parent(u) == u {
                continue;
            }
        }
    }

    #[test]
    fn relay_bits_zero_when_edges_are_graph_edges() {
        // On a complete-ish small ball where every virtual edge is a
        // direct graph edge, there are no interior relays.
        let m = MetricSpace::new(&gen::grid(2, 2));
        let st = make(&m, 0, 2, Eps::one_over(2), None);
        let total: u64 = (0..4u32).map(|v| st.relay_bits(v, 8)).sum();
        // Grid 2x2 ball of radius 2 = whole graph; virtual edges may hop
        // diagonally (distance 2, one interior node). Just check the
        // accounting is consistent with the tree structure.
        let mut expected = 0u64;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                expected += 8 * 2 * (m.path(st.tree().node(p), v).len() as u64 - 2);
            }
        }
        assert_eq!(total, expected);
    }
}
