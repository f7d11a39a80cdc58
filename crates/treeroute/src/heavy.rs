//! The heavy-path decomposition and forwarding decision of the tree
//! router, shared with the forwarding plane's packed records.
//!
//! Every node has a *heavy* child (largest subtree, ties by least graph
//! id); edges to other children are *light*. DFS numbers visit the heavy
//! child first, then light children in graph-id order. A label is a DFS
//! number plus one `(dfs(x), exit)` pair per light edge on the root path,
//! where `exit` is the physical port of the light edge out of `x` (see
//! [`crate::port`]). Forwarding at
//! `u` toward a label `L` ([`decide`]):
//!
//! 1. `dfs(u) == L.dfs` → deliver;
//! 2. `L.dfs ∉ interval(u)` → forward to the parent;
//! 3. `L.dfs ∈ interval(heavy(u))` → forward to the heavy child;
//! 4. otherwise the edge taken is light, so `L.lights` holds a pair
//!    `(dfs(u), exit)` → take `exit`.

use doubling_metric::graph::NodeId;

use crate::tree::Tree;

/// A read-only view of a heavy-path router's per-node records (by tree
/// local index) — exactly what [`decide`] reads. The router implements it
/// over its vectors; a forwarding plane implements it over packed bits.
pub trait RouterRecords {
    /// Graph node at local index `i`.
    fn node(&self, i: u32) -> NodeId;

    /// DFS number of local index `i`.
    fn dfs(&self, i: u32) -> u32;

    /// DFS interval `[lo, hi]` of the subtree at local index `i`.
    fn interval(&self, i: u32) -> (u32, u32);

    /// Graph node of the tree parent of local index `i` (the root's is
    /// itself).
    fn parent_node(&self, i: u32) -> NodeId;

    /// Heavy child (local index) of local index `i`, `None` for a leaf.
    fn heavy(&self, i: u32) -> Option<u32>;
}

/// What [`decide`] tells the node holding the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The packet is at its destination.
    Arrived,
    /// Forward to this graph node (the parent or the heavy child).
    To(NodeId),
    /// Leave through the light edge the label names with this exit.
    Light(u32),
}

/// The heavy-path forwarding decision at local index `from` toward the
/// label `(target_dfs, lights)`. Reads `from`'s record, its heavy child's
/// interval, and the label only. `None` if the light trail names no exit
/// at `from` — a malformed label or table.
pub fn decide<R: RouterRecords + ?Sized>(
    r: &R,
    from: u32,
    target_dfs: u32,
    lights: &[(u32, u32)],
) -> Option<Step> {
    let my = r.dfs(from);
    if my == target_dfs {
        return Some(Step::Arrived);
    }
    let (lo, hi) = r.interval(from);
    if target_dfs < lo || target_dfs > hi {
        return Some(Step::To(r.parent_node(from)));
    }
    if let Some(h) = r.heavy(from) {
        let (hlo, hhi) = r.interval(h);
        if hlo <= target_dfs && target_dfs <= hhi {
            return Some(Step::To(r.node(h)));
        }
    }
    lights.iter().find(|&&(x_dfs, _)| x_dfs == my).map(|&(_, exit)| Step::Light(exit))
}

/// The heavy-path decomposition of a [`Tree`]: heavy children, DFS
/// numbers and subtree intervals by local index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HeavyPaths {
    pub(crate) tree: Tree,
    dfs: Vec<u32>,
    interval: Vec<(u32, u32)>,
    /// Heavy child per local index (`u32::MAX` for leaves).
    heavy: Vec<u32>,
}

const NO_CHILD: u32 = u32::MAX;

impl HeavyPaths {
    /// Picks heavy children and numbers the tree (heavy child first, then
    /// light children in graph-id order).
    pub(crate) fn new(tree: Tree) -> Self {
        let n = tree.len() as u32;
        // Largest subtree, least graph id on ties.
        let heavy: Vec<u32> = (0..n)
            .map(|u| {
                let key = |&c: &u32| (tree.subtree_size(c), std::cmp::Reverse(tree.node(c)));
                tree.children(u).iter().copied().max_by_key(key).unwrap_or(NO_CHILD)
            })
            .collect();
        // Pre-order numbering, heavy child first: push light children
        // (reverse id order), then the heavy child so it pops first. Each
        // subtree then owns the contiguous range of its size.
        let mut dfs = vec![0u32; n as usize];
        let (mut counter, mut stack) = (0u32, vec![0u32]);
        while let Some(u) = stack.pop() {
            dfs[u as usize] = counter;
            counter += 1;
            let h = heavy[u as usize];
            stack.extend(tree.children(u).iter().rev().filter(|&&c| c != h));
            if h != NO_CHILD {
                stack.push(h);
            }
        }
        let interval =
            (0..n).map(|u| (dfs[u as usize], dfs[u as usize] + tree.subtree_size(u) - 1)).collect();
        HeavyPaths { tree, dfs, interval, heavy }
    }

    /// Every local index's label as `(dfs, light trail)`, with
    /// `exit(child)` naming the light edge into local index `child`.
    pub(crate) fn labels(&self, exit: impl Fn(u32) -> u32) -> Vec<(u32, Vec<(u32, u32)>)> {
        let mut labels = vec![(0, Vec::new()); self.tree.len()];
        let mut stack: Vec<(u32, Vec<(u32, u32)>)> = vec![(0, Vec::new())];
        while let Some((u, trail)) = stack.pop() {
            for &c in self.tree.children(u) {
                // Each trail is allocated at its exact length: labels keep it.
                let t = if c == self.heavy[u as usize] {
                    trail.clone()
                } else {
                    let mut t = Vec::with_capacity(trail.len() + 1);
                    t.extend_from_slice(&trail);
                    t.push((self.dfs[u as usize], exit(c)));
                    t
                };
                stack.push((c, t));
            }
            labels[u as usize] = (self.dfs[u as usize], trail);
        }
        labels
    }
}

impl RouterRecords for HeavyPaths {
    #[inline]
    fn node(&self, i: u32) -> NodeId {
        self.tree.node(i)
    }

    #[inline]
    fn dfs(&self, i: u32) -> u32 {
        self.dfs[i as usize]
    }

    #[inline]
    fn interval(&self, i: u32) -> (u32, u32) {
        self.interval[i as usize]
    }

    #[inline]
    fn parent_node(&self, i: u32) -> NodeId {
        self.tree.node(self.tree.parent(i))
    }

    #[inline]
    fn heavy(&self, i: u32) -> Option<u32> {
        let h = self.heavy[i as usize];
        (h != NO_CHILD).then_some(h)
    }
}
