//! The nested `2^i`-net hierarchy, zooming sequences, and the netting tree
//! (Section 2 of the paper).
//!
//! An *r-net* of a metric `(V, d)` is a subset `Y ⊆ V` such that every point
//! of `V` is within distance `r` of `Y` (covering) and any two points of `Y`
//! are at distance at least `r` (packing) — Definition 2.1. The hierarchy
//! `Y_0 ⊇ Y_1 ⊇ … ⊇ Y_L` is built top-down by greedy expansion, so the nets
//! are *nested* (Eqn. (1)): `Y_L` is a singleton at scale `s_L ≥ diameter`,
//! and `Y_0 = V` because all pairwise distances are at least `s_0 =
//! min_dist`.
//!
//! The *zooming sequence* of `u` is `u(0) = u` and `u(i) =` the nearest
//! member of `Y_i` to `u(i−1)` (ties by least id). Because `u(i)` depends
//! only on `u(i−1)`, the union of all zooming sequences forms the *netting
//! tree* `T({Y_i})`, whose level-`i` nodes are the members of `Y_i` and
//! whose leaves are exactly `V`. A DFS of the netting tree (children in
//! increasing id order) enumerates the leaves; this enumeration is the
//! `⌈log n⌉`-bit label assignment `l : V → [n]` of the labeled scheme
//! (Section 4.1), and `Range(x, i)` is the contiguous interval of leaf
//! labels below the level-`i` tree node `x`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Dist, NodeId};
use crate::space::MetricSpace;

/// Label sentinel for nodes outside the active overlay set: inactive nodes
/// carry no DFS leaf label, so [`NetHierarchy::label`] returns this value
/// for them.
pub const INACTIVE_LABEL: u32 = u32::MAX;

/// A batch of overlay churn: node ids joining and leaving the active set.
///
/// The metric space itself is immutable — churn mutates the *active
/// overlay* `A ⊆ V` the hierarchy is built over. Joins must currently be
/// inactive, leaves must currently be active, and the two lists must be
/// disjoint ([`ChurnBatch::validate`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnBatch {
    /// Nodes entering the active set, sorted and deduplicated.
    pub joins: Vec<NodeId>,
    /// Nodes leaving the active set, sorted and deduplicated.
    pub leaves: Vec<NodeId>,
}

/// A structured rejection reason from [`ChurnBatch::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnBatchError {
    /// A join or leave id is `≥ n`.
    OutOfRange(NodeId),
    /// A join target is already active.
    AlreadyActive(NodeId),
    /// A leave target is already inactive.
    NotActive(NodeId),
    /// A node appears in both the join and the leave list.
    Overlap(NodeId),
    /// Applying the batch would leave the active set empty.
    EmptiesActiveSet,
}

impl std::fmt::Display for ChurnBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnBatchError::OutOfRange(v) => write!(f, "churn node {v} out of range"),
            ChurnBatchError::AlreadyActive(v) => write!(f, "join target {v} is already active"),
            ChurnBatchError::NotActive(v) => write!(f, "leave target {v} is not active"),
            ChurnBatchError::Overlap(v) => write!(f, "node {v} both joins and leaves"),
            ChurnBatchError::EmptiesActiveSet => write!(f, "batch would empty the active set"),
        }
    }
}

impl std::error::Error for ChurnBatchError {}

impl ChurnBatch {
    /// Builds a batch, sorting and deduplicating both lists.
    pub fn new(mut joins: Vec<NodeId>, mut leaves: Vec<NodeId>) -> Self {
        joins.sort_unstable();
        joins.dedup();
        leaves.sort_unstable();
        leaves.dedup();
        ChurnBatch { joins, leaves }
    }

    /// Whether the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// Number of join + leave events.
    pub fn len(&self) -> usize {
        self.joins.len() + self.leaves.len()
    }

    /// All churned node ids (joins ∪ leaves), sorted.
    pub fn changed(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.joins.iter().chain(self.leaves.iter()).copied().collect();
        all.sort_unstable();
        all
    }

    /// Applies the batch to `active` flags: leavers off, joiners on. Check
    /// it with [`Self::validate`] against the same flags first.
    pub fn apply(&self, active: &mut [bool]) {
        for &v in &self.leaves {
            active[v as usize] = false;
        }
        for &v in &self.joins {
            active[v as usize] = true;
        }
    }

    /// Checks the batch against the current active flags.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChurnBatchError`] violated, if any.
    pub fn validate(&self, active: &[bool]) -> Result<(), ChurnBatchError> {
        for &v in self.joins.iter().chain(self.leaves.iter()) {
            if (v as usize) >= active.len() {
                return Err(ChurnBatchError::OutOfRange(v));
            }
        }
        for &v in &self.joins {
            if self.leaves.binary_search(&v).is_ok() {
                return Err(ChurnBatchError::Overlap(v));
            }
            if active[v as usize] {
                return Err(ChurnBatchError::AlreadyActive(v));
            }
        }
        for &v in &self.leaves {
            if !active[v as usize] {
                return Err(ChurnBatchError::NotActive(v));
            }
        }
        let count = active.iter().filter(|&&a| a).count();
        if count + self.joins.len() <= self.leaves.len() {
            return Err(ChurnBatchError::EmptiesActiveSet);
        }
        Ok(())
    }
}

/// Membership changes of one net level, sorted by id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelDelta {
    /// Nodes that entered `Y_i`.
    pub added: Vec<NodeId>,
    /// Nodes that left `Y_i`.
    pub removed: Vec<NodeId>,
}

impl LevelDelta {
    /// Whether the level membership is unchanged.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// All changed members (added ∪ removed), sorted.
    pub fn changed(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.added.iter().chain(self.removed.iter()).copied().collect();
        all.sort_unstable();
        all
    }
}

/// Everything derivable from `(levels, parent)` by pure pointer chasing.
struct Finished {
    zoom: Vec<Vec<NodeId>>,
    label: Vec<u32>,
    node_of_label: Vec<NodeId>,
    range: Vec<Vec<(u32, u32)>>,
    level_of: Vec<u32>,
}

/// The full net hierarchy with zooming sequences, netting tree and DFS leaf
/// labels.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
/// use doubling_metric::nets::NetHierarchy;
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let h = NetHierarchy::new(&m);
/// // The zooming sequence of every node ends at the hierarchy root.
/// for u in 0..16 {
///     assert_eq!(*h.zoom_seq(u).last().unwrap(), 0);
/// }
/// // l(u) ∈ Range(x, i) exactly when x = u(i).
/// let u = 13;
/// let x = h.zoom(u, 1);
/// let (lo, hi) = h.range(1, x).unwrap();
/// assert!(lo <= h.label(u) && h.label(u) <= hi);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetHierarchy {
    /// `levels[i]` = members of `Y_i`, sorted by node id. `levels.len()`
    /// equals `MetricSpace::num_scales()`.
    levels: Vec<Vec<NodeId>>,
    /// `parent[i][k]` = netting-tree parent (in `Y_{i+1}`) of `levels[i][k]`.
    /// For the top level the parent is the node itself.
    parent: Vec<Vec<NodeId>>,
    /// `zoom[u]` = the zooming sequence `u(0), …, u(L)`.
    zoom: Vec<Vec<NodeId>>,
    /// DFS leaf label `l(u)` for every node.
    label: Vec<u32>,
    /// Inverse of `label`.
    node_of_label: Vec<NodeId>,
    /// `range[i][k]` = inclusive label interval of leaves below the level-`i`
    /// tree node `levels[i][k]`.
    range: Vec<Vec<(u32, u32)>>,
    /// Highest level at which each node appears (`level_of[u] = max {i : u ∈ Y_i}`).
    level_of: Vec<u32>,
    /// `active[u]` — whether `u` is in the overlay set the hierarchy covers.
    /// `levels[0]` is exactly the sorted list of active nodes.
    active: Vec<bool>,
}

/// One greedy net level: seeds plus, in id order, every active node at
/// distance `>= s_i` from all current members.
fn greedy_level(m: &MetricSpace, seeds: &[NodeId], active: &[bool], s_i: Dist) -> Vec<NodeId> {
    let n = m.n();
    let mut members = seeds.to_vec();
    // Track the minimum distance from each node to the current set,
    // so the pass below is O(n·|added|) rather than O(n·|Y_i|²).
    let mut min_d: Vec<Dist> = vec![Dist::MAX; n];
    for &y in seeds {
        for v in 0..n as NodeId {
            let d = m.dist(v, y);
            if d < min_d[v as usize] {
                min_d[v as usize] = d;
            }
        }
    }
    for v in 0..n as NodeId {
        if active[v as usize] && min_d[v as usize] >= s_i {
            members.push(v);
            for x in 0..n as NodeId {
                let d = m.dist(x, v);
                if d < min_d[x as usize] {
                    min_d[x as usize] = d;
                }
            }
        }
    }
    members.sort_unstable();
    // The hierarchy keeps the level: hold it at its length.
    members.shrink_to_fit();
    members
}

/// Sorted two-pointer diff `old → new`.
fn diff_sorted(old: &[NodeId], new: &[NodeId]) -> LevelDelta {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut a, mut b) = (0usize, 0usize);
    while a < old.len() || b < new.len() {
        match (old.get(a), new.get(b)) {
            (Some(&o), Some(&x)) if o == x => {
                a += 1;
                b += 1;
            }
            (Some(&o), Some(&x)) if o < x => {
                removed.push(o);
                a += 1;
            }
            (Some(_), Some(&x)) => {
                added.push(x);
                b += 1;
            }
            (Some(&o), None) => {
                removed.push(o);
                a += 1;
            }
            (None, Some(&x)) => {
                added.push(x);
                b += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    LevelDelta { added, removed }
}

/// Recomputes everything downstream of `(levels, parent)`: zooming
/// sequences, the netting-tree DFS leaf labels and ranges, and `level_of`.
/// Pure pointer chasing — no metric evaluations — so full and incremental
/// builds that agree on `(levels, parent)` agree byte-for-byte here too.
fn finish(n: usize, levels: &[Vec<NodeId>], parent: &[Vec<NodeId>]) -> Finished {
    let num = levels.len();
    let top = num - 1;
    let index_of = |level: &[NodeId], y: NodeId| -> usize {
        level.binary_search(&y).expect("member of net level")
    };

    // Zooming sequences follow parent pointers from the leaf level; inactive
    // nodes (not in Y_0) have empty sequences.
    let mut zoom: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &u in &levels[0] {
        let mut seq = Vec::with_capacity(num);
        seq.push(u);
        let mut cur = u;
        for i in 0..top {
            let k = index_of(&levels[i], cur);
            cur = parent[i][k];
            seq.push(cur);
        }
        zoom[u as usize] = seq;
    }

    // DFS leaf enumeration. Children of tree node (i+1, y): members
    // x ∈ Y_i with parent x→y, visited in increasing id order. The node
    // y itself is among its own children (distance 0), and is visited
    // first only if it has the least id — order is by id, per the
    // deterministic rule.
    let mut children: Vec<Vec<Vec<u32>>> = Vec::with_capacity(num);
    // children[i][k] = indices (into levels[i]) of level-i nodes whose
    // parent is levels[i+1][k].
    for i in 0..top {
        let mut c: Vec<Vec<u32>> = vec![Vec::new(); levels[i + 1].len()];
        for (k, &p) in parent[i].iter().enumerate() {
            let pk = index_of(&levels[i + 1], p);
            c[pk].push(k as u32);
        }
        children.push(c);
    }

    let active_count = levels[0].len();
    let mut label = vec![INACTIVE_LABEL; n];
    let mut node_of_label = vec![0 as NodeId; active_count];
    let mut range: Vec<Vec<(u32, u32)>> =
        levels.iter().map(|l| vec![(u32::MAX, 0); l.len()]).collect();

    // Iterative DFS from the root (top, index 0). Post-order range
    // computation: leaf gets [l, l]; internal nodes get min/max of
    // children.
    let mut next_label = 0u32;
    enum Frame {
        Enter(usize, u32),
        Exit(usize, u32),
    }
    let mut stack = vec![Frame::Enter(top, 0)];
    while let Some(f) = stack.pop() {
        match f {
            Frame::Enter(i, k) => {
                if i == 0 {
                    let u = levels[0][k as usize];
                    label[u as usize] = next_label;
                    node_of_label[next_label as usize] = u;
                    range[0][k as usize] = (next_label, next_label);
                    next_label += 1;
                } else {
                    stack.push(Frame::Exit(i, k));
                    // Push children in reverse so they pop in id order.
                    for &ck in children[i - 1][k as usize].iter().rev() {
                        stack.push(Frame::Enter(i - 1, ck));
                    }
                }
            }
            Frame::Exit(i, k) => {
                let mut lo = u32::MAX;
                let mut hi = 0u32;
                for &ck in &children[i - 1][k as usize] {
                    let (clo, chi) = range[i - 1][ck as usize];
                    lo = lo.min(clo);
                    hi = hi.max(chi);
                }
                range[i][k as usize] = (lo, hi);
            }
        }
    }
    debug_assert_eq!(next_label as usize, active_count, "every active node must be a leaf");

    let mut level_of = vec![0u32; n];
    for (i, l) in levels.iter().enumerate() {
        for &y in l {
            level_of[y as usize] = level_of[y as usize].max(i as u32);
        }
    }

    Finished { zoom, label, node_of_label, range, level_of }
}

/// Dirty-set repair of one level: re-decides membership only for candidates
/// reachable from the change set, in increasing id order (the greedy order),
/// so the fixpoint equals the from-scratch greedy net over the new seeds and
/// active set. Returns `(members, delta)`.
fn repair_level(
    m: &MetricSpace,
    s_i: Dist,
    old: &[NodeId],
    seeds: &[NodeId],
    seed_delta: &LevelDelta,
    batch: &ChurnBatch,
    active: &[bool],
) -> (Vec<NodeId>, LevelDelta) {
    let n = m.n();
    // Blocking radius: v is blocked by members strictly closer than s_i.
    let rad = s_i - 1;

    let mut mem = vec![false; n];
    for &y in old {
        mem[y as usize] = true;
    }
    let mut seed_flag = vec![false; n];
    for &y in seeds {
        seed_flag[y as usize] = true;
    }

    // Dirty candidates: every node whose membership decision could have
    // changed. Changed seeds affect their whole blocking ball (seeds block
    // candidates on both sides of them in id order). A leave affects its
    // ball only at levels where it was a member; a join only needs its own
    // decision here — if it becomes a member, the flip propagation below
    // re-decides the larger-id neighbours it can block.
    let mut in_heap = vec![false; n];
    let mut heap: BinaryHeap<Reverse<NodeId>> = BinaryHeap::new();
    {
        let push = |v: NodeId, in_heap: &mut Vec<bool>, heap: &mut BinaryHeap<Reverse<NodeId>>| {
            let vi = v as usize;
            if active[vi] && !seed_flag[vi] && !in_heap[vi] {
                in_heap[vi] = true;
                heap.push(Reverse(v));
            }
        };
        for &y in seed_delta.added.iter().chain(seed_delta.removed.iter()) {
            push(y, &mut in_heap, &mut heap);
            for &w in m.ball(y, rad) {
                push(w, &mut in_heap, &mut heap);
            }
        }
        for &v in &batch.joins {
            push(v, &mut in_heap, &mut heap);
        }
        for &v in &batch.leaves {
            if mem[v as usize] {
                for &w in m.ball(v, rad) {
                    push(w, &mut in_heap, &mut heap);
                }
            }
        }
    }

    // Seed and activity overrides, applied before the sweep: new seeds are
    // members by fiat, departed nodes are not members.
    for &y in &seed_delta.added {
        mem[y as usize] = true;
    }
    for &v in &batch.leaves {
        mem[v as usize] = false;
    }

    // Sweep in increasing id order. A non-seed candidate v is a member iff
    // no other member y with (seed(y) or y < v) lies strictly within s_i —
    // exactly the greedy rule. Membership flips propagate only to larger
    // ids, so one pass reaches the greedy fixpoint.
    while let Some(Reverse(v)) = heap.pop() {
        let vi = v as usize;
        in_heap[vi] = false;
        let ball = m.ball(v, rad);
        let mut blocked = false;
        for &y in ball {
            let yi = y as usize;
            if y != v && mem[yi] && (seed_flag[yi] || y < v) {
                blocked = true;
                break;
            }
        }
        let want = !blocked;
        if want != mem[vi] {
            mem[vi] = want;
            for &w in ball {
                let wi = w as usize;
                if w > v && active[wi] && !seed_flag[wi] && !in_heap[wi] {
                    in_heap[wi] = true;
                    heap.push(Reverse(w));
                }
            }
        }
    }

    let mut members: Vec<NodeId> = (0..n as NodeId).filter(|&v| mem[v as usize]).collect();
    // As in `greedy_level`: a repaired level holds what a fresh one does.
    members.shrink_to_fit();
    let delta = diff_sorted(old, &members);
    (members, delta)
}

impl NetHierarchy {
    /// Builds the nested hierarchy for all scales of `m` by top-down greedy
    /// expansion with `(distance, id)` tie-breaking. All nodes are active.
    pub fn new(m: &MetricSpace) -> Self {
        Self::build(m, vec![true; m.n()])
    }

    /// Builds the hierarchy over the *active overlay* `A ⊆ V`: `Y_0 = A`,
    /// only active nodes appear at any level or carry labels, and the top
    /// singleton is the least active id. With all nodes active this equals
    /// [`Self::new`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `active_nodes` is empty, contains duplicates, or contains
    /// an id `≥ n`.
    pub fn new_over(m: &MetricSpace, active_nodes: &[NodeId]) -> Self {
        let n = m.n();
        let mut active = vec![false; n];
        for &v in active_nodes {
            assert!((v as usize) < n, "active node {v} out of range");
            assert!(!active[v as usize], "duplicate active node {v}");
            active[v as usize] = true;
        }
        assert!(!active_nodes.is_empty(), "active set must be nonempty");
        Self::build(m, active)
    }

    fn build(m: &MetricSpace, active: Vec<bool>) -> Self {
        let n = m.n();
        let num = m.num_scales();
        let top = num - 1;
        let count = active.iter().filter(|&&a| a).count();
        assert!(count >= 1, "active set must be nonempty");

        // Top net: a singleton — the least active node id (the paper allows
        // any).
        let root = active.iter().position(|&a| a).unwrap() as NodeId;
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); num];
        levels[top] = vec![root];

        // Greedy expansion downwards: Y_i starts from Y_{i+1} and adds, in id
        // order, every active node at distance >= s_i from all current
        // members.
        for i in (0..top).rev() {
            levels[i] = greedy_level(m, &levels[i + 1], &active, m.scale(i));
        }
        if top > 0 {
            debug_assert_eq!(levels[0].len(), count, "Y_0 must equal the active set");
        }

        // Netting-tree parents: parent of y ∈ Y_i is the nearest member of
        // Y_{i+1} (ties by least id). If y ∈ Y_{i+1}, that is y itself
        // (distance 0 beats everything).
        let mut parent: Vec<Vec<NodeId>> = Vec::with_capacity(num);
        for i in 0..num {
            if i == top {
                parent.push(levels[i].clone());
                break;
            }
            let ps: Vec<NodeId> = levels[i]
                .iter()
                .map(|&y| m.nearest_in(y, &levels[i + 1]).expect("upper net nonempty"))
                .collect();
            parent.push(ps);
        }

        let fin = finish(n, &levels, &parent);
        NetHierarchy {
            levels,
            parent,
            zoom: fin.zoom,
            label: fin.label,
            node_of_label: fin.node_of_label,
            range: fin.range,
            level_of: fin.level_of,
            active,
        }
    }

    /// Applies an overlay churn batch incrementally: re-seats only net
    /// points whose greedy decision is affected by the change set, repairs
    /// netting-tree parents by delta, and recomputes the derived structures
    /// (zoom, labels, ranges) wholesale. The result is **identical** to
    /// `NetHierarchy::new_over(m, new_active)` — the dirty-set sweep
    /// re-decides candidates in increasing id order, which is exactly the
    /// greedy insertion order, so it converges to the same fixpoint.
    /// Returns the per-level membership deltas (index = level).
    ///
    /// # Panics
    ///
    /// Panics if the batch fails [`ChurnBatch::validate`] against the
    /// current active set.
    pub fn apply_churn(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> Vec<LevelDelta> {
        batch.validate(&self.active).expect("invalid churn batch");
        let n = m.n();
        let num = self.levels.len();
        let top = num - 1;
        if batch.is_empty() {
            return vec![LevelDelta::default(); num];
        }

        let mut active = self.active.clone();
        batch.apply(&mut active);

        let old_levels = std::mem::take(&mut self.levels);
        let old_parent = std::mem::take(&mut self.parent);

        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); num];
        let mut deltas: Vec<LevelDelta> = vec![LevelDelta::default(); num];

        // Top singleton: the least active id.
        let root = active.iter().position(|&a| a).expect("validated nonempty") as NodeId;
        levels[top] = vec![root];
        let old_root = old_levels[top][0];
        if old_root != root {
            deltas[top] = LevelDelta { added: vec![root], removed: vec![old_root] };
        }

        // Top-down level repair: level i's seeds are the already-repaired
        // Y_{i+1}, its seed delta the one just computed.
        for i in (0..top).rev() {
            (levels[i], deltas[i]) = repair_level(
                m,
                m.scale(i),
                &old_levels[i],
                &levels[i + 1],
                &deltas[i + 1],
                batch,
                &active,
            );
        }
        if top > 0 {
            debug_assert_eq!(
                levels[0].len(),
                active.iter().filter(|&&a| a).count(),
                "Y_0 must equal the active set"
            );
        }

        // Parent repair by delta: a surviving member keeps its old parent
        // unless that parent left Y_{i+1} (then recompute in full) or a new
        // upper member beats it under (distance, id) order — the old parent
        // is the minimum over surviving old members, so comparing it against
        // the additions alone is exact.
        let mut parent: Vec<Vec<NodeId>> = Vec::with_capacity(num);
        for i in 0..num {
            if i == top {
                parent.push(levels[i].clone());
                break;
            }
            let up = &levels[i + 1];
            let up_added = &deltas[i + 1].added;
            let up_removed = &deltas[i + 1].removed;
            let ps: Vec<NodeId> = levels[i]
                .iter()
                .map(|&y| {
                    let fresh = deltas[i].added.binary_search(&y).is_ok();
                    if !fresh {
                        let k_old = old_levels[i].binary_search(&y).expect("survivor was a member");
                        let p_old = old_parent[i][k_old];
                        if up_removed.binary_search(&p_old).is_err() {
                            let mut best = (m.dist(y, p_old), p_old);
                            for &a in up_added {
                                let cand = (m.dist(y, a), a);
                                if cand < best {
                                    best = cand;
                                }
                            }
                            return best.1;
                        }
                    }
                    m.nearest_in(y, up).expect("upper net nonempty")
                })
                .collect();
            parent.push(ps);
        }

        let fin = finish(n, &levels, &parent);
        self.levels = levels;
        self.parent = parent;
        self.zoom = fin.zoom;
        self.label = fin.label;
        self.node_of_label = fin.node_of_label;
        self.range = fin.range;
        self.level_of = fin.level_of;
        self.active = active;

        deltas
    }

    /// Number of levels (`= MetricSpace::num_scales()`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Whether `u` is in the active overlay set.
    #[inline]
    pub fn is_active(&self, u: NodeId) -> bool {
        self.active[u as usize]
    }

    /// Number of active nodes (`= |Y_0|`).
    #[inline]
    pub fn num_active(&self) -> usize {
        self.levels[0].len()
    }

    /// The sorted active node list (`= Y_0`).
    #[inline]
    pub fn active_nodes(&self) -> &[NodeId] {
        &self.levels[0]
    }

    /// Members of `Y_i`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn level(&self, i: usize) -> &[NodeId] {
        &self.levels[i]
    }

    /// Whether `u ∈ Y_i`.
    pub fn in_level(&self, i: usize, u: NodeId) -> bool {
        i < self.levels.len() && self.levels[i].binary_search(&u).is_ok()
    }

    /// The highest level at which `u` appears.
    #[inline]
    pub fn max_level_of(&self, u: NodeId) -> u32 {
        self.level_of[u as usize]
    }

    /// The zooming sequence member `u(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    #[inline]
    pub fn zoom(&self, u: NodeId, i: usize) -> NodeId {
        self.zoom[u as usize][i]
    }

    /// The full zooming sequence `u(0), …, u(L)`; empty if `u` is not in
    /// the active overlay set.
    #[inline]
    pub fn zoom_seq(&self, u: NodeId) -> &[NodeId] {
        &self.zoom[u as usize]
    }

    /// The netting-tree parent of `y ∈ Y_i` (a member of `Y_{i+1}`); for the
    /// top level, `y` itself.
    ///
    /// # Panics
    ///
    /// Panics if `y ∉ Y_i`.
    pub fn net_parent(&self, i: usize, y: NodeId) -> NodeId {
        let k = self.levels[i].binary_search(&y).expect("y must be in Y_i");
        self.parent[i][k]
    }

    /// The DFS leaf label `l(u) ∈ [|Y_0|]`, or [`INACTIVE_LABEL`] if `u` is
    /// not in the active overlay set.
    #[inline]
    pub fn label(&self, u: NodeId) -> u32 {
        self.label[u as usize]
    }

    /// The node with label `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ |Y_0|` (the number of active nodes).
    #[inline]
    pub fn node_of_label(&self, l: u32) -> NodeId {
        self.node_of_label[l as usize]
    }

    /// `Range(x, i)`: the inclusive interval of leaf labels below the
    /// level-`i` netting-tree node `x`, or `None` if `x ∉ Y_i`.
    pub fn range(&self, i: usize, x: NodeId) -> Option<(u32, u32)> {
        let k = self.levels[i].binary_search(&x).ok()?;
        Some(self.range[i][k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::space::MetricSpace;

    fn hierarchy(g: &crate::graph::Graph) -> (MetricSpace, NetHierarchy) {
        let m = MetricSpace::new(g);
        let h = NetHierarchy::new(&m);
        (m, h)
    }

    #[test]
    fn net_packing_and_covering_properties() {
        let g = gen::random_geometric(70, 220, 13);
        let (m, h) = hierarchy(&g);
        for i in 0..h.num_levels() {
            let s = m.scale(i);
            let y = h.level(i);
            // Packing: pairwise distances at least s_i.
            for (a, &p) in y.iter().enumerate() {
                for &q in &y[a + 1..] {
                    assert!(m.dist(p, q) >= s, "packing violated at level {i}");
                }
            }
            // Covering: every node within s_i of the net.
            for u in 0..m.n() as NodeId {
                let d = y.iter().map(|&p| m.dist(u, p)).min().unwrap();
                assert!(d <= s, "covering violated at level {i} for node {u}");
            }
        }
    }

    #[test]
    fn nets_are_nested() {
        let g = gen::grid(6, 6);
        let (_, h) = hierarchy(&g);
        for i in 0..h.num_levels() - 1 {
            for &y in h.level(i + 1) {
                assert!(h.in_level(i, y), "Y_{} ⊄ Y_{}", i + 1, i);
            }
        }
    }

    #[test]
    fn bottom_is_all_top_is_single() {
        let g = gen::grid(5, 4);
        let (m, h) = hierarchy(&g);
        assert_eq!(h.level(0).len(), m.n());
        assert_eq!(h.level(h.num_levels() - 1), &[0]);
    }

    #[test]
    fn zooming_sequence_steps_are_bounded() {
        // Eqn (2): d(u(k-1), u(k)) <= s_k.
        let g = gen::random_geometric(50, 250, 21);
        let (m, h) = hierarchy(&g);
        for u in 0..m.n() as NodeId {
            let seq = h.zoom_seq(u);
            assert_eq!(seq[0], u);
            for k in 1..seq.len() {
                assert!(
                    m.dist(seq[k - 1], seq[k]) <= m.scale(k),
                    "zoom step too long at node {u} level {k}"
                );
                assert!(h.in_level(k, seq[k]));
            }
            assert_eq!(*seq.last().unwrap(), 0, "all sequences end at the root");
        }
    }

    #[test]
    fn zoom_follows_net_parents() {
        let g = gen::grid(5, 5);
        let (_, h) = hierarchy(&g);
        for u in 0..25 as NodeId {
            let seq = h.zoom_seq(u);
            for i in 0..seq.len() - 1 {
                assert_eq!(h.net_parent(i, seq[i]), seq[i + 1]);
            }
        }
    }

    #[test]
    fn labels_are_a_bijection() {
        let g = gen::random_geometric(40, 260, 5);
        let (m, h) = hierarchy(&g);
        let mut seen = vec![false; m.n()];
        for u in 0..m.n() as NodeId {
            let l = h.label(u);
            assert!(!seen[l as usize], "duplicate label");
            seen[l as usize] = true;
            assert_eq!(h.node_of_label(l), u);
        }
    }

    #[test]
    fn range_membership_iff_on_zoom_sequence() {
        // l(u) ∈ Range(x, i) iff x = u(i)  (Section 4.1).
        let g = gen::grid(6, 4);
        let (m, h) = hierarchy(&g);
        for u in 0..m.n() as NodeId {
            let l = h.label(u);
            for i in 0..h.num_levels() {
                for &x in h.level(i) {
                    let (lo, hi) = h.range(i, x).unwrap();
                    let inside = lo <= l && l <= hi;
                    assert_eq!(inside, h.zoom(u, i) == x, "range test failed u={u} i={i} x={x}");
                }
            }
        }
    }

    #[test]
    fn ranges_partition_labels_per_level() {
        let g = gen::spider(5, 4);
        let (m, h) = hierarchy(&g);
        for i in 0..h.num_levels() {
            let mut covered = vec![false; m.n()];
            for &x in h.level(i) {
                let (lo, hi) = h.range(i, x).unwrap();
                for l in lo..=hi {
                    assert!(!covered[l as usize], "ranges overlap at level {i}");
                    covered[l as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "ranges must cover all labels");
        }
    }

    #[test]
    fn net_size_bound_lemma_2_2() {
        // Lemma 2.2: |B_u(r') ∩ Y| ≤ (4r'/r)^α for an r-net Y. We check the
        // qualitative consequence used throughout: rings X_i(u) =
        // B_u(s_i/ε) ∩ Y_i have size bounded by a constant independent of n
        // for grids (α ≈ 2, ε = 1/2 → bound (8·2)^2).
        let g = gen::grid(8, 8);
        let (m, h) = hierarchy(&g);
        for i in 0..h.num_levels() {
            let r = 2 * m.scale(i); // 2^i/ε with ε = 1/2
            for u in 0..m.n() as NodeId {
                let count = h.level(i).iter().filter(|&&y| m.dist(u, y) <= r).count();
                assert!(count <= 256, "ring unexpectedly large: {count}");
            }
        }
    }

    #[test]
    fn exp_path_hierarchy_depth() {
        let g = gen::exp_weight_path(16);
        let (m, h) = hierarchy(&g);
        assert_eq!(h.num_levels(), m.num_scales());
        assert!(h.num_levels() >= 15);
    }

    #[test]
    fn single_node() {
        let g = crate::graph::GraphBuilder::new(1).build().unwrap();
        let (_, h) = hierarchy(&g);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.label(0), 0);
        assert_eq!(h.zoom_seq(0), &[0]);
    }

    #[test]
    fn new_over_all_nodes_equals_new() {
        for g in [gen::grid(6, 6), gen::random_geometric(50, 220, 9), gen::exp_weight_path(12)] {
            let m = MetricSpace::new(&g);
            let all: Vec<NodeId> = (0..m.n() as NodeId).collect();
            assert_eq!(NetHierarchy::new(&m), NetHierarchy::new_over(&m, &all));
        }
    }

    #[test]
    fn new_over_subset_has_overlay_invariants() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let active: Vec<NodeId> = (0..36).filter(|v| v % 3 != 0).collect();
        let h = NetHierarchy::new_over(&m, &active);
        assert_eq!(h.active_nodes(), &active[..]);
        assert_eq!(h.num_active(), active.len());
        for u in 0..36 as NodeId {
            if active.binary_search(&u).is_ok() {
                assert!(h.is_active(u));
                assert!(h.label(u) < active.len() as u32);
                assert_eq!(*h.zoom_seq(u).last().unwrap(), active[0]);
            } else {
                assert!(!h.is_active(u));
                assert_eq!(h.label(u), INACTIVE_LABEL);
                assert!(h.zoom_seq(u).is_empty());
            }
        }
        // Packing and covering hold within the active set.
        for i in 0..h.num_levels() {
            let s = m.scale(i);
            let y = h.level(i);
            for (a, &p) in y.iter().enumerate() {
                for &q in &y[a + 1..] {
                    assert!(m.dist(p, q) >= s, "packing violated at level {i}");
                }
            }
            for &u in &active {
                let d = y.iter().map(|&p| m.dist(u, p)).min().unwrap();
                assert!(d <= s, "covering violated at level {i} for node {u}");
            }
        }
    }

    /// Tiny deterministic LCG for churn sequences.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_batch(active: &[bool], seed: &mut u64, events: usize) -> ChurnBatch {
        let n = active.len();
        let mut joins = Vec::new();
        let mut leaves = Vec::new();
        let mut act = active.to_vec();
        let mut touched = vec![false; n];
        for _ in 0..events {
            let v = (lcg(seed) as usize % n) as NodeId;
            if touched[v as usize] {
                continue;
            }
            if act[v as usize] {
                if act.iter().filter(|&&a| a).count() > 1 {
                    leaves.push(v);
                    act[v as usize] = false;
                    touched[v as usize] = true;
                }
            } else {
                joins.push(v);
                act[v as usize] = true;
                touched[v as usize] = true;
            }
        }
        ChurnBatch::new(joins, leaves)
    }

    #[test]
    fn apply_churn_matches_from_scratch_rebuild() {
        for g in [gen::grid(6, 6), gen::random_geometric(48, 230, 17)] {
            let m = MetricSpace::new(&g);
            let n = m.n();
            let mut h = NetHierarchy::new(&m);
            let mut active = vec![true; n];
            let mut seed = 0xfeed_beefu64;
            for round in 0..6 {
                let batch = random_batch(&active, &mut seed, 5);
                if batch.is_empty() {
                    continue;
                }
                let old: Vec<Vec<NodeId>> =
                    (0..h.num_levels()).map(|i| h.level(i).to_vec()).collect();
                let deltas = h.apply_churn(&m, &batch);
                assert_eq!(deltas.len(), h.num_levels());
                for (i, d) in deltas.iter().enumerate() {
                    assert_eq!(*d, diff_sorted(&old[i], h.level(i)), "level {i} delta");
                }
                batch.apply(&mut active);
                let ids: Vec<NodeId> = (0..n as NodeId).filter(|&v| active[v as usize]).collect();
                let fresh = NetHierarchy::new_over(&m, &ids);
                assert_eq!(h, fresh, "repair diverged from rebuild at round {round}");
            }
        }
    }

    #[test]
    fn apply_churn_adversarial_root_leave() {
        // Node 0 is the top singleton; removing it cascades a new seed
        // through every level. Repair must still match the rebuild.
        let m = MetricSpace::new(&gen::grid(6, 6));
        let mut h = NetHierarchy::new(&m);
        let batch = ChurnBatch::new(vec![], vec![0]);
        let deltas = h.apply_churn(&m, &batch);
        assert!(!deltas[h.num_levels() - 1].is_empty(), "root must change");
        let ids: Vec<NodeId> = (1..36).collect();
        assert_eq!(h, NetHierarchy::new_over(&m, &ids));
        // And the node can come back.
        let deltas = h.apply_churn(&m, &ChurnBatch::new(vec![0], vec![]));
        assert!(deltas.iter().any(|d| !d.is_empty()));
        assert_eq!(h, NetHierarchy::new(&m));
    }

    #[test]
    fn churn_batch_validation_errors() {
        let active = vec![true, true, false, true];
        let ok = ChurnBatch::new(vec![2], vec![0]);
        assert!(ok.validate(&active).is_ok());
        let mut after = active.clone();
        ok.apply(&mut after);
        assert_eq!(after, [false, true, true, true]);
        assert_eq!(
            ChurnBatch::new(vec![9], vec![]).validate(&active),
            Err(ChurnBatchError::OutOfRange(9))
        );
        assert_eq!(
            ChurnBatch::new(vec![0], vec![]).validate(&active),
            Err(ChurnBatchError::AlreadyActive(0))
        );
        assert_eq!(
            ChurnBatch::new(vec![], vec![2]).validate(&active),
            Err(ChurnBatchError::NotActive(2))
        );
        assert_eq!(
            ChurnBatch::new(vec![2], vec![2]).validate(&active),
            Err(ChurnBatchError::Overlap(2))
        );
        assert_eq!(
            ChurnBatch::new(vec![], vec![0, 1, 3]).validate(&active),
            Err(ChurnBatchError::EmptiesActiveSet)
        );
    }
}
