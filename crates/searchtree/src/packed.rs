//! Bit-packed search trees for forwarding planes.
//!
//! A [`crate::SearchTree`] is the lookup structure both name-independent
//! schemes and the scale-free labeled scheme route through. A
//! [`PackedSearchTree`] is the same structure compiled into a plane's
//! [`BitArena`]: the tree skeleton, subtree key ranges, and stored
//! `(key, payload)` pairs are written as a self-describing field stream.
//! This module only compiles, decodes and reads records: a
//! [`PackedTreeView`] implements [`TreeScan`] over the packed bits, and
//! [`PackedSearchTree::search`] collects the crate's one Algorithm 2
//! descent, [`crate::descend`], over it — the same procedure
//! [`crate::SearchTree::search`] runs over the in-memory tree. A scan
//! decodes only the payload it returns and skips the others.
//!
//! Payloads differ per use (a `u32` label for the name-independent
//! directories, a [`treeroute::PortLabel`] for the scale-free packing
//! cells), so serialization is delegated to a [`PayloadCodec`].
//!
//! Layout per tree, with widths `{key, cnt, node}` chosen by the caller:
//!
//! ```text
//! len:cnt
//! repeat len times (local index order):
//!   node_id:node  npairs:cnt  { key:key  payload:codec }*
//!   nchildren:cnt { child_local:cnt  has_range:1  [lo:key hi:key] }*
//! ```
//!
//! [`PackedSearchTree::encode`] only writes the fields. Records are
//! variable-size, so [`PackedSearchTree::decode`] walks them once from the
//! arena alone and keeps per-local bit offsets for O(1) addressing: one
//! absolute base per tree and a 32-bit offset per record relative to it.
//! It reads only the counts, light-trail lengths and `has_range` flags,
//! and skips node ids, keys, payloads and child indices.

use doubling_metric::graph::NodeId;
use netsim::plane::{BitArena, BitCursor};
use treeroute::PortLabel;

use crate::{NodeScan, SearchTree, SearchWalk, TreeScan};

/// Serialization of one stored payload inside a [`PackedSearchTree`].
pub trait PayloadCodec {
    /// The payload type (the `D` of the source [`SearchTree`]).
    type Item: Clone;

    /// Appends `item` to the arena.
    fn encode(&self, arena: &mut BitArena, item: &Self::Item);

    /// Reads one payload at the cursor.
    fn decode(&self, cur: &mut BitCursor<'_>) -> Self::Item;

    /// Advances the cursor past one payload without building it.
    fn skip(&self, cur: &mut BitCursor<'_>);
}

/// Codec for plain `u32` payloads (labels of an underlying scheme) at a
/// fixed width.
#[derive(Debug, Clone, Copy)]
pub struct U32Codec {
    /// Field width in bits.
    pub width: u64,
}

impl PayloadCodec for U32Codec {
    type Item = u32;

    fn encode(&self, arena: &mut BitArena, item: &u32) {
        arena.push(*item as u64, self.width);
    }

    fn decode(&self, cur: &mut BitCursor<'_>) -> u32 {
        cur.take(self.width) as u32
    }

    fn skip(&self, cur: &mut BitCursor<'_>) {
        cur.skip(self.width);
    }
}

/// Codec for [`PortLabel`] payloads: DFS number, light-trail length, then
/// `(branching dfs, port)` per light edge.
#[derive(Debug, Clone, Copy)]
pub struct PortLabelCodec {
    /// Width of DFS numbers (node width).
    pub node: u64,
    /// Width of port indices.
    pub port: u64,
    /// Width of the light-trail length field.
    pub cnt: u64,
}

impl PayloadCodec for PortLabelCodec {
    type Item = PortLabel;

    fn encode(&self, arena: &mut BitArena, item: &PortLabel) {
        arena.push(item.dfs as u64, self.node);
        arena.push(item.lights.len() as u64, self.cnt);
        for &(x_dfs, port) in &item.lights {
            arena.push(x_dfs as u64, self.node);
            arena.push(port as u64, self.port);
        }
    }

    fn decode(&self, cur: &mut BitCursor<'_>) -> PortLabel {
        let dfs = cur.take(self.node) as u32;
        let lights = (0..cur.take(self.cnt))
            .map(|_| (cur.take(self.node) as u32, cur.take(self.port) as u32))
            .collect();
        PortLabel { dfs, lights }
    }

    fn skip(&self, cur: &mut BitCursor<'_>) {
        cur.skip(self.node);
        let lights = cur.take(self.cnt);
        cur.skip(lights * (self.node + self.port));
    }
}

/// Field widths of one packed tree's layout.
#[derive(Debug, Clone, Copy)]
pub struct PackedTreeWidths {
    /// Width of stored keys (labels/names fit in node width).
    pub key: u64,
    /// Width of structural counts and local indices.
    pub cnt: u64,
    /// Width of graph node ids.
    pub node: u64,
}

/// A [`SearchTree`] compiled into a plane's arena: bit offsets into the
/// shared [`BitArena`] plus the payload codec. The arena itself is owned
/// by the plane and passed to [`Self::search`].
#[derive(Debug, Clone)]
pub struct PackedSearchTree<C: PayloadCodec> {
    codec: C,
    widths: PackedTreeWidths,
    /// Absolute bit offset of the tree's first record.
    base: u64,
    /// Bit offset of each local's record, relative to `base`.
    local_off: Vec<u32>,
}

impl<C: PayloadCodec> PackedSearchTree<C> {
    /// Compiles `tree` into `arena` at its current end; [`Self::decode`]
    /// at that offset yields the packed tree.
    pub fn encode(
        arena: &mut BitArena,
        tree: &SearchTree<C::Item>,
        codec: &C,
        widths: PackedTreeWidths,
    ) {
        let t = tree.tree();
        arena.push(t.len() as u64, widths.cnt);
        for u in 0..t.len() as u32 {
            arena.push(t.node(u) as u64, widths.node);
            let pairs = tree.local_pairs(u);
            arena.push(pairs.len() as u64, widths.cnt);
            for (k, d) in pairs {
                arena.push(u64::from(*k), widths.key);
                codec.encode(arena, d);
            }
            let children = t.children(u);
            arena.push(children.len() as u64, widths.cnt);
            for &c in children {
                arena.push(c as u64, widths.cnt);
                match tree.subtree_range_of(c) {
                    Some((lo, hi)) => {
                        arena.push(1, 1);
                        arena.push(u64::from(lo), widths.key);
                        arena.push(u64::from(hi), widths.key);
                    }
                    None => arena.push(0, 1),
                }
            }
        }
    }

    /// Walks one packed tree starting at the cursor and builds its offset
    /// index, leaving the cursor just past the tree.
    ///
    /// # Panics
    ///
    /// Panics if the tree's records span `2^32` bits or more: the index
    /// keeps 32-bit relative offsets.
    pub fn decode(cur: &mut BitCursor<'_>, codec: C, widths: PackedTreeWidths) -> Self {
        let len = cur.take(widths.cnt);
        let base = cur.pos();
        let mut local_off = Vec::with_capacity(len as usize);
        for _ in 0..len {
            local_off.push((cur.pos() - base) as u32);
            cur.skip(widths.node);
            for _ in 0..cur.take(widths.cnt) {
                cur.skip(widths.key);
                codec.skip(cur);
            }
            for _ in 0..cur.take(widths.cnt) {
                cur.skip(widths.cnt);
                if cur.take(1) == 1 {
                    cur.skip(2 * widths.key);
                }
            }
        }
        assert!(cur.pos() - base < 1 << 32, "packed search tree spans 2^32 bits or more");
        PackedSearchTree { codec, widths, base, local_off }
    }

    /// Absolute bit offset of `local`'s record.
    #[inline]
    fn record(&self, local: u32) -> u64 {
        self.base + self.local_off[local as usize] as u64
    }

    /// The read-only record view of this tree inside `arena`.
    #[inline]
    pub fn view<'a>(&'a self, arena: &'a BitArena) -> PackedTreeView<'a, C> {
        PackedTreeView { tree: self, arena }
    }

    /// Algorithm 2 against the packed bits: [`crate::descend`] over
    /// [`Self::view`], collected.
    pub fn search(&self, arena: &BitArena, key: u32) -> SearchWalk<C::Item> {
        SearchWalk::collect(&self.view(arena), key)
    }
}

/// A [`PackedSearchTree`] paired with the arena holding its records.
#[derive(Debug, Clone, Copy)]
pub struct PackedTreeView<'a, C: PayloadCodec> {
    tree: &'a PackedSearchTree<C>,
    arena: &'a BitArena,
}

impl<C: PayloadCodec> TreeScan for PackedTreeView<'_, C> {
    type Item = C::Item;

    #[inline]
    fn node_of(&self, local: u32) -> NodeId {
        self.arena.read(self.tree.record(local), self.tree.widths.node) as NodeId
    }

    fn scan(&self, local: u32, key: u32) -> NodeScan<C::Item> {
        let key = u64::from(key);
        let w = &self.tree.widths;
        let mut cur = BitCursor::new(self.arena, self.tree.record(local) + w.node);
        let npairs = cur.take(w.cnt);
        for _ in 0..npairs {
            if cur.take(w.key) == key {
                return NodeScan { hit: Some(self.tree.codec.decode(&mut cur)), descend: None };
            }
            self.tree.codec.skip(&mut cur);
        }
        // Children's ranges ascend in record order (Algorithm 1 hands the
        // sorted keys out in DFS order), so the first range starting above
        // the key ends the scan: no later child can hold it.
        let nchildren = cur.take(w.cnt);
        for _ in 0..nchildren {
            let c = cur.take(w.cnt) as u32;
            if cur.take(1) == 1 {
                let lo = cur.take(w.key);
                if key < lo {
                    break;
                }
                if key <= cur.take(w.key) {
                    return NodeScan { hit: None, descend: Some(c) };
                }
            }
        }
        NodeScan { hit: None, descend: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchTreeConfig;
    use doubling_metric::{gen, MetricSpace};

    /// Encodes `tree` at the end of `arena` and decodes it from there.
    fn pack<C: PayloadCodec + Copy>(
        arena: &mut BitArena,
        tree: &SearchTree<C::Item>,
        codec: C,
        widths: PackedTreeWidths,
    ) -> PackedSearchTree<C> {
        let at = arena.len_bits();
        PackedSearchTree::encode(arena, tree, &codec, widths);
        PackedSearchTree::decode(&mut BitCursor::new(arena, at), codec, widths)
    }

    fn sample_tree(m: &MetricSpace) -> SearchTree<u32> {
        let ball = m.ball(12, 6);
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x, x)).collect();
        SearchTree::new(m, 12, ball, SearchTreeConfig { eps_r: 1, max_levels: None }, pairs)
    }

    #[test]
    fn packed_search_matches_reference() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let st = sample_tree(&m);
        let mut arena = BitArena::new();
        let widths = PackedTreeWidths { key: 5, cnt: 6, node: 5 };
        let packed = pack(&mut arena, &st, U32Codec { width: 5 }, widths);
        for key in 0..30 {
            assert_eq!(packed.search(&arena, key), st.search(key), "key {key}");
        }

        // PortLabel payloads of varying light-trail lengths, three per
        // node of a multi-level tree: scans skip the payloads they pass,
        // within a node and before its child ranges, and decode only the hit.
        let ball = m.ball(12, 6);
        let pairs: Vec<(u32, PortLabel)> = (0..3 * ball.len() as u32)
            .map(|k| {
                let lights = (0..k % 4).map(|i| ((k + i) % 32, i % 8)).collect();
                (k, PortLabel { dfs: k % 32, lights })
            })
            .collect();
        let config = SearchTreeConfig { eps_r: 4, max_levels: None };
        let st = SearchTree::new(&m, 12, ball, config, pairs);
        assert!(st.levels() > 1, "the descent must pass interior nodes");
        let codec = PortLabelCodec { node: 5, port: 3, cnt: 3 };
        let widths = PackedTreeWidths { key: 7, cnt: 6, node: 5 };
        let packed = pack(&mut arena, &st, codec, widths);
        for key in 0..4 * ball.len() as u32 {
            assert_eq!(packed.search(&arena, key), st.search(key), "port-label key {key}");
        }

        // Few, spaced keys: the late DFS subtrees store nothing (unranged
        // children), and the keys between two child ranges and above the
        // last one exercise the scan's early exit.
        let pairs: Vec<(u32, u32)> = (0..ball.len() as u32 / 3).map(|i| (10 * i + 5, i)).collect();
        let st = SearchTree::new(&m, 12, ball, config, pairs.clone());
        let t = st.tree();
        let ranged =
            |u: u32| t.children(u).iter().filter(|&&c| st.subtree_range_of(c).is_some()).count();
        assert!((0..t.len() as u32).any(|c| st.subtree_range_of(c).is_none()), "no unranged child");
        assert!((0..t.len() as u32).any(|u| ranged(u) > 1), "no gap between child ranges");
        let widths = PackedTreeWidths { key: 9, cnt: 6, node: 5 };
        let packed = pack(&mut arena, &st, U32Codec { width: 5 }, widths);
        for key in 0..10 * pairs.len() as u32 + 20 {
            assert_eq!(packed.search(&arena, key), st.search(key), "spaced key {key}");
        }
    }

    #[test]
    fn decode_roundtrips_byte_exactly() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let st = sample_tree(&m);
        let (codec, widths) = (U32Codec { width: 5 }, PackedTreeWidths { key: 5, cnt: 6, node: 5 });
        let mut arena = BitArena::new();
        PackedSearchTree::encode(&mut arena, &st, &codec, widths);
        let mut cur = BitCursor::new(&arena, 0);
        let dec = PackedSearchTree::decode(&mut cur, codec, widths);
        cur.finish("search tree");
        for key in 0..30 {
            assert_eq!(dec.search(&arena, key), st.search(key), "key {key}");
        }
    }

    #[test]
    fn port_label_codec_roundtrips() {
        let codec = PortLabelCodec { node: 6, port: 3, cnt: 4 };
        let label = PortLabel { dfs: 17, lights: vec![(3, 1), (9, 4)] };
        let mut arena = BitArena::new();
        codec.encode(&mut arena, &label);
        let mut cur = BitCursor::new(&arena, 0);
        assert_eq!(codec.decode(&mut cur), label);
        cur.finish("port label");
        let mut cur = BitCursor::new(&arena, 0);
        codec.skip(&mut cur);
        cur.finish("skipped port label");
    }
}
