//! The bit-packed forwarding plane of the labeled scheme.
//!
//! [`LabeledPlane`] compiles a built [`Labeled`] scheme into one
//! contiguous [`BitArena`], under either level policy: [`NetLabeledPlane`]
//! packs [`crate::NetLabeled`], [`ScaleFreeLabeledPlane`] packs
//! [`crate::ScaleFreeLabeled`]. This module holds only encoding, decoding
//! and packed accessors. `compile` only writes bits;
//! [`LabeledPlane::decode`] is the one place that builds a plane and
//! derives its offset indices from those bits. The plane implements the table view
//! ([`LabeledView`]) over its bits, and [`ForwardingPlane::route`] is the
//! view's [`LabeledView::route_label`]: the scheme's one routing procedure
//! over that view. A returned [`Route`] is therefore `==` to the reference
//! scheme's whenever the two views answer alike, which the differential
//! tests check accessor by accessor.
//!
//! One layout; the policy picks the header fields and the ring section,
//! and only a policy that packs balls ([`LevelPolicy::PACKS`]) packs the
//! bracketed parts (all counts packed in-arena; see [`netsim::plane`] for
//! the shared conventions):
//!
//! ```text
//!   widths:5×7  n:cnt  epoch:64
//!   every level: num_levels:7 | R(u): eps_num:64  eps_den:64  log2_n:7
//!   has_names:1  [name directory: n × label:node]
//!   per node u:
//!     label:node
//!     [per j ∈ [0, log2_n]: k:cnt local:cnt]          (Voronoi rows)
//!     every level:
//!       per level i: count:cnt { x:node lo:node hi:node next:node }*
//!     R(u):
//!       nrings:cnt
//!       per stored ring: level:level count:cnt
//!         { x:node lo:node hi:node next:node dist:dist }*
//!   [per j ∈ [0, log2_n]: nballs:cnt, per ball:
//!     center:node  port_bits:7  len:cnt
//!     per local: node:node dfs:node lo:node hi:node parent:node
//!                heavy?:1 heavy_local:cnt            (fixed-size records)
//!     root label (PortLabel codec)
//!     packed search tree (PortLabel payloads)]
//! ```
//!
//! The every-level ring section is indexed densely: one word per node and
//! level packs the ring's first-entry offset and count, so a lookup reads
//! no count field. An `R(u)` lookup scans the node's ring headers.
//!
//! Departed (churned-out) nodes keep their physical forwarding state, as
//! in the reference schemes, so a plane packs their rings and Voronoi rows
//! like any other node's. Their label field holds the all-ones node-width
//! value: while some node is away the live labels are below
//! `|Y_0| < n ≤ 2^node`, so it never matches a live destination. A plane
//! compiled with every node active contains no such field.
//!
//! An optional *name directory* (`name → label`, one row per name) gives
//! labeled planes a [`ForwardingPlane::route_named`] ingress; planes
//! compiled without one fail named queries with a structured lookup error
//! at the source.

use std::borrow::Cow;
use std::marker::PhantomData;

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use netsim::bits::{bits_for_count, FieldWidths};
use netsim::naming::Naming;
use netsim::plane::{
    push_width_header, take_width_header, BitArena, BitCursor, ForwardingPlane, SMALL_FIELD_BITS,
};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Label, LabeledScheme, Name};
use searchtree::{
    PackedSearchTree, PackedTreeView, PackedTreeWidths, PayloadCodec, PortLabelCodec,
};
use treeroute::RouterRecords;

use crate::scale_free::{AllLevels, Labeled, LevelPolicy, SparseLevels};
use crate::view::{CellView, LabeledView, RingHit};

/// A [`Labeled`] scheme under policy `P` compiled into one bit arena, with
/// the offsets its decode derives.
#[derive(Debug, Clone)]
pub struct LabeledPlane<P> {
    arena: BitArena,
    epoch: u64,
    widths: FieldWidths,
    cnt: u64,
    names_off: Option<u64>,
    /// Offset of each node's section: its label, then its rows.
    node_off: Vec<u64>,
    /// Every level: the level count, and ring `(u, i)`'s first-entry
    /// offset and entry count packed as `off << cnt | len` in
    /// `n × num_levels` rows ([`pack_ring`]). Empty on `R(u)`.
    num_levels: usize,
    ring_off: Vec<u64>,
    /// Where balls are packed: `ε`, and `cells[j][k]`, indexed like the
    /// scheme's cell table.
    eps: Option<(u64, u64)>,
    cells: Vec<Vec<PackedCell>>,
    policy: PhantomData<P>,
}

/// The [`crate::NetLabeled`] scheme compiled into a bit arena.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use labeled_routing::{NetLabeled, NetLabeledPlane};
/// use netsim::{ForwardingPlane, LabeledScheme};
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let s = NetLabeled::new(&m, Eps::one_over(8))?;
/// let plane = NetLabeledPlane::compile(&m, &s, None, 0);
/// let want = s.route(&m, 0, s.label_of(15))?;
/// assert_eq!(plane.route(&m, 0, s.label_of(15))?, want);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type NetLabeledPlane = LabeledPlane<AllLevels>;

/// The [`crate::ScaleFreeLabeled`] scheme compiled into a bit arena: the `R(u)`
/// rings, `ε`, Voronoi rows, tree-router records and search trees that
/// Algorithm 5 reads, packed.
pub type ScaleFreeLabeledPlane = LabeledPlane<SparseLevels>;

/// Packs a ring's first-entry offset and its `cnt`-bit count into one
/// index word.
///
/// # Panics
///
/// Panics if `off` does not fit in `64 - cnt` bits.
fn pack_ring(off: u64, len: u64, cnt: u64) -> u64 {
    assert!(off >> (64 - cnt) == 0, "ring offset {off} does not fit in {} bits", 64 - cnt);
    off << cnt | len
}

impl<P: LevelPolicy> LabeledPlane<P> {
    /// Compiles `s` at maintainer epoch `epoch`. With `naming` set, a
    /// name directory is packed so the plane serves named queries too.
    /// Departed nodes pack the all-ones node-width label (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    pub fn compile(m: &MetricSpace, s: &Labeled<P>, naming: Option<&Naming>, epoch: u64) -> Self {
        let n = m.n();
        let widths = FieldWidths::new(m);
        let (w, cnt) = (widths.node, bits_for_count(n as u64 + 1));
        let departed = ((1u64 << w) - 1) as Label;
        let labels: Vec<Label> = (0..n as NodeId)
            .map(|v| if s.nets().is_active(v) { s.label_of(v) } else { departed })
            .collect();

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        if P::PACKS {
            arena.push(s.eps().num(), 64);
            arena.push(s.eps().den(), 64);
            arena.push(s.log2_n() as u64, SMALL_FIELD_BITS);
        } else {
            arena.push(s.nets().num_levels() as u64, SMALL_FIELD_BITS);
        }
        arena.push(naming.is_some() as u64, 1);
        if let Some(nm) = naming {
            assert_eq!(nm.n(), n, "naming must cover all nodes");
            for name in 0..n as Name {
                arena.push(labels[nm.node_of(name) as usize] as u64, w);
            }
        }

        let rows = s.packings().len() as u32;
        for u in 0..n as NodeId {
            arena.push(labels[u as usize] as u64, w);
            for j in 0..rows {
                let (k, local) = s.voronoi_row(u, j);
                arena.push(k as u64, cnt);
                arena.push(local as u64, cnt);
            }
            let rings = s.rings_of(u);
            if P::PACKS {
                arena.push(P::levels(rings).count() as u64, cnt);
            }
            for (i, ring) in P::levels(rings) {
                if P::PACKS {
                    arena.push(i as u64, widths.level);
                }
                arena.push(ring.len() as u64, cnt);
                for e in ring {
                    for v in [e.x, e.range.0, e.range.1, e.next] {
                        arena.push(v as u64, w);
                    }
                    if P::PACKS {
                        arena.push(e.dist, widths.dist);
                    }
                }
            }
        }

        let tw = PackedTreeWidths { key: w, cnt, node: w };
        for j in 0..rows {
            let nballs = s.packings().at(j).balls().len();
            arena.push(nballs as u64, cnt);
            for k in 0..nballs as u32 {
                let CellView { center, port_bits, root_label, router, search } = s.cell(j, k);
                arena.push(center as u64, w);
                arena.push(port_bits, SMALL_FIELD_BITS);
                let len = router.tree().len() as u32;
                arena.push(len as u64, cnt);
                for i in 0..len {
                    let (lo, hi) = router.interval(i);
                    for v in [router.node(i), router.dfs(i), lo, hi, router.parent_node(i)] {
                        arena.push(v as u64, w);
                    }
                    let heavy = router.heavy(i);
                    arena.push(heavy.is_some() as u64, 1);
                    arena.push(heavy.unwrap_or(0) as u64, cnt);
                }
                let codec = PortLabelCodec { node: w, port: port_bits, cnt };
                codec.encode(&mut arena, &root_label);
                PackedSearchTree::encode(&mut arena, search, &codec, tw);
            }
        }
        Self::decode(arena)
    }

    /// Builds a plane from its arena alone: trims the arena
    /// ([`BitArena::trim`]), reads the header and skips the optional name
    /// directory, then walks the node sections (indexing every-level
    /// rings) and the packed cells. Reads only counts and the fields the
    /// offsets keep, and skips every fixed-size run.
    ///
    /// # Panics
    ///
    /// Panics if the layout reads past the end of `arena` or does not end
    /// exactly at it ([`BitCursor::finish`]).
    pub fn decode(mut arena: BitArena) -> Self {
        arena.trim();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur);
        let n = cur.take(cnt) as usize;
        let epoch = cur.take(64);
        let eps = P::PACKS.then(|| (cur.take(64), cur.take(64)));
        // The level count, or ⌈log₂ n⌉ where balls are packed.
        let top = cur.take(SMALL_FIELD_BITS) as usize;
        let (num_levels, rows) = if P::PACKS { (0, top + 1) } else { (top, 0) };
        let names_off = (cur.take(1) == 1).then(|| {
            let off = cur.pos();
            cur.skip(n as u64 * widths.node);
            off
        });

        let esz = 4 * widths.node + if P::PACKS { widths.dist } else { 0 };
        let mut node_off = Vec::with_capacity(n);
        let mut ring_off = Vec::with_capacity(n * num_levels);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.skip(widths.node + rows as u64 * 2 * cnt);
            if P::PACKS {
                for _ in 0..cur.take(cnt) {
                    cur.skip(widths.level);
                    let len = cur.take(cnt);
                    cur.skip(len * esz);
                }
            } else {
                for _ in 0..num_levels {
                    let len = cur.take(cnt);
                    ring_off.push(pack_ring(cur.pos(), len, cnt));
                    cur.skip(len * esz);
                }
            }
        }

        let tw = PackedTreeWidths { key: widths.node, cnt, node: widths.node };
        let cells = (0..rows)
            .map(|_| {
                (0..cur.take(cnt))
                    .map(|_| {
                        let center = cur.take(widths.node) as NodeId;
                        let port_bits = cur.take(SMALL_FIELD_BITS);
                        let len = cur.take(cnt);
                        let router_base = cur.pos();
                        cur.skip(len * (5 * widths.node + 1 + cnt));
                        let codec = PortLabelCodec { node: widths.node, port: port_bits, cnt };
                        let root_label_off = cur.pos();
                        codec.skip(&mut cur);
                        let search = PackedSearchTree::decode(&mut cur, codec, tw);
                        PackedCell { center, port_bits, router_base, root_label_off, search }
                    })
                    .collect()
            })
            .collect();
        cur.finish(P::NAME);
        LabeledPlane {
            arena,
            epoch,
            widths,
            cnt,
            names_off,
            node_off,
            num_levels,
            ring_off,
            eps,
            cells,
            policy: PhantomData,
        }
    }
}

impl<P> LabeledPlane<P> {
    /// The backing arena.
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }
}

impl<P: LevelPolicy> ForwardingPlane for LabeledPlane<P> {
    fn plane_name(&self) -> &'static str {
        P::NAME
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.node_off.len()
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.route_label(m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        let off = self.names_off.ok_or_else(|| RouteError::LookupFailed {
            at: src,
            detail: format!("name {name}: no name directory compiled into this plane"),
        })?;
        if name as usize >= self.n() {
            return Err(RouteError::LookupFailed {
                at: src,
                detail: format!("name {name}: beyond the {}-row name directory", self.n()),
            });
        }
        let w = self.widths.node;
        self.route_label(m, src, self.arena.read(off + name as u64 * w, w) as Label)
    }
}

/// The packed ring lookup of both ring sections. Among the `len` entries
/// of `esz` bits at `base` — each opening with `x lo hi next` at width
/// `w`, sorted by `lo` — finds the one whose range holds `label`, the
/// entry [`crate::rings::ring_lookup`]'s partition-point search picks, and
/// returns it as a hit at `level` plus the entry's offset.
///
/// The ring's whole extent is bounds-checked once ([`BitArena::span`]).
/// The search then halves a window whose size depends only on `len`, so
/// the probes form a fixed-length chain with no data-dependent branch,
/// ending on the last entry with `lo <= label` if there is one.
fn ring_entry(
    arena: &BitArena,
    (base, len): (u64, u64),
    (w, esz): (u64, u64),
    level: u32,
    label: Label,
) -> Option<(RingHit, u64)> {
    if len == 0 {
        return None;
    }
    let ring = arena.span(base, len * esz);
    let label = label as u64;
    let (mut e, mut size) = (base, len);
    while size > 1 {
        let half = size / 2;
        let mid = e + half * esz;
        e = if ring.read(mid + w, w) <= label { mid } else { e };
        size -= half;
    }
    (ring.read(e + w, w) <= label && label <= ring.read(e + 2 * w, w)).then(|| {
        let hit = RingHit {
            level,
            x: ring.read(e, w) as NodeId,
            next: ring.read(e + 3 * w, w) as NodeId,
        };
        (hit, e)
    })
}

/// One packed Voronoi cell: derived offsets into the arena (center and
/// widths cached for addressing).
#[derive(Debug, Clone)]
struct PackedCell {
    center: NodeId,
    port_bits: u64,
    router_base: u64,
    root_label_off: u64,
    search: PackedSearchTree<PortLabelCodec>,
}

/// The packed tree-router records of one plane cell: one fixed-size
/// `node dfs lo hi parent heavy? heavy_local` record per tree-local index.
#[derive(Debug, Clone, Copy)]
pub struct PackedRouter<'a> {
    arena: &'a BitArena,
    base: u64,
    node: u64,
    cnt: u64,
}

impl PackedRouter<'_> {
    /// Offset of local index `i`'s record.
    #[inline]
    fn rec(&self, i: u32) -> u64 {
        self.base + i as u64 * (5 * self.node + 1 + self.cnt)
    }
}

impl RouterRecords for PackedRouter<'_> {
    #[inline]
    fn node(&self, i: u32) -> NodeId {
        self.arena.read(self.rec(i), self.node) as NodeId
    }

    #[inline]
    fn dfs(&self, i: u32) -> u32 {
        self.arena.read(self.rec(i) + self.node, self.node) as u32
    }

    #[inline]
    fn interval(&self, i: u32) -> (u32, u32) {
        let r = self.rec(i) + 2 * self.node;
        (self.arena.read(r, self.node) as u32, self.arena.read(r + self.node, self.node) as u32)
    }

    #[inline]
    fn parent_node(&self, i: u32) -> NodeId {
        self.arena.read(self.rec(i) + 4 * self.node, self.node) as NodeId
    }

    #[inline]
    fn heavy(&self, i: u32) -> Option<u32> {
        let r = self.rec(i) + 5 * self.node;
        (self.arena.read(r, 1) == 1).then(|| self.arena.read(r + 1, self.cnt) as u32)
    }
}

impl<P: LevelPolicy> LabeledView for LabeledPlane<P> {
    type Policy = P;
    type Router<'a> = PackedRouter<'a>;
    type Search<'a> = PackedTreeView<'a, PortLabelCodec>;

    fn widths(&self) -> FieldWidths {
        self.widths
    }

    #[inline]
    fn label_at(&self, u: NodeId) -> Label {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Label
    }

    fn min_hit(&self, u: NodeId, label: Label) -> Option<(RingHit, P::HitDist)> {
        let (w, cnt) = (self.widths.node, self.cnt);
        if !P::PACKS {
            let levels = self.num_levels;
            let rings = &self.ring_off[u as usize * levels..][..levels];
            return rings.iter().enumerate().find_map(|(i, &ring)| {
                let (off, len) = (ring >> cnt, ring & ((1 << cnt) - 1));
                let hit = ring_entry(&self.arena, (off, len), (w, 4 * w), i as u32, label);
                hit.map(|(hit, _)| (hit, P::HitDist::default()))
            });
        }
        let dw = self.widths.dist;
        let esz = 4 * w + dw;
        let mut off = self.node_off[u as usize] + w + self.cells.len() as u64 * 2 * cnt;
        let nrings = self.arena.read(off, cnt);
        off += cnt;
        for _ in 0..nrings {
            let i = self.arena.read(off, self.widths.level) as u32;
            let len = self.arena.read(off + self.widths.level, cnt);
            off += self.widths.level + cnt;
            if let Some((hit, e)) = ring_entry(&self.arena, (off, len), (w, esz), i, label) {
                return Some((hit, P::hit_dist(self.arena.read(e + 4 * w, dw))));
            }
            off += len * esz;
        }
        None
    }

    /// # Panics
    ///
    /// Panics where no balls are packed: such a plane stores no `ε`.
    fn eps_ratio(&self) -> (u64, u64) {
        self.eps.expect("only a plane with packed balls stores eps")
    }

    #[inline]
    fn voronoi_row(&self, u: NodeId, j: u32) -> (u32, u32) {
        let off = self.node_off[u as usize] + self.widths.node + j as u64 * 2 * self.cnt;
        (self.arena.read(off, self.cnt) as u32, self.arena.read(off + self.cnt, self.cnt) as u32)
    }

    fn cell(
        &self,
        j: u32,
        k: u32,
    ) -> CellView<'_, PackedRouter<'_>, PackedTreeView<'_, PortLabelCodec>> {
        let cell = &self.cells[j as usize][k as usize];
        let codec = PortLabelCodec { node: self.widths.node, port: cell.port_bits, cnt: self.cnt };
        let root_label = codec.decode(&mut BitCursor::new(&self.arena, cell.root_label_off));
        CellView {
            center: cell.center,
            port_bits: cell.port_bits,
            root_label: Cow::Owned(root_label),
            router: PackedRouter {
                arena: &self.arena,
                base: cell.router_base,
                node: self.widths.node,
                cnt: self.cnt,
            },
            search: cell.search.view(&self.arena),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetLabeled, ScaleFreeLabeled};
    use doubling_metric::{gen, Eps};

    #[test]
    fn net_labeled_plane_routes_match_reference() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let naming = Naming::random(25, 3);
        let plane = NetLabeledPlane::compile(&m, &s, Some(&naming), 0);
        for u in 0..25u32 {
            for v in 0..25u32 {
                let want = s.route(&m, u, s.label_of(v)).unwrap();
                assert_eq!(plane.route(&m, u, s.label_of(v)).unwrap(), want, "{u}->{v}");
                assert_eq!(
                    plane.route_named(&m, u, naming.name_of(v)).unwrap(),
                    want,
                    "{u}->name({v})"
                );
            }
        }
    }

    #[test]
    fn net_labeled_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = NetLabeledPlane::compile(&m, &s, Some(&Naming::random(16, 9)), 7);
        let dec = NetLabeledPlane::decode(plane.arena().clone());
        assert_eq!(dec.epoch(), 7);
        let r = dec.route(&m, 0, s.label_of(15)).unwrap();
        assert_eq!(r, s.route(&m, 0, s.label_of(15)).unwrap());
    }

    #[test]
    fn ring_index_packs_offset_and_count() {
        let (off, len) = ((1 << 59) - 1, 31);
        let packed = pack_ring(off, len, 5);
        assert_eq!((packed >> 5, packed & 31), (off, len));
    }

    #[test]
    #[should_panic(expected = "does not fit in 59 bits")]
    fn ring_index_rejects_an_offset_beyond_its_bits() {
        pack_ring(1 << 59, 0, 5);
    }

    #[test]
    fn scale_free_plane_routes_match_reference_on_exp_path() {
        // The exponential path exercises the packing phase (pruned R(u)).
        let m = MetricSpace::new(&gen::exp_weight_path(20));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
        let plane = ScaleFreeLabeledPlane::compile(&m, &s, None, 0);
        for u in 0..20u32 {
            for v in 0..20u32 {
                let want = s.route(&m, u, s.label_of(v)).unwrap();
                assert_eq!(plane.route(&m, u, s.label_of(v)).unwrap(), want, "{u}->{v}");
            }
        }
    }

    #[test]
    fn scale_free_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = ScaleFreeLabeledPlane::compile(&m, &s, Some(&Naming::random(16, 2)), 3);
        let dec = ScaleFreeLabeledPlane::decode(plane.arena().clone());
        assert_eq!(dec.epoch(), 3);
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(
                    dec.route(&m, u, s.label_of(v)).unwrap(),
                    s.route(&m, u, s.label_of(v)).unwrap()
                );
            }
        }
    }

    #[test]
    fn plane_without_directory_fails_named_queries() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let plane = NetLabeledPlane::compile(&m, &s, None, 0);
        assert!(matches!(plane.route_named(&m, 0, 5), Err(RouteError::LookupFailed { at: 0, .. })));
    }

    #[test]
    fn names_beyond_the_directory_fail_at_the_source() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let naming = Naming::random(9, 1);
        let eps = Eps::one_over(4);
        let nl = NetLabeledPlane::compile(&m, &NetLabeled::new(&m, eps).unwrap(), Some(&naming), 0);
        let sfl = ScaleFreeLabeledPlane::compile(
            &m,
            &ScaleFreeLabeled::new(&m, eps).unwrap(),
            Some(&naming),
            0,
        );
        for plane in [&nl as &dyn ForwardingPlane, &sfl] {
            for name in [9, u32::MAX] {
                assert!(
                    matches!(
                        plane.route_named(&m, 4, name),
                        Err(RouteError::LookupFailed { at: 4, .. })
                    ),
                    "{} name {name}",
                    plane.plane_name()
                );
            }
        }
    }
}
