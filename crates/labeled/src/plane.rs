//! Bit-packed forwarding planes for the two labeled schemes.
//!
//! [`NetLabeledPlane`] and [`ScaleFreeLabeledPlane`] compile a built
//! [`NetLabeled`] / [`ScaleFreeLabeled`] scheme into one contiguous
//! [`BitArena`]. This module holds only encoding, decoding and packed
//! accessors. `compile` only writes bits; [`LabeledPlane::decode`] is the
//! one place that builds a plane and derives its offset indices from
//! those bits. Each plane implements its scheme's table view
//! ([`NetLabeledView`] / [`ScaleFreeView`]) over its bits, and
//! [`ForwardingPlane::route`] is the view's [`LabeledView::route_label`]:
//! the scheme's one routing procedure over that view. A returned [`Route`]
//! is therefore `==` to the reference scheme's whenever the two views
//! answer alike, which the differential tests check accessor by accessor.
//!
//! Arena layouts (all counts packed in-arena; see [`netsim::plane`] for
//! the shared conventions):
//!
//! ```text
//! net-labeled:
//!   widths:5×7  n:cnt  epoch:64  num_levels:7
//!   has_names:1  [name directory: n × label:node]
//!   per node u:
//!     label:node
//!     per level i: count:cnt { x:node lo:node hi:node next:node }*
//!
//! scale-free labeled:
//!   widths:5×7  n:cnt  epoch:64  eps_num:64  eps_den:64  log2_n:7
//!   has_names:1  [name directory: n × label:node]
//!   per node u:
//!     label:node
//!     per j ∈ [0, log2_n]: k:cnt local:cnt           (Voronoi rows)
//!     nrings:cnt
//!     per stored ring: level:level count:cnt
//!       { x:node lo:node hi:node next:node dist:dist }*
//!   per j ∈ [0, log2_n]: nballs:cnt, per ball:
//!     center:node  port_bits:7  len:cnt
//!     per local: node:node dfs:node lo:node hi:node parent:node
//!                heavy?:1 heavy_local:cnt            (fixed-size records)
//!     root label (PortLabel codec)
//!     packed search tree (PortLabel payloads)
//! ```
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

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;

use netsim::bits::{bits_for_count, FieldWidths};
use netsim::naming::Naming;
use netsim::plane::{
    push_width_header, take_width_header, BitArena, BitCursor, ForwardingPlane, SMALL_FIELD_BITS,
};
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Label, LabeledScheme, Name};
use searchtree::{
    PackedSearchTree, PackedTreeView, PackedTreeWidths, PayloadCodec, PortLabelCodec,
};
use treeroute::RouterRecords;

use crate::view::{CellView, LabeledView, NetLabeledView, RingHit, ScaleFreeView};
use crate::{net_labeled, scale_free, NetLabeled, ScaleFreeLabeled};

/// A labeled scheme compiled into one bit arena: the header, optional
/// name directory and per-node label column both layouts open with, plus
/// the scheme's own offsets `T` ([`NetRings`] or [`ScaleFreeCells`]).
#[derive(Debug, Clone)]
pub struct LabeledPlane<T> {
    arena: BitArena,
    epoch: u64,
    widths: FieldWidths,
    cnt: u64,
    names_off: Option<u64>,
    /// Offset of each node's section: its label, then the scheme's rows.
    node_off: Vec<u64>,
    tables: T,
}

/// The part of a [`LabeledPlane`] that differs per scheme.
pub trait PlaneTables: Sized {
    /// The plane's [`ForwardingPlane::plane_name`].
    const NAME: &'static str;

    /// Widths of the scheme's own header fields, packed after the epoch.
    const HEADER: &'static [u64];

    /// Walks the node sections and the scheme's trailing rows at `cur`,
    /// given the plane's `format` `(widths, count width, n)` and the
    /// values of the [`Self::HEADER`] fields: pushes the offset of each of
    /// the `n` node sections onto `node_off` and returns the scheme's
    /// offsets. Reads only counts and the fields the offsets keep, and
    /// skips every fixed-size run.
    fn decode(
        cur: &mut BitCursor<'_>,
        format: (FieldWidths, u64, usize),
        header: &[u64],
        node_off: &mut Vec<u64>,
    ) -> Self;

    /// Walks the plane with the scheme's one routing procedure
    /// ([`LabeledView::walk_label`]).
    ///
    /// # Errors
    ///
    /// The procedure's lookup failures and hop-budget loops.
    fn walk(
        plane: &LabeledPlane<Self>,
        rec: &mut RouteRecorder<'_>,
        target: Label,
    ) -> Result<(), RouteError>;
}

impl<T: PlaneTables> LabeledPlane<T> {
    /// Opens a layout: the widths, `n`, the epoch, the scheme's `header`
    /// values (at the widths [`PlaneTables::HEADER`]), then the optional
    /// name directory. Returns the arena so far and the per-node label
    /// column, which packs the all-ones node-width value for departed
    /// nodes (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    fn open(
        m: &MetricSpace,
        (s, nets): (&impl LabeledScheme, &NetHierarchy),
        naming: Option<&Naming>,
        epoch: u64,
        header: &[u64],
    ) -> (BitArena, Vec<Label>) {
        let n = m.n();
        let widths = FieldWidths::new(m);
        let cnt = bits_for_count(n as u64 + 1);
        let departed = ((1u64 << widths.node) - 1) as Label;
        let labels: Vec<Label> = (0..n as NodeId)
            .map(|v| if nets.is_active(v) { s.label_of(v) } else { departed })
            .collect();

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        assert_eq!(header.len(), T::HEADER.len(), "{} header field count", T::NAME);
        for (&v, &w) in header.iter().zip(T::HEADER) {
            arena.push(v, w);
        }
        arena.push(naming.is_some() as u64, 1);
        if let Some(nm) = naming {
            assert_eq!(nm.n(), n, "naming must cover all nodes");
            for name in 0..n as Name {
                arena.push(labels[nm.node_of(name) as usize] as u64, widths.node);
            }
        }
        (arena, labels)
    }

    /// Builds a plane from its arena alone: trims the arena
    /// ([`BitArena::trim`]), reads the shared header and skips the
    /// optional name directory, then walks the scheme's rows
    /// ([`PlaneTables::decode`]).
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
        let header: Vec<u64> = T::HEADER.iter().map(|&w| cur.take(w)).collect();
        let names_off = (cur.take(1) == 1).then(|| {
            let off = cur.pos();
            cur.skip(n as u64 * widths.node);
            off
        });
        let mut node_off = Vec::with_capacity(n);
        let tables = T::decode(&mut cur, (widths, cnt, n), &header, &mut node_off);
        cur.finish(T::NAME);
        LabeledPlane { arena, epoch, widths, cnt, names_off, node_off, tables }
    }
}

impl<T> LabeledPlane<T> {
    /// The backing arena.
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }
}

impl<T: PlaneTables> LabeledView for LabeledPlane<T> {
    fn widths(&self) -> FieldWidths {
        self.widths
    }

    #[inline]
    fn label_at(&self, u: NodeId) -> Label {
        self.arena.read(self.node_off[u as usize], self.widths.node) as Label
    }

    fn walk_label(&self, rec: &mut RouteRecorder<'_>, target: Label) -> Result<(), RouteError> {
        T::walk(self, rec, target)
    }
}

impl<T: PlaneTables + Send + Sync> ForwardingPlane for LabeledPlane<T> {
    fn plane_name(&self) -> &'static str {
        T::NAME
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

/// The packed ring lookup both planes share. Among the `len` entries of
/// `esz` bits at `base` — each opening with `x lo hi next` at width `w`,
/// sorted by `lo` — finds the one whose range holds `label`, the entry
/// [`crate::rings::ring_lookup`]'s partition-point search picks, and
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

/// The net-labeled offsets: one ring per node and level.
#[derive(Debug, Clone)]
pub struct NetRings {
    num_levels: usize,
    /// Ring `(u, i)`'s first-entry offset and entry count packed as
    /// `off << cnt | len`, `n × num_levels` rows: a lookup starts without
    /// reading the count field from the arena.
    ring_off: Vec<u64>,
}

impl NetRings {
    /// Packs a ring's first-entry offset and its `cnt`-bit count into one
    /// index word.
    ///
    /// # Panics
    ///
    /// Panics if `off` does not fit in `64 - cnt` bits.
    fn pack(off: u64, len: u64, cnt: u64) -> u64 {
        assert!(off >> (64 - cnt) == 0, "ring offset {off} does not fit in {} bits", 64 - cnt);
        off << cnt | len
    }
}

impl PlaneTables for NetRings {
    const NAME: &'static str = "net-labeled";
    const HEADER: &'static [u64] = &[SMALL_FIELD_BITS];

    fn decode(
        cur: &mut BitCursor<'_>,
        (widths, cnt, n): (FieldWidths, u64, usize),
        header: &[u64],
        node_off: &mut Vec<u64>,
    ) -> Self {
        let num_levels = header[0] as usize;
        let mut ring_off = Vec::with_capacity(n * num_levels);
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.skip(widths.node);
            for _ in 0..num_levels {
                let len = cur.take(cnt);
                ring_off.push(NetRings::pack(cur.pos(), len, cnt));
                cur.skip(len * 4 * widths.node);
            }
        }
        NetRings { num_levels, ring_off }
    }

    fn walk(
        plane: &LabeledPlane<Self>,
        rec: &mut RouteRecorder<'_>,
        target: Label,
    ) -> Result<(), RouteError> {
        net_labeled::walk(plane, rec, target)
    }
}

/// The [`NetLabeled`] scheme compiled into a bit arena.
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
pub type NetLabeledPlane = LabeledPlane<NetRings>;

impl NetLabeledPlane {
    /// Compiles `s` at maintainer epoch `epoch`. With `naming` set, a
    /// name directory is packed so the plane serves named queries too.
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    pub fn compile(m: &MetricSpace, s: &NetLabeled, naming: Option<&Naming>, epoch: u64) -> Self {
        let num_levels = s.num_levels();
        let (mut arena, labels) = Self::open(m, (s, s.nets()), naming, epoch, &[num_levels as u64]);
        let (w, cnt) = (FieldWidths::new(m).node, bits_for_count(m.n() as u64 + 1));
        for u in 0..m.n() as NodeId {
            arena.push(labels[u as usize] as u64, w);
            for i in 0..num_levels {
                let ring = s.ring(u, i);
                arena.push(ring.len() as u64, cnt);
                for e in ring {
                    for v in [e.x, e.range.0, e.range.1, e.next] {
                        arena.push(v as u64, w);
                    }
                }
            }
        }
        Self::decode(arena)
    }
}

impl NetLabeledView for NetLabeledPlane {
    fn min_hit(&self, u: NodeId, label: Label) -> Option<RingHit> {
        let (w, levels, cnt) = (self.widths.node, self.tables.num_levels, self.cnt);
        let rings = &self.tables.ring_off[u as usize * levels..][..levels];
        rings.iter().enumerate().find_map(|(i, &ring)| {
            let (off, len) = (ring >> cnt, ring & ((1 << cnt) - 1));
            ring_entry(&self.arena, (off, len), (w, 4 * w), i as u32, label).map(|(hit, _)| hit)
        })
    }
}

/// One packed Voronoi cell of the scale-free plane: derived offsets into
/// the arena (center and widths cached for addressing).
#[derive(Debug, Clone)]
struct PackedCell {
    center: NodeId,
    port_bits: u64,
    router_base: u64,
    root_label_off: u64,
    search: PackedSearchTree<PortLabelCodec>,
}

/// The packed tree-router records of one scale-free plane cell: one
/// fixed-size `node dfs lo hi parent heavy? heavy_local` record per
/// tree-local index.
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

/// The scale-free offsets: `ε`, the size-exponent range and the packed
/// Voronoi cells.
#[derive(Debug, Clone)]
pub struct ScaleFreeCells {
    log2_n: u32,
    eps_num: u64,
    eps_den: u64,
    /// `cells[j][k]`, indexed like the scheme's cell table.
    cells: Vec<Vec<PackedCell>>,
}

impl PlaneTables for ScaleFreeCells {
    const NAME: &'static str = "scale-free-labeled";
    const HEADER: &'static [u64] = &[64, 64, SMALL_FIELD_BITS];

    fn decode(
        cur: &mut BitCursor<'_>,
        (widths, cnt, n): (FieldWidths, u64, usize),
        header: &[u64],
        node_off: &mut Vec<u64>,
    ) -> Self {
        let (eps_num, eps_den, log2_n) = (header[0], header[1], header[2] as u32);
        let esz = 4 * widths.node + widths.dist;
        for _ in 0..n {
            node_off.push(cur.pos());
            cur.skip(widths.node + (log2_n as u64 + 1) * 2 * cnt);
            for _ in 0..cur.take(cnt) {
                cur.skip(widths.level);
                let len = cur.take(cnt);
                cur.skip(len * esz);
            }
        }
        let tw = PackedTreeWidths { key: widths.node, cnt, node: widths.node };
        let cells = (0..=log2_n)
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
                        codec.skip(cur);
                        let search = PackedSearchTree::decode(cur, codec, tw);
                        PackedCell { center, port_bits, router_base, root_label_off, search }
                    })
                    .collect()
            })
            .collect();
        ScaleFreeCells { log2_n, eps_num, eps_den, cells }
    }

    fn walk(
        plane: &LabeledPlane<Self>,
        rec: &mut RouteRecorder<'_>,
        target: Label,
    ) -> Result<(), RouteError> {
        scale_free::walk(plane, rec, target)
    }
}

/// The [`ScaleFreeLabeled`] scheme compiled into a bit arena: the `R(u)`
/// rings, `ε`, Voronoi rows, tree-router records and search trees that
/// Algorithm 5 reads, packed.
pub type ScaleFreeLabeledPlane = LabeledPlane<ScaleFreeCells>;

impl ScaleFreeLabeledPlane {
    /// Compiles `s` at maintainer epoch `epoch`, optionally with a name
    /// directory.
    ///
    /// # Panics
    ///
    /// Panics if `naming` is present with a different node count.
    pub fn compile(
        m: &MetricSpace,
        s: &ScaleFreeLabeled,
        naming: Option<&Naming>,
        epoch: u64,
    ) -> Self {
        let log2_n = s.log2_n();
        let header = [s.eps().num(), s.eps().den(), log2_n as u64];
        let (mut arena, labels) = Self::open(m, (s, s.nets()), naming, epoch, &header);
        let (widths, cnt) = (FieldWidths::new(m), bits_for_count(m.n() as u64 + 1));
        for u in 0..m.n() as NodeId {
            arena.push(labels[u as usize] as u64, widths.node);
            for j in 0..=log2_n {
                let (k, local) = s.voronoi_row(u, j);
                arena.push(k as u64, cnt);
                arena.push(local as u64, cnt);
            }
            let rings = s.rings_of(u);
            arena.push(rings.len() as u64, cnt);
            for (i, ring) in rings {
                arena.push(*i as u64, widths.level);
                arena.push(ring.len() as u64, cnt);
                for e in ring {
                    for v in [e.x, e.range.0, e.range.1, e.next] {
                        arena.push(v as u64, widths.node);
                    }
                    arena.push(e.dist, widths.dist);
                }
            }
        }

        let tw = PackedTreeWidths { key: widths.node, cnt, node: widths.node };
        for j in 0..=log2_n {
            let nballs = s.packings().at(j).balls().len();
            arena.push(nballs as u64, cnt);
            for k in 0..nballs as u32 {
                let CellView { center, port_bits, root_label, router, search } = s.cell(j, k);
                arena.push(center as u64, widths.node);
                arena.push(port_bits, SMALL_FIELD_BITS);
                let len = router.tree().len() as u32;
                arena.push(len as u64, cnt);
                for i in 0..len {
                    let (lo, hi) = router.interval(i);
                    for v in [router.node(i), router.dfs(i), lo, hi, router.parent_node(i)] {
                        arena.push(v as u64, widths.node);
                    }
                    let heavy = router.heavy(i);
                    arena.push(heavy.is_some() as u64, 1);
                    arena.push(heavy.unwrap_or(0) as u64, cnt);
                }
                let codec = PortLabelCodec { node: widths.node, port: port_bits, cnt };
                codec.encode(&mut arena, &root_label);
                PackedSearchTree::encode(&mut arena, search, &codec, tw);
            }
        }
        Self::decode(arena)
    }
}

impl ScaleFreeView for ScaleFreeLabeledPlane {
    type Router<'a> = PackedRouter<'a>;
    type Search<'a> = PackedTreeView<'a, PortLabelCodec>;

    fn eps_ratio(&self) -> (u64, u64) {
        (self.tables.eps_num, self.tables.eps_den)
    }

    fn log2_n(&self) -> u32 {
        self.tables.log2_n
    }

    fn min_hit(&self, u: NodeId, label: Label) -> Option<(RingHit, Dist)> {
        let (w, dw) = (self.widths.node, self.widths.dist);
        let esz = 4 * w + dw;
        let mut off =
            self.node_off[u as usize] + w + (self.tables.log2_n as u64 + 1) * 2 * self.cnt;
        let nrings = self.arena.read(off, self.cnt);
        off += self.cnt;
        for _ in 0..nrings {
            let i = self.arena.read(off, self.widths.level) as u32;
            let len = self.arena.read(off + self.widths.level, self.cnt);
            off += self.widths.level + self.cnt;
            if let Some((hit, e)) = ring_entry(&self.arena, (off, len), (w, esz), i, label) {
                return Some((hit, self.arena.read(e + 4 * w, dw)));
            }
            off += len * esz;
        }
        None
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
        let cell = &self.tables.cells[j as usize][k as usize];
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
        let packed = NetRings::pack(off, len, 5);
        assert_eq!((packed >> 5, packed & 31), (off, len));
    }

    #[test]
    #[should_panic(expected = "does not fit in 59 bits")]
    fn ring_index_rejects_an_offset_beyond_its_bits() {
        NetRings::pack(1 << 59, 0, 5);
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
