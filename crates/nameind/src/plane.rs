//! Bit-packed forwarding planes for the two name-independent schemes.
//!
//! An [`NiPlane`] owns the packed name-resolution state (per-node names,
//! zoom rows, packed search trees and facilities) and *wraps* the packed
//! plane of its underlying labeled scheme. This module holds only
//! encoding, decoding and packed accessors. `compile` only writes bits;
//! [`NiPlane::decode`] is the one place that builds a plane and derives
//! its offset indices from those bits. The plane implements
//! [`NameIndependentView`] over its bits, with the wrapped labeled plane as
//! its [`LabeledView`](labeled_routing::LabeledView), and
//! [`ForwardingPlane::route_named`] runs the one Algorithm 3 procedure,
//! [`route_named`], over that view — the procedure the reference schemes
//! run.
//!
//! Own-arena layout; the bracketed parts are packed only over a labeled
//! plane that packs balls ([`LevelPolicy::PACKS`]):
//!
//! ```text
//!   widths:5×7  n:cnt  epoch:64  nrounds:7  [log2_n:7]
//!   per node u: name:node, per round k: y:node j:cnt    (zoom rows)
//!   [per j ∈ [0, log2_n]: ntrees:cnt, per ball: packed ℬ-type tree]
//!   per round k: nhosts:cnt, per host:
//!     [own?:1]  { packed own tree (Label payloads) | bj:7 ball:cnt }
//! ```

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use labeled_routing::{AllLevels, LabeledPlane, LevelPolicy, SparseLevels};
use netsim::bits::{bits_for_count, FieldWidths};
use netsim::plane::{
    push_width_header, take_width_header, BitArena, BitCursor, ForwardingPlane, SMALL_FIELD_BITS,
};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Label, Name};
use searchtree::{PackedSearchTree, PackedTreeView, PackedTreeWidths, U32Codec};

use crate::scale_free::{scheme_name, NameIndependent};
use crate::view::{route_named, Facility, NameIndependentView};
#[cfg(test)]
use crate::{ScaleFreeNameIndependent, SimpleNameIndependent};

/// One packed facility: an own tree, or a link into the ℬ-type pool.
#[derive(Debug, Clone)]
enum PackedFacility {
    Own(PackedSearchTree<U32Codec>),
    Link { j: u32, ball: u32 },
}

/// A name-independent scheme compiled into a bit arena, layered over the
/// packed plane of its underlying labeled scheme (level policy `P`).
#[derive(Debug, Clone)]
pub struct NiPlane<P> {
    underlying: LabeledPlane<P>,
    arena: BitArena,
    epoch: u64,
    n: usize,
    node: u64,
    cnt: u64,
    /// Offset of each node's name and zoom rows.
    node_off: Vec<u64>,
    /// `btrees[j][k]` = packed ℬ-type tree of ball `k` in `ℬ_j`.
    btrees: Vec<Vec<PackedSearchTree<U32Codec>>>,
    /// `facility[k][j]` for the `j`-th member of round `k`'s hosting level.
    facility: Vec<Vec<PackedFacility>>,
}

/// The [`SimpleNameIndependent`](crate::SimpleNameIndependent) scheme
/// compiled into a bit arena, layered over a packed
/// [`NetLabeledPlane`](labeled_routing::NetLabeledPlane).
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::{SimpleNameIndependent, SimpleNiPlane};
/// use netsim::{ForwardingPlane, NameIndependentScheme, Naming};
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// let s = SimpleNameIndependent::new(&m, Eps::one_over(8), Naming::random(16, 1))?;
/// let plane = SimpleNiPlane::compile(&m, &s, 0);
/// assert_eq!(plane.route_named(&m, 0, 7)?, s.route(&m, 0, 7)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type SimpleNiPlane = NiPlane<AllLevels>;

/// The [`ScaleFreeNameIndependent`](crate::ScaleFreeNameIndependent)
/// scheme compiled into a bit arena, layered over a packed
/// [`ScaleFreeLabeledPlane`](labeled_routing::ScaleFreeLabeledPlane).
pub type ScaleFreeNiPlane = NiPlane<SparseLevels>;

impl<P: LevelPolicy> NiPlane<P> {
    /// Compiles `s` (and its underlying labeled scheme) at epoch `epoch`.
    pub fn compile(m: &MetricSpace, s: &NameIndependent<P>, epoch: u64) -> Self {
        let underlying = LabeledPlane::compile(m, s.underlying(), None, epoch);
        Self::decode(Self::pack(m, s, epoch), underlying)
    }

    /// Packs the name-resolution layer of `s` (with its ℬ-type trees where
    /// `P` packs balls) into its own arena.
    fn pack(m: &MetricSpace, s: &NameIndependent<P>, epoch: u64) -> BitArena {
        let n = m.n();
        let widths = FieldWidths::new(m);
        let (node, cnt) = (widths.node, bits_for_count(n as u64 + 1));
        let nrounds = s.round_count();
        let npools = s.underlying().packings().len() as u32;
        let (codec, tw) = (U32Codec { width: node }, PackedTreeWidths { key: node, cnt, node });

        let mut arena = BitArena::new();
        push_width_header(&mut arena, &widths, cnt);
        arena.push(n as u64, cnt);
        arena.push(epoch, 64);
        arena.push(nrounds as u64, SMALL_FIELD_BITS);
        if P::PACKS {
            arena.push(u64::from(npools) - 1, SMALL_FIELD_BITS);
        }
        for u in 0..n as NodeId {
            arena.push(s.name_at(u) as u64, node);
            for k in 0..nrounds {
                let (y, j) = s.zoom_row(u, k);
                arena.push(y as u64, node);
                arena.push(j as u64, cnt);
            }
        }
        for pool in (0..npools).map(|j| s.btrees_at(j)) {
            arena.push(pool.len() as u64, cnt);
            for t in pool {
                PackedSearchTree::encode(&mut arena, t, &codec, tw);
            }
        }
        for k in 0..nrounds {
            arena.push(s.hosts(k) as u64, cnt);
            for j in 0..s.hosts(k) {
                match s.facility(k, j) {
                    Facility::Own(tree) => {
                        if P::PACKS {
                            arena.push(1, 1);
                        }
                        PackedSearchTree::encode(&mut arena, tree, &codec, tw);
                    }
                    Facility::Link { j: bj, ball, .. } => {
                        arena.push(0, 1);
                        arena.push(bj as u64, SMALL_FIELD_BITS);
                        arena.push(ball as u64, cnt);
                    }
                }
            }
        }
        arena
    }

    /// Builds the NI layer from its own arena alone (trimmed, as
    /// [`BitArena::trim`]), over the decoded `underlying` plane.
    ///
    /// # Panics
    ///
    /// Panics if the layout reads past the end of `arena` or does not end
    /// exactly at it ([`BitCursor::finish`]).
    pub fn decode(mut arena: BitArena, underlying: LabeledPlane<P>) -> Self {
        arena.trim();
        let mut cur = BitCursor::new(&arena, 0);
        let (widths, cnt) = take_width_header(&mut cur);
        let node = widths.node;
        let (codec, tw) = (U32Codec { width: node }, PackedTreeWidths { key: node, cnt, node });
        let n = cur.take(cnt) as usize;
        let epoch = cur.take(64);
        let nrounds = cur.take(SMALL_FIELD_BITS) as usize;
        let npools = if P::PACKS { cur.take(SMALL_FIELD_BITS) + 1 } else { 0 };
        let node_off = (0..n)
            .map(|_| {
                let off = cur.pos();
                cur.skip(node + nrounds as u64 * (node + cnt));
                off
            })
            .collect();
        let btrees = (0..npools)
            .map(|_| {
                (0..cur.take(cnt)).map(|_| PackedSearchTree::decode(&mut cur, codec, tw)).collect()
            })
            .collect();
        let facility = (0..nrounds)
            .map(|_| {
                (0..cur.take(cnt))
                    .map(|_| {
                        if !P::PACKS || cur.take(1) == 1 {
                            PackedFacility::Own(PackedSearchTree::decode(&mut cur, codec, tw))
                        } else {
                            let j = cur.take(SMALL_FIELD_BITS) as u32;
                            let ball = cur.take(cnt) as u32;
                            PackedFacility::Link { j, ball }
                        }
                    })
                    .collect()
            })
            .collect();
        cur.finish(scheme_name::<P>());
        NiPlane { underlying, arena, epoch, n, node, cnt, node_off, btrees, facility }
    }

    /// The NI layer's own arena (excludes the underlying plane's).
    pub fn arena(&self) -> &BitArena {
        &self.arena
    }
}

impl<P: LevelPolicy> NameIndependentView for NiPlane<P> {
    type Labeled = LabeledPlane<P>;
    type Tree<'a>
        = PackedTreeView<'a, U32Codec>
    where
        P: 'a;

    fn underlying(&self) -> &LabeledPlane<P> {
        &self.underlying
    }

    fn name_at(&self, u: NodeId) -> Name {
        self.arena.read(self.node_off[u as usize], self.node) as Name
    }

    fn round_count(&self) -> usize {
        self.facility.len()
    }

    fn hosts(&self, k: usize) -> usize {
        self.facility[k].len()
    }

    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize) {
        let off = self.node_off[u as usize] + self.node + k as u64 * (self.node + self.cnt);
        (
            self.arena.read(off, self.node) as NodeId,
            self.arena.read(off + self.node, self.cnt) as usize,
        )
    }

    fn facility(&self, k: usize, j: usize) -> Facility<PackedTreeView<'_, U32Codec>> {
        match &self.facility[k][j] {
            PackedFacility::Own(tree) => Facility::Own(tree.view(&self.arena)),
            &PackedFacility::Link { j, ball } => Facility::Link {
                j,
                ball,
                tree: self.btrees[j as usize][ball as usize].view(&self.arena),
            },
        }
    }
}

impl<P: LevelPolicy> ForwardingPlane for NiPlane<P> {
    fn plane_name(&self) -> &'static str {
        scheme_name::<P>()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn n(&self) -> usize {
        self.n
    }

    fn packed_bits(&self) -> u64 {
        self.arena.len_bits() + self.underlying.packed_bits()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.underlying.route(m, src, target)
    }

    fn route_named(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        route_named(self, m, src, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps};
    use labeled_routing::{NetLabeledPlane, ScaleFreeLabeledPlane};
    use netsim::scheme::NameIndependentScheme;
    use netsim::Naming;

    #[test]
    fn simple_ni_plane_matches_reference() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = SimpleNameIndependent::new(&m, Eps::one_over(8), Naming::random(25, 11)).unwrap();
        let plane = SimpleNiPlane::compile(&m, &s, 0);
        for u in 0..25u32 {
            for name in 0..25u32 {
                let want = s.route(&m, u, name).unwrap();
                assert_eq!(plane.route_named(&m, u, name).unwrap(), want, "{u}->{name}");
            }
        }
    }

    #[test]
    fn simple_ni_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), Naming::random(16, 5)).unwrap();
        let plane = SimpleNiPlane::compile(&m, &s, 2);
        let u_dec = NetLabeledPlane::decode(plane.underlying().arena().clone());
        let dec = SimpleNiPlane::decode(plane.arena().clone(), u_dec);
        assert_eq!(dec.epoch(), 2);
        assert_eq!(dec.route_named(&m, 3, 9).unwrap(), s.route(&m, 3, 9).unwrap());
    }

    #[test]
    fn scale_free_ni_plane_matches_reference() {
        let m = MetricSpace::new(&gen::exp_weight_path(16));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(8), Naming::random(16, 4)).unwrap();
        let plane = ScaleFreeNiPlane::compile(&m, &s, 0);
        for u in 0..16u32 {
            for name in 0..16u32 {
                let want = s.route(&m, u, name).unwrap();
                assert_eq!(plane.route_named(&m, u, name).unwrap(), want, "{u}->{name}");
            }
        }
    }

    #[test]
    fn scale_free_ni_plane_roundtrips() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(4), Naming::random(16, 8)).unwrap();
        let plane = ScaleFreeNiPlane::compile(&m, &s, 6);
        let u_dec = ScaleFreeLabeledPlane::decode(plane.underlying().arena().clone());
        let dec = ScaleFreeNiPlane::decode(plane.arena().clone(), u_dec);
        assert_eq!(dec.epoch(), 6);
        for u in 0..16u32 {
            for name in 0..16u32 {
                assert_eq!(dec.route_named(&m, u, name).unwrap(), s.route(&m, u, name).unwrap());
            }
        }
    }
}
