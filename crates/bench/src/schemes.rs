//! The paper's four schemes behind one roster, so an experiment builds,
//! maintains, compiles and certifies them in one loop instead of one block
//! per scheme.
//!
//! Every experiment lists the schemes in the same *table order*:
//! net-labeled, scale-free labeled, simple name-independent, scale-free
//! name-independent. [`Built::new`] builds one by its index in that order;
//! [`Built::seam`] hands it out as a [`Recoverable`] — the [`Deliver`]
//! seam plus the hierarchy [`netsim::recovery::ResilientRouter`] climbs on
//! fallbacks and the tables [`conform::certify`] re-prices. [`Built`] is
//! itself [`Maintainable`] and [`Certifiable`], so `Maintainer<Built>`
//! drives any of the four, and [`Built::compile`] packs any of them into
//! its forwarding plane. This module is the only place in the experiments
//! that names a scheme type.

use conform::Guarantee;
use doubling_metric::graph::NodeId;
use doubling_metric::nets::ChurnBatch;
use doubling_metric::{Eps, MetricSpace};
use labeled_routing::{NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane};
use name_independent::{
    ScaleFreeNameIndependent, ScaleFreeNiPlane, SimpleNameIndependent, SimpleNiPlane,
};
use netsim::bits::{FieldWidths, TableComponent};
use netsim::maintain::{Maintainable, Maintainer, MaintainerConfig, RepairStats};
use netsim::plane::ForwardingPlane;
use netsim::recovery::FallbackHierarchy;
use netsim::route::{Route, RouteError};
use netsim::scheme::{
    Certifiable, Deliver, Label, Labeled, LabeledScheme, Name, NameIndependentScheme, Named,
};
use netsim::Naming;
use obs::Tracer;

/// Number of schemes in the table order.
pub const COUNT: usize = 4;

/// Short display names in table order, as the `scale` and `relaxed`
/// tables spell them.
pub const SHORT_NAMES: [&str; COUNT] =
    ["net-labeled", "scale-free-labeled", "simple-NI", "scale-free-NI"];

/// A scheme the experiments drive: the [`Deliver`] seam, the net
/// hierarchy fallbacks climb, and the table enumeration the certifier
/// re-prices.
pub trait Recoverable: Deliver + FallbackHierarchy + Certifiable {}

impl<T: Deliver + FallbackHierarchy + Certifiable + ?Sized> Recoverable for T {}

/// One of the four schemes, built and owned.
#[derive(Debug, Clone, PartialEq)]
pub enum Built {
    /// The non-scale-free labeled scheme.
    NetLabeled(NetLabeled),
    /// Theorem 1.2's scale-free labeled scheme.
    ScaleFreeLabeled(ScaleFreeLabeled),
    /// Theorem 1.4's simple name-independent scheme.
    SimpleNi(SimpleNameIndependent),
    /// Theorem 1.1's scale-free name-independent scheme.
    ScaleFreeNi(ScaleFreeNameIndependent),
}

/// `each!(built, s => expr)` evaluates `expr` with `s` bound to whichever
/// scheme `built` holds: dispatch for the trait methods all four share.
macro_rules! each {
    ($built:expr, $s:ident => $e:expr) => {
        match $built {
            Built::NetLabeled($s) => $e,
            Built::ScaleFreeLabeled($s) => $e,
            Built::SimpleNi($s) => $e,
            Built::ScaleFreeNi($s) => $e,
        }
    };
}

impl Built {
    /// Builds scheme `i` of the table order on `m`, recording its
    /// preprocessing spans in `tracer`. The name-independent schemes keep
    /// a copy of `naming` and route by it.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is out of the schemes' range, the graph is
    /// disconnected, or `i >= COUNT`.
    pub fn new(i: usize, m: &MetricSpace, eps: Eps, naming: &Naming, tracer: &Tracer) -> Self {
        const OK: &str = "eps within range on a connected graph";
        match i {
            0 => Built::NetLabeled(NetLabeled::new_traced(m, eps, tracer).expect(OK)),
            1 => Built::ScaleFreeLabeled(ScaleFreeLabeled::new_traced(m, eps, tracer).expect(OK)),
            2 => Built::SimpleNi(
                SimpleNameIndependent::new_traced(m, eps, naming.clone(), tracer).expect(OK),
            ),
            3 => Built::ScaleFreeNi(
                ScaleFreeNameIndependent::new_traced(m, eps, naming.clone(), tracer).expect(OK),
            ),
            _ => panic!("scheme index {i} is out of the table order"),
        }
    }

    /// All four schemes in table order, built untraced.
    pub fn all(m: &MetricSpace, eps: Eps, naming: &Naming) -> Vec<Built> {
        (0..COUNT).map(|i| Built::new(i, m, eps, naming, &Tracer::noop())).collect()
    }

    /// The scheme behind the seam: labeled schemes route to the label of
    /// the destination, name-independent ones to its name under the
    /// naming they were built with.
    pub fn seam(&self) -> Box<dyn Recoverable + '_> {
        match self {
            Built::NetLabeled(s) => Box::new(Labeled(s)),
            Built::ScaleFreeLabeled(s) => Box::new(Labeled(s)),
            Built::SimpleNi(s) => Box::new(Named(s, s.naming())),
            Built::ScaleFreeNi(s) => Box::new(Named(s, s.naming())),
        }
    }

    /// The theorem the scheme is certified against.
    pub fn guarantee(&self) -> Guarantee {
        match self {
            Built::NetLabeled(_) => Guarantee::lemma_3_1(),
            Built::ScaleFreeLabeled(_) => Guarantee::theorem_1_2(),
            Built::SimpleNi(_) => Guarantee::theorem_1_4(),
            Built::ScaleFreeNi(_) => Guarantee::theorem_1_1(),
        }
    }

    /// The labeled scheme that routes by label: the scheme itself, or the
    /// underlying one of a name-independent scheme.
    fn labeled(&self) -> &dyn LabeledScheme {
        match self {
            Built::NetLabeled(s) => s,
            Built::ScaleFreeLabeled(s) => s,
            Built::SimpleNi(s) => s.underlying(),
            Built::ScaleFreeNi(s) => s.underlying(),
        }
    }

    /// The routing label of `v` (a name-independent scheme's underlying
    /// label).
    pub fn label_of(&self, v: NodeId) -> Label {
        self.labeled().label_of(v)
    }

    /// The reference route for label ingress: from `src` to the node
    /// labeled `label`, by the (underlying) labeled scheme.
    ///
    /// # Errors
    ///
    /// As [`LabeledScheme::route`].
    pub fn route_label(
        &self,
        m: &MetricSpace,
        src: NodeId,
        label: Label,
    ) -> Result<Route, RouteError> {
        self.labeled().route(m, src, label)
    }

    /// The reference route for name ingress: a name-independent scheme
    /// routes to `name` itself, a labeled one to the label of the node
    /// `naming` gives that name.
    ///
    /// # Errors
    ///
    /// As [`LabeledScheme::route`] and [`NameIndependentScheme::route`].
    pub fn route_name(
        &self,
        m: &MetricSpace,
        naming: &Naming,
        src: NodeId,
        name: Name,
    ) -> Result<Route, RouteError> {
        match self {
            Built::SimpleNi(s) => s.route(m, src, name),
            Built::ScaleFreeNi(s) => s.route(m, src, name),
            Built::NetLabeled(_) | Built::ScaleFreeLabeled(_) => {
                self.route_label(m, src, self.label_of(naming.node_of(name)))
            }
        }
    }

    /// Packs the scheme into its forwarding plane, stamped with `epoch`.
    /// Labeled planes carry a name directory for `naming`; the
    /// name-independent planes route by the naming they were built with.
    pub fn compile(
        &self,
        m: &MetricSpace,
        naming: &Naming,
        epoch: u64,
    ) -> Box<dyn ForwardingPlane> {
        match self {
            Built::NetLabeled(s) => Box::new(NetLabeledPlane::compile(m, s, Some(naming), epoch)),
            Built::ScaleFreeLabeled(s) => {
                Box::new(ScaleFreeLabeledPlane::compile(m, s, Some(naming), epoch))
            }
            Built::SimpleNi(s) => Box::new(SimpleNiPlane::compile(m, s, epoch)),
            Built::ScaleFreeNi(s) => Box::new(ScaleFreeNiPlane::compile(m, s, epoch)),
        }
    }

    /// Hands the scheme, serving `n` physical nodes, to a [`Maintainer`].
    pub fn maintainer(self, n: usize, config: MaintainerConfig) -> Maintainer<Built> {
        Maintainer::new(n, self, config)
    }
}

impl Maintainable for Built {
    fn maintain_name(&self) -> &'static str {
        each!(self, s => s.maintain_name())
    }

    fn active_nodes(&self) -> Vec<NodeId> {
        each!(self, s => s.active_nodes())
    }

    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
        each!(self, s => s.repair(m, batch))
    }

    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]) {
        each!(self, s => s.rebuild(m, active))
    }

    fn total_table_bits(&self) -> u64 {
        each!(self, s => s.total_table_bits())
    }
}

impl Certifiable for Built {
    fn field_widths(&self) -> FieldWidths {
        each!(self, s => s.field_widths())
    }

    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        each!(self, s => s.table_components(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::gen;
    use netsim::stats::all_pairs;

    /// Each scheme's own name, in table order beside [`SHORT_NAMES`].
    const NAMES: [&str; COUNT] = [
        "net-labeled",
        "scale-free-labeled",
        "simple-name-independent",
        "scale-free-name-independent",
    ];

    #[test]
    fn every_roster_answer_belongs_to_the_scheme_at_its_index() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let eps = Eps::one_over(8);
        let naming = Naming::random(m.n(), 3);
        let pairs = all_pairs(m.n());
        let params = conform::Params::measure(&m, eps);
        let leavers = vec![6, 18];
        let rest: Vec<NodeId> = (0..m.n() as NodeId).filter(|v| !leavers.contains(v)).collect();
        let everyone: Vec<NodeId> = (0..m.n() as NodeId).collect();
        for (i, b) in Built::all(&m, eps, &naming).into_iter().enumerate() {
            let name = NAMES[i];
            let (seam, plane) = (b.seam(), b.compile(&m, &naming, 0));
            assert_eq!(b.maintain_name(), name, "{}", SHORT_NAMES[i]);
            assert_eq!(seam.scheme_name(), name);
            assert_eq!(plane.plane_name(), name);
            assert_eq!(seam.label_bits().is_some(), i < 2, "{name}");

            // The plane and both serve references route as the seam does.
            for &(u, v) in &pairs {
                let want = seam.route_to(&m, u, v);
                let (label, nm) = (b.label_of(v), naming.name_of(v));
                let by_label = plane.route(&m, u, label);
                let by_name = plane.route_named(&m, u, nm);
                assert_eq!(by_label, b.route_label(&m, u, label), "{name} {u}->{v}");
                assert_eq!(by_name, b.route_name(&m, &naming, u, nm), "{name} {u}->{v}");
                let own = if seam.label_bits().is_some() { by_label } else { by_name };
                assert_eq!(own, want, "{name} {u}->{v}");
            }

            // Certifiable dispatch prices what the scheme claims.
            for u in 0..m.n() as NodeId {
                assert_eq!(b.table_components(u), seam.table_components(u), "{name} at {u}");
                assert_eq!(b.enumerated_table_bits(u), seam.table_bits(u), "{name} at {u}");
            }
            let g = b.guarantee();
            assert_eq!(g.scheme, name);
            let cert = conform::certify(&m, &m, &*seam, &g, &params, &pairs, 2);
            assert!(cert.pass(), "{name}: {:?}", cert.violations);

            // One leave batch and its rejoin, repaired in place, equal
            // from-scratch rebuilds.
            let mut mt = b.clone().maintainer(m.n(), MaintainerConfig::default());
            for (batch, active) in [
                (ChurnBatch::new(vec![], leavers.clone()), &rest),
                (ChurnBatch::new(leavers.clone(), vec![]), &everyone),
            ] {
                mt.apply_batch(&m, &batch, |_| true).expect("valid batch");
                let mut rebuilt = b.clone();
                rebuilt.rebuild(&m, active);
                assert_eq!(mt.scheme(), &rebuilt, "{name}");
                assert_eq!(mt.scheme().active_nodes(), *active);
            }
            assert_eq!(mt.scheme(), &b, "{name}: the rejoin restores the tables");
        }
    }
}
