//! The paper's four schemes behind the evaluation seam, so an experiment
//! builds and measures them in one loop instead of one block per scheme.
//!
//! Every experiment lists the schemes in the same *table order*:
//! net-labeled, scale-free labeled, simple name-independent, scale-free
//! name-independent. [`Built::new`] builds one by its index in that order
//! and [`Built::seam`] hands it out as a [`Recoverable`] — the
//! [`Deliver`] seam plus the hierarchy
//! [`netsim::recovery::ResilientRouter`] climbs on fallbacks.

use doubling_metric::{Eps, MetricSpace};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::recovery::FallbackHierarchy;
use netsim::scheme::{Deliver, Labeled, LabeledScheme, Named};
use netsim::Naming;
use obs::Tracer;

/// Number of schemes in the table order.
pub const COUNT: usize = 4;

/// Short display names in table order, as the `scale` and `relaxed`
/// tables spell them.
pub const SHORT_NAMES: [&str; COUNT] =
    ["net-labeled", "scale-free-labeled", "simple-NI", "scale-free-NI"];

/// A scheme the recovery runtime can drive: the [`Deliver`] seam plus the
/// net hierarchy fallbacks climb.
pub trait Recoverable: Deliver + FallbackHierarchy {}

impl<T: Deliver + FallbackHierarchy + ?Sized> Recoverable for T {}

/// One of the four schemes, built and owned.
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

impl Built {
    /// Builds scheme `i` of the table order on `m`, recording its
    /// preprocessing spans in `tracer`. The name-independent schemes keep
    /// a copy of `naming` and route by it.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is out of the schemes' range or `i >= COUNT`.
    pub fn new(i: usize, m: &MetricSpace, eps: Eps, naming: &Naming, tracer: &Tracer) -> Self {
        const OK: &str = "eps within range";
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

    /// The routing-label size, for the labeled schemes.
    pub fn label_bits(&self) -> Option<u64> {
        match self {
            Built::NetLabeled(s) => Some(s.label_bits()),
            Built::ScaleFreeLabeled(s) => Some(s.label_bits()),
            Built::SimpleNi(_) | Built::ScaleFreeNi(_) => None,
        }
    }
}
