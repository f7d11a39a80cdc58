//! The two routing-scheme interfaces of the paper.
//!
//! *Labeled* (name-dependent) schemes assign each node a short routing label
//! at preprocessing time; the source must know the destination's label.
//! *Name-independent* schemes must deliver given only the destination's
//! arbitrary original name (see [`crate::naming::Naming`]).
//!
//! Both traits take the [`MetricSpace`] explicitly on `route` so scheme
//! structs own only their *tables* — the `Θ(n²)` metric is shared, and the
//! accounting of per-node storage stays honest.
//!
//! The two models differ only in how a destination is addressed, so the
//! evaluation harness ([`crate::stats`]) and the conformance certifier
//! drive both through one seam, [`Deliver`], which routes to a destination
//! *node*: [`Labeled`] looks up its label, [`Named`] its original name.
//! Only [`Labeled`] answers [`Deliver::label_bits`], which is how the
//! certifier knows to check the labels.

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use crate::bits::{FieldWidths, TableComponent};
use crate::naming::Naming;
use crate::route::{Route, RouteError};

/// A routing label assigned by a labeled scheme (`⌈log n⌉` bits for the
/// schemes in this workspace).
pub type Label = u32;

/// An arbitrary original node name (assigned adversarially, `⌈log n⌉` bits).
pub type Name = u32;

/// A scheme whose per-node tables can be *enumerated* component by
/// component for an external audit.
///
/// `table_components(u)` must list everything node `u` stores, as typed
/// field counts ([`TableComponent`]), and is required to be written as an
/// independent code path from the scheme's own `table_bits(u)` claim —
/// double-entry bookkeeping. A conformance checker re-prices the
/// enumeration through [`FieldWidths`] and rejects the scheme if the two
/// totals ever disagree, so a bug in either path (or a deliberately
/// corrupted table) fails the certificate instead of passing vacuously.
pub trait Certifiable {
    /// The field widths the scheme fixed at preprocessing time.
    fn field_widths(&self) -> FieldWidths;

    /// Every component node `u` stores, as typed field counts.
    fn table_components(&self, u: NodeId) -> Vec<TableComponent>;

    /// The enumerated table size at `u`: the sum of
    /// [`TableComponent::bits`] over `table_components(u)`.
    fn enumerated_table_bits(&self, u: NodeId) -> u64 {
        let w = self.field_widths();
        self.table_components(u).iter().map(|c| c.bits(&w)).sum()
    }
}

/// A labeled (name-dependent) routing scheme.
pub trait LabeledScheme {
    /// Human-readable scheme name for tables.
    fn scheme_name(&self) -> &'static str;

    /// The label this scheme assigned to `v`.
    fn label_of(&self, v: NodeId) -> Label;

    /// The size of a routing label in bits.
    fn label_bits(&self) -> u64;

    /// Routing-table size at node `u`, in bits, per the [`crate::bits`]
    /// conventions.
    fn table_bits(&self, u: NodeId) -> u64;

    /// Routes a packet from `src` to the node labeled `target`.
    ///
    /// # Errors
    ///
    /// Any error indicates a scheme bug; the paper's schemes always deliver.
    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError>;

    /// Convenience: route to a node by id (looking up its label first).
    fn route_to_node(
        &self,
        m: &MetricSpace,
        src: NodeId,
        dst: NodeId,
    ) -> Result<Route, RouteError> {
        self.route(m, src, self.label_of(dst))
    }
}

/// A name-independent routing scheme: must deliver given only the original
/// (adversarial) name of the destination.
pub trait NameIndependentScheme {
    /// Human-readable scheme name for tables.
    fn scheme_name(&self) -> &'static str;

    /// Routing-table size at node `u`, in bits.
    fn table_bits(&self, u: NodeId) -> u64;

    /// Routes a packet from `src` to the node whose original name is
    /// `name`.
    ///
    /// # Errors
    ///
    /// Any error indicates a scheme bug; the paper's schemes always deliver.
    fn route(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError>;
}

/// A scheme together with how its destinations are addressed: the one
/// seam every measurement in [`crate::stats`] is written against. It is
/// object-safe, and `Sync` because [`crate::stats::eval`] may route pairs
/// from worker threads.
pub trait Deliver: Sync {
    /// Human-readable scheme name for tables.
    fn scheme_name(&self) -> &'static str;

    /// Routing-table size at node `u`, in bits.
    fn table_bits(&self, u: NodeId) -> u64;

    /// Routes a packet from `src` to node `dst`, addressed the way the
    /// scheme's model requires.
    ///
    /// # Errors
    ///
    /// Any error indicates a scheme bug; the paper's schemes always deliver.
    fn route_to(&self, m: &MetricSpace, src: NodeId, dst: NodeId) -> Result<Route, RouteError>;

    /// The size of a routing label in bits, when destinations are
    /// addressed by label; `None` when they are addressed by name.
    fn label_bits(&self) -> Option<u64> {
        None
    }

    /// The label `route_to` addresses `v` by, when destinations are
    /// addressed by label; `None` when they are addressed by name.
    fn label_of(&self, _v: NodeId) -> Option<Label> {
        None
    }
}

/// A [`LabeledScheme`] behind the [`Deliver`] seam: routes to
/// `label_of(dst)`.
pub struct Labeled<'a, S: ?Sized>(pub &'a S);

/// A [`NameIndependentScheme`] behind the [`Deliver`] seam: routes to
/// `naming.name_of(dst)`.
pub struct Named<'a, S: ?Sized>(pub &'a S, pub &'a Naming);

impl<S: LabeledScheme + Sync + ?Sized> Deliver for Labeled<'_, S> {
    fn scheme_name(&self) -> &'static str {
        self.0.scheme_name()
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        self.0.table_bits(u)
    }

    fn route_to(&self, m: &MetricSpace, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        self.0.route(m, src, self.0.label_of(dst))
    }

    fn label_bits(&self) -> Option<u64> {
        Some(self.0.label_bits())
    }

    fn label_of(&self, v: NodeId) -> Option<Label> {
        Some(self.0.label_of(v))
    }
}

impl<S: NameIndependentScheme + Sync + ?Sized> Deliver for Named<'_, S> {
    fn scheme_name(&self) -> &'static str {
        self.0.scheme_name()
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        self.0.table_bits(u)
    }

    fn route_to(&self, m: &MetricSpace, src: NodeId, dst: NodeId) -> Result<Route, RouteError> {
        self.0.route(m, src, self.1.name_of(dst))
    }
}

impl<S: Certifiable + ?Sized> Certifiable for Labeled<'_, S> {
    fn field_widths(&self) -> FieldWidths {
        self.0.field_widths()
    }

    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        self.0.table_components(u)
    }
}

impl<S: Certifiable + ?Sized> Certifiable for Named<'_, S> {
    fn field_widths(&self) -> FieldWidths {
        self.0.field_widths()
    }

    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        self.0.table_components(u)
    }
}
