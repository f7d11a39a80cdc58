//! Name-independent compact routing schemes for networks of low doubling
//! dimension — the paper's headline contribution.
//!
//! A name-independent scheme must deliver a packet given only the
//! destination's *arbitrary original name* (not a designer-chosen label).
//! Both schemes follow the same two-layer recipe (Section 3):
//!
//! 1. An **underlying labeled scheme** provides `(1+O(ε))`-stretch routing
//!    once the destination's label is known.
//! 2. A **hierarchy of search trees** maps names to labels: the source
//!    walks its *zooming sequence* `u(0), u(1), u(2), …` (each net point
//!    stores the label of its netting-tree parent), and at each `u(i)`
//!    searches a ball of radius `2^i/ε` for the pair `(name, label)`
//!    (**Algorithm 3**). The geometric growth of the search radii against
//!    the lower bound `d(u, v) ≳ 2^{j−1}/ε` at the first successful level
//!    `j` yields total cost `(9 + O(ε))·d(u, v)` (**Lemma 3.4**) — and
//!    stretch 9 is optimal by the paper's Theorem 1.3.
//!
//! Theorem 1.1 differs from Theorem 1.4 only in its labeled layer and in
//! replacing a round's own tree with a link to a packed ball's tree, so
//! one scheme is written once, [`NameIndependent<P>`], generic over the
//! level policy of its underlying labeled scheme
//! ([`labeled_routing::LevelPolicy`]), with two instances:
//!
//! * [`ScaleFreeNameIndependent`] = `NameIndependent<SparseLevels>`, over
//!   `ScaleFreeLabeled` (**Theorem 1.1**), replaces most per-level search
//!   trees with shared trees over the ball packings `ℬ_j` (Section 3.3): a
//!   ball `B_u(2^i/ε)` whose contents are already indexed by a packed
//!   ball's tree stores only a link `H(u, i)` to that ball (**Algorithm
//!   4** redirects the search through the link). Claims 3.6–3.9 bound the
//!   storage at `(1/ε)^{O(α)}·log³ n` bits — independent of Δ. Together
//!   with the matching lower bound this is the first optimal-stretch
//!   scale-free name-independent compact routing scheme for doubling
//!   networks.
//! * [`SimpleNameIndependent`] = `NameIndependent<AllLevels>`, over
//!   `NetLabeled` (**Theorem 1.4**): `NetLabeled` packs no balls, so no
//!   round links and the scheme keeps one search tree per net point per
//!   level — `(1/ε)^{O(α)}·log Δ·log n` bits per node, `O(log n)`
//!   headers; not scale-free.
//!
//! Both route by the one Algorithm 3 loop ([`view::route_named`]) and
//! compile into one plane type ([`NiPlane`]).

#![warn(missing_docs)]

pub mod objects;
pub mod plane;
pub mod rounds;
pub mod scale_free;
pub mod simple;
pub mod view;

pub use objects::ObjectDirectory;
pub use plane::{NiPlane, ScaleFreeNiPlane, SimpleNiPlane};
pub use scale_free::{NameIndependent, ScaleFreeNameIndependent};
pub use simple::SimpleNameIndependent;
pub use view::{Facility, NameIndependentView};

/// The paper's Lemma 3.4 stretch bound `1 + 8(1/ε + 1)/(1/ε − 2)` as a
/// float (it tends to `9` as `ε → 0`). This is the *search-layer* bound;
/// the composed scheme's cost additionally carries the underlying labeled
/// scheme's `(1+O(ε))` factor on every movement, which the paper's big-O
/// absorbs ("since `(1+ε)(1+O(ε)) = 1+O(ε)` we omit the factor").
pub fn lemma_3_4_bound(eps: doubling_metric::Eps) -> f64 {
    let inv = eps.den() as f64 / eps.num() as f64;
    1.0 + 8.0 * (inv + 1.0) / (inv - 2.0)
}

/// Acceptance envelope used by tests and the benchmark harness: Lemma 3.4
/// with a 1.5× allowance on the additive term for the underlying labeled
/// scheme's own `1+O(ε)` stretch applied to the zoom/search/final legs.
/// Still `9 + O(ε)` as `ε → 0` in the sense required by Theorem 1.4/1.1.
pub fn stretch_envelope(eps: doubling_metric::Eps) -> f64 {
    let inv = eps.den() as f64 / eps.num() as f64;
    1.0 + 12.0 * (inv + 1.0) / (inv - 2.0)
}
