//! The audits: exhaustive route oracle, per-node table enumeration, and
//! the certifier that assembles a [`Certificate`] per (scheme, theorem).
//!
//! The route audit is a *differential oracle*: every delivered
//! [`Route`] is replayed hop by hop against the graph (edges must exist,
//! the claimed cost must equal the sum of the traversed weights, segment
//! costs/hops must partition the totals — [`Route::verify`]) and its cost
//! is cross-checked against the independently computed APSP baseline; a
//! route that "beats" the shortest path is an accounting bug, not a
//! triumph. The table audit re-prices each node's
//! [`Certifiable::table_components`] enumeration through
//! [`netsim::bits::FieldWidths`] and compares against the scheme's own
//! `table_bits` claim — double-entry bookkeeping that catches either side
//! lying.

use doubling_metric::graph::NodeId;
use doubling_metric::provider::DistanceProvider;
use doubling_metric::space::MetricSpace;
use lowerbound::{game, LbParams, LowerBoundTree};
use netsim::json::Value;
use netsim::naming::Naming;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Certifiable, LabeledScheme, NameIndependentScheme};

use crate::certificate::{Certificate, ClauseResult, Direction, Witness};
use crate::guarantee::{Expr, Guarantee, Params};

/// At most this many violation descriptions are kept verbatim (the total
/// count is always exact).
const MAX_VIOLATIONS_KEPT: usize = 8;

/// Hop budget mirrored from [`netsim::route::RouteRecorder`]: exceeding it
/// means a routing loop.
fn hop_budget(n: usize) -> usize {
    64 * n + 64
}

/// Outcome of the exhaustive route audit.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteAudit {
    /// Pairs audited.
    pub pairs: usize,
    /// Routes that returned an error.
    pub failures: usize,
    /// Worst stretch over all delivered routes.
    pub max_stretch: f64,
    /// Worst header size over all delivered routes.
    pub max_header_bits: u64,
    /// First few oracle-violation descriptions, in pair order.
    pub violations: Vec<String>,
    /// Exact total number of violations.
    pub violation_count: usize,
    /// The first pair attaining `max_stretch`, with its full route.
    pub witness: Option<Witness>,
}

struct ChunkAudit {
    failures: usize,
    max_stretch: f64,
    max_header_bits: u64,
    violations: Vec<String>,
    violation_count: usize,
    witness: Option<Witness>,
}

fn audit_chunk<F>(
    m: &MetricSpace,
    oracle: &dyn DistanceProvider,
    chunk: &[(NodeId, NodeId)],
    route_fn: &F,
) -> ChunkAudit
where
    F: Fn(NodeId, NodeId) -> Result<Route, RouteError> + Sync,
{
    let budget = hop_budget(m.n());
    let mut out = ChunkAudit {
        failures: 0,
        max_stretch: 0.0,
        max_header_bits: 0,
        violations: Vec::new(),
        violation_count: 0,
        witness: None,
    };
    let violate = |violations: &mut Vec<String>, count: &mut usize, msg: String| {
        if violations.len() < MAX_VIOLATIONS_KEPT {
            violations.push(msg);
        }
        *count += 1;
    };
    for &(u, v) in chunk {
        let route = match route_fn(u, v) {
            Ok(r) => r,
            Err(e) => {
                out.failures += 1;
                violate(
                    &mut out.violations,
                    &mut out.violation_count,
                    format!("route {u} -> {v} failed: {e}"),
                );
                continue;
            }
        };
        if route.src != u || route.dst != v {
            violate(
                &mut out.violations,
                &mut out.violation_count,
                format!(
                    "misdelivery: asked {u} -> {v}, route claims {} -> {}",
                    route.src, route.dst
                ),
            );
        }
        if let Err(e) = route.verify(m) {
            violate(
                &mut out.violations,
                &mut out.violation_count,
                format!("route {u} -> {v} fails replay: {e}"),
            );
        }
        let opt = oracle.dist(u, v);
        if route.cost < opt {
            violate(
                &mut out.violations,
                &mut out.violation_count,
                format!(
                    "route {u} -> {v} cost {} beats APSP baseline {opt} (accounting bug)",
                    route.cost
                ),
            );
        }
        if route.hop_count() > budget {
            violate(
                &mut out.violations,
                &mut out.violation_count,
                format!("route {u} -> {v} used {} hops (budget {budget})", route.hop_count()),
            );
        }
        out.max_header_bits = out.max_header_bits.max(route.max_header_bits);
        let stretch = if route.src == route.dst { 1.0 } else { route.cost as f64 / opt as f64 };
        // Strict `>` keeps the *first* pair attaining the maximum, which
        // makes the chosen witness independent of chunk boundaries (and
        // hence of `--threads`).
        if out.witness.is_none() || stretch > out.max_stretch {
            out.max_stretch = out.max_stretch.max(stretch);
            out.witness = Some(Witness { src: u, dst: v, opt_dist: opt, stretch, route });
        }
    }
    out
}

/// Audits `route_fn` over every pair, fanning chunks out over `threads`
/// scoped workers. The merge is performed in chunk order with strict-first
/// maxima, so the result — including the worst-pair witness and the order
/// of kept violations — is identical at any thread count.
///
/// The baseline distance comes from `m`'s dense matrix; see
/// [`audit_routes_with`] for the backend-parameterized variant used by
/// seeded spot audits above the exhaustive wall.
pub fn audit_routes<F>(
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    route_fn: F,
) -> RouteAudit
where
    F: Fn(NodeId, NodeId) -> Result<Route, RouteError> + Sync,
{
    audit_routes_with(m, m, pairs, threads, route_fn)
}

/// [`audit_routes`] with an explicit baseline [`DistanceProvider`]: the
/// differential oracle cross-checks every route cost against
/// `oracle.dist` instead of the dense matrix.
///
/// The oracle **must be exact** — with an estimated backend a legal route
/// could "beat" a too-high baseline and be flagged as an accounting bug.
/// The exact on-demand backend ([`doubling_metric::OnDemandDijkstra`])
/// is the intended choice for seeded spot audits at `n` beyond the
/// `Θ(n²)` wall.
///
/// # Panics
///
/// Panics if `oracle` is not exact or covers a different node count than
/// `m`.
pub fn audit_routes_with<F>(
    m: &MetricSpace,
    oracle: &dyn DistanceProvider,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    route_fn: F,
) -> RouteAudit
where
    F: Fn(NodeId, NodeId) -> Result<Route, RouteError> + Sync,
{
    assert!(oracle.is_exact(), "route audits require an exact distance backend");
    assert_eq!(oracle.n(), m.n(), "oracle covers a different node count");
    let threads = threads.max(1);
    let chunk_size = pairs.len().div_ceil(threads).max(1);
    let partials: Vec<ChunkAudit> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(|| audit_chunk(m, oracle, chunk, &route_fn)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("audit worker panicked")).collect()
    });
    let mut out = RouteAudit {
        pairs: pairs.len(),
        failures: 0,
        max_stretch: 0.0,
        max_header_bits: 0,
        violations: Vec::new(),
        violation_count: 0,
        witness: None,
    };
    for p in partials {
        out.failures += p.failures;
        out.max_header_bits = out.max_header_bits.max(p.max_header_bits);
        out.violation_count += p.violation_count;
        for v in p.violations {
            if out.violations.len() < MAX_VIOLATIONS_KEPT {
                out.violations.push(v);
            }
        }
        if let Some(w) = p.witness {
            if out.witness.is_none() || w.stretch > out.max_stretch {
                out.max_stretch = out.max_stretch.max(w.stretch);
                out.witness = Some(w);
            }
        }
    }
    out
}

/// Outcome of the per-node table audit.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAudit {
    /// Worst claimed per-node table size.
    pub max_bits: u64,
    /// First node attaining `max_bits`.
    pub worst_node: NodeId,
    /// Sum of claimed table sizes over all nodes.
    pub total_bits: u64,
    /// First few enumerated-vs-claimed mismatch descriptions.
    pub mismatches: Vec<String>,
    /// Exact total number of mismatching nodes.
    pub mismatch_count: usize,
}

/// Audits every node's table: re-prices the [`Certifiable`] enumeration
/// and compares it with the claimed bits from `claimed` (the scheme
/// trait's `table_bits`).
pub fn audit_tables<C: Certifiable>(
    n: usize,
    claimed: impl Fn(NodeId) -> u64,
    scheme: &C,
) -> TableAudit {
    let mut out = TableAudit {
        max_bits: 0,
        worst_node: 0,
        total_bits: 0,
        mismatches: Vec::new(),
        mismatch_count: 0,
    };
    for u in 0..n as NodeId {
        let claim = claimed(u);
        let enumerated = scheme.enumerated_table_bits(u);
        if claim != enumerated {
            if out.mismatches.len() < MAX_VIOLATIONS_KEPT {
                out.mismatches.push(format!(
                    "node {u}: claimed {claim} bits, enumeration prices {enumerated}"
                ));
            }
            out.mismatch_count += 1;
        }
        out.total_bits += claim;
        if claim > out.max_bits {
            out.max_bits = claim;
            out.worst_node = u;
        }
    }
    out
}

fn clause(name: &str, expr: &Expr, p: &Params, measured: f64, dir: Direction) -> ClauseResult {
    ClauseResult {
        name: name.into(),
        bound_desc: expr.to_string(),
        bound: expr.eval(p),
        measured,
        direction: dir,
    }
}

fn zero_clause(name: &str, measured: f64) -> ClauseResult {
    ClauseResult {
        name: name.into(),
        bound_desc: "0".into(),
        bound: 0.0,
        measured,
        direction: Direction::AtMost,
    }
}

fn assemble(
    g: &Guarantee,
    scheme_name: &str,
    params: &Params,
    routes: RouteAudit,
    tables: TableAudit,
    label_clause: Option<ClauseResult>,
    mut extra_violations: Vec<String>,
) -> Certificate {
    let mut clauses = vec![
        zero_clause("delivery-failures", routes.failures as f64),
        zero_clause("oracle-violations", routes.violation_count as f64),
        clause("stretch", &g.stretch, params, routes.max_stretch, Direction::AtMost),
        clause("table-bits", &g.table_bits, params, tables.max_bits as f64, Direction::AtMost),
        zero_clause("table-consistency", tables.mismatch_count as f64),
        clause(
            "header-bits",
            &g.header_bits,
            params,
            routes.max_header_bits as f64,
            Direction::AtMost,
        ),
    ];
    if let Some(c) = label_clause {
        clauses.push(c);
    }
    let mut violations = routes.violations;
    let mut violation_count = routes.violation_count + tables.mismatch_count;
    for msg in tables.mismatches {
        if violations.len() < MAX_VIOLATIONS_KEPT {
            violations.push(msg);
        }
    }
    violation_count += extra_violations.len();
    for msg in extra_violations.drain(..) {
        if violations.len() < MAX_VIOLATIONS_KEPT {
            violations.push(msg);
        }
    }
    Certificate {
        theorem: g.theorem,
        scheme: scheme_name.into(),
        params: params.to_json(),
        clauses,
        witness: routes.witness,
        violations,
        violation_count,
    }
}

/// Certifies a labeled scheme against its guarantee: exhaustive route
/// audit over `pairs`, per-node table audit, label-size and
/// label-bijection checks.
pub fn certify_labeled<S>(
    m: &MetricSpace,
    scheme: &S,
    g: &Guarantee,
    params: &Params,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Certificate
where
    S: LabeledScheme + Certifiable + Sync,
{
    certify_labeled_with(m, m, scheme, g, params, pairs, threads)
}

/// [`certify_labeled`] with an explicit (exact) baseline backend for the
/// route audit — the spot-audit path above the exhaustive wall, where the
/// caller samples `pairs` and supplies an on-demand oracle instead of the
/// dense matrix. Table, label and header audits are unchanged (they never
/// touch distances).
///
/// # Panics
///
/// As [`audit_routes_with`].
pub fn certify_labeled_with<S>(
    m: &MetricSpace,
    oracle: &dyn DistanceProvider,
    scheme: &S,
    g: &Guarantee,
    params: &Params,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Certificate
where
    S: LabeledScheme + Certifiable + Sync,
{
    let routes = audit_routes_with(m, oracle, pairs, threads, |u, v| scheme.route_to_node(m, u, v));
    let tables = audit_tables(m.n(), |u| scheme.table_bits(u), scheme);
    let label_expr = g.label_bits.as_ref().expect("labeled guarantee must bound label bits");
    let label_clause =
        clause("label-bits", label_expr, params, scheme.label_bits() as f64, Direction::AtMost);
    let mut extra = Vec::new();
    let mut labels: Vec<_> = (0..m.n() as NodeId).map(|v| scheme.label_of(v)).collect();
    labels.sort_unstable();
    labels.dedup();
    if labels.len() != m.n() {
        extra.push(format!(
            "labels are not a bijection: {} distinct labels for {} nodes",
            labels.len(),
            m.n()
        ));
    }
    assemble(g, scheme.scheme_name(), params, routes, tables, Some(label_clause), extra)
}

/// Certifies a name-independent scheme against its guarantee: every route
/// is requested by the destination's *original name* under `naming`.
pub fn certify_name_independent<S>(
    m: &MetricSpace,
    scheme: &S,
    naming: &Naming,
    g: &Guarantee,
    params: &Params,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Certificate
where
    S: NameIndependentScheme + Certifiable + Sync,
{
    certify_name_independent_with(m, m, scheme, naming, g, params, pairs, threads)
}

/// [`certify_name_independent`] with an explicit (exact) baseline backend
/// for the route audit; see [`certify_labeled_with`].
///
/// # Panics
///
/// As [`audit_routes_with`].
#[allow(clippy::too_many_arguments)]
pub fn certify_name_independent_with<S>(
    m: &MetricSpace,
    oracle: &dyn DistanceProvider,
    scheme: &S,
    naming: &Naming,
    g: &Guarantee,
    params: &Params,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Certificate
where
    S: NameIndependentScheme + Certifiable + Sync,
{
    let routes =
        audit_routes_with(m, oracle, pairs, threads, |u, v| scheme.route(m, u, naming.name_of(v)));
    let tables = audit_tables(m.n(), |u| scheme.table_bits(u), scheme);
    assemble(g, scheme.scheme_name(), params, routes, tables, None, Vec::new())
}

/// Outcome of a post-repair spot audit: the sampled route audit plus the
/// full table re-price, with a single pass/fail verdict for the
/// maintenance ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotAudit {
    /// Sampled differential route audit over active pairs.
    pub routes: RouteAudit,
    /// Per-node enumerated-vs-claimed table re-price (all physical nodes).
    pub tables: TableAudit,
}

impl SpotAudit {
    /// Whether the audited tables are certifiably consistent: every sampled
    /// route delivered and replayed cleanly, and every node's claimed table
    /// bits match the re-priced enumeration.
    pub fn ok(&self) -> bool {
        self.routes.failures == 0
            && self.routes.violation_count == 0
            && self.tables.mismatch_count == 0
    }
}

/// Spot-audits a scheme after an incremental repair: [`audit_routes`] over
/// the caller-sampled (active) `pairs` and [`audit_tables`] over all
/// physical nodes.
///
/// Unlike [`certify_labeled`] this does **not** require the labels to
/// biject over all of `V` — under an active overlay, inactive nodes carry
/// no label, so the bijection check would reject perfectly healthy
/// repaired tables. Route delivery and table re-pricing are exactly the
/// checks a maintenance batch needs to certify.
pub fn spot_audit<C, F>(
    m: &MetricSpace,
    scheme: &C,
    claimed: impl Fn(NodeId) -> u64,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    route_fn: F,
) -> SpotAudit
where
    C: Certifiable,
    F: Fn(NodeId, NodeId) -> Result<Route, RouteError> + Sync,
{
    let routes = audit_routes(m, pairs, threads, route_fn);
    let tables = audit_tables(m.n(), claimed, scheme);
    SpotAudit { routes, tables }
}

/// Certifies Theorem 1.3 (no name-independent scheme beats stretch 9):
/// plays the adversarial search game on the lower-bound tree for each
/// `ε ∈ eps_values` and checks the optimized searcher's worst case stays
/// `≥ 9 − ε` — the direction is *at-least*, since the theorem is a lower
/// bound on what any scheme must pay.
pub fn certify_lower_bound(
    eps_values: &[u64],
    tree_size: usize,
    iters: usize,
    seed: u64,
) -> Certificate {
    let mut clauses = Vec::new();
    for &eps in eps_values {
        let t = LowerBoundTree::new(LbParams::from_eps(eps, 1), tree_size);
        let order = game::optimize_order(&t, iters, seed);
        let (stretch, _) = game::worst_case_stretch(&t, &order);
        clauses.push(ClauseResult {
            name: format!("game-stretch-eps-{eps}"),
            bound_desc: format!("9 − ε (ε = {eps})"),
            bound: 9.0 - eps as f64,
            measured: stretch,
            direction: Direction::AtLeast,
        });
    }
    Certificate {
        theorem: "1.3",
        scheme: "search-game".into(),
        params: Value::Object(vec![
            ("tree_size".into(), tree_size.into()),
            ("iters".into(), iters.into()),
            ("seed".into(), seed.into()),
            ("eps_values".into(), Value::Array(eps_values.iter().map(|&e| e.into()).collect())),
        ]),
        clauses,
        witness: None,
        violations: Vec::new(),
        violation_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, Eps, MetricSpace};
    use labeled_routing::NetLabeled;
    use netsim::stats::all_pairs;

    #[test]
    fn audit_is_thread_count_invariant() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let pairs = all_pairs(m.n());
        let base = audit_routes(&m, &pairs, 1, |u, v| s.route_to_node(&m, u, v));
        for threads in [2, 3, 8] {
            let alt = audit_routes(&m, &pairs, threads, |u, v| s.route_to_node(&m, u, v));
            assert_eq!(base, alt, "audit differs at {threads} threads");
        }
        assert_eq!(base.failures, 0);
        assert_eq!(base.violation_count, 0);
        assert!(base.witness.is_some());
    }

    #[test]
    fn spot_audit_with_on_demand_oracle_matches_exhaustive_baseline() {
        use doubling_metric::OnDemandDijkstra;
        use netsim::stats::sample_pairs;
        let g = std::sync::Arc::new(gen::grid(6, 6));
        let m = MetricSpace::from_shared(std::sync::Arc::clone(&g), 1);
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let pairs = sample_pairs(m.n(), 120, 11);
        let dense = audit_routes(&m, &pairs, 2, |u, v| s.route_to_node(&m, u, v));
        let lazy = OnDemandDijkstra::new(g, 4);
        let spot = audit_routes_with(&m, &lazy, &pairs, 2, |u, v| s.route_to_node(&m, u, v));
        assert_eq!(dense, spot);
        assert_eq!(spot.violation_count, 0);
    }

    #[test]
    #[should_panic(expected = "exact distance backend")]
    fn estimated_backends_are_rejected_by_the_audit() {
        use doubling_metric::LandmarkEstimator;
        let m = MetricSpace::new(&gen::grid(4, 4));
        let lm = LandmarkEstimator::new(m.graph(), 2);
        audit_routes_with(&m, &lm, &[(0, 1)], 1, |_, _| {
            Err(netsim::route::RouteError::Internal("unused".into()))
        });
    }

    #[test]
    fn spot_audit_passes_on_healthy_overlay_tables() {
        use doubling_metric::nets::ChurnBatch;
        use netsim::maintain::Maintainable;
        use netsim::stats::sample_pairs;
        let m = MetricSpace::new(&gen::grid(6, 6));
        let mut s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        s.repair(&m, &ChurnBatch::new(vec![], vec![4, 17]));
        // Sampled pairs restricted to the active overlay.
        let pairs: Vec<_> = sample_pairs(m.n(), 80, 3)
            .into_iter()
            .filter(|&(u, v)| s.nets().is_active(u) && s.nets().is_active(v))
            .collect();
        let audit =
            spot_audit(&m, &s, |u| s.table_bits(u), &pairs, 2, |u, v| s.route_to_node(&m, u, v));
        assert!(audit.ok(), "violations: {:?}", audit.routes.violations);
        assert!(audit.tables.total_bits > 0);
    }

    #[test]
    fn lower_bound_game_certifies() {
        let cert = certify_lower_bound(&[4], 1 << 10, 200, 7);
        assert!(cert.pass(), "clauses: {:?}", cert.clauses);
        assert_eq!(cert.theorem, "1.3");
    }
}
