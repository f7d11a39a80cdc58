//! Differential tests: parallel evaluation must be *field-for-field*
//! identical to sequential evaluation at every thread count.
//!
//! Workers only route; aggregation runs on the calling thread chunk by
//! chunk in pair order, so floating-point accumulation happens in exactly
//! the sequential order — `assert_eq!` on the whole [`EvalResult`] (which
//! derives `PartialEq`, including the `f64` stretch fields) is therefore
//! exact, not approximate. The same ordering means an observer sees the
//! identical `(u, v, result)` sequence at any thread count.

use doubling_metric::gen;
use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::naming::Naming;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Deliver, Labeled, Named};
use netsim::stats::{all_pairs, eval, EvalResult};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Everything one observer saw, in call order.
type Observed = Vec<(NodeId, NodeId, Result<Route, RouteError>)>;

/// Evaluates `d` on `threads` threads, recording every observation.
fn observed(
    d: &dyn Deliver,
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> (EvalResult, Observed) {
    let mut seen = Vec::with_capacity(pairs.len());
    let res = eval(d, m, pairs, threads, |u, v, r| seen.push((u, v, r.clone())));
    (res, seen)
}

/// Asserts equality of results and of observer sequences against the
/// single-threaded run.
fn assert_par_matches_seq(d: &dyn Deliver, m: &MetricSpace, pairs: &[(NodeId, NodeId)]) {
    let seq = eval(d, m, pairs, 1, |_, _, _| {});
    let (_, seq_seen) = observed(d, m, pairs, 1);
    assert_eq!(seq_seen.len(), pairs.len());
    for t in THREAD_COUNTS {
        assert_eq!(seq, eval(d, m, pairs, t, |_, _, _| {}), "{}, {t} threads", d.scheme_name());
        let (res, seen) = observed(d, m, pairs, t);
        assert_eq!(seq, res, "{}, observed, {t} threads", d.scheme_name());
        assert_eq!(seq_seen, seen, "{}: observer sequence at {t} threads", d.scheme_name());
    }
}

#[test]
fn labeled_par_eval_matches_sequential_exactly() {
    for graph in [gen::grid(6, 6), gen::random_geometric(40, 420, 9)] {
        let m = MetricSpace::new(&graph);
        let eps = Eps::one_over(8);
        let pairs = all_pairs(m.n());

        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        assert_par_matches_seq(&Labeled(&nl), &m, &pairs);

        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps within range");
        assert_par_matches_seq(&Labeled(&sfl), &m, &pairs);
    }
}

#[test]
fn name_independent_par_eval_matches_sequential_exactly() {
    for graph in [gen::grid(6, 6), gen::random_geometric(40, 420, 9)] {
        let m = MetricSpace::new(&graph);
        let eps = Eps::one_over(8);
        let naming = Naming::random(m.n(), 17);
        let pairs = all_pairs(m.n());

        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        assert_par_matches_seq(&Named(&sni, &naming), &m, &pairs);

        let sfni =
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        assert_par_matches_seq(&Named(&sfni, &naming), &m, &pairs);
    }
}

/// Degenerate inputs: an empty pair list and a single pair must also agree
/// (they exercise the `threads > pairs` clamping path).
#[test]
fn par_eval_matches_on_degenerate_pair_lists() {
    let m = MetricSpace::new(&gen::grid(3, 3));
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).expect("eps within range");
    for pairs in [Vec::new(), vec![(0u32, 8u32)]] {
        assert_par_matches_seq(&Labeled(&nl), &m, &pairs);
    }
}
