//! Setup: from the graph to four compiled forwarding planes that pass the
//! maintainers' epoch check, with every public call into a layer timed
//! from outside.

use std::sync::Arc;
use std::time::Instant;

use doubling_metric::graph::Graph;
use doubling_metric::{Eps, MetricSpace};
use labeled_routing::{NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane};
use name_independent::{
    ScaleFreeNameIndependent, ScaleFreeNiPlane, SimpleNameIndependent, SimpleNiPlane,
};
use netsim::maintain::{Maintainable, Maintainer, MaintainerConfig};
use netsim::plane::ForwardingPlane;
use netsim::Naming;
use obs::alloc;
use obs::Tracer;

/// ε of every scheme (as in the repository's serving experiment).
pub const EPS_INV: u64 = 8;

/// The compiled forwarding planes, one per scheme.
pub struct Planes {
    /// Net-labeled plane (with a packed name directory).
    pub nl: NetLabeledPlane,
    /// Scale-free labeled plane (with a packed name directory).
    pub sfl: ScaleFreeLabeledPlane,
    /// Simple name-independent plane.
    pub sni: SimpleNiPlane,
    /// Scale-free name-independent plane.
    pub sfni: ScaleFreeNiPlane,
}

impl Planes {
    /// The planes in [`crate::workload::SCHEMES`] order.
    pub fn all(&self) -> [&dyn ForwardingPlane; 4] {
        [&self.nl, &self.sfl, &self.sni, &self.sfni]
    }

    /// Packed bits of each plane.
    pub fn bits(&self) -> [u64; 4] {
        self.all().map(|p| p.packed_bits())
    }
}

/// What setup produces: the metric, the four schemes under maintainers,
/// and their current planes.
pub struct Tables {
    /// The dense metric the schemes (and today's planes) read.
    pub m: MetricSpace,
    /// Net-labeled scheme.
    pub nl: Maintainer<NetLabeled>,
    /// Scale-free labeled scheme.
    pub sfl: Maintainer<ScaleFreeLabeled>,
    /// Simple name-independent scheme.
    pub sni: Maintainer<SimpleNameIndependent>,
    /// Scale-free name-independent scheme.
    pub sfni: Maintainer<ScaleFreeNameIndependent>,
    /// Planes compiled at each maintainer's current epoch.
    pub planes: Planes,
}

/// Timings and byte counts of one setup.
#[derive(Debug, Clone, Default)]
pub struct SetupRun {
    /// Wall time from the graph to four epoch-checked planes.
    pub total_s: f64,
    /// All-pairs Dijkstra (from `MetricSpace::build_profiled`'s profile).
    pub apsp_s: f64,
    /// Sorted-row construction (same profile).
    pub rows_s: f64,
    /// The whole `MetricSpace::build_profiled` call.
    pub metric_s: f64,
    /// Live heap the built `MetricSpace` retains (its sorted rows and its
    /// APSP matrix).
    pub metric_bytes: u64,
    /// Each scheme constructor.
    pub build_s: [f64; 4],
    /// Each plane `compile` plus its epoch check.
    pub compile_s: [f64; 4],
    /// Peak live heap above the pre-setup level.
    pub peak_bytes: u64,
    /// Live heap the serving path needs: the metric plus the four planes.
    pub resident_bytes: u64,
    /// Allocation calls during setup.
    pub allocs: u64,
    /// Bytes allocated during setup (not net of frees).
    pub alloc_bytes: u64,
    /// Total microseconds per span name, when the setup was traced.
    pub spans: Vec<(&'static str, u64)>,
    /// Microseconds inside the constructors' outermost spans, when traced.
    pub top_span_us: u64,
}

impl SetupRun {
    /// Total microseconds of the spans called `name` (0 if none).
    pub fn span_us(&self, name: &str) -> u64 {
        self.spans.iter().filter(|(s, _)| *s == name).map(|&(_, us)| us).sum()
    }
}

/// Times `f`, returning its value and the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Builds the metric, the four schemes and their planes on the calling
/// thread. With `traced`, the scheme constructors record their phase
/// spans into a recording tracer and the totals land in
/// [`SetupRun::spans`].
///
/// # Errors
///
/// A scheme constructor rejecting ε, or a fresh plane failing the epoch
/// check.
pub fn build(
    graph: &Arc<Graph>,
    naming: &Naming,
    traced: bool,
) -> Result<(Tables, SetupRun), String> {
    let eps = Eps::one_over(EPS_INV);
    let tracer = if traced { Tracer::recording() } else { Tracer::noop() };
    let cfg = MaintainerConfig::default();
    let mut run = SetupRun::default();
    alloc::reset_peak_bytes();
    let base_live = alloc::live_bytes();
    let (allocs0, bytes0) = (alloc::allocation_count(), alloc::allocated_bytes());
    let t_all = Instant::now();

    let ((m, profile), metric_s) = timed(|| MetricSpace::build_profiled(Arc::clone(graph), 1));
    run.metric_s = metric_s;
    run.apsp_s = profile.apsp.wall_us as f64 / 1e6;
    run.rows_s = profile.rows.wall_us as f64 / 1e6;
    drop(profile);
    run.metric_bytes = alloc::live_bytes().saturating_sub(base_live);
    let mut resident = run.metric_bytes;
    let n = m.n();
    let err = |e: labeled_routing::SchemeError| e.to_string();

    let (nl, s) = timed(|| NetLabeled::new_traced(&m, eps, &tracer));
    run.build_s[0] = s;
    let nl = Maintainer::new(n, nl.map_err(err)?, cfg);
    let (sfl, s) = timed(|| ScaleFreeLabeled::new_traced(&m, eps, &tracer));
    run.build_s[1] = s;
    let sfl = Maintainer::new(n, sfl.map_err(err)?, cfg);
    let (sni, s) = timed(|| SimpleNameIndependent::new_traced(&m, eps, naming.clone(), &tracer));
    run.build_s[2] = s;
    let sni = Maintainer::new(n, sni.map_err(err)?, cfg);
    let (sfni, s) =
        timed(|| ScaleFreeNameIndependent::new_traced(&m, eps, naming.clone(), &tracer));
    run.build_s[3] = s;
    let sfni = Maintainer::new(n, sfni.map_err(err)?, cfg);

    let (planes, compile_s, plane_bytes) = compile_planes(&m, &nl, &sfl, &sni, &sfni, naming)?;
    run.compile_s = compile_s;
    resident += plane_bytes;
    run.total_s = t_all.elapsed().as_secs_f64();

    run.peak_bytes = alloc::peak_bytes().saturating_sub(base_live);
    run.resident_bytes = resident;
    run.allocs = alloc::allocation_count() - allocs0;
    run.alloc_bytes = alloc::allocated_bytes() - bytes0;
    let log = tracer.finish();
    run.top_span_us = log.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_us).sum();
    for s in &log.spans {
        match run.spans.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, us)) => *us += s.dur_us,
            None => run.spans.push((s.name, s.dur_us)),
        }
    }
    Ok((Tables { m, nl, sfl, sni, sfni, planes }, run))
}

/// Compiles one plane at its maintainer's epoch and runs the epoch check;
/// returns the plane, the seconds both took, and the bytes the plane
/// retains.
fn compile_checked<S: Maintainable, P: ForwardingPlane>(
    mt: &Maintainer<S>,
    compile: impl FnOnce(&S, u64) -> P,
) -> Result<(P, f64, u64), String> {
    let live0 = alloc::live_bytes();
    let t = Instant::now();
    let plane = compile(mt.scheme(), mt.epoch());
    mt.check_plane(&plane).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok((plane, secs, alloc::live_bytes().saturating_sub(live0)))
}

/// Compiles all four planes from the maintainers' current schemes and
/// epoch-checks each: returns the planes, the seconds per plane, and the
/// bytes the planes retain.
///
/// # Errors
///
/// A fresh plane failing its maintainer's epoch check.
pub fn compile_planes(
    m: &MetricSpace,
    nl: &Maintainer<NetLabeled>,
    sfl: &Maintainer<ScaleFreeLabeled>,
    sni: &Maintainer<SimpleNameIndependent>,
    sfni: &Maintainer<ScaleFreeNameIndependent>,
    naming: &Naming,
) -> Result<(Planes, [f64; 4], u64), String> {
    let (nl, s0, b0) =
        compile_checked(nl, |s, epoch| NetLabeledPlane::compile(m, s, Some(naming), epoch))?;
    let (sfl, s1, b1) =
        compile_checked(sfl, |s, epoch| ScaleFreeLabeledPlane::compile(m, s, Some(naming), epoch))?;
    let (sni, s2, b2) = compile_checked(sni, |s, epoch| SimpleNiPlane::compile(m, s, epoch))?;
    let (sfni, s3, b3) = compile_checked(sfni, |s, epoch| ScaleFreeNiPlane::compile(m, s, epoch))?;
    Ok((Planes { nl, sfl, sni, sfni }, [s0, s1, s2, s3], b0 + b1 + b2 + b3))
}
