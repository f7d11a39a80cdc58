//! Shared metric cache: build each `(family, n, seed)` metric once.
//!
//! Every experiment evaluates up to four routing schemes on the same
//! graph, and a single binary often runs several experiments over the
//! same families. The `Θ(n²)`-time/-space [`MetricSpace`] build dwarfs
//! everything else at scale, so [`MetricCache`] memoizes it: the first
//! request for a key runs the (optionally parallel) build and stores the
//! result behind an [`Arc`]; every later request is a pointer clone.
//!
//! The cache keeps **build/hit counters** and emits a
//! `metric-cache-build` / `metric-cache-hit` event per lookup when handed
//! a recording [`Tracer`], so a trace proves each metric was built
//! exactly once (the acceptance check the `profile`/`churn` binaries
//! surface in their JSON output via [`MetricCache::stats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use doubling_metric::OnDemandDijkstra;
use doubling_metric::{gen, DistanceProvider, Graph, LandmarkEstimator, MetricSpace};
use netsim::json::Value;
use obs::Tracer;

/// Cache key: a family/generator name plus the `(n, seed)` it was built
/// with. Generators that ignore the seed (e.g. `exp_weight_path`) use 0.
pub type MetricKey = (String, usize, u64);

/// Build/hit counters for one cache; see [`MetricCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of metrics built (misses).
    pub builds: u64,
    /// Number of lookups served from the cache.
    pub hits: u64,
}

impl CacheStats {
    /// The stats as a JSON object (`{"builds": .., "hits": ..}`).
    pub fn to_json(self) -> Value {
        Value::Object(vec![
            ("builds".into(), self.builds.into()),
            ("hits".into(), self.hits.into()),
        ])
    }
}

/// Which [`DistanceProvider`] backend a caller wants from the cache; see
/// [`MetricCache::provider`]. The selection rules live in DESIGN.md
/// ("Distance backends"): `Exact` below the `Θ(n²)` wall or whenever a
/// certificate is produced, `OnDemand` for exact spot checks at scale,
/// `Landmarks` only for bracketing estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceBackend {
    /// The dense APSP matrix inside the cached [`MetricSpace`] — exact,
    /// `Θ(n²)` memory, builds the full metric on first use.
    Exact,
    /// [`OnDemandDijkstra`] over the cached graph — exact, keeps at most
    /// `rows` source rows, never builds the dense matrix.
    OnDemand {
        /// LRU capacity in source rows.
        rows: usize,
    },
    /// [`LandmarkEstimator`] over the cached graph — estimated
    /// (lower/upper bracket only), `count` landmarks.
    Landmarks {
        /// Number of farthest-point landmarks.
        count: usize,
    },
}

impl DistanceBackend {
    /// Cache-key suffix distinguishing backend variants.
    fn key(self) -> String {
        match self {
            DistanceBackend::Exact => "exact".into(),
            DistanceBackend::OnDemand { rows } => format!("ondemand:{rows}"),
            DistanceBackend::Landmarks { count } => format!("landmarks:{count}"),
        }
    }
}

/// A memoizing store of [`MetricSpace`]s keyed by `(family, n, seed)`.
pub struct MetricCache {
    threads: usize,
    map: Mutex<HashMap<MetricKey, Arc<MetricSpace>>>,
    graphs: Mutex<HashMap<MetricKey, Arc<Graph>>>,
    providers: Mutex<HashMap<(MetricKey, String), Arc<dyn DistanceProvider>>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl MetricCache {
    /// An empty cache whose builds use up to `threads` worker threads
    /// (the `--threads` flag; 1 = sequential, results identical anyway).
    pub fn new(threads: usize) -> Self {
        MetricCache {
            threads: threads.max(1),
            map: Mutex::new(HashMap::new()),
            graphs: Mutex::new(HashMap::new()),
            providers: Mutex::new(HashMap::new()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Worker threads used for cache-miss builds.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The metric of `family.build(n, seed)`, built on first use; see
    /// [`MetricCache::get_or_build_traced`] for what `tracer` records.
    pub fn family_traced(
        &self,
        f: gen::Family,
        n: usize,
        seed: u64,
        tracer: &Tracer,
    ) -> Arc<MetricSpace> {
        self.get_or_build_traced(f.name(), n, seed, tracer, || f.build(n, seed))
    }

    /// The metric for an arbitrary generator under an explicit key name;
    /// `build` runs only on the first request for `(name, n, seed)`.
    /// Every lookup logs a `metric-cache-build` or `metric-cache-hit`
    /// event (fields: family, n, seed) to `tracer`, and a build records
    /// its `metric-build` span with the per-phase children.
    pub fn get_or_build_traced(
        &self,
        name: &str,
        n: usize,
        seed: u64,
        tracer: &Tracer,
        build: impl FnOnce() -> Graph,
    ) -> Arc<MetricSpace> {
        let key = (name.to_string(), n, seed);
        if let Some(m) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            tracer.event_lazy("metric-cache-hit", || cache_fields(name, n, seed));
            return Arc::clone(m);
        }
        // Build outside the lock: misses are rare and expensive, and the
        // experiment drivers are single-threaded per cache, so a
        // duplicate concurrent build is not a concern worth serializing
        // every Dijkstra behind a held mutex for. If two threads do race,
        // both builds are byte-identical and the second insert wins.
        self.builds.fetch_add(1, Ordering::Relaxed);
        tracer.event_lazy("metric-cache-build", || cache_fields(name, n, seed));
        let graph = self.graph_or_insert(&key, build);
        let m = {
            let _span = tracer.span("metric-build");
            let (m, profile) = MetricSpace::build_profiled(graph, self.threads);
            obs::phase::record_build_profile(tracer, &profile);
            Arc::new(m)
        };
        self.map.lock().unwrap().insert(key, Arc::clone(&m));
        m
    }

    /// The shared graph for `key`, building (and memoizing) it if absent.
    fn graph_or_insert(&self, key: &MetricKey, build: impl FnOnce() -> Graph) -> Arc<Graph> {
        let mut graphs = self.graphs.lock().unwrap();
        if let Some(g) = graphs.get(key) {
            return Arc::clone(g);
        }
        let g = Arc::new(build());
        graphs.insert(key.clone(), Arc::clone(&g));
        g
    }

    /// The shared graph of `family.build(n, seed)` *without* triggering
    /// the `Θ(n²)` metric build — the entry point for backends that scale
    /// past the dense-matrix wall.
    pub fn graph(&self, f: gen::Family, n: usize, seed: u64) -> Arc<Graph> {
        let key = (f.name().to_string(), n, seed);
        self.graph_or_insert(&key, || f.build(n, seed))
    }

    /// A memoized [`DistanceProvider`] over `family.build(n, seed)`.
    ///
    /// [`DistanceBackend::Exact`] builds (or reuses) the full
    /// [`MetricSpace`]; the other backends only need the graph, so they
    /// stay `O(capacity · n)` / `O(count · n)` even at `n` far beyond the
    /// dense-matrix wall. Providers are cached per `(key, backend)` so
    /// repeated requests share row caches and landmark tables.
    pub fn provider(
        &self,
        f: gen::Family,
        n: usize,
        seed: u64,
        backend: DistanceBackend,
    ) -> Arc<dyn DistanceProvider> {
        let key = (f.name().to_string(), n, seed);
        let pkey = (key.clone(), backend.key());
        if let Some(p) = self.providers.lock().unwrap().get(&pkey) {
            return Arc::clone(p);
        }
        let provider: Arc<dyn DistanceProvider> = match backend {
            DistanceBackend::Exact => self.family_traced(f, n, seed, &Tracer::noop()),
            DistanceBackend::OnDemand { rows } => {
                Arc::new(OnDemandDijkstra::new(self.graph(f, n, seed), rows))
            }
            DistanceBackend::Landmarks { count } => {
                Arc::new(LandmarkEstimator::new(&self.graph(f, n, seed), count))
            }
        };
        self.providers.lock().unwrap().insert(pkey, Arc::clone(&provider));
        provider
    }

    /// Current build/hit counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }
}

fn cache_fields(name: &str, n: usize, seed: u64) -> Vec<(&'static str, Value)> {
    vec![("family", Value::Str(name.to_string())), ("n", (n as u64).into()), ("seed", seed.into())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_shares_the_arc() {
        let cache = MetricCache::new(1);
        let a = cache.family_traced(gen::Family::Grid, 16, 3, &Tracer::noop());
        let b = cache.family_traced(gen::Family::Grid, 16, 3, &Tracer::noop());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { builds: 1, hits: 1 });
        // A different key is a different build.
        let c = cache.family_traced(gen::Family::Grid, 16, 4, &Tracer::noop());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), CacheStats { builds: 2, hits: 1 });
    }

    #[test]
    fn cached_metric_equals_direct_build() {
        let cache = MetricCache::new(2);
        let m = cache.family_traced(gen::Family::Geometric, 36, 7, &Tracer::noop());
        let direct = MetricSpace::new(&gen::Family::Geometric.build(36, 7));
        assert_eq!(*m, direct);
    }

    #[test]
    fn custom_generator_keys_work() {
        let cache = MetricCache::new(1);
        let mut calls = 0;
        let noop = Tracer::noop();
        let a = cache.get_or_build_traced("exp-path", 12, 0, &noop, || {
            calls += 1;
            gen::exp_weight_path(12)
        });
        let b = cache.get_or_build_traced("exp-path", 12, 0, &noop, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls, 1);
    }

    #[test]
    fn on_demand_provider_never_builds_the_dense_metric() {
        let cache = MetricCache::new(1);
        let p = cache.provider(gen::Family::Grid, 25, 3, DistanceBackend::OnDemand { rows: 4 });
        assert!(p.is_exact());
        assert!(p.dist(0, 24) > 0);
        // No Θ(n²) build happened — only the graph was generated.
        assert_eq!(cache.stats().builds, 0);
        // The exact backend *does* build, and agrees with the lazy one.
        let exact = cache.provider(gen::Family::Grid, 25, 3, DistanceBackend::Exact);
        assert_eq!(cache.stats().builds, 1);
        for v in 0..25 {
            assert_eq!(p.dist(0, v), exact.dist(0, v));
        }
        // Providers are memoized per backend.
        let again = cache.provider(gen::Family::Grid, 25, 3, DistanceBackend::OnDemand { rows: 4 });
        assert!(Arc::ptr_eq(&p, &again));
    }

    #[test]
    fn landmark_provider_brackets_the_exact_backend() {
        let cache = MetricCache::new(1);
        let lm = cache.provider(gen::Family::Grid, 36, 1, DistanceBackend::Landmarks { count: 4 });
        assert!(!lm.is_exact());
        let exact = cache.provider(gen::Family::Grid, 36, 1, DistanceBackend::Exact);
        for v in 1..36 {
            let b = lm.dist_bounds(0, v);
            assert!(b.contains(exact.dist(0, v)));
        }
    }

    #[test]
    fn graph_is_shared_between_backends_and_the_metric() {
        let cache = MetricCache::new(1);
        let g = cache.graph(gen::Family::Grid, 16, 2);
        let m = cache.family_traced(gen::Family::Grid, 16, 2, &Tracer::noop());
        assert!(Arc::ptr_eq(&g, &m.graph_arc()));
    }

    #[test]
    fn trace_events_prove_single_build() {
        let tracer = Tracer::recording();
        let cache = MetricCache::new(1);
        cache.family_traced(gen::Family::Grid, 9, 1, &tracer);
        cache.family_traced(gen::Family::Grid, 9, 1, &tracer);
        let log = tracer.finish();
        let names: Vec<&str> = log.events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["metric-cache-build", "metric-cache-hit"]);
        // The single build left a metric-build span with the per-phase /
        // per-worker (threads = 1 → one worker each) children.
        let spans: Vec<&str> = log.spans.iter().map(|s| s.name).collect();
        assert_eq!(spans, ["metric-build", "apsp", "apsp-worker", "sort-rows", "sort-rows-worker"]);
        assert!(log.spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(
            log.events[0].fields.iter().find(|(k, _)| *k == "family").map(|(_, v)| v.clone()),
            Some(Value::Str("grid".into()))
        );
    }
}
