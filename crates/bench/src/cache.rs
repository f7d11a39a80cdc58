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

use doubling_metric::{gen, Graph, MetricSpace};
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

/// A memoizing store of [`MetricSpace`]s keyed by `(family, n, seed)`.
pub struct MetricCache {
    threads: usize,
    map: Mutex<HashMap<MetricKey, Arc<MetricSpace>>>,
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
        let graph = Arc::new(build());
        let m = {
            let _span = tracer.span("metric-build");
            let (m, profile) = MetricSpace::build_profiled(graph, self.threads);
            obs::phase::record_build_profile(tracer, &profile);
            Arc::new(m)
        };
        self.map.lock().unwrap().insert(key, Arc::clone(&m));
        m
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
