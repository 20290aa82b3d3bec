//! Content-addressed caches that make the daemon cheap per-request.
//!
//! The two expensive request-independent stages of a prediction are
//! parsing/lowering the annotated model and compiling a benchmark table
//! into sampler form. A one-shot CLI run pays both every time; the daemon
//! pays each exactly once per distinct content and answers every later
//! request from the cache.
//!
//! Models are keyed by their source text (a hit compares the bytes, so no
//! client can collide two sources), tables by the FNV-1a hash of their
//! `PEVPM-DIST v1` serialization (computed once at table load). Both caches
//! are bounded with one clear-on-full policy — an epoch flush is
//! deterministic, cheap, and cannot leak under adversarial key streams.
//!
//! Each wipe increments the shared `serve.cache.evictions` counter and
//! resets the cache's epoch-local hit-rate gauge
//! (`serve.model_cache_hit_rate` / `serve.table_cache_hit_rate`), so a
//! `/metrics` scrape never shows a ratio computed across a flush. The
//! lifetime hit/miss counters keep accumulating across epochs.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pevpm::timing::{PredictionMode, TimingModel};
use pevpm::Model;
use pevpm_dist::{CompileOptions, DistTable};
use pevpm_obs::{Counter, Gauge, Registry};

use crate::plan::{self, PlanError};

/// Upper bound on distinct cached models / timing models. Small because
/// entries are whole lowered models; a serve deployment rarely cycles
/// through more than a handful of model sources and machine tables.
pub const CACHE_CAP: usize = 256;

/// 64-bit FNV-1a over raw bytes — the workspace's standard dependency-free
/// content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Epoch-local hit-rate tracking behind a gauge: lookups and hits since
/// the last clear-on-full wipe. Reset alongside the map so the exported
/// ratio always describes the *current* cache contents.
struct HitRate {
    gauge: Arc<Gauge>,
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl HitRate {
    fn new(gauge: Arc<Gauge>) -> Self {
        gauge.set(0.0);
        HitRate {
            gauge,
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
        }
    }

    fn observe(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        let lookups = self.lookups.fetch_add(1, Ordering::Relaxed) + 1;
        let hits = self.hits.load(Ordering::Relaxed);
        self.gauge.set(hits as f64 / lookups as f64);
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.lookups.store(0, Ordering::Relaxed);
        self.gauge.set(0.0);
    }
}

/// The one bounded store both caches are typed fronts over: lookup,
/// build on miss, clear-on-full insert, and the counters and hit-rate
/// gauge named on [`ModelCache::new`] / [`TimingCache::new`].
struct Store<K, V, S = RandomState> {
    map: Mutex<HashMap<K, Arc<V>, S>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    compiles: Arc<Counter>,
    evictions: Arc<Counter>,
    hit_rate: HitRate,
}

impl<K: Eq + Hash, V, S: BuildHasher> Store<K, V, S> {
    fn new(registry: &Registry, what: &str, hasher: S) -> Self {
        Store {
            map: Mutex::new(HashMap::with_hasher(hasher)),
            hits: registry.counter(&format!("serve.{what}_cache_hits")),
            misses: registry.counter(&format!("serve.{what}_cache_misses")),
            compiles: registry.counter(&format!("serve.{what}_compiles")),
            evictions: registry.counter("serve.cache.evictions"),
            hit_rate: HitRate::new(registry.gauge(&format!("serve.{what}_cache_hit_rate"))),
        }
    }

    /// The cached value for `key`, built (and cached) on first sight; a
    /// failed build caches nothing. The second element reports whether the
    /// lookup was a cache hit.
    fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, PlanError>,
    ) -> Result<(Arc<V>, bool), PlanError> {
        let cached = self.map.lock().ok().and_then(|map| map.get(&key).cloned());
        self.hit_rate.observe(cached.is_some());
        if let Some(value) = cached {
            self.hits.inc();
            return Ok((value, true));
        }
        self.misses.inc();
        let value = Arc::new(build()?);
        self.compiles.inc();
        if let Ok(mut map) = self.map.lock() {
            if map.len() >= CACHE_CAP {
                map.clear();
                self.evictions.inc();
                self.hit_rate.reset();
            }
            map.insert(key, Arc::clone(&value));
        }
        Ok((value, false))
    }
}

/// Parsed-and-lowered models keyed by their source text.
pub struct ModelCache<S = RandomState>(Store<Arc<str>, Model, S>);

impl ModelCache {
    /// A cache whose hit/miss/compile counters live in `registry` under
    /// `serve.model_cache_hits`, `serve.model_cache_misses` and
    /// `serve.model_compiles`, with an epoch-local
    /// `serve.model_cache_hit_rate` gauge and the shared
    /// `serve.cache.evictions` counter.
    pub fn new(registry: &Registry) -> Self {
        ModelCache(Store::new(registry, "model", RandomState::new()))
    }
}

impl<S: BuildHasher> ModelCache<S> {
    /// The cached model for `src`, parsing (and caching) it on first
    /// sight. `origin` labels parse errors. The second element reports
    /// whether the lookup was a cache hit.
    pub fn get_or_parse(&self, src: &str, origin: &str) -> Result<(Arc<Model>, bool), PlanError> {
        self.0
            .get_or_build(Arc::from(src), || plan::parse_model(src, origin))
    }
}

/// Cache key for a built timing model: which table content, which
/// prediction mode, and every compile option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingKey {
    /// FNV-1a of the table's canonical serialization.
    pub table_hash: u64,
    /// Prediction-mode discriminant.
    pub mode: u8,
    /// Ping-pong-only slice of the database.
    pub pingpong: bool,
    /// Exact-bisection quantiles instead of the LUT.
    pub exact_quantiles: bool,
}

impl TimingKey {
    /// The key for a (table, request-shape) pair.
    pub fn new(
        table_hash: u64,
        mode: PredictionMode,
        pingpong: bool,
        options: CompileOptions,
    ) -> Self {
        let mode = match mode {
            PredictionMode::FullDistribution => 0,
            PredictionMode::Average => 1,
            PredictionMode::Minimum => 2,
        };
        // Destructured so a new compile option cannot be left out of the key.
        let CompileOptions { exact_quantiles } = options;
        TimingKey {
            table_hash,
            mode,
            pingpong,
            exact_quantiles,
        }
    }
}

/// Compiled timing models keyed by table content and request shape.
pub struct TimingCache(Store<TimingKey, TimingModel>);

impl TimingCache {
    /// A cache whose counters live in `registry` under
    /// `serve.table_cache_hits`, `serve.table_cache_misses` and
    /// `serve.table_compiles`, with an epoch-local
    /// `serve.table_cache_hit_rate` gauge and the shared
    /// `serve.cache.evictions` counter.
    pub fn new(registry: &Registry) -> Self {
        TimingCache(Store::new(registry, "table", RandomState::new()))
    }

    /// The cached timing model for this (table, shape), building it on
    /// first sight. `table_hash` must be the hash of `table`'s canonical
    /// serialization (the daemon computes it once at load). The second
    /// element reports whether the lookup was a cache hit.
    pub fn get_or_build(
        &self,
        table_hash: u64,
        table: &DistTable,
        mode: PredictionMode,
        pingpong: bool,
        options: CompileOptions,
    ) -> Result<(Arc<TimingModel>, bool), PlanError> {
        let key = TimingKey::new(table_hash, mode, pingpong, options);
        self.0
            .get_or_build(key, || plan::build_timing(table, mode, pingpong, options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
// PEVPM Runon c1 = procnum == 0
// PEVPM &     c2 = procnum == 1
// PEVPM {
// PEVPM Message type = MPI_Send
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
// PEVPM {
// PEVPM Message type = MPI_Recv
// PEVPM &       size = 1024
// PEVPM &       from = 0
// PEVPM &       to = 1
// PEVPM }
";

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn model_cache_parses_each_distinct_source_once() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        let (a, hit_a) = cache.get_or_parse(SRC, "t").unwrap();
        let (b, hit_b) = cache.get_or_parse(SRC, "t").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!hit_a, "first sight is a miss");
        assert!(hit_b, "second sight is a hit");
        assert_eq!(reg.counter("serve.model_compiles").get(), 1);
        assert_eq!(reg.counter("serve.model_cache_hits").get(), 1);
        assert_eq!(reg.counter("serve.model_cache_misses").get(), 1);
        assert_eq!(reg.gauge("serve.model_cache_hit_rate").get(), 0.5);
    }

    /// Every key hashes alike: the map can tell sources apart only by
    /// comparing them, which is exactly what a colliding client tests.
    #[derive(Clone, Copy)]
    struct OneHash;

    impl BuildHasher for OneHash {
        type Hasher = OneHash;
        fn build_hasher(&self) -> OneHash {
            OneHash
        }
    }

    impl std::hash::Hasher for OneHash {
        fn finish(&self) -> u64 {
            0x5eed
        }
        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn sources_with_one_hash_get_two_models() {
        let reg = Registry::new();
        let cache = ModelCache(Store::new(&reg, "model", OneHash));
        let other = SRC.replace("size = 1024", "size = 2048");
        let (a, _) = cache.get_or_parse(SRC, "t").unwrap();
        let (b, hit) = cache.get_or_parse(&other, "t").unwrap();
        assert!(!hit, "a colliding source is a miss, not a hit on the other");
        assert_ne!(*a, *b, "each source gets its own model");
        assert_eq!(*b, plan::parse_model(&other, "t").unwrap());
        let (again, hit) = cache.get_or_parse(SRC, "t").unwrap();
        assert!(hit && Arc::ptr_eq(&a, &again));
        assert_eq!(reg.counter("serve.model_compiles").get(), 2);
    }

    #[test]
    fn parse_failures_are_not_cached_as_successes() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        assert!(cache
            .get_or_parse("// PEVPM Loop iterations =", "t")
            .is_err());
        assert!(cache
            .get_or_parse("// PEVPM Loop iterations =", "t")
            .is_err());
        assert_eq!(reg.counter("serve.model_compiles").get(), 0);
        assert_eq!(reg.counter("serve.model_cache_misses").get(), 2);
    }

    #[test]
    fn timing_cache_distinguishes_request_shape_not_just_table() {
        let table = pevpm_bench_table();
        let hash = fnv1a(pevpm_dist::io::write_table(&table).as_bytes());
        let reg = Registry::new();
        let cache = TimingCache::new(&reg);
        let opts = CompileOptions::default();
        let (a, _) = cache
            .get_or_build(hash, &table, PredictionMode::FullDistribution, false, opts)
            .unwrap();
        let (b, hit) = cache
            .get_or_build(hash, &table, PredictionMode::FullDistribution, false, opts)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(hit);
        assert_eq!(reg.counter("serve.table_compiles").get(), 1);
        // Same table, different mode: a distinct compiled artifact.
        cache
            .get_or_build(hash, &table, PredictionMode::Average, false, opts)
            .unwrap();
        assert_eq!(reg.counter("serve.table_compiles").get(), 2);
        assert_eq!(reg.counter("serve.table_cache_hits").get(), 1);
    }

    #[test]
    fn clear_on_full_resets_the_hit_rate_epoch() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        // Distinct sources: vary an annotation constant so every source
        // parses but hashes differently.
        let src_n = |n: usize| SRC.replace("size = 1024", &format!("size = {}", 1024 + n * 8));
        for n in 0..CACHE_CAP {
            cache.get_or_parse(&src_n(n), "t").unwrap();
        }
        // A warm hit inside the first epoch pushes the rate above zero.
        cache.get_or_parse(&src_n(0), "t").unwrap();
        assert!(reg.gauge("serve.model_cache_hit_rate").get() > 0.0);
        assert_eq!(reg.counter("serve.cache.evictions").get(), 0);
        // The CAP+1-th distinct insert wipes the map: the evictions
        // counter ticks and the epoch hit-rate returns to a fresh state,
        // not a stale ratio spanning the wipe.
        cache.get_or_parse(&src_n(CACHE_CAP), "t").unwrap();
        assert_eq!(reg.counter("serve.cache.evictions").get(), 1);
        assert_eq!(reg.gauge("serve.model_cache_hit_rate").get(), 0.0);
        // Lifetime counters keep accumulating across the wipe.
        assert_eq!(
            reg.counter("serve.model_cache_misses").get(),
            CACHE_CAP as u64 + 1
        );
        // The next lookup starts the new epoch's ratio from scratch.
        cache.get_or_parse(&src_n(CACHE_CAP), "t").unwrap();
        assert_eq!(reg.gauge("serve.model_cache_hit_rate").get(), 1.0);

        // The timing cache wipes the same way: the evictions counter is
        // shared, the hit-rate gauge it resets is its own.
        let (timings, table) = (TimingCache::new(&reg), pevpm_bench_table());
        let build = |hash: u64| {
            let (mode, opts) = (PredictionMode::Average, CompileOptions::default());
            timings
                .get_or_build(hash, &table, mode, false, opts)
                .unwrap()
        };
        for hash in 0..CACHE_CAP as u64 {
            build(hash);
        }
        assert!(build(0).1, "a warm hit inside the first epoch");
        assert!(reg.gauge("serve.table_cache_hit_rate").get() > 0.0);
        assert_eq!(reg.counter("serve.cache.evictions").get(), 1);
        build(CACHE_CAP as u64);
        assert_eq!(reg.counter("serve.cache.evictions").get(), 2);
        assert_eq!(reg.gauge("serve.table_cache_hit_rate").get(), 0.0);
        assert_eq!(reg.gauge("serve.model_cache_hit_rate").get(), 1.0);
    }

    fn pevpm_bench_table() -> DistTable {
        let mut t = DistTable::new();
        let mut h = pevpm_dist::Histogram::new(0.0, 1e-6);
        for i in 0..32 {
            h.add(1e-6 * f64::from(i % 7));
        }
        for op in [pevpm_dist::Op::Send, pevpm_dist::Op::Recv] {
            for size in [512u64, 1024, 2048] {
                t.insert(
                    pevpm_dist::DistKey {
                        op,
                        size,
                        contention: 1,
                    },
                    pevpm_dist::CommDist::Hist(h.clone()),
                );
            }
        }
        t
    }
}
