//! The caches that make the daemon cheap per-request.
//!
//! The two expensive request-independent stages of a prediction are
//! parsing/lowering the annotated model and compiling a benchmark table
//! into sampler form. A one-shot CLI run pays both every time; the daemon
//! pays each once per distinct content while it stays cached, and answers
//! every later request from the cache.
//!
//! Models are keyed by their source as a JSON string literal spells it,
//! the way it arrives in a frame: a hit compares those bytes, so no client
//! can collide two sources, and neither decodes nor copies them. Equal
//! sources spelled with different escapes take an entry each, each one
//! correct. An entry is the lowered [`Program`], not the parsed model: the
//! syntax tree is dropped once lowered, so a hit costs only per-request
//! work and an entry holds no second copy of the model. Compiled tables
//! are keyed by the caller's name for the table — the daemon passes the
//! table's load position, since its tables never change after startup —
//! and the request shape.
//!
//! Both caches share one policy: least recently used. Every entry carries
//! the stamp of its last use, drawn from a counter under the store's
//! mutex; a hit refreshes it, and an insert into a full store first
//! evicts the entry with the smallest stamp, found by a linear scan of at
//! most [`CACHE_CAP`] entries — well under a microsecond, next to the
//! parse and lowering (tens of microseconds) that every insert follows.
//! The bound holds whatever keys clients send: the store never holds more
//! than `CACHE_CAP` entries, an insert evicts at most one, and stamps are
//! 64-bit and never wrap. An adversarial stream can only make every
//! lookup miss — cycling through more than `CACHE_CAP` sources, say —
//! which costs it what it would cost a cache that wiped itself when full,
//! while a working set that fits keeps hitting under any interleaving.
//! A build that fails caches nothing, and two workers that build the same
//! key at once keep the first entry and evict nothing for the second.
//!
//! Each eviction increments the shared `serve.cache.evictions` counter
//! once. The hit-rate gauges (`serve.model_cache_hit_rate` /
//! `serve.table_cache_hit_rate`) read hits ÷ (hits + misses) from the
//! cache's lifetime counters, so they always lie in [0, 1].

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Mutex};

use pevpm::timing::{PredictionMode, TimingModel};
use pevpm::Program;
use pevpm_dist::DistTable;
use pevpm_obs::json::{self, Str};
use pevpm_obs::{Counter, Gauge, Registry};

use crate::plan::{self, CompileOptions, PlanError};

/// Upper bound on distinct cached models / timing models. Small because
/// entries are whole lowered models; a serve deployment rarely cycles
/// through more than a handful of model sources and machine tables.
pub const CACHE_CAP: usize = 256;

/// 64-bit FNV-1a over raw bytes — the workspace's standard dependency-free
/// content hash. (No cache keys on it: client input needs a keyed hash.)
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One cached value and the stamp of its last use.
struct Entry<V> {
    value: Arc<V>,
    used: u64,
}

/// The entries and the clock their stamps come from, under one mutex.
struct Entries<K, V, S> {
    map: HashMap<K, Entry<V>, S>,
    clock: u64,
}

impl<K: Eq + Hash, V, S: BuildHasher> Entries<K, V, S> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The value under `key`, its stamp refreshed.
    fn touch<Q>(&mut self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let now = self.tick();
        let entry = self.map.get_mut(key)?;
        entry.used = now;
        Some(Arc::clone(&entry.value))
    }

    /// Drop the least recently used entry.
    fn evict_oldest(&mut self) {
        if let Some(oldest) = self.map.values().map(|e| e.used).min() {
            // Stamps are unique: this removes exactly one entry.
            self.map.retain(|_, e| e.used != oldest);
        }
    }
}

/// The one bounded store both caches are typed fronts over: lookup,
/// build on miss, least-recently-used eviction on insert, and the
/// counters and hit-rate gauge named on [`ModelCache::new`] /
/// [`TimingCache::new`].
struct Store<K, V, S = RandomState> {
    entries: Mutex<Entries<K, V, S>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    compiles: Arc<Counter>,
    evictions: Arc<Counter>,
    hit_rate: Arc<Gauge>,
}

impl<K: Eq + Hash, V, S: BuildHasher> Store<K, V, S> {
    fn new(registry: &Registry, what: &str, hasher: S) -> Self {
        Store {
            entries: Mutex::new(Entries {
                map: HashMap::with_hasher(hasher),
                clock: 0,
            }),
            hits: registry.counter(&format!("serve.{what}_cache_hits")),
            misses: registry.counter(&format!("serve.{what}_cache_misses")),
            compiles: registry.counter(&format!("serve.{what}_compiles")),
            evictions: registry.counter("serve.cache.evictions"),
            hit_rate: registry.gauge(&format!("serve.{what}_cache_hit_rate")),
        }
    }

    /// Count one lookup and publish the lifetime hit rate. Each counter
    /// only grows, so whatever a racing lookup has added by the time it
    /// is read, hits ÷ (hits + misses) lies in [0, 1].
    fn observe(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.inc();
        let hits = self.hits.get() as f64;
        let misses = self.misses.get() as f64;
        self.hit_rate.set(hits / (hits + misses));
    }

    /// The cached value for `key`, built (and cached, under an owned copy
    /// of `key`) on first sight; a failed build caches nothing. The second
    /// element reports whether the lookup was a cache hit.
    fn get_or_build<Q>(
        &self,
        key: &Q,
        build: impl FnOnce() -> Result<V, PlanError>,
    ) -> Result<(Arc<V>, bool), PlanError>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let cached = self.entries.lock().ok().and_then(|mut e| e.touch(key));
        self.observe(cached.is_some());
        if let Some(value) = cached {
            return Ok((value, true));
        }
        let value = Arc::new(build()?);
        self.compiles.inc();
        if let Ok(mut entries) = self.entries.lock() {
            // Another worker may have built this key meanwhile: its entry
            // stays, and nothing is evicted for ours.
            if let Some(cached) = entries.touch(key) {
                return Ok((cached, false));
            }
            if entries.map.len() >= CACHE_CAP {
                entries.evict_oldest();
                self.evictions.inc();
            }
            let used = entries.tick();
            let entry = Entry {
                value: Arc::clone(&value),
                used,
            };
            entries.map.insert(key.to_owned(), entry);
        }
        Ok((value, false))
    }
}

/// Lowered models keyed by their source's JSON string literal.
pub struct ModelCache<S = RandomState>(Store<String, Program, S>);

impl ModelCache {
    /// A cache whose hit/miss/compile counters live in `registry` under
    /// `serve.model_cache_hits`, `serve.model_cache_misses` and
    /// `serve.model_compiles`, with a `serve.model_cache_hit_rate` gauge
    /// and the shared `serve.cache.evictions` counter.
    pub fn new(registry: &Registry) -> Self {
        ModelCache(Store::new(registry, "model", RandomState::new()))
    }
}

impl<S: BuildHasher> ModelCache<S> {
    /// The cached program for the source `model` spells, decoding,
    /// parsing and lowering (and caching) it on first sight. `origin`
    /// labels parse errors. The second element reports whether the lookup
    /// was a cache hit.
    pub fn get_or_parse_literal(
        &self,
        model: &Str<'_>,
        origin: &str,
    ) -> Result<(Arc<Program>, bool), PlanError> {
        self.0
            .get_or_build(model.raw(), || plan::parse_model(&model.text(), origin))
    }

    /// [`ModelCache::get_or_parse_literal`] for a source given as text: it
    /// is looked up under the literal a client writes for it.
    pub fn get_or_parse(&self, src: &str, origin: &str) -> Result<(Arc<Program>, bool), PlanError> {
        self.0.get_or_build(json::escape(src).as_str(), || {
            plan::parse_model(src, origin)
        })
    }
}

/// Cache key for a built timing model: which table and which prediction
/// mode, on the whole database or its ping-pong slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingKey {
    /// The caller's name for the table (see [`TimingCache::get_or_build`]).
    pub table: u64,
    /// Prediction-mode discriminant.
    pub mode: u8,
    /// Ping-pong-only slice of the database.
    pub pingpong: bool,
}

impl TimingKey {
    /// The key for a (table, request-shape) pair.
    pub fn new(table: u64, mode: PredictionMode, pingpong: bool) -> Self {
        let mode = match mode {
            PredictionMode::FullDistribution => 0,
            PredictionMode::Average => 1,
            PredictionMode::Minimum => 2,
        };
        TimingKey {
            table,
            mode,
            pingpong,
        }
    }
}

/// Compiled timing models keyed by table and request shape.
pub struct TimingCache(Store<TimingKey, TimingModel>);

impl TimingCache {
    /// A cache whose counters live in `registry` under
    /// `serve.table_cache_hits`, `serve.table_cache_misses` and
    /// `serve.table_compiles`, with a `serve.table_cache_hit_rate` gauge
    /// and the shared `serve.cache.evictions` counter.
    pub fn new(registry: &Registry) -> Self {
        TimingCache(Store::new(registry, "table", RandomState::new()))
    }

    /// The cached timing model for this (table, shape), building it on
    /// first sight. `table_hash` names `table`: equal for the same table,
    /// distinct for different ones, over the cache's lifetime (the daemon
    /// passes the table's load position). The second element reports
    /// whether the lookup was a cache hit.
    pub fn get_or_build(
        &self,
        table_hash: u64,
        table: &DistTable,
        mode: PredictionMode,
        pingpong: bool,
        options: CompileOptions,
    ) -> Result<(Arc<TimingModel>, bool), PlanError> {
        let key = TimingKey::new(table_hash, mode, pingpong);
        self.0
            .get_or_build(&key, || plan::build_timing(table, mode, pingpong, options))
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

    #[test]
    fn a_literal_and_its_source_share_an_entry_and_other_spellings_get_their_own() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        let read = |doc: &str| match json::Scanner::new(doc).value() {
            Ok(json::Value::Str(model)) => cache.get_or_parse_literal(&model, "t").unwrap(),
            other => panic!("a string literal: {other:?}"),
        };
        let spelt = format!("\"{}\"", json::escape(SRC));
        let (a, hit) = read(&spelt);
        assert!(!hit);
        let (b, hit) = cache.get_or_parse(SRC, "t").unwrap();
        assert!(
            hit && Arc::ptr_eq(&a, &b),
            "a source is looked up as a client spells it"
        );
        // The same source with its newlines spelt `\u000a`: an entry of its
        // own, holding the same program.
        let (c, hit) = read(&spelt.replace("\\n", "\\u000a"));
        assert!(!hit && !Arc::ptr_eq(&a, &c));
        assert_eq!(*a, *c);
        assert_eq!(reg.counter("serve.model_compiles").get(), 2);
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
        assert_ne!(*a, *b, "each source gets its own program");
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
        let (table, hash) = (pevpm_bench_table(), 0);
        let reg = Registry::new();
        let cache = TimingCache::new(&reg);
        let opts = CompileOptions;
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

    /// Distinct sources: vary an annotation constant so every source
    /// parses but hashes differently.
    fn src_n(n: usize) -> String {
        SRC.replace("size = 1024", &format!("size = {}", 1024 + n * 8))
    }

    fn len<K: Eq + Hash, V, S: BuildHasher>(store: &Store<K, V, S>) -> usize {
        store.entries.lock().unwrap().map.len()
    }

    #[test]
    fn a_full_cache_evicts_the_least_recently_used_entry() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        for n in 0..CACHE_CAP {
            cache.get_or_parse(&src_n(n), "t").unwrap();
        }
        // Source 0 is hit after the last insert, so source 1 is now the
        // least recently used.
        assert!(cache.get_or_parse(&src_n(0), "t").unwrap().1);
        assert_eq!(reg.counter("serve.cache.evictions").get(), 0);
        cache.get_or_parse(&src_n(CACHE_CAP), "t").unwrap();
        assert_eq!(reg.counter("serve.cache.evictions").get(), 1);
        assert!(
            cache.get_or_parse(&src_n(0), "t").unwrap().1,
            "hit survives"
        );
        assert!(cache.get_or_parse(&src_n(CACHE_CAP), "t").unwrap().1);
        assert!(!cache.get_or_parse(&src_n(1), "t").unwrap().1, "LRU went");
        assert_eq!(len(&cache.0), CACHE_CAP);
    }

    #[test]
    fn evictions_count_entries_and_the_store_stays_bounded() {
        let reg = Registry::new();
        let cache = ModelCache::new(&reg);
        for n in 0..10 * CACHE_CAP {
            cache.get_or_parse(&src_n(n), "t").unwrap();
            assert!(len(&cache.0) <= CACHE_CAP);
        }
        let evicted = 9 * CACHE_CAP as u64;
        assert_eq!(reg.counter("serve.cache.evictions").get(), evicted);
        assert_eq!(reg.gauge("serve.model_cache_hit_rate").get(), 0.0);

        // The timing cache evicts the same way, into the shared counter.
        let (timings, table) = (TimingCache::new(&reg), pevpm_bench_table());
        let (mode, opts) = (PredictionMode::Average, CompileOptions);
        for hash in 0..=CACHE_CAP as u64 {
            timings
                .get_or_build(hash, &table, mode, false, opts)
                .unwrap();
        }
        assert_eq!(reg.counter("serve.cache.evictions").get(), evicted + 1);
        assert_eq!(len(&timings.0), CACHE_CAP);
    }

    #[test]
    fn a_key_built_twice_at_once_evicts_nothing() {
        let reg = Registry::new();
        let store = Store::new(&reg, "model", RandomState::new());
        for k in 0..CACHE_CAP as u64 {
            store.get_or_build(&k, || Ok(k)).unwrap();
        }
        // While this build runs, a second worker misses on the same key
        // and inserts it first, evicting one entry for it.
        let key = CACHE_CAP as u64;
        let (first, hit) = store
            .get_or_build(&key, || {
                let (second, _) = store.get_or_build(&key, || Ok(key))?;
                Ok(*second)
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(reg.counter("serve.cache.evictions").get(), 1);
        assert_eq!(
            reg.counter("serve.model_compiles").get(),
            CACHE_CAP as u64 + 2
        );
        assert_eq!(len(&store), CACHE_CAP);
        let (cached, hit) = store.get_or_build(&key, || Ok(0)).unwrap();
        assert!(hit && Arc::ptr_eq(&first, &cached), "the first entry stays");
    }

    #[test]
    fn the_hit_rate_stays_in_the_unit_interval_under_racing_lookups() {
        let reg = Registry::new();
        let store: Store<u64, u64> = Store::new(&reg, "model", RandomState::new());
        let gauge = reg.gauge("serve.model_cache_hit_rate");
        std::thread::scope(|scope| {
            for worker in 0..2 {
                let (store, gauge) = (&store, &gauge);
                scope.spawn(move || {
                    for i in 0..20_000u64 {
                        // Mostly one shared hot key, now and then a miss.
                        let key = if i % 64 == 0 { 1 + 2 * i + worker } else { 0 };
                        store.get_or_build(&key, || Ok(key)).unwrap();
                        let rate = gauge.get();
                        assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
                    }
                });
            }
        });
        assert_eq!(store.hits.get() + store.misses.get(), 40_000);
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
