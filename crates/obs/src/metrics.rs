//! The metrics facade: named atomic counters, gauges and fixed-bin
//! histograms.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero cost when disabled.** Instrumented code holds an
//!    `Option<Arc<Registry>>`; with `None` the per-event cost is one
//!    branch. With a registry installed, handles ([`Counter`], [`Gauge`],
//!    [`FixedHistogram`]) are resolved *once* by name and each event is a
//!    single relaxed atomic RMW — no name lookup on the hot path
//!    ([`Registry::handles`]); a lookup of an existing name allocates
//!    nothing.
//! 2. **Thread-safe and order-independent.** Parallel Monte-Carlo workers
//!    record into the same registry; every primitive is an atomic add, so
//!    totals are identical however the scheduler interleaves replicas.
//! 3. **Deterministic export.** Snapshots iterate names in sorted order,
//!    so JSON reports are byte-stable for a given set of recordings.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge supporting atomic set and add (bit-cast CAS loop).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically add `v`.
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over a fixed linear binning of `[lo, hi)`.
///
/// Values below `lo` land in the first bin and values at or above `hi` in
/// the last (clamping, never dropping), so the recorded `count` always
/// equals the number of `record` calls. Alongside the bins the histogram
/// tracks the running sum, min and max for cheap summary statistics.
#[derive(Debug)]
pub struct FixedHistogram {
    lo: f64,
    width: f64,
    bins: Vec<AtomicU64>,
    count: AtomicU64,
    sum: Gauge,
    /// Min/max as order-preserving sortable bit patterns.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Map an `f64` to a bit pattern whose unsigned order matches `f64` order
/// (for non-NaN values), so min/max can be maintained with `fetch_min` /
/// `fetch_max`.
fn sortable_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

fn from_sortable_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b & !(1 << 63))
    } else {
        f64::from_bits(!b)
    }
}

impl FixedHistogram {
    /// A histogram with `nbins` equal-width bins spanning `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, nbins: usize) -> Self {
        let nbins = nbins.max(1);
        assert!(hi > lo, "histogram range must be non-empty");
        FixedHistogram {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: (0..nbins).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: Gauge::default(),
            min_bits: AtomicU64::new(sortable_bits(f64::INFINITY)),
            max_bits: AtomicU64::new(sortable_bits(f64::NEG_INFINITY)),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value `v` in one update. Bins,
    /// count, min and max end up exactly as after `n` calls of
    /// [`FixedHistogram::record`]; the sum does too whenever `v * n` is
    /// exact (integer-valued observations, the batched callers' case).
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = ((v - self.lo) / self.width).floor();
        let idx = (idx.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.add(v * n as f64);
        self.min_bits.fetch_min(sortable_bits(v), Ordering::Relaxed);
        self.max_bits.fetch_max(sortable_bits(v), Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the recorded observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean of the recorded observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum.get() / n as f64)
    }

    /// Smallest recorded observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| from_sortable_bits(self.min_bits.load(Ordering::Relaxed)))
    }

    /// Largest recorded observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| from_sortable_bits(self.max_bits.load(Ordering::Relaxed)))
    }

    /// Bin counts, lowest bin first.
    pub fn bin_counts(&self) -> Vec<u64> {
        self.bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Lower edge of bin `i`.
    pub fn bin_edge(&self, i: usize) -> f64 {
        self.lo + self.width * i as f64
    }
}

/// A named collection of metrics.
///
/// Handles are created on first use and shared thereafter: two calls to
/// [`Registry::counter`] with the same name return the same underlying
/// atomic. Name maps are mutex-guarded, but the mutex is only touched at
/// handle-resolution time, never per event.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<FixedHistogram>>>,
    /// Handle sets resolved by [`Registry::handles`], one per type.
    handle_sets: Mutex<Vec<Arc<dyn Any + Send + Sync>>>,
}

/// The handle `name` in `map`, created by `make` on first use; a name
/// already there is found without allocating.
fn get_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().unwrap();
    match map.get(name) {
        Some(handle) => Arc::clone(handle),
        None => Arc::clone(map.entry(name.to_string()).or_insert(Arc::new(make()))),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::default)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::default)
    }

    /// Get or create the histogram `name` with `nbins` linear bins over
    /// `[lo, hi)`. If the name already exists its existing binning wins.
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, nbins: usize) -> Arc<FixedHistogram> {
        get_or_insert(&self.hists, name, || FixedHistogram::linear(lo, hi, nbins))
    }

    /// The set of handles of type `T` for this registry, built by
    /// `resolve` on first use and shared thereafter: a component that
    /// records under fixed names resolves them once per registry, not once
    /// per event batch, and every later call is one lock and no lookup by
    /// name.
    pub fn handles<T: Any + Send + Sync>(&self, resolve: impl FnOnce(&Registry) -> T) -> Arc<T> {
        let mut sets = self.handle_sets.lock().unwrap();
        let found = sets.iter().find_map(|set| Arc::clone(set).downcast().ok());
        found.unwrap_or_else(|| {
            let set = Arc::new(resolve(self));
            sets.push(Arc::clone(&set) as Arc<dyn Any + Send + Sync>);
            set
        })
    }

    /// Render the registry as a deterministic JSON document:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}` with keys
    /// in sorted order.
    pub fn to_json(&self) -> String {
        use crate::json::escape;
        let mut out = String::from("{\n  \"counters\": {");
        {
            let map = self.counters.lock().unwrap();
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    \"{}\": {}", escape(k), v.get()));
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"gauges\": {");
        {
            let map = self.gauges.lock().unwrap();
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n    \"{}\": {}",
                    escape(k),
                    crate::json::num(v.get())
                ));
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("},\n  \"histograms\": {");
        {
            let map = self.hists.lock().unwrap();
            for (i, (k, h)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let bins: Vec<String> = h.bin_counts().iter().map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "\n    \"{}\": {{\"count\": {}, \"lo\": {}, \"bin_width\": {}, \
                     \"mean\": {}, \"min\": {}, \"max\": {}, \"bins\": [{}]}}",
                    escape(k),
                    h.count(),
                    crate::json::num(h.lo),
                    crate::json::num(h.width),
                    crate::json::num(h.mean().unwrap_or(0.0)),
                    crate::json::num(h.min().unwrap_or(0.0)),
                    crate::json::num(h.max().unwrap_or(0.0)),
                    bins.join(", ")
                ));
            }
            if !map.is_empty() {
                out.push_str("\n  ");
            }
        }
        out.push_str("}\n}\n");
        out
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per metric, names sanitized
    /// through [`sanitize_metric_name`], histograms encoded as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`.
    ///
    /// Iteration is in sorted key order, so the rendering is
    /// deterministic for a given set of recordings.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        {
            let map = self.counters.lock().unwrap();
            for (k, v) in map.iter() {
                let name = sanitize_metric_name(k);
                out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", v.get()));
            }
        }
        {
            let map = self.gauges.lock().unwrap();
            for (k, v) in map.iter() {
                let name = sanitize_metric_name(k);
                out.push_str(&format!(
                    "# TYPE {name} gauge\n{name} {}\n",
                    crate::json::num(v.get())
                ));
            }
        }
        {
            let map = self.hists.lock().unwrap();
            for (k, h) in map.iter() {
                let name = sanitize_metric_name(k);
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                let bins = h.bin_counts();
                for (i, c) in bins.iter().enumerate() {
                    cumulative += c;
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        crate::json::num(h.bin_edge(i + 1))
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                    h.count(),
                    crate::json::num(h.sum()),
                    h.count()
                ));
            }
        }
        out
    }
}

/// Sanitize a registry key into a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, a
/// leading digit is prefixed with `_`, and an empty key becomes `_`.
pub fn sanitize_metric_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 1);
    for (i, ch) in key.chars().enumerate() {
        let valid =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ch.is_ascii_digit() && i == 0 {
            out.push('_');
            out.push(ch);
        } else if valid {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("vm.steps");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("vm.steps").get(), 5, "same handle by name");
        let g = r.gauge("loss.halo");
        g.add(0.25);
        g.add(0.5);
        assert!((r.gauge("loss.halo").get() - 0.75).abs() < 1e-15);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn handle_sets_resolve_once_per_registry() {
        struct Set(Arc<Counter>);
        let r = Registry::new();
        let mut resolved = 0;
        for _ in 0..3 {
            r.handles(|r| {
                resolved += 1;
                Set(r.counter("n"))
            })
            .0
            .inc();
        }
        assert_eq!(resolved, 1);
        assert_eq!(r.counter("n").get(), 3);
        let other = Registry::new();
        other.handles(|r| Set(r.counter("n"))).0.inc();
        assert_eq!(r.counter("n").get(), 3, "each registry has its own set");
    }

    #[test]
    fn histogram_clamps_and_summarises() {
        let h = FixedHistogram::linear(0.0, 10.0, 10);
        for v in [-5.0, 0.5, 3.3, 9.9, 42.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        let bins = h.bin_counts();
        assert_eq!(bins[0], 2, "underflow clamps into first bin");
        assert_eq!(bins[9], 2, "overflow clamps into last bin");
        assert_eq!(bins[3], 1);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(42.0));
        assert!((h.mean().unwrap() - 50.7 / 5.0).abs() < 1e-12);
        assert_eq!(h.bin_edge(3), 3.0);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = FixedHistogram::linear(0.0, 1.0, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Arc::new(Registry::new());
        let c = r.counter("n");
        let h = r.histogram("h", 0.0, 64.0, 64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record((t * 1000 + i) as f64 % 64.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bin_counts().iter().sum::<u64>(), 4000);
    }

    #[test]
    fn prometheus_rendering_encodes_cumulative_buckets() {
        let r = Registry::new();
        r.counter("serve.requests.total").add(3);
        r.gauge("cache.hit_rate").set(0.5);
        let h = r.histogram("stage.eval_ms", 0.0, 4.0, 4);
        // Values chosen to keep the running sum exact in binary.
        for v in [0.5, 1.5, 1.75, 3.5, 99.0] {
            h.record(v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE serve_requests_total counter\nserve_requests_total 3\n"));
        assert!(text.contains("# TYPE cache_hit_rate gauge\ncache_hit_rate 0.5\n"));
        assert!(text.contains("stage_eval_ms_bucket{le=\"1\"} 1\n"));
        assert!(
            text.contains("stage_eval_ms_bucket{le=\"2\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_eval_ms_bucket{le=\"4\"} 5\n"),
            "overflow clamps into the last bin: {text}"
        );
        assert!(text.contains("stage_eval_ms_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("stage_eval_ms_count 5\n"));
        assert!(text.contains("stage_eval_ms_sum 106.25\n"), "{text}");
    }

    #[test]
    fn metric_names_sanitize_to_prometheus_identifiers() {
        assert_eq!(
            sanitize_metric_name("serve.stage.eval_ms"),
            "serve_stage_eval_ms"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("a:b-c d"), "a:b_c_d");
        assert_eq!(sanitize_metric_name("ünïcode"), "_n_code");
    }

    #[test]
    fn json_export_is_sorted_and_parseable() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").add(1);
        r.gauge("g").set(1.5);
        r.histogram("h", 0.0, 4.0, 4).record(1.0);
        let js = r.to_json();
        assert!(js.find("a.first").unwrap() < js.find("b.second").unwrap());
        let parsed = crate::json::parse(&js).expect("registry JSON must parse");
        let obj = parsed.as_object().unwrap();
        assert!(obj.contains_key("counters"));
        assert!(obj.contains_key("gauges"));
        assert!(obj.contains_key("histograms"));
    }
}
